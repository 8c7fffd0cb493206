"""``python -m repro.obs.validate <artifact> ...`` exits 1, printing the
problems, if any file fails :func:`repro.obs.schema.validate_file`."""

import sys

from repro.obs.schema import validate_file


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else list(argv)
    if not paths:
        print("usage: python -m repro.obs.validate <artifact.json> ...")
        return 2
    failed = 0
    for path in paths:
        problems = validate_file(path)
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {path}")
        for problem in problems:
            print(f"  - {problem}")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
