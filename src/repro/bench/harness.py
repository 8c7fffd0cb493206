"""Result container and writers shared by all figure runners."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field


@dataclass
class FigureResult:
    """One regenerated table/figure: a header, rows, and provenance notes."""

    figure: str
    title: str
    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    notes: str = ""

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row arity {len(values)} != {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def series(self) -> dict[str, list]:
        return {name: self.column(name) for name in self.columns}


def _fmt(value) -> str:
    if isinstance(value, float):
        if value != 0 and (abs(value) < 1e-3 or abs(value) >= 1e6):
            return f"{value:.3e}"
        return f"{value:.4f}"
    return str(value)


def format_table(result: FigureResult) -> str:
    """A fixed-width text rendering of the figure's series."""
    widths = [
        max(len(c), *(len(_fmt(row[i])) for row in result.rows))
        if result.rows
        else len(c)
        for i, c in enumerate(result.columns)
    ]
    lines = [f"== {result.figure}: {result.title} =="]
    header = "  ".join(
        c.rjust(w) for c, w in zip(result.columns, widths)
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in result.rows:
        lines.append(
            "  ".join(_fmt(v).rjust(w) for v, w in zip(row, widths))
        )
    if result.notes:
        lines.append(f"note: {result.notes}")
    return "\n".join(lines)


def write_results(result: FigureResult, directory: str = "results") -> str:
    """Write <figure>.csv and <figure>.txt under ``directory``."""
    os.makedirs(directory, exist_ok=True)
    csv_path = os.path.join(directory, f"{result.figure}.csv")
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(result.columns)
        writer.writerows(result.rows)
    txt_path = os.path.join(directory, f"{result.figure}.txt")
    with open(txt_path, "w") as handle:
        handle.write(format_table(result) + "\n")
    return csv_path
