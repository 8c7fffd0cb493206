"""WHERE as column masks: a predicate AST compiled to one boolean numpy
array over a :class:`~repro.storage.ColumnBlock`'s buffers.

The mask must equal, row for row, what ``CompiledPredicate.__call__``
returns on the decoded tuples — or not exist: every leaf whose Python
evaluation could raise (an unknown column, ``<`` between str and a
number) or that numpy would evaluate differently (an int64 beyond 2**53
against a float) is unsupported, and the caller runs the per-row loop,
which raises the same typed error or short-circuits past it exactly as
Python does.  A mask cannot short-circuit, so one unsupported leaf
anywhere refuses the whole predicate.
"""

from __future__ import annotations

from repro.parallel.mp_executor.merge import (
    _EXACT_FLOAT_INT,
    _INT64_LIMIT,
    _int_magnitude,
)


class _Unsupported(Exception):
    """This predicate has no exact mask."""


def compiled_predicate(where):
    """The AST behind a parsed WHERE; None for an opaque callable."""
    # repro.sql imports this package (sql.runner), so not at module level.
    from repro.sql.parser import CompiledPredicate

    return where.node if isinstance(where, CompiledPredicate) else None


def predicate_columns(where) -> frozenset | None:
    """The column names a WHERE reads; None when it is opaque."""
    if compiled_predicate(where) is None:
        return None
    return where.columns()


def predicate_mask(cblock, node):
    """Boolean row mask for predicate AST ``node``, or None when no
    exact mask exists (see the module docstring)."""
    try:
        return _mask(cblock, node)
    except _Unsupported:
        return None


def _mask(cblock, node):
    from repro.sql.parser import BoolOp, Between, Comparison, InList, NotOp

    if isinstance(node, BoolOp):
        left, right = _mask(cblock, node.left), _mask(cblock, node.right)
        return left & right if node.op == "and" else left | right
    if isinstance(node, NotOp):
        return ~_mask(cblock, node.child)
    if isinstance(node, Comparison):
        return _compare(cblock, node.op, node.left, node.right)
    if isinstance(node, Between):
        return _compare(cblock, "<=", node.low, node.operand) & _compare(
            cblock, "<=", node.operand, node.high
        )
    if isinstance(node, InList):
        return _in_list(cblock, node.operand, node.values)
    raise _Unsupported


def _operand(cblock, node):
    """``(kind, value, entries)``: value is a Python scalar for a
    literal, the column buffer otherwise; ``entries`` is a str column's
    dictionary values (None for everything else)."""
    from repro.sql.parser import ColumnRef, Literal

    if isinstance(node, Literal):
        kind = {int: "int", float: "float", str: "str"}.get(type(node.value))
        if kind is None:
            raise _Unsupported
        return kind, node.value, None
    if isinstance(node, ColumnRef) and node.name in cblock.schema:
        i = cblock.schema.index_of(node.name)
        kind = cblock.schema.columns[i].kind
        entries = cblock.dictionaries[i].values if kind == "str" else None
        return kind, cblock.columns[i], entries
    raise _Unsupported  # unknown column: the per-row path raises ParseError


def _as_float(kind, value):
    """An int operand as float64, refused where the cast would round."""
    import numpy as np

    if kind == "float":
        return value
    if isinstance(value, int):
        if abs(value) > _EXACT_FLOAT_INT:
            raise _Unsupported
        return float(value)
    if _int_magnitude(value) > _EXACT_FLOAT_INT:
        raise _Unsupported
    return value.astype(np.float64)


def _compare(cblock, op, left, right):
    import numpy as np

    from repro.sql.parser import _OPS

    fn = _OPS.get(op)
    if fn is None:
        raise _Unsupported
    lkind, lval, lentries = _operand(cblock, left)
    rkind, rval, rentries = _operand(cblock, right)
    if (lkind == "str") != (rkind == "str"):
        raise _Unsupported  # str against a number: ordering raises TypeError
    if lkind == "str":
        # Once per dictionary entry, then gathered through the codes.
        if lentries is not None and rentries is None:
            lut = [fn(entry, rval) for entry in lentries]
            codes = lval
        elif rentries is not None and lentries is None:
            lut = [fn(lval, entry) for entry in rentries]
            codes = rval
        elif lentries is None:
            return np.full(cblock.num_rows, fn(lval, rval), dtype=bool)
        else:
            raise _Unsupported  # two str columns: two dictionaries
        return np.asarray(lut, dtype=bool)[codes]
    if lkind == "int" and rkind == "int":
        for value in (lval, rval):
            if isinstance(value, int) and not (
                -_INT64_LIMIT <= value < _INT64_LIMIT
            ):
                raise _Unsupported
    else:
        lval, rval = _as_float(lkind, lval), _as_float(rkind, rval)
    result = fn(lval, rval)
    if isinstance(result, bool):  # literal against literal
        return np.full(cblock.num_rows, result, dtype=bool)
    return result


def _in_list(cblock, operand, values):
    """``operand IN (values)``: ``==`` against each literal, which never
    raises — a str is simply unequal to every number."""
    import numpy as np

    from repro.sql.parser import Literal

    kind, value, entries = _operand(cblock, operand)
    for literal in values:
        if type(literal) not in (int, float, str) or literal != literal:
            raise _Unsupported  # NaN: ``in`` tests identity before ==
    if entries is not None:
        lut = [entry in values for entry in entries]
        return np.asarray(lut, dtype=bool)[value]
    if not hasattr(value, "dtype"):  # a literal operand
        return np.full(cblock.num_rows, value in values, dtype=bool)
    mask = np.zeros(cblock.num_rows, dtype=bool)
    for literal in values:
        if not isinstance(literal, str):
            mask |= _compare(cblock, "=", operand, Literal(literal))
    return mask
