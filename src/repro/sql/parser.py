"""Recursive-descent parser: SQL text → (table name, AggregateQuery).

The grammar is the paper's canonical query (Section 2)::

    SELECT [DISTINCT] item {, item}
    FROM table
    [WHERE predicate] [GROUP BY col {, col}] [HAVING predicate]

    item      := aggregate | column
    aggregate := FUNC '(' '*' | [DISTINCT] column ')' [AS alias]
    predicate := comparisons combined with AND / OR / NOT / parentheses

Predicates compile to Python closures: the WHERE closure sees the input
row as a column-name dict, the HAVING closure the result row as an
output-name dict (aggregate references like ``SUM(val)`` are resolved
against the SELECT list, alias or not).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

from repro.core.aggregates import AggregateSpec
from repro.core.query import AggregateQuery
from repro.sql.lexer import Token, tokenize

_FUNCTIONS = {
    "COUNT": "count",
    "SUM": "sum",
    "AVG": "avg",
    "MIN": "min",
    "MAX": "max",
    "VAR": "var",
    "VARIANCE": "var",
    "STDDEV": "stddev",
}

_OPS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class ParseError(ValueError):
    """The query text does not match the supported grammar."""


# --- predicate AST ----------------------------------------------------------


def _unknown_column(name: str, available) -> ParseError:
    return ParseError(
        f"unknown column {name!r} in predicate; "
        f"available: {sorted(available)}"
    )


@dataclass(frozen=True)
class ColumnRef:
    name: str

    def eval(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise _unknown_column(self.name, env) from None


@dataclass(frozen=True)
class Literal:
    value: object

    def eval(self, env):
        return self.value


@dataclass(frozen=True)
class Comparison:
    op: str
    left: object
    right: object

    def eval(self, env) -> bool:
        return _OPS[self.op](self.left.eval(env), self.right.eval(env))


@dataclass(frozen=True)
class BoolOp:
    op: str  # "and" | "or"
    left: object
    right: object

    def eval(self, env) -> bool:
        if self.op == "and":
            return self.left.eval(env) and self.right.eval(env)
        return self.left.eval(env) or self.right.eval(env)


@dataclass(frozen=True)
class NotOp:
    child: object

    def eval(self, env) -> bool:
        return not self.child.eval(env)


@dataclass(frozen=True)
class InList:
    operand: object
    values: tuple

    def eval(self, env) -> bool:
        return self.operand.eval(env) in self.values


@dataclass(frozen=True)
class Between:
    operand: object
    low: object
    high: object

    def eval(self, env) -> bool:
        value = self.operand.eval(env)
        return self.low.eval(env) <= value <= self.high.eval(env)


@dataclass(frozen=True)
class CompiledPredicate:
    """A picklable callable over a predicate AST.

    Parsed queries cross the process boundary when they run on the
    multiprocessing substrate (``run_sql(..., substrate="mp")`` ships
    the query to pool workers); a closure would not survive pickling,
    but the AST nodes are plain frozen dataclasses, so a callable
    wrapper holding the root node does.
    """

    node: object

    def __call__(self, env) -> bool:
        return bool(self.node.eval(env))

    def columns(self) -> frozenset[str]:
        """Every column name the predicate reads."""
        names: set[str] = set()
        _collect_columns(self.node, names)
        return frozenset(names)

    def check_columns(self, available) -> None:
        """Raise the ParseError evaluation would raise if the predicate
        names a column outside ``available``."""
        missing = sorted(self.columns().difference(available))
        if missing:
            raise _unknown_column(missing[0], available)


def _collect_columns(node, names: set) -> None:
    if isinstance(node, ColumnRef):
        names.add(node.name)
    elif is_dataclass(node):
        for f in fields(node):
            _collect_columns(getattr(node, f.name), names)


def _compile(node):
    return CompiledPredicate(node)


# --- the parser -------------------------------------------------------------


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token plumbing --

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        token = self.peek()
        if token.kind != kind:
            return None
        if value is not None and token.value != value:
            return None
        return self.next()

    def expect(self, kind: str, value: str | None = None) -> Token:
        token = self.accept(kind, value)
        if token is None:
            got = self.peek()
            wanted = value or kind
            raise ParseError(
                f"expected {wanted} at position {got.position}, "
                f"got {got.value or got.kind!r}"
            )
        return token

    # -- grammar --

    def parse(self) -> tuple[str, AggregateQuery]:
        self.expect("KEYWORD", "SELECT")
        distinct = self.accept("KEYWORD", "DISTINCT") is not None
        items = self._select_list()
        self.expect("KEYWORD", "FROM")
        table = self.expect("IDENT").value
        where_ast = None
        if self.accept("KEYWORD", "WHERE"):
            where_ast = self._expr()
        group_by: list[str] = []
        if self.accept("KEYWORD", "GROUP"):
            self.expect("KEYWORD", "BY")
            group_by = self._ident_list()
        having_ast = None
        if self.accept("KEYWORD", "HAVING"):
            having_ast = self._expr(in_having=True, items=items)
        self.expect("END")
        return table, self._build_query(
            items, distinct, group_by, where_ast, having_ast
        )

    def _select_list(self):
        items = [self._select_item()]
        while self.accept("SYMBOL", ","):
            items.append(self._select_item())
        return items

    def _select_item(self):
        token = self.peek()
        if (
            token.kind == "IDENT"
            and token.value.upper() in _FUNCTIONS
            and self.tokens[self.pos + 1].kind == "SYMBOL"
            and self.tokens[self.pos + 1].value == "("
        ):
            spec = self._aggregate_call()
            alias = None
            if self.accept("KEYWORD", "AS"):
                alias = self.expect("IDENT").value
            if alias is not None:
                spec = AggregateSpec(spec.func, spec.column, alias)
            return ("agg", spec)
        column = self.expect("IDENT").value
        return ("col", column)

    def _aggregate_call(self) -> AggregateSpec:
        name = self.expect("IDENT").value.upper()
        func = _FUNCTIONS[name]
        self.expect("SYMBOL", "(")
        if self.accept("SYMBOL", "*"):
            if func != "count":
                raise ParseError(f"{name}(*) is only valid for COUNT")
            self.expect("SYMBOL", ")")
            return AggregateSpec("count", None)
        if self.accept("KEYWORD", "DISTINCT"):
            if func != "count":
                raise ParseError(
                    "DISTINCT inside an aggregate is only supported "
                    "for COUNT"
                )
            column = self.expect("IDENT").value
            self.expect("SYMBOL", ")")
            return AggregateSpec("count_distinct", column)
        column = self.expect("IDENT").value
        self.expect("SYMBOL", ")")
        return AggregateSpec(func, column)

    def _ident_list(self) -> list[str]:
        names = [self.expect("IDENT").value]
        while self.accept("SYMBOL", ","):
            names.append(self.expect("IDENT").value)
        return names

    # -- predicates --

    def _expr(self, in_having: bool = False, items=None):
        node = self._and_expr(in_having, items)
        while self.accept("KEYWORD", "OR"):
            node = BoolOp("or", node, self._and_expr(in_having, items))
        return node

    def _and_expr(self, in_having, items):
        node = self._not_expr(in_having, items)
        while self.accept("KEYWORD", "AND"):
            node = BoolOp("and", node, self._not_expr(in_having, items))
        return node

    def _not_expr(self, in_having, items):
        if self.accept("KEYWORD", "NOT"):
            return NotOp(self._not_expr(in_having, items))
        if self.accept("SYMBOL", "("):
            node = self._expr(in_having, items)
            self.expect("SYMBOL", ")")
            return node
        return self._comparison(in_having, items)

    def _comparison(self, in_having, items):
        left = self._operand(in_having, items)
        if self.accept("KEYWORD", "IN"):
            return self._in_list(left, in_having, items)
        if self.accept("KEYWORD", "BETWEEN"):
            low = self._operand(in_having, items)
            self.expect("KEYWORD", "AND")
            high = self._operand(in_having, items)
            return Between(left, low, high)
        op = self.expect("SYMBOL")
        if op.value not in _OPS:
            raise ParseError(
                f"expected a comparison operator at position "
                f"{op.position}, got {op.value!r}"
            )
        right = self._operand(in_having, items)
        return Comparison(op.value, left, right)

    def _in_list(self, left, in_having, items):
        self.expect("SYMBOL", "(")
        values = []
        while True:
            operand = self._operand(in_having, items)
            if not isinstance(operand, Literal):
                raise ParseError("IN lists may only contain literals")
            values.append(operand.value)
            if not self.accept("SYMBOL", ","):
                break
        self.expect("SYMBOL", ")")
        return InList(left, tuple(values))

    def _operand(self, in_having, items):
        token = self.peek()
        if token.kind == "NUMBER":
            self.next()
            text = token.value
            value = float(text) if any(c in text for c in ".eE") else int(
                text
            )
            return Literal(value)
        if token.kind == "STRING":
            self.next()
            return Literal(token.value)
        if token.kind == "IDENT":
            if (
                in_having
                and token.value.upper() in _FUNCTIONS
                and self.tokens[self.pos + 1].kind == "SYMBOL"
                and self.tokens[self.pos + 1].value == "("
            ):
                spec = self._aggregate_call()
                return ColumnRef(self._resolve_output(spec, items))
            self.next()
            return ColumnRef(token.value)
        raise ParseError(
            f"expected a value or column at position {token.position}, "
            f"got {token.value or token.kind!r}"
        )

    @staticmethod
    def _resolve_output(spec: AggregateSpec, items) -> str:
        """Match a HAVING aggregate reference to a SELECT-list entry."""
        for kind, item in items or ():
            if kind != "agg":
                continue
            if item.func == spec.func and item.column == spec.column:
                return item.output_name
        raise ParseError(
            f"HAVING references {spec.output_name}, which is not in "
            "the SELECT list"
        )

    # -- assembly --

    @staticmethod
    def _build_query(items, distinct, group_by, where_ast, having_ast):
        columns = [item for kind, item in items if kind == "col"]
        specs = [item for kind, item in items if kind == "agg"]
        if distinct:
            if specs:
                raise ParseError(
                    "SELECT DISTINCT with aggregates is not supported"
                )
            if group_by and group_by != columns:
                raise ParseError(
                    "SELECT DISTINCT columns must match GROUP BY"
                )
            group_by = columns
            specs = [AggregateSpec("count", None, alias="_dup_count")]
        if not specs:
            raise ParseError(
                "the SELECT list needs at least one aggregate "
                "(or use SELECT DISTINCT)"
            )
        if not group_by and columns:
            raise ParseError(
                f"non-aggregated columns {columns} require GROUP BY"
            )
        if group_by and set(columns) - set(group_by):
            extra = sorted(set(columns) - set(group_by))
            raise ParseError(
                f"selected columns {extra} are not in GROUP BY"
            )
        return AggregateQuery(
            group_by=group_by,
            aggregates=specs,
            where=_compile(where_ast) if where_ast is not None else None,
            having=(
                _compile(having_ast) if having_ast is not None else None
            ),
        )


def parse_query(sql: str) -> tuple[str, AggregateQuery]:
    """Parse ``sql``; returns (table name, AggregateQuery)."""
    return _Parser(sql).parse()
