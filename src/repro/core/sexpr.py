"""Scalar expression AST shared by the plan language and code generators.

A scalar expression (``SExpr``) references bound variables' attributes
(``Col(var, attr)``) and composes them with the paper's ``PrimOp`` /
``RelOp`` / ``BoolOp`` operators plus a scalar conditional.  It compiles
to three targets:

* a Spark SQL expression string (Dataset backend; see :func:`to_sql`),
* a Python callable over ``{colname: value}`` rows (RDD backend),
* a Python callable over ``{var: {attr: value}}`` environments
  (NRC interpreter).

Columns produced by the compiler follow the naming convention
``<var>__<attr>`` so that independently-bound variables never collide
after joins/unnests.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Optional


def cname(var: str, attr: str) -> str:
    """Flat column name for attribute ``attr`` of bound variable ``var``."""
    return f"{var}__{attr}"


@dataclass(frozen=True)
class SExpr:
    """Base class for scalar expressions."""


@dataclass(frozen=True)
class Col(SExpr):
    """Reference to attribute ``attr`` of bound variable ``var``."""

    var: str
    attr: str

    @property
    def colname(self) -> str:
        return cname(self.var, self.attr)


@dataclass(frozen=True)
class RawCol(SExpr):
    """Reference to an already-flat column by its exact name."""

    name: str


@dataclass(frozen=True)
class Lit(SExpr):
    """A scalar constant."""

    value: Any


@dataclass(frozen=True)
class BinOp(SExpr):
    """Arithmetic/comparison/boolean binary operator."""

    op: str  # + - * / == != < <= > >= && ||
    left: SExpr
    right: SExpr


@dataclass(frozen=True)
class Not(SExpr):
    """Boolean negation."""

    expr: SExpr


@dataclass(frozen=True)
class IfScalar(SExpr):
    """Scalar conditional: ``if cond then then_ else else_``."""

    cond: SExpr
    then_: SExpr
    else_: SExpr


@dataclass(frozen=True)
class IsNotNull(SExpr):
    """NULL test — witnesses of outer-operator matches (§2.2 Γ casts)."""

    expr: SExpr


@dataclass(frozen=True)
class MkStruct(SExpr):
    """Named struct constructor — composite labels (NewLabel with >1 var)."""

    items: tuple[tuple[str, SExpr], ...]


@dataclass(frozen=True)
class GetField(SExpr):
    """Field access into a struct value (label deconstruction / match)."""

    expr: SExpr
    name: str


_PY_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    # Three-valued, as in SQL: a FALSE operand decides AND and a TRUE
    # one decides OR; otherwise a NULL operand makes the result NULL.
    "&&": lambda a, b: False if False in (a, b) else None if None in (a, b) else True,
    "||": lambda a, b: True if True in (a, b) else None if None in (a, b) else False,
}


def quote(name: str) -> str:
    """A column or field name as a Spark SQL identifier."""
    return "`" + name.replace("`", "``") + "`"


def _lit_sql(v: Any) -> str:
    """A Python scalar as a Spark SQL literal of the type ``F.lit(v)``
    gives it: an int is an INT when it fits 32 bits, else a BIGINT; a
    float is a DOUBLE (a bare ``1.5`` would be a DECIMAL)."""
    if v is None:
        return "NULL"
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    if isinstance(v, int):
        return str(v) if -(2**31) <= v < 2**31 else f"{v}L"
    if isinstance(v, float):
        return f"{v!r}D" if math.isfinite(v) else f"CAST('{v}' AS DOUBLE)"
    if isinstance(v, str):
        return "'" + v.replace("\\", "\\\\").replace("'", "\\'") + "'"
    raise TypeError(f"no SQL literal for {v!r}")


_SQL_OPS = {"==": "=", "&&": "AND", "||": "OR"}


def to_sql(e: SExpr) -> str:
    """Render an SExpr as one Spark SQL expression over ``var__attr``
    columns, so the Dataset backend parses it in one call.  Every
    compound form is parenthesised or a function call, so it nests
    anywhere, a field access included.  Each form parses to the
    expression the Column API builds for it (``struct(x AS n)`` is the
    named struct ``F.struct`` makes)."""
    if isinstance(e, Col):
        return quote(e.colname)
    if isinstance(e, RawCol):
        return quote(e.name)
    if isinstance(e, Lit):
        return _lit_sql(e.value)
    if isinstance(e, BinOp):
        op = _SQL_OPS.get(e.op, e.op)
        return f"({to_sql(e.left)} {op} {to_sql(e.right)})"
    if isinstance(e, Not):
        return f"(NOT {to_sql(e.expr)})"
    if isinstance(e, IfScalar):
        return (
            f"CASE WHEN {to_sql(e.cond)} THEN {to_sql(e.then_)} "
            f"ELSE {to_sql(e.else_)} END"
        )
    if isinstance(e, MkStruct):
        items = (f"{to_sql(x)} AS {quote(n)}" for n, x in e.items)
        return f"struct({', '.join(items)})"
    if isinstance(e, GetField):
        return f"{to_sql(e.expr)}.{quote(e.name)}"
    if isinstance(e, IsNotNull):
        return f"({to_sql(e.expr)} IS NOT NULL)"
    raise TypeError(f"unknown SExpr {e!r}")


def eval_row(e: SExpr, row: dict[str, Any]) -> Any:
    """Evaluate an SExpr over a flat row ``{colname: value}`` (RDD backend)."""
    if isinstance(e, Col):
        return row.get(e.colname)
    if isinstance(e, RawCol):
        return row.get(e.name)
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, BinOp):
        l, r = eval_row(e.left, row), eval_row(e.right, row)
        if e.op in ("&&", "||"):
            return _PY_OPS[e.op](l, r)
        if l is None or r is None:
            return None
        return _PY_OPS[e.op](l, r)
    if isinstance(e, Not):
        v = eval_row(e.expr, row)
        return None if v is None else not v
    if isinstance(e, IfScalar):
        return (
            eval_row(e.then_, row)
            if eval_row(e.cond, row)
            else eval_row(e.else_, row)
        )
    if isinstance(e, MkStruct):
        return {n: eval_row(x, row) for n, x in e.items}
    if isinstance(e, GetField):
        v = eval_row(e.expr, row)
        return None if v is None else v[e.name]
    if isinstance(e, IsNotNull):
        return eval_row(e.expr, row) is not None
    raise TypeError(f"unknown SExpr {e!r}")


def map_children(e: SExpr, f: Callable[[SExpr], SExpr]) -> SExpr:
    """``e`` with ``f`` applied to each direct sub-expression: the one
    child map every expression walker goes through."""
    if isinstance(e, (Col, RawCol, Lit)):
        return e
    if isinstance(e, BinOp):
        return BinOp(e.op, f(e.left), f(e.right))
    if isinstance(e, (Not, IsNotNull)):
        return type(e)(f(e.expr))
    if isinstance(e, IfScalar):
        return IfScalar(f(e.cond), f(e.then_), f(e.else_))
    if isinstance(e, MkStruct):
        return MkStruct(tuple((n, f(x)) for n, x in e.items))
    if isinstance(e, GetField):
        return GetField(f(e.expr), e.name)
    raise TypeError(f"unknown SExpr {e!r}")


def children(e: SExpr) -> list[SExpr]:
    """The direct sub-expressions of ``e``."""
    out: list[SExpr] = []
    map_children(e, lambda x: out.append(x) or x)
    return out


def col_name(e: SExpr) -> Optional[str]:
    """The column an expression merely reads, if it is a plain column."""
    if isinstance(e, Col):
        return e.colname
    if isinstance(e, RawCol):
        return e.name
    return None


def columns_of(e: SExpr) -> set[str]:
    """The set of flat column names referenced by ``e``."""
    name = col_name(e)
    if name is not None:
        return {name}
    return set().union(*map(columns_of, children(e)))
