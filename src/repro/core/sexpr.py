"""Scalar expression AST shared by the plan language and code generators.

A scalar expression (``SExpr``) references bound variables' attributes
(``Col(var, attr)``) and composes them with the paper's ``PrimOp`` /
``RelOp`` / ``BoolOp`` operators plus a scalar conditional.  It compiles
to three targets:

* a PySpark ``Column`` (Dataset backend; see :func:`to_spark`),
* a Python callable over ``{colname: value}`` rows (RDD backend),
* a Python callable over ``{var: {attr: value}}`` environments
  (NRC interpreter).

Columns produced by the compiler follow the naming convention
``<var>__<attr>`` so that independently-bound variables never collide
after joins/unnests.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable

from pyspark.sql import Column
from pyspark.sql import functions as F


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
    "&&": lambda a, b: bool(a) and bool(b),
    "||": lambda a, b: bool(a) or bool(b),
}


def to_spark(e: SExpr) -> Column:
    """Compile an SExpr to a PySpark Column over ``var__attr`` columns."""
    if isinstance(e, Col):
        return F.col(e.colname)
    if isinstance(e, RawCol):
        return F.col(e.name)
    if isinstance(e, Lit):
        return F.lit(e.value)
    if isinstance(e, BinOp):
        l, r = to_spark(e.left), to_spark(e.right)
        return {
            "+": l + r, "-": l - r, "*": l * r, "/": l / r,
            "==": l == r, "!=": l != r, "<": l < r, "<=": l <= r,
            ">": l > r, ">=": l >= r, "&&": l & r, "||": l | r,
        }[e.op]
    if isinstance(e, Not):
        return ~to_spark(e.expr)
    if isinstance(e, IfScalar):
        return F.when(to_spark(e.cond), to_spark(e.then_)).otherwise(
            to_spark(e.else_)
        )
    if isinstance(e, MkStruct):
        return F.struct(*[to_spark(x).alias(n) for n, x in e.items])
    if isinstance(e, GetField):
        return to_spark(e.expr).getField(e.name)
    if isinstance(e, IsNotNull):
        return to_spark(e.expr).isNotNull()
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


def columns_of(e: SExpr) -> set[str]:
    """The set of flat column names referenced by ``e``."""
    if isinstance(e, Col):
        return {e.colname}
    if isinstance(e, RawCol):
        return {e.name}
    return set().union(*map(columns_of, children(e)))
