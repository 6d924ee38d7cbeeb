"""Plan language (§2.2) — algebraic operators over distributed bags.

Operators: selection σ, projection π, join ⋈ / outer join ⟕, unnest μ
and outer-unnest μ̄ (``Unnest`` with ``outer=True`` — adds a unique ID
upstream via ``AddId``), and the nest operators Γ⊎ (``NestBag``) and
Γ⁺ (``NestSum``).  ``WithEmptyArray`` implements the NULL→empty-bag
cast of the Γ operators for the cogroup-fused form; ``Repartition``
is the label repartitioning of ``BagToDict`` (§4.6/Fig. 6).

Plans are immutable trees; the Spark backends interpret them
(``spark_backend.dataset`` / ``spark_backend.rdd_backend``) — the
moral equivalent of the paper's code generation stage (§3.2), except
we interpret rather than emit source text.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .sexpr import SExpr


@dataclass(frozen=True)
class Plan:
    """Base class for plan operators."""


@dataclass(frozen=True)
class Scan(Plan):
    """Scan input bag ``table``; columns renamed to ``var__<attr>``."""

    table: str
    var: str


@dataclass(frozen=True)
class ScanRaw(Plan):
    """Scan a bag whose columns are used as-is (dictionaries, intermediates)."""

    table: str


@dataclass(frozen=True)
class Select(Plan):
    """σ_pred."""

    child: Plan
    pred: SExpr


@dataclass(frozen=True)
class Project(Plan):
    """π — exact projection, each output column computed from an SExpr."""

    child: Plan
    cols: tuple[tuple[str, SExpr], ...]


@dataclass(frozen=True)
class Extend(Plan):
    """Add computed columns, keeping all existing ones."""

    child: Plan
    cols: tuple[tuple[str, SExpr], ...]


@dataclass(frozen=True)
class AddId(Plan):
    """Attach a unique row ID (the outer-unnest/outer-join tuple ID)."""

    child: Plan
    out: str


@dataclass(frozen=True)
class Join(Plan):
    """⋈ / ⟕ / cross; ``conds`` are (left, right) equality pairs."""

    left: Plan
    right: Plan
    conds: tuple[tuple[SExpr, SExpr], ...]
    how: str  # "inner" | "left_outer" | "cross"


@dataclass(frozen=True)
class Unnest(Plan):
    """μ (inner) / μ̄ (outer) over array column ``src_col``.

    Binds ``var``: each element field ``f`` becomes column
    ``var__f``; bag-valued element fields stay arrays (for deeper
    unnests).  The source column is projected away (§2.2).
    """

    child: Plan
    src_col: str
    var: str
    elem_fields: tuple[tuple[str, bool], ...]  # (name, is_bag)
    outer: bool


@dataclass(frozen=True)
class NestBag(Plan):
    """Γ⊎ — group by ``keys``, collect structs of ``struct_fields``.

    Rows whose ``marker`` column is NULL (introduced by outer
    operators) contribute nothing, so groups of only-NULL rows yield
    the empty bag — the NULL→∅ cast of §2.2.
    """

    child: Plan
    keys: tuple[str, ...]
    struct_fields: tuple[tuple[str, str], ...]  # (field name, source col)
    out: str
    marker: str


@dataclass(frozen=True)
class NestSum(Plan):
    """Γ⁺ — group by ``keys``, sum each value expression.

    SQL SUM ignores NULLs; a group of only-NULL rows (outer-operator
    misses) keeps a NULL sum so the parent Γ⊎ can drop it via its
    marker — preserving empty inner bags.
    """

    child: Plan
    keys: tuple[str, ...]
    values: tuple[tuple[str, SExpr], ...]  # (out col, summed expr)


@dataclass(frozen=True)
class Distinct(Plan):
    """dedup — multiplicities to one (flat bags only)."""

    child: Plan


@dataclass(frozen=True)
class WithEmptyArray(Plan):
    """Coalesce a NULL array column (outer-join miss) to the empty array."""

    child: Plan
    col: str


@dataclass(frozen=True)
class Repartition(Plan):
    """Hash-repartition by columns — BagToDict's label partitioning."""

    child: Plan
    cols: tuple[str, ...]


def children(p: Plan) -> list[Plan]:
    if isinstance(p, (Scan, ScanRaw)):
        return []
    if isinstance(p, Join):
        return [p.left, p.right]
    return [p.child]  # type: ignore[attr-defined]


def walk(p: Plan):
    """Yield all nodes of the plan tree (pre-order)."""
    yield p
    for c in children(p):
        yield from walk(c)
