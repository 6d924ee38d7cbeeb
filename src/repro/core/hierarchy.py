"""Comprehension normal form for NRC queries.

The unnesting algorithm (§3.1) and the materialized shredding
transformation (§4.3–4.4) both work level-by-level over the query's
nesting structure.  This module normalises an NRC expression into a
:class:`QLevel` tree — the *hierarchy* of comprehension levels:

* ``gens`` — the level's generators, each iterating either an input
  bag (optionally with equality join conditions) or a path
  ``var.attr`` into a variable bound at this or an enclosing level;
* ``where`` — residual filter conditions;
* ``fields`` — the scalar output attributes (as :class:`SExpr`);
* ``child`` — the (at most one) bag-valued output attribute, itself a
  :class:`QLevel`;
* ``agg`` — an optional ``sumBy``/``groupBy`` wrapper applied to this
  level's bag.

This normal form covers every query of the paper's TPC-H and
biomedical benchmarks (App. B, C).  Queries outside it (e.g. ``⊎`` of
two comprehensions in one field) are still supported by the NRC
interpreter, but both compilers reject them with
:class:`NormalizationError` — a documented restriction
(DESIGN.md §3.1).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import nrc as N
from .sexpr import BinOp, Col, IfScalar, Lit, Not, SExpr, children


class NormalizationError(Exception):
    """Query is outside the comprehension normal form."""


@dataclass
class Gen:
    """One generator of a comprehension level."""

    var: str
    input_name: Optional[str] = None  # iterate an input/assigned bag …
    path: Optional[tuple[str, str]] = None  # … or a path base_var.attr
    conds: list[tuple[SExpr, SExpr]] = field(default_factory=list)
    # equality join conditions (left side: earlier-bound vars; right:
    # this gen's var), attached by the normaliser
    elem: list[tuple[str, bool]] = field(default_factory=list)  # (name, is_bag)

    @property
    def elem_fields(self) -> list[str]:
        return [n for n, b in self.elem if not b]

    @property
    def elem_bag_fields(self) -> list[str]:
        return [n for n, b in self.elem if b]

    @property
    def is_input(self) -> bool:
        return self.input_name is not None


@dataclass
class Agg:
    """sumBy / groupBy wrapper on a level's bag."""

    kind: str  # "sum" | "group"
    keys: list[str]
    values: list[str]  # summed fields for "sum"; ignored for "group"


@dataclass
class QLevel:
    """One nesting level of a query in comprehension normal form."""

    gens: list[Gen]
    where: Optional[SExpr]
    fields: list[tuple[str, SExpr]]
    child: Optional[tuple[str, "QLevel"]]
    agg: Optional[Agg] = None

    def depth(self) -> int:
        return 0 if self.child is None else 1 + self.child[1].depth()


# --------------------------------------------------------------------------
# Scalar NRC → SExpr
# --------------------------------------------------------------------------


def _to_sexpr(e: N.Expr, subst: dict[str, SExpr]) -> SExpr:
    """Convert a scalar NRC expression to an SExpr.

    ``subst`` maps let-bound scalar variables to their (inlined)
    SExpr values.
    """
    if isinstance(e, N.Const):
        return Lit(e.value)
    if isinstance(e, N.Proj):
        if isinstance(e.expr, N.Var):
            return Col(e.expr.name, e.attr)
        raise NormalizationError(f"non-variable projection base {e!r}")
    if isinstance(e, N.Var):
        if e.name in subst:
            return subst[e.name]
        raise NormalizationError(f"bare variable {e.name} in scalar position")
    if isinstance(e, N.PrimOp):
        return BinOp(e.op, _to_sexpr(e.left, subst), _to_sexpr(e.right, subst))
    if isinstance(e, N.NotE):
        return Not(_to_sexpr(e.expr, subst))
    if isinstance(e, N.IfThen) and e.else_ is not None:
        return IfScalar(
            _to_sexpr(e.cond, subst),
            _to_sexpr(e.then_, subst),
            _to_sexpr(e.else_, subst),
        )
    if isinstance(e, N.Let):
        return _to_sexpr(
            e.body, {**subst, e.var: _to_sexpr(e.bound, subst)}
        )
    raise NormalizationError(f"unsupported scalar expression {e!r}")


def _split_conj(e: N.Expr) -> list[N.Expr]:
    if isinstance(e, N.PrimOp) and e.op == "&&":
        return _split_conj(e.left) + _split_conj(e.right)
    return [e]


def _sexpr_vars(e: SExpr) -> set[str]:
    if isinstance(e, Col):
        return {e.var}
    return set().union(*map(_sexpr_vars, children(e)))


def pick_marker(fields: list[tuple], own_vars: set[str]) -> str:
    """The empty-bag marker of a level's Γ⊎: the first column whose
    value reads the level's own generators, so it is NULL exactly when
    the level produced no tuple.  ``fields`` are tuples ending in
    ``(column, expression)``."""
    for *_, col, sx in fields:
        if _sexpr_vars(sx) & own_vars:
            return col
    raise NormalizationError(
        "cannot determine empty-bag marker: no output field references "
        "this level's generators"
    )


# --------------------------------------------------------------------------
# NRC → QLevel
# --------------------------------------------------------------------------


def to_hierarchy(e: N.Expr, env: dict[str, N.Type]) -> QLevel:
    """Normalise NRC query ``e`` into a :class:`QLevel` tree.

    ``env`` types the free (input / previously-assigned) bag variables.
    """
    return _norm_level(e, env, outer_vars=set())


def _elem_type(t: N.Type) -> N.TupleT:
    if not isinstance(t, N.BagT) or not isinstance(t.elem, N.TupleT):
        raise NormalizationError(f"generator over non-tuple bag {t}")
    return t.elem


def _norm_level(
    e: N.Expr, env: dict[str, N.Type], outer_vars: set[str]
) -> QLevel:
    agg: Optional[Agg] = None
    if isinstance(e, N.SumBy):
        agg = Agg("sum", list(e.keys), list(e.values))
        e = e.expr
    elif isinstance(e, N.GroupBy):
        agg = Agg("group", list(e.keys), [])
        e = e.expr

    gens: list[Gen] = []
    pending: list[N.Expr] = []  # conditions seen so far, in order
    local_env = dict(env)
    bound_here: list[str] = []

    def bind_gen(var: str, src: N.Expr) -> None:
        if isinstance(src, N.Var) and isinstance(
            local_env.get(src.name), N.BagT
        ):
            g = Gen(var=var, input_name=src.name)
            elem = _elem_type(local_env[src.name])
        elif isinstance(src, N.Proj) and isinstance(src.expr, N.Var):
            base = src.expr.name
            base_t = local_env.get(base)
            if not isinstance(base_t, N.TupleT):
                raise NormalizationError(
                    f"path generator over untyped base {base}"
                )
            g = Gen(var=var, path=(base, src.attr))
            elem = _elem_type(base_t.field(src.attr))
        else:
            raise NormalizationError(f"unsupported generator source {src!r}")
        g.elem = [(n, isinstance(t, N.BagT)) for n, t in elem.fields]
        gens.append(g)
        local_env[var] = elem
        bound_here.append(var)

    # Walk the for/if spine down to the singleton head.
    cur = e
    while True:
        if isinstance(cur, N.ForUnion):
            bind_gen(cur.var, cur.source)
            cur = cur.body
        elif isinstance(cur, N.IfThen) and cur.else_ is None:
            pending.extend(_split_conj(cur.cond))
            cur = cur.then_
        elif isinstance(cur, N.Let):
            # Scalar let: inline into the head via substitution later.
            # We only support lets whose bound expr is scalar.
            bt = N.infer_type(cur.bound, local_env)
            if isinstance(bt, N.BagT):
                raise NormalizationError("bag-valued let in comprehension")
            cur = _subst_var(cur.body, cur.var, cur.bound)
        elif isinstance(cur, N.Singleton):
            head = cur.expr
            break
        else:
            raise NormalizationError(f"unsupported comprehension body {cur!r}")

    if not isinstance(head, N.TupleE):
        raise NormalizationError(f"head must be a tuple constructor, {head!r}")

    # Attach conditions: each equality linking this level's newest gen
    # becomes a join condition on that gen; the rest go to `where`.
    where_parts: list[SExpr] = []
    gen_by_var = {g.var: g for g in gens}
    for cond in pending:
        sx = _to_sexpr(cond, {})
        cvars = _sexpr_vars(sx)
        here = [v for v in bound_here if v in cvars]
        if (
            isinstance(sx, BinOp)
            and sx.op == "=="
            and here
            and isinstance(sx.left, Col)
            and isinstance(sx.right, Col)
        ):
            # join-style equality: attach to the later-bound side
            later = max(here, key=bound_here.index)
            g = gen_by_var[later]
            l, r = sx.left, sx.right
            if l.var == later:
                l, r = r, l
            g.conds.append((l, r))
        else:
            where_parts.append(sx)

    where: Optional[SExpr] = None
    for w in where_parts:
        where = w if where is None else BinOp("&&", where, w)

    # Head fields: scalars stay; the (single) bag field becomes the child.
    fields: list[tuple[str, SExpr]] = []
    child: Optional[tuple[str, QLevel]] = None
    for name, fe in head.fields:
        ft = N.infer_type(fe, local_env)
        if isinstance(ft, N.BagT):
            if child is not None:
                raise NormalizationError(
                    "at most one bag-valued output attribute per level "
                    "is supported by the distributed compiler"
                )
            child = (
                name,
                _norm_level(
                    fe, local_env, outer_vars | set(local_env.keys())
                ),
            )
        else:
            fields.append((name, _to_sexpr(fe, {})))

    return QLevel(gens=gens, where=where, fields=fields, child=child, agg=agg)


def _subst_var(e: N.Expr, var: str, val: N.Expr) -> N.Expr:
    """Capture-avoiding-enough substitution for scalar let inlining."""
    if isinstance(e, N.Var):
        return val if e.name == var else e
    if isinstance(e, N.Const) or isinstance(e, N.EmptyBag):
        return e
    if isinstance(e, N.Proj):
        return N.Proj(_subst_var(e.expr, var, val), e.attr)
    if isinstance(e, N.TupleE):
        return N.TupleE(
            tuple((n, _subst_var(x, var, val)) for n, x in e.fields)
        )
    if isinstance(e, N.Singleton):
        return N.Singleton(_subst_var(e.expr, var, val))
    if isinstance(e, N.Get):
        return N.Get(_subst_var(e.expr, var, val))
    if isinstance(e, N.ForUnion):
        if e.var == var:
            return N.ForUnion(e.var, _subst_var(e.source, var, val), e.body)
        return N.ForUnion(
            e.var,
            _subst_var(e.source, var, val),
            _subst_var(e.body, var, val),
        )
    if isinstance(e, N.Union):
        return N.Union(
            _subst_var(e.left, var, val), _subst_var(e.right, var, val)
        )
    if isinstance(e, N.Let):
        if e.var == var:
            return N.Let(e.var, _subst_var(e.bound, var, val), e.body)
        return N.Let(
            e.var,
            _subst_var(e.bound, var, val),
            _subst_var(e.body, var, val),
        )
    if isinstance(e, N.IfThen):
        return N.IfThen(
            _subst_var(e.cond, var, val),
            _subst_var(e.then_, var, val),
            None if e.else_ is None else _subst_var(e.else_, var, val),
        )
    if isinstance(e, N.PrimOp):
        return N.PrimOp(
            e.op, _subst_var(e.left, var, val), _subst_var(e.right, var, val)
        )
    if isinstance(e, N.NotE):
        return N.NotE(_subst_var(e.expr, var, val))
    if isinstance(e, N.Dedup):
        return N.Dedup(_subst_var(e.expr, var, val))
    if isinstance(e, N.GroupBy):
        return N.GroupBy(e.keys, _subst_var(e.expr, var, val))
    if isinstance(e, N.SumBy):
        return N.SumBy(e.keys, e.values, _subst_var(e.expr, var, val))
    raise TypeError(f"unknown expression {e!r}")
