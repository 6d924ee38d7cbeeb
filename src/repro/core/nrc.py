"""NRC — the paper's source language (Fig. 1).

Types: scalars (int/real/string/bool/date), tuple types, bag types.
Expressions: constants, variables, projection, tuple construction,
for-union comprehensions, bag union, let, singleton/empty bag, ``get``,
``if-then``, ``dedup``, ``groupBy_key`` and ``sumBy_key^value``, plus
scalar primitive/comparison/boolean operators.

A *program* is a sequence of assignments ``var <= expr`` (class
:class:`Program`); later assignments may reference earlier ones, which
is how the paper expresses multi-step pipelines (e.g. the biomedical
E2E pipeline).

The module also provides a structural type checker
(:func:`infer_type`) used by the compiler to distinguish bag-valued
from scalar-valued attributes (the pivot of both the unnesting and the
shredding transformations).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

# --------------------------------------------------------------------------
# Types
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Type:
    """Base class for NRC types."""


@dataclass(frozen=True)
class Scalar(Type):
    """Scalar type: one of int/real/string/bool/date."""

    name: str  # "int" | "real" | "string" | "bool" | "date"


INT = Scalar("int")
REAL = Scalar("real")
STRING = Scalar("string")
BOOL = Scalar("bool")
DATE = Scalar("date")


@dataclass(frozen=True)
class TupleT(Type):
    """Tuple type ⟨a1:T1, …, an:Tn⟩."""

    fields: tuple[tuple[str, Type], ...]

    def field(self, name: str) -> Type:
        for n, t in self.fields:
            if n == name:
                return t
        raise KeyError(f"no attribute {name!r} in {self}")

    @property
    def names(self) -> list[str]:
        return [n for n, _ in self.fields]


@dataclass(frozen=True)
class BagT(Type):
    """Bag type Bag(F) — F restricted to tuple or scalar (Fig. 1)."""

    elem: Type


def tuple_t(**fields: Type) -> TupleT:
    """Convenience constructor preserving field order."""
    return TupleT(tuple(fields.items()))


def is_flat(t: Type) -> bool:
    """A flat bag: every attribute of the element tuple is scalar."""
    if not isinstance(t, BagT):
        return False
    if isinstance(t.elem, Scalar):
        return True
    return all(isinstance(ft, Scalar) for _, ft in t.elem.fields)


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Base class for NRC expressions."""

    # Sugar for building projections / conditions fluently in query defs.
    def __getattr__(self, name: str) -> "Proj":
        if name.startswith("_"):
            raise AttributeError(name)
        return Proj(self, name)


@dataclass(frozen=True)
class Const(Expr):
    """Scalar constant with its type."""

    value: Any
    type: Scalar


@dataclass(frozen=True)
class Var(Expr):
    """Variable reference (free input, for-bound, or let-bound)."""

    name: str


@dataclass(frozen=True)
class Proj(Expr):
    """Attribute access e.a."""

    expr: Expr
    attr: str


@dataclass(frozen=True)
class TupleE(Expr):
    """Tuple constructor ⟨a1 := e1, …⟩."""

    fields: tuple[tuple[str, Expr], ...]


def tup(**fields: Expr) -> TupleE:
    return TupleE(tuple(fields.items()))


@dataclass(frozen=True)
class Singleton(Expr):
    """{e} — singleton bag."""

    expr: Expr


@dataclass(frozen=True)
class EmptyBag(Expr):
    """∅_Bag(F) — typed empty bag."""

    type: BagT


@dataclass(frozen=True)
class Get(Expr):
    """get(e) — sole element of a singleton bag (default value otherwise)."""

    expr: Expr


@dataclass(frozen=True)
class ForUnion(Expr):
    """for var in source union body."""

    var: str
    source: Expr
    body: Expr


@dataclass(frozen=True)
class Union(Expr):
    """e1 ⊎ e2 — additive bag union."""

    left: Expr
    right: Expr


@dataclass(frozen=True)
class Let(Expr):
    """let var := e1 in e2."""

    var: str
    bound: Expr
    body: Expr


@dataclass(frozen=True)
class IfThen(Expr):
    """if cond then e (else empty bag / default — bag-typed body)."""

    cond: Expr
    then_: Expr
    else_: Optional[Expr] = None


@dataclass(frozen=True)
class PrimOp(Expr):
    """Scalar primitive / comparison / boolean operator."""

    op: str  # + - * / == != < <= > >= && ||
    left: Expr
    right: Expr


@dataclass(frozen=True)
class NotE(Expr):
    """Boolean negation."""

    expr: Expr


@dataclass(frozen=True)
class Dedup(Expr):
    """dedup(e) — multiplicities to one; input must be a flat bag."""

    expr: Expr


@dataclass(frozen=True)
class GroupBy(Expr):
    """groupBy_keys(e): per distinct key, a GROUP bag of the rest."""

    keys: tuple[str, ...]
    expr: Expr


@dataclass(frozen=True)
class SumBy(Expr):
    """sumBy_keys^values(e): per distinct key, sum of the value attrs."""

    keys: tuple[str, ...]
    values: tuple[str, ...]
    expr: Expr


@dataclass(frozen=True)
class Assignment:
    """One ``var <= expr`` step of an NRC program."""

    var: str
    expr: Expr


@dataclass
class Program:
    """A sequence of assignments (Fig. 1, P ::= (var ⇐ e)*)."""

    assignments: list[Assignment] = field(default_factory=list)

    def assign(self, var: str, expr: Expr) -> "Program":
        self.assignments.append(Assignment(var, expr))
        return self


# --------------------------------------------------------------------------
# Comparison / arithmetic sugar
# --------------------------------------------------------------------------


def eq(a: Expr, b: Expr) -> PrimOp:
    return PrimOp("==", a, b)


def and_(*cs: Expr) -> Expr:
    out = cs[0]
    for c in cs[1:]:
        out = PrimOp("&&", out, c)
    return out


def const(v: Any) -> Const:
    if isinstance(v, bool):
        return Const(v, BOOL)
    if isinstance(v, int):
        return Const(v, INT)
    if isinstance(v, float):
        return Const(v, REAL)
    if isinstance(v, str):
        return Const(v, STRING)
    raise TypeError(f"unsupported constant {v!r}")


# --------------------------------------------------------------------------
# Type checking
# --------------------------------------------------------------------------

_SCALAR_RESULT = {
    "+": None, "-": None, "*": None, "/": None,  # numeric, same kind
    "==": BOOL, "!=": BOOL, "<": BOOL, "<=": BOOL, ">": BOOL, ">=": BOOL,
    "&&": BOOL, "||": BOOL,
}


class TypeError_(Exception):
    """NRC type error."""


def infer_type(e: Expr, env: dict[str, Type]) -> Type:
    """Infer the NRC type of ``e`` under variable typing ``env``.

    Raises :class:`TypeError_` on ill-typed expressions.  This is the
    checker the compilation routes rely on to classify attributes as
    bag- vs scalar-valued.
    """
    if isinstance(e, Const):
        return e.type
    if isinstance(e, Var):
        if e.name not in env:
            raise TypeError_(f"unbound variable {e.name}")
        return env[e.name]
    if isinstance(e, Proj):
        t = infer_type(e.expr, env)
        if not isinstance(t, TupleT):
            raise TypeError_(f"projection .{e.attr} on non-tuple {t}")
        return t.field(e.attr)
    if isinstance(e, TupleE):
        return TupleT(tuple((n, infer_type(x, env)) for n, x in e.fields))
    if isinstance(e, Singleton):
        return BagT(infer_type(e.expr, env))
    if isinstance(e, EmptyBag):
        return e.type
    if isinstance(e, Get):
        t = infer_type(e.expr, env)
        if not isinstance(t, BagT):
            raise TypeError_(f"get on non-bag {t}")
        return t.elem
    if isinstance(e, ForUnion):
        src = infer_type(e.source, env)
        if not isinstance(src, BagT):
            raise TypeError_(f"for over non-bag {src}")
        body = infer_type(e.body, {**env, e.var: src.elem})
        if not isinstance(body, BagT):
            raise TypeError_(f"for body must be a bag, got {body}")
        return body
    if isinstance(e, Union):
        lt, rt = infer_type(e.left, env), infer_type(e.right, env)
        if lt != rt:
            raise TypeError_(f"union of mismatched bags {lt} vs {rt}")
        return lt
    if isinstance(e, Let):
        return infer_type(e.body, {**env, e.var: infer_type(e.bound, env)})
    if isinstance(e, IfThen):
        ct = infer_type(e.cond, env)
        if ct != BOOL:
            raise TypeError_(f"if condition must be bool, got {ct}")
        tt = infer_type(e.then_, env)
        if e.else_ is not None:
            et = infer_type(e.else_, env)
            if tt != et:
                raise TypeError_(f"if branches differ: {tt} vs {et}")
        elif not isinstance(tt, BagT):
            raise TypeError_("if-then without else requires a bag body")
        return tt
    if isinstance(e, PrimOp):
        lt, rt = infer_type(e.left, env), infer_type(e.right, env)
        if not isinstance(lt, Scalar) or not isinstance(rt, Scalar):
            raise TypeError_(f"PrimOp {e.op} on non-scalars {lt}, {rt}")
        res = _SCALAR_RESULT.get(e.op)
        if res is not None:
            return res
        if e.op == "/":
            return REAL
        if lt == rt:
            return lt
        if {lt, rt} == {INT, REAL}:
            return REAL
        raise TypeError_(f"arithmetic {e.op} on {lt}, {rt}")
    if isinstance(e, NotE):
        if infer_type(e.expr, env) != BOOL:
            raise TypeError_("negation of non-bool")
        return BOOL
    if isinstance(e, Dedup):
        t = infer_type(e.expr, env)
        if not is_flat(t):
            raise TypeError_("dedup input must be a flat bag (Fig. 1)")
        return t
    if isinstance(e, GroupBy):
        t = infer_type(e.expr, env)
        if not isinstance(t, BagT) or not isinstance(t.elem, TupleT):
            raise TypeError_("groupBy over non-tuple bag")
        keys = [(k, t.elem.field(k)) for k in e.keys]
        for k, kt in keys:
            if not isinstance(kt, Scalar):
                raise TypeError_(f"groupBy key {k} must be flat")
        rest = [(n, ft) for n, ft in t.elem.fields if n not in e.keys]
        return BagT(
            TupleT(tuple(keys) + (("GROUP", BagT(TupleT(tuple(rest)))),))
        )
    if isinstance(e, SumBy):
        t = infer_type(e.expr, env)
        if not isinstance(t, BagT) or not isinstance(t.elem, TupleT):
            raise TypeError_("sumBy over non-tuple bag")
        for k in e.keys:
            if not isinstance(t.elem.field(k), Scalar):
                raise TypeError_(f"sumBy key {k} must be flat")
        fields = [(k, t.elem.field(k)) for k in e.keys] + [
            (v, t.elem.field(v)) for v in e.values
        ]
        return BagT(TupleT(tuple(fields)))
    raise TypeError_(f"unknown expression {e!r}")


def check_program(p: Program, env: dict[str, Type]) -> dict[str, Type]:
    """Type-check a program; returns the typing of all assigned vars."""
    out = dict(env)
    for a in p.assignments:
        out[a.var] = infer_type(a.expr, out)
    return out


def free_vars(e: Expr, bound: frozenset[str] = frozenset()) -> set[str]:
    """Free variables of ``e`` (used to place a comprehension's
    conditions on the generators they read)."""
    if isinstance(e, Var):
        return set() if e.name in bound else {e.name}
    if isinstance(e, Const) or isinstance(e, EmptyBag):
        return set()
    if isinstance(e, Proj):
        return free_vars(e.expr, bound)
    if isinstance(e, TupleE):
        return set().union(*(free_vars(x, bound) for _, x in e.fields))
    if isinstance(e, (Singleton, Get, Dedup, NotE)):
        return free_vars(e.expr, bound)
    if isinstance(e, ForUnion):
        return free_vars(e.source, bound) | free_vars(
            e.body, bound | {e.var}
        )
    if isinstance(e, Union):
        return free_vars(e.left, bound) | free_vars(e.right, bound)
    if isinstance(e, Let):
        return free_vars(e.bound, bound) | free_vars(
            e.body, bound | {e.var}
        )
    if isinstance(e, IfThen):
        out = free_vars(e.cond, bound) | free_vars(e.then_, bound)
        if e.else_ is not None:
            out |= free_vars(e.else_, bound)
        return out
    if isinstance(e, PrimOp):
        return free_vars(e.left, bound) | free_vars(e.right, bound)
    if isinstance(e, (GroupBy, SumBy)):
        return free_vars(e.expr, bound)
    raise TypeError(f"unknown expression {e!r}")
