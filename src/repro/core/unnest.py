"""Unnesting (§3.1): comprehension hierarchy → plan-language tree.

Implements the Fegaras–Maier-style algorithm the paper uses for its
standard compilation route:

* root-level generators become scans / inner joins / inner unnests μ;
* entering a nesting level adds a unique tuple ID (``AddId``) and
  extends the grouping-attribute set 𝒢;
* non-root generators become outer joins ⟕ / outer unnests μ̄;
* ``sumBy`` becomes Γ⁺ keyed by 𝒢 ∪ sumBy-keys; each nesting level is
  closed by Γ⊎ keyed by the 𝒢 current when the level was entered
  (Fig. 3 reproduces exactly under this compiler — see tests).

Optimizations (§3.3, App. E.4) hook in here:

* ``opt="none"`` — the raw unnesting output (everything carried:
  ``optimize.catalyst_opt_level`` switches off Catalyst's column
  pruning for the run);
* ``opt="proj"`` — plus column pruning (Catalyst's own, left on);
* ``opt="full"`` — plus cogroup fusion: a child level that is a pure
  grouping join (single input generator equi-joined to the parent, no
  parent references elsewhere) is compiled bottom-up as
  pre-group + left join + NULL→∅, exactly what Spark's ``cogroup``
  computes, avoiding tuple IDs entirely;
* ``push_agg=True`` — partial-sum pushing below a join whose right
  key is unique (§3.1's example optimization; pivotal in the skew
  experiments, App. E.6).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .hierarchy import (
    Gen,
    NormalizationError,
    QLevel,
    _sexpr_vars,
    pick_marker,
)
from .plan_ops import (
    AddId,
    Extend,
    Join,
    NestBag,
    NestSum,
    Plan,
    Project,
    Scan,
    Select,
    Unnest,
    WithEmptyArray,
)
from .sexpr import (
    BinOp,
    Col,
    IfScalar,
    IsNotNull,
    Lit,
    RawCol,
    SExpr,
    cname,
    columns_of,
)


def ocol(path: tuple[str, ...], name: str) -> str:
    """Output column name for field ``name`` at nesting path ``path``."""
    return "out__" + "__".join(path + (name,))


def idcol(path: tuple[str, ...]) -> str:
    """Unique-ID column name introduced when entering ``path``."""
    return "id__" + "__".join(path)


@dataclass
class Compiled:
    """A compiled query: final plan + top-level output column names."""

    plan: Plan
    out_cols: list[tuple[str, str]]  # (public name, internal column)


def compile_standard(
    q: QLevel,
    opt: str = "full",
    push_agg: bool = False,
    unique_keys: Optional[dict[str, set[str]]] = None,
) -> Compiled:
    """Compile a hierarchy to a standard-route plan.

    ``unique_keys`` maps input names to their unique key attributes
    (needed to validate aggregation pushing, §3.3).
    """
    uk = unique_keys or {}
    plan, out_cols, _ = _level(q, None, [], (), True, opt, push_agg, uk)
    final = Project(
        plan, tuple((pub, RawCol(col)) for pub, col in out_cols)
    )
    return Compiled(plan=final, out_cols=out_cols)


# --------------------------------------------------------------------------


def _gen_vars(q: QLevel) -> set[str]:
    return {g.var for g in q.gens}


def _compile_gens(
    q: QLevel, plan: Optional[Plan], is_root: bool
) -> Plan:
    for gen in q.gens:
        if gen.is_input:
            right: Plan = Scan(gen.input_name, gen.var)
            conds = tuple(gen.conds)
            if plan is None:
                if conds:
                    raise NormalizationError(
                        "first generator cannot carry join conditions"
                    )
                plan = right
            else:
                how = "inner" if is_root else "left_outer"
                if not conds:
                    how = "cross"
                plan = Join(plan, right, conds, how)
        else:
            base, attr = gen.path  # type: ignore[misc]
            if plan is None:
                raise NormalizationError("path generator with no prior plan")
            plan = Unnest(
                plan,
                cname(base, attr),
                gen.var,
                tuple(gen.elem),
                outer=not is_root,
            )
            # Equality conditions on a path generator become selections
            # (inner) — only valid at root level.
            for l, r in gen.conds:
                if not is_root:
                    raise NormalizationError(
                        "non-root filter on a path generator"
                    )
                plan = Select(plan, BinOp("==", l, r))
    assert plan is not None
    return plan


def _presence_expr(q: QLevel) -> SExpr:
    """A tuple of this level *exists* iff every outer operator matched.

    Witnesses: for a path generator (outer unnest μ̄), the first element
    field of the unnested variable; for an equi-joined input generator
    (⟕), the join-key column of the right side; cross inputs always
    match.  This reproduces the Option-typed semantics of the paper's
    Dataset operators (Fig. 10): a value only counts when *all* outer
    operators of the level produced Some.  (Legitimate NULLs in input
    data would be indistinguishable from misses — our generators
    produce none; documented in DESIGN.md.)
    """
    cond: Optional[SExpr] = None
    for gen in q.gens:
        w: Optional[SExpr] = None
        if gen.is_input:
            if gen.conds:
                w = gen.conds[0][1]
        else:
            if not gen.elem_fields:
                raise NormalizationError(
                    f"generator {gen.var} has no scalar element fields "
                    "to witness outer matches"
                )
            w = Col(gen.var, gen.elem_fields[0])
        if w is not None:
            c = IsNotNull(w)
            cond = c if cond is None else BinOp("&&", cond, c)
    if cond is None:
        return Lit(1)
    return IfScalar(cond, Lit(1), Lit(None))


def _level(
    q: QLevel,
    plan: Optional[Plan],
    G: list[str],
    path: tuple[str, ...],
    is_root: bool,
    opt: str,
    push_agg: bool,
    uk: dict[str, set[str]],
) -> tuple[Plan, list[tuple[str, str]], str]:
    """Compile one level; returns (plan, out cols, empty-bag marker col)."""
    own = _gen_vars(q)

    # -- sumBy with aggregation pushing: handled before generic gen
    #    compilation because the partial sum sits *below* the last join.
    if (
        q.agg is not None
        and q.agg.kind == "sum"
        and push_agg
        and _push_agg_applies(q, uk)
    ):
        plan = _compile_pushed_sum(q, plan, G, path, is_root)
        fields = [
            (n, ocol(path, n), sx) for n, sx in q.fields
        ]
        out_cols = [(n, c) for n, c, _ in fields]
        marker = pick_marker(fields, own)
        return plan, out_cols, marker

    plan = _compile_gens(q, plan, is_root)
    if q.where is not None:
        if not is_root:
            raise NormalizationError(
                "residual (non-join) filters below the root level are "
                "not supported"
            )
        plan = Select(plan, q.where)

    # Presence column for non-root levels: NULL on rows where any outer
    # operator missed — the explicit form of the Option semantics the
    # paper's Γ operators rely on (see _presence_expr).
    pres_col: Optional[str] = None
    if not is_root:
        pres_col = "present__" + "__".join(path)
        plan = Extend(plan, ((pres_col, _presence_expr(q)),))

    fields = [(n, ocol(path, n), sx) for n, sx in q.fields]

    if q.agg is not None and q.agg.kind == "sum":
        key_fields = [(n, c, sx) for n, c, sx in fields if n in q.agg.keys]
        val_fields = [(n, c, sx) for n, c, sx in fields if n in q.agg.values]
        if q.child is not None:
            raise NormalizationError("sumBy level cannot have a bag field")
        plan = Extend(plan, tuple((c, sx) for _, c, sx in key_fields))
        values = [(c, sx) for _, c, sx in val_fields]
        if pres_col is not None:
            # Guard summed values: a row only counts when the whole
            # generator chain matched; carry presence through Γ⁺ so
            # the parent Γ⊎ can drop all-miss groups.
            values = [
                (c, IfScalar(IsNotNull(RawCol(pres_col)), sx, Lit(None)))
                for c, sx in values
            ]
            values.append((pres_col, RawCol(pres_col)))
        plan = NestSum(
            plan,
            keys=tuple(G + [c for _, c, _ in key_fields]),
            values=tuple(values),
        )
        out_cols = [(n, c) for n, c, _ in key_fields] + [
            (n, c) for n, c, _ in val_fields
        ]
        marker = pres_col or pick_marker(key_fields, own)
        return plan, out_cols, marker

    if q.agg is not None and q.agg.kind == "group":
        key_fields = [(n, c, sx) for n, c, sx in fields if n in q.agg.keys]
        rest = [(n, c, sx) for n, c, sx in fields if n not in q.agg.keys]
        plan = Extend(plan, tuple((c, sx) for _, c, sx in fields))
        grp_col = ocol(path, "GROUP")
        plan = NestBag(
            plan,
            keys=tuple(
                G
                + [c for _, c, _ in key_fields]
                + ([pres_col] if pres_col else [])
            ),
            struct_fields=tuple((n, c) for n, c, _ in rest),
            out=grp_col,
            marker=pres_col or pick_marker(rest, own),
        )
        out_cols = [(n, c) for n, c, _ in key_fields] + [("GROUP", grp_col)]
        marker = pres_col or pick_marker(key_fields, own)
        return plan, out_cols, marker

    # Plain level: project fields, then compile the (optional) child.
    plan = Extend(plan, tuple((c, sx) for _, c, sx in fields))
    out_cols = [(n, c) for n, c, _ in fields]
    marker = pres_col or pick_marker(fields, own)

    if q.child is not None:
        fname, clevel = q.child
        cpath = path + (fname,)
        arr_col = ocol(path, fname)
        if opt == "full" and _cogroup_applies(clevel):
            plan = _compile_cogroup_child(
                clevel, plan, cpath, arr_col, opt, push_agg, uk
            )
        else:
            id_col = idcol(cpath)
            plan = AddId(plan, id_col)
            newG = (
                G
                + [id_col]
                + [c for _, c, _ in fields]
                + ([pres_col] if pres_col else [])
            )
            child_plan, child_out, child_marker = _level(
                clevel, plan, newG, cpath, False, opt, push_agg, uk
            )
            plan = NestBag(
                child_plan,
                keys=tuple(newG),
                struct_fields=tuple(child_out),
                out=arr_col,
                marker=child_marker,
            )
        out_cols = out_cols + [(fname, arr_col)]

    return plan, out_cols, marker


# --------------------------------------------------------------------------
# Cogroup fusion (§3.3): grouping-join child levels compile bottom-up
# --------------------------------------------------------------------------


def _cogroup_applies(clevel: QLevel) -> bool:
    """True when the child level is a pure grouping join on the parent.

    Requirements: first generator iterates an input bag with exactly
    one equality condition against the parent level; no other
    generator or condition references parent variables; no residual
    filter.
    """
    if not clevel.gens or not clevel.gens[0].is_input:
        return False
    g0 = clevel.gens[0]
    if len(g0.conds) != 1:
        return False
    own = _gen_vars(clevel)
    l, r = g0.conds[0]
    if not (isinstance(l, Col) and isinstance(r, Col)):
        return False
    if l.var in own or r.var not in own:
        return False
    for g in clevel.gens[1:]:
        if g.path is not None and g.path[0] not in own:
            return False
        for cl, cr in g.conds:
            if (_sexpr_vars(cl) | _sexpr_vars(cr)) - own:
                return False
    if clevel.where is not None and _sexpr_vars(clevel.where) - own:
        return False
    for _, sx in clevel.fields:
        if _sexpr_vars(sx) - own:
            return False
    return True


def _compile_cogroup_child(
    clevel: QLevel,
    parent_plan: Plan,
    cpath: tuple[str, ...],
    arr_col: str,
    opt: str,
    push_agg: bool,
    uk: dict[str, set[str]],
) -> Plan:
    """Compile a grouping-join child as pre-group + left join + NULL→∅."""
    g0 = clevel.gens[0]
    parent_key, child_key = g0.conds[0]
    sub_level = replace_first_gen_conds(clevel)
    jk = child_key.colname  # type: ignore[union-attr]
    sub_plan, sub_out, sub_marker = _level(
        sub_level, None, [jk], cpath, True, opt, push_agg, uk
    )
    grouped = NestBag(
        sub_plan,
        keys=(jk,),
        struct_fields=tuple(sub_out),
        out=arr_col,
        marker=sub_marker,
    )
    joined = Join(
        parent_plan,
        grouped,
        ((parent_key, RawCol(jk)),),
        "left_outer",
    )
    return WithEmptyArray(joined, arr_col)


def replace_first_gen_conds(clevel: QLevel) -> QLevel:
    """Copy of the level with the first generator's join condition removed."""
    g0 = clevel.gens[0]
    new_g0 = Gen(
        var=g0.var, input_name=g0.input_name, path=g0.path, conds=[]
    )
    new_g0.elem = list(g0.elem)
    return QLevel(
        gens=[new_g0] + clevel.gens[1:],
        where=clevel.where,
        fields=clevel.fields,
        child=clevel.child,
        agg=clevel.agg,
    )


# --------------------------------------------------------------------------
# Aggregation pushing (§3.1 example / §3.3 / App. E.6)
# --------------------------------------------------------------------------


def _push_agg_applies(q: QLevel, uk: dict[str, set[str]]) -> bool:
    """Pushing a partial sum below the last join is valid when:

    the level's last generator is an input bag equi-joined on a unique
    key of that input, and the single summed value is a product of one
    column from before the join and one column of the joined input.
    """
    if q.agg is None or q.agg.kind != "sum" or len(q.agg.values) != 1:
        return False
    if not q.gens or not q.gens[-1].is_input:
        return False
    # Restrict to the μ̄ + ⟕ shape (the Example-1 pattern): the NULL
    # semantics of the pushed form are only validated for it.
    if len(q.gens) != 2 or q.gens[0].path is None:
        return False
    last = q.gens[-1]
    if len(last.conds) != 1:
        return False
    _, r = last.conds[0]
    if not isinstance(r, Col):
        return False
    if r.attr not in uk.get(last.input_name, set()):
        return False
    vname = q.agg.values[0]
    vexpr = dict(q.fields).get(vname)
    if not (
        isinstance(vexpr, BinOp)
        and vexpr.op == "*"
        and isinstance(vexpr.left, Col)
        and isinstance(vexpr.right, Col)
    ):
        return False
    sides = {vexpr.left.var, vexpr.right.var}
    if last.var not in sides or len(sides) != 2:
        return False
    # Correctness of the miss-handling in the pushed form relies on the
    # sumBy keys being NULL exactly when the final join missed, i.e.
    # every key must come from the joined input (true for the TPC-H
    # sumBy_pname and the skew experiments).
    return all(
        _sexpr_vars(dict(q.fields)[k]) <= {last.var} for k in q.agg.keys
    )


def _compile_pushed_sum(
    q: QLevel,
    plan: Optional[Plan],
    G: list[str],
    path: tuple[str, ...],
    is_root: bool,
) -> Plan:
    """Emit: partial Γ⁺ below the last join, then the join, then Γ⁺."""
    last = q.gens[-1]
    before = QLevel(
        gens=q.gens[:-1], where=q.where, fields=[], child=None, agg=None
    )
    plan = _compile_gens(before, plan, is_root)
    if q.where is not None and is_root:
        plan = Select(plan, q.where)

    vname = q.agg.values[0]  # type: ignore[union-attr]
    vexpr = dict(q.fields)[vname]
    assert isinstance(vexpr, BinOp)
    left_col = (
        vexpr.left if vexpr.left.var != last.var else vexpr.right
    )
    right_col = vexpr.left if vexpr.left.var == last.var else vexpr.right
    jl, jr = last.conds[0]

    # Partial keys: grouping attrs, the join column, and any sumBy-key
    # columns computed from pre-join variables.
    partial_keys = list(G) + [jl.colname]  # type: ignore[union-attr]
    key_fields = [(n, ocol(path, n), sx) for n, sx in q.fields if n in q.agg.keys]  # type: ignore[union-attr]
    pre_key_cols: list[tuple[str, SExpr]] = []
    for _, c, sx in key_fields:
        if last.var not in _sexpr_vars(sx):
            pre_key_cols.append((c, sx))
            partial_keys.append(c)
    if pre_key_cols:
        plan = Extend(plan, tuple(pre_key_cols))

    tmp = ocol(path, "__partial")
    plan = NestSum(
        plan, keys=tuple(partial_keys), values=((tmp, left_col),)
    )
    how = "inner" if is_root else "left_outer"
    plan = Join(plan, Scan(last.input_name, last.var), ((jl, jr),), how)

    post_key_cols = [
        (c, sx) for _, c, sx in key_fields if (c, sx) not in pre_key_cols
    ]
    if post_key_cols:
        plan = Extend(plan, tuple(post_key_cols))
    vcol = ocol(path, vname)
    return NestSum(
        plan,
        keys=tuple(G + [c for _, c, _ in key_fields]),
        values=((vcol, BinOp("*", RawCol(tmp), right_col)),),
    )
