"""Materialized shredded compilation (§4.3–§4.6).

Takes a query in comprehension normal form (:class:`QLevel`) and
produces the *sequence of assignments* the paper's sequential
materialization emits: one flat plan for the top-level bag, and one
per output dictionary, each possibly preceded by a label-domain
assignment.  Domain elimination (§4.4) is built in:

* **Rule 1 (navigation)** — a child level whose only reference to its
  parent is the looked-up label compiles straight from the input
  dictionary, *sharing the input's labels* (the succinct
  representation, App. D).
* **Rule 2 (group-by-join-key)** — a child level that filters an input
  bag on ``x.k == parent.k`` compiles from the input table with
  ``label := x.k`` (App. B.1.3's shredded plans fall out of this).
* **Baseline** (§4.3) otherwise — materialize the label domain
  (``dedup`` of the parent's label column) and join the level's
  generators onto it; labels encoding several free attributes are
  struct-valued (NewLabel with multiple variables).

``sumBy``/``groupBy`` at a level become **localized aggregations**
keyed by (label, agg keys) only — no enclosing-level attributes
(§4.6).  Nested-to-flat queries with a navigation chain additionally
telescope partial sums bottom-up through the label joins, which is
the optimized plan of App. B.3.3.

Every dictionary assignment ends in ``Repartition("label")`` — the
BagToDict cast giving dictionaries their label partitioning guarantee
(skew-aware in the skew execution mode, Fig. 6).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .hierarchy import Agg, Gen, NormalizationError, QLevel, _sexpr_vars
from .plan_ops import (
    Distinct,
    Extend,
    Join,
    NestBag,
    NestSum,
    Plan,
    Project,
    Repartition,
    Scan,
    ScanRaw,
    Select,
)
from .sexpr import (
    BinOp,
    Col,
    GetField,
    MkStruct,
    RawCol,
    SExpr,
    children,
    map_children,
)

# --------------------------------------------------------------------------
# Shredded-input naming
# --------------------------------------------------------------------------


def top_table(name: str) -> str:
    return f"{name}__top"


def dict_table(name: str, path: tuple[str, ...]) -> str:
    return f"{name}__dict__" + "__".join(path)


@dataclass
class ShreddedCompiled:
    """The assignment sequence + names of the shredded output parts."""

    assignments: list[tuple[str, Plan]]
    top_name: str
    dict_names: dict[tuple[str, ...], str]


# A label reference: which input's dictionary a label column points to.
DictRef = tuple[str, tuple[str, ...]]  # (input name, path)
VarRep = dict[str, dict[str, DictRef]]  # var -> bag attr -> dict ref


class _Compiler:
    def __init__(
        self,
        qname: str,
        shredded_inputs: dict[str, set[tuple[str, ...]]],
        localized_agg: bool = True,
    ):
        self.qname = qname
        self.shredded = shredded_inputs
        self.localized_agg = localized_agg
        self.assignments: list[tuple[str, Plan]] = []
        self.dict_names: dict[tuple[str, ...], str] = {}

    # -- substitution of parent-variable references --------------------

    def _subst(self, e: SExpr, mapping: dict[tuple[str, str], SExpr]) -> SExpr:
        if isinstance(e, Col):
            return mapping.get((e.var, e.attr), e)
        return map_children(e, lambda x: self._subst(x, mapping))

    # -- generator compilation ------------------------------------------

    def _compile_gens(
        self,
        gens: list[Gen],
        plan: Optional[Plan],
        reps: VarRep,
        parent_reps: VarRep,
        mapping: dict[tuple[str, str], SExpr],
        skip_first: int = 0,
    ) -> Plan:
        """Compile generators as flat joins over tops/dictionaries."""
        for gen in gens[skip_first:]:
            if gen.is_input:
                name = gen.input_name
                assert name is not None
                if name in self.shredded:
                    right: Plan = Scan(top_table(name), gen.var)
                    reps[gen.var] = {
                        a: (name, (a,)) for a in gen.elem_bag_fields
                    }
                else:
                    right = Scan(name, gen.var)
                    reps[gen.var] = {}
                conds = tuple(
                    (self._subst(l, mapping), r) for l, r in gen.conds
                )
                if plan is None:
                    if conds:
                        raise NormalizationError(
                            "first generator cannot carry join conditions"
                        )
                    plan = right
                else:
                    plan = Join(
                        plan, right, conds, "inner" if conds else "cross"
                    )
            else:
                base, attr = gen.path  # type: ignore[misc]
                if base in reps:
                    ref = reps[base].get(attr)
                    link: SExpr = Col(base, attr)
                elif base in parent_reps or (base, attr) in mapping:
                    ref = parent_reps.get(base, {}).get(attr)
                    link = mapping.get((base, attr), Col(base, attr))
                else:
                    ref = None
                    link = Col(base, attr)
                if ref is None:
                    raise NormalizationError(
                        f"path {base}.{attr} does not resolve to a "
                        "shredded dictionary"
                    )
                n, p = ref
                if plan is None:
                    raise NormalizationError(
                        "path generator with no prior plan"
                    )
                plan = Join(
                    plan,
                    Scan(dict_table(n, p), gen.var),
                    ((link, Col(gen.var, "label")),),
                    "inner",
                )
                reps[gen.var] = {
                    a: (n, p + (a,)) for a in gen.elem_bag_fields
                }
                for l, r in gen.conds:
                    plan = Select(
                        plan, BinOp("==", self._subst(l, mapping), r)
                    )
        assert plan is not None
        return plan

    # -- parent-reference analysis --------------------------------------

    @staticmethod
    def _level_refs(
        level: QLevel, enclosing: set[str], _check_deeper: bool = True
    ) -> list[tuple[str, str]]:
        """Ordered unique (var, attr) references to ``enclosing`` vars.

        These are the free variables the level's NewLabel must capture
        (Fig. 4, line 3).  References from levels *more than one step
        below* to the same enclosing vars would require transitive
        label capture, which no benchmark query needs — we raise.
        """
        refs: list[tuple[str, str]] = []

        def add_expr(sx: SExpr) -> None:
            if isinstance(sx, Col) and sx.var in enclosing:
                if (sx.var, sx.attr) not in refs:
                    refs.append((sx.var, sx.attr))
            for x in children(sx):
                add_expr(x)

        for g in level.gens:
            if g.path is not None and g.path[0] in enclosing:
                if g.path not in refs:
                    refs.append(g.path)
            for l, r in g.conds:
                add_expr(l)
                add_expr(r)
        if level.where is not None:
            add_expr(level.where)
        for _, sx in level.fields:
            add_expr(sx)
        if _check_deeper and level.child is not None:
            deeper = _Compiler._level_refs(
                level.child[1], enclosing, _check_deeper=True
            )
            if deeper:
                raise NormalizationError(
                    "a level more than one step below references "
                    f"enclosing variables {deeper}; transitive label "
                    "capture is not implemented"
                )
        return refs

    @staticmethod
    def _label_expr(
        refs: list[tuple[str, str]],
        mapping: dict[tuple[str, str], SExpr],
    ) -> SExpr:
        parts = [
            (f"{v}__{a}", mapping.get((v, a), Col(v, a))) for v, a in refs
        ]
        if len(parts) == 1:
            return parts[0][1]
        return MkStruct(tuple(parts))

    # -- level compilation ----------------------------------------------

    def compile_top(self, q: QLevel) -> ShreddedCompiled:
        top_name = f"{self.qname}__top"
        if (
            q.agg is not None
            and q.agg.kind == "sum"
            and self.localized_agg
            and self._chain_applies(q)
        ):
            plan = self._compile_flat_agg_chain(q)
            self.assignments.append((top_name, plan))
            return ShreddedCompiled(self.assignments, top_name, {})

        reps: VarRep = {}
        plan = self._compile_gens(q.gens, None, reps, {}, {})
        if q.where is not None:
            plan = Select(plan, q.where)

        fcols = [(n, sx) for n, sx in q.fields]
        if q.agg is not None and q.agg.kind == "sum":
            keyc = [(n, sx) for n, sx in fcols if n in q.agg.keys]
            valc = [(n, sx) for n, sx in fcols if n in q.agg.values]
            plan = Extend(plan, tuple(keyc))
            plan = NestSum(
                plan,
                keys=tuple(n for n, _ in keyc),
                values=tuple(valc),
            )
            self.assignments.append((top_name, plan))
            return ShreddedCompiled(self.assignments, top_name, {})
        if q.agg is not None and q.agg.kind == "group":
            keyc = [(n, sx) for n, sx in fcols if n in q.agg.keys]
            rest = [(n, sx) for n, sx in fcols if n not in q.agg.keys]
            plan = Extend(plan, tuple(fcols))
            own = {g.var for g in q.gens}
            marker = next(
                n for n, sx in rest if _sexpr_vars(sx) & own
            )
            plan = NestBag(
                plan,
                keys=tuple(n for n, _ in keyc),
                struct_fields=tuple((n, n) for n, _ in rest),
                out="GROUP",
                marker=marker,
            )
            self.assignments.append((top_name, plan))
            return ShreddedCompiled(self.assignments, top_name, {})

        out_cols: list[tuple[str, SExpr]] = list(fcols)
        if q.child is not None:
            fname, clevel = q.child
            own = {g.var for g in q.gens}
            refs = self._level_refs(clevel, own)
            out_cols.append((fname, self._label_expr(refs, {})))
        plan = Project(plan, tuple(out_cols))
        self.assignments.append((top_name, plan))
        if q.child is not None:
            fname, clevel = q.child
            self._compile_dict(
                clevel, (fname,), top_name, reps, refs
            )
        return ShreddedCompiled(self.assignments, top_name, self.dict_names)

    def _compile_dict(
        self,
        level: QLevel,
        path: tuple[str, ...],
        parent_name: str,
        parent_reps: VarRep,
        refs: list[tuple[str, str]],
    ) -> None:
        """Emit assignment(s) for the dictionary at ``path``."""
        name = f"{self.qname}__dict__" + "__".join(path)
        reps: VarRep = {}
        mapping: dict[tuple[str, str], SExpr] = {}
        first = level.gens[0]
        label_expr: SExpr

        shortcut_a = (
            first.path is not None
            and len(refs) == 1
            and refs[0] == first.path
            and first.path[0] in parent_reps
            and parent_reps[first.path[0]].get(first.path[1]) is not None
            and not first.conds
        )
        shortcut_b = (
            first.is_input
            and len(first.conds) == 1
            and len(refs) == 1
            and isinstance(first.conds[0][0], Col)
            and (first.conds[0][0].var, first.conds[0][0].attr) == refs[0]
        )

        if shortcut_a:
            base, attr = first.path  # type: ignore[misc]
            n, p = parent_reps[base][attr]
            plan: Plan = Scan(dict_table(n, p), first.var)
            reps[first.var] = {
                a: (n, p + (a,)) for a in first.elem_bag_fields
            }
            label_expr = Col(first.var, "label")
            plan = self._compile_gens(
                level.gens, plan, reps, parent_reps, mapping, skip_first=1
            )
        elif shortcut_b:
            iname = first.input_name
            assert iname is not None
            if iname in self.shredded:
                plan = Scan(top_table(iname), first.var)
                reps[first.var] = {
                    a: (iname, (a,)) for a in first.elem_bag_fields
                }
            else:
                plan = Scan(iname, first.var)
                reps[first.var] = {}
            _, rexpr = first.conds[0]
            label_expr = rexpr
            plan = self._compile_gens(
                level.gens, plan, reps, parent_reps, mapping, skip_first=1
            )
        else:
            # Baseline materialization (§4.3): label-domain assignment.
            dom_name = f"{self.qname}__labdom__" + "__".join(path)
            dom_plan = Distinct(
                Project(ScanRaw(parent_name), (("label", RawCol(path[-1])),))
            )
            self.assignments.append((dom_name, dom_plan))
            if len(refs) == 1:
                mapping = {refs[0]: RawCol("label")}
            else:
                mapping = {
                    (v, a): GetField(RawCol("label"), f"{v}__{a}")
                    for v, a in refs
                }
            label_expr = RawCol("label")
            plan = self._compile_gens(
                level.gens, ScanRaw(dom_name), reps, parent_reps, mapping
            )

        if level.where is not None:
            plan = Select(plan, self._subst(level.where, mapping))

        fcols = [(n, self._subst(sx, mapping)) for n, sx in level.fields]

        if level.agg is not None and level.agg.kind == "sum":
            keyc = [(n, sx) for n, sx in fcols if n in level.agg.keys]
            valc = [(n, sx) for n, sx in fcols if n in level.agg.values]
            plan = Extend(
                plan, tuple([("label", label_expr)] + keyc)
            )
            plan = NestSum(
                plan,
                keys=tuple(["label"] + [n for n, _ in keyc]),
                values=tuple(valc),
            )
        elif level.agg is not None and level.agg.kind == "group":
            keyc = [(n, sx) for n, sx in fcols if n in level.agg.keys]
            rest = [(n, sx) for n, sx in fcols if n not in level.agg.keys]
            own = {g.var for g in level.gens}
            marker = next(n for n, sx in rest if _sexpr_vars(sx) & own)
            plan = Extend(plan, tuple([("label", label_expr)] + fcols))
            plan = NestBag(
                plan,
                keys=tuple(["label"] + [n for n, _ in keyc]),
                struct_fields=tuple((n, n) for n, _ in rest),
                out="GROUP",
                marker=marker,
            )
        else:
            out_cols: list[tuple[str, SExpr]] = [("label", label_expr)]
            out_cols += fcols
            child_refs: list[tuple[str, str]] = []
            if level.child is not None:
                fname, clevel = level.child
                own = {g.var for g in level.gens}
                child_refs = self._level_refs(clevel, own)
                out_cols.append(
                    (fname, self._label_expr(child_refs, mapping))
                )
            plan = Project(plan, tuple(out_cols))

        plan = Repartition(plan, ("label",))
        self.assignments.append((name, plan))
        self.dict_names[path] = name

        if (
            level.agg is None
            and level.child is not None
        ):
            fname, clevel = level.child
            self._compile_dict(
                clevel, path + (fname,), name, reps, child_refs
            )

    # -- nested-to-flat telescoped aggregation (App. B.3.3) -------------

    def _chain_applies(self, q: QLevel) -> bool:
        if q.where is not None or q.child is not None:
            return False
        if q.agg is None or len(q.agg.values) != 1:
            return False
        gens = q.gens
        if not gens or not gens[0].is_input:
            return False
        if gens[0].input_name not in self.shredded:
            return False
        # A chain of path generators, each over the previous variable…
        i = 1
        prev = gens[0].var
        while i < len(gens) and gens[i].path is not None:
            if gens[i].path[0] != prev or gens[i].conds:  # type: ignore[index]
                return False
            prev = gens[i].var
            i += 1
        if i == 1:
            return False
        chain_vars = {g.var for g in gens[:i]}
        bottom_var = prev
        tail = gens[i:]
        tail_vars = {g.var for g in tail}
        for g in tail:
            if not g.is_input:
                return False
            for l, r in g.conds:
                vs = _sexpr_vars(l) | _sexpr_vars(r)
                if vs - (tail_vars | {bottom_var}):
                    return False
        # value computable at the bottom stage
        vexpr = dict(q.fields)[q.agg.values[0]]
        if _sexpr_vars(vexpr) - (tail_vars | {bottom_var}):
            return False
        # keys computable either at the bottom stage or at the top
        for k in q.agg.keys:
            kexpr = dict(q.fields)[k]
            vs = _sexpr_vars(kexpr)
            if not (
                vs <= (tail_vars | {bottom_var}) or vs <= {gens[0].var}
            ):
                return False
        return True

    def _compile_flat_agg_chain(self, q: QLevel) -> Plan:
        gens = q.gens
        top_gen = gens[0]
        iname = top_gen.input_name
        assert iname is not None
        chain = [g for g in gens[1:] if g.path is not None]
        tail = gens[1 + len(chain):]
        bottom = chain[-1]
        assert q.agg is not None
        fields = dict(q.fields)
        vname = q.agg.values[0]

        # Resolve the dictionary path of each chain generator.
        paths: list[tuple[str, ...]] = []
        p: tuple[str, ...] = ()
        for g in chain:
            p = p + (g.path[1],)  # type: ignore[index]
            paths.append(p)

        # Bottom stage: deepest dictionary + tail joins + partial Γ⁺.
        plan: Plan = Scan(dict_table(iname, paths[-1]), bottom.var)
        reps: VarRep = {bottom.var: {}}
        plan = self._compile_gens(tail, plan, reps, {}, {})
        bottom_vars = {bottom.var} | {g.var for g in tail}
        key_cols: list[str] = []
        ext: list[tuple[str, SExpr]] = []
        for k in q.agg.keys:
            if _sexpr_vars(fields[k]) <= bottom_vars:
                ext.append((k, fields[k]))
                key_cols.append(k)
        if ext:
            plan = Extend(plan, tuple(ext))
        acc = "__acc"
        label_col = f"{bottom.var}__label"
        plan = NestSum(
            plan,
            keys=tuple([label_col] + key_cols),
            values=((acc, fields[vname]),),
        )

        # Climb: join each enclosing dictionary, re-aggregate per label.
        for i in range(len(chain) - 2, -1, -1):
            g = chain[i]
            plan = Join(
                Scan(dict_table(iname, paths[i]), g.var),
                plan,
                ((Col(g.var, chain[i + 1].path[1]), RawCol(label_col)),),  # type: ignore[index]
                "inner",
            )
            label_col = f"{g.var}__label"
            plan = NestSum(
                plan,
                keys=tuple([label_col] + key_cols),
                values=((acc, RawCol(acc)),),
            )

        # Top: join the top-level bag, add top keys, final Γ⁺.
        plan = Join(
            Scan(top_table(iname), top_gen.var),
            plan,
            ((Col(top_gen.var, chain[0].path[1]), RawCol(label_col)),),  # type: ignore[index]
            "inner",
        )
        top_ext = [
            (k, fields[k])
            for k in q.agg.keys
            if k not in key_cols
        ]
        if top_ext:
            plan = Extend(plan, tuple(top_ext))
        return NestSum(
            plan,
            keys=tuple(q.agg.keys),
            values=((vname, RawCol(acc)),),
        )


def compile_shredded(
    q: QLevel,
    qname: str,
    shredded_inputs: dict[str, set[tuple[str, ...]]],
    localized_agg: bool = True,
) -> ShreddedCompiled:
    """Compile a hierarchy to its shredded assignment sequence."""
    return _Compiler(qname, shredded_inputs, localized_agg).compile_top(q)
