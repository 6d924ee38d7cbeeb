"""Materialized shredded compilation (§4.1–§4.6).

Takes a query in comprehension normal form (:class:`QLevel`) and
produces the *sequence of assignments* the paper's sequential
materialization emits: one flat plan for the top-level bag, and one
per output dictionary, each possibly preceded by a label-domain
assignment.  Symbolic shredding (Fig. 4), materialization (Fig. 5)
and domain elimination (§4.4) happen in one pass: each level's
NewLabel is the tuple of parent attributes it references, and one
level compiler emits the top bag (no label) and every dictionary
(led by its label).  Domain elimination picks a dictionary's first
generator:

* **Rule 1 (navigation)** — a child level whose only reference to its
  parent is the looked-up label compiles straight from the input
  dictionary, *sharing the input's labels* (the succinct
  representation, App. D).
* **Rule 2 (group-by-join-key)** — a child level that filters an input
  bag on ``x.k == parent.k`` compiles from the input table with
  ``label := x.k`` (App. B.1.3's shredded plans fall out of this).
* **Baseline** (§4.3) otherwise, including a level with no
  generators — materialize the label domain (``dedup`` of the
  parent's label column) and join the level's generators onto it;
  labels encoding several free attributes are struct-valued
  (NewLabel with multiple variables).

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

from dataclasses import dataclass
from typing import Optional

from .hierarchy import (
    Gen,
    NormalizationError,
    QLevel,
    _sexpr_vars,
    pick_marker,
)
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


_TOP, _DICT, _SEP = "__top", "__dict__", "__"


def top_table(name: str) -> str:
    return name + _TOP


def dict_table(name: str, path: tuple[str, ...]) -> str:
    return name + _DICT + _SEP.join(path)


def shredded_input_paths(catalog) -> dict[str, set[tuple[str, ...]]]:
    """Which catalog inputs are shredded, and their dictionary paths:
    the :func:`top_table`/:func:`dict_table` names read back."""
    out: dict[str, set[tuple[str, ...]]] = {}
    for t in catalog.tables:
        if t.endswith(_TOP):
            out.setdefault(t[: -len(_TOP)], set())
        elif _DICT in t:
            name, rest = t.split(_DICT, 1)
            out.setdefault(name, set()).add(tuple(rest.split(_SEP)))
    return out


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
        self, qname: str, shredded_inputs: dict[str, set[tuple[str, ...]]]
    ):
        self.qname = qname
        self.shredded = shredded_inputs
        self.assignments: list[tuple[str, Plan]] = []
        self.dict_names: dict[tuple[str, ...], str] = {}

    # -- substitution of parent-variable references --------------------

    def _subst(self, e: SExpr, mapping: dict[tuple[str, str], SExpr]) -> SExpr:
        if isinstance(e, Col):
            return mapping.get((e.var, e.attr), e)
        return map_children(e, lambda x: self._subst(x, mapping))

    # -- generator compilation ------------------------------------------

    def _scan_input(self, gen: Gen, reps: VarRep) -> Plan:
        """Scan an input generator.  A shredded input is scanned as its
        top bag, and its bag attributes refer to its dictionaries."""
        name = gen.input_name
        assert name is not None
        if name in self.shredded:
            reps[gen.var] = {a: (name, (a,)) for a in gen.elem_bag_fields}
            return Scan(top_table(name), gen.var)
        reps[gen.var] = {}
        return Scan(name, gen.var)

    @staticmethod
    def _scan_dict(gen: Gen, ref: DictRef, reps: VarRep) -> Plan:
        """Scan the dictionary ``ref`` a path generator iterates."""
        n, p = ref
        reps[gen.var] = {a: (n, p + (a,)) for a in gen.elem_bag_fields}
        return Scan(dict_table(n, p), gen.var)

    def _compile_gens(
        self,
        gens: list[Gen],
        plan: Optional[Plan],
        reps: VarRep,
        parent_reps: VarRep,
        mapping: dict[tuple[str, str], SExpr],
    ) -> Plan:
        """Compile generators as flat joins over tops/dictionaries."""
        for gen in gens:
            if gen.is_input:
                right = self._scan_input(gen, reps)
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
                link: SExpr = Col(base, attr)
                if base in reps:
                    ref = reps[base].get(attr)
                else:
                    ref = parent_reps.get(base, {}).get(attr)
                    link = mapping.get((base, attr), link)
                if ref is None:
                    raise NormalizationError(
                        f"path {base}.{attr} does not resolve to a "
                        "shredded dictionary"
                    )
                if plan is None:
                    raise NormalizationError(
                        "path generator with no prior plan"
                    )
                plan = Join(
                    plan,
                    self._scan_dict(gen, ref, reps),
                    ((link, Col(gen.var, "label")),),
                    "inner",
                )
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
        top_name = top_table(self.qname)
        if self._chain_applies(q):
            plan = self._compile_flat_agg_chain(q)
            self.assignments.append((top_name, plan))
        else:
            reps: VarRep = {}
            plan = self._compile_gens(q.gens, None, reps, {}, {})
            self._compile_level(q, (), top_name, plan, reps, {}, None)
        return ShreddedCompiled(self.assignments, top_name, self.dict_names)

    def _compile_dict(
        self,
        level: QLevel,
        path: tuple[str, ...],
        parent_name: str,
        parent_reps: VarRep,
        refs: list[tuple[str, str]],
    ) -> None:
        """Emit assignment(s) for the dictionary at ``path``: domain
        elimination (§4.4) picks what the level's first generator reads
        and which expression is its label."""
        reps: VarRep = {}
        mapping: dict[tuple[str, str], SExpr] = {}
        gens = level.gens
        first = gens[0] if gens else None
        label: SExpr
        if (
            first is not None
            and first.path is not None
            and refs == [first.path]
            and not first.conds
            and parent_reps.get(first.path[0], {}).get(first.path[1])
        ):
            # Rule 1: navigate the input dictionary, sharing its labels.
            base, attr = first.path
            plan = self._scan_dict(first, parent_reps[base][attr], reps)
            label = Col(first.var, "label")
            gens = gens[1:]
        elif (
            first is not None
            and first.is_input
            and len(first.conds) == 1
            and len(refs) == 1
            and isinstance(first.conds[0][0], Col)
            and (first.conds[0][0].var, first.conds[0][0].attr) == refs[0]
        ):
            # Rule 2: the join key with the parent is the label.
            plan = self._scan_input(first, reps)
            label = first.conds[0][1]
            gens = gens[1:]
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
            plan = ScanRaw(dom_name)
            label = RawCol("label")
        plan = self._compile_gens(gens, plan, reps, parent_reps, mapping)
        name = dict_table(self.qname, path)
        self._compile_level(level, path, name, plan, reps, mapping, label)

    def _compile_level(
        self,
        level: QLevel,
        path: tuple[str, ...],
        name: str,
        plan: Plan,
        reps: VarRep,
        mapping: dict[tuple[str, str], SExpr],
        label: Optional[SExpr],
    ) -> None:
        """Emit assignment ``name`` for ``level`` over its generators'
        ``plan``, then the child dictionary.

        The top bag has no ``label``.  A dictionary leads with its
        ``label`` column, aggregates per label (the §4.6 localized
        aggregation) and ends in BagToDict's ``Repartition("label")``.
        """
        if level.where is not None:
            plan = Select(plan, self._subst(level.where, mapping))
        lead = [] if label is None else [("label", label)]
        fcols = [(n, self._subst(sx, mapping)) for n, sx in level.fields]
        own = {g.var for g in level.gens}
        agg = level.agg
        child_refs: list[tuple[str, str]] = []
        if agg is None:
            out_cols = lead + fcols
            if level.child is not None:
                fname, clevel = level.child
                child_refs = self._level_refs(clevel, own)
                out_cols.append(
                    (fname, self._label_expr(child_refs, mapping))
                )
            plan = Project(plan, tuple(out_cols))
        else:
            keyc = lead + [(n, sx) for n, sx in fcols if n in agg.keys]
            keys = tuple(n for n, _ in keyc)
            if agg.kind == "sum":
                plan = NestSum(
                    Extend(plan, tuple(keyc)),
                    keys=keys,
                    values=tuple(
                        (n, sx) for n, sx in fcols if n in agg.values
                    ),
                )
            else:
                rest = [(n, sx) for n, sx in fcols if n not in agg.keys]
                plan = NestBag(
                    Extend(plan, tuple(lead + fcols)),
                    keys=keys,
                    struct_fields=tuple((n, n) for n, _ in rest),
                    out="GROUP",
                    marker=pick_marker(rest, own),
                )
        if label is not None:
            plan = Repartition(plan, ("label",))
            self.dict_names[path] = name
        self.assignments.append((name, plan))
        if agg is None and level.child is not None:
            fname, clevel = level.child
            self._compile_dict(
                clevel, path + (fname,), name, reps, child_refs
            )

    # -- nested-to-flat telescoped aggregation (App. B.3.3) -------------

    def _chain_applies(self, q: QLevel) -> bool:
        if q.where is not None or q.child is not None:
            return False
        if q.agg is None or q.agg.kind != "sum" or len(q.agg.values) != 1:
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

        # The dictionary path of each chain generator.
        attrs = tuple(g.path[1] for g in chain)  # type: ignore[index]
        paths = [attrs[: i + 1] for i in range(len(chain))]

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
                ((Col(g.var, attrs[i + 1]), RawCol(label_col)),),
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
            ((Col(top_gen.var, attrs[0]), RawCol(label_col)),),
            "inner",
        )
        top_ext = [(k, fields[k]) for k in q.agg.keys if k not in key_cols]
        if top_ext:
            plan = Extend(plan, tuple(top_ext))
        return NestSum(
            plan,
            keys=tuple(q.agg.keys),
            values=((vname, RawCol(acc)),),
        )


def compile_shredded(
    q: QLevel, qname: str, shredded_inputs: dict[str, set[tuple[str, ...]]]
) -> ShreddedCompiled:
    """Compile a hierarchy to its shredded assignment sequence."""
    return _Compiler(qname, shredded_inputs).compile_top(q)
