"""Well-formedness of every compiled benchmark plan (no Spark).

Compiles each benchmark query — TPC-H flat-to-nested, nested-to-nested
and nested-to-flat at levels 0–4 (narrow and wide), the biomedical
pipeline steps 1–5, the clinical queries C1–C3 and the App. D sharing
query — on both routes with each route's options, and checks the
invariants the executor relies on:

* assignment names are unique;
* every ``Scan``/``ScanRaw`` names an input or an earlier assignment;
* the output dictionaries are exactly the output type's bag paths, and
  each is a ``Repartition(("label",))`` assignment.
"""
import pytest

from repro.bench import biomed_queries as BQ
from repro.bench import tpch_queries as TQ
from repro.core import nrc as N
from repro.core import plan_ops as P
from repro.core.hierarchy import to_hierarchy
from repro.core.shred_materialize import (
    compile_shredded,
    dict_table,
    top_table,
)
from repro.core.unnest import compile_standard


def _bag_paths(t: N.BagT, prefix: tuple[str, ...] = ()) -> set:
    out = set()
    for name, ft in t.elem.fields:
        if isinstance(ft, N.BagT):
            out |= {prefix + (name,)} | _bag_paths(ft, prefix + (name,))
    return out


def _cases():
    """(qname, query, input types, shredded inputs' dictionary paths)."""
    out = []
    for level in range(5):
        for wide in (False, True):
            tag = f"{level}{'w' if wide else 'n'}"
            out.append((f"f2n{tag}", TQ.flat_to_nested(level, wide),
                        dict(TQ.BASE_TYPES), {}))
            name = TQ.input_bag_name(level, wide)
            t = TQ.flat_to_nested_type(level, wide)
            types = {**TQ.BASE_TYPES, name: t}
            shredded = {name: _bag_paths(t)}
            out.append((f"n2n{tag}", TQ.nested_to_nested(level, wide),
                        types, shredded))
            out.append((f"n2f{tag}", TQ.nested_to_flat(level, wide),
                        types, shredded))
    types = dict(BQ.BASE_TYPES)
    shredded = {
        n: _bag_paths(types[n]) for n in ("Occurrences", "Network", "VEP")
    }
    for cname, query in BQ.CLINICAL.items():
        out.append((cname, query(), types, shredded))
    out.append(("share", BQ.sharing_query(), types, shredded))
    for name, step in zip(BQ.STEP_NAMES, BQ.STEPS):
        e = step()
        out.append((name, e, dict(types), dict(shredded)))
        types = {**types, name: N.infer_type(e, types)}
        if not N.is_flat(types[name]):
            shredded = {**shredded, name: _bag_paths(types[name])}
    return out


CASES = _cases()


def _scanned(plan: P.Plan) -> list[str]:
    return [
        n.table for n in P.walk(plan) if isinstance(n, (P.Scan, P.ScanRaw))
    ]


@pytest.mark.parametrize("opt", ["none", "proj", "full"])
@pytest.mark.parametrize("push_agg", [False, True])
def test_standard_plans_scan_only_inputs(opt, push_agg):
    for qname, e, types, _ in CASES:
        c = compile_standard(
            to_hierarchy(e, types), opt=opt, push_agg=push_agg,
            unique_keys=TQ.UNIQUE_KEYS,
        )
        assert set(_scanned(c.plan)) <= set(types), qname


def test_shredded_assignments_are_well_formed():
    for qname, e, types, shredded in CASES:
        c = compile_shredded(to_hierarchy(e, types), qname, shredded)
        known = {n for n in types if n not in shredded}
        known |= {top_table(n) for n in shredded}
        known |= {dict_table(n, p) for n, ps in shredded.items() for p in ps}
        for name, plan in c.assignments:
            assert name not in known, (qname, name)
            missing = set(_scanned(plan)) - known
            assert not missing, (qname, name, missing)
            known.add(name)
        plans = dict(c.assignments)
        assert c.top_name in plans, qname
        out_t = N.infer_type(e, types)
        assert set(c.dict_names) == _bag_paths(out_t), qname
        for path, name in c.dict_names.items():
            plan = plans[name]
            assert isinstance(plan, P.Repartition), (qname, path)
            assert plan.cols == ("label",), (qname, path)
