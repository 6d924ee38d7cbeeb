"""Optimization levels (§3.3 / App. E.4): all levels agree on results;
the projection merge keeps every plan's columns and scan demands."""
import pytest

from repro.bench import tpch_queries as TQ
from repro.core import api
from repro.core import nrc_interp as I
from repro.core import plan_ops as P
from repro.core.hierarchy import to_hierarchy
from repro.core.optimize import _KEY, catalyst_opt_level, merge_projections
from repro.core.sexpr import BinOp, Col, Lit, RawCol
from repro.core.shred_materialize import compile_shredded
from repro.core.unnest import compile_standard
from repro.spark_backend import dataset as DS
from repro.spark_backend import rdd_backend as RB

from tests.conftest import ensure_nested_input
from tests.utils import check


@pytest.mark.parametrize("opt", ["none", "proj", "full"])
def test_opt_levels_equivalent(spark, tpch, opt):
    e = TQ.flat_to_nested(2, True)
    expected = I.evaluate(e, tpch["env"])
    with catalyst_opt_level(spark, opt):
        df = api.standard_route(e, TQ.BASE_TYPES, tpch["cat"], opt=opt)
        check(df, expected, f"opt={opt}")


def test_noopt_excludes_catalyst_rules(spark):
    with catalyst_opt_level(spark, "none"):
        assert "ColumnPruning" in spark.conf.get(_KEY)
    # restored afterwards
    try:
        leftover = spark.conf.get(_KEY)
    except Exception:
        leftover = None
    assert not leftover or "ColumnPruning" not in leftover


def test_push_agg_equivalent_on_flat_output(tpch):
    name = ensure_nested_input(tpch, 2, False)
    e = TQ.nested_to_nested(2, False)
    types = {**TQ.BASE_TYPES, name: TQ.flat_to_nested_type(2, False)}
    expected = I.evaluate(e, tpch["env"])
    for push in (False, True):
        df = api.standard_route(
            e, types, tpch["cat"], opt="full", push_agg=push
        )
        check(df, expected, f"push_agg={push}")


def test_cogroup_and_canonical_agree(tpch):
    e = TQ.flat_to_nested(3, False)
    expected = I.evaluate(e, tpch["env"])
    for opt in ("none", "full"):
        df = api.standard_route(e, TQ.BASE_TYPES, tpch["cat"], opt=opt)
        check(df, expected, f"{opt}")


# --------------------------------------------------------------------------
# Projection merge
# --------------------------------------------------------------------------

R, K, V = P.Scan("R", "r"), Col("r", "k"), Col("r", "v")
TWICE_V = BinOp("*", V, Lit(2.0))


def test_merge_projections_folds_a_run():
    plan = P.Project(
        P.Select(
            P.Extend(P.Select(R, BinOp(">", K, Lit(0))), (("e", TWICE_V),)),
            BinOp(">", RawCol("e"), Lit(4.0)),
        ),
        (("s", Col("r", "s")), ("e2", RawCol("e"))),
    )
    pred = BinOp("&&", BinOp(">", K, Lit(0)), BinOp(">", TWICE_V, Lit(4.0)))
    assert merge_projections(plan) == P.Project(
        P.Select(R, pred), (("s", Col("r", "s")), ("e2", TWICE_V))
    )
    # Extend over Extend: a replaced column keeps its place
    ext = P.Extend(P.Extend(R, (("e", V), ("f", K))), (("e", Lit(1)),))
    assert merge_projections(ext) == P.Extend(R, (("e", Lit(1)), ("f", K)))


def test_merge_keeps_a_computed_column_read_twice():
    """As Catalyst's CollapseProject: folding would compute it twice."""
    inner = P.Extend(R, (("e", TWICE_V),))
    plus = (("a", BinOp("+", RawCol("e"), Lit(1.0))),)
    twice = P.Project(inner, plus + (("b", RawCol("e")),))
    assert merge_projections(twice) == twice
    passed_through = P.Extend(inner, plus)  # keeps e and reads it
    assert merge_projections(passed_through) == passed_through
    rename = P.Extend(P.Extend(R, (("e", V),)), plus)
    assert merge_projections(rename) == P.Extend(
        R, (("e", V), ("a", BinOp("+", V, Lit(1.0))))
    )


def _unmerged_nodes(plan):
    """The nodes a merge leaves in place, pre-order."""
    kinds = (P.Select, P.Project, P.Extend)
    return [n for n in P.walk(plan) if not isinstance(n, kinds)]


def _bench_plans(tpch):
    name = ensure_nested_input(tpch, 2, False)
    types = {**TQ.BASE_TYPES, name: TQ.flat_to_nested_type(2, False)}
    queries = [
        (TQ.flat_to_nested(2, True), TQ.BASE_TYPES),
        (TQ.nested_to_nested(2, False), types),
        (TQ.nested_to_flat(2, False), types),
    ]
    for e, t in queries:
        q = to_hierarchy(e, t)
        for opt in ("none", "proj", "full"):
            for push_agg in (False, True):
                yield compile_standard(
                    q, opt=opt, push_agg=push_agg,
                    unique_keys=tpch["cat"].unique_keys,
                ).plan
        shredded = api.shredded_input_paths(tpch["cat"])
        for _, plan in compile_shredded(q, "m", shredded).assignments:
            yield plan


def test_merge_keeps_columns_and_scan_demands(tpch):
    """Every operator outside the runs sees the columns it saw before
    (so ``opt="none"`` still carries them all), and renames still lead
    the skew route's demands to the scans."""
    cat = tpch["cat"]
    merged_any = False
    for plan in _bench_plans(tpch):
        merged = merge_projections(plan)
        merged_any |= merged != plan
        assert DS.source_demands(merged, cat) == DS.source_demands(plan, cat)
        before, after = _unmerged_nodes(plan), _unmerged_nodes(merged)
        assert [type(n) for n in before] == [type(n) for n in after]
        if any(isinstance(n, (P.Scan, P.ScanRaw)) and n.table not in cat.tables
               for n in before):
            continue  # scans a table an earlier assignment makes
        for b, a in zip(before, after):
            assert RB.plan_columns(a, cat) == RB.plan_columns(b, cat)
        assert RB.plan_columns(merged, cat) == RB.plan_columns(plan, cat)
    assert merged_any
