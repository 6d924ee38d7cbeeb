"""Shuffle as Spark measures it: the harness's shuffle column and the
broadcast of the skew-aware routes' heavy part."""
from repro.bench import harness
from repro.bench import tpch_queries as TQ
from repro.core import api
from repro.core.unnest import compile_standard
from repro.spark_backend import dataset as DS


def test_fig7_rows_carry_measured_shuffle(spark):
    rows = harness.fig7(
        spark, sf=0.002, levels=(2,), wides=(False,), families=("n2n",)
    )
    assert [r.strategy for r in rows] == list(harness.FIG7_STRATEGIES)
    assert all(r.ok and r.shuffle_mb is not None for r in rows)
    mb = {r.strategy: r.shuffle_mb for r in rows}
    # The shredded route joins the flat dictionaries, not the flattened
    # nested input.
    assert 0 < mb["shred"] < mb["standard"]


def test_skew_route_broadcasts_heavy_part(spark):
    cat = TQ.load_tpch(spark, sf=0.002, skew=4.0)
    name = TQ.input_bag_name(2, False)
    c = compile_standard(
        TQ.hierarchy_for(TQ.flat_to_nested(2, False)), opt="full"
    )
    cat.add(name, DS.run(c.plan, cat).localCheckpoint(eager=True))
    types = {**TQ.BASE_TYPES, name: TQ.flat_to_nested_type(2, False)}
    df = api.standard_route(
        TQ.nested_to_nested(2, False), types, cat, opt="full", skew=True
    )
    plan = df._jdf.queryExecution().executedPlan().toString()
    assert "BroadcastExchange" in plan
