"""Skew-resilient processing (§5, Fig. 6)."""
from collections import Counter, defaultdict

import pytest
from pyspark.sql import Row
from pyspark.sql import functions as F

from repro.bench import tpch_queries as TQ
from repro.core import api
from repro.core import nrc_interp as I
from repro.core import skew as SK
from repro.core.unnest import compile_standard
from repro.spark_backend import dataset as DS

from tests.utils import check, env_of, rows_of

SKEW_SF = 0.002
SKEW_Z = 3.0


@pytest.fixture(scope="module")
def skcat(spark):
    cat = TQ.load_tpch(spark, sf=SKEW_SF, skew=SKEW_Z)
    for name in list(cat.tables):
        cat.tables[name] = cat.tables[name].cache()
    env = env_of(cat)
    name = TQ.input_bag_name(2, False)
    c = compile_standard(
        TQ.hierarchy_for(TQ.flat_to_nested(2, False)), opt="full"
    )
    df = DS.run(c.plan, cat).cache()
    cat.add(name, df)
    env[name] = rows_of(df)
    api.register_shredded(cat, name, api.shred_df(df).cache())
    return {"cat": cat, "env": env, "input": name}


def test_zipf_generator_is_skewed(skcat):
    """Skewed l_orderkey: the top key should hold far more than its
    uniform share of lineitems."""
    li = skcat["cat"].get("Lineitem")
    top = (
        li.groupBy("l_orderkey").count().orderBy(F.desc("count")).first()
    )
    n, n_orders = li.count(), skcat["cat"].get("Orders").count()
    assert top["count"] > 20 * (n / n_orders)


def test_heavy_keys_found_on_skewed_data(skcat):
    hk = SK.heavy_keys(
        skcat["cat"].get("Lineitem"), "l_orderkey", sample_fraction=0.5
    )
    assert 1 in hk  # Zipf rank-1 key must be detected
    assert len(hk) <= 40 * 64  # threshold bound per partition


def test_heavy_keys_empty_on_uniform_data(spark):
    cat = TQ.load_tpch(spark, sf=SKEW_SF, skew=0.0)
    hk = SK.heavy_keys(cat.get("Lineitem"), "l_orderkey", sample_fraction=0.3)
    # uniform keys: nothing should clear the 2.5 % per-partition bar
    assert len(hk) <= 5


def test_split_partitions_rows(skcat):
    li = skcat["cat"].get("Lineitem")
    t = SK.split(li, "l_orderkey", [1, 2])
    assert t.light.count() + t.heavy.count() == li.count()
    assert t.heavy.where(~F.col("l_orderkey").isin([1, 2])).count() == 0


def test_split_no_keys_is_all_light(skcat):
    li = skcat["cat"].get("Lineitem")
    t = SK.split(li, "l_orderkey", [])
    assert t.heavy is None and t.light.count() == li.count()


def test_skew_join_matches_plain_join(skcat):
    li = skcat["cat"].get("Lineitem")
    part = skcat["cat"].get("Part")
    cond = li["l_partkey"] == part["p_partkey"]
    plain = li.join(part, cond, "inner").count()
    t = SK.split(li, "l_partkey", SK.heavy_keys(li, "l_partkey", sample_fraction=0.5))
    sk = SK.skew_join(t, part, "l_partkey", "p_partkey", cond, "inner")
    assert sk.union().count() == plain
    assert sk.keys  # heavy keys propagate through the join


def test_skew_bag_to_dict_preserves_rows(skcat):
    d = skcat["cat"].get(f"{skcat['input']}__dict__corders__oparts")
    t = SK.skew_bag_to_dict(d, "label")
    total = t.light.count() + (t.heavy.count() if t.heavy is not None else 0)
    assert total == d.count()


def test_standard_skew_route_correct(skcat):
    e = TQ.nested_to_nested(2, False)
    types = {
        **TQ.BASE_TYPES,
        skcat["input"]: TQ.flat_to_nested_type(2, False),
    }
    expected = I.evaluate(e, skcat["env"])
    df = api.standard_route(e, types, skcat["cat"], opt="full", skew=True)
    check(df, expected, "standard skew-aware")


def test_standard_skew_with_push_agg_correct(skcat):
    e = TQ.nested_to_nested(2, False)
    types = {
        **TQ.BASE_TYPES,
        skcat["input"]: TQ.flat_to_nested_type(2, False),
    }
    expected = I.evaluate(e, skcat["env"])
    df = api.standard_route(
        e, types, skcat["cat"], opt="full", skew=True, push_agg=True
    )
    check(df, expected, "standard skew-aware + pushed aggregation")


def test_shredded_skew_route_correct(skcat):
    e = TQ.nested_to_nested(2, False)
    types = {
        **TQ.BASE_TYPES,
        skcat["input"]: TQ.flat_to_nested_type(2, False),
    }
    expected = I.evaluate(e, skcat["env"])
    run = api.shredded_route(e, types, "sk_n2n", skcat["cat"], skew=True)
    check(api.unshred_result(run), expected, "shredded skew-aware")


def test_skew_flat_output_correct(skcat):
    e = TQ.nested_to_flat(2, False)
    types = {
        **TQ.BASE_TYPES,
        skcat["input"]: TQ.flat_to_nested_type(2, False),
    }
    expected = I.evaluate(e, skcat["env"])
    df = api.standard_route(e, types, skcat["cat"], opt="full", skew=True)
    check(df, expected, "nested-to-flat skew-aware")
    run = api.shredded_route(e, types, "sk_n2f", skcat["cat"], skew=True)
    check(run.flat, expected, "shredded nested-to-flat skew-aware")


# --------------------------------------------------------------------------
# heavy_keys against a plain-Python oracle
# --------------------------------------------------------------------------


def oracle_heavy_keys(df, key, fraction=SK.DEFAULT_SAMPLE_FRACTION):
    """The sampler's rule applied in Python to the same sample."""
    k = F.col(key) if isinstance(key, str) else key
    sample = (
        df.select(F.spark_partition_id().alias("pid"), k.alias("k"))
        .sample(fraction=fraction, seed=7)
        .collect()
    )
    per_pid = defaultdict(Counter)
    for r in sample:
        per_pid[r["pid"]][r["k"]] += 1
    heavy = set()
    for counts in per_pid.values():
        total = sum(counts.values())
        if total >= SK.MIN_SAMPLE_PER_PARTITION:
            heavy |= {
                k for k, n in counts.items()
                if k is not None and n >= SK.DEFAULT_THRESHOLD * total
            }
    return heavy


def _assert_matches_oracle(df, key, fraction=SK.DEFAULT_SAMPLE_FRACTION):
    hk = SK.heavy_keys(df, key, sample_fraction=fraction)
    assert len(hk) == len(set(hk))  # de-duplicated across partitions
    assert set(hk) == oracle_heavy_keys(df, key, fraction)
    return hk


def _ids(spark, n, parts):
    return spark.range(0, n, numPartitions=parts)


def test_heavy_keys_never_null(spark):
    # NULL is the most frequent key of every partition
    df = _ids(spark, 4000, 4).select(
        F.when(F.col("id") % 2 == 0, None).otherwise(F.col("id") % 7).alias("k")
    )
    hk = _assert_matches_oracle(df, "k")
    assert None not in hk and hk


def test_heavy_keys_skip_small_partition_samples(spark):
    # the key of the last partition holds all of it, but that
    # partition's sample is below MIN_SAMPLE_PER_PARTITION
    big = _ids(spark, 4000, 2).select((F.col("id") % 100).alias("k"))
    small = _ids(spark, 50, 1).select(F.lit(999).cast("long").alias("k"))
    hk = _assert_matches_oracle(big.union(small), "k")
    assert 999 not in hk


def test_heavy_keys_one_key_holds_every_tuple(spark):
    df = _ids(spark, 2000, 4).select(F.lit(5).cast("long").alias("k"))
    assert _assert_matches_oracle(df, "k") == [5]


def test_heavy_keys_struct_key(spark):
    df = _ids(spark, 4000, 4).select(
        F.struct(
            (F.col("id") % 3).alias("a"),
            F.when(F.col("id") % 5 == 0, None)
            .otherwise(F.concat(F.lit("s"), (F.col("id") % 2).cast("string")))
            .alias("b"),
        ).alias("lbl"),
        F.col("id"),
    )
    hk = _assert_matches_oracle(df, "lbl")
    assert hk and all(isinstance(k, Row) for k in hk)
    t = SK.split(df, "lbl", hk)
    assert t.light.count() + t.heavy.count() == df.count()
    heavy = {r["lbl"] for r in t.heavy.select("lbl").distinct().collect()}
    assert heavy == set(hk)


def test_heavy_keys_on_key_expression(spark):
    df = _ids(spark, 4000, 4).select(
        F.struct((F.col("id") % 30).alias("a")).alias("s")
    )
    _assert_matches_oracle(df, F.col("s").getField("a"))


def test_heavy_keys_runs_two_stages(spark):
    """One shuffle: the sample's map stage and the stage that counts."""
    df = _ids(spark, 4000, 4).select((F.col("id") % 7).alias("k"))
    sc = spark.sparkContext
    group = "test-heavy-keys-stages"
    sc.setJobGroup(group, "heavy_keys")
    try:
        SK.heavy_keys(df, "k")
    finally:
        sc.setJobGroup("", "")
    tracker = sc.statusTracker()
    stages = [
        tracker.getStageInfo(s)
        for j in tracker.getJobIdsForGroup(group)
        for s in tracker.getJobInfo(j).stageIds
    ]
    # under AQE the final job lists the map stage again, skipped
    assert sum(1 for s in stages if s.numCompletedTasks > 0) == 2


def test_skew_join_resamples_for_another_key(skcat):
    """Heavy keys sampled on one key are not reused to split another."""
    li = skcat["cat"].get("Lineitem")
    part = skcat["cat"].get("Part")
    t = SK.split(li, "l_orderkey", [1])
    cond = li["l_partkey"] == part["p_partkey"]
    sk = SK.skew_join(t, part, "l_partkey", "p_partkey", cond, "inner")
    assert sk.key == SK.key_id("l_partkey")
    assert sk.union().count() == li.join(part, cond, "inner").count()
