"""Skew-resilient processing (§5, Fig. 6)."""
import random
from collections import Counter, defaultdict

import pytest
from pyspark.sql import Row
from pyspark.sql import functions as F

from repro.bench import tpch_queries as TQ
from repro.core import api
from repro.core import nrc_interp as I
from repro.core import plan_ops as P
from repro.core import skew as SK
from repro.core.sexpr import Col, GetField, RawCol, to_sql
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
    (hk,) = SK.heavy_keys(
        [(skcat["cat"].get("Lineitem"), "l_orderkey")], sample_fraction=0.5
    )
    assert 1 in hk  # Zipf rank-1 key must be detected
    assert len(hk) <= 40 * 64  # threshold bound per partition


def test_heavy_keys_empty_on_uniform_data(spark):
    cat = TQ.load_tpch(spark, sf=SKEW_SF, skew=0.0)
    (hk,) = SK.heavy_keys(
        [(cat.get("Lineitem"), "l_orderkey")], sample_fraction=0.3
    )
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
    (hk,) = SK.heavy_keys([(li, "l_partkey")], sample_fraction=0.5)
    t = SK.split(li, "l_partkey", hk)
    sk = SK.skew_join(t, part, "l_partkey", "p_partkey", cond, "inner")
    assert sk.union().count() == plain
    assert sk.keys["l_partkey"]  # heavy keys propagate through the join


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
    k = F.col(key) if isinstance(key, str) else F.expr(to_sql(key))
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
    (hk,) = SK.heavy_keys([(df, key)], sample_fraction=fraction)
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
    _assert_matches_oracle(df, GetField(RawCol("s"), "a"))


def test_heavy_keys_runs_two_stages(spark):
    """One shuffle: the sample's map stage and the stage that counts,
    for one request and for a batch of three."""
    df = _ids(spark, 4000, 4).select(
        (F.col("id") % 7).alias("k"), (F.col("id") % 11).alias("j")
    )
    other = _ids(spark, 3000, 3).select((F.col("id") % 5).alias("k"))
    for n, batch in [(1, [(df, "k")]), (3, [(df, "k"), (df, "j"), (other, "k")])]:
        group = f"test-heavy-keys-stages-{n}"
        assert _stages_with_tasks(spark, group, lambda: SK.heavy_keys(batch)) == 2


def _jobs(spark, group, op) -> list[int]:
    """Ids of the Spark jobs ``op`` starts, run under its own job group."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        op()
    finally:
        sc.setJobGroup("", "")
    return list(sc.statusTracker().getJobIdsForGroup(group))


def _stages_with_tasks(spark, group, op) -> int:
    """Stages that ran tasks for ``op``'s jobs.  Under AQE a job lists
    the map stages it reuses again, as skipped stages; a full status
    store drops skipped stages first, so their info may be gone."""
    tracker = spark.sparkContext.statusTracker()
    infos = [
        tracker.getStageInfo(s)
        for j in _jobs(spark, group, op)
        for s in tracker.getJobInfo(j).stageIds
    ]
    return sum(1 for i in infos if i is not None and i.numCompletedTasks > 0)


def _batch_frames(spark):
    """Frames for the batched-sampler cases."""
    two_keys = _ids(spark, 4000, 4).select(
        (F.col("id") % 7).alias("k"), (F.col("id") % 30).alias("j")
    )
    other = _ids(spark, 3000, 3).select(
        F.when(F.col("id") % 4 == 0, 3).otherwise(F.col("id") % 50).alias("k")
    )
    nulls = _ids(spark, 4000, 4).select(
        F.when(F.col("id") % 2 == 0, None).otherwise(F.col("id") % 7).alias("k")
    )
    # the last partition's only key holds all of it, but its sample is
    # below MIN_SAMPLE_PER_PARTITION
    small = _ids(spark, 4000, 2).select((F.col("id") % 20).alias("k")).union(
        _ids(spark, 50, 1).select(F.lit(999).cast("long").alias("k"))
    )
    struct = _ids(spark, 4000, 4).select(
        F.struct(
            (F.col("id") % 3).alias("a"),
            F.when(F.col("id") % 5 == 0, None)
            .otherwise(F.concat(F.lit("s"), (F.col("id") % 2).cast("string")))
            .alias("b"),
        ).alias("lbl"),
    )
    return {
        "two_frames": [(two_keys, "k"), (other, "k")],
        "one_frame_two_keys": [(two_keys, "k"), (two_keys, "j")],
        "null_keys": [(nulls, "k"), (other, "k")],
        "struct_key": [(struct, "lbl"), (two_keys, "k")],
        "small_partition": [(two_keys, "j"), (small, "k")],
    }


BATCHES = [
    "two_frames", "one_frame_two_keys", "null_keys", "struct_key",
    "small_partition",
]


@pytest.mark.parametrize("case", BATCHES)
def test_heavy_keys_batch_equals_one_request_results(spark, case):
    requests = _batch_frames(spark)[case]
    batch = SK.heavy_keys(requests)
    assert len(batch) == len(requests)
    for (df, key), hk in zip(requests, batch):
        (alone,) = SK.heavy_keys([(df, key)])
        assert len(hk) == len(set(hk))
        assert set(hk) == set(alone) == oracle_heavy_keys(df, key)
        assert hk and None not in hk
    if case == "small_partition":
        assert 999 not in batch[1]
    if case == "struct_key":
        (df, key), hk = requests[0], batch[0]
        assert all(isinstance(k, Row) for k in hk)
        t = SK.split(df, key, hk)
        assert t.light.count() + t.heavy.count() == df.count()
        heavy = {r[key] for r in t.heavy.select(key).distinct().collect()}
        assert heavy == set(hk)


def test_skew_join_resamples_for_another_key(skcat):
    """Heavy keys sampled on one key are not reused to split another."""
    li = skcat["cat"].get("Lineitem")
    part = skcat["cat"].get("Part")
    t = SK.split(li, "l_orderkey", [1])
    cond = li["l_partkey"] == part["p_partkey"]
    sk = SK.skew_join(t, part, "l_partkey", "p_partkey", cond, "inner")
    (hk,) = SK.heavy_keys([(t.union(), "l_partkey")])
    assert sk.keys == {"l_partkey": hk}
    assert sk.union().count() == li.join(part, cond, "inner").count()


# --------------------------------------------------------------------------
# split / skew_join / skew_bag_to_dict on forced key sets (no sampler)
# --------------------------------------------------------------------------

_X_KEYS = [None] * 5 + [1] * 40 + [2] * 12 + list(range(3, 30))
_Y_KEYS = [None, 1, 1, 2, 3, 5, 8, 13, 21, 34, 35]

FORCED = {
    "empty": [],
    "random": random.Random(3).sample(sorted(set(_X_KEYS) - {None}), 6),
    "every": [None, *sorted(set(_X_KEYS) - {None})],
    "null": [None, 1],
    "absent": [999],
}


@pytest.fixture(scope="module")
def xy(spark):
    x = spark.createDataFrame(
        [(k, i) for i, k in enumerate(_X_KEYS)], "xk long, xv long"
    )
    y = spark.createDataFrame(
        [(k, -i) for i, k in enumerate(_Y_KEYS)], "yk long, yw long"
    )
    return x, y


def _bag(df):
    return Counter(tuple(r) for r in df.collect())


def _noop(df):
    df.write.format("noop").mode("overwrite").save()


@pytest.mark.parametrize("forced", FORCED, ids=list(FORCED))
def test_split_is_exact_for_any_key_set(xy, forced):
    x, _ = xy
    heavy = [k for k in FORCED[forced] if k is not None]
    t = SK.split(x, "xk", FORCED[forced])
    assert t.keys == {"xk": heavy}  # NULL is never heavy
    assert _bag(t.union()) == _bag(x)
    if t.heavy is not None:
        assert {r["xk"] for r in t.heavy.collect()} <= set(heavy)
    assert not {r["xk"] for r in t.light.collect()} & set(heavy)


@pytest.mark.parametrize("how", ["inner", "left_outer"])
@pytest.mark.parametrize("forced", FORCED, ids=list(FORCED))
def test_skew_join_is_exact_for_any_key_set(xy, forced, how):
    x, y = xy
    cond = F.col("xk") == F.col("yk")
    t = SK.SkewTriple(x, None, {"xk": FORCED[forced]})
    sk = SK.skew_join(t, y, "xk", "yk", cond, how)
    assert _bag(sk.union()) == _bag(x.join(y, cond, how))


@pytest.mark.parametrize("forced", FORCED, ids=list(FORCED))
def test_skew_bag_to_dict_is_exact_for_any_key_set(xy, forced):
    x, _ = xy
    t = SK.skew_bag_to_dict(x, "xk", FORCED[forced])
    assert _bag(t.union()) == _bag(x.repartition("xk"))
    # the light labels are hash-partitioned: one partition per label
    spread = (
        t.light.select("xk", F.spark_partition_id().alias("pid"))
        .distinct()
        .groupBy("xk")
        .count()
        .where("count > 1")
    )
    assert spread.count() == 0


# --------------------------------------------------------------------------
# Where heavy keys are sampled
# --------------------------------------------------------------------------


def _record_samples(monkeypatch):
    """Record every ``SK.heavy_keys`` batch as its requests:
    [(frame, key, heavy keys), ...] per call."""
    batches, real = [], SK.heavy_keys

    def recording(requests, *args, **kwargs):
        keys = real(requests, *args, **kwargs)
        batches.append([(df, key, hk) for (df, key), hk in zip(requests, keys)])
        return keys

    monkeypatch.setattr(SK, "heavy_keys", recording)
    return batches, real


def _plan_nodes(df) -> list[str]:
    """Node names of the frame's optimized logical plan."""
    names, todo = [], [df._jdf.queryExecution().optimizedPlan()]
    while todo:
        node = todo.pop()
        names.append(node.nodeName())
        kids = node.children()
        todo.extend(kids.apply(i) for i in range(kids.size()))
    return names


def _computes(df) -> bool:
    """Whether sampling the frame recomputes a join or an aggregation."""
    return any("Join" in n or "Aggregate" in n for n in _plan_nodes(df))


def _n2n_types():
    name = TQ.input_bag_name(2, False)
    return {**TQ.BASE_TYPES, name: TQ.flat_to_nested_type(2, False)}


def test_shred_skew_samples_cached_sources(spark, skcat, monkeypatch):
    cat = skcat["cat"]
    e = TQ.nested_to_nested(2, False)
    batches, real = _record_samples(monkeypatch)
    run = api.shredded_route(e, _n2n_types(), "sk_src", cat, skew=True)
    # one batch: the BagToDict of corders; the join of oparts with Part
    # and the BagToDict after Γ, both traced to the oparts dictionary
    (batch,) = batches
    corders = f"{skcat['input']}__dict__corders"
    source = cat.get(f"{corders}__oparts")
    assert [(df, key) for df, key, _ in batch] == [
        (cat.get(corders), "label"), (source, "label"), (source, "pid")
    ]
    assert not any(_computes(df) for df, _, _ in batch)
    requests = [(df, key) for df, key, _ in batch]
    group = "shred-skew-sampling-job"
    assert _stages_with_tasks(spark, group, lambda: real(requests)) == 2
    check(api.unshred_result(run), I.evaluate(e, skcat["env"]), "shred_skew")

    name, plan = run.compiled.assignments[-1]
    assert name == "sk_src__dict__corders__oparts"
    join = next(p for p in P.walk(plan) if isinstance(p, P.Join))
    (label, pid) = real([(source, "label"), (source, "pid")])
    assert set(DS.execute(plan, cat, skew=True).keys["label"]) == set(label)
    assert set(DS.execute(join, cat, skew=True).keys["x2__pid"]) == set(pid)


def test_standard_skew_samples_after_unnest(skcat, monkeypatch):
    """The join key comes out of an Unnest: sampled at the join."""
    batches, _ = _record_samples(monkeypatch)
    df = api.standard_route(
        TQ.nested_to_nested(2, False), _n2n_types(), skcat["cat"],
        opt="full", skew=True,
    )
    (((sampled, key, _),),) = batches
    assert key == "x2__pid"
    assert "Generate" in _plan_nodes(sampled)
    _noop(df)


def _join(left, right, lkey, rkey):
    return P.Join(left, right, ((lkey, rkey),), "inner")


@pytest.mark.parametrize(
    "plan, sampled",
    [
        # Lineitem ⋈ Part is a lookup (p_partkey is unique): both keys
        # are sampled where Lineitem is scanned, in one batch
        (
            _join(
                _join(
                    P.Scan("Lineitem", "l"), P.Scan("Part", "p"),
                    Col("l", "l_partkey"), Col("p", "p_partkey"),
                ),
                P.Scan("Orders", "o"),
                Col("l", "l_orderkey"), Col("o", "o_orderkey"),
            ),
            [[("l_orderkey", False), ("l_partkey", False)]],
        ),
        # Orders ⋈ Lineitem is 1:N: a key from its left side is sampled
        # at the join above it
        (
            _join(
                _join(
                    P.Scan("Orders", "o"), P.Scan("Lineitem", "l"),
                    Col("o", "o_orderkey"), Col("l", "l_orderkey"),
                ),
                P.Scan("Customer", "c"),
                Col("o", "o_custkey"), Col("c", "c_custkey"),
            ),
            [[("o_orderkey", False)], [("o__o_custkey", True)]],
        ),
    ],
    ids=["after_lookup", "after_1_to_n"],
)
def test_keys_traced_through_lookups_only(
    spark, skcat, monkeypatch, request, plan, sampled
):
    cat = skcat["cat"]
    demands = []
    # the planning pass starts no Spark job ...
    plan_pass = lambda: demands.extend(DS.source_demands(plan, cat))
    assert _jobs(spark, request.node.name, plan_pass) == []
    batches, _ = _record_samples(monkeypatch)
    t = DS.execute(plan, cat, skew=True)
    assert [
        [(key, _computes(df)) for df, key, _ in b] for b in batches
    ] == sampled
    # ... and names exactly what is sampled at the scanned tables
    table = {id(df): name for name, df in cat.tables.items()}
    assert [
        (table[id(df)], key) for b in batches for df, key, _ in b
        if id(df) in table
    ] == demands
    cols = t.light.columns[:4]
    want = DS.execute(plan, cat).union().select(*cols)
    assert _bag(t.union().select(*cols)) == _bag(want)


# --------------------------------------------------------------------------
# Stage budget of one skew-aware operation
# --------------------------------------------------------------------------

# Stages that ran tasks for one operation at SF 0.002, z = 3, seed 11:
# the route plus a noop write of every output.  A change that adds a
# Spark job or an exchange to a route moves these.  Sampling at the
# cached sources took shred_skew from 24 to 20, and taking those
# samples in one batch from 20 to 16.  The skew-unaware routes run the
# same interpreter with empty heavy-key sets and sample nothing; their
# counts are those of the separate standard interpreter it replaced.
SHRED_SKEW_STAGES = 16
STANDARD_SKEW_STAGES = 9
SHRED_STAGES = 9
STANDARD_STAGES = 6


@pytest.fixture(scope="module")
def budget_cat(spark):
    """A catalog of its own, so no frame cached by another test serves
    part of the operation."""
    cat = TQ.load_tpch(spark, sf=SKEW_SF, skew=SKEW_Z, seed=11)
    for name, df in cat.tables.items():
        cat.tables[name] = df.cache()
        cat.tables[name].count()
    name = TQ.input_bag_name(2, False)
    c = compile_standard(
        TQ.hierarchy_for(TQ.flat_to_nested(2, False)), opt="full"
    )
    nested = DS.run(c.plan, cat).localCheckpoint(eager=True)
    cat.add(name, nested)
    s = api.shred_df(nested).cache()
    s.count_all()
    api.register_shredded(cat, name, s)
    yield cat
    for df in cat.tables.values():
        df.unpersist()


def _no_sampling(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a skew-unaware route sampled heavy keys")

    monkeypatch.setattr(SK, "heavy_keys", fail)


def _shred_stages(spark, cat, skew: bool) -> int:
    out = []

    def op():
        run = api.shredded_route(
            TQ.nested_to_nested(2, False), _n2n_types(),
            "budget" if skew else "budget_plain", cat, skew=skew,
        )
        out.extend([run.shredded.top, *run.shredded.dicts.values()])
        for df in out:
            _noop(df)

    try:
        return _stages_with_tasks(spark, f"budget-shred-{skew}", op)
    finally:
        for df in out:
            df.unpersist()


def _standard_stages(spark, cat, skew: bool) -> int:
    def op():
        _noop(api.standard_route(
            TQ.nested_to_nested(2, False), _n2n_types(), cat,
            opt="full", skew=skew,
        ))

    return _stages_with_tasks(spark, f"budget-standard-{skew}", op)


def test_shred_skew_stage_budget(spark, budget_cat):
    assert _shred_stages(spark, budget_cat, True) == SHRED_SKEW_STAGES


def test_standard_skew_stage_budget(spark, budget_cat):
    assert _standard_stages(spark, budget_cat, True) == STANDARD_SKEW_STAGES


def test_shred_stage_budget(spark, budget_cat, monkeypatch):
    _no_sampling(monkeypatch)
    assert _shred_stages(spark, budget_cat, False) == SHRED_STAGES


def test_standard_stage_budget(spark, budget_cat, monkeypatch):
    _no_sampling(monkeypatch)
    assert _standard_stages(spark, budget_cat, False) == STANDARD_STAGES
