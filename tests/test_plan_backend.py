"""Plan operators: Dataset backend vs RDD backend vs expected values."""
import gc
import threading

import pytest
from py4j.clientserver import ClientServerConnection

from repro.bench import tpch_queries as TQ
from repro.core import api
from repro.core import plan_ops as P
from repro.core import nrc_interp as I
from repro.core.hierarchy import to_hierarchy
from repro.core.sexpr import BinOp, Col, Lit, RawCol
from repro.core.unnest import compile_standard
from repro.spark_backend import dataset as DS
from repro.spark_backend import rdd_backend as RB
from repro.spark_backend.catalog import Catalog

from tests.conftest import ensure_nested_input
from tests.utils import rows_of


@pytest.fixture(scope="module")
def cat(spark):
    c = Catalog()
    c.add(
        "R",
        spark.createDataFrame(
            [(1, "a", 2.0), (2, "b", 3.0), (3, "a", 4.0)], "k int, s string, v double"
        ),
    )
    c.add(
        "S",
        spark.createDataFrame([(1, 10.0), (1, 20.0), (3, 30.0)], "k int, w double"),
    )
    c.add(
        "NESTED",
        spark.createDataFrame(
            [
                {"id": 1, "xs": [{"a": 1, "b": 2.0}, {"a": 2, "b": 3.0}]},
                {"id": 2, "xs": []},
            ],
            "id int, xs array<struct<a:int, b:double>>",
        ),
    )
    return c


def both(plan, cat):
    ds = rows_of(DS.execute(plan, cat).union())
    rd = RB.collect(plan, cat)
    assert I.bags_equal(ds, rd), "dataset and rdd backends disagree"
    return ds


def test_scan_renames(cat):
    got = both(P.Scan("R", "r"), cat)
    assert set(got[0]) == {"r__k", "r__s", "r__v"}
    assert len(got) == 3


def test_scan_raw(cat):
    got = both(P.ScanRaw("R"), cat)
    assert set(got[0]) == {"k", "s", "v"}


def test_select(cat):
    p = P.Select(P.Scan("R", "r"), BinOp("==", Col("r", "s"), Lit("a")))
    got = both(p, cat)
    assert sorted(r["r__k"] for r in got) == [1, 3]


def test_project(cat):
    p = P.Project(
        P.Scan("R", "r"),
        (("kk", Col("r", "k")), ("doubled", BinOp("*", Col("r", "v"), Lit(2)))),
    )
    got = both(p, cat)
    assert {r["kk"]: r["doubled"] for r in got} == {1: 4.0, 2: 6.0, 3: 8.0}


def test_extend_keeps_existing(cat):
    p = P.Extend(P.Scan("R", "r"), (("plus", BinOp("+", Col("r", "k"), Lit(1))),))
    got = both(p, cat)
    assert set(got[0]) == {"r__k", "r__s", "r__v", "plus"}


def test_add_id_unique(cat):
    # id *values* are backend-specific; only uniqueness is contractual
    p = P.AddId(P.Scan("R", "r"), "the_id")
    for got in (rows_of(DS.execute(p, cat).union()), RB.collect(p, cat)):
        assert len({r["the_id"] for r in got}) == 3


def test_inner_join(cat):
    p = P.Join(
        P.Scan("R", "r"), P.Scan("S", "s"), ((Col("r", "k"), Col("s", "k")),), "inner"
    )
    got = both(p, cat)
    assert len(got) == 3  # k=1 matches twice, k=3 once


def test_left_outer_join_keeps_misses(cat):
    p = P.Join(
        P.Scan("R", "r"), P.Scan("S", "s"), ((Col("r", "k"), Col("s", "k")),),
        "left_outer",
    )
    got = both(p, cat)
    assert len(got) == 4
    miss = [r for r in got if r["r__k"] == 2]
    assert miss and miss[0]["s__w"] is None


def test_cross_join(cat):
    p = P.Join(P.Scan("R", "r"), P.Scan("S", "s"), (), "cross")
    got = both(p, cat)
    assert len(got) == 9


def test_multi_condition_join(cat):
    p = P.Join(
        P.Scan("S", "s1"),
        P.Scan("S", "s2"),
        (
            (Col("s1", "k"), Col("s2", "k")),
            (Col("s1", "w"), Col("s2", "w")),
        ),
        "inner",
    )
    got = both(p, cat)
    assert len(got) == 3  # only identical rows pair up


def test_unnest_inner_drops_empty(cat):
    p = P.Unnest(
        P.Scan("NESTED", "n"), "n__xs", "x", (("a", False), ("b", False)), False
    )
    got = both(p, cat)
    assert len(got) == 2
    assert all(r["n__id"] == 1 for r in got)


def test_unnest_outer_keeps_empty(cat):
    p = P.Unnest(
        P.Scan("NESTED", "n"), "n__xs", "x", (("a", False), ("b", False)), True
    )
    got = both(p, cat)
    assert len(got) == 3
    empty = [r for r in got if r["n__id"] == 2]
    assert empty and empty[0]["x__a"] is None


def test_nest_bag_groups_and_skips_null_marker(cat):
    unnested = P.Unnest(
        P.Scan("NESTED", "n"), "n__xs", "x", (("a", False), ("b", False)), True
    )
    p = P.NestBag(
        unnested,
        keys=("n__id",),
        struct_fields=(("a", "x__a"), ("b", "x__b")),
        out="bag",
        marker="x__a",
    )
    got = both(p, cat)
    by_id = {r["n__id"]: r["bag"] for r in got}
    assert len(by_id[1]) == 2
    assert by_id[2] == []  # empty bag preserved, not a null struct


def test_nest_sum(cat):
    p = P.NestSum(
        P.Scan("S", "s"), keys=("s__k",), values=(("tot", Col("s", "w")),)
    )
    got = both(p, cat)
    assert {r["s__k"]: r["tot"] for r in got} == {1: 30.0, 3: 30.0}


def test_nest_sum_all_null_group_is_null(cat):
    j = P.Join(
        P.Scan("R", "r"), P.Scan("S", "s"), ((Col("r", "k"), Col("s", "k")),),
        "left_outer",
    )
    p = P.NestSum(j, keys=("r__k",), values=(("tot", Col("s", "w")),))
    got = both(p, cat)
    assert {r["r__k"]: r["tot"] for r in got} == {1: 30.0, 2: None, 3: 30.0}


def test_distinct(cat):
    p = P.Distinct(P.Project(P.Scan("R", "r"), (("s", Col("r", "s")),)))
    got = both(p, cat)
    assert sorted(r["s"] for r in got) == ["a", "b"]


def test_with_empty_array(spark, cat):
    grouped = P.NestBag(
        P.Scan("S", "s"),
        keys=("s__k",),
        struct_fields=(("w", "s__w"),),
        out="bag",
        marker="s__w",
    )
    j = P.Join(
        P.Scan("R", "r"), grouped, ((Col("r", "k"), RawCol("s__k")),),
        "left_outer",
    )
    p = P.WithEmptyArray(j, "bag")
    got = rows_of(DS.execute(p, cat).union())
    miss = [r for r in got if r["r__k"] == 2]
    assert miss[0]["bag"] == []


def test_repartition_preserves_rows(cat):
    p = P.Repartition(P.Scan("R", "r"), ("r__k",))
    got = both(p, cat)
    assert len(got) == 3


def test_plan_columns_matches_dataset_schema(cat):
    plans = [
        P.Scan("R", "r"),
        P.Project(P.Scan("R", "r"), (("kk", Col("r", "k")),)),
        P.Extend(P.Scan("R", "r"), (("e", Lit(1)),)),
        P.Join(
            P.Scan("R", "r"), P.Scan("S", "s"),
            ((Col("r", "k"), Col("s", "k")),), "inner",
        ),
        P.Unnest(
            P.Scan("NESTED", "n"), "n__xs", "x",
            (("a", False), ("b", False)), True,
        ),
    ]
    for p in plans:
        assert sorted(RB.plan_columns(p, cat)) == sorted(
            DS.execute(p, cat).union().columns
        )


def test_unknown_plan_node_raises(cat):
    class Bogus(P.Plan):
        pass

    with pytest.raises(TypeError):
        DS.execute(Bogus(), cat)
    with pytest.raises(TypeError):
        RB.execute(Bogus(), cat)


# --------------------------------------------------------------------------
# py4j round trips per plan build
# --------------------------------------------------------------------------

# Upper bounds on the py4j calls of one warm ``DS.run`` of the
# benchmark's standard-route plans (level 2, SF 0.002; the skew run
# includes its sampling job), and of one warm unshredding of the
# shredded n2n output.  The standard plans take 183, 243 and 431 calls,
# about a tenth to a fifth of what building Columns node by node took;
# unshredding as a plan takes 96, where the hand-built DataFrame cogroup
# took 214.  A change that moves a bound says why in CHANGES.md.
BUILD_CALLS = {
    "f2n_wide": 200,
    "n2n_narrow": 270,
    "n2n_narrow_skew": 480,
    "unshred": 110,
}


def _bench_build(tpch, query):
    """The build to count for ``query``, as a callable."""
    cat = tpch["cat"]
    if query == "f2n_wide":
        e, types = TQ.flat_to_nested(2, True), TQ.BASE_TYPES
    else:
        name = ensure_nested_input(tpch, 2, False)
        e = TQ.nested_to_nested(2, False)
        types = {**TQ.BASE_TYPES, name: TQ.flat_to_nested_type(2, False)}
    if query == "unshred":
        own = Catalog(dict(cat.tables), dict(cat.unique_keys))
        run = api.shredded_route(e, types, "budget_n2n", own)
        return lambda: api.unshred_result(run)
    c = compile_standard(
        to_hierarchy(e, types),
        opt="full",
        push_agg=query == "n2n_narrow",
        unique_keys=cat.unique_keys,
    )
    return lambda: DS.run(c.plan, cat, skew=query.endswith("skew"))


def _py4j_calls(monkeypatch, f) -> int:
    """The py4j round trips ``f()`` makes from this thread.  py4j's
    finalizer thread releases Java objects on its own schedule, so its
    calls are not counted, and no garbage collection runs meanwhile."""
    calls = [0]
    send = ClientServerConnection.send_command
    me = threading.get_ident()

    def counting(self, command):
        calls[0] += threading.get_ident() == me
        return send(self, command)

    gc.collect()
    gc.disable()
    try:
        with monkeypatch.context() as m:
            m.setattr(ClientServerConnection, "send_command", counting)
            f()
    finally:
        gc.enable()
    return calls[0]


@pytest.mark.parametrize("query", list(BUILD_CALLS))
def test_build_py4j_budget(tpch, monkeypatch, query):
    run = _bench_build(tpch, query)
    run()  # warm: the inputs' schemas are read once
    assert _py4j_calls(monkeypatch, run) <= BUILD_CALLS[query]
