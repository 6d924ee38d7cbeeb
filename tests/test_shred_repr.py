"""Shredded representation: value shredding / unshredding round-trips."""
import pytest

from repro.bench import tpch_queries as TQ
from repro.core import nrc_interp as I
from repro.core.shred_repr import Shredded, flattened_count, shred_df, unshred
from repro.core.unnest import compile_standard
from repro.spark_backend import dataset as DS

from tests.utils import rows_of


def _nested(tpch, level, wide):
    c = compile_standard(
        TQ.hierarchy_for(TQ.flat_to_nested(level, wide)), opt="full"
    )
    return DS.run(c.plan, tpch["cat"])


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("wide", [False, True], ids=["narrow", "wide"])
def test_roundtrip(tpch, level, wide):
    df = _nested(tpch, level, wide)
    s = shred_df(df)
    back = unshred(s)
    I.assert_bags_equal(rows_of(back), rows_of(df), f"roundtrip L{level}")


def test_shred_structure_two_levels(tpch):
    df = _nested(tpch, 2, False)
    s = shred_df(df)
    assert set(s.dicts) == {("corders",), ("corders", "oparts")}
    assert s.bag_attrs(()) == ["corders"]
    assert s.bag_attrs(("corders",)) == ["oparts"]
    # top-level bag is flat: the bag attribute became a label column
    assert "corders" in s.top.columns
    assert dict(s.top.dtypes)["corders"] in ("bigint", "long")


def test_dict_has_label_column(tpch):
    s = shred_df(_nested(tpch, 1, False))
    d = s.dicts[("oparts",)]
    assert "label" in d.columns
    assert {"pid", "qty"} <= set(d.columns)


def test_labels_link_top_to_dict(tpch):
    s = shred_df(_nested(tpch, 1, False))
    top_labels = {r["oparts"] for r in s.top.select("oparts").collect()}
    dict_labels = {
        r["label"] for r in s.dicts[("oparts",)].select("label").distinct().collect()
    }
    # every dictionary label is referenced by some top-level tuple
    assert dict_labels <= top_labels


def test_empty_bags_survive_roundtrip(spark):
    df = spark.createDataFrame(
        [
            {"id": 1, "xs": [{"a": 1}]},
            {"id": 2, "xs": []},
        ],
        "id int, xs array<struct<a:int>>",
    )
    back = unshred(shred_df(df))
    got = {r["id"]: r["xs"] for r in rows_of(back)}
    assert got[2] == []
    assert got[1] == [{"a": 1}]


def test_dotted_names_roundtrip(spark):
    """Attribute names holding a dot are names, not field accesses."""
    df = spark.createDataFrame(
        [(1, [(2, [(3,)])]), (4, [])],
        "`o.id` int, "
        "`o.xs` array<struct<`a.b`: int, `x.ys`: array<struct<`c.d`: int>>>>",
    )
    s = shred_df(df)
    assert set(s.dicts) == {("o.xs",), ("o.xs", "x.ys")}
    I.assert_bags_equal(rows_of(unshred(s)), rows_of(df), "dotted roundtrip")
    assert flattened_count(df) == 2


def test_dict_counts_vs_flattened(tpch):
    """Dictionary tuple counts never exceed the flattened count — the
    succinctness property behind App. D."""
    df = _nested(tpch, 2, False)
    s = shred_df(df)
    flat = flattened_count(df)
    for p, d in s.dicts.items():
        assert d.count() <= max(flat, 1)


def test_flattened_count_multiplies(spark):
    df = spark.createDataFrame(
        [
            {"id": 1, "xs": [{"a": 1}, {"a": 2}]},
            {"id": 2, "xs": []},
        ],
        "id int, xs array<struct<a:int>>",
    )
    # outer flattening: 2 inner rows + 1 empty-preserving row
    assert flattened_count(df) == 3


def test_count_all_materializes_everything(tpch):
    s = shred_df(_nested(tpch, 1, False))
    counts = s.count_all()
    assert counts["top"] == tpch["cat"].get("Orders").count()
    assert counts["oparts"] == tpch["cat"].get("Lineitem").count()


def test_unshred_drops_null_and_orphan_labels(spark):
    """A NULL label meets no parent, an orphan label no parent row; a
    NULL parent label and one without dictionary rows get the empty bag."""
    top = spark.createDataFrame(
        [(1, 10), (2, None), (3, 30)], "id int, xs bigint"
    )
    xs = spark.createDataFrame(
        [(10, 1, 100), (10, 2, None), (None, 3, 100), (77, 4, 100)],
        "label bigint, a int, ys bigint",
    )
    ys = spark.createDataFrame(
        [(100, 5), (100, 6), (None, 7), (88, 8)], "label bigint, b int"
    )
    s = Shredded(top=top, dicts={("xs",): xs, ("xs", "ys"): ys})
    expected = [
        {"id": 1, "xs": [
            {"a": 1, "ys": [{"b": 5}, {"b": 6}]},
            {"a": 2, "ys": []},
        ]},
        {"id": 2, "xs": []},
        {"id": 3, "xs": []},
    ]
    I.assert_bags_equal(rows_of(unshred(s)), expected, "NULL/orphan labels")
