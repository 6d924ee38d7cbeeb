"""Shredded compilation route (§4): differential + structural tests.

Differential: for every TPC-H benchmark query, the shredded route
(+ unshredding where the output is nested) must agree with the
reference interpreter.  Structural: domain-elimination shortcuts
produce the App. B shredded plans — base-table projections for
flat-to-nested (rule 2), shared input labels for navigation (rule 1),
localized aggregation keyed by (label, sumBy keys) only.
"""
import pytest

from repro.bench import tpch_queries as TQ
from repro.core import api
from repro.core import nrc as N
from repro.core import nrc_interp as I
from repro.core import plan_ops as P
from repro.core.hierarchy import NormalizationError, to_hierarchy
from repro.core.shred_materialize import compile_shredded
from repro.core.unnest import compile_standard
from repro.spark_backend import dataset as DS
from repro.spark_backend.catalog import Catalog

from tests.conftest import ensure_nested_input
from tests.utils import check, rows_of

LEVELS = [0, 1, 2, 3, 4]


@pytest.mark.parametrize("wide", [False, True], ids=["narrow", "wide"])
@pytest.mark.parametrize("level", LEVELS)
def test_flat_to_nested_shred_unshred(tpch, level, wide):
    e = TQ.flat_to_nested(level, wide)
    run = api.shredded_route(
        e, TQ.BASE_TYPES, f"t_f2n{level}{int(wide)}", tpch["cat"]
    )
    expected = I.evaluate(e, tpch["env"])
    if level == 0:
        check(run.flat, expected, "flat output")
    else:
        check(api.unshred_result(run), expected, f"f2n L{level}")


@pytest.mark.parametrize("wide", [False, True], ids=["narrow", "wide"])
@pytest.mark.parametrize("level", LEVELS)
def test_nested_to_nested_shred(tpch, level, wide):
    name = ensure_nested_input(tpch, level, wide)
    e = TQ.nested_to_nested(level, wide)
    types = {**TQ.BASE_TYPES, name: TQ.flat_to_nested_type(level, wide)}
    run = api.shredded_route(
        e, types, f"t_n2n{level}{int(wide)}", tpch["cat"]
    )
    expected = I.evaluate(e, tpch["env"])
    if level == 0:
        check(run.flat, expected, "L0")
    else:
        check(api.unshred_result(run), expected, f"n2n L{level}")


def _filtered_n2f(level: int, wide: bool = False) -> N.Expr:
    """Nested-to-flat with a residual ``qty > 25`` on the lowest
    level.  The filter is a root ``where``, which the App. B.3.3 chain
    plan declines, so one top-level Γ⁺ runs over the joined path
    generators."""
    e = TQ.nested_to_flat(level, wide)

    def under(x: N.Expr, depth: int) -> N.Expr:
        if depth == 0:
            qty = N.Proj(N.Var(f"x{level}"), "qty")
            return N.IfThen(N.PrimOp(">", qty, N.const(25.0)), x)
        return N.ForUnion(x.var, x.source, under(x.body, depth - 1))

    return N.SumBy(e.keys, e.values, under(e.expr, level + 1))


N2F_CASES = [
    pytest.param(
        TQ.nested_to_flat, level, wide,
        id=f"chain-{level}-{'wide' if wide else 'narrow'}",
    )
    for level in LEVELS
    for wide in (False, True)
] + [
    pytest.param(
        _filtered_n2f, level, False,
        id=f"where-{level}-narrow",
    )
    for level in (1, 2)
]


@pytest.mark.parametrize("query,level,wide", N2F_CASES)
def test_nested_to_flat_shred(tpch, query, level, wide):
    name = ensure_nested_input(tpch, level, wide)
    e = query(level, wide)
    types = {**TQ.BASE_TYPES, name: TQ.flat_to_nested_type(level, wide)}
    run = api.shredded_route(
        e, types, f"t_{query.__name__}{level}{int(wide)}", tpch["cat"]
    )
    check(run.flat, I.evaluate(e, tpch["env"]), f"n2f L{level}")


# ---------------------------------------------------------------------------
# Structural properties (App. B.1.3 / B.2.3 / B.3.3)
# ---------------------------------------------------------------------------


def _compiled(tpch, e, types, qname):
    q = to_hierarchy(e, types)
    shredded = api.shredded_input_paths(tpch["cat"])
    return compile_shredded(q, qname, shredded)


def test_flat_to_nested_shredded_plan_is_projections(tpch):
    """Rule 2: every assignment is a projection of one base table —
    no joins, no unnests (App. B.1.3)."""
    c = _compiled(tpch, TQ.flat_to_nested(4, False), TQ.BASE_TYPES, "sp4")
    assert len(c.assignments) == 5
    for name, plan in c.assignments:
        kinds = {type(n).__name__ for n in P.walk(plan)}
        assert "Join" not in kinds and "Unnest" not in kinds, name
        assert "NestBag" not in kinds and "NestSum" not in kinds, name


def test_rule2_labels_are_join_keys(tpch):
    c = _compiled(tpch, TQ.flat_to_nested(1, False), TQ.BASE_TYPES, "sp1")
    run = api.shredded_route(
        TQ.flat_to_nested(1, False), TQ.BASE_TYPES, "sp1x", tpch["cat"]
    )
    top = rows_of(run.shredded.top)
    orders = tpch["env"]["Orders"]
    assert {r["oparts"] for r in top} == {o["o_orderkey"] for o in orders}


def test_rule1_labels_shared_with_input(tpch):
    """Navigation levels reuse the *input* dictionary's labels — the
    sharing that makes shredded output succinct (App. D)."""
    name = ensure_nested_input(tpch, 2, False)
    types = {**TQ.BASE_TYPES, name: TQ.flat_to_nested_type(2, False)}
    run = api.shredded_route(
        TQ.nested_to_nested(2, False), types, "share2", tpch["cat"]
    )
    out_top = rows_of(run.shredded.top.select("corders"))
    in_top = rows_of(tpch["cat"].get(f"{name}__top").select("corders"))
    assert {r["corders"] for r in out_top} == {r["corders"] for r in in_top}


def test_localized_aggregation_key(tpch):
    """The lowest-level Γ⁺ is keyed by (label, pname) only — no
    top-level attributes (the §4.6 localized aggregation)."""
    name = ensure_nested_input(tpch, 2, False)
    types = {**TQ.BASE_TYPES, name: TQ.flat_to_nested_type(2, False)}
    c = _compiled(tpch, TQ.nested_to_nested(2, False), types, "loc2")
    dict_name = c.dict_names[("corders", "oparts")]
    plan = dict(c.assignments)[dict_name]
    sums = [n for n in P.walk(plan) if isinstance(n, P.NestSum)]
    assert len(sums) == 1
    assert set(sums[0].keys) == {"label", "pname"}


def test_dict_plans_end_with_label_repartition(tpch):
    name = ensure_nested_input(tpch, 2, False)
    types = {**TQ.BASE_TYPES, name: TQ.flat_to_nested_type(2, False)}
    c = _compiled(tpch, TQ.nested_to_nested(2, False), types, "rep2")
    for p, dname in c.dict_names.items():
        plan = dict(c.assignments)[dname]
        assert isinstance(plan, P.Repartition)
        assert plan.cols == ("label",)


def test_chain_plan_aggregates_before_top_join(tpch):
    """App. B.3.3: nested-to-flat aggregates the lowest dictionary
    first; each climb re-aggregates per label (telescoped sums)."""
    name = ensure_nested_input(tpch, 3, False)
    types = {**TQ.BASE_TYPES, name: TQ.flat_to_nested_type(3, False)}
    c = _compiled(tpch, TQ.nested_to_flat(3, False), types, "chain3")
    (top_name, plan), = c.assignments
    sums = [n for n in P.walk(plan) if isinstance(n, P.NestSum)]
    assert len(sums) == 4  # bottom partial + 2 climbs + final
    # the final aggregate is keyed by the public output keys
    assert set(sums[0].keys) == {"nname", "pname"}


def test_filtered_n2f_is_one_top_sum(tpch):
    """A nested-to-flat query the chain plan declines compiles to the
    generic form: joins first, then a single top-level Γ⁺."""
    name = ensure_nested_input(tpch, 2, False)
    types = {**TQ.BASE_TYPES, name: TQ.flat_to_nested_type(2, False)}
    c = _compiled(tpch, _filtered_n2f(2), types, "nf2")
    (_, plan), = c.assignments
    sums = [n for n in P.walk(plan) if isinstance(n, P.NestSum)]
    assert len(sums) == 1
    assert any(isinstance(n, P.Select) for n in P.walk(plan))


def test_shredded_output_feeds_next_query(tpch):
    """Pipeline composition: the shredded output of flat-to-nested is
    consumed directly (no unshredding) by nested-to-nested."""
    cat = tpch["cat"]
    e1 = TQ.flat_to_nested(2, False)
    r1 = api.shredded_route(e1, TQ.BASE_TYPES, "pipeA", cat)
    types = {**TQ.BASE_TYPES, "pipeA": TQ.flat_to_nested_type(2, False)}
    e2 = TQ.nested_to_nested(2, False, input_name="pipeA")
    r2 = api.shredded_route(e2, types, "pipeB", cat)
    env = dict(tpch["env"])
    env["pipeA"] = I.evaluate(e1, env)
    expected = I.evaluate(e2, env)
    check(api.unshred_result(r2), expected, "pipelined shredded query")


# The paper's running example (Examples 1 and 4): COP joined with Part
# at the lowest level, summed by part name.
COP_T = N.BagT(
    N.tuple_t(
        cname=N.STRING,
        corders=N.BagT(
            N.tuple_t(
                odate=N.STRING,
                oparts=N.BagT(N.tuple_t(pid=N.INT, qty=N.REAL)),
            )
        ),
    )
)
PART_T = N.BagT(N.tuple_t(pid=N.INT, pname=N.STRING, price=N.REAL))
ENV = {"COP": COP_T, "Part": PART_T}


def _p(v, a):
    return N.Proj(N.Var(v), a)


def running_example() -> N.Expr:
    oparts = N.SumBy(
        ("pname",),
        ("total",),
        N.ForUnion(
            "op",
            _p("co", "oparts"),
            N.ForUnion(
                "p",
                N.Var("Part"),
                N.IfThen(
                    N.eq(_p("op", "pid"), _p("p", "pid")),
                    N.Singleton(
                        N.tup(
                            pname=_p("p", "pname"),
                            total=N.PrimOp(
                                "*", _p("op", "qty"), _p("p", "price")
                            ),
                        )
                    ),
                ),
            ),
        ),
    )
    corders = N.ForUnion(
        "co",
        _p("cop", "corders"),
        N.Singleton(N.tup(odate=_p("co", "odate"), oparts=oparts)),
    )
    return N.ForUnion(
        "cop",
        N.Var("COP"),
        N.Singleton(N.tup(cname=_p("cop", "cname"), corders=corders)),
    )


def test_level_refs_and_subst_reach_every_expression():
    """A parent reference inside GetField, IsNotNull or MkStruct is
    captured by the label, and substituted like any other."""
    from repro.core.hierarchy import Gen, QLevel
    from repro.core.sexpr import Col, GetField, IsNotNull, MkStruct, RawCol
    from repro.core.shred_materialize import _Compiler

    level = QLevel(
        gens=[Gen("y", input_name="B")],
        where=IsNotNull(Col("x", "n")),
        fields=[
            ("f", GetField(Col("x", "s"), "a")),
            ("g", MkStruct((("v", Col("y", "v")), ("w", Col("x", "w"))))),
        ],
        child=None,
    )
    assert _Compiler._level_refs(level, {"x"}) == [
        ("x", "n"), ("x", "s"), ("x", "w")
    ]
    mapping = {("x", "n"): RawCol("label")}
    sub = _Compiler("q", {})._subst
    assert sub(IsNotNull(Col("x", "n")), mapping) == IsNotNull(RawCol("label"))
    assert sub(GetField(Col("x", "n"), "a"), mapping) == GetField(
        RawCol("label"), "a"
    )


def test_materialized_label_captures_only_used_attributes():
    """In the running example the corders label captures only
    ``cop.corders``, not ``cname`` (Example 4's NewLabel)."""
    from repro.core.shred_materialize import _Compiler

    q = to_hierarchy(running_example(), ENV)
    assert _Compiler._level_refs(q.child[1], {"cop"}) == [("cop", "corders")]


# ---------------------------------------------------------------------------
# Queries at the edge of the normal form
# ---------------------------------------------------------------------------


def _customers_with(head: N.Expr) -> N.Expr:
    return N.ForUnion("c", N.Var("Customer"), N.Singleton(head))


@pytest.mark.parametrize("skew", [False, True], ids=["plain", "skew"])
def test_generatorless_child_level(tpch, skew):
    """A bag attribute built from the parent alone, with no generator of
    its own, takes the baseline label domain on the shredded route."""
    e = _customers_with(
        N.tup(
            ckey=_p("c", "c_custkey"),
            s=N.Singleton(N.tup(nkey=_p("c", "c_nationkey"))),
        )
    )
    expected = I.evaluate(e, tpch["env"])
    cat = tpch["cat"]
    check(api.standard_route(e, TQ.BASE_TYPES, cat, skew=skew), expected)
    run = api.shredded_route(
        e, TQ.BASE_TYPES, f"nogen{int(skew)}", cat, skew=skew
    )
    check(api.unshred_result(run), expected, "shredded")


def test_group_without_marker_fails_on_both_routes():
    """A groupBy whose grouped fields never read the level's generators
    has no empty-bag marker: both compilers reject it loudly."""
    head = N.tup(ckey=_p("c", "c_custkey"), one=N.const(1))
    e = N.GroupBy(("ckey",), _customers_with(head))
    q = to_hierarchy(e, TQ.BASE_TYPES)
    with pytest.raises(NormalizationError, match="empty-bag marker"):
        compile_standard(q)
    with pytest.raises(NormalizationError, match="empty-bag marker"):
        compile_shredded(q, "nomark", {})


# ---------------------------------------------------------------------------
# Names and constants that need quoting in Spark SQL
# ---------------------------------------------------------------------------

ODD_TYPES = {
    "Ord": N.BagT(
        N.tuple_t(**{"order": N.INT, "unit price": N.REAL, "o.note": N.STRING})
    ),
    "Item": N.BagT(N.tuple_t(**{"order": N.INT, "select": N.STRING})),
}
ODD_ROWS = {
    "Ord": [(1, 2.0, "a'b"), (2, 3.5, "it's \\ odd"), (3, 1.0, "c\\d")],
    "Item": [(1, "it's"), (1, "p q"), (2, "r"), (4, "s")],
}
_DDL = {N.INT: "long", N.REAL: "double", N.STRING: "string"}


def _odd_query() -> N.Expr:
    o, i = N.Var("o"), N.Var("i")
    items = N.ForUnion(
        "i",
        N.Var("Item"),
        N.IfThen(
            N.eq(N.Proj(i, "order"), N.Proj(o, "order")),
            N.Singleton(
                N.tup(
                    **{
                        "select": N.Proj(i, "select"),
                        "o.note": N.Proj(o, "o.note"),
                        "unit price": N.PrimOp(
                            "*", N.Proj(o, "unit price"), N.const(1.5)
                        ),
                    }
                )
            ),
        ),
    )
    return N.ForUnion(
        "o",
        N.Var("Ord"),
        N.IfThen(
            N.PrimOp("!=", N.Proj(o, "o.note"), N.const("it's \\ odd")),
            N.Singleton(
                N.tup(
                    **{
                        "order": N.Proj(o, "order"),
                        "o.note": N.Proj(o, "o.note"),
                        "items": items,
                    }
                )
            ),
        ),
    )


def test_routes_quote_names_and_constants(spark):
    """Keyword, spaced and dotted attribute names (the dotted one in the
    nested output too) and a constant with a quote and a backslash reach
    Spark as SQL and still match the reference interpreter on both
    routes."""
    cat = Catalog()
    env = {}
    for name, rows in ODD_ROWS.items():
        fields = ODD_TYPES[name].elem.fields
        ddl = ", ".join(f"`{f}` {_DDL[t]}" for f, t in fields)
        cat.add(name, spark.createDataFrame(rows, ddl))
        env[name] = [dict(zip([f for f, _ in fields], r)) for r in rows]
    e = _odd_query()
    expected = I.evaluate(e, env)
    assert sorted(t["order"] for t in expected) == [1, 3]  # 2 filtered out
    assert any(t["items"] == [] for t in expected)
    check(api.standard_route(e, ODD_TYPES, cat), expected, "standard")
    run = api.shredded_route(e, ODD_TYPES, "odd", cat)
    check(api.unshred_result(run), expected, "shredded")
