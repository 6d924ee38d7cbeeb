"""Dataset-backend: interpret plan trees as PySpark DataFrame programs.

This is the code-generation stage of §3.2 (Fig. 10), realised as a
plan interpreter over the DataFrame API so every operator stays
visible to Catalyst (the paper's stated reason for choosing Datasets
over RDDs — operator metadata reaches the Spark optimizer).  Each
py4j call costs a round trip to the JVM, so the interpreter builds a
plan with few of them: :func:`run` first merges each run of
projections and selections
(:func:`~repro.core.optimize.merge_projections`), and every expression
goes to Spark as one SQL string (:func:`~repro.core.sexpr.to_sql`).

One interpreter, :func:`execute`, runs every plan as the skew-aware
route of §5 (Fig. 6): every operator accepts and returns a
:class:`~repro.core.skew.SkewTriple`, joins split on heavy keys,
``Repartition`` (BagToDict) keeps heavy labels spread (splitting a
scanned input, one exchange over a computed one), Γ operators merge
the components and run standard.  In skew mode a planning pass
(:func:`source_demands`) first finds the source columns to sample, so
one Spark job samples them all.  The standard route is the same
interpreter with every heavy-key set empty: it plans and samples
nothing, each split leaves all rows light, and each operator is the
plain DataFrame call.
"""
from __future__ import annotations

from dataclasses import replace
from functools import reduce
from typing import Optional

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from ..core import plan_ops as P
from ..core import skew as SK
from ..core.optimize import merge_projections
from ..core.sexpr import (
    BinOp,
    IsNotNull,
    MkStruct,
    RawCol,
    SExpr,
    cname,
    col_name,
    quote,
    to_sql,
)
from .catalog import Catalog

_HEAVY_ID_OFFSET = 1 << 61


def run(
    plan: P.Plan,
    catalog: Catalog,
    skew: bool = False,
    source_keys: Optional[SourceKeys] = None,
) -> DataFrame:
    """Execute a plan and merge its output's components
    (``source_keys``: heavy keys already sampled, see :func:`execute`)."""
    return execute(merge_projections(plan), catalog, skew, source_keys).union()


def _exprs(cols: tuple[tuple[str, SExpr], ...]) -> dict[str, str]:
    """Each output column of a projection as one SQL select item."""
    return {n: f"{to_sql(sx)} AS {quote(n)}" for n, sx in cols}


def _project(df: DataFrame, exprs: dict[str, str], extend: bool) -> DataFrame:
    """One ``selectExpr`` computing ``exprs``; with ``extend``, also
    keeping ``df``'s other columns, a replaced one in its place (as
    ``withColumns`` does)."""
    if not extend:
        return df.selectExpr(*exprs.values())
    have = df.columns
    if exprs.keys().isdisjoint(have):
        return df.selectExpr("*", *exprs.values())
    keep = {c: quote(c) for c in have}
    return df.selectExpr(*{**keep, **exprs}.values())


def _join_cond(plan: P.Join) -> Optional[Column]:
    if not plan.conds:
        return None
    eqs = [BinOp("==", l, r) for l, r in plan.conds]
    return F.expr(to_sql(reduce(lambda a, b: BinOp("&&", a, b), eqs)))


def _unnest(df: DataFrame, plan: P.Unnest) -> DataFrame:
    keep = [quote(c) for c in df.columns if c != plan.src_col]
    gen = "explode_outer" if plan.outer else "explode"
    df = df.selectExpr(*keep, f"{gen}({quote(plan.src_col)}) AS `__elem`")
    return df.selectExpr(
        *keep,
        *[
            f"`__elem`.{quote(f)} AS {quote(cname(plan.var, f))}"
            for f, _ in plan.elem_fields
        ],
    )


def _nest_bag(df: DataFrame, plan: P.NestBag) -> DataFrame:
    struct = MkStruct(tuple((n, RawCol(c)) for n, c in plan.struct_fields))
    bag = (
        f"collect_list(CASE WHEN {to_sql(IsNotNull(RawCol(plan.marker)))} "
        f"THEN {to_sql(struct)} END) AS {quote(plan.out)}"
    )
    return df.groupBy(*map(quote, plan.keys)).agg(F.expr(bag))


def _nest_sum(df: DataFrame, plan: P.NestSum) -> DataFrame:
    aggs = [F.expr(f"sum({to_sql(sx)}) AS {quote(n)}") for n, sx in plan.values]
    return df.groupBy(*map(quote, plan.keys)).agg(*aggs)


def _with_empty_array(df: DataFrame, col: str) -> DataFrame:
    # The type's SQL form quotes field names; simpleString would not.
    dt = df._jdf.schema().apply(col).dataType().sql()
    c = quote(col)
    return _project(df, {col: f"coalesce({c}, CAST(array() AS {dt})) AS {c}"}, True)


SourceKeys = dict[tuple[str, str], list]  # (table, column) -> heavy keys


def source_demands(plan: P.Plan, catalog: Catalog) -> list[tuple[str, str]]:
    """The ``(table, column)`` pairs :func:`execute` samples where
    the tables are scanned.  A pure walk: it reads schemas and
    ``catalog.unique_keys`` and starts no Spark job."""
    pairs = ((s.table, c) for s, c in _scan_demands(plan, catalog))
    return list(dict.fromkeys(pairs))


def sample_sources(
    demands: list[tuple[str, str]], catalog: Catalog
) -> SourceKeys:
    """Heavy keys of each ``(table, column)`` over its catalog frame, in
    one :func:`~repro.core.skew.heavy_keys` batch (none when empty)."""
    demands = list(dict.fromkeys(demands))
    if not demands:
        return {}
    keys = SK.heavy_keys([(catalog.get(t), c) for t, c in demands])
    return dict(zip(demands, keys))


def _scan_demands(plan: P.Plan, catalog: Catalog, demand=frozenset()):
    """Yield ``(scan, column)`` for each column of a scanned table that an
    operator above will split on (a join's left key, a BagToDict label).

    ``demand`` names output columns of ``plan`` that are split on above.
    A demanded column is traced down through operators that neither
    duplicate a row nor change its key value (``Select``, renames,
    ``Repartition``, ``Distinct``, Γ grouping keys, the left side of an
    N:1 lookup, see :func:`_is_lookup`); a key traced no further is
    sampled by the operator that splits on it.  A table not in the
    catalog yet (made by an earlier assignment of the same route) has
    no schema to read, so its demands show up once it is registered.
    """
    if isinstance(plan, (P.Scan, P.ScanRaw)):
        if demand and plan.table in catalog.tables:
            for c in catalog.get(plan.table).columns:
                if _scan_name(plan, c) in demand:
                    yield plan, c
        return
    if isinstance(plan, (P.Select, P.Distinct)):
        below = demand
    elif isinstance(plan, (P.Project, P.Extend)):
        # A renamed column keeps its heavy keys, a computed one has none;
        # Extend also keeps its child's other columns.
        extend = isinstance(plan, P.Extend)
        src = {n: col_name(sx) for n, sx in plan.cols}
        below = frozenset({src.get(n, n) for n in demand if n in src or extend})
    elif isinstance(plan, P.Join):
        below = frozenset()
        if plan.how != "cross" and plan.conds:
            if _is_lookup(plan, catalog):
                below = demand
            below |= {col_name(plan.conds[0][0])}
        yield from _scan_demands(plan.left, catalog, below - {None})
        yield from _scan_demands(plan.right, catalog)
        return
    elif isinstance(plan, (P.NestBag, P.NestSum)):
        below = demand & set(plan.keys)
    elif isinstance(plan, P.Repartition):
        below = demand | set(plan.cols)
    else:  # AddId, Unnest, WithEmptyArray
        below = frozenset()
    yield from _scan_demands(plan.child, catalog, below - {None})


def _scan_name(scan: P.Plan, column: str) -> str:
    """The name a scanned table's column takes in the scan's output."""
    return cname(scan.var, column) if isinstance(scan, P.Scan) else column


def execute(
    plan: P.Plan,
    catalog: Catalog,
    skew: bool = False,
    source_keys: Optional[SourceKeys] = None,
) -> SK.SkewTriple:
    """Execute a plan; returns its output as a skew-triple.

    Skew mode runs a planning pass first: the plan's
    :func:`source_demands` not already in ``source_keys`` are sampled in
    one batch over the cached catalog frames.  Each ``Scan``/``ScanRaw``
    then attaches the heavy keys of its demanded columns, and the triple
    carries them up under the column's output name.  Joins and BagToDict
    use the keys they receive and sample their own input only when
    they receive none.  Standard mode splits on no heavy keys, so it
    samples nothing and the heavy part stays empty.
    """
    at: dict[P.Plan, dict[str, list]] = {}
    if skew:
        scans = list(_scan_demands(plan, catalog))
        source_keys = dict(source_keys or {})
        source_keys.update(
            sample_sources(
                [(s.table, c) for s, c in scans if (s.table, c) not in source_keys],
                catalog,
            )
        )
        for s, c in scans:
            at.setdefault(s, {})[_scan_name(s, c)] = source_keys[(s.table, c)]

    def both(t: SK.SkewTriple, f) -> SK.SkewTriple:
        return replace(
            t, light=f(t.light), heavy=None if t.heavy is None else f(t.heavy)
        )

    def go(plan: P.Plan) -> SK.SkewTriple:
        if isinstance(plan, (P.Scan, P.ScanRaw)):
            df = catalog.get(plan.table)
            if isinstance(plan, P.Scan):
                df = df.toDF(*[cname(plan.var, c) for c in df.columns])
            return SK.SkewTriple(df, None, dict(at.get(plan, {})))
        if isinstance(plan, P.Select):
            pred = to_sql(plan.pred)
            return both(go(plan.child), lambda d: d.filter(pred))
        if isinstance(plan, (P.Project, P.Extend)):
            # A renamed column keeps its heavy keys, a computed one has
            # none; Extend also keeps its child's other columns.
            extend = isinstance(plan, P.Extend)
            src = {n: col_name(sx) for n, sx in plan.cols}
            t = go(plan.child)
            keys = {k: v for k, v in t.keys.items() if extend and k not in src}
            keys.update({n: t.keys[c] for n, c in src.items() if c in t.keys})
            exprs = _exprs(plan.cols)
            t = both(t, lambda d: _project(d, exprs, extend))
            return replace(t, keys=keys)
        if isinstance(plan, P.AddId):
            t = go(plan.child)
            light = t.light.withColumn(plan.out, F.monotonically_increasing_id())
            heavy = (
                None
                if t.heavy is None
                else t.heavy.withColumn(
                    plan.out,
                    F.monotonically_increasing_id() + F.lit(_HEAVY_ID_OFFSET),
                )
            )
            return replace(t, light=light, heavy=heavy)
        if isinstance(plan, P.Unnest):
            return both(go(plan.child), lambda d: _unnest(d, plan))
        if isinstance(plan, P.WithEmptyArray):
            return both(go(plan.child), lambda d: _with_empty_array(d, plan.col))
        if isinstance(plan, P.Join):
            if plan.how == "cross" or not plan.conds:
                df = go(plan.left).union()
                return SK.SkewTriple(df.crossJoin(go(plan.right).union()), None)
            lkey, rkey = (_key(k) for k in plan.conds[0])
            x = go(plan.left)
            if not skew:  # no heavy keys: the plain shuffle join
                x = replace(x, keys={SK.key_id(lkey): []})
            y = go(plan.right).union()
            t = SK.skew_join(x, y, lkey, rkey, _join_cond(plan), plan.how)
            # A lookup keeps each left row's values: the left keys stay valid.
            if _is_lookup(plan, catalog):
                return replace(t, keys={**x.keys, **t.keys})
            return t
        if isinstance(plan, (P.NestBag, P.NestSum)):
            # Γ merges components and follows the standard implementation;
            # its grouping keys keep their heavy keys.
            t = go(plan.child)
            nest = _nest_bag if isinstance(plan, P.NestBag) else _nest_sum
            keys = {k: v for k, v in t.keys.items() if k in plan.keys}
            return SK.SkewTriple(nest(t.union(), plan), None, keys)
        if isinstance(plan, P.Distinct):
            t = go(plan.child)
            return SK.SkewTriple(t.union().distinct(), None, t.keys)
        if isinstance(plan, P.Repartition):
            # Skew-aware BagToDict: a computed input is planned once.
            (label,) = plan.cols
            t = go(plan.child)
            hk = t.keys.get(label) if skew else []
            computed = not _scanned(plan.child)
            b = SK.skew_bag_to_dict(t.union(), label, hk, computed)
            return replace(b, keys={**t.keys, **b.keys})
        raise TypeError(f"unknown plan node {plan!r}")

    return go(plan)


def _scanned(plan: P.Plan) -> bool:
    """Whether a plan is a ``Scan``/``ScanRaw`` under projections and
    selections only, so reading it twice reads the cached table twice."""
    while isinstance(plan, (P.Project, P.Extend, P.Select)):
        plan = plan.child
    return isinstance(plan, (P.Scan, P.ScanRaw))


def _key(sx: SExpr) -> SK.Key:
    """A join key for ``skew_join``: a column name, or an expression."""
    name = col_name(sx)
    return sx if name is None else name


def _is_lookup(plan: P.Join, catalog: Catalog) -> bool:
    """Whether every left row meets at most one right row (N:1): the
    right side is a scanned table joined on one of its unique keys."""
    r = plan.right
    if isinstance(r, P.Scan):
        unique = {cname(r.var, k) for k in catalog.unique_keys.get(r.table, ())}
    elif isinstance(r, P.ScanRaw):
        unique = catalog.unique_keys.get(r.table, set())
    else:
        return False
    return any(col_name(k) in unique for _, k in plan.conds)
