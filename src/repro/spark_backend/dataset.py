"""Dataset-backend: interpret plan trees as PySpark DataFrame programs.

This is the code-generation stage of §3.2 (Fig. 10), realised as a
plan interpreter over the DataFrame API so every operator stays
visible to Catalyst (the paper's stated reason for choosing Datasets
over RDDs — operator metadata reaches the Spark optimizer).

Two execution modes:

* :func:`execute` — the standard implementation of every operator;
* :func:`execute_skew` — the skew-aware route (§5): every operator
  accepts and returns a :class:`~repro.core.skew.SkewTriple`; joins
  and ``Repartition`` (BagToDict) follow Fig. 6, Γ operators merge
  the components and run standard.

Both modes optionally account simulated shuffle via a
:class:`~repro.core.metrics.MetricsCollector`.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Optional

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from ..core import plan_ops as P
from ..core import skew as SK
from ..core.metrics import NO_METRICS, MetricsCollector
from ..core.sexpr import SExpr, to_spark
from .catalog import Catalog

_HEAVY_ID_OFFSET = 1 << 61


def run(
    plan: P.Plan,
    catalog: Catalog,
    skew: bool = False,
    metrics: MetricsCollector = NO_METRICS,
) -> DataFrame:
    """Execute a plan; in skew mode, returns the merged components."""
    if skew:
        return execute_skew(plan, catalog, metrics).union()
    return execute(plan, catalog, metrics)


# --------------------------------------------------------------------------
# Standard execution
# --------------------------------------------------------------------------


def execute(
    plan: P.Plan, catalog: Catalog, metrics: MetricsCollector = NO_METRICS
) -> DataFrame:
    if isinstance(plan, P.Scan):
        df = catalog.get(plan.table)
        return df.select(
            *[F.col(c).alias(f"{plan.var}__{c}") for c in df.columns]
        )
    if isinstance(plan, P.ScanRaw):
        return catalog.get(plan.table)
    if isinstance(plan, P.Select):
        return execute(plan.child, catalog, metrics).filter(
            to_spark(plan.pred)
        )
    if isinstance(plan, P.Project):
        df = execute(plan.child, catalog, metrics)
        return df.select(*[to_spark(sx).alias(n) for n, sx in plan.cols])
    if isinstance(plan, P.Extend):
        df = execute(plan.child, catalog, metrics)
        return df.withColumns({n: to_spark(sx) for n, sx in plan.cols})
    if isinstance(plan, P.AddId):
        df = execute(plan.child, catalog, metrics)
        return df.withColumn(plan.out, F.monotonically_increasing_id())
    if isinstance(plan, P.Join):
        l = execute(plan.left, catalog, metrics)
        r = execute(plan.right, catalog, metrics)
        return _join(l, r, plan, metrics)
    if isinstance(plan, P.Unnest):
        return _unnest(execute(plan.child, catalog, metrics), plan)
    if isinstance(plan, P.NestBag):
        df = execute(plan.child, catalog, metrics)
        metrics.record(f"nestbag:{plan.out}", df)
        return _nest_bag(df, plan)
    if isinstance(plan, P.NestSum):
        df = execute(plan.child, catalog, metrics)
        metrics.record(f"nestsum:{','.join(n for n, _ in plan.values)}", df)
        return _nest_sum(df, plan)
    if isinstance(plan, P.Distinct):
        df = execute(plan.child, catalog, metrics)
        metrics.record("distinct", df)
        return df.distinct()
    if isinstance(plan, P.WithEmptyArray):
        return _with_empty_array(execute(plan.child, catalog, metrics), plan.col)
    if isinstance(plan, P.Repartition):
        df = execute(plan.child, catalog, metrics)
        metrics.record(f"repartition:{','.join(plan.cols)}", df)
        return df.repartition(*[F.col(c) for c in plan.cols])
    raise TypeError(f"unknown plan node {plan!r}")


def _join_cond(plan: P.Join) -> Optional[Column]:
    cond: Optional[Column] = None
    for l, r in plan.conds:
        c = to_spark(l) == to_spark(r)
        cond = c if cond is None else (cond & c)
    return cond


def _join(
    l: DataFrame, r: DataFrame, plan: P.Join, metrics: MetricsCollector
) -> DataFrame:
    if plan.how == "cross":
        metrics.record("join:left", l)
        metrics.record("join:right(cross)", r, kind="broadcast")
        return l.crossJoin(r)
    cond = _join_cond(plan)
    if plan.broadcast_right:
        metrics.record("join:right", r, kind="broadcast")
        return l.join(F.broadcast(r), cond, plan.how)
    metrics.record("join:left", l)
    metrics.record("join:right", r)
    return l.join(r, cond, plan.how)


def _unnest(df: DataFrame, plan: P.Unnest) -> DataFrame:
    keep = [c for c in df.columns if c != plan.src_col]
    gen = (
        F.explode_outer(F.col(plan.src_col))
        if plan.outer
        else F.explode(F.col(plan.src_col))
    )
    df = df.select(*keep, gen.alias("__elem"))
    elem_cols = [
        F.col(f"__elem.{f}").alias(f"{plan.var}__{f}")
        for f, _ in plan.elem_fields
    ]
    return df.select(*keep, *elem_cols)


def _nest_bag(df: DataFrame, plan: P.NestBag) -> DataFrame:
    struct = F.when(
        F.col(plan.marker).isNotNull(),
        F.struct(*[F.col(c).alias(n) for n, c in plan.struct_fields]),
    )
    return df.groupBy(*plan.keys).agg(
        F.collect_list(struct).alias(plan.out)
    )


def _nest_sum(df: DataFrame, plan: P.NestSum) -> DataFrame:
    aggs = [F.sum(to_spark(sx)).alias(n) for n, sx in plan.values]
    return df.groupBy(*plan.keys).agg(*aggs)


def _with_empty_array(df: DataFrame, col: str) -> DataFrame:
    dt = df.schema[col].dataType.simpleString()
    return df.withColumn(
        col, F.coalesce(F.col(col), F.expr(f"cast(array() as {dt})"))
    )


# --------------------------------------------------------------------------
# Skew-aware execution (§5, Fig. 6)
# --------------------------------------------------------------------------


def execute_skew(
    plan: P.Plan, catalog: Catalog, metrics: MetricsCollector = NO_METRICS
) -> SK.SkewTriple:
    def both(t: SK.SkewTriple, f) -> SK.SkewTriple:
        return replace(
            t, light=f(t.light), heavy=None if t.heavy is None else f(t.heavy)
        )

    if isinstance(plan, (P.Scan, P.ScanRaw)):
        return SK.SkewTriple(execute(plan, catalog, metrics), None, None)
    if isinstance(plan, P.Select):
        t = execute_skew(plan.child, catalog, metrics)
        return both(t, lambda d: d.filter(to_spark(plan.pred)))
    if isinstance(plan, P.Project):
        t = execute_skew(plan.child, catalog, metrics)
        return both(
            t,
            lambda d: d.select(
                *[to_spark(sx).alias(n) for n, sx in plan.cols]
            ),
        )
    if isinstance(plan, P.Extend):
        t = execute_skew(plan.child, catalog, metrics)
        return both(
            t,
            lambda d: d.withColumns({n: to_spark(sx) for n, sx in plan.cols}),
        )
    if isinstance(plan, P.AddId):
        t = execute_skew(plan.child, catalog, metrics)
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
        t = execute_skew(plan.child, catalog, metrics)
        return both(t, lambda d: _unnest(d, plan))
    if isinstance(plan, P.WithEmptyArray):
        t = execute_skew(plan.child, catalog, metrics)
        return both(t, lambda d: _with_empty_array(d, plan.col))
    if isinstance(plan, P.Join):
        x = execute_skew(plan.left, catalog, metrics)
        y = execute_skew(plan.right, catalog, metrics).union()
        if plan.how == "cross" or not plan.conds:
            df = x.union()
            metrics.record("join:left", df)
            metrics.record("join:right(cross)", y, kind="broadcast")
            return SK.SkewTriple(df.crossJoin(y), None, None)
        lkey, rkey = plan.conds[0]
        return SK.skew_join(
            x, y, to_spark(lkey), to_spark(rkey), _join_cond(plan), plan.how,
            metrics,
        )
    if isinstance(plan, P.NestBag):
        # Γ merges components and follows the standard implementation.
        df = execute_skew(plan.child, catalog, metrics).union()
        metrics.record(f"nestbag:{plan.out}", df)
        return SK.SkewTriple(_nest_bag(df, plan), None, None)
    if isinstance(plan, P.NestSum):
        df = execute_skew(plan.child, catalog, metrics).union()
        metrics.record(f"nestsum:{','.join(n for n, _ in plan.values)}", df)
        return SK.SkewTriple(_nest_sum(df, plan), None, None)
    if isinstance(plan, P.Distinct):
        df = execute_skew(plan.child, catalog, metrics).union()
        metrics.record("distinct", df)
        return SK.SkewTriple(df.distinct(), None, None)
    if isinstance(plan, P.Repartition):
        # Skew-aware BagToDict: repartition light labels only.
        (label,) = plan.cols
        df = execute_skew(plan.child, catalog, metrics).union()
        t = SK.skew_bag_to_dict(df, label)
        metrics.record(f"repartition:{label}", t.light)
        return t
    raise TypeError(f"unknown plan node {plan!r}")
