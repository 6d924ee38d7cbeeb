"""Experiment harness: timed strategy runs + table formatting.

Each figure of the paper's evaluation maps to one ``fig*``/``e*``
function here returning a list of :class:`Row` (strategy, parameters,
wall-clock seconds, and the shuffle bytes Spark wrote for the run).
``jobs/*.py`` print them as markdown tables; ``EXPERIMENTS.md``
records paper vs measured numbers.

Timing protocol mirrors the paper: inputs (including materialized
nested inputs and their shredded forms) are cached and materialized
*before* the clock starts; a strategy's time covers compilation,
execution and full materialization (noop-sink write) of its outputs.
Shuffle is read from Spark's status store after the clock stops, so
measuring it costs no Spark job.  Failures are recorded as ``FAIL``
rather than crashing the sweep (the paper reports such runs as
crashed/missing bars).
"""
from __future__ import annotations

import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

from pyspark.sql import DataFrame, SparkSession

from ..core import api
from ..core import nrc as N
from ..core import nrc_interp as I
from ..core.optimize import catalyst_opt_level
from ..core.unnest import compile_standard
from ..core.hierarchy import to_hierarchy
from ..spark_backend import dataset as DS
from ..spark_backend import rdd_backend as RB
from ..spark_backend import sparksql_competitor as SQL
from ..spark_backend.catalog import Catalog
from . import tpch_queries as TQ
from . import biomed_queries as BQ


@dataclass
class Row:
    figure: str
    query: str
    strategy: str
    param: str
    seconds: float
    ok: bool = True
    shuffle_mb: Optional[float] = None
    note: str = ""


def fmt_table(rows: list[Row]) -> str:
    """Markdown table for a list of result rows."""
    out = ["| figure | query | strategy | param | seconds | shuffle MB | note |",
           "|---|---|---|---|---|---|---|"]
    for r in rows:
        sec = f"{r.seconds:.2f}" if r.ok else "FAIL"
        sh = f"{r.shuffle_mb:.1f}" if r.shuffle_mb is not None else ""
        out.append(
            f"| {r.figure} | {r.query} | {r.strategy} | {r.param} "
            f"| {sec} | {sh} | {r.note} |"
        )
    return "\n".join(out)


# Per-run wall-clock budget.  Runs that exceed it are cancelled via
# Spark's job-group mechanism and recorded as FAIL — the local analogue
# of the paper's "crashed due to memory saturation" bars (a flattening
# plan that explodes at deep nesting would otherwise stall the sweep).
RUN_TIMEOUT_S = float(os.environ.get("REPRO_RUN_TIMEOUT", "120"))


def _timed(
    fn: Callable[[], object], spark: SparkSession
) -> tuple[float, bool, str, float]:
    """Run ``fn`` under a job group of its own; returns its seconds,
    whether it succeeded, a failure note and the shuffle MB its jobs
    wrote."""
    sc = spark.sparkContext
    t0 = time.time()
    group = f"timed-{t0}"
    sc.setJobGroup(group, "timed run", True)
    timer: Optional[threading.Timer] = None
    cancelled = threading.Event()
    if RUN_TIMEOUT_S > 0:

        def cancel():
            cancelled.set()
            sc.cancelJobGroup(group)

        timer = threading.Timer(RUN_TIMEOUT_S, cancel)
        timer.daemon = True
        timer.start()
    ok, note = True, ""
    try:
        fn()
    except Exception as ex:  # record as a crashed run, like the paper
        ok, note = False, "timeout" if cancelled.is_set() else type(ex).__name__
        if not cancelled.is_set():
            traceback.print_exc()
    finally:
        sec = time.time() - t0
        if timer is not None:
            timer.cancel()
        sc.setJobGroup("", "")
    return sec, ok, note, _shuffle_mb(spark, group)


def _shuffle_mb(spark: SparkSession, group: str) -> float:
    """Shuffle bytes written by the stages of ``group``'s jobs, in MB,
    from the status store (a stage reused by several jobs counts once).
    Only stages that ran tasks are read: a skipped stage wrote nothing,
    and a full store may already have dropped it."""
    jsc = spark.sparkContext._jsc.sc()
    jsc.listenerBus().waitUntilEmpty()
    tracker = spark.sparkContext.statusTracker()
    stages = {
        s
        for j in tracker.getJobIdsForGroup(group)
        for s in tracker.getJobInfo(j).stageIds
    }
    ran = [s for s in stages if (i := tracker.getStageInfo(s)) and i.numCompletedTasks]
    store = jsc.statusStore()
    return sum(store.lastStageAttempt(s).shuffleWriteBytes() for s in ran) / 1e6


def _release(cat: Catalog, keep: set[str]) -> None:
    """Drop and unpersist the tables a run registered beyond ``keep``, so
    that a later run with the same plans computes (and shuffles) its own
    instead of reading them from Spark's cache.  A frame that aliases a
    kept table stays cached."""
    kept = [cat.tables[n] for n in keep]
    for name in set(cat.tables) - keep:
        df = cat.tables.pop(name)
        if not any(df.sameSemantics(k) for k in kept):
            df.unpersist()


def _force(df: DataFrame) -> None:
    """Fully materialize a result, every column included.

    ``count()`` is NOT a faithful sink: Catalyst prunes columns the
    action does not need, silently skipping e.g. the collect_list that
    builds the nested output.  The noop data source computes all
    columns without writing anywhere — the standard Spark
    benchmarking sink.
    """
    df.write.format("noop").mode("overwrite").save()


# ---------------------------------------------------------------------------
# Strategy runners
# ---------------------------------------------------------------------------


def run_standard(
    spark: SparkSession,
    e: N.Expr,
    types: dict[str, N.Type],
    cat: Catalog,
    opt: str = "full",
    push_agg: bool = False,
    skew: bool = False,
) -> Callable[[], object]:
    def go():
        with catalyst_opt_level(spark, opt):
            df = api.standard_route(
                e, types, cat, opt=opt, push_agg=push_agg, skew=skew
            )
            _force(df)

    return go


def run_shred(
    e: N.Expr,
    types: dict[str, N.Type],
    cat: Catalog,
    qname: str,
    unshred: bool = False,
    skew: bool = False,
) -> Callable[[], object]:
    def go():
        run = api.shredded_route(e, types, qname, cat, skew=skew)
        _force(run.shredded.top)
        for d in run.shredded.dicts.values():
            _force(d)
        if unshred:
            _force(api.unshred_result(run))

    return go


def run_sparksql(
    spark: SparkSession, cat: Catalog, sql: str
) -> Callable[[], object]:
    def go():
        _force(SQL.run_sql(spark, cat, sql))

    return go


def run_rdd(e_compiled, cat: Catalog) -> Callable[[], object]:
    def go():
        RB.count(e_compiled.plan, cat)

    return go


# ---------------------------------------------------------------------------
# Shared setup
# ---------------------------------------------------------------------------


def tpch_catalog(
    spark: SparkSession, sf: float, skew: float = 0.0
) -> Catalog:
    cat = TQ.load_tpch(spark, sf=sf, skew=skew)
    for name, df in cat.tables.items():
        cat.tables[name] = df.cache()
        cat.tables[name].count()
    return cat


def materialize_nested_input(
    spark: SparkSession, cat: Catalog, level: int, wide: bool
) -> str:
    """Materialize + cache the flat-to-nested result and its shredded
    form (input preparation, outside the timed region)."""
    name = TQ.input_bag_name(level, wide)
    if name in cat.tables:
        return name
    c = compile_standard(
        TQ.hierarchy_for(TQ.flat_to_nested(level, wide)), opt="full"
    )
    df = DS.run(c.plan, cat).cache()
    df.count()
    cat.add(name, df)
    s = api.shred_df(df).cache()
    s.count_all()
    api.register_shredded(cat, name, s)
    return name


def tpch_types(level: int, wide: bool) -> dict[str, N.Type]:
    name = TQ.input_bag_name(level, wide)
    return {**TQ.BASE_TYPES, name: TQ.flat_to_nested_type(level, wide)}


# ---------------------------------------------------------------------------
# Figure 7 — TPC-H families × nesting levels × strategies
# ---------------------------------------------------------------------------

FIG7_STRATEGIES = ("sparksql", "standard", "shred", "unshred")


def fig7(
    spark: SparkSession,
    sf: float = 0.05,
    levels=(0, 1, 2, 3, 4),
    wides=(False, True),
    families=("f2n", "n2n", "n2f"),
    strategies=FIG7_STRATEGIES,
) -> list[Row]:
    cat = tpch_catalog(spark, sf)
    rows: list[Row] = []
    for wide in wides:
        wlabel = "wide" if wide else "narrow"
        for family in families:
            for level in levels:
                rows.extend(
                    _fig7_cell(
                        spark, cat, family, level, wide, strategies, wlabel
                    )
                )
    return rows


def _fig7_cell(
    spark, cat, family, level, wide, strategies, wlabel
) -> list[Row]:
    fig = f"fig7-{family}-{wlabel}"
    rows: list[Row] = []
    if family == "f2n":
        e = TQ.flat_to_nested(level, wide)
        types = dict(TQ.BASE_TYPES)
        view = None
    else:
        view = materialize_nested_input(spark, cat, level, wide)
        types = tpch_types(level, wide)
        e = (
            TQ.nested_to_nested(level, wide)
            if family == "n2n"
            else TQ.nested_to_flat(level, wide)
        )
    qname = f"{family}_{level}_{wlabel}"
    flat_out = family == "n2f" or (family != "f2n" and level == 0)

    def add(strategy: str, fn):
        before = set(cat.tables)
        sec, ok, note, sh = _timed(fn, spark)
        _release(cat, before)
        rows.append(
            Row(fig, f"L{level}", strategy, wlabel, sec, ok, sh, note)
        )

    for strategy in strategies:
        if strategy == "sparksql":
            if family == "f2n":
                sql = SQL.flat_to_nested_sql(level, wide)
            elif family == "n2n":
                sql = SQL.nested_to_nested_sql(level, wide, view)
            else:
                sql = SQL.nested_to_flat_sql(level, wide, view)
            add("sparksql", run_sparksql(spark, cat, sql))
        elif strategy == "standard":
            add("standard", run_standard(spark, e, types, cat, opt="full"))
        elif strategy == "shred":
            add("shred", run_shred(e, types, cat, f"{qname}_s"))
        elif strategy == "unshred" and not flat_out:
            add("unshred", run_shred(e, types, cat, f"{qname}_u", unshred=True))
    return rows


# ---------------------------------------------------------------------------
# Figure 8 / E.5 / E.6 — skew-handling sweep
# ---------------------------------------------------------------------------


def fig8(
    spark: SparkSession,
    sf: float = 0.05,
    skews=(0, 1, 2, 3, 4),
    push_agg: bool = True,
) -> list[Row]:
    """Narrow nested-to-nested, two levels of nesting, skewed data.

    Skew-unaware methods run with aggregation pushing, skew-aware
    without (the configuration of Fig. 8); ``push_agg=False``
    reproduces App. E.6 instead.
    """
    rows: list[Row] = []
    level, wide = 2, False
    for z in skews:
        cat = tpch_catalog(spark, sf, skew=float(z))
        view = materialize_nested_input(spark, cat, level, wide)
        types = tpch_types(level, wide)
        e = TQ.nested_to_nested(level, wide)
        strategies = [
            ("sparksql", None),
            ("standard", dict(push_agg=push_agg, skew=False)),
            ("standard_skew", dict(push_agg=False, skew=True)),
            ("shred", dict(push_agg=push_agg, skew=False)),
            ("shred_skew", dict(push_agg=False, skew=True)),
            ("shred_skew+u", dict(push_agg=False, skew=True)),
        ]
        if not push_agg:
            for _, cfg in strategies:
                if cfg:
                    cfg["push_agg"] = False
        for name, cfg in strategies:
            if name == "sparksql":
                fn = run_sparksql(
                    spark, cat, SQL.nested_to_nested_sql(level, wide, view)
                )
            elif name.startswith("standard"):
                fn = run_standard(
                    spark, e, types, cat, opt="full",
                    push_agg=cfg["push_agg"], skew=cfg["skew"],
                )
            else:
                fn = run_shred(
                    e, types, cat, f"fig8_{name}_{z}",
                    unshred=name.endswith("+u"), skew=cfg["skew"],
                )
            before = set(cat.tables)
            sec, ok, note, sh = _timed(fn, spark)
            _release(cat, before)
            rows.append(Row("fig8", "n2n-L2-narrow", name, f"skew={z}", sec, ok, sh, note))
    return rows


# ---------------------------------------------------------------------------
# Figure 9 — biomedical E2E pipeline
# ---------------------------------------------------------------------------


def fig9(
    spark: SparkSession,
    n_samples: int = 25,
    muts_per_sample: int = 40,
    strategies=("sparksql", "standard", "shred"),
) -> list[Row]:
    rows: list[Row] = []
    label = f"samples={n_samples}"
    # One catalog per strategy so each consumes its own intermediates,
    # like the paper's per-method pipeline runs.
    for strategy in strategies:
        cat = BQ.load_biomed(
            spark, n_samples=n_samples, muts_per_sample=muts_per_sample
        )
        for name, df in cat.tables.items():
            cat.tables[name] = df.cache()
            cat.tables[name].count()
        if strategy == "shred":
            for nested in ("Occurrences", "Network"):
                s = api.shred_df(cat.get(nested)).cache()
                s.count_all()
                api.register_shredded(cat, nested, s)
        types = dict(BQ.BASE_TYPES)
        failed = False
        for i, (name, step) in enumerate(zip(BQ.STEP_NAMES, BQ.STEPS)):
            if failed:
                # upstream step crashed: the pipeline cannot continue —
                # the paper reports the same (STANDARD/SparkSQL fail
                # during STEP₂ and produce no later bars)
                rows.append(
                    Row("fig9", f"step{i+1}", strategy, label, 0.0,
                        ok=False, note="upstream failed")
                )
                continue
            e = step()
            if strategy == "sparksql":
                sql = SQL.BIOMED_STEP_SQL[i]
                fn = run_sparksql(spark, cat, sql)
            elif strategy == "standard":
                fn = run_standard(spark, e, types, cat, opt="full")
            else:
                fn = run_shred(e, types, cat, name)
            sec, ok, note, sh = _timed(fn, spark)
            rows.append(
                Row("fig9", f"step{i+1}", strategy, label, sec, ok, sh, note)
            )
            if not ok:
                failed = True
                continue
            # materialize this step's output as the next step's input
            if strategy in ("sparksql", "standard"):
                if strategy == "sparksql":
                    df = SQL.run_sql(spark, cat, SQL.BIOMED_STEP_SQL[i])
                else:
                    df = api.standard_route(e, types, cat, opt="full")
                cat.add(name, df.cache())
                cat.tables[name].count()
            # (the shredded route registered its output during run_shred)
            types[name] = N.infer_type(e, types)
        # Each step's output feeds later steps: release them all at the end.
        _release(cat, set())
    return rows


# ---------------------------------------------------------------------------
# Figure 12 — clinical exploration queries
# ---------------------------------------------------------------------------


def fig12(
    spark: SparkSession,
    sizes=(("small", 10), ("large", 40)),
    strategies=("standard", "shred"),
) -> list[Row]:
    rows: list[Row] = []
    for label, n in sizes:
        cat = BQ.load_biomed(spark, n_samples=n, muts_per_sample=80)
        for name, df in cat.tables.items():
            cat.tables[name] = df.cache()
            cat.tables[name].count()
        s = api.shred_df(cat.get("Occurrences")).cache()
        s.count_all()
        api.register_shredded(cat, "Occurrences", s)
        for cname, builder in BQ.CLINICAL.items():
            e = builder()
            for strategy in strategies:
                if strategy == "standard":
                    fn = run_standard(spark, e, BQ.BASE_TYPES, cat, opt="full")
                else:
                    fn = run_shred(
                        e, BQ.BASE_TYPES, cat, f"{cname}_{label}", unshred=False
                    )
                before = set(cat.tables)
                sec, ok, note, sh = _timed(fn, spark)
                _release(cat, before)
                rows.append(Row("fig12", cname, strategy, label, sec, ok, sh, note))
        _release(cat, set())
    return rows


# ---------------------------------------------------------------------------
# App. D — succinct representation / sharing
# ---------------------------------------------------------------------------


def appd(spark: SparkSession, n_samples: int = 40) -> list[Row]:
    cat = BQ.load_biomed(spark, n_samples=n_samples)
    types = dict(BQ.BASE_TYPES)
    e = BQ.sharing_query()
    # standard: count nested candidate tuples in the joined output
    df = api.standard_route(e, types, cat, opt="full")
    from pyspark.sql import functions as F

    std_cands = df.select(
        F.explode("candidates").alias("c")
    ).count()
    # shredded: first-level dictionary is shared with the input
    api.register_shredded(cat, "VEP", api.shred_df(cat.get("VEP")))
    run = api.shredded_route(e, types, "appd", cat)
    shred_cands = run.shredded.dicts[("candidates",)].count()
    _release(cat, set())
    return [
        Row("appD", "maf⋈vep", "standard(flattened tuples)", "", 0.0,
            note=f"candidate tuples={std_cands}"),
        Row("appD", "maf⋈vep", "shredded(dict tuples)", "", 0.0,
            note=f"candidate tuples={shred_cands}"),
    ]


# ---------------------------------------------------------------------------
# App. E.1 — RDD vs Dataset backends
# ---------------------------------------------------------------------------


def e1(
    spark: SparkSession, sf: float = 0.02, levels=(0, 1, 2, 3)
) -> list[Row]:
    cat = tpch_catalog(spark, sf)
    rows: list[Row] = []
    for level in levels:
        for family in ("f2n", "n2n"):
            if family == "f2n":
                e = TQ.flat_to_nested(level, False)
                types = dict(TQ.BASE_TYPES)
            else:
                materialize_nested_input(spark, cat, level, False)
                types = tpch_types(level, False)
                e = TQ.nested_to_nested(level, False)
            c = compile_standard(
                TQ.hierarchy_for(e, types), opt="full",
                unique_keys=cat.unique_keys,
            )
            for backend, fn in (
                ("dataset", run_standard(spark, e, types, cat, opt="full")),
                ("rdd", run_rdd(c, cat)),
            ):
                sec, ok, note, sh = _timed(fn, spark)
                rows.append(
                    Row("e1", f"{family}-L{level}", backend, "narrow", sec, ok, sh, note)
                )
    return rows


# ---------------------------------------------------------------------------
# App. E.4 — optimization levels of the standard route
# ---------------------------------------------------------------------------


def e4(
    spark: SparkSession, sf: float = 0.05, levels=(0, 1, 2, 3)
) -> list[Row]:
    cat = tpch_catalog(spark, sf)
    rows: list[Row] = []
    for family in ("f2n", "n2n"):
        for level in levels:
            if family == "f2n":
                e = TQ.flat_to_nested(level, True)
                types = dict(TQ.BASE_TYPES)
            else:
                materialize_nested_input(spark, cat, level, True)
                types = tpch_types(level, True)
                e = TQ.nested_to_nested(level, True)
            for opt, push in (("none", False), ("proj", False), ("full", True)):
                fn = run_standard(
                    spark, e, types, cat, opt=opt, push_agg=push
                )
                sec, ok, note, sh = _timed(fn, spark)
                rows.append(
                    Row("e4", f"{family}-L{level}", f"standard({opt})",
                        "wide", sec, ok, sh, note)
                )
    return rows


# ---------------------------------------------------------------------------
# App. E.7 — skew-handling overhead on non-skewed data
# ---------------------------------------------------------------------------


def e7(spark: SparkSession, sf: float = 0.05) -> list[Row]:
    cat = tpch_catalog(spark, sf, skew=0.0)
    level, wide = 2, False
    materialize_nested_input(spark, cat, level, wide)
    types = tpch_types(level, wide)
    e = TQ.nested_to_nested(level, wide)
    rows: list[Row] = []
    for name, skew_flag, unshred in (
        ("standard", False, False),
        ("standard_skew", True, False),
        ("shred", False, False),
        ("shred_skew", True, False),
        ("shred+u", False, True),
        ("shred_skew+u", True, True),
    ):
        if name.startswith("standard"):
            fn = run_standard(spark, e, types, cat, opt="full", skew=skew_flag)
        else:
            fn = run_shred(
                e, types, cat, f"e7_{name}", unshred=unshred, skew=skew_flag
            )
        before = set(cat.tables)
        sec, ok, note, sh = _timed(fn, spark)
        _release(cat, before)
        rows.append(Row("e7", "n2n-L2-narrow", name, "skew=0", sec, ok, sh, note))
    return rows
