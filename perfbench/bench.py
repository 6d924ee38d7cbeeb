"""One benchmark run: set up a workload, run passes, report metrics.

An *operation* is one query run through one route, from the NRC
expression until every output has gone through the noop sink (for the
shredded route: the top bag and every dictionary).  A *pass* runs each
route's query list once.  The first pass is the cold pass (first run
of each plan shape in the process) and is also the one whose outputs
are checked against the references; later passes are warm.

Between operations, outside the timed region, the runner reads Spark's
jobs and stages for the operation, records storage memory, and
releases what the operation registered and persisted, so a repetition
is never answered from the previous one's cache.  Each warm operation
must run as many stages and write as many shuffle bytes as its first
run; otherwise it counts as a failed cache hit.

After each warm operation, also outside the timed region, the runner
times a fixed reference query written in plain PySpark
(:func:`reference_job`).  The host's speed drifts by a third or
more between minutes, and the JVM keeps getting faster for minutes as
it compiles; the reference query drifts with both, so a route's mean
warm pass time divided by the mean reference time of the same passes
(``<route>.pass_rel``) repeats across runs where the raw pass time
(``<route>.pass_s``) does not.  A run has two or three warm passes, so
the mean, which uses every one of them, is taken rather than the
median.
"""
from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import api

from .sparkenv import MB, SparkStats, Window
from .tracing import Tracer
from .workloads import ROUTES, Inputs, Query, References, Route, Workload

OP_TIMEOUT_S = 60.0
SETUPS = 3
MIN_WARM_PASSES = 2
MIN_TRACED_PASSES = 1
RUN_DEADLINE_S = 140.0

LAYER_METRICS = {
    "compile.ms": "ms",
    "compile.plan_nodes": "count",
    "compile.assignments": "count",
    "build.self_ms": "ms",
    "build.calls": "count",
    "skew.sample_ms": "ms",
    "skew.sample_calls": "count",
    "skew.heavy_keys": "count",
    "force.self_ms": "ms",
    "exec.jobs": "count",
    "exec.stages": "count",
    "exec.tasks": "count",
    "exec.job_ms": "ms",
    "exec.executor_run_ms": "ms",
    "exec.shuffle_write_mb": "MB",
    "exec.shuffle_read_mb": "MB",
    "exec.spill_mb": "MB",
    "unshred.build_ms": "ms",
    "cache.persisted_mb": "MB",
    "cache.released": "count",
    "cache.leaked_rdds": "count",
}
ROUTE_METRICS = {**LAYER_METRICS, "cold_s": "s"}
WORKLOAD_LAYER_METRICS = {
    "setup.generate_s": "s",
    "setup.nested_input_s": "s",
    "setup.shred_input_s": "s",
    "cache.input_mb": "MB",
    "cache.peak_mb": "MB",
    "check.s": "s",
    "trace.overhead_frac": "ratio",
}
END_TO_END = {
    "setup_s": "s",
    "shuffle_mb": "MB",
    "ok_frac": "ratio",
    **{f"{r}.pass_rel": "ratio" for r in ROUTES},
}
PER_LAYER = {
    **{f"{r}.{m}": u for r in ROUTES for m, u in ROUTE_METRICS.items()},
    **{f"{r}.pass_s": "s" for r in ROUTES},
    "reference.s": "s",
    **WORKLOAD_LAYER_METRICS,
}


def reference_job(spark: SparkSession) -> None:
    """The reference query: it uses nothing of the program and no
    input of the workload, so neither a change to the program nor the
    seed moves it.  A shuffled join, then two levels of grouping into
    nested lists, written to the noop sink: py4j calls, planning, code
    generation and shuffles, as the routes take."""
    items = (
        spark.range(0, 20000, numPartitions=4)
        .withColumn("k", F.col("id") % 500)
        .withColumn("v", F.col("id") * 0.5)
    )
    keys = (
        spark.range(0, 500, numPartitions=4)
        .withColumnRenamed("id", "k2")
        .withColumn("name", F.concat(F.lit("n"), F.col("k2").cast("string")))
    )
    inner = (
        items.join(keys, items.k == keys.k2)
        .groupBy("k", "name")
        .agg(F.sum("v").alias("s"), F.collect_list(F.struct("id", "v")).alias("items"))
    )
    outer = inner.groupBy((F.col("k") % 10).alias("g")).agg(
        F.collect_list(F.struct("name", "s", "items")).alias("groups")
    )
    outer.write.format("noop").mode("overwrite").save()


@dataclass
class Op:
    """What one operation did and cost."""

    op: int
    pass_no: int
    route: str
    query: str
    traced: bool
    seconds: float
    error: str = ""
    layers: dict[str, float] = field(default_factory=dict)
    storage_mb: float = 0.0


@dataclass
class Pass:
    """Seconds per route in one pass, and the reference query's times."""

    traced: bool
    times: dict[str, float] = field(default_factory=dict)
    reference: list[float] = field(default_factory=list)


class Runner:
    """Runs passes of a workload over one set of inputs."""

    def __init__(
        self,
        spark: SparkSession,
        stats: SparkStats,
        workload: Workload,
        inputs: Inputs,
        refs: References,
        tracer: Tracer,
        release: bool = True,
    ):
        self.spark = spark
        self.sc = spark.sparkContext
        self.stats = stats
        self.workload = workload
        self.catalog = inputs.catalog
        self.queries = refs.queries
        self.refs = refs
        self.tracer = tracer
        self.release = release
        self.inputs = list(inputs.catalog.tables.values())
        self.base_rdds = stats.persistent_rdds()
        self.ops: list[Op] = []
        self.check_s = 0.0
        self._first: dict[tuple[str, str], tuple[int, int]] = {}

    # -- one operation -------------------------------------------------

    def _force(self, df: DataFrame) -> None:
        with self.tracer.span("force"):
            df.write.format("noop").mode("overwrite").save()

    def _execute(self, route: Route, q: Query):
        """The timed work of an operation; returns what to check."""
        if not route.shredded:
            df = api.standard_route(
                q.expr, q.types, self.catalog, opt="full",
                push_agg=route.push_agg, skew=route.skew,
            )
            self._force(df)
            return df
        run = api.shredded_route(
            q.expr, q.types, f"{q.name}_{route.name}", self.catalog,
            skew=route.skew,
        )
        self._force(run.shredded.top)
        for d in run.shredded.dicts.values():
            self._force(d)
        if route.unshred:
            df = api.unshred_result(run)
            self._force(df)
            return df
        return run

    def _checked_frame(self, q: Query, out) -> DataFrame:
        if isinstance(out, DataFrame):
            return out
        return api.unshred_result(out) if q.nested else out.shredded.top

    def _release(self, names: set[str]) -> int:
        released = 0
        for name in sorted(names):
            df = self.catalog.tables.pop(name)
            # Unpersisting a frame that aliases an input would uncache
            # the input itself.
            if df.is_cached and not any(df.sameSemantics(i) for i in self.inputs):
                df.unpersist(blocking=True)
                released += 1
        return released

    def run_op(
        self, pass_no: int, route: Route, qname: str, check: bool, traced: bool
    ) -> Op:
        q = self.queries[qname]
        before = set(self.catalog.tables)
        storage_before = self.stats.storage_mb()
        op_id = len(self.ops)
        self.tracer.op = op_id
        group = f"perfbench-{op_id}"
        self.sc.setJobGroup(group, f"{route.name} {qname}", True)
        timed_out = threading.Event()

        def cancel() -> None:
            timed_out.set()
            self.sc.cancelJobGroup(group)

        timer = threading.Timer(OP_TIMEOUT_S, cancel)
        timer.start()
        out, error = None, ""
        t0 = time.perf_counter()
        try:
            with self.tracer.span("op"):
                out = self._execute(route, q)
        except Exception as ex:  # a failed operation is counted, not fatal
            error = "timeout" if timed_out.is_set() else _brief(ex)
        finally:
            seconds = time.perf_counter() - t0
            timer.cancel()
            timer.join()
            self.sc.setJobGroup("", "")
        window = self.stats.take()
        op = Op(op_id, pass_no, route.name, qname, traced, seconds, error)
        op.storage_mb = self.stats.storage_mb()
        op.layers = self._layers(op_id, window, traced)
        op.layers["cache.persisted_mb"] = max(0.0, op.storage_mb - storage_before)
        if not op.error:
            op.error = self._cache_hit(route.name, qname, window)
        if check and out is not None and not op.error:
            op.error = self._check(q, out)
        registered = set(self.catalog.tables) - before
        op.layers["cache.released"] = (
            self._release(registered) if self.release else 0
        )
        op.layers["cache.leaked_rdds"] = len(
            self.stats.persistent_rdds() - self.base_rdds
        )
        self.ops.append(op)
        return op

    def _cache_hit(self, route: str, query: str, w: Window) -> str:
        sig = (len(w.stages), w.shuffle_write_bytes)
        first = self._first.setdefault((route, query), sig)
        if sig == first:
            return ""
        return (
            f"cache hit: {sig[0]} stages / {sig[1]} shuffle bytes, "
            f"first run {first[0]} / {first[1]}"
        )

    def _check(self, q: Query, out) -> str:
        t0 = time.perf_counter()
        try:
            self.refs.check(q.name, self._checked_frame(q, out))
            return ""
        except Exception as ex:  # an output that cannot be read is wrong too
            return f"wrong output: {_brief(ex)}"
        finally:
            self.check_s += time.perf_counter() - t0
            self.stats.take()  # the check's own jobs belong to no operation

    def _layers(self, op_id: int, w: Window, traced: bool) -> dict[str, float]:
        m = {
            "exec.jobs": len(w.jobs),
            "exec.stages": len(w.stages),
            "exec.tasks": sum(s["tasks"] for s in w.stages),
            "exec.job_ms": sum((j["end"] - j["start"]) * 1000 for j in w.jobs),
            "exec.executor_run_ms": sum(s["run_ms"] for s in w.stages),
            "exec.shuffle_write_mb": w.shuffle_write_bytes / MB,
            "exec.shuffle_read_mb": sum(s["shuffle_read"] for s in w.stages) / MB,
            "exec.spill_mb": sum(s["spill"] for s in w.stages) / MB,
        }
        if not traced:
            return m
        spans = self.tracer.of_op(op_id)

        def named(n):
            return [s for s in spans if s.name == n]

        compiles = named("compile")
        m.update(
            {
                "compile.ms": sum(s.ms for s in compiles),
                "compile.plan_nodes": sum(s.data.get("plan_nodes", 0) for s in compiles),
                "compile.assignments": sum(s.data.get("assignments", 0) for s in compiles),
                "build.self_ms": self.tracer.self_ms(spans, "build"),
                "build.calls": len(named("build")),
                "skew.sample_ms": sum(s.ms for s in named("skew")),
                "skew.sample_calls": len(named("skew")),
                "skew.heavy_keys": sum(s.data.get("heavy_keys", 0) for s in named("skew")),
                "force.self_ms": sum(
                    s.ms - w.covered_ms(s.start, s.end) for s in named("force")
                ),
                "unshred.build_ms": sum(s.ms for s in named("unshred")),
            }
        )
        return m

    # -- passes --------------------------------------------------------

    def reference_s(self) -> float:
        """Seconds one run of the reference query takes."""
        t0 = time.perf_counter()
        reference_job(self.spark)
        seconds = time.perf_counter() - t0
        self.stats.take()  # its jobs belong to no operation
        return seconds

    def run_pass(
        self, pass_no: int, check: bool, traced: bool, reference: bool = True
    ) -> Pass:
        """Run every route's query list once; with ``reference``, time
        the reference query after each operation."""
        p = Pass(traced)
        for route in self.workload.routes:
            p.times[route.name] = 0.0
            for q in route.queries:
                p.times[route.name] += self.run_op(
                    pass_no, route, q, check, traced
                ).seconds
                if reference:
                    p.reference.append(self.reference_s())
        return p


def _brief(ex: Exception) -> str:
    lines = str(ex).strip().splitlines()
    return f"{type(ex).__name__}: {lines[0] if lines else ''}"[:240]


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def tail_percentile(xs: list[float]) -> Optional[tuple[int, float]]:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(xs)
    if n < 20:
        return None
    p = int(100 * (1 - 10 / n))
    return p, statistics.quantiles(xs, n=100)[p - 1]


def run_benchmark(
    spark: SparkSession,
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    release: bool = True,
    min_warm: int = MIN_WARM_PASSES,
) -> tuple[dict, dict, Tracer]:
    """Run one workload; returns (result, details, tracer)."""
    started = time.perf_counter()
    stats = SparkStats(spark)
    setups: list[Inputs] = []
    for _ in range(SETUPS):
        stats.drop_all(spark)
        setups.append(workload.setup(spark, seed))
    inputs = setups[-1]
    stats.take()
    input_cache_mb = stats.storage_mb()
    t0 = time.perf_counter()
    refs = References(workload, inputs)
    stats.take()
    tracer = Tracer()
    runner = Runner(spark, stats, workload, inputs, refs, tracer, release)
    runner.check_s = time.perf_counter() - t0

    cold = runner.run_pass(0, check=True, traced=False, reference=False)
    runner.reference_s()  # its first, cold run is not a sample
    warm: list[Pass] = []
    warm_start = time.perf_counter()
    min_passes = max(min_warm, 2 * MIN_TRACED_PASSES + 1 if trace else 0)
    while True:
        elapsed = time.perf_counter() - warm_start
        n = len(warm)
        if n >= min_passes:
            per_pass = elapsed / n
            if elapsed + per_pass > seconds:
                break
        if n and time.perf_counter() - started > RUN_DEADLINE_S:
            break
        if trace and n % 2 == 1:
            with tracer.active():
                warm.append(runner.run_pass(n + 1, check=False, traced=True))
        else:
            warm.append(runner.run_pass(n + 1, check=False, traced=False))

    ops = runner.ops
    failed = [o for o in ops if o.error]
    untraced = [p for p in warm if not p.traced]
    routes = [r.name for r in workload.routes]
    if trace:
        metrics = _per_layer(runner, setups, cold, warm)
        for r in routes:
            metrics[f"{r}.pass_s"] = _median([p.times[r] for p in untraced])
        metrics["reference.s"] = _median([x for p in untraced for x in p.reference])
        metrics["cache.input_mb"] = input_cache_mb
        metrics["cache.peak_mb"] = max(o.storage_mb for o in ops)
        units = PER_LAYER
    else:
        warm_ops = [o for o in ops if o.pass_no > 0]
        shuffle = [
            sum(o.layers["exec.shuffle_write_mb"] for o in warm_ops if o.pass_no == p)
            for p in range(1, len(warm) + 1)
        ]
        metrics = {
            "setup_s": _median([s.seconds for s in setups]),
            "shuffle_mb": _median(shuffle),
            "ok_frac": (len(ops) - len(failed)) / len(ops),
        }
        reference_s = statistics.mean(x for p in untraced for x in p.reference)
        for r in routes:
            metrics[f"{r}.pass_rel"] = (
                statistics.mean(p.times[r] for p in untraced) / reference_s
            )
        units = END_TO_END
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            k: {"value": metrics[k], "unit": u} for k, u in units.items()
        },
    }
    details = {
        "workload": workload.name,
        "seed": seed,
        "sf": workload.sf,
        "setup_s": [s.seconds for s in setups],
        "warm_passes": len(warm),
        "traced_passes": sum(1 for p in warm if p.traced),
        "passes": [
            {**p.times, "reference_s": p.reference}
            for p in [cold] + warm
        ],
        "pass_s": {
            r: {
                "samples": len(untraced),
                "median": _median([p.times[r] for p in untraced]),
                "tail": tail_percentile([p.times[r] for p in untraced]),
            }
            for r in routes
        },
        "failures": [
            {"route": o.route, "query": o.query, "pass": o.pass_no, "error": o.error}
            for o in failed
        ],
        "run_s": time.perf_counter() - started,
    }
    return result, details, tracer


def _per_layer(
    runner: Runner,
    setups: list[Inputs],
    cold: Pass,
    warm: list[Pass],
) -> dict[str, float]:
    """Per-route layer figures: per-operation mean within a traced
    pass, median over traced passes."""
    m: dict[str, float] = {}
    traced_ops = [o for o in runner.ops if o.traced]
    for r in ROUTES:
        ops = [o for o in traced_ops if o.route == r]
        passes = sorted({o.pass_no for o in ops})
        for name in LAYER_METRICS:
            per_pass = []
            for p in passes:
                vals = [o.layers.get(name, 0.0) for o in ops if o.pass_no == p]
                per_pass.append(sum(vals) / len(vals))
            m[f"{r}.{name}"] = _median(per_pass)
        m[f"{r}.cold_s"] = cold.times[r]
    for k in ("generate_s", "nested_input_s", "shred_input_s"):
        m[f"setup.{k}"] = _median([s.timings[k] for s in setups])
    m["check.s"] = runner.check_s
    traced = _median([sum(p.times.values()) for p in warm if p.traced])
    untraced = _median([sum(p.times.values()) for p in warm if not p.traced])
    m["trace.overhead_frac"] = traced / untraced - 1.0 if untraced else 0.0
    return m
