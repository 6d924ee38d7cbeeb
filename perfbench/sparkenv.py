"""The pinned Spark session and readers of Spark's own metrics.

Everything Spark writes (shuffle files, checkpoints, JVM and Python
temporary files) goes under the benchmark's output directory, so a run
touches nothing outside the checkout it runs from.

:class:`SparkStats` reads the application status store, which Spark
fills from its listener bus even with the UI disabled: the jobs and
stages that ran since the last read, storage memory held by cached
blocks, and the set of persisted RDDs.
"""
from __future__ import annotations

import os
import shlex
import subprocess
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

MASTER = "local[4]"
SHUFFLE_PARTITIONS = 8
DRIVER_MEMORY = "2g"
MB = 1e6


def start_session(out_dir: Path):
    """Start the one SparkSession of a run, with the pinned settings."""
    tmp = out_dir / "tmp"
    local = out_dir / "spark-local"
    for d in (tmp, local):
        d.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {MASTER}",
            f"--driver-memory {DRIVER_MEMORY}",
            "--driver-java-options",
            # No hsperfdata file under the system's /tmp.
            shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"),
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "--conf " + shlex.quote(f"spark.local.dir={local}"),
            "--conf " + shlex.quote(f"spark.sql.warehouse.dir={out_dir / 'warehouse'}"),
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait until its JVM has exited."""
    sc = spark.sparkContext
    gateway = sc._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        # The JVM exits when its stdin (our end of the pipe) closes.
        if proc.stdin is not None:
            proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


def versions(spark) -> dict:
    jvm = spark.sparkContext._jvm
    import pyspark

    return {
        "pyspark": pyspark.__version__,
        "spark": spark.version,
        "java": jvm.java.lang.System.getProperty("java.version"),
        "nproc": os.cpu_count(),
    }


@dataclass
class Window:
    """Jobs and stages that ran between two reads of the status store."""

    jobs: list[dict] = field(default_factory=list)
    stages: list[dict] = field(default_factory=list)

    @property
    def shuffle_write_bytes(self) -> int:
        return sum(s["shuffle_write"] for s in self.stages)

    def covered_ms(self, start: float, end: float) -> float:
        """Wall time within [start, end] (epoch s) covered by jobs."""
        spans = sorted(
            (max(j["start"], start), min(j["end"], end))
            for j in self.jobs
            if j["end"] > start and j["start"] < end
        )
        total, cur_s, cur_e = 0.0, None, None
        for s, e in spans:
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    total += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            total += cur_e - cur_s
        return total * 1000.0


class SparkStats:
    """Incremental reader of Spark's application status store."""

    def __init__(self, spark):
        self._sc = spark.sparkContext
        self._ssc = self._sc._jsc.sc()
        self._store = self._ssc.statusStore()
        gw = self._sc._gateway
        self._no_quantiles = gw.new_array(gw.jvm.double, 0)
        self._last_stage = -1
        self._last_job = -1
        self.take()

    def take(self) -> Window:
        """Jobs and stages that ran since the previous call."""
        self._ssc.listenerBus().waitUntilEmpty()
        w = Window()
        # Both lists come newest first.
        seq = self._store.stageList(None, False, False, self._no_quantiles, None)
        top = self._last_stage
        for i in range(seq.size()):
            s = seq.apply(i)
            sid = s.stageId()
            if sid <= self._last_stage:
                break
            top = max(top, sid)
            if s.status().toString() in ("SKIPPED", "PENDING"):
                continue
            w.stages.append(
                {
                    "id": sid,
                    "tasks": s.numCompleteTasks(),
                    "run_ms": s.executorRunTime(),
                    "shuffle_write": s.shuffleWriteBytes(),
                    "shuffle_read": s.shuffleReadBytes(),
                    "spill": s.diskBytesSpilled(),
                }
            )
        self._last_stage = top
        seq = self._store.jobsList(None)
        top = self._last_job
        for i in range(seq.size()):
            j = seq.apply(i)
            jid = j.jobId()
            if jid <= self._last_job:
                break
            top = max(top, jid)
            sub, done = j.submissionTime(), j.completionTime()
            if sub.isEmpty() or done.isEmpty():
                continue
            w.jobs.append(
                {
                    "id": jid,
                    "start": sub.get().getTime() / 1000.0,
                    "end": done.get().getTime() / 1000.0,
                }
            )
        self._last_job = top
        return w

    def storage_mb(self) -> float:
        """Memory and disk held by cached and checkpointed blocks."""
        return sum(
            r.memSize() + r.diskSize() for r in self._ssc.getRDDStorageInfo()
        ) / MB

    def persistent_rdds(self) -> set[int]:
        return set(self._sc._jsc.getPersistentRDDs().keys())

    def drop_all(self, spark) -> None:
        """Uncache every DataFrame and unpersist every RDD."""
        spark.catalog.clearCache()
        for rdd in list(self._sc._jsc.getPersistentRDDs().values()):
            rdd.unpersist(True)
