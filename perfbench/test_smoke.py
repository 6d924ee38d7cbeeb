"""Tiny-scale smoke test of the benchmark itself (SF 0.002, one warm pass).

    PYTHONPATH=src python3 -m pytest perfbench/test_smoke.py -q

Checks that every declared metric is emitted with its unit, that a
wrong output is caught, and that skipping the release between
repetitions trips the cache-hit check.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pyspark.sql import functions as F  # noqa: E402

from perfbench import bench, sparkenv  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from repro.core import api  # noqa: E402

TINY_SF = 0.002


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], sf=TINY_SF)


@pytest.fixture(scope="module")
def spark(tmp_path_factory):
    s = sparkenv.start_session(tmp_path_factory.mktemp("perfbench"))
    yield s
    sparkenv.stop_session(s)


def run(spark, name="tpch_skew", trace=False, release=True):
    result, details, _ = bench.run_benchmark(
        spark, tiny(name), seed=3, seconds=0, trace=trace,
        release=release, min_warm=1,
    )
    return result, details


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(spark, trace):
    result, details = run(spark, "tpch_nested", trace=trace)
    assert result["correct"], details["failures"]
    assert result["attempted"] > 0 and result["failed"] == 0
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, m in result["metrics"].items():
        assert m["unit"] == expected[name]
        assert isinstance(m["value"], float | int)
    if not trace:
        for r in bench.ROUTES:
            assert result["metrics"][f"{r}.pass_rel"]["value"] > 0


def test_corrupted_output_is_caught(spark, monkeypatch):
    route = api.standard_route

    def corrupted(*args, **kwargs):
        df = route(*args, **kwargs)
        first = df.schema.fields[0]
        return df.withColumn(first.name, F.lit(None).cast(first.dataType))

    monkeypatch.setattr(api, "standard_route", corrupted)
    result, details = run(spark)
    assert not result["correct"]
    assert any(f["error"].startswith("wrong output") for f in details["failures"])


def test_skipping_release_trips_cache_hit_check(spark):
    result, details = run(spark, release=False)
    assert not result["correct"]
    assert any(f["error"].startswith("cache hit") for f in details["failures"])
