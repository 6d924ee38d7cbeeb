"""Benchmark entry point.

    python3 perfbench/run.py --workload tpch_nested --seed 1 --seconds 12 --trace 0

Runs one workload in one Spark driver process (``local[4]``), checks
every output against an independent reference, and prints one JSON
object as its last line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  Details of the run, and with ``--trace 1``
the recorded spans, are written under ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench, sparkenv
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    spark = sparkenv.start_session(OUT)
    try:
        config = {
            "git_sha": git_sha(ROOT),
            "seed": args.seed,
            "master": sparkenv.MASTER,
            "shuffle_partitions": sparkenv.SHUFFLE_PARTITIONS,
            "op_timeout_s": bench.OP_TIMEOUT_S,
            **sparkenv.versions(spark),
        }
        result, details, tracer = bench.run_benchmark(
            spark, WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace),
        )
    finally:
        sparkenv.stop_session(spark)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"config": config, "details": details, "result": result}, indent=1)
    )
    if args.trace:
        tracer.dump(OUT / f"{stem}-spans.json")
    print(json.dumps({"config": config, "details": details}))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
