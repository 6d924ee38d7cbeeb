"""Figure 9: biomedical E2E pipeline (Steps 1–5) per strategy.

    spark-submit jobs/fig9_biomed.py --samples 25 --samples 60
"""
import argparse

from _common import emit, get_spark

from repro.bench import harness


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, action="append", default=None)
    ap.add_argument("--muts", type=int, default=60,
                    help="mutations per sample (inner-collection size)")
    args = ap.parse_args()
    sizes = args.samples or [25, 60]
    spark = get_spark("fig9")
    rows = []
    for n in sizes:
        rows += harness.fig9(spark, n_samples=n, muts_per_sample=args.muts)
    emit(rows)


if __name__ == "__main__":
    main()
