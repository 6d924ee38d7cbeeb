"""Figure 8 (+ E.5: the shuffle MB column, E.6 with --no-push-agg): skew sweep.

Narrow nested-to-nested (two nesting levels) over increasingly skewed
data; skew-aware vs skew-unaware Standard/Shred, plus SparkSQL.

    spark-submit jobs/fig8_skew.py --sf 0.05 --skews 0 1 2 3 4
"""
import argparse

from _common import emit, get_spark

from repro.bench import harness


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", type=float, default=0.05)
    ap.add_argument("--skews", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    ap.add_argument("--no-push-agg", action="store_true",
                    help="App. E.6 variant (no aggregation pushing)")
    args = ap.parse_args()
    spark = get_spark("fig8")
    emit(
        harness.fig8(
            spark,
            sf=args.sf,
            skews=tuple(args.skews),
            push_agg=not args.no_push_agg,
        )
    )


if __name__ == "__main__":
    main()
