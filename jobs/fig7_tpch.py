"""Figure 7 (+ App. E.3: the shuffle MB column): nested TPC-H sweep.

Runtimes of SparkSQL / Standard / Shred / Unshred over the
flat-to-nested, nested-to-nested and nested-to-flat families at 0–4
levels of nesting, narrow and wide.

    spark-submit jobs/fig7_tpch.py --sf 0.05
"""
import argparse

from _common import emit, get_spark

from repro.bench import harness


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", type=float, default=0.05)
    ap.add_argument("--levels", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    ap.add_argument("--families", nargs="+", default=["f2n", "n2n", "n2f"])
    ap.add_argument("--wide-only", action="store_true")
    ap.add_argument("--narrow-only", action="store_true")
    args = ap.parse_args()
    wides = (False, True)
    if args.wide_only:
        wides = (True,)
    if args.narrow_only:
        wides = (False,)
    spark = get_spark("fig7")
    emit(
        harness.fig7(
            spark,
            sf=args.sf,
            levels=tuple(args.levels),
            wides=wides,
            families=tuple(args.families),
        )
    )


if __name__ == "__main__":
    main()
