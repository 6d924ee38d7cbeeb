"""Benchmark of the NRC → Spark compiler routes (see ``perfbench/README.md``)."""
