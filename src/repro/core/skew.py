"""Skew-resilient processing (§5, Fig. 6).

* :func:`heavy_keys` — lightweight per-partition sampling: a key is
  *heavy* when at least ``threshold`` (default 2.5 %) of the sampled
  tuples of some partition carry it.  The threshold bounds the number
  of heavy keys (≤ 100/2.5 = 40 per partition's sample), which keeps
  broadcasting them cheap.
* :class:`SkewTriple` — (light bag, heavy bag, and the heavy keys it
  carries, one set per key: ``{key_id: heavy key values}``).
* :func:`skew_join` — light⋈light with the standard shuffle join;
  heavy⋈broadcast(heavy side of the smaller relation), so values of
  heavy keys in the big relation stay where they are.
* :func:`skew_bag_to_dict` — BagToDict: repartition only the light
  labels; heavy labels keep their current distribution.

Both operators split on the heavy keys their input carries for the key
and sample the input only when it carries none.  :func:`split` is exact
for any key set, so where the keys were sampled decides only which
rows take the broadcast path, never the result.

Nest operators merge the two components and run the standard
implementation, returning a triple with an empty heavy part
(Fig. 6, Γ row).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from pyspark.sql import Column, DataFrame, Row, Window
from pyspark.sql import functions as F

from .metrics import NO_METRICS, MetricsCollector

DEFAULT_THRESHOLD = 0.025
DEFAULT_SAMPLE_FRACTION = 0.1
MIN_SAMPLE_PER_PARTITION = 20

Key = Union[str, Column]  # a column name or an expression over columns


def _col(key: Key) -> Column:
    return F.col(key) if isinstance(key, str) else key


def key_id(key: Key) -> str:
    """Where a triple carries a key's heavy keys: a column's name, or
    an expression's string form."""
    return key if isinstance(key, str) else str(key)


@dataclass
class SkewTriple:
    """Light component, heavy component (may be None=empty), and the
    heavy keys known for its keys (``{key_id: values}``; a key without
    an entry is unknown)."""

    light: DataFrame
    heavy: Optional[DataFrame]
    keys: dict[str, list] = field(default_factory=dict)

    def union(self) -> DataFrame:
        if self.heavy is None:
            return self.light
        return self.light.unionByName(self.heavy)


def _literal(v) -> Column:
    """Literal of a key value; struct-valued keys come back as ``Row``s."""
    if isinstance(v, Row):
        return F.struct(*[_literal(x).alias(n) for n, x in zip(v.__fields__, v)])
    return F.lit(v)


def heavy_keys(
    df: DataFrame,
    key: Key,
    threshold: float = DEFAULT_THRESHOLD,
    sample_fraction: float = DEFAULT_SAMPLE_FRACTION,
) -> list:
    """Heavy key values of ``df[key]`` via per-partition sampling.

    Mirrors the paper's procedure: sample each partition, mark a key
    heavy when its share of that partition's sample reaches the
    threshold.  Null keys are never heavy.  The sample is shuffled once,
    on the partition id, which already clusters both the per-key counts
    and the per-partition totals; the keys (at most 40 per partition)
    are de-duplicated on the driver.
    """
    sample = (
        df.select(F.spark_partition_id().alias("__pid"), _col(key).alias("__k"))
        .sample(fraction=sample_fraction, seed=7)
        .repartition("__pid")
    )
    counts = (
        sample.groupBy("__pid", "__k")
        .count()
        .withColumn(
            "__total", F.sum("count").over(Window.partitionBy("__pid"))
        )
    )
    rows = (
        counts.where(
            (F.col("count") >= threshold * F.col("__total"))
            & (F.col("__total") >= MIN_SAMPLE_PER_PARTITION)
            & F.col("__k").isNotNull()
        )
        .select("__k")
        .collect()
    )
    return list(dict.fromkeys(r["__k"] for r in rows))


def split(df: DataFrame, key: Key, keys: list) -> SkewTriple:
    """Split a bag into a skew-triple on a heavy-key set.

    Exact for any set: a row is heavy iff its key value is in the set.
    NULL keys are light, and a NULL in the set is ignored.
    """
    keys = [v for v in keys if v is not None]
    if not keys:
        return SkewTriple(df, None, {key_id(key): keys})
    k = _col(key)
    heavy = k.isin([_literal(v) for v in keys])
    return SkewTriple(
        df.where(~heavy | k.isNull()), df.where(heavy), {key_id(key): keys}
    )


def skew_join(
    x: SkewTriple,
    y: DataFrame,
    x_key: Key,
    y_key: Key,
    cond,
    how: str,
    metrics: MetricsCollector = NO_METRICS,
) -> SkewTriple:
    """Fig. 6 skew-aware join: X (triple) ⋈ Y on cond.

    Takes X's heavy keys for ``x_key`` from the triple, sampling X only
    when it carries none; splits X and Y on that key set, joins light
    parts with the standard shuffle join and heavy parts with a
    broadcast of Y's heavy part.  The result carries the key set under
    ``x_key``.
    """
    df = x.union()
    hk = x.keys.get(key_id(x_key))
    if hk is None:
        hk = heavy_keys(df, x_key)
    x = split(df, x_key, hk)
    if x.heavy is None:
        metrics.record("join:left", df)
        metrics.record("join:right", y)
        return SkewTriple(df.join(y, cond, how), None, x.keys)
    yt = split(y, y_key, hk)
    metrics.record("join:left(light)", x.light)
    metrics.record("join:right(light)", yt.light)
    metrics.record("join:right(heavy)", yt.heavy, kind="broadcast")
    return SkewTriple(
        x.light.join(yt.light, cond, how),
        x.heavy.join(F.broadcast(yt.heavy), cond, how),
        x.keys,
    )


def skew_bag_to_dict(
    df: DataFrame, label_col: str = "label", keys: Optional[list] = None
) -> SkewTriple:
    """Skew-aware BagToDict: repartition light labels only (Fig. 6).

    Splits on ``keys`` when given, otherwise on a sample of ``df``.
    """
    t = split(df, label_col, heavy_keys(df, label_col) if keys is None else keys)
    return SkewTriple(t.light.repartition(label_col), t.heavy, t.keys)
