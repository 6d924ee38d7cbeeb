"""Skew-resilient processing (§5, Fig. 6).

* :func:`heavy_keys` — lightweight per-partition sampling: a key is
  *heavy* when at least ``threshold`` (default 2.5 %) of the sampled
  tuples of some partition carry it.  The threshold bounds the number
  of heavy keys (≤ 100/2.5 = 40 per partition's sample), which keeps
  broadcasting them cheap.  It takes a batch of (frame, key) requests
  and samples them all in one Spark job.
* :class:`SkewTriple` — (light bag, heavy bag, and the heavy keys it
  carries, one set per key: ``{key_id: heavy key values}``).
* :func:`skew_join` — light⋈light with the standard shuffle join;
  heavy⋈broadcast(heavy side of the smaller relation), so values of
  heavy keys in the big relation stay where they are.
* :func:`skew_bag_to_dict` — BagToDict: each light label goes to one
  partition, and no heavy label piles into one.  A scanned input is
  split and only its light part repartitioned, so heavy rows stay
  where they are.  A computed input is read once, by one exchange
  that hashes a light row on its label and a heavy row on all of its
  columns: splitting it would plan the computation once per half.

Both operators use the heavy keys their input carries for the key and
sample the input only when it carries none.  :func:`split` is exact
for any key set, and so is BagToDict's one-exchange partition key (a
label's rows all take the same branch), so where the keys were sampled
decides only which rows take the broadcast path or are spread, never
the result.

Nest operators merge the two components and run the standard
implementation, returning a triple with an empty heavy part
(Fig. 6, Γ row).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Optional, Union

from pyspark.sql import DataFrame, Row, Window
from pyspark.sql import functions as F

from .sexpr import Lit, MkStruct, SExpr, quote, to_sql

DEFAULT_THRESHOLD = 0.025
DEFAULT_SAMPLE_FRACTION = 0.1
MIN_SAMPLE_PER_PARTITION = 20

Key = Union[str, SExpr]  # a column name or an expression over columns


def _sql(key: Key) -> str:
    return quote(key) if isinstance(key, str) else to_sql(key)


def key_id(key: Key) -> str:
    """Where a triple carries a key's heavy keys: a column's name, or
    an expression's SQL form."""
    return key if isinstance(key, str) else to_sql(key)


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


def _literal(v) -> SExpr:
    """Literal of a key value; struct-valued keys come back as ``Row``s."""
    if isinstance(v, Row):
        return MkStruct(tuple((n, _literal(x)) for n, x in zip(v.__fields__, v)))
    return Lit(v)


def heavy_keys(
    requests: list[tuple[DataFrame, Key]],
    threshold: float = DEFAULT_THRESHOLD,
    sample_fraction: float = DEFAULT_SAMPLE_FRACTION,
) -> list[list]:
    """Heavy key values of ``frame[key]`` for each ``(frame, key)``
    request, via per-partition sampling; one key list per request.

    Mirrors the paper's procedure: sample each partition, mark a key
    heavy when its share of that partition's sample reaches the
    threshold.  Null keys are never heavy.  Requests whose keys share a
    data type run in one Spark job: each samples its own frame as a
    request of its own would, its partition id is tagged with the
    request's index (``pid * n + i``), and the union of the samples is
    shuffled once, on that tag, which already clusters both the
    per-key counts and the per-partition totals.  The keys (at most 40
    per partition) are de-duplicated on the driver.
    """
    by_type: dict[str, list[tuple[int, DataFrame, str]]] = {}
    for i, (df, key) in enumerate(requests):
        # A named key's type is in the frame's (cached) schema.
        k = _sql(key)
        f = df.schema[key] if isinstance(key, str) else df.selectExpr(k).schema[0]
        by_type.setdefault(f.dataType.simpleString(), []).append((i, df, k))
    found: list[list] = [[] for _ in requests]
    for batch in by_type.values():
        n = len(batch)
        sample = reduce(
            DataFrame.union,
            [
                df.selectExpr(
                    f"spark_partition_id() * {n} + {j} AS __pid", f"{k} AS __k"
                ).sample(fraction=sample_fraction, seed=7)
                for j, (_, df, k) in enumerate(batch)
            ],
        ).repartition("__pid")
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
            .select("__pid", "__k")
            .collect()
        )
        for r in rows:
            found[batch[r["__pid"] % n][0]].append(r["__k"])
    return [list(dict.fromkeys(keys)) for keys in found]


def _in_keys(k: str, keys: list) -> str:
    """SQL test that the key ``k`` (SQL) is one of ``keys`` (no NULLs)."""
    return f"({k} IN ({', '.join(to_sql(_literal(v)) for v in keys)}))"


def split(df: DataFrame, key: Key, keys: list) -> SkewTriple:
    """Split a bag into a skew-triple on a heavy-key set.

    Exact for any set: a row is heavy iff its key value is in the set.
    NULL keys are light, and a NULL in the set is ignored.
    """
    keys = [v for v in keys if v is not None]
    if not keys:
        return SkewTriple(df, None, {key_id(key): keys})
    k = _sql(key)
    heavy = _in_keys(k, keys)
    return SkewTriple(
        df.where(f"((NOT {heavy}) OR ({k} IS NULL))"),
        df.where(heavy),
        {key_id(key): keys},
    )


def skew_join(
    x: SkewTriple,
    y: DataFrame,
    x_key: Key,
    y_key: Key,
    cond,
    how: str,
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
        (hk,) = heavy_keys([(df, x_key)])
    x = split(df, x_key, hk)
    if x.heavy is None:
        return SkewTriple(df.join(y, cond, how), None, x.keys)
    yt = split(y, y_key, hk)
    return SkewTriple(
        x.light.join(yt.light, cond, how),
        x.heavy.join(F.broadcast(yt.heavy), cond, how),
        x.keys,
    )


def skew_bag_to_dict(
    df: DataFrame,
    label_col: str = "label",
    keys: Optional[list] = None,
    computed: bool = False,
) -> SkewTriple:
    """Skew-aware BagToDict (Fig. 6): each light label in one partition,
    no heavy label piled into one.

    Takes the heavy labels from ``keys`` when given, otherwise from a
    sample of ``df``; with none it is the plain ``repartition(label)``.
    A ``computed`` input (a join, a Γ, anything but a scan) is planned
    once, by one exchange on ``hash(label)`` for a light row and on the
    hash of every column for a heavy one.  Otherwise ``df`` is split
    and only its light part repartitioned: reading a cached scan twice
    costs a filtered cache scan, and heavy rows stay where they are.
    """
    if keys is None:
        (keys,) = heavy_keys([(df, label_col)])
    keys = [v for v in keys if v is not None]
    k = quote(label_col)
    if not (computed and keys):
        t = split(df, label_col, keys)
        return SkewTriple(t.light.repartition(k), t.heavy, t.keys)
    # A NULL label fails the IN test, so it is light, as in split.
    every = ", ".join(map(quote, df.columns))
    part = f"CASE WHEN {_in_keys(k, keys)} THEN hash({every}) ELSE hash({k}) END"
    return SkewTriple(df.repartition(F.expr(part)), None, {label_col: keys})
