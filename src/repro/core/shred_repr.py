"""Shredded data representation (§4) + value (un)shredding.

A nested bag is encoded as a flat top-level DataFrame whose bag-valued
attributes hold *labels*, plus one label-keyed flat DataFrame
(dictionary) per nesting path.  :class:`Shredded` bundles them;
``dicts`` is keyed by the attribute path, e.g. ``("corders",)`` and
``("corders", "oparts")`` for the paper's COP relation.

* :func:`shred_df` — value shredding of a nested DataFrame: each row
  gets a fresh label per bag attribute (``monotonically_increasing_id``
  over a locally-checkpointed frame, so labels are stable), inner bags
  are exploded into the dictionary of the next level, recursively.
* :func:`unshred` — value unshredding: bottom-up
  group-by-label + left-join (the cogroup pattern of §3.3), with
  missing labels coalesced to empty bags.

Dictionaries carry a label-based partitioning guarantee (§4.6): each
dictionary DataFrame is repartitioned on its label column.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from .sexpr import quote


@dataclass
class Shredded:
    """Top-level flat bag + dictionaries per nesting path."""

    top: DataFrame
    dicts: dict[tuple[str, ...], DataFrame] = field(default_factory=dict)

    def bag_attrs(self, path: tuple[str, ...] = ()) -> list[str]:
        """Bag-valued attribute names at ``path`` (from dict keys)."""
        return [
            p[-1]
            for p in self.dicts
            if len(p) == len(path) + 1 and p[: len(path)] == path
        ]

    def cache(self) -> "Shredded":
        self.top = self.top.cache()
        self.dicts = {p: d.cache() for p, d in self.dicts.items()}
        return self

    def count_all(self) -> dict[str, int]:
        """Materialize every component; returns tuple counts."""
        out = {"top": self.top.count()}
        for p, d in self.dicts.items():
            out["/".join(p)] = d.count()
        return out


def _bag_cols(df: DataFrame) -> list[str]:
    return [
        f.name
        for f in df.schema.fields
        if isinstance(f.dataType, T.ArrayType)
    ]


def shred_df(df: DataFrame, label_partition: bool = True) -> Shredded:
    """Value-shred a nested DataFrame into a :class:`Shredded`."""
    out = Shredded(top=df)
    _shred_into(df, (), out, is_top=True)
    if label_partition:
        out.dicts = {
            p: d.repartition(F.col("label")) for p, d in out.dicts.items()
        }
    return out


def _shred_into(
    df: DataFrame, path: tuple[str, ...], out: Shredded, is_top: bool
) -> None:
    bags = _bag_cols(df)
    if not bags:
        if is_top:
            out.top = df
        return
    # Stable labels: checkpoint the frame carrying the fresh ids.
    df = df.withColumn("__rid", F.monotonically_increasing_id())
    df = df.localCheckpoint(eager=True)
    flat = df.select(
        *[
            F.col("__rid").alias(c) if c in bags else F.col(quote(c))
            for c in df.columns
            if c != "__rid"
        ]
    )
    if is_top:
        out.top = flat
    else:
        out.dicts[path] = flat
    for a in bags:
        sub = df.select(
            F.col("__rid").alias("label"),
            F.explode(F.col(quote(a))).alias("__e"),
        )
        elem_fields = [
            f.name
            for f in df.schema[a].dataType.elementType.fields  # type: ignore[attr-defined]
        ]
        sub = sub.select(
            "label",
            *[F.col(f"__e.{quote(f)}").alias(f) for f in elem_fields],
        )
        child_path = path + (a,)
        out.dicts[child_path] = sub
        _shred_into(sub, child_path, out, is_top=False)


def unshred(s: Shredded) -> DataFrame:
    """Rebuild the nested DataFrame from a shredded representation."""
    # Materialize dictionaries bottom-up: longest paths first.
    nested: dict[tuple[str, ...], DataFrame] = dict(s.dicts)
    for path in sorted(s.dicts, key=len, reverse=True):
        d = nested[path]
        parent_path = path[:-1]
        attr = path[-1]
        # Group this dictionary's rows per label into an array column.
        value_cols = [quote(c) for c in d.columns if c != "label"]
        grouped = d.groupBy("label").agg(
            F.collect_list(F.struct(*value_cols)).alias("__bag")
        )
        parent = nested[parent_path] if parent_path else s.top
        joined = parent.join(
            grouped, parent[quote(attr)] == grouped["label"], "left_outer"
        )
        # The type's SQL form quotes field names; simpleString would not.
        dt = grouped._jdf.schema().apply("__bag").dataType().sql()
        rebuilt = joined.select(
            *[
                F.coalesce(F.col("__bag"), F.expr(f"cast(array() as {dt})"))
                .alias(attr)
                if c == attr
                else parent[quote(c)]
                for c in parent.columns
            ]
        )
        if parent_path:
            nested[parent_path] = rebuilt
        else:
            s = Shredded(top=rebuilt, dicts=nested)
    return s.top


def flattened_count(df: DataFrame) -> int:
    """Tuples in the fully-flattened representation (App. D comparison)."""
    bags = _bag_cols(df)
    if not bags:
        return df.count()
    a = bags[0]
    others = [c for c in df.columns if c != a]
    df2 = df.select(
        *map(quote, others), F.explode_outer(F.col(quote(a))).alias("__e")
    )
    elem = df2.schema["__e"].dataType
    if isinstance(elem, T.StructType):
        df2 = df2.select(
            *map(quote, others),
            *[
                F.col(f"__e.{quote(f.name)}").alias(f"{a}__{f.name}")
                for f in elem.fields
            ],
        )
    else:
        df2 = df2.select(*map(quote, others), F.col("__e").alias(a))
    return flattened_count(df2)
