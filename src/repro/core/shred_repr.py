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
* :func:`unshred` — value unshredding as a compiled cogroup plan
  (§3.3) run by the Dataset backend: bottom-up, each dictionary is
  nested per label (``NestBag``) and left-outer-joined into its
  parent, missing labels cast to empty bags (``WithEmptyArray``).

Dictionaries carry a label-based partitioning guarantee (§4.6): each
dictionary DataFrame is repartitioned on its label column.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from . import plan_ops as P
from .sexpr import RawCol, quote
from ..spark_backend import dataset as DS
from ..spark_backend.catalog import Catalog


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


def shred_df(df: DataFrame) -> Shredded:
    """Value-shred a nested DataFrame into a :class:`Shredded`, each
    dictionary repartitioned on its label."""
    out = Shredded(top=df)
    _shred_into(df, (), out, is_top=True)
    out.dicts = {p: d.repartition(F.col("label")) for p, d in out.dicts.items()}
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
    """Rebuild the nested DataFrame from a shredded representation.
    The label is the Γ⊎ marker: a NULL-label row meets no parent row,
    so dropping it changes nothing."""
    frames = {(): s.top, **s.dicts}
    cat = Catalog({f"t{i}": df for i, df in enumerate(frames.values())})
    plans: dict[tuple[str, ...], P.Plan] = {
        p: P.ScanRaw(t) for p, t in zip(frames, cat.tables)
    }
    cols = {p: df.columns for p, df in frames.items()}
    for path in sorted(s.dicts, key=len, reverse=True):
        parent, attr = path[:-1], path[-1]
        values = [c for c in cols[path] if c != "label"]
        renamed = P.Project(
            plans[path],
            (("__l", RawCol("label")), *((c, RawCol(c)) for c in values)),
        )
        bags = P.NestBag(
            renamed, ("__l",), tuple((c, c) for c in values), "__bag", "__l"
        )
        joined = P.Join(
            plans[parent], bags, ((RawCol(attr), RawCol("__l")),), "left_outer"
        )
        plans[parent] = P.Project(
            P.WithEmptyArray(joined, "__bag"),
            tuple((c, RawCol("__bag" if c == attr else c)) for c in cols[parent]),
        )
    return DS.run(plans[()], cat)


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
