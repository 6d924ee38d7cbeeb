"""Compiler façade (Fig. 2): NRC program → executable Spark routes.

Entry points:

* :func:`standard_route` — NRC → hierarchy → unnesting → plan →
  Dataset backend (optionally skew-aware, §5; optimization level and
  aggregation pushing per §3.3 / App. E.4).
* :func:`shredded_route` — NRC → hierarchy → materialized shredded
  assignments → per-assignment execution; returns the
  :class:`~repro.core.shred_repr.Shredded` output, which
  :func:`unshred_result` turns into the nested DataFrame.
* :func:`register_shredded` — make a shredded input available to
  subsequent shredded queries (pipeline composition: the shredded
  output of one step is directly the shredded input of the next —
  the paper's central motivation for sequential shredding).
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame

from . import nrc as N
from .hierarchy import to_hierarchy
from .shred_materialize import (
    ShreddedCompiled,
    compile_shredded,
    dict_table,
    shredded_input_paths,
    top_table,
)
from .shred_repr import Shredded, shred_df, unshred
from .unnest import compile_standard
from ..spark_backend import dataset as DS
from ..spark_backend.catalog import Catalog


def standard_route(
    e: N.Expr,
    types: dict[str, N.Type],
    catalog: Catalog,
    opt: str = "full",
    push_agg: bool = False,
    skew: bool = False,
) -> DataFrame:
    """Compile + execute an NRC query via the standard route."""
    q = to_hierarchy(e, types)
    c = compile_standard(
        q, opt=opt, push_agg=push_agg, unique_keys=catalog.unique_keys
    )
    return DS.run(c.plan, catalog, skew=skew)


def register_shredded(catalog: Catalog, name: str, s: Shredded) -> None:
    """Register a shredded bag's components under conventional names."""
    catalog.add(top_table(name), s.top)
    for p, d in s.dicts.items():
        catalog.add(dict_table(name, p), d)


@dataclass
class ShreddedRun:
    """Result of executing a shredded compilation."""

    compiled: ShreddedCompiled
    shredded: Shredded

    @property
    def flat(self) -> DataFrame:
        """The top-level bag (the whole result for flat outputs)."""
        return self.shredded.top


def shredded_route(
    e: N.Expr,
    types: dict[str, N.Type],
    qname: str,
    catalog: Catalog,
    skew: bool = False,
) -> ShreddedRun:
    """Compile + execute an NRC query via the shredded route.

    Nested inputs must already be registered shredded
    (:func:`register_shredded`); their dictionary paths are discovered
    from the catalog.  Each materialization assignment is executed in
    sequence, persisted and registered back into the catalog, so later
    assignments (and later pipeline steps) can reference it.  With
    ``skew``, the heavy keys every assignment samples at registered
    sources are taken up front, in one batch.
    """
    q = to_hierarchy(e, types)
    shredded_inputs = shredded_input_paths(catalog)
    compiled = compile_shredded(q, qname, shredded_inputs)
    source_keys = {}
    if skew:
        # One sampling job for the sources already registered; a table
        # made by an earlier assignment is sampled when it is scanned.
        made = {name for name, _ in compiled.assignments}
        source_keys = DS.sample_sources(
            [
                d
                for _, plan in compiled.assignments
                for d in DS.source_demands(plan, catalog)
                if d[0] not in made
            ],
            catalog,
        )
    for name, plan in compiled.assignments:
        df = DS.run(plan, catalog, skew=skew, source_keys=source_keys)
        catalog.add(name, df.persist())
    s = Shredded(
        top=catalog.get(compiled.top_name),
        dicts={
            p: catalog.get(n) for p, n in compiled.dict_names.items()
        },
    )
    return ShreddedRun(compiled=compiled, shredded=s)


def unshred_result(run: ShreddedRun) -> DataFrame:
    """Value-unshred a shredded query result into a nested DataFrame."""
    return unshred(run.shredded)


__all__ = [
    "standard_route",
    "shredded_route",
    "register_shredded",
    "unshred_result",
    "shred_df",
    "Shredded",
    "ShreddedRun",
]
