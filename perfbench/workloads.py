"""The benchmark's workloads: inputs made from a seed, query lists per
route, and the independent references their outputs are checked with.

The expected output of a nested query comes from the NRC reference
interpreter (``repro.core.nrc_interp``), that of a flat query from
DuckDB over the same base tables; both are computed once per run.
Outputs are compared as multisets of canonical rows (bags sorted, reals
rounded to 4 decimals), so row and bag order do not matter.

* ``tpch_nested`` — uniform TPC-H-lite, wide, nesting level 2: one
  query of Fig. 7 per route.  Standard runs flat-to-nested (from the
  cached flat inputs, not from the materialised nested input), shred
  runs nested-to-flat (the case where shredding loses), unshred runs
  nested-to-nested shredded and unshreds its output, and the two
  skew-aware routes run nested-to-nested on uniform data (the skew
  handling overhead of App. E.7).  At SF 0.002 some partitions of the
  shredded dictionaries hold 20–40 sampled rows, where one occurrence
  makes a key heavy, so whether shred_skew splits a join (21 or 24
  stages) depended on the seed; from SF 0.004 on its plan is the same
  for every seed.
* ``tpch_skew`` — Zipf-skewed TPC-H-lite (z = 4), narrow
  nested-to-nested at level 2: the Fig. 8 cell, with aggregation
  pushing on for the skew-unaware standard route and off for the
  skew-aware ones.  Heavy keys exist, so sampling and split joins work.
"""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import duckdb
from pyspark.sql import DataFrame, SparkSession

from repro.bench import tpch_queries as TQ
from repro.core import api
from repro.core import nrc as N
from repro.core import nrc_interp as I
from repro.core.unnest import compile_standard
from repro.spark_backend import dataset as DS
from repro.spark_backend.catalog import Catalog


@dataclass(frozen=True)
class Route:
    """One way of running a query, and the queries it runs in a pass."""

    name: str
    shredded: bool
    queries: tuple[str, ...]
    skew: bool = False
    push_agg: bool = False
    unshred: bool = False


@dataclass(frozen=True)
class Query:
    name: str
    expr: N.Expr
    types: dict
    out_type: N.BagT
    sql: Optional[str] = None  # DuckDB reference, for flat outputs

    @property
    def nested(self) -> bool:
        return any(isinstance(t, N.BagT) for _, t in self.out_type.elem.fields)


@dataclass
class Inputs:
    """One set-up's catalog and how long each part of it took."""

    catalog: Catalog
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(self.timings.values())


# Bottom-up TPC-H levels: (table, key to the level above, that level's
# key, narrow top attribute), as in the nested TPC-H benchmark.
_LEVELS = [
    ("Lineitem", "l_orderkey", "o_orderkey", None),
    ("Orders", "o_custkey", "c_custkey", ("odate", "o_orderdate")),
    ("Customer", "c_nationkey", "n_nationkey", ("cname", "c_name")),
    ("Nation", "n_regionkey", "r_regionkey", ("nname", "n_name")),
    ("Region", None, None, ("rname", "r_name")),
]


def nested_to_flat_sql(level: int, wide: bool) -> str:
    """SQL over the flat tables equal to ``TQ.nested_to_flat``."""
    top, _, _, narrow = _LEVELS[level]
    if wide:
        cols = [f"t{level}.{c}" for c in TQ.BASE_TYPES[top].elem.names]
    else:
        cols = [f"t{level}.{narrow[1]} AS {narrow[0]}"]
    joins = [f"{top} t{level}"]
    for i in range(level - 1, -1, -1):
        table, key, parent_key, _ = _LEVELS[i]
        joins.append(f"JOIN {table} t{i} ON t{i}.{key} = t{i + 1}.{parent_key}")
    joins.append("JOIN Part p ON t0.l_partkey = p.p_partkey")
    keys = [c.split(" AS ")[0] for c in cols] + ["p.p_name"]
    return (
        f"SELECT {', '.join(cols)}, p.p_name AS pname, "
        "SUM(t0.l_quantity * p.p_retailprice) AS total "
        f"FROM {' '.join(joins)} GROUP BY {', '.join(keys)}"
    )


@dataclass(frozen=True)
class Workload:
    name: str
    sf: float
    skew: float
    level: int
    wide: bool
    routes: tuple[Route, ...]

    @property
    def input_name(self) -> str:
        return TQ.input_bag_name(self.level, self.wide)

    def queries(self) -> dict[str, Query]:
        lvl, wide = self.level, self.wide
        nested_types = {
            **TQ.BASE_TYPES,
            self.input_name: TQ.flat_to_nested_type(lvl, wide),
        }
        exprs = {
            "f2n": (TQ.flat_to_nested(lvl, wide), dict(TQ.BASE_TYPES)),
            "n2n": (TQ.nested_to_nested(lvl, wide), nested_types),
            "n2f": (TQ.nested_to_flat(lvl, wide), nested_types),
        }
        used = {q for r in self.routes for q in r.queries}
        out = {}
        for name in sorted(used):
            e, types = exprs[name]
            t = N.infer_type(e, types)
            sql = nested_to_flat_sql(lvl, wide) if name == "n2f" else None
            out[name] = Query(name, e, types, t, sql)
        return out

    def setup(self, spark: SparkSession, seed: int) -> Inputs:
        """Generate and cache the inputs; materialise the nested input
        by value and its shredded form."""
        t0 = time.perf_counter()
        cat = TQ.load_tpch(spark, sf=self.sf, skew=self.skew, seed=seed)
        for name, df in cat.tables.items():
            cat.tables[name] = df.cache()
            cat.tables[name].count()
        t1 = time.perf_counter()
        c = compile_standard(
            TQ.hierarchy_for(TQ.flat_to_nested(self.level, self.wide)),
            opt="full",
        )
        # By value: a checkpointed frame is not the flat-to-nested
        # plan, so that query cannot be answered from this cache.
        nested = DS.run(c.plan, cat).localCheckpoint(eager=True)
        cat.add(self.input_name, nested)
        t2 = time.perf_counter()
        s = api.shred_df(nested).cache()
        s.count_all()
        api.register_shredded(cat, self.input_name, s)
        t3 = time.perf_counter()
        return Inputs(
            cat,
            {
                "generate_s": t1 - t0,
                "nested_input_s": t2 - t1,
                "shred_input_s": t3 - t2,
            },
        )


def canon(v):
    """Hashable, order-insensitive form of a nested value."""
    if isinstance(v, dict):
        return tuple(sorted((k, canon(x)) for k, x in v.items()))
    if isinstance(v, list):
        return tuple(sorted(canon(x) for x in v))
    if isinstance(v, float):
        # Sums taken in another order differ in the last bits.  The
        # generated reals are multiples of 0.01, far from a boundary
        # of this rounding.
        return round(v, 4)
    return v


def multiset(rows) -> Counter:
    return Counter(canon(r) for r in rows)


class References:
    """Expected outputs of one (workload, seed), computed once."""

    def __init__(self, workload: Workload, inputs: Inputs):
        cat = inputs.catalog
        tables = {name: cat.get(name).toPandas() for name in TQ.BASE_TYPES}
        env = {n: pdf.to_dict("records") for n, pdf in tables.items()}
        env[workload.input_name] = I.evaluate(
            TQ.flat_to_nested(workload.level, workload.wide), env
        )
        self.queries = workload.queries()
        self.expected: dict[str, Counter] = {}
        con = duckdb.connect()
        try:
            for name, pdf in tables.items():
                con.register(name, pdf)
            for q in self.queries.values():
                if q.sql is None:
                    rows = I.evaluate(q.expr, env)
                else:
                    rows = con.execute(q.sql).fetchdf().to_dict("records")
                self.expected[q.name] = multiset(rows)
        finally:
            con.close()

    def check(self, query: str, df: DataFrame) -> None:
        """Raise AssertionError unless ``df`` is the expected output."""
        got = multiset(r.asDict(recursive=True) for r in df.collect())
        want = self.expected[query]
        if got != want:
            raise AssertionError(
                f"{query}: {sum((got - want).values())} rows not in the "
                f"reference, {sum((want - got).values())} reference rows missing"
            )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tpch_nested",
            sf=0.004,
            skew=0.0,
            level=2,
            wide=True,
            routes=(
                Route("standard", False, ("f2n",)),
                Route("shred", True, ("n2f",)),
                Route("unshred", True, ("n2n",), unshred=True),
                Route("standard_skew", False, ("n2n",), skew=True),
                Route("shred_skew", True, ("n2n",), skew=True),
            ),
        ),
        Workload(
            "tpch_skew",
            sf=0.003,
            skew=4.0,
            level=2,
            wide=False,
            routes=(
                Route("standard", False, ("n2n",), push_agg=True),
                Route("shred", True, ("n2n",)),
                Route("unshred", True, ("n2n",), unshred=True),
                Route("standard_skew", False, ("n2n",), skew=True),
                Route("shred_skew", True, ("n2n",), skew=True),
            ),
        ),
    )
}

ROUTES = ("standard", "shred", "unshred", "standard_skew", "shred_skew")
