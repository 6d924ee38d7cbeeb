"""Optimization-level control (§3.3, App. E.4) and the projection
merge the Dataset backend runs on every plan.

The compiler applies plan-level optimizations itself (cogroup fusion,
aggregation pushing — ``core.unnest``).  Projection pushing is
different in our substrate: the paper's Scala code generator emits
typed-Dataset lambdas that Catalyst cannot see through, so *not*
pushing projections really carries every column; our DataFrame plans
are fully Catalyst-visible, and Catalyst prunes columns on its own.
To reproduce the "no pushed projections" configuration faithfully we
disable Catalyst's pruning/pushdown rules for the run (documented
substitution, DESIGN.md §2).
"""
from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

from pyspark.sql import SparkSession

from . import plan_ops as P
from .sexpr import (
    BinOp,
    Col,
    GetField,
    Lit,
    RawCol,
    SExpr,
    children,
    col_name,
    map_children,
)

_NOOPT_RULES = ",".join(
    [
        "org.apache.spark.sql.catalyst.optimizer.ColumnPruning",
        "org.apache.spark.sql.catalyst.optimizer.PushDownPredicates",
        "org.apache.spark.sql.catalyst.optimizer.PushProjectionThroughUnion",
        "org.apache.spark.sql.catalyst.optimizer.PushProjectionThroughLimit",
    ]
)

_KEY = "spark.sql.optimizer.excludedRules"


@contextmanager
def catalyst_opt_level(spark: SparkSession, opt: str):
    """Within the context, emulate the requested optimization level.

    ``opt="none"`` excludes Catalyst's column-pruning / predicate-
    pushdown rules; other levels run with Catalyst defaults (the
    plan-level differences are handled by the compiler).
    """
    if opt != "none":
        yield
        return
    try:
        prev = spark.conf.get(_KEY)
    except Exception:
        prev = None
    spark.conf.set(_KEY, _NOOPT_RULES)
    try:
        yield
    finally:
        if prev is None:
            spark.conf.unset(_KEY)
        else:
            spark.conf.set(_KEY, prev)


# --------------------------------------------------------------------------
# Projection merge
# --------------------------------------------------------------------------


def merge_projections(plan: P.Plan) -> P.Plan:
    """Merge each run of ``Project``/``Extend``/``Select`` into at most
    one ``Project`` or ``Extend`` over at most one ``Select``, so the
    Dataset backend builds the run with one ``selectExpr`` and one
    ``filter``.

    A ``Select`` moves below the projections under it, with their
    expressions substituted into its predicate; two ``Select``s become
    one conjunction.  A projection folds into the one under it only
    where Catalyst's ``CollapseProject`` would fold them too: every
    computed column of the lower one is read at most once by the upper
    one (passing it through counts), unless it is a plain column, a
    literal or a field of one.  So the optimized plan stays the same,
    and nothing is pruned: each node keeps every column it had.
    """
    if isinstance(plan, P.Join):
        plan = replace(
            plan,
            left=merge_projections(plan.left),
            right=merge_projections(plan.right),
        )
    elif not isinstance(plan, (P.Scan, P.ScanRaw)):
        plan = replace(plan, child=merge_projections(plan.child))
    return _merge(plan)


def _merge(plan: P.Plan) -> P.Plan:
    """``plan`` with its child's run merged into it; the child's own
    run is merged already."""
    if not isinstance(plan, (P.Select, P.Project, P.Extend)):
        return plan
    c = plan.child
    if isinstance(plan, P.Select):
        if isinstance(c, P.Select):
            return P.Select(c.child, BinOp("&&", c.pred, plan.pred))
        if isinstance(c, (P.Project, P.Extend)):
            pred = _subst(plan.pred, dict(c.cols))
            return replace(c, child=_merge(P.Select(c.child, pred)))
        return plan
    if not isinstance(c, (P.Project, P.Extend)):
        return plan
    defs = dict(c.cols)
    reads = Counter(n for _, sx in plan.cols for n in _reads(sx))
    if isinstance(plan, P.Extend):
        reads.update(n for n in defs if n not in dict(plan.cols))
    if any(reads[n] > 1 and not _cheap(sx) for n, sx in defs.items()):
        return plan
    cols = tuple((n, _subst(sx, defs)) for n, sx in plan.cols)
    if isinstance(plan, P.Project):
        return P.Project(c.child, cols)
    return replace(c, cols=tuple({**defs, **dict(cols)}.items()))


def _reads(e: SExpr) -> list[str]:
    """The column names ``e`` reads, once per occurrence."""
    name = col_name(e)
    if name is not None:
        return [name]
    return [n for x in children(e) for n in _reads(x)]


def _subst(e: SExpr, defs: dict[str, SExpr]) -> SExpr:
    """``e`` with each column defined in ``defs`` replaced by its
    definition."""
    name = col_name(e)
    if name is not None:
        return defs.get(name, e)
    return map_children(e, lambda x: _subst(x, defs))


def _cheap(e: SExpr) -> bool:
    """Catalyst's ``isCheap``: a column, a literal or a field of one."""
    if isinstance(e, GetField):
        return _cheap(e.expr)
    return isinstance(e, (Col, RawCol, Lit))
