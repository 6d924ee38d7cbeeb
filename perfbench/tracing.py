"""In-memory spans around the calls into each layer of the compiler.

The traced run wraps the public functions of the layer modules from
outside (no source edits): while a :class:`Tracer` is active, each call
records a span (name, start, end, parent span, operation id).  Spans
stay in memory and are written out when the run ends.  A span's self
time is its duration minus the durations of its child spans.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.core import api, skew
from repro.core import plan_ops as P
from repro.spark_backend import dataset


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    data: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


def plan_nodes(plan: P.Plan) -> int:
    """Number of operators in a plan tree."""
    n = 1
    for v in vars(plan).values():
        if isinstance(v, P.Plan):
            n += plan_nodes(v)
    return n


def _standard_info(c) -> dict:
    return {"plan_nodes": plan_nodes(c.plan), "assignments": 1}


def _shredded_info(c) -> dict:
    return {
        "plan_nodes": sum(plan_nodes(p) for _, p in c.assignments),
        "assignments": len(c.assignments),
    }


def _heavy_info(keys) -> dict:
    return {"heavy_keys": len(keys)}


# (module, attribute, span name, annotation of the result)
_LAYER_CALLS: list[tuple[object, str, str, Optional[Callable]]] = [
    (api, "to_hierarchy", "compile", None),
    (api, "compile_standard", "compile", _standard_info),
    (api, "compile_shredded", "compile", _shredded_info),
    (dataset, "run", "build", None),
    (skew, "heavy_keys", "skew", _heavy_info),
    (api, "unshred", "unshred", None),
]


class Tracer:
    """Span recorder; records only inside :meth:`active`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._on = False
        self.op: Optional[int] = None

    @contextlib.contextmanager
    def span(self, name: str):
        if not self._on:
            yield None
            return
        s = Span(name, time.time(), 0.0,
                 self._stack[-1] if self._stack else None, self.op)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.time()
            self._stack.pop()

    def _wrap(self, fn: Callable, name: str, info: Optional[Callable]):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                if s is not None and info is not None:
                    s.data.update(info(out))
                return out

        return traced

    @contextlib.contextmanager
    def active(self):
        """Wrap the layer functions and record spans until exit."""
        saved = []
        for mod, attr, name, info in _LAYER_CALLS:
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, info))
        self._on = True
        try:
            yield self
        finally:
            self._on = False
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def of_op(self, op: int) -> list[Span]:
        return [s for s in self.spans if s.op == op]

    def self_ms(self, spans: list[Span], name: str) -> float:
        """Summed self time of the named spans among ``spans``."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        child_ms: dict[int, float] = {}
        for s in spans:
            if s.parent is not None:
                child_ms[s.parent] = child_ms.get(s.parent, 0.0) + s.ms
        return sum(
            s.ms - child_ms.get(index[id(s)], 0.0)
            for s in spans
            if s.name == name
        )

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]))
