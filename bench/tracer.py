"""Span tracing from outside the program: wrap public catsum callables where
their callers look them up, record one span per call, undo on exit.

A span is (name, start, end, parent span, item id).  Spans are kept in flat
arrays while the traced run goes on, so the memory per span is a few dozen
bytes, and they are written out when the run ends.  Self time of a span is
its duration minus the durations of its direct children; calls are nested
and single-threaded, so the children never overlap.
"""

from __future__ import annotations

import gzip
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class TopLevel:
    """Reductions entered from outside the engine: exact counts, the values
    they returned and their summed wall time."""

    calls: int = 0
    hits: int = 0
    cycles: int = 0
    seconds: float = 0.0
    results: list = field(default_factory=list)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._item = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self.forest_trees = 0

    def set_item(self, item_id: int):
        self._item[0] = item_id

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, fn, name: str):
        nid = self._name_id(name)
        name_of, parent, item, start, end = self.name_of, self.parent, self.item, self.start, self.end
        stack, current = self._stack, self._item

        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            item.append(current[0])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def _install(self, owner, attr: str, replacement):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attrs, name: str):
        """Replace each attribute of `owner` (a module or class) by a traced one."""
        for attr in attrs:
            self._install(owner, attr, self._span(vars(owner)[attr], name))

    def wrap_reduce(self, engine_cls, top: TopLevel, span: bool = True):
        """`Engine.reduce` with exact counts and wall time of the outermost
        call of each reduction, recorded in `top`; with `span`, every call,
        recursion included, is also a span.  A top-level call that adds no
        cycle was answered from the memo."""
        original = vars(engine_cls)["reduce"]
        inner = self._span(original, "engine.reduce") if span else original
        depth = [0]

        def reduce(engine, tree):
            if depth[0]:
                return inner(engine, tree)
            depth[0] = 1
            before = engine.cycles
            t0 = perf_counter()
            try:
                result = inner(engine, tree)
            finally:
                top.seconds += perf_counter() - t0
                depth[0] = 0
            top.calls += 1
            top.hits += engine.cycles == before
            top.cycles += engine.cycles - before
            top.results.append(result)
            return result

        self._install(engine_cls, "reduce", reduce)

    def wrap_forest(self, meanders):
        span = self._span(vars(meanders)["forest"], "meanders.forest")
        tracer = self

        def forest(meander):
            trees = span(meander)
            tracer.forest_trees += len(trees)
            return trees

        self._install(meanders, "forest", forest)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Per span name: call count and summed self time."""
        child = array("d", bytes(8 * len(self.start)))
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i in range(len(self.start)):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        return calls, self_s

    def write(self, path):
        """One line per span: item, span index, parent index, name, start and
        end in microseconds from the first span."""
        origin = self.start[0] if len(self.start) else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("item\tspan\tparent\tname\tstart_us\tend_us\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.item[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name_of[i]]}\t"
                    f"{(self.start[i] - origin) * 1e6:.1f}\t{(self.end[i] - origin) * 1e6:.1f}\n"
                )
