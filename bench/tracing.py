"""Span tracing around the calls the benchmark makes into each module.

``install`` replaces, for the duration of a ``with`` block, the names each
calling module looks up (``tiasl.search.bijection_match`` and so on) with
timing wrappers.  Nothing in the program changes: a wrapper only times the
call it forwards.

A span record is the work of one function under one parent span: calls made
from the same parent are folded into one record holding the number of calls,
the time spent inside them (``busy``), the first start and the last end.
That keeps memory bounded when a generator yields millions of items, while
every record still knows its name, parent and request.  A generator wrapper
times each ``next()``; whatever runs inside that ``next()`` is its child.
Each top-level call (one CLI request) opens a new root record and a new
request id.

A record's self time is its busy time minus the busy time of its children.
Calls are nested and single-threaded, so children never overlap each other.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = (
        "id", "name", "parent", "request", "start", "end", "busy", "calls",
        "items", "nodes",
    )

    def __init__(self, id: int, name: str, parent: int | None, request: int):
        self.id = id
        self.name = name
        self.parent = parent
        self.request = request
        self.start = None
        self.end = None
        self.busy = 0.0
        self.calls = 0
        self.items = 0  # generator yields, or bijection hits
        self.nodes = 0  # bijection backtracking nodes

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self._by_parent: dict[tuple[int, str], Span] = {}
        self.requests = 0

    def open(self, name: str) -> Span:
        stack = self.stack
        if stack:
            parent = stack[-1]
            key = (parent.id, name)
            span = self._by_parent.get(key)
            if span is None:
                span = self._new(name, parent.id, parent.request)
                self._by_parent[key] = span
        else:
            self.requests += 1
            span = self._new(name, None, self.requests)
        stack.append(span)
        return span

    def close(self, span: Span, t0: float) -> None:
        t1 = self.clock()
        if span.start is None:
            span.start = t0
        span.end = t1
        span.busy += t1 - t0
        span.calls += 1
        self.stack.pop()

    def _new(self, name: str, parent: int | None, request: int) -> Span:
        span = Span(len(self.spans), name, parent, request)
        self.spans.append(span)
        return span

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")

    # -- wrappers ---------------------------------------------------------

    def wrap_call(self, fn, name: str):
        clock = self.clock

        def traced(*args, **kwargs):
            span = self.open(name)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span, t0)

        return traced

    def wrap_gen(self, fn, name: str):
        clock = self.clock
        stack = self.stack

        def traced(*args, **kwargs):
            # Inlines open/close and reuses the record while the caller stays
            # the same: a generator may yield millions of items, and the
            # wrapper's own cost lands in the caller's self time.
            it = fn(*args, **kwargs)
            parent = span = None
            while True:
                top = stack[-1] if stack else None
                if span is None or top is not parent:
                    parent = top
                    span = self.open(name)
                else:
                    stack.append(span)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    t1 = clock()
                    if span.start is None:
                        span.start = t0
                    span.end = t1
                    span.busy += t1 - t0
                    span.calls += 1
                    stack.pop()
                span.items += 1
                yield item

        return traced

    def wrap_count(self, fn, name: str):
        """Counts calls on a record of their own without timing them: the
        wrapped function is too cheap for a clock read to mean anything."""

        def counted(*args, **kwargs):
            self.open(name).calls += 1
            self.stack.pop()
            return fn(*args, **kwargs)

        return counted

    def wrap_bijection(self, fn, name: str):
        """Like ``wrap_call``, and also counts hits and backtracking nodes
        (read from the ``_nodes`` counter the search threads through)."""
        clock = self.clock

        def traced(g, t, *, _nodes=None):
            nodes = _nodes if _nodes is not None else [0]
            before = nodes[0]
            span = self.open(name)
            t0 = clock()
            try:
                result = fn(g, t, _nodes=nodes)
            finally:
                self.close(span, t0)
            span.nodes += nodes[0] - before
            if result is not None:
                span.items += 1
            return result

        return traced


#: (module, attribute, span name, wrapper kind).  Span names are
#: ``<layer>.<what>``; the layer is the module that does the work.
TARGETS = (
    ("tiasl.cli", "main", "cli.main", "call"),
    ("tiasl.cli", "theorem_sweep", "search.theorem_sweep", "call"),
    ("tiasl.cli", "enumerate_topologies", "topology.enumerate", "gen"),
    ("tiasl.cli", "topologies_with_open_count", "topology.bounded", "gen"),
    ("tiasl.search", "find_tiasl", "search.find_tiasl", "call"),
    ("tiasl.search", "_search_one_ground", "search.ground_set", "call"),
    ("tiasl.search", "bijection_match", "search.bijection_match", "bijection"),
    ("tiasl.search", "_abstract_open_masks", "topology.gen", "gen"),
    ("tiasl.search", "translate_masks", "topology.translate_masks", "call"),
    ("tiasl.search", "_topology_from_masks", "topology.from_masks", "call"),
    ("tiasl.search", "verify_tiasl", "labeling.verify_tiasl", "call"),
    ("tiasl.search", "label_any_pendant", "constructive.label_any_pendant", "call"),
    ("tiasl.search", "connected_graph_catalog", "graph.catalog", "gen"),
    ("tiasl.search", "sumset_mask", "intset.sumset_mask", "count"),
    ("tiasl.constructive", "verify_tiasl", "labeling.verify_tiasl", "call"),
    ("tiasl.topology", "_abstract_open_masks", "topology.gen", "gen"),
    ("tiasl.topology", "translate_masks", "topology.translate_masks", "call"),
    ("tiasl.topology", "_topology_from_masks", "topology.from_masks", "call"),
    ("tiasl.topology", "_posets_with_up_set_count", "topology.poset_table", "call"),
)


@contextmanager
def install(tracer: Tracer):
    """Patch every name in ``TARGETS`` for the duration of the block, then restore."""
    saved = []
    wrappers = {
        "call": tracer.wrap_call,
        "gen": tracer.wrap_gen,
        "count": tracer.wrap_count,
        "bijection": tracer.wrap_bijection,
    }
    try:
        for module_name, attr, name, kind in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, wrappers[kind](original, name))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# -- per-layer arithmetic -------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each record: its busy time minus its children's."""
    own = {s.id: s.busy for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.busy
    return own


def layer_metrics(spans: list[Span], output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one pass, from the records the pass created."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}

    def total(attr, *names):
        return sum(getattr(s, attr) for s in spans if s.name in names)

    def self_of(pred):
        return sum(own[s.id] for s in spans if pred(s.name))

    search_families = sum(
        s.items
        for s in spans
        if s.name == "topology.gen"
        and s.parent in by_id
        and by_id[s.parent].name.startswith("search.")
    )
    bij_calls = total("calls", "search.bijection_match")
    return {
        "topology.gen_s": self_of(lambda n: n == "topology.gen"),
        "topology.families": total("items", "topology.gen"),
        "search.family_use_ratio": ratio(bij_calls, search_families),
        "topology.materialize_s": total(
            "busy", "topology.translate_masks", "topology.from_masks"
        ),
        "topology.materialized": total("calls", "topology.from_masks"),
        "topology.enumerate_s": self_of(lambda n: n == "topology.enumerate"),
        "topology.enumerated": total("items", "topology.enumerate"),
        "search.bijection_s": total("busy", "search.bijection_match"),
        "search.bijection_calls": bij_calls,
        "search.bijection_nodes": total("nodes", "search.bijection_match"),
        "search.bijection_hit_ratio": ratio(
            total("items", "search.bijection_match"), bij_calls
        ),
        "intset.sumset_calls": total("calls", "intset.sumset_mask"),
        "search.self_s": self_of(
            lambda n: n.startswith("search.") and n != "search.bijection_match"
        ),
        "search.ground_sets": total("calls", "search.ground_set"),
        "labeling.verify_s": total("busy", "labeling.verify_tiasl"),
        "labeling.verify_calls": total("calls", "labeling.verify_tiasl"),
        "constructive.construct_s": self_of(lambda n: n.startswith("constructive.")),
        "graph.catalog_s": total("busy", "graph.catalog"),
        "graph.catalog_graphs": total("items", "graph.catalog"),
        "cli.self_s": self_of(lambda n: n.startswith("cli.")),
        "cli.output_bytes": output_bytes,
    }


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed by layer (the part of a span name before the dot)."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        layer = s.name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own[s.id]
    return out


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 where nothing was attempted."""
    return num / den if den else 0.0
