"""Self-tests of the benchmark's own helpers.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import tracing
from stats import tail
from workloads import load_expected, make_plan, parse_set, witness_problems

ROOT = Path(__file__).resolve().parent.parent


# -- tail rule ---------------------------------------------------------------


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [
        (264, 95.0, 13),  # one tsin pass: p99 would leave only 2 beyond
        (1000, 99.0, 10),
        (1010, 99.0, 10),
        (2000, 99.5, 10),
        (20, 50.0, 10),
    ],
)
def test_tail_picks_highest_percentile_with_ten_beyond(n, percentile, beyond):
    values = list(range(n, 0, -1))  # unsorted input
    p, value, got_beyond = tail(values)
    assert (p, got_beyond) == (percentile, beyond)
    assert value == n - beyond  # nearest rank: exactly `beyond` samples above
    assert sum(1 for v in values if v > value) == beyond


@pytest.mark.parametrize("n", [1, 4, 19])
def test_tail_without_ten_beyond_reports_the_maximum(n):
    assert tail(list(range(n))) == (100.0, n - 1, 0)


# -- self-time arithmetic ----------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, dt: float) -> None:
        self.now += dt


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    inner = tracer.wrap_call(lambda: clock.work(2), "b.inner")

    def body():
        clock.work(1)
        inner()
        inner()
        clock.work(3)

    outer = tracer.wrap_call(body, "a.outer")
    outer()
    outer()

    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.request for s in roots] == [1, 2]  # one root, one request each
    own = tracing.self_times(tracer.spans)
    for root in roots:
        (child,) = [s for s in tracer.spans if s.parent == root.id]
        assert (root.busy, root.calls, own[root.id]) == (8, 1, 4)
        # Two calls under one parent fold into one record.
        assert (child.busy, child.calls, own[child.id]) == (4, 2, 4)
        assert child.request == root.request
    assert tracing.layer_self_times(tracer.spans) == {"a": 8, "b": 8}


def test_self_time_of_generator_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    table = tracer.wrap_call(lambda: clock.work(10), "t.table")

    def gen():
        table()  # runs inside the first next()
        for i in range(3):
            clock.work(1)
            yield i
        clock.work(0.5)  # the exhausting next()

    traced_gen = tracer.wrap_gen(gen, "t.gen")

    def consumer():
        for _ in traced_gen():
            clock.work(5)  # the consumer's own work between next() calls

    tracer.wrap_call(consumer, "s.consumer")()
    by_name = {s.name: s for s in tracer.spans}
    own = tracing.self_times(tracer.spans)
    root, g, t = by_name["s.consumer"], by_name["t.gen"], by_name["t.table"]
    assert (g.parent, t.parent) == (root.id, g.id)
    assert (g.calls, g.items) == (4, 3)
    assert g.busy == 13.5  # only time inside next(), not between yields
    assert (g.start, g.end) == (0, 28.5)
    assert own[g.id] == 3.5
    assert root.busy == 28.5 and own[root.id] == 15


def test_layer_metrics_attribute_counts_to_their_layer():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    gen = tracer.wrap_gen(lambda: iter(range(4)), "topology.gen")
    bij = tracer.wrap_bijection(
        lambda g, t, _nodes: _nodes.__setitem__(0, _nodes[0] + 3) or (t if t else None),
        "search.bijection_match",
    )

    sumset = tracer.wrap_count(lambda: None, "intset.sumset_mask")

    def search():
        nodes = [0]
        for t in gen():
            bij(None, t % 2, _nodes=nodes)
            sumset()

    tracer.wrap_call(search, "search.find_tiasl")()
    m = tracing.layer_metrics(tracer.spans, output_bytes=7)
    assert m["topology.families"] == 4
    assert m["search.bijection_calls"] == 4
    assert m["search.family_use_ratio"] == 1.0
    assert m["search.bijection_nodes"] == 12
    assert m["search.bijection_hit_ratio"] == 0.5
    assert m["intset.sumset_calls"] == 4
    assert m["cli.output_bytes"] == 7


def test_install_restores_the_program():
    sys.path.insert(0, str(ROOT / "src"))
    import tiasl.search

    original = tiasl.search.bijection_match
    with tracing.install(tracing.Tracer()):
        assert tiasl.search.bijection_match is not original
    assert tiasl.search.bijection_match is original


# -- independent witness checker ---------------------------------------------


def _pan3_labels():
    sys.path.insert(0, str(ROOT / "src"))
    from tiasl import label_any_pendant, pan

    lab = label_any_pendant(pan(3))
    edges = sorted(lab.graph.edges)
    ground = frozenset(lab.ground.members)
    labels = [frozenset(s) for s in lab.vertex_labels]
    return lab.graph.order, edges, ground, labels


def test_witness_checker_accepts_the_pendant_construction():
    assert witness_problems(*_pan3_labels()) == []


def test_witness_checker_rejects_swapped_labels():
    order, edges, ground, labels = _pan3_labels()
    pendant = next(v for v in range(order) if sum(v in e for e in edges) == 1)
    (neighbor,) = {u for e in edges if pendant in e for u in e} - {pendant}
    labels[pendant], labels[neighbor] = labels[neighbor], labels[pendant]
    assert witness_problems(order, edges, ground, labels)


def test_witness_checker_rejects_a_family_not_closed_under_union():
    # Path 0-1-2 labelled {0}, {0,1}, {0,2} on X = {0,1,2}: edge sums fit,
    # but {0,1} | {0,2} = X is not among the labels.
    labels = [frozenset({0}), frozenset({0, 1}), frozenset({0, 2})]
    assert witness_problems(3, [(0, 1), (1, 2)], frozenset({0, 1, 2}), labels)


def test_parse_set():
    assert parse_set("{}") == frozenset()
    assert parse_set("{0,3,12}") == frozenset({0, 3, 12})


# -- seeded inputs ------------------------------------------------------------


def test_plans_follow_the_seed(tmp_path):
    a = make_plan("tsin", 7, tmp_path / "a")
    b = make_plan("tsin", 7, tmp_path / "b")
    c = make_plan("tsin", 8, tmp_path / "c")
    assert [r.expect for r in a.requests] == [r.expect for r in b.requests]
    assert [r.expect for r in a.requests] != [r.expect for r in c.requests]
    t1 = make_plan("topologies", 1, tmp_path / "t1")
    t2 = make_plan("topologies", 2, tmp_path / "t2")
    assert sorted(r.argv[2] for r in t1.requests) != sorted(r.argv[2] for r in t2.requests)


def test_relabelled_graphs_keep_their_degree_sequence(tmp_path):
    pool = {e["graph6"]: e for e in load_expected()["tsin_pool"]}

    def degrees(n, edges):
        d = [0] * n
        for u, v in edges:
            d[u] += 1
            d[v] += 1
        return sorted(d)

    plan = make_plan("tsin", 3, tmp_path)
    for req in plan.requests:
        head, *lines = Path(req.argv[1]).read_text().split("\n")
        n, m = map(int, head.split())
        edges = [tuple(map(int, ln.split())) for ln in lines[:m]]
        original = pool[req.expect["graph6"]]
        assert n == original["order"] and m == len(original["edges"])
        assert degrees(n, edges) == degrees(n, original["edges"])
