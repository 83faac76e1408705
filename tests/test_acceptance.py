"""Acceptance suite: nine end-to-end criteria, one test (and one pass/fail
line) each.  Budgets are wall-clock seconds enforced inside the test."""

import contextlib
import io
import random
import time

from tiasl import (
    Graph,
    GroundSet,
    IntSet,
    SearchBounds,
    connected_graph_catalog,
    discrete_admissibility,
    emit_graph6,
    enumerate_topologies,
    format_sweep_report,
    label_any_pendant,
    label_pan,
    label_shovel,
    label_star_discrete,
    label_tadpole,
    parse_graph6,
    path,
    pendant_vertices,
    restriction_check,
    star,
    sumset,
    theorem_sweep,
    topological_set_indexing_number,
    verify_iasl,
    verify_tiasl,
    verify_tiasi,
)
from tiasl.cli import main

from oracles import all_topologies, classify_labeling


def _report(n: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {n}: {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def prufer_tree(rng: random.Random, n: int) -> Graph:
    """Uniform random labeled tree on n >= 2 vertices via a Prüfer sequence."""
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, w))
    return Graph.from_edges(n, edges)


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def test_criterion_1_constructive_coverage():
    t0 = time.perf_counter()
    count = 0
    for n in range(3, 9):
        assert verify_tiasl(label_pan(n)).is_tiasl, f"pan({n})"
        count += 1
    for n in range(3, 7):
        for m in range(1, 5):
            assert verify_tiasl(label_tadpole(n, m)).is_tiasl, f"tadpole({n},{m})"
            count += 1
    for n in range(3, 6):
        for m in range(1, 4):
            assert verify_tiasl(label_shovel(n, m)).is_tiasl, f"shovel({n},{m})"
            count += 1
    for k in range(2, 5):
        rep = verify_tiasl(label_star_discrete(k))
        assert rep.is_tiasl and rep.topology_is_discrete, f"star-discrete({k})"
        count += 1
    rng = random.Random(101)
    for _ in range(100):
        tree = prufer_tree(rng, rng.randint(2, 8))
        assert verify_tiasl(label_any_pendant(tree)).is_tiasl
        count += 1
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "all stock constructions and 100 random trees verify (budget 5 s)",
        elapsed < 5.0,
        f"{count} labelings in {elapsed:.2f}s",
    )


def test_criterion_2_pendant_characterization_sweep():
    t0 = time.perf_counter()
    report = theorem_sweep(5)
    elapsed = time.perf_counter() - t0
    ok = (
        report.graphs_processed == 31
        and report.inconsistencies == ()
        and elapsed < 600.0
    )
    _report(
        2,
        "all 31 connected graphs of order <= 5 are consistent with the "
        "pendant characterization (budget 10 min)",
        ok,
        f"{report.graphs_processed} graphs, "
        f"{len(report.inconsistencies)} inconsistent, {elapsed:.1f}s",
    )


def test_criterion_3_minimal_ground_set_sizes():
    t1, out1 = topological_set_indexing_number(path(1))
    ok1 = (
        t1 == 1
        and [s.elements for s in out1.witness.topology.opens] == [(), (0,)]
    )
    t2, out2 = topological_set_indexing_number(path(2))
    opens2 = [s.elements for s in out2.witness.topology.opens]
    ok2 = t2 == 2 and opens2 == [(), (0,), (0, 1)]
    _report(
        3,
        "single vertex needs one element (indiscrete witness) and a single "
        "edge needs two ({∅,{0},X} witness)",
        ok1 and ok2,
        f"values {t1}, {t2}",
    )


def test_criterion_4_discrete_admissibility():
    stars_ok = True
    for k in (2, 3, 4):
        verdict = discrete_admissibility(
            star(2**k - 2), GroundSet.from_elements(range(k))
        )
        rep = verify_tiasl(verdict.labeling) if verdict.admissible else None
        stars_ok = stars_ok and verdict.admissible and rep.topology_is_discrete

    rng = random.Random(202)
    parity_ok = 0
    while parity_ok < 20:
        n = rng.choice([2, 4, 6, 8, 10])
        g = random_graph(rng, n)
        verdict = discrete_admissibility(g, GroundSet.from_elements([0, 1]))
        assert not verdict.admissible and verdict.reason == "order parity"
        parity_ok += 1

    deficient_ok = 0
    for k in (2, 3):
        need = 2 ** (k - 1)
        ground = GroundSet.from_elements(range(k))
        found = 0
        while found < 10:
            g = random_graph(rng, 2**k - 1)
            degs = g.degrees()
            best = max(
                (
                    sum(1 for u in g.neighbors(v) if degs[u] == 1)
                    for v in range(g.order)
                ),
                default=0,
            )
            if best >= need:
                continue
            verdict = discrete_admissibility(g, ground)
            assert not verdict.admissible and verdict.reason == "pendant deficiency"
            found += 1
            deficient_ok += 1

    _report(
        4,
        "discrete-topology admissibility: stars accepted for k=2..4, 20 "
        "even-order graphs rejected on parity, 20 pendant-deficient graphs "
        "rejected on the pendant count",
        stars_ok and parity_ok == 20 and deficient_ok == 20,
        f"{parity_ok} parity + {deficient_ok} deficiency rejections",
    )


def test_criterion_5_topology_enumeration_vs_oracle():
    t0 = time.perf_counter()
    counts = []
    for n in (1, 2, 3, 4):
        ground = GroundSet.from_elements(range(n))
        got = {
            frozenset(frozenset(s.elements) for s in t.opens)
            for t in enumerate_topologies(ground)
        }
        want = {frozenset(f) for f in all_topologies(range(n))}
        assert got == want, f"mismatch at |X|={n}"
        counts.append(len(got))
    elapsed = time.perf_counter() - t0
    ok = counts == [1, 4, 29, 355] and elapsed < 30.0
    _report(
        5,
        "topology enumeration matches the brute closure oracle for ground "
        "sizes 1-4 (budget 30 s)",
        ok,
        f"counts {counts} in {elapsed:.1f}s",
    )


def test_criterion_6_verifier_oracle_equivalence():
    rng = random.Random(303)
    disagreements = 0
    for _ in range(1000):
        n = rng.randint(1, 6)
        g = random_graph(rng, n, p=0.5)
        top = rng.randint(0, 6)
        elems = sorted({0, top} | {e for e in range(top) if rng.random() < 0.5})
        elems = elems[:6]
        ground = GroundSet.from_elements(elems)
        labels = []
        for _v in range(n):
            size = rng.randint(0, min(3, len(elems)))
            labels.append(tuple(sorted(rng.sample(elems, size))))
        from tiasl import SetLabeling

        lab = SetLabeling(g, ground, tuple(IntSet(s) for s in labels))
        ri, rt, rs = verify_iasl(lab), verify_tiasl(lab), verify_tiasi(lab)
        got = (ri.is_iasl, rt.is_tiasl, rs.is_tiasi)
        want = classify_labeling(
            n,
            sorted(g.edges),
            set(elems),
            {v: set(s) for v, s in enumerate(labels)},
        )
        if got != want:
            disagreements += 1
    _report(
        6,
        "staged verifier agrees with the definition-transcription oracle on "
        "1000 random labelings",
        disagreements == 0,
        f"{disagreements} disagreements",
    )


def test_criterion_7_invariant_suite():
    rng = random.Random(404)
    zero = IntSet([0])
    algebra_fail = 0
    for _ in range(10_000):
        a = IntSet.from_mask(rng.randrange(1, 1 << 16))
        b = IntSet.from_mask(rng.randrange(1, 1 << 16))
        c = IntSet.from_mask(rng.randrange(1, 1 << 16))
        if sumset(a, b) != sumset(b, a):
            algebra_fail += 1
        if sumset(sumset(a, b), c) != sumset(a, sumset(b, c)):
            algebra_fail += 1
        if sumset(a, zero) != a:
            algebra_fail += 1
        if sumset(a, b).max_element != a.max_element + b.max_element:
            algebra_fail += 1

    codec_fail = 0
    catalog_size = 0
    for g in connected_graph_catalog(6):
        catalog_size += 1
        if parse_graph6(emit_graph6(g)) != g:
            codec_fail += 1

    restriction_fail = 0
    restricted = 0
    graphs = [g for g in connected_graph_catalog(5) if pendant_vertices(g)]
    tree_rng = random.Random(505)
    graphs.extend(prufer_tree(tree_rng, tree_rng.randint(2, 8)) for _ in range(50))
    for g in graphs:
        lab = label_any_pendant(g)
        p = pendant_vertices(g)[0]
        if not restriction_check(lab, p).ok:
            restriction_fail += 1
        restricted += 1

    ok = algebra_fail == 0 and codec_fail == 0 and restriction_fail == 0
    _report(
        7,
        "sumset algebra holds on 10^4 random triples, graph6 round-trips the "
        "full order <= 6 catalog, pendant restrictions stay topologies",
        ok and catalog_size == 143 and restricted == len(graphs),
        f"catalog {catalog_size}, {restricted} restrictions",
    )


def test_criterion_8_pendant_characterization_sweep_order_6():
    t0 = time.perf_counter()
    report = theorem_sweep(6)
    elapsed = time.perf_counter() - t0
    exhausted = [
        e for e in report.entries if e.order == 6 and e.disposition == "exhausted"
    ]
    notes = {e.note for e in exhausted}
    runs = []
    for threads in ([], ["--threads", "2"]):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            exit_code = main(["sweep", "--max-n", "6", *threads])
        runs.append((exit_code, out.getvalue()))
    ok = (
        report.graphs_processed == 143
        and report.inconsistencies == ()
        and len(exhausted) == 61
        and notes == {"ground_sets=512 topologies=90462510"}
        and runs == [(0, format_sweep_report(report))] * 2
        and elapsed < 600.0
    )
    _report(
        8,
        "all 143 connected graphs of order <= 6 are consistent with the "
        "pendant characterization, each pendant-free order-6 graph exhausting "
        "90,462,510 topologies over 512 ground sets (budget 10 min)",
        ok,
        f"{report.graphs_processed} graphs, {len(report.inconsistencies)} "
        f"inconsistent, {len(exhausted)} exhausted at order 6, {elapsed:.1f}s",
    )


def test_criterion_9_pendant_characterization_sweep_order_7():
    t0 = time.perf_counter()
    report = theorem_sweep(7, max_ground_size=5)
    elapsed = time.perf_counter() - t0
    exhausted = [
        e for e in report.entries if e.order == 7 and e.disposition == "exhausted"
    ]
    notes = {e.note for e in exhausted}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exit_code = main(["sweep", "--max-n", "7", "--max-ground-size", "5"])
    ok = (
        report.graphs_processed == 996
        and report.inconsistencies == ()
        and len(exhausted) == 507
        and notes == {"ground_sets=562 topologies=324115"}
        and (exit_code, out.getvalue()) == (0, format_sweep_report(report))
        and elapsed < 600.0
    )
    _report(
        9,
        "all 996 connected graphs of order <= 7 are consistent with the "
        "pendant characterization on ground sets of at most 5 elements, each "
        "pendant-free order-7 graph exhausting 324,115 topologies over 562 "
        "ground sets (budget 10 min)",
        ok,
        f"{report.graphs_processed} graphs, {len(report.inconsistencies)} "
        f"inconsistent, {len(exhausted)} exhausted at order 7, {elapsed:.1f}s",
    )
