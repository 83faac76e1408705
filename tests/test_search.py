"""Bounded exhaustive search, bijection matching, admissibility, sweep."""

import os
import random
import subprocess
import sys
from functools import lru_cache
from itertools import combinations

import pytest

from tiasl import (
    CATALOG_GUARD,
    Certificate,
    DomainError,
    Graph,
    GroundSet,
    IntSet,
    SearchBounds,
    bijection_match,
    complete,
    connected_graph_catalog,
    cycle,
    default_bounds,
    discrete_admissibility,
    discrete_topology,
    enumerate_topologies,
    find_tiasl,
    format_edge_list,
    format_search_outcome,
    format_sweep_report,
    indiscrete_topology,
    outcome_to_dict,
    pan,
    parse_graph6,
    path,
    pendant_vertices,
    star,
    theorem_sweep,
    topological_set_indexing_number,
    verify_tiasl,
)

from tiasl import search, topology
from tiasl.cli import main
from tiasl.intset import sumset_mask
from tiasl.search import (
    _compatibility_counts,
    _compatibility_degree_caps,
    _ground_candidates,
    _search_one_ground,
)
from tiasl.topology import (
    _abstract_open_masks,
    _topology_from_masks,
    translate_masks,
)

from oracles import (
    all_topologies,
    bijection_exists,
    find_tiasl_reference,
    search_one_ground_reference,
)


def ground(*elems):
    return GroundSet.from_elements(elems)


class TestBounds:
    def test_validation(self):
        with pytest.raises(DomainError):
            SearchBounds(-2, 1)
        with pytest.raises(DomainError):
            SearchBounds(1, -1)
        SearchBounds(-1, 0)  # the empty window is legal

    def test_default_bounds(self):
        assert default_bounds(path(1)) == SearchBounds(0, 1)
        assert default_bounds(path(3)) == SearchBounds(3, 4)
        assert default_bounds(cycle(4)) == SearchBounds(5, 6)


class TestBijectionMatch:
    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            bijection_match(path(2), discrete_topology(ground(0, 1)))

    def test_pinned_path3_witness(self):
        lab = bijection_match(path(3), discrete_topology(ground(0, 1)))
        assert [s.elements for s in lab.vertex_labels] == [(1,), (0,), (0, 1)]
        assert verify_tiasl(lab).is_tiasl

    def test_single_vertex_indiscrete(self):
        lab = bijection_match(path(1), indiscrete_topology(ground(0)))
        assert lab.vertex_labels == (IntSet([0]),)

    def test_cycle3_never_matches_four_opens(self):
        for t in enumerate_topologies(ground(0, 1)):
            if t.open_count == 4:
                assert bijection_match(cycle(3), t) is None

    def test_node_counter_accumulates(self):
        nodes = [0]
        bijection_match(path(3), discrete_topology(ground(0, 1)), _nodes=nodes)
        assert nodes[0] >= 3

    @pytest.mark.parametrize("gname,g", [
        ("path2", path(2)),
        ("path3", path(3)),
        ("star2", star(2)),
        ("cycle3", cycle(3)),
        ("path4", path(4)),
        ("star3", star(3)),
        ("complete4", complete(4)),
    ])
    def test_existence_matches_permutation_oracle(self, gname, g):
        """Across every topology on {0,1,2} and on the gapped {0,2,3} with
        exactly order+1 opens, the backtracker finds a bijection iff the
        brute permutation scan does, and any witness verifies."""
        for gr in (ground(0, 1, 2), ground(0, 2, 3)):
            for t in enumerate_topologies(gr, g.order + 1):
                lab = bijection_match(g, t)
                opens = [set(o.elements) for o in t.nonempty_opens]
                want = bijection_exists(
                    g.order, sorted(g.edges), set(gr.members.elements), opens
                )
                assert (lab is not None) == want, f"{gname} vs {t}"
                if lab is not None:
                    assert verify_tiasl(lab).is_tiasl

    def test_degree_reject_is_the_threshold_count(self):
        """The sorted-dominance reject fires exactly when some degree
        threshold d has more vertices of degree >= d than opens compatible
        with >= d others, and it fires before any node is counted."""
        rejected = 0
        for g in connected_graph_catalog(5):
            degs = g.degrees()
            for gr in (ground(0), ground(0, 1), ground(0, 1, 2), ground(0, 1, 2, 3)):
                full = gr.members.mask
                for t in enumerate_topologies(gr, g.order + 1):
                    masks = [o.mask for o in t.nonempty_opens]
                    cdeg = [
                        sum(1 for j, b in enumerate(masks)
                            if j != i and sumset_mask(a, b) & ~full == 0)
                        for i, a in enumerate(masks)
                    ]
                    want = any(
                        sum(c >= d for c in cdeg) < sum(e >= d for e in degs)
                        for d in degs
                    )
                    nodes = [0]
                    lab = bijection_match(g, t, _nodes=nodes)
                    if want:
                        rejected += 1
                        assert lab is None and nodes == [0], (g, t)
        assert rejected > 0

    def test_counting_prune_rejects_fast(self):
        """Center + eight pendants + a 6-clique passes the order and pendant
        counts for the discrete topology on four points, but only three opens
        are compatible with six or more others, so the seven vertices of
        degree >= 6 cannot all be served: rejected without search."""
        edges = [(0, i) for i in range(1, 15)]
        edges += [(u, v) for u in range(9, 15) for v in range(u + 1, 15)]
        g = Graph.from_edges(15, edges)
        nodes = [0]
        lab = bijection_match(g, discrete_topology(ground(0, 1, 2, 3)), _nodes=nodes)
        assert lab is None
        assert nodes[0] == 0


class TestFindTiasl:
    def test_pan3_found_on_three_elements(self):
        out = find_tiasl(pan(3))
        assert out.found and out.status == "found"
        assert str(out.witness.topology.ground) == "{0,1,2}"
        assert [s.elements for s in out.witness.labeling.vertex_labels] == [
            (0,),
            (1,),
            (0, 1),
            (0, 1, 2),
        ]
        c = out.certificate
        assert (c.ground_sets_tried, c.topologies_tried, c.bijection_nodes) == (7, 2, 4)

    def test_found_witness_always_verifies(self):
        for g in (path(2), path(4), star(3), pan(4)):
            out = find_tiasl(g)
            assert out.found
            assert verify_tiasl(out.witness.labeling).is_tiasl

    def test_pruned_by_theorem(self):
        out = find_tiasl(cycle(4))
        assert out.status == "pruned-by-theorem"
        assert out.certificate.ground_sets_tried == 0

    def test_cycle4_unpruned_exhausts_window(self):
        out = find_tiasl(cycle(4), SearchBounds(5, 6), pendant_prune=False)
        assert out.status == "exhausted"
        c = out.certificate
        # All 32 subsets of {0..5} containing 0; every topology dies on the
        # hoisted degree prune, so the backtracker is never entered.
        assert (c.ground_sets_tried, c.topologies_tried, c.bijection_nodes) == (
            32,
            4710,
            0,
        )

    def test_empty_window(self):
        out = find_tiasl(path(1), SearchBounds(-1, 0))
        assert out.status == "exhausted"
        assert out.certificate.ground_sets_tried == 0

    def test_require_zero_off(self):
        out = find_tiasl(path(2), SearchBounds(2, 2, require_zero=False))
        assert out.found
        assert out.certificate.ground_sets_tried == 4  # {0},{1},{2},{0,1}

    def test_order_guard(self, monkeypatch):
        """Order 7 is searched; order 8 is refused, naming the bound, before
        any ground set is built."""
        assert find_tiasl(path(7)).found

        def no_candidates(bounds):
            raise AssertionError("ground sets built")

        monkeypatch.setattr(search, "_ground_candidates", no_candidates)
        with pytest.raises(
            DomainError, match=r"^search covers graphs of order <= 7, got 8$"
        ):
            find_tiasl(path(8))

    def test_window_guard(self):
        """The window is bounded by its ground-set count alone: 11-element
        ground sets are searched, and the hit at |X| = 2 comes first."""
        wide = find_tiasl(path(3), SearchBounds(12, 11))
        narrow = find_tiasl(path(3), SearchBounds(12, 10))
        assert wide.found
        assert wide.witness == narrow.witness
        assert wide.certificate == narrow.certificate

    def test_stream_budget_refuses_before_building(self, monkeypatch):
        """A ground set whose stream holds more than STREAM_GUARD families is
        refused, naming it, before any family is built; a ground set counted
        by the prunes builds nothing and is never refused."""

        def no_walk(s, k):
            raise AssertionError("family built")

        exhausted = find_tiasl(cycle(4), pendant_prune=False)
        monkeypatch.setattr(topology, "STREAM_GUARD", 0)
        monkeypatch.setattr(search, "_abstract_open_masks", no_walk)
        monkeypatch.setattr(search, "_zero_open_masks", no_walk)
        refusal = r"^ground set \{0,1,2\} with 5 opens holds 6 topologies, more than 0$"
        with pytest.raises(DomainError, match=refusal):
            find_tiasl(pan(3))
        again = find_tiasl(cycle(4), pendant_prune=False)
        assert again.status == exhausted.status == "exhausted"
        assert again.certificate == exhausted.certificate

    def test_ground_set_count_guard_builds_nothing(self, monkeypatch):
        """A window of 17,784,019,483 ground sets is refused by its count
        before any tuple is built."""

        def no_combinations(*args):
            raise AssertionError("candidate list built")

        monkeypatch.setattr(search.itertools, "combinations", no_combinations)
        with pytest.raises(DomainError, match="17784019483 ground sets"):
            find_tiasl(path(3), SearchBounds(60, 10))
        with pytest.raises(DomainError, match=f"more than {search.GROUND_SETS_GUARD}"):
            _ground_candidates(SearchBounds(60, 10, require_zero=False))

    def test_window_past_the_universe_refused_before_counting(self):
        with pytest.raises(DomainError, match="65 exceeds the universe limit 64"):
            _ground_candidates(SearchBounds(65, 2))
        with pytest.raises(DomainError, match="universe limit"):
            _ground_candidates(SearchBounds(10**500, 2, require_zero=False))
        assert _ground_candidates(SearchBounds(64, 1, require_zero=False))[-1] == (64,)

    def test_ground_set_count_guard_boundary(self):
        """{0} plus any subset of {1..16} is exactly 2**16 ground sets."""
        assert len(_ground_candidates(SearchBounds(16, 17))) == search.GROUND_SETS_GUARD
        with pytest.raises(DomainError):
            _ground_candidates(SearchBounds(17, 17))

    def test_deterministic_and_thread_invariant(self, tmp_path, capsys):
        """Equal outcomes on repeated calls, and the same CLI bytes, those of
        the outcome, with and without ``--threads 2``."""
        window = ["--max-element", "4", "--max-ground-size", "5", "--no-prune"]
        runs = [
            (pan(3), None, True, []),
            (path(4), None, True, []),
            (cycle(4), SearchBounds(4, 5), False, window),
        ]
        for g, bounds, prune, flags in runs:
            a = find_tiasl(g, bounds, pendant_prune=prune)
            assert find_tiasl(g, bounds, pendant_prune=prune) == a
            f = tmp_path / "g.edges"
            f.write_text(format_edge_list(g))
            for threads in ([], ["--threads", "2"]):
                assert main(["search", str(f), *flags, *threads]) == (not a.found)
                assert capsys.readouterr().out == format_search_outcome(a)


def _plus_isolated(g):
    return Graph.from_edges(g.order + 1, sorted(g.edges))


def _counters(outcome):
    c = outcome.certificate
    return (c.ground_sets_tried, c.topologies_tried, c.bijection_nodes)


class TestCountedCertificates:
    """The counted and {0}-open routes against the loop that built every
    topology and skipped the ones no vertex could use."""

    # Minimum degree 2 and 1 (connected, order >= 2), and 0 (K1, and order-3
    # graphs plus an isolated vertex).
    GRAPHS = list(connected_graph_catalog(4)) + [
        _plus_isolated(g) for g in connected_graph_catalog(3)
    ]

    @pytest.mark.parametrize("require_zero", [True, False])
    def test_every_ground_set_matches_reference(self, require_zero):
        for g in self.GRAPHS:
            b = default_bounds(g)
            bounds = SearchBounds(b.max_element, b.max_ground_size, require_zero)
            degs = tuple(sorted(g.degrees(), reverse=True))
            for elems in _ground_candidates(bounds):
                got = _search_one_ground(g, elems, degs)
                task = (g, elems, g.order + 1, degs[-1])
                assert got == search_one_ground_reference(task), (g, elems)
            out = find_tiasl(g, bounds, pendant_prune=False)
            witness, counters = find_tiasl_reference(g, bounds)
            assert _counters(out) == counters
            assert out.witness == witness

    def test_tsin_pendant_graphs_match_reference(self):
        graphs = [
            g
            for g in connected_graph_catalog(6)
            if g.order >= 5 and pendant_vertices(g)
        ]
        assert len(graphs) == 61
        for g in graphs:
            tsin, out = topological_set_indexing_number(g)
            witness, counters = find_tiasl_reference(g, default_bounds(g))
            assert _counters(out) == counters
            assert out.witness == witness
            assert tsin == len(witness.topology.ground)


def _compatible_partners(elems, a):
    """Brute force: the non-empty B ⊆ X, B ≠ A, with A + B ⊆ X."""
    members = set(elems)
    return sum(
        1
        for r in range(1, len(elems) + 1)
        for b in combinations(elems, r)
        if set(b) != set(a) and all(x + y in members for x in a for y in b)
    )


def _dominance_refuses(degs, elems):
    """The ground-set prune as first stated: the descending degrees against
    cnt(X) and the n - 1 largest min(cnt(A), n - 1) over the proper
    non-empty A ⊆ X, sorted together."""
    n = len(degs)
    counts = _compatibility_counts(elems)
    slots = sorted((min(c, n - 1) for c in counts[:-1]), reverse=True)[: n - 1]
    slots = sorted(slots + [counts[-1]], reverse=True)
    return any(d > c for d, c in zip(degs, slots))


def _tsin_pool():
    """The 61 connected graphs of order 5-6 with a pendant vertex, and the 27
    connected graphs of order 4-5 plus an isolated vertex."""
    pendant = [
        g for g in connected_graph_catalog(6) if g.order >= 5 and pendant_vertices(g)
    ]
    isolated = [_plus_isolated(g) for g in connected_graph_catalog(5) if g.order >= 4]
    return pendant + isolated


class TestGroundSetPrune:
    """The ground-set dominance prune: a ground set on which no family can
    pass the degree reject of bijection_match is counted, not walked."""

    def test_counts_match_brute_force(self):
        for size in range(1, 6):
            for elems in combinations(range(8), size):
                counts = _compatibility_counts(elems)
                assert len(counts) == 2**size - 1
                for mask in range(1, 2**size):
                    a = [e for j, e in enumerate(elems) if mask >> j & 1]
                    assert counts[mask - 1] == _compatible_partners(elems, a), (
                        elems,
                        a,
                    )
                # The ground-set slot of the search: [0 in X, |X| > 1].
                assert counts[-1] == int(elems[0] == 0 and size > 1)
                caps = _compatibility_degree_caps(elems)
                assert len(caps) == min(CATALOG_GUARD - 1, 2**size - 2)
                assert caps == tuple(sorted(counts[:-1], reverse=True)[: len(caps)])

    def test_refused_ground_sets_have_no_usable_family(self, monkeypatch):
        """The search refuses exactly where the prune as first stated does,
        and every family on a refused ground set gets None from
        bijection_match with no node visited.  Where the minimum degree
        exceeds [0 in X] (the ground-set slot), the brute-force count of X's
        partners shows it: X is open in every family and can be compatible
        with at most that many others, which is below every vertex degree.
        Walking those 6.9 million families instead would take minutes."""
        walked = []

        def walk(s, k):
            walked.append((s, k))
            return ()

        monkeypatch.setattr(search, "_zero_open_masks", walk)
        monkeypatch.setattr(search, "_abstract_open_masks", walk)
        graphs = list(connected_graph_catalog(5)) + [
            _plus_isolated(g) for g in connected_graph_catalog(3)
        ]
        checked = set()
        refused = {"slot": 0, "dominance": 0}
        for g in graphs:
            degs = tuple(sorted(g.degrees(), reverse=True))
            k = g.order + 1
            b = default_bounds(g)
            for require_zero in (True, False):
                bounds = SearchBounds(b.max_element, b.max_ground_size, require_zero)
                for elems in _ground_candidates(bounds):
                    walked.clear()
                    _search_one_ground(g, elems, degs)
                    if 2 ** len(elems) < k:
                        continue
                    assert (not walked) == _dominance_refuses(degs, elems)
                    if walked or (degs, elems) in checked:
                        continue
                    checked.add((degs, elems))
                    if degs[-1] > (elems[0] == 0):
                        refused["slot"] += 1
                        assert _compatible_partners(elems, elems) < degs[-1]
                        continue
                    refused["dominance"] += 1
                    x = GroundSet(IntSet(elems))
                    for family in _abstract_open_masks(len(elems), k):
                        t = _topology_from_masks(x, translate_masks(family, x))
                        nodes = [0]
                        assert bijection_match(g, t, _nodes=nodes) is None, (g, t)
                        assert nodes == [0]
        assert refused == {"slot": 3270, "dominance": 421}

    def test_pool_reaches_bijection_less_often(self, monkeypatch):
        """Over the benchmark's tsin pool the search calls bijection_match
        13,877 times without the prune; the certificates stay the same."""
        calls = [0]
        real = search.bijection_match

        def counted(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(search, "bijection_match", counted)
        totals = [0, 0, 0]
        for g in _tsin_pool():
            _, out = topological_set_indexing_number(g)
            totals = [t + c for t, c in zip(totals, _counters(out))]
        assert calls[0] <= 1730
        assert totals == [4158, 27081, 3368]


@lru_cache(maxsize=None)
def _oracle_topologies(elems):
    return all_topologies(elems)


def _oracle_first_ground(g, bounds):
    """The first ground set of the window, in (size, lexicographic) order,
    on which some topology with order + 1 opens admits a bijection, from the
    closure scan and the permutation scan alone; None if there is none."""
    pool = range(bounds.max_element + 1)
    grounds = [
        x
        for size in range(1, bounds.max_ground_size + 1)
        for x in combinations(pool, size)
        if 0 in x or not bounds.require_zero
    ]
    for x in grounds:
        for family in _oracle_topologies(x):
            if len(family) == g.order + 1 and bijection_exists(
                g.order, g.edges, x, [o for o in family if o]
            ):
                return x
    return None


def _random_graphs(rng, orders, each):
    """``each`` graphs per order, every vertex pair an edge with chance 1/2."""
    return [
        Graph.from_edges(n, [p for p in combinations(range(n), 2) if rng.random() < 0.5])
        for n in orders
        for _ in range(each)
    ]


class TestSearchAgainstOracles:
    """Unpruned find_tiasl against brute force on random graphs of order
    1..4, isolated vertices included, so that the counted, the {0}-open and
    the full route all run."""

    GRAPHS = _random_graphs(random.Random(8), orders=(1, 2, 3, 4), each=12)

    @pytest.mark.parametrize("require_zero", [True, False])
    def test_status_and_first_ground_set(self, require_zero):
        bounds = SearchBounds(4, 4, require_zero)
        for g in self.GRAPHS:
            out = find_tiasl(g, bounds, pendant_prune=False)
            want = _oracle_first_ground(g, bounds)
            assert out.status == ("exhausted" if want is None else "found"), g
            if want is not None:
                assert out.witness.topology.ground.members.elements == want, g


def _clear_table_caches():
    for cached in (
        topology._labeled_posets,
        topology._posets_with_up_set_count,
        topology.count_open_masks,
    ):
        cached.cache_clear()


class TestOrderSeven:
    """Order 7 is searched wherever the poset tables count the streams: the
    outcome equals that of a run whose tables are pruned at 8 up-sets, which
    reads other tables for the 8-open streams on at most 5 points."""

    @pytest.mark.parametrize(
        "g, tsin",
        [
            (parse_graph6("F{aC?"), 3),
            (parse_graph6("FJqC?"), 4),
            (parse_graph6("F~]C?"), 5),
            (path(7), 5),
        ],
        ids=["F{aC?", "FJqC?", "F~]C?", "P7"],
    )
    def test_same_as_tables_pruned_at_8(self, monkeypatch, g, tsin):
        outcome = find_tiasl(g)
        monkeypatch.setattr(topology, "OPEN_COUNT_GUARD", 8)
        _clear_table_caches()
        try:
            wide = find_tiasl(g)
        finally:
            _clear_table_caches()
        assert outcome.found and len(outcome.witness.topology.ground) == tsin
        assert outcome.witness == wide.witness
        assert outcome.certificate == wide.certificate


class TestLazyStreamCount:
    def test_hit_reads_only_the_tables_its_walk_reaches(self, monkeypatch):
        """With cold caches, the search of Ej]? (tsin 5) hits on the first
        5-element ground set within the stream budget's closed-form bound,
        C(30, 5) = 142,506, so the 5-class table with 7 up-sets is never
        read, and the outcome is that of counting the stream."""
        tables = topology._posets_with_up_set_count
        read = []

        def recording(c, k):
            read.append((c, k))
            return tables(c, k)

        _clear_table_caches()
        monkeypatch.setattr(topology, "_posets_with_up_set_count", recording)
        try:
            outcome = find_tiasl(parse_graph6("Ej]?"))
        finally:
            monkeypatch.undo()
            _clear_table_caches()
        assert sorted(set(read)) == [(3, 7), (4, 7)]
        assert outcome.found and str(outcome.witness.topology.ground) == "{0,1,2,3,4}"
        assert [str(s) for s in outcome.witness.labeling.vertex_labels] == [
            "{0}", "{2}", "{0,2}", "{1,2}", "{0,1,2}", "{0,1,2,3,4}",
        ]
        assert outcome.certificate == Certificate(131, 5025, 1264)


def _fresh_interpreter(script):
    """Standard output of ``script`` run by a new interpreter on this
    package, which starts with no module of it loaded."""
    src = os.path.dirname(os.path.dirname(search.__file__))
    paths = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    run = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True,
    )
    return run.stdout


class TestThreads:
    def test_no_process_pool_is_imported(self, tmp_path):
        """A search and a sweep under ``--threads 2`` run in the calling
        process, so a fresh interpreter never imports a process pool."""
        graph = tmp_path / "pan4.edges"
        graph.write_text(format_edge_list(pan(4)))
        stdout = _fresh_interpreter(
            "import sys\n"
            "from tiasl.cli import main\n"
            f"main(['search', {str(graph)!r}, '--tsin', '--threads', '2'])\n"
            "main(['sweep', '--max-n', '4', '--threads', '2'])\n"
            "pool = ('multiprocessing', 'concurrent.futures')\n"
            "print('loaded:', [m for m in pool if m in sys.modules])\n"
        )
        assert "pendants=0 exhausted" in stdout and "tsin: 4" in stdout
        assert stdout.splitlines()[-1] == "loaded: []"


class TestImports:
    def test_numpy_is_loaded_only_by_the_catalog(self, tmp_path):
        """Only the catalog's orbit marking uses numpy, so every command
        that reads no catalog runs without importing it."""
        graph = tmp_path / "pan3.edges"
        graph.write_text(format_edge_list(pan(3)))
        labels = tmp_path / "pan3.labels"
        labels.write_text(
            "ground: {0,1,2,3}\nv0: {0}\nv1: {0,1}\nv2: {0,1,2}\nv3: {0,1,2,3}\n"
        )
        stdout = _fresh_interpreter(
            "import sys\n"
            "from tiasl.cli import main\n"
            f"assert main(['search', {str(graph)!r}, '--tsin']) == 0\n"
            "assert main(['topologies', '--ground', '{0,1,2}', '--count']) == 0\n"
            "assert main(['construct', '--family', 'pan', '-n', '3']) == 0\n"
            f"assert main(['verify', {str(graph)!r}, {str(labels)!r}]) == 0\n"
            "print('numpy before the sweep:', 'numpy' in sys.modules)\n"
            "assert main(['sweep', '--max-n', '3']) == 0\n"
            "print('numpy after the sweep:', 'numpy' in sys.modules)\n"
        )
        lines = stdout.splitlines()
        assert "tsin: 3" in lines and "29" in lines
        assert "numpy before the sweep: False" in lines
        assert lines[-1] == "numpy after the sweep: True"


class TestIndexingNumber:
    # Minimum ground set sizes over the default windows.
    FROZEN = [
        (path(2), 2),
        (path(3), 2),
        (path(4), 3),
        (path(5), 4),
        (star(3), 3),
        (pan(4), 4),
        (star(5), 4),
    ]

    @pytest.mark.parametrize("g,want", FROZEN, ids=lambda v: str(v))
    def test_frozen_values(self, g, want):
        tsin, out = topological_set_indexing_number(g)
        assert tsin == want
        assert len(out.witness.topology.ground) == want
        assert verify_tiasl(out.witness.labeling).is_tiasl

    def test_single_vertex(self):
        tsin, out = topological_set_indexing_number(path(1))
        assert tsin == 1
        assert [s.elements for s in out.witness.topology.opens] == [(), (0,)]

    def test_none_when_pruned(self):
        tsin, out = topological_set_indexing_number(cycle(5))
        assert tsin is None and out.status == "pruned-by-theorem"

    def test_none_when_exhausted(self):
        tsin, out = topological_set_indexing_number(
            cycle(4), SearchBounds(3, 4), pendant_prune=False
        )
        assert tsin is None and out.status == "exhausted"


class TestDiscreteAdmissibility:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_stars_admissible(self, k):
        g = star(2**k - 2)
        verdict = discrete_admissibility(g, GroundSet.from_elements(range(k)))
        assert verdict.admissible and bool(verdict)
        assert verdict.reason is None
        rep = verify_tiasl(verdict.labeling)
        assert rep.is_tiasl and rep.topology_is_discrete

    def test_path3_boundary(self):
        verdict = discrete_admissibility(path(3), ground(0, 1))
        assert verdict.admissible

    def test_order_parity(self):
        verdict = discrete_admissibility(path(4), ground(0, 1))
        assert not verdict and verdict.reason == "order parity"

    def test_order_mismatch(self):
        verdict = discrete_admissibility(path(3), ground(0, 1, 2))
        assert verdict.reason == "order mismatch"

    def test_pendant_deficiency(self):
        verdict = discrete_admissibility(cycle(3), ground(0, 1))
        assert verdict.reason == "pendant deficiency"

    def test_no_bijection(self):
        edges = [(0, i) for i in range(1, 15)]
        edges += [(u, v) for u in range(9, 15) for v in range(u + 1, 15)]
        g = Graph.from_edges(15, edges)
        verdict = discrete_admissibility(g, ground(0, 1, 2, 3))
        assert verdict.reason == "no bijection"

    def test_large_star_control(self):
        verdict = discrete_admissibility(star(14), ground(0, 1, 2, 3))
        assert verdict.admissible

    def test_eleven_points_refused_before_any_open(self, monkeypatch):
        """An order-2,047 star passes both necessary conditions on 11
        points; the discrete topology's pair budget refuses it before any
        open, or the 2,047-square compatibility matrix, is built."""

        def no_build(ground, masks):
            raise AssertionError("opens built")

        monkeypatch.setattr(topology, "_topology_from_masks", no_build)
        with pytest.raises(DomainError, match="^the discrete topology on 11 points "):
            discrete_admissibility(star(2046), GroundSet.from_elements(range(11)))


class TestTheoremSweep:
    def test_sweep_3(self):
        report = theorem_sweep(3)
        assert report.graphs_processed == 4
        assert report.inconsistencies == ()
        by_code = {e.graph6: e for e in report.entries}
        assert by_code["@"].disposition == "exhausted"
        assert "(empty search window)" in by_code["@"].note
        assert by_code["A_"].disposition == "constructed"
        assert by_code["Bw"].disposition == "exhausted"
        assert "ground_sets=8" in by_code["Bw"].note

    def test_sweep_4(self):
        report = theorem_sweep(4)
        assert report.graphs_processed == 10
        assert report.inconsistencies == ()
        dispositions = {e.disposition for e in report.entries}
        assert dispositions == {"constructed", "exhausted"}

    def test_sweep_verifies_each_construction_once(self, monkeypatch):
        """Constructions come verified, and no order-5 pendant-free graph has
        a witness to verify, so the sweep never calls the search's verifier."""

        def no_verify(l):
            raise AssertionError("search verifier called")

        monkeypatch.setattr(search, "verify_tiasl", no_verify)
        report = theorem_sweep(5)
        assert report.inconsistencies == ()
        assert report.graphs_processed == 31

    def test_sweep_thread_invariant(self, capsys):
        """The same CLI bytes, those of the report, with and without
        ``--threads 2``."""
        report = format_sweep_report(theorem_sweep(4))
        for threads in ([], ["--threads", "2"]):
            assert main(["sweep", "--max-n", "4", *threads]) == 0
            assert capsys.readouterr().out == report

    def test_sweep_window_override(self):
        """Overriding the window narrows the per-graph search for every graph,
        and widens the single-vertex graph's otherwise-empty window — which
        surfaces the boundary of the pendant characterization: that graph alone
        is pendant-free yet labelable, and the sweep reports it honestly."""
        report = theorem_sweep(3, max_element=1, max_ground_size=2)
        tri = next(e for e in report.entries if e.graph6 == "Bw")
        assert tri.disposition == "exhausted"
        assert "ground_sets=2" in tri.note
        assert [e.graph6 for e in report.inconsistencies] == ["@"]
        k1 = report.inconsistencies[0]
        assert k1.disposition == "found" and not k1.consistent
        assert "ground {0}" in k1.note

    def test_guard(self, monkeypatch):
        """Orders outside the catalog are refused by it before any graph is
        swept; order 7 in the default window is refused by the poset tables
        at its first 6-element ground set."""
        with pytest.raises(DomainError, match=r"^poset tables on 6 classes"):
            theorem_sweep(7)

        def no_sweep(*args):
            raise AssertionError("graph swept")

        monkeypatch.setattr(search, "_sweep_one", no_sweep)
        for max_n in (0, 8):
            with pytest.raises(
                DomainError, match=rf"^catalog covers orders 1\.\.7, got {max_n}$"
            ):
                theorem_sweep(max_n)


class TestOutputForms:
    def test_format_search_outcome(self):
        out = find_tiasl(pan(3))
        text = format_search_outcome(out)
        assert "status: found" in text
        assert "--- labeling ---" in text and "--- topology ---" in text
        assert "ground: {0,1,2}" in text

    def test_outcome_to_dict(self):
        out = find_tiasl(pan(3))
        d = outcome_to_dict(out)
        assert d["status"] == "found"
        assert d["witness"]["ground"] == "{0,1,2}"
        assert d["certificate"]["ground_sets_tried"] == 7
        pruned = outcome_to_dict(find_tiasl(cycle(4)))
        assert pruned["status"] == "pruned-by-theorem"
        assert pruned["witness"] is None

    def test_format_sweep_report(self):
        from tiasl import format_sweep_report, sweep_report_to_dict

        report = theorem_sweep(3)
        text = format_sweep_report(report)
        assert "all consistent" in text
        d = sweep_report_to_dict(report)
        assert d["graphs_processed"] == 4
        assert d["inconsistent"] == 0
        assert len(d["entries"]) == 4
