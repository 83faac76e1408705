"""Graphs: families, codecs, connected catalog."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiasl import (
    CATALOG_GUARD,
    DomainError,
    Graph,
    ParseError,
    complete,
    complete_bipartite,
    connected_graph_catalog,
    cycle,
    emit_graph6,
    format_edge_list,
    is_connected,
    isolated_vertices,
    ladle,
    pan,
    parse_edge_list,
    parse_graph6,
    path,
    pendant_vertices,
    shovel,
    star,
    tadpole,
)

from tiasl.graph import ORDER_GUARD

from oracles import canonical_edge_mask


class TestGraphType:
    def test_from_edges_normalizes(self):
        g = Graph.from_edges(3, [(2, 0), (0, 1)])
        assert g.edges == frozenset({(0, 2), (0, 1)})
        assert g.size == 2
        assert g.has_edge(2, 0) and not g.has_edge(1, 2)

    def test_rejects_self_loop_and_bad_range(self):
        with pytest.raises(DomainError):
            Graph.from_edges(2, [(1, 1)])
        with pytest.raises(DomainError):
            Graph.from_edges(2, [(0, 2)])
        with pytest.raises(DomainError):
            Graph(-1, frozenset())

    def test_degrees_and_neighbors(self):
        g = star(3)
        assert g.degrees() == (3, 1, 1, 1)
        assert g.neighbors(0) == (1, 2, 3)
        assert g.degree(1) == 1
        with pytest.raises(DomainError):
            g.degree(9)

    @pytest.mark.parametrize("v", [-1, 4])
    def test_vertex_out_of_range(self, v):
        g = star(3)
        assert g.neighbors(3) == (0,)
        with pytest.raises(DomainError, match=f"vertex {v} out of range"):
            g.neighbors(v)
        with pytest.raises(DomainError, match=f"vertex {v} out of range"):
            g.degree(v)

    def test_pendants_isolated_connected(self):
        g = path(4)
        assert pendant_vertices(g) == (0, 3)
        assert isolated_vertices(g) == ()
        assert is_connected(g)
        h = Graph.from_edges(3, [(0, 1)])
        assert isolated_vertices(h) == (2,)
        assert not is_connected(h)


class TestFamilies:
    def test_path(self):
        assert path(1).order == 1 and path(1).size == 0
        assert path(4).edges == frozenset({(0, 1), (1, 2), (2, 3)})
        with pytest.raises(DomainError):
            path(0)

    def test_cycle(self):
        g = cycle(4)
        assert g.size == 4 and all(d == 2 for d in g.degrees())
        with pytest.raises(DomainError):
            cycle(2)

    def test_star(self):
        g = star(5)
        assert g.order == 6 and g.degrees()[0] == 5
        with pytest.raises(DomainError):
            star(0)

    def test_complete(self):
        assert complete(4).size == 6
        assert complete(1).size == 0
        with pytest.raises(DomainError):
            complete(0)

    def test_complete_bipartite(self):
        g = complete_bipartite(2, 3)
        assert g.order == 5 and g.size == 6
        assert not g.has_edge(0, 1) and g.has_edge(0, 2)
        with pytest.raises(DomainError):
            complete_bipartite(0, 3)

    def test_ladle_path_is_longer_path(self):
        g = ladle(path(1), 0, 3)
        assert g.order == 4
        assert g.edges == path(4).edges

    def test_ladle_validates_attach(self):
        with pytest.raises(DomainError):
            ladle(cycle(3), 5, 1)
        with pytest.raises(DomainError):
            ladle(cycle(3), 0, 0)

    def test_tadpole_pan_shovel(self):
        t = tadpole(3, 2)
        assert t.order == 5 and t.size == 5
        assert pendant_vertices(t) == (4,)
        p = pan(4)
        assert p.order == 5 and p.size == 5
        assert p.edges == tadpole(4, 1).edges
        s = shovel(3, 1)
        assert s.order == 4 and s.size == 4
        assert pendant_vertices(s) == (3,)
        with pytest.raises(DomainError):
            tadpole(2, 1)
        with pytest.raises(DomainError):
            shovel(3, 0)


class TestGraph6:
    FIXED = [
        (Graph.from_edges(2, [(0, 1)]), "A_"),
        (path(3), "Bg"),
        (cycle(5), "Dhc"),
    ]

    @pytest.mark.parametrize("g,code", FIXED)
    def test_fixed_vectors(self, g, code):
        assert emit_graph6(g) == code
        assert parse_graph6(code).edges == g.edges

    def test_star_decode(self):
        g = parse_graph6("D?{")
        assert g.order == 5
        assert sorted(g.degrees(), reverse=True) == [4, 1, 1, 1, 1]

    def test_parse_errors(self):
        with pytest.raises(ParseError) as e:
            parse_graph6("")
        assert e.value.offset == 0
        with pytest.raises(ParseError):
            parse_graph6("~??")  # extended form
        with pytest.raises(ParseError):
            parse_graph6("B")  # truncated body
        with pytest.raises(ParseError):
            parse_graph6("A" + chr(30))  # byte out of range
        with pytest.raises(ParseError):
            parse_graph6("A" + chr(63 + 1))  # non-zero padding for n=2

    def test_order_guard(self):
        with pytest.raises(DomainError):
            emit_graph6(Graph(63, frozenset()))

    @given(
        st.integers(min_value=1, max_value=8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.frozensets(
                    st.tuples(
                        st.integers(0, n - 1), st.integers(0, n - 1)
                    ).filter(lambda p: p[0] != p[1])
                ),
            )
        )
    )
    @settings(max_examples=200)
    def test_round_trip(self, n_pairs):
        n, pairs = n_pairs
        g = Graph.from_edges(n, pairs)
        assert parse_graph6(emit_graph6(g)) == g


class TestEdgeListText:
    def test_round_trip(self):
        for g in (path(1), path(4), cycle(5), star(3)):
            assert parse_edge_list(format_edge_list(g)) == g

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as e:
            parse_edge_list("3 2\n0 1\n1 1\n")
        assert e.value.offset == 3
        with pytest.raises(ParseError) as e:
            parse_edge_list("3 1\n0 5\n")
        assert e.value.offset == 2
        with pytest.raises(ParseError) as e:
            parse_edge_list("3 2\n0 1\n0 1\n")
        assert "duplicate" in str(e.value)
        with pytest.raises(ParseError):
            parse_edge_list("x y\n")
        with pytest.raises(ParseError):
            parse_edge_list("3 2\n0 1\n")  # count mismatch
        with pytest.raises(ParseError):
            parse_edge_list("")

    def test_huge_words_refused(self):
        big = "1" * 5000
        for text, line in ((big + " 0\n", 1), ("2 " + big + "\n", 1), ("2 1\n0 " + big + "\n", 2)):
            with pytest.raises(ParseError, match="5000 digits") as e:
                parse_edge_list(text)
            assert e.value.offset == line
        assert parse_edge_list("0" * 5000 + "2 1\n0 " + "0" * 5000 + "1\n") == path(2)

    def test_order_guard(self):
        """The declared order is refused above ORDER_GUARD before any
        per-vertex table is built."""
        assert parse_edge_list(f"{ORDER_GUARD} 0\n").order == ORDER_GUARD
        with pytest.raises(ParseError, match="exceeds the limit") as e:
            parse_edge_list(f"# big\n{ORDER_GUARD + 1} 0\n")
        assert e.value.offset == 2

    def test_comment_lines_skipped(self):
        assert parse_edge_list("# c\n2 1\n0 1\n") == path(2)
        assert parse_edge_list("3 2\n# first\n0 1\n  # second\n1 2\n") == path(3)
        with pytest.raises(ParseError, match="empty"):
            parse_edge_list("# only a comment\n")

    def test_errors_report_physical_lines(self):
        with pytest.raises(ParseError) as e:
            parse_edge_list("3 2\n\n\n0 1\n0 0\n")
        assert e.value.offset == 5
        with pytest.raises(ParseError) as e:
            parse_edge_list("# c\n\nx y\n")
        assert e.value.offset == 3


class TestCatalog:
    # Connected simple graphs on n unlabeled vertices, n = 1..7.
    COUNTS = [1, 1, 2, 6, 21, 112, 853]

    def test_counts(self):
        from collections import Counter

        counts = Counter(g.order for g in connected_graph_catalog(7))
        assert [counts[n] for n in range(1, 8)] == self.COUNTS

    def test_guard(self):
        with pytest.raises(DomainError):
            list(connected_graph_catalog(CATALOG_GUARD + 1))
        with pytest.raises(DomainError):
            list(connected_graph_catalog(0))

    def test_each_order_built_once(self, monkeypatch):
        from tiasl import graph

        graph._connected_graphs_of_order.cache_clear()
        first = list(connected_graph_catalog(5))
        calls = []
        original = Graph.from_edges.__func__

        def counting(cls, *args):
            calls.append(args)
            return original(cls, *args)

        monkeypatch.setattr(Graph, "from_edges", classmethod(counting))
        assert list(connected_graph_catalog(5)) == first
        assert calls == []

    def test_order_stable_and_members_connected(self):
        graphs = list(connected_graph_catalog(5))
        codes = [emit_graph6(g) for g in graphs]
        assert len(codes) == len(set(codes))
        assert [g.order for g in graphs] == sorted(g.order for g in graphs)
        for g in graphs:
            assert is_connected(g)
        assert codes == [emit_graph6(g) for g in connected_graph_catalog(5)]

    def test_representatives_are_canonical_and_nonisomorphic(self):
        """For n <= 5: every representative is the least graph in its
        isomorphism class, and no two representatives are isomorphic
        (checked against a permutation-scan oracle)."""
        seen = set()
        for g in connected_graph_catalog(5):
            n = g.order
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            slot = {p: i for i, p in enumerate(pairs)}
            mask = sum(1 << slot[e] for e in g.edges)
            canon = canonical_edge_mask(n, g.edges)
            assert mask == canon, f"non-canonical representative at n={n}"
            assert (n, canon) not in seen
            seen.add((n, canon))
