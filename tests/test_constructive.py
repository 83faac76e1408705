"""Closed-form constructions and topology realizations."""

import pytest

from tiasl import (
    DomainError,
    Graph,
    GroundSet,
    IntSet,
    chain_topology,
    connected_graph_catalog,
    cycle,
    discrete_topology,
    indiscrete_topology,
    label_any_pendant,
    label_pan,
    label_shovel,
    label_star_discrete,
    label_tadpole,
    pendant_vertices,
    path,
    realize_topology_star,
    saturate_realization,
    shovel,
    sierpinski_topology,
    verify_tiasl,
)


def interval(top):
    return IntSet(range(top + 1))


class TestFamilyLabelings:
    @pytest.mark.parametrize("n", range(3, 8))
    def test_pan_grid(self, n):
        l = label_pan(n)
        rep = verify_tiasl(l)
        assert rep.is_tiasl
        assert l.ground.max_element == 2 * n - 3
        assert l.vertex_labels[-1] == l.ground.members

    @pytest.mark.parametrize("n,m", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 2)])
    def test_tadpole_grid(self, n, m):
        l = label_tadpole(n, m)
        assert verify_tiasl(l).is_tiasl
        assert l.ground.max_element == 2 * (m + n) - 5

    @pytest.mark.parametrize("n,m", [(3, 1), (3, 2), (4, 1), (4, 2), (5, 1)])
    def test_shovel_grid(self, n, m):
        l = label_shovel(n, m)
        assert verify_tiasl(l).is_tiasl
        assert l.ground.max_element == 2 * (m + n) - 5

    def test_tadpole_3_2_exact_labels(self):
        l = label_tadpole(3, 2)
        assert [s.elements for s in l.vertex_labels] == [
            (0, 1),
            (0, 1, 2),
            (0, 1, 2, 3),
            (0,),
            (0, 1, 2, 3, 4, 5),
        ]

    def test_shovel_3_1_exact_labels(self):
        l = label_shovel(3, 1)
        assert [s.elements for s in l.vertex_labels] == [
            (0,),
            (0, 1),
            (0, 1, 2),
            (0, 1, 2, 3),
        ]

    def test_shovel_bound_is_tight(self):
        """The worst clique edge of the shovel labeling reaches exactly the
        default ground maximum 2(m+n)-5."""
        for n, m in [(3, 1), (4, 1), (4, 2)]:
            l = label_shovel(n, m)
            clique_edges = [
                (u, v) for u, v in l.graph.edges if u < n and v < n
            ]
            worst = max(
                l.vertex_labels[u].max_element + l.vertex_labels[v].max_element
                for u, v in clique_edges
            )
            assert worst == 2 * (m + n) - 5

    def test_ground_max_override(self):
        l = label_pan(3, ground_max=5)
        assert verify_tiasl(l).is_tiasl
        assert l.ground.max_element == 5
        with pytest.raises(DomainError):
            label_pan(3, ground_max=2)
        with pytest.raises(DomainError):
            label_tadpole(3, 2, ground_max=4)
        with pytest.raises(DomainError):
            label_shovel(3, 1, ground_max=2)

    def test_family_preconditions(self):
        with pytest.raises(DomainError):
            label_pan(2)
        with pytest.raises(DomainError):
            label_tadpole(2, 1)
        with pytest.raises(DomainError):
            label_tadpole(3, 0)
        with pytest.raises(DomainError):
            label_shovel(2, 1)


class TestSharedHandleLabeling:
    @pytest.mark.parametrize("n", range(3, 8))
    def test_pan_is_the_tadpole_with_one_handle_vertex(self, n):
        for ground_max in (None, 2 * n - 3, 2 * n + 2):
            assert label_pan(n, ground_max) == label_tadpole(n, 1, ground_max)

    @pytest.mark.parametrize("n,m", [(3, 1), (3, 3), (4, 2), (5, 1), (6, 4)])
    def test_shovel_carries_the_tadpole_labels_on_a_clique(self, n, m):
        s, t = label_shovel(n, m), label_tadpole(n, m)
        assert s.vertex_labels == t.vertex_labels and s.ground == t.ground
        assert s.graph == shovel(n, m)

    def test_too_small_ground_names_the_family(self):
        for call, message in [
            (lambda: label_pan(4, 4), "pan on 4 cycle vertices needs ground_max >= 5, got 4"),
            (lambda: label_tadpole(4, 2, 6), "tadpole(4,2) needs ground_max >= 7, got 6"),
            (lambda: label_shovel(3, 2, 0), "shovel(3,2) needs ground_max >= 5, got 0"),
        ]:
            with pytest.raises(DomainError) as exc:
                call()
            assert str(exc.value) == message


class TestHandleGroundWindow:
    """A ground set past the universe limit is refused before the graph or
    any mask is built."""

    @pytest.mark.parametrize(
        "call,builder,top",
        [
            (lambda: label_shovel(10**6, 1), "shovel", 1999997),
            (lambda: label_pan(300000), "tadpole", 599997),
            (lambda: label_pan(3, 10**9), "tadpole", 10**9),
            (lambda: label_tadpole(3, 31, 65), "tadpole", 65),
        ],
    )
    def test_refused_before_building(self, monkeypatch, call, builder, top):
        from tiasl import constructive

        def refuse(*args):
            raise AssertionError("built a graph past the universe limit")

        monkeypatch.setattr(constructive, builder, refuse)
        monkeypatch.setattr(constructive, "_interval", refuse)
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == f"ground set element {top} exceeds the universe limit 64"

    def test_largest_window_is_built(self):
        assert label_tadpole(3, 31, 64).ground.max_element == 64


class TestPendantGeneric:
    def test_k2_gives_sierpinski(self):
        l = label_any_pendant(path(2))
        assert [s.elements for s in l.vertex_labels] == [(0, 1), (0,)]
        rep = verify_tiasl(l)
        assert rep.is_tiasl

    def test_all_catalog_pendant_graphs(self):
        """Every connected graph on up to 5 vertices with a pendant vertex
        gets a verified labeling with the least pendant carrying the full
        ground set."""
        covered = 0
        for g in connected_graph_catalog(5):
            pendants = pendant_vertices(g)
            if not pendants:
                continue
            l = label_any_pendant(g)
            assert verify_tiasl(l).is_tiasl
            assert l.vertex_labels[pendants[0]] == l.ground.members
            assert l.ground.max_element == 2 * g.order - 3
            covered += 1
        assert covered >= 15

    def test_least_pendant_chosen(self):
        g = Graph.from_edges(
            5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)]
        )
        l = label_any_pendant(g)
        assert l.vertex_labels[3] == l.ground.members
        assert l.vertex_labels[0] == IntSet([0])

    def test_deterministic(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
        assert label_any_pendant(g) == label_any_pendant(g)

    def test_preconditions(self):
        with pytest.raises(DomainError, match="no pendant"):
            label_any_pendant(cycle(4))
        with pytest.raises(DomainError, match="isolated"):
            label_any_pendant(Graph.from_edges(3, [(0, 1)]))


class TestRealization:
    def test_chain_realized_as_star(self):
        t = chain_topology(2, GroundSet.from_elements([0, 1, 2]))
        l = realize_topology_star(t)
        assert l.graph.order == t.open_count - 1
        assert l.vertex_labels[0] == IntSet([0])
        assert verify_tiasl(l).is_tiasl

    def test_sierpinski_realized_as_edge(self):
        l = realize_topology_star(
            sierpinski_topology(GroundSet.from_elements([0, 1]))
        )
        assert l.graph.order == 2 and l.graph.size == 1

    def test_nine_open_realization(self):
        from tiasl import Topology

        fam = [
            IntSet(s)
            for s in [
                (),
                (0,),
                (1,),
                (0, 1),
                (0, 2),
                (0, 1, 2),
                (0, 2, 3),
                (0, 1, 2, 3),
                (0, 1, 2, 3, 4),
            ]
        ]
        t = Topology.from_family(fam, GroundSet.from_elements(range(5)))
        l = realize_topology_star(t)
        assert l.graph.order == 8
        assert verify_tiasl(l).is_tiasl

    def test_preconditions(self):
        with pytest.raises(DomainError, match=r"\{0\}"):
            realize_topology_star(indiscrete_topology(GroundSet.from_elements([0, 1])))
        with pytest.raises(DomainError, match="three opens"):
            realize_topology_star(discrete_topology(GroundSet.from_elements([0])))


class TestSaturation:
    def test_discrete_star_saturation(self):
        """On the discrete star for k=3 exactly one leaf-leaf edge fits:
        {1}+{0,1} = {1,2}; every other candidate sumset escapes {0,1,2}."""
        l = label_star_discrete(3)
        sat = saturate_realization(l)
        assert sat.vertex_labels == l.vertex_labels
        assert l.graph.edges < sat.graph.edges
        i1 = l.vertex_labels.index(IntSet([1]))
        i01 = l.vertex_labels.index(IntSet([0, 1]))
        i2 = l.vertex_labels.index(IntSet([2]))
        added = sat.graph.edges - l.graph.edges
        assert added == frozenset({tuple(sorted((i1, i01)))})
        assert not sat.graph.has_edge(i1, i2)
        assert verify_tiasl(sat).is_tiasl

    def test_saturation_is_maximal(self):
        sat = saturate_realization(label_star_discrete(3))
        full = sat.ground.members.mask
        for u in range(sat.graph.order):
            for v in range(u + 1, sat.graph.order):
                if not sat.graph.has_edge(u, v):
                    s = sat.vertex_labels[u] + sat.vertex_labels[v]
                    assert s.mask & ~full != 0

    def test_requires_tiasl(self):
        from tiasl import SetLabeling

        bad = SetLabeling(
            path(2),
            GroundSet.from_elements([0, 1]),
            (IntSet([0, 1]), IntSet([1])),
        )
        with pytest.raises(DomainError):
            saturate_realization(bad)


class TestStarDiscrete:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_grid(self, k):
        l = label_star_discrete(k)
        rep = verify_tiasl(l)
        assert rep.is_tiasl and rep.topology_is_discrete
        assert l.graph.order == 2**k - 1
        assert l.vertex_labels[0] == IntSet([0])

    def test_degenerate_single_vertex(self):
        l = label_star_discrete(1)
        assert l.graph.order == 1
        assert l.vertex_labels == (IntSet([0]),)
        rep = verify_tiasl(l)
        assert rep.is_tiasl and rep.topology_is_discrete

    def test_precondition(self):
        with pytest.raises(DomainError):
            label_star_discrete(0)

    def test_guard_refuses_before_building(self, monkeypatch):
        """k = 11 is refused by name before the discrete topology is built;
        k = 10, the limit, is still built and verified."""
        from tiasl import constructive

        def refuse(x):
            raise AssertionError("built a topology past the guard")

        monkeypatch.setattr(constructive, "discrete_topology", refuse)
        with pytest.raises(DomainError, match="1 <= k <= 10, got 11"):
            label_star_discrete(11)
        monkeypatch.undo()
        assert label_star_discrete(10).graph.order == 2**10 - 1

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_is_the_star_realization_of_the_discrete_topology(self, k):
        x = GroundSet(IntSet(range(k)))
        assert label_star_discrete(k) == realize_topology_star(discrete_topology(x))
