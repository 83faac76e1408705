"""Explicit TIASL constructions.

Every constructor re-verifies its output with the full verifier before
returning, so a successful return is itself a checked certificate.
"""

from __future__ import annotations

from .graph import Graph, complete, pendant_vertices, shovel, star, tadpole
from .intset import DomainError, GroundSet, IntSet, check_universe
from .labeling import SetLabeling, verify_tiasl
from .topology import Topology, discrete_topology


def _interval(top: int) -> IntSet:
    """{0..top} as an IntSet."""
    return IntSet.from_mask((1 << (top + 1)) - 1)


def _checked(l: SetLabeling) -> SetLabeling:
    if not verify_tiasl(l).is_tiasl:
        raise RuntimeError("internal error: construction failed verification")
    return l


def realize_topology_star(t: Topology) -> SetLabeling:
    """A star whose center carries {0} and whose leaves carry the remaining
    non-empty opens: every topology with {0} open and at least three opens is
    carried by K_{1,r} with r = open count - 2."""
    zero = IntSet((0,))
    if zero not in t.opens:
        raise DomainError("realization needs {0} among the opens")
    if t.open_count < 3:
        raise DomainError(
            f"realization needs at least three opens, got {t.open_count}"
        )
    leaves = [o for o in t.nonempty_opens if o != zero]
    g = star(len(leaves))
    return _checked(SetLabeling(g, t.ground, (zero, *leaves)))


def saturate_realization(l: SetLabeling) -> SetLabeling:
    """Add every missing edge whose sumset stays inside the ground set.  The
    labels are unchanged, so the result is again a TIASL, now edge-maximal."""
    if not verify_tiasl(l).is_tiasl:
        raise DomainError("saturation requires a TIASL")
    full = l.ground.members.mask
    edges = set(l.graph.edges)
    n = l.graph.order
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) in edges:
                continue
            s = l.vertex_labels[u] + l.vertex_labels[v]
            if s.mask & ~full == 0:
                edges.add((u, v))
    g = Graph(n, frozenset(edges))
    return _checked(SetLabeling(g, l.ground, l.vertex_labels))


def _label_handle(
    build, n: int, m: int, ground_max: int | None, name: str
) -> SetLabeling:
    """The labeling of :func:`label_tadpole` on the graph ``build(n, m)``: a
    base graph of n vertices followed by an m-vertex handle at vertex 0.
    ``name`` opens the message for a too-small ``ground_max``; a ground set
    beyond the universe is refused before the graph or any mask is built."""
    least = 2 * (m + n) - 5
    if ground_max is None:
        ground_max = least
    if ground_max < least:
        raise DomainError(f"{name} needs ground_max >= {least}, got {ground_max}")
    check_universe(ground_max)
    x = GroundSet(_interval(ground_max))
    labels = [_interval(m + j - 1) for j in range(n)]
    labels.extend(_interval(m - 2 - k) for k in range(m - 1))
    labels.append(x.members)
    return _checked(SetLabeling(build(n, m), x, tuple(labels)))


def label_pan(n: int, ground_max: int | None = None) -> SetLabeling:
    """TIASL of the pan (cycle on n >= 3 plus one pendant): the tadpole
    labeling with m = 1, so cycle vertex i carries {0..i} and the pendant
    carries X = {0..ground_max} with ground_max >= 2n-3."""
    if n < 3:
        raise DomainError(f"pan needs a cycle on at least three vertices, got {n}")
    return _label_handle(tadpole, n, 1, ground_max, f"pan on {n} cycle vertices")


def label_tadpole(n: int, m: int, ground_max: int | None = None) -> SetLabeling:
    """TIASL of the tadpole (cycle on n >= 3, handle of m >= 1 vertices at
    vertex 0): cycle vertex j carries {0..m+j-1}, handle vertex n+k carries
    {0..m-2-k}, and the pendant end carries X = {0..ground_max}, which needs
    ground_max >= 2(m+n)-5."""
    if n < 3:
        raise DomainError(f"tadpole needs a cycle on at least three vertices, got {n}")
    if m < 1:
        raise DomainError(f"tadpole needs a handle of at least one vertex, got {m}")
    return _label_handle(tadpole, n, m, ground_max, f"tadpole({n},{m})")


def label_shovel(n: int, m: int, ground_max: int | None = None) -> SetLabeling:
    """TIASL of the shovel (complete graph on n >= 3, handle of m >= 1
    vertices at vertex 0): the tadpole's labels on a clique instead of a
    cycle; the worst clique edge reaches exactly 2(m+n)-5."""
    if n < 3:
        raise DomainError(f"shovel needs a clique on at least three vertices, got {n}")
    if m < 1:
        raise DomainError(f"shovel needs a handle of at least one vertex, got {m}")
    return _label_handle(shovel, n, m, ground_max, f"shovel({n},{m})")


def label_any_pendant(g: Graph) -> SetLabeling:
    """TIASL of any graph with a pendant vertex and no isolated vertices:
    the least pendant vertex carries X = {0..2n-3}, its neighbor carries {0},
    and the remaining vertices carry the chain {0,1}, {0,1,2}, … in ascending
    vertex order.  Every pendant graph admits one, so together with the
    search exhaustions this pins the pendant characterization."""
    pendants = pendant_vertices(g)
    if not pendants:
        raise DomainError("graph has no pendant vertex")
    degrees = g.degrees()
    if any(d == 0 for d in degrees):
        raise DomainError("graph has an isolated vertex")
    n = g.order
    p = pendants[0]
    (q,) = g.neighbors(p)
    x = GroundSet(_interval(2 * n - 3))
    labels: list[IntSet | None] = [None] * n
    labels[p] = x.members
    labels[q] = IntSet((0,))
    top = 1
    for v in range(n):
        if labels[v] is None:
            labels[v] = _interval(top)
            top += 1
    return _checked(SetLabeling(g, x, tuple(labels)))


def label_star_discrete(k: int) -> SetLabeling:
    """TIASL of the star K_{1,2^k-2} carrying the discrete topology on
    {0..k-1}: its star realization, with the center on {0} and the leaves on
    the other non-empty subsets.  For k = 1 the star degenerates to a single
    vertex; :func:`discrete_topology` refuses k > 10."""
    if k < 1:
        raise DomainError(f"discrete star needs k >= 1, got {k}")
    check_universe(k - 1)
    x = GroundSet(_interval(k - 1))
    if k == 1:
        return _checked(SetLabeling(complete(1), x, (IntSet((0,)),)))
    return realize_topology_star(discrete_topology(x))
