"""Finite simple graphs on vertices 0..n-1, plus family constructors,
graph6 and edge-list text forms, and a small isomorphism-free catalog of
connected graphs."""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .intset import DomainError, ParseError, numbered_lines, parse_decimal

#: Largest order with an n! cost: the catalog marks whole permutation
#: orbits, so n! times the number of isomorphism classes must stay
#: desk-sized, and the search's bijection backtracker makes up to
#: floor(e * n!) - 1 vertex assignments per topology (13,699 at n = 7).
CATALOG_GUARD = 7

#: Largest order an edge list may declare.  ``Graph.degrees``/``adjacency``
#: and ``SetLabeling.from_mapping`` allocate and walk one entry per vertex,
#: so the declared order alone would otherwise set their memory and time.
ORDER_GUARD = 2**16


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; edges are stored as (u, v) pairs with u < v."""

    order: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.order < 0:
            raise DomainError("graph order must be non-negative")
        for u, v in self.edges:
            if not (0 <= u < v < self.order):
                raise DomainError(f"edge ({u}, {v}) is not a valid pair of distinct vertices")

    @classmethod
    def from_edges(cls, order: int, pairs) -> "Graph":
        edges = set()
        for u, v in pairs:
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            edges.add((u, v) if u < v else (v, u))
        return cls(order, frozenset(edges))

    @property
    def size(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return tuple(self.adjacency()[v])

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.order)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for row in adj:
            row.sort()
        return adj

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.order:
            raise DomainError(f"vertex {v} out of range")

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.degrees()[v]

    def degrees(self) -> tuple[int, ...]:
        d = [0] * self.order
        for u, v in self.edges:
            d[u] += 1
            d[v] += 1
        return tuple(d)


def pendant_vertices(g: Graph) -> tuple[int, ...]:
    """Vertices of degree exactly 1, ascending."""
    return tuple(v for v, d in enumerate(g.degrees()) if d == 1)


def isolated_vertices(g: Graph) -> tuple[int, ...]:
    return tuple(v for v, d in enumerate(g.degrees()) if d == 0)


def is_connected(g: Graph) -> bool:
    """Breadth-first search from vertex 0: does it reach every vertex?"""
    if g.order == 0:
        return False
    adj = g.adjacency()
    seen = {0}
    queue = deque((0,))
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == g.order


# ---------------------------------------------------------------------------
# families


def path(m: int) -> Graph:
    """Path on m >= 1 vertices (m-1 edges)."""
    if m < 1:
        raise DomainError(f"path needs at least one vertex, got {m}")
    return Graph.from_edges(m, ((i, i + 1) for i in range(m - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise DomainError(f"cycle needs at least three vertices, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star(r: int) -> Graph:
    """K_{1,r}: center 0 joined to leaves 1..r, r >= 1."""
    if r < 1:
        raise DomainError(f"star needs at least one leaf, got {r}")
    return Graph.from_edges(r + 1, ((0, i) for i in range(1, r + 1)))


def complete(n: int) -> Graph:
    if n < 1:
        raise DomainError(f"complete graph needs at least one vertex, got {n}")
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise DomainError(f"complete bipartite parts must be non-empty, got {m}, {n}")
    return Graph.from_edges(
        m + n, ((i, m + j) for i in range(m) for j in range(n))
    )


def ladle(g: Graph, attach: int, m: int) -> Graph:
    """``g`` with a path of m >= 1 new vertices appended at vertex ``attach``.
    New vertices are numbered g.order .. g.order+m-1; the last one is the
    pendant end of the handle."""
    if not 0 <= attach < g.order:
        raise DomainError(f"attach vertex {attach} out of range")
    if m < 1:
        raise DomainError(f"handle needs at least one vertex, got {m}")
    handle = (attach, *range(g.order, g.order + m))
    return Graph.from_edges(g.order + m, itertools.chain(g.edges, zip(handle, handle[1:])))


def tadpole(n: int, m: int) -> Graph:
    """Cycle on n >= 3 vertices with a handle of m >= 1 path vertices at vertex 0."""
    if n < 3:
        raise DomainError(f"tadpole cycle needs at least three vertices, got {n}")
    return ladle(cycle(n), 0, m)


def pan(n: int) -> Graph:
    """Cycle on n vertices with one pendant vertex: tadpole(n, 1)."""
    return tadpole(n, 1)


def shovel(n: int, m: int) -> Graph:
    """Complete graph on n >= 3 vertices with a handle of m >= 1 path vertices."""
    if n < 3:
        raise DomainError(f"shovel clique needs at least three vertices, got {n}")
    return ladle(complete(n), 0, m)


# ---------------------------------------------------------------------------
# graph6 (short form, n <= 62)


def _graph6_slots(n: int):
    """Vertex pairs of the upper triangle, column by column: the bit order
    of a graph6 body."""
    return ((i, j) for j in range(1, n) for i in range(j))


def emit_graph6(g: Graph) -> str:
    """Canonical short-form graph6: size byte, then the upper triangle of the
    adjacency matrix column by column, packed big-endian six bits per byte."""
    n = g.order
    if n > 62:
        raise DomainError(f"short-form graph6 covers orders up to 62, got {n}")
    bits = "".join("1" if e in g.edges else "0" for e in _graph6_slots(n))
    bits += "0" * (-len(bits) % 6)
    body = (chr(63 + int(bits[i : i + 6], 2)) for i in range(0, len(bits), 6))
    return chr(63 + n) + "".join(body)


def parse_graph6(text: str) -> Graph:
    """Parse one short-form graph6 string; rejects the extended size forms,
    out-of-range bytes, wrong lengths and non-zero padding, with the byte
    offset of the defect."""
    s = text.strip()
    if not s:
        raise ParseError("empty graph6 string", 0)
    for pos, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise ParseError(f"byte {ord(ch)} outside the graph6 range 63..126", pos)
    if ord(s[0]) == 126:
        raise ParseError("extended graph6 size forms are not supported", 0)
    n = ord(s[0]) - 63
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(s) - 1 != need:
        raise ParseError(
            f"graph6 body for order {n} needs {need} bytes, got {len(s) - 1}",
            min(len(s), need + 1),
        )
    bits = "".join(f"{ord(ch) - 63:06b}" for ch in s[1:])
    pad = bits.find("1", nbits)
    if pad != -1:
        raise ParseError("non-zero padding bits", 1 + pad // 6)
    edges = [e for e, bit in zip(_graph6_slots(n), bits) if bit == "1"]
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# edge-list text form


def format_edge_list(g: Graph) -> str:
    """First line ``n m``, then one ``u v`` line per edge, sorted."""
    lines = [f"{g.order} {g.size}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Inverse of :func:`format_edge_list`; lines starting with ``#`` are
    comments.  Errors carry the physical line number as their offset."""
    lines = [(no, ln) for no, ln in numbered_lines(text) if not ln.startswith("#")]
    if not lines:
        raise ParseError("empty edge list", 1)
    head_no, head_line = lines[0]
    head = head_line.split()
    if len(head) != 2 or not all(w.isdecimal() for w in head):
        raise ParseError("first line must be 'n m' with two non-negative integers", head_no)
    n, m = (parse_decimal(w, head_no) for w in head)
    if n > ORDER_GUARD:
        raise ParseError(f"order {n} exceeds the limit {ORDER_GUARD}", head_no)
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, got {len(lines) - 1}", lines[-1][0])
    edges = set()
    for lineno, ln in lines[1:]:
        words = ln.split()
        if len(words) != 2 or not all(w.isdecimal() for w in words):
            raise ParseError("edge line must be 'u v' with two non-negative integers", lineno)
        u, v = (parse_decimal(w, lineno) for w in words)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", lineno)
        if u >= n or v >= n:
            raise ParseError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}", lineno)
        e = (u, v) if u < v else (v, u)
        if e in edges:
            raise ParseError(f"duplicate edge ({e[0]}, {e[1]})", lineno)
        edges.add(e)
    return Graph(n, frozenset(edges))


# ---------------------------------------------------------------------------
# connected catalog


@lru_cache(maxsize=CATALOG_GUARD)
def _connected_graphs_of_order(n: int) -> tuple[Graph, ...]:
    """The catalog's graphs of order n, built once per process (996 graphs
    through order 7) since the catalog never changes."""
    import numpy as np  # here, not at the top: only orbit marking needs it

    pairs = list(itertools.combinations(range(n), 2))
    num_pairs = len(pairs)
    index = {p: b for b, p in enumerate(pairs)}
    perms = list(itertools.permutations(range(n)))
    # shift[p, b] = the image, as a one-bit mask, of edge slot b under
    # permutation p; OR-ing the rows over a graph's edge slots gives the
    # whole orbit of edge masks.
    shift = np.empty((len(perms), num_pairs), dtype=np.int64)
    for pi, p in enumerate(perms):
        for b, (i, j) in enumerate(pairs):
            q = (p[i], p[j]) if p[i] < p[j] else (p[j], p[i])
            shift[pi, b] = 1 << index[q]
    seen = bytearray(1 << num_pairs)
    seen_view = np.frombuffer(seen, dtype=np.uint8)
    graphs = []
    m = 0
    while m != -1:
        slots = [b for b in range(num_pairs) if m >> b & 1]
        if slots:
            imgs = shift[:, slots[0]].copy()
            for b in slots[1:]:
                imgs |= shift[:, b]
            seen_view[imgs] = 1
        else:
            seen[0] = 1
        g = Graph.from_edges(n, (pairs[b] for b in slots))
        if is_connected(g):
            graphs.append(g)
        m = seen.find(0, m)
    return tuple(graphs)


def connected_graph_catalog(max_n: int):
    """One representative per isomorphism class of connected graphs of each
    order 1..max_n, in a fixed order (ascending order, then ascending minimal
    edge mask).  Each class is found by scanning edge masks and marking whole
    permutation orbits; guarded at max_n <= 7."""
    if not 1 <= max_n <= CATALOG_GUARD:
        raise DomainError(f"catalog covers orders 1..{CATALOG_GUARD}, got {max_n}")
    for n in range(1, max_n + 1):
        yield from _connected_graphs_of_order(n)
