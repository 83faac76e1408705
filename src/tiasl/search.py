"""Exhaustive TIASL search over bounded ground sets.

``find_tiasl`` enumerates candidate ground sets X in (|X|, lexicographic)
order and, for each, streams the topologies on X with exactly n+1 opens
(n = graph order) through a backtracking vertex/open bijection.  Ground sets
on which no open family could meet the graph's degrees, judged from one
cached table of compatibility counts per ground set, are counted, not
walked; so are the topologies whose ground-set open no vertex could take.
The first hit is returned with a certificate of work done; "exhausted" means
no TIASL exists *within the given bounds*, never unconditional nonexistence.

Identical inputs and bounds always yield identical outcomes and certificates.
Every search and sweep runs in the calling process, one ground set (or one
graph) after another.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .constructive import label_any_pendant
from .graph import (
    CATALOG_GUARD,
    Graph,
    connected_graph_catalog,
    emit_graph6,
    pendant_vertices,
)
from .intset import DomainError, GroundSet, IntSet, check_universe, sumset_mask
from .labeling import SetLabeling, format_labeling, verify_tiasl
from .topology import (
    Topology,
    _abstract_open_masks,
    _check_stream,
    _topology_from_masks,
    _zero_open_masks,
    count_open_masks,
    discrete_topology,
    format_topology,
    translate_masks,
)

#: Most ground sets one search window may hold (the default window at order
#: 6 holds 512); the candidate list of a window is built whole.  The window
#: counts every size up to its largest, so it also caps |X| at 17: {0} plus
#: any subset of {1..16} is exactly 2**16 ground sets, and any window with
#: an 18-element ground set holds more.  That bounds the 2^|X| table of
#: :func:`_compatibility_counts` too.
GROUND_SETS_GUARD = 2**16

__all__ = [
    "SearchBounds",
    "Certificate",
    "SearchWitness",
    "SearchOutcome",
    "AdmissibilityVerdict",
    "SweepEntry",
    "SweepReport",
    "default_bounds",
    "bijection_match",
    "find_tiasl",
    "topological_set_indexing_number",
    "discrete_admissibility",
    "theorem_sweep",
    "format_search_outcome",
    "outcome_to_dict",
    "format_sweep_report",
    "sweep_report_to_dict",
]


@dataclass(frozen=True)
class SearchBounds:
    """Finite search window: ground sets X ⊆ {0..max_element} with
    |X| <= max_ground_size, containing 0 unless require_zero is off.
    A window with max_element = -1 or max_ground_size = 0 is empty."""

    max_element: int
    max_ground_size: int
    require_zero: bool = True

    def __post_init__(self):
        if self.max_element < -1:
            raise DomainError(f"max_element must be >= -1, got {self.max_element}")
        if self.max_ground_size < 0:
            raise DomainError(
                f"max_ground_size must be >= 0, got {self.max_ground_size}"
            )


def default_bounds(g: Graph) -> SearchBounds:
    """The window that suffices for every pendant construction on n vertices:
    elements up to 2n-3 and ground sets of size up to 2n-2 (clamped so that
    the one-vertex graph still gets the {0} window)."""
    n = g.order
    return SearchBounds(max(2 * n - 3, 0), max(2 * n - 2, 1))


@dataclass(frozen=True)
class Certificate:
    """Work counters: every enumerated ground set, every topology with n+1
    opens on those ground sets up to the hit (built, or counted in closed
    form where no vertex could take the ground-set open), and every vertex
    assignment made inside the bijection backtracker."""

    ground_sets_tried: int = 0
    topologies_tried: int = 0
    bijection_nodes: int = 0


@dataclass(frozen=True)
class SearchWitness:
    topology: Topology
    labeling: SetLabeling


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "found" | "exhausted" | "pruned-by-theorem"
    witness: SearchWitness | None
    certificate: Certificate
    bounds: SearchBounds

    @property
    def found(self) -> bool:
        return self.status == "found"


@dataclass(frozen=True)
class AdmissibilityVerdict:
    """Outcome of the discrete-topology admissibility chain; ``reason`` names
    the first necessary condition that failed."""

    admissible: bool
    reason: str | None
    labeling: SetLabeling | None

    def __bool__(self) -> bool:
        return self.admissible


def bijection_match(g: Graph, t: Topology, *, _nodes: list[int] | None = None) -> SetLabeling | None:
    """First vertex/open bijection under canonical ordering — vertices visited
    by descending degree (ties by index), opens tried in canonical order — such
    that every edge's sumset stays in the ground set, or None.  Requires
    exactly g.order non-empty opens.  Prunes by degree: a vertex of degree d
    can only take an open compatible with at least d others, so no bijection
    exists unless the vertex degrees, sorted descending, are position by
    position at most the opens' compatibility degrees sorted descending."""
    n = g.order
    opens = t.nonempty_opens
    if len(opens) != n:
        raise DomainError(
            f"bijection needs {n} non-empty opens, topology has {len(opens)}"
        )
    if n == 0:
        return None
    full = t.ground.members.mask
    compat = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            ok = sumset_mask(opens[i].mask, opens[j].mask) & ~full == 0
            compat[i][j] = compat[j][i] = ok
    cdeg = [sum(row) for row in compat]
    degs = g.degrees()
    demand = zip(sorted(degs, reverse=True), sorted(cdeg, reverse=True))
    if any(d > c for d, c in demand):
        return None
    adj = g.adjacency()
    order = sorted(range(n), key=lambda v: (-degs[v], v))
    assignment = [-1] * n
    used = [False] * n
    nodes = _nodes if _nodes is not None else [0]

    def backtrack(pos: int) -> bool:
        v = order[pos]
        for i in range(n):
            if used[i] or cdeg[i] < degs[v]:
                continue
            if any(
                assignment[u] != -1 and not compat[i][assignment[u]]
                for u in adj[v]
            ):
                continue
            assignment[v] = i
            used[i] = True
            nodes[0] += 1
            if pos + 1 == n or backtrack(pos + 1):
                return True
            assignment[v] = -1
            used[i] = False
        return False

    if not backtrack(0):
        return None
    return SetLabeling(g, t.ground, tuple(opens[assignment[v]] for v in range(n)))


def _ground_candidates(bounds: SearchBounds) -> list[tuple[int, ...]]:
    """Candidate ground sets as sorted element tuples, ordered by size then
    lexicographically.  A window reaching past UNIVERSE_LIMIT is refused
    first; then it is counted before any tuple is built, and one of more
    than GROUND_SETS_GUARD ground sets is refused."""
    top = bounds.max_element
    check_universe(top)
    fixed = (0,) if bounds.require_zero else ()
    pool = range(len(fixed), top + 1)
    sizes = range(1, min(bounds.max_ground_size, top + 1) + 1)
    count = sum(math.comb(len(pool), size - len(fixed)) for size in sizes)
    if count > GROUND_SETS_GUARD:
        raise DomainError(
            f"search window holds {count} ground sets, more than {GROUND_SETS_GUARD}"
        )
    return [
        fixed + rest
        for size in sizes
        for rest in itertools.combinations(pool, size - len(fixed))
    ]


def _compatibility_counts(elems: tuple[int, ...]) -> list[int]:
    """cnt(A) for every non-empty A ⊆ X, at index mask - 1 where bit j of
    the mask stands for elems[j]: the number of non-empty B ≠ A with
    A + B ⊆ X.  Such B are the non-empty subsets of
    Y(A) = {b ∈ X : b + A ⊆ X}, so cnt(A) = 2^|Y(A)| - 1 - [A ⊆ Y(A)], and
    Y(A) = Y(A - {a}) ∩ (X - a) for the lowest member a of A gives every Y
    from one found before it, with no sumsets."""
    full = (1 << len(elems)) - 1
    members = set(elems)
    shifted = [
        sum(1 << j for j, b in enumerate(elems) if a + b in members) for a in elems
    ]
    y = [full] * (full + 1)
    counts = []
    for mask in range(1, full + 1):
        low = mask & -mask
        ym = y[mask] = y[mask ^ low] & shifted[low.bit_length() - 1]
        counts.append((1 << ym.bit_count()) - 1 - (mask & ~ym == 0))
    return counts


@lru_cache(maxsize=GROUND_SETS_GUARD)
def _compatibility_degree_caps(elems: tuple[int, ...]) -> tuple[int, ...]:
    """The largest CATALOG_GUARD - 1 values of cnt(A) over the proper
    non-empty A ⊆ X, descending: the n - 1 a search of order n reads, for
    any order the search covers (n <= CATALOG_GUARD).  Kept for the ground
    sets of one window."""
    proper = sorted(_compatibility_counts(elems)[:-1], reverse=True)
    return tuple(proper[: CATALOG_GUARD - 1])


def _search_one_ground(g: Graph, elems: tuple[int, ...], degs: tuple[int, ...]):
    """Exhaust one ground set for the topologies with n + 1 opens: returns
    (witness or None, topologies tried, bijection nodes), with "tried"
    counting every topology of the stream up to the hit, or the whole
    stream.  ``degs`` are the graph's degrees in descending order.

    The ground set is refused, and its stream counted in closed form, when
    no family on X could pass the degree reject of :func:`bijection_match`.
    An open A is compatible with at most cnt(A) others (see
    :func:`_compatibility_counts`), so a family's sorted compatibility degrees
    are at most, position by position, cnt(X) and the n - 1 largest cnt(A)
    over the proper non-empty A ⊆ X, sorted together.  The ground-set open's
    only possible partner is {0}, so cnt(X) <= [0 ∈ X], while with 0 ∈ X
    every proper A has the partner {0}: cnt(X) takes the last position,
    tested first (the empty graph, having no families, is refused there
    too).  Comparing one more cnt(A) then never refuses more, and capping
    cnt(A) at n - 1 would change nothing, as no degree exceeds n - 1.  Past
    both tests, with minimum degree 1 only the topologies with {0} open are
    built, each at its index in the stream, and with an isolated vertex
    every topology is built.  The same topologies reach the backtracker in
    the same order as in a full stream, so the counters equal those of
    building every topology and skipping the unusable ones.  Before any is
    built, :func:`_check_stream` refuses a stream past its budget (which
    bounds the {0}-open part too); only a count reported is made."""
    k = len(degs) + 1
    s = len(elems)
    if k > 1 << s:
        return None, 0, 0
    if not degs or degs[-1] > (elems[0] == 0):
        return None, count_open_masks(s, k), 0
    if any(d > c for d, c in zip(degs, _compatibility_degree_caps(elems))):
        return None, count_open_masks(s, k), 0
    x = GroundSet(IntSet(elems))
    _check_stream(f"ground set {x}", s, k)
    if degs[-1] == 1:
        families = _zero_open_masks(s, k)
    else:
        families = enumerate(_abstract_open_masks(s, k))
    nodes = [0]
    for index, abstract in families:
        t = _topology_from_masks(x, translate_masks(abstract, x))
        lab = bijection_match(g, t, _nodes=nodes)
        if lab is not None:
            if not verify_tiasl(lab).is_tiasl:
                raise RuntimeError(
                    "internal error: search witness failed verification"
                )
            return SearchWitness(t, lab), index + 1, nodes[0]
    return None, count_open_masks(s, k), nodes[0]


def find_tiasl(
    g: Graph,
    bounds: SearchBounds | None = None,
    *,
    pendant_prune: bool = True,
) -> SearchOutcome:
    """Search the bounded window for a TIASL of ``g``.

    With ``pendant_prune`` on, a graph of minimum degree >= 2 (no pendant
    and no isolated vertex) is refused outright: any TIASL would put the
    ground set on a vertex of degree <= 1.  Disable it to make exhaustion
    checks definitional.

    Graphs of order above CATALOG_GUARD are refused before any ground set
    is built.  Every other refusal comes where its cost arises: the window
    (universe limit, GROUND_SETS_GUARD), then per ground set the poset
    tables and the stream budget, both checked by the topology layer.  On
    order 7 the tables count every ground set of at most 5 elements, and the
    first one of 6 or more that the search reaches is refused naming the table.
    """
    if bounds is None:
        bounds = default_bounds(g)
    n = g.order
    # The cost this bounds is the backtracker's: at most floor(e * n!) - 1
    # assignments per topology, 13,699 at n = 7 but 108,505,111 at n = 11.
    if n > CATALOG_GUARD:
        raise DomainError(
            f"search covers graphs of order <= {CATALOG_GUARD}, got {n}"
        )
    candidates = _ground_candidates(bounds)
    degs = tuple(sorted(g.degrees(), reverse=True))
    if pendant_prune and degs and degs[-1] >= 2:
        return SearchOutcome("pruned-by-theorem", None, Certificate(), bounds)
    status, witness = "exhausted", None
    tried = topologies = nodes = 0
    for elems in candidates:
        witness, topologies_here, nodes_here = _search_one_ground(g, elems, degs)
        tried += 1
        topologies += topologies_here
        nodes += nodes_here
        if witness is not None:
            status = "found"
            break
    return SearchOutcome(status, witness, Certificate(tried, topologies, nodes), bounds)


def topological_set_indexing_number(
    g: Graph,
    bounds: SearchBounds | None = None,
    *,
    pendant_prune: bool = True,
) -> tuple[int | None, SearchOutcome]:
    """Minimum ground set size over the window (ground sets are tried in
    ascending size, so the first hit is minimal), with the full outcome."""
    outcome = find_tiasl(g, bounds, pendant_prune=pendant_prune)
    if outcome.found:
        return len(outcome.witness.topology.ground), outcome
    return None, outcome


def discrete_admissibility(g: Graph, x: GroundSet) -> AdmissibilityVerdict:
    """Can ``g`` carry the discrete topology on ``x``?  Checks the necessary
    conditions in order — the order must be 2^|x|-1 (an odd number, so even
    orders fail on parity), some vertex must have at least 2^(|x|-1) pendant
    neighbors — and then settles the question with a bijection search.

    :func:`discrete_topology` caps its matrix at 1,023 opens; the backtracker
    has no bound: up to floor(e * n!) - 1 assignments on the n = 2^|x| - 1
    vertices (about 3.6e12 on 4 points), so a caller bounds its own inputs."""
    s = len(x)
    if g.order != 2**s - 1:
        reason = "order parity" if g.order % 2 == 0 else "order mismatch"
        return AdmissibilityVerdict(False, reason, None)
    degs = g.degrees()
    best = max(
        (sum(1 for u in nbrs if degs[u] == 1) for nbrs in g.adjacency()), default=0
    )
    if best < 2 ** (s - 1):
        return AdmissibilityVerdict(False, "pendant deficiency", None)
    lab = bijection_match(g, discrete_topology(x))
    if lab is None:
        return AdmissibilityVerdict(False, "no bijection", None)
    return AdmissibilityVerdict(True, None, lab)


# ---------------------------------------------------------------------------
# theorem sweep


@dataclass(frozen=True)
class SweepEntry:
    graph6: str
    order: int
    size: int
    pendants: int
    disposition: str  # "constructed" | "exhausted" | "found"
    consistent: bool
    note: str = ""


@dataclass(frozen=True)
class SweepReport:
    max_n: int
    entries: tuple[SweepEntry, ...]

    @property
    def graphs_processed(self) -> int:
        return len(self.entries)

    @property
    def inconsistencies(self) -> tuple[SweepEntry, ...]:
        return tuple(e for e in self.entries if not e.consistent)


def _sweep_one(
    g: Graph, max_element: int | None, max_ground_size: int | None
) -> SweepEntry:
    """Check one graph against the pendant characterization: pendant graphs
    get the explicit construction, which raises unless it verifies;
    pendant-free graphs must exhaust an unpruned search over elements up to
    2n-3 (or the given overrides)."""
    g6 = emit_graph6(g)
    pendants = len(pendant_vertices(g))
    if pendants:
        lab = label_any_pendant(g)  # verified, or raises
        return SweepEntry(
            g6, g.order, g.size, pendants, "constructed", True, f"ground {lab.ground}"
        )
    n = g.order
    me = max_element if max_element is not None else 2 * n - 3
    mg = max_ground_size if max_ground_size is not None else 2 * n - 2
    bounds = SearchBounds(me, mg)
    outcome = find_tiasl(g, bounds, pendant_prune=False)
    if outcome.found:
        return SweepEntry(
            g6, g.order, g.size, 0, "found", False,
            f"TIASL found despite no pendant: ground {outcome.witness.topology.ground}",
        )
    note = (
        f"ground_sets={outcome.certificate.ground_sets_tried} "
        f"topologies={outcome.certificate.topologies_tried}"
    )
    if outcome.certificate.ground_sets_tried == 0:
        note += " (empty search window)"
    return SweepEntry(g6, g.order, g.size, 0, "exhausted", True, note)


def theorem_sweep(
    max_n: int,
    *,
    max_element: int | None = None,
    max_ground_size: int | None = None,
) -> SweepReport:
    """Exercise the pendant characterization over every connected graph of
    order 1..max_n: each entry records whether the graph was labeled by the
    explicit construction or exhausted by the unpruned search.  Any other
    disposition is an inconsistency; a failed construction raises.  The
    catalog refuses max_n outside 1..CATALOG_GUARD before any graph; at
    order 7 the default window reaches 6-element ground sets, which the
    poset tables refuse, so ``max_ground_size=5`` keeps it inside them."""
    entries = tuple(
        _sweep_one(g, max_element, max_ground_size)
        for g in connected_graph_catalog(max_n)
    )
    return SweepReport(max_n, entries)


# ---------------------------------------------------------------------------
# text and JSON forms


def _key_values(record) -> str:
    """The record's fields as ``key=value`` words, bools in lower case."""
    return " ".join(
        f"{k}={str(v).lower() if isinstance(v, bool) else v}"
        for k, v in vars(record).items()
    )


def format_search_outcome(o: SearchOutcome) -> str:
    lines = [
        f"status: {o.status}",
        f"bounds: {_key_values(o.bounds)}",
        f"certificate: {_key_values(o.certificate)}",
    ]
    if o.witness is not None:
        lines.append("--- labeling ---")
        lines.append(format_labeling(o.witness.labeling).rstrip("\n"))
        lines.append("--- topology ---")
        lines.append(format_topology(o.witness.topology).rstrip("\n"))
    return "\n".join(lines) + "\n"


def outcome_to_dict(o: SearchOutcome) -> dict:
    out = {
        "status": o.status,
        "bounds": vars(o.bounds).copy(),
        "certificate": vars(o.certificate).copy(),
        "witness": None,
    }
    if o.witness is not None:
        out["witness"] = {
            "ground": str(o.witness.topology.ground),
            "labels": [str(s) for s in o.witness.labeling.vertex_labels],
            "opens": [str(s) for s in o.witness.topology.opens],
        }
    return out


def format_sweep_report(r: SweepReport) -> str:
    lines = []
    for e in r.entries:
        line = (
            f"{e.graph6}  order={e.order} size={e.size} pendants={e.pendants} "
            f"{e.disposition}"
        )
        if e.note:
            line += f"  [{e.note}]"
        if not e.consistent:
            line += "  INCONSISTENT"
        lines.append(line)
    bad = len(r.inconsistencies)
    lines.append(
        f"swept {r.graphs_processed} connected graphs up to order {r.max_n}: "
        + ("all consistent" if bad == 0 else f"{bad} INCONSISTENT")
    )
    return "\n".join(lines) + "\n"


def sweep_report_to_dict(r: SweepReport) -> dict:
    return {
        "max_n": r.max_n,
        "graphs_processed": r.graphs_processed,
        "inconsistent": len(r.inconsistencies),
        "entries": [vars(e).copy() for e in r.entries],
    }
