"""Finite topologies on small ground sets.

A topology is kept as its tuple of open sets in canonical order (cardinality,
then element tuple).  Topologies on an s-element set correspond one to one
to pairs (partition of the set, labeled poset on the blocks): the opens are
the unions of blocks over up-closed class sets, so a poset with exactly k
up-sets yields a topology with exactly k opens.  One generator of labeled
posets, by one-point extension, and one stream of open families over that
walk (``_abstract_open_masks``) serve every route:

* :func:`enumerate_topologies` — every topology on ``x``, or those with a
  given open count, sorted into a fixed order.
* :func:`topologies_with_open_count` — only the topologies with a fixed
  number of opens, streamed in walk order without building the rest.
* :mod:`tiasl.search` — for a graph with no isolated vertex, only the
  families with {position 0} open become topologies.

The same walk counts that stream in closed form (:func:`count_open_masks`,
and :func:`count_topologies` for either route), so the searcher can certify
the topologies it never builds.  Each guard is checked once, where its cost
arises: the poset tables (OPEN_COUNT_GUARD, ENUMERATE_GUARD), the families
of any stream, the searcher's too (STREAM_GUARD), and the opens of
:func:`discrete_topology` (PAIR_GUARD).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .graph import Graph
from .intset import (
    DomainError,
    GroundSet,
    IntSet,
    ParseError,
    canonical_key,
    format_set,
    numbered_lines,
    parse_ground_header,
    parse_set_text,
    sumset_mask,
)

#: Guards for the poset tables, the one cost every route shares.  A table is
#: built only for at most OPEN_COUNT_GUARD up-sets or on at most
#: ENUMERATE_GUARD classes: every table on c <= 5 classes, and the tables on
#: more classes with k <= 7 up-sets, whose largest (c = 6, k = 7) holds the
#: 720 chains.  An s-point count with k opens reads the tables on c < k and
#: c <= s classes, so it is refused exactly when 8 <= k <= 2^s and s >= 6.
OPEN_COUNT_GUARD = 7
ENUMERATE_GUARD = 5

#: Most families one stream may build: the topologies either generator
#: yields, and the families the searcher builds on one ground set.  Every
#: topology costs about 4 µs on a 2-core VM, and the CLI's ``--list`` writes
#: each row as it comes, so the guard bounds a listing's time: the
#: 28,483,110 on 10 points with 7 opens would take 2 minutes.  It bounds the
#: memory of :func:`enumerate_topologies` too, which holds every family
#: (about 0.1 kB each) to sort them.  Each stream is counted in closed form
#: before it starts; a count alone (:func:`count_topologies`) builds nothing
#: and is not guarded.
STREAM_GUARD = 2**20

#: Most pairs one verifier pass may build: the open pairs of
#: :func:`check_topology` and the equal-label pairs of the labeling
#: verifier, each of which may become a reported violation.  It bounds
#: :func:`discrete_topology` too: its C(1024, 2) open pairs on ten points fit.
PAIR_GUARD = 2**19


@dataclass(frozen=True)
class Violation:
    """A single failed requirement, with the witnessing objects."""

    kind: str
    witness: tuple

    def __str__(self) -> str:
        parts = ", ".join(str(w) for w in self.witness)
        return f"{self.kind}: {parts}" if self.witness else self.kind


@dataclass(frozen=True)
class TopologyCheck:
    ok: bool
    violations: tuple[Violation, ...]

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Topology:
    """A topology on a ground set; ``opens`` is canonically ordered and
    includes the empty set.

    Instances produced by the generators and parsers in this module satisfy
    the axioms; raw construction is trusted and does not re-verify (use
    :func:`check_topology` or :meth:`from_family` for untrusted input).
    """

    ground: GroundSet
    opens: tuple[IntSet, ...]

    @classmethod
    def from_family(cls, family: Iterable[IntSet], ground: GroundSet) -> "Topology":
        family = list(family)
        check = check_topology(family, ground)
        if not check.ok:
            first = check.violations[0]
            raise DomainError(
                f"not a topology of {ground}: {first}"
                + (f" (+{len(check.violations) - 1} more)" if len(check.violations) > 1 else "")
            )
        return _topology_from_masks(ground, (s.mask for s in family))

    @property
    def open_count(self) -> int:
        return len(self.opens)

    @property
    def nonempty_opens(self) -> tuple[IntSet, ...]:
        return tuple(o for o in self.opens if o)

    def is_discrete(self) -> bool:
        return self.open_count == 2 ** len(self.ground)

    def __str__(self) -> str:
        return "{" + ", ".join(format_set(o) for o in self.opens) + "} on " + str(self.ground)


def check_topology(family: Iterable[IntSet], ground: GroundSet) -> TopologyCheck:
    """Verdict on whether ``family`` (implicitly together with the sets it
    already contains) is a topology of ``ground``: contains the empty set and
    the ground set, every member is a subset of the ground set, and the family
    is closed under pairwise union and intersection.  Violations name the
    failing axiom and a witnessing set or pair.  A family of more than
    ``PAIR_GUARD`` pairs of distinct members is refused before any is built.
    """
    family = list(family)
    violations: list[Violation] = []

    seen: set[int] = set()
    for s in family:
        if s.mask in seen:
            violations.append(Violation("duplicate-open", (s,)))
        seen.add(s.mask)

    full = ground.members.mask
    masks = sorted(seen)
    pairs = len(masks) * (len(masks) - 1) // 2
    if pairs > PAIR_GUARD:
        raise DomainError(f"{pairs} pairs of {len(masks)} distinct opens, more than {PAIR_GUARD}")
    if 0 not in seen:
        violations.append(Violation("missing-empty", ()))
    if full not in seen:
        violations.append(Violation("missing-ground", (ground.members,)))
    for m in masks:
        if m & ~full:
            violations.append(Violation("open-not-subset", (IntSet.from_mask(m),)))
    for a, b in itertools.combinations(masks, 2):
        if a | b not in seen:
            violations.append(
                Violation("union-not-open", (IntSet.from_mask(a), IntSet.from_mask(b)))
            )
        if a & b not in seen:
            violations.append(
                Violation("intersection-not-open", (IntSet.from_mask(a), IntSet.from_mask(b)))
            )
    return TopologyCheck(not violations, tuple(violations))


def _topology_from_masks(ground: GroundSet, masks: Iterable[int]) -> Topology:
    all_masks = set(masks) | {0, ground.members.mask}
    opens = sorted((IntSet.from_mask(m) for m in all_masks), key=canonical_key)
    return Topology(ground, tuple(opens))


# ---------------------------------------------------------------------------
# stock topologies


def discrete_topology(x: GroundSet) -> Topology:
    """All subsets of ``x`` open (2^|x| opens), refused before any is built
    past PAIR_GUARD pairs of opens, which admits exactly |x| <= 10."""
    opens = 2 ** len(x)
    if (pairs := opens * (opens - 1) // 2) > PAIR_GUARD:
        raise DomainError(
            f"the discrete topology on {len(x)} points has {pairs} pairs of "
            f"{opens} opens, more than {PAIR_GUARD}"
        )
    return _topology_from_masks(x, translate_masks(range(opens), x))


def indiscrete_topology(x: GroundSet) -> Topology:
    """Only the empty set and ``x`` itself are open."""
    return _topology_from_masks(x, ())


def sierpinski_topology(x: GroundSet) -> Topology:
    """The three-open topology {∅, {0}, x} on a two-element ground set
    containing 0 — the only Sierpinski variant that can label an edge."""
    if len(x) != 2 or 0 not in x:
        raise DomainError(f"Sierpinski topology requires |x| = 2 with 0 in x, got {x}")
    return _topology_from_masks(x, (1,))


def chain_topology(k: int, x: GroundSet) -> Topology:
    """Opens ∅ ⊂ {0} ⊂ {0,1} ⊂ … ⊂ {0..k-1} ⊂ x on an interval ground set
    x = {0..l}, k <= l."""
    l = x.max_element
    if x.members.mask != (1 << (l + 1)) - 1:
        raise DomainError(f"chain topology requires an interval ground set, got {x}")
    if not 0 <= k <= l:
        raise DomainError(f"chain length {k} must satisfy 0 <= k <= {l}")
    return _topology_from_masks(x, ((1 << (i + 1)) - 1 for i in range(k)))


# ---------------------------------------------------------------------------
# labeled posets and the topologies built from them


@lru_cache(maxsize=None)
def _labeled_posets(
    c: int, bound: int
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Every labeled poset on c elements with at most ``bound`` up-sets, as
    (above, ups): ``above[i]`` masks the elements strictly above i, and
    ``ups`` lists the up-closed subsets in ascending mask order.

    One-point extension (Brinkmann and McKay, "Posets on up to 16 points",
    Order 19, 2002): element c-1 joins each poset on c-1 elements above a
    down-set D and below an up-set U, where every element of D lies below
    every element of U.  The old up-sets missing D stay up-sets, and W with
    the new element added is one whenever U ⊆ W.  No old up-set is lost, so
    a poset with more than ``bound`` up-sets only has extensions with more,
    and is pruned at every level; c-1 elements have at most 2^(c-1) up-sets,
    so a larger bound reads the complete table there.  The table is sorted
    by relation vector: over the pairs i < j in ``itertools.combinations``
    order, 0 when i and j are incomparable, 1 when i < j and 2 when j < i."""
    if c == 0:
        return (((), (0,)),)
    new = 1 << (c - 1)
    table = []
    for above, ups in _labeled_posets(c - 1, min(bound, new)):
        for v in ups:  # D is the complement of the up-set v
            down = (new - 1) & ~v
            allowed = v
            for i, a in enumerate(above):
                if down >> i & 1:
                    allowed &= a
            for u in ups:
                if u & ~allowed:
                    continue
                new_ups = [w for w in ups if not w & down]
                new_ups += [w | new for w in ups if not u & ~w]
                if len(new_ups) > bound:
                    continue
                new_above = [a | new if down >> i & 1 else a for i, a in enumerate(above)]
                table.append((tuple(new_above) + (u,), tuple(new_ups)))
    pairs = list(itertools.combinations(range(c), 2))
    table.sort(
        key=lambda poset: [
            1 if poset[0][i] >> j & 1 else 2 if poset[0][j] >> i & 1 else 0
            for i, j in pairs
        ]
    )
    return tuple(table)


@lru_cache(maxsize=None)
def _posets_with_up_set_count(c: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The up-set tuples of the labeled posets on c elements with exactly k
    up-sets, in table order.  The one place a table is chosen or refused: the
    table pruned at OPEN_COUNT_GUARD up-sets, else the complete one, built on
    at most ENUMERATE_GUARD elements; two tables per element count at most."""
    if k <= OPEN_COUNT_GUARD:
        bound = min(OPEN_COUNT_GUARD, 2**c)
    elif c <= ENUMERATE_GUARD:
        bound = 2**c
    else:
        raise DomainError(
            f"poset tables on {c} classes cover at most {OPEN_COUNT_GUARD} "
            f"up-sets, got a bound of {k}"
        )
    return tuple(ups for _, ups in _labeled_posets(c, bound) if len(ups) == k)


def _partitions_into_blocks(s: int, c: int) -> Iterator[tuple[int, ...]]:
    """Partitions of {0..s-1} into exactly c blocks, as bit masks, blocks
    ordered by least member."""

    blocks: list[int] = []

    def rec(i: int, used: int) -> Iterator[tuple[int, ...]]:
        if s - i < c - used:
            return
        if i == s:
            if used == c:
                yield tuple(blocks)
            return
        bit = 1 << i
        for b in range(used):
            blocks[b] |= bit
            yield from rec(i + 1, used)
            blocks[b] &= ~bit
        if used < c:
            blocks.append(bit)
            yield from rec(i + 1, used + 1)
            blocks.pop()

    yield from rec(0, 0)


def _class_posets(s: int, k: int) -> Iterator[tuple[int, tuple[tuple[int, ...], ...]]]:
    """(c, posets) for each class count c, ascending, at which an s-element
    set has topologies with exactly k opens: c blocks, and the labeled posets
    on the c classes with exactly k up-sets."""
    for c in range(max(1, (k - 1).bit_length()), min(s, k - 1) + 1):  # c < k <= 2^c
        posets = _posets_with_up_set_count(c, k)
        if posets:
            yield c, posets


def _abstract_open_masks(s: int, k: int) -> Iterator[tuple[int, ...]]:
    """Open families (as tuples of bit masks over positions 0..s-1) of every
    topology on an s-element set with exactly k opens, the one stream every
    route walks: ascending class count, partitions by restricted growth
    string, posets in table order.  Each topology appears exactly once:
    partition blocks and the induced class poset are recoverable from the
    family, and {position 0} is open exactly when the family holds mask 1."""
    for c, posets in _class_posets(s, k):
        # Each poset holds the empty class set and the full one, so at least
        # 2 up-sets: every getter returns a tuple, never a bare mask.
        getters = [itemgetter(*ups) for ups in posets]
        for blocks in _partitions_into_blocks(s, c):
            union = _block_unions(blocks)
            for get in getters:
                yield get(union)


@lru_cache(maxsize=None)
def _stirling2(n: int, c: int) -> int:
    """Partitions of an n-element set into exactly c non-empty blocks, by
    inclusion-exclusion over the blocks left empty: c + 1 terms, whatever n."""
    terms = ((-1) ** j * math.comb(c, j) * (c - j) ** n for j in range(c + 1))
    return sum(terms) // math.factorial(c)


@lru_cache(maxsize=None)
def count_open_masks(s: int, k: int) -> int:
    """Number of topologies on an s-element set with exactly k opens, i.e. the
    length of :func:`_abstract_open_masks` ``(s, k)``, in closed form:
    Σ_c S(s,c)·|posets on c classes with k up-sets| (Comtet 1966; Erné and
    Stege, "Counting finite posets and topologies", Order 8, 1991)."""
    return sum(_stirling2(s, c) * len(posets) for c, posets in _class_posets(s, k))


def _block_unions(blocks: tuple[int, ...]) -> list[int]:
    """The union of the blocks in each class set, indexed by its class mask:
    one table of 2^c position masks per partition."""
    unions = [0]
    for block in blocks:
        unions += [u | block for u in unions]
    return unions


def translate_masks(position_masks: Iterable[int], x: GroundSet) -> list[int]:
    """Map bit masks over positions 0..|x|-1 to masks over x's elements."""
    bits = [1 << e for e in x.members]
    out = []
    for pm in position_masks:
        m = 0
        while pm:
            low = pm & -pm
            m |= bits[low.bit_length() - 1]
            pm ^= low
        out.append(m)
    return out


def _canonical_rank(m: int, s: int) -> int:
    """Orders bit masks over positions 0..s-1 as ``canonical_key`` orders
    sets: by size, then the set holding the first position they differ in
    first.  Translating positions to elements keeps that order."""
    reversed_mask = int(format(m, f"0{s}b")[::-1], 2)
    return (m.bit_count() << s) | (((1 << s) - 1) ^ reversed_mask)


def _topologies_on(x: GroundSet, families: Iterable[tuple[int, ...]]) -> Iterator[Topology]:
    """The topologies on ``x`` whose open families, as bit masks over
    positions, are ``families`` (each holding 0 and the full mask).  Each
    position mask is ranked and built once, when a family first holds it,
    so no step costs 2^|x|."""
    s = len(x)
    ranks, sets = {}, {}
    for family in families:
        for m in family:
            if m not in sets:
                ranks[m] = _canonical_rank(m, s)
                sets[m] = IntSet.from_mask(translate_masks((m,), x)[0])
        yield Topology(x, tuple([sets[m] for m in sorted(family, key=ranks.__getitem__)]))


def count_topologies(s: int, open_count: int | None = None) -> int:
    """Number of topologies on an s-element set (with exactly ``open_count``
    opens if given), in closed form from :func:`count_open_masks`: no
    topology is built and no family walked.  An open count below 2 or above
    2^s counts 0.  Refused: s < 1, as :class:`GroundSet` refuses the empty
    set, and the poset tables' guard: an open count of 8 to 2^s on 6 or more
    points, and so every unrestricted count on 6 or more points."""
    if s < 1:
        raise DomainError(f"topologies are counted on s >= 1 points, got {s}")
    if open_count is not None:
        return count_open_masks(s, open_count)
    return sum(count_open_masks(s, k) for k in range(2**s + 1))


def _check_stream(stream: str, s: int, open_count: int | None) -> None:
    """Refuse ``stream``, the topologies on s points with K = ``open_count``
    opens, past STREAM_GUARD before any is built.  They pick K - 2 of the
    2^s - 2 proper non-empty subsets, so they are counted only where that
    binomial, at least 2^r for its smaller side r, exceeds the guard, as it
    does wherever the poset tables refuse.  The searcher checks the whole
    stream of a ground set, so the budget bounds the {0}-open part it turns
    into topologies too."""
    if open_count is not None:
        r = min(open_count - 2, 2**s - open_count)
        if 0 <= r < STREAM_GUARD.bit_length() and math.comb(2**s - 2, r) <= STREAM_GUARD:
            return
    count = count_topologies(s, open_count)
    if count > STREAM_GUARD:
        raise DomainError(
            f"{stream} with {open_count} opens holds "
            f"{count} topologies, more than {STREAM_GUARD}"
        )


def enumerate_topologies(
    x: GroundSet, open_count_filter: int | None = None
) -> Iterator[Topology]:
    """All topologies on ``x`` (optionally only those with a given number of
    opens), in a fixed order: lexicographic in the characteristic vector over
    the proper non-empty subsets of ``x`` in ascending mask order, a subset
    left out sorting before it is put in.  The families are those of the
    partition × poset walk over every requested open count, sorted whole.
    Guarded as :func:`count_topologies` and at STREAM_GUARD topologies, so
    the unrestricted enumeration needs |x| <= 5;
    :func:`topologies_with_open_count` streams one open count in walk order.
    Every family is held, as its ascending mask tuple, before the first
    topology is yielded: on 10 points with 5 opens (874,500 topologies) that
    peaks at 107 MB, against 16 MB for :func:`topologies_with_open_count` on
    the same topologies.
    """
    s = len(x)
    _check_stream(f"the enumeration on {s} points", s, open_count_filter)
    counts = range(2**s + 1) if open_count_filter is None else (open_count_filter,)
    # At the first subset in which two families differ, the one holding it
    # has the smaller ascending mask tuple: tuples sorted in reverse order it.
    families = sorted(
        (tuple(sorted(f)) for k in counts for f in _abstract_open_masks(s, k)), reverse=True
    )
    yield from _topologies_on(x, families)


def topologies_with_open_count(x: GroundSet, open_count: int) -> Iterator[Topology]:
    """Topologies on ``x`` with exactly ``open_count`` opens, without
    enumerating the rest, in walk order: ascending class count, partitions
    by restricted growth string, posets in table order.  Output-linear;
    guarded as :func:`count_topologies` and at STREAM_GUARD topologies."""
    s = len(x)
    _check_stream(f"the bounded route on {s} points", s, open_count)
    yield from _topologies_on(x, _abstract_open_masks(s, open_count))


# ---------------------------------------------------------------------------
# compatibility graph and pendant lower bounds


@dataclass(frozen=True)
class CompatibilityGraph(Graph):
    """Graph on the non-empty opens, vertex i standing for ``nodes[i]``; an
    edge joins two distinct opens whose sumset stays inside the ground set.
    Self-pairs are ignored."""

    nodes: tuple[IntSet, ...]

    def degree_of(self, open_set: IntSet) -> int:
        return self.degree(self.nodes.index(open_set))


def compatibility_graph(t: Topology) -> CompatibilityGraph:
    nodes = t.nonempty_opens
    full = t.ground.members.mask
    edges = set()
    for i, a in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            if sumset_mask(a.mask, nodes[j].mask) & ~full == 0:
                edges.add((i, j))
    return CompatibilityGraph(len(nodes), frozenset(edges), nodes)


class MinPendantRequirements(NamedTuple):
    edges_on_zero_vertex: int
    pendant_vertices: int


def min_pendant_requirements(t: Topology) -> MinPendantRequirements:
    """Lower bounds forced on any graph that carries ``t`` via a TIASL:
    the number of pendant edges incident on the {0}-labeled vertex (opens
    containing max of the ground set) and the number of pendant vertices
    (opens compatible with at most one other open)."""
    return _pendant_bounds(t)[0]


def _pendant_bounds(
    t: Topology,
) -> tuple[MinPendantRequirements, CompatibilityGraph]:
    """:func:`min_pendant_requirements` and the compatibility graph it read."""
    if IntSet((0,)) not in t.opens:
        raise DomainError(
            "{0} is not open, so no graph carries this topology via a TIASL"
        )
    l = t.ground.max_element
    cg = compatibility_graph(t)
    degrees = cg.degrees()
    edges_on_zero = sum(1 for o in cg.nodes if l in o)
    pendants = sum(1 for d in degrees if d <= 1)
    return MinPendantRequirements(edges_on_zero, pendants), cg


# ---------------------------------------------------------------------------
# text format


def format_topology(t: Topology) -> str:
    """One line ``ground: {…}`` then one open per line in canonical order
    (the empty set written ``{}``)."""
    lines = [f"ground: {format_set(t.ground.members)}"]
    lines.extend(format_set(o) for o in t.opens)
    return "\n".join(lines) + "\n"


def parse_topology_text(text: str) -> Topology:
    """Inverse of :func:`format_topology`; validates the axioms."""
    lines = numbered_lines(text)
    ground = parse_ground_header(lines, "topology")
    opens = []
    saw_empty = False
    for lineno, ln in lines[1:]:
        try:
            s = parse_set_text(ln)
        except ParseError as exc:
            raise exc.on_line("bad open set", lineno, 0) from exc
        saw_empty = saw_empty or not s
        opens.append(s)
    if not saw_empty:
        raise ParseError("topology file must list the empty set '{}'", lines[-1][0])
    return Topology.from_family(opens, ground)
