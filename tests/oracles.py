"""Independent brute-force reference implementations for the test suite.

Everything here works on primitive Python types (frozensets of ints, edge
lists as (u, v) pairs) and deliberately avoids the package's own
representations, so a bug in the package cannot hide inside its oracle.
All of it is exponential and meant only for small instances.  The exception
is the last section, which keeps reference copies of code that a fast path
replaced.
"""

from itertools import combinations, permutations, product


def sumset(a, b):
    """All pairwise sums of two non-empty integer sets."""
    return frozenset(x + y for x in a for y in b)


def powerset(x):
    xs = sorted(x)
    return [
        frozenset(c) for r in range(len(xs) + 1) for c in combinations(xs, r)
    ]


def is_topology(family, ground):
    """Closure check straight from the definition: the family contains the
    empty set and the ground set, every member is a subset of the ground set,
    and the family is closed under pairwise union and intersection (which in
    the finite case settles arbitrary unions too)."""
    fam = {frozenset(s) for s in family}
    g = frozenset(ground)
    if frozenset() not in fam or g not in fam:
        return False
    if any(not s <= g for s in fam):
        return False
    for a in fam:
        for b in fam:
            if a | b not in fam or a & b not in fam:
                return False
    return True


def all_topologies(ground):
    """Every topology on the ground set, found by scanning all families of
    proper non-empty subsets (the empty set and the ground set are forced).
    Doubly exponential: use only for |ground| <= 4."""
    g = frozenset(ground)
    proper = [s for s in powerset(g) if s and s != g]
    out = []
    for r in range(len(proper) + 1):
        for chosen in combinations(proper, r):
            fam = set(chosen) | {frozenset(), g}
            if is_topology(fam, g):
                out.append(frozenset(fam))
    return out


def classify_labeling(order, edges, ground, labels):
    """(is_iasl, is_tiasl, is_tiasi) computed verbatim from the definitions.

    ``labels`` maps each vertex 0..order-1 to a set of ints.  The labeling is
    an IASL when every label is a non-empty subset of the ground set, labels
    are pairwise distinct, and every edge's sumset stays inside the ground
    set.  It is additionally a TIASL when the labels together with the empty
    set form a topology of the ground set, and a TIASI when on top of that
    the edge sumsets are pairwise distinct."""
    g = frozenset(ground)
    labs = [frozenset(labels[v]) for v in range(order)]
    iasl = (
        all(l and l <= g for l in labs)
        and len(set(labs)) == order
        and all(sumset(labs[u], labs[v]) <= g for u, v in edges)
    )
    if not iasl:
        return False, False, False
    tiasl = is_topology(set(labs) | {frozenset()}, g)
    esums = [sumset(labs[u], labs[v]) for u, v in edges]
    tiasi = tiasl and len(set(esums)) == len(esums)
    return iasl, tiasl, tiasi


def bijection_exists(order, edges, ground, opens):
    """True if some assignment of the given non-empty opens to vertices (a
    bijection; len(opens) must equal order) keeps every edge's sumset inside
    the ground set.  Tries all order! permutations."""
    g = frozenset(ground)
    if len(opens) != order:
        raise ValueError("need exactly one open per vertex")
    for perm in permutations(range(order)):
        if all(sumset(opens[perm[u]], opens[perm[v]]) <= g for u, v in edges):
            return True
    return False


def canonical_edge_mask(order, edges):
    """Minimum edge-bitmask over all vertex permutations; two graphs of the
    same order are isomorphic iff their canonical masks are equal."""
    pairs = [(u, v) for u in range(order) for v in range(u + 1, order)]
    slot = {p: i for i, p in enumerate(pairs)}
    best = None
    for perm in permutations(range(order)):
        m = 0
        for u, v in edges:
            a, b = perm[u], perm[v]
            if a > b:
                a, b = b, a
            m |= 1 << slot[(a, b)]
        if best is None or m < best:
            best = m
    return best


# ---------------------------------------------------------------------------
# Reference copies of replaced fast paths.  Unlike the oracles above, these
# deliberately call the package's own building blocks: each one pins the
# observable behaviour of the code a fast path replaced.


def search_one_ground_reference(args):
    """The per-ground-set search loop as it was before skipped topologies
    were counted in closed form: stream every topology with k opens, skip
    those whose ground-set open no vertex could take, and try the rest.
    Returns (witness or None, topologies tried, bijection nodes)."""
    from tiasl import GroundSet, IntSet, bijection_match, verify_tiasl
    from tiasl.search import SearchWitness
    from tiasl.topology import (
        _abstract_open_masks,
        _topology_from_masks,
        translate_masks,
    )

    g, elems, k, min_deg = args
    s = len(elems)
    if 2**s < k:
        return None, 0, 0
    x = GroundSet(IntSet(elems))
    zero_first = elems[0] == 0
    topologies = 0
    nodes = [0]
    for abstract in _abstract_open_masks(s, k):
        topologies += 1
        x_compat = 1 if zero_first and 1 in abstract else 0
        if min_deg > x_compat:
            continue
        t = _topology_from_masks(x, translate_masks(abstract, x))
        lab = bijection_match(g, t, _nodes=nodes)
        if lab is not None:
            assert verify_tiasl(lab).is_tiasl
            return SearchWitness(t, lab), topologies, nodes[0]
    return None, topologies, nodes[0]


def find_tiasl_reference(g, bounds):
    """Serial, unpruned ``find_tiasl`` over :func:`search_one_ground_reference`:
    returns (witness or None, (ground sets, topologies, bijection nodes))."""
    from tiasl.search import _ground_candidates

    degs = g.degrees()
    min_deg = min(degs) if g.order else 0
    totals = [0, 0, 0]
    for elems in _ground_candidates(bounds):
        witness, topologies, nodes = search_one_ground_reference(
            (g, elems, g.order + 1, min_deg)
        )
        totals[0] += 1
        totals[1] += topologies
        totals[2] += nodes
        if witness is not None:
            return witness, tuple(totals)
    return None, tuple(totals)


def labeled_posets_reference(c):
    """Every labeled poset on c elements, each as its tuple of up-closed
    subsets (bit masks over the c elements, ascending), found by scanning
    the 3^C(c,2) orientation assignments of the pairs i < j (0 incomparable,
    1 for i < j, 2 for j < i) and keeping the transitive ones.  This was the
    poset table for c <= 5 before the one-point extension generator."""
    pairs = list(combinations(range(c), 2))
    posets = []
    for assign in product((0, 1, 2), repeat=len(pairs)):
        above = [0] * c
        for (i, j), a in zip(pairs, assign):
            if a == 1:
                above[i] |= 1 << j
            elif a == 2:
                above[j] |= 1 << i
        transitive = all(
            above[j] & ~above[i] == 0
            for i in range(c)
            for j in range(c)
            if above[i] >> j & 1
        )
        if transitive:
            posets.append(
                tuple(
                    u
                    for u in range(1 << c)
                    if all(above[i] & ~u == 0 for i in range(c) if u >> i & 1)
                )
            )
    return tuple(posets)


def enumerate_topologies_reference(x, open_count_filter=None):
    """The include/exclude closure search that listed topologies before they
    were built from partitions and posets: decides each proper non-empty
    subset of ``x`` in ascending mask order, leaving it out first, then
    putting it in together with everything its unions and intersections
    with the included opens force.  Yields ``Topology`` objects."""
    from tiasl.topology import _topology_from_masks

    full = x.members.mask
    subs = sorted(m for m in range(1, full) if m & ~full == 0)

    def close(included, seed):
        added = {seed}
        work = [seed]
        while work:
            a = work.pop()
            for b in list(included) + list(added):
                for r in (a | b, a & b):
                    if r and r != full and r not in included and r not in added:
                        added.add(r)
                        work.append(r)
        return added

    def dfs(pos, included, excluded):
        if open_count_filter is not None and len(included) + 2 > open_count_filter:
            return
        if pos == len(subs):
            if open_count_filter is None or len(included) + 2 == open_count_filter:
                yield _topology_from_masks(x, included)
            return
        m = subs[pos]
        if m in included:
            yield from dfs(pos + 1, included, excluded)
            return
        excluded.add(m)
        yield from dfs(pos + 1, included, excluded)
        excluded.remove(m)
        added = close(included, m)
        if not added & excluded:
            included |= added
            yield from dfs(pos + 1, included, excluded)
            included -= added

    yield from dfs(0, set(), set())
