"""Topology model: validity checking, enumeration, compatibility analysis."""

import math
from itertools import permutations
from types import SimpleNamespace

import pytest

from tiasl import (
    ENUMERATE_GUARD,
    DomainError,
    Graph,
    GroundSet,
    IntSet,
    ParseError,
    Topology,
    chain_topology,
    check_topology,
    compatibility_graph,
    count_topologies,
    discrete_topology,
    enumerate_topologies,
    format_topology,
    indiscrete_topology,
    min_pendant_requirements,
    parse_topology_text,
    pendant_vertices,
    sierpinski_topology,
    topologies_with_open_count,
)
from tiasl import topology
from tiasl.intset import canonical_key
from tiasl.topology import (
    PAIR_GUARD,
    STREAM_GUARD,
    _abstract_open_masks,
    _canonical_rank,
    _labeled_posets,
    _posets_with_up_set_count,
    _topology_from_masks,
    _zero_open_masks,
    count_open_masks,
    translate_masks,
)

from oracles import (
    all_topologies,
    enumerate_topologies_reference,
    is_topology,
    labeled_posets_reference,
)
from oracles import sumset as oracle_sumset


def g(*elems):
    return GroundSet.from_elements(elems)


def fam(*sets):
    return [IntSet(s) for s in sets]


class TestCheckTopology:
    def test_valid(self):
        check = check_topology(fam((), (0,), (0, 1)), g(0, 1))
        assert check.ok and bool(check)
        assert check.violations == ()

    def test_missing_empty(self):
        check = check_topology(fam((0,), (0, 1)), g(0, 1))
        assert not check.ok
        assert "missing-empty" in {v.kind for v in check.violations}

    def test_missing_ground(self):
        check = check_topology(fam((), (0,)), g(0, 1))
        assert "missing-ground" in {v.kind for v in check.violations}

    def test_open_not_subset(self):
        check = check_topology(fam((), (2,), (0, 1)), g(0, 1))
        assert "open-not-subset" in {v.kind for v in check.violations}

    def test_union_not_open_with_witness(self):
        check = check_topology(fam((), (0,), (1,), (0, 1, 2)), g(0, 1, 2))
        kinds = {v.kind for v in check.violations}
        assert "union-not-open" in kinds
        wit = next(v for v in check.violations if v.kind == "union-not-open")
        assert "{0}" in str(wit) and "{1}" in str(wit)

    def test_intersection_not_open(self):
        check = check_topology(
            fam((), (0, 1), (1, 2), (0, 1, 2)), g(0, 1, 2)
        )
        assert "intersection-not-open" in {v.kind for v in check.violations}

    def test_duplicate_open(self):
        check = check_topology(fam((), (0,), (0,), (0, 1)), g(0, 1))
        assert "duplicate-open" in {v.kind for v in check.violations}

    def test_agrees_with_oracle_on_all_small_families(self):
        """Every family of subsets of {0,1,2} is classified identically by
        check_topology and by the definitional oracle."""
        from itertools import combinations

        ground = g(0, 1, 2)
        subsets = [
            frozenset(c) for r in range(4) for c in combinations(range(3), r)
        ]
        for r in range(1, 9):
            for chosen in combinations(subsets, r):
                want = is_topology(chosen, {0, 1, 2})
                got = check_topology([IntSet(s) for s in chosen], ground).ok
                assert got == want, chosen


class TestCheckTopologyPairGuard:
    """check_topology counts the pairs of distinct opens before building any."""

    def test_at_the_bound(self):
        x = g(*range(10))
        assert check_topology(discrete_topology(x).opens, x).ok

    def test_one_past_the_bound_builds_nothing(self, monkeypatch):
        import itertools

        def refuse(*args):
            raise AssertionError("built pairs past the guard")

        x = g(*range(10))
        family = (*discrete_topology(x).opens, IntSet([10]))
        monkeypatch.setattr(itertools, "combinations", refuse)
        message = f"524800 pairs of 1025 distinct opens, more than {PAIR_GUARD}"
        with pytest.raises(DomainError, match=message):
            check_topology(family, x)


class TestDiscretePairBudget:
    """discrete_topology refuses, before building any open, more than the
    PAIR_GUARD pairs of opens that checking or matching it would pair up."""

    @pytest.mark.parametrize("s", [11, 64])
    def test_refused_before_any_open(self, monkeypatch, s):
        def no_build(ground, masks):
            raise AssertionError("opens built")

        monkeypatch.setattr(topology, "_topology_from_masks", no_build)
        opens = 2**s
        refusal = (
            f"^the discrete topology on {s} points has {opens * (opens - 1) // 2} "
            f"pairs of {opens} opens, more than {PAIR_GUARD}$"
        )
        with pytest.raises(DomainError, match=refusal):
            discrete_topology(g(*range(s)))

    def test_ten_points_served(self):
        t = discrete_topology(g(*range(10)))
        assert t.open_count == 1024 and t.is_discrete()


class TestTopologyType:
    def test_from_family_normalizes(self):
        t = Topology.from_family(fam((0, 1), (), (0,)), g(0, 1))
        assert [s.elements for s in t.opens] == [(), (0,), (0, 1)]
        assert t.open_count == 3
        assert t.nonempty_opens[0] == IntSet([0])

    def test_from_family_rejects_invalid(self):
        with pytest.raises(DomainError):
            Topology.from_family(fam((), (0,), (1,), (0, 1, 2)), g(0, 1, 2))

    def test_discrete_flag(self):
        assert discrete_topology(g(0, 1)).is_discrete()
        assert not sierpinski_topology(g(0, 1)).is_discrete()

    def test_named_topologies(self):
        assert indiscrete_topology(g(0, 5)).open_count == 2
        s = sierpinski_topology(g(0, 1))
        assert [x.elements for x in s.opens] == [(), (0,), (0, 1)]
        with pytest.raises(DomainError):
            sierpinski_topology(g(1, 2))
        with pytest.raises(DomainError):
            sierpinski_topology(g(0, 1, 2))

    def test_chain_topology(self):
        t = chain_topology(3, g(0, 1, 2, 3, 4, 5))
        assert [s.elements for s in t.opens] == [
            (),
            (0,),
            (0, 1),
            (0, 1, 2),
            (0, 1, 2, 3, 4, 5),
        ]
        with pytest.raises(DomainError):
            chain_topology(1, g(0, 2))
        with pytest.raises(DomainError):
            chain_topology(4, g(0, 1, 2))


class TestEnumeration:
    # Number of distinct topologies on an n-point set, n = 1..5.
    COUNTS = {1: 1, 2: 4, 3: 29, 4: 355, 5: 6942}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_counts_and_oracle(self, n):
        ground = GroundSet.from_elements(range(n))
        got = {
            frozenset(frozenset(s.elements) for s in t.opens)
            for t in enumerate_topologies(ground)
        }
        want = {frozenset(f) for f in all_topologies(range(n))}
        assert got == want
        assert len(got) == self.COUNTS[n]

    @pytest.mark.parametrize("n", [4, 5])
    def test_larger_counts(self, n):
        ground = GroundSet.from_elements(range(n))
        assert sum(1 for _ in enumerate_topologies(ground)) == self.COUNTS[n]

    def test_guard(self):
        with pytest.raises(DomainError):
            next(enumerate_topologies(GroundSet.from_elements(range(ENUMERATE_GUARD + 1))))

    def test_open_count_filter(self):
        ground = g(0, 1, 2)
        by_filter = sum(
            sum(1 for _ in enumerate_topologies(ground, k)) for k in range(2, 9)
        )
        assert by_filter == 29

    @pytest.mark.parametrize("k", range(2, 8))
    def test_bounded_route_matches_enumeration(self, k):
        ground = g(0, 1, 2, 3)
        via_filter = {
            str(t) for t in enumerate_topologies(ground, k)
        }
        via_bounded = {str(t) for t in topologies_with_open_count(ground, k)}
        assert via_bounded == via_filter

    @pytest.mark.parametrize("k", range(2, 8))
    def test_bounded_route_gapped_ground(self, k):
        """The bounded route agrees with filtered enumeration on a ground set
        that is not an interval."""
        ground = g(0, 2, 5, 9)
        via_filter = {str(t) for t in enumerate_topologies(ground, k)}
        via_bounded = {str(t) for t in topologies_with_open_count(ground, k)}
        assert via_bounded == via_filter

    def test_bounded_route_three_opens_formula(self):
        """Topologies with exactly 3 opens are in bijection with proper
        non-empty subsets: 2^|X| - 2 of them."""
        ground = GroundSet.from_elements(range(6))
        assert sum(1 for _ in topologies_with_open_count(ground, 3)) == 2**6 - 2

    def test_bounded_route_guards(self):
        """Neither the open count nor the ground size is refused by itself:
        8 opens on 2 points is an empty stream, and 3 opens on 11 points
        holds the 2^11 - 2 topologies."""
        assert list(topologies_with_open_count(g(0, 1), 8)) == []
        ground = GroundSet.from_elements(range(11))
        assert sum(1 for _ in topologies_with_open_count(ground, 3)) == 2046

    def test_bounded_route_stream_guard(self, monkeypatch):
        """Exactly four streams on at most 10 points with at most 7 opens
        exceed STREAM_GUARD; each is refused from its count, before the
        walk."""

        def no_walk(s, k):
            raise AssertionError("stream walked")

        monkeypatch.setattr(topology, "_abstract_open_masks", no_walk)
        refused = [
            (s, k)
            for s in range(11)
            for k in range(8)
            if count_open_masks(s, k) > STREAM_GUARD
        ]
        assert refused == [(9, 6), (9, 7), (10, 6), (10, 7)]
        for s, k in refused:
            stream = topologies_with_open_count(GroundSet.from_elements(range(s)), k)
            with pytest.raises(DomainError, match=f" {count_open_masks(s, k)} "):
                next(stream)
        assert count_open_masks(10, 7) == 28483110

    @pytest.mark.parametrize("s,k", [(8, 7), (10, 5)])
    def test_bounded_route_largest_admitted_streams_start(self, s, k):
        ground = GroundSet.from_elements(range(s))
        assert count_open_masks(s, k) <= STREAM_GUARD
        first = next(topologies_with_open_count(ground, k))
        assert first.ground == ground and first.open_count == k

    def test_no_duplicates_bounded_route(self):
        ground = g(0, 1, 2, 3)
        seen = [str(t) for k in range(2, 8) for t in topologies_with_open_count(ground, k)]
        assert len(seen) == len(set(seen))


#: Largest stream the differential tests below build in full.
STREAM_BUDGET = 200_000

#: Every (s, k) with s <= 10 and k <= 7 whose stream fits the budget.
SMALL_STREAMS = [
    (s, k)
    for s in range(1, 11)
    for k in range(8)
    if count_open_masks(s, k) <= STREAM_BUDGET
]


class TestCountedStream:
    @pytest.mark.parametrize("s,k", SMALL_STREAMS)
    def test_count_matches_stream(self, s, k):
        assert count_open_masks(s, k) == sum(1 for _ in _abstract_open_masks(s, k))

    def test_pinned_counts(self):
        assert count_open_masks(7, 7) == 67620
        assert count_open_masks(8, 6) == 193032

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_counts_sum_to_all_topologies(self, s):
        """Summed over every open count, the closed form gives the number of
        topologies on s points (OEIS A000798)."""
        total = sum(count_open_masks(s, k) for k in range(2**s + 1))
        assert total == TestEnumeration.COUNTS[s]

    @pytest.mark.parametrize("s,k", [(s, k) for s, k in SMALL_STREAMS if s <= 8])
    def test_zero_open_walk_matches_filtered_stream(self, s, k):
        want = [(i, a) for i, a in enumerate(_abstract_open_masks(s, k)) if 1 in a]
        assert list(_zero_open_masks(s, k)) == want


#: Gapped ground sets of every size up to 10.
GAPPED = (0, 3, 4, 9, 17, 20, 31, 40, 52, 63)


class TestCountTopologies:
    @pytest.mark.parametrize("s,k", [(0, None), (-1, None), (-1, 3)])
    def test_no_points_refused(self, s, k):
        """Counts are served on s >= 1 points, as ground sets are non-empty;
        the empty set's one topology is not counted as 0."""
        refusal = rf"^topologies are counted on s >= 1 points, got {s}$"
        with pytest.raises(DomainError, match=refusal):
            count_topologies(s, k)

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_matches_enumeration(self, s):
        ground = GroundSet.from_elements(GAPPED[:s])
        for k in [None, *range(-1, 2**s + 2)]:
            want = sum(1 for _ in enumerate_topologies(ground, k))
            assert count_topologies(s, k) == want, k

    @pytest.mark.parametrize(
        "s,k",
        [
            (s, k)
            for s in (6, 7, 8)
            for k in range(-1, 8)
            if count_open_masks(s, k) <= STREAM_BUDGET
        ],
    )
    def test_matches_bounded_route(self, s, k):
        ground = GroundSet.from_elements(GAPPED[:s])
        assert count_topologies(s, k) == sum(1 for _ in topologies_with_open_count(ground, k))

    @pytest.mark.parametrize("s,k", [(6, None), (6, 8), (64, 3), (11, 8), (10, 7), (9, 6)])
    def test_guards_match_the_streams(self, monkeypatch, s, k):
        """Each refusal is the stream's own, in the same order, except the
        stream guard, which protects only building the topologies."""

        def no_walk(s, k):
            raise AssertionError("stream walked")

        monkeypatch.setattr(topology, "_abstract_open_masks", no_walk)
        ground = GroundSet.from_elements(range(s))
        stream = (
            enumerate_topologies(ground)
            if k is None
            else topologies_with_open_count(ground, k)
        )
        with pytest.raises(DomainError) as refused:
            next(stream)
        if str(refused.value).startswith("the bounded route on"):
            assert count_topologies(s, k) == count_open_masks(s, k) > STREAM_GUARD
        else:
            with pytest.raises(DomainError) as counted:
                count_topologies(s, k)
            assert str(counted.value) == str(refused.value)


#: Ground sizes and open counts of the refusal matrix below.
MATRIX_SIZES = [*range(1, 13), 64]
MATRIX_COUNTS = [None, *range(-1, 10), 65]


def table_refuses(s, k):
    """Where the poset tables' guard refuses a count on s points."""
    return s >= 6 and (k is None or 8 <= k <= 2**s)


class TestRefusalMatrix:
    """Every refusal comes from the poset tables' guard or STREAM_GUARD."""

    @pytest.mark.parametrize("s", MATRIX_SIZES)
    def test_count_refused_only_by_the_table_guard(self, s):
        for k in MATRIX_COUNTS:
            if table_refuses(s, k):
                refusal = f"on [67] classes .*bound of {k or 8}$"
                with pytest.raises(DomainError, match=refusal):
                    count_topologies(s, k)
            elif k is not None and not 2 <= k <= 2**s:
                assert count_topologies(s, k) == 0, k
            elif k is None:
                assert count_topologies(s, k) == TestEnumeration.COUNTS[s]
            else:
                assert count_topologies(s, k) == count_open_masks(s, k), k

    @pytest.mark.parametrize("s", MATRIX_SIZES)
    def test_generators_refuse_before_the_walk(self, monkeypatch, s):
        """Each generator refuses before its first family exactly where the
        count is refused or exceeds STREAM_GUARD, the latter naming the
        generator's route; past that, it walks."""

        class Walked(Exception):
            pass

        def no_walk(s, k):
            raise Walked

        monkeypatch.setattr(topology, "_abstract_open_masks", no_walk)
        ground = GroundSet.from_elements(range(s))
        for k in MATRIX_COUNTS:
            try:
                refused = over = count_topologies(s, k) > STREAM_GUARD
            except DomainError:
                refused, over = True, False
            streams = [("enumeration", enumerate_topologies(ground, k))]
            if k is not None:
                streams.append(("bounded route", topologies_with_open_count(ground, k)))
            for route, stream in streams:
                with pytest.raises(DomainError if refused else Walked) as caught:
                    next(stream)
                if over:
                    assert str(caught.value).startswith(f"the {route} on {s} points")

    @pytest.mark.parametrize("s", MATRIX_SIZES)
    def test_stream_bound(self, s):
        """C(2^s - 2, K - 2), the stream check's closed-form bound, is at
        least every served count and above STREAM_GUARD wherever the tables
        refuse, so skipping the count under it skips no refusal."""
        for k in range(2, 10):
            bound = math.comb(2**s - 2, k - 2)
            if table_refuses(s, k):
                assert bound > STREAM_GUARD, k
            else:
                assert bound >= count_open_masks(s, k), k

    def test_stream_check_counts_only_past_the_bound(self, monkeypatch):
        """(5, 7), bounded by C(30, 5) = 142,506, starts with no count;
        (9, 6), bounded by C(510, 4), is counted and refused; an open count
        of 2^62 on 64 points reaches the table guard with no binomial
        computed, as its bound is at least 2^(2^62 - 2)."""

        def no_count(s, k):
            raise AssertionError("stream counted")

        def small_comb(n, r):
            assert r < STREAM_GUARD.bit_length()
            return math.comb(n, r)

        monkeypatch.setattr(topology, "count_topologies", no_count)
        first = next(topologies_with_open_count(g(*range(5)), 7))
        assert first.open_count == 7
        monkeypatch.undo()
        with pytest.raises(DomainError, match=r"^the bounded route on 9 points with 6 opens holds "):
            next(topologies_with_open_count(g(*range(9)), 6))
        monkeypatch.setattr(topology, "math", SimpleNamespace(comb=small_comb))
        with pytest.raises(DomainError, match=r"^poset tables on 62 classes "):
            next(topologies_with_open_count(g(*range(64)), 2**62))

    @pytest.mark.parametrize("s", MATRIX_SIZES)
    def test_served_streams_build_their_count(self, s):
        """Unpatched, each served stream of at most 2^12 topologies is built
        whole, 64 points included: no step of it costs 2^s."""
        ground = GroundSet.from_elements(range(s))
        for k in MATRIX_COUNTS:
            try:
                count = count_topologies(s, k)
            except DomainError:
                continue
            if count > 2**12:
                continue
            streams = [enumerate_topologies(ground, k)]
            if k is not None:
                streams.append(topologies_with_open_count(ground, k))
            for stream in streams:
                built = list(stream)
                assert len(set(built)) == len(built) == count, k
                assert all(t.open_count == k for t in built) or k is None


def _or_blocks(class_mask, blocks):
    """The union of the blocks in ``class_mask``, one bit at a time: the
    per-up-set builder the generators' union tables replaced."""
    m = 0
    while class_mask:
        low = class_mask & -class_mask
        m |= blocks[low.bit_length() - 1]
        class_mask ^= low
    return m


class TestBlockUnionTables:
    @pytest.mark.parametrize("s", range(1, 8))
    def test_generators_match_the_per_up_set_builder(self, s):
        """Both generators yield the families of one union per up-set, in
        the same order, for every open count up to 7."""
        for k in range(8):
            want = [
                (i, tuple(_or_blocks(u, blocks) for u in ups))
                for index, blocks, posets in topology._family_walk(s, k)
                for i, ups in enumerate(posets, index)
            ]
            assert list(enumerate(_abstract_open_masks(s, k))) == want, k
            zero = [(i, f) for i, f in want if 1 in f]
            assert list(_zero_open_masks(s, k)) == zero, k


class TestTableBuiltTopologies:
    """Both generators build each topology from one rank and one ``IntSet``
    per position mask a family holds, made on first use; the old per-family
    builder is the reference."""

    @pytest.mark.parametrize("s", range(1, 11))
    def test_ranks_follow_the_canonical_order(self, s):
        """Sorting position masks by rank sorts their translations into a
        gapped ground set by ``canonical_key``."""
        masks = translate_masks(range(1 << s), g(*GAPPED[:s]))
        ranks = [_canonical_rank(m, s) for m in range(1 << s)]
        assert len(set(ranks)) == 1 << s
        by_rank = [masks[m] for m in sorted(range(1 << s), key=ranks.__getitem__)]
        by_key = sorted(map(IntSet.from_mask, masks), key=canonical_key)
        assert by_rank == [t.mask for t in by_key]

    @pytest.mark.parametrize("elems", [(0, 3, 4, 9, 17), (1, 2, 5, 6, 8), (0, 1, 2, 3, 4)])
    def test_enumeration_matches_the_per_family_builder(self, elems):
        x, s = g(*elems), len(elems)
        top = (1 << s) - 1
        for k in [None, *range(2, 10)]:
            counts = range(2**s + 1) if k is None else (k,)
            families = sorted(
                (f for c in counts for f in _abstract_open_masks(s, c)),
                key=lambda f: sum(1 << (top - m) for m in f),
            )
            want = [_topology_from_masks(x, translate_masks(f, x)) for f in families]
            assert list(enumerate_topologies(x, k)) == want, k

    @pytest.mark.parametrize(
        "elems, k",
        [((0, 3, 4, 9, 17, 20), 6), ((2, 3, 4, 9, 17, 20, 31), 5), (GAPPED, 3), (GAPPED[:8], 4)],
    )
    def test_bounded_route_matches_the_per_family_builder(self, elems, k):
        x = g(*elems)
        families = _abstract_open_masks(len(x), k)
        want = [_topology_from_masks(x, translate_masks(f, x)) for f in families]
        assert list(topologies_with_open_count(x, k)) == want


class TestPosetGenerator:
    @pytest.mark.parametrize("c", range(6))
    def test_matches_relation_scan(self, c):
        """The one-point extension table equals the relation scan, order
        included, both unpruned and pruned at every up-set count."""
        scan = labeled_posets_reference(c)
        assert tuple(ups for _, ups in _labeled_posets(c, 2**c)) == scan
        for k in range(1, 2**c + 2):
            assert _posets_with_up_set_count(c, k) == tuple(
                ups for ups in scan if len(ups) == k
            )

    def test_table_sizes(self):
        """Labeled posets on c = 1..5 points (OEIS A001035)."""
        sizes = [len(_labeled_posets(c, 2**c)) for c in range(1, 6)]
        assert sizes == [1, 3, 19, 219, 4231]

    def test_six_class_chains(self):
        """On 6 classes only the total orders have 7 up-sets."""
        chains = set()
        for perm in permutations(range(6)):
            ups, m = [0], 0
            for i in reversed(perm):
                m |= 1 << i
                ups.append(m)
            chains.add(tuple(sorted(ups)))
        table = _posets_with_up_set_count(6, 7)
        assert len(table) == 720 and set(table) == chains

    def test_two_tables_per_class_count(self):
        """Every open count on 5 points reads the table pruned at
        OPEN_COUNT_GUARD or the complete one: at most two per class count."""
        for cached in (_labeled_posets, _posets_with_up_set_count, count_open_masks):
            cached.cache_clear()
        assert sum(count_open_masks(5, k) for k in range(33)) == 6942
        assert _labeled_posets.cache_info().currsize <= 12

    def test_guard(self):
        """Tables are built for at most 7 up-sets or at most 5 classes."""
        for s in (6, 7):
            with pytest.raises(DomainError, match="6 classes.*bound of 8"):
                count_open_masks(s, 8)
        assert count_open_masks(5, 32) == 1
        assert count_open_masks(10, 7) == 28483110


class TestEnumerationOrder:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_closure_search(self, n):
        ground = GroundSet.from_elements(range(n))
        for k in [None, *range(2**n + 2)]:
            got = [str(t) for t in enumerate_topologies(ground, k)]
            want = [str(t) for t in enumerate_topologies_reference(ground, k)]
            assert got == want, k

    def test_matches_closure_search_gapped_five(self):
        ground = g(0, 2, 3, 7, 9)
        got = [str(t) for t in enumerate_topologies(ground)]
        assert got == [str(t) for t in enumerate_topologies_reference(ground)]

    def test_open_count_filter_gapped_five(self):
        """Each open count reads its own walk; the rows are those of one
        closure search filtered by open count, order included."""
        ground = g(0, 2, 3, 7, 9)
        reference = list(enumerate_topologies_reference(ground))
        for k in range(34):
            got = [str(t) for t in enumerate_topologies(ground, k)]
            assert got == [str(t) for t in reference if t.open_count == k], k


class TestCompatibility:
    def test_indiscrete_no_edges(self):
        cg = compatibility_graph(indiscrete_topology(g(0, 1)))
        assert cg.edges == frozenset()
        assert cg.nodes == (IntSet([0, 1]),)
        assert cg.degrees() == (0,)

    def test_sierpinski_single_edge(self):
        cg = compatibility_graph(sierpinski_topology(g(0, 1)))
        assert len(cg.nodes) == 2
        assert cg.degree_of(IntSet([0])) == 1
        assert cg.degree_of(IntSet([0, 1])) == 1

    def test_chain_degrees(self):
        t = chain_topology(2, g(0, 1, 2))
        cg = compatibility_graph(t)
        deg = {str(n): cg.degree_of(n) for n in cg.nodes}
        assert deg == {"{0}": 2, "{0,1}": 1, "{0,1,2}": 1}

    def test_neighbors(self):
        cg = compatibility_graph(chain_topology(2, g(0, 1, 2)))
        i_zero = cg.nodes.index(IntSet([0]))
        assert len(cg.neighbors(i_zero)) == 2

    @pytest.mark.parametrize(
        "ground", [(0,), (1,), (0, 1), (0, 2), (1, 2), (0, 1, 2), (0, 1, 3), (0, 2, 4), (1, 2, 3)]
    )
    def test_against_oracle(self, ground):
        """Every topology with |X| <= 3: the compatibility graph is a Graph
        whose edges are the node pairs with A + B inside X."""
        x = g(*ground)
        for t in enumerate_topologies(x):
            cg = compatibility_graph(t)
            assert isinstance(cg, Graph)
            assert cg.nodes == t.nonempty_opens and cg.order == len(cg.nodes)
            sets = [frozenset(o) for o in cg.nodes]
            expected = {
                (i, j)
                for i in range(len(sets))
                for j in range(i + 1, len(sets))
                if oracle_sumset(sets[i], sets[j]) <= frozenset(ground)
            }
            assert cg.edges == expected
            degrees = [sum(v in e for e in expected) for v in range(len(sets))]
            assert cg.degrees() == tuple(degrees)
            assert [cg.degree_of(o) for o in cg.nodes] == degrees
            assert pendant_vertices(cg) == tuple(v for v, d in enumerate(degrees) if d == 1)
            for v in range(cg.order):
                nbrs = sorted(u for e in expected if v in e for u in e if u != v)
                assert cg.neighbors(v) == tuple(nbrs)


class TestMinPendantRequirements:
    def test_discrete_two(self):
        req = min_pendant_requirements(discrete_topology(g(0, 1)))
        assert req.edges_on_zero_vertex == 2
        assert req.pendant_vertices == 2

    def test_chain(self):
        req = min_pendant_requirements(chain_topology(1, g(0, 1)))
        assert req == (1, 2)

    def test_nine_open_example(self):
        t = Topology.from_family(
            fam(
                (),
                (0,),
                (1,),
                (0, 1),
                (0, 2),
                (0, 1, 2),
                (0, 2, 3),
                (0, 1, 2, 3),
                (0, 1, 2, 3, 4),
            ),
            g(0, 1, 2, 3, 4),
        )
        req = min_pendant_requirements(t)
        assert req.edges_on_zero_vertex == 1
        assert req.pendant_vertices == 1

    def test_requires_zero_open(self):
        with pytest.raises(DomainError, match=r"\{0\} is not open"):
            min_pendant_requirements(indiscrete_topology(g(0, 1)))


class TestTopologyText:
    def test_round_trip(self):
        for t in (
            discrete_topology(g(0, 1)),
            chain_topology(2, g(0, 1, 2)),
            indiscrete_topology(g(0, 3)),
        ):
            assert str(parse_topology_text(format_topology(t))) == str(t)

    def test_parse_reports_line(self):
        text = "ground: {0,1}\n{}\n{0,oops}\n{0,1}\n"
        with pytest.raises(ParseError) as e:
            parse_topology_text(text)
        assert e.value.offset == 3
        assert "bad open set" in str(e.value)

    def test_parse_reports_physical_line(self):
        text = "ground: {0,1}\n\n{}\n\n{0,oops}\n{0,1}\n"
        with pytest.raises(ParseError) as e:
            parse_topology_text(text)
        assert e.value.offset == 5
        with pytest.raises(ParseError) as e:
            parse_topology_text("ground: {0,1}\n\n{0}\n\n{0,1}\n")
        assert e.value.offset == 5

    def test_parse_open_set_error_names_one_line_and_a_column(self):
        with pytest.raises(ParseError) as e:
            parse_topology_text("ground: {0,1}\n\n{}\n\n{0,oops}\n")
        assert e.value.offset == 5
        assert str(e.value).count("offset") == 1
        assert "got 'oops' at column 4 (offset 5)" in str(e.value)

    def test_parse_ground_error_names_one_line_and_a_column(self):
        with pytest.raises(ParseError) as e:
            parse_topology_text("\nground: {0,x}\n{}\n")
        assert e.value.offset == 2
        assert str(e.value).count("offset") == 1
        assert "got 'x' at column 12 (offset 2)" in str(e.value)

    def test_parse_requires_empty_set_line(self):
        with pytest.raises(ParseError, match="empty set"):
            parse_topology_text("ground: {0,1}\n{0}\n{0,1}\n")

    def test_parse_validates(self):
        text = "ground: {0,1,2}\n{}\n{0}\n{1}\n{0,1,2}\n"
        with pytest.raises(DomainError):
            parse_topology_text(text)

    def test_parse_requires_ground_line(self):
        with pytest.raises(ParseError):
            parse_topology_text("{}\n{0}\n")
