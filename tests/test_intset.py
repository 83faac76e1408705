"""Integer-set core: construction, order, sumsets, parsing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tiasl import (
    UNIVERSE_LIMIT,
    DomainError,
    GroundSet,
    IntSet,
    ParseError,
    canonical_key,
    format_set,
    is_subset,
    nontrivial_summand_pairs,
    parse_set_text,
    sumset,
    sumset_mask,
)

from oracles import sumset as oracle_sumset

small_sets = st.frozensets(st.integers(min_value=0, max_value=31), min_size=1)


class TestIntSet:
    def test_construction_and_elements(self):
        s = IntSet([3, 1, 2, 1])
        assert s.elements == (1, 2, 3)
        assert len(s) == 3
        assert 2 in s and 0 not in s
        assert s.max_element == 3 and s.min_element == 1

    def test_empty(self):
        s = IntSet()
        assert not s
        assert len(s) == 0
        assert str(s) == "{}"

    def test_empty_has_no_extremes(self):
        with pytest.raises(DomainError, match="^empty set has no maximum$"):
            IntSet().max_element
        with pytest.raises(DomainError, match="^empty set has no minimum$"):
            IntSet().min_element

    def test_negative_mask_rejected(self):
        with pytest.raises(DomainError, match="^bit mask must be non-negative$"):
            IntSet.from_mask(-1)

    def test_repr(self):
        assert repr(IntSet([0, 1, 2])) == "IntSet({0, 1, 2})"
        assert repr(IntSet()) == "IntSet({})"

    def test_rejects_negative_and_bool(self):
        with pytest.raises(DomainError):
            IntSet([-1])
        with pytest.raises(DomainError):
            IntSet([True])

    def test_mask_round_trip(self):
        s = IntSet([0, 2, 5])
        assert IntSet.from_mask(s.mask) == s
        assert s.mask == 0b100101

    def test_set_algebra(self):
        a, b = IntSet([0, 1]), IntSet([1, 2])
        assert (a | b).elements == (0, 1, 2)
        assert (a & b).elements == (1,)
        assert IntSet([0]) <= a and IntSet([0]) < a
        assert a >= IntSet([0]) and a > IntSet([0])
        assert not a <= b

    def test_hash_and_eq(self):
        assert IntSet([1, 2]) == IntSet([2, 1])
        assert len({IntSet([1, 2]), IntSet([2, 1])}) == 1

    def test_str(self):
        assert str(IntSet([0, 1, 2])) == "{0,1,2}"

    def test_canonical_key_orders_by_size_then_elements(self):
        sets = [IntSet([0, 1]), IntSet([2]), IntSet([0]), IntSet([0, 2])]
        ordered = sorted(sets, key=canonical_key)
        assert [s.elements for s in ordered] == [(0,), (2,), (0, 1), (0, 2)]


class TestSumset:
    def test_fixed_example(self):
        assert (IntSet([1, 2]) + IntSet([1, 2])).elements == (2, 3, 4)

    def test_zero_singleton_is_identity(self):
        a = IntSet([0, 3, 5])
        assert sumset(a, IntSet([0])) == a

    def test_empty_operand_rejected(self):
        with pytest.raises(DomainError):
            sumset(IntSet(), IntSet([1]))
        with pytest.raises(DomainError):
            IntSet([1]) + IntSet()

    @given(small_sets, small_sets)
    def test_matches_oracle(self, a, b):
        got = sumset(IntSet(a), IntSet(b))
        assert frozenset(got.elements) == oracle_sumset(a, b)

    @given(small_sets, small_sets)
    def test_commutative(self, a, b):
        assert sumset(IntSet(a), IntSet(b)) == sumset(IntSet(b), IntSet(a))

    @given(small_sets, small_sets, small_sets)
    def test_associative(self, a, b, c):
        x, y, z = IntSet(a), IntSet(b), IntSet(c)
        assert (x + y) + z == x + (y + z)

    @given(small_sets, small_sets)
    def test_size_bounds(self, a, b):
        n = len(sumset(IntSet(a), IntSet(b)))
        assert max(len(a), len(b)) <= n <= len(a) * len(b)

    @given(small_sets, small_sets)
    def test_extremes_add(self, a, b):
        s = sumset(IntSet(a), IntSet(b))
        assert s.max_element == max(a) + max(b)
        assert s.min_element == min(a) + min(b)

    @given(st.integers(min_value=1, max_value=2**20), st.integers(min_value=1, max_value=2**20))
    def test_mask_form_agrees(self, ma, mb):
        got = sumset_mask(ma, mb)
        want = sumset(IntSet.from_mask(ma), IntSet.from_mask(mb)).mask
        assert got == want


class TestGroundSet:
    def test_basic(self):
        x = GroundSet.from_elements([0, 1, 2])
        assert len(x) == 3
        assert 2 in x and 3 not in x
        assert x.max_element == 2
        assert str(x) == "{0,1,2}"

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            GroundSet.from_elements([])

    def test_universe_guard(self):
        with pytest.raises(DomainError):
            GroundSet.from_elements([UNIVERSE_LIMIT + 1])

    def test_is_subset(self):
        x = GroundSet.from_elements([0, 1, 3])
        assert is_subset(IntSet([0, 3]), x)
        assert not is_subset(IntSet([2]), x)
        assert is_subset(IntSet(), x)


def nonempty_subsets(n):
    from itertools import combinations

    return [IntSet(c) for r in range(1, n + 1) for c in combinations(range(n), r)]


class TestNontrivialSummandPairs:
    def test_example(self):
        universe = nonempty_subsets(3)
        pairs = nontrivial_summand_pairs(IntSet([0, 1, 2]), universe)
        as_sets = {(a.elements, b.elements) for a, b in pairs}
        assert ((0, 1), (0, 1)) in as_sets
        for a, b in pairs:
            assert a + b == IntSet([0, 1, 2])
            for s in (a, b):
                assert s and s.elements != (0,) and s != IntSet([0, 1, 2])

    def test_singleton_has_none(self):
        assert nontrivial_summand_pairs(IntSet([1]), nonempty_subsets(2)) == []

    def test_empty_members_of_universe_skipped(self):
        universe = [IntSet(), IntSet([0, 1]), IntSet([0, 1])]
        pairs = nontrivial_summand_pairs(IntSet([0, 1, 2]), universe)
        assert pairs == [(IntSet([0, 1]), IntSet([0, 1]))]

    def test_empty_target_rejected(self):
        with pytest.raises(DomainError):
            nontrivial_summand_pairs(IntSet(), [IntSet([0])])

    def test_brute_force_agreement(self):
        subsets = nonempty_subsets(4)
        for target in subsets:
            got = {
                frozenset((a.elements, b.elements))
                for a, b in nontrivial_summand_pairs(target, subsets)
            }
            want = set()
            for i, a in enumerate(subsets):
                for b in subsets[i:]:
                    if a.elements == (0,) or b.elements == (0,):
                        continue
                    if a == target or b == target:
                        continue
                    if a + b == target:
                        want.add(frozenset((a.elements, b.elements)))
            assert got == want, str(target)


class TestParsing:
    def test_round_trip(self):
        for elems in ([], [0], [0, 1, 5]):
            s = IntSet(elems)
            assert parse_set_text(format_set(s)) == s

    def test_whitespace_tolerated(self):
        assert parse_set_text(" { 0 , 2 } ") == IntSet([0, 2])

    def test_missing_brace_offset(self):
        with pytest.raises(ParseError) as e:
            parse_set_text("0,1}")
        assert e.value.offset == 0

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_set_text("{0,x}")

    def test_duplicate_element(self):
        with pytest.raises(ParseError):
            parse_set_text("{1,1}")

    def test_elements_above_the_universe_refused(self):
        """Refused while parsing: an element past any ground set would
        otherwise become a mask of that many bits."""
        assert parse_set_text("{0,64}") == IntSet([0, 64])
        for text in ("{0,65}", "{0,100000}"):
            with pytest.raises(ParseError, match="universe limit 64") as e:
                parse_set_text(text)
            assert e.value.offset == 3

    def test_huge_words_refused(self):
        """Words past the interpreter's int conversion limit are a
        ParseError, not a bare ValueError; leading zeros do not count."""
        big = "1" * 5000
        with pytest.raises(ParseError, match="5000 digits") as e:
            parse_set_text("{0, " + big + "}")
        assert e.value.offset == 4
        assert parse_set_text("{" + "0" * 5000 + "1}") == IntSet([1])
        assert parse_set_text("{0001}") == IntSet([1])

    def test_trailing_junk(self):
        with pytest.raises(ParseError):
            parse_set_text("{0} extra")

    @given(st.frozensets(st.integers(min_value=0, max_value=40)))
    def test_format_parse_inverse(self, elems):
        s = IntSet(elems)
        assert parse_set_text(format_set(s)) == s
