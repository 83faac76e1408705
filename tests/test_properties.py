"""Hypothesis properties of the text formats: every parser refuses bad text
with ParseError or DomainError only, and format → parse is the identity.
The graph6 round trip lives with the codec in test_graph."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiasl import (
    DomainError,
    Graph,
    GroundSet,
    IntSet,
    ParseError,
    SetLabeling,
    Topology,
    format_edge_list,
    format_labeling,
    format_topology,
    parse_edge_list,
    parse_graph6,
    parse_labeling_text,
    parse_set_text,
    parse_topology_text,
)

#: Pieces of the formats themselves, so that fuzzed text gets past the first
#: check of each parser; "²" is a digit that ``int`` refuses.
TOKENS = ["{", "}", ",", " ", "\n", "#", ":", "v", "ground:", "0", "1", "7", "64", "65", "²", "?", "~"]

fuzzed_text = st.one_of(
    st.text(),
    st.lists(st.sampled_from(TOKENS), max_size=40).map("".join),
    st.text(alphabet=st.characters(min_codepoint=62, max_codepoint=127)),
)


@pytest.mark.parametrize(
    "parse",
    [parse_set_text, parse_edge_list, parse_graph6, parse_labeling_text, parse_topology_text],
)
@settings(max_examples=200, deadline=None)
@given(text=fuzzed_text)
@example(text="{²}")
@example(text="{0,65}")
@example(text="2 1\n0 ²")
@example(text="ground: {0}\nv²: {0}")
@example(text="{" + "1" * 5000 + "}")
@example(text="1" * 5000 + " 0")
@example(text="2 1\n0 " + "1" * 5000)
@example(text="ground: {0}\nv" + "1" * 5000 + ": {0}")
@example(text="70000 0")
def test_parsers_raise_only_their_own_errors(parse, text):
    try:
        parse(text)
    except (ParseError, DomainError):
        pass


elements = st.integers(min_value=0, max_value=64)
ground_sets = st.frozensets(elements, min_size=1, max_size=8).map(GroundSet.from_elements)


@st.composite
def graphs(draw, max_order=8):
    n = draw(st.integers(min_value=0, max_value=max_order))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, frozenset(draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else ()))


@given(graphs())
def test_edge_list_round_trip(g):
    assert parse_edge_list(format_edge_list(g)) == g


@given(graphs(), ground_sets, st.data())
def test_labeling_round_trip(g, ground, data):
    labels = tuple(
        IntSet(data.draw(st.frozensets(elements, max_size=8))) for _ in range(g.order)
    )
    lab = SetLabeling(g, ground, labels)
    parsed_ground, mapping = parse_labeling_text(format_labeling(lab))
    assert SetLabeling.from_mapping(g, parsed_ground, mapping) == lab


@st.composite
def topologies(draw):
    """The topology generated by a random family of subsets of a random
    ground set: the family closed under pairwise union and intersection."""
    ground = draw(st.frozensets(elements, min_size=1, max_size=6))
    opens = {frozenset(), ground}
    opens |= set(draw(st.lists(st.frozensets(st.sampled_from(sorted(ground))), max_size=6)))
    grown = True
    while grown:
        new = {a | b for a in opens for b in opens} | {a & b for a in opens for b in opens}
        grown = not new <= opens
        opens |= new
    return Topology.from_family(map(IntSet, opens), GroundSet.from_elements(ground))


@given(topologies())
def test_topology_round_trip(t):
    assert parse_topology_text(format_topology(t)) == t
