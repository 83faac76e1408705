"""Labelings and staged verification against a definitional oracle."""

import itertools
import json
import random

import pytest

from tiasl import (
    DomainError,
    Graph,
    GroundSet,
    IntSet,
    ParseError,
    SetLabeling,
    format_labeling,
    format_report,
    induced_edge_labels,
    label_star_discrete,
    parse_labeling_text,
    path,
    report_to_dict,
    report_to_json,
    restriction_check,
    verify_iasl,
    verify_tiasl,
    verify_tiasi,
)
from tiasl.labeling import _equal_pairs
from tiasl.topology import PAIR_GUARD

from oracles import classify_labeling


def lab(g, ground_elems, *label_sets):
    ground = GroundSet.from_elements(ground_elems)
    return SetLabeling(g, ground, tuple(IntSet(s) for s in label_sets))


class TestPairGuard:
    """The verifier counts its equal-label pairs before building any."""

    @staticmethod
    def groups(*sizes):
        return [m for m, size in enumerate(sizes) for _ in range(size)]

    def test_at_the_bound(self):
        # C(1024,2) + C(32,2) + C(6,2) + C(2,2) = 2**19
        masks = self.groups(1024, 32, 6, 2)
        assert len(_equal_pairs(masks)) == PAIR_GUARD

    def test_one_past_the_bound_builds_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built pairs past the guard")

        monkeypatch.setattr(itertools, "combinations", refuse)
        message = f"524289 pairs of equal labels, more than {PAIR_GUARD}"
        with pytest.raises(DomainError, match=message):
            _equal_pairs(self.groups(1024, 32, 6, 2, 2))


class TestSetLabeling:
    def test_completeness_enforced(self):
        with pytest.raises(DomainError):
            lab(path(3), [0, 1], (0,), (1,))

    def test_from_mapping(self):
        g = path(2)
        ground = GroundSet.from_elements([0, 1])
        l = SetLabeling.from_mapping(
            g, ground, {1: IntSet([0, 1]), 0: IntSet([0])}
        )
        assert l.label(0) == IntSet([0])
        with pytest.raises(DomainError):
            SetLabeling.from_mapping(g, ground, {0: IntSet([0])})
        with pytest.raises(DomainError):
            SetLabeling.from_mapping(
                g, ground, {0: IntSet([0]), 1: IntSet([1]), 7: IntSet([0, 1])}
            )

    def test_induced_edge_labels(self):
        l = lab(path(2), [0, 1, 2], (0, 1), (0, 1))
        assert induced_edge_labels(l) == {(0, 1): IntSet([0, 1, 2])}


class TestVerificationChain:
    def test_tiasi_implies_tiasl_implies_iasl(self):
        l = lab(path(3), [0, 1], (1,), (0,), (0, 1))
        rep = verify_tiasi(l)
        assert rep.is_iasl and rep.is_tiasl and rep.is_tiasi
        assert rep.violations == ()

    def test_iasl_but_not_tiasl(self):
        """Distinct non-empty labels whose sumsets fit, but whose family is
        not a topology: union {0,1} ∪ {0,2} missing and ground missing."""
        l = lab(path(2), [0, 1, 2, 3], (0, 1), (0, 2))
        rep = verify_tiasl(l)
        assert rep.is_iasl and not rep.is_tiasl
        kinds = [v.kind for v in rep.violations]
        assert "missing-ground" in kinds and "union-not-open" in kinds

    def test_tiasl_but_not_tiasi(self):
        """The standard pan labeling on 3+1 vertices repeats one edge sumset
        (cycle edge {0,1}+{0,1,2} equals the pendant edge {0}+{0,1,2,3})."""
        from tiasl import label_pan

        rep = verify_tiasi(label_pan(3))
        assert rep.is_tiasl and not rep.is_tiasi
        assert [v.kind for v in rep.violations] == ["edge-injectivity"]

    def test_stage_truncation(self):
        """verify_iasl on a topology-defective labeling reports no violations
        (the defect is beyond its stage) yet the flags still tell the truth."""
        l = lab(path(2), [0, 1, 2, 3], (0, 1), (0, 2))
        rep = verify_iasl(l)
        assert rep.violations == ()
        assert rep.is_iasl and not rep.is_tiasl

    def test_empty_label(self):
        l = lab(path(2), [0, 1], (), (0, 1))
        rep = verify_iasl(l)
        assert not rep.is_iasl
        assert "empty-label" in {v.kind for v in rep.violations}

    def test_label_outside_ground(self):
        l = lab(path(2), [0, 1], (0,), (0, 5))
        rep = verify_iasl(l)
        assert "label-outside-ground" in {v.kind for v in rep.violations}

    def test_injectivity_pairs(self):
        l = lab(path(3), [0, 1], (0,), (0,), (0,))
        rep = verify_iasl(l)
        pairs = [v.witness for v in rep.violations if v.kind == "injectivity"]
        assert pairs == [(0, 1), (0, 2), (1, 2)]

    def test_edge_sumset_escape(self):
        l = lab(path(2), [0, 1], (1,), (0, 1))
        rep = verify_iasl(l)
        assert "edge-sumset-outside-ground" in {v.kind for v in rep.violations}

    def test_isolated_vertex_warning(self):
        g = Graph.from_edges(3, [(0, 1)])
        l = lab(g, [0, 1, 2], (0,), (0, 1), (0, 1, 2))
        rep = verify_tiasl(l)
        assert any(w.kind == "isolated-vertex" for w in rep.warnings)

    def test_uniformity_stats(self):
        l = lab(path(3), [0, 1, 2, 3], (0, 1), (2, 3), (0, 2))
        rep = verify_iasl(l)
        assert rep.vertex_label_sizes == (2, 2, 2)
        assert rep.uniform_vertex_size == 2

    def test_discrete_flag(self):
        rep = verify_tiasl(label_star_discrete(2))
        assert rep.is_tiasl and rep.topology_is_discrete
        rep2 = verify_tiasl(lab(path(3), [0, 1], (1,), (0,), (0, 1)))
        assert rep2.is_tiasl and rep2.topology_is_discrete
        rep3 = verify_tiasl(lab(path(2), [0, 1], (0,), (0, 1)))
        assert rep3.is_tiasl and not rep3.topology_is_discrete


def random_labeling(rng):
    """A random (graph, ground, labels) triple, defective on purpose some of
    the time."""
    n = rng.randint(1, 6)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.5
    ]
    top = rng.randint(0, 5)
    ground_elems = sorted(
        {0, top} | {e for e in range(top + 1) if rng.random() < 0.6}
    )
    labels = []
    for _ in range(n):
        size = rng.randint(0, min(3, len(ground_elems)))
        labels.append(tuple(sorted(rng.sample(ground_elems, size))))
    return n, edges, ground_elems, labels


class TestOracleAgreement:
    def test_random_instances_match_definitional_oracle(self):
        rng = random.Random(20260817)
        checked = 0
        for _ in range(300):
            n, edges, ground_elems, labels = random_labeling(rng)
            g = Graph.from_edges(n, edges)
            l = lab(g, ground_elems, *labels)
            rep = verify_tiasi(l)
            want = classify_labeling(
                n, edges, ground_elems, {v: set(s) for v, s in enumerate(labels)}
            )
            assert (rep.is_iasl, rep.is_tiasl, rep.is_tiasi) == want
            checked += 1
        assert checked == 300


#: The violation kinds each verifier stage adds, pinned here so that the
#: staged reports are checked against the kind filter they replace.
STAGE_KINDS = (
    {"empty-label", "label-outside-ground", "injectivity", "edge-sumset-outside-ground"},
    {
        "missing-empty",
        "missing-ground",
        "open-not-subset",
        "union-not-open",
        "intersection-not-open",
        "duplicate-open",
    },
    {"edge-injectivity"},
)


class TestStages:
    def test_each_stage_extends_the_previous_one_by_its_own_kinds(self):
        rng = random.Random(20261018)
        seen = [set(), set(), set()]
        for _ in range(400):
            n, edges, ground_elems, labels = random_labeling(rng)
            if rng.random() < 0.2:
                labels[rng.randrange(n)] = (ground_elems[-1] + 1,)
            l = lab(Graph.from_edges(n, edges), ground_elems, *labels)
            reports = (verify_iasl(l), verify_tiasl(l), verify_tiasi(l))
            full = reports[-1].violations
            prefix = 0
            for stage, rep in enumerate(reports):
                kinds = set().union(*STAGE_KINDS[: stage + 1])
                assert rep.violations == tuple(v for v in full if v.kind in kinds)
                assert rep.violations[:prefix] == reports[stage - 1].violations[:prefix]
                added = {v.kind for v in rep.violations[prefix:]}
                assert added <= STAGE_KINDS[stage]
                seen[stage] |= added
                prefix = len(rep.violations)
                assert rep.is_iasl == (not reports[0].violations)
                assert rep.is_tiasi == (not full)
        assert all(seen), seen

    def test_edge_injectivity_pairs_in_edge_order(self):
        """Two groups of edges with equal sumsets, interleaved in edge order:
        pairs come out sorted by (first edge, second edge), not by group."""
        g = Graph.from_edges(6, [(0, 1), (0, 5), (2, 3), (2, 4), (4, 5)])
        l = lab(g, range(5), (0,), (0, 1, 2, 3, 4), (0, 2), (0, 1, 2), (0, 1), (0, 1, 2, 3))
        edge_labels = induced_edge_labels(l)
        assert len({edge_labels[e] for e in [(0, 1), (2, 3), (4, 5)]}) == 1
        assert edge_labels[(0, 5)] == edge_labels[(2, 4)]
        pairs = [v.witness for v in verify_tiasi(l).violations if v.kind == "edge-injectivity"]
        assert pairs == [
            ((0, 1), (2, 3)),
            ((0, 1), (4, 5)),
            ((0, 5), (2, 4)),
            ((2, 3), (4, 5)),
        ]


class TestRestriction:
    def test_pendant_restriction_still_topology(self):
        from tiasl import label_pan

        l = label_pan(4)
        pend = l.graph.order - 1
        assert restriction_check(l, pend).ok

    def test_restriction_can_fail(self):
        """Removing a leaf of the discrete star realization can break the
        topology of the remaining labels."""
        l = label_star_discrete(2)
        full = l.ground.members
        leaf_full = l.vertex_labels.index(full)
        check = restriction_check(l, leaf_full)
        assert not check.ok

    def test_preconditions(self):
        l = label_star_discrete(2)
        with pytest.raises(DomainError, match="out of range"):
            restriction_check(l, 99)
        with pytest.raises(DomainError, match="not a pendant"):
            restriction_check(l, 0)
        leaf_not_full = next(
            v
            for v in range(1, l.graph.order)
            if l.vertex_labels[v] != l.ground.members
        )
        with pytest.raises(DomainError, match="whole ground set"):
            restriction_check(l, leaf_not_full)
        bad = lab(path(2), [0, 1], (0, 1), (1,))
        with pytest.raises(DomainError, match="not a TIASL"):
            restriction_check(bad, 0)


class TestTextForms:
    def test_labeling_round_trip(self):
        l = label_star_discrete(2)
        ground, labels = parse_labeling_text(format_labeling(l))
        assert ground == l.ground
        assert labels == {v: s for v, s in enumerate(l.vertex_labels)}

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_labeling_text("v0: {0}\n")
        with pytest.raises(ParseError) as e:
            parse_labeling_text("ground: {0,1}\nv0: {0}\nvx: {1}\n")
        assert e.value.offset == 3
        with pytest.raises(ParseError, match="duplicate"):
            parse_labeling_text("ground: {0,1}\nv0: {0}\nv0: {1}\n")

    def test_huge_words_refused(self):
        big = "1" * 5000
        with pytest.raises(ParseError, match="5000 digits") as e:
            parse_labeling_text("ground: {0,1}\nv" + big + ": {0}\n")
        assert e.value.offset == 2
        with pytest.raises(ParseError, match="5000 digits") as e:
            parse_labeling_text("ground: {0,1}\nv0: {" + big + "}\n")
        assert e.value.offset == 2
        with pytest.raises(ParseError, match="5000 digits") as e:
            parse_labeling_text("ground: {" + big + "}\n")
        assert e.value.offset == 1
        ground, labels = parse_labeling_text("ground: {0,1}\nv" + "0" * 5000 + "1: {1}\n")
        assert labels == {1: IntSet([1])}

    def test_parse_errors_report_physical_lines(self):
        with pytest.raises(ParseError) as e:
            parse_labeling_text("\nground: {0,1}\n\nv0: {0}\n\nvx: {1}\n")
        assert e.value.offset == 6
        with pytest.raises(ParseError) as e:
            parse_labeling_text("\n\nground: {0,}\n")
        assert e.value.offset == 3

    def test_ground_error_names_one_line_and_a_column(self):
        with pytest.raises(ParseError) as e:
            parse_labeling_text("\n\nground: {0,}\n")
        assert str(e.value).count("offset") == 1
        assert "got '' at column 12 (offset 3)" in str(e.value)

    def test_label_error_names_one_line_and_a_column(self):
        with pytest.raises(ParseError) as e:
            parse_labeling_text("ground: {0,1}\nv0: {0}\nv1:  {0,oops}\n")
        assert e.value.offset == 3
        assert str(e.value).count("offset") == 1
        assert str(e.value) == (
            "bad label for vertex 1: expected a non-negative integer, "
            "got 'oops' at column 9 (offset 3)"
        )

    def test_format_report_text(self):
        rep = verify_tiasl(lab(path(2), [0, 1], (0,), (0, 1)))
        text = format_report(rep)
        assert "is_tiasl: true" in text
        assert "topology is discrete: false" in text

    def test_report_json(self):
        rep = verify_tiasi(lab(path(3), [0, 1], (1,), (0,), (0, 1)))
        d = report_to_dict(rep)
        assert d["is_tiasi"] is True and d["violations"] == []
        parsed = json.loads(report_to_json(rep))
        assert parsed == json.loads(json.dumps(d))

    def test_report_json_violation_structure(self):
        rep = verify_iasl(lab(path(2), [0, 1], (0,), (0,)))
        d = report_to_dict(rep)
        assert d["violations"][0]["kind"] == "injectivity"
