"""Set-labelings of graphs and the IASL/TIASL/TIASI verification chain.

A labeling assigns a subset of a ground set X to every vertex.  The three
verdicts form a chain:

* integer-additive set-labeling (IASL): labels are non-empty, injective, and
  every edge's sumset f(u)+f(v) stays inside X;
* topological IASL (TIASL): additionally the vertex labels together with the
  empty set form a topology of X;
* topological integer-additive set-indexer (TIASI): additionally the induced
  edge labels are pairwise distinct.

One pass computes all three flags plus statistics; the three ``verify_*``
entry points differ only in how far the reported violation list reaches, so
"violations empty iff flag true" holds for each stage.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Mapping

from .graph import Graph, isolated_vertices
from .intset import (
    DomainError,
    GroundSet,
    IntSet,
    ParseError,
    format_set,
    is_subset,
    numbered_lines,
    parse_decimal,
    parse_ground_header,
    parse_set_text,
    sumset,
)
from .topology import PAIR_GUARD, TopologyCheck, Violation, check_topology


@dataclass(frozen=True)
class SetLabeling:
    """A complete assignment of one set per vertex.  Completeness is enforced;
    non-emptiness, injectivity and containment in the ground set are left to
    the verifiers so that defective inputs can be diagnosed rather than
    rejected at construction."""

    graph: Graph
    ground: GroundSet
    vertex_labels: tuple[IntSet, ...]

    def __post_init__(self):
        if len(self.vertex_labels) != self.graph.order:
            raise DomainError(
                f"labeling covers {len(self.vertex_labels)} vertices, "
                f"graph has {self.graph.order}"
            )

    @classmethod
    def from_mapping(
        cls, graph: Graph, ground: GroundSet, labels: Mapping[int, IntSet]
    ) -> "SetLabeling":
        missing = [v for v in range(graph.order) if v not in labels]
        if missing:
            raise DomainError(f"missing label for vertex {missing[0]}")
        extra = [v for v in labels if not 0 <= v < graph.order]
        if extra:
            raise DomainError(f"label given for nonexistent vertex {extra[0]}")
        return cls(graph, ground, tuple(labels[v] for v in range(graph.order)))

    def label(self, v: int) -> IntSet:
        return self.vertex_labels[v]


def induced_edge_labels(l: SetLabeling) -> dict[tuple[int, int], IntSet]:
    """Edge label map uv -> f(u)+f(v).  Requires non-empty vertex labels."""
    return {
        (u, v): sumset(l.vertex_labels[u], l.vertex_labels[v])
        for u, v in sorted(l.graph.edges)
    }


@dataclass(frozen=True)
class VerificationReport:
    is_iasl: bool
    is_tiasl: bool
    is_tiasi: bool
    violations: tuple[Violation, ...]
    warnings: tuple[Violation, ...]
    vertex_label_sizes: tuple[int, ...]
    edge_label_sizes: tuple[tuple[tuple[int, int], int], ...]
    uniform_vertex_size: int | None
    uniform_edge_size: int | None
    topology_is_discrete: bool


def _equal_pairs(masks: list[int]) -> list[tuple[int, int]]:
    """Sorted index pairs i < j with masks[i] == masks[j]; more than
    ``PAIR_GUARD`` of them are refused before any is built."""
    by_mask: dict[int, list[int]] = {}
    for i, m in enumerate(masks):
        by_mask.setdefault(m, []).append(i)
    count = sum(len(idx) * (len(idx) - 1) // 2 for idx in by_mask.values())
    if count > PAIR_GUARD:
        raise DomainError(f"{count} pairs of equal labels, more than {PAIR_GUARD}")
    return sorted(
        pair for idx in by_mask.values() for pair in itertools.combinations(idx, 2)
    )


def _verify(l: SetLabeling, stages: int = 3) -> VerificationReport:
    """One pass over all three stages; the report lists the violations of the
    first ``stages`` of them (IASL, topology, edge injectivity)."""
    g, x, labels = l.graph, l.ground, l.vertex_labels

    iasl: list[Violation] = []
    for v, s in enumerate(labels):
        if not s:
            iasl.append(Violation("empty-label", (v,)))
        elif not is_subset(s, x):
            iasl.append(Violation("label-outside-ground", (v, s)))
    for u, v in _equal_pairs([s.mask for s in labels]):
        iasl.append(Violation("injectivity", (u, v)))

    edge_labels: dict[tuple[int, int], IntSet] = {}
    for u, v in sorted(g.edges):
        if labels[u] and labels[v]:
            s = sumset(labels[u], labels[v])
            edge_labels[(u, v)] = s
            if not is_subset(s, x):
                iasl.append(Violation("edge-sumset-outside-ground", (u, v, s)))

    family = {s.mask for s in labels}
    family.add(0)
    topo = check_topology([IntSet.from_mask(m) for m in sorted(family)], x)

    edges = list(edge_labels)
    edge_inj = [
        Violation("edge-injectivity", (edges[i], edges[j]))
        for i, j in _equal_pairs([s.mask for s in edge_labels.values()])
    ]

    is_iasl = not iasl
    is_tiasl = is_iasl and topo.ok
    is_tiasi = is_tiasl and not edge_inj

    warnings = tuple(
        Violation("isolated-vertex", (v,)) for v in isolated_vertices(g)
    )

    sizes = tuple(len(s) for s in labels)
    uniform_v = sizes[0] if sizes and len(set(sizes)) == 1 else None
    esizes = tuple((e, len(s)) for e, s in sorted(edge_labels.items()))
    uniform_e = (
        esizes[0][1] if esizes and len({n for _, n in esizes}) == 1 else None
    )
    discrete = is_tiasl and len(family) == 2 ** len(x)

    if is_iasl:
        _assert_max_element_facts(l)

    return VerificationReport(
        is_iasl=is_iasl,
        is_tiasl=is_tiasl,
        is_tiasi=is_tiasi,
        violations=tuple(
            itertools.chain(*(iasl, topo.violations, edge_inj)[:stages])
        ),
        warnings=warnings,
        vertex_label_sizes=sizes,
        edge_label_sizes=esizes,
        uniform_vertex_size=uniform_v,
        uniform_edge_size=uniform_e,
        topology_is_discrete=discrete,
    )


def _assert_max_element_facts(l: SetLabeling) -> None:
    """Facts forced by the definitions on any accepted labeling, re-checked as
    a bug detector: a vertex whose label contains max(X) can only neighbor a
    {0}-labeled vertex, hence has degree at most one."""
    top = l.ground.max_element
    zero = IntSet((0,))
    adj = l.graph.adjacency()
    for v, s in enumerate(l.vertex_labels):
        if top not in s:
            continue
        nbrs = adj[v]
        if len(nbrs) > 1 or any(l.vertex_labels[u] != zero for u in nbrs):
            raise RuntimeError(
                "internal error: accepted labeling contradicts the "
                f"max-element degree bound at vertex {v}"
            )


def verify_iasl(l: SetLabeling) -> VerificationReport:
    """Report with violations limited to the IASL stage."""
    return _verify(l, 1)


def verify_tiasl(l: SetLabeling) -> VerificationReport:
    """Report with violations through the topology stage."""
    return _verify(l, 2)


def verify_tiasi(l: SetLabeling) -> VerificationReport:
    """Report with the full violation list including edge injectivity."""
    return _verify(l, 3)


def restriction_check(l: SetLabeling, v: int) -> TopologyCheck:
    """For a TIASL whose pendant vertex ``v`` carries the whole ground set:
    do the remaining labels, together with the empty set, form a topology of
    their union?"""
    if not 0 <= v < l.graph.order:
        raise DomainError(f"vertex {v} out of range")
    if l.graph.degree(v) != 1:
        raise DomainError(f"vertex {v} is not a pendant vertex")
    if l.vertex_labels[v] != l.ground.members:
        raise DomainError(f"vertex {v} is not labeled with the whole ground set")
    if not _verify(l).is_tiasl:
        raise DomainError("labeling is not a TIASL")
    rest = [s for u, s in enumerate(l.vertex_labels) if u != v]
    union = 0
    for s in rest:
        union |= s.mask
    b = GroundSet(IntSet.from_mask(union))
    family = sorted({s.mask for s in rest} | {0})
    return check_topology([IntSet.from_mask(m) for m in family], b)


# ---------------------------------------------------------------------------
# text and JSON forms


def format_labeling(l: SetLabeling) -> str:
    """One line ``ground: {…}`` then ``v<i>: {…}`` per vertex."""
    lines = [f"ground: {format_set(l.ground.members)}"]
    lines.extend(
        f"v{v}: {format_set(s)}" for v, s in enumerate(l.vertex_labels)
    )
    return "\n".join(lines) + "\n"


def parse_labeling_text(text: str) -> tuple[GroundSet, dict[int, IntSet]]:
    """Inverse of :func:`format_labeling`, except that the graph is supplied
    separately: returns the ground set and the vertex->set mapping."""
    lines = numbered_lines(text)
    ground = parse_ground_header(lines, "labeling")
    labels: dict[int, IntSet] = {}
    for lineno, ln in lines[1:]:
        head, sep, body = ln.partition(":")
        head = head.strip()
        if not sep or not head.startswith("v") or not head[1:].isdecimal():
            raise ParseError("expected 'v<index>: {…}'", lineno)
        v = parse_decimal(head[1:], lineno)
        if v in labels:
            raise ParseError(f"duplicate label line for vertex {v}", lineno)
        try:
            labels[v] = parse_set_text(body)
        except ParseError as exc:
            start = len(ln) - len(body)
            raise exc.on_line(f"bad label for vertex {v}", lineno, start) from exc
    return ground, labels


def format_report(report: VerificationReport) -> str:
    lines = [
        f"is_iasl: {str(report.is_iasl).lower()}",
        f"is_tiasl: {str(report.is_tiasl).lower()}",
        f"is_tiasi: {str(report.is_tiasi).lower()}",
        "vertex label sizes: " + ",".join(map(str, report.vertex_label_sizes)),
        "uniform vertex size: "
        + ("-" if report.uniform_vertex_size is None else str(report.uniform_vertex_size)),
        "edge label sizes: "
        + " ".join(f"({u},{v}):{n}" for (u, v), n in report.edge_label_sizes),
        "uniform edge size: "
        + ("-" if report.uniform_edge_size is None else str(report.uniform_edge_size)),
        f"topology is discrete: {str(report.topology_is_discrete).lower()}",
    ]
    for w in report.warnings:
        lines.append(f"warning: {w}")
    for v in report.violations:
        lines.append(f"violation: {v}")
    return "\n".join(lines) + "\n"


def _violation_dicts(violations: tuple[Violation, ...]) -> list[dict]:
    return [{"kind": v.kind, "witness": [str(w) for w in v.witness]} for v in violations]


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "is_iasl": report.is_iasl,
        "is_tiasl": report.is_tiasl,
        "is_tiasi": report.is_tiasi,
        "violations": _violation_dicts(report.violations),
        "warnings": _violation_dicts(report.warnings),
        "vertex_label_sizes": list(report.vertex_label_sizes),
        "edge_label_sizes": [
            {"edge": [u, v], "size": n} for (u, v), n in report.edge_label_sizes
        ],
        "uniform_vertex_size": report.uniform_vertex_size,
        "uniform_edge_size": report.uniform_edge_size,
        "topology_is_discrete": report.topology_is_discrete,
    }


def report_to_json(report: VerificationReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
