"""Regenerate ``bench/data/expected.json`` from the checked-out program.

The benchmark compares every response against this file, so it is written
once, at the commit whose behaviour defines "correct", and committed:

    python3 bench/make_expected.py

It records the sweep's 31 entries, the 88-graph ``tsin`` pool (one
representative edge list per isomorphism class, with the tsin value and the
certificate counters that do not depend on vertex labels) and the topology
counts the ``topologies`` workload asks for.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tiasl import (  # noqa: E402
    Graph,
    GroundSet,
    IntSet,
    connected_graph_catalog,
    emit_graph6,
    pendant_vertices,
    theorem_sweep,
    topological_set_indexing_number,
    topologies_with_open_count,
)
from tiasl.topology import enumerate_topologies  # noqa: E402


def tsin_pool() -> list[tuple[str, Graph]]:
    """The 61 connected graphs of order 5-6 with a pendant vertex, then the
    27 connected graphs of order 4-5 with one isolated vertex added."""
    pool = [
        ("pendant", g)
        for g in connected_graph_catalog(6)
        if g.order >= 5 and pendant_vertices(g)
    ]
    pool += [
        ("isolated", Graph(g.order + 1, g.edges))
        for g in connected_graph_catalog(5)
        if g.order >= 4
    ]
    return pool


def main() -> None:
    sweep = theorem_sweep(5)
    pool = []
    for kind, g in tsin_pool():
        value, outcome = topological_set_indexing_number(g)
        cert = outcome.certificate
        pool.append(
            {
                "graph6": emit_graph6(g),
                "kind": kind,
                "order": g.order,
                "edges": sorted([u, v] for u, v in g.edges),
                "tsin": value,
                "ground_sets_tried": cert.ground_sets_tried,
                "topologies_tried": cert.topologies_tried,
            }
        )

    def x(s: int) -> GroundSet:
        return GroundSet(IntSet(range(s)))

    data = {
        "sweep": [
            {"graph6": e.graph6, "disposition": e.disposition, "note": e.note}
            for e in sweep.entries
        ],
        "tsin_pool": pool,
        "topology_counts": {
            "all_5": sum(1 for _ in enumerate_topologies(x(5))),
            "opens_7_on_7": sum(1 for _ in topologies_with_open_count(x(7), 7)),
            "opens_6_on_8": sum(1 for _ in topologies_with_open_count(x(8), 6)),
        },
    }
    out = Path(__file__).resolve().parent / "data" / "expected.json"
    out.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {out}: {len(data['sweep'])} sweep entries, {len(pool)} pool graphs")


if __name__ == "__main__":
    main()
