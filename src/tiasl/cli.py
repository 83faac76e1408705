"""Command-line interface.

Exit codes: 0 when the requested property is established (valid labeling,
search hit, consistent sweep, successful construction); 1 when it is refuted
or the search window is exhausted; 2 for usage, parse, or domain errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

from .constructive import (
    label_any_pendant,
    label_pan,
    label_shovel,
    label_star_discrete,
    label_tadpole,
    realize_topology_star,
    saturate_realization,
)
from .graph import (
    Graph,
    emit_graph6,
    format_edge_list,
    parse_edge_list,
    parse_graph6,
    pendant_vertices,
)
from .intset import DomainError, GroundSet, ParseError, format_set, parse_set_text
from .labeling import (
    SetLabeling,
    format_labeling,
    format_report,
    parse_labeling_text,
    report_to_dict,
    verify_tiasi,
    verify_tiasl,
)
from .search import (
    default_bounds,
    format_search_outcome,
    format_sweep_report,
    outcome_to_dict,
    sweep_report_to_dict,
    theorem_sweep,
    topological_set_indexing_number,
)
from .topology import (
    ENUMERATE_GUARD,
    _pendant_bounds,
    count_topologies,
    enumerate_topologies,
    parse_topology_text,
    topologies_with_open_count,
)


def _load_graph(path: str, fmt: str) -> Graph:
    text = Path(path).read_text()
    if fmt == "auto":
        fmt = "g6" if path.endswith(".g6") else "edges"
    if fmt == "g6":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ParseError("empty graph6 file", 0)
        return parse_graph6(lines[0])
    return parse_edge_list(text)


def _write_pair(prefix: str, lab: SetLabeling) -> None:
    Path(prefix + ".edges").write_text(format_edge_list(lab.graph))
    Path(prefix + ".labels").write_text(format_labeling(lab))
    print(f"wrote {prefix}.edges and {prefix}.labels", file=sys.stderr)


def _labeling_dict(lab: SetLabeling) -> dict:
    return {
        "graph6": emit_graph6(lab.graph),
        "order": lab.graph.order,
        "edges": [[u, v] for u, v in sorted(lab.graph.edges)],
        "ground": str(lab.ground),
        "labels": [str(s) for s in lab.vertex_labels],
    }


def _emit(args, payload, text) -> None:
    """Print ``payload()`` as JSON under ``--json``, else ``text()``: only
    the printed form is rendered."""
    if args.json:
        print(json.dumps(payload(), indent=2, sort_keys=True))
    else:
        out = text()
        print(out, end="" if out.endswith("\n") else "\n")


def _check_threads(args) -> None:
    if args.threads < 1:
        raise DomainError(f"threads must be >= 1, got {args.threads}")


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph, args.format)
    ground, mapping = parse_labeling_text(Path(args.labels).read_text())
    lab = SetLabeling.from_mapping(g, ground, mapping)
    report = verify_tiasi(lab) if args.tiasi else verify_tiasl(lab)
    _emit(args, lambda: report_to_dict(report), lambda: format_report(report))
    return 0 if (report.is_tiasi if args.tiasi else report.is_tiasl) else 1


def _cmd_construct(args) -> int:
    family = args.family
    if family in ("pan", "tadpole", "shovel") and args.n is None:
        raise DomainError(f"--family {family} requires -n")
    if family == "pan":
        lab = label_pan(args.n, args.ground_max)
    elif family == "tadpole":
        lab = label_tadpole(args.n, args.m, args.ground_max)
    elif family == "shovel":
        lab = label_shovel(args.n, args.m, args.ground_max)
    elif family == "star-discrete":
        if args.k is None:
            raise DomainError("--family star-discrete requires -k")
        lab = label_star_discrete(args.k)
    else:  # pendant-generic
        if args.graph is None:
            raise DomainError("--family pendant-generic requires --graph")
        g = _load_graph(args.graph, args.format)
        if not pendant_vertices(g):
            print(
                "graph has no pendant vertex; the pendant construction requires one",
                file=sys.stderr,
            )
            return 1
        lab = label_any_pendant(g)
    if args.out:
        _write_pair(args.out, lab)
    _emit(args, lambda: _labeling_dict(lab), lambda: format_labeling(lab))
    return 0


def _cmd_realize(args) -> int:
    t = parse_topology_text(Path(args.topology).read_text())
    lab = realize_topology_star(t)
    if args.saturate:
        lab = saturate_realization(lab)
    if args.out:
        _write_pair(args.out, lab)
    _emit(args, lambda: _labeling_dict(lab), lambda: format_labeling(lab))
    return 0


def _cmd_search(args) -> int:
    g = _load_graph(args.graph, args.format)
    bounds = default_bounds(g)
    if args.max_element is not None:
        bounds = replace(bounds, max_element=args.max_element)
    if args.max_ground_size is not None:
        bounds = replace(bounds, max_ground_size=args.max_ground_size)
    _check_threads(args)
    value, outcome = topological_set_indexing_number(
        g, bounds, pendant_prune=not args.no_prune
    )
    tsin = {"tsin": value} if args.tsin else {}
    tail = f"tsin: {'-' if value is None else value}\n" if args.tsin else ""
    _emit(
        args,
        lambda: {**outcome_to_dict(outcome), **tsin},
        lambda: format_search_outcome(outcome) + tail,
    )
    return 0 if outcome.found else 1


def _cmd_topologies(args) -> int:
    x = GroundSet(parse_set_text(args.ground))
    s = len(x)
    if args.opens is None and s > ENUMERATE_GUARD:
        raise DomainError(
            f"without --opens K the ground set is limited to size {ENUMERATE_GUARD}, "
            f"got size {s}"
        )
    count = count_topologies(s, args.opens)
    if not args.list:
        _emit(args, lambda: {"ground": str(x), "count": count}, lambda: f"{count}\n")
        return 0
    if s > ENUMERATE_GUARD:
        gen = topologies_with_open_count(x, args.opens)
    else:
        gen = enumerate_topologies(x, args.opens)
    text = cache(format_set)  # one text per open, not per open and row
    if not args.json:
        sys.stdout.writelines(" ".join(map(text, t.opens)) + "\n" for t in gen)
        return 0
    # An open's text holds only digits, braces and commas, so quoting it is
    # wrapping it in '"', and each row is written byte for byte as
    # ``json.dumps(indent=2, sort_keys=True)`` (pure Python) would write it.
    sep = '",\n      "'
    rows = (f'    [\n      "{sep.join(map(text, t.opens))}"\n    ]' for t in gen)
    first = next(rows, None)  # the stream's guard refuses before the head
    sys.stdout.write(f'{{\n  "count": {count},\n  "ground": "{x}",\n  "topologies": [')
    if first is not None:
        sys.stdout.write("\n" + first)
        sys.stdout.writelines(",\n" + row for row in rows)
        sys.stdout.write("\n  ")
    sys.stdout.write("]\n}\n")
    return 0


def _cmd_analyze(args) -> int:
    t = parse_topology_text(Path(args.topology).read_text())
    req, cg = _pendant_bounds(t)
    degrees = [(format_set(o), d) for o, d in zip(cg.nodes, cg.degrees())]
    _emit(
        args,
        lambda: {
            "ground": str(t.ground),
            "opens": t.open_count,
            "discrete": t.is_discrete(),
            "compatibility_degrees": dict(degrees),
            "compatibility_edges": cg.size,
            "min_pendant_edges_on_zero_vertex": req.edges_on_zero_vertex,
            "min_pendant_vertices": req.pendant_vertices,
            "star_realization_order": t.open_count - 1,
        },
        lambda: "".join(
            line + "\n"
            for line in (
                f"ground: {t.ground}",
                f"opens: {t.open_count}",
                f"discrete: {str(t.is_discrete()).lower()}",
                "compatibility: " + " ".join(f"{o}:{d}" for o, d in degrees),
                f"compatibility edges: {cg.size}",
                f"min pendant edges on the {{0}} vertex: {req.edges_on_zero_vertex}",
                f"min pendant vertices: {req.pendant_vertices}",
                f"star realization order: {t.open_count - 1}",
            )
        ),
    )
    return 0


def _cmd_sweep(args) -> int:
    _check_threads(args)
    report = theorem_sweep(
        args.max_n, max_element=args.max_element, max_ground_size=args.max_ground_size
    )
    _emit(args, lambda: sweep_report_to_dict(report), lambda: format_sweep_report(report))
    return 0 if not report.inconsistencies else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it costs some twenty times a parse."""
    p = argparse.ArgumentParser(
        prog="tiasl",
        description="Verify, construct and search for topological "
        "integer-additive set-labelings of finite simple graphs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, graph_arg=False):
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        if graph_arg:
            sp.add_argument(
                "--format",
                choices=("auto", "g6", "edges"),
                default="auto",
                help="graph file format (auto: .g6 suffix selects graph6)",
            )

    sp = sub.add_parser("verify", help="verify a labeling against a graph")
    sp.add_argument("graph", help="graph file (edge list or graph6)")
    sp.add_argument("labels", help="labeling file")
    sp.add_argument("--tiasi", action="store_true", help="require distinct edge labels too")
    add_common(sp, graph_arg=True)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("construct", help="build a labeling from a stock construction")
    sp.add_argument(
        "--family",
        required=True,
        choices=("pan", "tadpole", "shovel", "pendant-generic", "star-discrete"),
    )
    sp.add_argument("-n", type=int, help="cycle/clique size")
    sp.add_argument("-m", type=int, default=1, help="handle length (default 1)")
    sp.add_argument("-k", type=int, help="ground set size for star-discrete")
    sp.add_argument("--ground-max", type=int, help="largest ground element")
    sp.add_argument("--graph", help="input graph for pendant-generic")
    sp.add_argument("--out", help="prefix for .edges/.labels output files")
    add_common(sp, graph_arg=True)
    sp.set_defaults(func=_cmd_construct)

    sp = sub.add_parser("realize", help="realize a topology on a star")
    sp.add_argument("topology", help="topology file")
    sp.add_argument("--saturate", action="store_true", help="add every compatible edge")
    sp.add_argument("--out", help="prefix for .edges/.labels output files")
    add_common(sp)
    sp.set_defaults(func=_cmd_realize)

    sp = sub.add_parser("search", help="search for a TIASL within bounds")
    sp.add_argument("graph", help="graph file (edge list or graph6)")
    sp.add_argument("--max-element", type=int, help="largest candidate element (default 2n-3)")
    sp.add_argument("--max-ground-size", type=int, help="largest |X| (default 2n-2)")
    sp.add_argument("--tsin", action="store_true", help="report the minimal |X|")
    sp.add_argument("--no-prune", action="store_true", help="disable the pendant theorem prune")
    sp.add_argument("--threads", type=int, default=1, help="must be >= 1; runs in one process")
    add_common(sp, graph_arg=True)
    sp.set_defaults(func=_cmd_search)

    sp = sub.add_parser("topologies", help="count or list topologies on a ground set")
    sp.add_argument("--ground", required=True, help="ground set, e.g. '{0,1,2}'")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--count", action="store_true", help="print the count (default)")
    group.add_argument("--list", action="store_true", help="print one topology per line")
    sp.add_argument("--opens", type=int, help="restrict to a fixed open count")
    add_common(sp)
    sp.set_defaults(func=_cmd_topologies)

    sp = sub.add_parser("analyze", help="compatibility and pendant bounds of a topology")
    sp.add_argument("topology", help="topology file")
    add_common(sp)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("sweep", help="check the pendant characterization over the catalog")
    sp.add_argument("--max-n", type=int, required=True, help="largest graph order (<= 7)")
    sp.add_argument("--max-element", type=int, help="override the 2n-3 search bound")
    sp.add_argument("--max-ground-size", type=int, help="override the 2n-2 size bound")
    sp.add_argument("--threads", type=int, default=1, help="must be >= 1; runs in one process")
    add_common(sp)
    sp.set_defaults(func=_cmd_sweep)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
