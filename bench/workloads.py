"""Workload inputs made from a seed, and the checks on every response.

This module never imports the program: inputs are plain CLI argument lists
and files, and responses are checked against ``data/expected.json`` and an
independent witness checker written here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "data" / "expected.json"

WORKLOADS = ("sweep", "tsin", "topologies")

#: Each pool graph appears this many times per pass, under different
#: seeded relabellings.
TSIN_COPIES = 3

#: Ground-set elements are drawn below this, so every mask over them fits
#: one 30-bit CPython digit and the seed changes the text, not the cost.
ELEMENT_LIMIT = 30


@dataclass
class Request:
    argv: list[str]
    kind: str  # sweep | tsin | count | list | warmup
    expect: dict = field(default_factory=dict)


@dataclass
class Plan:
    workload: str
    seed: int
    warmup: list[Request]
    requests: list[Request]

    def to_json(self) -> str:
        return json.dumps(
            {
                "workload": self.workload,
                "seed": self.seed,
                "warmup": [r.__dict__ for r in self.warmup],
                "requests": [r.__dict__ for r in self.requests],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Plan":
        d = json.loads(text)
        return cls(
            d["workload"],
            d["seed"],
            [Request(**r) for r in d["warmup"]],
            [Request(**r) for r in d["requests"]],
        )


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def _write_graph(path: Path, order: int, edges, rng: random.Random | None = None) -> None:
    lines = [f"{u} {v}" for u, v in edges]
    if rng is not None:
        rng.shuffle(lines)
    path.write_text("\n".join([f"{order} {len(lines)}", *lines]) + "\n")


def relabel(order: int, edges, rng: random.Random) -> list[list[int]]:
    """The edges under a uniformly random vertex permutation, each written
    with a random endpoint first."""
    perm = list(range(order))
    rng.shuffle(perm)
    out = []
    for u, v in edges:
        a, b = perm[u], perm[v]
        out.append([a, b] if rng.random() < 0.5 else [b, a])
    return out


def _set_text(elems) -> str:
    return "{" + ",".join(map(str, elems)) + "}"


def make_plan(workload: str, seed: int, workdir: Path) -> Plan:
    """Requests for one pass of ``workload``; input files go to ``workdir``."""
    expected = load_expected()
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "sweep":
        # The catalog is fixed by definition: the seed has nothing to vary.
        c5 = workdir / "c5.edges"
        _write_graph(c5, 5, [[i, (i + 1) % 5] for i in range(5)])
        warmup = [
            Request(["sweep", "--max-n", "4", "--threads", "1", "--json"], "warmup", {"rc": 0}),
            # An exhausted unpruned search on C5 with |X| <= 5 builds every
            # poset table the order-5 sweep reads.
            Request(
                ["search", str(c5), "--no-prune", "--max-element", "4",
                 "--max-ground-size", "5", "--threads", "1", "--json"],
                "warmup", {"rc": 1},
            ),
        ]
        requests = [
            Request(
                ["sweep", "--max-n", "5", "--threads", "1", "--json"],
                "sweep",
                {"entries": expected["sweep"]},
            )
        ]
        return Plan(workload, seed, warmup, requests)

    if workload == "tsin":
        pool = expected["tsin_pool"]
        requests = []
        for copy in range(TSIN_COPIES):
            for i, entry in enumerate(pool):
                edges = relabel(entry["order"], entry["edges"], rng)
                path = workdir / f"g{i:02d}_{copy}.edges"
                _write_graph(path, entry["order"], edges, rng)
                requests.append(
                    Request(
                        ["search", str(path), "--tsin", "--threads", "1", "--json"],
                        "tsin",
                        {
                            "graph6": entry["graph6"],
                            "order": entry["order"],
                            "edges": edges,
                            "tsin": entry["tsin"],
                            "ground_sets_tried": entry["ground_sets_tried"],
                            "topologies_tried": entry["topologies_tried"],
                        },
                    )
                )
        rng.shuffle(requests)
        # One order-6 graph of tsin 5 and one of order 5 build the poset
        # tables that the pass reads.
        warmup = []
        for want in ((6, 5), (5, 4)):
            i, entry = next(
                (i, e) for i, e in enumerate(pool) if (e["order"], e["tsin"]) == want
            )
            path = workdir / f"warmup{i:02d}.edges"
            _write_graph(path, entry["order"], entry["edges"])
            warmup.append(
                Request(["search", str(path), "--tsin", "--threads", "1", "--json"],
                        "warmup", {"rc": 0})
            )
        return Plan(workload, seed, warmup, requests)

    if workload == "topologies":
        counts = expected["topology_counts"]

        def ground(size: int) -> list[int]:
            return sorted(rng.sample(range(ELEMENT_LIMIT), size))

        x5a, x5b, x7, x8 = ground(5), ground(5), ground(7), ground(8)
        requests = [
            Request(["topologies", "--ground", _set_text(x5a), "--count"], "count",
                    {"count": counts["all_5"]}),
            Request(["topologies", "--ground", _set_text(x5b), "--list", "--json"], "list",
                    {"count": counts["all_5"], "ground": x5b}),
            Request(["topologies", "--ground", _set_text(x7), "--opens", "7", "--count"],
                    "count", {"count": counts["opens_7_on_7"]}),
            Request(["topologies", "--ground", _set_text(x8), "--opens", "6", "--count"],
                    "count", {"count": counts["opens_6_on_8"]}),
        ]
        rng.shuffle(requests)
        x6 = _set_text(range(6))
        warmup = [
            Request(["topologies", "--ground", x6, "--opens", opens, "--count"],
                    "warmup", {"rc": 0})
            for opens in ("6", "7")
        ]
        return Plan(workload, seed, warmup, requests)

    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# checks


def check(req: Request, rc: int, stdout: str) -> tuple[list[str], int]:
    """``(problems, topologies)``: every way the response differs from what
    is expected (empty when correct), and the topologies it covered."""
    try:
        if req.kind == "warmup":
            return ([] if rc == req.expect["rc"] else [f"exit code {rc}"]), 0
        if req.kind == "sweep":
            return _check_sweep(req.expect, rc, stdout)
        if req.kind == "tsin":
            return _check_tsin(req.expect, rc, stdout)
        if req.kind == "count":
            want = req.expect["count"]
            ok = rc == 0 and stdout == f"{want}\n"
            return ([] if ok else [f"count: exit {rc}, output {stdout[:40]!r}"]), want
        if req.kind == "list":
            return _check_list(req.expect, rc, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed response: {exc!r}"], 0
    raise ValueError(f"unknown request kind {req.kind!r}")


def _check_sweep(expect: dict, rc: int, stdout: str) -> tuple[list[str], int]:
    d = json.loads(stdout)
    want = expect["entries"]
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if d["graphs_processed"] != len(want) or d["inconsistent"] != 0:
        problems.append(
            f"{d['graphs_processed']} graphs, {d['inconsistent']} inconsistent"
        )
    got = [
        {"graph6": e["graph6"], "disposition": e["disposition"], "note": e["note"]}
        for e in d["entries"]
    ]
    if got != want:
        problems.append("entries differ from the recorded sweep")
    if not all(e["consistent"] for e in d["entries"]):
        problems.append("an entry is inconsistent")
    topologies = 0
    for e in d["entries"]:
        for word in e["note"].split():
            if word.startswith("topologies="):
                topologies += int(word.split("=", 1)[1])
    return problems, topologies


def _check_tsin(expect: dict, rc: int, stdout: str) -> tuple[list[str], int]:
    d = json.loads(stdout)
    cert = d["certificate"]
    problems = []
    if rc != 0 or d["status"] != "found":
        problems.append(f"exit code {rc}, status {d['status']}")
    if d["tsin"] != expect["tsin"]:
        problems.append(f"tsin {d['tsin']} != {expect['tsin']}")
    for key in ("ground_sets_tried", "topologies_tried"):
        if cert[key] != expect[key]:
            problems.append(f"{key} {cert[key]} != {expect[key]}")
    w = d["witness"]
    if w is None:
        problems.append("no witness")
    else:
        ground = parse_set(w["ground"])
        if len(ground) != expect["tsin"]:
            problems.append(f"witness ground {w['ground']} has the wrong size")
        problems += witness_problems(
            expect["order"], expect["edges"], ground, [parse_set(s) for s in w["labels"]]
        )
    return problems, cert["topologies_tried"]


def _check_list(expect: dict, rc: int, stdout: str) -> tuple[list[str], int]:
    d = json.loads(stdout)
    rows = d["topologies"]
    ground = frozenset(expect["ground"])
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if d["ground"] != _set_text(expect["ground"]):
        problems.append(f"ground {d['ground']}")
    if not d["count"] == len(rows) == expect["count"]:
        problems.append(f"count {d['count']}, {len(rows)} rows, want {expect['count']}")
    if len({tuple(r) for r in rows}) != len(rows):
        problems.append("repeated rows")
    for row in rows:
        opens = [parse_set(s) for s in row]
        if frozenset() not in opens or ground not in opens or not all(o <= ground for o in opens):
            problems.append(f"row {row} is not a family of subsets with {{}} and X")
            break
    return problems, len(rows)


def parse_set(text: str) -> frozenset[int]:
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ValueError(f"not a set: {text!r}")
    inner = body[1:-1].strip()
    return frozenset(int(w) for w in inner.split(",")) if inner else frozenset()


def witness_problems(order: int, edges, ground: frozenset[int], labels) -> list[str]:
    """Independent TIASL check: one distinct non-empty label per vertex,
    labels inside X, every edge sumset inside X, and the labels together
    with the empty set closed under union and intersection and containing X."""
    problems = []
    if len(labels) != order:
        return [f"{len(labels)} labels for {order} vertices"]
    if any(not s for s in labels):
        problems.append("empty label")
    if len(set(labels)) != len(labels):
        problems.append("labels not distinct")
    if not all(s <= ground for s in labels):
        problems.append("label outside X")
    for u, v in edges:
        sums = {a + b for a in labels[u] for b in labels[v]}
        if not sums <= ground:
            problems.append(f"edge {u}-{v} sumset outside X")
    family = set(labels) | {frozenset()}
    if ground not in family:
        problems.append("X is not a label")
    for a in family:
        for b in family:
            if a | b not in family or a & b not in family:
                problems.append("labels not closed under union and intersection")
                return problems
    return problems
