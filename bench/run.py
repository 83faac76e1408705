"""End-to-end and per-module benchmark of the ``tiasl`` CLI.

    python3 bench/run.py --workload sweep|tsin|topologies --seed N \\
                         --seconds S --trace 0|1

Closed loop, one client, concurrency 1: each request goes through
``tiasl.cli.main`` in a fresh worker interpreter only after the previous one
returned, with ``--threads 1``.  Inputs come from ``--seed``; every response
is checked (untimed) against ``data/expected.json`` and an independent
witness checker.  ``setup_s`` is the median over several fresh interpreters
of the CPU time to import ``tiasl`` and run the workload's warm-up requests.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs the same passes untraced and then traced, and reports the per-layer
metrics (see ``README.md``).  The last line of standard output is the JSON
result; the lines before it print every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from workloads import WORKLOADS, make_plan

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: Fresh interpreters that only set up, besides the one that runs passes.
SETUP_PROBES = 6
#: A run must finish within this many seconds.
RUN_BUDGET_S = 170

#: The end-to-end metrics of ``BENCHMARK.json``: request and setup cost on
#: the worker's CPU clock, and memory.
END_TO_END_UNITS = {
    "cpu_pass_s": "s",
    "cpu_topologies_per_s": "1/s",
    "cpu_req_p50_ms": "ms",
    "cpu_req_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Printed, not gated: the same on the wall clock, which the hypervisor's
#: scheduling moves from run to run.
WALL_UNITS = {
    "wall_s": "s",
    "topologies_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
}

#: Highest ``wall_s / cpu_pass_s`` that hypervisor steal explains (1.12
#: measured on a shared 2-core VM).  Above it the requests spent time
#: waiting, which the gated CPU-clock figures do not see, and the run says so.
STEAL_BAND = 1.25

PER_LAYER_UNITS = {
    "topology.gen_s": "s",
    "topology.families": "count",
    "search.family_use_ratio": "ratio",
    "topology.materialize_s": "s",
    "topology.materialized": "count",
    "topology.enumerate_s": "s",
    "topology.enumerated": "count",
    "topology.poset_table_s": "s",
    "search.bijection_s": "s",
    "search.bijection_calls": "count",
    "search.bijection_nodes": "count",
    "search.bijection_hit_ratio": "ratio",
    "intset.sumset_calls": "count",
    "search.self_s": "s",
    "search.ground_sets": "count",
    "labeling.verify_s": "s",
    "labeling.verify_calls": "count",
    "constructive.construct_s": "s",
    "graph.catalog_s": "s",
    "graph.catalog_graphs": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    pass


def worker(plan: Path, deadline: float, *extra: str) -> dict:
    # Fixed string hashing, so dict and set layouts repeat from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(plan), *extra],
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=max(deadline - time.monotonic(), 1),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(extra)} ran out of time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"worker {' '.join(extra)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S

    workdir = OUT / args.workload
    plan = make_plan(args.workload, args.seed, workdir)
    plan_path = workdir / "plan.json"
    plan_path.write_text(plan.to_json())

    probes = [
        worker(plan_path, deadline, "--mode", "setup", "--trace", str(args.trace))
        for _ in range(1 if args.trace else SETUP_PROBES)
    ]
    run = worker(
        plan_path, deadline, "--mode", "run", "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    )
    runs = [*probes, run]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]

    e2e = run["end_to_end"]
    print(
        f"workload {args.workload}  seed {args.seed}  passes {e2e['passes']}"
        f"  requests/pass {e2e['requests_per_pass']}  trace {args.trace}"
    )
    for p in problems:
        print(f"  FAILED {p}")
    if args.trace:
        layers = run["per_layer"]
        layers["topology.poset_table_s"] = probes[0]["topology.poset_table_s"]
        units = PER_LAYER_UNITS
        metrics = {n: layers[n] for n in units}
        print(f"  traced passes {layers['traced_passes']}; self-time share of a traced pass:")
        for layer, share in sorted(layers["layer_self_share"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<14} {share:7.2%}")
        for name, value in metrics.items():
            print(f"  {name:<28} {value:14.6g} {units[name]}")
    else:
        units = END_TO_END_UNITS
        metrics = {n: e2e[n] for n in units if n in e2e}
        metrics["setup_s"] = median(r["setup_s"] for r in runs)
        metrics["peak_rss_mb"] = run["peak_rss_mb"]
        tail_note = (
            f"p{e2e['tail_percentile']:g} of {e2e['requests_per_pass']} requests,"
            f" {e2e['tail_beyond']} beyond"
        )
        rows = {
            **{n: (e2e[n], u) for n, u in WALL_UNITS.items()},
            "setup_wall_s": (median(r["setup_wall_s"] for r in runs), "s"),
            **{n: (v, units[n]) for n, v in metrics.items()},
            "list_s": (e2e["list_s"], "s"),
            "failed_frac": (failed / attempted, "ratio"),
            "wall_per_cpu": (e2e["wall_s"] / e2e["cpu_pass_s"], "ratio"),
        }
        notes = {
            "req_tail_ms": tail_note,
            "cpu_req_tail_ms": tail_note,
            "setup_wall_s": f"median of {len(runs)} fresh interpreters",
            "setup_s": f"CPU clock, median of {len(runs)} fresh interpreters",
            "list_s": "" if e2e["list_s"] else "no --list requests",
            "failed_frac": f"{failed} of {attempted} requests",
            "wall_per_cpu": (
                f"above {STEAL_BAND}: waiting is not in the cpu_* figures"
                if e2e["wall_s"] / e2e["cpu_pass_s"] > STEAL_BAND else ""
            ),
        }
        for name, (value, unit) in rows.items():
            print(f"  {name:<22} {value:14.6g} {unit:<6} {notes.get(name, '')}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
