"""Run the benchmark over several seeds and write one point of the
performance trajectory.

    python3 bench/repeat.py --runs 10 --label seed --out bench/trajectory/BENCH_seed.json

For every workload in ``BENCHMARK.json`` it runs ``bench/run.py`` with
``--trace 0`` once for each of the seeds 1 to ``--runs``, then once with
``--trace 1`` on seed 1.  It records each end-to-end metric's values,
median, quartiles and spread (the distance between the quartiles as a share
of the median) next to the metric's bound, plus the per-layer numbers of the
traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import spread

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, required=True, help="seeds 1 to RUNS")
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(1, args.runs + 1))
    point = {
        "label": args.label,
        "git_rev": git_rev(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run_once(workload, s, spec["run_seconds"], 0) for s in seeds]
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][name] = {
                "unit": results[0]["metrics"][name]["unit"],
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "spread": spread(values),
                "bound": bound,
                "values": values,
            }
        traced = run_once(workload, seeds[0], spec["run_seconds"], 1)
        entry["per_layer"] = {n: m["value"] for n, m in traced["metrics"].items()}
        point["workloads"][workload] = entry
        print(f"== {workload}: {entry['failed']} of {entry['attempted']} failed", flush=True)
        for name, m in entry["end_to_end"].items():
            flag = "" if m["spread"] < m["bound"] / 3 else "   <-- spread above bound/3"
            print(f"   {name:<18} median {m['median']:12.6g} {m['unit']:<4} "
                  f"spread {m['spread']:7.2%} bound {m['bound']:.0%}{flag}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
