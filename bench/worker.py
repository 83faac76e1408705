"""One fresh interpreter of the benchmark: import the program from this
checkout's ``src``, run the workload's warm-up requests, and in ``run`` mode
time passes over the plan's requests through ``tiasl.cli.main`` in-process.

    python3 bench/worker.py PLAN --mode setup|run --trace 0|1 [--seconds S]

``--seconds`` is required in ``run`` mode.  A traced run writes its span
records to ``spans.jsonl`` beside the plan.  The last line of standard
output is one JSON object.  ``run.py`` starts this script; it is not meant
to be run by hand.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median

import tracing
from stats import tail
from workloads import Plan, check

ROOT = Path(__file__).resolve().parent.parent
MAX_PROBLEMS = 5

#: Pass time, throughput, median and tail latency, on each clock.  The CPU
#: clock (see ``cpu_time``) leaves out the time a virtual machine's
#: hypervisor gives to other guests, between 5% and 12% of a 10-second
#: window on a shared 2-core VM.  It also leaves out time spent waiting,
#: which ``run.py`` flags through the ratio of the two clocks.
CLOCK_METRICS = {
    "wall": ("wall_s", "topologies_per_s", "req_p50_ms", "req_tail_ms"),
    "cpu": ("cpu_pass_s", "cpu_topologies_per_s", "cpu_req_p50_ms", "cpu_req_tail_ms"),
}


def load_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tiasl.cli

    if not Path(tiasl.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"tiasl was imported from {tiasl.cli.__file__}, not {src}")
    return tiasl.cli


def cpu_time() -> float:
    """CPU seconds of this process plus those of its child processes that
    have been waited for, so that work handed to a process pool still
    counts."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def call(cli, argv: list[str]) -> tuple[int | str, str, float, float]:
    """Run one CLI request in-process: exit code (or the exception it
    raised), captured standard output, and its wall and CPU seconds."""
    out, err = io.StringIO(), io.StringIO()
    w0, c0 = time.perf_counter(), cpu_time()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a crash fails this request, not the run
        rc = f"raised {exc!r}"
    return rc, out.getvalue(), time.perf_counter() - w0, cpu_time() - c0


class Outcomes:
    """Requests attempted and failed across the run, with the first few
    problems for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, req, rc, stdout) -> int:
        self.attempted += 1
        if isinstance(rc, str):
            problems, topologies = [rc], 0
        else:
            problems, topologies = check(req, rc, stdout)
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(f"{' '.join(req.argv)}: {'; '.join(problems)}")
        return topologies


def run_pass(cli, requests, outcomes: Outcomes) -> dict:
    """One pass.  Responses are checked after the whole pass, once its peak
    memory has been read, so that the checker's own memory stays out of the
    first pass's reading."""
    wall, cpu, list_s, responses = [], [], 0.0, []
    for req in requests:
        rc, stdout, dt, dc = call(cli, req.argv)
        wall.append(dt)
        cpu.append(dc)
        if req.kind == "list":
            list_s += dt
        responses.append((req, rc, stdout))
    peak = peak_rss_mb()
    return {
        "wall": wall,
        "cpu": cpu,
        "list_s": list_s,
        "topologies": sum(outcomes.record(*r) for r in responses),
        "output_bytes": sum(len(stdout.encode()) for _, _, stdout in responses),
        "peak_rss_mb": peak,
    }


def run_passes(cli, requests, seconds: float, outcomes: Outcomes, tracer=None):
    """Whole passes for about ``seconds``: at least one, and another only
    while the median pass still fits in the time left."""
    passes = []
    start = time.perf_counter()
    while True:
        first = len(tracer.spans) if tracer else 0
        p = run_pass(cli, requests, outcomes)
        if tracer:
            p["layers"] = tracing.layer_metrics(tracer.spans[first:], p["output_bytes"])
            p["layer_self"] = tracing.layer_self_times(tracer.spans[first:])
        passes.append(p)
        elapsed = time.perf_counter() - start
        if elapsed + median(sum(q["wall"]) for q in passes) > seconds:
            return passes


def end_to_end(passes: list[dict]) -> dict:
    """Per clock in ``CLOCK_METRICS``: the median pass time and throughput
    over passes, and the median and tail over the workload's requests of
    each request's median latency across passes (every pass sends the same
    requests in the same order).  Taking the per-request median first keeps
    a request that ran during a short burst of host speed or contention
    from becoming the tail."""
    out = {
        "passes": len(passes),
        "requests_per_pass": len(passes[0]["wall"]),
        "list_s": median([p["list_s"] for p in passes]),
    }
    for clock, (pass_s, per_s, p50, tail_ms) in CLOCK_METRICS.items():
        per_request = [median(lat) for lat in zip(*(p[clock] for p in passes))]
        percentile, value, beyond = tail(per_request)
        out[pass_s] = median([sum(p[clock]) for p in passes])
        out[per_s] = median([p["topologies"] / sum(p[clock]) for p in passes])
        out[p50] = median(per_request) * 1e3
        out[tail_ms] = value * 1e3
    out["tail_percentile"], out["tail_beyond"] = percentile, beyond
    return out


def per_layer(traced: list[dict], untraced_wall: float) -> dict:
    names = traced[0]["layers"].keys()
    out = {n: median([p["layers"][n] for p in traced]) for n in names}
    traced_wall = median(sum(p["wall"]) for p in traced)
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    out["layer_self_share"] = {
        layer: median(p["layer_self"].get(layer, 0.0) / sum(p["wall"]) for p in traced)
        for layer in traced[0]["layer_self"]
    }
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("plan")
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    if args.mode == "run" and args.seconds is None:
        ap.error("--seconds is required in run mode")
    plan = Plan.from_json(Path(args.plan).read_text())
    outcomes = Outcomes()
    result: dict = {}

    # Setup: what a CLI user pays before the first answer.  In a traced
    # setup probe the wrappers go in before the warm-up, to time the cold
    # poset tables.
    w0, c0 = time.perf_counter(), cpu_time()
    cli = load_program()
    tracer = tracing.Tracer()
    traced_setup = args.mode == "setup" and args.trace
    with tracing.install(tracer) if traced_setup else nullcontext():
        for req in plan.warmup:
            outcomes.record(req, *call(cli, req.argv)[:2])
    result["setup_s"] = cpu_time() - c0
    result["setup_wall_s"] = time.perf_counter() - w0
    if traced_setup:
        result["topology.poset_table_s"] = sum(
            s.busy for s in tracer.spans if s.name == "topology.poset_table"
        )

    if args.mode == "run":
        untraced = run_passes(cli, plan.requests, args.seconds, outcomes)
        result["end_to_end"] = end_to_end(untraced)
        if args.trace:
            tracer = tracing.Tracer()
            with tracing.install(tracer):
                traced = run_passes(cli, plan.requests, args.seconds, outcomes, tracer)
            result["per_layer"] = per_layer(traced, result["end_to_end"]["wall_s"])
            result["per_layer"]["traced_passes"] = len(traced)
            tracer.write(Path(args.plan).with_name("spans.jsonl"))
        # The first pass's reading: later ones include its checks.
        result["peak_rss_mb"] = untraced[0]["peak_rss_mb"]

    result.update(
        attempted=outcomes.attempted, failed=outcomes.failed, problems=outcomes.problems
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
