#!/usr/bin/env python3
"""Seeded benchmark for ubcode.

Run from the repository root:

    python3 bench/run.py --workload update_stream --seed 1 --seconds 30 --trace 0

``--trace 0`` runs set-up ``SETUP_REPEATS`` times, then the workload's closed
loop for ``--seconds`` (longer only if the loop still lacks the minimum sample
counts its percentiles need), and reports the end-to-end metrics of
``BENCHMARK.json``: the median latency of the workload's operation, the
operations per second of library time, the median set-up time and the peak
resident memory.  ``--trace 1`` runs a fixed number of steps untraced, the
same steps again with every public ubcode function traced, then the layer
probes, and reports the per-layer metrics of ``layers.MOVES``.  Every timing
is scaled to the nominal machine speed (see ``pace``).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it print
the workload's own metrics by name and unit.  The full record (those metrics,
the exact symbol counts, the failures) goes to ``bench/out/BENCH_*.json`` and
a traced run's spans to ``bench/out/trace_*.jsonl.gz``.  The exit status is 0
when every operation passed its check, 1 when one failed, and 2 when the
ubcode sources are missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 7
WORKLOAD_NAMES = ("update_stream", "recovery", "cli_pipeline")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def timed_run(workload, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics of one untraced run, and its record."""
    from workloads import metric, percentile, ratio, scaled

    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # every set-up starts from the same collector state
        setups.append(workload.pace.timed(workload.setup))
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not workload.enough():
        workload.step()
    workload.finish()

    ops = workload.samples[workload.op_kind]
    gated = {
        "op_p50_ms": metric(scaled(percentile(ops, 50), 1e3), "ms"),
        "ops_per_s": metric(ratio(len(ops), sum(ops)), "ops/s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    record = workload.record()
    tally = workload.tally
    record["metrics"].update(gated)
    record["metrics"]["failed_ops_ratio"] = metric(ratio(tally.failed, tally.attempted), "ratio")
    record["samples"] = {kind: len(v) for kind, v in sorted(workload.samples.items())}
    record["speed"] = workload.pace.speed()
    record["setup_runs_s"] = setups
    return gated, record


def traced_run(make) -> tuple[dict, dict, list, object]:
    """Per-layer metrics of the same fixed steps run untraced, then traced;
    also the record, both workload runs and the tracer."""
    from layers import MOVES, layer_values
    from probes import run_probes
    from tracing import Tracer
    from workloads import ratio

    plain = make(None)
    plain.setup()
    for _ in range(plain.trace_steps):
        plain.step()
    plain.finish()

    tracer = Tracer()
    tracer.install()
    try:
        traced = make(tracer)
        traced.setup()
        tracer.phase = "ops"
        for _ in range(traced.trace_steps):
            traced.step()
        tracer.phase = "finish"
        traced.finish()
    finally:
        tracer.uninstall()

    # Both sums are scaled to the nominal speed, so the ratio is tracing's own.
    overhead = ratio(sum(traced.samples[traced.op_kind]), sum(plain.samples[plain.op_kind]))
    values = layer_values(tracer.summary(), tracer.counters, run_probes(traced.seed),
                          overhead, traced.pace.speed() or 1.0)
    layered = {name: {"value": values[name], "unit": MOVES[name][0]} for name in MOVES}
    # The traced run's own latencies include tracing; keep only its counts.
    record = {"counts": traced.record()["counts"], "metrics": layered, "steps": traced.trace_steps}
    return layered, record, [plain, traced], tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ubcode" / "__init__.py").is_file():
        print(f"error: ubcode sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    label = f"{args.workload}_seed{args.seed}_trace{args.trace}"

    def make(tracer):
        return WORKLOADS[args.workload](args.seed, workdir, tracer)

    try:
        if args.trace:
            metrics, record, runs, tracer = traced_run(make)
            tracer.write(OUT / f"trace_{label}.jsonl.gz")
        else:
            workload = make(None)
            metrics, record = timed_run(workload, args.seconds)
            runs = [workload]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(w.tally.attempted for w in runs)
    failed = sum(w.tally.failed for w in runs)
    problems = [p for w in runs for p in w.tally.problems]
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  attempted=attempted, failed=failed, problems=problems)
    (OUT / f"BENCH_{label}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, m in record["metrics"].items():
        print(f"{args.workload:14s} {name:38s} {m['value']} {m['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
