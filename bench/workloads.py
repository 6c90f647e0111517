"""The benchmark's three seeded, closed-loop, single-client workloads.

Each workload is one client that sends its next operation only after the
previous one has returned.  Every input (node choices, data vectors, erasure
patterns, CLI seeds) is drawn from ``random.Random(seed)``; the library sees
only those inputs.  Every result is checked, and a failed check or an
exception counts as a failed operation instead of stopping the run.

Why these three:

- ``update_stream`` is the write path: ``Cluster.apply_update`` with its
  audit on ``build_mrmub(10, 6, 12)`` over GF(32).  After set-up it never
  eliminates, so it is the workload on which a change to ``rref``, ``solve``
  or the verification code must show no change.
- ``recovery`` is the read and repair path on the all-node repair-optimal
  ``iterate_transform(build_mrmub(6, 4, 4), 3)`` over GF(8): updates, repairs
  and degraded reads on a code whose parities depend on their own node.
- ``cli_pipeline`` is the offline construct-and-verify path, the only one
  through ``ubcode.cli``, over a small binary field, an odd prime-power field
  and GF(2^16).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from time import perf_counter

import ubcode
from pace import Pace
from ubcode import cli

# Failure messages kept per run; the count of failures is always exact.
MAX_PROBLEMS = 20


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)


def cycle(rng: random.Random, items):
    """Endless seeded permutations of ``items``: each gets an equal share."""
    items = list(items)
    while True:
        order = items[:]
        rng.shuffle(order)
        yield from order


def percentile(values, p: int) -> float | None:
    """The p-th percentile, interpolated between the nearest samples; None
    when every operation of that kind failed."""
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def ratio(num, den) -> float | None:
    return num / den if den else None


def scaled(value, factor: float) -> float | None:
    return None if value is None else value * factor


def expected_edges(n: int, k: int, m) -> list[dict[int, int]]:
    """Per source node: the symbols the paper's bound ships to each peer."""
    grid = ubcode.bounds(n, k, m).bandwidth_assignment
    return [{j: grid[i][j] for j in range(n) if j != i and grid[i][j]} for i in range(n)]


def update_problem(log, node: int, expected: dict[int, int]) -> str | None:
    """None when an update shipped exactly the per-edge bound to every peer."""
    shipped: dict[int, int] = {}
    for rec in log.records:
        if rec.op != "update" or rec.src != node:
            return f"update of node {node} logged {rec}"
        shipped[rec.dst] = shipped.get(rec.dst, 0) + rec.count
    if shipped != expected:
        return f"update of node {node} shipped {shipped}, bound {expected}"
    return None


def repair_problem(log, node: int, lost, restored, bound: int | None) -> str | None:
    """None when a repair rebuilt the column bitwise and, if a bound is
    given, downloaded exactly that many symbols."""
    if restored != lost:
        return f"repair of node {node} changed the column"
    if bound is not None and log.total() != bound:
        return f"repair of node {node} downloaded {log.total()} symbols, bound {bound}"
    return None


def read_problem(decoded, live, erased) -> str | None:
    """None when a degraded read returned the live codeword."""
    if decoded != live:
        return f"degraded read without nodes {erased} differs from the live columns"
    return None


def direct_encode(code, truth) -> list[list[int]]:
    """Encode through the flat construction matrices, a path independent of
    the structured encoder the cluster uses."""
    return code.as_irregular_code().encode(truth)


def final_audit_problem(code, columns, direct) -> str | None:
    """None when the stored columns, in data-then-parity row order, equal
    the direct encode of the ground truth."""
    for j, col in enumerate(columns):
        if [col[r] for r in code.data_rows(j) + code.parity_rows(j)] != direct[j]:
            return f"node {j} differs from a direct encode of the ground truth"
    return None


def drain_log(cluster) -> None:
    """Empty the cluster's cumulative transfer log, as a monitor consuming it
    would.  The client checks each operation's own log instead; left alone,
    the cumulative log grows with every operation, so memory and garbage
    collection time would grow with how many operations a run fits."""
    cluster.log.records.clear()


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Workload:
    """One client's closed loop: ``setup`` once or more, then ``step`` until
    the run ends, then ``finish`` for the end-of-run checks."""

    name = ""
    op_kind = ""      # the samples behind the gated op_* metrics
    trace_steps = 0   # the fixed number of steps of a traced run

    def __init__(self, seed: int, workdir: Path, tracer=None):
        self.seed = seed
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.tracer = tracer
        self.pace = Pace()
        self.tally = Tally()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempts: dict[str, int] = defaultdict(int)

    def attempt(self, kind: str, call, check) -> float | None:
        """Time ``call()``, then check its result.

        Returns the elapsed seconds at the nominal machine speed (see
        ``pace``), or None when the call raised or the check found a
        problem; either counts as one failed operation.
        """
        self.tally.attempted += 1
        self.attempts[kind] += 1
        self.pace.tick()
        if self.tracer is not None:
            self.tracer.begin_op()
        try:
            start = perf_counter()
            result = call()
            elapsed = self.pace.scale(perf_counter() - start)
            problem = check(result)
        except Exception:  # a broken operation is a result to report, not a crash
            problem = f"{kind}: {traceback.format_exc(limit=-2).strip()}"
        if problem:
            self.tally.fail(problem)
            return None
        self.samples[kind].append(elapsed)
        return elapsed

    def enough(self) -> bool:
        """Whether the run has attempted the minimum operation counts its
        percentiles need (attempted, so a failing run still ends)."""
        return True

    def setup(self) -> None:
        raise NotImplementedError

    def step(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """End-of-run checks, counted as operations."""

    def record(self) -> dict:
        """The workload's own metrics and exact symbol counts."""
        raise NotImplementedError


class ClusterWorkload(Workload):
    """A client of one long-lived ``Cluster``: seeded updates checked against
    the per-edge bound, and end-of-run checks of the cluster's state."""

    N = K = DATA = 0  # the code's n, k and data symbols per node

    def __init__(self, seed, workdir, tracer=None):
        super().__init__(seed, workdir, tracer)
        profile = [self.DATA] * self.N
        self.edges = expected_edges(self.N, self.K, profile)
        self.bound = ubcode.bounds(self.N, self.K, profile).min_update_bandwidth
        self.update_nodes = cycle(self.rng, range(self.N))
        self.shipped = [[0, 0] for _ in range(self.N)]  # per node: updates, symbols

    def update(self) -> float | None:
        """One update of a seeded node to a fresh seeded data vector."""
        node = next(self.update_nodes)
        data = [self.rng.randrange(self.code.field.q) for _ in range(self.DATA)]

        def check(log):
            problem = update_problem(log, node, self.edges[node])
            if problem is None:
                self.shipped[node][0] += 1
                self.shipped[node][1] += log.total()
            return problem

        return self.attempt("update", lambda: self.cluster.apply_update(node, data), check)

    def finish(self):
        self.attempt("final_audit", lambda: direct_encode(self.code, self.cluster.truth),
                     lambda direct: final_audit_problem(self.code, self.cluster.columns, direct))
        updates = sum(u for u, _ in self.shipped)
        mean = Fraction(sum(s for _, s in self.shipped), updates) if updates else None
        self.attempt(
            "mean_update_symbols",
            lambda: mean,
            lambda got: None if got == self.bound else f"mean update {got} != bound {self.bound}",
        )

    def update_record(self) -> tuple[dict, dict]:
        """Update metrics and exact counts, from each update's TransferLog."""
        updates = sum(u for u, _ in self.shipped)
        symbols = sum(s for _, s in self.shipped)
        return (
            {"update_symbols_mean": metric(ratio(symbols, updates), "symbols")},
            {
                "updates": updates,
                "redundancy": ubcode.redundancy(self.code.as_irregular_code()),
                "min_update_bandwidth": str(self.bound),
                "update_symbols_by_node": [s for _, s in self.shipped],
                "updates_by_node": [u for u, _ in self.shipped],
            },
        )


class UpdateStream(ClusterWorkload):
    name = "update_stream"
    op_kind = "update"
    trace_steps = 1000
    N, K, DATA = 10, 6, 12
    MIN_UPDATES = 1000

    def setup(self):
        ubcode.GF.cache_clear()
        self.code = ubcode.build_mrmub(self.N, self.K, self.DATA)
        self.cluster = ubcode.Cluster(self.code, seed=self.seed)

    def step(self):
        self.update()
        drain_log(self.cluster)

    def enough(self):
        return self.attempts["update"] >= self.MIN_UPDATES

    def record(self):
        lat = self.samples["update"]
        metrics, counts = self.update_record()
        return {
            "metrics": {
                "update_p50_ms": metric(scaled(percentile(lat, 50), 1e3), "ms"),
                "update_p99_ms": metric(scaled(percentile(lat, 99), 1e3), "ms"),
                "update_ops_per_s": metric(ratio(len(lat), sum(lat)), "ops/s"),
                **metrics,
            },
            "counts": counts,
        }


class Recovery(ClusterWorkload):
    name = "recovery"
    op_kind = "step"
    trace_steps = 96
    M, ROUNDS = 4, 3  # build_mrmub's data per node, pairing rounds
    N, K, DATA = 6, 4, M << ROUNDS
    READ_EVERY = 8
    MIN_REPAIRS, MIN_READS = 200, 100

    def __init__(self, seed, workdir, tracer=None):
        super().__init__(seed, workdir, tracer)
        alpha = (self.M + (self.N - self.K) * self.M // self.K) << self.ROUNDS
        self.repair_bound = (self.N - 1) * alpha // (self.N - self.K)
        self.repair_nodes = cycle(self.rng, range(self.N))
        self.patterns = cycle(self.rng, combinations(range(self.N), self.N - self.K))
        self.repair_downloads: dict[tuple, int] = defaultdict(int)  # (node, per-source) -> times
        self.steps = 0

    def setup(self):
        ubcode.GF.cache_clear()
        self.code = ubcode.iterate_transform(ubcode.build_mrmub(self.N, self.K, self.M), self.ROUNDS)
        self.cluster = ubcode.Cluster(self.code, seed=self.seed)
        # Every round builds its column maps lazily on first use; a serving
        # cluster has them, so set-up warms them with one repair per node and
        # one degraded read.
        for node in range(self.N):
            self.cluster.fail_and_repair(node)
        self.code.decode_columns(
            {j: col for j, col in enumerate(self.cluster.columns) if j >= self.N - self.K}
        )

    def step(self):
        cluster = self.cluster
        parts = [self.update()]

        failed = next(self.repair_nodes)
        lost = list(cluster.columns[failed])

        def check_repair(log):
            problem = repair_problem(log, failed, lost, cluster.columns[failed], self.repair_bound)
            if problem is None:
                per_src = tuple((r.src, r.count) for r in log.records)
                self.repair_downloads[(failed, per_src)] += 1
            return problem

        parts.append(self.attempt("repair", lambda: cluster.fail_and_repair(failed), check_repair))

        if self.steps % self.READ_EVERY == self.READ_EVERY - 1:
            erased = next(self.patterns)
            known = {j: list(col) for j, col in enumerate(cluster.columns) if j not in erased}
            parts.append(self.attempt(
                "decode",
                lambda: self.code.decode_columns(known),
                lambda decoded: read_problem(decoded, cluster.columns, erased),
            ))
        if None not in parts:
            self.samples["step"].append(sum(parts))
        drain_log(self.cluster)
        self.steps += 1

    def enough(self):
        return (self.attempts["repair"] >= self.MIN_REPAIRS
                and self.attempts["decode"] >= self.MIN_READS)

    def record(self):
        s = self.samples
        metrics, counts = self.update_record()
        repairs = sum(self.repair_downloads.values())
        repair_symbols = sum(
            times * sum(c for _, c in per_src)
            for (_, per_src), times in self.repair_downloads.items()
        )
        return {
            "metrics": {
                "update_p50_ms": metric(scaled(percentile(s["update"], 50), 1e3), "ms"),
                "repair_p50_ms": metric(scaled(percentile(s["repair"], 50), 1e3), "ms"),
                "repair_p95_ms": metric(scaled(percentile(s["repair"], 95), 1e3), "ms"),
                "decode_p50_ms": metric(scaled(percentile(s["decode"], 50), 1e3), "ms"),
                "decode_p90_ms": metric(scaled(percentile(s["decode"], 90), 1e3), "ms"),
                **metrics,
                "repair_symbols_mean": metric(ratio(repair_symbols, repairs), "symbols"),
            },
            "counts": {
                **counts,
                "repairs": repairs,
                "reads": len(s["decode"]),
                "repair_bound": self.repair_bound,
                "repair_downloads": [
                    {"node": node, "from": dict(per_src), "times": times}
                    for (node, per_src), times in sorted(self.repair_downloads.items())
                ],
            },
        }


# (label, construct arguments, (n, k, per-node data count after construction),
#  repair download bound or None where the code has no repair schedule)
SPECS = [
    ("a", ["--kind", "mub", "--n", "8", "--k", "4", "--m", "8,8,4,4,0,12,4,8"],
     (8, 4, [8, 8, 4, 4, 0, 12, 4, 8]), None),
    ("b", ["--kind", "mrmub", "--n", "6", "--k", "4", "--m", "4,4,4,4,4,4",
           "--q", "25", "--transform-rounds", "3"],
     (6, 4, [32] * 6), 120),
    ("c", ["--kind", "mrmub", "--n", "6", "--k", "3", "--m", "6,6,6,6,6,6", "--q", "65536"],
     (6, 3, [6] * 6), None),
]


def parse_transfers(stdout: str, op: str) -> list[tuple[int, int, int]]:
    """(src, dst, count) of the ``op,src,dst,count`` lines the CLI prints."""
    out = []
    for line in stdout.splitlines():
        parts = line.split(",")
        if len(parts) == 4 and parts[0] == op:
            out.append((int(parts[1]), int(parts[2]), int(parts[3])))
    return out


class CliPipeline(Workload):
    name = "cli_pipeline"
    op_kind = "pass"
    trace_steps = 1

    def __init__(self, seed, workdir, tracer=None):
        super().__init__(seed, workdir, tracer)
        self.edges = {label: expected_edges(*shape) for label, _, shape, _ in SPECS}
        self.verified: dict[str, dict] = {}
        self.update_symbols: dict[str, dict[int, int]] = defaultdict(dict)
        self.repair_downloads: dict[str, dict[int, int]] = defaultdict(dict)

    def setup(self):
        """Start a fresh interpreter that imports the CLI: the cost every
        ``ubcode`` command pays before the in-process timings begin."""
        src = Path(ubcode.__file__).resolve().parent.parent
        subprocess.run(
            [sys.executable, "-c", "import ubcode.cli"],
            env={**os.environ, "PYTHONPATH": str(src)},
            cwd=self.workdir, check=True, timeout=120,
        )

    def run_cli(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        return code, out.getvalue(), err.getvalue()

    def command(self, argv: list[str], check=None) -> float | None:
        """One in-process ``ubcode`` command, paying field set-up afresh."""
        ubcode.GF.cache_clear()

        def problem(result):
            code, stdout, stderr = result
            if code != 0:
                return f"`ubcode {' '.join(argv)}` exited {code}: {stderr.strip()[-300:]}"
            return check(stdout) if check else None

        return self.attempt(f"cli.{argv[0]}", lambda: self.run_cli(argv), problem)

    def spec_pipeline(self, label, construct_args, shape, repair_bound) -> float | None:
        n, k, _ = shape
        rng = self.rng
        d = self.workdir
        spec, cw, cw2 = str(d / f"{label}.json"), str(d / f"{label}.cw"), str(d / f"{label}.cw2")
        dec, rep = d / f"{label}.dec", d / f"{label}.rep"
        node = rng.randrange(n)
        erased = sorted(rng.sample(range(n), n - k))
        failed = rng.randrange(n)

        def check_update(stdout):
            shipped = {}
            for src, dst, count in parse_transfers(stdout, "update"):
                shipped[dst] = shipped.get(dst, 0) + count
            if shipped != self.edges[label][node]:
                return f"spec {label}: update of node {node} shipped {shipped}"
            self.update_symbols[label][node] = sum(shipped.values())
            return None

        def same_file(path, what):
            def check(_stdout):
                if Path(path).read_text() != Path(cw2).read_text():
                    return f"spec {label}: {what} file differs from the codeword"
                return None
            return check

        def check_repair(stdout):
            per_src = {src: count for src, _, count in parse_transfers(stdout, "repair")}
            total = sum(per_src.values())
            if repair_bound is not None and total != repair_bound:
                return f"spec {label}: repair of node {failed} downloaded {total}, bound {repair_bound}"
            self.repair_downloads[label][failed] = total
            return same_file(rep, "repaired")(stdout)

        def check_verify(stdout):
            report = json.loads(stdout)
            bad = [c["name"] for c in report["checks"] if not c["ok"]]
            if bad:
                return f"spec {label}: verify failed {bad}"
            self.verified[label] = {
                "redundancy": report["redundancy"],
                "update_bandwidth": report["update_bandwidth"],
            }
            return None

        times = [
            self.command(["construct", *construct_args, "--out", spec]),
            self.command(["encode", "--spec", spec, "--seed", str(rng.randrange(2**31)), "--out", cw]),
            self.command(["update", "--spec", spec, "--in", cw, "--node", str(node),
                          "--seed", str(rng.randrange(2**31)), "--out", cw2], check_update),
            self.command(["decode", "--spec", spec, "--in", cw2, "--erased",
                          ",".join(map(str, erased)), "--out", str(dec)], same_file(dec, "decoded")),
            self.command(["repair", "--spec", spec, "--in", cw2, "--node", str(failed),
                          "--out", str(rep)], check_repair),
            self.command(["verify", spec, "--json"], check_verify),
        ]
        return None if None in times else sum(times)

    def step(self):
        """One pass: every spec through the whole pipeline."""
        before = {c: len(self.samples[f"cli.{c}"]) for c in ("construct", "verify")}
        times = [self.spec_pipeline(*spec) for spec in SPECS]
        if None not in times:
            self.samples["pass"].append(sum(times))
            for c, start in before.items():
                self.samples[f"{c}_pass"].append(sum(self.samples[f"cli.{c}"][start:]))

    def record(self):
        s = self.samples
        return {
            "metrics": {
                "pipeline_pass_s": metric(percentile(s["pass"], 50), "s"),
                "construct_s": metric(percentile(s["construct_pass"], 50), "s"),
                "verify_s": metric(percentile(s["verify_pass"], 50), "s"),
            },
            "counts": {
                "passes": len(s["pass"]),
                "verified": self.verified,
                "update_symbols_by_node": self.update_symbols,
                "repair_downloads_by_node": self.repair_downloads,
            },
        }


WORKLOADS = {w.name: w for w in (UpdateStream, Recovery, CliPipeline)}
