"""Tests of the benchmark itself: its output checks can fail, and its output
matches BENCHMARK.json.

Run from the repository root with ``python -m pytest bench -q``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import pace
import probes
import run
import workloads
from layers import MOVES

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def recovery(tmp_path):
    w = workloads.Recovery(1, tmp_path)
    w.setup()
    return w


@pytest.fixture
def update_stream(tmp_path):
    w = workloads.UpdateStream(1, tmp_path)
    w.setup()
    return w


def test_clean_steps_pass(recovery):
    for _ in range(recovery.READ_EVERY):
        recovery.step()
    recovery.finish()
    assert recovery.tally.failed == 0, recovery.tally.problems
    assert len(recovery.samples["decode"]) == 1


def test_corrupted_decode_is_a_failed_operation(recovery):
    real = recovery.code.decode_columns

    def corrupted(known):
        columns = real(known)
        columns[0][0] ^= 1
        return columns

    recovery.code.decode_columns = corrupted
    for _ in range(recovery.READ_EVERY):
        recovery.step()
    assert recovery.tally.failed == 1
    assert "degraded read" in recovery.tally.problems[0]
    assert recovery.samples["decode"] == []


def test_wrong_expected_update_count_is_a_failed_operation(update_stream):
    for edges in update_stream.edges:
        peer = min(edges)
        edges[peer] += 1
    update_stream.step()
    assert update_stream.tally.failed == 1
    assert "shipped" in update_stream.tally.problems[0]


def test_wrong_expected_repair_count_is_a_failed_operation(recovery):
    recovery.repair_bound += 1
    recovery.step()
    assert recovery.tally.failed == 1
    assert "downloaded 120 symbols" in recovery.tally.problems[0]


def test_exception_is_a_failed_operation_and_the_loop_goes_on(update_stream):
    def broken(node, data):
        raise RuntimeError("disk on fire")

    update_stream.cluster.apply_update = broken
    for _ in range(3):
        update_stream.step()
    assert update_stream.tally.attempted == 3
    assert update_stream.tally.failed == 3
    assert "disk on fire" in update_stream.tally.problems[0]


def test_same_seed_same_inputs(tmp_path):
    runs = []
    for _ in range(2):
        w = workloads.UpdateStream(7, tmp_path)
        w.setup()
        for _ in range(20):
            w.step()
        runs.append((w.cluster.truth, w.cluster.columns))
    assert runs[0] == runs[1]


def test_pace_scales_timings_to_the_nominal_speed():
    p = pace.Pace()
    p.recent.extend([2 * pace.NOMINAL_S] * pace.WINDOW)  # a machine at half speed
    short = pace.INTERVAL_S / 10
    assert p.scale(short) == pytest.approx(short / 2)
    assert p.speed() == pytest.approx(0.5)


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_failed_checks_make_the_run_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "update_problem", lambda log, node, expected: "forced miss")
    code = run.main(["--workload", "update_stream", "--seed", "1", "--seconds", "0"])
    result = last_json(capsys)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= workloads.UpdateStream.MIN_UPDATES


def test_untraced_run_reports_the_end_to_end_metrics(capsys):
    assert run.main(["--workload", "update_stream", "--seed", "1", "--seconds", "0"]) == 0
    result = last_json(capsys)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > workloads.UpdateStream.MIN_UPDATES
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_the_layer_metrics_and_the_bypass(monkeypatch, capsys):
    monkeypatch.setattr(workloads.UpdateStream, "trace_steps", 20)
    monkeypatch.setattr(probes, "OPS_PER_PROBE", 1000)
    monkeypatch.setattr(probes, "REPEATS", 1)
    assert run.main(["--workload", "update_stream", "--seed", "1", "--seconds", "0", "--trace", "1"]) == 0
    metrics = last_json(capsys)["metrics"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    # After set-up the write path never eliminates, but set-up does.
    assert metrics["linalg.rref.calls"]["value"] == 0
    assert metrics["setup.linalg.rref.calls"]["value"] > 0
    assert metrics["cluster.update_symbols"]["value"] == 18
    assert 0 < metrics["cluster.audit_share"]["value"] < 1


def test_benchmark_json_lists_every_layer_metric():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in MOVES.items()
    ]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
