"""Per-layer metrics of the traced run, and what each one should move.

A traced run runs a fixed number of steps (``Workload.trace_steps``), so its
figures compare across commits: a name without a prefix covers those steps,
the ``setup.`` names cover one traced set-up.  A layer that a workload does
not reach reports 0 there; that is the bypass, not a missing figure.  Times
are summed self times (a span's duration minus its child spans') except the
``cli.*.s`` command times, which include everything the command called; all
are scaled to the nominal machine speed (see ``pace``).

``MOVES`` is the prediction a change cites: the end-to-end metric, and the
workload, that a change to this layer should move.  The gated ``op_p50_ms``
and ``ops_per_s`` count the workload's own operation: an update on
``update_stream``, a step (update, repair, every 8th a degraded read) on
``recovery``, a pass of every spec through the pipeline on ``cli_pipeline``.
The record every run writes holds the finer end-to-end figures named here
(``update_p50_ms``, ``decode_p50_ms``, ``pipeline_pass_s``, ...).
"""

from __future__ import annotations

from probes import PROBE_FIELDS, RREF_FIELD, RREF_SIZES

GF_MOVES = "update_p50_ms on update_stream, decode_p50_ms on recovery"
ELIM_MOVES = "decode_* on recovery, verify_s and construct_s on cli_pipeline; no change on update_stream"
BUILD_MOVES = "construct_s on cli_pipeline, setup_s on update_stream and recovery"
REPAIR_MOVES = "repair_p50_ms on recovery"
CLI_MOVES = "pipeline_pass_s on cli_pipeline"

# name -> (unit, better, the end-to-end metric and workload it should move)
MOVES: dict[str, tuple[str, str, str]] = {}

for q in PROBE_FIELDS:
    for op in ("mul", "add"):
        MOVES[f"finite_field.{op}_mops.q{q}"] = (
            "Mops/s", "higher",
            "pipeline_pass_s on cli_pipeline" if (op, q) == ("add", 25) else GF_MOVES,
        )
MOVES["finite_field.table_build_s.q65536"] = ("s", "lower", "pipeline_pass_s on cli_pipeline (spec c)")
MOVES["finite_field.field_init.self_s"] = ("s", "lower", CLI_MOVES)

for fn in ("rref", "solve", "invert", "matmul", "apply"):
    moves = "update_p50_ms on update_stream and recovery" if fn in ("matmul", "apply") else ELIM_MOVES
    MOVES[f"linalg.{fn}.calls"] = ("count", "lower", moves)
    MOVES[f"linalg.{fn}.self_s"] = ("s", "lower", moves)
MOVES["linalg.rref.cells"] = ("count", "lower", ELIM_MOVES)
for n in RREF_SIZES:
    MOVES[f"linalg.rref_ms.n{n}.q{RREF_FIELD}"] = ("ms", "lower", ELIM_MOVES)
MOVES["linalg.vandermonde.self_s"] = ("s", "lower", BUILD_MOVES)

MOVES.update({
    "code_model.encode.calls": ("count", "lower", "update_p50_ms on update_stream"),
    "code_model.encode.self_s": ("s", "lower", "update_p50_ms on update_stream"),
    "code_model.decode_generic.calls": ("count", "lower", "decode_p50_ms on recovery"),
    "code_model.decode_generic.self_s": ("s", "lower", "decode_p50_ms on recovery"),
    "code_model.verify_mds.self_s": ("s", "lower", "verify_s on cli_pipeline"),
    "code_model.verify_mds.subsets": ("count", "lower", "verify_s on cli_pipeline"),
    "code_model.feasible.self_s": ("s", "lower", "verify_s on cli_pipeline"),
    "code_model.from_json.self_s": ("s", "lower", "verify_s on cli_pipeline"),
    "construct.build.self_s": ("s", "lower", BUILD_MOVES),
    "construct.selection_check.calls": ("count", "lower", BUILD_MOVES),
    "construct.selection_check.self_s": ("s", "lower", BUILD_MOVES),
    "construct.decode_structured.calls": ("count", "lower", REPAIR_MOVES),
    "construct.decode_structured.self_s": ("s", "lower", REPAIR_MOVES),
    "construct.mds_base_decode.self_s": ("s", "lower", REPAIR_MOVES),
    "transform.repair.calls": ("count", "lower", "repair_p50_ms and repair_p95_ms on recovery"),
    "transform.repair.self_s": ("s", "lower", "repair_p50_ms and repair_p95_ms on recovery"),
    "transform.encode.self_s": ("s", "lower", "update_p50_ms on recovery"),
    "transform.column_maps.self_s": ("s", "lower", "setup_s on recovery, pipeline_pass_s on cli_pipeline"),
    "cluster.apply_update.self_s": ("s", "lower", "update_p50_ms on update_stream and recovery"),
    "cluster.audit.self_s": ("s", "lower", "update_p50_ms on update_stream and recovery"),
    "cluster.audit_share": ("ratio", "lower", "update_p50_ms on update_stream and recovery"),
    "cluster.fail_and_repair.self_s": ("s", "lower", REPAIR_MOVES),
    "cluster.repair_read_ratio": ("ratio", "higher", REPAIR_MOVES),
    "cluster.update_symbols": ("symbols", "lower", "update_symbols_mean on update_stream and recovery"),
    "cluster.repair_symbols": ("symbols", "lower", "repair_symbols_mean on recovery"),
})
for cmd in ("construct", "encode", "update", "decode", "repair", "verify"):
    MOVES[f"cli.{cmd}.s"] = ("s", "lower", CLI_MOVES)
MOVES["cli.load_spec.self_s"] = ("s", "lower", CLI_MOVES)
MOVES["trace.overhead_ratio"] = ("ratio", "lower", "none: the cost of tracing itself")

# Set-up work of the traced run's one set-up.
SETUP_SPANS = {
    "construct.build": BUILD_MOVES,
    "construct.selection_check": BUILD_MOVES,
    "linalg.vandermonde": BUILD_MOVES,
    "linalg.rref": "setup_s on update_stream and recovery",
    "transform.column_maps": "setup_s on recovery",
    "transform.encode": "setup_s on recovery",
    "code_model.encode": "setup_s on update_stream",
    "finite_field.field_init": "setup_s on every workload",
}
for span, moves in SETUP_SPANS.items():
    MOVES[f"setup.{span}.self_s"] = ("s", "lower", moves)
MOVES["setup.construct.selection_check.calls"] = ("count", "lower", BUILD_MOVES)
MOVES["setup.linalg.rref.calls"] = ("count", "lower", "setup_s on update_stream and recovery")

# Spans whose calls and self time are reported under their own name.
SPAN_METRICS = [
    "finite_field.field_init", "linalg.rref", "linalg.solve", "linalg.invert",
    "linalg.matmul", "linalg.apply", "linalg.vandermonde", "code_model.encode",
    "code_model.decode_generic", "code_model.verify_mds", "code_model.feasible",
    "code_model.from_json", "construct.build", "construct.selection_check",
    "construct.decode_structured", "construct.mds_base_decode", "transform.repair",
    "transform.encode", "transform.column_maps", "cluster.apply_update",
    "cluster.audit", "cluster.fail_and_repair", "cli.load_spec",
]


def layer_values(summary, counters, probes: dict[str, float], overhead: float,
                 speed: float) -> dict[str, float]:
    """Every metric of ``MOVES`` from one traced run; span times are scaled
    by ``speed``, the machine's speed relative to nominal during the run."""

    def span(phase, name, field):
        row = summary.get((phase, name))
        if not row:
            return 0
        return row[field] if field == "calls" else row[field] * speed

    def child(phase, name, kid, field):
        """Calls (field 0) or inclusive seconds (field 1) of one child span."""
        row = summary.get((phase, name))
        if not row:
            return 0
        return row["children"][kid][field] * (speed if field else 1)

    def count(phase, name):
        return counters.get((phase, name), 0)

    def share(num, den):
        return num / den if den else 0.0

    values = dict(probes)
    for name in SPAN_METRICS:
        for field in ("calls", "self_s"):
            values[f"{name}.{field}"] = span("ops", name, field)
    for name in SETUP_SPANS:
        values[f"setup.{name}.self_s"] = span("setup", name, "self_s")
    values["setup.construct.selection_check.calls"] = span("setup", "construct.selection_check", "calls")
    values["setup.linalg.rref.calls"] = span("setup", "linalg.rref", "calls")

    values["linalg.rref.cells"] = count("ops", "linalg.rref.cells")
    # One solve per k-subset, one rank (an rref) per (k-1)-subset it tests.
    values["code_model.verify_mds.subsets"] = (
        child("ops", "code_model.verify_mds", "linalg.solve", 0)
        + child("ops", "code_model.verify_mds", "linalg.rref", 0)
    )
    # Only the audit an update runs on itself; verify also audits on its own.
    values["cluster.audit_share"] = share(
        child("ops", "cluster.apply_update", "cluster.audit", 1),
        span("ops", "cluster.apply_update", "total_s"),
    )
    values["cluster.repair_read_ratio"] = share(
        count("ops", "cluster.repair_symbols"), count("ops", "cluster.rows_requested")
    )
    values["cluster.update_symbols"] = share(count("ops", "cluster.update_symbols"), count("ops", "cluster.updates"))
    values["cluster.repair_symbols"] = share(count("ops", "cluster.repair_symbols"), count("ops", "cluster.repairs"))
    for cmd in ("construct", "encode", "update", "decode", "repair", "verify"):
        values[f"cli.{cmd}.s"] = span("ops", f"cli.{cmd}", "total_s")
    values["trace.overhead_ratio"] = overhead
    return {name: values[name] for name in MOVES}
