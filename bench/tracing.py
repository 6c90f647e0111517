"""In-memory span tracing around calls into ubcode's public functions.

The traced run replaces, from outside the package, each public function and
method named in ``TRACED`` with a wrapper that records one span: name, start,
end, parent span, the operation id the benchmark was running, and the phase
(``setup`` or ``ops``).  Nothing inside ``src/`` knows about tracing; every
wrapper is removed again by :meth:`Tracer.uninstall`.

A span's self time is its duration minus the time its direct children cover.
Calls are single-threaded and strictly nested, so the children of one span
never overlap and their durations can simply be summed.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from ubcode import cli, cluster, code_model, construct, finite_field, linalg, transform

# (owner, attribute, span name).  An owner that is a module means a function,
# whose every binding in every ubcode module is replaced; a class means a
# method, replaced on the class.
TRACED = [
    (finite_field.Field, "__init__", "finite_field.field_init"),
    (linalg, "rref", "linalg.rref"),
    (linalg, "solve", "linalg.solve"),
    (linalg, "invert", "linalg.invert"),
    (linalg, "vandermonde_columns", "linalg.vandermonde"),
    (linalg.Matrix, "__matmul__", "linalg.matmul"),
    (linalg.Matrix, "apply", "linalg.apply"),
    (code_model, "solve_data_from_columns", "code_model.decode_generic"),
    (code_model, "verify_mds", "code_model.verify_mds"),
    (code_model, "feasible", "code_model.feasible"),
    (code_model, "code_from_json", "code_model.from_json"),
    (code_model.IrregularArrayCode, "encode", "code_model.encode"),
    (code_model.IrregularArrayCode, "repair", "code_model.repair"),
    (construct, "build_mrmub", "construct.build"),
    (construct, "build_mub", "construct.build"),
    (construct, "assert_column_selections_invertible", "construct.selection_check"),
    (construct.BuiltCode, "encode", "code_model.encode"),
    (construct.BuiltCode, "decode_columns", "construct.decode_structured"),
    (construct.BuiltCode, "repair", "construct.repair"),
    (construct.RowWiseMdsBase, "decode", "construct.mds_base_decode"),
    (transform.TransformedCode, "encode", "transform.encode"),
    (transform.TransformedCode, "decode_columns", "transform.decode_columns"),
    (transform.TransformedCode, "column_maps", "transform.column_maps"),
    (transform.TransformedCode, "repair", "transform.repair"),
    (cluster.Cluster, "apply_update", "cluster.apply_update"),
    (cluster.Cluster, "audit", "cluster.audit"),
    (cluster.Cluster, "fail_and_repair", "cluster.fail_and_repair"),
    (cli, "load_spec", "cli.load_spec"),
]

REPAIR_SPANS = ("code_model.repair", "construct.repair", "transform.repair")
TRANSFER_SPANS = {"cluster.apply_update": "update", "cluster.fail_and_repair": "repair"}

# Span record fields, kept as plain lists while recording.
NAME, START, END, PARENT, OP, PHASE = range(6)


class Tracer:
    """Records spans in memory; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[tuple[str, str], int] = defaultdict(int)
        self.phase = "setup"
        self.op_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def begin_op(self) -> None:
        """Start a new operation: later spans carry the next op id."""
        self.op_id += 1

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call it makes."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, self.phase]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()

    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "linalg.rref":
                m = args[0]
                tracer.counters[(tracer.phase, "linalg.rref.cells")] += m.rows * m.cols
            elif name in REPAIR_SPANS and tracer._parent_name() == "cluster.fail_and_repair":
                args = (args[0], args[1], tracer._counting_fetch(args[2]), *args[3:])
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if name in TRANSFER_SPANS:  # the returned TransferLog counts the symbols
                kind = TRANSFER_SPANS[name]
                tracer.counters[(tracer.phase, f"cluster.{kind}s")] += 1
                tracer.counters[(tracer.phase, f"cluster.{kind}_symbols")] += result.total()
            return result

        return traced

    def _counting_fetch(self, fetch):
        """Count the rows a repair requests, before the cluster deduplicates them."""

        def counted(src, rows):
            rows = list(rows)
            self.counters[(self.phase, "cluster.rows_requested")] += len(rows)
            return fetch(src, rows)

        return counted

    # -- patching ------------------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "ubcode" or k.startswith("ubcode.")]
        for owner, attr, name in TRACED:
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            if isinstance(owner, type):
                self._undo.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results -------------------------------------------------------------------

    def summary(self) -> dict[tuple[str, str], dict]:
        """Per (phase, span name): calls, inclusive seconds, self seconds, and
        the calls and inclusive seconds of its direct children, by name."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                covered[rec[PARENT]] += rec[END] - rec[START]
        out: dict[tuple[str, str], dict] = {}
        for idx, rec in enumerate(spans):
            row = out.setdefault(
                (rec[PHASE], rec[NAME]),
                {"calls": 0, "total_s": 0.0, "self_s": 0.0, "children": defaultdict(lambda: [0, 0.0])},
            )
            dur = rec[END] - rec[START]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - covered[idx]
            if rec[PARENT] >= 0:
                parent = spans[rec[PARENT]]  # opened earlier, so already counted
                child = out[(parent[PHASE], parent[NAME])]["children"][rec[NAME]]
                child[0] += 1
                child[1] += dur
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line, times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "name": rec[NAME],
                    "start": rec[START] - t0,
                    "end": rec[END] - t0,
                    "parent": rec[PARENT],
                    "op": rec[OP],
                    "phase": rec[PHASE],
                }))
                fh.write("\n")
