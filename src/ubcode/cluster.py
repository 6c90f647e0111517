"""Deterministic simulated storage cluster with full symbol accounting.

A cluster owns one code instance, the current per-node columns, and the
ground-truth data vectors.  Updates ship exactly the per-edge intermediate
vectors of the update protocol; a repair's fetch charges each row to its
source, and ``code.repair`` asks for each (source, row) once; every completed
operation leaves the columns equal to a fresh encode of the ground truth
(re-checked internally, and auditable on demand).

Randomness is always drawn from ``random.Random(seed)`` (the stdlib Mersenne
Twister), so identical seeds reproduce identical clusters, workloads and
logs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .code_model import InvalidParamsError, NodeOutOfRangeError, _is_count
from .linalg import _is_row


class ClusterStateError(RuntimeError):
    """Stored columns diverged from the encode of the ground truth."""


class RepairMismatchError(RuntimeError):
    """A repaired column differs from the lost one."""


@dataclass(frozen=True)
class TransferRecord:
    op: str
    src: int
    dst: int
    count: int


@dataclass
class TransferLog:
    records: list[TransferRecord] = dc_field(default_factory=list)

    def add(self, op: str, src: int, dst: int, count: int) -> None:
        if count < 0:
            raise ValueError("negative transfer count")
        self.records.append(TransferRecord(op, src, dst, count))

    def total(self) -> int:
        return sum(r.count for r in self.records)

    def extend(self, other: "TransferLog") -> None:
        self.records.extend(other.records)

    def lines(self) -> list[str]:
        return [f"{r.op},{r.src},{r.dst},{r.count}" for r in self.records]


@dataclass(frozen=True)
class AuditResult:
    ok: bool
    location: tuple[int, int] | None = None  # (node, row)
    detail: str = ""


def random_data(code, seed: int) -> list[list[int]]:
    """Seeded data fill: ``randrange(q)`` per symbol, node by node."""
    rng = random.Random(seed)
    return [[rng.randrange(code.field.q) for _ in range(mi)] for mi in code.m]


class Cluster:
    """Single-owner mutable state machine around an immutable code object."""

    def __init__(self, code, data=None, seed: int | None = None):
        self.code = code
        self.field = code.field
        if data is None:
            data = random_data(code, 0 if seed is None else seed)
        self.columns = code.encode(data)  # checks the fill
        self.truth = [list(x) for x in data]
        self.log = TransferLog()

    @property
    def n(self) -> int:
        return self.code.n

    # -- update ---------------------------------------------------------------

    def apply_update(self, node: int, new_data: list[int]) -> TransferLog:
        """Replace node's data vector; ship one intermediate vector per edge.

        The edge i -> j carries exactly rank(construction[i][j]) symbols
        regardless of the delta's value: the protocol is data-oblivious.
        """
        self.code.check_node(node)
        f, m = self.field, self.code.m[node]
        if not _is_row(new_data, m):
            got = (f"length {len(new_data)} != {m}" if isinstance(new_data, (list, tuple))
                   else f"is {type(new_data).__name__}, not a list of {m} symbols")
            raise InvalidParamsError(f"update vector {got}")
        new_data = [f.validate(v) for v in new_data]
        old = self.truth[node]
        delta = [f.sub(a, b) for a, b in zip(new_data, old)]
        oplog = TransferLog()

        for j, payload, addend in self.code.parity_terms(node, delta):
            if payload is not None:
                oplog.add("update", node, j, len(payload))
            col = self.columns[j]
            for r, v in zip(self.code.parity_rows(j), addend):
                col[r] = f.add(col[r], v)
        own = self.columns[node]
        for r, v in zip(self.code.data_rows(node), new_data):
            own[r] = v
        self.truth[node] = new_data
        result = self.audit()
        if not result.ok:
            raise ClusterStateError(f"after update: {result.detail}")
        self.log.extend(oplog)
        return oplog

    # -- repair ---------------------------------------------------------------

    def fail_and_repair(self, node: int) -> TransferLog:
        """Erase a column, rebuild it from survivors, charge every row fetched.

        ``code.repair`` downloads each physical symbol once, however many
        recovery steps read it; the rebuilt column must match the lost one bitwise."""
        per_src: dict[int, int] = {}

        def fetch(src: int, rows) -> list[int]:
            if src == node:
                raise NodeOutOfRangeError(f"cannot download from failed node {src}")
            self.code.check_node(src)
            per_src[src] = per_src.get(src, 0) + len(rows)
            return [self.columns[src][r] for r in rows]

        restored = self.code.repair(node, fetch)  # checks the node first
        if restored != self.columns[node]:
            raise RepairMismatchError(f"repair of node {node} altered the column")

        oplog = TransferLog()
        for src in sorted(per_src):
            oplog.add("repair", src, node, per_src[src])
        self.log.extend(oplog)
        return oplog

    # -- verification ------------------------------------------------------------

    def audit(self) -> AuditResult:
        """Recompute the encode of the ground truth and compare symbol-for-symbol;
        ``truth`` was checked as it came in, so ``_encode`` does not recheck it."""
        expect = self.code._encode(self.truth)
        for j, (got, want) in enumerate(zip(self.columns, expect)):
            for r, (a, b) in enumerate(zip(got, want)):
                if a != b:
                    return AuditResult(False, (j, r), f"node {j} row {r}: {a} != {b}")
        return AuditResult(True)

    # -- workloads ----------------------------------------------------------------

    def run_workload(self, updates: int, repairs: int, seed: int = 0) -> dict:
        """Round-robin updates with random fills, then random-node repairs.

        Returns exact measured statistics: mean symbols per update (a
        Fraction), per-node update totals, and per-repair download counts.
        """
        if not (_is_count(updates) and _is_count(repairs)):
            raise InvalidParamsError(f"negative workload: {updates} updates, {repairs} repairs")
        rng = random.Random(seed)
        per_node = [0] * self.n
        total = 0
        for t in range(updates):
            node = t % self.n
            fresh = [rng.randrange(self.field.q) for _ in range(self.code.m[node])]
            sent = self.apply_update(node, fresh).total()
            per_node[node] += sent
            total += sent
        repair_counts = []
        for _ in range(repairs):
            node = rng.randrange(self.n)
            repair_counts.append((node, self.fail_and_repair(node).total()))
        return {
            "updates": updates,
            "repairs": repairs,
            "total_update_symbols": total,
            "mean_update_symbols": Fraction(total, updates) if updates else Fraction(0),
            "per_node_update_symbols": per_node,
            "repair_downloads": repair_counts,
            "audit_ok": self.audit().ok,
        }
