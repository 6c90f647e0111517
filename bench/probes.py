"""Layer probes: GF(q) arithmetic rates, table build time and dense ``rref``.

They run only in a traced run, after the traced workload, never inside the
timed workloads.  Operands come from the run's seed.  Every timing is scaled
to the nominal machine speed, as the workloads' are (see ``pace``).
"""

from __future__ import annotations

import random
import statistics

from pace import Pace
from ubcode.finite_field import Field, GF
from ubcode.linalg import Matrix, rref

PROBE_FIELDS = (2, 256, 65536, 25)
OPS_PER_PROBE = 200_000
RREF_SIZES = (32, 64, 128)
RREF_FIELD = 256
REPEATS = 3


def _loop(op, xs, ys) -> None:
    for x, y in zip(xs, ys):
        op(x, y)


def run_probes(seed: int) -> dict[str, float]:
    pace = Pace()
    out: dict[str, float] = {}
    for q in PROBE_FIELDS:
        rng = random.Random(seed * 65537 + q)
        field = GF(q)
        xs = [rng.randrange(q) for _ in range(OPS_PER_PROBE)]
        ys = [rng.randrange(q) for _ in range(OPS_PER_PROBE)]
        for name, op in (("mul", field.mul), ("add", field.add)):
            seconds = statistics.median(pace.timed(_loop, op, xs, ys) for _ in range(REPEATS))
            out[f"finite_field.{name}_mops.q{q}"] = OPS_PER_PROBE / seconds / 1e6

    out["finite_field.table_build_s.q65536"] = statistics.median(
        pace.timed(Field, 65536) for _ in range(REPEATS)
    )

    field = GF(RREF_FIELD)
    for n in RREF_SIZES:
        rng = random.Random(seed * 65537 + n)
        m = Matrix(field, n, n, [[rng.randrange(RREF_FIELD) for _ in range(n)] for _ in range(n)])
        seconds = statistics.median(pace.timed(rref, m) for _ in range(REPEATS))
        out[f"linalg.rref_ms.n{n}.q{RREF_FIELD}"] = seconds * 1e3
    return out
