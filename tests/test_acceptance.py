"""Acceptance gate: one test per criterion, exact tolerances throughout.

Every comparison is integer or exact-rational equality; nothing here is
tolerance-calibrated.  Each test prints one PASS line (visible with -s/-rA)
after its assertions hold.
"""

import itertools
import random
from fractions import Fraction
from pathlib import Path

from ubcode.finite_field import GF
from ubcode.linalg import Matrix, column_weights, full_rank_decompose, rank
from ubcode.code_model import (
    bounds,
    feasible,
    redundancy,
    update_bandwidth,
    update_complexity,
    verify_mds,
)
from ubcode.construct import build_mrmub
from ubcode.transform import iterate_transform, pair_transform
from ubcode.cluster import Cluster
from ubcode.cli import run as cli_run

from conftest import random_fill

GOLDEN = Path(__file__).parent / "golden"


def ok(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num} PASS: {text}")


# -- criterion 1: closed-form bound identities -------------------------------------------


def test_c1_bounds_identities():
    rep = bounds(4, 2, [4, 2, 2, 0])
    assert rep.water_level == 4
    assert rep.min_redundancy == 8
    assert rep.min_update_bandwidth == Fraction(3)
    assert rep.min_redundancy_at_min_bandwidth == 11
    rep2 = bounds(4, 2, [2, 2, 2, 2])
    assert rep2.min_update_bandwidth == Fraction(3)
    assert rep2.min_redundancy == 8
    assert rep2.min_redundancy_at_min_bandwidth == 8
    ok(1, "bounds(4,2,[4,2,2,0]) = (4, 8, 3, 11); bounds(4,2,[2,2,2,2]) = (3, 8, 8)")


# -- criterion 2: fixture reproduction, byte-exact ----------------------------------------


def _cells(code, j):
    """Column j as frozensets of data-symbol indices (coefficient vectors)."""
    maps = code.column_maps()
    out = []
    for r in range(code.col_lens[j]):
        row = maps[j].data[r]
        out.append(frozenset(c for c, v in enumerate(row) if v))
    return out


def test_c2_fixture_reproduction(fig1b_code, fig3_code, capsys):
    # coefficient vectors of all 16 cells of the balanced worked example;
    # symbol indices: node i symbol l -> 2*i + l
    grid = [_cells(fig1b_code, j) for j in range(4)]
    expect = [
        [{0}, {1}, {5, 6}, {2, 3, 5}],
        [{2}, {3}, {0, 7}, {4, 5, 7}],
        [{4}, {5}, {1, 2}, {1, 6, 7}],
        [{6}, {7}, {3, 4}, {0, 1, 3}],
    ]
    assert grid == [[frozenset(c) for c in col] for col in expect]
    # irregular worked example; symbol indices: node offsets (0, 4, 6, 8)
    grid3 = [_cells(fig3_code, j) for j in range(4)]
    expect3 = [
        [{0}, {1}, {2}, {3}, {4, 5}, {7}],
        [{4}, {5}, {0}, {1}, {6, 7}],
        [{6}, {7}, {2}, {3}, {4}],
        [{0, 2, 6}, {1, 3, 6}, {5, 6}],
    ]
    assert grid3 == [[frozenset(c) for c in col] for col in expect3]
    # intermediate tables, cyclic placement
    assert fig1b_code.intermediates(1, [1, 0]) == [(2, [1]), (3, [0]), (0, [1])]
    assert fig3_code.intermediates(0, [1, 0, 1, 0]) == [
        (1, [1, 0]), (2, [1, 0]), (3, [0, 0]),
    ]
    # demo output byte-exact against the frozen golden files
    for which in ("fig1b", "fig3"):
        assert cli_run(["demo", which]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / f"demo_{which}.txt").read_text(), which
    ok(2, "demo fig1b / demo fig3 reproduce the published grids byte-exactly")


# -- criterion 3: measured update bandwidth equals theory ----------------------------------


def test_c3_measured_update_bandwidth(fig1b_code, fig3_code, mrmub_codes, mub_codes):
    r = Cluster(fig1b_code, seed=1).run_workload(updates=4, repairs=0, seed=2)
    assert r["mean_update_symbols"] == Fraction(3)
    r = Cluster(fig3_code, seed=3).run_workload(updates=4, repairs=0, seed=4)
    assert r["mean_update_symbols"] == Fraction(3)
    cases = [(n, k, [m] * n, b) for n, k, m, b in mrmub_codes]
    cases += [(n, k, m, b) for n, k, m, b in mub_codes]
    for n, k, m_vec, built in cases:
        r = Cluster(built, seed=5).run_workload(updates=n, repairs=0, seed=6)
        assert r["mean_update_symbols"] == bounds(n, k, m_vec).min_update_bandwidth, (n, k)
    ok(3, f"round-robin means equal the bandwidth optimum on {2 + len(cases)} codes")


# -- criterion 4: brute-force MDS with erasure decoding ------------------------------------


def _exhaustive_erasure_check(code, fills=20, seed=0):
    rng = random.Random(seed)
    n, k = code.n, code.k
    patterns = []
    for size in range(1, n - k + 1):
        patterns.extend(itertools.combinations(range(n), size))
    for _ in range(fills):
        data = random_fill(code, rng)
        cols = code.encode(data)
        for erased in patterns:
            known = {j: cols[j] for j in range(n) if j not in erased}
            assert code.decode_columns(known) == cols, erased
    report = verify_mds(code)
    assert report.is_mds
    assert report.insufficient_subset is not None


def test_c4_mds_brute_force(mrmub_codes, mub_codes):
    built = [b for n, k, m, b in mrmub_codes if (b.m[0] or 0) <= 4]
    built += [b for n, k, m, b in mub_codes if max(m) <= 4]
    base = build_mrmub(4, 2, 2)
    transformed = [
        pair_transform(base, (2, 3)),
        iterate_transform(base, 2),
        pair_transform(build_mrmub(5, 3, 3), (3, 4)),
    ]
    for code in built + transformed:
        _exhaustive_erasure_check(code)
    ok(4, f"{len(built)} built + {len(transformed)} transformed codes decode every "
          "erasure pattern over 20 fills and certify a k-1 gap")


# -- criterion 5: feasibility oracle on the two published instances --------------------------


def test_c5_feasibility_oracle():
    g6 = [[0] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(6):
            if i != j:
                g6[i][j] = 1 if j in ((i + 1) % 6, (i + 2) % 6) else 2
    assert feasible(6, 3, [4] * 6, [4] * 6, g6).feasible

    rep = bounds(9, 6, [2] * 9)
    res = feasible(9, 6, [2] * 9, [1] * 9, rep.bandwidth_assignment)
    assert not res.feasible
    assert res.witness is not None and len(res.witness) == 3
    survivors = [j for j in range(9) if j not in res.witness]
    capacity = sum(
        min(1, sum(rep.bandwidth_assignment[i][j] for i in res.witness))
        for j in survivors
    )
    assert sum(2 for _ in res.witness) > capacity
    ok(5, f"(6,3) cyclic instance feasible; (9,6) instance infeasible, witness {res.witness}")


# -- criterion 6: update-complexity bound and weight structure -------------------------------


def test_c6_update_complexity(fig1b_code, mrmub_codes):
    assert update_complexity(fig1b_code.code) == Fraction(5, 2)
    checked = 0
    for n, k, m, built in mrmub_codes:
        if k > n - 2:
            continue  # at k = n-1 these codes reach complexity 1, below the bound
        code = built.code
        assert update_complexity(code) >= Fraction(n - k) + Fraction(k - 1, k), (n, k)
        for i in range(n):
            for sym in range(m):
                spread = sum(
                    1
                    for j in range(n)
                    if j != i
                    and any(
                        code.construction[i][j].data[r][sym]
                        for r in range(code.construction[i][j].rows)
                    )
                )
                assert spread >= n - k
        heavy_total = 0
        for j in range(n):
            heavy_j = sum(
                sum(1 for w in column_weights(code.construction[i][j]) if w >= 2)
                for i in range(n)
                if i != j
            )
            assert heavy_j >= (k - 1) * m // k
            heavy_total += heavy_j
        assert heavy_total >= (k - 1) * m * n // k
        checked += 1
    assert checked >= 6
    ok(6, f"fig1b complexity = 5/2; bound and weight counts hold on {checked} codes")


# -- criterion 7: repair bandwidth, exact counts, bitwise restoration -------------------------


def test_c7_repair_bandwidth(fig1b_code):
    cluster = Cluster(fig1b_code, seed=7)
    for node in range(4):
        assert cluster.fail_and_repair(node).total() == 6
    assert cluster.audit().ok

    base = build_mrmub(4, 2, 2)
    single = pair_transform(base, (2, 3))
    cs = Cluster(single, seed=8)
    assert cs.fail_and_repair(2).total() == 12
    assert cs.fail_and_repair(3).total() == 12
    assert cs.audit().ok

    full = iterate_transform(base, 2)
    cf = Cluster(full, seed=9)
    counts = [cf.fail_and_repair(node).total() for node in range(4)]
    assert counts == [24, 24, 24, 24]
    assert cf.audit().ok
    ok(7, "fig1b: 6 per node; paired nodes: 12; fully iterated: 24 = (n-1)a''/(n-k)")


# -- criterion 8: transformation preserves update-bandwidth optimality ------------------------


def test_c8_transform_preserves_optimality():
    base = build_mrmub(4, 2, 2)
    single = pair_transform(base, (2, 3))
    grid, average = update_bandwidth(single.as_irregular_code())
    assert average == Fraction(6)
    assert average == bounds(4, 2, [4, 4, 4, 4]).min_update_bandwidth
    for i in range(4):
        for j in range(4):
            if i != j:
                assert grid[i][j] == 2
    assert redundancy(single.as_irregular_code()) == bounds(4, 2, [4] * 4).min_redundancy
    ok(8, "transformed (4,2): every per-edge count 2, average 6 = bandwidth optimum")


# -- criterion 9: property suites ------------------------------------------------------------


def test_c9_property_suites(fig1b_code):
    # field axioms, exhaustive for q <= 16
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        f = GF(q)
        for a, b in itertools.product(range(q), repeat=2):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            if a:
                assert f.mul(a, f.inv(a)) == 1
        for a, b, c in itertools.product(range(q), repeat=3):
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))

    # full-rank decomposition identity on 1000 random matrices
    rng = random.Random(42)
    fields = [GF(2), GF(3), GF(4), GF(5), GF(8)]
    for trial in range(1000):
        f = fields[trial % len(fields)]
        rows, cols = rng.randrange(6), rng.randrange(6)
        m = Matrix(
            f, rows, cols,
            [[rng.randrange(f.q) for _ in range(cols)] for _ in range(rows)],
        )
        tall, wide = full_rank_decompose(m)
        assert tall @ wide == m
        assert tall.cols == wide.rows == rank(m)

    # update / re-encode equivalence over 1000 random updates (the cluster
    # re-checks columns == encode(truth) after every update)
    cluster = Cluster(fig1b_code, seed=10)
    for t in range(1000):
        node = t % 4
        cluster.apply_update(node, [rng.randrange(2) for _ in range(2)])
    assert cluster.audit().ok

    # seeded 100-update / 3-repair workload audit
    workload = Cluster(fig1b_code, seed=11).run_workload(100, 3, seed=12)
    assert workload["audit_ok"]
    ok(9, "field axioms (q<=16), 1000 decompositions, 1000 updates, workload audit")
