import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubcode.code_model import (
    InvalidParamsError,
    bandwidth_optimal_profile,
    bounds,
    code_from_json,
    code_to_json,
    redundancy,
    verify_mds,
)
from ubcode.construct import (
    build_mrmub,
    build_mub,
    default_field,
    fig1b,
    systematic_mds_generator,
)
from ubcode.finite_field import GF, Field
from ubcode.linalg import InconsistentSystemError, Matrix, UnderdeterminedSystemError
from ubcode.cluster import (
    Cluster,
    ClusterStateError,
    NodeOutOfRangeError,
    RepairMismatchError,
    TransferLog,
)
from ubcode.transform import iterate_transform


# -- init ------------------------------------------------------------------------


def test_init_zero_data_zero_parities(fig1b_code):
    cluster = Cluster(fig1b_code, data=[[0, 0]] * 4)
    assert all(all(v == 0 for v in col) for col in cluster.columns)
    assert cluster.audit().ok


def test_init_seeded_is_deterministic(fig1b_code):
    a = Cluster(fig1b_code, seed=123)
    b = Cluster(fig1b_code, seed=123)
    assert a.columns == b.columns and a.truth == b.truth
    c = Cluster(fig1b_code, seed=124)
    assert c.columns != a.columns


def test_init_matches_grid(fig1b_code):
    # With basis data the stored columns equal the worked-example grid rows.
    data = [[1, 0], [0, 0], [0, 0], [0, 0]]
    cluster = Cluster(fig1b_code, data=data)
    # x_{1,1}=1: appears verbatim in node 0 and inside two parities
    assert cluster.columns[0] == [1, 0, 0, 0]
    assert cluster.columns[1] == [0, 0, 1, 0]   # x11+x42 row
    assert cluster.columns[3] == [0, 0, 0, 1]   # x11+x12+x22 row


def test_init_validates_shape(fig1b_code):
    with pytest.raises(Exception):
        Cluster(fig1b_code, data=[[0, 0]] * 3)


def misshapen_fills(code):
    """Data fills that miss the code's data profile by one node or one symbol."""
    fill = [[0] * mi for mi in code.m]
    longest = max(range(code.n), key=lambda j: code.m[j])
    short = [x[:-1] if j == longest else x for j, x in enumerate(fill)]
    long = [x + [0] if j == 0 else x for j, x in enumerate(fill)]
    return [fill[:-1], fill + [[]], short, long]


@pytest.mark.parametrize("make", [
    lambda: build_mub(4, 2, [4, 2, 2, 0]),
    lambda: code_from_json(code_to_json(build_mrmub(5, 3, 3))),
    lambda: iterate_transform(build_mrmub(4, 2, 2, field=GF(8)), 2),
], ids=["built", "loaded", "transformed"])
def test_misshapen_data_fill_is_invalid_params(make):
    code = make()
    for data in misshapen_fills(code):
        with pytest.raises(InvalidParamsError, match="data profile"):
            code.encode(data)
        with pytest.raises(InvalidParamsError, match="data profile"):
            Cluster(code, data=data)
    # A well-shaped fill holding a non-element is a ValueError.
    q = code.field.q
    for bad in (-1, q, True):
        data = [[0] * mi for mi in code.m]
        data[0][-1] = bad
        with pytest.raises(ValueError, match=rf"^{bad} is not an element of GF\({q}\)$"):
            code.encode(data)
        with pytest.raises(ValueError, match=rf"^{bad} is not an element of GF\({q}\)$"):
            Cluster(code, data=data)


def test_init_and_update_validate_symbols():
    code = build_mrmub(4, 2, 2)  # over GF(8)
    with pytest.raises(ValueError, match="not an element of GF"):
        Cluster(code, data=[[0, 0], [0, 8], [0, 0], [0, 0]])
    cluster = Cluster(code, seed=1)
    before = [col[:] for col in cluster.columns]
    with pytest.raises(ValueError, match="not an element of GF"):
        cluster.apply_update(1, [3, 99999])
    with pytest.raises(ValueError, match="not an element of GF"):
        cluster.apply_update(1, [-1, 0])
    assert cluster.columns == before and cluster.audit().ok


# -- update ---------------------------------------------------------------------------


def test_update_fig1b_sends_one_symbol_per_edge(fig1b_code):
    cluster = Cluster(fig1b_code, seed=1)
    log = cluster.apply_update(0, [1, 1])
    edges = {(r.src, r.dst): r.count for r in log.records}
    assert edges == {(0, 1): 1, (0, 2): 1, (0, 3): 1}
    assert log.total() == 3
    assert cluster.audit().ok


def test_update_fig3_profile(fig3_code):
    cluster = Cluster(fig3_code, seed=2)
    log = cluster.apply_update(0, [1, 0, 1, 0])
    edges = {(r.src, r.dst): r.count for r in log.records}
    assert edges == {(0, 1): 2, (0, 2): 2, (0, 3): 2}
    assert log.total() == 6
    # the dataless node has nothing to send
    log = cluster.apply_update(3, [])
    assert log.total() == 0
    assert cluster.audit().ok


def test_update_charges_by_rank_not_value(fig1b_code):
    cluster = Cluster(fig1b_code, seed=3)
    same = list(cluster.truth[1])
    log = cluster.apply_update(1, same)  # zero delta
    assert log.total() == 3
    assert cluster.audit().ok


def test_update_wrong_length_rejected(fig1b_code):
    cluster = Cluster(fig1b_code, seed=4)
    with pytest.raises(Exception):
        cluster.apply_update(0, [1])
    with pytest.raises(NodeOutOfRangeError):
        cluster.apply_update(7, [0, 0])


def test_thousand_updates_stay_consistent(fig1b_code):
    # apply_update re-checks columns == encode(truth) after every call.
    cluster = Cluster(fig1b_code, seed=5)
    rng = random.Random(6)
    for t in range(1000):
        node = rng.randrange(4)
        cluster.apply_update(node, [rng.randrange(2) for _ in range(2)])
    assert cluster.audit().ok


def test_round_robin_mean_equals_theory(mrmub_codes, mub_codes, fig1b_code, fig3_code):
    cases = [(fig1b_code, [2] * 4), (fig3_code, [4, 2, 2, 0])]
    cases += [(b, [m] * n) for n, k, m, b in mrmub_codes]
    cases += [(b, m) for n, k, m, b in mub_codes]
    for built, m_vec in cases:
        cluster = Cluster(built, seed=8)
        result = cluster.run_workload(updates=built.n, repairs=0, seed=9)
        rep = bounds(built.n, built.k, m_vec)
        assert result["mean_update_symbols"] == rep.min_update_bandwidth
        assert result["audit_ok"]


# -- repair ----------------------------------------------------------------------------


@st.composite
def mub_shapes(draw):
    """Random (n, k, m) with k | m_i and some data, small enough that every
    erasure pattern can be decoded."""
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, n - 1))
    shares = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    if not any(shares):
        shares[draw(st.integers(0, n - 1))] = 1
    return n, k, [k * s for s in shares]


@settings(max_examples=80, deadline=None)
@given(mub_shapes(), st.integers(0, 2**16))
def test_write_path_property_sweep(shape, seed):
    # Per-edge widths are at most (n-1)*2 = 10 assembly columns, so GF(25)
    # and GF(27) always have enough evaluation points next to the default
    # binary field.
    n, k, m = shape
    rep = bounds(n, k, m)
    for field in (None, GF(25), GF(27)):
        code = build_mub(n, k, m, field=field)
        cluster = Cluster(code, seed=seed)
        rng = random.Random(seed)
        shipped = [[0] * n for _ in range(n)]
        for node in range(n):
            fresh = [rng.randrange(code.field.q) for _ in range(m[node])]
            for rec in cluster.apply_update(node, fresh).records:
                shipped[rec.src][rec.dst] += rec.count
        assert tuple(map(tuple, shipped)) == rep.bandwidth_assignment
        assert Fraction(sum(map(sum, shipped)), n) == rep.min_update_bandwidth
        assert cluster.audit().ok
        cols = code.encode(cluster.truth)
        for size in range(1, n - k + 1):
            for erased in combinations(range(n), size):
                known = {j: cols[j] for j in range(n) if j not in erased}
                assert code.decode_columns(known) == cols, (field, erased)
        for node in range(n):
            helpers = [j for j in range(n) if j != node][:k]
            log = cluster.fail_and_repair(node)  # raises unless bitwise equal
            assert cluster.columns[node] == cols[node]
            assert log.total() == sum(code.col_lens[j] for j in helpers), (field, node)


# Largest per-node data count (k * share * 2^rounds) the sweep below draws.
SWEEP_NODE_DATA = 48


@st.composite
def mrmub_draws(draw):
    """(n, k, share, q, perms, rounds): build_mrmub(n, k, k * share) with
    share in {1, 2, 3}, over the default binary field or a prime field
    GF(7), GF(11) or GF(13) that holds the (n-1) * share assembly points.
    With perms, the generator and the assembly are column permutations of
    the systematic defaults.  A k = n-2 code takes 0..ceil(n/2) pairing
    rounds, up to SWEEP_NODE_DATA data symbols per node."""
    n = draw(st.integers(3, 6))
    k = draw(st.integers(1, n - 1))
    q = draw(st.sampled_from([None, 7, 11, 13]))
    share = draw(st.integers(1, 3 if q is None else min(3, q // (n - 1))))
    perms = None
    if draw(st.booleans()):
        perms = (draw(st.permutations(range(n - 1))),
                 draw(st.permutations(range((n - 1) * share))))
    rounds = 0
    if k == n - 2:
        most = max(r for r in range((n + 1) // 2 + 1) if k * share << r <= SWEEP_NODE_DATA)
        rounds = draw(st.integers(0, most))
    return n, k, share, q, perms, rounds


@settings(max_examples=25, deadline=None)
@given(mrmub_draws(), st.integers(0, 2**16))
def test_mrmub_property_sweep(shape, seed):
    # The built code (a permuted default stays MDS) and its transform sit at
    # the redundancy and update-bandwidth optima of bounds() at their own
    # (doubled) parameters; every decode of up to n-k erasures returns the
    # codeword, and every repair is bitwise (the cluster raises otherwise)
    # at (n-1) * alpha / 2 symbols for a node paired in any round and k full
    # columns for any other node.
    n, k, share, q, perms, rounds = shape
    m = k * share
    field = default_field(n, k, [m] * n) if q is None else GF(q)
    generator = assembly = None
    if perms is not None:
        p = bandwidth_optimal_profile(n, k, [m] * n)[0]
        generator = systematic_mds_generator(field, k, n - 1).take_cols(perms[0])
        assembly = systematic_mds_generator(field, p, (n - 1) * share).take_cols(perms[1])
    root = build_mrmub(n, k, m, field=field, base_generator=generator, assembly=assembly)
    assert verify_mds(root).is_mds
    code = iterate_transform(root, rounds)
    rep = bounds(n, k, code.m)
    assert redundancy(code) == rep.min_redundancy
    cluster = Cluster(code, seed=seed)
    rng = random.Random(seed)
    shipped = 0
    for node in range(n):
        fresh = [rng.randrange(field.q) for _ in range(code.m[node])]
        shipped += cluster.apply_update(node, fresh).total()
    assert Fraction(shipped, n) == rep.min_update_bandwidth
    cols = [list(col) for col in cluster.columns]
    for size in range(1, n - k + 1):
        for erased in combinations(range(n), size):
            known = {j: cols[j] for j in range(n) if j not in erased}
            assert code.decode_columns(known) == cols, erased
    alpha = code.col_lens[0]
    paired = {j for pair in getattr(code, "pairs", []) for j in pair}
    for node in range(n):
        want = (n - 1) * alpha // 2 if node in paired else k * alpha
        assert cluster.fail_and_repair(node).total() == want, node
    assert cluster.audit().ok


def test_scheduled_repair_counts(fig1b_code):
    cluster = Cluster(fig1b_code, seed=10)
    for node in range(4):
        log = cluster.fail_and_repair(node)
        assert log.total() == 6
        assert all(r.dst == node and r.op == "repair" for r in log.records)
    assert cluster.audit().ok


@pytest.mark.parametrize(
    "edit",
    [lambda plan: plan[::-1], lambda plan: plan[0::2] + plan[1::2]],
    ids=["reversed", "interleaved"],
)
def test_scheduled_repair_reads_in_any_plan_order(fig1b_code, edit):
    code = fig1b()
    code.repair_schedule = {node: edit(plan) for node, plan in code.repair_schedule.items()}
    ref, cluster = Cluster(fig1b_code, seed=10), Cluster(code, seed=10)
    for node in range(4):
        lost = cluster.columns[node]
        log = cluster.fail_and_repair(node)  # raises unless bitwise equal
        assert cluster.columns[node] == lost
        assert log.total() == 6
        assert log.lines() == ref.fail_and_repair(node).lines()


@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda plan: plan[1:], InconsistentSystemError),  # no longer spans the column
        (lambda plan: plan + plan[:1], UnderdeterminedSystemError),  # dependent reads
    ],
    ids=["dropped-read", "duplicated-read"],
)
def test_bad_repair_plan_fails_loudly(edit, error):
    code = fig1b()
    code.repair_schedule = {node: edit(plan) for node, plan in code.repair_schedule.items()}
    cluster = Cluster(code, seed=10)
    for node in range(4):
        with pytest.raises(error):
            cluster.fail_and_repair(node)
    assert cluster.audit().ok


def test_naive_repair_downloads_k_full_columns():
    built = build_mrmub(4, 2, 2)  # no schedule registered
    cluster = Cluster(built, seed=11)
    log = cluster.fail_and_repair(0)
    assert log.total() == 8  # two full 4-symbol columns
    srcs = sorted({r.src for r in log.records})
    assert srcs == [1, 2]


def test_repair_every_node_every_fixture(mrmub_codes, mub_codes):
    for *_, built in mrmub_codes + mub_codes:
        cluster = Cluster(built, seed=12)
        for node in range(built.n):
            cluster.fail_and_repair(node)
        assert cluster.audit().ok


def test_repair_restores_after_updates(fig3_code):
    cluster = Cluster(fig3_code, seed=13)
    rng = random.Random(14)
    for t in range(10):
        node = t % 4
        cluster.apply_update(node, [rng.randrange(2) for _ in range(cluster.code.m[node])])
        cluster.fail_and_repair((node + 1) % 4)
    assert cluster.audit().ok


# -- audit -----------------------------------------------------------------------------


def test_audit_detects_corruption(fig1b_code):
    cluster = Cluster(fig1b_code, seed=15)
    cluster.columns[2][3] ^= 1  # flip one parity symbol out-of-band
    result = cluster.audit()
    assert not result.ok
    assert result.location == (2, 3)


@pytest.mark.parametrize(
    "make",
    [lambda: build_mrmub(4, 2, 2), lambda: iterate_transform(build_mrmub(4, 2, 2, field=GF(8)), 2)],
    ids=["flat", "transformed"],
)
def test_audit_reports_the_first_mismatch(make):
    # The audit skips equal columns whole; with rows of two nodes corrupted
    # it still reports the lower (node, row), though the higher node's row
    # index is the lower one.
    cluster = Cluster(make(), seed=15)
    last = cluster.code.col_lens[1] - 1
    want = cluster.columns[1][last]
    cluster.columns[3][0] ^= 1
    cluster.columns[1][last] ^= 1
    result = cluster.audit()
    assert (result.ok, result.location) == (False, (1, last))
    assert result.detail == f"node 1 row {last}: {want ^ 1} != {want}"


def test_update_after_tampered_parity_raises():
    code = build_mrmub(4, 2, 2)
    cluster = Cluster(code, seed=15)
    cluster.columns[2][code.parity_rows(2)[0]] ^= 1
    with pytest.raises(ClusterStateError, match=r"^after update: node 2 row 2: "):
        cluster.apply_update(0, [1, 1])


def test_update_through_a_tampered_factor_raises():
    # The audit encodes through the parity columns, never through the factor
    # grids an update ships, so a receiver factor that no longer matches the
    # code shows on the first update whose payload crosses that edge.
    code = build_mrmub(4, 2, 2)
    grid_b = code.factors[1]
    grid_b[0][1] = Matrix.from_rows(code.field, [[v ^ 1 for v in row]
                                                 for row in grid_b[0][1].data])
    cluster = Cluster(code, seed=15)
    with pytest.raises(ClusterStateError, match=r"^after update: node 1 row "):
        for fill in ([1, 2], [2, 1]):  # node 0's first symbol changes at least once
            cluster.apply_update(0, fill)


@pytest.mark.parametrize(
    "make, calls",
    [(lambda: build_mrmub(10, 6, 12), 12),
     (lambda: iterate_transform(build_mrmub(6, 4, 4), 3), 32)],
    ids=["mrmub-10-6-12", "transformed-6-4-r3"],
)
def test_each_update_symbol_is_validated_once(monkeypatch, make, calls):
    # apply_update checks the m_i new symbols; the audit re-encodes the
    # ground truth, every symbol of which was checked where it came in.
    cluster = Cluster(make(), seed=3)
    validate, counted = Field.validate, [0]

    def counting(self, a):
        counted[0] += 1
        return validate(self, a)

    monkeypatch.setattr(Field, "validate", counting)
    cluster.apply_update(1, [(v + 1) % cluster.field.q for v in cluster.truth[1]])
    assert counted[0] == calls


def test_repair_that_alters_the_column_is_refused():
    code = build_mrmub(4, 2, 2)
    cluster = Cluster(code, seed=15)
    before = [list(col) for col in cluster.columns]
    code.repair = lambda failed, fetch, helpers=None: [v ^ 1 for v in before[failed]]
    with pytest.raises(RepairMismatchError, match="repair of node 1 altered the column"):
        cluster.fail_and_repair(1)
    assert cluster.columns == before


def test_repair_that_reads_the_failed_node_is_refused():
    code = build_mrmub(4, 2, 2)
    cluster = Cluster(code, seed=15)
    code.repair = lambda failed, fetch, helpers=None: fetch(failed, [0])
    with pytest.raises(NodeOutOfRangeError, match="cannot download from failed node 3"):
        cluster.fail_and_repair(3)


def test_workload_hundred_updates_three_repairs(fig3_code):
    cluster = Cluster(fig3_code, seed=16)
    result = cluster.run_workload(updates=100, repairs=3, seed=17)
    assert result["audit_ok"]
    assert result["mean_update_symbols"] == Fraction(3)
    assert len(result["repair_downloads"]) == 3


def test_workload_deterministic(fig1b_code):
    r1 = Cluster(fig1b_code, seed=18).run_workload(20, 2, seed=19)
    r2 = Cluster(fig1b_code, seed=18).run_workload(20, 2, seed=19)
    assert r1 == r2


# -- log format ----------------------------------------------------------------------


def test_transfer_log_lines(fig1b_code):
    cluster = Cluster(fig1b_code, seed=20)
    cluster.apply_update(0, [1, 0])
    cluster.fail_and_repair(1)
    lines = cluster.log.lines()
    assert lines[:3] == ["update,0,1,1", "update,0,2,1", "update,0,3,1"]
    assert all(len(line.split(",")) == 4 for line in lines)
    repair_lines = [ln for ln in lines if ln.startswith("repair")]
    assert sum(int(ln.split(",")[3]) for ln in repair_lines) == 6


def test_transfer_log_rejects_negative():
    log = TransferLog()
    with pytest.raises(ValueError):
        log.add("update", 0, 1, -1)
