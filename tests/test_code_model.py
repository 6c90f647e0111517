import json
import random
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubcode.cluster import Cluster
from ubcode.construct import build_mrmub, build_mub, fig1b, fig3
from ubcode.finite_field import GF
from ubcode.linalg import (
    InconsistentSystemError,
    Matrix,
    ShapeMismatchError,
    UnderdeterminedSystemError,
    rank,
    solve,
    vstack,
)
from ubcode.cli import load_spec
from ubcode.transform import (
    InvalidPairError, TransformedCode, iterate_transform, pair_transform, rotation_pairs,
)
from ubcode.code_model import (
    DivisibilityError,
    EnumerationTooLargeError,
    InvalidParamsError,
    IrregularArrayCode,
    MdsReport,
    NodeOutOfRangeError,
    TooManyErasuresError,
    bandwidth_optimal_profile,
    bounds,
    code_from_json,
    code_to_json,
    feasible,
    redundancy,
    solve_data_from_columns,
    update_bandwidth,
    update_complexity,
    verify_mds,
    zero_diagonal,
)

from conftest import grid_encode, random_fill


def pcode_fixture():
    """The published 4x4 comparison code: update complexity 2, bandwidth 4.

    Each node's data lands, identically, in the parities of exactly two
    other nodes; hand-transcribed from its grid.
    """
    f = GF(2)
    eye = Matrix.identity(f, 2)
    zero = Matrix.zeros(f, 2, 2)
    # destination pairs per source: parity of node j sums data of nodes src1, src2
    contributions = {0: (2, 3), 1: (0, 2), 2: (1, 3), 3: (0, 1)}
    grid = [[zero for _ in range(4)] for _ in range(4)]
    for dest, (s1, s2) in contributions.items():
        grid[s1][dest] = eye
        grid[s2][dest] = eye
    return IrregularArrayCode(2, grid)


# -- bounds -------------------------------------------------------------------


def test_bounds_irregular_example():
    rep = bounds(4, 2, [4, 2, 2, 0])
    assert rep.water_level == 4
    assert rep.min_redundancy == 8
    assert rep.min_update_bandwidth == Fraction(3)
    assert rep.min_redundancy_at_min_bandwidth == 11
    assert rep.bandwidth_profile == (2, 3, 3, 3)
    assert sum(rep.redundancy_profile) == 8


def test_bounds_balanced_example():
    rep = bounds(4, 2, [2, 2, 2, 2])
    assert rep.min_update_bandwidth == Fraction(3)
    assert rep.min_redundancy == 8
    assert rep.min_redundancy_at_min_bandwidth == 8
    assert rep.bandwidth_profile == (2, 2, 2, 2)
    assert rep.redundancy_profile == (2, 2, 2, 2)


def test_bounds_threshold_n_minus_1():
    for n, m in [(3, [5, 5, 5]), (4, [4, 4, 4, 4]), (5, [3, 1, 4, 1, 5])]:
        rep = bounds(n, n - 1, m)
        assert rep.min_update_bandwidth == Fraction(sum(m), n)
        assert rep.min_redundancy_at_min_bandwidth == rep.min_redundancy


def test_bounds_update_complexity_bound():
    assert bounds(4, 2, [2] * 4).update_complexity_bound == Fraction(5, 2)
    assert bounds(6, 3, [3] * 6).update_complexity_bound == Fraction(3) + Fraction(2, 3)
    assert bounds(4, 1, [2] * 4).update_complexity_bound == Fraction(3)
    # At k = n-1 the bound does not hold (see
    # test_threshold_n_minus_1_complexity_counterexample), so none is given.
    assert bounds(4, 3, [3] * 4).update_complexity_bound is None


def test_bounds_assignment_collapses_under_divisibility():
    rep = bounds(5, 2, [4, 2, 2, 0, 2])
    for i in range(5):
        for j in range(5):
            if i != j:
                assert rep.bandwidth_assignment[i][j] == rep.m[i] // 2


def test_bounds_assignment_achieves_minimum():
    # Row sums must equal m_i + (n-k-1)*ceil(m_i/k), totalling n * gamma_min.
    for n, k, m in [(5, 3, [7, 5, 3, 2, 0]), (6, 4, [9, 9, 5, 5, 2, 1])]:
        rep = bounds(n, k, m)
        total = sum(sum(row) for row in rep.bandwidth_assignment)
        assert Fraction(total, n) == rep.min_update_bandwidth
        assert feasible(n, k, m, [sum(m)] * n, rep.bandwidth_assignment).feasible


def test_bounds_redundancy_profile_is_water_level_shaped():
    for n, k, m in [(4, 2, [4, 2, 2, 0]), (6, 3, [5, 4, 4, 3, 1, 0]), (5, 4, [4, 8, 0, 4, 4])]:
        rep = bounds(n, k, m)
        assert sum(rep.redundancy_profile) == rep.min_redundancy
        order = sorted(range(n), key=lambda i: (-m[i], i))
        for ranked, original in enumerate(order):
            cap = max(rep.water_level - m[original], 0)
            if ranked < n - k:
                assert rep.redundancy_profile[original] == cap
            else:
                assert rep.redundancy_profile[original] <= cap


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bounds_invariant_under_input_permutation(data):
    n = data.draw(st.integers(min_value=2, max_value=6))
    k = data.draw(st.integers(min_value=1, max_value=n - 1))
    m = data.draw(
        st.lists(st.integers(min_value=0, max_value=9), min_size=n, max_size=n)
    )
    if sum(m) == 0:
        m[0] = 1
    rep = bounds(n, k, m)
    perm = data.draw(st.permutations(range(n)))
    m2 = [m[perm[i]] for i in range(n)]
    rep2 = bounds(n, k, m2)
    assert rep2.water_level == rep.water_level
    assert rep2.min_redundancy == rep.min_redundancy
    assert rep2.min_update_bandwidth == rep.min_update_bandwidth
    assert rep2.min_redundancy_at_min_bandwidth == rep.min_redundancy_at_min_bandwidth
    assert sorted(rep2.redundancy_profile) == sorted(rep.redundancy_profile)
    if rep.bandwidth_profile is not None:
        assert sorted(rep2.bandwidth_profile) == sorted(rep.bandwidth_profile)
        if len(set(m)) == n:  # distinct sizes: profiles must map through perm
            assert all(
                rep2.bandwidth_profile[i] == rep.bandwidth_profile[perm[i]]
                for i in range(n)
            )


def test_bounds_invalid_params():
    with pytest.raises(InvalidParamsError):
        bounds(3, 3, [1, 1, 1])
    with pytest.raises(InvalidParamsError):
        bounds(3, 0, [1, 1, 1])
    with pytest.raises(InvalidParamsError):
        bounds(3, 2, [0, 0, 0])
    with pytest.raises(InvalidParamsError):
        bounds(3, 2, [1, 1])


@pytest.mark.parametrize(
    "call",
    [
        lambda: bounds(4, 2, [2.5, 2, 2, 2]),
        lambda: bounds(4, 2, ["2", 2, 2, 2]),
        lambda: bounds(4, 2, [True, 2, 2, 2]),
        lambda: bounds(4.0, 2, [2] * 4),
        lambda: bounds(4, 2.0, [2] * 4),
        lambda: bounds(4, True, [2] * 4),
        lambda: build_mub(4, 2, [2.0, 2, 2, 2]),
        lambda: build_mrmub(4, 2, 2.0),
        lambda: feasible(4, 2, [2.5, 2, 2, 2], [2] * 4, [[0, 1, 1, 1]] * 4),
        lambda: feasible(4, 2, [2] * 4, [True, 2, 2, 2], [[0, 1, 1, 1]] * 4),
        lambda: feasible(4, 2, [2] * 4, [2] * 4, [[0, True, 1, 1]] * 4),
        # The profile must be a list or tuple, and build_mrmub lets any n
        # reach build_mub's check.
        lambda: bounds(4, 2, 5),
        lambda: bounds(4, 2, None),
        lambda: build_mub(4, 2, 5),
        lambda: build_mrmub(4.0, 2, 2),
        lambda: build_mrmub("4", 2, 2),
        lambda: bandwidth_optimal_profile(4, 2, 5),
        lambda: feasible(4, 2, 5, [2] * 4, [[0, 1, 1, 1]] * 4),
    ],
    ids=["float-m", "str-m", "bool-m", "float-n", "float-k", "bool-k", "mub-float-m",
         "mrmub-float-m", "feasible-float-m", "feasible-bool-p", "feasible-bool-entry",
         "bounds-int-m", "bounds-none-m", "mub-int-m", "mrmub-float-n", "mrmub-str-n",
         "profile-int-m", "feasible-int-m"],
)
def test_dimensions_and_counts_must_be_ints(call):
    with pytest.raises(InvalidParamsError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: bandwidth_optimal_profile(4, 2, [3, 3, 3, 3]),
        lambda: build_mrmub(4, 2, 3),
        lambda: build_mub(4, 2, (3, 3, 3, 3)),
    ],
    ids=["profile", "mrmub", "mub"],
)
def test_divisibility_is_one_check_with_one_error(call):
    assert issubclass(DivisibilityError, InvalidParamsError)
    with pytest.raises(DivisibilityError, match=r"^k=2 must divide every entry of \(3, 3, 3, 3\)$"):
        call()


def test_bounds_at_k_n_minus_1_disagree_with_feasible_and_build_mub():
    # A known fault, pinned until bounds() is fixed: at k = n-1 the
    # reported bandwidth profile is the minimum-redundancy one, which the
    # cyclic bandwidth_assignment cannot support although another grid of
    # the same bandwidth can, and build_mub reaches the minimum update
    # bandwidth with more redundancy than min_redundancy_at_min_bandwidth.
    rep = bounds(3, 2, [2, 2, 0])
    assert (rep.bandwidth_profile, rep.min_redundancy_at_min_bandwidth) == ((0, 0, 2), 2)
    verdict = feasible(3, 2, rep.m, rep.bandwidth_profile, rep.bandwidth_assignment)
    assert (verdict.feasible, verdict.violated, verdict.witness) == (False, "capacity", (0,))
    grid = [[0, 0, 2], [0, 0, 2], [0, 0, 0]]
    assert feasible(3, 2, rep.m, rep.bandwidth_profile, grid).feasible
    assert Fraction(sum(map(sum, grid)), 3) == rep.min_update_bandwidth == Fraction(4, 3)
    for n, k, m, built_redundancy in [(3, 2, [2, 2, 0], 3), (4, 3, [6, 3, 3, 3], 7)]:
        rep, built = bounds(n, k, m), build_mub(n, k, m)
        assert update_bandwidth(built)[1] == rep.min_update_bandwidth
        assert redundancy(built) == built_redundancy == rep.min_redundancy_at_min_bandwidth + 1


def test_bandwidth_optimal_profile_requires_divisibility():
    with pytest.raises(InvalidParamsError):
        bandwidth_optimal_profile(4, 2, [3, 2, 2, 0])


# -- admissibility -----------------------------------------------------------------
#
# bounds() answers it: both optima are reachable at once (MR-MUB) exactly
# when min_redundancy_at_min_bandwidth == min_redundancy, the forced shape is
# (rep.m, rep.bandwidth_profile), and a None figure leaves it undetermined.


def test_admissible_balanced():
    rep = bounds(4, 2, [2, 2, 2, 2])
    assert rep.min_redundancy_at_min_bandwidth == rep.min_redundancy
    assert (rep.m, rep.bandwidth_profile) == ((2, 2, 2, 2), (2, 2, 2, 2))


def test_admissible_single_node():
    rep = bounds(5, 3, [6, 0, 0, 0, 0])
    assert rep.min_redundancy_at_min_bandwidth == rep.min_redundancy
    assert (rep.m, rep.bandwidth_profile) == ((6, 0, 0, 0, 0), (0, 2, 2, 2, 2))


def test_not_admissible_mixed_profile():
    rep = bounds(4, 2, [4, 2, 2, 0])
    assert (rep.min_redundancy_at_min_bandwidth, rep.min_redundancy) == (11, 8)


def test_admissible_edge_thresholds():
    rep = bounds(4, 1, [3, 1, 2, 5])
    assert rep.min_redundancy_at_min_bandwidth == rep.min_redundancy
    assert rep.bandwidth_profile == (8, 10, 9, 6)
    rep = bounds(4, 3, [3, 6, 3, 3])
    assert rep.min_redundancy_at_min_bandwidth == rep.min_redundancy
    assert sum(rep.bandwidth_profile) == rep.min_redundancy


def test_admissible_undetermined_without_divisibility():
    rep = bounds(5, 3, [4, 4, 4, 4, 4])
    assert rep.min_redundancy_at_min_bandwidth is None
    assert rep.bandwidth_profile is None


def test_admissibility_follows_the_theorem_across_divisible_profiles():
    # Every profile of multiples of k, m_i < 4k for n <= 5 and < 3k for n = 6.
    # For 1 < k < n-1 the parameters are MR-MUB exactly when the profile is
    # balanced or holds all its data on one node; k = 1 and k = n-1 always are.
    for n in range(2, 7):
        for k in range(1, n):
            for m in product(range(0, (4 if n <= 5 else 3) * k, k), repeat=n):
                if not any(m):
                    continue
                rep = bounds(n, k, m)
                assert sum(rep.redundancy_profile) == rep.min_redundancy
                assert sum(rep.bandwidth_profile) == rep.min_redundancy_at_min_bandwidth
                big_b = sum(m)
                if k == 1:
                    expect = tuple(big_b - mi for mi in m)
                elif k == n - 1:
                    expect = rep.redundancy_profile
                elif len(set(m)) == 1:
                    expect = ((n - k) * m[0] // k,) * n
                elif sum(1 for mi in m if mi) == 1:
                    expect = tuple(0 if mi else big_b // k for mi in m)
                else:
                    assert rep.min_redundancy_at_min_bandwidth > rep.min_redundancy, (n, k, m)
                    continue
                assert rep.min_redundancy_at_min_bandwidth == rep.min_redundancy, (n, k, m)
                assert (rep.m, rep.bandwidth_profile) == (m, expect), (n, k, m)


# -- feasibility --------------------------------------------------------------------


def cyclic_gamma_6_3():
    g = [[0] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(6):
            if i == j:
                continue
            g[i][j] = 1 if j in ((i + 1) % 6, (i + 2) % 6) else 2
    return g


def test_feasible_cyclic_six_node_instance():
    res = feasible(6, 3, [4] * 6, [4] * 6, cyclic_gamma_6_3())
    assert res.feasible


def test_infeasible_nine_node_instance():
    rep = bounds(9, 6, [2] * 9)
    res = feasible(9, 6, [2] * 9, [1] * 9, rep.bandwidth_assignment)
    assert not res.feasible
    assert res.witness is not None and len(res.witness) == 3
    # Re-check the witness by hand: capacity must fall short of erased data.
    erased = res.witness
    survivors = [j for j in range(9) if j not in erased]
    capacity = sum(
        min(1, sum(rep.bandwidth_assignment[i][j] for i in erased))
        for j in survivors
    )
    assert sum(2 for _ in erased) > capacity


def test_feasible_max_assignment_always_works():
    # Pairing every edge with max(m_i, p_j) symbols satisfies both conditions
    # whenever the parity profile itself is redundancy-feasible.
    n, k, m = 5, 2, [4, 2, 2, 0, 2]
    p = bounds(n, k, m).redundancy_profile
    g = [[0 if i == j else max(m[i], p[j]) for j in range(n)] for i in range(n)]
    assert feasible(n, k, m, p, g).feasible


def test_feasible_access_violation_witnessed():
    n, k = 4, 2
    g = [[0] * 4 for _ in range(4)]  # no bandwidth at all
    res = feasible(n, k, [2, 2, 2, 2], [2, 2, 2, 2], g)
    assert not res.feasible
    assert res.violated == "access"


@pytest.mark.parametrize(
    "p, grid",
    [
        ([1], [[0] * 4 for _ in range(4)]),
        ([-1] * 4, [[0] * 4 for _ in range(4)]),
        ([2] * 4, [[0] * 3 for _ in range(3)]),
        ([2] * 4, [[0] * 3 for _ in range(4)]),
        ([2] * 4, [[0, -5, 3, 3]] * 4),
        ([2] * 4, [[0, "3", 3, 3]] * 4),
        ([2] * 4, [[0, 1.0, 3, 3]] * 4),
        (5, [[0, 1, 1, 1]] * 4),
        ([2] * 4, None),
        ([2] * 4, [5] * 4),
    ],
    ids=["short-p", "negative-p", "3x3-grid", "4x3-grid", "negative-entry", "str-entry",
         "float-entry", "int-p", "no-grid", "int-rows"],
)
def test_feasible_rejects_a_misshapen_profile_or_grid(p, grid):
    with pytest.raises(InvalidParamsError):
        feasible(4, 2, [2] * 4, p, grid)


def test_feasible_enumeration_guard():
    with pytest.raises(EnumerationTooLargeError):
        feasible(50, 25, [1] * 50, [1] * 50, [[1] * 50 for _ in range(50)])


# -- code matrices are values -----------------------------------------------------------


def test_code_matrices_cannot_be_written():
    code = fig1b()
    for m in (code.construction[0][1], code.column_maps()[1]):
        with pytest.raises(TypeError):
            m.data[0][0] ^= 1
        with pytest.raises(TypeError):
            m.data[0] = [1] * m.cols


# -- metrics on concrete codes ---------------------------------------------------------


def test_pcode_metrics():
    code = pcode_fixture()
    grid, average = update_bandwidth(code)
    assert average == Fraction(4)
    for i in range(4):
        assert sorted(grid[i]) == [0, 0, 2, 2]
    assert update_complexity(code) == Fraction(2)
    assert redundancy(code) == 8
    assert verify_mds(code).is_mds
    # Optimal-complexity code is not bandwidth-optimal: 4 > 3.
    assert average > bounds(4, 2, [2] * 4).min_update_bandwidth


def test_redundancy_zero_parity_profile():
    f = GF(2)
    grid = [[Matrix.zeros(f, 0, 1) for _ in range(3)] for _ in range(3)]
    code = IrregularArrayCode(2, grid)
    assert redundancy(code) == 0


def test_update_bandwidth_zero_code():
    f = GF(2)
    zero = Matrix.zeros(f, 1, 1)
    grid = [[zero for _ in range(3)] for _ in range(3)]
    code = IrregularArrayCode(2, grid)
    _, average = update_bandwidth(code)
    assert average == 0
    assert update_complexity(code) == 0
    rep = verify_mds(code)
    assert not rep.is_mds


def test_update_complexity_weight_one_identity_blocks():
    # Every off-diagonal map an identity: each symbol touches n-1 parities.
    f = GF(3)
    n = 4
    eye = Matrix.identity(f, 2)
    zero = Matrix.zeros(f, 2, 2)
    grid = [[zero if i == j else eye for j in range(n)] for i in range(n)]
    code = IrregularArrayCode(2, grid)
    assert update_complexity(code) == Fraction(n - 1)


def test_factor_grids_come_only_from_the_construction(rng):
    built = build_mrmub(4, 2, 2)
    other = build_mrmub(4, 2, 2, assembly=[[1, 2, 3], [1, 3, 2]])
    with pytest.raises(TypeError):  # factors that contradict the construction
        IrregularArrayCode(built.k, built.construction, other.A, other.B)
    code = IrregularArrayCode(built.k, built.construction)
    for i, j in permutations(range(4), 2):
        assert code.B[i][j] @ code.A[i][j] == built.construction[i][j]
    data = random_fill(code, rng)
    assert code.encode(data) == built.encode(data)


def test_construction_grid_must_be_square():
    built = build_mrmub(4, 2, 2)
    with pytest.raises(InvalidParamsError, match="not a 4x4 grid"):
        IrregularArrayCode(2, [row[:3] for row in built.construction])


def test_construction_blocks_must_share_one_field():
    # A GF(8) grid with one GF(4) block would encode a wrong codeword.
    grid = [list(row) for row in build_mrmub(4, 2, 2, field=GF(8)).construction]
    grid[2][1] = build_mrmub(4, 2, 2, field=GF(4)).construction[2][1]
    with pytest.raises(InvalidParamsError, match=r"construction\[2\]\[1\] .* over GF\(4\)"):
        IrregularArrayCode(2, grid)


def test_from_factors_rejects_a_single_node():
    # With n = 1 the diagonal's only neighbour is itself, so no edge gives its shape.
    with pytest.raises(InvalidParamsError, match="n >= 2, got n=1"):
        IrregularArrayCode.from_factors(1, [[None]], [[None]])


def test_from_factors_rejects_factors_over_another_field():
    built = build_mrmub(4, 2, 2, field=GF(8))
    A = [list(row) for row in built.A]
    A[0][1] = build_mrmub(4, 2, 2, field=GF(4)).A[0][1]
    with pytest.raises(ShapeMismatchError, match="over GF"):
        IrregularArrayCode.from_factors(2, A, built.B)


def test_zero_diagonal():
    f = GF(2)
    one = Matrix.from_rows(f, [[1]])
    zero = Matrix.zeros(f, 1, 1)
    grid = [[one for _ in range(3)] for _ in range(3)]
    code = IrregularArrayCode(2, grid)
    normalized = zero_diagonal(code)
    for i in range(3):
        assert normalized.construction[i][i].is_zero()
        for j in range(3):
            if i != j:
                assert normalized.construction[i][j] == code.construction[i][j]
    # fixed point
    assert zero_diagonal(normalized) is normalized
    # update bandwidth unchanged
    assert update_bandwidth(code)[1] == update_bandwidth(normalized)[1]
    # codewords map bijectively: data part identical, parity differs by M_ii x_i
    data = [[1], [0], [1]]
    before = code.encode(data)
    after = normalized.encode(data)
    for j in range(3):
        assert before[j][:1] == after[j][:1]
        delta = code.construction[j][j].apply(data[j])
        assert before[j][1] == f.add(after[j][1], delta[0])


def dense_product(f, matrix, x):
    """``matrix`` times ``x`` in scalar loops: the protocol tests' reference."""
    out = []
    for row in matrix.data:
        acc = 0
        for a, v in zip(row, x):
            acc = f.add(acc, f.mul(a, v))
        out.append(acc)
    return out


def own_term_code():
    """A GF(2) code with a nonzero diagonal and a rank-0 edge 0 -> 1 whose
    sender holds data and whose receiver holds parity."""
    f = GF(2)
    one, zero = Matrix.from_rows(f, [[1]]), Matrix.zeros(f, 1, 1)
    return IrregularArrayCode(2, [[zero if (i, j) == (0, 1) else one for j in range(3)]
                                  for i in range(3)])


PROTOCOL_CODES = {
    "gf2-pcode": pcode_fixture,  # rank-0 edges, no diagonal
    "gf2-own-terms": own_term_code,
    "gf2-zero-diagonal": lambda: zero_diagonal(own_term_code()),
    "gf8-r1": lambda: iterate_transform(build_mrmub(4, 2, 2, field=GF(8)), 1),
    "gf25-r2": lambda: iterate_transform(build_mrmub(4, 2, 2, field=GF(25)), 2),
    "gf65536": lambda: build_mrmub(6, 3, 6, field=GF(65536)),
    "gf7": lambda: build_mrmub(5, 3, 3, field=GF(7)),
    "spec-a": lambda: build_mub(8, 4, [8, 8, 4, 4, 0, 12, 4, 8]),  # node 4 holds no data
}


@cache
def protocol_code(name):
    return PROTOCOL_CODES[name]()


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_parity_terms_match_a_dense_reference(data):
    # Each payload is A[i][j] x and each addend B[i][j] times the payload
    # shipped, in ascending j over the edges of nonzero rank, then the
    # diagonal's term.  Together they are construction's parity change, and
    # intermediates lists the same payloads in cyclic order.
    code = protocol_code(data.draw(st.sampled_from(sorted(PROTOCOL_CODES))))
    f, n = code.field, code.n
    i = data.draw(st.integers(0, n - 1))
    symbol = st.integers(0, f.q - 1)
    x = data.draw(st.one_of(st.just([0] * code.m[i]),
                            st.lists(symbol, min_size=code.m[i], max_size=code.m[i])))
    A, B = code.factors
    want = []
    for j in range(n):
        if j != i and A[i][j].rows:
            payload = dense_product(f, A[i][j], x)
            want.append((j, payload, dense_product(f, B[i][j], payload)))
    if not code.construction[i][i].is_zero():
        want.append((i, None, dense_product(f, code.construction[i][i], x)))
    assert list(code.parity_terms(i, x)) == want
    folded = {j: addend for j, _, addend in want}
    for j in range(n):
        assert folded.get(j, [0] * code.p[j]) == dense_product(f, code.construction[i][j], x), j
    shipped = {j: payload for j, payload, _ in want if j != i}
    assert code.intermediates(i, x) == [(j, shipped.get(j, [])) for j in
                                        ((i + d) % n for d in range(1, n))]


@pytest.mark.parametrize("name", ["gf8-r1", "gf25-r2", "gf7"])
def test_parity_terms_never_hand_out_a_cached_column(name):
    # A unit vector makes every product a lone coefficient-1 term, which a
    # list field's combine returns as the cached column itself.  Mutating
    # everything yielded must leave the next call's results unchanged.
    code = protocol_code(name)
    for i in range(code.n):
        for t in range(code.m[i]):
            x = [int(s == t) for s in range(code.m[i])]
            first = list(code.parity_terms(i, x))
            want = [(j, None if p is None else list(p), list(a)) for j, p, a in first]
            for _, payload, addend in first:
                for vec in (payload, addend):
                    if vec is not None:
                        vec[:] = [1] * len(vec)
                        vec.append(0)
            assert list(code.parity_terms(i, x)) == want, (i, t)


def test_encode_and_generic_decode_round_trip(rng):
    code = pcode_fixture()
    for _ in range(20):
        data = [[rng.randrange(2) for _ in range(mi)] for mi in code.m]
        cols = code.encode(data)
        for erased in [(0, 1), (1, 2), (0, 3), (2, 3)]:
            known = {j: cols[j] for j in range(4) if j not in erased}
            assert code.decode_columns(known) == cols


def test_decode_columns_validates_lengths():
    code = pcode_fixture()
    with pytest.raises(InvalidParamsError):
        code.decode_columns({0: [0, 0, 0]})


def reference_decode(code, known):
    """Every data vector from the known columns, by one solve over their
    stacked full column maps."""
    maps = code.column_maps()
    idxs = sorted(known)
    lhs = vstack(code.field, [maps[j] for j in idxs])
    rhs = Matrix(code.field, lhs.rows, 1, [[v] for j in idxs for v in known[j]])
    flat = [row[0] for row in solve(lhs, rhs).data]
    out, pos = [], 0
    for mi in code.m:
        out.append(flat[pos : pos + mi])
        pos += mi
    return out


def decoder_check_codes():
    codes = [fig1b(), fig3()]
    for q in (8, 25, 256):
        f = GF(q)
        codes.append(build_mrmub(4, 2, 2, field=f))
        codes.append(build_mrmub(5, 3, 3, field=f))
        codes.append(build_mub(4, 2, [4, 2, 2, 0], field=f))
        codes.append(build_mub(6, 3, [6, 3, 3, 0, 3, 0], field=f))
    for q in (8, 25):
        for rounds in (1, 2, 3):
            transformed = iterate_transform(build_mrmub(5, 3, 3, field=GF(q)), rounds)
            codes.extend([transformed, transformed.as_irregular_code()])
    # Every row form once more: GF(32) packs rows in a byte, GF(7) and
    # GF(2^16) keep entry lists, prime and characteristic-2.
    for q in (32, 7, 65536):
        f = GF(q)
        codes.append(build_mrmub(5, 3, 3, field=f))
        codes.append(build_mub(4, 2, [4, 2, 2, 0], field=f))
    codes.append(iterate_transform(build_mrmub(5, 3, 3, field=GF(7)), 1))
    return codes


def erasure_patterns(code, most):
    for size in range(most + 1):
        yield from combinations(range(code.n), size)


@pytest.fixture(scope="module")
def decoder_codes():
    return decoder_check_codes()


def test_decoder_matches_full_column_map_reference(rng):
    # Fresh codes, so the first decode of each kept set eliminates (cold) and
    # the second reads the code's cached elimination; both equal the encode.
    for code in decoder_check_codes():
        data = random_fill(code, rng)
        cols = code.encode(data)
        patterns = list(erasure_patterns(code, code.n - code.k))
        for erased in patterns:
            known = {j: cols[j] for j in range(code.n) if j not in erased}
            assert tuple(sorted(known)) not in code._eliminations
            assert code.decode_columns(known) == cols
            assert code.decode_columns(known) == cols
            assert solve_data_from_columns(code, known) == reference_decode(code, known) == data
        assert len(code._eliminations) == len(patterns)  # one entry per kept set


@pytest.mark.parametrize("q", [16, 25])
def test_a_zero_parity_node_keeps_one_parity_column_per_data_symbol(q, rng):
    # build_mub(4, 2, [6, 0, 0, 0]) has p = (0, 3, 3, 3).  Node 0's parity
    # columns are six empty ones, so a kept set's columns, joined over its
    # nodes, are still one per data symbol when node 0 is kept.
    code = build_mub(4, 2, [6, 0, 0, 0], field=GF(q))
    assert code.p == (0, 3, 3, 3)
    assert [len(cols) for cols in code._parity_columns] == [6, 6, 6, 6]
    data = random_fill(code, rng)
    cols = code.encode(data)
    assert cols == grid_encode(code, data)
    for erased in erasure_patterns(code, code.n - code.k):
        known = {j: cols[j] for j in range(code.n) if j not in erased}
        assert code.decode_columns(known) == cols, erased
        assert solve_data_from_columns(code, known) == reference_decode(code, known) == data
    assert verify_mds(code) == reference_verify_mds(code)


def test_decoded_columns_are_copies(decoder_codes, rng):
    # The kept columns come back as given, but as copies: changing what a
    # decode returned changes neither the caller's columns nor a later decode.
    for code in decoder_codes:
        cols = code.encode(random_fill(code, rng))
        for erased in erasure_patterns(code, code.n - code.k):
            known = {j: list(cols[j]) for j in range(code.n) if j not in erased}
            decoded = code.decode_columns(known)
            for col in decoded:
                col[:] = [0] * len(col)
                col.append(1)
            assert known == {j: cols[j] for j in known}
            assert code.decode_columns(known) == cols


def test_decoder_rejects_a_rank_deficient_kept_set_on_every_call(rng):
    for q in (25, 8, 32, 7, 256, 65536):  # every row form, packed and entry-list
        code = dependent_parity_code(q)
        cols = code.encode(random_fill(code, rng))
        for kept in [(0, 1), (0, 2), (0, 3)]:
            known = {j: cols[j] for j in kept}
            for _ in range(2):  # the cached elimination still raises
                with pytest.raises(UnderdeterminedSystemError,
                                   match="column rank 3 < 4 unknowns"):
                    code.decode_columns(known)
        assert code.decode_columns({1: cols[1], 2: cols[2]}) == cols


def test_decoder_rejects_too_many_erasures_for_every_class(fig1b_code):
    transformed = iterate_transform(build_mrmub(4, 2, 2, field=GF(8)), 1)
    for code in (fig1b_code, fig1b_code.as_irregular_code(), transformed):
        cols = code.encode([[0] * mi for mi in code.m])
        known = {j: cols[j] for j in range(code.k - 1)}
        with pytest.raises(TooManyErasuresError, match="3 erasures exceed tolerance 2"):
            code.decode_columns(known)


def range_check_codes():
    """A built code, fig1b (repaired through its registered plans) and a
    transformed code (structured repair)."""
    return [build_mrmub(4, 2, 2), fig1b(), iterate_transform(build_mrmub(4, 2, 2, field=GF(8)), 1)]


@pytest.mark.parametrize("code", range_check_codes(), ids=["built", "fig1b", "transformed"])
def test_repair_and_decoder_reject_out_of_range_nodes(code):
    cols = code.encode([[1] * mi for mi in code.m])

    def fetch(j, rows):
        return [cols[j][r] for r in rows]

    for bad in (-1, code.n):
        with pytest.raises(NodeOutOfRangeError, match=f"node {bad} outside 0..{code.n - 1}"):
            code.repair(bad, fetch)
        known = {bad: cols[-1], 0: cols[0], 1: cols[1]}
        with pytest.raises(NodeOutOfRangeError):
            code.decode_columns(known)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda c, cl: cl.fail_and_repair(True), NodeOutOfRangeError, "node True outside 0..3"),
        (lambda c, cl: cl.apply_update("0", [0, 0]), NodeOutOfRangeError, "node '0' outside"),
        (lambda c, cl: c.encode(None), InvalidParamsError, "data profile"),
        (lambda c, cl: c.encode([5] * 4), InvalidParamsError, "data profile"),
        (lambda c, cl: Cluster(c, data=5), InvalidParamsError, "data profile"),
        (lambda c, cl: c.decode_columns([]), InvalidParamsError, "must be a dict"),
        (lambda c, cl: c.decode_columns({0: 5, 1: [0] * 4}), InvalidParamsError,
         "column 0 is not a list of 4 symbols"),
        (lambda c, cl: c.repair(0, lambda src, rows: 5), ValueError,
         "node 1 returned int, not a list, for 4 rows"),
        (lambda c, cl: cl.apply_update(0, 5), InvalidParamsError,
         "update vector is int, not a list of 2 symbols"),
        (lambda c, cl: cl.apply_update(0, None), InvalidParamsError,
         "update vector is NoneType, not a list of 2 symbols"),
        (lambda c, cl: cl.apply_update(0, [1]), InvalidParamsError,
         "update vector length 1 != 2"),
        (lambda c, cl: cl.run_workload("3", 0), InvalidParamsError,
         r"workload counts must be ints >= 0, got updates='3', repairs=0"),
        (lambda c, cl: cl.run_workload(1.5, 0), InvalidParamsError, "updates=1.5, repairs=0"),
        (lambda c, cl: cl.run_workload(True, 0), InvalidParamsError, "updates=True, repairs=0"),
        (lambda c, cl: cl.run_workload(0, None), InvalidParamsError, "updates=0, repairs=None"),
        (lambda c, cl: Matrix(c.field, 1, 2, [5]), ShapeMismatchError,
         "data does not match shape 1x2"),
        (lambda c, cl: Matrix(c.field, 1, 2, 5), ShapeMismatchError,
         "data does not match shape 1x2"),
        (lambda c, cl: Matrix.from_rows(c.field, 5), ShapeMismatchError,
         "rows 5 are not a list of lists"),
        (lambda c, cl: Matrix.from_rows(c.field, [5, 6]), ShapeMismatchError,
         r"rows \[5, 6\] are not a list of lists"),
        (lambda c, cl: build_mrmub(4, 2, 2, assembly=5), ShapeMismatchError,
         "rows 5 are not a list of lists"),
        (lambda c, cl: build_mrmub(4, 2, 2, assembly=[5, 6]), ShapeMismatchError,
         r"rows \[5, 6\] are not a list of lists"),
        (lambda c, cl: pair_transform(c, (0, 1.0)), InvalidPairError,
         r"invalid node pair \(0, 1.0\) for n=4"),
        (lambda c, cl: pair_transform(c, (0, "1")), InvalidPairError, r"pair \(0, '1'\)"),
        (lambda c, cl: pair_transform(c, (0,)), InvalidPairError, r"pair \(0,\)"),
        (lambda c, cl: pair_transform(c, 5), InvalidPairError, "pair 5 "),
        (lambda c, cl: pair_transform(c, (True, 2)), InvalidPairError, r"pair \(True, 2\)"),
        (lambda c, cl: rotation_pairs(4, 1.5), InvalidPairError,
         "rounds must be an int >= 0, got 1.5"),
        (lambda c, cl: iterate_transform(c, "2"), InvalidPairError, "got '2'"),
        (lambda c, cl: iterate_transform(c, None), InvalidPairError, "got None"),
        (lambda c, cl: iterate_transform(c, True), InvalidPairError, "got True"),
    ],
    ids=["bool-node", "str-node", "none-fill", "int-vectors", "int-cluster-fill", "list-known",
         "int-column", "int-fetch", "int-update", "none-update", "short-update",
         "str-updates", "float-updates", "bool-updates", "none-repairs", "int-matrix-row",
         "int-matrix-data", "int-rows", "int-row", "int-assembly", "int-assembly-rows",
         "float-pair", "str-pair", "short-pair", "int-pair", "bool-pair",
         "float-rounds", "str-rounds", "none-rounds", "bool-rounds"],
)
def test_codec_entries_reject_wrong_types(call, error, message):
    code = build_mrmub(4, 2, 2)
    cluster = Cluster(code, seed=1)
    before = [list(col) for col in cluster.columns]
    with pytest.raises(error, match=message):
        call(code, cluster)
    assert cluster.columns == before and not cluster.log.records


@pytest.mark.parametrize("code", range_check_codes(), ids=["built", "fig1b", "transformed"])
@pytest.mark.parametrize("rows", ["data_rows", "parity_rows"])
@pytest.mark.parametrize("bad", [99, -3])
def test_decoder_rejects_symbols_outside_the_field(code, rows, bad):
    cols = code.encode([[1] * mi for mi in code.m])
    known = {j: list(cols[j]) for j in range(code.k)}
    known[0][getattr(code, rows)(0)[0]] = bad
    with pytest.raises(ValueError, match=rf"{bad} is not an element of GF\({code.field.q}\)"):
        code.decode_columns(known)


REPAIR_CHECK_CODES = range_check_codes() + [
    iterate_transform(build_mrmub(4, 2, 2, field=GF(8)), 2),
    iterate_transform(build_mrmub(6, 4, 4, field=GF(8)), 3),
]


@pytest.mark.parametrize(
    "code", REPAIR_CHECK_CODES, ids=["built", "fig1b", "transformed", "two-rounds", "three-rounds"]
)
@pytest.mark.parametrize("bad", [99, -3, "short", "long"])
def test_repair_rejects_fetched_symbols_outside_the_field(code, bad):
    # One source returns a non-element as the first symbol of every read, or
    # one symbol too few or too many.  Repair must refuse it, or not have
    # read that source at all and return the lost column.
    cols = code.encode(random_fill(code, random.Random(5)))
    for source in range(code.n):
        def fetch(j, rows):
            values = [cols[j][r] for r in rows]
            if j == source and values:
                if bad == "short":
                    values.pop()
                elif bad == "long":
                    values.append(0)
                else:
                    values[0] = bad
            return values

        for failed in range(code.n):
            if failed == source:
                continue
            try:
                got = code.repair(failed, fetch)
            except ValueError as exc:
                want = (f"node {source} returned" if bad in ("short", "long")
                        else f"{bad} is not an element of GF({code.field.q})")
                assert want in str(exc), (source, failed)
            else:
                assert got == cols[failed], (source, failed)


def test_repair_fetches_each_row_once_and_answers_repeats_from_its_store(monkeypatch):
    # Reads that repeat a row, or name rows already fetched from that
    # source, pass the fetch only the new rows, once each and in request
    # order, and still return every requested symbol.
    code = build_mrmub(4, 2, 2)  # no plan: the flat repair reads columns 1 and 2
    cols = code.encode(random_fill(code, random.Random(7)))
    asked, answered = [], []

    def fetch(src, rows):
        asked.append((src, list(rows)))
        return [cols[src][r] for r in rows]

    def reads_then_repairs(failed, read):
        answered.extend(read(1, rows) for rows in ([2, 0, 2], [0, 3], [3, 0]))
        return IrregularArrayCode._repair(code, failed, read)

    monkeypatch.setattr(code, "_repair", reads_then_repairs)
    assert code.repair(0, fetch) == cols[0]
    assert asked == [(1, [2, 0]), (1, [3]), (1, [1]), (2, [0, 1, 2, 3])]
    assert answered == [[cols[1][r] for r in rows] for rows in ([2, 0, 2], [0, 3], [3, 0])]


def test_decoder_rejects_a_corrupted_survivor(decoder_codes, rng):
    # Below n-k erasures the survivors hold more than k columns, so a single
    # changed symbol contradicts the rest.  Each kept set is decoded clean
    # first, so the corrupted decode reads the cached elimination and must
    # still check that the survivors agree.
    for code in decoder_codes:
        f = code.field
        cols = code.encode(random_fill(code, rng))
        for erased in erasure_patterns(code, code.n - code.k - 1):
            known = {j: list(cols[j]) for j in range(code.n) if j not in erased}
            assert code.decode_columns(known) == cols
            j = rng.choice([j for j in known if known[j]])
            r = rng.randrange(len(known[j]))
            known[j][r] = f.add(known[j][r], 1 + rng.randrange(f.q - 1))
            with pytest.raises(InconsistentSystemError):
                solve_data_from_columns(code, known)


# -- serialization ----------------------------------------------------------------------


def test_code_json_round_trip(rng):
    code = pcode_fixture()
    doc = code_to_json(code)
    text = json.dumps(doc)
    loaded = code_from_json(json.loads(text))
    assert (loaded.n, loaded.k, loaded.m, loaded.p) == (code.n, code.k, code.m, code.p)
    for i in range(4):
        for j in range(4):
            assert loaded.construction[i][j] == code.construction[i][j]
    data = [[rng.randrange(2) for _ in range(mi)] for mi in code.m]
    assert loaded.encode(data) == code.encode(data)


def test_code_json_rejects_nonzero_diagonal():
    f = GF(2)
    one = Matrix.from_rows(f, [[1]])
    grid = [[one for _ in range(3)] for _ in range(3)]
    code = IrregularArrayCode(2, grid)
    with pytest.raises(InvalidParamsError):
        code_to_json(code)
    code_to_json(zero_diagonal(code))


# Every kind of code a spec holds: built codes with a dataless node, over
# packed and entry-list fields, and 1- to 3-round transformed chains.
ROUND_TRIP_CODES = [
    lambda: build_mub(4, 2, [4, 2, 2, 0]),
    lambda: build_mub(6, 3, [6, 3, 3, 0, 3, 0], field=GF(8)),
    lambda: build_mrmub(4, 2, 2, field=GF(8)),
    lambda: build_mrmub(5, 3, 3, field=GF(25)),
    lambda: build_mrmub(4, 2, 2, field=GF(1 << 16)),
    fig3,
    lambda: iterate_transform(build_mrmub(4, 2, 2, field=GF(8)), 1),
    lambda: iterate_transform(build_mrmub(4, 2, 2, field=GF(25)), 2),
    lambda: iterate_transform(build_mrmub(6, 4, 4, field=GF(8)), 3),
    lambda: iterate_transform(build_mrmub(5, 3, 3, field=GF(25)), 3),
]


@cache
def round_trip_code(index: int):
    return ROUND_TRIP_CODES[index]()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(ROUND_TRIP_CODES) - 1), st.integers(0, 2**32))
def test_every_code_round_trips_through_its_spec(index, seed):
    """A spec reproduces its code: a transformed code comes back as the same
    chain, a flat one as the ``IrregularArrayCode`` on its grid (a spec
    stores no generators, assemblies or repair plan, so codewords are
    compared, not repair counts)."""
    code = round_trip_code(index)
    doc = code_to_json(code)
    text = json.dumps(doc, sort_keys=True)
    loaded = code_from_json(json.loads(text))
    assert type(loaded) is (TransformedCode if isinstance(code, TransformedCode)
                            else IrregularArrayCode)
    assert getattr(loaded, "pairs", None) == getattr(code, "pairs", None)
    assert loaded.construction == code.construction
    fill = random_fill(code, random.Random(seed))
    assert loaded.encode(fill) == code.encode(fill)
    assert json.dumps(code_to_json(loaded), sort_keys=True) == text


GOLDEN_SPECS = sorted((Path(__file__).parent / "golden").glob("spec_*.json"))


@pytest.mark.parametrize("path", GOLDEN_SPECS, ids=lambda p: p.name)
def test_code_from_json_reads_golden_specs_as_load_spec_does(path):
    code = code_from_json(json.loads(path.read_text()))
    assert isinstance(code, TransformedCode) and code.pairs == [(2, 3), (0, 1)]
    loaded = load_spec(str(path))
    assert type(loaded) is type(code) and loaded.pairs == code.pairs
    assert loaded.construction == code.construction
    assert code.m == (8, 8, 8, 8) and code.col_lens == (16, 16, 16, 16)


def test_verify_mds_flags_a_threshold_below_k():
    """Every column of this (3, 2) code holds node 0's one data symbol, so
    one column already determines the data."""
    f = GF(2)
    m, p = (1, 0, 0), (0, 1, 1)
    grid = [[Matrix.zeros(f, p[j], m[i]) for j in range(3)] for i in range(3)]
    grid[0][1] = grid[0][2] = Matrix.identity(f, 1)
    rep = verify_mds(IrregularArrayCode(2, grid))
    assert rep == MdsReport(False, None, None, "every 1-subset already determines the data")


def test_verify_mds_detects_insufficient_threshold(fig1b_code):
    rep = verify_mds(fig1b_code)
    assert rep.is_mds
    assert rep.insufficient_subset is not None
    total = sum(fig1b_code.m)
    got = sum(fig1b_code.col_lens[j] for j in rep.insufficient_subset)
    maps = fig1b_code.column_maps()
    from ubcode.linalg import vstack

    stacked = vstack(fig1b_code.field, [maps[j] for j in rep.insufficient_subset])
    assert got < total or rank(stacked) < total


def with_row(m, r, row):
    """A copy of matrix ``m`` with row ``r`` replaced by ``row``."""
    data = list(m.data)
    data[r] = row
    return Matrix(m.field, m.rows, m.cols, data)


def dependent_parity_code(q: int) -> IrregularArrayCode:
    """build_mrmub(4, 2, 2) over GF(q) with row 1 of node 0's parity set to
    g times row 0 for every source node.  Each column holds exactly total/k
    symbols, so every kept pair holding node 0 loses rank."""
    f = GF(q)
    view = build_mrmub(4, 2, 2, field=f).as_irregular_code()
    grid = [list(row) for row in view.construction]
    for i in range(view.n):
        blk = grid[i][0]
        grid[i][0] = with_row(blk, 1, [f.mul(f.primitive, v) for v in blk.data[0]])
    return IrregularArrayCode(view.k, grid)


@pytest.mark.parametrize("q", [25, 256])
def test_verify_mds_rejects_dependent_parity_rows(q):
    # Every k-subset with node 0 loses rank, so the code is no longer MDS.
    assert verify_mds(build_mrmub(4, 2, 2, field=GF(q))).is_mds
    rep = verify_mds(dependent_parity_code(q))
    assert not rep.is_mds
    assert 0 in rep.witness


def reference_verify_mds(code, fills: int = 20) -> MdsReport:
    """Brute-force threshold check by solving over the stacked column maps.

    Every k-subset must recover ``fills`` random data vectors from their
    stored symbols, and some (k-1)-subset must fail by symbol count or rank.
    """
    n, k = code.n, code.k
    field = code.field
    total = sum(code.m)
    maps = code.column_maps()
    rng = random.Random(2024)
    data = Matrix(
        field, total, fills,
        [[rng.randrange(field.q) for _ in range(fills)] for _ in range(total)],
    )
    stored = [maps[j] @ data for j in range(n)]

    for subset in combinations(range(n), k):
        lhs = vstack(field, [maps[j] for j in subset])
        rhs = vstack(field, [stored[j] for j in subset])
        try:
            recovered = solve(lhs, rhs)
        except (UnderdeterminedSystemError, InconsistentSystemError) as exc:
            return MdsReport(False, subset, None, f"columns {subset}: {exc}")
        if recovered != data:
            return MdsReport(False, subset, None, f"columns {subset}: wrong data")

    for subset in combinations(range(n), k - 1):
        symbols = sum(code.col_lens[j] for j in subset)
        if symbols < total:
            return MdsReport(True, None, subset, "symbol count below data size")
        lhs = vstack(field, [maps[j] for j in subset])
        if rank(lhs) < total:
            return MdsReport(True, None, subset, "rank deficient")
    return MdsReport(
        False, None, None, f"every {k - 1}-subset already determines the data"
    )


def broken_copies(view, rng, count):
    """Copies of ``view`` with one parity row of one block overwritten by a
    multiple of another row of the same block."""
    f = view.field
    blocks = [
        (i, j) for i in range(view.n) for j in range(view.n)
        if view.construction[i][j].rows >= 2 and view.construction[i][j].cols
    ]
    out = []
    for _ in range(count):
        i, j = rng.choice(blocks)
        dst, src = rng.sample(range(view.construction[i][j].rows), 2)
        c = rng.randrange(f.q)
        grid = [list(row) for row in view.construction]
        grid[i][j] = with_row(grid[i][j], dst, f.scale_row(c, grid[i][j].data[src]))
        out.append(IrregularArrayCode(view.k, grid))
    return out


def mds_check_codes():
    codes = [fig1b(), fig3()]
    for q in (8, 16, 25, 256):
        f = GF(q)
        codes.append(build_mrmub(4, 2, 2, field=f))
        codes.append(build_mrmub(5, 3, 3, field=f))
        codes.append(build_mub(4, 2, [4, 2, 2, 0], field=f))
        codes.append(build_mub(6, 3, [6, 3, 3, 0, 3, 0], field=f))
    for q, rounds in [(8, 1), (25, 2), (256, 1)]:
        codes.append(iterate_transform(build_mrmub(4, 2, 2, field=GF(q)), rounds))
    codes.append(iterate_transform(build_mrmub(5, 3, 3, field=GF(8)), 3))
    return codes


def test_verify_mds_matches_solve_reference():
    rng = random.Random(7)
    codes = mds_check_codes()
    for code in list(codes):
        codes.extend(broken_copies(code.as_irregular_code(), rng, 3))
    reports = [verify_mds(code) for code in codes]
    for code, rep in zip(codes, reports):
        assert rep == reference_verify_mds(code)
    # The broken copies reach every verdict path, not only "is MDS".
    assert any(not rep.is_mds and rep.witness for rep in reports)
    assert any(rep.is_mds for rep in reports)
