import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubcode.finite_field import GF
from ubcode.linalg import (
    FieldTooSmallError,
    Matrix,
    SingularMatrixError,
    column_weights,
    invert,
    rank,
    hstack,
    vandermonde_columns,
)
from ubcode.code_model import (
    EnumerationTooLargeError,
    InvalidParamsError,
    IrregularArrayCode,
    bounds,
    feasible,
    redundancy,
    update_bandwidth,
    update_complexity,
    verify_mds,
)
from ubcode import construct
from ubcode.construct import (
    PARITY_CHECK_3_2,
    DivisibilityError,
    RowWiseMdsBase,
    TooManyErasuresError,
    build_mrmub,
    build_mub,
    default_field,
    fig1b,
    fig3,
    systematic_mds_generator,
)

from ubcode.transform import iterate_transform

from conftest import random_fill


def symbol_index(m_vec, node, sym):
    return sum(m_vec[:node]) + sym


def cell_terms(code, j, r):
    """Cell (row r of column j) as the set of (node, symbol) data terms."""
    row = code.column_maps()[j].data[r]
    m_vec = code.m
    terms = set()
    for c, v in enumerate(row):
        if v:
            node = 0
            while c >= sum(m_vec[: node + 1]):
                node += 1
            terms.add((node, c - sum(m_vec[:node]), v))
    return terms


def grid_of(code):
    return [
        [cell_terms(code, j, r) for r in range(code.col_lens[j])]
        for j in range(code.n)
    ]


def T(*pairs):
    """Terms helper: T((1,1), (2,2)) = {x_{2,2}, x_{3,3}} in 1-based naming."""
    return {(i, l, 1) for i, l in pairs}


# -- fig1b: the balanced binary (4,2) worked example ---------------------------------


def test_fig1b_reproduces_published_grid(fig1b_code):
    grid = grid_of(fig1b_code)
    # transcribed cell-by-cell; indices 0-based (node, symbol)
    expect = [
        [T((0, 0)), T((0, 1)), T((3, 0), (2, 1)), T((1, 0), (1, 1), (2, 1))],
        [T((1, 0)), T((1, 1)), T((0, 0), (3, 1)), T((2, 0), (2, 1), (3, 1))],
        [T((2, 0)), T((2, 1)), T((1, 0), (0, 1)), T((3, 0), (3, 1), (0, 1))],
        [T((3, 0)), T((3, 1)), T((2, 0), (1, 1)), T((0, 0), (0, 1), (1, 1))],
    ]
    for j in range(4):
        assert grid[j] == expect[j], f"column {j}"


def test_fig1b_intermediate_table(fig1b_code):
    # Row i of the published intermediates table, cyclic destinations.
    f = fig1b_code.field
    basis = []
    for i in range(4):
        for x in ([1, 0], [0, 1]):
            basis.append((i, x))
    # p[0->1]=x11, p[0->2]=x12, p[0->3]=x11+x12 and cyclic shifts:
    for i in range(4):
        outs = fig1b_code.intermediates(i, [1, 0])
        assert outs == [(((i + 1) % 4), [1]), (((i + 2) % 4), [0]), (((i + 3) % 4), [1])]
        outs = fig1b_code.intermediates(i, [0, 1])
        assert outs == [(((i + 1) % 4), [0]), (((i + 2) % 4), [1]), (((i + 3) % 4), [1])]


def test_fig1b_metrics(fig1b_code):
    grid, average = update_bandwidth(fig1b_code.code)
    assert average == Fraction(3)
    assert all(grid[i][j] == 1 for i in range(4) for j in range(4) if i != j)
    assert redundancy(fig1b_code.code) == 8
    assert update_complexity(fig1b_code.code) == Fraction(5, 2)
    assert verify_mds(fig1b_code).is_mds


def test_fig1b_decode_matches_published_walkthrough(fig1b_code, rng):
    # Erase nodes 0 and 1, rebuild, compare bitwise.
    for _ in range(20):
        data = random_fill(fig1b_code, rng)
        cols = fig1b_code.encode(data)
        known = {2: cols[2], 3: cols[3]}
        assert fig1b_code.decode_columns(known) == cols


# -- fig3: the irregular binary (4,2,[4,2,2,0]) worked example -------------------------


def test_fig3_reproduces_published_grid(fig3_code):
    grid = grid_of(fig3_code)
    expect = [
        [T((0, 0)), T((0, 1)), T((0, 2)), T((0, 3)),
         T((1, 0), (1, 1)), T((2, 1))],
        [T((1, 0)), T((1, 1)), T((0, 0)), T((0, 1)), T((2, 0), (2, 1))],
        [T((2, 0)), T((2, 1)), T((0, 2)), T((0, 3)), T((1, 0))],
        [T((0, 0), (0, 2), (2, 0)), T((0, 1), (0, 3), (2, 0)), T((1, 1), (2, 0))],
    ]
    for j in range(4):
        assert grid[j] == expect[j], f"column {j}"


def test_fig3_intermediates_table(fig3_code):
    # Node 0 ships column-major row pairs; node 3 ships nothing.
    outs = fig3_code.intermediates(0, [1, 0, 0, 0])
    assert outs == [(1, [1, 0]), (2, [0, 0]), (3, [1, 0])]
    outs = fig3_code.intermediates(0, [0, 0, 1, 0])
    assert outs == [(1, [0, 0]), (2, [1, 0]), (3, [1, 0])]
    outs = fig3_code.intermediates(3, [])
    assert outs == [(0, []), (1, []), (2, [])]
    # single symbols of nodes 1 and 2 follow the parity-check pattern
    assert fig3_code.intermediates(1, [1, 0]) == [(2, [1]), (3, [0]), (0, [1])]
    assert fig3_code.intermediates(2, [0, 1]) == [(3, [0]), (0, [1]), (1, [1])]


def test_fig3_unit_vector_parity_placement(fig3_code):
    # Exciting only the second symbol of node 1 must touch exactly the first
    # parity row of node 0 and the last parity row of node 3.
    data = [[0, 0, 0, 0], [0, 1], [0, 0], []]
    cols = fig3_code.encode(data)
    assert cols[0][4:] == [1, 0]
    assert cols[1][2:] == [0, 0, 0]
    assert cols[2][2:] == [0, 0, 0]
    assert cols[3] == [0, 0, 1]


def test_fig3_metrics(fig3_code):
    grid, average = update_bandwidth(fig3_code.code)
    assert average == Fraction(3)
    assert redundancy(fig3_code.code) == 11
    rep = bounds(4, 2, [4, 2, 2, 0])
    assert average == rep.min_update_bandwidth
    assert redundancy(fig3_code.code) == rep.min_redundancy_at_min_bandwidth
    assert verify_mds(fig3_code).is_mds


def test_fig3_decode_erase_first_two(fig3_code, rng):
    for _ in range(20):
        data = random_fill(fig3_code, rng)
        cols = fig3_code.encode(data)
        assert fig3_code.decode_columns({2: cols[2], 3: cols[3]}) == cols


# -- row-wise MDS base ------------------------------------------------------------------


def test_parity_check_base_matches_worked_example(gf2):
    base = RowWiseMdsBase(gf2, 3, 2, generator=[[1, 0, 1], [0, 1, 1]])
    enc = base.encode([1, 0])
    assert [list(row) for row in enc.data] == [[1, 0, 1]]
    enc = base.encode([0, 1])
    assert [list(row) for row in enc.data] == [[0, 1, 1]]


def test_two_row_base_column_major_split(gf2):
    base = RowWiseMdsBase(gf2, 3, 2, generator=[[1, 0, 1], [0, 1, 1]])
    enc = base.encode([1, 0, 1, 0])
    # rows pair (x1, x3) and (x2, x4)
    assert [list(row) for row in enc.data] == [[1, 1, 0], [0, 0, 0]]


def test_base_decode_from_any_k_columns(rng):
    f = GF(8)
    base = RowWiseMdsBase(f, 5, 3)
    for _ in range(50):
        x = [rng.randrange(8) for _ in range(6)]
        enc = base.encode(x)
        for keep in combinations(range(5), 3):
            known = {d: enc.col(d) for d in keep}
            assert base.decode(known) == x


def test_systematic_generator_shape_and_property():
    f = GF(8)
    g = systematic_mds_generator(f, 3, 7)
    assert g.take_cols(range(3)) == Matrix.identity(f, 3)
    for sel in combinations(range(7), 3):
        assert rank(g.take_cols(sel)) == 3


def test_base_rejects_bad_generator(gf2):
    with pytest.raises(InvalidParamsError):
        RowWiseMdsBase(gf2, 3, 2, generator=[[1, 0, 1], [0, 0, 1]])


def test_base_rejects_bad_shapes(gf2):
    with pytest.raises(InvalidParamsError, match=r"^need n_out >= k, got 1 < 2$"):
        RowWiseMdsBase(gf2, 1, 2)
    base = RowWiseMdsBase(gf2, 3, 2, generator=[[1, 0, 1], [0, 1, 1]])
    with pytest.raises(InvalidParamsError, match=r"^data length 3 is not a multiple of 2$"):
        base.encode([1, 0, 1])
    with pytest.raises(TooManyErasuresError, match=r"^need 2 encoded columns, have 1$"):
        base.decode({2: [1]})


# -- the selection check against one inversion per selection -------------------------------


def reference_selection_check(m, r):
    """The selection check as one ``invert`` per r-column selection."""
    if comb(m.cols, r) > construct.SELECTION_CHECK_LIMIT:
        return False
    for sel in combinations(range(m.cols), r):
        try:
            invert(m.take_cols(sel))
        except SingularMatrixError as exc:
            raise InvalidParamsError(f"columns {sel} are dependent") from exc
    return True


def selection_outcome(check, *args):
    """The check's return value, or the text of the ``InvalidParamsError`` it raised."""
    try:
        return check(*args)
    except InvalidParamsError as exc:
        return f"InvalidParamsError: {exc}"


def assert_selection_check_matches_reference(m):
    assert selection_outcome(construct.assert_column_selections_invertible, m) == \
        selection_outcome(reference_selection_check, m, m.rows), m


SELECTION_FIELDS = [2, 4, 8, 25, 32, 2**16]


def selection_matrices(f, r, c, rng):
    """Matrices of every kind the reduced-form argument must handle, r x c over f."""
    def rand(density):
        return Matrix(f, r, c, [[rng.randrange(1, f.q) if rng.random() < density else 0
                                 for _ in range(c)] for _ in range(r)])

    out = [rand(1.0), rand(0.35)]
    if c <= f.q:
        mds = vandermonde_columns(f, r, c)
        out += [mds, systematic_mds_generator(f, r, c)]
    else:
        mds = out[0]
    if c >= 2:
        # a scaled copy of a middle column in the last place: the first dependent
        # selection sits in the middle of the combinations order
        s = rng.randrange(1, f.q)
        dup = [[*row[: c - 1], f.mul(s, row[(c - 1) // 2])] for row in mds.data]
        out.append(Matrix(f, r, c, dup))
    if r >= 1:
        # dependent first r columns: column r-1 a combination of the columns before it
        lead = [list(row) for row in rand(1.0).data]
        coef = [rng.randrange(f.q) for _ in range(r - 1)]
        for row in lead:
            row[r - 1] = 0
            for j, a in enumerate(coef):
                row[r - 1] = f.add(row[r - 1], f.mul(a, row[j]))
        out.append(Matrix(f, r, c, lead))
    return out


@pytest.mark.parametrize("q", SELECTION_FIELDS)
def test_selection_check_matches_inverting_each_selection(q):
    f = GF(q)
    rng = random.Random(q)
    for r in range(6):
        for c in range(r, r + 5):
            for m in selection_matrices(f, r, c, rng):
                assert_selection_check_matches_reference(m)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_selection_check_matches_reference_property(data):
    f = GF(data.draw(st.sampled_from(SELECTION_FIELDS), label="q"))
    r = data.draw(st.integers(0, 5), label="r")
    c = data.draw(st.integers(r, r + 4), label="c")
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, f.q - 1))
    rows = data.draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                              min_size=r, max_size=r), label="rows")
    if c >= 2 and data.draw(st.booleans(), label="duplicate"):
        src, dst = data.draw(st.lists(st.integers(0, c - 1), min_size=2, max_size=2,
                                      unique=True), label="columns")
        for row in rows:
            row[dst] = row[src]
    assert_selection_check_matches_reference(Matrix(f, r, c, rows))


# -- builders: one selection check per distinct matrix ------------------------------------


@pytest.mark.parametrize(
    "build, checks",
    [
        (lambda: build_mrmub(10, 6, 12), 2),  # one shared generator, one shared assembly
        (fig1b, 2),
        (lambda: build_mub(8, 4, [8, 8, 4, 4, 0, 12, 4, 8]), 5),  # 4 distinct assembly shapes
        # one generator, given as lists to two nodes and as an equal Matrix to two
        (lambda: build_mub(4, 2, [2] * 4, field=GF(4), base_generators=[
            PARITY_CHECK_3_2, Matrix.from_rows(GF(4), PARITY_CHECK_3_2)] * 2), 2),
    ],
    ids=["mrmub-10-6-12", "fig1b", "mub-8-4", "lists-and-matrix"],
)
def test_each_distinct_matrix_checked_once(monkeypatch, build, checks):
    real = construct.assert_column_selections_invertible
    calls = []

    def counted(m):
        calls.append((m.rows, m.cols))
        real(m)

    monkeypatch.setattr(construct, "assert_column_selections_invertible", counted)
    build()
    assert len(calls) == checks, calls


def test_build_rejects_dependent_assembly(gf2):
    dependent = [[0, 1, 1], [0, 1, 1]]  # columns 1 and 2 coincide
    with pytest.raises(InvalidParamsError):
        build_mrmub(4, 2, 2, field=gf2, base_generator=PARITY_CHECK_3_2, assembly=dependent)
    with pytest.raises(InvalidParamsError):
        build_mub(
            4, 2, [2, 2, 2, 2], field=gf2,
            base_generators=[PARITY_CHECK_3_2] * 4,
            assemblies=[[[0, 1, 1], [1, 1, 0]]] * 3 + [dependent],
        )


def test_selection_failure_names_the_checked_matrix(gf2):
    bad_generator = r"^generator 0: columns \(0, 1\) are dependent$"
    with pytest.raises(InvalidParamsError, match=bad_generator):
        build_mrmub(4, 2, 2, field=gf2, base_generator=[[1, 0, 1], [0, 0, 1]])
    bad_assembly = r"^assembly 0: columns \(1, 2\) are dependent$"
    with pytest.raises(InvalidParamsError, match=bad_assembly):
        build_mrmub(4, 2, 2, field=gf2, base_generator=PARITY_CHECK_3_2,
                    assembly=[[1, 0, 0], [0, 1, 1]])


def test_build_rejects_a_matrix_of_the_wrong_shape():
    with pytest.raises(InvalidParamsError, match=r"^assembly 0 is 2x2, expected 2x3$"):
        build_mrmub(4, 2, 2, assembly=[[1, 0], [0, 1]])
    with pytest.raises(InvalidParamsError, match=r"^generator 0 is 1x3, expected 2x3$"):
        build_mrmub(4, 2, 2, base_generator=[[1, 0, 1]])


def test_build_rejects_a_generator_over_another_field():
    # Checked in GF(4) this generator passes; its integers read in GF(8) build
    # a code that is not MDS, and as lists over GF(8) it is rejected.
    entries = [[3, 1, 3, 2], [1, 1, 2, 3], [1, 1, 0, 2]]
    with pytest.raises(InvalidParamsError, match=r"^generator 0: columns \(0, 2, 3\) are dependent$"):
        build_mrmub(5, 3, 3, field=GF(8), base_generator=entries)
    with pytest.raises(InvalidParamsError, match=r"^generator 0 is over GF\(4\), expected GF\(8\)$"):
        build_mrmub(5, 3, 3, field=GF(8), base_generator=Matrix.from_rows(GF(4), entries))


def test_build_rejects_an_assembly_over_another_field():
    foreign = vandermonde_columns(GF(16), 2, 3)
    with pytest.raises(InvalidParamsError, match=r"^assembly 0 is over GF\(16\), expected GF\(8\)$"):
        build_mrmub(4, 2, 2, field=GF(8), assembly=foreign)
    with pytest.raises(InvalidParamsError, match=r"^assembly 3 is over GF\(16\), expected GF\(8\)$"):
        build_mub(4, 2, [2] * 4, field=GF(8), assemblies=[None, None, None, foreign])


def test_build_rejects_dependent_assembly_beyond_selection_limit():
    # C(18, 8) selections exceed the exhaustive check, so the assembled code is verified.
    f = GF(32)
    v = vandermonde_columns(f, 8, 18)
    v = Matrix(f, 8, 18, [[*row[:17], row[16]] for row in v.data])
    with pytest.raises(InvalidParamsError, match=r"column rank 119 < 120 unknowns"):
        build_mrmub(10, 6, 12, field=f, assembly=v)


def test_build_refuses_unverifiable_caller_generator():
    # C(16, 8) generator selections and C(17, 8) column subsets exceed both limits.
    f = GF(32)
    with pytest.raises(EnumerationTooLargeError):
        build_mrmub(17, 8, 8, field=f, base_generator=systematic_mds_generator(f, 8, 16))


# -- builders: parameters and optimality ---------------------------------------------------


def test_build_mrmub_rejects_indivisible():
    with pytest.raises(DivisibilityError):
        build_mrmub(4, 2, 3)
    with pytest.raises(DivisibilityError):
        build_mub(4, 2, [2, 3, 2, 0])


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_mrmub(4, 0, 2),
        lambda: build_mub(4, 0, [2, 2, 2, 2]),
        lambda: build_mrmub(4, 2, 0),
        lambda: build_mub(4, 2, [2, 2, 2]),
    ],
    ids=["mrmub-k0", "mub-k0", "mrmub-no-data", "mub-short-profile"],
)
def test_builders_check_dimensions_first(build):
    with pytest.raises(InvalidParamsError):
        build()


def test_built_code_is_the_code_its_grids_define(fig1b_code, fig3_code, mrmub_codes):
    for code in [fig1b_code, fig3_code] + [built for *_, built in mrmub_codes]:
        assert isinstance(code, IrregularArrayCode)
        flat = code.as_irregular_code()
        assert type(flat) is IrregularArrayCode and flat.construction is code.construction
        assert code.code is code


def test_build_rejects_too_small_field():
    with pytest.raises(FieldTooSmallError):
        build_mrmub(6, 2, 4, field=GF(4))  # assembly needs (n-1)m/k = 10 columns


def test_default_field_policy():
    assert default_field(4, 2, [2, 2, 2, 2]).q == 4
    assert default_field(4, 2, [4, 2, 2, 0]).q == 8  # needs 3*4/2 + 1 = 7
    assert default_field(9, 8, [8] * 9).q == 16


def test_build_mrmub_k1_replicates():
    built = build_mrmub(4, 1, 2)
    grid, average = update_bandwidth(built.code)
    assert all(grid[i][j] == 2 for i in range(4) for j in range(4) if i != j)
    assert built.p == (6, 6, 6, 6)
    data = [[1, 2], [3, 4], [5, 6], [7, 8]]
    data = [[v % built.field.q for v in row] for row in data]
    cols = built.encode(data)
    # every other node's data is recoverable from any single survivor
    assert verify_mds(built).is_mds


def test_built_codes_meet_bounds(mrmub_codes, mub_codes):
    for n, k, m, built in mrmub_codes:
        rep = bounds(n, k, [m] * n)
        grid, average = update_bandwidth(built.code)
        assert average == rep.min_update_bandwidth
        assert redundancy(built.code) == rep.min_redundancy
        assert redundancy(built.code) == rep.min_redundancy_at_min_bandwidth
        assert feasible(n, k, [m] * n, built.p, grid).feasible
    for n, k, m, built in mub_codes:
        rep = bounds(n, k, m)
        grid, average = update_bandwidth(built.code)
        assert average == rep.min_update_bandwidth
        assert redundancy(built.code) == rep.min_redundancy_at_min_bandwidth
        assert built.p == rep.bandwidth_profile
        assert feasible(n, k, m, built.p, grid).feasible


def test_built_codes_are_mds(mrmub_codes, mub_codes):
    for _, _, _, built in mrmub_codes + mub_codes:
        rep = verify_mds(built)
        assert rep.is_mds, rep
        assert rep.insufficient_subset is not None


def reference_pipeline_encode(built, data):
    """Encode through the intermediate-vector pipeline, without the factor
    grids: node i's row-wise MDS encoding hosts column d-1 on node
    (i+d) mod n, and node j folds the vectors it hosts, in cyclic arrival
    order j+1, ..., j+n-1, through the columns of its assembly matrix."""
    n = built.n
    hosted = [
        RowWiseMdsBase(built.field, n - 1, built.k, g).encode(x) if g is not None else None
        for g, x in zip(built.generators, data)
    ]
    columns = []
    for j in range(n):
        incoming = []
        for d in range(1, n):
            i = (j + d) % n
            if built.m[i]:
                incoming += hosted[i].col((j - i) % n - 1)
        columns.append(list(data[j]) + built.assemblies[j].apply(incoming))
    return columns


def column_map_encode(code, data):
    flat = [v for x in data for v in x]
    return [s.apply(flat) for s in code.column_maps()]


def test_pipeline_encode_equals_direct_encode(mrmub_codes, mub_codes, fig1b_code, fig3_code):
    rng = random.Random(101)
    built_list = [fig1b_code, fig3_code] + [b for *_, b in mrmub_codes + mub_codes]
    trials = 1000
    for t in range(trials):
        built = built_list[t % len(built_list)]
        data = random_fill(built, rng)
        cols = built.encode(data)
        assert cols == reference_pipeline_encode(built, data)
        assert cols == column_map_encode(built, data)


@pytest.mark.parametrize("q", [8, 25])
@pytest.mark.parametrize("rounds", [1, 2])
def test_flat_transform_encode_with_own_terms(rounds, q):
    # Flat views of transformed codes carry nonzero diagonal blocks, which the
    # encoder adds as each node's own term.
    code = iterate_transform(build_mrmub(4, 2, 2, field=GF(q)), rounds)
    flat = code.as_irregular_code()
    assert any(not flat.construction[i][i].is_zero() for i in range(flat.n))
    rng = random.Random(rounds * q)
    for _ in range(50):
        data = random_fill(flat, rng)
        cols = flat.encode(data)
        assert cols == column_map_encode(flat, data)
        stored = code.encode(data)
        assert cols == [
            [col[r] for r in code.data_rows(j) + code.parity_rows(j)]
            for j, col in enumerate(stored)
        ]


def test_decode_every_erasure_pattern(mrmub_codes, mub_codes, fig1b_code, fig3_code):
    rng = random.Random(55)
    built_list = [(4, 2, fig1b_code), (4, 2, fig3_code)]
    built_list += [(n, k, b) for n, k, _, b in mrmub_codes + mub_codes]
    for n, k, built in built_list:
        patterns = []
        for size in range(0, n - k + 1):
            patterns.extend(combinations(range(n), size))
        fills = [random_fill(built, rng) for _ in range(20)]
        for data in fills:
            cols = built.encode(data)
            for erased in patterns:
                known = {j: cols[j] for j in range(n) if j not in erased}
                assert built.decode_columns(known) == cols, (n, k, erased)


def test_decode_rejects_too_many_erasures(fig1b_code, rng):
    data = random_fill(fig1b_code, rng)
    cols = fig1b_code.encode(data)
    with pytest.raises(TooManyErasuresError):
        fig1b_code.decode_columns({0: cols[0]})


def test_decode_rejects_wrong_column_length(fig1b_code, rng):
    cols = fig1b_code.encode(random_fill(fig1b_code, rng))
    with pytest.raises(InvalidParamsError):
        fig1b_code.decode_columns({0: cols[0][:-1], 1: cols[1]})  # parity symbol cut


def test_receiver_blocks_have_full_rank(mrmub_codes, mub_codes):
    # Any n-k erased senders leave every survivor a solvable assembly system.
    cases = [(code, True) for code in mrmub_codes] + [(code, False) for code in mub_codes]
    for (n, k, _, built), balanced in cases:
        f = built.field
        for erased in combinations(range(n), n - k):
            for j in range(n):
                if j in erased:
                    continue
                blocks = [built.code.B[e][j] for e in erased]
                stacked = hstack(f, blocks)
                assert rank(stacked) == stacked.cols
                if balanced:
                    assert stacked.rows == stacked.cols  # square and invertible


def test_symbol_spread_at_least_n_minus_k(mrmub_codes):
    # Every data symbol must reach n-k foreign parities (holds for all k).
    for n, k, m, built in mrmub_codes:
        code = built.code
        for i in range(n):
            for sym in range(m):
                touched = sum(
                    1
                    for j in range(n)
                    if j != i and any(
                        code.construction[i][j].data[r][sym]
                        for r in range(code.construction[i][j].rows)
                    )
                )
                assert touched >= n - k


def test_column_weight_consequences(mrmub_codes):
    # Heavy-column and complexity bounds; sound for k <= n-2 (two or more
    # simultaneously erased blocks force distinct receiver columns).
    for n, k, m, built in mrmub_codes:
        if k > n - 2:
            continue
        code = built.code
        heavy_total = 0
        for j in range(n):
            heavy_j = 0
            for i in range(n):
                if i == j:
                    continue
                heavy_j += sum(
                    1 for w in column_weights(code.construction[i][j]) if w >= 2
                )
            assert heavy_j >= (k - 1) * m // k
            heavy_total += heavy_j
        assert heavy_total >= (k - 1) * m * n // k
        assert update_complexity(code) >= Fraction(n - k) + Fraction(k - 1, k)


def test_threshold_n_minus_1_complexity_counterexample():
    # With a single tolerated erasure the receiver blocks are 1-column wide,
    # so nothing forces heavy columns: the balanced builds sit at the
    # definitional optimum (one parity touched per symbol), strictly below
    # the k <= n-2 closed-form bound.
    for n in (3, 4, 5):
        k = n - 1
        built = build_mrmub(n, k, k)
        rep = bounds(n, k, [k] * n)
        assert redundancy(built.code) == rep.min_redundancy
        assert update_bandwidth(built.code)[1] == rep.min_update_bandwidth
        assert verify_mds(built).is_mds
        assert update_complexity(built.code) == Fraction(n - k)
        assert update_complexity(built.code) < Fraction(n - k) + Fraction(k - 1, k)


# Update complexity of default builds, whose assemblies are systematic, and of
# the same builds over dense Vandermonde assemblies: the fixtures, the bench's
# update_stream code, cli_pipeline's specs a and c, and recovery's transformed
# code.  The systematic form keeps redundancy, the per-edge update bandwidth
# and the MDS property; it lowers only how many parity symbols each data
# symbol reaches.
COMPLEXITY_CASES = [
    # n, k, data profile, q (None: default field), pairing rounds,
    # complexity with the default assemblies, with Vandermonde assemblies
    (4, 2, [2] * 4, None, 0, Fraction(5, 2), Fraction(3)),
    (5, 3, [3] * 5, None, 0, Fraction(8, 3), Fraction(3)),
    (6, 3, [3] * 6, None, 0, Fraction(13, 3), Fraction(7)),
    (10, 6, [12] * 10, None, 0, Fraction(59, 6), Fraction(57, 2)),
    (8, 4, [8, 8, 4, 4, 0, 12, 4, 8], None, 0, Fraction(53, 8), Fraction(1381, 48)),
    (6, 3, [6] * 6, 65536, 0, Fraction(19, 3), Fraction(31, 2)),
    (6, 4, [4] * 6, None, 3, Fraction(41, 8), Fraction(23, 4)),
]


def complexity_build(n, k, m_vec, q, rounds, vandermonde):
    """The default build, or the same build over p_j x sum_{i != j} m_i/k
    Vandermonde assemblies."""
    field = GF(q) if q else default_field(n, k, m_vec)
    dense = None
    if vandermonde:
        p_vec = bounds(n, k, m_vec).bandwidth_profile
        dense = [vandermonde_columns(field, p_vec[j],
                                     sum(m_vec[i] // k for i in range(n) if i != j))
                 for j in range(n)]
    if len(set(m_vec)) == 1:
        code = build_mrmub(n, k, m_vec[0], field=field, assembly=dense[0] if dense else None)
    else:
        code = build_mub(n, k, m_vec, field=field, assemblies=dense)
    return iterate_transform(code, rounds) if rounds else code


@pytest.mark.parametrize("n, k, m_vec, q, rounds, systematic, dense", COMPLEXITY_CASES,
                         ids=["4-2-2", "5-3-3", "6-3-3", "10-6-12", "spec-a", "spec-c",
                              "recovery"])
def test_update_complexity_is_pinned(n, k, m_vec, q, rounds, systematic, dense):
    default = complexity_build(n, k, m_vec, q, rounds, vandermonde=False)
    vandermonde = complexity_build(n, k, m_vec, q, rounds, vandermonde=True)
    assert update_complexity(default) == systematic
    assert update_complexity(vandermonde) == dense
    rep = bounds(default.n, default.k, default.m)
    assert systematic >= rep.update_complexity_bound
    for code in (default, vandermonde):
        assert redundancy(code) == rep.min_redundancy_at_min_bandwidth
        assert update_bandwidth(code)[0] == [list(row) for row in rep.bandwidth_assignment]
        assert verify_mds(code).is_mds


def test_build_mub_uniform_matches_mrmub_parameters():
    a = build_mrmub(5, 2, 2)
    b = build_mub(5, 2, [2] * 5)
    assert a.p == b.p
    assert update_bandwidth(a.code)[1] == update_bandwidth(b.code)[1]


def test_build_mub_small_balanced_redundancy():
    built = build_mub(4, 2, [2, 2, 2, 0])
    assert built.p == (2, 2, 2, 2)
    assert redundancy(built.code) == 8
    assert bounds(4, 2, [2, 2, 2, 0]).min_redundancy_at_min_bandwidth == 8


def test_build_mrmub_matches_bounds_example():
    built = build_mrmub(5, 3, 3)
    assert redundancy(built.code) == 10
    rep = bounds(5, 3, [3] * 5)
    assert redundancy(built.code) == rep.min_redundancy
    assert update_bandwidth(built.code)[1] == rep.min_update_bandwidth


@settings(max_examples=120, deadline=None)
@given(payload=st.data())
def test_any_two_columns_recover_random_data(fig1b_code, payload):
    bits = payload.draw(st.lists(st.integers(0, 1), min_size=8, max_size=8))
    keep = payload.draw(st.sets(st.sampled_from(range(4)), min_size=2, max_size=2))
    fill = [bits[0:2], bits[2:4], bits[4:6], bits[6:8]]
    cols = fig1b_code.encode(fill)
    known = {j: cols[j] for j in keep}
    assert fig1b_code.decode_columns(known) == cols
