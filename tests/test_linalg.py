import functools
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubcode import linalg
from ubcode.finite_field import GF
from ubcode.linalg import (
    FieldTooSmallError,
    InconsistentSystemError,
    Matrix,
    ShapeMismatchError,
    SingularMatrixError,
    UnderdeterminedSystemError,
    column_weights,
    full_rank_decompose,
    hstack,
    invert,
    left_inverse,
    rank,
    rref,
    solve,
    vandermonde_columns,
    vstack,
)

FIELDS = [GF(2), GF(3), GF(4), GF(5), GF(8)]
# One or more fields of each kind the row kernel branches on: GF(2)-GF(256)
# eliminate on packed byte rows, GF(2^16) is the first characteristic-2 field
# on entry lists, then prime and odd extension fields.
KERNEL_FIELDS = [GF(q) for q in (2, 4, 8, 16, 32, 256, 1 << 16, 3, 7, 9, 25, 27)]


def random_matrix(field, rows, cols, rng):
    return Matrix(
        field, rows, cols,
        [[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)],
    )


def as_lists(m):
    """A matrix's rows as lists, to compare with a reference grid of lists."""
    return [list(row) for row in m.data]


# -- values -----------------------------------------------------------------


@pytest.mark.parametrize("field", [GF(4), GF(25)], ids=repr)  # packed and list rref
def test_every_operation_returns_tuple_rows(field):
    a = Matrix.from_rows(field, [[1, 1], [0, 1]])
    results = [
        Matrix(field, 2, 2, [[1, 0], [0, 1]]), a, Matrix.zeros(field, 2, 3),
        Matrix.identity(field, 3), Matrix.of(field, 1, 2, [[1, 0]]), a.transpose(),
        a.take_rows([1]), a.take_cols([0]), a @ a, hstack(field, [a, a]),
        vstack(field, [a, a]), rref(a)[0], solve(a, a), invert(a),
        vandermonde_columns(field, 2, 3), *full_rank_decompose(a),
    ]
    for m in results:
        assert type(m.data) is tuple and all(type(row) is tuple for row in m.data), m


def test_equal_matrices_hash_equal_and_share_dict_keys(gf4):
    a = Matrix.from_rows(gf4, [[1, 2], [3, 0]])
    b = a.transpose().transpose()
    assert a == b and a is not b and hash(a) == hash(b)
    table = {a: "a"}
    assert table[b] == "a"
    assert Matrix.from_rows(GF(8), [[1, 2], [3, 0]]) not in table
    assert Matrix.zeros(gf4, 2, 0) != Matrix.zeros(gf4, 0, 2)
    assert len({Matrix.zeros(gf4, 2, 0), Matrix.zeros(gf4, 0, 2)}) == 2


# -- rank -----------------------------------------------------------------


def test_rank_examples(gf2):
    assert rank(Matrix.identity(gf2, 3)) == 3
    assert rank(Matrix.zeros(gf2, 2, 4)) == 0
    assert rank(Matrix.from_rows(gf2, [[1, 1], [1, 1]])) == 1
    assert rank(Matrix.zeros(gf2, 0, 0)) == 0
    assert rank(Matrix.zeros(gf2, 0, 5)) == 0


# -- invert ------------------------------------------------------------------


def test_invert_examples(gf2):
    eye = Matrix.identity(gf2, 4)
    assert invert(eye) == eye
    m = Matrix.from_rows(gf2, [[1, 1], [1, 0]])
    assert invert(m) == Matrix.from_rows(gf2, [[0, 1], [1, 1]])
    assert invert(m) @ m == Matrix.identity(gf2, 2)
    with pytest.raises(SingularMatrixError):
        invert(Matrix.from_rows(gf2, [[1, 1], [1, 1]]))
    with pytest.raises(ShapeMismatchError):
        invert(Matrix.zeros(gf2, 2, 3))


def test_invert_twice_is_identity():
    rng = random.Random(5)
    for field in FIELDS:
        done = 0
        while done < 20:
            m = random_matrix(field, 4, 4, rng)
            try:
                inv = invert(m)
            except SingularMatrixError:
                continue
            assert invert(inv) == m
            assert m @ inv == Matrix.identity(field, 4)
            done += 1


# -- full rank decomposition -----------------------------------------------------


def test_full_rank_decompose_examples(gf2):
    eye = Matrix.identity(gf2, 3)
    tall, wide = full_rank_decompose(eye)
    assert tall == eye and wide == eye

    tall, wide = full_rank_decompose(Matrix.zeros(gf2, 2, 3))
    assert (tall.rows, tall.cols) == (2, 0)
    assert (wide.rows, wide.cols) == (0, 3)

    m = Matrix.from_rows(gf2, [[1, 0, 1], [1, 0, 1]])
    tall, wide = full_rank_decompose(m)
    assert as_lists(tall) == [[1], [1]]
    assert as_lists(wide) == [[1, 0, 1]]
    assert tall @ wide == m


def test_full_rank_decompose_random_1000_per_field():
    # Identity B @ A == M with matching ranks, a thousand shapes per field.
    rng = random.Random(99)
    for trial in range(1000 * len(FIELDS)):
        field = FIELDS[trial % len(FIELDS)]
        rows = rng.randrange(0, 6)
        cols = rng.randrange(0, 6)
        m = random_matrix(field, rows, cols, rng)
        tall, wide = full_rank_decompose(m)
        r = rank(m)
        assert tall @ wide == m
        assert tall.cols == wide.rows == r
        assert rank(tall) == rank(wide) == r
        # a product's rank never exceeds either factor's
        assert r <= min(rank(tall), rank(wide)) or r == 0


def test_decomposition_wide_factor_contains_identity(gf4):
    rng = random.Random(3)
    for _ in range(50):
        m = random_matrix(gf4, 3, 5, rng)
        tall, wide = full_rank_decompose(m)
        _, pivots = rref(m)
        sub = wide.take_cols(pivots)
        assert sub == Matrix.identity(gf4, len(pivots))


def test_rank_transpose_random_1000_per_field():
    rng = random.Random(17)
    for trial in range(1000 * len(FIELDS)):
        field = FIELDS[trial % len(FIELDS)]
        m = random_matrix(field, rng.randrange(0, 5), rng.randrange(0, 5), rng)
        assert rank(m) == rank(m.transpose())


# One field per row form and kind: packed GF(2) and GF(8), then on entry
# lists an odd extension field, a prime field and GF(2^16).
RANK_FIELDS = [GF(q) for q in (2, 8, 25, 257, 1 << 16)]


@st.composite
def rank_cases(draw):
    """A matrix of up to 6 x 6, zero-row and zero-column shapes included, as
    a product through an inner dimension that may cap its rank, with some
    rows then zeroed or repeated from an earlier row."""
    field = draw(st.sampled_from(RANK_FIELDS))
    rows, inner, cols = (draw(st.integers(0, 6)) for _ in range(3))

    def grid(r, c):
        entry = st.integers(0, field.q - 1)
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))

    data = [list(row) for row in (
        Matrix(field, rows, inner, grid(rows, inner)) @ Matrix(field, inner, cols, grid(inner, cols))
    ).data]
    for i in range(rows):
        kind = draw(st.sampled_from(["keep", "zero", "repeat"]))
        if kind == "zero":
            data[i] = [0] * cols
        elif kind == "repeat" and i:
            data[i] = list(data[draw(st.integers(0, i - 1))])
    return Matrix(field, rows, cols, data)


@settings(max_examples=300, deadline=None)
@given(rank_cases())
def test_rank_counts_the_rref_pivots_and_ignores_transposition(m):
    assert rank(m) == len(rref(m)[1]) == rank(m.transpose())


def test_rank_eliminates_only_below_each_pivot(monkeypatch):
    # Forward elimination clears at most 11 + 10 + ... + 1 = 66 entries of a
    # full-rank 12 x 12 matrix; a full rref clears about twice as many.
    field = GF(25)
    assert field.mul_tables is None  # the entry-list path, one call per cleared row
    rng = random.Random(29)
    m = Matrix(field, 12, 12, [[rng.randrange(1, 25) for _ in range(12)] for _ in range(12)])
    calls = 0
    sub_scaled_row = type(field).sub_scaled_row

    def counted(self, dst, c, src):
        nonlocal calls
        calls += 1
        return sub_scaled_row(self, dst, c, src)

    monkeypatch.setattr(type(field), "sub_scaled_row", counted)
    assert rank(m) == 12
    assert calls <= 12 * 11 // 2


# -- solve --------------------------------------------------------------------


def test_solve_examples(gf2):
    eye = Matrix.identity(gf2, 3)
    b = Matrix.from_rows(gf2, [[1], [0], [1]])
    assert solve(eye, b) == b

    a = Matrix.from_rows(gf2, [[1, 1], [1, 0]])
    assert as_lists(solve(a, Matrix.from_rows(gf2, [[0], [1]]))) == [[1], [1]]

    with pytest.raises(InconsistentSystemError):
        solve(Matrix.from_rows(gf2, [[1], [0]]), Matrix.from_rows(gf2, [[0], [1]]))

    with pytest.raises(UnderdeterminedSystemError):
        solve(Matrix.from_rows(gf2, [[1, 1]]), Matrix.from_rows(gf2, [[1]]))


def test_solve_round_trip_random():
    rng = random.Random(11)
    for field in FIELDS:
        for _ in range(50):
            a = random_matrix(field, 5, 3, rng)
            if rank(a) < 3:
                continue
            x = Matrix(field, 3, 2, [[rng.randrange(field.q) for _ in range(2)] for _ in range(3)])
            assert solve(a, a @ x) == x


# -- stacking -------------------------------------------------------------------


def test_stacking(gf2):
    a = Matrix.from_rows(gf2, [[1, 0], [0, 1]])
    b = Matrix.from_rows(gf2, [[1, 1], [0, 0]])
    assert as_lists(hstack(gf2, [a, b])) == [[1, 0, 1, 1], [0, 1, 0, 0]]
    assert as_lists(vstack(gf2, [a, b])) == [[1, 0], [0, 1], [1, 1], [0, 0]]
    empty = Matrix.zeros(gf2, 2, 0)
    assert hstack(gf2, [a, empty]) == a
    assert vstack(gf2, [Matrix.zeros(gf2, 0, 2), b]) == b


def test_empty_matrix_product(gf2):
    prod = Matrix.zeros(gf2, 2, 0) @ Matrix.zeros(gf2, 0, 3)
    assert (prod.rows, prod.cols) == (2, 3)
    assert prod.is_zero()


# -- vandermonde -------------------------------------------------------------------


def test_vandermonde_any_r_columns_invertible(gf4):
    v = vandermonde_columns(gf4, 2, 3)
    for pair in itertools.combinations(range(3), 2):
        invert(v.take_cols(pair))
    v4 = vandermonde_columns(gf4, 3, 4)
    for trip in itertools.combinations(range(4), 3):
        invert(v4.take_cols(trip))


def test_vandermonde_does_not_self_check(monkeypatch, gf4):
    # The builders run the selection check once per matrix; this one stays cheap.
    def no_invert(m):
        raise AssertionError("vandermonde_columns inverted a submatrix")

    monkeypatch.setattr(linalg, "invert", no_invert)
    assert vandermonde_columns(gf4, 3, 4).cols == 4


def test_vandermonde_single_row_all_ones(gf4):
    v = vandermonde_columns(gf4, 1, 4)
    assert as_lists(v) == [[1, 1, 1, 1]]


def test_vandermonde_field_too_small(gf2):
    with pytest.raises(FieldTooSmallError):
        vandermonde_columns(gf2, 2, 3)


def test_vandermonde_larger_field_exhaustive():
    f = GF(8)
    v = vandermonde_columns(f, 3, 7)
    for sel in itertools.combinations(range(7), 3):
        invert(v.take_cols(sel))


# -- column weights -------------------------------------------------


def test_column_weights(gf2):
    assert column_weights(Matrix.identity(gf2, 3)) == [1, 1, 1]
    assert column_weights(Matrix.zeros(gf2, 2, 2)) == [0, 0]
    assert column_weights(Matrix.from_rows(gf2, [[1, 1], [0, 1]])) == [1, 2]


def test_apply_matches_matmul(gf4):
    rng = random.Random(2)
    for _ in range(30):
        m = random_matrix(gf4, 3, 4, rng)
        v = [rng.randrange(4) for _ in range(4)]
        col = Matrix(gf4, 4, 1, [[x] for x in v])
        assert m.apply(v) == [r[0] for r in (m @ col).data]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_matmul_and_scale_match_scalar_reference(field):
    # apply stays scalar, so it is the reference for the row-kernel product.
    rng = random.Random(2)
    for _ in range(30):
        m = random_matrix(field, 3, 4, rng)
        x = random_matrix(field, 4, 3, rng)
        prod = m @ x
        for j in range(x.cols):
            assert m.apply(x.col(j)) == prod.col(j)


def reference_product(a, b):
    """Entry-list product with one scalar field multiply and add per term."""
    f = a.field
    return [
        [functools.reduce(f.add, map(f.mul, row, b.col(j)), 0) for j in range(b.cols)]
        for row in a.data
    ]


@st.composite
def packed_products(draw):
    """(a, b) over a field with byte multiply tables, any shape from 0x0 up,
    with some rows and columns of each factor zeroed."""
    field = draw(st.sampled_from([GF(q) for q in (2, 4, 8, 32, 256)]))
    rows, inner, cols = draw(st.tuples(*[st.integers(0, 7)] * 3))

    def matrix(r, c):
        data = draw(st.lists(st.lists(st.integers(0, field.q - 1), min_size=c, max_size=c),
                             min_size=r, max_size=r))
        zero_rows = draw(st.sets(st.integers(0, 6)))
        zero_cols = draw(st.sets(st.integers(0, 6)))
        return Matrix(field, r, c, [
            [0 if i in zero_rows or j in zero_cols else v for j, v in enumerate(row)]
            for i, row in enumerate(data)
        ])

    return matrix(rows, inner), matrix(inner, cols)


@settings(max_examples=300, deadline=None)
@given(packed_products())
def test_packed_matmul_matches_entry_list_reference(case):
    a, b = case
    assert a.field.mul_tables is not None  # the product runs on packed rows
    prod = a @ b
    assert (prod.rows, prod.cols) == (a.rows, b.cols)
    assert as_lists(prod) == reference_product(a, b)
    assert all(type(row) is tuple for row in prod.data)


@pytest.mark.parametrize("field", [GF(8), GF(25)], ids=repr)  # packed and entry-list products
def test_matmul_rejects_a_shape_or_field_mismatch(field):
    a = Matrix.zeros(field, 2, 3)
    with pytest.raises(ShapeMismatchError, match=re.escape(f"2x3 over {field!r} by 2x3")):
        a @ Matrix.zeros(field, 2, 3)
    other = GF(16) if field.q == 8 else GF(27)
    with pytest.raises(ShapeMismatchError, match=re.escape(f"by 3x1 over {other!r}")):
        a @ Matrix.zeros(other, 3, 1)


def test_shape_errors_name_the_shapes(gf4):
    a = Matrix.zeros(gf4, 2, 3)
    with pytest.raises(ShapeMismatchError, match="vector length 2 != cols 3"):
        a.apply([0, 0])
    with pytest.raises(ShapeMismatchError, match="hstack blocks disagree on row count"):
        hstack(gf4, [a, Matrix.zeros(gf4, 3, 1)])
    with pytest.raises(ShapeMismatchError, match="vstack blocks disagree on column count"):
        vstack(gf4, [a, Matrix.zeros(gf4, 1, 2)])
    with pytest.raises(ShapeMismatchError, match="lhs has 2 rows, rhs has 3"):
        solve(a, Matrix.zeros(gf4, 3, 1))


def test_repr_shows_field_shape_and_rows(gf4):
    assert repr(Matrix.from_rows(gf4, [[1, 2], [3, 0]])) == "Matrix(GF(4), 2x2, ((1, 2), (3, 0)))"
    assert repr(Matrix.zeros(gf4, 0, 3)) == "Matrix(GF(4), 0x3, ())"


# -- elimination against a scalar reference ---------------------------------------


def reference_rref(m):
    """Textbook Gauss-Jordan with one scalar field operation per entry and the
    same pivot rule as ``rref``: first nonzero entry, columns left to right."""
    f = m.field
    r = as_lists(m)
    pivots = []
    prow = 0
    for col in range(m.cols):
        if prow == m.rows:
            break
        src = next((i for i in range(prow, m.rows) if r[i][col]), None)
        if src is None:
            continue
        r[prow], r[src] = r[src], r[prow]
        inv = f.inv(r[prow][col])
        r[prow] = [f.mul(inv, v) for v in r[prow]]
        for i in range(m.rows):
            c = r[i][col]
            if i != prow and c:
                r[i] = [f.sub(v, f.mul(c, w)) for v, w in zip(r[i], r[prow])]
        pivots.append(col)
        prow += 1
    return r, pivots


def rank_deficient_matrix(field, rows, cols, rng):
    """Random matrix with some rows replaced by combinations of earlier ones
    and some columns zeroed, so elimination meets skipped pivot columns."""
    data = as_lists(random_matrix(field, rows, cols, rng))
    for i in range(1, rows):
        if rng.random() < 0.3:
            j, k = rng.randrange(i), rng.randrange(i)
            c = rng.randrange(field.q)
            data[i] = [field.add(v, field.mul(c, w)) for v, w in zip(data[k], data[j])]
    for j in range(cols):
        if rng.random() < 0.15:
            for row in data:
                row[j] = 0
    return Matrix(field, rows, cols, data)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_rref_matches_scalar_reference(field):
    rng = random.Random(field.q)
    for trial in range(48):
        # The last 8 are wide: packed rows of hundreds of bits.
        if trial < 40:
            rows, cols = rng.randint(0, 7), rng.randint(0, 9)
        else:
            rows, cols = rng.randint(3, 12), rng.randint(60, 140)
        make = random_matrix if rng.random() < 0.5 else rank_deficient_matrix
        m = make(field, rows, cols, rng)
        before = Matrix(field, m.rows, m.cols, m.data)
        red, pivots = rref(m)
        expected = reference_rref(m)
        assert (as_lists(red), pivots) == expected
        assert rank(m) == len(expected[1])
        assert m == before


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_solve_and_invert_match_scalar_reference(field):
    rng = random.Random(1000 + field.q)
    for trial in range(48):
        # The last 8 solve for 60-140 right-hand sides at once.
        wide = trial >= 40
        n = rng.randint(3, 12) if wide else rng.randint(1, 6)
        make = random_matrix if rng.random() < 0.6 else rank_deficient_matrix
        a = make(field, n, n, rng)
        b = random_matrix(field, n, rng.randint(60, 140) if wide else rng.randint(1, 3), rng)
        red, pivots = reference_rref(hstack(field, [a, Matrix.identity(field, n)]))
        if pivots[:n] == list(range(n)):
            assert as_lists(invert(a)) == [row[n:] for row in red]
        else:
            with pytest.raises(SingularMatrixError):
                invert(a)
        red, pivots = reference_rref(hstack(field, [a, b]))
        if any(p >= n for p in pivots):
            with pytest.raises(InconsistentSystemError):
                solve(a, b)
        elif len(pivots) < n:
            with pytest.raises(UnderdeterminedSystemError):
                solve(a, b)
        else:
            assert as_lists(solve(a, b)) == [row[n:] for row in red]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([GF(2), GF(8), GF(25), GF(1 << 16)]),
    st.integers(0, 8),
    st.integers(0, 8),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_left_inverse_against_reference_rank(field, rows, cols, deficient, seed):
    """L m = I exactly at full column rank, N m = 0, and N has rows - rank
    independent rows; invert's singular message states that rank."""
    rng = random.Random(seed)
    m = (rank_deficient_matrix if deficient else random_matrix)(field, rows, cols, rng)
    r = len(reference_rref(m)[1])
    inverse, null_rows = left_inverse(m)
    if r == cols:
        assert inverse @ m == Matrix.identity(field, cols)
    else:
        assert inverse is None
    assert null_rows.rows == rows - r and null_rows.cols == rows
    assert null_rows @ m == Matrix.zeros(field, rows - r, cols)
    assert len(reference_rref(null_rows)[1]) == rows - r
    if rows == cols and r < cols:
        with pytest.raises(SingularMatrixError, match=f"matrix of rank {r} is singular"):
            invert(m)
