"""Dense matrix algebra over GF(q).

A ``Matrix`` is an immutable value: its rows are tuples of canonical field
integers, fixed at construction, so matrices hash, compare by value and can
be shared across threads freely.  Every operation builds its rows and wraps
them in a new matrix.  Zero-row and zero-column matrices are first-class
values: nodes holding no data produce genuinely empty factor matrices.
Elimination always pivots on the first nonzero entry in column order, so
every decomposition here is deterministic and reproducible.  ``rref`` and
``rank`` share one elimination loop per row form (packed byte rows for
GF(2)..GF(256), entry lists otherwise): ``rref`` clears each pivot's column
above and below it, while ``rank`` is forward elimination, clearing only
below, and counts the same pivots without building a matrix.  Products
take the same two forms, chosen by ``pack_rows`` and summed by
``combine_rows``: a row of ``a @ b`` is the sum of a's entries times b's
rows, in GF(2)..GF(256) one ``bytes.translate`` per nonzero entry and one
int XOR per sum.  ``Matrix.apply``, the matrix-vector product of the flat
codec and the update protocol, stays scalar on plain symbol lists.
"""

from __future__ import annotations

from .finite_field import Field


class SingularMatrixError(ValueError):
    """Matrix inversion requested for a rank-deficient square matrix."""


class InconsistentSystemError(ValueError):
    """Linear system has no solution."""


class UnderdeterminedSystemError(ValueError):
    """Linear system coefficient matrix is column-rank deficient."""


class FieldTooSmallError(ValueError):
    """The field has too few elements for the requested construction."""


class ShapeMismatchError(ValueError):
    """Operand dimensions, or the fields they are over, are incompatible."""


def _is_row(v, n: int) -> bool:  # a list or tuple of n entries
    return isinstance(v, (list, tuple)) and len(v) == n


class Matrix:
    """A rows x cols matrix over ``field``; ``data`` is a tuple of row tuples.
    The constructor checks the shape (data is a list or tuple of ``rows``
    rows, each a list or tuple of ``cols`` entries) and every entry; no data
    gives zeros."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows: int, cols: int, data=None):
        if data is None:
            data = ((0,) * cols,) * rows
        elif not (_is_row(data, rows) and all(_is_row(r, cols) for r in data)):
            raise ShapeMismatchError(f"data does not match shape {rows}x{cols}")
        else:
            data = tuple(tuple(map(field.validate, row)) for row in data)
        self.field, self.rows, self.cols, self.data = field, rows, cols, data

    @classmethod
    def of(cls, field: Field, rows: int, cols: int, data) -> "Matrix":
        """Wrap rows already known to be canonical entries of ``field`` and of
        shape rows x cols, without checking them: the constructor for every
        matrix computed inside the package."""
        m = cls.__new__(cls)
        m.field, m.rows, m.cols, m.data = field, rows, cols, tuple(map(tuple, data))
        return m

    @classmethod
    def from_rows(cls, field: Field, data: list[list[int]]) -> "Matrix":
        """The matrix whose rows are ``data``: a list or tuple of lists or
        tuples, one per row, all as long as the first."""
        if not isinstance(data, (list, tuple)) or data and not isinstance(data[0], (list, tuple)):
            raise ShapeMismatchError(f"rows {data!r} are not a list of lists")
        return cls(field, len(data), len(data[0]) if data else 0, data)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls.of(field, n, n, ((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)))

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols)

    # -- structure ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.rows == self.rows
            and other.cols == self.cols
            and other.data == self.data
        )

    def __hash__(self) -> int:
        return hash((self.field, self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"Matrix({self.field!r}, {self.rows}x{self.cols}, {self.data})"

    def col(self, j: int) -> list[int]:
        return [self.data[i][j] for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix.of(
            self.field, self.cols, self.rows, zip(*self.data) if self.rows else [()] * self.cols
        )

    def take_rows(self, idxs) -> "Matrix":
        return Matrix.of(self.field, len(idxs), self.cols, [self.data[i] for i in idxs])

    def take_cols(self, idxs) -> "Matrix":
        return Matrix.of(
            self.field, self.rows, len(idxs), [[row[j] for j in idxs] for row in self.data]
        )

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.data for v in row)

    # -- arithmetic ----------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows or self.field != other.field:
            raise ShapeMismatchError(f"cannot multiply {self.rows}x{self.cols} over {self.field} "
                                     f"by {other.rows}x{other.cols} over {other.field}")
        f = self.field
        brows = pack_rows(f, other.data)
        return Matrix.of(f, self.rows, other.cols,
                         [combine_rows(f, srow, brows, other.cols) for srow in self.data])

    def apply(self, vec: list[int]) -> list[int]:
        """Matrix-vector product on a plain symbol list."""
        if len(vec) != self.cols:
            raise ShapeMismatchError(f"vector length {len(vec)} != cols {self.cols}")
        f = self.field
        out = [0] * self.rows
        for i, row in enumerate(self.data):
            acc = 0
            for a, x in zip(row, vec):
                if a and x:
                    acc = f.add(acc, f.mul(a, x))
            out[i] = acc
        return out


def hstack(field: Field, blocks: list[Matrix]) -> Matrix:
    """Concatenate blocks left-to-right; zero-column blocks are skipped."""
    eff = [b for b in blocks if b.cols > 0]
    rows = eff[0].rows if eff else (blocks[0].rows if blocks else 0)
    if any(b.rows != rows for b in eff):
        raise ShapeMismatchError("hstack blocks disagree on row count")
    return Matrix.of(
        field, rows, sum(b.cols for b in eff),
        [[v for b in eff for v in b.data[i]] for i in range(rows)],
    )


def vstack(field: Field, blocks: list[Matrix]) -> Matrix:
    """Concatenate blocks top-to-bottom; zero-row blocks are skipped."""
    eff = [b for b in blocks if b.rows > 0]
    cols = eff[0].cols if eff else (blocks[0].cols if blocks else 0)
    if any(b.cols != cols for b in eff):
        raise ShapeMismatchError("vstack blocks disagree on column count")
    return Matrix.of(field, sum(b.rows for b in eff), cols, [row for b in eff for row in b.data])


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form and pivot columns.

    Pivot selection is the first nonzero entry scanning rows top-down within
    each column left-to-right, which makes the result (and everything built
    on it) deterministic.  Fields with byte multiply tables (characteristic
    2, q <= 256) eliminate on packed rows; every other field on entry lists.
    """
    rows, pivots = _eliminate(m, True)
    if m.field.mul_tables is not None:
        rows = [row.to_bytes(m.cols, "little") for row in rows]
    return Matrix.of(m.field, m.rows, m.cols, rows), pivots


def rank(m: Matrix) -> int:
    """The number of ``rref``'s pivots, by forward elimination: the same
    pivots, but each clears only the rows below it and no matrix is built."""
    return len(_eliminate(m, False)[1])


def _eliminate(m: Matrix, clear_above: bool) -> tuple[list, list[int]]:
    """The elimination behind ``rref`` and ``rank``: its rows, in the path's
    own form, and its pivot columns.  Each pivot row is scaled to lead with 1
    and cleared from the rows below it, and from those above when
    ``clear_above``; without it the rows end in row-echelon form."""
    if m.field.mul_tables is not None:
        return _eliminate_packed(m, clear_above)
    f = m.field
    r = [list(row) for row in m.data]
    pivots: list[int] = []
    prow = 0
    for col in range(m.cols):
        if prow >= m.rows:
            break
        src = next((i for i in range(prow, m.rows) if r[i][col] != 0), None)
        if src is None:
            continue
        if src != prow:
            r[prow], r[src] = r[src], r[prow]
        # The pivot row is zero left of col, so only the tail from col changes.
        tail = r[prow][col:]
        if tail[0] != 1:
            tail = f.scale_row(f.inv(tail[0]), tail)
            r[prow][col:] = tail
        for i in range(0 if clear_above else prow + 1, m.rows):
            row = r[i]
            c = row[col]
            if c and i != prow:
                row[col:] = f.sub_scaled_row(row[col:], c, tail)
        pivots.append(col)
        prow += 1
    return r, pivots


def _eliminate_packed(m: Matrix, clear_above: bool) -> tuple[list[int], list[int]]:
    """``_eliminate`` with each row one int, entry j in byte j (little-endian).

    A row is scaled by one ``bytes.translate`` through the field's multiply
    table and two rows are added by one int XOR (characteristic 2).  The
    pivot rule is the entry-list loop's, so the result is identical.
    """
    f = m.field
    tables = f.mul_tables
    width = m.cols
    from_bytes = int.from_bytes
    rows = [from_bytes(bytes(row), "little") for row in m.data]
    pivots: list[int] = []
    prow = 0
    for col in range(width):
        if prow >= m.rows:
            break
        shift = 8 * col
        src = next((i for i in range(prow, m.rows) if rows[i] >> shift & 255), None)
        if src is None:
            continue
        if src != prow:
            rows[prow], rows[src] = rows[src], rows[prow]
        pivot = rows[prow].to_bytes(width, "little")
        lead = pivot[col]
        if lead != 1:
            pivot = pivot.translate(tables[f.inv(lead)])
            rows[prow] = from_bytes(pivot, "little")
        translate = pivot.translate
        for i in range(0 if clear_above else prow + 1, m.rows):
            row = rows[i]
            c = row >> shift & 255
            if c and i != prow:
                rows[i] = row ^ from_bytes(translate(tables[c]), "little")
        pivots.append(col)
        prow += 1
    return rows, pivots


def pack_rows(field: Field, rows) -> list:
    """``rows`` in the field's row form, the one ``combine_rows`` takes:
    packed ``bytes`` where ``field.mul_tables`` exists (GF(2)..GF(256)),
    entry lists otherwise."""
    if field.mul_tables is not None:
        return [bytes(row) for row in rows]
    return [list(row) for row in rows]


def combine_rows(field: Field, coeffs, rows, width: int):
    """The row sum of a * row over the nonzero coefficients a, each row
    ``width`` entries in the field's row form (see ``pack_rows``).  On
    packed rows a term is one ``bytes.translate`` and terms add by one int
    XOR; on entry lists it is ``combine_lists``.  A row of coefficient 0 is
    not read, and a lone row of coefficient 1 is returned as it is."""
    tables = field.mul_tables
    if tables is None:
        return combine_lists(field, coeffs, rows, width)
    terms = [row if a == 1 else row.translate(tables[a]) for a, row in zip(coeffs, rows) if a]
    if len(terms) == 1:
        return terms[0]
    acc = 0
    for term in terms:
        acc ^= int.from_bytes(term, "little")
    return acc.to_bytes(width, "little")


def combine_lists(field: Field, coeffs, rows, width: int) -> list[int]:
    """``combine_rows`` on entry lists in any field, through the row kernel,
    with the same rules: a row of coefficient 0 is not read (it may be
    None), and a lone row of coefficient 1 is returned as it is."""
    out = None
    for a, row in zip(coeffs, rows):
        if a:
            out = ((row if a == 1 else field.scale_row(a, row)) if out is None
                   else field.sub_scaled_row(out, field.neg(a), row))
    return [0] * width if out is None else out


def left_inverse(m: Matrix) -> tuple[Matrix | None, Matrix]:
    """(L, N) from one ``rref`` of ``[m | I]``, which is ``T [m | I]`` for an
    invertible T.  Its first rank(m) rows carry the pivots on m and the rest
    are zero on m, so their T rows, N, span the left null space.  With m of
    full column rank the first rows are ``[I | L]``, so ``L @ m = I``;
    otherwise L is None."""
    f = m.field
    red, pivots = rref(hstack(f, [m, Matrix.identity(f, m.rows)]))
    r = sum(1 for c in pivots if c < m.cols)
    t = red.take_cols(range(m.cols, m.cols + m.rows))
    return (t.take_rows(range(m.cols)) if r == m.cols else None), t.take_rows(range(r, m.rows))


def invert(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ShapeMismatchError(f"cannot invert {m.rows}x{m.cols} matrix")
    inverse, null_rows = left_inverse(m)
    if inverse is None:
        raise SingularMatrixError(f"matrix of rank {m.rows - null_rows.rows} is singular")
    return inverse


def full_rank_decompose(m: Matrix) -> tuple[Matrix, Matrix]:
    """Factor m into (tall, wide) with both factors of rank equal to rank(m).

    The wide factor is the nonzero rows of the reduced row-echelon form, so
    it contains an identity submatrix on the pivot columns, and the tall
    factor is the corresponding column-submatrix of m itself.  Rank 0 yields
    a pair of empty factors.
    """
    red, pivots = rref(m)
    r = len(pivots)
    wide = red.take_rows(range(r))
    tall = m.take_cols(pivots)
    return tall, wide


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve a @ x = b for the unique x; b may carry several right-hand sides.

    From ``left_inverse(a)``: b is in a's column space exactly when the
    left-null-space rows annihilate it, and x is unique exactly when a has
    a left inverse."""
    if a.rows != b.rows:
        raise ShapeMismatchError(f"lhs has {a.rows} rows, rhs has {b.rows}")
    inverse, null_rows = left_inverse(a)
    if not (null_rows @ b).is_zero():
        raise InconsistentSystemError("system has no solution")
    if inverse is None:
        raise UnderdeterminedSystemError(
            f"column rank {a.rows - null_rows.rows} < {a.cols} unknowns"
        )
    return inverse @ b


def vandermonde_columns(field: Field, r: int, c: int) -> Matrix:
    """r x c matrix whose every selection of r columns is invertible.

    Column j is (1, a_j, a_j^2, ..., a_j^(r-1)) on the j-th element of the
    deterministic field enumeration 0, 1, g, g^2, ...; distinct evaluation
    points make every r-column minor a nonzero Vandermonde determinant.
    """
    if c > field.q:
        raise FieldTooSmallError(
            f"need {c} distinct evaluation points but GF({field.q}) has only {field.q}"
        )
    points = []
    for el in field.elements():
        if len(points) == c:
            break
        points.append(el)
    return Matrix.of(field, r, c, [[field.pow(a, i) for a in points] for i in range(r)])


def column_weights(m: Matrix) -> list[int]:
    return [sum(1 for i in range(m.rows) if m.data[i][j]) for j in range(m.cols)]
