"""Explicit builders for update-bandwidth-optimal codes.

Both constructions place, for every source node i, the columns of a small
row-wise MDS encoding of node i's data on the other n-1 nodes in cyclic
order; node j then folds the vectors it hosts into its parity through the
columns of an "any p_j columns invertible" assembly matrix.  Sending those
same per-edge vectors is the minimal update protocol, so the built codes hit
the update-bandwidth optimum by construction.

``build_mrmub`` handles the balanced profile (every node stores m data
symbols, redundancy is the global minimum); ``build_mub`` handles arbitrary
per-node data counts divisible by k (redundancy is the minimum attainable at
optimal update bandwidth for k <= n-2, and above what ``bounds`` reports at
k = n-1).  The builders assemble the per-edge factor grids and return the
``IrregularArrayCode`` they define, as a ``BuiltCode``: the same class under
its own name, carrying its generators and assembly matrices.
"""

from __future__ import annotations

from math import comb
from itertools import combinations

from .finite_field import Field, GF
from .linalg import Matrix, invert, rank, rref, vandermonde_columns
from .code_model import (
    InvalidParamsError,
    IrregularArrayCode,
    TooManyErasuresError,
    bandwidth_optimal_profile,
    validate_dimensions,
    verify_mds,
)

SELECTION_CHECK_LIMIT = 10**4


class DivisibilityError(ValueError):
    """Node data counts must be divisible by the reconstruction threshold."""


def assert_column_selections_invertible(m: Matrix) -> bool:
    """Check every r-column selection of the r-row matrix m is invertible.

    One elimination brings m to [I_r | P]; left multiplication by an
    invertible matrix keeps the rank of every selection.  A selection S is
    then invertible exactly when P's minor on rows {0..r-1} - S and columns
    S - {0..r-1} is nonsingular (MacWilliams and Sloane, ch. 11, Thm. 8).
    The first dependent selection in ``combinations`` order is reported; a
    matrix with more rows than columns fails at the first, pivot, test.

    Returns False, having checked nothing, when there are more than
    ``SELECTION_CHECK_LIMIT`` selections; True once all of them passed.
    """
    r = m.rows
    if comb(m.cols, r) > SELECTION_CHECK_LIMIT:
        return False
    red, pivots = rref(m)
    if pivots != list(range(r)):
        raise InvalidParamsError(f"columns {tuple(range(r))} are dependent")
    for sel in combinations(range(m.cols), r):
        cols = [j for j in sel if j >= r]
        if not cols:
            continue
        rows = [i for i in range(r) if i not in sel]
        if len(cols) == 1:
            ok = red.data[rows[0]][cols[0]] != 0
        else:
            ok = rank(red.take_rows(rows).take_cols(cols)) == len(cols)
        if not ok:
            raise InvalidParamsError(f"columns {sel} are dependent")
    return True


def checked_matrix(field: Field, given, rows: int, cols: int, what: str):
    """The caller's matrix, or ``systematic_mds_generator(field, rows, cols)``
    when None.

    It must be rows x cols over ``field``, and every rows-column selection
    is checked invertible.  Returns the matrix and whether that is known.
    """
    if given is None:
        m = systematic_mds_generator(field, rows, cols)
    else:
        m = given if isinstance(given, Matrix) else Matrix.from_rows(field, given)
        if m.field != field:
            raise InvalidParamsError(f"{what} is over {m.field}, expected {field}")
        if (m.rows, m.cols) != (rows, cols):
            raise InvalidParamsError(f"{what} is {m.rows}x{m.cols}, expected {rows}x{cols}")
    # Past SELECTION_CHECK_LIMIT the check is skipped.  The default needs
    # none: it is the systematic form [I | P] of a Vandermonde matrix on
    # distinct points, MDS by theorem.  A caller's matrix is then not known
    # good.
    try:
        known = assert_column_selections_invertible(m)
    except InvalidParamsError as exc:
        raise InvalidParamsError(f"{what}: {exc}") from exc
    return m, known or given is None


class RowWiseMdsBase:
    """Reference row-wise systematic MDS encoder of a node's data vector.

    The builders place a generator's columns as sender maps directly; this
    class encodes one row at a time instead.  A data vector of length
    rows*k is reshaped column-major into rows of k symbols; each row is
    encoded by a k x n_out systematic generator whose every k-column
    selection is invertible, so any k output columns recover the vector.
    The row count follows from the vector, so one base serves every node
    that uses the same generator.
    """

    def __init__(self, field: Field, n_out: int, k: int, generator=None):
        if n_out < k:
            raise InvalidParamsError(f"need n_out >= k, got {n_out} < {k}")
        self.field = field
        self.n_out = n_out
        self.k = k
        self.generator = checked_matrix(field, generator, k, n_out, "generator")[0]

    def encode(self, x: list[int]) -> Matrix:
        """rows x n_out matrix whose column d is the vector hosted at offset d+1."""
        rows, rest = divmod(len(x), self.k)
        if rest:
            raise InvalidParamsError(f"data length {len(x)} is not a multiple of {self.k}")
        columns = [x[c * rows : (c + 1) * rows] for c in range(self.k)]
        return Matrix(self.field, self.k, rows, columns).transpose() @ self.generator

    def decode(self, known: dict[int, list[int]]) -> list[int]:
        """Recover the data vector from any k known encoded columns."""
        positions = sorted(known)[: self.k]
        if len(positions) < self.k:
            raise TooManyErasuresError(
                f"need {self.k} encoded columns, have {len(known)}"
            )
        rows = len(known[positions[0]])
        picked = Matrix(self.field, self.k, rows, [known[d] for d in positions])
        # Row c of inverse^T @ picked is data column c: x read column-major.
        columns = invert(self.generator.take_cols(positions)).transpose() @ picked
        return [v for row in columns.data for v in row]


def systematic_mds_generator(field: Field, k: int, n_out: int) -> Matrix:
    """[I_k | parity] generator with every k-column selection invertible:
    the reduced form of a Vandermonde matrix, whose leading k x k block is
    invertible, so the reduction is that block's inverse times the matrix."""
    return rref(vandermonde_columns(field, k, n_out))[0]


def default_field(n: int, k: int, m_vec) -> Field:
    """Smallest binary extension field comfortably fitting both the row-wise
    MDS bases and the assembly matrices, and large enough (q > 2) for the
    repair transformation downstream."""
    need = max(3, n - 1, (n - 1) * max(m_vec) // k + 1)
    w = 2
    while (1 << w) < need:
        w += 1
    return GF(1 << w)


class BuiltCode(IrregularArrayCode):
    """A constructed code: the ``IrregularArrayCode`` its factor grids
    define, with the per-node ``generators`` and ``assemblies`` the builders
    attach and, for fig1b, a registered repair schedule."""


# -- builders ------------------------------------------------------------------


def build_mrmub(n: int, k: int, m: int, field: Field | None = None,
                base_generator=None, assembly=None) -> BuiltCode:
    """Balanced construction: every node stores m data and (n-k)m/k parity
    symbols; redundancy and update bandwidth are both at their minima."""
    validate_dimensions(n, k, [m] * n)
    if m % k:
        raise DivisibilityError(f"k={k} must divide m={m}")
    return _assemble(n, k, [m] * n, field, [base_generator] * n, [assembly] * n)


def build_mub(n: int, k: int, m_vec, field: Field | None = None,
              base_generators=None, assemblies=None) -> BuiltCode:
    """General construction for arbitrary per-node data counts divisible by k,
    at optimal update bandwidth with the least redundancy there for k <= n-2
    (at k = n-1 more than ``bounds`` reports: 7 against 6 for (4, 3, [6, 3, 3, 3]))."""
    m_vec = list(m_vec)
    validate_dimensions(n, k, m_vec)
    if any(mi % k for mi in m_vec):
        raise DivisibilityError(f"k={k} must divide every entry of {m_vec}")
    return _assemble(n, k, m_vec, field, base_generators or [None] * n, assemblies or [None] * n)


def _assemble(n, k, m_vec, field, gens, assemblies):
    """Build the code from per-node generators and assembly matrices, where
    None selects the default: the systematic form [I | P] from
    ``systematic_mds_generator`` for both.  An assembly's first p_j columns
    are then unit vectors, so each of the first p_j symbols node j receives
    enters one of its parity symbols only, and an update rewrites fewer
    parity symbols than under a dense assembly.
    Each distinct matrix is built and checked once and then shared by every
    node that uses it.  A caller's matrix too large for the selection check
    is checked on the assembled code."""
    p_vec = bandwidth_optimal_profile(n, k, m_vec)
    if field is None:
        field = default_field(n, k, m_vec)
    widths = [sum(m_vec[i] // k for i in range(n) if i != j) for j in range(n)]

    built = {}

    def shared(given, rows, cols, what):
        if given is not None and not isinstance(given, Matrix):
            given = Matrix.from_rows(field, given)
        key = (rows, cols, given)
        if key not in built:
            built[key] = checked_matrix(field, given, rows, cols, what)
        return built[key][0]

    generators = [
        None if m_vec[i] == 0 else shared(gens[i], k, n - 1, f"generator {i}")
        for i in range(n)
    ]
    assemblies = [
        shared(assemblies[j], p_vec[j], widths[j], f"assembly {j}") for j in range(n)
    ]

    # Sender-side maps: node i reads its data column-major as m_i/k rows of
    # k symbols and multiplies them by its generator G_i; destination
    # (i+d) mod n hosts column d-1, so row r of that map picks G_i[c][d-1]
    # at data symbol c*(m_i/k) + r.
    grid_a = [[None] * n for _ in range(n)]
    for i in range(n):
        rows = m_vec[i] // k
        for d in range(1, n):
            grid_a[i][(i + d) % n] = Matrix.of(field, rows, m_vec[i], [
                [generators[i].data[c][d - 1] if s == r else 0
                 for c in range(k) for s in range(rows)]
                for r in range(rows)
            ])

    # Receiver-side maps: consecutive column blocks of node j's assembly
    # matrix, one per source in cyclic arrival order j+1, ..., j+n-1.
    grid_b = [[None] * n for _ in range(n)]
    for j in range(n):
        off = 0
        for d in range(1, n):
            i = (j + d) % n
            width = m_vec[i] // k
            grid_b[i][j] = assemblies[j].take_cols(range(off, off + width))
            off += width

    code = BuiltCode.from_factors(k, grid_a, grid_b)
    if not all(known for _, known in built.values()):
        report = verify_mds(code)  # raises EnumerationTooLargeError past its limit
        if not report.is_mds:
            raise InvalidParamsError(f"the given matrices build no MDS code: {report.detail}")
    code.generators = generators  # per node: k x (n-1); None where the node holds no data
    code.assemblies = assemblies  # per node j: p_j x sum(m_i/k) matrix
    return code


# -- worked-example fixtures -----------------------------------------------------

PARITY_CHECK_3_2 = [[1, 0, 1], [0, 1, 1]]


def fig1b() -> BuiltCode:
    """The binary (4, 2) balanced code with 2 data symbols per node.

    Uses the 3-column parity-check base and the hand-picked binary assembly
    matrix; comes with the registered 6-symbol repair schedule (download both
    data symbols from the next node, and one data plus one parity symbol from
    each of the other two, following the cyclic structure).
    """
    built = build_mrmub(
        4, 2, 2, field=GF(2),
        base_generator=PARITY_CHECK_3_2,
        assembly=[[0, 1, 1], [1, 1, 0]],
    )
    schedule = {}
    for f in range(4):
        schedule[f] = [
            ((f + 1) % 4, 0),
            ((f + 1) % 4, 1),
            ((f + 2) % 4, 1),
            ((f + 2) % 4, 2),
            ((f + 3) % 4, 0),
            ((f + 3) % 4, 3),
        ]
    built.repair_schedule = schedule
    return built


def fig3() -> BuiltCode:
    """The binary (4, 2) irregular code with data profile [4, 2, 2, 0].

    Nodes 0..2 use the 3-column systematic bases; node 3 stores parity only.
    Node 1's assembly matrix is the row rotation of the identity that lines
    its parity up with the published grid (the cyclic stacking order and the
    figure disagree on that one column; the symbols are identical).
    """
    return build_mub(
        4, 2, [4, 2, 2, 0], field=GF(2),
        base_generators=[PARITY_CHECK_3_2, PARITY_CHECK_3_2, PARITY_CHECK_3_2, None],
        assemblies=[
            [[1, 0], [0, 1]],
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]],
        ],
    )
