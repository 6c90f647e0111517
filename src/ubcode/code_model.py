"""Irregular array codes: the code class, decoding, metrics, bounds,
verification and the code-spec document.

An irregular array code stores, in node j, a data vector of m_j symbols and
a parity vector of p_j symbols; the parities are linear in all data vectors
through per-edge construction matrices (grid entry [i][j] maps node i's data
into node j's parity).  Any k of the n columns must suffice to recover every
data symbol.  Every code in the package, built, loaded or transformed, is an
``IrregularArrayCode`` given by that flat grid; ``transform.TransformedCode``
is its one structured subclass.

Two things read that grid, each through its own derived form.  The codec
(encode, erasure decode, column maps, ``verify_mds``, the transformed root
step) reads one form per node: its parity columns, one per global data
symbol, every grid entry into that node read off once.  The update protocol
reads it one edge at a time, through each edge's factor pair, and is checked
against the codec.

Codewords are plain lists of n columns, each a list of canonical field
integers in the code's row layout (data-then-parity, or per half of a
transformed code), checked once where they enter: ``encode``'s fill,
``decode_columns``' columns, each read of ``repair``'s fetch; the
``_encode`` and ``_repair`` behind those entries trust their input.  Metrics
the theory pins down as rationals are exact ``fractions.Fraction``s, never
floats.

Erasure decoding returns the kept columns as given and rebuilds only the
erased ones.  Each code keeps one elimination per survivor set it has been
asked to decode, filled lazily on first use: at most one entry per distinct
kept set, with no option to size or turn it off.  An entry holds three
blocks as columns in the field's row form (``linalg.pack_rows``: one
``bytes`` per column in GF(2)..GF(256), an entry list elsewhere): the kept
parity rows on the kept data, the left-null-space rows and the left
inverse.  For R kept parity rows that is R field symbols per kept data
symbol, and R x R for the other two together.  The bound is combinatorial
in n: up to sum_{e <= n-k} C(n, e) entries (``build_mrmub(20, 10, 10)``,
over GF(32): 616,666 entries, about 25 GB of packed columns, if every
pattern is decoded).  The first decode of a kept set runs
``linalg.left_inverse`` on ``P_{S,E}``, about twice the work of one solve
of ``[P_{S,E} | b]``, and packs the three blocks.  Every decode, first or
later, then makes three ``linalg.combine_rows`` (residue, agreement check,
solve), and ``_column`` one more per erased column; in GF(2)..GF(256) each
is one ``bytes.translate`` per nonzero coefficient and one int XOR per sum.

The code-spec document has one owner, this module: ``code_to_json`` writes
and ``code_from_json`` reads every code, a transformed one as its root's
field, params and factor grids plus ``transform: {pairs, g}``.

Code objects are immutable once constructed, apart from that cache, the
parity columns and the factor grids with their packed columns, which are
filled lazily; the metric/verification functions are pure, so subset
checks and decodes may run concurrently over shared instances, and a race
only computes an entry twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain, combinations
from math import comb

from .finite_field import Field, GF
from .linalg import (
    InconsistentSystemError,
    Matrix,
    UnderdeterminedSystemError,
    _is_row,
    combine_rows,
    full_rank_decompose,
    left_inverse,
    pack_rows,
    rank,
    solve,
)

FEASIBILITY_SUBSET_LIMIT = 10**6
MDS_SUBSET_LIMIT = 10**4


class InvalidParamsError(ValueError):
    """Code parameters are not ints, or violate 1 <= k < n, nonnegativity or B > 0."""


class DivisibilityError(InvalidParamsError):
    """Node data counts must be divisible by the reconstruction threshold."""


class EnumerationTooLargeError(ValueError):
    """A brute-force check would need to enumerate too many subsets."""


class TooManyErasuresError(ValueError):
    """More columns erased than the code can tolerate."""


class NodeOutOfRangeError(ValueError):
    """A node index outside 0..n-1 was addressed."""


def _is_count(v) -> bool:  # a nonnegative int; a bool is no count (see _is_a)
    return _is_a(v, int) and v >= 0


def validate_dimensions(n: int, k: int, m) -> tuple[int, ...]:
    """The one check of (n, k, m): ints with 1 <= k < n, and m a list or tuple
    of n nonnegative ints, not all 0.  Returns m as a tuple."""
    if not (_is_count(n) and _is_count(k)) or n < 2 or not 1 <= k < n:
        raise InvalidParamsError(f"need 1 <= k < n with n >= 2, got n={n!r} k={k!r}")
    if not isinstance(m, (list, tuple)):
        raise InvalidParamsError(f"data profile {m!r} invalid for n={n}")
    m = tuple(m)
    if len(m) != n or not all(_is_count(v) for v in m):
        raise InvalidParamsError(f"data profile {m} invalid for n={n}")
    if sum(m) == 0:
        raise InvalidParamsError("code must store at least one data symbol")
    return m


class IrregularArrayCode:
    """An irregular array code given by its threshold k and its flat
    ``construction`` grid.

    ``construction[i][j]`` is the p_j x m_i map from node i's data into node
    j's parity, so the grid gives the shape: n, m, p and the field, the one
    field of every block, are read off it once, and a grid that is not n x n
    or a block of another shape or field is rejected by name.  The class
    owns the shape, the node and data-fill checks,
    the row layout (per node, its data and parity rows, stored once as
    tuples in ``_rows``: data then parity here, and one layout shared by
    every node of a transformed code), the parity columns, erasure decoding,
    repair and the update protocol, whose factor grids come from the grid,
    one edge at a time on first use, or from ``from_factors``, which derives
    the grid from them.  Encoding, decoding and the column maps read only
    the parity columns, never a factor grid, and the protocol never reads
    the parity columns, so an encode is an independent check of what the
    update protocol ships.
    """

    repair_schedule = None  # optional download plans: node -> [(source, row), ...]

    def __init__(self, k: int, construction):
        n = len(construction)
        if any(len(row) != n for row in construction):
            raise InvalidParamsError(f"construction is not a {n}x{n} grid of blocks")
        m = tuple(row[0].cols for row in construction)
        validate_dimensions(n, k, m)
        p = tuple(block.rows for block in construction[0])
        field = construction[0][0].field
        for i, row in enumerate(construction):
            for j, b in enumerate(row):
                if (b.rows, b.cols, b.field) != (p[j], m[i], field):
                    raise InvalidParamsError(f"construction[{i}][{j}] is {b.rows}x{b.cols} over "
                                             f"{b.field}, expected {p[j]}x{m[i]} over {field}")
        self.field, self.n, self.k, self.m, self.p = field, n, k, m, p
        self.col_lens = tuple(mi + pi for mi, pi in zip(m, p))
        self.construction = construction
        self._rows = tuple((tuple(range(a)), tuple(range(a, c))) for a, c in zip(m, self.col_lens))

    @classmethod
    def from_factors(cls, k: int, A, B) -> "IrregularArrayCode":
        """Zero-diagonal code whose construction matrices are ``B[i][j] @ A[i][j]``;
        the diagonal takes its shapes and field from the neighbouring edges."""
        n = len(A)
        if n < 2:  # node 0's only neighbour would be node 0 itself
            raise InvalidParamsError(f"need 1 <= k < n with n >= 2, got n={n} k={k}")
        construction = [
            [
                Matrix.zeros(A[i][i - 1].field, B[i - 1][i].rows, A[i][i - 1].cols) if i == j
                else B[i][j] @ A[i][j]
                for j in range(n)
            ]
            for i in range(n)
        ]
        code = cls(k, construction)
        code.factors = A, B
        return code

    @property
    def code(self) -> "IrregularArrayCode":
        """The code itself, for callers that read a built code's ``.code``."""
        return self

    def check_node(self, node: int) -> None:
        """Reject a node index that is not an int in 0..n-1 (a bool is none)."""
        if type(node) is not int or not 0 <= node < self.n:
            raise NodeOutOfRangeError(f"node {node!r} outside 0..{self.n - 1}")

    def check_data(self, data) -> None:
        """Reject a data fill that is not one vector (a list or tuple) of m_j
        field elements per node."""
        if not _is_row(data, self.n) or not all(map(_is_row, data, self.m)):
            raise InvalidParamsError(f"data vectors do not match the data profile {self.m}")
        for x in data:
            for v in x:
                self.field.validate(v)

    def data_rows(self, j: int) -> tuple[int, ...]:
        return self._rows[j][0]

    def parity_rows(self, j: int) -> tuple[int, ...]:
        return self._rows[j][1]

    def data_offsets(self) -> list[int]:
        offs = [0]
        for mi in self.m:
            offs.append(offs[-1] + mi)
        return offs

    @cached_property
    def _parity_columns(self) -> list[list]:
        """Per node j, the codec's one form of the grid: one column per
        global data symbol, its p_j coefficients into j's parity (empty when
        p_j = 0), in the field's row form (``linalg.pack_rows``), read off
        every ``construction[i][j]``, the diagonal included.  ``_column``,
        ``_kept_parity_columns``, ``column_maps`` and the transformed root
        step read it; the update protocol never does."""
        return [pack_rows(self.field, [c for row in self.construction for c in zip(*row[j].data)]
                          if pj else [()] * sum(self.m))  # no rows: zip would give no column
                for j, pj in enumerate(self.p)]

    def column_maps(self) -> list[Matrix]:
        """Per-column matrices mapping the global data vector to the stored symbols.

        Column j holds its own data verbatim at ``data_rows(j)``, one unit
        row each, and the rows of ``_parity_columns[j]`` at ``parity_rows(j)``.
        """
        offs = self.data_offsets()
        maps = []
        for j, cols in enumerate(self._parity_columns):
            rows = [None] * self.col_lens[j]
            for t, r in enumerate(self.data_rows(j)):
                rows[r] = [0] * offs[-1]
                rows[r][offs[j] + t] = 1
            for r, row in zip(self.parity_rows(j), zip(*cols)):
                rows[r] = row
            maps.append(Matrix.of(self.field, self.col_lens[j], offs[-1], rows))
        return maps

    @cached_property
    def factors(self) -> tuple[list[list[Matrix]], list[list[Matrix]]]:
        """The grids (A, B): each off-diagonal ``construction[i][j]`` is
        ``B[i][j] @ A[i][j]``, one ``full_rank_decompose``, both factors of
        rank the edge's update bandwidth.  A computes the vector the sender
        ships, B folds it into the parity; the diagonal has no pair."""
        n = self.n
        A = [[None] * n for _ in range(n)]
        B = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j:
                    B[i][j], A[i][j] = full_rank_decompose(self.construction[i][j])
        return A, B

    A = property(lambda self: self.factors[0], doc="Sender-side factor grid.")
    B = property(lambda self: self.factors[1], doc="Receiver-side factor grid.")

    @cached_property
    def _own_terms(self) -> list[bool]:
        return [not self.construction[i][i].is_zero() for i in range(self.n)]

    @cached_property
    def _factor_columns(self) -> list[tuple]:
        """Per sender i, its factors as columns in the field's row form
        (``linalg.pack_rows``), built on the first ``parity_terms`` call:
        ``(width, a_cols, edges, own)``.  ``a_cols`` are the columns of every
        nonzero ``A[i][j]``'s rows stacked in ascending j, ``width`` rows in
        all; ``edges`` holds ``(j, start, stop, b_cols)`` per such edge, its
        payload's slice of the stack and ``B[i][j]``'s columns; ``own`` is the
        nonzero diagonal's columns, or None."""
        f = self.field
        A, B = self.factors
        out = []
        for i in range(self.n):
            edges, stacked = [], []
            for j, a_map in enumerate(A[i]):
                if j != i and a_map.rows:
                    edges.append((j, len(stacked), len(stacked) + a_map.rows,
                                  pack_rows(f, zip(*B[i][j].data))))
                    stacked += a_map.data
            own = pack_rows(f, zip(*self.construction[i][i].data)) if self._own_terms[i] else None
            out.append((len(stacked), pack_rows(f, zip(*stacked)), edges, own))
        return out

    def parity_terms(self, i: int, x: list[int]):
        """Node i's data x reaching parity, as the update protocol ships it.

        Yields ``(j, payload, addend)`` for each peer j in ascending order:
        ``payload = A[i][j] x`` is the intermediate vector sent over edge
        i -> j (rank-0 edges send nothing and are skipped) and ``addend =
        B[i][j] payload`` is what j adds to its flat parity, in
        ``parity_rows(j)`` order.  A nonzero diagonal (a transformed code's
        paired nodes) comes last as ``(i, None, addend)``.  Each product is
        one ``combine_rows`` over ``_factor_columns[i]``: one for every
        payload at once, one per addend on the payload shipped, and one for
        the diagonal.  Every list yielded is fresh, never a cached column.
        """
        f = self.field
        width, a_cols, edges, own = self._factor_columns[i]
        payloads = combine_rows(f, x, a_cols, width)
        for j, start, stop, b_cols in edges:
            payload = list(payloads[start:stop])
            yield j, payload, list(combine_rows(f, payload, b_cols, self.p[j]))
        if own is not None:
            yield i, None, list(combine_rows(f, x, own, self.p[i]))

    def intermediates(self, i: int, x_i: list[int]) -> list[tuple[int, list[int]]]:
        """The n-1 per-destination vectors node i ships, cyclic placement order:
        ``parity_terms``' payloads, with [] on an edge that ships nothing."""
        sent = {j: payload for j, payload, _ in self.parity_terms(i, x_i)}
        return [(j, sent.get(j, [])) for j in ((i + d) % self.n for d in range(1, self.n))]

    def encode(self, data: list[list[int]]) -> list[list[int]]:
        """The codeword of ``data``: the one encode entry and its input check.
        ``_encode`` then runs on the checked fill and trusts it."""
        self.check_data(data)
        return self._encode(data)

    def _encode(self, data: list[list[int]]) -> list[list[int]]:
        """Columns [x_j ; p_j], one ``_column`` per node: p_j is the
        ``combine_rows`` of the global data over ``_parity_columns[j]`` that
        every decode and repair takes.  It reads no factor grid, so
        ``Cluster``'s audit checks the update protocol against it."""
        return [self._column(j, data) for j in range(self.n)]

    def as_irregular_code(self) -> "IrregularArrayCode":
        """A plain data-then-parity ``IrregularArrayCode`` on this code's grid."""
        return IrregularArrayCode(self.k, self.construction)

    @cached_property
    def _eliminations(self) -> dict:
        """The decoder's elimination per kept set, filled on first use; the
        module docstring states how large it can grow."""
        return {}

    def decode_columns(self, known: dict[int, list[int]]) -> list[list[int]]:
        """Recover the full codeword from the surviving columns.

        Checks that ``known`` is a dict and each key, column and symbol,
        then returns the kept columns as given (copies; the solve checks that
        they agree) and builds only the erased ones: data from the solve,
        parity through ``_column``."""
        if not isinstance(known, dict):
            raise InvalidParamsError(f"known columns must be a dict of node -> column, "
                                     f"got {type(known).__name__}")
        for j, col in known.items():
            self.check_node(j)
            if not _is_row(col, self.col_lens[j]):
                raise InvalidParamsError(f"column {j} is not a list of {self.col_lens[j]} symbols")
            for v in col:
                self.field.validate(v)
        data = solve_data_from_columns(self, known)
        return [list(known[j]) if j in known else self._column(j, data) for j in range(self.n)]

    def _column(self, j: int, data: list[list[int]]) -> list[int]:
        """Column j of the codeword of ``data``: its parity is one
        ``combine_rows`` of the global data over ``_parity_columns[j]``, one
        term per nonzero data symbol."""
        col = [0] * self.col_lens[j]
        parity = combine_rows(self.field, [v for x in data for v in x],
                              self._parity_columns[j], self.p[j])
        for rows, values in ((self.data_rows(j), data[j]), (self.parity_rows(j), parity)):
            for r, v in zip(rows, values):
                col[r] = v
        return col

    def repair(self, failed: int, fetch) -> list[int]:
        """Rebuild column ``failed`` from what ``fetch(source, rows)`` returns.

        The one repair entry, its input check and its download store: a read
        fetches the rows not yet downloaded from that source, once each in
        request order, and must get a list or tuple of one field element per
        row (ValueError names the source otherwise); repeats come from the
        store.  ``_repair`` then runs on the checked reads and trusts them.
        """
        self.check_node(failed)
        store: dict[int, dict[int, int]] = {}  # source -> row -> symbol

        def checked(src: int, rows) -> list[int]:
            seen = store.setdefault(src, {})
            new = [r for r in dict.fromkeys(rows) if r not in seen]
            got = fetch(src, new) if new else []
            if not _is_row(got, len(new)):
                what = (f"{len(got)} symbols" if isinstance(got, (list, tuple))
                        else f"{type(got).__name__}, not a list,")
                raise ValueError(f"node {src} returned {what} for {len(new)} rows")
            values = [self.field.validate(v) for v in got]
            seen.update(zip(new, values))
            # Every row new and none repeated: the download is the answer.
            return values if len(new) == len(rows) else [seen[r] for r in rows]

        return self._repair(failed, checked)

    def _repair(self, failed: int, fetch) -> list[int]:
        """Rebuild one column from a registered plan or k full columns.

        With a plan in ``repair_schedule`` for the failed node, download its
        (source, row) symbols in plan order.  They and the lost symbols are
        linear in the global data, so the weights W solving ``reads^T W =
        lost_map^T`` rebuild the column as the downloads' combination of W's
        rows, one ``combine_rows``.  The
        reads must be independent and span the lost column; otherwise
        ``solve`` raises.  Without a plan, download the first k surviving
        columns, solve for the data and build the lost column alone.
        """
        plan = None if self.repair_schedule is None else self.repair_schedule.get(failed)
        if plan is None:
            sources = [j for j in range(self.n) if j != failed][: self.k]
            known = {j: fetch(j, range(self.col_lens[j])) for j in sources}
            return self._column(failed, solve_data_from_columns(self, known))
        maps = self.column_maps()
        values = [v for src, row in plan for v in fetch(src, [row])]
        reads = Matrix.of(self.field, len(plan), maps[failed].cols,
                          [maps[src].data[row] for src, row in plan])
        weights = solve(reads.transpose(), maps[failed].transpose())
        return list(combine_rows(self.field, values, pack_rows(self.field, weights.data),
                                 weights.cols))


def _kept_parity_columns(code: IrregularArrayCode, kept, nodes) -> tuple[int, list]:
    """The kept columns S's parity rows, stacked in order, R rows in all,
    read as columns, one per data symbol of ``nodes``, in node order:
    ``(R, columns)``.  On E, the complement of S, they are ``P_{S,E}``
    transposed, and on S itself ``P_{S,K}`` transposed.  A column joins the
    kept nodes' ``_parity_columns`` for its symbol, one ``bytes`` join in
    GF(2)..GF(256); no factor grid is read."""
    offs = code.data_offsets()
    packed = code.field.mul_tables is not None  # the row form rule of linalg.pack_rows
    per_node = [[col for i in nodes for col in code._parity_columns[j][offs[i] : offs[i + 1]]]
                for j in kept]
    columns = [b"".join(parts) if packed else list(chain.from_iterable(parts))
               for parts in zip(*per_node)]
    return sum(code.p[j] for j in kept), columns


def solve_data_from_columns(code, known: dict[int, list[int]]) -> list[list[int]]:
    """Solve for every data vector given a subset of intact columns.

    The one erasure decoder for every code; it reads only the parity columns.
    Survivors hold their data verbatim; taking the kept data's share,
    ``P_{S,K} x_K``, off the kept parity leaves the residue ``b = P_{S,E}
    x_E`` (see ``_kept_parity_columns``).  ``P_{S,E}`` is eliminated once per code
    and kept set S (``_elimination``): the survivors agree exactly when its
    left-null-space rows annihilate b, and its left inverse then gives the
    erased data.  Each of the three products (residue, check, solve) is one
    ``combine_rows`` over cached columns, one term per nonzero coefficient.
    Its entry points, ``decode_columns`` and ``repair``'s fetch, check the
    keys, lengths and symbols.  Raises TooManyErasuresError beyond n-k
    erasures, InconsistentSystemError when the survivors contradict each
    other and UnderdeterminedSystemError when they do not pin the data
    down, on every call.
    """
    n, f = code.n, code.field
    kept = tuple(sorted(known))
    erased = [i for i in range(n) if i not in known]
    if len(erased) > n - code.k:
        raise TooManyErasuresError(f"{len(erased)} erasures exceed tolerance {n - code.k}")
    neg_kept_block, null_cols, inverse, block_rank = _elimination(code, kept)
    data = [[known[j][r] for r in code.data_rows(j)] if j in known else None for j in range(n)]
    parity = [known[j][r] for j in kept for r in code.parity_rows(j)]
    rhs = combine_rows(f, [v for j in kept for v in data[j]] + [1],
                       neg_kept_block + pack_rows(f, [parity]), len(parity))
    if any(combine_rows(f, rhs, null_cols, len(parity) - block_rank)):
        raise InconsistentSystemError("system has no solution")
    unknowns = sum(code.m[i] for i in erased)
    if inverse is None:
        raise UnderdeterminedSystemError(f"column rank {block_rank} < {unknowns} unknowns")
    x = combine_rows(f, rhs, inverse, unknowns)
    pos = 0
    for i in erased:
        data[i] = list(x[pos : pos + code.m[i]])
        pos += code.m[i]
    return data


def _elimination(code: IrregularArrayCode, kept: tuple[int, ...]) -> tuple:
    """What decoding kept set S needs, computed once from one
    ``left_inverse(P_{S,E})`` and kept in ``code._eliminations``: the
    columns of ``-P_{S,K}`` (the kept parity rows on the kept data
    columns), of the left-null-space rows and of the left inverse (None
    when ``P_{S,E}`` has no full column rank), each in the field's row form
    (``linalg.pack_rows``), and the rank of ``P_{S,E}``.  Both blocks are
    read off ``_kept_parity_columns``."""
    cache = code._eliminations
    if kept not in cache:
        f = code.field
        erased = [i for i in range(code.n) if i not in kept]
        rows, erased_cols = _kept_parity_columns(code, kept, erased)
        kept_block = _kept_parity_columns(code, kept, kept)[1]
        inverse, null_rows = left_inverse(
            Matrix.of(f, len(erased_cols), rows, erased_cols).transpose())
        minus_one = f.neg(1)
        cache[kept] = (
            pack_rows(f, kept_block if minus_one == 1
                      else (f.scale_row(minus_one, col) for col in kept_block)),
            pack_rows(f, zip(*null_rows.data)),  # no columns when there are no rows
            None if inverse is None else pack_rows(f, zip(*inverse.data)),
            rows - null_rows.rows,
        )
    return cache[kept]


# -- metrics -----------------------------------------------------------------


def update_bandwidth(code: IrregularArrayCode):
    """Per-edge minimum symbol counts and their node average, exact.

    Entry [i][j] is the rank of the construction matrix from i into j, the
    fewest symbols an update of node i must ship to node j; the average over
    source nodes is the code's update bandwidth.
    """
    n = code.n
    grid = [[0] * n for _ in range(n)]
    total = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            r = rank(code.construction[i][j])
            grid[i][j] = r
            total += r
    return grid, Fraction(total, n)


def redundancy(code: IrregularArrayCode) -> int:
    return sum(code.p)


def zero_diagonal(code: IrregularArrayCode) -> IrregularArrayCode:
    """Equivalent code with every node's own-data parity contribution removed.

    Off-diagonal matrices (and hence redundancy and update bandwidth) are
    unchanged; codewords map bijectively by subtracting the diagonal term
    from each parity vector.
    """
    if not any(code._own_terms):
        return code
    return IrregularArrayCode.from_factors(code.k, *code.factors)


def update_complexity(code: IrregularArrayCode) -> Fraction:
    """Average number of parity symbols rewritten per single-symbol change.

    Counts nonzero entries of the off-diagonal construction matrices (the
    zero-diagonal normal form charges nothing for a node's own column).
    """
    touched = 0
    for i in range(code.n):
        for j in range(code.n):
            if i == j:
                continue
            touched += sum(
                1 for row in code.construction[i][j].data for v in row if v
            )
    return Fraction(touched, sum(code.m))


# -- closed-form bounds -------------------------------------------------------


@dataclass(frozen=True)
class BoundsReport:
    """Closed-form optima for an (n, k, m) parameter set, in input node order.

    water_level drives the minimum-redundancy profile; min_update_bandwidth
    and update_complexity_bound are exact rationals.  The fields tied to the
    divisibility condition (min_redundancy_at_min_bandwidth and its unique
    profile) are None when the theory leaves them open, and
    update_complexity_bound is None for k = n-1, where the paper's bound does
    not hold.  At k = n-1 the cyclic bandwidth_assignment need not support
    bandwidth_profile, and ``build_mub`` exceeds min_redundancy_at_min_bandwidth.
    Both optima are reachable at once (MR-MUB) exactly when
    min_redundancy_at_min_bandwidth == min_redundancy, with the forced shape
    (m, bandwidth_profile).
    """

    n: int
    k: int
    m: tuple[int, ...]
    water_level: int
    min_redundancy: int
    min_update_bandwidth: Fraction
    min_redundancy_at_min_bandwidth: int | None
    update_complexity_bound: Fraction | None
    redundancy_profile: tuple[int, ...]
    bandwidth_profile: tuple[int, ...] | None
    bandwidth_assignment: tuple[tuple[int, ...], ...]


def bounds(n: int, k: int, m) -> BoundsReport:
    """Water level, minimum redundancy, minimum update bandwidth and their
    achieving profiles for an (n, k, m) irregular array code."""
    m = validate_dimensions(n, k, m)
    big_b = sum(m)
    order = sorted(range(n), key=lambda i: (-m[i], i))
    ms = [m[i] for i in order]

    mu = max(ms[n - k - 1], -(-big_b // k))

    # A minimum-redundancy parity profile: the first n-k ranks are forced,
    # the rest absorb the displaced data greedily up to their headroom.
    ps = [max(mu - ms[i], 0) for i in range(n - k)] + [0] * k
    remaining = sum(ms[: n - k])
    for i in range(n - k, n):
        take = min(max(mu - ms[i], 0), remaining)
        ps[i] = take
        remaining -= take
    if remaining:
        raise AssertionError("water-level profile failed to absorb all data")
    redundancy_profile = _unsort(ps, order)

    gamma_min = Fraction(big_b, n) + Fraction(n - k - 1, n) * sum(
        -(-mi // k) for mi in m
    )

    # Bandwidth-optimal per-edge assignment, filled in input order from the
    # sorted ranks: the w_r cyclically-nearest successor ranks receive the
    # floor share, all other destinations the ceiling share.
    assignment = [[0] * n for _ in range(n)]
    for r, i in enumerate(order):
        lo, hi = ms[r] // k, -(-ms[r] // k)
        w = k * hi - ms[r]
        for d in range(1, n):
            assignment[i][order[(r + d) % n]] = lo if d <= w else hi

    if k == n - 1:
        bandwidth_profile = redundancy_profile
    elif all(mi % k == 0 for mi in m):
        bandwidth_profile = _bandwidth_profile(n, k, m)
    else:
        bandwidth_profile = None

    return BoundsReport(
        n=n,
        k=k,
        m=m,
        water_level=mu,
        min_redundancy=sum(redundancy_profile),
        min_update_bandwidth=gamma_min,
        min_redundancy_at_min_bandwidth=(None if bandwidth_profile is None
                                         else sum(bandwidth_profile)),
        update_complexity_bound=None if k == n - 1 else Fraction(n - k) + Fraction(k - 1, k),
        redundancy_profile=redundancy_profile,
        bandwidth_profile=bandwidth_profile,
        bandwidth_assignment=tuple(tuple(row) for row in assignment),
    )


def _unsort(values, order) -> tuple[int, ...]:
    out = [0] * len(values)
    for ranked, original in enumerate(order):
        out[original] = values[ranked]
    return tuple(out)


def bandwidth_optimal_profile(n: int, k: int, m) -> tuple[int, ...]:
    """Parity profile supporting optimal update bandwidth, in input order.

    Node j must be able to absorb the per-edge shares of any n-k
    simultaneously erased peers, so its parity count is the largest such
    share sum: (sum of the n-k+1 largest data counts minus its own) / k for
    the n-k largest nodes, (sum of the n-k largest) / k for the rest.
    Requires k to divide every data count: the one divisibility check.
    """
    m = validate_dimensions(n, k, m)
    if any(mi % k for mi in m):
        raise DivisibilityError(f"k={k} must divide every entry of {m}")
    return _bandwidth_profile(n, k, m)


def _bandwidth_profile(n: int, k: int, m: tuple[int, ...]) -> tuple[int, ...]:
    """``bandwidth_optimal_profile`` on checked, divisible dimensions."""
    order = sorted(range(n), key=lambda i: (-m[i], i))
    ms = [m[i] for i in order]
    head = sum(ms[: n - k + 1])
    tail = sum(ms[: n - k])
    ps = [(head - ms[j]) // k if j < n - k else tail // k for j in range(n)]
    return _unsort(ps, order)


# -- existence / feasibility ---------------------------------------------------


@dataclass(frozen=True)
class Feasibility:
    """Outcome of the exhaustive erased-subset necessary-condition check."""

    feasible: bool
    witness: tuple[int, ...] | None = None
    violated: str | None = None  # "access" | "capacity"
    detail: str = ""


def feasible(n: int, k: int, m, p, bandwidth_matrix) -> Feasibility:
    """Check the two necessary conditions over every erased subset of size n-k.

    For each candidate erased set E the survivors must offer every erased
    node enough per-edge bandwidth to re-derive its data (access), and the
    survivors' parity capacity must cover all erased data (capacity).
    Returns the first violated subset as a witness.  p and every row of
    ``bandwidth_matrix`` must be a list or tuple of n nonnegative ints.
    """
    m = validate_dimensions(n, k, m)
    if not _is_row(p, n) or not all(_is_count(v) for v in p):
        raise InvalidParamsError(f"parity profile {p!r} invalid for n={n}")
    if not _is_row(bandwidth_matrix, n) or not all(_is_row(row, n) for row in bandwidth_matrix):
        raise InvalidParamsError(f"bandwidth matrix must be {n}x{n}")
    if not all(_is_count(v) for row in bandwidth_matrix for v in row):
        raise InvalidParamsError("bandwidth matrix entries must be nonnegative ints")
    if comb(n, n - k) > FEASIBILITY_SUBSET_LIMIT:
        raise EnumerationTooLargeError(
            f"C({n},{n - k}) subsets exceed {FEASIBILITY_SUBSET_LIMIT}"
        )
    g = bandwidth_matrix
    for erased in combinations(range(n), n - k):
        survivors = [j for j in range(n) if j not in erased]
        for i in erased:
            if sum(g[i][j] for j in survivors) < m[i]:
                return Feasibility(
                    False,
                    erased,
                    "access",
                    f"node {i} cannot push {m[i]} symbols to the survivors",
                )
        capacity = sum(
            min(p[j], sum(g[i][j] for i in erased)) for j in survivors
        )
        need = sum(m[i] for i in erased)
        if need > capacity:
            return Feasibility(
                False,
                erased,
                "capacity",
                f"erased data {need} exceeds surviving capacity {capacity}",
            )
    return Feasibility(True)


# -- MDS verification -----------------------------------------------------------


@dataclass(frozen=True)
class MdsReport:
    is_mds: bool
    witness: tuple[int, ...] | None = None
    insufficient_subset: tuple[int, ...] | None = None
    detail: str = ""


def verify_mds(code) -> MdsReport:
    """Check the reconstruction threshold, one rank test per column subset.

    Every k-subset of columns must determine every data symbol, and some
    (k-1)-subset must fail, either by raw symbol count or by rank deficiency,
    so the code is exactly (n, k).  On the systematic view a kept set S holds
    its own data verbatim, so eliminating those identity rows leaves

        rank(stacked column maps of S) = sum(m_S) + rank(P_{S,E}),

    where E is the erased complement and ``P_{S,E}`` is S's parity rows on
    E's data columns.  S determines the data iff ``rank(P_{S,E}) == sum(m_E)``.
    """
    n, k = code.n, code.k
    if comb(n, k) > MDS_SUBSET_LIMIT:
        raise EnumerationTooLargeError(f"C({n},{k}) exceeds {MDS_SUBSET_LIMIT}")
    total = sum(code.m)

    def erased_rank(subset) -> tuple[int, int]:
        """rank(P_{S,E}) and its column count, ranked on its transpose."""
        rows, erased_cols = _kept_parity_columns(code, subset,
                                                 [i for i in range(n) if i not in subset])
        return rank(Matrix.of(code.field, len(erased_cols), rows, erased_cols)), len(erased_cols)

    for subset in combinations(range(n), k):
        got, unknowns = erased_rank(subset)
        if got < unknowns:
            return MdsReport(
                False, subset, None,
                f"columns {subset}: column rank {total - unknowns + got} < {total} unknowns",
            )

    for subset in combinations(range(n), k - 1):
        symbols = sum(code.col_lens[j] for j in subset)
        if symbols < total:
            return MdsReport(True, None, subset, "symbol count below data size")
        got, unknowns = erased_rank(subset)
        if got < unknowns:
            return MdsReport(True, None, subset, "rank deficient")
    return MdsReport(
        False, None, None, f"every {k - 1}-subset already determines the data"
    )


# -- serialization ---------------------------------------------------------------


def matrix_to_json(m: Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "entries": [list(row) for row in m.data]}


class SpecSchemaError(ValueError):
    """A code-spec document lacks a key or holds a value of the wrong type."""


def spec_value(doc, path: tuple, kind: type, item: type | None = None):
    """The value at ``path`` (dict keys, list indices) of a spec document.

    It must be a ``kind``; with ``item`` given, a list of ``item`` values.
    JSON booleans are not ints.
    """
    value = doc
    try:
        for key in path:
            value = value[key]
    except (KeyError, IndexError, TypeError):
        raise SpecSchemaError(f"spec has no key {_key_name(path)}") from None
    if not _is_a(value, kind) or (
        item is not None and not all(_is_a(v, item) for v in value)
    ):
        what = kind.__name__ if item is None else f"a list of {item.__name__}"
        raise SpecSchemaError(f"spec key {_key_name(path)} must be {what}")
    return value


def _is_a(value, kind: type) -> bool:
    """isinstance, except that a JSON boolean is no int (bool subclasses int)."""
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def _key_name(path: tuple) -> str:
    return path[0] + "".join(
        f"[{key}]" if isinstance(key, int) else f".{key}" for key in path[1:]
    )


def matrix_from_json(field: Field, doc: dict, path: tuple) -> Matrix:
    """The matrix stored at ``path`` of a spec document.

    Entries outside the field, or a grid that does not match ``rows`` x
    ``cols``, raise ``SpecSchemaError`` naming the entries key.
    """
    rows = spec_value(doc, path + ("rows",), int)
    cols = spec_value(doc, path + ("cols",), int)
    entries = spec_value(doc, path + ("entries",), list, list)
    try:
        return Matrix(field, rows, cols, entries)
    except ValueError as exc:
        raise SpecSchemaError(f"spec key {_key_name(path + ('entries',))}: {exc}") from None


def code_to_json(code: IrregularArrayCode) -> dict:
    """Code-spec document: field, params and the two factor grids of the root
    (the untransformed code at the bottom of a ``TransformedCode`` chain),
    and for a transformed code ``transform: {pairs, g}``, its pairs in round
    order and the mixer g, the field's primitive element.

    Construction matrices are re-derived as B @ A on load; diagonal entries
    are stored as empty matrices, so the root must be in zero-diagonal form.
    """
    from .transform import TransformedCode  # transform imports this module

    root = code
    while isinstance(root, TransformedCode):
        root = root.base
    if any(root._own_terms):
        raise InvalidParamsError(
            "serialize zero_diagonal(code): diagonal contributions cannot be stored"
        )
    n = root.n
    empty = {"rows": 0, "cols": 0, "entries": []}
    doc = {
        "field": root.field.to_json(),
        "params": {
            "n": n,
            "k": root.k,
            "m": list(root.m),
            "p": list(root.p),
            "q": root.field.q,
        },
        "matrices": {
            name: [
                [empty if i == j else matrix_to_json(grid[i][j]) for j in range(n)]
                for i in range(n)
            ]
            for name, grid in zip("AB", root.factors)
        },
    }
    if root is not code:
        doc["transform"] = {"pairs": [list(p) for p in code.pairs], "g": code.field.primitive}
    return doc


def code_from_json(obj: dict) -> IrregularArrayCode:
    """Rebuild a code from its spec document: the root, then one
    ``TransformedCode`` per pair of an optional ``transform`` entry.

    A missing or ill-typed key, a diagonal entry that is not the empty
    matrix, a mixer g other than the field's primitive element or a pair
    that is not two nodes raises ``SpecSchemaError`` naming the key.  The
    stored params are checked: n, k and m before any matrix is read, p's
    length and q against the field, and (m, p) against what the matrices
    give.
    """
    from .transform import TransformedCode  # transform imports this module

    stored = spec_value(obj, ("field",), dict)
    field = GF(spec_value(obj, ("field", "q"), int))
    if stored.get("primitive") not in (None, field.primitive) or (
        stored.get("modulus") or None
    ) != (list(field.modulus) if field.modulus else None):
        raise InvalidParamsError("field tables in file do not match this build")
    n, k, q = (spec_value(obj, ("params", key), int) for key in ("n", "k", "q"))
    m, p = (tuple(spec_value(obj, ("params", key), list, int)) for key in ("m", "p"))
    validate_dimensions(n, k, m)
    if len(p) != n or q != field.q:
        raise InvalidParamsError(f"params p={list(p)}, q={q} do not fit n={n} over GF({field.q})")

    def grid(name):
        return [
            [None if i == j else matrix_from_json(field, obj, ("matrices", name, i, j))
             for j in range(n)]
            for i in range(n)
        ]

    grids = grid("A"), grid("B")
    for path in (("matrices", name, i, i) for name in "AB" for i in range(n)):
        if spec_value(obj, path, dict) != {"rows": 0, "cols": 0, "entries": []}:
            raise SpecSchemaError(f"spec key {_key_name(path)} must be an empty matrix")
    code = IrregularArrayCode.from_factors(k, *grids)
    if (code.m, code.p) != (m, p):
        raise InvalidParamsError(f"params m={list(m)}, p={list(p)} do not match the "
                                 f"matrices' m={list(code.m)}, p={list(code.p)}")
    if "transform" in obj:
        if spec_value(obj, ("transform", "g"), int) != field.primitive:
            raise SpecSchemaError(f"spec key transform.g must be {field.primitive}, "
                                  f"the primitive element of GF({field.q})")
        for t in range(len(spec_value(obj, ("transform", "pairs"), list))):
            pair = spec_value(obj, ("transform", "pairs", t), list, int)
            if len(pair) != 2:
                raise SpecSchemaError(f"spec key transform.pairs[{t}] must hold two nodes")
            code = TransformedCode(code, tuple(pair))
    return code
