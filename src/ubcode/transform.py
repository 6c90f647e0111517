"""Pairing transformation: double the node size, grant two nodes optimal repair.

One application takes a regular (n, k = n-2) MDS array code, interleaves two
independent codewords, and rewrites a chosen pair of columns so that either
one can be rebuilt from (n-1) * alpha' / 2 downloaded symbols instead of the
naive k full columns.  Columns outside the pair stack the two instances
verbatim.  Of the pair (a, b), a keeps instance 0 of column a, b takes its
instance 1, and each stores a different mix of the two instances of column b,
weighted through the field's primitive element g; the pairing table of
``TransformedCode`` records which half holds what.  The mixing is invertible
because g != 1, which is why the base field must have more than two elements.
Re-applying the transformation with disjoint pairs (descending rotation) makes
every node repair-optimal; with a balanced minimum-redundancy base the result
keeps both the redundancy and the update-bandwidth optima at the doubled
parameters.  ``TransformedCode`` subclasses ``IrregularArrayCode``: it derives
the flat grid from its base's grid and the pairing table, and brings its own
encoder and repair schedules (``_encode`` and ``_repair``, behind the
inherited ``encode`` and ``repair``, which check the fill and each fetched
symbol once).  Its one row layout, shared by every node, is stored where the
flat class keeps its own, for the row accessors.

An r-round codeword is 2^r interleaved codewords of the root (the
untransformed code at the bottom of the chain), and ``_encode`` makes them in
one batched pass.  It splits the fill down the rounds into one block per
root node whose data rows each carry all 2^r instances, computes each root
node's parity as one matrix product, its parity rows, read off the root's
parity columns, times every root node's block stacked, so every nonzero
entry costs one row operation for the whole batch, and joins the columns
back up the rounds.  Every mix and product of that pass is one
``linalg.combine_rows`` on rows in the form ``linalg.pack_rows`` gives the
fill, so in GF(2)..GF(256) the blocks are packed ``bytes`` rows from the
fill to ``_encode``'s return.  It reads only the root's parity columns and
the pairing tables, so it stays independent of the factor grids the update
protocol runs on, which ``Cluster``'s audit checks it against.  Repair reads plain symbol lists and mixes them with
``linalg.combine_lists`` in every field; the base decode and base columns a
paired repair needs (``solve_data_from_columns``, ``_column``) take their
products as ``linalg.combine_rows`` over the base's cached packed columns.
"""

from __future__ import annotations

from functools import cached_property

from .finite_field import Field
from .linalg import (
    FieldTooSmallError, Matrix, _is_row, combine_lists, combine_rows, invert, pack_rows,
)
from .code_model import InvalidParamsError, IrregularArrayCode, _is_count, solve_data_from_columns


class InvalidPairError(ValueError):
    """The requested node pair is out of range or degenerate."""


def _interleave(u, v):
    """u and v alternating: u[0], v[0], u[1], v[1], ..., in the row form
    ``pack_rows`` gave them (a packed row comes back as a ``bytearray``)."""
    out = u + v if isinstance(u, list) else bytearray(u + v)
    out[0::2] = u
    out[1::2] = v
    return out


class TransformedCode(IrregularArrayCode):
    """A base code plus one pairing round; rounds nest by using another
    TransformedCode as the base.  A node stores two contiguous halves, each
    a base column in the base's row layout; the base is regular, so one
    layout, read off the base once into ``_rows``, serves every node.  The
    grid is built lazily, so ``__init__`` sets the shape itself: the base's
    n, k and field, with m and p doubled.  Immutable; repair/update state
    lives in the owning cluster.

    Every method derives from one pairing table, built here:

    - ``halves[j][h] = (x, w)``: half h of node j stores
      w[0] * (instance 0 of base column x) + w[1] * (instance 1 of x);
    - ``homes[x]``: the two (node, half) slots that store base column x;
    - ``unmix[x]``: the inverse of their 2x2 weight matrix, so instance s of
      column x is unmix[x][s][0] * home 0 + unmix[x][s][1] * home 1.

    The flat ``construction`` grid comes from the base's grid and this
    table; the inherited update protocol factors that grid's edges on the
    first update, so inner rounds are never factored.  ``_encode`` does not
    use that grid: it encodes the 2^r root instances in one batch through
    every round's table and the root's parity columns (see the module
    docstring).
    """

    def __init__(self, base, pair: tuple[int, int]):
        n, k = base.n, base.k
        if k != n - 2:
            raise InvalidParamsError(
                f"transformation applies to k = n-2 codes, got ({n}, {k})"
            )
        pairs = getattr(base, "pairs", [])
        if len(pairs) >= (n + 1) // 2:  # each round doubles the node size
            raise InvalidPairError(f"{len(pairs) + 1} rounds exceed ceil({n}/2)")
        field: Field = base.field
        if field.q <= 2:
            raise FieldTooSmallError("pair mixing needs q > 2 (g must differ from 1)")
        # Two distinct node indices, bools refused: code_to_json would write a
        # bool as a JSON boolean, which code_from_json refuses.
        if not (_is_row(pair, 2) and all(_is_count(v) and v < n for v in pair)
                and pair[0] != pair[1]):
            raise InvalidPairError(f"invalid node pair {pair!r} for n={n}")
        a, b = pair
        if len(set(base.m)) != 1 or len(set(base.col_lens)) != 1:
            raise InvalidParamsError("transformation needs a regular (uniform) base code")

        self.base = base
        self.pair = (a, b)
        self.pairs = pairs + [self.pair]
        self.field, self.n, self.k = field, n, k
        self.m, self.p = (tuple(2 * v for v in vals) for vals in (base.m, base.p))
        alpha = self.base_col_len = base.col_lens[0]
        self.col_lens = (2 * alpha,) * n
        # A regular base lays out every node alike; each half holds one of its columns.
        self._rows = (tuple(tuple(h * alpha + r for h in (0, 1) for r in rows)
                            for rows in base._rows[0]),) * n
        halves = self.halves = [[(j, (1, 0)), (j, (0, 1))] for j in range(n)]
        halves[a] = [(a, (1, 0)), (b, (1, field.primitive))]
        halves[b] = [(b, (1, 1)), (a, (0, 1))]
        self.homes = [[(j, h) for j in range(n) for h in (0, 1) if halves[j][h][0] == x]
                      for x in range(n)]
        self.unmix = [
            invert(Matrix.from_rows(field, [halves[j][h][1] for j, h in places])).data
            for places in self.homes
        ]

    @classmethod
    def from_factors(cls, k: int, A, B) -> "TransformedCode":
        raise InvalidParamsError("a transformed code is built from its base and pairs, "
                                 "not from factor grids")

    # -- correspondence -------------------------------------------------------
    #
    # A batch of instances is one flat list per column: a block of rows x I
    # symbols, row-major, so symbol (r, c) of instance c sits at r * I + c.
    # Splitting a round doubles I: instance s of the base column built from
    # batch instance c becomes instance 2c + s, so it is the slice [s::2].

    def _split(self, blocks):
        """Per base column x, the batch of its two instances: each node's
        block is its two halves stacked, and unmix[x] reads x's two homes."""
        f = self.field
        half = len(blocks[0]) // 2  # the code is regular: every block is alike
        out = []
        for places, (r0, r1) in zip(self.homes, self.unmix):
            uv = [blocks[j][h * half : (h + 1) * half] for j, h in places]
            out.append(_interleave(combine_rows(f, r0, uv, half), combine_rows(f, r1, uv, half)))
        return out

    def _join(self, cols):
        """Inverse of ``_split``: node j's block is its halves' weighted mixes
        of the two instances of their base columns."""
        f = self.field
        half = len(cols[0]) // 2
        insts = [(col[0::2], col[1::2]) for col in cols]
        return [combine_rows(f, w, insts[x], half) + combine_rows(f, w2, insts[x2], half)
                for (x, w), (x2, w2) in self.halves]

    # -- codec ------------------------------------------------------------------

    def _encode(self, data: list[list[int]]) -> list[list[int]]:
        """All 2^r root instances in one pass: split the fill down the rounds,
        encode the batch on the root grid, join the columns back up.  The
        batch runs in the field's row form (packed bytes in GF(2)..GF(256),
        see ``linalg.pack_rows``) and comes back as lists once, here."""
        return [list(col) for col in self._encode_batch(pack_rows(self.field, data), 1)]

    def _encode_batch(self, blocks, width: int):
        """This round's columns for a batch of ``width`` instances: each
        node's block holds its data rows with the instances side by side."""
        fills = self._split(blocks)
        if isinstance(self.base, TransformedCode):
            return self._join(self.base._encode_batch(fills, 2 * width))
        # Each parity row of root node j, read off its parity columns, times
        # every root node's data rows stacked, each row holding all instances
        # side by side, is that row of j's parity for the whole batch.
        width *= 2
        batch = [x[r : r + width] for x in fills for r in range(0, len(x), width)]
        cols = []
        for x, parity_cols in zip(fills, self.base._parity_columns):
            for coeffs in zip(*parity_cols):
                x = x + combine_rows(self.field, coeffs, batch, width)
            cols.append(x)
        return self._join(cols)

    @cached_property
    def construction(self) -> list[list[Matrix]]:
        """The flat construction grid (data/parity row order), built once.

        Data half t of node i is home e of base column y = halves[i][t][0],
        and instance s of y's data is unmix[y][s] applied to y's two homes.
        Half h = (x, w) of node j stores w[0] * instance 0 + w[1] * instance
        1 of column x, so ``construction[i][j]`` is the 2x2 block matrix
        whose block (h, t) is the base's flat ``construction[y][x]`` scaled by
        w[0] * unmix[y][0][e] + w[1] * unmix[y][1][e].  The base block
        includes the base's diagonal, and the diagonal blocks here may be
        nonzero: a paired node's parity depends on its own stored data
        through the mixing, which the zero-diagonal normalization removes if
        needed.  Only the base's grid is read, so no round is factored.
        """
        f = self.field
        base = self.base.construction

        def block(i: int, j: int) -> Matrix:
            data_homes = [
                (y, self.homes[y].index((i, t))) for t, (y, _) in enumerate(self.halves[i])
            ]
            rows = []
            for x, w in self.halves[j]:
                scales = [
                    f.add(f.mul(w[0], self.unmix[y][0][e]),
                          f.mul(w[1], self.unmix[y][1][e]))
                    for y, e in data_homes
                ]
                rows += [
                    [v for c, row in zip(scales, parts) for v in f.scale_row(c, row)]
                    for parts in zip(*(base[y][x].data for y, _ in data_homes))
                ]
            return Matrix.of(f, self.p[j], self.m[i], rows)

        return [[block(i, j) for j in range(self.n)] for i in range(self.n)]

    # -- repair -------------------------------------------------------------------

    def _instance_fetch(self, fetch, instance: int):
        """View one base instance through the physical transformed columns.

        Base column x is read from the homes its unmix row weighs: the one
        home that stores the instance alone, or both homes of a mixed column,
        which are then unmixed."""
        alpha = self.base_col_len

        def inner(x, rows):
            w = self.unmix[x][instance]
            (j0, h0), (j1, h1) = self.homes[x]
            u = fetch(j0, [h0 * alpha + r for r in rows]) if w[0] else None
            v = fetch(j1, [h1 * alpha + r for r in rows]) if w[1] else None
            return combine_lists(self.field, w, (u, v), len(rows))

        return inner

    def _repair(self, failed: int, fetch) -> list[int]:
        """Rebuild a column with the round-structured schedule, on checked reads.

        A paired node costs (n-1) * alpha' / 2 symbols: one full instance
        from the unpaired nodes plus the partner's mixed half.  An unpaired
        node repairs each instance through the base code; a physical row
        both instances read is downloaded once, by ``repair``'s store."""
        if failed not in self.pair:
            top, bottom = (self.base._repair(failed, self._instance_fetch(fetch, s))
                           for s in (0, 1))
            return top + bottom
        f = self.field
        alpha = self.base_col_len
        unpaired = [j for j in range(self.n) if j not in self.pair]
        # The failed node stores instance s of one base column alone.  Solve
        # instance s from the unpaired nodes; each lost half then follows from
        # base column x = w[i] * (lost half) + w[1-i] * (surviving home of x).
        s = next(w.index(1) for _, w in self.halves[failed] if 0 in w)
        inst = self._instance_fetch(fetch, s)
        data = solve_data_from_columns(self.base, {j: inst(j, range(alpha)) for j in unpaired})
        out = []
        for h, (x, _) in enumerate(self.halves[failed]):
            i = self.homes[x].index((failed, h))
            w = self.unmix[x][s]
            c = f.inv(w[i])
            d = f.neg(f.mul(c, w[1 - i]))
            j, hh = self.homes[x][1 - i]
            survivor = fetch(j, range(hh * alpha, (hh + 1) * alpha)) if d else None
            out += combine_lists(f, (c, d), (self.base._column(x, data), survivor), alpha)
        return out


def pair_transform(base, pair: tuple[int, int]) -> TransformedCode:
    """One application of the pairing transformation to a regular k = n-2 base."""
    return TransformedCode(base, pair)


def rotation_pairs(n: int, rounds: int) -> list[tuple[int, int]]:
    """Deterministic disjoint-pair coverage: (n-2, n-1), (n-4, n-3), ...;
    with odd n the leftover node 0 pairs with its cyclic successor last.

    The ceil(n/2) cap is also checked in ``TransformedCode``, but only once
    rounds exist; checked here, it stops a huge count before its pair list
    is built."""
    if not _is_count(rounds):
        raise InvalidPairError(f"rounds must be an int >= 0, got {rounds!r}")
    if rounds > (n + 1) // 2:
        raise InvalidPairError(f"{rounds} rounds exceed ceil({n}/2)")
    pairs = []
    for r in range(rounds):
        hi = n - 1 - 2 * r
        if hi < 1:
            pairs.append((0, 1))
        else:
            pairs.append((hi - 1, hi))
    return pairs


def iterate_transform(base, rounds: int):
    """Re-apply the transformation on a fresh pair per round; after
    ceil(n / 2) rounds every node carries a repair-optimal schedule."""
    code = base
    for pair in rotation_pairs(base.n, rounds):
        code = TransformedCode(code, pair)
    return code
