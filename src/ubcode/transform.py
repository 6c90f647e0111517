"""Pairing transformation: double the node size, grant two nodes optimal repair.

One application takes a regular (n, k = n-2) MDS array code, interleaves two
independent codewords, and rewrites a chosen pair of columns so that either
one can be rebuilt from (n-1) * alpha' / 2 downloaded symbols instead of the
naive k full columns.  Columns outside the pair stack the two instances
verbatim; the paired columns mix the two instances of each other's column
through a primitive element g:

    column a: [ instance-0 column of a ; inst-0 of b + g * inst-1 of b ]
    column b: [ inst-0 of b + inst-1 of b ; instance-1 column of a   ]

The mixing is invertible because g != 1, which is why the base field must
have more than two elements.  Re-applying the transformation with disjoint
pairs (descending rotation) makes every node repair-optimal; with a balanced
minimum-redundancy base the result keeps both the redundancy and the update-
bandwidth optima at the doubled parameters.
"""

from __future__ import annotations

from .finite_field import Field
from .linalg import FieldTooSmallError, Matrix, vstack
from .code_model import ArrayCode, CodeParams, InvalidParamsError, IrregularArrayCode


class InvalidPairError(ValueError):
    """The requested node pair is out of range or degenerate."""


def _require_regular(base) -> tuple[int, int]:
    """Return (per-node data length, per-node column length) of a regular base."""
    m = base.m
    lens = base.col_lens
    if any(v != m[0] for v in m) or any(v != lens[0] for v in lens):
        raise InvalidParamsError("transformation needs a regular (uniform) base code")
    return m[0], lens[0]


class TransformedCode(ArrayCode):
    """A base code plus one pairing round; rounds nest by using another
    TransformedCode as the base.  Physical columns hold the two instance
    halves contiguously, so instance reads are contiguous row ranges.
    Immutable; repair/update state lives in the owning cluster."""

    def __init__(self, base, pair: tuple[int, int], g: int | None = None):
        n, k = base.n, base.k
        if k != n - 2:
            raise InvalidParamsError(
                f"transformation applies to k = n-2 codes, got ({n}, {k})"
            )
        field: Field = base.field
        if field.q <= 2:
            raise FieldTooSmallError("pair mixing needs q > 2 (g must differ from 1)")
        a, b = pair
        if a == b or not (0 <= a < n and 0 <= b < n):
            raise InvalidPairError(f"invalid node pair {pair} for n={n}")
        if g is None:
            g = field.primitive
        if g in (0, 1) or field.multiplicative_order(g) != field.q - 1:
            raise InvalidPairError(f"g={g} is not a primitive element of GF({field.q})")
        base_m, base_len = _require_regular(base)

        self.base = base
        self.pair = (a, b)
        self.g = g
        self.field = field
        self.params = CodeParams(
            n, k, (2 * base_m,) * n, (2 * (base_len - base_m),) * n, field.q
        )
        self.base_data_len = base_m
        self.base_col_len = base_len
        self._inv_g1 = field.inv(field.sub(g, 1))
        self._column_maps = None
        self._flat = None

    # -- shape -------------------------------------------------------------

    @property
    def rounds(self) -> int:
        inner = self.base.rounds if isinstance(self.base, TransformedCode) else 0
        return inner + 1

    @property
    def pairs(self) -> list[tuple[int, int]]:
        inner = self.base.pairs if isinstance(self.base, TransformedCode) else []
        return inner + [self.pair]

    def _second_source(self, j: int) -> int:
        a, b = self.pair
        return b if j == a else a if j == b else j

    def data_rows(self, j: int) -> list[int]:
        alpha = self.base_col_len
        top = self.base.data_rows(j)
        bottom = [alpha + r for r in self.base.data_rows(self._second_source(j))]
        return top + bottom

    def parity_rows(self, j: int) -> list[int]:
        data = set(self.data_rows(j))
        return [r for r in range(2 * self.base_col_len) if r not in data]

    # -- correspondence -------------------------------------------------------

    def base_data(self, data: list[list[int]]) -> tuple[list, list]:
        """Split transformed per-node data into the two base-instance fills."""
        f = self.field
        a, b = self.pair
        half = self.base_data_len
        if any(len(v) != 2 * half for v in data) or len(data) != self.n:
            raise InvalidParamsError("data vectors do not match the doubled profile")
        top = [list(v[:half]) for v in data]
        bottom = [list(v[half:]) for v in data]
        x0 = [None] * self.n
        x1 = [None] * self.n
        for j in range(self.n):
            if j in (a, b):
                continue
            x0[j], x1[j] = top[j], bottom[j]
        x0[a] = top[a]
        x1[a] = bottom[b]
        x1[b] = [f.mul(self._inv_g1, f.sub(u, v)) for u, v in zip(bottom[a], top[b])]
        x0[b] = [f.sub(v, w) for v, w in zip(top[b], x1[b])]
        return x0, x1

    def joined_data(self, x0: list, x1: list) -> list[list[int]]:
        """Inverse of base_data: per-node data of the transformed code."""
        f = self.field
        a, b = self.pair
        data = [None] * self.n
        for j in range(self.n):
            if j in (a, b):
                continue
            data[j] = list(x0[j]) + list(x1[j])
        data[a] = list(x0[a]) + [
            f.add(u, f.mul(self.g, v)) for u, v in zip(x0[b], x1[b])
        ]
        data[b] = [f.add(u, v) for u, v in zip(x0[b], x1[b])] + list(x1[a])
        return data

    # -- codec ------------------------------------------------------------------

    def encode(self, data: list[list[int]]) -> list[list[int]]:
        f = self.field
        a, b = self.pair
        x0, x1 = self.base_data(data)
        c0 = self.base.encode(x0)
        c1 = self.base.encode(x1)
        columns = []
        for j in range(self.n):
            if j == a:
                mixed = [f.add(u, f.mul(self.g, v)) for u, v in zip(c0[b], c1[b])]
                columns.append(c0[a] + mixed)
            elif j == b:
                mixed = [f.add(u, v) for u, v in zip(c0[b], c1[b])]
                columns.append(mixed + c1[a])
            else:
                columns.append(c0[j] + c1[j])
        return columns

    def column_maps(self) -> list[Matrix]:
        """Compose the base maps with the instance split and the pair mixing.

        Row t of ``split[s]`` is instance s's base data (flattened) for the
        t-th unit transformed data vector, so instance s of base column j
        maps the transformed data through ``(split[s] @ M_j^T)^T``.
        """
        if self._column_maps is None:
            f = self.field
            a, b = self.pair
            width = 2 * self.base_data_len
            total = sum(self.m)
            split = [Matrix(f, total, self.n * self.base_data_len) for _ in range(2)]
            unit = [[0] * width for _ in range(self.n)]
            for t in range(total):
                node, off = divmod(t, width)
                unit[node][off] = 1
                for s, x in zip(split, self.base_data(unit)):
                    s.data[t] = [v for vec in x for v in vec]
                unit[node][off] = 0
            base_maps = self.base.column_maps()
            c0, c1 = [[(s @ m.transpose()).transpose() for m in base_maps] for s in split]
            maps = []
            for j in range(self.n):
                if j == a:
                    halves = [c0[a], c0[b] + c1[b].scale(self.g)]
                elif j == b:
                    halves = [c0[b] + c1[b], c1[a]]
                else:
                    halves = [c0[j], c1[j]]
                maps.append(vstack(f, halves))
            self._column_maps = maps
        return self._column_maps

    def as_irregular_code(self) -> IrregularArrayCode:
        """Flatten to construction-matrix form (data/parity row order).

        The diagonal blocks may be nonzero: a paired node's parity depends on
        its own stored data through the mixing, which the zero-diagonal
        normalization removes if needed.
        """
        if self._flat is None:
            n = self.n
            maps = self.column_maps()
            offs = [2 * self.base_data_len * i for i in range(n + 1)]
            grid = []
            for i in range(n):
                row = []
                for j in range(n):
                    sub = maps[j].take_rows(self.parity_rows(j)).take_cols(
                        range(offs[i], offs[i + 1])
                    )
                    row.append(sub)
                grid.append(row)
            # The view stores data rows as the identity, so it spans the same
            # symbols per node only if every stored data row is the unit
            # vector at its own offset and zero on all foreign columns.
            for j in range(n):
                for t, r in enumerate(self.data_rows(j)):
                    unit = [0] * offs[n]
                    unit[offs[j] + t] = 1
                    if maps[j].data[r] != unit:
                        raise AssertionError("transformed data rows are not systematic")
            self._flat = IrregularArrayCode(
                self.field, self.params, [[grid[i][j] for j in range(n)] for i in range(n)]
            )
        return self._flat

    # -- repair -------------------------------------------------------------------

    def _instance_fetch(self, fetch, instance: int):
        """View one base instance through the physical transformed columns.

        Pure reads map to one half of a column; the pair partner's own
        column lives on the other node's far half; the mixed column requires
        both combinations and an unmix step."""
        f = self.field
        a, b = self.pair
        alpha = self.base_col_len

        def inner(node, rows):
            if node not in (a, b):
                return fetch(node, [r + instance * alpha for r in rows])
            if node == a:
                if instance == 0:
                    return fetch(a, list(rows))
                return fetch(b, [r + alpha for r in rows])
            plain = fetch(b, list(rows))                    # inst0 + inst1
            scaled = fetch(a, [r + alpha for r in rows])    # inst0 + g*inst1
            inst1 = [
                f.mul(self._inv_g1, f.sub(u, v)) for u, v in zip(scaled, plain)
            ]
            if instance == 1:
                return inst1
            return [f.sub(u, v) for u, v in zip(plain, inst1)]

        return inner

    def repair(self, failed: int, fetch, helpers=None) -> list[int]:
        """Rebuild a column with the round-structured download schedule.

        A paired node costs (n-1) * alpha' / 2 symbols: one full instance
        from the unpaired nodes plus the partner's mixed half.  An unpaired
        node repairs each instance through the base code; duplicate physical
        reads are deduplicated by the caller's fetch."""
        f = self.field
        a, b = self.pair
        alpha = self.base_col_len
        if not 0 <= failed < self.n:
            raise InvalidPairError(f"node {failed} out of range")
        unpaired = [j for j in range(self.n) if j not in (a, b)]
        if failed == a:
            known = {j: fetch(j, list(range(alpha))) for j in unpaired}
            cols0 = self.base.decode_columns(known)
            mixed = fetch(b, list(range(alpha)))  # inst0_b + inst1_b
            inst1_b = [f.sub(u, v) for u, v in zip(mixed, cols0[b])]
            lower = [f.add(u, f.mul(self.g, v)) for u, v in zip(cols0[b], inst1_b)]
            return cols0[a] + lower
        if failed == b:
            known = {j: fetch(j, [alpha + r for r in range(alpha)]) for j in unpaired}
            cols1 = self.base.decode_columns(known)
            mixed = fetch(a, [alpha + r for r in range(alpha)])  # inst0_b + g*inst1_b
            inst0_b = [f.sub(u, f.mul(self.g, v)) for u, v in zip(mixed, cols1[b])]
            upper = [f.add(u, v) for u, v in zip(inst0_b, cols1[b])]
            return upper + cols1[a]
        order = [j for j in unpaired if j != failed] + [a, b]
        top = self.base.repair(failed, self._instance_fetch(fetch, 0), helpers=order)
        bottom = self.base.repair(failed, self._instance_fetch(fetch, 1), helpers=order)
        return top + bottom


def pair_transform(base, pair: tuple[int, int], g: int | None = None) -> TransformedCode:
    """One application of the pairing transformation to a regular k = n-2 base."""
    return TransformedCode(base, pair, g)


def rotation_pairs(n: int, rounds: int) -> list[tuple[int, int]]:
    """Deterministic disjoint-pair coverage: (n-2, n-1), (n-4, n-3), ...;
    with odd n the leftover node 0 pairs with its cyclic successor last."""
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
