"""Exact arithmetic in GF(q) for prime fields and prime-power extension fields.

Elements are canonical integers in [0, q).  For an extension field GF(p^d)
the base-p digits of an element are the coefficients of a polynomial over
GF(p), lowest degree first.  The modulus is always the irreducible monic
polynomial of degree d with the smallest integer encoding, and the
designated primitive element is the smallest element of full multiplicative
order, so constructing the same q twice yields bit-identical tables.

Every field but GF(2^16) builds its exp/log tables by walking the powers of
the primitive element.  GF(2^16) reads them from the package data file
``gf65536.bin`` (``tests/write_gf65536.py`` writes it from the same walk), so
a one-shot process does not pay for 65,535 Python steps, and its modulus and
primitive element are pinned constants rather than searched for.
"""

from __future__ import annotations

import os
import sys
from functools import lru_cache

MAX_FIELD_SIZE = 1 << 16

# GF(2^16)'s exp table (65,535 entries) then its log table (65,536), each
# entry a little-endian uint16, and the CRC-32 of the file's 262,142 bytes.
_TABLE_FILE = os.path.join(os.path.dirname(__file__), "gf65536.bin")
_TABLE_CRC32 = 0x75a4ae7d
# GF(2^16)'s modulus x^16 + x^5 + x^3 + x + 1, digits low-first, and its
# primitive element: what _smallest_irreducible and _find_primitive return
# (tests/test_finite_field.py checks both), pinned so a build skips about
# 0.6 ms of search.
_MODULUS_65536 = (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)
_PRIMITIVE_65536 = 3


class NotPrimePowerError(ValueError):
    """Raised when a requested field size is not a prime power."""


class FieldTooLargeError(ValueError):
    """Raised when a requested field size exceeds MAX_FIELD_SIZE."""


class TableFileError(RuntimeError):
    """Raised when the packaged GF(2^16) table file is missing, short or
    altered: the installation is broken, not the caller's input."""


def _prime_factors(x: int) -> list[int]:
    factors = []
    d = 2
    while d * d <= x:
        if x % d == 0:
            factors.append(d)
            while x % d == 0:
                x //= d
        d += 1
    if x > 1:
        factors.append(x)
    return factors


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, d) with q = p**d, or raise NotPrimePowerError."""
    if q < 2:
        raise NotPrimePowerError(f"field size must be >= 2, got {q}")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise NotPrimePowerError(f"{q} is not a prime power (factors {factors})")
    p = factors[0]
    d = 0
    while q > 1:
        q //= p
        d += 1
    return p, d


def _int_to_digits(value: int, p: int, width: int) -> list[int]:
    digits = []
    for _ in range(width):
        value, r = divmod(value, p)
        digits.append(r)
    return digits


def _digits_to_int(digits: list[int], p: int) -> int:
    value = 0
    for c in reversed(digits):
        value = value * p + c
    return value


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num divided by the monic den over GF(p), digits low-first,
    with one digit fewer than den."""
    num = list(num)
    dlead = len(den) - 1
    for shift in range(len(num) - 1 - dlead, -1, -1):
        coef = num[shift + dlead]
        if coef:
            for i in range(dlead + 1):
                num[shift + i] = (num[shift + i] - coef * den[i]) % p
    return num[:dlead]


def _poly_is_irreducible(poly: list[int], p: int) -> bool:
    """Exhaustive trial division of a monic poly of degree >= 1 by every
    monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    for ddeg in range(1, deg // 2 + 1):
        # Enumerate monic polynomials of degree ddeg: low coefficients count
        # through p**ddeg combinations.
        for low in range(p**ddeg):
            den = _int_to_digits(low, p, ddeg) + [1]
            if not any(_poly_rem(poly, den, p)):
                return False
    return True


def _gf2_rem(a: int, b: int) -> int:
    """Remainder of a divided by b, both polynomials over GF(2) as bit masks."""
    db = b.bit_length()
    while (da := a.bit_length()) >= db:
        a ^= b << (da - db)
    return a


def _smallest_irreducible(p: int, d: int) -> list[int]:
    """Monic irreducible of degree d over GF(p) with smallest integer encoding."""
    if p == 2:
        # Bit i of a mask is the coefficient of x^i, so masks in increasing
        # order are the encodings in increasing order, and every mask in
        # [2, 2^(d//2+1)) is a monic trial divisor of degree 1..d//2.
        for poly in range(1 << d, 2 << d):
            if all(_gf2_rem(poly, den) for den in range(2, 2 << d // 2)):
                return _int_to_digits(poly, 2, d + 1)
    else:
        for low in range(p**d):
            poly = _int_to_digits(low, p, d) + [1]
            if _poly_is_irreducible(poly, p):
                return poly
    raise AssertionError(f"no irreducible polynomial of degree {d} over GF({p})")


def _read_uint16(fh, count: int, crc: int) -> tuple[list[int], int]:
    """The next ``count`` little-endian uint16 of ``fh`` as a list, and
    ``crc`` carried over their bytes."""
    from array import array  # imported here: only GF(2^16) reads a table file
    from zlib import crc32

    table = array("H")
    table.fromfile(fh, count)
    crc = crc32(table, crc)
    if sys.byteorder == "big":
        table.byteswap()
    # A list, not the array: indexing an array boxes a new int on every read,
    # which slows the row kernel by about half.
    return table.tolist(), crc


def _read_gf65536() -> tuple[list[int], list[int]]:
    """GF(2^16)'s exp and log tables from the package data file, one table's
    raw bytes in memory at a time, after checking the file's length and CRC."""
    order = (1 << 16) - 1
    want = 2 * (order + order + 1)
    try:
        with open(_TABLE_FILE, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != want:
                raise TableFileError(f"GF(2^16) table file {_TABLE_FILE} has {size} bytes, "
                                     f"not {want}")
            exp, crc = _read_uint16(fh, order, 0)
            log, crc = _read_uint16(fh, order + 1, crc)
    except OSError as exc:
        raise TableFileError(f"cannot read the GF(2^16) table file: {exc}") from exc
    if crc != _TABLE_CRC32:
        raise TableFileError(f"GF(2^16) table file {_TABLE_FILE} fails its CRC-32 check "
                             f"({crc:#010x}, not {_TABLE_CRC32:#010x})")
    return exp, log


class Field:
    """GF(q) with fixed modulus, primitive element, and full mul/inv tables.

    GF(2^16) reads its exp/log tables from the package data file
    ``gf65536.bin``, checked by length and CRC-32; a missing, short or
    altered file raises :class:`TableFileError`.  Every other field builds
    them by ``_walk``, over the powers of the primitive element g, one step
    per element.  In characteristic 2 a step is one XOR of two split-table
    lookups: g times the low and the high half of an element, from tables
    of about sqrt(q) products.  Every other field steps by the table-free
    multiply.  In odd characteristic a Zech table (log(1 + g^t)) also
    serves scalar add/neg/sub and the row kernel.  In characteristic 2 with
    q <= 256, ``mul_tables[c]`` is the 256-byte table of c*v (zero at
    v >= q), so ``row.translate(mul_tables[c])`` scales a row of byte
    entries; every other field has ``mul_tables = None``.  ``linalg`` reads
    it as the switch to packed rows: ``rref``/``rank`` eliminate on them,
    and every product, ``@``, each encode, decode and repair and the update
    protocol's, combines rows on them (``pack_rows`` and ``combine_rows``).

    Immutable after construction; safe to share between threads.  Use the
    cached factory :func:`GF` rather than constructing directly.
    """

    __slots__ = (
        "q", "characteristic", "degree", "modulus", "primitive",
        "mul_tables", "_mod_int", "_exp", "_log", "_zech",
    )

    def __init__(self, q: int):
        if _require_int(q) > MAX_FIELD_SIZE:
            raise FieldTooLargeError(f"field size {q} exceeds {MAX_FIELD_SIZE}")
        p, d = _factor_prime_power(q)
        pinned = q == 1 << 16
        self.q = q
        self.characteristic = p
        self.degree = d
        if d == 1:
            self.modulus = None
        else:
            self.modulus = _MODULUS_65536 if pinned else tuple(_smallest_irreducible(p, d))
        self._mod_int = None if d == 1 else _digits_to_int(list(self.modulus), p)
        self.primitive = _PRIMITIVE_65536 if pinned else self._find_primitive()
        self._build_tables()

    # -- construction helpers -------------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        """Table-free multiply, used only while bootstrapping the tables."""
        p = self.characteristic
        if self.degree == 1:
            return (a * b) % p
        if p == 2:
            mod = self._mod_int
            top = 1 << self.degree
            acc = 0
            while b:
                if b & 1:
                    acc ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= mod
            return acc
        da = _int_to_digits(a, p, self.degree)
        db = _int_to_digits(b, p, self.degree)
        prod = [0] * (2 * self.degree - 1)
        for i, ca in enumerate(da):
            if ca == 0:
                continue
            for j, cb in enumerate(db):
                prod[i + j] = (prod[i + j] + ca * cb) % p
        return _digits_to_int(_poly_rem(prod, self.modulus, p), p)

    def _raw_pow(self, a: int, e: int) -> int:
        acc = 1
        base = a
        while e:
            if e & 1:
                acc = self._raw_mul(acc, base)
            base = self._raw_mul(base, base)
            e >>= 1
        return acc

    def _find_primitive(self) -> int:
        order = self.q - 1
        if order == 1:
            return 1
        checks = [order // f for f in _prime_factors(order)]
        for g in range(2, self.q):
            if all(self._raw_pow(g, e) != 1 for e in checks):
                return g
        raise AssertionError(f"no primitive element in GF({self.q})")

    def _walk(self) -> tuple[list[int], list[int]]:
        """The exp and log tables, by one step per element from 1 = g^0.

        In characteristic 2 multiplying by g is linear over GF(2), so g*val
        is g*(low half of val) XOR g*(high half of val), each half's products
        read from a table of about sqrt(q) entries.  Every other field
        multiplies by g with _raw_mul: no workload builds an odd field large
        enough for the walk to matter."""
        p, d, g = self.characteristic, self.degree, self.primitive
        order = self.q - 1
        exp = [1] * order
        log = [0] * self.q
        val = 1
        if p == 2:
            h = d // 2
            mask = (1 << h) - 1
            lo = [self._raw_mul(t, g) for t in range(1 << h)]
            hi = [self._raw_mul(t << h, g) for t in range(1 << (d - h))]
            for i in range(order):
                exp[i] = val
                log[val] = i
                val = hi[val >> h] ^ lo[val & mask]
        else:
            for i in range(order):
                exp[i] = val
                log[val] = i
                val = self._raw_mul(val, g)
        return exp, log

    def _build_tables(self) -> None:
        p, order = self.characteristic, self.q - 1
        exp, log = _read_gf65536() if self.q == 1 << 16 else self._walk()
        # A g of order k < q-1 brings the walk back to 1 at step k, which
        # overwrites log[1].
        if log[1] != 0:
            raise AssertionError("primitive element does not have full order")
        self._exp = exp
        self._log = log
        self._zech = None
        if p != 2:
            # zech[t] = log(1 + g^t), or -1 where 1 + g^t = 0.  Adding 1 only
            # changes the lowest base-p digit, so each entry is O(1).
            self._zech = [
                -1 if v == p - 1 else log[v - v % p + (v + 1) % p]
                for v in exp
            ]
        self.mul_tables = None
        if p == 2 and self.q <= 256:
            # T[g^(i+1)] = T[g^i] translated through T[g]: one C-level pass
            # per table.  Bytes at or above q stay 0, as 0 maps to 0.
            pad = bytes(256 - self.q)
            tg = bytes(exp[(log[v] + 1) % order] if v else 0 for v in range(self.q)) + pad
            tables = [bytes(256)] * self.q
            t = bytes(range(self.q)) + pad
            for v in exp:
                tables[v] = t
                t = t.translate(tg)
            self.mul_tables = tuple(tables)

    # -- arithmetic ------------------------------------------------------------

    def validate(self, a: int) -> int:
        if type(a) is not int or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element of GF({self.q})")
        return a

    def add(self, a: int, b: int) -> int:
        if self.characteristic == 2:
            return a ^ b
        # Odd characteristic: a + b = g^(log a) * (1 + g^(log b - log a))
        # via the Zech table.
        if a == 0:
            return b
        if b == 0:
            return a
        order = self.q - 1
        la = self._log[a]
        z = self._zech[(self._log[b] - la) % order]
        return 0 if z < 0 else self._exp[(la + z) % order]

    def neg(self, a: int) -> int:
        if self.characteristic == 2 or a == 0:
            return a
        # -1 = g^(order/2) in odd characteristic.
        order = self.q - 1
        return self._exp[(self._log[a] + order // 2) % order]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.q})")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError(f"0 ** {e} in GF({self.q})")
            return 1 if e == 0 else 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    # -- row kernel ------------------------------------------------------------
    #
    # Elimination and the products spend nearly all their time on row
    # updates, so these three work on rows of canonical elements with one
    # branch per field kind and no per-entry calls.  Entries are trusted:
    # validate at the boundary.

    def scale_row(self, c: int, row: list[int]) -> list[int]:
        """The row c*row, entrywise."""
        if c == 0:
            return [0] * len(row)
        exp, log, order = self._exp, self._log, self.q - 1
        lc = log[c]
        return [exp[(lc + log[v]) % order] if v else 0 for v in row]

    def sub_scaled_row(self, dst: list[int], c: int, src: list[int]) -> list[int]:
        """The row dst - c*src, entrywise."""
        if c == 0:
            return list(dst)
        exp, log, order = self._exp, self._log, self.q - 1
        if self.characteristic == 2:
            lc = log[c]
            return [d ^ exp[(lc + log[s]) % order] if s else d for d, s in zip(dst, src)]
        # Odd characteristic: -c*s = g^(log c + log s + order/2), and
        # d + g^x = g^(log d) * (1 + g^(x - log d)) via the Zech table.
        zech = self._zech
        lm = log[c] + order // 2
        out = []
        for d, s in zip(dst, src):
            if s:
                lx = lm + log[s]
                if d:
                    ld = log[d]
                    z = zech[(lx - ld) % order]
                    d = 0 if z < 0 else exp[(ld + z) % order]
                else:
                    d = exp[lx % order]
            out.append(d)
        return out

    def sub_scaled_terms(self, dst: list[int], c: int, terms) -> None:
        """dst - c*src in place, for the row src given by its nonzero terms
        (j, v): only the entries of dst at those j are read or written."""
        if c == 0:
            return
        exp, log, order = self._exp, self._log, self.q - 1
        if self.characteristic == 2:
            lc = log[c]
            for j, s in terms:
                dst[j] ^= exp[(lc + log[s]) % order]
            return
        # Odd characteristic, as in sub_scaled_row.
        zech = self._zech
        lm = log[c] + order // 2
        for j, s in terms:
            lx = lm + log[s]
            d = dst[j]
            if d:
                ld = log[d]
                z = zech[(lx - ld) % order]
                dst[j] = 0 if z < 0 else exp[(ld + z) % order]
            else:
                dst[j] = exp[lx % order]

    def elements(self):
        """Deterministic enumeration 0, 1, g, g^2, ... of all q elements."""
        yield 0
        yield from self._exp

    # -- misc -------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "modulus": list(self.modulus) if self.modulus else None,
            "primitive": self.primitive,
        }

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("Field", self.q))


def _require_int(q) -> int:
    """q itself, or NotPrimePowerError when it is not an int (bools refused)."""
    if type(q) is not int:
        raise NotPrimePowerError(f"field size must be an int, got {q!r}")
    return q


def GF(q: int) -> Field:
    """Cached field factory; the same q always returns the same object.

    Only an int reaches the cache: a float or a bool equal to a cached size
    must not return that field, and a list cannot be a cache key.
    ``GF.cache_clear()`` empties the cache."""
    return _cached_field(_require_int(q))


_cached_field = lru_cache(maxsize=None)(Field)
GF.cache_clear = _cached_field.cache_clear
