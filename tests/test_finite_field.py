import hashlib
import itertools
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubcode import finite_field
from ubcode.finite_field import (
    GF,
    Field,
    FieldTooLargeError,
    NotPrimePowerError,
    TableFileError,
    _int_to_digits,
    _poly_is_irreducible,
    _smallest_irreducible,
)

SMALL_PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def test_gf2_is_trivial():
    f = GF(2)
    assert f.primitive == 1
    assert list(f.elements()) == [0, 1]
    assert f.add(1, 1) == 0
    assert f.mul(1, 1) == 1


def test_gf4_table_matches_hand_derivation():
    # Modulus x^2 + x + 1: with g the class of x, g*g = g+1 and g*(g+1) = 1.
    f = GF(4)
    assert f.modulus == (1, 1, 1)
    g = f.primitive
    assert g == 2
    assert f.mul(g, g) == 3
    assert f.mul(g, f.mul(g, g)) == 1
    assert f.pow(g, 3) == 1


def test_non_prime_power_rejected():
    with pytest.raises(NotPrimePowerError):
        GF(6)
    with pytest.raises(NotPrimePowerError):
        Field(12)
    with pytest.raises(NotPrimePowerError):
        Field(1)


@pytest.mark.parametrize("make", [GF, Field])
@pytest.mark.parametrize("q", [2.0, 8.0, "8", None, True, False, 65536.0])
def test_non_int_field_size_rejected(make, q):
    GF(2)  # cached, so GF(2.0) must not be a cache hit
    with pytest.raises(NotPrimePowerError, match=re.escape(f"must be an int, got {q!r}")):
        make(q)


@pytest.mark.parametrize("q", [[8], {8: 8}, {8}, bytearray(b"8")], ids=repr)
def test_an_unhashable_field_size_is_refused_before_the_cache(q):
    with pytest.raises(NotPrimePowerError, match=re.escape(f"must be an int, got {q!r}")):
        GF(q)
    GF.cache_clear()
    assert GF(8) is GF(8) and GF(8).q == 8


def test_too_large_rejected():
    with pytest.raises(FieldTooLargeError):
        Field(1 << 17)


def test_gf5_inverse_by_brute_force():
    f = GF(5)
    # Independent oracle: scan for the multiplicative inverse of 3.
    expected = next(x for x in range(1, 5) if (3 * x) % 5 == 1)
    assert expected == 2
    assert f.inv(3) == expected


def test_identity_laws_all_small_fields():
    for q in SMALL_PRIME_POWERS:
        f = GF(q)
        for a in range(q):
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a


@pytest.mark.parametrize("q", SMALL_PRIME_POWERS)
def test_axioms_exhaustive(q):
    f = GF(q)
    els = range(q)
    for a, b in itertools.product(els, els):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.sub(a, b) == f.add(a, f.neg(b))
        if b:
            assert f.mul(f.mul(a, f.inv(b)), b) == a
    for a, b, c in itertools.product(els, els, els):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("q", [64, 128, 251, 256, 625])
def test_axioms_random_triples_larger_fields(q):
    f = GF(q)
    rng = random.Random(q)
    for _ in range(10_000):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        if a:
            assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("q", SMALL_PRIME_POWERS + [64, 256])
def test_primitive_powers_enumerate_nonzero_elements(q):
    f = GF(q)
    powers = [f.pow(f.primitive, e) for e in range(q - 1)]
    assert sorted(powers) == list(range(1, q))
    assert f.pow(f.primitive, q - 1) == 1


def test_elements_enumeration_order():
    f = GF(4)
    assert list(f.elements()) == [0, 1, f.primitive, f.mul(f.primitive, f.primitive)]


def test_division_by_zero():
    f = GF(8)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)


def test_pow_negative_exponent():
    f = GF(9)
    for a in range(1, 9):
        assert f.mul(f.pow(a, -1), a) == 1
        assert f.pow(a, -2) == f.mul(f.pow(a, -1), f.pow(a, -1))


def test_construction_is_deterministic():
    a = Field(16)
    b = Field(16)
    assert a.modulus == b.modulus == (1, 1, 0, 0, 1)
    assert a.primitive == b.primitive
    assert a.to_json() == b.to_json()


def test_serialization_round_trip():
    for q in (5, 8, 9):
        f = GF(q)
        doc = f.to_json()
        assert doc["q"] == q
        assert doc["primitive"] == f.primitive
        if f.degree == 1:
            assert doc["modulus"] is None


def test_boundary_field_size():
    f = Field(1 << 16)
    g = f.primitive
    assert f.mul(g, f.inv(g)) == 1
    assert f.q == 1 << 16


# Every q the tests and the benchmark build: (modulus, primitive, sha256 of the
# comma-joined exp table).  Spec JSON carries the modulus and the primitive,
# and codeword files hold elements in this encoding, so any change to how the
# tables are built must leave all three exactly as they are.
PINNED_TABLES = {
    2: (None, 1,
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
    3: (None, 2,
        "17f8af97ad4a7f7639a4c9171d5185cbafb85462877a4746c21bdb0a4f940ca0"),
    4: ([1, 1, 1], 2,
        "8a6ae15122001229edb8866f56e342af12ae8187203c3e3b33931743e7c0c48d"),
    5: (None, 2,
        "a476677e7e6c27f07dc7c49b28b270220e462768bda3e734886ccd1960ef342c"),
    7: (None, 3,
        "8857bfd80b1409724f74d1b3f0496d4bdc59534dfe6daef3cd4c0ddaa226506f"),
    8: ([1, 1, 0, 1], 2,
        "532e44873f84897631e3bdf4bc87f13b6efc56c613f250dc56d5291817826247"),
    9: ([1, 0, 1], 4,
        "b351095dd920918fc83d6ae9295547f7581dbfe436790376a190fd2c39c53e5a"),
    11: (None, 2,
        "03890a70ac8efa04bf6072ba12960c0f6b995cd7dbf4bd08909b3abba7ca0686"),
    13: (None, 2,
        "404819ee67c6776a23fc29bd50796a9599747f1fcc1ebc0bdc394ad8a09587ac"),
    16: ([1, 1, 0, 0, 1], 2,
        "2118825d6501751151897ace59a145fb8eb96b687bbef51fd02806658e21cf8f"),
    25: ([2, 0, 1], 6,
        "dc195559d55f793a6a8b043f4fca14fec4794ae39e12ae81b02cebd4ff2b04c8"),
    27: ([1, 2, 0, 1], 3,
        "62f2ccfa842b73c3cec2619c24647ea47f8c96fe4d36f11e954cd0b0ef80b4ad"),
    32: ([1, 0, 1, 0, 0, 1], 2,
        "1aae48154ea2150d32405e80955df6cf977db73110fb90742bb6c3b591fc78c3"),
    64: ([1, 1, 0, 0, 0, 0, 1], 2,
        "add391b6e7520c4fe4dbd27482de6f4191939141dbb95ab6a759eb6b7804722b"),
    128: ([1, 1, 0, 0, 0, 0, 0, 1], 2,
        "cd62bd15b3fdd5adaf777a99ce0ab327f4e489bfc596f509e7ed01dffc049941"),
    243: ([1, 2, 0, 0, 0, 1], 3,
        "3972215707772f603b5c8821179ab01865e4d2de1136550a4568b8f92c3cc96e"),
    251: (None, 6,
        "8431f981bcdc938c38c51b313fcb923b24987efd3438eaf4f0842f3bca801375"),
    256: ([1, 1, 0, 1, 1, 0, 0, 0, 1], 3,
        "c35609d7d6dbc90eeeeba529ec2e61d02974772b1dd274ec31fcdaf8696ce955"),
    625: ([2, 0, 0, 0, 1], 6,
        "cf1f28a003349c28e23f741eb83b49f7948105a3b27f05bcc7cee43d9879cb3e"),
    65536: ([1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1], 3,
        "5860a63f932f7cb6e61602bbccbf26be3a41faf0918df94233efd27758e12e5b"),
    3**10: ([1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1], 34,
        "9cc6265c9b4aa255d640d277c51664ec4226bc6292cfd2e949cfc9b490a8b247"),
}


@pytest.mark.parametrize("q", PINNED_TABLES)
def test_tables_are_pinned(q):
    modulus, primitive, digest = PINNED_TABLES[q]
    f = GF(q)
    assert f.to_json() == {"q": q, "modulus": modulus, "primitive": primitive}
    assert hashlib.sha256(",".join(map(str, f._exp)).encode()).hexdigest() == digest


TABLE_FILE = Path(finite_field._TABLE_FILE)
WRITER = Path(__file__).resolve().parent / "write_gf65536.py"


def test_gf65536_tables_are_the_walks():
    f = Field(1 << 16)
    assert (f._exp, f._log) == f._walk()
    assert type(f._exp) is list and type(f._log) is list
    assert all(f._log[v] == i for i, v in enumerate(f._exp))


def test_gf65536_build_never_walks(monkeypatch):
    def walk(self):
        raise AssertionError("GF(2^16) walked its powers")

    monkeypatch.setattr(Field, "_walk", walk)
    assert Field(1 << 16).mul(2, 3) == 6
    with pytest.raises(AssertionError, match="walked"):
        Field(256)


def test_gf65536_pins_what_the_searches_find():
    assert _smallest_irreducible(2, 16) == list(finite_field._MODULUS_65536)
    assert Field(1 << 16)._find_primitive() == finite_field._PRIMITIVE_65536


def test_gf65536_build_never_searches(monkeypatch):
    def search(*args):
        raise AssertionError("GF(2^16) searched")

    monkeypatch.setattr(finite_field, "_smallest_irreducible", search)
    monkeypatch.setattr(Field, "_find_primitive", search)
    assert Field(1 << 16).to_json() == {"q": 1 << 16, "modulus": PINNED_TABLES[1 << 16][0],
                                        "primitive": 3}
    with pytest.raises(AssertionError, match="searched"):
        Field(256)


def test_gf65536_file_is_what_the_writer_writes(tmp_path):
    out = tmp_path / "gf65536.bin"
    done = subprocess.run([sys.executable, str(WRITER), str(out)], capture_output=True,
                          text=True, check=True)
    assert out.read_bytes() == TABLE_FILE.read_bytes()
    assert done.stdout.endswith(f"262142 bytes, CRC-32 {finite_field._TABLE_CRC32:#010x}\n")


def test_gf65536_tables_are_byteswapped_on_a_big_endian_host(monkeypatch):
    # On a big-endian host the native-order array is swapped to the file's
    # little-endian order; here, claiming big-endian must swap every entry.
    f = GF(1 << 16)
    monkeypatch.setattr(sys, "byteorder", "big")
    exp, log = finite_field._read_gf65536()
    monkeypatch.undo()
    swap = [(v >> 8) | (v & 0xFF) << 8 for v in range(1 << 16)]
    assert exp == [swap[v] for v in f._exp]
    assert log == [swap[v] for v in f._log]


@pytest.mark.parametrize("damage, message", [
    (None, "cannot read"),
    (lambda data: data[:-2], "has 262140 bytes, not 262142"),
    (lambda data: data + b"\0", "has 262143 bytes, not 262142"),
    (lambda data: data[:1000] + bytes([data[1000] ^ 1]) + data[1001:], "CRC-32"),
    (lambda data: data[:200000] + bytes([data[200000] ^ 0x80]) + data[200001:], "CRC-32"),
], ids=["missing", "truncated", "extended", "exp-byte-flipped", "log-byte-flipped"])
def test_a_missing_short_or_altered_table_file_is_refused(tmp_path, monkeypatch, damage, message):
    path = tmp_path / "gf65536.bin"
    if damage is not None:
        path.write_bytes(damage(TABLE_FILE.read_bytes()))
    monkeypatch.setattr(finite_field, "_TABLE_FILE", str(path))
    with pytest.raises(TableFileError, match=message):
        Field(1 << 16)


def test_gf2_modulus_search_matches_generic_search():
    # The bit-mask trial division must pick the polynomial the generic
    # digit-list search picks.
    for d in range(1, 17):
        generic = next(
            poly
            for poly in (_int_to_digits(low, 2, d) + [1] for low in range(2**d))
            if _poly_is_irreducible(poly, 2)
        )
        assert _smallest_irreducible(2, d) == generic


@settings(max_examples=200)
@given(
    a=st.integers(min_value=0, max_value=255),
    b=st.integers(min_value=0, max_value=255),
)
def test_gf256_add_mul_consistent_with_polynomials(a, b):
    f = GF(256)
    # Addition in characteristic 2 is XOR of coefficient vectors.
    assert f.add(a, b) == a ^ b
    if a and b:
        assert f.mul(f.mul(a, b), f.inv(b)) == a


# -- scalar reference ----------------------------------------------------------------

# Digit-wise polynomial addition over GF(p), independent of the field's log,
# exp and Zech tables: the reference for scalar add/neg/sub and the row kernel.


def ref_add(f, a, b):
    p, out, mult = f.characteristic, 0, 1
    for _ in range(f.degree):
        out += (a % p + b % p) % p * mult
        a, b, mult = a // p, b // p, mult * p
    return out


def ref_neg(f, a):
    p, out, mult = f.characteristic, 0, 1
    for _ in range(f.degree):
        out += -(a % p) % p * mult
        a, mult = a // p, mult * p
    return out


def ref_sub(f, a, b):
    return ref_add(f, a, ref_neg(f, b))


@pytest.mark.parametrize("q", [2, 3, 5, 7, 9, 25, 27])
def test_scalar_add_neg_sub_match_digit_reference_exhaustive(q):
    f = GF(q)
    for a in range(q):
        assert f.neg(a) == ref_neg(f, a)
        for b in range(q):
            assert f.add(a, b) == ref_add(f, a, b)
            assert f.sub(a, b) == ref_sub(f, a, b)


@st.composite
def odd_field_pairs(draw):
    f = GF(draw(st.sampled_from([251, 65521, 243, 3**10])))
    element = st.one_of(st.just(0), st.just(1), st.integers(0, f.q - 1))
    a = draw(element)
    # b = -a hits the 1 + g^t = 0 slot of the Zech table.
    b = draw(st.one_of(element, st.just(ref_neg(f, a))))
    return f, a, b


@settings(max_examples=400, deadline=None)
@given(odd_field_pairs())
def test_scalar_add_neg_sub_match_digit_reference(case):
    f, a, b = case
    assert f.add(a, b) == ref_add(f, a, b)
    assert f.neg(a) == ref_neg(f, a)
    assert f.sub(a, b) == ref_sub(f, a, b)


# -- row kernel --------------------------------------------------------------------

# Both field kinds the kernel branches on: characteristic 2 (including the
# prime GF(2)) and odd characteristic through the Zech table, prime and
# extension fields alike.
KERNEL_FIELDS = [2, 4, 8, 32, 256, 1 << 16, 3, 7, 9, 25, 27, 243, 3**10]


@st.composite
def kernel_rows(draw):
    f = GF(draw(st.sampled_from(KERNEL_FIELDS)))
    element = st.one_of(st.just(0), st.just(1), st.integers(0, f.q - 1))
    c = draw(element)
    size = draw(st.integers(0, 12))
    src = draw(st.lists(element, min_size=size, max_size=size))
    dst = draw(st.lists(element, min_size=size, max_size=size))
    # Some entries cancel exactly (d == c*s), which in odd characteristic
    # is the 1 + g^t = 0 slot of the Zech table.
    cancel = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    dst = [f.mul(c, s) if hit else d for d, s, hit in zip(dst, src, cancel)]
    return f, dst, c, src


@settings(max_examples=400, deadline=None)
@given(kernel_rows())
def test_row_kernel_matches_scalar_arithmetic(case):
    f, dst, c, src = case
    before = (dst[:], src[:])
    assert f.sub_scaled_row(dst, c, src) == [
        ref_sub(f, d, f.mul(c, s)) for d, s in zip(dst, src)
    ]
    assert f.scale_row(c, src) == [f.mul(c, v) for v in src]
    assert (dst, src) == before  # operands are never mutated
    # The term kernel on src's nonzero terms gives sub_scaled_row's row, in
    # place, and reads no other entry of dst: a None there would raise.
    terms = [(j, s) for j, s in enumerate(src) if s]
    holes = [d if s else None for d, s in zip(dst, src)]
    f.sub_scaled_terms(holes, c, terms)
    assert holes == [d if s else None for d, s in zip(f.sub_scaled_row(dst, c, src), src)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 25, 27])
def test_row_kernel_exhaustive_small_fields(q):
    f = GF(q)
    pairs = list(itertools.product(range(q), repeat=2))
    dst = [d for d, _ in pairs]
    src = [s for _, s in pairs]
    for c in range(q):
        assert f.sub_scaled_row(dst, c, src) == [ref_sub(f, d, f.mul(c, s)) for d, s in pairs]
        assert f.scale_row(c, src) == [f.mul(c, s) for s in src]
        row = dst[:]
        f.sub_scaled_terms(row, c, [(j, s) for j, s in enumerate(src) if s])
        assert row == [ref_sub(f, d, f.mul(c, s)) for d, s in pairs]


# -- byte multiply tables ----------------------------------------------------------


@pytest.mark.parametrize("q", [2, 4, 8, 16, 32, 64, 128, 256])
def test_byte_tables_match_mul_exhaustive(q):
    f = GF(q)
    tables = f.mul_tables
    assert len(tables) == q
    for c, table in enumerate(tables):
        assert type(table) is bytes and len(table) == 256
        assert list(table[:q]) == [f.mul(c, v) for v in range(q)]
        assert not any(table[q:])  # bytes at or above q are not elements


@pytest.mark.parametrize("q", [512, 1 << 16, 3, 5, 251, 9, 25, 27, 243])
def test_only_characteristic_2_up_to_256_has_byte_tables(q):
    assert GF(q).mul_tables is None
