import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubcode.finite_field import (
    GF,
    Field,
    FieldTooLargeError,
    NotPrimePowerError,
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
            assert f.mul(f.div(a, b), b) == a
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
        f.div(3, 0)
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


def test_multiplicative_order():
    f = GF(16)
    assert f.multiplicative_order(f.primitive) == 15
    assert f.multiplicative_order(1) == 1


def test_boundary_field_size():
    f = Field(1 << 16)
    g = f.primitive
    assert f.mul(g, f.inv(g)) == 1
    assert f.q == 1 << 16


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
        assert f.div(f.mul(a, b), b) == a


# -- row kernel --------------------------------------------------------------------

# Every field kind the kernel branches on: characteristic 2 (including the
# prime GF(2)), odd primes, and odd extension fields through the Zech table.
KERNEL_FIELDS = [2, 4, 8, 32, 256, 1 << 16, 3, 7, 9, 25, 27, 243]


@st.composite
def kernel_rows(draw):
    f = GF(draw(st.sampled_from(KERNEL_FIELDS)))
    element = st.one_of(st.just(0), st.just(1), st.integers(0, f.q - 1))
    c = draw(element)
    size = draw(st.integers(0, 12))
    src = draw(st.lists(element, min_size=size, max_size=size))
    dst = draw(st.lists(element, min_size=size, max_size=size))
    # Some entries cancel exactly (d == c*s), which in an odd extension
    # field is the 1 + g^t = 0 slot of the Zech table.
    cancel = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    dst = [f.mul(c, s) if hit else d for d, s, hit in zip(dst, src, cancel)]
    return f, dst, c, src


@settings(max_examples=400, deadline=None)
@given(kernel_rows())
def test_row_kernel_matches_scalar_arithmetic(case):
    f, dst, c, src = case
    before = (dst[:], src[:])
    assert f.sub_scaled_row(dst, c, src) == [f.sub(d, f.mul(c, s)) for d, s in zip(dst, src)]
    assert f.scale_row(c, src) == [f.mul(c, v) for v in src]
    assert (dst, src) == before  # operands are never mutated


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 25, 27])
def test_row_kernel_exhaustive_small_fields(q):
    f = GF(q)
    pairs = list(itertools.product(range(q), repeat=2))
    dst = [d for d, _ in pairs]
    src = [s for _, s in pairs]
    for c in range(q):
        assert f.sub_scaled_row(dst, c, src) == [f.sub(d, f.mul(c, s)) for d, s in pairs]
        assert f.scale_row(c, src) == [f.mul(c, s) for s in src]
