"""Scalar arithmetic checked against a big-integer oracle.

The oracle represents an integral p-adic number exactly as a Python int
modulo p**K for a generous K, performs the ring operation there, and the
test then demands that the PadicScalar result agrees on every digit the
scalar still claims to know.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buildinglab.padic import (
    DEFAULT_PRECISION,
    INF,
    NoSquareRoot,
    PadicScalar,
    PrecisionExhausted,
    int_valuation,
)

P = 3
N = 16


def oracle_agrees(x: PadicScalar, exact: int, K: int) -> bool:
    """Does x agree with the exact integer on all digits x claims?"""
    k = x.abs_precision()
    if k is INF:
        return exact % P**K == 0
    k = min(k, K)
    if x.unit == 0:
        return exact % P**k == 0
    return (P**x.v * x.unit - exact) % P**k == 0


def test_from_int_roundtrip():
    for x in [1, -1, 7, 9, 81, -45, 12345, 3**10 * 2]:
        s = PadicScalar.from_int(x, P, N)
        assert oracle_agrees(s, x, N + 10)
    assert PadicScalar.from_int(0, P).is_exact_zero()


def test_valuation_examples():
    assert int_valuation(9, 3) == 2
    assert int_valuation(7, 3) == 0
    assert int_valuation(-27, 3) == 3
    assert PadicScalar.from_int(18, 3).valuation() == 2
    assert PadicScalar.from_int(18, 3).unit % 3 != 0


def test_add_mul_against_oracle_bulk():
    rng = random.Random(20260816)
    K = N + 8
    for _ in range(10000):
        a = rng.randrange(-(3**12), 3**12)
        b = rng.randrange(-(3**12), 3**12)
        sa = PadicScalar.from_int(a, P, N)
        sb = PadicScalar.from_int(b, P, N)
        assert oracle_agrees(sa + sb, a + b, K)
        assert oracle_agrees(sa - sb, a - b, K)
        assert oracle_agrees(sa * sb, a * b, K)


def test_cancellation_produces_near_zero():
    a = PadicScalar.from_int(7, P, N)
    d = a - a
    assert d.is_zeroish() and not d.is_exact_zero()
    assert d.val_floor() == N  # vanishes through the whole tracked window
    with pytest.raises(PrecisionExhausted):
        d.valuation()


def test_near_zero_plus_known_value():
    z = PadicScalar.near_zero(P, 5)
    a = PadicScalar.from_int(6, P, N)  # valuation 1 < 5
    s = z + a
    assert s.v == 1 and s.N == 4  # only 4 digits of the unit survive
    assert s.unit == 2 % P**4
    # the other way: the known value drowns below the bound
    b = PadicScalar.from_int(3**7, P, N)
    assert (z + b).is_zeroish()
    assert (z + b).val_floor() == 5


def test_near_zero_infinite_bound_is_exact_zero():
    # an infinite bound compares by value: any float infinity is accepted
    for bound in (INF, float("inf")):
        assert PadicScalar.near_zero(P, bound).is_exact_zero()


def test_exact_zero_identity():
    zero = PadicScalar.zero(P)
    a = PadicScalar.from_int(11, P, N)
    assert (zero + a) == a
    assert (a * zero).is_exact_zero()
    with pytest.raises(ZeroDivisionError):
        zero.inv()


def test_inverse_against_oracle():
    rng = random.Random(7)
    for _ in range(2000):
        a = rng.randrange(1, 3**10)
        if a % 3 == 0:
            a += 1
        sa = PadicScalar.from_int(a, P, N)
        inv = sa.inv()
        prod = sa * inv
        assert prod.v == 0 and prod.unit == 1
    with pytest.raises(PrecisionExhausted):
        PadicScalar.near_zero(P, 4).inv()


def test_negative_valuation_arithmetic():
    third = PadicScalar.from_int(3, P, N).inv()
    assert third.v == -1
    one = third * PadicScalar.from_int(3, P, N)
    assert one.v == 0 and one.unit == 1
    s = third + PadicScalar.one(P, N)
    assert s.v == -1  # 1/3 + 1 = 4/3 has valuation -1


def test_precision_floor_on_mixed_operands():
    a = PadicScalar.from_unit(P, 0, 5, 6)
    b = PadicScalar.from_unit(P, 0, 7, 12)
    assert (a * b).N == 6
    assert (a + b).abs_precision() == 6


def test_sqrt_known_values():
    # 7 is a QR mod 3?  7 = 1 mod 3, yes; sqrt(7) in Z_3 exists.
    s = PadicScalar.from_int(7, P, N).sqrt()
    sq = s * s
    assert sq.v == 0 and sq.unit == 7 % P**N
    # canonical root: residue mod 3 is the smaller of the pair
    assert s.unit % P == min(s.unit % P, (P - s.unit % P))
    # even valuation is required
    with pytest.raises(NoSquareRoot):
        PadicScalar.from_int(3, P, N).sqrt()
    # non-residue: 2 is not a QR mod 3
    with pytest.raises(NoSquareRoot):
        PadicScalar.from_int(2, P, N).sqrt()
    # p = 5: used by the circle-subgroup solver. 1 + 5^2 = 26 must have a root.
    t = PadicScalar.from_int(26, 5, N).sqrt()
    tt = t * t
    assert tt.unit == 26 % 5**N and tt.v == 0


def test_sqrt_of_even_valuation():
    s = PadicScalar.from_int(9 * 7, P, N).sqrt()
    assert s.v == 1
    sq = s * s
    assert sq.v == 2 and sq.unit == 7 % P**N


def test_literals_roundtrip():
    for x in [5, -11, 18, 3**5 * 4]:
        s = PadicScalar.from_int(x, P, N)
        assert PadicScalar.from_literal(s.to_literal(), P, N) == s
    assert PadicScalar.from_literal("0", P).is_exact_zero()
    nz = PadicScalar.from_literal("O(3^4)", P)
    assert nz.is_zeroish() and nz.val_floor() == 4


def test_agreement_depth():
    a = PadicScalar.from_int(1, P, N)
    b = PadicScalar.from_int(1 + 3**9, P, N)
    assert a.agreement(b) == 9
    assert a.agreement(a) == N


small_ints = st.integers(min_value=-(3**9), max_value=3**9)


@settings(max_examples=300, deadline=None)
@given(small_ints, small_ints, small_ints)
def test_ring_axioms_vs_oracle(a, b, c):
    K = N + 6
    sa, sb, sc = (PadicScalar.from_int(x, P, N) for x in (a, b, c))
    assert oracle_agrees((sa + sb) + sc, a + b + c, K)
    assert oracle_agrees(sa * (sb + sc), a * (b + c), K)
    assert oracle_agrees(sa * sb - sb * sa, 0, K)


@settings(max_examples=300, deadline=None)
@given(small_ints, small_ints)
def test_ultrametric_inequality(a, b):
    sa = PadicScalar.from_int(a, P, N)
    sb = PadicScalar.from_int(b, P, N)
    s = sa + sb
    floor = min(sa.val_floor(), sb.val_floor())
    assert s.val_floor() >= min(floor, s.abs_precision() if s.unit == 0 else math.inf)
    if not s.is_zeroish():
        assert s.val_floor() >= floor
    # strict case: different valuations force equality
    if a != 0 and b != 0 and sa.v != sb.v and not s.is_zeroish():
        assert s.v == floor
