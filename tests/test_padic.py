"""Scalar arithmetic checked against a big-integer oracle.

The oracle represents an integral p-adic number exactly as a Python int
modulo p**K for a generous K, performs the ring operation there, and the
test then demands that the PadicScalar result agrees on every digit the
scalar still claims to know.
"""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buildinglab.padic import (
    _POWERS,
    INF,
    NoSquareRoot,
    PadicScalar,
    PrecisionExhausted,
    _fold,
    _inv_unit,
    int_valuation,
)
from reference import absolute_precision, chained_fold, observe, raw, row_tests, scalar

P = 3
N = 16

# Square roots modulo p against the frozen residue search in tests/reference.py.
globals().update(row_tests("test_padic"))


def oracle_agrees(x: PadicScalar, exact: int, K: int) -> bool:
    """Does x agree with the exact integer on all digits x claims?"""
    k = absolute_precision(x)
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
    a = PadicScalar(P, 0, 5, 6)
    b = PadicScalar(P, 0, 7, 12)
    assert (a * b).N == 6
    assert absolute_precision(a + b) == 6


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


def test_to_literal_strings():
    assert PadicScalar.from_int(5, P, 8).to_literal() == "3^0*5"
    assert PadicScalar.from_int(18, P, 8).to_literal() == "3^2*2"
    # the unit is reduced mod p^N, and the window itself is not written
    assert PadicScalar.from_int(-1, P, 4).to_literal() == "3^0*80"
    assert PadicScalar.zero(P).to_literal() == "0"
    assert PadicScalar.near_zero(P, 4).to_literal() == "O(3^4)"


def test_units_beyond_the_int_to_str_limit_print_every_digit():
    # str() refuses an int of more than 4,300 digits unless the
    # interpreter-wide limit is raised, which printing must not do
    limit = sys.get_int_max_str_digits()
    ones, sparse = (10**5000 - 1) // 9, 10**4999 + 1  # both prime to 3
    for u, digits in ((ones, "1" * 5000), (sparse, "1" + "0" * 4998 + "1")):
        x = PadicScalar(P, 2, u, 10500)  # 3**10500 has 5,010 digits
        assert x.to_literal() == "3^2*" + digits
        assert repr(x) == "3^2 * %s (mod 3^10500)" % digits
    assert sys.get_int_max_str_digits() == limit


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
    assert s.val_floor() >= min(floor, absolute_precision(s) if s.unit == 0 else math.inf)
    if not s.is_zeroish():
        assert s.val_floor() >= floor
    # strict case: different valuations force equality
    if a != 0 and b != 0 and sa.v != sb.v and not s.is_zeroish():
        assert s.v == floor


# -- the raw kernel against the chained scalar fold ---------------------------


def _nonzero(p, v, u, n):
    return scalar(p, v, u if u % p else u + 1, n)


def scalars(primes):
    prime = st.sampled_from(primes)
    return st.one_of(
        prime.map(PadicScalar.zero),
        st.builds(PadicScalar.near_zero, prime, st.integers(-6, 12)),
        st.builds(_nonzero, prime, st.integers(-5, 8),
                  st.integers(1, 3**12), st.integers(1, 12)),
    )


def fold_args(primes):
    """(x or None, plus pairs, minus pairs) with 1 to 5 terms in all."""
    s = scalars(primes)
    pair = st.tuples(s, s)

    def of_sizes(sizes):
        has_x, n_plus, n_minus = sizes
        return st.tuples(s if has_x else st.none(),
                         st.lists(pair, min_size=n_plus, max_size=n_plus),
                         st.lists(pair, min_size=n_minus, max_size=n_minus))

    sizes = st.tuples(st.booleans(), st.integers(0, 5), st.integers(0, 5))
    return sizes.filter(lambda t: 1 <= sum(t) <= 5).flatmap(of_sizes)


@settings(max_examples=500, deadline=None)
@given(fold_args((3,)))
def test_fold_matches_chained_scalars(args):
    x, plus, minus = args
    # the second case cancels every product against itself
    for plus, minus in ((plus, minus), (plus, plus)):
        if x is None and not plus:
            continue
        got, want = _fold(x, plus, minus), chained_fold(x, plus, minus)
        assert raw(got) == raw(want)
        assert (got.v is INF) == (want.v is INF)


@settings(max_examples=250, deadline=None)
@given(fold_args((3, 5)))
def test_fold_mixed_primes_raise_like_the_chain(args):
    assert observe(_fold, *args) == observe(chained_fold, *args)


def test_power_table_stays_within_precision():
    # terms 2000 valuations apart still use only exponents below N
    p = 101
    hi = PadicScalar(p, 1000, 2, 8)
    lo = PadicScalar(p, -1000, 3, 8)
    one = PadicScalar.one(p, 8)
    s = _fold(hi, [(lo, one)], [(one, hi)])
    assert raw(s) == raw(chained_fold(hi, [(lo, one)], [(one, hi)]))
    assert raw(hi + lo) == raw(lo)
    assert len(_POWERS[p]) <= 2 * 9


# -- unit inverses --------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 65521, 4294967291])
def test_inv_unit_matches_pow(p):
    rng = random.Random(p)
    for n in (1, 2, 3, 31, 32, 33, 64, 200):
        mod = p**n
        units = {1, p - 1, p + 1, mod - 1}
        units.update(u for u in (rng.randrange(1, mod) for _ in range(20)) if u % p)
        for u in units:
            assert _inv_unit(u, p, n) == pow(u, -1, mod)
        # an unreduced unit is inverted modulo p**n all the same
        assert _inv_unit(mod + p + 1, p, n) == pow(p + 1, -1, mod)


def test_scalar_inverse_is_the_pow_inverse():
    rng = random.Random(8)
    for p in (2, 3, 5, 101):
        for _ in range(200):
            n = rng.randrange(1, 70)
            x = _nonzero(p, rng.randrange(-6, 7), rng.randrange(1, p**n), n)
            want = (p, -x.v, pow(x.unit, -1, p**n), n)
            assert raw(x.inv()) == want
