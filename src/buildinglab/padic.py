"""Finite-precision p-adic scalar arithmetic.

A nonzero value is stored in the normal form ``p**v * u`` with integer
valuation ``v`` and a unit ``u`` coprime to ``p``, tracked modulo ``p**N``.
``N`` is the relative precision, so the value itself is pinned modulo
``p**(v+N)``.  Arithmetic follows interval semantics: every result carries
the weakest surviving absolute precision of its operands, never more.

Zero needs two flavours.  The exact zero is produced only by construction
(``PadicScalar.zero(p)``) or by multiplying with it.  An approximate zero
``O(p**k)`` is what remains when every tracked digit of a sum cancels: the
result is known to vanish modulo ``p**k`` and nothing else is known about
it.  The two behave differently under inversion -- the exact zero raises
``ZeroDivisionError`` while the approximate one raises
:class:`PrecisionExhausted` -- and convergence detection relies on never
confusing "cancelled beyond the tracked window" with "provably zero".

Square roots are only defined for odd p, even valuation and a
quadratic-residue unit.  A root modulo p comes from Tonelli-Shanks, which
writes p - 1 = 2**e * q with q odd and corrects the guess a**((q+1)/2)
by powers of a non-residue until the error a**q is 1: O(log(p)**2)
products, for every odd p.  Of the two roots, the one whose residue
modulo p is smaller is taken, and Newton steps lift it to the unit's
precision.

Sums of products go through one raw kernel, ``_fold``: it computes
``x + sum(a*b) - sum(c*d)`` in a single pass over the raw ``(v, unit, N)``
integers and allocates one scalar for the result.  The left-to-right
chain of ``+``, ``-`` and ``*`` has a closed form, which the kernel
evaluates directly.  Take each term (``x`` or one product ``a*b``) as the
scalar that ``*`` gives.  Exact-zero terms drop out.  The result's
absolute precision ``M`` is the least absolute precision of the other
terms: ``k`` for an approximate zero ``O(p**k)``, ``v + N`` for a nonzero
term.  With ``S`` the exact sum of the nonzero terms, the result is the
exact zero if every term is one, ``O(p**M)`` if ``val(S) >= M``, and
otherwise ``p**val(S) * unit`` with ``N = M - val(S)``.  So the kernel
returns, bit for bit, what the chain of scalar operators returns.

Units are inverted by one routine, ``_inv_unit``: the inverse modulo p,
lifted by Newton steps ``r <- r*(2 - u*r)`` that double the number of
correct digits up to ``N``.  The inverse modulo ``p**N`` is unique, so it
is what ``pow(u, -1, p**N)`` gives.  ``PadicScalar.inv`` and the flag
pivot normalisation in ``building`` use it.

Powers of p come from one list per prime, ``_POWERS[p][k] == p**k``,
grown on demand to at most twice the largest exponent asked for.  Every
exponent asked for is at most the largest relative precision ``N`` in
use: reductions modulo ``p**N`` (negation, products, unit inverses) ask
for index ``N`` itself, and the kernel never computes digits at or
above ``M``.  A grown list replaces the old one rather than extending
it, so a list once read never changes.

All values are immutable, so instances can be shared freely across
threads.  Each prime has one shared exact zero, and an operation may
return an operand unchanged (adding the exact zero, negating a zero);
every other result is a fresh scalar.
"""

from __future__ import annotations

import math

__all__ = [
    "DEFAULT_PRECISION",
    "INF",
    "NoSquareRoot",
    "PadicError",
    "PadicScalar",
    "PrecisionExhausted",
    "int_valuation",
]

INF = math.inf

DEFAULT_PRECISION = 32

_ZEROS: dict = {}  # p -> the shared exact zero
_POWERS: dict = {}  # p -> [1, p, p**2, ...]


def _powers(p: int, k: int) -> list:
    """The power list of p, long enough to hold p**k."""
    pw = _POWERS.get(p, ())
    if len(pw) <= k:
        size = max(k + 1, 2 * len(pw))
        _POWERS[p] = pw = [p**i for i in range(size)]
    return pw


def _inv_unit(u: int, p: int, N: int) -> int:
    """The inverse of the unit ``u`` modulo ``p**N``, reduced.

    The inverse modulo p is lifted by Newton steps: if ``u*r == 1`` modulo
    ``p**k`` then ``r*(2 - u*r)`` is the inverse modulo ``p**(2k)``.
    """
    if u == 1:
        return 1
    pw = _POWERS.get(p, ())
    if len(pw) <= N:
        pw = _powers(p, N)
    r = pow(u, -1, p)
    k = 1
    while k < N:
        k = k + k if k + k < N else N
        r = r * (2 - u * r) % pw[k]
    return r


class PadicError(ArithmeticError):
    """Base class for p-adic arithmetic failures."""


class PrecisionExhausted(PadicError):
    """An operation needed digits that the tracked window no longer holds."""


class NoSquareRoot(PadicError):
    """The value has no square root under the supported conventions."""


def int_valuation(x: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if x == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _sqrt_mod_p(a: int, p: int) -> int:
    """A root of a modulo the odd prime p, by Tonelli-Shanks (Cohen, GTM
    138, Alg. 1.5.1): O(log(p)**2) products, for every p."""
    a %= p
    if pow(a, (p - 1) // 2, p) != 1:
        raise NoSquareRoot(f"{a} is not a quadratic residue mod {p}")
    q, e = p - 1, 0  # p - 1 = 2**e * q with q odd
    while q % 2 == 0:
        q, e = q // 2, e + 1
    n = 2
    while pow(n, (p - 1) // 2, p) == 1:  # the least non-residue
        n += 1
    # invariants: a*b == x**2, y has order 2**r and b order dividing 2**(r-1)
    y, r = pow(n, q, p), e
    x = pow(a, (q + 1) // 2, p)
    b = pow(a, q, p)
    while b != 1:
        m, b2 = 1, b * b % p
        while b2 != 1:  # until 2**m is the order of b
            m, b2 = m + 1, b2 * b2 % p
        t = pow(y, 1 << (r - m - 1), p)
        y, r = t * t % p, m
        x, b = x * t % p, b * y % p
    return x


class PadicScalar:
    """One element of Q_p known to finite precision.

    Internal encoding:

    * nonzero:  ``unit != 0``, value = p**v * unit  (unit reduced mod p**N)
    * exact zero: ``unit == 0`` and ``v`` is ``INF``
    * approximate zero O(p**k): ``unit == 0``, ``v == k``, ``N == 0``
    """

    __slots__ = ("p", "v", "unit", "N")

    def __init__(self, p: int, v, unit: int, N: int):
        self.p = p
        self.v = v
        self.unit = unit
        self.N = N

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "PadicScalar":
        z = _ZEROS.get(p)
        if z is None:
            z = _ZEROS[p] = cls(p, INF, 0, 0)
        return z

    @classmethod
    def near_zero(cls, p: int, bound) -> "PadicScalar":
        """A value known only to vanish modulo p**bound."""
        if bound == INF:
            return cls.zero(p)
        return cls(p, int(bound), 0, 0)

    @classmethod
    def one(cls, p: int, N: int = DEFAULT_PRECISION) -> "PadicScalar":
        return cls(p, 0, 1, N)

    @classmethod
    def from_int(cls, x: int, p: int, N: int = DEFAULT_PRECISION) -> "PadicScalar":
        if x == 0:
            return cls.zero(p)
        v = int_valuation(x, p)
        unit = (x // p**v) % p**N
        return cls(p, v, unit, N)

    # -- predicates and views ------------------------------------------

    def is_zeroish(self) -> bool:
        """True for the exact zero and for approximate zeros."""
        return self.unit == 0

    def is_exact_zero(self) -> bool:
        return self.unit == 0 and self.v is INF

    def val_floor(self):
        """Best known lower bound for the valuation (INF for exact zero)."""
        return self.v

    def valuation(self) -> int:
        """Exact valuation; refuses to guess for approximate zeros."""
        if self.unit == 0:
            if self.v is INF:
                return INF
            raise PrecisionExhausted(
                f"valuation unknown: value is only known to be O({self.p}^{self.v})"
            )
        return self.v

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "PadicScalar") -> "PadicScalar":
        p = self.p
        if p != other.p:
            raise ValueError(f"mixed primes {p} and {other.p}")
        a, b = self, other
        if a.unit == 0 or b.unit == 0:
            if a.unit != 0:
                a, b = b, a
            # a is zeroish
            k = a.v
            if k is INF:
                return b
            v = b.v
            if b.unit == 0:
                return PadicScalar(p, k if k < v else v, 0, 0)
            if v >= k:
                return PadicScalar(p, k, 0, 0)
            n = k - v
            if b.N < n:
                n = b.N
            pw = _POWERS.get(p, ())
            if len(pw) <= n:
                pw = _powers(p, n)
            return PadicScalar(p, v, b.unit % pw[n], n)
        m = a.v + a.N
        if b.v + b.N < m:
            m = b.v + b.N
        if b.v < a.v:
            a, b = b, a
        # a has the lower valuation
        width = m - a.v
        if width <= 0:
            return PadicScalar(p, m, 0, 0)
        pw = _POWERS.get(p, ())
        if len(pw) <= width:
            pw = _powers(p, width)
        d = b.v - a.v
        s = a.unit + b.unit * pw[d] if d < width else a.unit
        s %= pw[width]
        if s == 0:
            return PadicScalar(p, m, 0, 0)
        v = a.v
        # 0 < s < p**width, and each factor of p stripped lowers both
        # sides by one, so s < p**(m - v) is already reduced
        while s % p == 0:
            s //= p
            v += 1
        return PadicScalar(p, v, s, m - v)

    def __neg__(self) -> "PadicScalar":
        if self.unit == 0:
            return self
        p, N = self.p, self.N
        pw = _POWERS.get(p, ())
        if len(pw) <= N:
            pw = _powers(p, N)
        return PadicScalar(p, self.v, (-self.unit) % pw[N], N)

    def __sub__(self, other: "PadicScalar") -> "PadicScalar":
        return self.__add__(other.__neg__())

    def __mul__(self, other: "PadicScalar") -> "PadicScalar":
        p = self.p
        if p != other.p:
            raise ValueError(f"mixed primes {p} and {other.p}")
        if self.unit == 0 or other.unit == 0:
            if ((self.unit == 0 and self.v is INF)
                    or (other.unit == 0 and other.v is INF)):
                return _ZEROS.get(p) or PadicScalar.zero(p)
            # at least one approximate zero; bounds add (v is the bound
            # for zeroish factors and the exact valuation otherwise)
            return PadicScalar(p, self.v + other.v, 0, 0)
        n = self.N if self.N < other.N else other.N
        pw = _POWERS.get(p, ())
        if len(pw) <= n:
            pw = _powers(p, n)
        return PadicScalar(p, self.v + other.v, self.unit * other.unit % pw[n], n)

    def inv(self) -> "PadicScalar":
        if self.unit == 0:
            if self.v is INF:
                raise ZeroDivisionError("inversion of exact zero")
            raise PrecisionExhausted(
                f"cannot invert a value indistinguishable from 0 (O({self.p}^{self.v}))"
            )
        return PadicScalar(self.p, -self.v, _inv_unit(self.unit, self.p, self.N),
                           self.N)

    def shift(self, k: int) -> "PadicScalar":
        """Multiply by the exact power p**k."""
        if self.unit == 0:
            if self.v is INF:
                return self
            return PadicScalar.near_zero(self.p, self.v + k)
        return PadicScalar(self.p, self.v + k, self.unit, self.N)

    def sqrt(self) -> "PadicScalar":
        p = self.p
        if p == 2:
            raise NoSquareRoot("square roots are not supported for p=2")
        if self.unit == 0:
            if self.v is INF:
                return self
            raise PrecisionExhausted("square root of a value indistinguishable from 0")
        if self.v % 2 != 0:
            raise NoSquareRoot("odd valuation has no square root in Q_p")
        u = self.unit
        if pow(u, (p - 1) // 2, p) != 1:
            raise NoSquareRoot(f"unit {u % p} mod {p} is not a quadratic residue")
        r = _sqrt_mod_p(u % p, p)
        r = min(r, p - r)
        k = 1
        while k < self.N:
            k = min(2 * k, self.N)
            mod = p**k
            r = ((r + u * pow(r, -1, mod)) * pow(2, -1, mod)) % mod
        return PadicScalar(p, self.v // 2, r % p**self.N, self.N)

    # -- comparisons and export -----------------------------------------

    def __eq__(self, other) -> bool:
        # Structural equality of representations, not fuzzy closeness.
        if not isinstance(other, PadicScalar):
            return NotImplemented
        return (self.p, self.v, self.unit, self.N) == (other.p, other.v, other.unit, other.N)

    def __hash__(self):
        return hash((self.p, self.v, self.unit, self.N))

    def __repr__(self) -> str:
        if self.unit == 0:
            if self.v is INF:
                return "0 (exact)"
            return f"O({self.p}^{self.v})"
        return f"{self.p}^{self.v} * {_decimal(self.unit)} (mod {self.p}^{self.N})"

    def to_literal(self) -> str:
        """Compact text form ``p^v*u`` for ``Mat.__repr__``.

        It drops the precision window; JSON reports use ``str()``, which
        keeps it.
        """
        if self.unit == 0:
            if self.v is INF:
                return "0"
            return f"O({self.p}^{self.v})"
        return f"{self.p}^{self.v}*{_decimal(self.unit)}"


_BLOCK = 10**600  # fewer digits than any int-to-str limit CPython allows


def _decimal(x: int) -> str:
    """The decimal digits of ``x >= 0``, which ``str`` also gives below
    CPython's int-to-str digit limit.  Above it, blocks of 600 digits are
    printed one at a time, so the interpreter-wide limit stays as it is."""
    try:
        return str(x)
    except ValueError:
        blocks = []
        while x >= _BLOCK:
            x, low = divmod(x, _BLOCK)
            blocks.append("%0600d" % low)
        return str(x) + "".join(reversed(blocks))


def _fold(x, plus=(), minus=()):
    """``x + sum(a*b for a, b in plus) - sum(a*b for a, b in minus)``.

    ``x`` is a scalar or None.  One pass over the raw ``(v, unit, N)``
    integers evaluates the closed form of the module docstring, so the
    result, and any ``ValueError`` for mixed primes, is what the chain
    ``x + a0*b0 + a1*b1 ... - c0*d0 ...`` of scalar operators gives.
    """
    p = None
    M = INF  # least absolute precision of a term that is not an exact zero
    vs = None  # the nonzero terms below M sum to p**vs * s
    s = 0
    live = False  # some product is not an exact zero
    if x is not None:
        p = x.p
        pw = _POWERS.get(p, ())
        if x.unit:
            vs, s = x.v, x.unit
            M = vs + x.N
        elif x.v is not INF:
            M = x.v
    for neg, pairs in ((False, plus), (True, minus)):
        for a, b in pairs:
            ap = a.p
            if b.p != ap:
                raise ValueError(f"mixed primes {ap} and {b.p}")
            if ap != p:
                if p is not None:
                    raise ValueError(f"mixed primes {p} and {ap}")
                p = ap
                pw = _POWERS.get(p, ())
            u, w = a.unit, b.unit
            if u == 0 or w == 0:
                if (u == 0 and a.v is INF) or (w == 0 and b.v is INF):
                    continue
                live = True
                if a.v + b.v < M:
                    M = a.v + b.v
                continue
            live = True
            v = a.v + b.v
            m = v + (a.N if a.N < b.N else b.N)
            if m < M:
                M = m
            u = -u * w if neg else u * w
            # digits at or above M never reach the result, so every
            # exponent used below stays under the largest N in play
            if vs is None:
                vs, s = v, u
            elif v >= vs:
                if v < M:
                    d = v - vs
                    if len(pw) <= d:
                        pw = _powers(p, d)
                    s += u * pw[d]
            elif vs < M:
                d = vs - v
                if len(pw) <= d:
                    pw = _powers(p, d)
                vs, s = v, s * pw[d] + u
            else:
                vs, s = v, u
    if not live and x is not None:
        return x
    if M is INF:
        return _ZEROS.get(p) or PadicScalar.zero(p)
    if vs is None or vs >= M:
        return PadicScalar(p, M, 0, 0)
    width = M - vs
    if len(pw) <= width:
        pw = _powers(p, width)
    s %= pw[width]
    if s == 0:
        return PadicScalar(p, M, 0, 0)
    # 0 < s < p**width, and each factor of p stripped lowers both sides
    # by one, so s < p**(M - vs) is already reduced
    while s % p == 0:
        s //= p
        vs += 1
    return PadicScalar(p, vs, s, M - vs)
