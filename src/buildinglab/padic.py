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

Square roots use a residue search modulo p followed by Hensel lifting and
are only defined for odd p, even valuation and a quadratic-residue unit.
Of the two roots, the one whose residue modulo p is smaller is returned.

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

Powers of p come from one list per prime, ``_POWERS[p][k] == p**k``,
grown on demand to at most twice the largest exponent asked for.  Every
exponent asked for is below the largest relative precision ``N`` in
use, since digits at or above ``M`` are never computed.  A grown list
replaces the old one rather than extending it, so a list once read
never changes.

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
    # Residue search; fine for the small primes this laboratory targets.
    if p > 20011:
        raise NoSquareRoot(f"square roots not supported for p={p}")
    a %= p
    for r in range(1, p):
        if (r * r) % p == a:
            return r
    raise NoSquareRoot(f"{a} is not a quadratic residue mod {p}")


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

    @classmethod
    def from_unit(cls, p: int, v: int, unit: int, N: int = DEFAULT_PRECISION) -> "PadicScalar":
        unit %= p**N
        if unit % p == 0:
            raise ValueError("unit part must be coprime to p")
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

    def abs_precision(self):
        """The value is pinned modulo p**abs_precision()."""
        if self.unit == 0:
            return self.v
        return self.v + self.N

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
        while s % p == 0:
            s //= p
            v += 1
        n = m - v
        return PadicScalar(p, v, s % pw[n], n)

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
        mod = self.p**self.N
        return PadicScalar(self.p, -self.v, pow(self.unit, -1, mod), self.N)

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

    def agreement(self, other: "PadicScalar"):
        """Valuation floor of the difference: how deeply the two agree."""
        d = self - other
        return d.val_floor()

    def residue(self, k: int) -> int:
        """Integer congruent to the value modulo p**k (value must be integral)."""
        if self.unit == 0:
            if self.v is INF or self.v >= k:
                return 0
            raise PrecisionExhausted(f"residue mod p^{k} not determined")
        if self.v < 0:
            raise ValueError("value is not integral")
        if self.v >= k:
            return 0
        if self.v + self.N < k:
            raise PrecisionExhausted(f"residue mod p^{k} not determined")
        return (self.p**self.v * self.unit) % self.p**k

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
        return f"{self.p}^{self.v} * {self.unit} (mod {self.p}^{self.N})"

    def to_literal(self) -> str:
        """Compact text form ``p^v*u`` for ``Mat.__repr__``.

        It drops the precision window; JSON reports use ``str()``, which
        keeps it.
        """
        if self.unit == 0:
            if self.v is INF:
                return "0"
            return f"O({self.p}^{self.v})"
        return f"{self.p}^{self.v}*{self.unit}"


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
    while s % p == 0:
        s //= p
        vs += 1
    n = M - vs
    return PadicScalar(p, vs, s % pw[n], n)
