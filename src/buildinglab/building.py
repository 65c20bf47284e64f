"""Thick affine building model: SL_n over Q_p at finite precision.

Everything is phrased through matrices with :class:`PadicScalar` entries.
Ideal (boundary) simplices are flags of subspaces, stored as a canonical
matrix representative: each flag step gets the interpolation basis of the
saturated lattice it cuts out of Z_p^n, so two matrices represent the same
simplex exactly when their canonical forms agree within precision.

Conventions, fixed once for the whole laboratory:

* the group acts on the left, g . (h P) = (gh) P;
* the reference ideal chamber  c_plus  is the standard coordinate flag
  span(e_1) < span(e_1, e_2) < ...; its stabilizer is the upper
  triangular subgroup;
* direction vectors of diagonal elements diag(p^{a_1}, ..., p^{a_n})
  point toward  c_plus  when the exponents ascend, and the pairing
  coordinates of such a vector are v_j = a_{j+1} - a_j.

Under these choices the attracting chamber of diag(p^{-m}, p^{m}) is
c_plus, and conjugation g -> gamma g gamma^{-1} expands the unipotent
radical of the attracting parabolic.

Sums of products run on the raw p-adic kernel ``padic._fold``, which
returns exactly what the chain of scalar operators would: each entry of
a matrix product is one kernel call, each level of the cofactor
expansion in ``Mat.det`` is one kernel call over the first row and the
signed minors, and each entry touched by a row or column step
(``x - c*y``, or ``x + c*y`` in the tracked inverse) is one kernel call.
The kernel over one pair that is not an exact zero returns that scalar
product, and over none the exact zero, so two kinds of product skip it.
When every row of the left factor has at most one entry that is not an
exact zero (a diagonal, permutation or monomial matrix), row i of the
product is a_ik times row k of the right factor, built from the raw
fields as ``*`` builds them, and a row of exact zeros gives exact zeros.
Otherwise a product column with at most one such entry is built the
same way.  A row or column step leaves an entry as it is when its
partner is an exact zero: no product is live, and ``_fold`` returns
``x`` itself.  ``mat_agreement`` and the gate radius read the floor of a
difference through ``_diff_floor``, which builds no difference matrix
and subtracts no entry that both sides share.  A recomposition residual
``a * b - g`` is read through ``_residual_floor``, one kernel call
``g_ij - sum(a_ik * b_kj)`` per entry, with no product matrix and no
difference scalar.

Structured factors are built directly, entry by entry, as the products
they stand for would build them: ``diag`` without units and
``monomial`` place ``p**e`` at ``N`` equal to the working precision,
and Cartan's sorting permutation only reorders the columns of k1 and
the rows of k2: the elimination leaves every entry reduced within the
working precision, so no entry is multiplied by ``ctx.one`` as the
permutation product would.  Iwasawa takes ``t**-1`` from the pivot inverses
its column steps already computed: later steps never touch an earlier
pivot.

``random_gl_zp`` draws raw ``(v, unit)`` pairs with the same ``rng`` calls
as ``random_zp`` and redraws when the residue matrix mod p is singular,
before building any scalar; it accepts the same matrices, in the same
random stream, as building every draw and testing its p-adic determinant.

``_canonical_flag`` tests, scales and normalises flag columns on the raw
``(v, unit, N)`` integers of their entries and subtracts them through
``_fold``, with the entries the scalar operators give.  The canonical form
is a projection, so ``IdealSimplex.translate`` returns a simplex unchanged
for the shared ``ctx.identity``, and ``IdealSimplex.face`` for the
simplex's own dimensions.  A chamber translated by an exact
diagonal of its own context, as ``GroupContext.diag`` builds it without
units, the step of every boundary orbit, skips the product and the flag
where ``_diagonal_canon`` finds that the flag would make no row step and
no pivot division, with a bit-identical result.

Elimination has one core.  ``_echelon_rows`` is the only Gauss-Jordan
loop; rank, kernels and ``Mat.inv`` (which reduces [g | I]) run on it.
It skips normalising a row by a pivot that is exactly 1, of the row's
prime, when no entry of the row is more precise than the pivot, by
``_canonical_flag``'s rule: that division changes no entry.
The decompositions reduce a working copy A of g with one pivot search
and shared row and column operations.  These update tracked transforms:
row steps keep g = left . A, column steps keep g = A . right, and a
decomposition tracking both keeps g = left . A . right.
Each decomposition fixes only its pivot order: Cartan row-major over the
trailing square, Iwasawa along row i from column i, Iwahori the bottom
row first and then the leftmost column among least valuations, Bruhat
the bottom-most nonzero entry of each column.
"""

from __future__ import annotations

import functools
import math
import random
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from . import _Record, coxeter
from .coxeter import (
    CoxeterSystem,
    WeylElement,
    get_system,
    weyl_from_permutation,
)
from .padic import INF, PadicScalar, PrecisionExhausted, _fold, _inv_unit, _powers

__all__ = [
    "AffineWeylCoset",
    "GroupContext",
    "IdealSimplex",
    "Mat",
    "NotOpposite",
    "big_cell_frame",
    "boundary_simplex",
    "bruhat_cell",
    "cartan_decomposition",
    "chamber_of",
    "iwahori_coset",
    "iwasawa_decomposition",
    "mat_agreement",
    "opposite",
    "parabolic_membership",
    "project_to_star",
    "retraction",
    "type_of_dims",
    "dims_of_type",
    "weyl_distance",
]


class NotOpposite(ValueError):
    """Raised when a construction needs transverse flags and got none."""


# ---------------------------------------------------------------------------
# matrices


class Mat:
    """Immutable n x n matrix over Q_p at finite precision.

    ``_shifts`` holds the exponents k of a matrix that ``GroupContext.diag``
    built as exactly ``diag(p**k)``, and None on every other matrix.
    """

    __slots__ = ("ctx", "rows", "_shifts")

    def __init__(self, ctx: "GroupContext", rows: Sequence[Sequence[PadicScalar]]):
        self.ctx = ctx
        self.rows: Tuple[Tuple[PadicScalar, ...], ...] = tuple(map(tuple, rows))
        self._shifts: Optional[Tuple[int, ...]] = None

    @property
    def n(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __mul__(self, other: "Mat") -> "Mat":
        p = self.ctx.p
        if other.ctx.p != p:
            raise ValueError(f"mixed primes {p} and {other.ctx.p}")
        rows, zero = self.rows, self.ctx.zero
        picks = []  # per row of self: the index of its one live entry, or None
        for row in rows:
            live = [k for k, x in enumerate(row) if x.unit or x.v is not INF]
            if len(live) > 1:
                break
            picks.append(live[0] if live else None)
        else:
            # the kernel over one live pair is exactly that scalar product,
            # so row i of the product is a_ik times row k of other, which
            # _times builds as * does
            brows = other.rows
            out = []
            for row, k in zip(rows, picks):
                if k is None:
                    out.append([zero] * len(brows[0]))
                    continue
                a = row[k]
                if a.unit:
                    out.append(_times(brows[k], a.p, a.v, a.unit, a.N,
                                      _powers(a.p, a.N)))
                else:
                    out.append([a * b for b in brows[k]])
            return Mat(self.ctx, out)
        out = []  # columns of the product
        for col in zip(*other.rows):
            live = [k for k, x in enumerate(col) if x.unit or x.v is not INF]
            if len(live) == 1:
                # the kernel over one live pair is exactly that scalar product
                k = live[0]
                b = col[k]
                out.append([row[k] * b for row in rows])
            elif live:
                out.append([_fold(None, zip(row, col)) for row in rows])
            else:
                out.append([zero] * len(rows))
        return Mat(self.ctx, zip(*out))

    def transpose(self) -> "Mat":
        return Mat(self.ctx, list(zip(*self.rows)))

    def det(self) -> PadicScalar:
        """Cofactor expansion; division-free, fine for n <= 4."""
        return _det(self.rows)

    def inv(self) -> "Mat":
        """Gauss-Jordan on [g | I] with smallest-valuation pivoting.

        The inverse of ``ctx.diag(k)`` without units is ``ctx.diag(-k)``,
        fields and shared exact zeros as the elimination gives them, and is
        built directly.
        """
        n, ctx = self.n, self.ctx
        if self._shifts is not None:
            return ctx.diag([-k for k in self._shifts])
        aug = [row + tuple(ctx.one if i == j else ctx.zero for j in range(n))
               for i, row in enumerate(self.rows)]
        R, pivots = _echelon_rows(ctx, aug)
        if len(pivots) < n or pivots[n - 1][1] != n - 1:
            raise PrecisionExhausted("matrix is singular within working precision")
        return Mat(ctx, [r[n:] for r in R])

    def min_val_floor(self):
        return min(x.val_floor() for row in self.rows for x in row)

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(x.to_literal() for x in row) for row in self.rows
        )
        return f"Mat[{body}]"


def _det(rows: Sequence[Sequence[PadicScalar]]) -> PadicScalar:
    """Cofactor expansion along the first row, one kernel call per level."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    terms = [(rows[0][j], _det([r[:j] + r[j + 1:] for r in rows[1:]]))
             for j in range(n)]
    return _fold(None, terms[0::2], terms[1::2])


def _int_det(rows: Sequence[Sequence[int]]) -> int:
    """Cofactor expansion of an integer matrix along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-x if j % 2 else x) * _int_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def mat_agreement(a: Mat, b: Mat):
    """Valuation depth to which two matrices agree: the least valuation
    floor of the entries of a - b, INF when all of them are exact zeros."""
    return _diff_floor(a, b)[0]


def _diff_floor(a: Mat, b: Mat):
    """(floor, live) of the entries of ``a - b``, building no matrix.

    floor is their least ``val_floor`` and live tells whether one of them
    is not zeroish.  An entry that is the same object on both sides
    differs from itself by ``O(p**(v + N))``, or by ``O(p**v)`` when it
    is zeroish, so it contributes that bound without a subtraction.
    """
    floor, live = INF, False
    for ra, rb in zip(a.rows, b.rows):
        for x, y in zip(ra, rb):
            if x is y:
                f = x.v + x.N if x.unit else x.v
            else:
                d = x - y
                f = d.v
                if d.unit:
                    live = True
            if f < floor:
                floor = f
    return floor, live


def _residual_floor(a: Mat, b: Mat, g: Mat):
    """(floor, live) of the entries of ``a * b - g``, building no matrix.

    Entry (i, j) is one kernel call ``g_ij - sum(a_ik * b_kj)``.  By the
    closed form of ``padic._fold`` it has the floor and zeroishness of
    the entry of ``_diff_floor(a * b, g)``, whose sign is the opposite,
    and mixed primes raise the ``ValueError`` that route raises.
    """
    p = a.ctx.p
    for m in (b, g):
        if m.ctx.p != p:
            raise ValueError(f"mixed primes {p} and {m.ctx.p}")
    floor, live = INF, False
    cols = list(zip(*b.rows))
    for row, grow in zip(a.rows, g.rows):
        for col, y in zip(cols, grow):
            d = _fold(y, (), zip(row, col))
            if d.unit:
                live = True
            if d.v < floor:
                floor = d.v
    return floor, live


# ---------------------------------------------------------------------------
# elimination core


def _pivot(A, cells):
    """First cell, in the order given, with a nonzero entry of least valuation."""
    piv, best = None, None
    for i, j in cells:
        x = A[i][j]
        if not x.is_zeroish():
            v = x.val_floor()
            if best is None or v < best:
                piv, best = (i, j), v
    return piv


def _sub_row(A, dst, src, c, left=None):
    """A <- E A with E = I - c e_{dst, src}; left <- left E^{-1}.

    An entry whose partner is an exact zero is left as it is, which is
    what ``_fold`` returns for it.
    """
    A[dst] = [_fold(x, (), ((c, y),)) if y.unit or y.v is not INF else x
              for x, y in zip(A[dst], A[src])]
    if left is not None:
        for r in left:
            y = r[dst]
            if y.unit or y.v is not INF:
                r[src] = _fold(r[src], ((c, y),))


def _sub_col(A, dst, src, c, right=None):
    """A <- A F with F = I - c e_{src, dst}; right <- F^{-1} right.

    Skips exact-zero partners as ``_sub_row`` does.
    """
    for r in A:
        y = r[src]
        if y.unit or y.v is not INF:
            r[dst] = _fold(r[dst], (), ((c, y),))
    if right is not None:
        right[src] = [_fold(x, ((c, y),)) if y.unit or y.v is not INF else x
                      for x, y in zip(right[src], right[dst])]


def _swap_rows(A, i, j, left=None):
    A[i], A[j] = A[j], A[i]
    if left is not None:
        for r in left:
            r[i], r[j] = r[j], r[i]


def _swap_cols(A, i, j, right=None):
    for r in A:
        r[i], r[j] = r[j], r[i]
    if right is not None:
        right[i], right[j] = right[j], right[i]


def _clear_cross(ctx, A, pi, pj, rows, cols, left, right):
    """Clear column pj over rows, then row pi over cols, with pivot A[pi][pj].

    Cleared entries are set to the exact zero: the operations cancel them
    by construction, whatever digits the subtraction kept.  Returns the
    pivot's inverse.
    """
    pinv = A[pi][pj].inv()
    for i in rows:
        if i != pi and not A[i][pj].is_zeroish():
            _sub_row(A, i, pi, A[i][pj] * pinv, left)
            A[i][pj] = ctx.zero
    for j in cols:
        if j != pj and not A[pi][j].is_zeroish():
            _sub_col(A, j, pj, A[pi][j] * pinv, right)
            A[pi][j] = ctx.zero
    return pinv


def _echelon_rows(ctx: "GroupContext", rows: List[List[PadicScalar]]):
    """Gauss-Jordan with min-valuation pivoting; (reduced, pivots)."""
    R = [list(r) for r in rows]
    m = len(R)
    k = len(R[0]) if R else 0
    pivots: List[Tuple[int, int]] = []
    r = 0
    for c in range(k):
        if r >= m:
            break
        piv = _pivot(R, ((i, c) for i in range(r, m)))
        if piv is None:
            continue
        _swap_rows(R, r, piv[0])
        x = R[r][c]
        # a pivot that is exactly 1 changes no entry at most as precise as
        # itself, as in _canonical_flag
        if x.unit != 1 or x.v != 0 or any(e.N > x.N or e.p != x.p for e in R[r]):
            pinv = x.inv()
            R[r] = [e * pinv for e in R[r]]
        for i in range(m):
            if i != r and not R[i][c].is_zeroish():
                _sub_row(R, i, r, R[i][c])
        pivots.append((r, c))
        r += 1
    return R, pivots


def matrix_rank(ctx: "GroupContext", rows: List[List[PadicScalar]]) -> int:
    """Rank witnessed at working precision (never overcounts)."""
    if not rows or not rows[0]:
        return 0
    return len(_echelon_rows(ctx, rows)[1])


def kernel_basis(
    ctx: "GroupContext", rows: List[List[PadicScalar]], width: int
) -> List[List[PadicScalar]]:
    """Basis of the right kernel of the matrix with the given rows."""
    if not rows:
        return [
            [ctx.one if i == j else ctx.zero for i in range(width)]
            for j in range(width)
        ]
    R, pivots = _echelon_rows(ctx, rows)
    pivot_cols = {c: i for (i, c) in pivots}
    out = []
    for f in range(width):
        if f in pivot_cols:
            continue
        vec = [ctx.zero] * width
        vec[f] = ctx.one
        for c, i in pivot_cols.items():
            vec[c] = -R[i][f]
        out.append(vec)
    return out


def _intersection_columns(ctx, a_cols, b_cols):
    """Spanning set (possibly redundant) of span(a) meet span(b)."""
    if not a_cols or not b_cols:
        return []
    n = len(a_cols[0])
    rows = [
        [col[i] for col in a_cols] + [-col[i] for col in b_cols]
        for i in range(n)
    ]
    return [_combine_columns(a_cols, z[: len(a_cols)])
            for z in kernel_basis(ctx, rows, len(a_cols) + len(b_cols))]


def _combine_columns(cols, coeffs):
    """The column sum(c * col), one kernel call per entry.

    Entry i is what the chain ``zero + col_0[i]*c_0 + col_1[i]*c_1 ...``
    of scalar operators gives; cols must not be empty.
    """
    pairs = list(zip(cols, coeffs))
    return [_fold(None, [(col[i], c) for col, c in pairs])
            for i in range(len(cols[0]))]


# ---------------------------------------------------------------------------
# group context


# The most bits a unit may take, precision * p.bit_length().  It bounds
# the cost of one scalar operation, and the table padic._powers keeps: at
# most 2N powers of p at precision N, so at most 2N**2 * log2(p) bits,
# which is 2**30 bits (128 MiB) at the bound for p = 2 or 3 and less for
# every larger p.  At the bound, chabauty's so2-sl2-q5 config runs in
# 14 s at p = 4294967291 (precision 1024) and 12 s at p = 3 (16384), in
# under 50 MB, on a 2-core 2.1 GHz Xeon VM with CPython 3.11.
_MAX_UNIT_BITS = 2**15

# field -> (expectation, test(value, group)): the values of n, p and
# precision the arithmetic can work with, checked in this order, so a
# test may read the fields before its own
_GROUP_RULES = {
    "n": ("2, 3 or 4", lambda n, g: 2 <= n <= 4),
    # trial division, bounded so that the check itself stays fast
    "p": ("a prime below 2**32", lambda p, g: 2 <= p < 2**32 and all(
        p % d for d in range(2, math.isqrt(p) + 1))),
    "precision": ("at least 1, with precision * p.bit_length() at most %d"
                  % _MAX_UNIT_BITS,
                  lambda N, g: 1 <= N and N * g["p"].bit_length() <= _MAX_UNIT_BITS),
}


def _group_fault(n: int, p: int, precision: int) -> Optional[Tuple[str, str, int]]:
    """(field, expectation, value) for the first of n, p, precision out of range.

    None when the arithmetic can work in SL_n(Q_p) at that precision.
    """
    values = {"n": n, "p": p, "precision": precision}
    for field, (what, ok) in _GROUP_RULES.items():
        if not ok(values[field], values):
            return field, what, values[field]
    return None


# valuation steps of a random_zp draw, picked by one rng.choice
_VAL_STEPS = (0, 0, 0, 1, 1, 2, 3)


class GroupContext:
    """Shared data for SL_n(Q_p) work at one precision level."""

    def __init__(self, n: int, p: int, precision: int = 32):
        fault = _group_fault(n, p, precision)
        if fault is not None:
            raise ValueError("group %s: expected %s, got %r" % fault)
        self.n = n
        self.p = p
        self.precision = precision
        self.weyl: CoxeterSystem = get_system(f"A{n - 1}")
        self.zero = PadicScalar.zero(p)
        self.one = PadicScalar.one(p, precision)
        self._unit_bound = p ** min(precision, 8)
        # one shared instance: a Mat is immutable, and callers that need a
        # working copy copy its rows
        self.identity: Mat = self.mat(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    # -- scalar helpers ------------------------------------------------

    def s(self, x: int) -> PadicScalar:
        return PadicScalar.from_int(x, self.p, self.precision)

    # -- matrix constructors --------------------------------------------

    def mat(self, entries: Sequence[Sequence]) -> Mat:
        """The matrix of integers and scalars; a scalar of another prime
        raises ``ValueError``."""
        p = self.p
        rows = []
        for r in entries:
            row = [x if isinstance(x, PadicScalar) else self.s(x) for x in r]
            for x in row:
                if x.p != p:
                    raise ValueError(f"mixed primes {p} and {x.p}")
            rows.append(row)
        return Mat(self, rows)

    def diag(self, exps: Sequence[int], units: Optional[Sequence[int]] = None) -> Mat:
        """``diag(units[i] * p**exps[i])``.  Without units it is exactly
        ``diag(p**exps)``, unit 1 at the working precision, and keeps its
        exponents in ``_shifts``: a chamber translated by it may skip the
        product and the flag (``IdealSimplex.translate``)."""
        n, p, N = self.n, self.p, self.precision
        rows = [[self.zero for _ in range(n)] for _ in range(n)]
        for i in range(n):
            if units is None:
                rows[i][i] = PadicScalar(p, exps[i], 1, N)
            else:
                rows[i][i] = PadicScalar.from_int(units[i], p, N).shift(exps[i])
        m = Mat(self, rows)
        if units is None:
            m._shifts = tuple(exps[i] for i in range(n))
        return m

    def perm(self, sigma: Sequence[int]) -> Mat:
        """Permutation matrix sending e_j to e_{sigma(j)}."""
        n = self.n
        rows = [[self.zero for _ in range(n)] for _ in range(n)]
        for j in range(n):
            rows[sigma[j]][j] = self.one
        return Mat(self, rows)

    @property
    def reversal(self) -> Mat:
        return self.perm(tuple(range(self.n - 1, -1, -1)))

    def monomial(self, sigma: Sequence[int], exps: Sequence[int]) -> Mat:
        """``perm(sigma) * diag(exps)``: e_j goes to p^{exps[j]} e_{sigma(j)}."""
        n, p, N = self.n, self.p, self.precision
        rows = [[self.zero for _ in range(n)] for _ in range(n)]
        for j in range(n):
            rows[sigma[j]][j] = PadicScalar(p, exps[j], 1, N)
        return Mat(self, rows)

    # -- reference boundary data ------------------------------------------

    @property
    def full_dims(self) -> Tuple[int, ...]:
        return tuple(range(1, self.n))

    # built once per context: an IdealSimplex is immutable
    @functools.cached_property
    def c_plus(self) -> "IdealSimplex":
        return boundary_simplex(self.identity, self.full_dims)

    # -- samplers ----------------------------------------------------------

    def _draw_unit(self, rng: random.Random) -> int:
        """Raw unit below p**min(precision, 8), so already reduced mod p**precision."""
        p = self.p
        u = rng.randrange(1, self._unit_bound)
        while u % p == 0:
            u += 1
        return u

    def _draw_zp(self, rng: random.Random, min_val: int = 0) -> Optional[Tuple[int, int]]:
        """Raw (v, unit) of a random_zp draw; None for the exact zero."""
        if rng.random() < 0.08:
            return None
        v = min_val + rng.choice(_VAL_STEPS)
        return v, self._draw_unit(rng)

    def random_unit(self, rng: random.Random) -> PadicScalar:
        return PadicScalar(self.p, 0, self._draw_unit(rng), self.precision)

    def random_zp(self, rng: random.Random, min_val: int = 0) -> PadicScalar:
        d = self._draw_zp(rng, min_val)
        return self.zero if d is None else PadicScalar(self.p, *d, self.precision)

    def random_gl_zp(self, rng: random.Random) -> Mat:
        """Random element of GL_n(Z_p): integral with unit determinant.

        A draw whose residue matrix mod p is singular is redrawn before any
        scalar is built.  Every entry is integral and pinned modulo p at
        least, so that test rejects exactly the draws whose p-adic
        determinant fails to be a unit, which is still checked.
        """
        n, p, N = self.n, self.p, self.precision
        while True:
            draws = [[self._draw_zp(rng) for _ in range(n)] for _ in range(n)]
            residues = [[0 if d is None or d[0] else d[1] % p for d in row]
                        for row in draws]
            if _int_det(residues) % p == 0:
                continue
            m = Mat(self, [[self.zero if d is None else PadicScalar(p, *d, N)
                            for d in row] for row in draws])
            det = m.det()
            if not det.is_zeroish() and det.val_floor() == 0:
                return m

    def random_iwahori(self, rng: random.Random) -> Mat:
        """Integral, invertible, congruent to upper triangular mod p."""
        n = self.n
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if i == j:
                    row.append(self.random_unit(rng))
                elif i < j:
                    row.append(self.random_zp(rng))
                else:
                    row.append(self.random_zp(rng, min_val=1))
            rows.append(row)
        return Mat(self, rows)

    def random_unipotent(self, rng: random.Random, upper: bool = True, min_val: int = -2) -> Mat:
        n = self.n
        rows = [
            [self.one if i == j else self.zero for j in range(n)] for i in range(n)
        ]
        for i in range(n):
            for j in range(n):
                keep = i < j if upper else i > j
                if keep and rng.random() < 0.8:
                    rows[i][j] = self.random_unit(rng).shift(rng.randrange(min_val, 4))
        return Mat(self, rows)

    def random_element(self, rng: random.Random) -> Mat:
        """Random invertible matrix with mildly spread valuations."""
        u = self.random_unipotent(rng, upper=True)
        l = self.random_unipotent(rng, upper=False)
        exps = [rng.randrange(-2, 3) for _ in range(self.n)]
        core = self.diag(exps, units=[rng.randrange(1, self.p ** 3) * self.p + 1 for _ in range(self.n)])
        sigma = list(range(self.n))
        rng.shuffle(sigma)
        return u * (self.perm(sigma) * (core * l))

    def random_parabolic_element(
        self, rng: random.Random, dims: Sequence[int], integral: bool = False
    ) -> Mat:
        """Random element of the standard block-upper parabolic for dims."""
        n = self.n
        cuts = [0, *dims, n]
        off_lo = 0 if integral else -2
        while True:
            rows = [[self.zero for _ in range(n)] for _ in range(n)]
            for b in range(len(cuts) - 1):
                lo, hi = cuts[b], cuts[b + 1]
                for i in range(lo, hi):
                    for j in range(lo, hi):
                        rows[i][j] = self.random_zp(rng)
                    for j in range(hi, n):
                        if rng.random() < 0.7:
                            rows[i][j] = self.random_unit(rng).shift(rng.randrange(off_lo, 3))
            ok = True
            for b in range(len(cuts) - 1):
                lo, hi = cuts[b], cuts[b + 1]
                sub = [[rows[i][j] for j in range(lo, hi)] for i in range(lo, hi)]
                if _det(sub).is_zeroish():
                    ok = False
            if ok:
                return Mat(self, rows)


# ---------------------------------------------------------------------------
# type bookkeeping: flag dimensions <-> spherical type (generator subsets)


def dims_of_type(n: int, I: Iterable[int]) -> Tuple[int, ...]:
    """Flag dimensions fixed by the standard parabolic of type I."""
    I = frozenset(I)
    return tuple(d for d in range(1, n) if (d - 1) not in I)


def type_of_dims(n: int, dims: Iterable[int]) -> FrozenSet[int]:
    dims = frozenset(dims)
    return frozenset(i for i in range(n - 1) if (i + 1) not in dims)


# ---------------------------------------------------------------------------
# canonical flag representatives and ideal simplices


def _canonical_flag(ctx: GroupContext, g: Mat, dims: Tuple[int, ...]) -> Mat:
    """Interpolation-basis representative of the flag spanned by g's columns.

    Block by block the columns are reduced to the unique basis of the
    saturated lattice  V_d  intersect  Z_p^n  that is zero at every other
    pivot row and one at its own.  Pivot rows are the residue-field pivot
    rows of the reduced lattice, so the result depends only on the flag,
    not on the representative.

    The zero and valuation tests, the primitivising scale by
    ``p**-floor`` and the pivot normalisation read and write the raw
    ``(v, unit, N)`` integers of the entries, with the fields the scalar
    ``*`` would give; a normalisation by a pivot that is exactly 1 and
    at least as precise as its column (and of its prime) changes no entry
    and is skipped.
    Row subtraction goes through ``_fold``.
    """
    n, p, N = ctx.n, ctx.p, ctx.precision
    pw = _powers(p, N)
    cols = [list(col) for col in zip(*g.rows)]
    free_rows = list(range(n))  # rows that are no pivot yet, ascending
    pivot_rows: List[int] = []  # across all finished blocks, in block order
    pivot_of_col: List[int] = [-1] * n
    lo = 0
    for hi in (*dims, n):
        block = range(lo, hi)
        # clear rows already used by earlier blocks
        for j in block:
            for r in pivot_rows:
                c = cols[j][r]
                if c.unit:
                    _sub_row(cols, j, pivot_of_col.index(r), c)
                    cols[j][r] = ctx.zero
        todo = list(block)  # unfinished columns, in block order
        while todo:
            # primitivize the unfinished columns
            for j in todo:
                col = cols[j]
                live, floor = False, INF
                for i in free_rows:
                    x = col[i]
                    if x.unit:
                        live = True
                    if x.v < floor:
                        floor = x.v
                if not live:
                    raise PrecisionExhausted(
                        "flag degenerate within working precision"
                    )
                if floor != 0:
                    cols[j] = _times(col, p, -floor, 1, N, pw)
            # smallest row holding a unit of some unfinished column
            pr = pc = None
            for r in free_rows:
                for j in todo:
                    x = cols[j][r]
                    if x.unit and x.v == 0:
                        pr, pc = r, j
                        break
                if pr is not None:
                    break
            if pr is None:
                raise PrecisionExhausted("flag degenerate within working precision")
            # normalise the pivot column by the pivot, a unit of valuation 0
            col = cols[pc]
            u0, w0 = col[pr].unit, col[pr].N
            if u0 != 1 or any(x.N > w0 or x.p != p for x in col):
                pw0 = _powers(p, w0)
                cols[pc] = col = _times(col, p, 0, _inv_unit(u0, p, w0), w0, pw0)
            col[pr] = ctx.one
            for j in block:
                if j == pc:
                    continue
                c = cols[j][pr]
                if c.unit:
                    _sub_row(cols, j, pc, c)
                # the interpolation condition holds exactly by construction
                cols[j][pr] = ctx.zero
            pivot_rows.append(pr)
            free_rows.remove(pr)
            pivot_of_col[pc] = pr
            todo.remove(pc)
        if hi - lo > 1:
            # order the block's columns by pivot row
            block_sorted = sorted(block, key=lambda j: pivot_of_col[j])
            reordered = [cols[j] for j in block_sorted]
            pivots_sorted = [pivot_of_col[j] for j in block_sorted]
            for k, j in enumerate(block):
                cols[j] = reordered[k]
                pivot_of_col[j] = pivots_sorted[k]
        lo = hi
    return Mat(ctx, zip(*cols))


def _times(col, p: int, shift: int, unit: int, cap: int, pw) -> List[PadicScalar]:
    """``c * x`` for each x of col, c = ``p**shift * unit`` known to ``N = cap``.

    Built from the raw fields exactly as ``PadicScalar.__mul__`` builds
    them, with its ``ValueError`` for an entry of another prime; ``pw``
    holds the powers of p up to ``cap``.
    """
    out = []
    for x in col:
        if x.p != p:
            raise ValueError(f"mixed primes {p} and {x.p}")
        u = x.unit
        if u:
            w = x.N
            m = w if w < cap else cap
            out.append(PadicScalar(p, x.v + shift, unit * u % pw[m], m))
        elif x.v is INF:
            out.append(x)
        else:
            out.append(PadicScalar(p, x.v + shift, 0, 0))
    return out


def _diagonal_canon(ctx: GroupContext, canon: Mat, shifts: Sequence[int]) -> Optional[Mat]:
    """The canonical form of ``diag(p**shifts) * canon`` for a chamber,
    the diagonal exact as ``ctx.diag`` builds it, or None where
    ``_canonical_flag`` would make a row step, divide by a pivot or raise.

    The product scales row i by ``p**k_i``: each entry's valuation moves
    by ``k_i``, its ``N`` stays and its unit is reduced modulo ``p**N``,
    as ``_times`` gives them for entries of the context's prime no more
    precise than the working precision.  Column by column, the flag of
    the product then clears the earlier pivot rows, which must hold the
    shared exact zero, so no row step is made; takes the floor ``f`` of
    the shifted valuations over the other rows; and picks the first of
    those rows holding a unit of valuation ``f``, whose unit must be 1
    and at least as precise as every entry of the column, so no division
    is made.  Entry (i, j) is then entry (i, j) of canon with its
    valuation moved by ``k_i - f``, ``ctx.one`` at the pivot, and the
    shared exact zero passed through; an exact zero that is not the
    shared one gives None.
    """
    n, p, N = ctx.n, ctx.p, ctx.precision
    zero, one = ctx.zero, ctx.one
    pw = _powers(p, N)
    used = [False] * n  # pivot rows of earlier columns
    cols = []
    for col in zip(*canon.rows):
        floor = top = INF  # least valuation over the free rows, over their units
        pr = None
        widest = 0  # the largest N in the column after the product
        for i, x in enumerate(col):
            if x is zero:
                continue
            if used[i] or x.p != p or x.N > N:
                return None
            v = x.v + shifts[i]
            if x.unit:
                if v < top:
                    top, pr = v, i
                if x.N > widest:
                    widest = x.N
            elif x.v is INF:
                return None
            if v < floor:
                floor = v
        if pr is None or top != floor:
            return None
        x = col[pr]
        if x.unit % pw[x.N] != 1 or x.N < widest:
            return None
        out = list(col)
        for i, x in enumerate(col):
            if x is zero or i == pr:
                continue
            u = x.unit
            if u:
                u %= pw[x.N]
                if not u:
                    return None
                out[i] = PadicScalar(p, x.v + shifts[i] - floor, u, x.N)
            else:
                out[i] = PadicScalar(p, x.v + shifts[i] - floor, 0, 0)
        out[pr] = one
        used[pr] = True
        cols.append(out)
    return Mat(ctx, zip(*cols))


class IdealSimplex:
    """Boundary simplex of the building: a flag, canonically presented."""

    __slots__ = ("ctx", "dims", "canon")

    def __init__(self, ctx: GroupContext, dims: Tuple[int, ...], canon: Mat):
        self.ctx = ctx
        self.dims = dims
        self.canon = canon

    @property
    def type(self) -> FrozenSet[int]:
        return type_of_dims(self.ctx.n, self.dims)

    def is_chamber(self) -> bool:
        return self.dims == self.ctx.full_dims

    def translate(self, g: Mat) -> "IdealSimplex":
        """The simplex g . self; the shared identity gives self back.

        The canonical form is a projection on representatives whose
        entries carry at most the working precision, as every scalar a
        context builds and all arithmetic on them do: canonicalising one
        returns it entry for entry, ``N`` included, and the identity
        product changes no entry.  So translating it by ``ctx.identity``
        is exactly ``self`` and computes no flag
        (``test_canonical_form_is_a_projection``).  The identity product
        cuts an entry finer than the working precision down to it, so a
        representative holding one is translated in full.

        A chamber translated by ``diag(p**k)`` of its own context, as
        ``ctx.diag`` builds it without units or ``Mat.inv`` inverts that
        (both keep k in ``g._shifts``), is built by ``_diagonal_canon``
        where it answers; otherwise, and for every other g, the product is
        canonicalised in full.  Both give the same fields and the same
        shared ``ctx.one`` and exact zeros
        (``test_diagonal_translate_matches_scalar_reference``).
        """
        ctx = self.ctx
        if g is ctx.identity and self._within_precision():
            return self
        if g._shifts is not None and g.ctx is ctx and self.dims == ctx.full_dims:
            canon = _diagonal_canon(ctx, self.canon, g._shifts)
            if canon is not None:
                return IdealSimplex(ctx, self.dims, canon)
        return boundary_simplex(g * self.canon, self.dims)

    def _within_precision(self) -> bool:
        """No entry of the representative is finer than the working precision."""
        N = self.ctx.precision
        return all(x.N <= N for row in self.canon.rows for x in row)

    def face(self, sub_dims: Iterable[int]) -> "IdealSimplex":
        """The face of the given flag dimensions; the simplex itself for
        its own dimensions, by the projection property that ``translate``
        uses for the identity, unless an entry is finer than the working
        precision."""
        sub = tuple(sorted(sub_dims))
        if not set(sub) <= set(self.dims):
            raise ValueError("face dimensions must refine the simplex")
        if sub == self.dims and self._within_precision():
            return self
        return boundary_simplex(self.canon, sub)

    def agreement(self, other: "IdealSimplex"):
        if self.dims != other.dims:
            return -INF
        return mat_agreement(self.canon, other.canon)

    def same(self, other: "IdealSimplex", depth: Optional[int] = None) -> bool:
        if depth is None:
            depth = self.ctx.precision - 4
        return self.dims == other.dims and self.agreement(other) >= depth

    def __eq__(self, other) -> bool:
        if not isinstance(other, IdealSimplex):
            return NotImplemented
        return self.same(other)

    def __hash__(self):
        # hash only structure that equality-within-precision preserves
        return hash((self.ctx.n, self.ctx.p, self.dims))

    def __repr__(self) -> str:
        return f"IdealSimplex(dims={self.dims}, rep={self.canon!r})"


def boundary_simplex(g: Mat, dims: Iterable[int]) -> IdealSimplex:
    dims = tuple(sorted(dims))
    if not dims or dims[-1] >= g.n or dims[0] < 1:
        raise ValueError(f"invalid flag dimensions {dims} for n={g.n}")
    return IdealSimplex(g.ctx, dims, _canonical_flag(g.ctx, g, dims))


def chamber_of(s: IdealSimplex) -> IdealSimplex:
    """A chamber containing s: refine along the canonical representative."""
    if s.is_chamber():
        return s
    return boundary_simplex(s.canon, s.ctx.full_dims)


def opposite(s1: IdealSimplex, s2: IdealSimplex) -> bool:
    """Transversality of two flags of dual types."""
    ctx = s1.ctx
    n = ctx.n
    if s2.dims != tuple(sorted(n - d for d in s1.dims)):
        return False
    for d in s1.dims:
        cols = [
            [s1.canon.rows[i][j] for j in range(d)]
            + [s2.canon.rows[i][j] for j in range(n - d)]
            for i in range(n)
        ]
        if _det(cols).is_zeroish():
            return False
    return True


def parabolic_membership(g: Mat, s: IdealSimplex, depth: Optional[int] = None) -> bool:
    """Does g stabilize the simplex (equal flags within precision)?"""
    return s.translate(g).same(s, depth)


# ---------------------------------------------------------------------------
# decompositions


def cartan_decomposition(g: Mat) -> Tuple[Mat, Tuple[int, ...], Mat]:
    """g = k1 * diag(p^{a_1 >= ... >= a_n}) * k2 with k's in GL_n(Z_p)."""
    ctx = g.ctx
    n = g.n
    A = [list(r) for r in g.rows]
    k1 = [list(r) for r in ctx.identity.rows]
    k2 = [list(r) for r in ctx.identity.rows]
    exps = []
    for t in range(n):
        piv = _pivot(A, ((i, j) for i in range(t, n) for j in range(t, n)))
        if piv is None:
            raise PrecisionExhausted("matrix singular within precision")
        _swap_rows(A, t, piv[0], k1)
        _swap_cols(A, t, piv[1], k2)
        # normalize the pivot to an exact power of p
        u_inv = PadicScalar(ctx.p, -A[t][t].valuation(), 1, ctx.precision) * A[t][t]
        c = u_inv.inv()
        for r in A:
            r[t] = r[t] * c
        k2[t] = [u_inv * x for x in k2[t]]
        exps.append(A[t][t].valuation())
        rest = range(t + 1, n)
        _clear_cross(ctx, A, t, t, rest, rest, k1, k2)
    # sort exponents descending by conjugating with a permutation: with
    # P = perm(sigma), sigma the inverse of order, K1 = k1 * P^-1 takes
    # the columns of k1 in order and K2 = P * k2 its rows; the elimination
    # leaves every entry reduced within the working precision, so
    # reordering is all that P does
    order = sorted(range(n), key=lambda i: -exps[i])
    K1 = Mat(ctx, [[row[i] for i in order] for row in k1])
    K2 = Mat(ctx, [k2[i] for i in order])
    return K1, tuple(exps[i] for i in order), K2


def iwasawa_decomposition(g: Mat, lower: bool = True) -> Tuple[Mat, Mat, Mat]:
    """g = u * t * k: u unitriangular, t diagonal, k in GL_n(Z_p).

    With lower=True, u is lower unitriangular (the decomposition adapted
    to the descending flag); upper works through reversal conjugation.
    """
    ctx = g.ctx
    if not lower:
        J = ctx.reversal
        u, t, k = iwasawa_decomposition(J * g * J, lower=True)
        return J * u * J, J * t * J, J * k * J
    n = g.n
    A = [list(r) for r in g.rows]
    k = [list(r) for r in ctx.identity.rows]
    tinv = []
    for i in range(n):
        piv = _pivot(A, ((i, j) for j in range(i, n)))
        if piv is None:
            raise PrecisionExhausted("matrix singular within precision")
        _swap_cols(A, i, piv[1], k)
        # later steps touch only columns right of i, so the pivot A[i][i]
        # is final and its inverse is the inverse of t's entry i
        tinv.append(_clear_cross(ctx, A, i, i, (), range(i + 1, n), None, k))
    t = Mat(
        ctx,
        [
            [A[i][i] if i == j else ctx.zero for j in range(n)]
            for i in range(n)
        ],
    )
    u = Mat(
        ctx,
        [[A[i][j] * tinv[j] for j in range(n)] for i in range(n)],
    )
    return u, t, Mat(ctx, k)


class AffineWeylCoset(_Record):
    """Label of an Iwahori double coset: monomial permutation and exponents.

    The monomial representative sends e_j to p^{exps[j]} e_{perm[j]}.
    """

    perm: Tuple[int, ...]
    exps: Tuple[int, ...]


def iwahori_coset(g: Mat) -> AffineWeylCoset:
    """Iwahori double coset label of g.

    Pivots take the globally smallest valuation, breaking ties toward the
    bottom row and then the leftmost column; with that rule every clearing
    operation lies in the standard Iwahori subgroup, so the monomial shape
    that remains is the coset label.
    """
    ctx = g.ctx
    n = g.n
    A = [list(r) for r in g.rows]
    free_rows = set(range(n))
    free_cols = set(range(n))
    perm = [0] * n
    exps = [0] * n
    while free_cols:
        bottom_up = sorted(free_rows, reverse=True)
        piv = _pivot(A, ((i, j) for i in bottom_up for j in sorted(free_cols)))
        if piv is None:
            raise PrecisionExhausted("matrix singular within precision")
        pi, pj = piv
        _clear_cross(ctx, A, pi, pj, free_rows, free_cols, None, None)
        perm[pj] = pi
        exps[pj] = A[pi][pj].valuation()
        free_rows.remove(pi)
        free_cols.remove(pj)
    return AffineWeylCoset(tuple(perm), tuple(exps))


def bruhat_cell(g: Mat) -> Tuple[Mat, Mat, Mat]:
    """g = u * m * b: u upper unitriangular, m monomial, b upper triangular.

    The staircase form for the Bruhat decomposition relative to the upper
    triangular subgroup on both sides; the permutation part of m is the
    Weyl certificate of the cell.
    """
    ctx = g.ctx
    n = g.n
    A = [list(r) for r in g.rows]
    u = [list(r) for r in ctx.identity.rows]
    b = [list(r) for r in ctx.identity.rows]
    used_rows: set = set()
    for j in range(n):
        pivot_row = next((i for i in range(n - 1, -1, -1) if i not in used_rows
                          and not A[i][j].is_zeroish()), None)
        if pivot_row is None:
            raise PrecisionExhausted("matrix singular within precision")
        # clear upward inside column j (left mult by upper unitriangular),
        # then rightward along the pivot row (right mult by upper triangular)
        above = (i for i in range(pivot_row) if i not in used_rows)
        _clear_cross(ctx, A, pivot_row, j, above, range(j + 1, n), u, b)
        used_rows.add(pivot_row)
    return Mat(ctx, u), Mat(ctx, A), Mat(ctx, b)


def monomial_parts(m: Mat) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(perm, exps) of a monomial matrix: m e_j = p^{exps[j]} u e_{perm[j]}."""
    n = m.n
    perm = []
    exps = []
    for j in range(n):
        hits = [i for i in range(n) if not m.rows[i][j].is_zeroish()]
        if len(hits) != 1:
            raise ValueError("matrix is not monomial within precision")
        perm.append(hits[0])
        exps.append(m.rows[hits[0]][j].valuation())
    return tuple(perm), tuple(exps)


def weyl_distance(c: IdealSimplex, d: IdealSimplex) -> WeylElement:
    """Weyl-valued distance between two ideal chambers."""
    if not (c.is_chamber() and d.is_chamber()):
        raise ValueError("Weyl distance is defined between chambers")
    ctx = c.ctx
    _, m, _ = bruhat_cell(c.canon.inv() * d.canon)
    perm, _ = monomial_parts(m)
    return weyl_from_permutation(ctx.weyl, perm)


def retraction(frame: Mat, center: WeylElement, x: IdealSimplex) -> IdealSimplex:
    """Retraction of an ideal chamber onto the apartment of the frame.

    The apartment's chambers are frame * w * c_plus; the retraction is
    centered at the chamber marked by `center` and preserves the Weyl
    distance from that chamber.
    """
    ctx = frame.ctx
    m_c = frame * ctx.perm(coxeter.permutation_from_weyl(center))
    _, m, _ = bruhat_cell(m_c.inv() * x.canon)
    perm, _ = monomial_parts(m)
    return boundary_simplex(m_c * ctx.perm(perm), ctx.full_dims)


def big_cell_frame(c1: IdealSimplex, c2: IdealSimplex) -> Mat:
    """Frame F of an apartment with F c_plus = c1 and F c_minus = c2.

    Exists exactly when the chambers are opposite; otherwise the Bruhat
    certificate is not the longest element and NotOpposite is raised.
    """
    ctx = c1.ctx
    h = c1.canon.inv() * c2.canon
    u, m, _ = bruhat_cell(h)
    perm, _ = monomial_parts(m)
    if perm != tuple(range(ctx.n - 1, -1, -1)):
        raise NotOpposite("chambers are not opposite")
    return c1.canon * u


def project_to_star(s: IdealSimplex, d: IdealSimplex) -> IdealSimplex:
    """Gate chamber of d in the set of chambers containing s.

    Each gap of the flag of s is refined by the members of d in order:
    the slice added at stage j is the intersection of the gap's top
    with the j-th member of d.  Every minimal gallery from d to a
    chamber of the star passes through the flag built this way.
    """
    ctx = s.ctx
    n = ctx.n
    if not d.is_chamber():
        raise ValueError("projection needs a chamber to project")
    s_cols = [[s.canon[i, j] for i in range(n)] for j in range(n)]
    d_cols = [[d.canon[i, j] for i in range(n)] for j in range(n)]
    cuts = [0, *s.dims, n]
    chain: List[List[PadicScalar]] = []
    for gap in range(len(cuts) - 1):
        hi = cuts[gap + 1]
        hi_cols = s_cols[:hi]
        for j in range(1, n + 1):
            if len(chain) == hi:
                break
            if j == n:
                cand = hi_cols
            else:
                cand = _intersection_columns(ctx, hi_cols, d_cols[:j])
            for v in cand:
                if len(chain) == hi:
                    break
                test = chain + [v]
                rows = [[col[i] for col in test] for i in range(n)]
                if matrix_rank(ctx, rows) == len(test):
                    chain.append(v)
    rows = [[chain[j][i] for j in range(n)] for i in range(n)]
    return boundary_simplex(Mat(ctx, rows), ctx.full_dims)


def unipotent_radical_element(s: IdealSimplex, rng: random.Random) -> Mat:
    """Random element of the unipotent radical of the simplex stabilizer.

    When no entry is drawn the element is the shared ``ctx.identity``,
    after the same draws from rng, and no conjugation is computed.
    """
    ctx = s.ctx
    n = ctx.n
    cuts = [0, *s.dims, n]
    rows = [
        [ctx.one if i == j else ctx.zero for j in range(n)] for i in range(n)
    ]
    drawn = False
    for b in range(len(cuts) - 1):
        hi = cuts[b + 1]
        lo = cuts[b]
        for i in range(lo, hi):
            for j in range(hi, n):
                if rng.random() < 0.75:
                    rows[i][j] = ctx.random_unit(rng).shift(rng.randrange(0, 4))
                    drawn = True
    if not drawn:
        return ctx.identity
    M = s.canon
    return M * Mat(ctx, rows) * M.inv()
