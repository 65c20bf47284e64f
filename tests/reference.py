"""Frozen references for the live kernels, the shared input grids, and the
table that runs each live function against its reference.

Every speed-up of the p-adic or the Coxeter kernel keeps here, as it
was, the code it replaced.  Each row of ``ROWS`` pairs a live function
with its reference on one grid of inputs, and ``check`` demands that the
two show the same on every input (see ``observe``).  A kernel speed-up
adds a row here, not a new test.
"""

import itertools
import random
from types import SimpleNamespace
from typing import Callable, NamedTuple, Tuple

import pytest

from buildinglab import dynamics
from buildinglab.building import (
    GroupContext,
    IdealSimplex,
    Mat,
    big_cell_frame,
    boundary_simplex,
    cartan_decomposition,
    chamber_of,
    iwasawa_decomposition,
    mat_agreement,
    opposite,
    retraction,
)
from buildinglab.building import (
    _canonical_flag,
    _clear_cross,
    _combine_columns,
    _diff_floor,
    _echelon_rows,
    _pivot,
    _residual_floor,
    _sub_col,
    _sub_row,
    _swap_cols,
    _swap_rows,
)
from buildinglab.coxeter import CARTAN, CoxeterSystem, WeylElement, get_system
from buildinglab.dynamics import (
    _radius,
    characteristic_polynomial,
    classify,
    limit_boundary,
)
from buildinglab.oracles import (
    _indices,
    _within,
    check_system,
    coset_minima,
    residue_type_by_conjugation,
    subsets,
)
from buildinglab.padic import (
    INF,
    NoSquareRoot,
    PadicScalar,
    PrecisionExhausted,
    _fold,
    _sqrt_mod_p,
)

N = 32
ALL_CTX = [GroupContext(2, 3, N), GroupContext(3, 3, N), GroupContext(4, 3, N)]
DECOMP_CTX = [GroupContext(2, 3, 1), GroupContext(2, 3, N), GroupContext(3, 5, N),
              GroupContext(3, 2, 12), ALL_CTX[2]]


def raw(x):
    """The raw (p, v, unit, N) fields of a scalar, of the entries of a
    matrix, and of every scalar in a nested tuple, list or dict; a Weyl
    group element as (system name, index); any other value as it is."""
    if isinstance(x, PadicScalar):
        return x.p, x.v, x.unit, x.N
    if isinstance(x, WeylElement):
        return x.system.name, x.index
    if isinstance(x, dict):
        return {raw(k): raw(v) for k, v in x.items()}
    if isinstance(x, Mat):
        return [[(y.p, y.v, y.unit, y.N) for y in row] for row in x.rows]
    if isinstance(x, (tuple, list)):
        return [raw(y) for y in x]
    return x


def observe(fn, *args):
    """What ``fn(*args)`` shows: the raw fields of its result, or the type
    and message of the PrecisionExhausted, NoSquareRoot or ValueError it
    raises."""
    try:
        return raw(fn(*args))
    except (PrecisionExhausted, NoSquareRoot, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _each(*fns):
    """One side of a row that reads several functions on one input, each
    observed on its own, so that one raising hides none of the others (in
    a namespace, which raw does not walk again)."""
    return lambda *args: SimpleNamespace(seen=[observe(fn, *args) for fn in fns])


class Row(NamedTuple):
    """A live function, its frozen reference and the grid both run on.

    ``grid(*param)`` yields argument tuples; a row with ``params`` runs
    once per value, as the test ``name[value]``."""
    name: str
    live: Callable
    reference: Callable
    grid: Callable
    params: Tuple = ()


def check(row, *param):
    """Both sides run on the same inputs, which neither changes: the steps
    row works on copies, and each sampler side draws from its own stream."""
    for k, args in enumerate(row.grid(*param)):
        assert observe(row.live, *args) == observe(row.reference, *args), (row.name, *param, k)


def row_tests(module):
    """The tests of the rows a test module runs, by name, for the module
    to take into its namespace."""
    def test_of(row):
        if row.params:
            @pytest.mark.parametrize("param", row.params)
            def test(param):
                check(row, param)
        else:
            def test():
                check(row)
        test.__name__ = test.__qualname__ = row.name
        return test
    return {row.name: test_of(row) for row in ROWS[module]}


# -- shared inputs ------------------------------------------------------------------


def scalar(p, v, unit, N):
    """The scalar p**v * unit known to N digits, for an integer unit
    coprime to p, which is reduced modulo p**N here."""
    return PadicScalar(p, v, unit % p**N, N)


def absolute_precision(x):
    """The k for which a scalar is pinned modulo p**k."""
    _, v, unit, n = raw(x)
    return v if unit == 0 else v + n


def draws(seed, count, contexts=ALL_CTX):
    """(ctx, rng) count times for each context, rng one seeded stream."""
    rng = random.Random(seed)
    for ctx in contexts:
        for _ in range(count):
            yield ctx, rng


def _grid(seed, count, inputs, contexts=ALL_CTX):
    """The argument tuples that inputs(ctx, rng) lists for each of draws."""
    return lambda: (args for ctx, rng in draws(seed, count, contexts)
                    for args in inputs(ctx, rng))


def _chain(*grids):
    return lambda: itertools.chain.from_iterable(grid() for grid in grids)


def mixed_matrix(ctx, rng):
    """Entries of every kind: exact and approximate zeros, mixed N, v < 0."""
    def entry():
        kind = rng.random()
        if kind < 0.2:
            return ctx.zero
        if kind < 0.3:
            return PadicScalar.near_zero(ctx.p, rng.randrange(-3, 12))
        u = rng.randrange(1, ctx.p**12)
        return scalar(ctx.p, rng.randrange(-4, 6), u if u % ctx.p else u + 1,
                      rng.randrange(1, N + 1))
    return ctx.mat([[entry() for _ in range(ctx.n)] for _ in range(ctx.n)])


def differences(a, b):
    """The entries of a - b, by scalar subtraction, row by row."""
    return [x - y for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb)]


def all_dims(n):
    return [tuple(d for d in range(1, n) if mask >> (d - 1) & 1)
            for mask in range(1, 1 << (n - 1))]


def _single_live(ctx, rng, dense):
    """Rows that are all exact zeros or hold one live entry, and with dense
    also dense rows.  A live entry is drawn like a dense one, so it may be
    an approximate zero, or is an approximate zero, and sits at a random
    column.  Transposed, the rows are the columns of a right factor."""
    full = mixed_matrix(ctx, rng)
    rows = []
    for i in range(ctx.n):
        kind = rng.randrange(3)
        row = [ctx.zero] * ctx.n
        if kind == 2 and dense:
            row = list(full.rows[i])
        elif kind:
            k = rng.randrange(ctx.n)
            row[k] = rng.choice([PadicScalar.near_zero(ctx.p, rng.randrange(-3, 12)),
                                 full[i, k]])
        rows.append(row)
    return ctx.mat(rows)


def _flag_inputs(ctx, rng, count):
    """GL_n(Z_p) draws, random elements, and random elements holding
    approximate zeros and entries of reduced precision."""
    p, prec = ctx.p, ctx.precision
    for k in range(count):
        g = ctx.random_gl_zp(rng) if k % 3 == 0 else ctx.random_element(rng)
        if k % 3 == 2:
            rows = [list(r) for r in g.rows]
            for r in rows:
                for j, x in enumerate(r):
                    t = rng.random()
                    if t < 0.2:
                        r[j] = PadicScalar.near_zero(p, rng.randrange(-1, prec + 1))
                    elif t < 0.35 and x.unit:
                        w = rng.randrange(1, prec + 1)
                        r[j] = PadicScalar(p, x.v, x.unit % p ** w, w)
            g = Mat(ctx, rows)
        yield g


def _edge_flags(ctx):
    """I + p**N e_ij and I + O(p**N) e_ij: flags that are found exactly."""
    p, n, N = ctx.p, ctx.n, ctx.precision
    out = []
    for e in (PadicScalar(p, N, 1, N), PadicScalar.near_zero(p, N)):
        for i in range(n):
            for j in range(n):
                if i != j:
                    rows = [list(r) for r in ctx.identity.rows]
                    rows[i][j] = e
                    out.append(Mat(ctx, rows))
    return out


def _degenerate_flags(ctx):
    """Matrices whose full flag is degenerate at working precision."""
    p, n, N = ctx.p, ctx.n, ctx.precision
    cols = [list(c) for c in zip(*ctx.random_element(random.Random(17)).rows)]
    fills = [
        [ctx.zero] * n,  # a zero column
        [PadicScalar.near_zero(p, 3)] * n,  # a column of approximate zeros
        cols[0],  # a repeated column
        # a column that differs from the first only below p**N
        [x + PadicScalar.near_zero(p, N) if x.unit else x for x in cols[0]],
    ]
    out = []
    for fill in fills:
        c = [list(col) for col in cols]
        c[1] = list(fill)
        out.append(Mat(ctx, list(zip(*c))))
    # no unit survives primitivising: an O(1) entry sets the floor at 0
    c = [list(col) for col in cols]
    c[0] = [PadicScalar.near_zero(p, 0)] + [PadicScalar(p, 1, 1, N)] * (n - 1)
    out.append(Mat(ctx, list(zip(*c))))
    return out


def decomposition_inputs(ctx, rng):
    """Random elements, monomial ones (whose k1 keeps single-term rows),
    and elements with entries finer than the working precision."""
    n, p = ctx.n, ctx.p
    sigma = list(range(n))
    rng.shuffle(sigma)
    exps = [rng.randrange(-3, 4) for _ in range(n)]
    units = [rng.randrange(1, p**5) * p + 1 for _ in range(n)]
    fine = ctx.mat([[scalar(p, rng.randrange(0, 3), rng.randrange(1, p**40) * p + 1,
                            ctx.precision + rng.randrange(0, 9))
                     for _ in range(n)] for _ in range(n)])
    return [ctx.random_element(rng), ctx.random_iwahori(rng),
            ctx.perm(sigma) * ctx.diag(exps, units), fine,
            ctx.random_element(rng) * ctx.diag(exps, units)]


# -- references ----------------------------------------------------------------


def chained_fold(x, plus, minus):
    """Reference: ``x + a0*b0 + ... - c0*d0 - ...`` by scalar operators."""
    acc = x
    for a, b in plus:
        acc = a * b if acc is None else acc + a * b
    for a, b in minus:
        acc = -(a * b) if acc is None else acc - a * b
    return acc


def _chained_mul(a, b):
    """Reference product: each entry folded left to right by scalar ops."""
    n = a.n
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = a[i, 0] * b[0, j]
            for k in range(1, n):
                acc = acc + a[i, k] * b[k, j]
            row.append(acc)
        out.append(row)
    return out


def _chained_det(rows):
    """Reference cofactor expansion by scalar ops, signs applied per term."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = None
    for j in range(n):
        minor = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
        term = rows[0][j] * _chained_det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _chained_combine_columns(cols, coeffs):
    """Reference column sum(c * col): each entry folded from the exact zero."""
    out = []
    for i in range(len(cols[0])):
        acc = PadicScalar.zero(cols[0][i].p)
        for col, c in zip(cols, coeffs):
            acc = acc + col[i] * c
        out.append(acc)
    return out


# The row and column steps as they were before skipping exact-zero
# partners: every entry, and every tracked one, goes through the kernel.

def _ref_sub_row(A, dst, src, c, left=None):
    A[dst] = [_fold(x, (), ((c, y),)) for x, y in zip(A[dst], A[src])]
    if left is not None:
        for r in left:
            r[src] = _fold(r[src], ((c, r[dst]),))


def _ref_sub_col(A, dst, src, c, right=None):
    for r in A:
        r[dst] = _fold(r[dst], (), ((c, r[src]),))
    if right is not None:
        right[src] = [_fold(x, ((c, y),)) for x, y in zip(right[src], right[dst])]


def _ref_diff_floor(a, b):
    """(floor, live) of the entries of a - b, each by scalar subtraction, as
    the agreement, the gate radius and the recomposition checks read it
    before."""
    d = differences(a, b)
    return min(x.val_floor() for x in d), any(not x.is_zeroish() for x in d)


# The Gauss-Jordan loop as it was before skipping unit pivots, with the
# row steps as they were.

def _ref_echelon_rows(ctx, rows):
    R = [list(r) for r in rows]
    m = len(R)
    k = len(R[0]) if R else 0
    pivots = []
    r = 0
    for c in range(k):
        if r >= m:
            break
        piv = _pivot(R, ((i, c) for i in range(r, m)))
        if piv is None:
            continue
        R[r], R[piv[0]] = R[piv[0]], R[r]
        pinv = R[r][c].inv()
        R[r] = [e * pinv for e in R[r]]
        for i in range(m):
            if i != r and not R[i][c].is_zeroish():
                _ref_sub_row(R, i, r, R[i][c])
        pivots.append((r, c))
        r += 1
    return R, pivots


# The samplers as they were before drawing on raw integers: the reference
# for the random stream and for every accepted entry.

def _ref_random_unit(ctx, rng):
    u = rng.randrange(1, ctx.p ** min(ctx.precision, 8))
    while u % ctx.p == 0:
        u += 1
    return PadicScalar(ctx.p, 0, u, ctx.precision)


def _ref_random_zp(ctx, rng, min_val=0):
    if rng.random() < 0.08:
        return ctx.zero
    v = min_val + rng.choice([0, 0, 0, 1, 1, 2, 3])
    return _ref_random_unit(ctx, rng).shift(v)


def _ref_random_gl_zp(ctx, rng):
    while True:
        m = ctx.mat([[_ref_random_zp(ctx, rng) for _ in range(ctx.n)]
                     for _ in range(ctx.n)])
        d = m.det()
        if not d.is_zeroish() and d.val_floor() == 0:
            return m


def _ref_random_iwahori(ctx, rng):
    n = ctx.n
    return ctx.mat([[_ref_random_unit(ctx, rng) if i == j
                     else _ref_random_zp(ctx, rng, min_val=0 if i < j else 1)
                     for j in range(n)] for i in range(n)])


def _ref_random_unipotent(ctx, rng, upper, min_val=-2):
    n = ctx.n
    rows = [[ctx.one if i == j else ctx.zero for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            keep = i < j if upper else i > j
            if keep and rng.random() < 0.8:
                rows[i][j] = _ref_random_unit(ctx, rng).shift(rng.randrange(min_val, 4))
    return ctx.mat(rows)


def ref_unipotent_radical_element(s, rng):
    """The radical element as it was built before an undrawn one became
    ``ctx.identity``: (whether an entry was drawn, M * U * M**-1)."""
    ctx, n = s.ctx, s.ctx.n
    cuts = [0, *s.dims, n]
    rows = [[ctx.one if i == j else ctx.zero for j in range(n)] for i in range(n)]
    drawn = False
    for lo, hi in zip(cuts, cuts[1:]):
        for i in range(lo, hi):
            for j in range(hi, n):
                if rng.random() < 0.75:
                    rows[i][j] = ctx.random_unit(rng).shift(rng.randrange(0, 4))
                    drawn = True
    M = s.canon
    return drawn, M * Mat(ctx, rows) * M.inv()


# The canonical flag as it was on scalar operators, before the raw-integer
# kernel: the reference for every entry and for every PrecisionExhausted.

def _ref_canonical_flag(ctx, g, dims):
    n = ctx.n
    cols = [[g.rows[i][j] for i in range(n)] for j in range(n)]
    cuts = [0, *dims, n]
    pivot_rows = []
    pivot_of_col = [-1] * n
    for b in range(len(cuts) - 1):
        lo, hi = cuts[b], cuts[b + 1]
        block = list(range(lo, hi))
        for j in block:
            for r in pivot_rows:
                c = cols[j][r]
                if c.is_zeroish():
                    continue
                _ref_sub_row(cols, j, pivot_of_col.index(r), c)
                cols[j][r] = ctx.zero
        done = []
        while len(done) < len(block):
            for j in block:
                if j in done:
                    continue
                floor = min(
                    cols[j][i].val_floor() for i in range(n) if i not in pivot_rows
                )
                if floor is INF or all(
                    cols[j][i].is_zeroish() for i in range(n) if i not in pivot_rows
                ):
                    raise PrecisionExhausted(
                        "flag degenerate within working precision"
                    )
                if floor != 0:
                    sc = PadicScalar(ctx.p, -floor, 1, ctx.precision)
                    cols[j] = [sc * x for x in cols[j]]
            pr, pc = None, None
            for r in range(n):
                if r in pivot_rows:
                    continue
                for j in block:
                    if j in done:
                        continue
                    x = cols[j][r]
                    if not x.is_zeroish() and x.val_floor() == 0:
                        pr, pc = r, j
                        break
                if pr is not None:
                    break
            if pr is None:
                raise PrecisionExhausted("flag degenerate within working precision")
            inv_p = cols[pc][pr].inv()
            cols[pc] = [inv_p * x for x in cols[pc]]
            cols[pc][pr] = ctx.one
            for j in block:
                if j == pc:
                    continue
                c = cols[j][pr]
                if not c.is_zeroish():
                    _ref_sub_row(cols, j, pc, c)
                cols[j][pr] = ctx.zero
            pivot_rows.append(pr)
            pivot_of_col[pc] = pr
            done.append(pc)
        block_sorted = sorted(block, key=lambda j: pivot_of_col[j])
        reordered = [cols[j] for j in block_sorted]
        pivots_sorted = [pivot_of_col[j] for j in block_sorted]
        for k, j in enumerate(block):
            cols[j] = reordered[k]
            pivot_of_col[j] = pivots_sorted[k]
    return Mat(ctx, [[cols[j][i] for j in range(n)] for i in range(n)])


def _ref_diag(ctx, exps):
    """The unit-free diagonal as it was built: from_int(1) shifted."""
    n = ctx.n
    return ctx.mat([[PadicScalar.from_int(1, ctx.p, ctx.precision).shift(exps[i])
                     if i == j else 0 for j in range(n)] for i in range(n)])


# Cartan and Iwasawa as they were: the sorting permutation applied by two
# matrix products, and t inverted after the elimination.

def _ref_cartan(g):
    ctx, n = g.ctx, g.n
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
        u_inv = PadicScalar(ctx.p, -A[t][t].valuation(), 1, ctx.precision) * A[t][t]
        c = u_inv.inv()
        for r in A:
            r[t] = r[t] * c
        k2[t] = [u_inv * x for x in k2[t]]
        exps.append(A[t][t].valuation())
        rest = range(t + 1, n)
        _clear_cross(ctx, A, t, t, rest, rest, k1, k2)
    order = sorted(range(n), key=lambda i: -exps[i])
    sigma = [0] * n
    for pos, src in enumerate(order):
        sigma[src] = pos
    K1 = Mat(ctx, k1) * ctx.perm(order)
    K2 = ctx.perm(sigma) * Mat(ctx, k2)
    return K1, tuple(exps[i] for i in order), K2


def _ref_iwasawa(g):
    ctx, n = g.ctx, g.n
    A = [list(r) for r in g.rows]
    k = [list(r) for r in ctx.identity.rows]
    for i in range(n):
        piv = _pivot(A, ((i, j) for j in range(i, n)))
        if piv is None:
            raise PrecisionExhausted("matrix singular within precision")
        _swap_cols(A, i, piv[1], k)
        _clear_cross(ctx, A, i, i, (), range(i + 1, n), None, k)
    t = [A[i][i] for i in range(n)]
    tinv = [x.inv() for x in t]
    return (Mat(ctx, [[A[i][j] * tinv[j] for j in range(n)] for i in range(n)]),
            Mat(ctx, [[t[i] if i == j else ctx.zero for j in range(n)]
                      for i in range(n)]),
            Mat(ctx, k))


def _ref_radius(a, b):
    """The gate radius as it was: INF when every difference is zeroish."""
    floor, live = _ref_diff_floor(a.canon, b.canon)
    return floor if live else INF


def _ref_sqrt_mod_p(a: int, p: int) -> int:
    """The root modulo p as it was: the least, found by search, for p up
    to 20011 only."""
    # Residue search; fine for the small primes this laboratory targets.
    if p > 20011:
        raise NoSquareRoot(f"square roots not supported for p={p}")
    a %= p
    for r in range(1, p):
        if (r * r) % p == a:
            return r
    raise NoSquareRoot(f"{a} is not a quadratic residue mod {p}")


def _chained_char_poly(g):
    """Reference det(x - g): products and sums folded by scalar operators."""
    ctx, n = g.ctx, g.n

    def poly_mul(a, b):
        out = [ctx.zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
        return out

    acc = [ctx.zero] * (n + 1)
    for sigma in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if sigma[i] > sigma[j])
        term = [ctx.one if inv % 2 == 0 else -ctx.one]
        for i in range(n):
            e = -g[i, sigma[i]]
            term = poly_mul(term, [e, ctx.one] if sigma[i] == i else [e])
        for k, c in enumerate(term):
            acc[k] = acc[k] + c
    return tuple(acc)


# The coset minimisations and the Coxeter oracles as they were on
# WeylElement products, before they ran on element indices.  The right
# descents are read from their table, as WeylElement.right_descents did.

def _ref_min_coset_rep(system, w, J):
    J = frozenset(J)
    strip = J & system._right_descents[w.index]
    while strip:
        w = w * system.simple(min(strip))
        strip = J & system._right_descents[w.index]
    return w


def _ref_min_coset_rep_left(system, I, w):
    I = frozenset(I)
    strip = I & w.left_descents()
    while strip:
        w = system.simple(min(strip)) * w
        strip = I & w.left_descents()
    return w


def _ref_parabolic_intersection(system, I, w, J):
    J = frozenset(J)
    out = set()
    for i in frozenset(I):
        conj = w.inverse() * system.simple(i) * w
        if any(conj == system.simple(j) for j in J):
            out.add(i)
    return frozenset(out)


def _ref_coset_minima(system, I, J):
    W_I, W_J = system.parabolic(I), system.parabolic(J)
    out = {}
    for w in system.elements():
        if w not in out:
            coset = list({u * w * v for u in W_I for v in W_J})
            lengths = [x.length for x in coset]  # the least, as _least gave it
            least = min(lengths)
            out.update(dict.fromkeys(
                coset, (coset[lengths.index(least)], lengths.count(least))))
    return out


def _ref_residue_type_by_conjugation(system, I, rep, W_J):
    inv = rep.inverse()
    return frozenset(i for i in I if inv * system.simple(i) * rep in W_J)


# check_system as it was before it built its per-pair tables once and read
# the oracle's residue type once per representative.

def _ref_check_system(system):
    name = system.name
    elements = system.elements()
    subs = subsets(system.rank)
    par_sets = {I: set(_indices(system, I)) for I in subs}
    double = {(I, J): coset_minima(system, I, J) for I in subs for J in subs}
    left = {I: double[I, frozenset()] for I in subs}  # the cosets W_I x
    checks = {"double-coset": 0, "residue-type": 0, "projection": 0,
              "separating-walls": 0, "hull-pairs": 0}
    failures = []
    for w in elements:
        for I in subs:
            for J in subs:
                rep = system.min_double_coset_rep(I, w, J)
                least, ties = double[I, J][w]
                if least != rep or ties != 1:
                    failures.append("%s double-coset %r %s %r"
                                    % (name, sorted(I), w.word, sorted(J)))
                checks["double-coset"] += 1
                if (system.parabolic_intersection(I, rep, J)
                        != residue_type_by_conjugation(system, I, rep, par_sets[J])):
                    failures.append("%s residue-type %r %s %r"
                                    % (name, sorted(I), w.word, sorted(J)))
                checks["residue-type"] += 1
    for c in elements:
        row = [system.separating_walls(c, x) for x in elements]
        for d in elements:
            x = c.inverse() * d
            walls = row[d.index]
            if len(walls) != x.length or walls != system.separating_walls(d, c):
                failures.append("%s separating %s %s" % (name, c, d))
            checks["separating-walls"] += 1
            if system.convex_hull(c, d) != _within(elements, row, walls):
                failures.append("%s hull %s %s" % (name, c, d))
            checks["hull-pairs"] += 1
            for I in subs:
                gate = system.min_coset_rep_left(I, x)
                least, ties = left[I][x]
                if least != gate or ties != 1:
                    failures.append("%s projection %r %s %s"
                                    % (name, sorted(I), c, d))
                checks["projection"] += 1
    return checks, failures


class _WrongA2(CoxeterSystem):
    """A2 whose library answers are wrong at one element of the four-element
    double coset W_{0} e W_{1}, at the projection of s1 s0 to W_{1} and at the
    hull of (e, s0 s1)."""

    def __init__(self):
        super().__init__("A2")

    def min_double_coset_rep(self, I, w, J):
        if (I, w.word, J) == ({0}, (0,), {1}):
            return w
        return super().min_double_coset_rep(I, w, J)

    def min_coset_rep_left(self, I, w):
        if (I, w.word) == ({1}, (1, 0)):
            return w
        return super().min_coset_rep_left(I, w)

    def convex_hull(self, c, d):
        if (c.word, d.word) == ((), (0, 1)):
            return frozenset({c, d})
        return super().convex_hull(c, d)


class _WrongResidueA2(CoxeterSystem):
    """A2 whose residue type of the representative e of W_{0} e W_{1} is
    {0}, where W_{0} meets W_{1} only in e, so the right answer is empty."""

    def __init__(self):
        super().__init__("A2")

    def parabolic_intersection(self, I, w, J):
        if (I, w.word, J) == ({0}, (), {1}):
            return frozenset({0})
        return super().parabolic_intersection(I, w, J)


# -- grids, and the table of rows ------------------------------------------------


def _mul_pair(ctx, rng):
    a = mixed_matrix(ctx, rng)
    return [(a, rng.choice([mixed_matrix(ctx, rng), ctx.random_element(rng)]))]


def _column_sum(ctx, rng):
    k = rng.randrange(1, ctx.n + 1)
    cols = [list(r) for r in mixed_matrix(ctx, rng).rows[:k]]
    return [(cols, list(mixed_matrix(ctx, rng).rows[0][:k]))]


def _single_term_columns(ctx, rng):
    """Diagonal, permutation, monomial, identity, zero, single-live and
    dense right factors."""
    n = ctx.n
    sigma = list(range(n))
    rng.shuffle(sigma)
    exps = [rng.randrange(-3, 4) for _ in range(n)]
    lefts = [mixed_matrix(ctx, rng), ctx.random_element(rng),
             ctx.random_iwahori(rng), ctx.perm(sigma)]
    rights = [ctx.diag(exps), ctx.perm(sigma), ctx.monomial(sigma, exps),
              ctx.identity, ctx.mat([[0] * n] * n),
              _single_live(ctx, rng, True).transpose(), mixed_matrix(ctx, rng)]
    return list(itertools.product(lefts, rights))


def _single_term_rows(ctx, rng):
    """Left factors whose rows hold at most one live entry, and dense ones."""
    n = ctx.n
    sigma = list(range(n))
    rng.shuffle(sigma)
    exps = [rng.randrange(-3, 4) for _ in range(n)]
    units = [rng.randrange(1, ctx.p**5) * ctx.p + 1 for _ in range(n)]
    # one row whose one live entry is an approximate zero
    approx = [list(r) for r in ctx.diag(exps).rows]
    k = rng.randrange(n)
    approx[k][k] = PadicScalar.near_zero(ctx.p, rng.randrange(-3, 12))
    lefts = [ctx.diag(exps), ctx.diag(exps, units), ctx.perm(sigma),
             ctx.monomial(sigma, exps), ctx.identity, ctx.mat([[0] * n] * n),
             ctx.mat(approx), _single_live(ctx, rng, False), mixed_matrix(ctx, rng)]
    rights = [mixed_matrix(ctx, rng), ctx.random_element(rng),
              _single_live(ctx, rng, True).transpose(), ctx.identity]
    return list(itertools.product(lefts, rights))


def _mixed_prime_products():
    ctx3, ctx5 = GroupContext(2, 3, N), GroupContext(2, 5, N)
    for b in (ctx5.identity, ctx5.mat([[0, 0], [0, 0]]), ctx5.diag((1, -1))):
        yield ctx3.identity, b
    yield ctx5.mat([[0, 0], [0, 0]]), ctx3.identity


def _steps(ctx, rng):
    """(A, T, four steps (column?, dst, src, c, tracked)); T starts as the
    identity or holds every kind of entry."""
    A = [list(r) for r in mixed_matrix(ctx, rng).rows]
    T = [list(r) for r in rng.choice([ctx.identity, mixed_matrix(ctx, rng)]).rows]
    steps = []
    for _ in range(4):
        dst, src = rng.sample(range(ctx.n), 2)
        c = mixed_matrix(ctx, rng)[0, 0]
        steps.append((rng.choice((False, True)), dst, src, c, rng.random() < 0.8))
    return [(A, T, steps)]


def _stepper(sub_row, sub_col):
    """Run the steps on copies of A and T, T when tracked: the two after each."""
    def run(A, T, steps):
        A, T, out = [r[:] for r in A], [r[:] for r in T], []
        for col, dst, src, c, tracked in steps:
            (sub_col if col else sub_row)(A, dst, src, c, T if tracked else None)
            out.append(([r[:] for r in A], [r[:] for r in T]))
        return out
    return run


def _agreement_pairs(ctx, rng):
    # a and b with every kind of entry, b holding some of a's very objects
    a, other = mixed_matrix(ctx, rng), mixed_matrix(ctx, rng)
    share = rng.random()
    b = ctx.mat([[x if rng.random() < share else y for x, y in zip(ra, rb)]
                 for ra, rb in zip(a.rows, other.rows)])
    # canonical forms share ctx.one and ctx.zero at common pivots
    c1 = boundary_simplex(ctx.random_element(rng), ctx.full_dims).canon
    c2 = boundary_simplex(ctx.random_element(rng), ctx.full_dims).canon
    return [(a, b), (b, a), (a, a), (c1, c2), (c1, c1), (c1, a)]


def _residual_triples(ctx, rng):
    """(a, b, g) with exact and approximate zeros, a row or column of exact
    zeros, entries finer than the precision, and g cancelling a * b."""
    a, b, g = (mixed_matrix(ctx, rng) for _ in range(3))
    n, p = ctx.n, ctx.p
    rows = [list(r) for r in a.rows]
    rows[rng.randrange(n)] = [ctx.zero] * n
    cols = [list(r) for r in b.rows]
    for r in cols:
        r[rng.randrange(n)] = ctx.zero
    fine = [[scalar(p, rng.randrange(-2, 3), rng.randrange(1, p**40) * p + 1,
                    N + rng.randrange(1, 9)) for _ in range(n)]
            for _ in range(n)]
    ab = a * b
    near = [[x if rng.random() < 0.5 else _fold(x, ((y, y),)) for x, y in zip(r, rg)]
            for r, rg in zip(ab.rows, g.rows)]
    return [(a, b, g), (ctx.mat(rows), b, g), (a, b, ab), (a, b, ctx.mat(near)),
            (ctx.mat(fine), b, g), (a, ctx.mat(fine), ctx.mat(fine)),
            (ctx.mat(rows), ctx.mat(cols), ctx.mat([[0] * n] * n))]


def _recompositions(ctx, rng):
    """The residuals the decompositions preset checks."""
    g = ctx.random_element(rng)
    k1, exps, k2 = cartan_decomposition(g)
    u, t, k = iwasawa_decomposition(g)
    return [(k1 * ctx.diag(exps), k2, g), (u * t, k, g)]


def _mixed_prime_residuals():
    a3, a5 = GroupContext(2, 3, N).diag((1, -1)), GroupContext(2, 5, N).diag((1, -1))
    return [(a3, a5, a3), (a3, a3, a5), (a5, a3, a3), (a3, a5, a5)]


def _unit_pivot_rows(ctx, rng):
    """Rows whose first pivot is exactly 1 at precision w: the other rows
    start with valuation 1 or more, and the pivot row may hold an entry
    finer than w."""
    p, n = ctx.p, ctx.n
    w = rng.randrange(1, N + 1)
    rows = [list(r) for r in mixed_matrix(ctx, rng).rows]
    rows[0][0] = PadicScalar(p, 0, 1, w)
    for r in rows[1:]:
        r[0] = rng.choice([ctx.zero, PadicScalar(p, rng.randrange(1, 4), 1 + p, N)])
    if rng.random() < 0.5:
        j = rng.randrange(1, n)
        rows[0][j] = PadicScalar(p, rng.randrange(-2, 3), 1 + p, rng.randrange(w, N + 1))
    return rows


def _echelon_inputs(ctx, rng):
    """Mixed and unit-pivot rows, alone and as Mat.inv reduces them: [g | I]."""
    out = []
    for rows in ([list(r) for r in mixed_matrix(ctx, rng).rows], _unit_pivot_rows(ctx, rng)):
        out += [(ctx, rows), (ctx, [r + list(e) for r, e in zip(rows, ctx.identity.rows)])]
    return out


def finer_than_its_pivot():
    """A unit pivot known to 4 digits over an entry known to 8."""
    ctx = GroupContext(3, 3, 8)
    return [(ctx, [[PadicScalar(3, 0, 1, 4), PadicScalar(3, 0, 2 + 3**6, 8), ctx.zero],
                   [PadicScalar(3, 1, 1, 8), ctx.one, ctx.zero],
                   [ctx.zero, ctx.zero, ctx.one]])]


def _seeds(precision):
    for n in (2, 3, 4):
        for p in (2, 3, 5, 7):
            ctx = GroupContext(n, p, precision)
            for seed in range(200):
                yield ctx, seed


def flags(precision, seed):
    """Sampled, edge and degenerate matrices with every simplex type."""
    rng = random.Random(seed)
    for n in (2, 3, 4):
        for p in (2, 3, 5, 7):
            ctx = GroupContext(n, p, precision)
            fixed = _edge_flags(ctx) + _degenerate_flags(ctx)
            for dims in all_dims(n):
                for g in [*_flag_inputs(ctx, rng, 24), *fixed]:
                    yield ctx, g, dims


def _degenerate_chambers():
    for ctx in (GroupContext(3, 2, 4), GroupContext(3, 3, 32), GroupContext(4, 7, 8)):
        for g in _degenerate_flags(ctx):
            yield ctx, g, ctx.full_dims


def _mixed_prime_flags():
    ctx = GroupContext(3, 3, 8)
    for i in range(3):
        for j in range(3):
            rows = [list(r) for r in ctx.random_element(random.Random(3 * i + j)).rows]
            rows[i][j] = PadicScalar(5, 1, 2, 8)
            yield ctx, Mat(ctx, rows), ctx.full_dims


def _simplex_fields(ctx, t):
    """A simplex as the tests see it: whether it and its representative
    belong to ctx, its type, the raw fields of its representative, and
    which entries are ctx's shared one and exact zero."""
    entries = [x for row in t.canon.rows for x in row]
    return [t.ctx is ctx, t.canon.ctx is ctx, t.dims, raw(t.canon),
            [x is ctx.one for x in entries], [x is ctx.zero for x in entries]]


def _ref_translate(s, g):
    """g . s as the product and the frozen scalar flag give it, in g's
    context."""
    ctx = g.ctx
    return _simplex_fields(s.ctx, IdealSimplex(
        ctx, s.dims, _ref_canonical_flag(ctx, g * s.canon, s.dims)))


def _orbit(s, g, steps):
    """s and its translates by g, by the frozen flag, until it raises."""
    out = [s]
    for _ in range(steps):
        try:
            s = IdealSimplex(s.ctx, s.dims, _ref_canonical_flag(s.ctx, g * s.canon, s.dims))
        except PrecisionExhausted:
            break
        out.append(s)
    return out


def _diagonal_translates():
    """(s, g): chambers of random and perturbed representatives under
    random exact diagonals, with a short orbit each, and one simplex of
    every other type, for n in 2..4, p in 2, 3, 5 and N in 3, 4, 8, 32."""
    rng = random.Random(61)
    for n, p, prec in itertools.product((2, 3, 4), (2, 3, 5), (3, 4, 8, 32)):
        ctx = GroupContext(n, p, prec)
        for k, g in enumerate(_flag_inputs(ctx, rng, 6)):
            exps = [rng.randrange(-3, 4) for _ in range(n)]
            dims = ctx.full_dims if k else all_dims(n)[0]
            try:
                s = boundary_simplex(g, dims)
            except PrecisionExhausted:
                continue
            for t in _orbit(s, ctx.diag(exps), 3):
                yield t, ctx.diag(exps)


def _dynamics_orbits():
    """(s, g): the orbits of random chambers under the elements of the three
    dynamics presets, as their runs draw them, until the flag gives out."""
    rng = random.Random(62)
    for n, exps in ((2, (1, -1)), (3, (1, 0, -1)), (3, (1, 1, -2))):
        ctx = GroupContext(n, 3, N)
        g = ctx.diag(exps)
        for _ in range(3):
            for s in _orbit(ctx.c_plus.translate(ctx.random_gl_zp(rng)), g, 40):
                yield s, g


def _diagonal_fallbacks():
    """(s, g) for every case the diagonal shortcut must hand to the full
    flag, each beside a case it answers."""
    ctx = GroupContext(3, 3, 8)
    p, prec = ctx.p, ctx.precision
    # t keeps its pivots under g, and its units sit off the pivots
    t = boundary_simplex(ctx.mat([[1, 0, 0], [3, 1, 0], [5, 7, 1]]), ctx.full_dims)
    g = ctx.diag((-1, 0, 1))
    out = [(t, g), (t, ctx.identity), (t, ctx.diag((0, 0, 0))), (ctx.c_plus, g)]
    # the inverse of ctx.diag, which keeps its exponents, and the same
    # diagonal as ctx.mat builds it or with units 1, which keep none
    out += [(t, ctx.diag((1, 0, -1)).inv()), (t, ctx.mat(g.rows)),
            (t, ctx.diag((-1, 0, 1), units=(1, 1, 1)))]
    # an approximate zero at an earlier pivot row, which the flag keeps
    s = boundary_simplex(ctx.mat([[1, PadicScalar.near_zero(p, 5), 0],
                                  [0, 1, 0], [2, 4, 1]]), ctx.full_dims)
    out += [(s, g), (s, ctx.diag((1, 0, -1)))]
    # pivots that move: with a row step, and without one
    for rows, exps in (([[1, 0, 0], [3, 1, 0], [0, 0, 1]], (2, 0, -2)),
                       ([[1, 0, 0], [3, 0, 1], [0, 1, 0]], (2, 0, -2)),
                       ([[1, 0, 0], [0, 1, 0], [9, 3, 1]], (2, 1, -3))):
        out.append((boundary_simplex(ctx.mat(rows), ctx.full_dims), ctx.diag(exps)))
    # a simplex that is no chamber, whose block the shift reorders
    out.append((boundary_simplex(ctx.mat([[1, 0, 0], [0, 1, 0], [1, 0, 1]]), (2,)),
                ctx.diag((5, 0, -5))))
    # a Levi rotation: units other than 1
    out.append((t, ctx.diag((-1, 0, 1), units=(4, 7, 1))))
    # a diagonal entry known below, or beyond, the working precision
    for w in (prec - 1, prec + 1):
        rows = [list(r) for r in g.rows]
        rows[2][2] = PadicScalar(p, 1, 1, w)
        out.append((t, Mat(ctx, rows)))
    # a diagonal with an approximate zero off the diagonal
    rows = [list(r) for r in g.rows]
    rows[0][2] = PadicScalar.near_zero(p, 9)
    out.append((t, Mat(ctx, rows)))
    # the diagonal of another context: equal to ctx, and more precise
    out += [(t, GroupContext(3, p, prec).diag((-1, 0, 1))),
            (t, GroupContext(3, p, 2 * prec).diag((-1, 0, 1)))]
    # representatives that no flag gives: an entry beyond the working
    # precision, a pivot unit other than 1, a pivot less precise than its
    # column, and every entry beyond the working precision
    base = [list(r) for r in t.canon.rows]
    for i, j, x in ((2, 0, PadicScalar(p, 1, 5, prec + 2)),
                    (0, 0, PadicScalar(p, 0, 2, prec)),
                    (1, 1, PadicScalar(p, 0, 1, 4))):
        rows = [list(r) for r in base]
        rows[i][j] = x
        out.append((IdealSimplex(ctx, t.dims, Mat(ctx, rows)), g))
    rows = GroupContext(3, p, prec + 2).mat([[1, 0, 0], [3, 1, 0], [5, 7, 1]]).rows
    out.append((IdealSimplex(ctx, t.dims, Mat(ctx, rows)), g))
    # mixed primes: an element of another prime, an entry of another prime
    out.append((t, GroupContext(3, 5, prec).diag((-1, 0, 1))))
    rows = [list(r) for r in base]
    rows[2][1] = PadicScalar(5, 1, 2, prec)
    out.append((IdealSimplex(ctx, t.dims, Mat(ctx, rows)), g))
    # degenerate columns: all approximate zeros, and an approximate zero
    # that the shift takes below every unit of its column
    for col, exps in (([PadicScalar.near_zero(p, 3)] * 3, (1, 0, -1)),
                      ([ctx.zero, PadicScalar.near_zero(p, 2), ctx.one], (0, -3, 0))):
        rows = [list(r) for r in ctx.identity.rows]
        for i in range(3):
            rows[i][1] = col[i]
        out.append((IdealSimplex(ctx, ctx.full_dims, Mat(ctx, rows)), ctx.diag(exps)))
    return out


def _diagonals():
    """(g,): exact diagonals ctx.diag(k), with zero, small and large
    exponents, for n in 2..4, p in 2, 3, 5, 7 and N in 1, 3, 8, 32."""
    rng = random.Random(63)
    for n, p, prec in itertools.product((2, 3, 4), (2, 3, 5, 7), (1, 3, 8, 32)):
        ctx = GroupContext(n, p, prec)
        yield ctx.diag([0] * n),
        for bound in (3, 3, 40):
            yield ctx.diag([rng.randrange(-bound, bound + 1) for _ in range(n)]),


def _with_shared_zero(m):
    """The raw fields of m and which of its entries are the shared exact zero."""
    return [m, [x is m.ctx.zero for row in m.rows for x in row]]


def _with_shared_entries(m):
    """The raw fields of m and which of its entries are the shared exact
    zero and the shared ctx.one."""
    return [*_with_shared_zero(m), [x is m.ctx.one for row in m.rows for x in row]]


def _ref_inv(g):
    """g**-1 by Gauss-Jordan on [g | I], the elimination Mat.inv runs on a
    matrix it does not build directly."""
    ctx, n = g.ctx, g.n
    aug = [row + tuple(ctx.one if i == j else ctx.zero for j in range(n))
           for i, row in enumerate(g.rows)]
    R, pivots = _echelon_rows(ctx, aug)
    if len(pivots) < n or pivots[n - 1][1] != n - 1:
        raise PrecisionExhausted("matrix is singular within working precision")
    return Mat(ctx, [r[n:] for r in R])


def _permutations():
    """(g,): every permutation matrix, as ctx.perm builds it and as ctx.mat
    builds it from integers, for n in 2..4, p in 2, 3, 5 and N in 1, 3, 8,
    32; and beside them near misses that Mat.inv eliminates: a one known to
    fewer digits, a unit other than 1, a one shifted by p, an exact zero
    that is not the shared one, an approximate zero, a zero row and a
    repeated column."""
    for n, p, prec in itertools.product((2, 3, 4), (2, 3, 5), (1, 3, 8, 32)):
        ctx = GroupContext(n, p, prec)
        for sigma in itertools.permutations(range(n)):
            g = ctx.perm(sigma)
            yield g,
            yield ctx.mat([[int(x.unit) for x in row] for row in g.rows]),
        g = ctx.perm(tuple(range(n))[::-1])
        misses = [PadicScalar(p, 0, 1 + p, prec), PadicScalar(p, 1, 1, prec),
                  PadicScalar(p, INF, 0, 0), PadicScalar.near_zero(p, 2), ctx.zero]
        if prec > 1:
            misses.append(PadicScalar(p, 0, 1, prec - 1))
        for x in misses:
            rows = [list(r) for r in g.rows]
            rows[n - 1][0] = x
            yield Mat(ctx, rows),
        rows = [list(r) for r in g.rows]
        rows[0][0], rows[0][n - 1] = ctx.one, ctx.zero
        yield Mat(ctx, rows),


def _structured(ctx, rng):
    sigma = list(range(ctx.n))
    rng.shuffle(sigma)
    return [(ctx, sigma, [rng.randrange(-5, 6) for _ in range(ctx.n)])]


def _perturbed(ctx, s, rng):
    """A simplex of the type of s whose representative keeps some of the
    very objects of s's, moves others below a random depth, and replaces
    the rest by approximate or exact zeros."""
    p = ctx.p
    rows = []
    for row in s.canon.rows:
        out = []
        for x in row:
            t = rng.random()
            if t < 0.5:
                out.append(x)
            elif t < 0.7:
                out.append(x + PadicScalar(p, rng.randrange(0, 40), 1, N))
            elif t < 0.85:
                out.append(PadicScalar.near_zero(p, rng.randrange(-2, 40)))
            else:
                out.append(ctx.zero)
        rows.append(out)
    return IdealSimplex(ctx, s.dims, Mat(ctx, rows))


def _radius_pairs(ctx, rng):
    n, p = ctx.n, ctx.p
    c1 = boundary_simplex(ctx.random_element(rng), ctx.full_dims)
    c2 = boundary_simplex(ctx.random_element(rng), ctx.full_dims)
    near = _perturbed(ctx, c1, rng)
    # every difference zeroish, none of them exactly zero
    flat = IdealSimplex(ctx, c1.dims, Mat(ctx, [[PadicScalar.near_zero(p, 5 + i)] * n
                                                for i in range(n)]))
    return [(c1, c2), (c1, c1), (c1, near), (near, c1), (near, _perturbed(ctx, near, rng)),
            (flat, _perturbed(ctx, flat, rng)), (flat, flat)]


def full_path(fn, *args):
    """fn(*args) with no certificate taken to fix the star of its repelling
    simplex, which sends assumption_check and limit_boundary down their
    full path."""
    fixed = dynamics._fixed_star
    dynamics._fixed_star = lambda cert, beta: False
    try:
        return fn(*args)
    finally:
        dynamics._fixed_star = fixed


def holds_approximate_zero(s):
    """Does the representative of s hold a zero that is not exact?"""
    return any(x.unit == 0 and x.v is not INF for row in s.canon.rows for x in row)


def _within_claimed_digits(s, t):
    """Does every entry of s agree with t's on every digit t claims?"""
    return all((x - y).val_floor() >= absolute_precision(y)
               for a, b in zip(s.canon.rows, t.canon.rows) for x, y in zip(a, b))


def _regular_limits():
    """(cert, xi, seed): chambers drawn by random_gl_zp, random_element and
    random_iwahori under two regular diagonal elements each, for n in 2..4,
    p in 2, 3, 5 and N in 1, 2, 3, 4, 8, 32; and beside them, for n = 3,
    a wall certificate, a wall certificate whose Levi block rotates by
    units, and a regular certificate in a frame the caller supplied."""
    rng = random.Random(64)
    for n, p, prec in itertools.product((2, 3, 4), (2, 3, 5), (1, 2, 3, 4, 8, 32)):
        ctx = GroupContext(n, p, prec)
        certs = [classify(ctx.diag(k)) for k in _REGULAR_EXPS[n]]
        if n == 3 and prec >= 8:
            h = ctx.random_gl_zp(rng)
            certs += [classify(ctx.diag((1, 1, -2))),
                      classify(ctx.diag((1, 1, -2), units=(7, 13, 1))),
                      classify(h * ctx.diag(_REGULAR_EXPS[n][0]) * h.inv(), h)]
        yield from _starts(ctx, certs, rng, 2)


_REGULAR_EXPS = {2: ((1, -1), (-2, 1)), 3: ((1, 0, -1), (0, -2, 1)),
                 4: ((2, 1, 0, -3), (-1, 3, 0, -2))}


def _starts(ctx, certs, rng, count):
    """(cert, xi, seed): count chambers drawn by each of random_gl_zp,
    random_element and random_iwahori for each certificate, with a seed
    for the stream the frozen apartment search draws from."""
    for cert in certs:
        for draw in (ctx.random_gl_zp, ctx.random_element, ctx.random_iwahori):
            for _ in range(count):
                try:
                    xi = boundary_simplex(draw(rng), ctx.full_dims)
                except PrecisionExhausted:
                    continue
                yield cert, xi, rng.randrange(1000)


_WALL_EXPS = ((1, 1, -2), (2, -1, -1), (1, 1, -1, -1), (1, 1, 1, -3), (3, -1, -1, -1),
              (2, 0, -1, -1), (1, 1, 0, -2))


def _wall_limits():
    """(cert, xi, seed): chambers drawn by random_gl_zp, random_element and
    random_iwahori under the exact diagonal of every wall type in
    _WALL_EXPS, for p in 2, 3, 5 and N in 1, 2, 3, 4, 8, 16, 32."""
    rng = random.Random(65)
    for exps, p, prec in itertools.product(_WALL_EXPS, (2, 3, 5), (1, 2, 3, 4, 8, 16, 32)):
        ctx = GroupContext(len(exps), p, prec)
        yield from _starts(ctx, [classify(ctx.diag(exps))], rng, 2)


def _limit_view(rep):
    """Every field of a limit report and its hypothesis, simplices by
    _simplex_fields.  A witness holding an approximate zero is seen as
    the projection, which is the core, when that agrees with it on every
    digit it claims."""
    h = rep.hypothesis
    witness, core = h.witness, h.core
    if (witness is not None and holds_approximate_zero(witness)
            and _within_claimed_digits(core, witness)):
        witness = core
    simplices = (rep.limit, rep.retraction_value, witness, core)
    return SimpleNamespace(seen=[
        rep.status, rep.trace, rep.first_n, rep.monotone, rep.r_target,
        rep.witness is h.witness, h.satisfied, h.residue_overlap, h.min_rep_word,
        [None if t is None else _simplex_fields(t.ctx, t) for t in simplices]])


def _limit(run):
    """One side of the hypothesis rows: limit_boundary through run,
    under a gate target of at least 1, seen through _limit_view."""
    def side(cert, xi, seed):
        return _limit_view(run(lambda: limit_boundary(
            cert, xi, r_target=max(1, xi.ctx.precision // 2))))
    return side


class _Claimed:
    """A predicted chamber up to the digits it claims, or None where there
    is none: the hypothesis fails, or the working precision runs out.  A
    live prediction equals its reference when it answers wherever the
    reference does, and where both answer the two have one type and each
    entry agrees with the other's on every digit both claim."""

    def __init__(self, chamber):
        self.chamber = chamber

    def __eq__(self, reference):
        a, b = self.chamber, reference.chamber
        return b is None or (a is not None and a.dims == b.dims
                             and not _diff_floor(a.canon, b.canon)[1])

    def __repr__(self):
        return "_Claimed(%r)" % (self.chamber,)


def _prediction(cert, xi, seed):
    """The limit limit_boundary reports as its retraction value for xi."""
    try:
        rep = limit_boundary(cert, xi, max_n=0, r_target=1)
    except PrecisionExhausted:
        return _Claimed(None)
    return _Claimed(rep.retraction_value)


def _ref_apartment_retraction(cert, witness, xi, rng):
    """The retraction of xi onto an apartment through the attracting
    simplex and the witness chamber, centred at the witness: the first
    chamber tried is the one the attracting simplex's representative
    spans, and up to 11 more chambers through that simplex are drawn from
    rng."""
    ctx = xi.ctx
    for attempt in range(12):
        if attempt == 0:
            E = chamber_of(cert.sigma_plus)
        else:
            q = ctx.random_parabolic_element(rng, cert.sigma_plus.dims, integral=True)
            E = boundary_simplex(cert.sigma_plus.canon * q, ctx.full_dims)
        if opposite(E, witness):
            return retraction(big_cell_frame(E, witness), ctx.weyl.longest_element(), xi)
    raise PrecisionExhausted("no apartment through the attracting simplex and the witness")


def _searched_retraction(cert, xi, seed):
    """The retraction value as limit_boundary reported it with the
    apartment search: none where the hypothesis fails, xi where the
    element fixes it, and otherwise the retraction onto the apartment the
    search finds through the attracting simplex and the witness, its
    draws from a stream of the given seed."""
    try:
        rep = dynamics.assumption_check(cert, xi)
        if not rep.satisfied:
            return _Claimed(None)
        if xi.translate(cert.element).same(xi):
            return _Claimed(xi)
        return _Claimed(_ref_apartment_retraction(cert, rep.witness, xi, random.Random(seed)))
    except PrecisionExhausted:
        return _Claimed(None)


def _least_sqrt_mod_p(a, p):
    """The root modulo p that PadicScalar.sqrt takes: the least of the two."""
    r = _sqrt_mod_p(a, p)
    return min(r, p - r)


def _residues_of_odd_primes():
    """Every residue of every odd prime below 600."""
    primes = [p for p in range(3, 600, 2) if all(p % d for d in range(3, p, 2))]
    return ((a, p) for p in primes for a in range(p))


def _weyl_systems():
    return [get_system(name) for name in CARTAN]


def _weyl_one_sided():
    """(system, w, J): every system in CARTAN, every element, every subset."""
    return [(s, w, J) for s in _weyl_systems() for w in s.elements()
            for J in subsets(s.rank)]


def _weyl_subset_pairs():
    """(system, I, J): every system in CARTAN, every pair of subsets."""
    return [(s, I, J) for s in _weyl_systems()
            for I in subsets(s.rank) for J in subsets(s.rank)]


def _weyl_double():
    """(system, I, w, J): every element between every pair of subsets."""
    return [(s, I, w, J) for s, I, J in _weyl_subset_pairs() for w in s.elements()]


def _in_turn(*samplers):
    """The samplers in turn on one seed's stream: each draw's raw fields and
    the state after it, in a namespace that raw does not walk again."""
    def run(ctx, seed):
        rng = random.Random(seed)
        return SimpleNamespace(seen=[(raw(draw(ctx, rng)), rng.getstate()) for draw in samplers])
    return run


_products = (lambda a, b: a * b, _chained_mul)
# _residual_floor and _diff_floor(a * b, g) each against the floor the reference read
_residual_floors = (
    _each(_residual_floor, lambda a, b, g: _diff_floor(a * b, g)),
    lambda a, b, g: SimpleNamespace(
        seen=[observe(lambda: _ref_diff_floor(Mat(a.ctx, _chained_mul(a, b)), g))] * 2),
)
_flag = (_canonical_flag, _ref_canonical_flag)

ROWS = {
    "test_building": (
        Row("test_mul_and_det_match_chained_scalars",
            lambda a, b: [(m, m.det()) for m in (a, b, a * b)],
            lambda a, b: [(m, _chained_det(m)) for m in (a.rows, b.rows, _chained_mul(a, b))],
            _grid(4, 150, _mul_pair)),
        Row("test_combine_columns_matches_chained_scalars",
            _combine_columns, _chained_combine_columns, _grid(5, 150, _column_sum)),
        Row("test_mul_single_term_columns_match_chained_scalars",
            *_products, _grid(6, 150, _single_term_columns)),
        Row("test_mul_single_term_rows_match_chained_scalars",
            *_products, _grid(7, 100, _single_term_rows)),
        Row("test_mul_mixed_primes_raises_as_the_kernel_does",
            *_products, _mixed_prime_products),
        Row("test_steps_skipping_exact_zero_partners_match_the_kernel",
            _stepper(_sub_row, _sub_col), _stepper(_ref_sub_row, _ref_sub_col),
            _grid(8, 100, _steps)),
        Row("test_mat_agreement_matches_difference_matrix",
            mat_agreement, lambda a, b: _ref_diff_floor(a, b)[0], _grid(9, 150, _agreement_pairs)),
        Row("test_residual_floor_matches_difference_of_product", *_residual_floors,
            _chain(_grid(10, 60, _residual_triples),
                   _grid(13, 40, _recompositions, DECOMP_CTX[1:3]))),
        Row("test_residual_floor_mixed_primes_raise_as_the_product_does",
            *_residual_floors, _mixed_prime_residuals),
        Row("test_echelon_rows_match_reference", _echelon_rows, _ref_echelon_rows,
            _chain(_grid(10, 100, _echelon_inputs), finer_than_its_pivot)),
        Row("test_samplers_keep_their_random_stream",
            _in_turn(GroupContext.random_unit, lambda c, r: c.random_zp(r, 1),
                     GroupContext.random_gl_zp, GroupContext.random_iwahori,
                     lambda c, r: c.random_unipotent(r, upper=False)),
            _in_turn(_ref_random_unit, lambda c, r: _ref_random_zp(c, r, 1),
                     _ref_random_gl_zp, _ref_random_iwahori,
                     lambda c, r: _ref_random_unipotent(c, r, upper=False)),
            _seeds, (1, 2, 3, 7, 8, 9, 32)),
        Row("test_canonical_flag_matches_scalar_reference",
            *_flag, lambda precision: flags(precision, precision), (4, 8, 32)),
        Row("test_degenerate_flags_raise_in_both_kernels", *_flag, _degenerate_chambers),
        Row("test_canonical_flag_mixed_primes_raise_in_both_kernels",
            *_flag, _mixed_prime_flags),
        Row("test_diagonal_translate_matches_scalar_reference",
            lambda s, g: _simplex_fields(s.ctx, s.translate(g)), _ref_translate,
            _chain(_diagonal_translates, _dynamics_orbits, _diagonal_fallbacks)),
        Row("test_diagonal_inverse_matches_elimination",
            lambda g: _with_shared_zero(g.inv()),
            lambda g: _with_shared_zero(Mat(g.ctx, g.rows).inv()), _diagonals),
        Row("test_permutation_inverse_matches_elimination",
            lambda g: _with_shared_entries(g.inv()),
            lambda g: _with_shared_entries(_ref_inv(g)), _permutations),
        Row("test_structured_factors_match_the_products",
            lambda ctx, sigma, exps: (ctx.diag(exps), ctx.monomial(sigma, exps)),
            lambda ctx, sigma, exps: (_ref_diag(ctx, exps),
                                      ctx.perm(sigma) * _ref_diag(ctx, exps)),
            _grid(11, 30, _structured, DECOMP_CTX)),
        Row("test_cartan_and_iwasawa_match_their_references",
            _each(cartan_decomposition, iwasawa_decomposition),
            _each(_ref_cartan, _ref_iwasawa),
            _grid(12, 25, lambda ctx, rng: [(g,) for g in decomposition_inputs(ctx, rng)],
                  DECOMP_CTX)),
    ),
    "test_padic": (
        Row("test_sqrt_mod_p_matches_residue_search", _least_sqrt_mod_p, _ref_sqrt_mod_p,
            _residues_of_odd_primes),
    ),
    "test_coxeter": (
        Row("test_min_coset_rep_matches_element_reference",
            lambda s, w, J: s.min_coset_rep(w, J), _ref_min_coset_rep, _weyl_one_sided),
        Row("test_min_coset_rep_left_matches_element_reference",
            lambda s, w, I: s.min_coset_rep_left(I, w),
            lambda s, w, I: _ref_min_coset_rep_left(s, I, w), _weyl_one_sided),
        Row("test_parabolic_intersection_matches_element_reference",
            lambda s, I, w, J: s.parabolic_intersection(I, w, J),
            _ref_parabolic_intersection, _weyl_double),
        Row("test_coset_minima_match_element_reference",
            coset_minima, _ref_coset_minima, _weyl_subset_pairs),
        Row("test_residue_type_matches_element_reference",
            lambda s, I, w, J: residue_type_by_conjugation(
                s, I, w, {u.index for u in s.parabolic(J)}),
            lambda s, I, w, J: _ref_residue_type_by_conjugation(s, I, w, set(s.parabolic(J))),
            _weyl_double),
        Row("test_check_system_matches_reference", check_system, _ref_check_system,
            lambda: [(s,) for s in _weyl_systems()]
            + [(_WrongA2(),), (_WrongResidueA2(),)]),
    ),
    "test_dynamics": (
        Row("test_char_poly_matches_chained_scalars", characteristic_polynomial,
            _chained_char_poly, _grid(42, 40, lambda ctx, rng: [(mixed_matrix(ctx, rng),)])),
        Row("test_radius_matches_difference_matrix", _radius, _ref_radius,
            _grid(49, 60, _radius_pairs,
                  [GroupContext(n, p) for n, p in ((2, 3), (3, 3), (3, 5), (4, 2))])),
        Row("test_regular_hypothesis_matches_full_path",
            _limit(lambda call: call()), _limit(full_path), _regular_limits),
        Row("test_wall_hypothesis_matches_full_path",
            _limit(lambda call: call()), _limit(full_path), _wall_limits),
        Row("test_limit_prediction_matches_apartment_retraction",
            _prediction, _searched_retraction, _chain(_regular_limits, _wall_limits)),
    ),
}
