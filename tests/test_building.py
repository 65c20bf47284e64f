"""Matrix building model: decompositions, canonical flags, retractions."""

import random

import pytest

from buildinglab.building import (
    AffineWeylCoset,
    GroupContext,
    NotOpposite,
    big_cell_frame,
    boundary_simplex,
    bruhat_cell,
    cartan_decomposition,
    chamber_of,
    dims_of_type,
    iwahori_coset,
    iwasawa_decomposition,
    mat_agreement,
    monomial_parts,
    opposite,
    parabolic_membership,
    project_to_star,
    retraction,
    type_of_dims,
    unipotent_radical_element,
    weyl_distance,
)
from buildinglab.building import (
    Mat,
    _canonical_flag,
    _clear_cross,
    _combine_columns,
    _diff_floor,
    _echelon_rows,
    _int_det,
    _pivot,
    _residual_floor,
    _sub_col,
    _sub_row,
    _swap_cols,
    _swap_rows,
)
from buildinglab.dynamics import _radius, agreement_gate
from buildinglab.coxeter import permutation_from_weyl, weyl_from_permutation
from buildinglab.padic import INF, PadicScalar, PrecisionExhausted, _fold

N = 32
CTX2 = GroupContext(2, 3, N)
CTX3 = GroupContext(3, 3, N)
CTX4 = GroupContext(4, 3, N)
ALL_CTX = [CTX2, CTX3, CTX4]


def agree(a, b, depth):
    got = mat_agreement(a, b)
    assert got >= depth, f"agreement {got} < {depth}"


def _differences(a, b):
    """The entries of a - b, by scalar subtraction, row by row."""
    return [x - y for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb)]


def assert_recomposes(product, g, slack=14):
    """product must equal g on every digit it claims, and claim enough."""
    for x in _differences(product, g):
        assert x.is_zeroish(), f"recomposition contradicts input: {x}"
    agree(product, g, g.min_val_floor() + N - slack)


def is_integral_unit_det(m):
    return m.min_val_floor() >= 0 and m.det().val_floor() == 0


def test_dims_type_roundtrip():
    for n in (2, 3, 4):
        for mask in range(1 << (n - 1)):
            I = frozenset(i for i in range(n - 1) if mask >> i & 1)
            if I == frozenset(range(n - 1)):
                continue  # the empty flag is not a simplex
            assert type_of_dims(n, dims_of_type(n, I)) == I


def test_perm_matrix_composition():
    rng = random.Random(0)
    for ctx in ALL_CTX:
        for _ in range(20):
            s1 = list(range(ctx.n)); rng.shuffle(s1)
            s2 = list(range(ctx.n)); rng.shuffle(s2)
            comp = [s1[s2[j]] for j in range(ctx.n)]
            agree(ctx.perm(s1) * ctx.perm(s2), ctx.perm(comp), N)
            w = weyl_from_permutation(ctx.weyl, s1) * weyl_from_permutation(ctx.weyl, s2)
            assert permutation_from_weyl(w) == tuple(comp)


def test_matrix_inverse_roundtrip():
    rng = random.Random(1)
    for ctx in ALL_CTX:
        for _ in range(60):
            g = ctx.random_element(rng)
            gi = g.inv()
            # soundness: every digit the tracker claims to know must match
            # the identity; deviations may only be declared-unknown windows
            for x in _differences(g * gi, ctx.identity):
                assert x.is_zeroish(), f"inverse contradicts identity: {x}"
            # quality floor: elimination must keep a usable depth
            agree(g * gi, ctx.identity, 8)
    # a singular matrix is rejected
    s = CTX2.mat([[1, 1], [1, 1]])
    with pytest.raises(PrecisionExhausted):
        s.inv()


def test_det_multiplicative():
    rng = random.Random(2)
    healthy = total = 0
    for ctx in ALL_CTX:
        for _ in range(333):
            a = ctx.random_element(rng)
            b = ctx.random_element(rng)
            lhs = (a * b).det()
            rhs = a.det() * b.det()
            # both routes agree on every digit either of them claims
            window = min(lhs.abs_precision(), rhs.abs_precision())
            assert (lhs - rhs).val_floor() >= window
            total += 1
            healthy += min(lhs.N, rhs.N) >= 12
    # cancellation may eat digits occasionally, not systematically
    assert healthy / total > 0.8, f"only {healthy}/{total} kept 12 digits"


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


def _mixed_matrix(ctx, rng):
    """Entries of every kind: exact and approximate zeros, mixed N, v < 0."""
    def entry():
        kind = rng.random()
        if kind < 0.2:
            return ctx.zero
        if kind < 0.3:
            return PadicScalar.near_zero(ctx.p, rng.randrange(-3, 12))
        u = rng.randrange(1, ctx.p**12)
        return PadicScalar.from_unit(ctx.p, rng.randrange(-4, 6),
                                     u if u % ctx.p else u + 1,
                                     rng.randrange(1, N + 1))
    return ctx.mat([[entry() for _ in range(ctx.n)] for _ in range(ctx.n)])


def _raw(x):
    return (x.p, x.v, x.unit, x.N)


def _raw_rows(rows):
    return [[_raw(x) for x in r] for r in rows]


def test_mul_and_det_match_chained_scalars():
    rng = random.Random(4)
    for ctx in ALL_CTX:
        for _ in range(150):
            a = _mixed_matrix(ctx, rng)
            b = rng.choice([_mixed_matrix(ctx, rng), ctx.random_element(rng)])
            got = a * b
            want = _chained_mul(a, b)
            assert _raw_rows(got.rows) == _raw_rows(want)
            for m in (a, b, got):
                assert _raw(m.det()) == _raw(_chained_det(m.rows))


def test_combine_columns_matches_chained_scalars():
    rng = random.Random(5)
    for ctx in ALL_CTX:
        for _ in range(150):
            k = rng.randrange(1, ctx.n + 1)
            cols = [list(r) for r in _mixed_matrix(ctx, rng).rows[:k]]
            coeffs = list(_mixed_matrix(ctx, rng).rows[0][:k])
            want = []
            for i in range(ctx.n):
                acc = ctx.zero
                for col, c in zip(cols, coeffs):
                    acc = acc + col[i] * c
                want.append(_raw(acc))
            assert [_raw(x) for x in _combine_columns(cols, coeffs)] == want


def _single_live_right(ctx, rng):
    """Right factor whose columns are all-exact-zero, single-live or dense.

    A single live entry is drawn like a dense one, so it may be an
    approximate zero, and sits at a random row.
    """
    dense = _mixed_matrix(ctx, rng)
    cols = []
    for j in range(ctx.n):
        kind = rng.randrange(3)
        col = [ctx.zero] * ctx.n
        if kind == 1:
            k = rng.randrange(ctx.n)
            col[k] = rng.choice([PadicScalar.near_zero(ctx.p, rng.randrange(-3, 12)),
                                 dense[k, j]])
        elif kind == 2:
            col = [dense[i, j] for i in range(ctx.n)]
        cols.append(col)
    return ctx.mat([[cols[j][i] for j in range(ctx.n)] for i in range(ctx.n)])


def test_mul_single_term_columns_match_chained_scalars():
    rng = random.Random(6)
    for ctx in ALL_CTX:
        n = ctx.n
        for _ in range(150):
            sigma = list(range(n))
            rng.shuffle(sigma)
            exps = [rng.randrange(-3, 4) for _ in range(n)]
            lefts = [_mixed_matrix(ctx, rng), ctx.random_element(rng),
                     ctx.random_iwahori(rng), ctx.perm(sigma)]
            rights = [ctx.diag(exps), ctx.perm(sigma), ctx.monomial(sigma, exps),
                      ctx.identity, ctx.mat([[0] * n] * n),
                      _single_live_right(ctx, rng), _mixed_matrix(ctx, rng)]
            for a in lefts:
                for b in rights:
                    assert _raw_rows((a * b).rows) == _raw_rows(_chained_mul(a, b))


def test_mul_mixed_primes_raises_as_the_kernel_does():
    ctx3, ctx5 = GroupContext(2, 3, N), GroupContext(2, 5, N)
    for b in (ctx5.identity, ctx5.mat([[0, 0], [0, 0]]), ctx5.diag((1, -1))):
        with pytest.raises(ValueError, match=r"^mixed primes 3 and 5$"):
            ctx3.identity * b
    with pytest.raises(ValueError, match=r"^mixed primes 5 and 3$"):
        ctx5.mat([[0, 0], [0, 0]]) * ctx3.identity


def _single_live_left(ctx, rng):
    """Left factor whose rows are all-exact-zero or hold one live entry.

    A live entry is drawn like a dense one, so it may be an approximate
    zero, or is an approximate zero, and sits at a random column.
    """
    dense = _mixed_matrix(ctx, rng)
    rows = []
    for i in range(ctx.n):
        row = [ctx.zero] * ctx.n
        if rng.randrange(3):
            k = rng.randrange(ctx.n)
            row[k] = rng.choice([PadicScalar.near_zero(ctx.p, rng.randrange(-3, 12)),
                                 dense[i, k]])
        rows.append(row)
    return ctx.mat(rows)


def test_mul_single_term_rows_match_chained_scalars():
    rng = random.Random(7)
    for ctx in ALL_CTX:
        n = ctx.n
        for _ in range(100):
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
                     ctx.mat(approx), _single_live_left(ctx, rng), _mixed_matrix(ctx, rng)]
            rights = [_mixed_matrix(ctx, rng), ctx.random_element(rng),
                      _single_live_right(ctx, rng), ctx.identity]
            for a in lefts:
                for b in rights:
                    assert _raw_rows((a * b).rows) == _raw_rows(_chained_mul(a, b))


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


def test_steps_skipping_exact_zero_partners_match_the_kernel():
    rng = random.Random(8)
    for ctx in ALL_CTX:
        n = ctx.n
        for _ in range(100):
            A = [list(r) for r in _mixed_matrix(ctx, rng).rows]
            # tracked transforms start as the identity or hold every kind of entry
            T = [list(r) for r in rng.choice([ctx.identity, _mixed_matrix(ctx, rng)]).rows]
            got = ([r[:] for r in A], [r[:] for r in T])
            want = ([r[:] for r in A], [r[:] for r in T])
            for _ in range(4):
                dst, src = rng.sample(range(n), 2)
                c = _mixed_matrix(ctx, rng)[0, 0]
                step, ref = rng.choice([(_sub_row, _ref_sub_row), (_sub_col, _ref_sub_col)])
                tracked = rng.random() < 0.8
                step(got[0], dst, src, c, got[1] if tracked else None)
                ref(want[0], dst, src, c, want[1] if tracked else None)
                assert _raw_rows(got[0]) == _raw_rows(want[0])
                assert _raw_rows(got[1]) == _raw_rows(want[1])


def _ref_mat_agreement(a, b):
    """The agreement as it was: the floor over every difference entry."""
    return min(x.val_floor() for x in _differences(a, b))


def _sharing_pair(ctx, rng):
    """(a, b) with every kind of entry, b holding some of a's very objects."""
    a, other = _mixed_matrix(ctx, rng), _mixed_matrix(ctx, rng)
    share = rng.random()
    rows = [[x if rng.random() < share else y for x, y in zip(ra, rb)]
            for ra, rb in zip(a.rows, other.rows)]
    return a, ctx.mat(rows)


def test_mat_agreement_matches_difference_matrix():
    rng = random.Random(9)
    for ctx in ALL_CTX:
        for _ in range(150):
            a, b = _sharing_pair(ctx, rng)
            # canonical forms share ctx.one and ctx.zero at common pivots
            c1 = boundary_simplex(ctx.random_element(rng), ctx.full_dims).canon
            c2 = boundary_simplex(ctx.random_element(rng), ctx.full_dims).canon
            for x, y in ((a, b), (b, a), (a, a), (c1, c2), (c1, c1), (c1, a)):
                assert mat_agreement(x, y) == _ref_mat_agreement(x, y)


def _ref_residual_floor(a, b, g):
    """(floor, live) of ``a * b - g`` by chained scalar products and
    subtractions, as the recomposition checks read it before."""
    d = _differences(Mat(a.ctx, _chained_mul(a, b)), g)
    return min(x.val_floor() for x in d), any(not x.is_zeroish() for x in d)


def _residual_inputs(ctx, rng):
    """(a, b, g) with exact and approximate zeros, a row or column of exact
    zeros, entries finer than the precision, and g cancelling a * b."""
    a, b, g = (_mixed_matrix(ctx, rng) for _ in range(3))
    n, p = ctx.n, ctx.p
    rows = [list(r) for r in a.rows]
    rows[rng.randrange(n)] = [ctx.zero] * n
    cols = [list(r) for r in b.rows]
    for r in cols:
        r[rng.randrange(n)] = ctx.zero
    fine = [[PadicScalar.from_unit(p, rng.randrange(-2, 3), rng.randrange(1, p**40) * p + 1,
                                   N + rng.randrange(1, 9)) for _ in range(n)]
            for _ in range(n)]
    ab = a * b
    near = [[x if rng.random() < 0.5 else _fold(x, ((y, y),)) for x, y in zip(r, rg)]
            for r, rg in zip(ab.rows, g.rows)]
    return [(a, b, g), (ctx.mat(rows), b, g), (a, b, ab), (a, b, ctx.mat(near)),
            (ctx.mat(fine), b, g), (a, ctx.mat(fine), ctx.mat(fine)),
            (ctx.mat(rows), ctx.mat(cols), ctx.mat([[0] * n] * n))]


def test_residual_floor_matches_difference_of_product():
    rng = random.Random(10)
    for ctx in ALL_CTX:
        for _ in range(60):
            for a, b, g in _residual_inputs(ctx, rng):
                want = _ref_residual_floor(a, b, g)
                assert _residual_floor(a, b, g) == want
                assert _diff_floor(a * b, g) == want
    # the recomposition checks of the decompositions preset
    for ctx in (GroupContext(2, 3, N), GroupContext(3, 5, N)):
        for _ in range(40):
            g = ctx.random_element(rng)
            k1, exps, k2 = cartan_decomposition(g)
            u, t, k = iwasawa_decomposition(g)
            for a, b in ((k1 * ctx.diag(exps), k2), (u * t, k)):
                assert _residual_floor(a, b, g) == _ref_residual_floor(a, b, g)


def test_residual_floor_mixed_primes_raise_as_the_product_does():
    ctx3, ctx5 = GroupContext(2, 3, N), GroupContext(2, 5, N)
    a3, a5 = ctx3.diag((1, -1)), ctx5.diag((1, -1))
    for a, b, g in ((a3, a5, a3), (a3, a3, a5), (a5, a3, a3), (a3, a5, a5)):
        with pytest.raises(ValueError) as want:
            _diff_floor(a * b, g)
        with pytest.raises(ValueError) as got:
            _residual_floor(a, b, g)
        assert str(got.value) == str(want.value)


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


def _unit_pivot_rows(ctx, rng):
    """Rows whose first pivot is exactly 1 at precision w: the other rows
    start with valuation 1 or more, and the pivot row may hold an entry
    finer than w."""
    p, n = ctx.p, ctx.n
    w = rng.randrange(1, N + 1)
    rows = [list(r) for r in _mixed_matrix(ctx, rng).rows]
    rows[0][0] = PadicScalar(p, 0, 1, w)
    for r in rows[1:]:
        r[0] = rng.choice([ctx.zero, PadicScalar(p, rng.randrange(1, 4), 1 + p, N)])
    if rng.random() < 0.5:
        j = rng.randrange(1, n)
        rows[0][j] = PadicScalar(p, rng.randrange(-2, 3), 1 + p, rng.randrange(w, N + 1))
    return rows, w


def test_echelon_rows_match_reference():
    rng = random.Random(10)
    for ctx in ALL_CTX:
        n = ctx.n
        for _ in range(100):
            inputs = [[list(r) for r in _mixed_matrix(ctx, rng).rows],
                      _unit_pivot_rows(ctx, rng)[0]]
            for rows in inputs:
                # as Mat.inv reduces it: [g | I]
                aug = [r + list(e) for r, e in zip(rows, ctx.identity.rows)]
                for x in (rows, aug):
                    got, got_pivots = _echelon_rows(ctx, x)
                    want, want_pivots = _ref_echelon_rows(ctx, x)
                    assert got_pivots == want_pivots
                    assert _raw_rows(got) == _raw_rows(want)


def test_unit_pivot_over_a_finer_entry_takes_the_full_normalisation():
    ctx = GroupContext(3, 3, 8)
    one = PadicScalar(3, 0, 1, 4)
    fine = PadicScalar(3, 0, 2 + 3**6, 8)  # known to 8 digits, more than the pivot
    rows = [[one, fine, ctx.zero],
            [PadicScalar(3, 1, 1, 8), ctx.one, ctx.zero],
            [ctx.zero, ctx.zero, ctx.one]]
    R, _ = _echelon_rows(ctx, rows)
    want, _ = _ref_echelon_rows(ctx, rows)
    assert _raw_rows(R) == _raw_rows(want)
    # alone, the row is only normalised: dividing by the pivot cut the
    # finer entry to the pivot's 4 digits
    R, _ = _echelon_rows(ctx, rows[:1])
    assert _raw_rows(R) == [[(3, 0, 1, 4), (3, 0, 2, 4), (3, INF, 0, 0)]]
    # without the finer entry the row is left as it is
    rows[0][1] = PadicScalar(3, 0, 2, 4)
    R, _ = _echelon_rows(ctx, rows[:1])
    assert R[0] == rows[0] and R[0][1] is rows[0][1]


def test_group_context_mat_rejects_mixed_primes():
    ctx = GroupContext(2, 3, N)
    for x in (PadicScalar(5, 1, 2, 8), PadicScalar.zero(5), PadicScalar.near_zero(5, 3)):
        with pytest.raises(ValueError, match=r"^mixed primes 3 and 5$"):
            ctx.mat([[1, 0], [x, 1]])
    x = PadicScalar(3, 1, 2, 8)
    assert ctx.mat([[1, 0], [x, 1]])[1, 0] is x


# The samplers as they were before drawing on raw integers: the reference
# for the random stream and for every accepted entry.

def _ref_random_unit(ctx, rng):
    u = rng.randrange(1, ctx.p ** min(ctx.precision, 8))
    while u % ctx.p == 0:
        u += 1
    return PadicScalar.from_unit(ctx.p, 0, u, ctx.precision)


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


_SAMPLERS = [
    ("random_unit", lambda c, r: [[c.random_unit(r)]], lambda c, r: [[_ref_random_unit(c, r)]]),
    ("random_zp", lambda c, r: [[c.random_zp(r, 1)]], lambda c, r: [[_ref_random_zp(c, r, 1)]]),
    ("random_gl_zp", lambda c, r: c.random_gl_zp(r).rows, lambda c, r: _ref_random_gl_zp(c, r).rows),
    ("random_iwahori", lambda c, r: c.random_iwahori(r).rows,
     lambda c, r: _ref_random_iwahori(c, r).rows),
    ("random_unipotent", lambda c, r: c.random_unipotent(r, upper=False).rows,
     lambda c, r: _ref_random_unipotent(c, r, upper=False).rows),
]


@pytest.mark.parametrize("precision", [1, 2, 3, 7, 8, 9, 32])
def test_samplers_keep_their_random_stream(precision):
    for n in (2, 3, 4):
        for p in (2, 3, 5, 7):
            ctx = GroupContext(n, p, precision)
            for seed in range(200):
                got, want = random.Random(seed), random.Random(seed)
                for name, draw, ref in _SAMPLERS:
                    assert _raw_rows(draw(ctx, got)) == _raw_rows(ref(ctx, want)), \
                        (name, n, p, precision, seed)
                    assert got.getstate() == want.getstate(), (name, n, p, precision, seed)


def test_residue_prefilter_is_exact():
    """A residue determinant nonzero mod p is exactly a p-adic unit determinant."""
    rng = random.Random(7)
    for n in (2, 3, 4):
        for p in (2, 3, 5):
            ctx = GroupContext(n, p, N)
            for _ in range(300):
                entries = []
                for _ in range(n * n):
                    if rng.random() < 0.2:
                        entries.append(ctx.zero)
                        continue
                    prec = rng.randrange(1, N + 1)
                    u = rng.randrange(1, p ** prec)
                    while u % p == 0:
                        u = rng.randrange(1, p ** prec)
                    entries.append(PadicScalar(p, rng.randrange(4), u, prec))
                m = ctx.mat([entries[i * n:(i + 1) * n] for i in range(n)])
                residues = [[x.residue(1) for x in r] for r in m.rows]
                d = m.det()
                accepted = not d.is_zeroish() and d.val_floor() == 0
                assert (_int_det(residues) % p != 0) == accepted


@pytest.mark.parametrize("n,p,precision", [
    (1, 3, 32), (5, 3, 32), (2, 1, 32), (2, 6, 32), (2, 9, 32),
    (2, 2**32 + 15, 32), (2, 3, 0), (3, 5, -2),
])
def test_group_context_rejects_bad_groups(n, p, precision):
    with pytest.raises(ValueError, match="group "):
        GroupContext(n, p, precision)


def test_reference_chambers_built_once():
    for ctx in ALL_CTX:
        assert ctx.c_plus is ctx.c_plus
        assert ctx.c_plus.same(boundary_simplex(ctx.identity, ctx.full_dims))


# -- canonical flag representatives ------------------------------------------


def test_canonical_flag_known_example():
    p = 3
    g = CTX2.mat([[p, 1], [1, 0]])
    s = boundary_simplex(g, (1,))
    # same line spanned differently, with junk in the second column
    g2 = CTX2.mat([[2 * p, 5], [2, p**3]])
    s2 = boundary_simplex(g2, (1,))
    assert s.agreement(s2) >= N - 2
    # the canonical first column is the primitive vector (p, 1)
    assert s.canon[0, 0].valuation() == 1 and s.canon[1, 0].valuation() == 0


def test_canonical_flag_pivots_are_exact():
    rng = random.Random(3)
    for ctx in ALL_CTX:
        for _ in range(40):
            g = ctx.random_element(rng)
            s = boundary_simplex(g, ctx.full_dims)
            ones = sum(
                1
                for row in s.canon.rows
                for x in row
                if x.unit == 1 and x.v == 0 and not x.is_zeroish()
            )
            assert ones >= ctx.n  # one exact unit pivot per column
            assert s.canon.min_val_floor() >= 0  # integral representative


def _all_dims(n):
    out = []
    for mask in range(1, 1 << (n - 1)):
        out.append(tuple(d for d in range(1, n) if mask >> (d - 1) & 1))
    return out


def test_canonical_invariance_and_idempotence():
    rng = random.Random(4)
    deep = total = 0
    for _ in range(1000):
        ctx = rng.choice(ALL_CTX)
        dims = rng.choice(_all_dims(ctx.n))
        g = ctx.random_element(rng)
        s = boundary_simplex(g, dims)
        q = ctx.random_parabolic_element(rng, dims)
        s2 = boundary_simplex(g * q, dims)
        got = s.agreement(s2)
        assert got >= N - 12, f"invariance broke: {got} (dims={dims}, n={ctx.n})"
        total += 1
        deep += got >= N - 6
        again = boundary_simplex(s.canon, dims)
        re_got = s.agreement(again)
        assert re_got is INF or re_got >= N - 10
    # valuation spread in the inputs costs a few digits now and then,
    # but the representative must usually survive almost untouched
    assert deep / total > 0.9, f"only {deep}/{total} kept N-6 digits"


def test_translate_group_action():
    rng = random.Random(5)
    for _ in range(50):
        ctx = rng.choice(ALL_CTX)
        dims = rng.choice(_all_dims(ctx.n))
        s = boundary_simplex(ctx.random_element(rng), dims)
        g = ctx.random_element(rng)
        h = ctx.random_element(rng)
        lhs = s.translate(g).translate(h)
        rhs = s.translate(h * g)
        assert lhs.agreement(rhs) >= N - 10


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


def _flag_inputs(ctx, rng, count):
    """(class, matrix) pairs: GL_n(Z_p) draws, random elements, and random
    elements holding approximate zeros and entries of reduced precision."""
    p, prec = ctx.p, ctx.precision
    for k in range(count):
        kind = ("gl_zp", "element", "approx")[k % 3]
        g = ctx.random_gl_zp(rng) if kind == "gl_zp" else ctx.random_element(rng)
        if kind == "approx":
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
        yield kind, g


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


def _flag_or_error(fn, ctx, g, dims):
    try:
        return _raw_rows(fn(ctx, g, dims).rows)
    except PrecisionExhausted as e:
        return "PrecisionExhausted", str(e)


@pytest.mark.parametrize("precision", [4, 8, 32])
def test_canonical_flag_matches_scalar_reference(precision):
    rng = random.Random(precision)
    raised = 0
    for n in (2, 3, 4):
        for p in (2, 3, 5, 7):
            ctx = GroupContext(n, p, precision)
            fixed = _edge_flags(ctx) + _degenerate_flags(ctx)
            for dims in _all_dims(n):
                inputs = [g for _, g in _flag_inputs(ctx, rng, 24)] + fixed
                for g in inputs:
                    got = _flag_or_error(_canonical_flag, ctx, g, dims)
                    want = _flag_or_error(_ref_canonical_flag, ctx, g, dims)
                    assert got == want, (n, p, precision, dims, g)
                    raised += got[0] == "PrecisionExhausted"
    assert raised


def test_degenerate_flags_raise_in_both_kernels():
    for ctx in (GroupContext(3, 2, 4), GroupContext(3, 3, 32), GroupContext(4, 7, 8)):
        for g in _degenerate_flags(ctx):
            for fn in (_canonical_flag, _ref_canonical_flag):
                with pytest.raises(PrecisionExhausted, match="flag degenerate"):
                    fn(ctx, g, ctx.full_dims)


def test_canonical_flag_mixed_primes_raise_in_both_kernels():
    ctx = GroupContext(3, 3, 8)
    for i in range(3):
        for j in range(3):
            rows = [list(r) for r in ctx.random_element(random.Random(3 * i + j)).rows]
            rows[i][j] = PadicScalar(5, 1, 2, 8)
            g = Mat(ctx, rows)
            messages = []
            for fn in (_canonical_flag, _ref_canonical_flag):
                with pytest.raises(ValueError, match="^mixed primes") as err:
                    fn(ctx, g, ctx.full_dims)
                messages.append(str(err.value))
            assert messages[0] == messages[1], (i, j)


@pytest.mark.parametrize("precision", [4, 8, 32])
def test_canonical_form_is_a_projection(precision):
    """Canonicalising a canonical form returns it, so the identity translate is free.

    This holds for every input class the samplers and the arithmetic
    produce; only entries finer than the working precision break it, and
    for those the identity translate takes the full path.
    """
    rng = random.Random(100 + precision)
    checked = 0
    for n in (2, 3, 4):
        for p in (2, 3, 5, 7):
            ctx = GroupContext(n, p, precision)
            origin = ctx.diag((0,) * n)  # the recentring matrix the gates built
            for dims in _all_dims(n):
                simplices = []
                inputs = list(_flag_inputs(ctx, rng, 24))
                inputs += [("edge", g) for g in _edge_flags(ctx)]
                for kind, g in inputs:
                    try:
                        s = boundary_simplex(g, dims)
                    except PrecisionExhausted:
                        continue
                    C = s.canon
                    assert _raw_rows(_canonical_flag(ctx, C, dims).rows) \
                        == _raw_rows(C.rows), (kind, n, p, precision, dims)
                    assert s.translate(ctx.identity) is s
                    full = boundary_simplex(origin * C, dims)
                    assert _raw_rows(full.canon.rows) == _raw_rows(C.rows)
                    simplices.append(s)
                    checked += 1
                for s1, s2 in zip(simplices, simplices[1:]):
                    want = _radius(s1.translate(origin), s2.translate(origin))
                    assert agreement_gate((0,) * n, s1, s2).radius == want
    assert checked > 1200


def test_identity_translate_of_finer_entries_takes_the_full_path():
    # an entry with more digits than the working precision: the identity
    # product cuts it, so translate must not return the simplex as it is
    ctx = GroupContext(2, 3, 4)
    g = Mat(ctx, [[PadicScalar(3, 0, 1, 9), ctx.zero],
                  [PadicScalar(3, 0, 2, 9), ctx.one]])
    s = boundary_simplex(g, (1,))
    assert s.canon[1, 0].N == 9
    moved = s.translate(ctx.identity)
    assert moved is not s
    assert _raw_rows(moved.canon.rows) \
        == _raw_rows(boundary_simplex(ctx.diag((0, 0)) * s.canon, (1,)).canon.rows)
    assert moved.canon[1, 0].N == 4


# -- decompositions -----------------------------------------------------------


def test_cartan_decomposition():
    rng = random.Random(6)
    for ctx in ALL_CTX:
        for _ in range(80):
            g = ctx.random_element(rng)
            k1, exps, k2 = cartan_decomposition(g)
            assert list(exps) == sorted(exps, reverse=True)
            assert is_integral_unit_det(k1) and is_integral_unit_det(k2)
            assert_recomposes(k1 * ctx.diag(exps) * k2, g)


def test_cartan_on_diagonal_is_sorted_exponents():
    k1, exps, k2 = cartan_decomposition(CTX3.diag((1, -2, 1)))
    assert exps == (1, 1, -2)


def test_iwasawa_decomposition_both_sides():
    rng = random.Random(7)
    for ctx in ALL_CTX:
        for _ in range(60):
            g = ctx.random_element(rng)
            for lower in (True, False):
                u, t, k = iwasawa_decomposition(g, lower=lower)
                assert is_integral_unit_det(k)
                for i in range(ctx.n):
                    assert u[i, i].unit == 1 and u[i, i].v == 0
                    for j in range(ctx.n):
                        above = i < j if lower else i > j
                        if above:
                            assert u[i, j].is_zeroish()
                        if i != j:
                            assert t[i, j].is_zeroish()
                assert_recomposes(u * t * k, g)


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


def _ref_iwasawa(g, lower=True):
    ctx, n = g.ctx, g.n
    if not lower:
        J = ctx.reversal
        u, t, k = _ref_iwasawa(J * g * J)
        return J * u * J, J * t * J, J * k * J
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


def _decomposition_inputs(ctx, rng):
    """Random elements, monomial ones (whose k1 keeps single-term rows),
    and elements with entries finer than the working precision."""
    n, p = ctx.n, ctx.p
    sigma = list(range(n))
    rng.shuffle(sigma)
    exps = [rng.randrange(-3, 4) for _ in range(n)]
    units = [rng.randrange(1, p**5) * p + 1 for _ in range(n)]
    fine = ctx.mat([[PadicScalar.from_unit(p, rng.randrange(0, 3), rng.randrange(1, p**40) * p + 1,
                                           ctx.precision + rng.randrange(0, 9))
                     for _ in range(n)] for _ in range(n)])
    return [ctx.random_element(rng), ctx.random_iwahori(rng),
            ctx.perm(sigma) * ctx.diag(exps, units), fine,
            ctx.random_element(rng) * ctx.diag(exps, units)]


def _decomposition_or_error(fn, g, **kw):
    try:
        return [_raw_rows(x.rows) if isinstance(x, Mat) else x for x in fn(g, **kw)]
    except PrecisionExhausted as exc:
        return str(exc)


DECOMP_CTX = [GroupContext(2, 3, 1), GroupContext(2, 3, N), GroupContext(3, 5, N),
              GroupContext(3, 2, 12), CTX4]


def test_structured_factors_match_the_products():
    rng = random.Random(11)
    for ctx in DECOMP_CTX:
        n = ctx.n
        for _ in range(30):
            sigma = list(range(n))
            rng.shuffle(sigma)
            exps = [rng.randrange(-5, 6) for _ in range(n)]
            want = _ref_diag(ctx, exps)
            assert _raw_rows(ctx.diag(exps).rows) == _raw_rows(want.rows)
            assert (_raw_rows(ctx.monomial(sigma, exps).rows)
                    == _raw_rows((ctx.perm(sigma) * want).rows))


def test_cartan_and_iwasawa_match_their_references():
    rng = random.Random(12)
    for ctx in DECOMP_CTX:
        for _ in range(25):
            for g in _decomposition_inputs(ctx, rng):
                assert (_decomposition_or_error(cartan_decomposition, g)
                        == _decomposition_or_error(_ref_cartan, g))
                for lower in (True, False):
                    assert (_decomposition_or_error(iwasawa_decomposition, g, lower=lower)
                            == _decomposition_or_error(_ref_iwasawa, g, lower=lower))


def test_iwahori_coset_recovers_synthesized_label():
    rng = random.Random(8)
    for ctx in ALL_CTX:
        for _ in range(60):
            sigma = list(range(ctx.n))
            rng.shuffle(sigma)
            exps = tuple(rng.randrange(-3, 4) for _ in range(ctx.n))
            m = ctx.monomial(sigma, exps)
            g = ctx.random_iwahori(rng) * m * ctx.random_iwahori(rng)
            label = iwahori_coset(g)
            assert label == AffineWeylCoset(tuple(sigma), exps)


def test_bruhat_cell_shapes_and_product():
    rng = random.Random(9)
    for ctx in ALL_CTX:
        for _ in range(80):
            g = ctx.random_element(rng)
            u, m, b = bruhat_cell(g)
            perm, exps = monomial_parts(m)
            assert sorted(perm) == list(range(ctx.n))
            for i in range(ctx.n):
                assert u[i, i].unit == 1 and u[i, i].v == 0
                for j in range(i):
                    assert u[j, i].is_zeroish() or j < i  # upper by construction
                    assert b[i, j].is_zeroish()
                    assert u[i, j].is_zeroish() if i > j else True
            assert_recomposes(u * m * b, g)


def test_bruhat_recovers_synthesized_weyl_part():
    """Unit-generic upper factors never move the Bruhat certificate."""
    rng = random.Random(10)
    for ctx in ALL_CTX:
        for _ in range(40):
            sigma = list(range(ctx.n))
            rng.shuffle(sigma)
            exps = tuple(rng.randrange(-2, 3) for _ in range(ctx.n))
            m = ctx.monomial(sigma, exps)
            b1 = ctx.random_unipotent(rng, upper=True, min_val=0)
            b2 = ctx.random_unipotent(rng, upper=True, min_val=0)
            g = b1 * m * b2
            _, mm, _ = bruhat_cell(g)
            perm, got_exps = monomial_parts(mm)
            assert perm == tuple(sigma)
            assert got_exps == exps


# -- boundary geometry ---------------------------------------------------------


def test_weyl_distance_axioms():
    rng = random.Random(11)
    for ctx in ALL_CTX:
        for _ in range(30):
            g = ctx.random_element(rng)
            c = boundary_simplex(g, ctx.full_dims)
            assert weyl_distance(c, c).is_identity()
            sigma = list(range(ctx.n))
            rng.shuffle(sigma)
            w = weyl_from_permutation(ctx.weyl, sigma)
            # a synthesized pair at distance exactly w
            d = boundary_simplex(g * ctx.perm(sigma), ctx.full_dims)
            assert weyl_distance(c, d) == w
            assert weyl_distance(d, c) == w.inverse()


def test_opposite_chambers():
    for ctx in ALL_CTX:
        assert opposite(ctx.c_plus, boundary_simplex(ctx.reversal, ctx.full_dims))
        assert not opposite(ctx.c_plus, ctx.c_plus)
    rng = random.Random(12)
    for _ in range(30):
        ctx = rng.choice(ALL_CTX)
        g = ctx.random_element(rng)
        a = ctx.c_plus.translate(g)
        b = boundary_simplex(ctx.reversal, ctx.full_dims).translate(g)
        assert opposite(a, b)


def test_opposite_vertices():
    # span(e1) and span(e2) are not transverse to each other in dim 2+1
    s1 = boundary_simplex(CTX3.identity, (1,))
    s2 = boundary_simplex(CTX3.perm((1, 0, 2)), (2,))
    # s2 is the plane span(e2, e1): contains span(e1): not opposite
    assert not opposite(s1, s2)
    s3 = boundary_simplex(CTX3.perm((2, 1, 0)), (2,))  # span(e3, e2)
    assert opposite(s1, s3)


def test_big_cell_frame():
    rng = random.Random(13)
    for ctx in ALL_CTX:
        c_minus = boundary_simplex(ctx.reversal, ctx.full_dims)
        for _ in range(25):
            g1 = ctx.random_element(rng)
            g2 = ctx.random_element(rng)
            c1 = ctx.c_plus.translate(g1)
            c2 = ctx.c_plus.translate(g2)
            if not opposite(c1, c2):
                continue
            F = big_cell_frame(c1, c2)
            # valuation spread of the Bruhat factors erodes a few digits
            assert ctx.c_plus.translate(F).same(c1, N - 14)
            assert c_minus.translate(F).same(c2, N - 14)
        with pytest.raises(NotOpposite):
            big_cell_frame(ctx.c_plus, ctx.c_plus)


def test_retraction_fixes_its_apartment():
    rng = random.Random(14)
    for ctx in ALL_CTX:
        F = ctx.random_element(rng)
        for w in ctx.weyl.elements():
            center = rng.choice(ctx.weyl.elements())
            x = boundary_simplex(
                F * ctx.perm(permutation_from_weyl(w)), ctx.full_dims
            )
            rho = retraction(F, center, x)
            assert rho.same(x, N - 10)


def test_retraction_preserves_distance_to_center():
    rng = random.Random(15)
    for ctx in ALL_CTX:
        for _ in range(25):
            F = ctx.random_element(rng)
            center = rng.choice(ctx.weyl.elements())
            c = boundary_simplex(F * ctx.perm(permutation_from_weyl(center)), ctx.full_dims)
            x = boundary_simplex(ctx.random_element(rng), ctx.full_dims)
            rho = retraction(F, center, x)
            assert weyl_distance(c, rho) == weyl_distance(c, x)


def test_project_to_star_gate_property():
    rng = random.Random(16)
    for ctx in ALL_CTX:
        for _ in range(25):
            dims = rng.choice(_all_dims(ctx.n))
            s = boundary_simplex(ctx.random_element(rng), dims)
            d = boundary_simplex(ctx.random_element(rng), ctx.full_dims)
            gate = project_to_star(s, d)
            # the gate contains s
            assert gate.face(dims).same(s, N - 10)
            # and minimizes distance to d among the star's chambers
            b = chamber_of(s)
            dist = (weyl_distance(d, gate)).length
            for u in ctx.weyl.parabolic(s.type):
                y = boundary_simplex(
                    b.canon * ctx.perm(permutation_from_weyl(u)), ctx.full_dims
                )
                assert (weyl_distance(d, y)).length >= dist


def test_parabolic_membership_dual_route():
    rng = random.Random(17)
    for ctx in ALL_CTX:
        for _ in range(40):
            dims = rng.choice(_all_dims(ctx.n))
            s_std = boundary_simplex(ctx.identity, dims)
            q = ctx.random_parabolic_element(rng, dims)
            assert parabolic_membership(q, s_std, N - 8)
            # pattern route: below-block entries of q must vanish
            cuts = [0, *dims, ctx.n]
            for bi in range(len(cuts) - 1):
                for i in range(cuts[bi], cuts[bi + 1]):
                    for j in range(cuts[bi + 1]):
                        if j < cuts[bi] and not q[i, j].is_zeroish():
                            pytest.fail("sampler produced a non-parabolic element")
            # conjugated route with an integral conjugator so the stabilizer
            # statement, not valuation spread, is what gets exercised; genuine
            # non-members disagree at depth 0-2, far below this
            g = ctx.random_gl_zp(rng)
            moved = s_std.translate(g)
            q_int = ctx.random_parabolic_element(rng, dims, integral=True)
            conj = g * q_int * g.inv()
            assert parabolic_membership(conj, moved, N - 10)


def test_generic_elements_are_not_parabolic():
    rng = random.Random(18)
    hits = 0
    for _ in range(40):
        ctx = rng.choice(ALL_CTX)
        dims = rng.choice(_all_dims(ctx.n))
        s = boundary_simplex(ctx.random_element(rng), dims)
        g = ctx.random_element(rng)
        if parabolic_membership(g, s, N // 2):
            hits += 1
    assert hits <= 4  # stabilizing a given flag is exceptional


def test_unipotent_radical_stabilizes():
    rng = random.Random(19)
    for ctx in ALL_CTX:
        for _ in range(30):
            dims = rng.choice(_all_dims(ctx.n))
            s = boundary_simplex(ctx.random_element(rng), dims)
            u = unipotent_radical_element(s, rng)
            assert parabolic_membership(u, s, N - 12)
            conj = s.canon.inv() * u * s.canon
            cuts = [0, *dims, ctx.n]
            for bi in range(len(cuts) - 1):
                for i in range(cuts[bi], cuts[bi + 1]):
                    for j in range(cuts[bi], cuts[bi + 1]):
                        expect_delta = ctx.one if i == j else ctx.zero
                        assert (conj[i, j] - expect_delta).val_floor() >= N - 12


def test_chamber_of_contains_simplex():
    rng = random.Random(20)
    for _ in range(30):
        ctx = rng.choice(ALL_CTX)
        dims = rng.choice(_all_dims(ctx.n))
        s = boundary_simplex(ctx.random_element(rng), dims)
        c = chamber_of(s)
        assert c.is_chamber()
        assert c.face(dims).same(s, N - 8)
