"""Matrix building model: decompositions, canonical flags, retractions."""

import itertools
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
from buildinglab.building import Mat, _canonical_flag, _echelon_rows, _int_det
from buildinglab.cli import mild_element
from buildinglab.dynamics import _radius, agreement_gate
from buildinglab.coxeter import permutation_from_weyl, weyl_from_permutation
from buildinglab.padic import INF, PadicScalar, PrecisionExhausted
from reference import (
    ALL_CTX,
    DECOMP_CTX,
    N,
    absolute_precision,
    all_dims,
    decomposition_inputs,
    differences,
    draws,
    finer_than_its_pivot,
    flags,
    raw,
    row_tests,
)

CTX2, CTX3 = ALL_CTX[:2]

# Each live kernel against its frozen reference in tests/reference.py: one
# test per row, named by the row.
globals().update(row_tests("test_building"))


def agree(a, b, depth):
    got = mat_agreement(a, b)
    assert got >= depth, f"agreement {got} < {depth}"


def assert_recomposes(product, g, slack=14):
    """product must equal g on every digit it claims, and claim enough."""
    for x in differences(product, g):
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
    for ctx, rng in draws(0, 20):
        s1 = list(range(ctx.n)); rng.shuffle(s1)
        s2 = list(range(ctx.n)); rng.shuffle(s2)
        comp = [s1[s2[j]] for j in range(ctx.n)]
        agree(ctx.perm(s1) * ctx.perm(s2), ctx.perm(comp), N)
        w = weyl_from_permutation(ctx.weyl, s1) * weyl_from_permutation(ctx.weyl, s2)
        assert permutation_from_weyl(w) == tuple(comp)


def test_matrix_inverse_roundtrip():
    for ctx, rng in draws(1, 60):
        g = ctx.random_element(rng)
        gi = g.inv()
        # soundness: every digit the tracker claims to know must match
        # the identity; deviations may only be declared-unknown windows
        for x in differences(g * gi, ctx.identity):
            assert x.is_zeroish(), f"inverse contradicts identity: {x}"
        # quality floor: elimination must keep a usable depth
        agree(g * gi, ctx.identity, 8)
    # a singular matrix is rejected
    s = CTX2.mat([[1, 1], [1, 1]])
    with pytest.raises(PrecisionExhausted):
        s.inv()


def test_det_multiplicative():
    healthy = total = 0
    for ctx, rng in draws(2, 333):
        a = ctx.random_element(rng)
        b = ctx.random_element(rng)
        lhs = (a * b).det()
        rhs = a.det() * b.det()
        # both routes agree on every digit either of them claims
        window = min(absolute_precision(lhs), absolute_precision(rhs))
        assert (lhs - rhs).val_floor() >= window
        total += 1
        healthy += min(lhs.N, rhs.N) >= 12
    # cancellation may eat digits occasionally, not systematically
    assert healthy / total > 0.8, f"only {healthy}/{total} kept 12 digits"


def test_unit_pivot_over_a_finer_entry_takes_the_full_normalisation():
    ctx, (row, *_) = finer_than_its_pivot()[0]
    # alone, the row is only normalised: dividing by the pivot cut the
    # finer entry to the pivot's 4 digits
    R, _ = _echelon_rows(ctx, [row])
    assert raw(R) == [[(3, 0, 1, 4), (3, 0, 2, 4), (3, INF, 0, 0)]]
    # without the finer entry the row is left as it is
    row[1] = PadicScalar(3, 0, 2, 4)
    R, _ = _echelon_rows(ctx, [row])
    assert R[0] == row and R[0][1] is row[1]


def test_group_context_mat_rejects_mixed_primes():
    ctx = GroupContext(2, 3, N)
    for x in (PadicScalar(5, 1, 2, 8), PadicScalar.zero(5), PadicScalar.near_zero(5, 3)):
        with pytest.raises(ValueError, match=r"^mixed primes 3 and 5$"):
            ctx.mat([[1, 0], [x, 1]])
    x = PadicScalar(3, 1, 2, 8)
    assert ctx.mat([[1, 0], [x, 1]])[1, 0] is x


def test_residue_prefilter_is_exact():
    """A residue determinant nonzero mod p is exactly a p-adic unit determinant."""
    for ctx, rng in draws(7, 300, [GroupContext(n, p, N) for n in (2, 3, 4) for p in (2, 3, 5)]):
        n, p = ctx.n, ctx.p
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
        residues = [[x.unit % p if x.v == 0 else 0 for x in r] for r in m.rows]
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
    for ctx, rng in draws(3, 40):
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


def test_canonical_invariance_and_idempotence():
    rng = random.Random(4)
    deep = total = 0
    for _ in range(1000):
        ctx = rng.choice(ALL_CTX)
        dims = rng.choice(all_dims(ctx.n))
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
        dims = rng.choice(all_dims(ctx.n))
        s = boundary_simplex(ctx.random_element(rng), dims)
        g = ctx.random_element(rng)
        h = ctx.random_element(rng)
        lhs = s.translate(g).translate(h)
        rhs = s.translate(h * g)
        assert lhs.agreement(rhs) >= N - 10


@pytest.mark.parametrize("precision", [4, 8, 32])
def test_canonical_form_is_a_projection(precision):
    """Canonicalising a canonical form returns it, so the identity translate is free.

    This holds for every input class the samplers and the arithmetic
    produce; only entries finer than the working precision break it, and
    for those the identity translate takes the full path.
    """
    checked = 0
    for (ctx, dims), inputs in itertools.groupby(flags(precision, 100 + precision),
                                                 lambda args: (args[0], args[2])):
        origin = ctx.diag((0,) * ctx.n)  # the recentring matrix the gates built
        simplices = []
        for _, g, _ in inputs:
            try:
                s = boundary_simplex(g, dims)
            except PrecisionExhausted:
                continue
            C = s.canon
            assert raw(_canonical_flag(ctx, C, dims)) == raw(C), (ctx.n, ctx.p, precision, dims)
            assert s.translate(ctx.identity) is s
            full = boundary_simplex(origin * C, dims)
            assert raw(full.canon) == raw(C)
            simplices.append(s)
            checked += 1
        for s1, s2 in zip(simplices, simplices[1:]):
            want = _radius(s1.translate(origin), s2.translate(origin))
            assert agreement_gate((0,) * ctx.n, s1, s2).radius == want
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
    assert raw(moved.canon) \
        == raw(boundary_simplex(ctx.diag((0, 0)) * s.canon, (1,)).canon)
    assert moved.canon[1, 0].N == 4


# -- decompositions -----------------------------------------------------------


def test_cartan_decomposition():
    for ctx, rng in draws(6, 80):
        g = ctx.random_element(rng)
        k1, exps, k2 = cartan_decomposition(g)
        assert list(exps) == sorted(exps, reverse=True)
        assert is_integral_unit_det(k1) and is_integral_unit_det(k2)
        assert_recomposes(k1 * ctx.diag(exps) * k2, g)


def test_cartan_on_diagonal_is_sorted_exponents():
    k1, exps, k2 = cartan_decomposition(CTX3.diag((1, -2, 1)))
    assert exps == (1, 1, -2)


def test_iwasawa_decomposition_both_sides():
    for ctx, rng in draws(7, 60):
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


def test_cartan_factors_stay_within_working_precision():
    """Every k1/k2 entry is reduced at the working precision: multiplying
    it by ctx.one, as a permutation product would, changes no field."""
    for ctx, rng in draws(13, 25, DECOMP_CTX):
        for g in [mild_element(ctx, rng), *decomposition_inputs(ctx, rng)]:
            try:
                k1, _, k2 = cartan_decomposition(g)
            except PrecisionExhausted:
                continue
            for x in (x for m in (k1, k2) for row in m.rows for x in row):
                assert x.N <= ctx.precision
                if x.unit:
                    assert 0 < x.unit < ctx.p**x.N and x.unit % ctx.p
                else:  # a zero; an exact one has the shared INF as v
                    assert x.N == 0 and (x.v is INF or x.v != INF)
                y = x * ctx.one
                assert (x.v, x.unit, x.N) == (y.v, y.unit, y.N)


def test_iwahori_coset_recovers_synthesized_label():
    for ctx, rng in draws(8, 60):
        sigma = list(range(ctx.n))
        rng.shuffle(sigma)
        exps = tuple(rng.randrange(-3, 4) for _ in range(ctx.n))
        m = ctx.monomial(sigma, exps)
        g = ctx.random_iwahori(rng) * m * ctx.random_iwahori(rng)
        label = iwahori_coset(g)
        assert label == AffineWeylCoset(tuple(sigma), exps)


def test_bruhat_cell_shapes_and_product():
    for ctx, rng in draws(9, 80):
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
    for ctx, rng in draws(10, 40):
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
    for ctx, rng in draws(11, 30):
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
    for ctx, rng in draws(13, 25):
        g1 = ctx.random_element(rng)
        g2 = ctx.random_element(rng)
        c1 = ctx.c_plus.translate(g1)
        c2 = ctx.c_plus.translate(g2)
        if not opposite(c1, c2):
            continue
        F = big_cell_frame(c1, c2)
        # valuation spread of the Bruhat factors erodes a few digits
        assert ctx.c_plus.translate(F).same(c1, N - 14)
        c_minus = boundary_simplex(ctx.reversal, ctx.full_dims)
        assert c_minus.translate(F).same(c2, N - 14)
    for ctx in ALL_CTX:
        with pytest.raises(NotOpposite):
            big_cell_frame(ctx.c_plus, ctx.c_plus)


def test_retraction_fixes_its_apartment():
    for ctx, rng in draws(14, 1):
        F = ctx.random_element(rng)
        for w in ctx.weyl.elements():
            center = rng.choice(ctx.weyl.elements())
            x = boundary_simplex(
                F * ctx.perm(permutation_from_weyl(w)), ctx.full_dims
            )
            rho = retraction(F, center, x)
            assert rho.same(x, N - 10)


def test_retraction_preserves_distance_to_center():
    for ctx, rng in draws(15, 25):
        F = ctx.random_element(rng)
        center = rng.choice(ctx.weyl.elements())
        c = boundary_simplex(F * ctx.perm(permutation_from_weyl(center)), ctx.full_dims)
        x = boundary_simplex(ctx.random_element(rng), ctx.full_dims)
        rho = retraction(F, center, x)
        assert weyl_distance(c, rho) == weyl_distance(c, x)


def test_project_to_star_gate_property():
    for ctx, rng in draws(16, 25):
        dims = rng.choice(all_dims(ctx.n))
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
    for ctx, rng in draws(17, 40):
        dims = rng.choice(all_dims(ctx.n))
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
        dims = rng.choice(all_dims(ctx.n))
        s = boundary_simplex(ctx.random_element(rng), dims)
        g = ctx.random_element(rng)
        if parabolic_membership(g, s, N // 2):
            hits += 1
    assert hits <= 4  # stabilizing a given flag is exceptional


def test_unipotent_radical_stabilizes():
    for ctx, rng in draws(19, 30):
        dims = rng.choice(all_dims(ctx.n))
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
        dims = rng.choice(all_dims(ctx.n))
        s = boundary_simplex(ctx.random_element(rng), dims)
        c = chamber_of(s)
        assert c.is_chamber()
        assert c.face(dims).same(s, N - 8)
