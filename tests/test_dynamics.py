"""Boundary dynamics: certificates, gates, limits, transit, boundedness.

The SL2 cases all have closed forms over Q_3 (agreement radii and
convergence traces are linear in the step with slope 2, offset by the
parameter valuation); those are frozen here and the generic machinery
is checked against them.  Characteristic polynomials are checked
against an integer cofactor oracle that never touches the p-adic code.
"""

import itertools
import math
import random

import pytest

from buildinglab import building, dynamics
from buildinglab.building import (
    GroupContext,
    Mat,
    boundary_simplex,
    chamber_of,
    opposite,
    parabolic_membership,
    unipotent_radical_element,
)
from buildinglab.cli import PRESETS, parse_config, run
from buildinglab.dynamics import (
    GateMeasure,
    RamifiedSlopes,
    agreement_gate,
    assumption_check,
    characteristic_polynomial,
    classify,
    conjugation_bounded,
    limit_boundary,
    newton_slopes,
    verify_transit,
)
from buildinglab.dynamics import _mat_power
from buildinglab.padic import INF, PadicScalar, PrecisionExhausted
from reference import (
    ROWS,
    _Claimed,
    _ref_apartment_retraction,
    absolute_precision,
    draws,
    full_path,
    raw,
    row_tests,
)

N = 32

# Each live kernel against its frozen reference in tests/reference.py: one
# test per row, named by the row.
globals().update(row_tests("test_dynamics"))


# -- independent oracles -----------------------------------------------------


def oracle_char_poly(rows):
    """det(x - M) for an integer matrix, by cofactor expansion.

    Polynomials are int coefficient lists, lowest degree first; no
    p-adic arithmetic is involved.
    """

    def pmul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return out

    def padd(a, b):
        out = [0] * max(len(a), len(b))
        for i, ai in enumerate(a):
            out[i] += ai
        for i, bi in enumerate(b):
            out[i] += bi
        return out

    def det(mat):
        m = len(mat)
        if m == 1:
            return mat[0][0]
        acc = [0]
        for j in range(m):
            minor = [
                [mat[i][k] for k in range(m) if k != j]
                for i in range(1, m)
            ]
            term = pmul(mat[0][j], det(minor))
            if j % 2 == 1:
                term = [-c for c in term]
            acc = padd(acc, term)
        return acc

    n = len(rows)
    entries = [
        [
            [-rows[i][j], 1] if i == j else [-rows[i][j]]
            for j in range(n)
        ]
        for i in range(n)
    ]
    poly = det(entries)
    return poly + [0] * (n + 1 - len(poly))


def oracle_valuation(x, p):
    assert x != 0
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _line(ctx, v, u):
    """The boundary point span((1, u * 3^v)) of the SL2 tree."""
    t = ctx.s(u).shift(v)
    return boundary_simplex(
        ctx.mat([[ctx.one, ctx.zero], [t, ctx.one]]), (1,)
    )


def _rotation_certificate(ctx):
    """Translation whose repelling plane is rotated by a unit part."""
    u3 = pow(2, -1, 3 ** 40)
    g = ctx.diag((1, 1, -2), units=(1, 2, u3))
    return classify(g)


# -- characteristic polynomial and slopes --------------------------------------


def test_char_poly_matches_integer_oracle():
    for ctx, rng in draws(41, 12):
        n = ctx.n
        rows = [
            [rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)
        ]
        got = characteristic_polynomial(ctx.mat(rows))
        want = oracle_char_poly(rows)
        assert len(got) == n + 1
        for c, w in zip(got, want):
            if c.is_zeroish():
                assert w == 0 or oracle_valuation(w, 3) >= c.val_floor()
            else:  # c is integral and pins w modulo 3**10
                _, v, unit, prec = raw(c)
                assert 0 <= v and v + prec >= 10 and (3**v * unit - w) % 3**10 == 0


def test_char_poly_pinned_rotation():
    ctx = GroupContext(2, 5)
    got = characteristic_polynomial(ctx.mat([[0, 1], [-1, 0]]))
    assert raw(got[0]) == raw(got[2]) == (5, 0, 1, 32)
    assert got[1].is_zeroish()


def test_newton_slopes_frozen_table():
    ctx2 = GroupContext(2, 3)
    ctx3 = GroupContext(3, 3)
    assert newton_slopes(characteristic_polynomial(ctx2.diag((1, -1)))) == (1, -1)
    assert newton_slopes(characteristic_polynomial(ctx3.diag((1, 1, -2)))) == (1, 1, -2)
    assert newton_slopes(characteristic_polynomial(ctx3.diag((2, 1, -3)))) == (2, 1, -3)
    # unit matrix with unit determinant: every slope is zero
    assert newton_slopes(characteristic_polynomial(ctx2.mat([[2, 1], [1, 1]]))) == (0, 0)


@pytest.mark.parametrize("floors,raised", [
    # the hull from (0, 0) to (4, 2) is 1/2 high at 1 and 1 high at 2;
    # a floor on it or above it leaves the slopes known (here ramified)
    ({2: 1}, RamifiedSlopes),
    ({1: 1}, RamifiedSlopes),
    ({1: 1, 2: 1, 3: 2}, RamifiedSlopes),
    # a floor strictly below it leaves them unresolved
    ({2: 0}, PrecisionExhausted),
    ({1: 0}, PrecisionExhausted),
    ({3: 1}, PrecisionExhausted),
])
def test_newton_slopes_zeroish_floor_against_fractional_hull(floors, raised):
    coeffs = [PadicScalar.from_int(1, 3)] + [PadicScalar.zero(3)] * 3 + [
        PadicScalar.from_int(9, 3)]
    for i, floor in floors.items():
        coeffs[i] = PadicScalar.near_zero(3, floor)
    with pytest.raises(raised):
        newton_slopes(coeffs)


def test_newton_slopes_ramified_and_conjugation_invariant():
    ctx = GroupContext(2, 3)
    with pytest.raises(RamifiedSlopes):
        newton_slopes(characteristic_polynomial(ctx.mat([[0, 3], [1, 0]])))
    rng = random.Random(42)
    ctx3 = GroupContext(3, 3)
    for _ in range(25):
        a = rng.randrange(-3, 4)
        b = rng.randrange(-3, 4)
        exps = (a, b, -a - b)
        h = ctx3.random_gl_zp(rng)
        g = h * ctx3.diag(exps) * h.inv()
        assert newton_slopes(characteristic_polynomial(g)) == tuple(
            sorted(exps, reverse=True)
        )


# -- certificates ---------------------------------------------------------------


def test_classify_sl2_frozen():
    ctx = GroupContext(2, 3)
    cert = classify(ctx.diag((1, -1)))
    assert cert.exps == (1, -1)
    assert cert.wall_type == frozenset()
    assert cert.is_regular()
    assert math.isclose(cert.translation_length, math.sqrt(2))
    assert cert.sigma_plus.same(boundary_simplex(ctx.reversal, (1,)), N - 4)
    assert cert.sigma_minus.same(ctx.c_plus.face((1,)), N - 4)
    assert cert.apartment_exps == (1, -1)
    assert opposite(cert.sigma_plus, cert.sigma_minus)
    assert parabolic_membership(cert.element, cert.sigma_plus)
    assert parabolic_membership(cert.element, cert.sigma_minus)


def test_classify_sl3_frozen():
    ctx = GroupContext(3, 3)
    regular = classify(ctx.diag((1, 0, -1)))
    assert regular.exps == (1, 0, -1)
    assert regular.wall_type == frozenset()
    assert regular.sigma_plus.dims == (1, 2)
    assert regular.sigma_plus.same(boundary_simplex(ctx.reversal, ctx.full_dims), N - 4)
    assert regular.sigma_minus.same(ctx.c_plus, N - 4)

    singular = classify(ctx.diag((1, 1, -2)))
    assert singular.exps == (1, 1, -2)
    assert singular.wall_type == frozenset({0})
    assert not singular.is_regular()
    assert math.isclose(singular.translation_length, math.sqrt(6))
    assert singular.sigma_plus.dims == (1,)
    assert singular.sigma_plus.type == frozenset({1})
    assert singular.sigma_minus.dims == (2,)
    assert singular.sigma_minus.type == frozenset({0})
    # attracting vertex is the expanded coordinate line, repelling its
    # complementary coordinate plane
    e3_line = boundary_simplex(ctx.perm((2, 0, 1)), (1,))
    e12_plane = ctx.c_plus.face((2,))
    assert singular.sigma_plus.same(e3_line, N - 4)
    assert singular.sigma_minus.same(e12_plane, N - 4)
    assert opposite(singular.sigma_plus, singular.sigma_minus)
    assert parabolic_membership(singular.element, singular.sigma_plus)
    assert parabolic_membership(singular.element, singular.sigma_minus)


@pytest.mark.parametrize("p,exps", [
    (3, (1, -1)), (3, (1, 0, -1)), (3, (1, 1, -2)), (5, (-1, 1)),
    (5, (2, -1, -1)), (2, (1, 1, -1, -1)), (3, (3, 1, -2, -2)),
])
def test_classify_inverse_swaps_the_endpoints(p, exps):
    """gamma^-1 attracts where gamma repels, translates as far, and its
    wall type is gamma's under the opposition i -> n - 2 - i."""
    n = len(exps)
    g = GroupContext(n, p).diag(exps)
    cert, inverse = classify(g), classify(g.inv())
    assert inverse.sigma_plus.same(cert.sigma_minus)
    assert inverse.sigma_minus.same(cert.sigma_plus)
    assert inverse.translation_length == cert.translation_length
    assert inverse.wall_type == frozenset(n - 2 - i for i in cert.wall_type)


def test_classify_elliptic_and_bad_frame():
    ctx = GroupContext(2, 3)
    rng = random.Random(43)
    for _ in range(10):
        assert classify(ctx.random_gl_zp(rng)) is None
    with pytest.raises(RamifiedSlopes):
        classify(ctx.mat([[0, 3], [1, 0]]))
    g = ctx.mat([[3, 1], [0, 3]])
    with pytest.raises(ValueError):
        classify(g, frame=ctx.identity)


def test_classify_conjugation_equivariance_and_membership_sampling():
    rng = random.Random(44)
    checked = 0
    for n, exps in ((2, (1, -1)), (3, (1, 1, -2))):
        ctx = GroupContext(n, 3)
        base = classify(ctx.diag(exps))
        for _ in range(50):
            h = ctx.random_gl_zp(rng)
            cert = classify(h * ctx.diag(exps) * h.inv(), frame=h)
            assert cert.exps == base.exps
            assert cert.wall_type == base.wall_type
            assert math.isclose(cert.translation_length, base.translation_length)
            assert cert.sigma_plus.same(base.sigma_plus.translate(h), 10)
            assert cert.sigma_minus.same(base.sigma_minus.translate(h), 10)
            assert parabolic_membership(cert.element, cert.sigma_plus, 10)
            assert parabolic_membership(cert.element, cert.sigma_minus, 10)
            checked += 1
    assert checked == 100


def test_classify_power_route_agrees_with_frame_route():
    rng = random.Random(45)
    for n, exps in ((2, (2, -2)), (3, (1, 1, -2))):
        ctx = GroupContext(n, 3)
        for _ in range(4):
            h = ctx.random_gl_zp(rng)
            g = h * ctx.diag(exps) * h.inv()
            via_frame = classify(g, frame=h)
            via_power = classify(g)
            assert via_power.frame is None
            assert via_power.exps == via_frame.exps
            assert via_power.sigma_plus.same(via_frame.sigma_plus, 10)
            assert via_power.sigma_minus.same(via_frame.sigma_minus, 10)


# -- agreement gates -------------------------------------------------------------


def test_agreement_gate_sl2_closed_form():
    ctx = GroupContext(2, 3)
    origin = (0, 0)
    e1_line = ctx.c_plus.face((1,))
    for v in range(0, 7):
        assert agreement_gate(origin, _line(ctx, v, 2), e1_line).radius == v
        # symmetric
        assert agreement_gate(origin, e1_line, _line(ctx, v, 2)).radius == v
    assert agreement_gate(origin, e1_line, e1_line).radius == INF
    ctx3 = GroupContext(3, 3)
    with pytest.raises(ValueError):
        agreement_gate((0, 0, 0), ctx3.c_plus.face((1,)), ctx3.c_plus)


def test_agreement_gate_translation_equivariance():
    ctx = GroupContext(3, 3)
    rng = random.Random(46)
    for _ in range(25):
        a = rng.randrange(-2, 3)
        b = rng.randrange(-2, 3)
        exps = (a, b, -a - b)
        g = ctx.diag(exps)
        c1 = boundary_simplex(ctx.random_element(rng), ctx.full_dims)
        c2 = boundary_simplex(ctx.random_element(rng), ctx.full_dims)
        base = tuple(rng.randrange(-2, 3) for _ in range(3))
        r0 = agreement_gate(base, c1, c2).radius
        shifted = tuple(x + e for x, e in zip(base, exps))
        r1 = agreement_gate(shifted, c1.translate(g), c2.translate(g)).radius
        assert r0 == r1


def test_agreement_gate_base_shift_bound():
    ctx = GroupContext(3, 3)
    rng = random.Random(47)
    for _ in range(25):
        c1 = boundary_simplex(ctx.random_element(rng), ctx.full_dims)
        c2 = boundary_simplex(ctx.random_element(rng), ctx.full_dims)
        base = tuple(rng.randrange(-1, 2) for _ in range(3))
        delta = tuple(rng.randrange(-2, 3) for _ in range(3))
        r0 = agreement_gate(base, c1, c2).radius
        r1 = agreement_gate(tuple(b + d for b, d in zip(base, delta)), c1, c2).radius
        if r0 == INF or r1 == INF:
            assert r0 == r1
        else:
            assert abs(r1 - r0) <= max(delta) - min(delta)


def test_agreement_gate_face_monotone():
    ctx = GroupContext(3, 3)
    rng = random.Random(48)
    for _ in range(60):
        c1 = boundary_simplex(ctx.random_element(rng), ctx.full_dims)
        c2 = boundary_simplex(ctx.random_element(rng), ctx.full_dims)
        base = tuple(rng.randrange(-2, 3) for _ in range(3))
        r_ch = agreement_gate(base, c1, c2).radius
        for dims in ((1,), (2,), (1, 2)):
            r_f = agreement_gate(base, c1.face(dims), c2.face(dims)).radius
            assert r_f >= r_ch


def test_neighborhood_image_exact_transport():
    """The n-th image of a gate neighborhood: gamma^n preserves agreement
    depth and moves the gate base along its translation vector, so pulling
    the target back by gamma^n and measuring at the base equals measuring
    the target at the moved base (n, -n)."""
    ctx = GroupContext(2, 3)
    cert = classify(ctx.diag((1, -1)))
    target = _line(ctx, -4, 2)
    for n in range(1, 7):
        pulled = target.translate(_mat_power(cert.element, n).inv())
        r_pull = agreement_gate((0, 0), cert.sigma_minus, pulled).radius
        r_direct = agreement_gate((n, -n), cert.sigma_minus, target).radius
        assert r_pull == r_direct == max(0, 2 * n - 4)


# -- the projection hypothesis -----------------------------------------------------


def test_assumption_check_diagonal_chambers_and_vertex():
    ctx = GroupContext(3, 3)
    cert = classify(ctx.diag((1, 1, -2)))
    rng = random.Random(50)
    for _ in range(20):
        xi = ctx.c_plus.translate(ctx.random_element(rng))
        rep = assumption_check(cert, xi)
        assert rep.satisfied
        assert rep.residue_overlap == frozenset()
        assert rep.witness.is_chamber()
        assert parabolic_membership(cert.element, rep.witness)
        assert rep.witness.face(rep.core.dims).same(rep.core, N - 10)
        assert rep.witness.face((2,)).same(cert.sigma_minus, N - 10)
    # a vertex off both coordinate blocks projects through a bigger residue
    beta = boundary_simplex(
        ctx.mat([[1, 0, 0], [0, 1, 0], [1, 0, 1]]), (1,)
    )
    rep = assumption_check(cert, beta)
    assert rep.satisfied
    assert rep.residue_overlap == frozenset({0})
    assert rep.core.dims == (2,)
    assert parabolic_membership(cert.element, rep.witness)


def test_assumption_check_needs_frame():
    ctx = GroupContext(2, 3)
    rng = random.Random(51)
    h = ctx.random_gl_zp(rng)
    cert = classify(h * ctx.diag((2, -2)) * h.inv())
    with pytest.raises(ValueError):
        assumption_check(cert, ctx.c_plus)


def test_assumption_check_rotation_failure():
    ctx = GroupContext(3, 3)
    cert = _rotation_certificate(ctx)
    assert cert.exps == (1, 1, -2)
    # gate line comes out as span(e1 + e2), which the unit part rotates
    xi_bad = boundary_simplex(
        ctx.mat([[0, 1, 0], [0, 1, 1], [1, 0, 0]]), (1, 2)
    )
    rep = assumption_check(cert, xi_bad)
    assert not rep.satisfied
    assert rep.witness is None
    # gate line span(e1): an eigenline, so the same element accepts this one
    xi_ok = boundary_simplex(
        ctx.mat([[0, 1, 0], [1, 0, 0], [1, 0, 1]]), (1, 2)
    )
    assert not parabolic_membership(cert.element, xi_ok)
    assert assumption_check(cert, xi_ok).satisfied


def test_regular_hypothesis_of_a_simplex_that_is_no_chamber_takes_the_full_path():
    def seen(rep):
        return raw([rep.satisfied, rep.witness.canon, rep.core.canon,
                    rep.residue_overlap, rep.min_rep_word])

    ctx = GroupContext(3, 3)
    cert = classify(ctx.diag((1, 0, -1)))
    rng = random.Random(57)
    for dims in ((1,), (2,)):
        beta = boundary_simplex(ctx.random_gl_zp(rng), dims)
        rep = assumption_check(cert, beta)
        assert rep.witness is not cert.sigma_minus
        assert seen(rep) == seen(full_path(assumption_check, cert, beta))


def test_regular_hypothesis_grid_reaches_every_case():
    """The grid of the regular hypothesis row reaches the certificate's
    answer, where the full path's witness is bit for bit the repelling
    chamber (the full path projects onto that chamber's star, which is
    the chamber itself, so no approximate zero enters), the projection's
    answer for a wall certificate of an exact diagonal, and the full path
    for a wall certificate whose Levi block rotates by units and for a
    regular one in a frame the caller supplied."""
    (row,) = [r for r in ROWS["test_dynamics"]
              if r.name == "test_regular_hypothesis_matches_full_path"]
    cases = []
    for cert, xi, _ in row.grid():
        try:
            rep = assumption_check(cert, xi)
            full = full_path(assumption_check, cert, xi)
        except PrecisionExhausted:
            continue
        if rep.witness is cert.sigma_minus:
            assert raw(full.witness.canon) == raw(cert.sigma_minus.canon)
            cases.append("exact")
        elif rep.witness is not None and rep.witness is rep.core:
            assert cert.wall_type and cert.element._shifts is not None
            cases.append("wall")
        else:
            assert full.witness is not full.core
            cases.append("rotation" if cert.wall_type else "frame")
    assert set(cases) == {"exact", "wall", "rotation", "frame"}


def test_levi_rotation_never_takes_the_projection_answer(monkeypatch):
    """A wall element whose Levi block rotates by the units 4 and 7 keeps
    no exponents, so the hypothesis check never answers from the
    projection, and every start chamber drawn as the dynamics presets
    draw them (random_gl_zp translates of c_plus) fails the hypothesis."""
    ctx = GroupContext(3, 3, N)
    cert = classify(ctx.diag((1, 1, -2), units=(4, 7, 1)))
    assert cert.wall_type and cert.element._shifts is None
    answers = []
    real = dynamics._fixed_star

    def recorded(*args):
        answers.append(real(*args))
        return answers[-1]

    monkeypatch.setattr(dynamics, "_fixed_star", recorded)
    rng = random.Random(20011)
    reports = [limit_boundary(cert, ctx.c_plus.translate(ctx.random_gl_zp(rng)), max_n=4)
               for _ in range(30)]
    assert answers == [False] * 30
    assert [rep.hypothesis.satisfied for rep in reports] == [False] * 30
    assert {rep.status for rep in reports} == {"hypothesis-not-satisfied"}


def test_levi_rotation_verdict_does_not_depend_on_precision():
    """The hypothesis check decides whether the Levi rotation fixes the
    core by splitting it across the eigen classes, with no depth: starts
    drawn at 32 digits and rebuilt from their integer entries get the
    32-digit verdict at every precision from 6 up, and none raises.  At
    32 digits the verdict agrees with the membership translate, and a
    witness is fixed."""
    deep = GroupContext(3, 3, N)
    rng = random.Random(2136)
    perms = list(itertools.permutations(range(3)))

    def ints(g):
        return [[x.unit * deep.p ** x.v if x.unit else 0 for x in row] for row in g.rows]

    starts = [ints(deep.perm(rng.choice(perms))
                   * deep.random_parabolic_element(rng, ((1,), (2,))[i % 2], integral=True))
              for i in range(60)]
    starts += [ints(deep.random_gl_zp(rng)) for _ in range(40)]
    verdicts = {}
    for precision in (6, 8, 10, 12, 16, 32):
        ctx = GroupContext(3, 3, precision)
        cert = classify(ctx.diag((1, 1, -2), units=(4, 7, 1)))
        reports = [assumption_check(cert, ctx.c_plus.translate(ctx.mat(e))) for e in starts]
        verdicts[precision] = [rep.satisfied for rep in reports]
    for rep in reports:
        assert parabolic_membership(cert.element, rep.core) == rep.satisfied
        assert rep.witness is None or parabolic_membership(cert.element, rep.witness)
    truth = verdicts[32]
    assert (truth[:60].count(True), truth[60:].count(True)) == (43, 2)
    assert all(v == truth for v in verdicts.values())


# -- limits of iterated chambers -----------------------------------------------------


def _lifted(ctx, s):
    """s in ctx, a context of more digits: the digits each entry knows,
    and zeros beyond them."""
    rows = [[PadicScalar(ctx.p, x.v, x.unit, ctx.precision) if x.unit else ctx.zero
             for x in row] for row in s.canon.rows]
    return boundary_simplex(Mat(ctx, rows), s.dims)


def _claims_agree(s, t, depth):
    """Does t agree with s on every digit below depth that s claims?"""
    return all((x - y).val_floor() >= min(absolute_precision(x), depth)
               for a, b in zip(s.canon.rows, t.canon.rows) for x, y in zip(a, b))


def test_limit_prediction_keeps_the_digits_the_apartment_search_loses():
    """Taken apart from limit_boundary's fixed-start test, the prediction
    and the frozen apartment search disagree on a digit both claim at 7
    starts of the prediction row's grid, all at N <= 4 under exact
    diagonals.  At each, the prediction agrees, on every digit below 40
    that it claims, with the first iterate of the start lifted to 64
    digits that agrees with the prediction there to 40 digits, and the
    search's retraction does not."""
    (row,) = [r for r in ROWS["test_dynamics"]
              if r.name == "test_limit_prediction_matches_apartment_retraction"]
    disagree = 0
    for cert, xi, seed in row.grid():
        try:
            rep = assumption_check(cert, xi)
            if not rep.satisfied:
                continue
            predicted = dynamics._predicted_limit(cert, rep, xi)
            searched = _ref_apartment_retraction(cert, rep.witness, xi, random.Random(seed))
        except PrecisionExhausted:
            continue
        if _Claimed(predicted) == _Claimed(searched):
            continue
        disagree += 1
        ctx = xi.ctx
        assert ctx.precision <= 4 and cert.element._shifts is not None
        deep = GroupContext(ctx.n, ctx.p, 64)
        lim = limit_boundary(classify(deep.diag(cert.element._shifts)), _lifted(deep, xi),
                             max_n=200, r_target=40)
        assert lim.status == "converged"
        assert _claims_agree(predicted, lim.limit, 40)
        assert not _claims_agree(searched, lim.limit, 40)
    assert disagree == 7


def test_limit_boundary_sl2_trace_oracle():
    ctx = GroupContext(2, 3)
    cert = classify(ctx.diag((1, -1)))
    for v, u in ((0, 1), (2, 2), (4, 1)):
        rep = limit_boundary(cert, _line(ctx, v, u))
        assert rep.status == "converged"
        assert rep.monotone
        assert rep.r_target == N // 2
        expect_first = math.ceil((N // 2 + v) / 2)
        assert rep.first_n == expect_first
        for n, r in rep.trace:
            assert r == max(0, 2 * n - v)
        assert rep.retraction_value.same(cert.sigma_plus, N - 6)
        assert rep.limit.same(rep.retraction_value, int(rep.r_target))
        assert rep.witness.same(chamber_of(cert.sigma_minus), N - 6)


def test_limit_boundary_fixed_start():
    ctx = GroupContext(2, 3)
    cert = classify(ctx.diag((1, -1)))
    rep = limit_boundary(cert, chamber_of(cert.sigma_plus))
    assert rep.status == "converged"
    assert rep.first_n == 0
    assert rep.trace == [(0, INF)]
    assert rep.limit.same(chamber_of(cert.sigma_plus), N - 4)
    # the hypothesis is checked even when the start is already fixed
    assert rep.hypothesis.satisfied
    assert rep.hypothesis.witness is not None


def test_limit_boundary_sl3_retraction_and_witness_independence():
    ctx = GroupContext(3, 3)
    rng = random.Random(52)
    for exps in ((1, 0, -1), (1, 1, -2)):
        cert = classify(ctx.diag(exps))
        for _ in range(8):
            xi = ctx.c_plus.translate(ctx.random_element(rng))
            rep = limit_boundary(cert, xi)
            assert rep.status == "converged"
            assert rep.monotone
            assert rep.limit.same(rep.retraction_value, int(rep.r_target))
            # the retraction target does not depend on the witness: the
            # full path's stable refinement predicts the same limit
            rep2 = full_path(limit_boundary, cert, xi)
            assert rep2.hypothesis.witness is not rep.hypothesis.witness
            assert rep2.retraction_value.same(
                rep.retraction_value, int(rep.r_target) - 4
            )


@pytest.mark.parametrize("r_target", [0, -3, 0.5])
def test_limit_boundary_rejects_gate_target_below_one(r_target):
    ctx = GroupContext(3, 3)
    cert = classify(ctx.diag((1, 0, -1)))
    xi = ctx.c_plus.translate(ctx.random_element(random.Random(58)))
    with pytest.raises(ValueError, match="gate target"):
        limit_boundary(cert, xi, r_target=r_target)


def test_limit_boundary_rotation_stalls():
    ctx = GroupContext(3, 3)
    cert = _rotation_certificate(ctx)
    xi_bad = boundary_simplex(
        ctx.mat([[0, 1, 0], [0, 1, 1], [1, 0, 0]]), (1, 2)
    )
    rep = limit_boundary(cert, xi_bad, max_n=24)
    assert rep.status == "hypothesis-not-satisfied"
    assert rep.limit is None
    assert rep.first_n is None
    assert len(rep.trace) == 24
    assert not rep.hypothesis.satisfied
    assert rep.hypothesis.witness is None
    # consecutive iterates keep disagreeing at depth zero: pure rotation
    assert all(r == 0 for _, r in rep.trace)
    # while the accepted start still converges
    xi_ok = boundary_simplex(
        ctx.mat([[0, 1, 0], [1, 0, 0], [1, 0, 1]]), (1, 2)
    )
    rep2 = limit_boundary(cert, xi_ok)
    assert rep2.status == "converged"
    assert rep2.hypothesis.satisfied
    assert rep2.witness is rep2.hypothesis.witness
    assert [r for _, r in rep2.trace[:4]] == [0, 3, 6, 9]


def _trace_by_gates(cert, xi, rep, base):
    """limit_boundary's trace, one public agreement gate per step."""
    g = cert.element
    out = []
    if rep.hypothesis.satisfied:
        y = xi
        for n, _ in rep.trace:
            if n:
                y = y.translate(g)
            out.append((n, agreement_gate(base, y, rep.retraction_value).radius))
    else:
        prev = xi
        for n, _ in rep.trace:
            cur = prev.translate(g)
            out.append((n, agreement_gate(base, prev, cur).radius))
            prev = cur
    return out


@pytest.mark.parametrize("base", [None, "shifted"])
def test_limit_boundary_trace_matches_agreement_gates(base):
    ctx2 = GroupContext(2, 3)
    ctx3 = GroupContext(3, 3)
    rng = random.Random(55)
    cases = [(classify(ctx2.diag((1, -1))), _line(ctx2, v, u), {})
             for v, u in ((0, 1), (4, 1))]
    cert3 = classify(ctx3.diag((1, 0, -1)))
    cases += [(cert3, ctx3.c_plus.translate(ctx3.random_element(rng)), {})
              for _ in range(3)]
    # a target beyond reach keeps the converged branch running to max_n
    cases.append((cert3, ctx3.c_plus.translate(ctx3.random_element(rng)),
                  {"max_n": 6, "r_target": N}))
    spin = _rotation_certificate(ctx3)
    xi_bad = boundary_simplex(
        ctx3.mat([[0, 1, 0], [0, 1, 1], [1, 0, 0]]), (1, 2)
    )
    cases.append((spin, xi_bad, {"max_n": 10}))
    statuses = set()
    for cert, xi, kw in cases:
        n = xi.ctx.n
        b = (0,) * n if base is None else tuple(range(n - 1, -n - 1, -2))
        rep = limit_boundary(cert, xi, base=None if base is None else b, **kw)
        statuses.add(rep.status)
        assert rep.trace == _trace_by_gates(cert, xi, rep, b)
    assert statuses == {"converged", "no-convergence",
                        "hypothesis-not-satisfied"}


@pytest.mark.parametrize("base,per_step", [((0, 0, 0), 1), ((1, 0, -1), 2)],
                         ids=["origin", "off-origin"])
@pytest.mark.parametrize("branch", ["satisfied", "not-satisfied"])
def test_limit_boundary_step_flag_count(monkeypatch, branch, base, per_step):
    # one translate by the element and one recentring per extra step, and
    # recentring at the origin is free; the predicted limit is recentred
    # once per call, not once per step.  A translate is one flag, or one
    # diagonal translate that _diagonal_canon answers without a flag
    ctx = GroupContext(3, 3)
    if branch == "satisfied":
        cert = classify(ctx.diag((1, 0, -1)))
        xi = ctx.c_plus.translate(ctx.random_element(random.Random(56)))
    else:
        cert = _rotation_certificate(ctx)
        xi = boundary_simplex(
            ctx.mat([[0, 1, 0], [0, 1, 1], [1, 0, 0]]), (1, 2)
        )
    real = building.boundary_simplex
    calls = []

    def counted(*args):
        calls.append(1)
        return real(*args)

    real_diagonal = building._diagonal_canon

    def answered(*args):
        canon = real_diagonal(*args)
        if canon is not None:
            calls.append(1)
        return canon

    monkeypatch.setattr(building, "boundary_simplex", counted)
    monkeypatch.setattr(building, "_diagonal_canon", answered)
    counts = []
    for max_n in (3, 4, 5):
        calls.clear()
        rep = limit_boundary(cert, xi, max_n=max_n, r_target=N, base=base)
        assert rep.status != "converged"
        assert rep.trace[-1][0] == max_n
        counts.append(len(calls))
    assert [b - a for a, b in zip(counts, counts[1:])] == [per_step, per_step]


# -- transit through gate neighborhoods ------------------------------------------------


def test_verify_transit_sl2_frozen_thresholds():
    ctx = GroupContext(2, 3)
    certs = [classify(ctx.diag((n, -n))) for n in range(1, 9)]
    measure = GateMeasure((0, 0), 3)
    params = ((0, 1), (1, 1), (-1, 2), (2, 2), (-2, 1))
    targets = [_line(ctx, v, u) for v, u in params]
    rep = verify_transit(certs, measure, targets)
    assert rep.all_absorbed
    for item, (v, _) in zip(rep.targets, params):
        # element at family index j translates by 2(j+1); absorption
        # needs 2(j+1) + v >= 3
        assert item.first_n == max(0, math.ceil((3 - v) / 2) - 1)
        assert item.cofinal


def test_verify_transit_guards():
    ctx = GroupContext(2, 3)
    certs = [classify(ctx.diag((n, -n))) for n in (1, 2)]
    measure = GateMeasure((0, 0), 3)
    target = _line(ctx, 1, 1)
    with pytest.raises(ValueError):
        verify_transit([], measure, [target])
    with pytest.raises(ValueError):
        verify_transit([certs[0], classify(ctx.diag((-2, 2)))], measure, [target])
    with pytest.raises(ValueError):
        verify_transit([certs[1], certs[0]], measure, [target])
    with pytest.raises(ValueError):
        # the attracting vertex itself is not opposite it
        verify_transit(certs, measure, [certs[0].sigma_plus])


def test_verify_transit_refuses_a_target_of_the_wrong_type():
    """Opposite simplices have dual types, so a target whose type is not
    the repelling simplex's is refused as not opposite: a chamber through
    the repelling plane of a wall family, and that chamber's line."""
    ctx = GroupContext(3, 3)
    certs = [classify(ctx.diag((n, n, -2 * n))) for n in (1, 2)]
    sm = certs[0].sigma_minus
    assert sm.dims == (2,)
    chamber = chamber_of(sm)
    for target in (chamber, chamber.face((1,))):
        with pytest.raises(ValueError, match="^target is not opposite the attracting simplex$"):
            verify_transit(certs, GateMeasure((0, 0, 0), 3), [target])


@pytest.mark.parametrize("shift", [0, -2, -6])
def test_verify_transit_matches_agreement_gates(shift):
    ctx2 = GroupContext(2, 3)
    ctx3 = GroupContext(3, 3)
    rng = random.Random(57)
    fams = [
        ([classify(ctx2.diag((n, -n))) for n in range(1, 7)],
         [_line(ctx2, v, u) for v, u in ((0, 1), (-1, 2), (2, 2), (-3, 1))],
         GateMeasure((shift, -shift), 3)),
    ]
    certs3 = [classify(ctx3.diag((n, n, -2 * n))) for n in range(1, 6)]
    targets3 = [
        certs3[0].sigma_minus.translate(
            unipotent_radical_element(certs3[0].sigma_plus, rng))
        for _ in range(4)
    ]
    fams.append((certs3, targets3, GateMeasure((shift, 0, -shift), 4)))
    for certs, targets, measure in fams:
        rep = verify_transit(certs, measure, targets)
        sm = certs[0].sigma_minus
        for item, t in zip(rep.targets, targets):
            absorbed = [
                agreement_gate(measure.base, sm,
                               t.translate(c.element.inv())).radius
                >= measure.radius
                for c in certs
            ]
            first = next((j for j, a in enumerate(absorbed) if a), None)
            assert item.first_n == first
            assert item.cofinal == (first is not None
                                    and all(absorbed[first:]))
        assert len(rep.targets) == len(targets)


def test_verify_transit_sl3_family():
    ctx = GroupContext(3, 3)
    certs = [classify(ctx.diag((n, n, -2 * n))) for n in range(1, 7)]
    rng = random.Random(53)
    targets = []
    for _ in range(6):
        u = unipotent_radical_element(certs[0].sigma_plus, rng)
        targets.append(certs[0].sigma_minus.translate(u))
    rep = verify_transit(certs, GateMeasure((0, 0, 0), 4), targets)
    assert rep.all_absorbed
    assert all(t.first_n is not None and t.first_n <= 4 for t in rep.targets)


def _transit_verdicts(ctx, exponents, steps, radius, targets):
    """(first_n, cofinal) per target, for the family built as the transit
    runner builds it."""
    certs = [classify(ctx.diag(tuple(k * e for e in exponents)))
             for k in range(1, steps + 1)]
    rep = verify_transit(certs, GateMeasure((0,) * ctx.n, radius), targets)
    return [(t.first_n, t.cofinal) for t in rep.targets]


def test_verify_transit_invariant_under_permutations():
    """Conjugating a transit family by a permutation matrix w permutes its
    exponents and moves every target to w.t; the base vertex (0, ..., 0)
    is fixed, so each target keeps its first absorbed step and whether
    absorption is cofinal.  Both transit presets, at seed offsets 0-19,
    under every non-identity permutation."""
    cases = 0
    for name in ("sl2-q3-transit", "sl3-q3-transit"):
        cfg = PRESETS[name]
        g, exps, steps, radius = (cfg["group"], cfg["exponents"], cfg["steps"],
                                  cfg["radius"])
        ctx = GroupContext(g["n"], g["p"], g["precision"])
        for offset in range(20):
            # the targets _run_transit draws, from its seed
            rng = random.Random(cfg["seed"] + offset)
            cert = classify(ctx.diag(tuple(exps)))
            targets = [cert.sigma_minus.translate(
                unipotent_radical_element(cert.sigma_plus, rng))
                       for _ in range(cfg["targets"])]
            want = _transit_verdicts(ctx, exps, steps, radius, targets)
            if offset == 0:
                report = run(parse_config(cfg))[1]["result"]
                assert [(t["first_n"], t["cofinal"])
                        for t in report["targets"]] == want
            for sigma in itertools.permutations(range(ctx.n)):
                if sigma == tuple(range(ctx.n)):
                    continue
                w = ctx.perm(sigma)  # e_j -> e_sigma(j)
                moved = [0] * ctx.n
                for j, e in enumerate(exps):
                    moved[sigma[j]] = e
                got = _transit_verdicts(ctx, moved, steps, radius,
                                        [t.translate(w) for t in targets])
                assert got == want, (name, offset, sigma)
                cases += 1
    assert cases == 120


# -- conjugation boundedness -------------------------------------------------------------


def test_conjugation_bounded_matches_membership():
    rng = random.Random(54)
    for exps in ((1, 0, -1), (1, 1, -2)):
        ctx = GroupContext(3, 3)
        gamma = ctx.diag(exps)
        cert = classify(gamma)
        hits = 0
        for k in range(40):
            if k % 2 == 0:
                # conjugate a standard-parabolic sample into the
                # stabilizer of the attracting simplex
                M = cert.sigma_plus.canon
                q = ctx.random_parabolic_element(
                    rng, cert.sigma_plus.dims, integral=True
                )
                g = M * q * M.inv()
            else:
                g = ctx.random_element(rng)
            bounded, trace = conjugation_bounded(gamma, g)
            member = parabolic_membership(g, cert.sigma_plus, 22)
            assert bounded == member, (exps, k)
            hits += 1
        assert hits == 40


def test_conjugation_bounded_frozen_decay():
    ctx = GroupContext(3, 3)
    gamma = ctx.diag((1, 1, -2))
    # moves the attracting vertex: the top-right entry sees the full
    # valuation gap of 3 per step
    g = ctx.mat([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    bounded, trace = conjugation_bounded(gamma, g)
    assert not bounded
    assert trace[0] == 0.0
    assert trace[-1] == -60.0
    assert all(trace[k + 1] - trace[k] == -3.0 for k in range(len(trace) - 1))
    # while the transpose stabilizes it and stays put
    h = ctx.mat([[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    bounded_h, trace_h = conjugation_bounded(gamma, h)
    assert bounded_h
    assert all(t >= 0.0 for t in trace_h)
