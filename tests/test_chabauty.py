"""Conjugated-subgroup limit experiments, rank one over Q_5.

The closed form for conjugating a rotation by diag(p^-n, p^n) is the
oracle here and is pinned first, independently of the search code:
aiming the lower-left entry at -t p^{2n} pins the upper-right entry of
the conjugate to t exactly and pushes everything else to the identity
at rate p^{-4n}.
"""

import dataclasses
import random

import pytest

from buildinglab.building import GroupContext, mat_agreement, parabolic_membership
from buildinglab.dynamics import classify
from buildinglab.padic import NoSquareRoot
from buildinglab import chabauty as ch

N = 32

_CTX = GroupContext(2, 5)
_CERTS = [classify(_CTX.diag((-n, n))) for n in range(1, 19)]


def _certs(count=12):
    return _CERTS[:count]


def test_rotation_conjugation_identity_oracle():
    ctx = _CTX
    one = ctx.one
    for n in (1, 2, 3):
        for tval in (1, 2, 7):
            t = ctx.s(tval)
            b = t.shift(2 * n)
            h = ch.rotation_element(ctx, b)
            # h really is a rotation: h^T h = 1 and the entry pattern holds
            hth = h.transpose() * h
            assert (hth[0, 0] - one).is_zeroish() and hth[0, 1].is_zeroish()
            assert (h[0, 0] - h[1, 1]).is_zeroish()
            assert (h[0, 1] + h[1, 0]).is_zeroish()
            a_n = ctx.diag((-n, n))
            g = a_n * h * a_n.inv()
            # conjugation pins the upper entry to t exactly
            assert (g[0, 1] - t).is_zeroish()
            assert (g[1, 0] + t.shift(4 * n)).is_zeroish()
            assert (g[0, 0] - h[0, 0]).is_zeroish()
            u = ctx.mat([[one, t], [ctx.zero, one]])
            assert mat_agreement(g, u) == 4 * n


def test_rotation_sampler_membership():
    ctx = _CTX
    spec = ch.so2_subgroup(ctx)
    rng = random.Random(11)
    for _ in range(60):
        # b of positive valuation always completes to a rotation
        u = rng.randrange(1, 5 ** 6)
        if u % 5 == 0:
            u += 1
        h = ch.rotation_element(ctx, ctx.s(u).shift(rng.randrange(1, 6)))
        assert spec.member(h)
        assert (h[0, 0] - h[1, 1]).is_zeroish()
        assert (h[0, 1] + h[1, 0]).is_zeroish()
    assert spec.member(ctx.mat([[0, 1], [-1, 0]]))
    assert not spec.member(ctx.mat([[1, 1], [0, 1]]))
    with pytest.raises(ValueError):
        ch.so2_subgroup(GroupContext(3, 5))


def test_rotation_toward_solves_lines():
    ctx = _CTX
    sigma = _certs(1)[0].sigma_minus
    for x in (ctx.s(3).shift(1), ctx.s(7).shift(2), ctx.s(1).shift(-1),
              ctx.s(4).shift(-3)):
        h = ch.rotation_toward(ctx, x)
        spec = ch.so2_subgroup(ctx)
        assert spec.member(h)
        assert sigma.translate(h).same(ch.line_simplex(ctx, x), depth=N - 6)
    # 1 + x^2 is not a square for these units, so no rotation reaches them
    for bad in (1, 2, 7):
        with pytest.raises(NoSquareRoot):
            ch.rotation_toward(ctx, ctx.s(bad))


def test_conjugate_trace_constant_rotation_diverges():
    ctx = _CTX
    spec = ch.so2_subgroup(ctx)
    J = ctx.mat([[0, 1], [-1, 0]])
    tr = ch.conjugate_trace(spec, _certs(), lambda k: J)
    assert not tr.converged
    assert tr.limit is None
    assert tr.agreements[:4] == (-4.0, -6.0, -8.0, -10.0)


def test_conjugate_trace_validations():
    ctx = _CTX
    spec = ch.so2_subgroup(ctx)
    upper = ctx.mat([[1, 1], [0, 1]])
    J = ctx.mat([[0, 1], [-1, 0]])
    with pytest.raises(ValueError, match="left the subgroup at step 0"):
        ch.conjugate_trace(spec, _certs(), lambda k: upper)
    with pytest.raises(ValueError, match="empty certificate family"):
        ch.conjugate_trace(spec, [], lambda k: J)
    shuffled = [_CERTS[1], _CERTS[0]]
    with pytest.raises(ValueError, match="strictly increase"):
        ch.conjugate_trace(spec, shuffled, lambda k: J)
    flipped = classify(ctx.diag((2, -2)))
    with pytest.raises(ValueError, match="share an axis"):
        ch.conjugate_trace(spec, [_CERTS[0], flipped], lambda k: J)


def test_chabauty_limit_recovers_aimed_grid():
    ctx = _CTX
    spec = ch.so2_subgroup(ctx)
    rep = ch.chabauty_limit(spec, _certs())
    assert rep.status == "ok"
    assert len(rep.parameters) == 10
    assert len(rep.limits) == 10
    assert all(tr.converged for tr in rep.traces)
    assert all(err >= N - 4 for err in rep.errors)
    assert rep.closure_checked is True
    for t, lim in zip(rep.parameters, rep.limits):
        upper = ctx.mat([[ctx.one, t], [ctx.zero, ctx.one]])
        assert mat_agreement(lim, upper) >= N - 4
    # contraction rate of the first aimed trace, exact valuations
    assert rep.traces[0].agreements[:5] == (4.0, 8.0, 12.0, 16.0, 20.0)
    d = rep.traces[0].distances
    assert all(b >= a for a, b in zip(d, d[1:]))


def test_chabauty_limit_randomized_parameters():
    ctx = _CTX
    spec = ch.so2_subgroup(ctx)
    rng = random.Random(29)
    params = []
    while len(params) < 8:
        u = rng.randrange(1, 5 ** 4)
        if u % 5 == 0:
            continue
        params.append(ctx.s(u if len(params) % 2 else -u))
    rep = ch.chabauty_limit(spec, _certs(), parameters=params)
    assert rep.status == "ok"
    assert len(rep.recovered) == 8
    assert min(rep.errors) >= N - 4


def test_chabauty_limit_inconclusive_is_not_trivial():
    spec = ch.so2_subgroup(_CTX)
    # a family too short for a certified tail of six agreements harvests
    # nothing; the empty harvest must NOT be read as L = {e}
    for count in (2, 4, 6, 7):
        rep = ch.chabauty_limit(spec, _certs(count), tail=6)
        assert rep.status == "inconclusive"
        assert rep.limits == ()
        assert rep.closure_checked is None
        assert not any(tr.converged for tr in rep.traces)


def test_check_op_rotation_radius_one():
    spec = ch.so2_subgroup(_CTX)
    verdict = ch.check_OP(spec, _certs(1)[0].sigma_minus)
    assert verdict.status == "true-with-radius"
    assert verdict.radius == 1
    # every unit-distance probe fails (1 + x^2 is never a square there),
    # every deeper probe succeeds
    assert verdict.attempts == 30
    assert verdict.solved == 24
    assert verdict.shallow_failures == 6


def test_check_op_unit_radius_only_is_unknown():
    spec = ch.so2_subgroup(_CTX)
    # no unit-distance probe has a rotation witness, so probing radius 0
    # alone must come back unknown rather than false
    verdict = ch.check_OP(spec, _certs(1)[0].sigma_minus, radii=(0,))
    assert verdict.status == "unknown"
    assert verdict.radius is None
    assert verdict.attempts == 6
    assert verdict.solved == 0
    assert verdict.shallow_failures == 6


def test_decompose_limit_table_and_nrp():
    ctx = _CTX
    spec = ch.so2_subgroup(ctx)
    certs = _certs()
    rep = ch.chabauty_limit(spec, certs)
    limits = list(rep.limits)
    limits.append(ctx.diag((0, 0), units=(3, pow(3, -1, 5 ** 40))))
    table = ch.decompose_limit(limits, certs[0])
    assert table.residual_min >= N - 4
    assert table.normality_min >= N - 4
    assert table.unipotent_closure
    assert table.gamma_normalizes
    assert all(table.transitivity)
    assert table.semidirect
    # the diagonal element decomposes with trivial unipotent part
    last = table.rows[-1]
    assert mat_agreement(last.unipotent, ctx.identity) >= N - 4
    assert ch.nrp_verdict(table, N - 4) == "consistent-with-(NRP)"
    worse = dataclasses.replace(table, gamma_normalizes=False)
    assert ch.nrp_verdict(worse, N - 4) == "not-established"


def test_decompose_limit_rejects_escaping_element():
    ctx = _CTX
    spec = ch.so2_subgroup(ctx)
    certs = _certs()
    rep = ch.chabauty_limit(spec, certs)
    bad = list(rep.limits) + [ctx.mat([[1, 0], [1, 1]])]
    with pytest.raises(ValueError, match="element 10 does not stabilize"):
        ch.decompose_limit(bad, certs[0])
    with pytest.raises(ValueError, match="empty limit set"):
        ch.decompose_limit([], certs[0])


def test_check_transp_witnesses():
    ctx = _CTX
    spec = ch.so2_subgroup(ctx)
    targets = [ch.line_simplex(ctx, ctx.s(1)),
               ch.line_simplex(ctx, ctx.s(7)),
               ch.line_simplex(ctx, ctx.s(2).shift(-2))]
    verdicts = ch.check_transP(spec, _certs(), targets)
    assert [v.status for v in verdicts] == ["witness-found"] * 3
    # unit targets are reachable from the very first conjugate; the
    # valuation -2 target needs one more step before the solve exists
    assert [v.first_n for v in verdicts] == [0, 0, 1]
    for v in verdicts:
        assert v.agreements[-1] >= N - 4


def test_check_transp_budget_scaling():
    ctx = _CTX
    spec = ch.so2_subgroup(ctx)
    half = ch.line_simplex(ctx, ctx.s(2).shift(-2))
    assert ch.check_transP(spec, _certs(6), [half])[0].status == "inconclusive"
    again = ch.check_transP(spec, _certs(12), [half])[0]
    assert again.status == "witness-found"
    assert again.first_n == 1
    # a very deep target keeps the working window too shallow to certify
    # the tail at depth N - 4, no matter how long the family runs
    deep = ch.line_simplex(ctx, ctx.s(3).shift(-9))
    stuck = ch.check_transP(spec, _certs(18), [deep])[0]
    assert stuck.status == "inconclusive"


def test_check_transp_target_validation():
    ctx = _CTX
    spec = ch.so2_subgroup(ctx)
    sigma_plus = _certs(1)[0].sigma_plus
    with pytest.raises(ValueError, match="not opposite"):
        ch.check_transP(spec, _certs(), [sigma_plus])


def test_limits_stabilize_attracting_simplex():
    spec = ch.so2_subgroup(_CTX)
    certs = _certs()
    rep = ch.chabauty_limit(spec, certs)
    for lim in rep.limits:
        assert parabolic_membership(lim, certs[0].sigma_plus, depth=N - 6)
        assert not parabolic_membership(lim, certs[0].sigma_minus,
                                        depth=N - 6) or \
            (lim[0, 1].is_zeroish())
