"""End-to-end acceptance runs, one per headline capability.

Each test exercises a whole pipeline at its advertised tolerance and
prints a single verdict line; run with

    pytest tests/test_acceptance.py -v -s

to see the seven lines.  Budgets are wall-clock seconds and are part of
the acceptance: a pass that takes too long is a fail.
"""

import random
import time

from buildinglab.coxeter import (
    AffineSystem,
    get_system,
    regular_translation,
    translation_type,
)
from buildinglab.building import (
    AffineWeylCoset,
    GroupContext,
    boundary_simplex,
    cartan_decomposition,
    iwahori_coset,
    iwasawa_decomposition,
    mat_agreement,
    parabolic_membership,
    unipotent_radical_element,
)
from buildinglab.dynamics import (
    GateMeasure,
    classify,
    conjugation_bounded,
    limit_boundary,
    verify_transit,
)
from buildinglab import chabauty as ch
from buildinglab import oracles
from buildinglab.cli import mild_element

N = 32


def _conclude(num, label, budget, t0, ok, detail):
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if (ok and elapsed < budget) else "FAIL"
    print(
        "acceptance %d (%s): %s in %.2fs (budget %ds) - %s"
        % (num, label, verdict, elapsed, budget, detail)
    )
    assert ok, detail
    assert elapsed < budget, "budget exceeded: %.2fs" % elapsed


def test_1_coxeter_oracles_exhaustive():
    t0 = time.perf_counter()
    ok = True
    total = 0
    for name in ("A2", "A3", "B2", "G2"):
        system = get_system(name)
        checks, failures = oracles.check_system(system)
        order, rank = system.order(), system.rank
        want = {
            "double-coset": order * 4 ** rank,
            "residue-type": order * 4 ** rank,
            "projection": order * order * 2 ** rank,
            "separating-walls": order * order,
            "hull-pairs": order * order,
        }
        ok = ok and not failures and checks == want
        total += sum(checks.values())
    # gate identity on genuine residues: the projected chamber is the
    # unique closest member and distances add through it
    gate_checks = 0
    for name in ("A2", "A3", "B2", "G2"):
        system = get_system(name)
        elements = system.elements()
        for c in elements:
            for d in elements:
                w = c.inverse() * d
                for J in oracles.subsets(system.rank):
                    residue = {w * u for u in system.parabolic(J)}
                    gate = system.min_coset_rep(w, J)
                    dists = sorted(x.length for x in residue)
                    ok = ok and gate in residue
                    ok = ok and dists[0] == gate.length
                    ok = ok and (len(dists) == 1 or dists[1] > gate.length)
                    ok = ok and all(
                        x.length == gate.length + (gate.inverse() * x).length
                        for x in residue
                    )
                    gate_checks += len(residue)
    _conclude(
        1,
        "finite Coxeter oracles",
        30,
        t0,
        ok,
        "%d enumerated checks + %d gate-identity members, 0 failures"
        % (total, gate_checks),
    )


def test_2_decomposition_roundtrips():
    t0 = time.perf_counter()
    rng = random.Random(10007)
    ok = True
    mins = {}
    for n, p in ((2, 3), (3, 5)):
        ctx = GroupContext(n, p)
        worst_c = worst_i = float("inf")
        labels = 0
        for _ in range(1000):
            g = mild_element(ctx, rng)
            base = g.min_val_floor()
            k1, exps, k2 = cartan_decomposition(g)
            worst_c = min(worst_c, mat_agreement(k1 * ctx.diag(exps) * k2, g) - base)
            u, t, k = iwasawa_decomposition(g, lower=True)
            worst_i = min(worst_i, mat_agreement(u * t * k, g) - base)
            sigma = list(range(n))
            rng.shuffle(sigma)
            le = tuple(rng.randrange(-3, 4) for _ in range(n))
            gg = ctx.random_iwahori(rng) * ctx.monomial(sigma, le) * ctx.random_iwahori(rng)
            labels += iwahori_coset(gg) == AffineWeylCoset(tuple(sigma), le)
        ok = ok and worst_c >= N - 2 and worst_i >= N - 2 and labels == 1000
        mins["SL%d(Q%d)" % (n, p)] = (worst_c, worst_i, labels)
    detail = "; ".join(
        "%s cartan>=%s iwasawa>=%s labels %d/1000" % (k, c, i, l)
        for k, (c, i, l) in mins.items()
    )
    _conclude(2, "decomposition round-trips", 60, t0, ok, detail)


def test_3_translation_type_round_trip():
    t0 = time.perf_counter()
    ok = True
    count = 0
    for name in ("A~2", "A~3", "C~2"):
        aff = AffineSystem(name)
        sys = aff.finite
        for I in oracles.subsets(sys.rank):
            if len(I) == sys.rank:
                continue  # the full type would force the zero vector
            v = regular_translation(sys, I)
            ok = ok and translation_type(v) == I
            ok = ok and aff.translation(v).translation_type() == I
            count += 1
    _conclude(
        3,
        "regular translation types",
        5,
        t0,
        ok,
        "%d proper types over three affine systems, exact" % count,
    )


def _sampled_limits(ctx, cert, rng, want):
    """Limit reports of the first `want` sampled chambers that satisfy the
    axis hypothesis; limit_boundary checks it, once per chamber."""
    # integral translates reach every boundary chamber and keep the flag
    # coordinates shallow enough to certify near working precision
    kept = 0
    for _ in range(40 * want):
        xi = ctx.c_plus.translate(ctx.random_gl_zp(rng))
        rep = limit_boundary(cert, xi, max_n=64, r_target=N - 4, rng=rng)
        if rep.hypothesis.satisfied:
            yield rep
            kept += 1
            if kept == want:
                return
    raise AssertionError("chamber sampler starved")


def test_4_boundary_limits_match_retraction():
    t0 = time.perf_counter()
    ok = True
    runs = []
    cases = [
        (GroupContext(2, 3), (1, -1)),
        (GroupContext(3, 3), (1, 0, -1)),
        (GroupContext(3, 3), (1, 1, -2)),
    ]
    for ci, (ctx, exps) in enumerate(cases):
        cert = classify(ctx.diag(exps))
        rng = random.Random(20011 + ci)
        converged = 0
        for rep in _sampled_limits(ctx, cert, rng, 50):
            good = (
                rep.status == "converged"
                and rep.monotone
                and rep.first_n is not None
                and rep.first_n <= 64
                and rep.limit.same(rep.retraction_value, N - 4)
            )
            ok = ok and good
            converged += good
        runs.append("SL%d %s %d/50" % (ctx.n, exps, converged))
    # a start violating the axis hypothesis is reported, not raised
    ctx3 = GroupContext(3, 3)
    spin = classify(ctx3.diag((1, 1, -2), units=(1, 2, pow(2, -1, 3 ** 40))))
    xi_bad = boundary_simplex(ctx3.mat([[0, 1, 0], [0, 1, 1], [1, 0, 0]]), (1, 2))
    rep = limit_boundary(spin, xi_bad, max_n=24)
    ok = ok and rep.status == "hypothesis-not-satisfied" and rep.limit is None
    _conclude(
        4,
        "boundary limit vs retraction",
        120,
        t0,
        ok,
        "; ".join(runs) + "; crafted failing start recorded as %r" % rep.status,
    )


def test_5_growing_translates_absorb_opposites():
    t0 = time.perf_counter()
    ok = True
    details = []
    families = [
        (GroupContext(2, 3), (1, -1), 8, 3),
        (GroupContext(3, 3), (1, 1, -2), 6, 4),
    ]
    for fi, (ctx, base, steps, radius) in enumerate(families):
        certs = [
            classify(ctx.diag(tuple(k * e for e in base)))
            for k in range(1, steps + 1)
        ]
        rng = random.Random(30013 + fi)
        targets = []
        for _ in range(20):
            u = unipotent_radical_element(certs[0].sigma_plus, rng)
            targets.append(certs[0].sigma_minus.translate(u))
        rep = verify_transit(certs, GateMeasure((0,) * ctx.n, radius), targets)
        ok = ok and rep.all_absorbed
        ok = ok and all(
            t.first_n is not None and t.cofinal for t in rep.targets
        )
        worst = max(t.first_n for t in rep.targets)
        details.append("%s 20/20 absorbed by step %d" % (base, worst))
    _conclude(5, "transit absorption", 60, t0, ok, "; ".join(details))


def test_6_rotation_subgroup_limit_pipeline():
    t0 = time.perf_counter()
    ctx = GroupContext(2, 5)
    spec = ch.so2_subgroup(ctx)
    certs = [classify(ctx.diag((-k, k))) for k in range(1, 13)]
    rep = ch.chabauty_limit(spec, certs)
    depth = N - 4
    ok = rep.status == "ok"
    ok = ok and len(rep.recovered) >= 8
    ok = ok and all(e >= depth for e in rep.errors)
    table = ch.decompose_limit(rep.limits, certs[0])
    ok = ok and table.residual_min >= depth
    ok = ok and table.normality_min >= depth and table.gamma_normalizes
    ok = ok and table.unipotent_closure
    ok = ok and all(table.transitivity)
    fmt = lambda x: "inf" if x == float("inf") else "%d" % x
    _conclude(
        6,
        "rotation subgroup limits",
        120,
        t0,
        ok,
        "%d/%d parameters recovered, error depth >= %s, factor residual >= %s, "
        "transitive on %d grid targets"
        % (
            len(rep.recovered),
            len(rep.parameters),
            fmt(min(rep.errors)) if rep.errors else "-",
            fmt(table.residual_min),
            len(table.transitivity),
        ),
    )


def test_7_boundedness_matches_parabolic_membership():
    t0 = time.perf_counter()
    ctx = GroupContext(3, 3)
    ok = True
    agreements = []
    for exps in ((1, 0, -1), (1, 1, -2)):
        gamma = ctx.diag(exps)
        cert = classify(gamma)
        rng = random.Random(40009)
        agree = 0
        for k in range(100):
            if k % 2 == 0:
                M = cert.sigma_plus.canon
                q = ctx.random_parabolic_element(
                    rng, cert.sigma_plus.dims, integral=True
                )
                g = M * q * M.inv()
            else:
                g = ctx.random_element(rng)
            bounded, _ = conjugation_bounded(gamma, g, steps=20)
            member = parabolic_membership(g, cert.sigma_plus, 22)
            ok = ok and bounded == member
            agree += bounded == member
        agreements.append("%s %d/100" % (exps, agree))
    _conclude(7, "boundedness vs stabilizer", 30, t0, ok, "; ".join(agreements))
