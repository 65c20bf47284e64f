"""Finite-precision study of limits of conjugated subgroups.

Given a bounded subgroup H and a one-parameter family a_n of regular
hyperbolic elements sharing an axis, the conjugates a_n H a_n^{-1}
accumulate, in the Chabauty topology on closed subgroups, on a limit
group L.  At working precision we cannot certify a Chabauty limit; we
can certify Cauchy traces g_n = a_n h_n a_n^{-1} for aimed selector
sequences h_n in H, collect the limits reached, and test the expected
structure of L (fixes the attracting simplex, semidirect splitting
into a unipotent part and a Levi part, orbit transitivity) on samples.
All verdicts here are one-sided: a failed search is reported as
inconclusive, never as evidence of triviality.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Tuple

from . import _Record
from .padic import INF, NoSquareRoot, PadicScalar
from .building import (
    GroupContext,
    IdealSimplex,
    Mat,
    boundary_simplex,
    mat_agreement,
    opposite,
    parabolic_membership,
)
from .dynamics import HyperbolicCertificate, _validate_family


# ---------------------------------------------------------------------------
# subgroup specifications


class SubgroupSpec(_Record):
    """The rotation subgroup of SL2, given by its membership test.

    Its elements are the fixed points of the transpose-inverse
    involution, the orthogonal matrices; so2_subgroup builds it.
    """

    ctx: GroupContext
    label: str

    def member(self, h: Mat) -> bool:
        return (mat_agreement(h.transpose() * h, self.ctx.identity)
                >= self.ctx.precision - 8)


def so2_subgroup(ctx: GroupContext) -> SubgroupSpec:
    """Rotations [[a, b], [-b, a]] with a^2 + b^2 = 1, for n = 2; a
    context of any other rank raises ValueError."""
    if ctx.n != 2:
        raise ValueError("rotation subgroup needs a rank-one context")
    return SubgroupSpec(ctx, "so2")


def rotation_element(ctx: GroupContext, b: PadicScalar) -> Mat:
    """The rotation with lower-left entry -b, completed by a = sqrt(1 - b^2).

    The canonical square root makes the completion deterministic.  Raises
    NoSquareRoot when 1 - b^2 is not a square, which happens only for
    unit b; every b of positive valuation completes.
    """
    a = (ctx.one - b * b).sqrt()
    return ctx.mat([[a, b], [-b, a]])


def rotation_toward(ctx: GroupContext, x: PadicScalar) -> Mat:
    """The rotation sending the second coordinate line to span((x, 1)).

    Solves b = x a with a^2 + b^2 = 1, so a = 1 / sqrt(1 + x^2).  Exists
    at working precision iff 1 + x^2 is a square; in particular for every
    x of positive valuation.
    """
    a = (ctx.one + x * x).sqrt().inv()
    return ctx.mat([[a, x * a], [-x * a, a]])


# ---------------------------------------------------------------------------
# conjugation traces


class TraceResult(_Record):
    """One conjugation trace g_n = a_n h_n a_n^{-1} and its Cauchy data.

    agreements[k] is the valuation depth at which g_k and g_{k+1} agree;
    distances[k] measures g_k against the final term.  A trace is
    accepted as convergent only when the agreements reach the target
    depth, stay non-decreasing over the tail, and the distance to the
    final term is monotone there as well.
    """

    terms: Tuple[Mat, ...]
    agreements: Tuple[float, ...]
    distances: Tuple[float, ...]
    converged: bool
    limit: Optional[Mat]
    tail: int


def conjugate_trace(spec: SubgroupSpec,
                    certs: Sequence[HyperbolicCertificate],
                    selector: Callable[[int], Mat],
                    tail: int = 6) -> TraceResult:
    """Run g_n = a_n h_n a_n^{-1} for h_n = selector(n) and test Cauchyness.

    selector receives the index into certs and must return an element of
    spec; a selector that leaves the subgroup is a usage error, not a
    negative experimental result, so it raises.
    """
    _validate_family(certs)
    depth = certs[0].element.ctx.precision - 4
    terms: List[Mat] = []
    for k, cert in enumerate(certs):
        h = selector(k)
        if not spec.member(h):
            raise ValueError("selector left the subgroup at step %d" % k)
        a = cert.element
        terms.append(a * h * a.inv())
    agreements = tuple(float(mat_agreement(x, y))
                       for x, y in zip(terms, terms[1:]))
    last = terms[-1]
    distances = tuple(float(mat_agreement(g, last)) for g in terms[:-1])
    window = agreements[-tail:]
    ok = (len(agreements) >= tail
          and agreements[-1] >= depth
          and all(b >= a for a, b in zip(window, window[1:])))
    dwindow = distances[-tail:]
    ok = ok and all(b >= a for a, b in zip(dwindow, dwindow[1:]))
    return TraceResult(tuple(terms), agreements, distances, ok,
                       last if ok else None, tail)


# ---------------------------------------------------------------------------
# aimed limit search


class ChabautyReport(_Record):
    """Outcome of an aimed limit search along one conjugating family."""

    subgroup: str
    exponents: Tuple[Tuple[int, ...], ...]
    parameters: Tuple[PadicScalar, ...]
    traces: Tuple[TraceResult, ...]
    limits: Tuple[Mat, ...]
    recovered: Tuple[PadicScalar, ...]
    errors: Tuple[float, ...]
    closure_checked: Optional[bool]
    status: str


def default_parameter_grid(ctx: GroupContext) -> Tuple[PadicScalar, ...]:
    """Ten aimed parameters: eight units, one deep, one of negative valuation."""
    units = (1, 2, 3, 7, -1, -2, 4, 8)
    grid = [ctx.s(u) for u in units]
    grid.append(ctx.s(1).shift(1))
    grid.append(ctx.s(1).shift(-1))
    return tuple(grid)


def aimed_selector(spec: SubgroupSpec,
                   certs: Sequence[HyperbolicCertificate],
                   t: PadicScalar) -> Callable[[int], Mat]:
    """Selector aiming the trace at the unipotent with upper entry t.

    The conjugate of a rotation by diag(p^{d0}, p^{d1}) scales its upper
    entry by p^{d0 - d1}, so choosing b_n = t p^{d1 - d0} pins that entry
    to t exactly while the rest of the matrix contracts to the identity.
    """
    ctx = spec.ctx

    def pick(k: int) -> Mat:
        exps = certs[k].apartment_exps
        if exps is None:
            raise ValueError("aimed selectors need diagonal family elements")
        return rotation_element(ctx, t.shift(exps[1] - exps[0]))

    return pick


def chabauty_limit(spec: SubgroupSpec,
                   certs: Sequence[HyperbolicCertificate],
                   parameters: Optional[Sequence[PadicScalar]] = None,
                   tail: int = 6) -> ChabautyReport:
    """Collect certified limits of a_n h_n a_n^{-1} along the family.

    The search is aimed: each parameter t (by default the grid of
    ``default_parameter_grid``) gets the selector that pins the
    contracting matrix entry to t, and success recovers t from the
    limit.  A trace that does not certify its tail contributes no limit.
    An empty harvest is reported as inconclusive; finitely many traces
    cannot certify that the limit group is trivial.
    """
    _validate_family(certs)
    if parameters is None:
        parameters = default_parameter_grid(spec.ctx)
    params = tuple(parameters)
    exponents = tuple(cert.exps for cert in certs)
    traces = [conjugate_trace(spec, certs, aimed_selector(spec, certs, t),
                              tail=tail)
              for t in params]

    limits: List[Mat] = []
    recovered: List[PadicScalar] = []
    errors: List[float] = []
    for t, tr in zip(params, traces):
        if not tr.converged:
            continue
        limits.append(tr.limit)
        got = tr.limit[0, 1]
        recovered.append(got)
        errors.append(float((got - t).val_floor()))

    closure: Optional[bool] = None
    if limits:
        closure = _closure_samples(spec, certs, params, limits, tail)

    status = "ok" if limits else "inconclusive"
    return ChabautyReport(spec.label, exponents, params, tuple(traces),
                          tuple(limits), tuple(recovered), tuple(errors),
                          closure, status)


def _closure_samples(spec, certs, params, limits, tail):
    """Sampled closure of the harvested limit set under product and inverse.

    Products and inverses of aimed limits are themselves aimed at the sum
    and the negation of the parameters, so each check reruns the trace at
    the combined parameter and compares matrices at the target depth.
    """
    depth = spec.ctx.precision - 4
    pairs = [(0, 1), (1, 2)] if len(limits) >= 3 else [(0, 0)]
    for i, j in pairs:
        want = limits[i] * limits[j]
        t = params[i] + params[j]
        tr = conjugate_trace(spec, certs, aimed_selector(spec, certs, t),
                             tail=tail)
        if not tr.converged or mat_agreement(tr.limit, want) < depth:
            return False
    for i in (0, min(1, len(limits) - 1)):
        want = limits[i].inv()
        tr = conjugate_trace(spec, certs,
                             aimed_selector(spec, certs, -params[i]),
                             tail=tail)
        if not tr.converged or mat_agreement(tr.limit, want) < depth:
            return False
    return True


# ---------------------------------------------------------------------------
# orbit openness


class OPVerdict(_Record):
    """One-sided check that the H-orbit of a boundary simplex is open.

    status "true-with-radius" means every sampled simplex within the
    reported gate radius of the base point was reached by a verified
    element of H; "unknown" means the search failed somewhere and nothing
    is claimed.  shallow_failures counts probes outside the certified
    radius that found no witness; they are informative, not damning.
    """

    status: str
    radius: Optional[int]
    attempts: int
    solved: int
    shallow_failures: int


def line_simplex(ctx: GroupContext, x: PadicScalar) -> IdealSimplex:
    """The boundary line span((x, 1)), opposite span(e1) for every x."""
    m = ctx.mat([[x, ctx.one], [ctx.one, ctx.zero]])
    return boundary_simplex(m, (1,))


# boundary points sampled at each radius by check_OP
_PER_RADIUS = 6


def check_OP(spec: SubgroupSpec,
             sigma: IdealSimplex,
             rng: Optional[random.Random] = None,
             radii: Sequence[int] = (0, 1, 2, 3, 4)) -> OPVerdict:
    """Probe whether the orbit of sigma under spec contains a gate ball.

    Samples six boundary points at each prescribed agreement radius
    from sigma, attempts to solve for a subgroup element carrying sigma
    onto the sample, and verifies every claimed witness.  The verdict radius
    is the smallest probed radius beyond which every sample was solved.
    """
    ctx = spec.ctx
    if rng is None:
        rng = random.Random(20127)
    depth = ctx.precision - 6
    solved_at = {}
    attempts = 0
    solved = 0
    for r in radii:
        good = True
        for _ in range(_PER_RADIUS):
            u = rng.randrange(1, ctx.p ** 5)
            if u % ctx.p == 0:
                u += 1
            x = ctx.s(u).shift(r)
            target = sigma.translate(
                ctx.mat([[ctx.one, x], [ctx.zero, ctx.one]]))
            attempts += 1
            h = _orbit_witness(spec, sigma, target, x, depth)
            if h is None:
                good = False
                continue
            solved += 1
        solved_at[r] = good
    radius = None
    for r in sorted(solved_at):
        if all(solved_at[q] for q in solved_at if q >= r):
            radius = r
            break
    shallow = sum(_PER_RADIUS for r, ok in solved_at.items()
                  if not ok and (radius is None or r < radius))
    if radius is None:
        return OPVerdict("unknown", None, attempts, solved, shallow)
    return OPVerdict("true-with-radius", radius, attempts, solved, shallow)


def _orbit_witness(spec: SubgroupSpec, sigma: IdealSimplex,
                   target: IdealSimplex, x: PadicScalar,
                   depth: int) -> Optional[Mat]:
    """The rotation carrying sigma onto target, verified; None when the
    solve needs a missing square root or the verification fails."""
    try:
        h = rotation_toward(spec.ctx, x)
    except NoSquareRoot:
        return None
    if spec.member(h) and sigma.translate(h).same(target, depth=depth):
        return h
    return None


# ---------------------------------------------------------------------------
# structure of the harvested limit set


class DecompositionRow(_Record):
    index: int
    unipotent: Mat
    levi: Mat
    residual: float


class DecompositionTable(_Record):
    """Measured, not assumed, structure of a harvested limit set.

    Each limit element is factored as unipotent * levi relative to the
    attracting simplex; the residual records how deeply the product
    recovers the element.  The remaining fields are sampled verdicts:
    conjugation of unipotent parts by limits and by the family element
    stays unipotent (normality), unipotent parts multiply to unipotent
    parts (closure), the unipotent parts reach every sampled simplex
    opposite the attracting one (transitivity), and no nontrivial sample
    lies in both factors (semidirectness).
    """

    rows: Tuple[DecompositionRow, ...]
    residual_min: float
    normality_min: float
    unipotent_closure: bool
    gamma_normalizes: bool
    transitivity: Tuple[bool, ...]
    semidirect: bool


def _block_factor(ctx: GroupContext, dims: Tuple[int, ...],
                  w: Mat) -> Tuple[Mat, Mat]:
    """Split a block-upper-triangular matrix into unipotent and block parts."""
    n = ctx.n
    cuts = [0, *dims, n]
    block_of = [0] * n
    for b in range(len(cuts) - 1):
        for i in range(cuts[b], cuts[b + 1]):
            block_of[i] = b
    rows = [[w[i, j] if block_of[i] == block_of[j] else ctx.zero
             for j in range(n)] for i in range(n)]
    levi = ctx.mat(rows)
    return w * levi.inv(), levi


def decompose_limit(limits: Sequence[Mat],
                    cert: HyperbolicCertificate) -> DecompositionTable:
    """Factor each limit through the attracting simplex and test structure.

    Every element must stabilize the attracting simplex of cert; an
    element that does not is named in the raised error, since it means
    the harvest violated the expected shape of the limit group and the
    experiment should stop rather than average over the violation.
    """
    if not limits:
        raise ValueError("empty limit set")
    sigma = cert.sigma_plus
    ctx = sigma.ctx
    depth = ctx.precision - 4
    for idx, g in enumerate(limits):
        if not parabolic_membership(g, sigma, depth=depth - 6):
            raise ValueError(
                "limit element %d does not stabilize the attracting simplex"
                % idx)
    m = sigma.canon
    mi = m.inv()
    rows: List[DecompositionRow] = []
    for idx, g in enumerate(limits):
        u_std, l_std = _block_factor(ctx, sigma.dims, mi * g * m)
        u = m * u_std * mi
        levi = m * l_std * mi
        residual = float(mat_agreement(u * levi, g))
        rows.append(DecompositionRow(idx, u, levi, residual))

    def unipotent_defect(g: Mat) -> float:
        _, l_std = _block_factor(ctx, sigma.dims, mi * g * m)
        return float(mat_agreement(l_std, ctx.identity))

    us = [r.unipotent for r in rows]
    normality = INF
    for l in limits:
        li = l.inv()
        for u in us:
            normality = min(normality, unipotent_defect(l * u * li))
    gamma = cert.element
    gi = gamma.inv()
    gamma_ok = all(unipotent_defect(gamma * u * gi) >= depth - 6 for u in us)
    closure = all(unipotent_defect(ua * ub) >= depth - 6
                  for ua in us[:3] for ub in us[:3])

    targets = [cert.sigma_minus.translate(u) for u in us]
    reached = []
    for t in targets:
        hit = any(cert.sigma_minus.translate(u).same(t, depth=depth - 6)
                  for u in us)
        if not hit:
            hit = any(cert.sigma_minus.translate(ua * ub).same(t, depth=depth - 6)
                      for ua in us[:4] for ub in us[:4])
        reached.append(hit)

    ident = ctx.identity
    semidirect = True
    for r in rows:
        for q in rows:
            if mat_agreement(r.unipotent, q.levi) >= depth - 6:
                if (mat_agreement(r.unipotent, ident) < depth - 6
                        or mat_agreement(q.levi, ident) < depth - 6):
                    semidirect = False

    return DecompositionTable(tuple(rows),
                              min(r.residual for r in rows),
                              float(normality),
                              closure, gamma_ok, tuple(reached), semidirect)


def nrp_verdict(table: DecompositionTable, depth: int) -> str:
    """Label the no-return behaviour supported by a decomposition table.

    "consistent-with-(NRP)" only reports that the sampled structure
    matched: residuals deep, unipotent parts normalized by the family
    element and by the limits.  It is never a proof, and any miss
    downgrades the label.
    """
    ok = (table.residual_min >= depth
          and table.normality_min >= depth
          and table.gamma_normalizes
          and table.unipotent_closure)
    return "consistent-with-(NRP)" if ok else "not-established"


# ---------------------------------------------------------------------------
# transported stabilizer witnesses


class TransPVerdict(_Record):
    """Witness search for one target opposite the attracting simplex.

    status "witness-found" records the first family index whose
    conjugated subgroup contains an element carrying the repelling
    simplex onto the target, with the element verified at every later
    index and the witness sequence Cauchy.  "inconclusive" means the
    budget ended first.
    """

    index: int
    status: str
    first_n: Optional[int]
    agreements: Tuple[float, ...]


# trailing witness agreements that check_transP needs non-decreasing
_TRANSP_TAIL = 4


def check_transP(spec: SubgroupSpec,
                 certs: Sequence[HyperbolicCertificate],
                 targets: Sequence[IdealSimplex]) -> List[TransPVerdict]:
    """For each target, search conjugates of spec for carriers onto it.

    A carrier at index n is g_n = a_n h_n a_n^{-1} with g_n moving the
    repelling simplex of the family exactly onto the target.  Deep
    targets need large n before the solve succeeds, so small budgets
    return inconclusive verdicts that a longer family resolves.
    """
    _validate_family(certs)
    ctx = spec.ctx
    depth = ctx.precision - 4
    sigma_minus = certs[0].sigma_minus
    sigma_plus = certs[0].sigma_plus
    out: List[TransPVerdict] = []
    for ti, target in enumerate(targets):
        if not opposite(sigma_plus, target):
            raise ValueError("target %d is not opposite the attracting simplex" % ti)
        x = _line_parameter(ctx, target)
        terms: List[Mat] = []
        first: Optional[int] = None
        broken = False
        for k, cert in enumerate(certs):
            exps = cert.apartment_exps
            if exps is None:
                raise ValueError("witness transport needs diagonal family elements")
            try:
                h = rotation_toward(ctx, x.shift(exps[1] - exps[0]))
            except NoSquareRoot:
                # the solve must succeed at every index past the first hit,
                # so a later miss invalidates the whole witness chain
                broken = first is not None
                if broken:
                    break
                continue
            a = cert.element
            g = a * h * a.inv()
            if not sigma_minus.translate(g).same(target, depth=depth - 6):
                broken = first is not None
                if broken:
                    break
                continue
            if first is None:
                first = k
            terms.append(g)
        agreements = tuple(float(mat_agreement(p, q))
                           for p, q in zip(terms, terms[1:]))
        good = (first is not None
                and not broken
                and len(terms) > _TRANSP_TAIL
                and agreements[-1] >= depth
                and all(b >= a for a, b in zip(agreements[-_TRANSP_TAIL:],
                                               agreements[-_TRANSP_TAIL + 1:])))
        if good:
            out.append(TransPVerdict(ti, "witness-found", first, agreements))
        else:
            out.append(TransPVerdict(ti, "inconclusive", first, agreements))
    return out


def _line_parameter(ctx: GroupContext, target: IdealSimplex) -> PadicScalar:
    """Express a boundary line opposite span(e1) as span((x, 1))."""
    c0 = target.canon[0, 0]
    c1 = target.canon[1, 0]
    if c1.is_zeroish():
        raise ValueError("target line is not opposite the attracting simplex")
    return c0 * c1.inv()
