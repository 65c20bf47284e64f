"""Boundary dynamics of hyperbolic lattice automorphisms.

Certificates for translation-like elements (attracting and repelling
simplices at infinity, translation vector, wall type), valuation-depth
agreement gates between boundary simplices, convergence of iterated
chamber orbits toward the attracting simplex with a retraction
cross-check, absorption of gate neighborhoods under families of growing
translations, and the boundedness criterion for conjugation orbits.

Matrices with eigenvalue valuations that cannot be separated at working
precision raise PrecisionExhausted rather than guessing; eigenvalues
with fractional valuation raise RamifiedSlopes since the lattice model
here only tracks integral translation vectors.

The boundary loops compute each fixed quantity once per call, and every
value they reuse is a pure function of immutable inputs, so results are
exactly those of recomputing it.  ``limit_boundary`` recentres the
predicted limit at the gate base once, recentres each iterate once (the
previous one is carried forward when the hypothesis fails) and reuses
the fixed-start test's translate as the first iterate.
``verify_transit`` recentres the repelling simplex once and inverts
each family element once, not once per target.  Recentring at the
origin is free: there ``_centre`` returns the shared ``ctx.identity``,
which ``IdealSimplex.translate`` maps to the simplex itself, so at base
``(0, ..., 0)`` no recentring computes a flag.  ``assumption_check``
splits each member of the gate face's flag across the eigen classes
once, and that one split both decides fixedness and builds the witness.

The hypothesis check for a chamber has one shortcut, for a certificate
whose repelling simplex is a coordinate simplex, every entry of its
representative the shared ``ctx.one`` or exact zero, as ``classify``
builds it for every diagonal element, and whose element acts on every
Levi block by one scalar: a strongly regular certificate (empty wall
type), or a wall certificate of an exact ``diag(p**k)``.  Such an
element fixes every chamber of the repelling simplex's star, so the
projection of the chamber is core and witness; for a regular
certificate that star is the repelling chamber alone.  Every other
certificate (a Levi rotation by units, a frame the caller supplies)
takes the full projection and the split across the eigen classes,
which decides fixedness with no comparison depth.

``limit_boundary`` predicts the limit by one formula for every witness
(``_predicted_limit``): the retraction of the start chamber onto an
apartment through the attracting simplex and the witness, centred at
the witness.  The witness is fixed and split across the eigen classes of
the certificate's frame, so the frame and the witness's representative
in frame coordinates span such an apartment, and the retraction is its
chamber at the Weyl distance from the witness to the start chamber.  No
apartment is searched and nothing is drawn at random: the prediction is
a function of the certificate and the start chamber alone, never of its
orbit or of other records.  Sums of products (polynomial coefficients,
column combinations) are one call each to the raw kernel
``padic._fold``.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .padic import INF, PadicScalar, PrecisionExhausted, _fold
from . import _Record, coxeter
from .building import (
    IdealSimplex,
    Mat,
    _apartment_chamber,
    _combine_columns,
    _diff_floor,
    boundary_simplex,
    chamber_of,
    dims_of_type,
    kernel_basis,
    matrix_rank,
    opposite,
    parabolic_membership,
    project_to_star,
    weyl_distance,
)


class RamifiedSlopes(ArithmeticError):
    """Eigenvalue valuations are not integers."""


# -- characteristic polynomial and Newton slopes ---------------------------


def characteristic_polynomial(g: Mat) -> Tuple[PadicScalar, ...]:
    """Coefficients (c_0, ..., c_n) of det(x - g), lowest degree first.

    Expanded over permutations directly; for n <= 4 that is at most 24
    terms and avoids any division, which matters when p <= n.
    """
    ctx = g.ctx
    n = g.n

    def poly_mul(a, b):
        # coefficient k sums a_i * b_(k-i) by increasing i, in one kernel call
        return [
            _fold(None, [(a[i], b[k - i])
                         for i in range(max(0, k - len(b) + 1),
                                        min(k, len(a) - 1) + 1)])
            for k in range(len(a) + len(b) - 1)
        ]

    acc = [ctx.zero] * (n + 1)
    for sigma in itertools.permutations(range(n)):
        inv = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if sigma[i] > sigma[j]
        )
        term = [ctx.one if inv % 2 == 0 else -ctx.one]
        for i in range(n):
            e = -g[i, sigma[i]]
            if sigma[i] == i:
                term = poly_mul(term, [e, ctx.one])
            else:
                term = poly_mul(term, [e])
        for k, c in enumerate(term):
            acc[k] = acc[k] + c
    return tuple(acc)


def newton_slopes(coeffs: Sequence[PadicScalar]) -> Tuple[int, ...]:
    """Valuations of the roots, sorted descending, via the lower hull.

    Near-zero coefficients are allowed only when their valuation floor
    does not dip below the hull through the known points; otherwise the
    slopes are genuinely unresolved and PrecisionExhausted is raised.
    """
    n = len(coeffs) - 1
    known: List[Tuple[int, int]] = []
    floors: List[Tuple[int, float]] = []
    for i, c in enumerate(coeffs):
        if c.is_exact_zero():
            continue
        if c.is_zeroish():
            floors.append((i, c.val_floor()))
        else:
            known.append((i, c.valuation()))
    idx = {i for i, _ in known}
    if 0 not in idx or n not in idx:
        raise PrecisionExhausted(
            "constant or leading coefficient lost at working precision"
        )

    hull: List[Tuple[int, int]] = []
    for pt in known:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)

    def below_hull(x: int, f: int) -> bool:
        """f < the hull's height at x, cross-multiplied by the width."""
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            if x1 <= x <= x2:
                w = x2 - x1
                return f * w < y1 * w + (y2 - y1) * (x - x1)
        return f < hull[-1][1]

    for i, f in floors:
        if below_hull(i, int(f)):
            raise PrecisionExhausted(
                "inseparable precision on slopes: coefficient %d unresolved"
                % i
            )

    vals: List[int] = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        w = x2 - x1
        dy = y2 - y1
        if dy % w != 0:
            raise RamifiedSlopes(
                "segment of width %d climbs %d: fractional slope" % (w, dy)
            )
        vals.extend([-(dy // w)] * w)
    return tuple(vals)


# -- hyperbolicity certificates ---------------------------------------------


class HyperbolicCertificate(_Record):
    """Witness data for a translation-like element.

    exps lists the eigenvalue valuations in descending order, so it is
    the translation vector read off a Cartan decomposition.  wall_type
    collects the reflections fixing the translation direction; it is
    empty exactly when the element is regular.  frame, when present,
    has the eigenvectors as columns with the most expanding direction
    first, and eigen_values matches its columns.  apartment_exps is set
    only for diagonal elements (matrix order, not sorted), which is
    what exact translation of gate neighborhoods needs.
    """

    element: Mat
    exps: Tuple[int, ...]
    translation_length: float
    wall_type: FrozenSet[int]
    sigma_plus: IdealSimplex
    sigma_minus: IdealSimplex
    frame: Optional[Mat]
    eigen_values: Optional[Tuple[PadicScalar, ...]]
    apartment_exps: Optional[Tuple[int, ...]]

    def is_regular(self) -> bool:
        return not self.wall_type


def _certificate_tail(a: Sequence[int]):
    """Endpoint dims, their duals, length and wall type of descending exps a."""
    n = len(a)
    asc = a[::-1]
    dims_plus = tuple(j + 1 for j in range(n - 1) if asc[j] != asc[j + 1])
    dims_minus = tuple(sorted(n - d for d in dims_plus))
    mean = sum(a) / n
    length = math.sqrt(sum((x - mean) ** 2 for x in a))
    wall = coxeter.translation_type(tuple(a[j] - a[j + 1] for j in range(n - 1)))
    return dims_plus, dims_minus, length, wall


def _certificate_from_frame(g: Mat, frame: Mat) -> Optional[HyperbolicCertificate]:
    ctx = g.ctx
    n = ctx.n
    D = frame.inv() * g * frame
    for i in range(n):
        for j in range(n):
            if i != j and not D[i, j].is_zeroish():
                raise ValueError("frame does not diagonalize the element")
    raw = [D[i, i].valuation() for i in range(n)]
    if len(set(raw)) == 1:
        return None
    order = sorted(range(n), key=lambda i: raw[i])
    a = tuple(sorted(raw, reverse=True))
    dims_plus, dims_minus, length, wall = _certificate_tail(a)
    M = frame * ctx.perm(order)
    sigma_plus = boundary_simplex(M, dims_plus)
    sigma_minus = boundary_simplex(M * ctx.reversal, dims_minus)
    diagonal = all(
        g[i, j].is_zeroish() for i in range(n) for j in range(n) if i != j
    )
    return HyperbolicCertificate(
        element=g,
        exps=a,
        translation_length=length,
        wall_type=wall,
        sigma_plus=sigma_plus,
        sigma_minus=sigma_minus,
        frame=M,
        eigen_values=tuple(D[i, i] for i in order),
        apartment_exps=tuple(g[i, i].valuation() for i in range(n))
        if diagonal
        else None,
    )


def _mat_power(g: Mat, k: int) -> Mat:
    out = g.ctx.identity
    for _ in range(k):
        out = out * g
    return out


def classify(
    g: Mat,
    frame: Optional[Mat] = None,
    rng: Optional[random.Random] = None,
) -> Optional[HyperbolicCertificate]:
    """Certificate for a translation-like element, or None if elliptic.

    With a diagonalizing frame (or a diagonal input) the endpoints come
    straight from the eigenbasis.  Without one, the eigenvalue
    valuations are read off the Newton polygon of the characteristic
    polynomial and the endpoint simplices are located by powering: the
    span of the leading columns of g^k stabilizes onto the attracting
    flag once k clears the valuation gaps.  Candidates are only
    accepted after the element demonstrably stabilizes them and they
    are opposite each other.  Six attempts are made, the first on the
    standard basis and the rest on random GL_n(Z_p) bases drawn from
    rng; when none succeeds PrecisionExhausted is raised.
    """
    ctx = g.ctx
    n = ctx.n
    if frame is None:
        diagonal = all(
            g[i, j].is_zeroish() for i in range(n) for j in range(n) if i != j
        )
        if diagonal:
            return _certificate_from_frame(g, ctx.identity)
    else:
        return _certificate_from_frame(g, frame)

    slopes = newton_slopes(characteristic_polynomial(g))
    if len(set(slopes)) == 1:
        return None
    a = slopes
    dims_plus, dims_minus, length, wall = _certificate_tail(a)

    gaps = [a[j] - a[j + 1] for j in range(n - 1) if a[j] > a[j + 1]]
    depth = max(6, ctx.precision // 4)
    spread = a[0] - a[-1]
    k = max(2, -(-(depth + 2 * spread + 4) // min(gaps)))
    fwd = _mat_power(g, k)
    bwd = _mat_power(g.inv(), k)
    if rng is None:
        rng = random.Random(65537)
    last_err: Optional[Exception] = None
    for attempt in range(6):
        basis = ctx.identity if attempt == 0 else ctx.random_gl_zp(rng)
        try:
            sp = boundary_simplex(fwd * basis, dims_plus)
            sm = boundary_simplex(bwd * basis, dims_minus)
        except (PrecisionExhausted, ZeroDivisionError) as e:
            last_err = e
            continue
        if (
            parabolic_membership(g, sp, depth)
            and parabolic_membership(g, sm, depth)
            and opposite(sp, sm)
        ):
            return HyperbolicCertificate(
                element=g,
                exps=a,
                translation_length=length,
                wall_type=wall,
                sigma_plus=sp,
                sigma_minus=sm,
                frame=None,
                eigen_values=None,
                apartment_exps=None,
            )
    raise PrecisionExhausted(
        "endpoint simplices did not stabilize after 6 bases: %r" % (last_err,)
    )


# -- agreement gates ---------------------------------------------------------


class GateMeasure(_Record):
    """A vertex of the standard apartment and an agreement depth.

    Describes the neighborhood of all boundary simplices whose
    canonical representative, after recentering at the vertex, agrees
    with the reference one to valuation at least radius.
    """

    base: Tuple[int, ...]
    radius: float


def _centre(ctx, base: Sequence[int]) -> Mat:
    """The diagonal matrix whose translates recentre simplices at base.

    At the origin that matrix is the identity, and the shared
    ``ctx.identity`` is returned, which ``IdealSimplex.translate`` maps
    to the simplex itself: recentring at the origin is free, with no
    product and no flag.
    """
    if len(base) != ctx.n:
        raise ValueError("base vertex has wrong rank")
    if not any(base):
        return ctx.identity
    return ctx.diag(tuple(-b for b in base))


def _radius(a: IdealSimplex, b: IdealSimplex) -> float:
    """Agreement depth of two recentred simplices.

    The least valuation floor of the entries of the difference of their
    representatives, INF when every one of them is zeroish, read off by
    ``building._diff_floor``: no difference matrix is built, and an entry
    the two share (``ctx.one`` at a common pivot, ``ctx.zero`` next to
    it) costs no subtraction.
    """
    floor, live = _diff_floor(a.canon, b.canon)
    return floor if live else INF


def agreement_gate(
    base: Sequence[int], s1: IdealSimplex, s2: IdealSimplex
) -> GateMeasure:
    """Depth to which two like-typed simplices agree, seen from base.

    Radius is the minimal valuation of the difference of the
    recentered canonical representatives, +inf when they coincide
    within working precision.  Each call recentres both simplices and
    reads that minimum off their entries pair by pair, subtracting none
    that the two share (``_radius``); loops that compare many simplices
    against a fixed one (``limit_boundary``, ``verify_transit``)
    recentre the fixed one once per call instead, through the same
    private pair ``_centre`` / ``_radius``.  At the origin recentring is
    free, and the radius is read off the two representatives as they
    are.
    """
    if s1.dims != s2.dims:
        raise ValueError("agreement gate needs simplices of equal type")
    T = _centre(s1.ctx, base)
    return GateMeasure(tuple(base), _radius(s1.translate(T), s2.translate(T)))


# -- linear algebra over the eigenframe --------------------------------------


def _columns(mat: Mat, count: int) -> List[List[PadicScalar]]:
    return [[mat[i, j] for i in range(mat.n)] for j in range(count)]


def _rows_of_columns(cols: List[List[PadicScalar]], keep=None):
    n = len(cols[0]) if cols else 0
    idx = range(n) if keep is None else keep
    return [[col[i] for col in cols] for i in idx]


def _eigen_classes(cert: HyperbolicCertificate) -> List[List[int]]:
    vals = cert.eigen_values
    classes: List[List[int]] = []
    for i, x in enumerate(vals):
        placed = False
        for cls in classes:
            y = vals[cls[0]]
            if x.valuation() == y.valuation() and (x - y).is_zeroish():
                cls.append(i)
                placed = True
                break
        if not placed:
            classes.append([i])
    return classes


def _stable_refinement(
    cert: HyperbolicCertificate, s_f: IdealSimplex
) -> Optional[IdealSimplex]:
    """Chamber containing tau, split across the eigen classes of the frame
    and fixed by the element, or None when the element does not fix tau.

    s_f is tau in frame coordinates, frame^-1 . tau.  The element fixes
    tau exactly when every flag member of s_f is the sum of its
    intersections with the eigen classes.  Each member's intersections
    are computed once.  ``kernel_basis`` never undercounts one (the rank
    it inverts never overcounts), so intersection dimensions that add up
    to less than the member's dimension certainly say "not fixed", and
    None is returned, at every precision.  Otherwise the chamber is
    built by extending the chain one eigenvector at a time, each drawn
    from the intersection of the next member with a single eigen class,
    so every intermediate subspace stays invariant and split; only a
    chain that can take no independent vector raises.
    """
    ctx = s_f.ctx
    n = ctx.n
    outsides = [[i for i in range(n) if i not in cls]
                for cls in _eigen_classes(cert)]
    chain: List[List[PadicScalar]] = []
    for d_next in list(s_f.dims) + [n]:
        target = _columns(s_f.canon, d_next)
        parts = [
            [_combine_columns(target, x)
             for x in kernel_basis(ctx, _rows_of_columns(target, out), d_next)]
            for out in outsides
        ]
        if sum(len(inter) for inter in parts) < d_next:
            return None
        while len(chain) < d_next:
            for out, inter in zip(outsides, parts):
                # the chain's dimension in this class, 0 for an empty chain
                have = len(chain) - matrix_rank(ctx, _rows_of_columns(chain, out))
                if len(inter) <= have:
                    continue
                v = next((v for v in inter if matrix_rank(
                    ctx, _rows_of_columns(chain + [v])) == len(chain) + 1), None)
                if v is not None:
                    chain.append(v)
                    break
            else:
                raise PrecisionExhausted(
                    "could not refine a fixed chamber at working precision"
                )
    rows = [[chain[j][i] for j in range(n)] for i in range(n)]
    return boundary_simplex(cert.frame * Mat(ctx, rows), ctx.full_dims)


# -- the projection hypothesis ------------------------------------------------


class AssumptionReport(_Record):
    """Outcome of the residue-projection test at the repelling simplex.

    core is the face of the gate chamber whose star is the full
    projected residue; the test asks whether that star meets the
    boundary of the minimal displacement set, which happens exactly
    when the element fixes core, that is when core splits across the
    eigen classes of the frame.  witness is a fixed split chamber of
    that star when the answer is yes.
    """

    satisfied: bool
    witness: Optional[IdealSimplex]
    core: Optional[IdealSimplex]
    residue_overlap: FrozenSet[int]
    min_rep_word: Tuple[int, ...]


def _fixed_star(cert: HyperbolicCertificate, beta: IdealSimplex) -> bool:
    """Does the element fix every chamber of the star of the repelling
    simplex, by the certificate's own data, when beta is a chamber?

    Holds when beta is a chamber, the repelling simplex is a coordinate
    simplex (every entry of its representative the shared ``ctx.one`` or
    exact zero) and the element acts on every Levi block by a scalar:
    the repelling simplex is a chamber (a regular certificate), or the
    element is an exact ``diag(p**k)`` of beta's context (it keeps k in
    ``_shifts``).  The gaps of a coordinate flag are spanned by the
    coordinate lines of one slope block each, on which such an element
    is one scalar, so every chamber between them is fixed and splits
    across the blocks.
    """
    sm, g = cert.sigma_minus, cert.element
    one, zero = sm.ctx.one, sm.ctx.zero
    return (beta.is_chamber()
            and (cert.is_regular() or (g._shifts is not None and g.ctx is beta.ctx))
            and all(x is one or x is zero for row in sm.canon.rows for x in row))


def assumption_check(cert: HyperbolicCertificate, beta: IdealSimplex) -> AssumptionReport:
    """Does the projection of beta's residue reach the axis boundary?

    Projects the chamber of beta onto the star of the repelling
    simplex, cuts the projected residue out via the minimal double
    coset representative, and asks whether the element fixes its core
    face: ``_stable_refinement`` splits the core across the eigen
    classes of the frame, with no comparison depth, and its chamber is
    the witness.  Requires a certificate with a frame.

    Where ``_fixed_star`` holds, every chamber of that star is fixed and
    split across the eigen classes, so for a chamber beta the answer is
    yes: the projection f0 of beta is core and witness, and the Weyl
    distance from f0 to beta is reduced as on the full path, with no
    split.  For a regular certificate the repelling simplex is a
    chamber, whose star is itself, and ``project_to_star`` returns it as
    f0.  Every other case (beta no chamber, a Levi rotation by units, a
    frame the caller supplied) takes the full path.
    """
    if cert.frame is None:
        raise ValueError("hypothesis check needs an eigenframe certificate")
    ctx = beta.ctx
    sm = cert.sigma_minus
    c0 = chamber_of(beta)
    f0 = project_to_star(sm, c0)
    w_fc = weyl_distance(f0, c0)
    I_res = sm.type
    J_res = beta.type
    w1 = ctx.weyl.min_double_coset_rep(I_res, w_fc, J_res)
    K = ctx.weyl.parabolic_intersection(I_res, w1, J_res)
    if _fixed_star(cert, beta):
        return AssumptionReport(True, f0, f0, K, w1.word)
    tau = f0.face(dims_of_type(ctx.n, K))
    witness = _stable_refinement(cert, tau.translate(cert.frame.inv()))
    return AssumptionReport(witness is not None, witness, tau, K, w1.word)


# -- iterated boundary dynamics ----------------------------------------------


class LimitReport(_Record):
    status: str
    limit: Optional[IdealSimplex]
    retraction_value: Optional[IdealSimplex]
    witness: Optional[IdealSimplex]
    trace: List[Tuple[int, float]]
    first_n: Optional[int]
    monotone: bool
    r_target: float
    hypothesis: AssumptionReport


def _predicted_limit(
    cert: HyperbolicCertificate, report: AssumptionReport, xi: IdealSimplex
) -> IdealSimplex:
    """Retraction of xi onto an apartment through the attracting simplex
    and the witness of a satisfied report, centred at the witness.

    The witness is fixed and split across the eigen classes of the frame
    F, so each column of its representative A in frame coordinates lies
    in one class, and the apartment of F * A, whose chamber F * A *
    c_plus is the witness, holds both endpoint simplices.  The
    retraction is the chamber of that apartment at the Weyl distance
    from the witness to xi.  When the witness is the projection of xi
    (the core), that distance is the check's ``min_rep_word``: by the
    gate property it is already minimal in its double coset.  The full
    path's stable refinement reads it off the pair.
    """
    ctx = xi.ctx
    witness = report.witness
    if witness is report.core:
        word = report.min_rep_word
    else:
        word = weyl_distance(witness, xi).word
    F = cert.frame
    A = boundary_simplex(F.inv() * witness.canon, ctx.full_dims).canon
    return _apartment_chamber(
        F * A, coxeter.permutation_from_weyl(ctx.weyl.from_word(word)))


def limit_boundary(
    cert: HyperbolicCertificate,
    xi: IdealSimplex,
    max_n: int = 64,
    r_target: Optional[float] = None,
    base: Optional[Sequence[int]] = None,
) -> LimitReport:
    """Iterate a boundary chamber and compare against the retraction value.

    The predicted limit is the retraction of the start chamber onto an
    apartment through the attracting simplex and the witness chamber
    produced by the hypothesis check, centred at the witness
    (``_predicted_limit``).  Convergence means the agreement gate
    between the iterates and that prediction reaches r_target.  When the
    hypothesis fails the orbit is still traced, gate per consecutive
    step, and reported without a limit; rotation near the repelling
    simplex shows up there as a stalling trace.
    The hypothesis check runs once per call, also for a start chamber
    the element fixes, and its report is the `hypothesis` field.  The
    prediction is read off xi and that report alone, independently of
    the orbit, with no draw from a random stream.  A gate target below 1
    certifies nothing and raises ValueError.
    """
    ctx = xi.ctx
    if not xi.is_chamber():
        raise ValueError("limit dynamics starts from a chamber")
    if r_target is None:
        r_target = ctx.precision // 2
    if not r_target >= 1:
        raise ValueError("gate target must be at least 1, got %r" % (r_target,))
    if base is None:
        base = (0,) * ctx.n
    g = cert.element

    report = assumption_check(cert, xi)
    # the fixed-start test translates xi once; that is also the first iterate
    first = xi.translate(g)
    if first.same(xi):
        return LimitReport(
            "converged", xi, xi, None, [(0, INF)], 0, True, r_target, report
        )
    # the gate centre is fixed, and each iterate is recentred once
    T = _centre(ctx, base)
    trace: List[Tuple[int, float]] = []
    if not report.satisfied:
        prev = xi.translate(T)
        y = xi
        for n in range(1, max_n + 1):
            y = first if n == 1 else y.translate(g)
            cur = y.translate(T)
            trace.append((n, _radius(prev, cur)))
            prev = cur
        return LimitReport(
            "hypothesis-not-satisfied",
            None,
            None,
            None,
            trace,
            None,
            False,
            r_target,
            report,
        )

    witness = report.witness
    eta = _predicted_limit(cert, report, xi)
    x0 = xi.translate(T)
    eta_c = eta.translate(T)
    r0 = _radius(x0, eta_c)
    trace.append((0, r0))
    first_n: Optional[int] = 0 if r0 >= r_target else None
    y = xi
    if first_n is None:
        for n in range(1, max_n + 1):
            y = first if n == 1 else y.translate(g)
            r = _radius(y.translate(T), eta_c)
            trace.append((n, r))
            if r >= r_target:
                first_n = n
                break
    monotone = all(b >= a for (_, a), (_, b) in zip(trace, trace[1:]))
    if first_n is not None:
        return LimitReport("converged", y, eta, witness, trace, first_n,
                           monotone, r_target, report)
    return LimitReport("no-convergence", None, eta, witness, trace, None,
                       monotone, r_target, report)


# -- absorption along translation families ------------------------------------


class TransitTarget(_Record):
    index: int
    first_n: Optional[int]
    cofinal: bool


class TransitReport(_Record):
    targets: List[TransitTarget]
    all_absorbed: bool


def _validate_family(certs: Sequence[HyperbolicCertificate]) -> None:
    """A family shares its endpoint pair and strictly grows in length.

    Endpoints are compared to a quarter of the working precision, so
    the test stays meaningful when only a few digits are tracked.
    """
    if not certs:
        raise ValueError("empty certificate family")
    depth = max(1, certs[0].element.ctx.precision // 4)
    sp = certs[0].sigma_plus
    sm = certs[0].sigma_minus
    for c in certs[1:]:
        if not (c.sigma_plus.same(sp, depth) and c.sigma_minus.same(sm, depth)):
            raise ValueError("certificates do not share an axis")
    lengths = [c.translation_length for c in certs]
    if any(b <= a + 1e-9 for a, b in zip(lengths, lengths[1:])):
        raise ValueError("translation lengths must strictly increase")


def verify_transit(
    certs: Sequence[HyperbolicCertificate],
    measure: GateMeasure,
    targets: Sequence[IdealSimplex],
) -> TransitReport:
    """Do growing translations absorb every opposite simplex into a gate?

    The certificates must share their endpoint pair and be listed with
    strictly increasing translation length.  A target sits inside the
    n-th image of the gate neighborhood of the repelling simplex
    exactly when pulling it back by the n-th element lands it within
    the gate; the report records the first such n per target and
    whether membership persists from there on.
    """
    _validate_family(certs)
    sp = certs[0].sigma_plus
    sm = certs[0].sigma_minus
    for t in targets:
        if not opposite(sp, t):
            raise ValueError("target is not opposite the attracting simplex")

    # the gate centre and the pull-backs do not depend on the target
    T = _centre(sm.ctx, measure.base)
    sm_c = sm.translate(T)
    pullbacks = [c.element.inv() for c in certs]
    out: List[TransitTarget] = []
    for idx, t in enumerate(targets):
        absorbed = [
            _radius(sm_c, t.translate(h).translate(T)) >= measure.radius
            for h in pullbacks
        ]
        first = next((j for j, a in enumerate(absorbed) if a), None)
        cofinal = first is not None and all(absorbed[first:])
        out.append(TransitTarget(idx, first, cofinal))
    return TransitReport(out, all(t.cofinal for t in out))


# -- conjugation boundedness ---------------------------------------------------


def conjugation_bounded(gamma: Mat, g: Mat, steps: int = 20) -> Tuple[bool, List[float]]:
    """Does the backward conjugation orbit of g stay bounded?

    Tracks the minimal entry valuation of gamma^-k g gamma^k.  Bounded
    orbits characterize the stabilizer of the attracting simplex;
    anything outside it picks up at least one entry whose valuation
    drops linearly in k, so after `steps` iterations the verdict is
    read off against the starting floor minus 5.  Near-members
    whose offending entries sit close to working precision can fool
    the comparison; keep inputs coarse relative to the precision.
    """
    gi = gamma.inv()
    x = g
    trace = [float(x.min_val_floor())]
    for _ in range(steps):
        x = gi * x * gamma
        trace.append(float(x.min_val_floor()))
    return trace[-1] >= trace[0] - 5, trace
