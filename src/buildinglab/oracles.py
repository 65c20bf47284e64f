"""Brute-force Coxeter oracles that the fast Weyl group tables are checked against.

Everything here is deliberately naive: breadth-first search over words,
exhaustive minimisation over cosets and double cosets, conjugation into
parabolic subgroups, explicit half-space intersections (Casselman,
"Computation in Coxeter groups I", 2002; Bjorner-Brenti, GTM 231,
ch. 3).  ``check_system`` runs the exhaustive comparison behind the
``coxeter-oracle`` preset; the remaining oracles serve the tests.

``coset_minima`` enumerates each double coset W_I w W_J once, over
all products u w v, and gives its least element to every member; an
empty I or J gives the one-sided cosets.  ``check_system`` thus makes
one enumeration per coset and still one check, with one library call,
per element.  Sharing relies only on the cosets partitioning the group,
which holds because the product table is a group table.  The oracle
reports how many elements tie for the least length instead of asserting
uniqueness, so a wrong library answer is a recorded failure.

The enumerations run on element indices of the group table: the
products u w v in ``coset_minima`` and the conjugates rep^-1 s_i rep in
``residue_type_by_conjugation`` are lookups in ``_mul``.  They are still
exhaustive; only their answers are made ``WeylElement``s.
``check_system`` computes the separating walls from each chamber c to
every chamber once, and reads both the walls between c and d and the
hull-by-walls predicate at every d from that row.
"""

from __future__ import annotations

from collections import deque
from itertools import permutations
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from .coxeter import CoxeterSystem, WeylElement, _is_negative, _mat_mul, _mat_vec


def subsets(rank: int) -> List[FrozenSet[int]]:
    """Every subset of the generators {0, ..., rank - 1}, in binary-counter order."""
    return [frozenset(i for i in range(rank) if mask >> i & 1)
            for mask in range(1 << rank)]


def _indices(system: CoxeterSystem, J: FrozenSet[int]) -> List[int]:
    """The indices of W_J, in ShortLex order."""
    return [u.index for u in system.parabolic(J)]


def coset_minima(system: CoxeterSystem, I: FrozenSet[int], J: FrozenSet[int]
                 ) -> Dict[WeylElement, Tuple[WeylElement, int]]:
    """Every element w, mapped to the least element of W_I w W_J and the
    number of distinct double-coset elements of that length.

    Each double coset is enumerated once, over all products u w v, from
    its first element in ShortLex order; its members share the result.
    The least element is the one of least index, as indices follow
    ShortLex order.
    """
    mul, lengths = system._mul, system._distances[0]  # l(x) = d(e, x)
    W_I, W_J = _indices(system, I), _indices(system, J)
    minima: List = [None] * system.order()
    for w in range(len(minima)):
        if minima[w] is None:
            coset = {mul[uw][v] for uw in {mul[u][w] for u in W_I} for v in W_J}
            least = min(coset)
            ties = sum(lengths[x] == lengths[least] for x in coset)
            found = (system.elements()[least], ties)
            for x in coset:
                minima[x] = found
    return dict(zip(system.elements(), minima))


def residue_type_by_conjugation(system: CoxeterSystem, I: FrozenSet[int],
                                rep: WeylElement, W_J: Set[int]) -> FrozenSet[int]:
    """The generators i in I with rep^-1 s_i rep in W_J, given as the set
    of its element indices."""
    mul, s, k = system._mul, system._right[0], rep.index
    inv = system._inv[k]
    return frozenset(i for i in I if mul[mul[inv][s[i]]][k] in W_J)


def _within(elements: Sequence[WeylElement], walls_from_c: Sequence[FrozenSet],
            walls: FrozenSet) -> FrozenSet[WeylElement]:
    """The chambers x whose walls from c, ``walls_from_c[x.index]``, all lie
    in ``walls``."""
    return frozenset(x for x, seen in zip(elements, walls_from_c) if seen <= walls)


def hull_by_walls(system: CoxeterSystem, c: WeylElement,
                  d: WeylElement) -> FrozenSet[WeylElement]:
    """Chambers x whose separating walls from c all separate c from d."""
    row = [system.separating_walls(c, x) for x in system.elements()]
    return _within(system.elements(), row, row[d.index])


def check_system(system: CoxeterSystem) -> Tuple[Dict[str, int], List[str]]:
    """Compare the library with the brute-force oracles on every case.

    Double-coset representatives and residue types run over every
    element and every pair of generator subsets; separating walls,
    hulls and projections run over every pair of chambers and, for
    projections, every subset.  Returns the number of checks of each
    kind and one failure string per disagreement.
    """
    name = system.name
    elements = system.elements()
    subs = subsets(system.rank)
    par_sets = {I: set(_indices(system, I)) for I in subs}
    double = {(I, J): coset_minima(system, I, J) for I in subs for J in subs}
    left = {I: double[I, frozenset()] for I in subs}  # the cosets W_I x
    checks = {"double-coset": 0, "residue-type": 0, "projection": 0,
              "separating-walls": 0, "hull-pairs": 0}
    failures: List[str] = []
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


# -- oracles for the tests ---------------------------------------------------


def word_metric_table(system: CoxeterSystem):
    """BFS over right multiplication: matrix -> gallery distance from identity."""
    ident = system.identity.mat
    dist = {ident: 0}
    queue = deque([ident])
    gens = [system.simple(i).mat for i in range(system.rank)]
    while queue:
        m = queue.popleft()
        for s in gens:
            m2 = _mat_mul(m, s)
            if m2 not in dist:
                dist[m2] = dist[m] + 1
                queue.append(m2)
    return dist


def dihedral_model(m: int):
    """Abstract dihedral group of order 2m as canonical alternating words."""
    elements = {()}
    for length in range(1, m + 1):
        for start in (0, 1):
            word = tuple((start + k) % 2 for k in range(length))
            elements.add(word)
    # the two alternating words of full length m coincide
    elements.discard(tuple((1 + k) % 2 for k in range(m)))
    return elements


def all_reduced_words(w: WeylElement):
    """Every reduced word of w, by recursion over left descents."""
    if w.is_identity():
        return [()]
    out = []
    for i in sorted(w.left_descents()):
        for tail in all_reduced_words(w.system.simple(i) * w):
            out.append((i,) + tail)
    return out


def gate_by_enumeration(system, r, J, c):
    """Chamber of the residue r W_J closest to c in gallery distance."""
    best = None
    for u in system.parabolic(J):
        x = r * u
        d = (c.inverse() * x).length
        if best is None or d < best[0]:
            best = (d, x)
    return best[1]


def separating_walls_by_sides(system, c, d):
    return frozenset(
        beta
        for beta in system.positive_roots()
        if system.chamber_side(c, beta) != system.chamber_side(d, beta)
    )


def hull_by_gallery_bfs(system, c, d):
    """Chambers on a minimal gallery, via shortest-path distances."""
    table = word_metric_table(system)

    def dist(a, b):
        return table[_mat_mul(a.inv_mat, b.mat)]

    total = dist(c, d)
    return frozenset(x for x in system.elements() if dist(c, x) + dist(x, d) == total)


def hull_by_halfspace_intersection(system, c, d):
    """Chambers inside every half-space containing both c and d."""
    out = []
    for x in system.elements():
        ok = True
        for beta in system.positive_roots():
            sc = system.chamber_side(c, beta)
            if sc == system.chamber_side(d, beta) and system.chamber_side(x, beta) != sc:
                ok = False
                break
        if ok:
            out.append(x)
    return frozenset(out)


def coweight_stabilizer(system, v):
    return frozenset(w for w in system.elements() if w.apply_coweight(v) == tuple(v))


def compose_transpositions(n, word):
    """Permutation s_{word[0]} o s_{word[1]} o ... as an explicit function."""
    def apply(j):
        for i in reversed(word):
            if j == i:
                j = i + 1
            elif j == i + 1:
                j = i
        return j

    return tuple(apply(j) for j in range(n))


def permutation_inversions(sigma):
    return sum(
        1 for i, j in permutations(range(len(sigma)), 2) if i < j and sigma[i] > sigma[j]
    )


def roots_sent_negative(system, w):
    """Inversion-set length: positive roots mapped negative by w^{-1}."""
    return sum(
        1 for beta in system.positive_roots() if _is_negative(_mat_vec(w.inv_mat, beta))
    )
