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
one enumeration per coset and still one check per element.  Sharing
relies only on the cosets partitioning the group, which holds because
the product table is a group table.  The oracle reports how many
elements tie for the least length instead of asserting uniqueness, so a
wrong library answer is a recorded failure.

The enumerations run on element indices of the group table: the
products u w v in ``coset_minima`` and the conjugates rep^-1 s_i rep in
``residue_type_by_conjugation`` are lookups in ``_mul``.  They are still
exhaustive; only their answers are made ``WeylElement``s.

``check_system`` builds its tables once, before the loops over elements:
the index list of every W_J, the ``coset_minima`` table of every pair
(I, J) of generator subsets, and one list of the pairs with their
tables.  A check is one case covered, and each distinct library question
is asked once; every case that poses it reads the stored answer.  A
library answer depends only on its arguments (the tables are built once,
and elements compare by identity), so a repeated question cannot get
another answer.  So the residue type of (I, rep, J) is asked once per
library representative rep, and the projection to W_I x once per element
x, while every pair of chambers (c, d) with c^-1 d = x counts a check.
The walls from each chamber c to every chamber are asked once, as a row
from which the walls between c and d, the hull-by-walls predicate at
every d and, with row d at c, the symmetry check are read.  Elements compare
by identity (see ``coxeter.WeylElement``), so a library answer is right
exactly when it is the oracle's object.
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
    return _coset_minima(system, _indices(system, I), _indices(system, J))


def _coset_minima(system: CoxeterSystem, W_I: List[int], W_J: List[int]
                  ) -> Dict[WeylElement, Tuple[WeylElement, int]]:
    """``coset_minima`` for W_I and W_J given as their index lists."""
    mul, lengths = system._mul, system._distances[0]  # l(x) = d(e, x)
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
    projections, every subset.  A check is one such case covered: each
    distinct library question is asked once, and every case reads its
    answer.  Returns the number of checks of each kind and one failure
    string per case the library gets wrong.
    """
    name = system.name
    elements = system.elements()
    subs = subsets(system.rank)
    par_lists = {J: _indices(system, J) for J in subs}
    # per pair (I, J): its coset table, W_J as indices, and whether the
    # library's residue type of each representative is right, filled as
    # representatives come up
    pairs = [(I, J, _coset_minima(system, par_lists[I], par_lists[J]),
              set(par_lists[J]), {})
             for I in subs for J in subs]
    failures: List[str] = []
    for w in elements:
        for I, J, minima, W_J, verdicts in pairs:
            rep = system.min_double_coset_rep(I, w, J)
            least, ties = minima[w]
            if least is not rep or ties != 1:
                failures.append("%s double-coset %r %s %r"
                                % (name, sorted(I), w.word, sorted(J)))
            right = verdicts.get(rep)
            if right is None:
                right = verdicts[rep] = (system.parabolic_intersection(I, rep, J)
                                         == residue_type_by_conjugation(
                                             system, I, rep, W_J))
            if not right:
                failures.append("%s residue-type %r %s %r"
                                % (name, sorted(I), w.word, sorted(J)))
    # the projection of a pair (c, d) to W_I depends only on c^-1 d: per
    # element x, the subsets I (in order) whose gate of W_I x is wrong
    wrong_gates: List[List[List[int]]] = [[] for _ in elements]
    for I, J, cosets, _, _ in pairs:
        if not J:  # the cosets W_I x
            for x in elements:
                least, ties = cosets[x]
                if least is not system.min_coset_rep_left(I, x) or ties != 1:
                    wrong_gates[x.index].append(sorted(I))
    # the walls from each chamber c to every chamber, one row per c
    rows = [[system.separating_walls(c, x) for x in elements] for c in elements]
    for c, row in zip(elements, rows):
        for d in elements:
            x = c.inverse() * d
            walls = row[d.index]
            if len(walls) != x.length or walls != rows[d.index][c.index]:
                failures.append("%s separating %s %s" % (name, c, d))
            if system.convex_hull(c, d) != _within(elements, row, walls):
                failures.append("%s hull %s %s" % (name, c, d))
            for I in wrong_gates[x.index]:
                failures.append("%s projection %r %s %s" % (name, I, c, d))
    chambers = len(elements) ** 2
    checks = {"double-coset": len(elements) * len(pairs),
              "residue-type": len(elements) * len(pairs),
              "projection": chambers * len(subs),
              "separating-walls": chambers, "hull-pairs": chambers}
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
