"""Finite and affine Weyl group combinatorics.

Finite crystallographic systems are given by their Cartan matrices and
realised on root-space coordinates: a group element is the integer matrix
of its action on the simple-root basis.  Each system enumerates its group
once from that faithful representation and numbers the elements in
ShortLex order of their reduced words; an element is a handle carrying
that index.  Products, inverses, left and right descents, inversion
sets and gallery distances are then table lookups, built from the
matrices of the generator products the enumeration makes, so two
elements are equal exactly when their matrices agree.

The tables are kept on element indices as well: ``_mul[a][b]`` is the
index of a * b, ``_inv[a]`` that of a^-1, ``_right[w][i]`` that of
w * s_i and ``_left[w][i]`` that of s_i * w.  The coset minimisations
run on them: ``min_coset_rep`` and ``min_coset_rep_left`` are each one
loop that strips the least descent in the subset through ``_right`` or
``_left`` and the descent tables, and ``parabolic_intersection`` tests
w^-1 s_i w against the simple reflections through ``_mul``.  Only the
answer is made a ``WeylElement``.  ``min_double_coset_rep`` stays the
fixed point of the two public one-sided methods.

Generators are 0-indexed throughout.  For the linear types A_r this means
s_i corresponds to the adjacent transposition of positions i and i+1.

Cocharacter data (translation parts of affine elements, vertex directions
of ideal simplices) lives in fundamental-coweight coordinates: the j-th
coordinate of a vector v is the pairing of v against the j-th simple root.
A translation is I-regular when its coordinate vanishes exactly on I, and
the finite Weyl action in these coordinates is s_i(v) = v - v_i * C[i].
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

Mat = Tuple[Tuple[int, ...], ...]
Vec = Tuple[int, ...]

CARTAN: Dict[str, Mat] = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "B2": ((2, -1), (-2, 2)),
    "C2": ((2, -2), (-1, 2)),
    "G2": ((2, -1), (-3, 2)),
}

AFFINE_OF_FINITE = {"A~1": "A1", "A~2": "A2", "A~3": "A3", "C~2": "C2"}


def _identity_mat(r: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))


def _mat_mul(a: Mat, b: Mat) -> Mat:
    r = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(r)) for j in range(r)) for i in range(r)
    )


def _mat_vec(m: Mat, v: Vec) -> Vec:
    r = len(m)
    return tuple(sum(m[i][j] * v[j] for j in range(r)) for i in range(r))


def _is_negative(v: Vec) -> bool:
    return all(x <= 0 for x in v) and any(x < 0 for x in v)


class WeylElement:
    """One element of a finite Weyl group: a handle on its system's tables.

    ``index`` is the element's position in the ShortLex order of its
    system; ``mat`` is its action on the simple-root basis.
    """

    __slots__ = ("system", "index", "mat", "inv_mat", "word")

    def __init__(
        self, system: "CoxeterSystem", index: int, mat: Mat, inv_mat: Mat, word: Tuple[int, ...]
    ):
        self.system = system
        self.index = index
        self.mat = mat
        self.inv_mat = inv_mat
        self.word = word  # ShortLex-minimal reduced word

    @property
    def length(self) -> int:
        return len(self.word)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        system = self.system
        if system is not other.system:
            raise ValueError("elements of different systems")
        return system._products[self.index][other.index]

    def inverse(self) -> "WeylElement":
        return self.system._inverses[self.index]

    def apply_coweight(self, v: Vec) -> Vec:
        """Action on fundamental-coweight coordinates."""
        C = self.system.cartan
        out = v
        for i in reversed(self.word):
            out = tuple(out[j] - out[i] * C[i][j] for j in range(len(out)))
        return out

    def left_descents(self) -> FrozenSet[int]:
        return self.system._left_descents[self.index]

    def is_identity(self) -> bool:
        return not self.word

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.system is other.system and self.index == other.index

    def __hash__(self):
        return self.index

    def __repr__(self) -> str:
        if not self.word:
            return "e"
        return "*".join(f"s{i}" for i in self.word)


class CoxeterSystem:
    """A finite crystallographic Coxeter system with precomputed tables."""

    def __init__(self, name: str):
        if name not in CARTAN:
            raise ValueError(f"unknown system {name!r}; known: {sorted(CARTAN)}")
        self.name = name
        self.cartan: Mat = CARTAN[name]
        self.rank = len(self.cartan)
        self._simple_mats: List[Mat] = []
        for i in range(self.rank):
            rows = []
            for k in range(self.rank):
                if k != i:
                    rows.append(tuple(1 if j == k else 0 for j in range(self.rank)))
                else:
                    rows.append(
                        tuple(
                            (1 if j == i else 0) - self.cartan[i][j] for j in range(self.rank)
                        )
                    )
            self._simple_mats.append(tuple(rows))
        self._build_tables()

    def _build_tables(self) -> None:
        """Enumerate the group in ShortLex order and fill the lookup tables.

        A breadth-first search multiplies each element, in order of
        discovery, on the right by s_0, ..., s_{r-1}.  The ShortLex word of
        x is the least of word(x s) + (s,) over the right descents s of x,
        compared first on word(x s); the search reaches x first along that
        pair, so discovery order is ShortLex order.  These rank * |W|
        products are the only matrix arithmetic; every other table is
        folded from the right-generator table along the words.
        """
        ident = _identity_mat(self.rank)
        mats = [ident]
        words: List[Tuple[int, ...]] = [()]
        parent = [0]
        index = {ident: 0}
        right: List[List[int]] = []  # right[w][i] is the index of w * s_i
        for w, m in enumerate(mats):  # mats grows as the search discovers
            row = []
            for i, s in enumerate(self._simple_mats):
                m2 = _mat_mul(m, s)
                k = index.get(m2)
                if k is None:
                    k = index[m2] = len(mats)
                    mats.append(m2)
                    words.append(words[w] + (i,))
                    parent.append(w)
                row.append(k)
            right.append(row)
        n = len(mats)
        # a * b = (a * parent(b)) * s_last(b), and parent(b) precedes b
        products = []
        for a in range(n):
            row = [a]
            for b in range(1, n):
                row.append(right[row[parent[b]]][words[b][-1]])
            products.append(row)
        inverses = [row.index(0) for row in products]
        lengths = [len(word) for word in words]
        # gallery distance d(a, b) = l(a^-1 b)
        distances = [[lengths[k] for k in products[inverses[a]]] for a in range(n)]
        right_descents = [
            frozenset(i for i, k in enumerate(right[w]) if lengths[k] < lengths[w])
            for w in range(n)
        ]
        # N(w s) = N(w) + {w alpha_s} when l(w s) > l(w); w alpha_s is column s of w
        inversions = [frozenset()]
        for b in range(1, n):
            s = words[b][-1]
            inversions.append(
                inversions[parent[b]] | {tuple(r[s] for r in mats[parent[b]])}
            )

        els = [WeylElement(self, k, mats[k], mats[inverses[k]], words[k]) for k in range(n)]
        self._elements = els
        self._right = right
        # _left[w][i] is the index of s_i * w
        self._left = [[products[s][w] for s in right[0]] for w in range(n)]
        self._mul = products  # _mul[a][b] is the index of a * b
        self._inv = inverses
        self._products = [[els[k] for k in row] for row in products]
        self._inverses = [els[k] for k in inverses]
        self._right_descents = right_descents
        self._left_descents = [right_descents[k] for k in inverses]
        self._inversion_sets = inversions
        self._distances = distances

    # -- element construction -------------------------------------------

    def alpha(self, i: int) -> Vec:
        return tuple(1 if j == i else 0 for j in range(self.rank))

    @property
    def identity(self) -> WeylElement:
        return self._elements[0]

    def simple(self, i: int) -> WeylElement:
        return self._elements[self._right[0][i]]

    def from_word(self, word: Iterable[int]) -> WeylElement:
        k = 0
        for i in word:
            k = self._right[k][i]
        return self._elements[k]

    # -- enumeration ------------------------------------------------------

    def elements(self) -> List[WeylElement]:
        """Every element, in ShortLex order of the reduced words."""
        return self._elements

    def order(self) -> int:
        return len(self._elements)

    def longest_element(self) -> WeylElement:
        return self._elements[-1]

    def positive_roots(self) -> FrozenSet[Vec]:
        return self._roots()[0]

    def _roots(self) -> Tuple[FrozenSet[Vec], FrozenSet[Vec]]:
        if not hasattr(self, "_roots_cache"):
            seen = {self.alpha(i) for i in range(self.rank)}
            frontier = list(seen)
            while frontier:
                nxt = []
                for v in frontier:
                    for s in self._simple_mats:
                        v2 = _mat_vec(s, v)
                        if v2 not in seen:
                            seen.add(v2)
                            nxt.append(v2)
                frontier = nxt
            pos = frozenset(v for v in seen if not _is_negative(v))
            self._roots_cache = (pos, frozenset(seen))
        return self._roots_cache

    # -- cosets and parabolic subgroups -------------------------------------

    def parabolic(self, J: Iterable[int]) -> List[WeylElement]:
        """W_J in ShortLex order: the elements whose reduced words use only J."""
        J = frozenset(J)
        return [w for w in self._elements if J.issuperset(w.word)]

    def min_coset_rep(self, w: WeylElement, J: Iterable[int]) -> WeylElement:
        """Minimal-length representative of the right coset w * W_J."""
        J = frozenset(J)
        right, descents = self._right, self._right_descents
        k = w.index
        strip = J & descents[k]
        while strip:
            k = right[k][min(strip)]
            strip = J & descents[k]
        return self._elements[k]

    def min_coset_rep_left(self, I: Iterable[int], w: WeylElement) -> WeylElement:
        """Minimal-length representative of the left coset W_I * w."""
        I = frozenset(I)
        left, descents = self._left, self._left_descents
        k = w.index
        strip = I & descents[k]
        while strip:
            k = left[k][min(strip)]
            strip = I & descents[k]
        return self._elements[k]

    def min_double_coset_rep(
        self, I: Iterable[int], w: WeylElement, J: Iterable[int]
    ) -> WeylElement:
        prev = None
        while prev != w:
            prev = w
            w = self.min_coset_rep_left(I, self.min_coset_rep(w, J))
        return w

    def parabolic_intersection(
        self, I: Iterable[int], w: WeylElement, J: Iterable[int]
    ) -> FrozenSet[int]:
        """Generators K with W_I meet w W_J w^-1 equal to W_K.

        Valid when w is the minimal representative of its (I, J) double
        coset; callers reduce first.
        """
        mul, s, k = self._mul, self._right[0], w.index
        inv = self._inv[k]
        simples = {s[j] for j in J}
        return frozenset(i for i in frozenset(I) if mul[mul[inv][s[i]]][k] in simples)

    # -- chamber geometry of the Coxeter complex -----------------------------

    def project_to_residue(
        self, r: WeylElement, J: Iterable[int], c: WeylElement
    ) -> WeylElement:
        """Gate of chamber c in the J-residue of chamber r.

        The residue is r*W_J; its gate is the unique chamber closest to c
        in gallery distance, through which every minimal gallery from c
        into the residue passes.
        """
        v = c.inverse() * r
        return c * self.min_coset_rep(v, J)

    def separating_walls(self, c: WeylElement, d: WeylElement) -> FrozenSet[Vec]:
        """Positive roots whose walls separate chambers c and d."""
        return self._inversion_sets[c.index] ^ self._inversion_sets[d.index]

    def chamber_side(self, c: WeylElement, beta: Vec) -> int:
        """+1 / -1 depending on which half-space for the wall of beta holds c."""
        img = _mat_vec(c.inv_mat, beta)
        return -1 if _is_negative(img) else 1

    def convex_hull(self, c: WeylElement, d: WeylElement) -> FrozenSet[WeylElement]:
        """Chambers lying on some minimal gallery from c to d."""
        from_c = self._distances[c.index]
        from_d = self._distances[d.index]  # l(d^-1 x) = l(x^-1 d)
        target = from_c[d.index]
        return frozenset(
            x for x, a, b in zip(self._elements, from_c, from_d) if a + b == target
        )


@lru_cache(maxsize=None)
def get_system(name: str) -> CoxeterSystem:
    return CoxeterSystem(name)


# -- translation vectors in fundamental-coweight coordinates ---------------


def translation_type(v: Sequence[int]) -> FrozenSet[int]:
    """Generators fixing the translation: indices where the pairing vanishes."""
    return frozenset(i for i, x in enumerate(v) if x == 0)


def regular_translation(system: CoxeterSystem, I: Iterable[int]) -> Vec:
    """A dominant vector whose type is exactly I: zero on I, one elsewhere."""
    I = frozenset(I)
    if not I <= set(range(system.rank)):
        raise ValueError("type is not a subset of the generator set")
    return tuple(0 if i in I else 1 for i in range(system.rank))


# -- affine elements ---------------------------------------------------------


class AffineWeylElement:
    """Element t_lambda * w of an extended affine Weyl group.

    Acts on coweight space by x -> translation + w(x); the translation is
    stored in fundamental-coweight coordinates of the underlying finite
    system.
    """

    __slots__ = ("translation", "finite")

    def __init__(self, translation: Vec, finite: WeylElement):
        self.translation = tuple(translation)
        self.finite = finite

    def __mul__(self, other: "AffineWeylElement") -> "AffineWeylElement":
        t = tuple(
            a + b
            for a, b in zip(self.translation, self.finite.apply_coweight(other.translation))
        )
        return AffineWeylElement(t, self.finite * other.finite)

    def inverse(self) -> "AffineWeylElement":
        wi = self.finite.inverse()
        t = tuple(-x for x in wi.apply_coweight(self.translation))
        return AffineWeylElement(t, wi)

    def is_translation(self) -> bool:
        return self.finite.is_identity()

    def translation_type(self) -> FrozenSet[int]:
        if not self.is_translation():
            raise ValueError("element has a nontrivial rotational part")
        return translation_type(self.translation)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineWeylElement):
            return NotImplemented
        return self.translation == other.translation and self.finite == other.finite

    def __hash__(self):
        return hash((self.translation, self.finite))

    def __repr__(self) -> str:
        return f"t{self.translation}*{self.finite!r}"


class AffineSystem:
    """Affine Weyl group presented over its finite system."""

    def __init__(self, name: str):
        if name not in AFFINE_OF_FINITE:
            raise ValueError(f"unknown affine system {name!r}")
        self.name = name
        self.finite = get_system(AFFINE_OF_FINITE[name])

    def translation(self, v: Sequence[int]) -> AffineWeylElement:
        return AffineWeylElement(tuple(v), self.finite.identity)

    def element(self, v: Sequence[int], w: WeylElement) -> AffineWeylElement:
        return AffineWeylElement(tuple(v), w)

    @property
    def identity(self) -> AffineWeylElement:
        return AffineWeylElement((0,) * self.finite.rank, self.finite.identity)


# -- permutations and linear Weyl groups ------------------------------------


def permutation_word(sigma: Sequence[int]) -> Tuple[int, ...]:
    """Reduced word of adjacent transpositions composing to sigma.

    sigma maps position i to sigma[i]; the returned word (i_1, ..., i_k)
    satisfies sigma = s_{i_1} o ... o s_{i_k} as functions, where s_i is
    the transposition of i and i+1.
    """
    sig = list(sigma)
    rev: List[int] = []
    done = False
    while not done:
        done = True
        for i in range(len(sig) - 1):
            if sig[i] > sig[i + 1]:
                sig[i], sig[i + 1] = sig[i + 1], sig[i]
                rev.append(i)
                done = False
                break
    return tuple(reversed(rev))


def weyl_from_permutation(system: CoxeterSystem, sigma: Sequence[int]) -> WeylElement:
    """Linear-type bridge: the element of A_{n-1} acting as sigma on positions."""
    if system.rank != len(sigma) - 1 or not system.name.startswith("A"):
        raise ValueError("system rank does not match the permutation")
    return system.from_word(permutation_word(sigma))


def permutation_from_weyl(w: WeylElement) -> Tuple[int, ...]:
    n = w.system.rank + 1
    sig = list(range(n))
    # compose left to right: swapping positions i, i+1 realises sig o s_i
    for i in w.word:
        sig[i], sig[i + 1] = sig[i + 1], sig[i]
    return tuple(sig)
