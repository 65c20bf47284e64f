"""Weyl group layer against brute-force oracles and frozen enumerations."""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buildinglab import oracles
from buildinglab.coxeter import (
    AffineSystem,
    CoxeterSystem,
    _identity_mat,
    _is_negative,
    _mat_mul,
    _mat_vec,
    get_system,
    permutation_from_weyl,
    permutation_word,
    regular_translation,
    translation_type,
    weyl_from_permutation,
)
from reference import row_tests

SYSTEMS = ["A1", "A2", "A3", "B2", "C2", "G2"]

# The coset minimisations and the oracles against their element-based
# references in tests/reference.py: one test per row, named by the row.
globals().update(row_tests("test_coxeter"))

# frozen from the word-BFS / dihedral-presentation oracles below
EXPECTED_ORDER = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "C2": 8, "G2": 12}
EXPECTED_LONGEST = {"A1": 1, "A2": 3, "A3": 6, "B2": 4, "C2": 4, "G2": 6}


@pytest.mark.parametrize("name", SYSTEMS)
def test_group_order_against_word_bfs(name):
    sys = get_system(name)
    table = oracles.word_metric_table(sys)
    assert len(table) == EXPECTED_ORDER[name]
    assert sys.order() == EXPECTED_ORDER[name]


@pytest.mark.parametrize("name,m", [("B2", 4), ("C2", 4), ("G2", 6)])
def test_dihedral_presentation(name, m):
    sys = get_system(name)
    braid = sys.simple(0) * sys.simple(1)
    acc = sys.identity
    for k in range(1, m):
        acc = acc * braid
        assert not acc.is_identity()
    assert (acc * braid).is_identity()
    assert sys.order() == len(oracles.dihedral_model(m)) == 2 * m


@pytest.mark.parametrize("name", SYSTEMS)
def test_length_equals_bfs_distance_and_inversions(name):
    sys = get_system(name)
    table = oracles.word_metric_table(sys)
    for w in sys.elements():
        assert w.length == table[w.mat]
        assert w.length == oracles.roots_sent_negative(sys, w)


@pytest.mark.parametrize("name", SYSTEMS)
def test_tables_against_matrix_representation(name):
    """Every table entry, checked exhaustively on the matrices."""
    sys = get_system(name)
    els = sys.elements()
    assert els == sorted(els, key=lambda w: (w.length, w.word))
    ident = _identity_mat(sys.rank)
    for a in els:
        assert a.inverse().mat == els[sys._inv[a.index]].mat == a.inv_mat
        assert _mat_mul(a.mat, a.inverse().mat) == ident
        for i in range(sys.rank):
            alpha = sys.alpha(i)
            assert (i in a.left_descents()) == _is_negative(_mat_vec(a.inv_mat, alpha))
            assert (i in sys._right_descents[a.index]) == _is_negative(_mat_vec(a.mat, alpha))
            s_i = sys.simple(i).mat
            assert els[sys._right[a.index][i]].mat == _mat_mul(a.mat, s_i)
            assert els[sys._left[a.index][i]].mat == _mat_mul(s_i, a.mat)
        for b in els:
            assert (a * b).mat == els[sys._mul[a.index][b.index]].mat == _mat_mul(a.mat, b.mat)
            assert sys.separating_walls(a, b) == oracles.separating_walls_by_sides(sys, a, b)


@pytest.mark.parametrize("name", SYSTEMS)
def test_shortlex_normal_form(name):
    sys = get_system(name)
    for w in sys.elements():
        words = oracles.all_reduced_words(w)
        assert w.word == min(words)
        assert sys.from_word(w.word) == w


@pytest.mark.parametrize("name", SYSTEMS)
def test_longest_element(name):
    sys = get_system(name)
    w0 = sys.longest_element()
    assert w0.length == EXPECTED_LONGEST[name]
    assert w0.length == len(sys.positive_roots())
    assert (w0 * w0).is_identity()
    assert w0.left_descents() == frozenset(range(sys.rank))


@pytest.mark.parametrize("name", SYSTEMS)
def test_descent_criteria(name):
    sys = get_system(name)
    for w in sys.elements():
        for i in range(sys.rank):
            assert (i in w.left_descents()) == ((sys.simple(i) * w).length < w.length)
            assert (i in sys._right_descents[w.index]) == ((w * sys.simple(i)).length < w.length)


@pytest.mark.parametrize("name", ["A2", "A3", "B2", "G2"])
def test_min_coset_reps_exhaustive(name):
    sys = get_system(name)
    none = frozenset()
    for J in oracles.subsets(sys.rank):
        right = oracles.coset_minima(sys, none, J)
        left = oracles.coset_minima(sys, J, none)
        for w in sys.elements():
            fast = sys.min_coset_rep(w, J)
            assert right[w] == (fast, 1)
            assert left[w] == (sys.min_coset_rep_left(J, w), 1)
            # additive-length splitting of the coset
            u = fast.inverse() * w
            assert fast.length + u.length == w.length


@pytest.mark.parametrize("name", ["A2", "A3", "B2"])
def test_min_double_coset_reps(name):
    sys = get_system(name)
    for I in oracles.subsets(sys.rank):
        for J in oracles.subsets(sys.rank):
            brute = oracles.coset_minima(sys, I, J)
            for w in sys.elements():
                assert brute[w] == (sys.min_double_coset_rep(I, w, J), 1)


class _WrongA2(CoxeterSystem):
    """A2 whose library answers are wrong at one element of the four-element
    double coset W_{0} e W_{1}, at the projection of s1 s0 to W_{1} and at the
    hull of (e, s0 s1)."""

    def __init__(self):
        super().__init__("A2")

    def min_double_coset_rep(self, I, w, J):
        if (I, w.word, J) == ({0}, (0,), {1}):
            return w
        return super().min_double_coset_rep(I, w, J)

    def min_coset_rep_left(self, I, w):
        if (I, w.word) == ({1}, (1, 0)):
            return w
        return super().min_coset_rep_left(I, w)

    def convex_hull(self, c, d):
        if (c.word, d.word) == ((), (0, 1)):
            return frozenset({c, d})
        return super().convex_hull(c, d)


def test_shared_enumeration_reports_every_wrong_answer():
    """Each member of a coset is checked against the coset's shared minimum,
    so a wrong answer at one member is a failure however the coset is
    enumerated.  The list is the one a per-element enumeration gives: the
    wrong projection also makes min_double_coset_rep wrong wherever its
    reduction passes through s1 s0 with I = {1}."""
    checks, failures = oracles.check_system(_WrongA2())
    assert checks == {"double-coset": 96, "residue-type": 96, "projection": 144,
                      "separating-walls": 36, "hull-pairs": 36}
    assert failures == [
        "A2 double-coset [0] (0,) [1]",
        "A2 double-coset [1] (1, 0) []",
        "A2 double-coset [1] (1, 0) [1]",
        "A2 double-coset [1] (0, 1, 0) [1]",
        "A2 hull e s0*s1",
        "A2 projection [1] e s1*s0",
        "A2 projection [1] s0 s0*s1*s0",
        "A2 projection [1] s1 s0",
        "A2 projection [1] s0*s1 e",
        "A2 projection [1] s1*s0 s0*s1",
        "A2 projection [1] s0*s1*s0 s1",
    ]


@pytest.mark.parametrize("name", ["A2", "A3", "B2", "G2"])
def test_residue_gate(name):
    sys = get_system(name)
    rng = random.Random(11)
    for _ in range(40):
        r = rng.choice(sys.elements())
        c = rng.choice(sys.elements())
        J = rng.choice(oracles.subsets(sys.rank))
        gate = sys.project_to_residue(r, J, c)
        assert gate == oracles.gate_by_enumeration(sys, r, J, c)
        # gate property: distances to residue chambers factor through the gate
        for u in sys.parabolic(J):
            y = r * u
            dcg = (c.inverse() * gate).length
            dgy = (gate.inverse() * y).length
            assert (c.inverse() * y).length == dcg + dgy


@pytest.mark.parametrize("name", ["A2", "A3", "B2", "G2"])
def test_separating_walls(name):
    sys = get_system(name)
    rng = random.Random(5)
    for _ in range(60):
        c = rng.choice(sys.elements())
        d = rng.choice(sys.elements())
        walls = sys.separating_walls(c, d)
        assert walls == oracles.separating_walls_by_sides(sys, c, d)
        assert len(walls) == (c.inverse() * d).length


@pytest.mark.parametrize("name", ["A2", "A3", "B2", "G2"])
def test_convex_hull_two_oracles(name):
    sys = get_system(name)
    rng = random.Random(17)
    for _ in range(25):
        c = rng.choice(sys.elements())
        d = rng.choice(sys.elements())
        hull = sys.convex_hull(c, d)
        assert hull == oracles.hull_by_gallery_bfs(sys, c, d)
        assert hull == oracles.hull_by_halfspace_intersection(sys, c, d)
        assert hull == oracles.hull_by_walls(sys, c, d)
        assert c in hull and d in hull


@pytest.mark.parametrize("name", SYSTEMS)
def test_gallery_distance_table(name):
    sys = get_system(name)
    for a in sys.elements():
        for b in sys.elements():
            assert sys._distances[a.index][b.index] == (a.inverse() * b).length


@pytest.mark.parametrize("name", ["A1", "C2"])
def test_convex_hull_every_pair(name):
    """Every pair in the two systems the coxeter-oracle preset leaves out."""
    sys = get_system(name)
    for c in sys.elements():
        for d in sys.elements():
            assert sys.convex_hull(c, d) == oracles.hull_by_walls(sys, c, d)


@pytest.mark.parametrize("name", ["A2", "A3", "C2"])
def test_translation_types_and_stabilizers(name):
    sys = get_system(name)
    for I in oracles.subsets(sys.rank):
        v = regular_translation(sys, I)
        assert translation_type(v) == I
        # the stabilizer of a type-I dominant vector is exactly W_I
        stab = oracles.coweight_stabilizer(sys, v)
        assert stab == frozenset(sys.parabolic(I))


@pytest.mark.parametrize("name", SYSTEMS)
def test_coweight_action_pairing_invariance(name):
    sys = get_system(name)
    rng = random.Random(23)
    for _ in range(50):
        w = rng.choice(sys.elements())
        v = tuple(rng.randrange(-4, 5) for _ in range(sys.rank))
        beta = rng.choice(sorted(sys.positive_roots()))
        image = zip(w.apply_coweight(v), _mat_vec(w.mat, beta))
        assert sum(a * b for a, b in image) == sum(a * b for a, b in zip(v, beta))


@pytest.mark.parametrize("name", ["A~1", "A~2", "A~3", "C~2"])
def test_affine_group_laws(name):
    aff = AffineSystem(name)
    sys = aff.finite
    rng = random.Random(31)
    els = []
    for _ in range(8):
        v = tuple(rng.randrange(-3, 4) for _ in range(sys.rank))
        els.append(aff.element(v, rng.choice(sys.elements())))
    for a in els:
        assert (a * a.inverse()) == aff.identity
        assert (a.inverse() * a) == aff.identity
    for a in els[:4]:
        for b in els[:4]:
            for c in els[:4]:
                assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("name", ["A~2", "A~3", "C~2"])
def test_translation_conjugation(name):
    aff = AffineSystem(name)
    sys = aff.finite
    rng = random.Random(37)
    for _ in range(20):
        v = tuple(rng.randrange(-3, 4) for _ in range(sys.rank))
        w = rng.choice(sys.elements())
        g = aff.element((0,) * sys.rank, w)
        conj = g * aff.translation(v) * g.inverse()
        assert conj.is_translation()
        assert conj.translation == w.apply_coweight(v)


@pytest.mark.parametrize("name", ["A~2", "A~3", "C~2"])
def test_affine_translation_type_roundtrip(name):
    aff = AffineSystem(name)
    sys = aff.finite
    for I in oracles.subsets(sys.rank):
        t = aff.translation(regular_translation(sys, I))
        assert t.translation_type() == I
    mixed = aff.element((1,) * sys.rank, sys.simple(0))
    with pytest.raises(ValueError):
        mixed.translation_type()


def test_permutation_word_composes():
    for n in (2, 3, 4, 5):
        for sigma in permutations(range(n)):
            word = permutation_word(sigma)
            assert oracles.compose_transpositions(n, word) == sigma
            assert len(word) == oracles.permutation_inversions(sigma)


def test_permutation_weyl_bridge_roundtrip():
    sys = get_system("A3")
    for sigma in permutations(range(4)):
        w = weyl_from_permutation(sys, sigma)
        assert permutation_from_weyl(w) == sigma
        assert w.length == oracles.permutation_inversions(sigma)
    # multiplication corresponds to composition of functions
    rng = random.Random(41)
    for _ in range(30):
        s1 = tuple(rng.sample(range(4), 4))
        s2 = tuple(rng.sample(range(4), 4))
        w = weyl_from_permutation(sys, s1) * weyl_from_permutation(sys, s2)
        comp = tuple(s1[s2[i]] for i in range(4))
        assert permutation_from_weyl(w) == comp


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["A2", "A3", "B2", "G2"]),
    st.integers(0, 10**9),
    st.integers(0, 10**9),
)
def test_length_subadditivity_and_parity(name, ia, ib):
    sys = get_system(name)
    els = sys.elements()
    u, v = els[ia % len(els)], els[ib % len(els)]
    w = u * v
    assert w.length <= u.length + v.length
    assert (w.length - u.length - v.length) % 2 == 0
    assert w.inverse().length == w.length
