"""Root-system combinatorics: reflections, orbits, signs, folding."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import g2fun as g
from g2fun import C, S, SL, SS, Point, Weight

from conftest import (
    POINT_MATRICES,
    WEYL_EUCLID,
    ALPHA1,
    ALPHA2,
    ALPHA1V,
    ALPHA2V,
    OMEGA1,
    OMEGA2,
    OMEGA1V,
    OMEGA2V,
    R1_EUCLID,
    R2_EUCLID,
    affine_equivalent,
    point_vec,
    weight_vec,
)

# ------------------------------------------------------------ basis data


def test_euclidean_realization_is_consistent():
    # squared lengths 2 and 2/3, Cartan integers -3 and -1
    assert np.isclose(ALPHA1 @ ALPHA1, 2.0)
    assert np.isclose(ALPHA2 @ ALPHA2, 2.0 / 3.0)
    assert np.isclose(ALPHA1 @ ALPHA2V, -3.0)
    assert np.isclose(ALPHA2 @ ALPHA1V, -1.0)
    # weights dual to co-roots, co-weights dual to roots
    assert np.isclose(OMEGA1 @ ALPHA1V, 1.0) and np.isclose(OMEGA1 @ ALPHA2V, 0.0)
    assert np.isclose(OMEGA2 @ ALPHA1V, 0.0) and np.isclose(OMEGA2 @ ALPHA2V, 1.0)
    assert np.isclose(OMEGA1V @ ALPHA1, 1.0) and np.isclose(OMEGA1V @ ALPHA2, 0.0)
    assert np.isclose(OMEGA2V @ ALPHA1, 0.0) and np.isclose(OMEGA2V @ ALPHA2, 1.0)


def test_cartan_matrix_and_inverse():
    c = np.array(g.rootsys.CARTAN)
    cinv = np.array(g.rootsys.CARTAN_INV)
    assert (c == np.array([[2, -3], [-1, 2]])).all()
    assert (c @ cinv == np.eye(2)).all()


@given(st.integers(-9, 9), st.integers(-9, 9))
def test_alpha_coordinates_roundtrip(a, b):
    w = Weight(a, b)
    k1, k2 = g.rootsys.omega_to_alpha(w)
    assert g.rootsys.alpha_to_omega(k1, k2) == w
    assert g.height(w) == k1 + k2


@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=40),
    st.fractions(min_value=-3, max_value=3, max_denominator=40),
    st.integers(1, 2),
)
def test_reflect_point_matches_euclid(x1, x2, k):
    p = Point(x1, x2)
    r = g.rootsys.reflect_point(k, p)
    mat = R1_EUCLID if k == 1 else R2_EUCLID
    assert np.allclose(point_vec(r), mat @ point_vec(p), atol=1e-9)


@given(
    st.integers(-9, 9),
    st.integers(-9, 9),
    st.fractions(min_value=-2, max_value=2, max_denominator=30),
    st.fractions(min_value=-2, max_value=2, max_denominator=30),
)
def test_pairing_matches_euclidean_dot(a, b, x1, x2):
    w, p = Weight(a, b), Point(x1, x2)
    k1, k2 = g.rootsys.omega_to_alpha(w)
    assert np.isclose(float(k1 * p.x1 + k2 * p.x2), weight_vec(w) @ point_vec(p), atol=1e-9)


def test_affine_reflection_fixes_the_slant_wall():
    p = Point(Fraction(1, 5), Fraction(1, 5))  # 2/5 + 3/5 = 1
    assert g.rootsys.affine_reflect(p) == p
    q = Point(Fraction(1, 10), Fraction(1, 10))
    r = g.rootsys.affine_reflect(q)
    assert r == Point(Fraction(3, 5), Fraction(1, 10))
    assert g.rootsys.affine_reflect(r) == q


def test_weyl_group_table_matches_independent_closures():
    table = g.rootsys.WEYL_GROUP
    assert table[0].matrix == ((1, 0), (0, 1)) and table[0].parity == (0, 0)
    assert sorted(w.matrix for w in table) == POINT_MATRICES
    # each integer matrix is a Euclidean group element with the same letter parities
    basis = [point_vec((1, 0)), point_vec((0, 1))]
    for w in table:
        images = [point_vec((w.matrix[0][j], w.matrix[1][j])) for j in (0, 1)]
        (_, s1, s2), = [
            e for e in WEYL_EUCLID
            if all(np.allclose(e[0] @ v, u) for v, u in zip(basis, images))
        ]
        assert (s1, s2) == ((-1) ** w.parity[0], (-1) ** w.parity[1])
        for fam in (C, S, SL, SS):
            want = (s1 if fam.sigma_r1 < 0 else 1) * (s2 if fam.sigma_r2 < 0 else 1)
            assert w.sign(fam) == want


def test_family_by_tag():
    for fam in (C, S, SL, SS):
        assert g.rootsys.family_by_tag(fam.tag) is fam
    for bad in ("Q", "c", None, ["C"]):
        with pytest.raises(ValueError, match="choose from C, S, SL, SS"):
            g.rootsys.family_by_tag(bad)


# ------------------------------------------------------------ orbits and signs


def test_orbit_sizes():
    assert len(g.weyl_orbit(Weight(0, 0))) == 1
    assert len(g.weyl_orbit(Weight(3, 0))) == 6
    assert len(g.weyl_orbit(Weight(0, 2))) == 6
    assert len(g.weyl_orbit(Weight(2, 1))) == 12


@pytest.mark.parametrize("a,b", [(2, 1), (5, 3)])
def test_generic_orbit_members(a, b):
    expected = {
        (a, b), (-a, 3 * a + b), (a + b, -b), (2 * a + b, -3 * a - b),
        (-a - b, 3 * a + 2 * b), (-2 * a - b, 3 * a + 2 * b),
        (2 * a + b, -3 * a - 2 * b), (a + b, -3 * a - 2 * b),
        (-2 * a - b, 3 * a + b), (-a - b, b), (a, -3 * a - b), (-a, -b),
    }
    assert set(map(tuple, g.weyl_orbit(Weight(a, b)))) == expected


def test_orbit_contains_negatives():
    for lam in [Weight(1, 0), Weight(0, 1), Weight(2, 1), Weight(3, 2)]:
        orb = set(map(tuple, g.weyl_orbit(lam)))
        assert {(-u, -v) for u, v in orb} == orb


# sign of each generic orbit member for (C, S, SS, SL)
GENERIC_SIGNS = [
    (lambda a, b: (a, b), (1, 1, 1, 1)),
    (lambda a, b: (-a, 3 * a + b), (1, -1, 1, -1)),
    (lambda a, b: (a + b, -b), (1, -1, -1, 1)),
    (lambda a, b: (2 * a + b, -3 * a - b), (1, 1, -1, -1)),
    (lambda a, b: (-a - b, 3 * a + 2 * b), (1, 1, -1, -1)),
    (lambda a, b: (-2 * a - b, 3 * a + 2 * b), (1, -1, -1, 1)),
    (lambda a, b: (2 * a + b, -3 * a - 2 * b), (1, -1, 1, -1)),
    (lambda a, b: (a + b, -3 * a - 2 * b), (1, 1, 1, 1)),
    (lambda a, b: (-2 * a - b, 3 * a + b), (1, 1, 1, 1)),
    (lambda a, b: (-a - b, b), (1, -1, 1, -1)),
    (lambda a, b: (a, -3 * a - b), (1, -1, -1, 1)),
    (lambda a, b: (-a, -b), (1, 1, -1, -1)),
]


@pytest.mark.parametrize("a,b", [(2, 1), (5, 3), (1, 1)])
def test_generic_orbit_signs(a, b):
    lam = Weight(a, b)
    for fam, col in zip((C, S, SS, SL), range(4)):
        signs = {w: s for w, s in g.signed_orbit(fam, lam)}
        for member, cols in GENERIC_SIGNS:
            mu = Weight(*member(a, b))
            assert signs[mu] == cols[col], (fam.tag, tuple(mu))


@pytest.mark.parametrize("a", [1, 2, 4])
def test_long_edge_orbit_signs(a):
    # members of the orbit of (a, 0) with their SL signs
    expected = {
        (a, 0): 1, (-a, 3 * a): -1, (2 * a, -3 * a): -1,
        (-2 * a, 3 * a): 1, (a, -3 * a): 1, (-a, 0): -1,
    }
    signs = {tuple(w): s for w, s in g.signed_orbit(SL, Weight(a, 0))}
    assert signs == expected
    assert all(s == 1 for _, s in g.signed_orbit(C, Weight(a, 0)))


@pytest.mark.parametrize("b", [1, 2, 5])
def test_short_edge_orbit_signs(b):
    expected = {
        (0, b): 1, (b, -b): -1, (-b, 2 * b): -1,
        (b, -2 * b): 1, (-b, b): 1, (0, -b): -1,
    }
    signs = {tuple(w): s for w, s in g.signed_orbit(SS, Weight(0, b))}
    assert signs == expected


def test_admissibility():
    assert g.is_admissible(C, Weight(0, 0))
    assert not g.is_admissible(S, Weight(1, 0))
    assert not g.is_admissible(S, Weight(0, 1))
    assert g.is_admissible(S, Weight(1, 1))
    assert g.is_admissible(SL, Weight(1, 0))
    assert not g.is_admissible(SL, Weight(0, 1))
    assert not g.is_admissible(SS, Weight(1, 0))
    assert g.is_admissible(SS, Weight(0, 1))
    assert g.signed_orbit(S, Weight(2, 0)) == ()


def _reflection_loop_dominantize(fam, w):
    # Simple reflections until dominant, r1 first, accumulating the sign;
    # a dominant weight on a wall the family alternates across gets 0.
    a, b = w
    sign = 1
    while a < 0 or b < 0:
        if a < 0:
            a, b = -a, 3 * a + b
            sign *= fam.sigma_r1
        else:
            a, b = a + b, -b
            sign *= fam.sigma_r2
    if (a == 0 and fam.sigma_r1 < 0) or (b == 0 and fam.sigma_r2 < 0):
        sign = 0
    return Weight(a, b), sign


@given(st.integers(-12, 12), st.integers(-12, 12))
def test_dominantize_lands_in_orbit(a, b):
    w = Weight(a, b)
    for fam in (C, S, SL, SS):
        folded = g.dominantize(fam, w)
        assert tuple(folded) == _reflection_loop_dominantize(fam, w)
        assert folded.weight.is_dominant
        assert tuple(w) in set(map(tuple, g.weyl_orbit(folded.weight)))
        if folded.sign != 0:
            assert dict(g.signed_orbit(fam, folded.weight))[w] == folded.sign


@given(st.integers(0, 30), st.integers(0, 30))
def test_stabilizer_times_orbit_is_the_group_order(a, b):
    lam = Weight(a, b)
    assert len(g.rootsys.stabilizer(lam)) * len(g.weyl_orbit(lam)) == 12
    for fam in (C, S, SL, SS):
        assert g.is_admissible(fam, lam) == (
            (a > 0 or fam.sigma_r1 > 0) and (b > 0 or fam.sigma_r2 > 0)
        )


def test_signed_orbit_requires_dominant():
    with pytest.raises(ValueError):
        g.signed_orbit(C, Weight(-1, 2))


# ------------------------------------------------------------ folding


def _reflection_loop_fold(p):
    # Reduce mod 1, then reflect through whichever bounding wall of F is
    # violated until none is.
    x1 = Fraction(p.x1) % 1
    x2 = Fraction(p.x2) % 1
    while True:
        if x1 < 0:
            x1, x2 = -x1, x1 + x2
        elif x2 < 0:
            x1, x2 = x1 + 3 * x2, -x2
        elif 2 * x1 + 3 * x2 > 1:
            x1, x2 = 1 - x1 - 3 * x2, x2
        else:
            return Point(x1, x2)


_COORDS = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=120),
    st.floats(min_value=-4, max_value=4),
)


@given(_COORDS, _COORDS, st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=150, deadline=None)
def test_fold_is_affine_weyl_invariant_and_equals_reflection_loop(x1, x2, v1, v2):
    p = Point(x1, x2)
    q = g.fold_to_F(p)
    assert q == _reflection_loop_fold(p)
    x1, x2 = Fraction(x1), Fraction(x2)
    for w in g.rootsys.WEYL_GROUP:
        (m11, m12), (m21, m22) = w.matrix
        moved = Point(m11 * x1 + m12 * x2 + v1, m21 * x1 + m22 * x2 + v2)
        assert g.fold_to_F(moved) == q


def test_fold_regression_case_that_cycles_under_naive_mod():
    p = g.fold_to_F(Point(Fraction(19, 20), Fraction(3, 10)))
    assert p == Point(Fraction(1, 20), Fraction(1, 4))


@given(
    st.fractions(min_value=-4, max_value=4, max_denominator=60),
    st.fractions(min_value=-4, max_value=4, max_denominator=60),
)
@settings(max_examples=150, deadline=None)
def test_fold_properties(x1, x2):
    p = Point(x1, x2)
    q = g.fold_to_F(p)
    assert q.in_fundamental_domain
    assert g.fold_to_F(q) == q
    assert affine_equivalent(p, q)
    # evaluation of any symmetric function agrees before/after folding
    v0 = g.evaluate(C, Weight(1, 1), p).value
    v1 = g.evaluate(C, Weight(1, 1), q).value
    assert abs(v0 - v1) < 1e-9


@given(
    st.fractions(min_value=-2, max_value=2, max_denominator=48),
    st.fractions(min_value=-2, max_value=2, max_denominator=48),
)
@settings(max_examples=100, deadline=None)
def test_fold_is_even(x1, x2):
    assert g.fold_to_F(Point(x1, x2)) == g.fold_to_F(Point(-x1, -x2))


def test_fold_fixes_fundamental_domain_points(rng):
    for _ in range(20):
        u, v = rng.uniform(0, 1, 2)
        x1 = Fraction(round(u * 500), 1000)
        x2 = Fraction(round(v * 333 * (1 - 2 * x1 / 1)), 1000)
        p = Point(x1, x2)
        if p.in_fundamental_domain:
            assert g.fold_to_F(p) == p


# ------------------------------------------------------------ Kac coordinates


def test_kac_point_validation():
    kp = g.kac_point(1, 1, 1, 6)
    assert kp.point() == Point(Fraction(1, 6), Fraction(1, 6))
    with pytest.raises(ValueError):
        g.kac_point(1, 1, 1, 5)  # sum rule violated
    with pytest.raises(ValueError):
        g.kac_point(-1, 1, 2, 7)


@given(st.integers(1, 40))
def test_point_to_kac_roundtrip(M):
    # KacPoint.point is exact: scaling by M gives back integer s1, s2
    for kp in g.grid_points(M).points:
        s1, s2 = (M * x for x in kp.point())
        assert s1.denominator == s2.denominator == 1
        assert g.kac_point(M - 2 * int(s1) - 3 * int(s2), int(s1), int(s2), M) == kp
