"""Numeric evaluation: oracle agreement, symmetries, characters, dimensions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import g2fun as g
from g2fun import C, S, SL, SS, Point, SingularPointError, Weight

from conftest import (
    ALL_FAMILIES,
    oracle_eval,
    random_dominant_weight,
    random_interior_points,
)

TWO_PI = 2.0 * math.pi


def _cos_sum(members, p):
    return 2.0 * sum(
        math.cos(TWO_PI * float(k1 * p[0] + k2 * p[1]))
        for k1, k2 in map(g.rootsys.omega_to_alpha, map(Weight._make, members))
    )


def test_matches_independent_exponential_sum(rng):
    for fam in ALL_FAMILIES:
        for _ in range(8):
            lam = random_dominant_weight(rng, fam)
            for p in random_interior_points(rng, 4):
                got = g.evaluate(fam, lam, p).value
                want = oracle_eval(fam, lam, p)
                # the oracle works in irrational Euclidean coordinates,
                # so its own roundoff grows with the weight height
                assert abs(got - want) < 5e-8, (fam.tag, tuple(lam))


def test_generic_invariant_sum_is_six_cosines(rng):
    for _ in range(25):
        a = int(rng.integers(1, 7))
        b = int(rng.integers(1, 7))
        p = random_interior_points(rng, 1)[0]
        members = [
            (a, b), (a + b, -b), (-a, 3 * a + b), (-a - b, 3 * a + 2 * b),
            (2 * a + b, -3 * a - 2 * b), (-2 * a - b, 3 * a + b),
        ]
        got = g.evaluate(C, Weight(a, b), p).value
        assert abs(got.imag) < 1e-12
        assert abs(got.real - _cos_sum(members, p)) < 1e-12


def test_edge_invariant_sums_are_three_cosines(rng):
    for _ in range(100):
        a = int(rng.integers(1, 9))
        p = random_interior_points(rng, 1)[0]
        long_members = [(a, 0), (-a, 3 * a), (2 * a, -3 * a)]
        got = g.evaluate_real(C, Weight(a, 0), p)
        assert abs(got - _cos_sum(long_members, p)) < 1e-12
        short_members = [(0, a), (a, -a), (-a, 2 * a)]
        got = g.evaluate_real(C, Weight(0, a), p)
        assert abs(got - _cos_sum(short_members, p)) < 1e-12


def test_weyl_covariance(rng):
    for fam in ALL_FAMILIES:
        for _ in range(6):
            lam = random_dominant_weight(rng, fam)
            p = random_interior_points(rng, 1)[0]
            base = g.evaluate(fam, lam, p).value
            for w in g.rootsys.WEYL_GROUP:
                (m11, m12), (m21, m22) = w.matrix
                moved = Point(m11 * p.x1 + m12 * p.x2, m21 * p.x1 + m22 * p.x2)
                value = g.evaluate(fam, lam, moved).value
                assert abs(value - w.sign(fam) * base) < 1e-9


def test_translation_periodicity(rng):
    for fam in ALL_FAMILIES:
        lam = random_dominant_weight(rng, fam)
        p = random_interior_points(rng, 1)[0]
        base = g.evaluate(fam, lam, p).value
        for dx in [(1, 0), (0, 1), (3, -2)]:
            q = Point(p.x1 + dx[0], p.x2 + dx[1])
            assert abs(g.evaluate(fam, lam, q).value - base) < 1e-9


_SHIFT = st.integers(-10**15, 10**15)


@given(
    st.sampled_from(ALL_FAMILIES),
    st.integers(0, 6),
    st.integers(0, 6),
    st.fractions(0, 1, max_denominator=1000),
    st.fractions(0, 1, max_denominator=1000),
    _SHIFT,
    _SHIFT,
)
@settings(max_examples=150, deadline=None)
def test_integer_shifts_of_exact_points_leave_the_value_unchanged(fam, a, b, x1, x2, m, n):
    lam = Weight(a, b)
    base = g.evaluate(fam, lam, Point(x1, x2)).value
    shifted = g.evaluate(fam, lam, Point(x1 + m, x2 + n)).value
    assert abs(shifted - base) <= 1e-12


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("fam", [C, S], ids=["C", "S-inadmissible"])
def test_non_finite_coordinates_are_rejected(fam, bad):
    # the scalar and the vectorized evaluator reject the same points
    for p in [(bad, 0.1), (0.1, bad)]:
        with pytest.raises(ValueError, match="finite"):
            g.evaluate(fam, Weight(1, 0), p)
        with pytest.raises(ValueError, match="finite"):
            g.sample_values(fam, Weight(1, 0), [0.2, p[0]], [0.1, p[1]])


def test_realness_by_family(rng):
    pts = random_interior_points(rng, 10)
    for fam, lam in [(C, Weight(2, 1)), (S, Weight(1, 1))]:
        for p in pts:
            v = g.evaluate(fam, lam, p)
            assert abs(v.value.imag) < 1e-12
            assert v.renormalized == v.value.real
    for fam, lam in [(SL, Weight(1, 0)), (SL, Weight(2, 1)), (SS, Weight(0, 1))]:
        for p in pts:
            v = g.evaluate(fam, lam, p)
            assert abs(v.value.real) < 1e-12
            assert v.renormalized == v.value.imag


def test_inadmissible_weights_evaluate_to_zero():
    cases = [(S, Weight(1, 0)), (S, Weight(0, 1)), (SL, Weight(0, 1)), (SS, Weight(1, 0))]
    for fam, lam in cases:
        v = g.evaluate(fam, lam, Point(0.11, 0.07))
        assert v == (0j, 0.0, False)


def test_nondominant_weight_rejected():
    with pytest.raises(ValueError):
        g.evaluate(C, Weight(-1, 0), Point(0.1, 0.1))
    with pytest.raises(ValueError):
        g.sample_values(C, Weight(0, -2), [0.1], [0.1])


def test_character_of_first_fundamental_weight(rng):
    # ratio for (1,0) equals the sum of the two six-term invariant sums plus 2
    for p in random_interior_points(rng, 20):
        lhs = g.character("full", Weight(1, 0), p)
        rhs = g.evaluate_real(C, Weight(1, 0), p) + g.evaluate_real(C, Weight(0, 1), p) + 2.0
        assert abs(lhs - rhs) < 1e-9


def test_character_errors():
    with pytest.raises(ValueError):
        g.character("bogus", Weight(1, 0), Point(0.1, 0.1))
    with pytest.raises(ValueError):
        g.character("full", Weight(-1, 0), Point(0.1, 0.1))
    with pytest.raises(SingularPointError):
        g.character("full", Weight(1, 0), Point(0.0, 0.0))
    # the long-edge variant's denominator also vanishes on the x1 = 0 wall
    with pytest.raises(SingularPointError):
        g.character("L", Weight(1, 0), Point(0.0, 0.1))


@pytest.mark.parametrize(
    "variant,lam",
    [("full", Weight(1, 1)), ("full", Weight(2, 1)), ("L", Weight(1, 0)), ("S", Weight(0, 2))],
)
def test_character_limit_at_origin_is_dimension(variant, lam):
    # The ratio is even in the ray parameter, so two-level Richardson
    # (eliminating the eps^2 and eps^4 terms) recovers the continuous
    # extension at the origin to ~1e-6 relative.
    def ratio(eps):
        p = Point(0.618033988749895 * eps, 0.381966011250105 * eps)
        return g.character(variant, lam, p, denom_tol=1e-300)

    eps = 2e-2
    rich = (64.0 * ratio(eps / 4) - 20.0 * ratio(eps / 2) + ratio(eps)) / 45.0
    expansion = g.algebra.expand_char_in_C(variant, lam)
    exact = sum(c * len(g.weyl_orbit(mu)) for mu, c in expansion.terms.items())
    if variant == "full":
        assert exact == g.dimension(lam)
    assert abs(rich - exact) / abs(exact) < 1e-4


def test_dimension_fixtures():
    table = {
        (0, 0): 1, (1, 0): 14, (0, 1): 7, (1, 1): 64,
        (2, 0): 77, (0, 2): 27, (0, 3): 77,
        (2, 1): 286, (0, 4): 182, (1, 2): 189, (3, 0): 273,
    }
    for (a, b), want in table.items():
        assert g.dimension(Weight(a, b)) == want
    with pytest.raises(ValueError):
        g.dimension(Weight(-1, 2))


def test_boundary_parity_table():
    want = {
        ("C", "r1"): "symmetric", ("C", "r2"): "symmetric", ("C", "affine"): "symmetric",
        ("S", "r1"): "antisymmetric", ("S", "r2"): "antisymmetric", ("S", "affine"): "antisymmetric",
        ("SL", "r1"): "antisymmetric", ("SL", "r2"): "symmetric", ("SL", "affine"): "antisymmetric",
        ("SS", "r1"): "symmetric", ("SS", "r2"): "antisymmetric", ("SS", "affine"): "symmetric",
    }
    for fam in ALL_FAMILIES:
        for wall in g.WALLS:
            assert g.boundary_parity(fam, wall) == want[(fam.tag, wall)]
    with pytest.raises(ValueError):
        g.boundary_parity(C, "ceiling")


def test_sample_values_matches_scalar_evaluation(rng):
    x1 = rng.uniform(0, 0.5, 17)
    x2 = rng.uniform(0, 0.3, 17)
    for fam, lam in [(C, Weight(2, 1)), (S, Weight(1, 2)), (SL, Weight(1, 1)), (SS, Weight(0, 2))]:
        arr = g.sample_values(fam, lam, x1, x2)
        assert arr.shape == (17,)
        for i in range(17):
            assert abs(arr[i] - g.evaluate_real(fam, lam, (x1[i], x2[i]))) < 1e-12


def test_sample_values_broadcasts():
    x1 = np.linspace(0.05, 0.25, 4)[:, None]
    x2 = np.linspace(0.02, 0.2, 3)[None, :]
    arr = g.sample_values(C, Weight(1, 0), x1, x2)
    assert arr.shape == (4, 3)
