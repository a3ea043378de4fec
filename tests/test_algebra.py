"""Symbolic product decomposition, character expansions, and inversion."""

import json

import pytest

import g2fun as g
from g2fun import C, S, SL, SS, OrbitSum, Weight

from conftest import ALL_FAMILIES, random_dominant_weight
from g2fun.algebra import random_interior_points


def _sum(family, pairs):
    terms = {}
    for (a, b), c in pairs:
        w = Weight(a, b)
        terms[w] = terms.get(w, 0) + c
    return OrbitSum(family, terms)


# ------------------------------------------------------------ family algebra


def test_target_family_is_the_klein_group():
    table = {
        ("C", "C"): C, ("C", "S"): S, ("C", "SL"): SL, ("C", "SS"): SS,
        ("S", "S"): C, ("S", "SL"): SS, ("S", "SS"): SL,
        ("SL", "SL"): C, ("SL", "SS"): S,
        ("SS", "SS"): C,
    }
    for fa in ALL_FAMILIES:
        for fb in ALL_FAMILIES:
            key = (fa.tag, fb.tag) if (fa.tag, fb.tag) in table else (fb.tag, fa.tag)
            assert g.target_family(fa, fb) == table[key]
            assert g.target_family(fa, fb) == g.target_family(fb, fa)


# ------------------------------------------------------------ product fixtures

# the three lowest products, with fully explicit coefficients
LOW_PRODUCTS = [
    (C, (1, 0), C, (1, 0), C, [((2, 0), 1), ((1, 0), 2), ((0, 3), 2), ((0, 0), 6)]),
    (C, (0, 1), C, (0, 1), C, [((0, 2), 1), ((0, 1), 2), ((1, 0), 2), ((0, 0), 6)]),
    (C, (0, 1), C, (1, 0), C, [((1, 1), 1), ((0, 2), 2), ((0, 1), 2)]),
]


@pytest.mark.parametrize("fa,la,fb,lb,ft,pairs", LOW_PRODUCTS)
def test_low_products(fa, la, fb, lb, ft, pairs):
    got = g.expand_product(fa, Weight(*la), fb, Weight(*lb))
    assert got.family == ft
    assert got == _sum(ft, pairs)


def _generic_fixture(fa, fb, a, b):
    """The closed-form product of two same-weight functions at generic (a, b)."""
    # coefficient attached to each structural exponent, per factor-family pair
    key = frozenset((fa.tag, fb.tag))
    rows = {
        frozenset(("C",)): [12, 1, 2, 2, 2, 2, 2, 2, 2, 2],
        frozenset(("S",)): [12, 1, 2, -2, -2, -2, -2, 2, -2, -2],
        frozenset(("SL",)): [-12, 1, 2, 2, 2, -2, 2, -2, -2, -2],
        frozenset(("SS",)): [-12, 1, 2, -2, -2, 2, -2, -2, 2, 2],
        frozenset(("C", "S")): [0, 1, 2, 0, 0, 0, 0, -2, 0, 0],
        frozenset(("C", "SL")): [0, 1, -2, -2, -2, 0, 2, 0, 0, 0],
        frozenset(("C", "SS")): [0, 1, -2, 0, 0, -2, 0, 0, -2, 2],
        frozenset(("S", "SL")): [0, 1, -2, 0, 0, 2, 0, 0, 2, -2],
        frozenset(("S", "SS")): [0, 1, -2, 2, 2, 0, -2, 0, 0, 0],
        frozenset(("SL", "SS")): [0, 1, 2, 0, 0, 0, 0, 2, 0, 0],
    }[key]
    exponents = [
        (0, 0), (2 * a, 2 * b), (a, b), (a + b, 0), (a, 0), (0, b),
        (2 * a + b, 0), (b, 3 * a), (0, 3 * a + b), (0, 3 * a + 2 * b),
    ]
    return _sum(g.target_family(fa, fb), [(e, c) for e, c in zip(exponents, rows) if c])


@pytest.mark.parametrize("fa,fb", [
    (C, C), (S, S), (SL, SL), (SS, SS), (C, S),
    (C, SL), (C, SS), (S, SL), (S, SS), (SL, SS),
])
def test_generic_same_weight_products(fa, fb):
    for a in range(1, 7):
        for b in range(1, 7):
            lam = Weight(a, b)
            got = g.expand_product(fa, lam, fb, lam)
            assert got == _generic_fixture(fa, fb, a, b), (fa.tag, fb.tag, a, b)


@pytest.mark.parametrize("a", range(1, 7))
def test_long_edge_squares(a):
    got = g.expand_product(C, Weight(a, 0), C, Weight(a, 0))
    assert got == _sum(C, [((0, 0), 6), ((2 * a, 0), 1), ((a, 0), 2), ((0, 3 * a), 2)])
    got = g.expand_product(C, Weight(a, 0), SL, Weight(a, 0))
    assert got == _sum(SL, [((2 * a, 0), 1), ((a, 0), -2)])
    got = g.expand_product(SL, Weight(a, 0), SL, Weight(a, 0))
    assert got == _sum(C, [((0, 0), -6), ((2 * a, 0), 1), ((a, 0), 2), ((0, 3 * a), -2)])


@pytest.mark.parametrize("b", range(1, 7))
def test_short_edge_squares(b):
    got = g.expand_product(C, Weight(0, b), C, Weight(0, b))
    assert got == _sum(C, [((0, 0), 6), ((0, 2 * b), 1), ((0, b), 2), ((b, 0), 2)])
    got = g.expand_product(C, Weight(0, b), SS, Weight(0, b))
    assert got == _sum(SS, [((0, 2 * b), 1), ((0, b), -2)])
    got = g.expand_product(SS, Weight(0, b), SS, Weight(0, b))
    assert got == _sum(C, [((0, 0), -6), ((0, 2 * b), 1), ((0, b), 2), ((b, 0), -2)])


def test_identity_element_of_the_product():
    for fam in ALL_FAMILIES:
        lam = Weight(2, 1)
        got = g.expand_product(C, Weight(0, 0), fam, lam)
        assert got == OrbitSum(fam, {lam: 1})


def test_inadmissible_factor_gives_zero_sum():
    out = g.expand_product(S, Weight(1, 0), C, Weight(1, 1))
    assert out.is_zero and out.family == S
    with pytest.raises(ValueError):
        g.expand_product(C, Weight(-1, 0), C, Weight(1, 0))


def test_product_is_commutative(rng):
    for _ in range(10):
        fa, fb = rng.choice(ALL_FAMILIES, 2)
        la = random_dominant_weight(rng, fa, hi=5)
        lb = random_dominant_weight(rng, fb, hi=5)
        ab = g.expand_product(fa, la, fb, lb)
        ba = g.expand_product(fb, lb, fa, la)
        assert ab.family == ba.family and ab.terms == ba.terms


def test_coefficient_mass_counts_pairwise_sums(rng):
    # with no signs, every pair of orbit members lands somewhere
    for _ in range(10):
        la = random_dominant_weight(rng, C, hi=6)
        lb = random_dominant_weight(rng, C, hi=6)
        out = g.expand_product(C, la, C, lb)
        mass = sum(c * len(g.weyl_orbit(w)) for w, c in out.terms.items())
        assert mass == len(g.weyl_orbit(la)) * len(g.weyl_orbit(lb))


def test_random_products_match_pointwise_evaluation(rng):
    for _ in range(20):
        fa, fb = rng.choice(ALL_FAMILIES, 2)
        la = random_dominant_weight(rng, fa, hi=8)
        lb = random_dominant_weight(rng, fb, hi=8)
        out = g.expand_product(fa, la, fb, lb)
        assert g.product_check(fa, la, fb, lb, out, n=10, seed=int(rng.integers(1 << 30))) < 1e-9


@pytest.mark.parametrize("n", [0, -5])
def test_product_check_needs_a_positive_count(n):
    out = g.expand_product(C, Weight(1, 0), C, Weight(1, 0))
    with pytest.raises(ValueError, match="positive"):
        g.product_check(C, Weight(1, 0), C, Weight(1, 0), out, n=n)


# ------------------------------------------------------------ character lines

CHAR_LINES = {
    ("full", (1, 0)): [((1, 0), 1), ((0, 1), 1), ((0, 0), 2)],
    ("L", (1, 0)): [((1, 0), 1), ((0, 0), 2)],
    ("S", (1, 0)): [((1, 0), 1), ((0, 1), 2), ((0, 0), 2)],
    ("full", (0, 1)): [((0, 1), 1), ((0, 0), 1)],
    ("L", (0, 1)): [((0, 1), 1)],
    ("S", (0, 1)): [((0, 1), 1), ((0, 0), 2)],
    ("full", (1, 1)): [((1, 1), 1), ((0, 2), 2), ((1, 0), 2), ((0, 1), 4), ((0, 0), 4)],
    ("L", (1, 1)): [((1, 1), 1), ((0, 2), 1), ((0, 1), 2)],
    ("S", (1, 1)): [((1, 1), 1), ((0, 2), 2), ((1, 0), 3), ((0, 1), 4), ((0, 0), 4)],
    ("full", (2, 0)): [((2, 0), 1), ((0, 3), 1), ((1, 1), 1), ((0, 2), 2), ((1, 0), 3), ((0, 1), 3), ((0, 0), 5)],
    ("L", (2, 0)): [((2, 0), 1), ((0, 3), 1), ((1, 0), 2), ((0, 0), 3)],
    ("S", (2, 0)): [((2, 0), 1), ((1, 1), 1), ((0, 2), 2), ((1, 0), 2), ((0, 1), 2), ((0, 0), 2)],
    ("full", (0, 2)): [((0, 2), 1), ((1, 0), 1), ((0, 1), 2), ((0, 0), 3)],
    ("L", (0, 2)): [((0, 2), 1), ((0, 1), 1)],
    ("S", (0, 2)): [((0, 2), 1), ((1, 0), 1), ((0, 1), 2), ((0, 0), 3)],
    ("full", (0, 3)): [((0, 3), 1), ((1, 1), 1), ((0, 2), 2), ((1, 0), 3), ((0, 1), 4), ((0, 0), 5)],
    ("L", (0, 3)): [((0, 3), 1), ((1, 0), 2), ((0, 0), 2)],
    ("S", (0, 3)): [((0, 3), 1), ((1, 1), 1), ((0, 2), 2), ((1, 0), 2), ((0, 1), 3), ((0, 0), 4)],
}


@pytest.mark.parametrize("variant,lam", sorted(CHAR_LINES))
def test_character_expansion_lines(variant, lam):
    got = g.expand_char_in_C(variant, Weight(*lam))
    assert got == _sum(C, CHAR_LINES[(variant, lam)])


def test_character_expansion_of_trivial_weight():
    for variant in ("full", "L", "S"):
        got = g.expand_char_in_C(variant, Weight(0, 0))
        assert got == OrbitSum(C, {Weight(0, 0): 1})
    with pytest.raises(ValueError):
        g.expand_char_in_C("full", Weight(0, -1))
    with pytest.raises(ValueError):
        g.expand_char_in_C("other", Weight(1, 0))


def test_character_lines_match_numeric_ratio():
    # spot-check the two hybrid level-9 lines pointwise
    for variant, lam in [("S", (0, 3)), ("L", (0, 3))]:
        expansion = g.expand_char_in_C(variant, Weight(*lam))
        for p in random_interior_points(20, seed=3):
            lhs = g.character(variant, Weight(*lam), p)
            rhs = g.evaluate_sum(expansion, p).real
            assert abs(lhs - rhs) < 1e-9


def test_expansion_is_unitriangular(rng):
    for variant in ("full", "L", "S"):
        for _ in range(6):
            lam = random_dominant_weight(rng, C, hi=6)
            out = g.expand_char_in_C(variant, lam)
            assert out.terms[lam] == 1
            assert all(g.height(w) <= g.height(lam) for w in out.terms)


def test_expansion_at_origin_gives_dimension(rng):
    # summing coefficient * orbit size evaluates the expansion at x = 0,
    # where the full character ratio extends to the dimension
    for a in range(0, 3):
        for b in range(0, 4):
            lam = Weight(a, b)
            out = g.expand_char_in_C("full", lam)
            total = sum(c * len(g.weyl_orbit(w)) for w, c in out.terms.items())
            assert total == g.dimension(lam)


# ------------------------------------------------------------ inversion

DOWNWARD_SET = [
    (a, b) for a in range(0, 5) for b in range(0, 7) if 3 * a + 2 * b <= 12
]


def test_char_matrix_roundtrip():
    mat = g.char_expansion_matrix(DOWNWARD_SET)
    inv = g.invert_char_matrix(DOWNWARD_SET)
    ws = sorted(mat, key=lambda w: (g.height(w), w))
    for lam in ws:
        for mu in ws:
            total = sum(mat[lam].get(nu, 0) * inv[nu].get(mu, 0) for nu in ws)
            assert total == (1 if lam == mu else 0)


def test_inverse_line_for_the_height_eleven_weight():
    inv = g.invert_char_matrix(DOWNWARD_SET)
    assert inv[Weight(1, 2)] == {
        Weight(1, 2): 1, Weight(2, 0): -1, Weight(0, 3): -1,
        Weight(1, 1): -1, Weight(0, 2): 1, Weight(1, 0): 1,
    }
    assert inv[Weight(2, 1)] == {
        Weight(2, 1): 1, Weight(0, 4): -1, Weight(1, 2): -1,
        Weight(0, 3): 1, Weight(0, 2): 1, Weight(0, 1): -1,
    }


def test_inverse_line_origin_dimension_check():
    # coefficients weighted by dimensions must reproduce the orbit size
    inv = g.invert_char_matrix(DOWNWARD_SET)
    for mu, row in inv.items():
        total = sum(c * g.dimension(lam) for lam, c in row.items())
        assert total == len(g.weyl_orbit(mu)), tuple(mu)


def test_non_downward_closed_set_is_rejected():
    with pytest.raises(ValueError):
        g.char_expansion_matrix([(1, 1)])


# ------------------------------------------------------------ container behavior


def test_orbit_sum_container_semantics():
    zero = OrbitSum(C, {Weight(1, 0): 0})
    assert zero.is_zero and zero.pretty() == "0"
    with pytest.raises(ValueError):
        OrbitSum(C, {Weight(-1, 0): 1})
    x = _sum(C, [((1, 0), 1), ((0, 0), 2)])
    y = _sum(C, [((1, 0), -1), ((0, 1), 3)])
    assert (x + y).terms == {Weight(0, 1): 3, Weight(0, 0): 2}
    assert (x - x).is_zero
    assert (3 * x).terms == {Weight(1, 0): 3, Weight(0, 0): 6}
    with pytest.raises(ValueError):
        x + OrbitSum(S, {Weight(1, 1): 1})


def test_orbit_sum_rendering():
    out = g.expand_product(C, Weight(1, 0), C, Weight(1, 0))
    assert out.pretty() == "C(2,0)+2C(0,3)+2C(1,0)+6C(0,0)"
    assert out.pretty(latex=True) == "C_{(2,0)}+2C_{(0,3)}+2C_{(1,0)}+6C_{(0,0)}"
    sl = OrbitSum(SL, {Weight(1, 0): -2})
    assert sl.pretty(latex=True) == "-2S^L_{(1,0)}"
    payload = json.loads(out.to_json())
    assert payload["family"] == "C"
    assert [2, 0, 1] in payload["terms"] and [0, 0, 6] in payload["terms"]


def test_evaluate_sum_matches_linear_combination():
    out = _sum(SS, [((0, 1), 2), ((1, 1), -1)])
    p = random_interior_points(1, seed=5)[0]
    want = 2 * g.evaluate(SS, Weight(0, 1), p).value - g.evaluate(SS, Weight(1, 1), p).value
    assert abs(g.evaluate_sum(out, p) - want) < 1e-12
