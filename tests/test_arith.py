"""Elements of finite order: classes, powers, rationality, the value table."""

from fractions import Fraction
from math import gcd

import pytest

import g2fun as g
from g2fun import C, Weight
from g2fun.arith import (
    FiniteOrderElement,
    enumerate_efo,
    is_rational,
    power_class,
    rational_classes,
    rational_table,
    search_integer_points,
)

# the fourteen conjugacy classes whose every power is conjugate to itself,
# as Kac coordinates [s0, s1, s2] at their order M
RATIONAL_CLASSES = [
    (1, 0, 0, 1),
    (0, 1, 0, 2),
    (1, 1, 0, 3), (0, 0, 1, 3),
    (2, 1, 0, 4), (1, 0, 1, 4),
    (4, 1, 0, 6), (3, 0, 1, 6), (1, 1, 1, 6),
    (2, 1, 1, 7),
    (3, 1, 1, 8), (1, 2, 1, 8),
    (3, 3, 1, 12), (1, 4, 1, 12),
]

# integer values of thefifteen tabulated functions on those fourteen classes
RATIONAL_TABLE = {
    "C(1,0)":   (6, -2, -3, 6, -2, 2, 1, -2, 1, -1, -2, 0, -2, -1),
    "C(0,1)":   (6, -2, 0, -3, 2, -2, 4, 1, -2, -1, 0, -2, -1, -2),
    "C(1,1)":   (12, -4, 0, -6, -4, 4, -4, 2, 2, 5, 4, 0, 2, -2),
    "C(2,0)":   (6, 6, -3, 6, -2, -2, -3, 6, -3, -1, 2, -2, -2, 1),
    "C(0,2)":   (6, 6, 0, -3, -2, -2, 0, -3, 0, -1, -2, 2, 1, 4),
    "C(0,3)":   (6, -2, 6, 6, 2, -2, -2, -2, -2, -1, 0, -2, 2, -2),
    "chi(1,0)": (14, -2, -1, 5, 2, 2, 7, 1, 1, 0, 0, 0, -1, -1),
    "chi(0,1)": (7, -1, 1, -2, 3, -1, 5, 2, -1, 0, 1, -1, 0, -1),
    "chi(1,1)": (64, 0, -2, -8, 0, 0, 18, 0, 0, 1, 0, 0, 0, 0),
    "chiL(1,0)": (8, 0, -1, 8, 0, 4, 3, 0, 3, 1, 0, 2, 0, 1),
    "chiL(0,1)": (6, -2, 0, -3, 2, -2, 4, 1, -2, -1, 0, -2, -1, -2),
    "chiL(1,1)": (30, -2, 0, -15, -2, -2, 4, 1, -2, 2, 2, -2, 1, -2),
    "chiS(1,0)": (20, -4, -1, 2, 4, 0, 11, 2, -1, -1, 0, -2, -2, -3),
    "chiS(0,1)": (8, 0, 2, -1, 4, 0, 6, 3, 0, 1, 2, 0, 1, 0),
    "chiS(1,1)": (70, -2, -5, -2, -2, 2, 19, -2, 1, 0, -2, 0, -2, -1),
}


# ------------------------------------------------------------ elements and powers


def test_enumerate_efo_lists_primitive_points():
    for M in (1, 2, 3, 6, 7, 12):
        elems = enumerate_efo(M)
        expected = [
            kp for kp in g.grid_points(M).points
            if gcd(gcd(kp.s0, kp.s1), kp.s2) == 1
        ]
        assert [e.kac for e in elems] == expected
        for e in elems:
            assert e.order == M


def test_element_counts():
    assert [len(enumerate_efo(M)) for M in range(1, 9)] == [1, 1, 2, 2, 4, 3, 7, 6]
    # orders dividing M partition the level-M grid
    for M in (6, 7, 8, 12, 30):
        total = sum(len(enumerate_efo(d)) for d in range(1, M + 1) if M % d == 0)
        assert total == g.grid_size(M)


def test_power_class_basics():
    e = FiniteOrderElement(g.kac_point(1, 1, 1, 6))
    assert power_class(e, 0) == g.kac_point(1, 0, 0, 1)
    assert power_class(e, 1) == e.kac
    # inversion is conjugation here, so k and M - k give the same class
    for k in range(7):
        assert power_class(e, k) == power_class(e, 6 - k)
    # non-primitive powers drop to the lower order
    assert power_class(e, 2).M == 3
    assert power_class(e, 3).M == 2


def test_power_class_reaches_every_divisor_order():
    e = FiniteOrderElement(g.kac_point(3, 3, 1, 12))
    orders = {power_class(e, k).M for k in range(12)}
    assert orders == {1, 2, 3, 4, 6, 12}


def test_rationality_of_small_orders():
    assert is_rational(FiniteOrderElement(g.kac_point(2, 1, 1, 7)))
    for e in enumerate_efo(5):
        assert not is_rational(e)
    for e in enumerate_efo(9):
        assert not is_rational(e)


def test_rational_classes_fixture():
    got = [tuple(e.kac) for e in rational_classes(12)]
    assert got == RATIONAL_CLASSES


@pytest.mark.parametrize("bound", [13, 18, 24])
def test_no_rational_classes_beyond_order_twelve(bound):
    assert [tuple(e.kac) for e in rational_classes(bound)] == RATIONAL_CLASSES


# ------------------------------------------------------------ the value table


def test_rational_table_matches_fixture_exactly():
    table = rational_table()
    assert [tuple(kp) for kp in table.columns] == RATIONAL_CLASSES
    got = dict(table.rows)
    assert list(got) == list(RATIONAL_TABLE)
    for label, want in RATIONAL_TABLE.items():
        assert got[label] == want, label


def test_rational_table_csv_shape():
    text = rational_table().to_csv()
    lines = text.strip().splitlines()
    assert len(lines) == 16
    assert lines[0].startswith("function,")
    assert '"M=7 [2,1,1]"' in lines[0]
    assert lines[1].startswith('"C(1,0)",6,-2,')


def test_a_non_integer_table_value_is_a_runtime_error():
    # an explicit raise, which `python -O` keeps, unlike an assert
    assert g.arith._rounded(3.0 + 1e-12) == 3
    with pytest.raises(RuntimeError, match="integer"):
        g.arith._rounded(2.5)


def test_rational_table_as_dict():
    d = rational_table().as_dict()
    assert d["chi(1,1)"][0] == 64
    assert len(d) == 15 and all(len(v) == 14 for v in d.values())


def test_invariant_rows_agree_with_direct_evaluation():
    table = rational_table().as_dict()
    points = [g.kac_point(*k).point() for k in RATIONAL_CLASSES]
    for a, b in [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (0, 3)]:
        for col, p in enumerate(points):
            got = g.evaluate_real(C, Weight(a, b), p)
            assert got == pytest.approx(table[f"C({a},{b})"][col], abs=1e-9)


def test_character_rows_extend_the_ratio_to_walls():
    # boundary classes make the raw ratio 0/0; the C-expansion value must
    # still agree with the ratio at every interior class
    table = rational_table().as_dict()
    interior = [
        (col, g.kac_point(*k).point())
        for col, k in enumerate(RATIONAL_CLASSES)
        if k[0] > 0 and k[1] > 0 and k[2] > 0
    ]
    assert interior  # [1,1,1], [2,1,1], [3,1,1], [3,3,1], ...
    for variant, label in [("full", "chi"), ("L", "chiL"), ("S", "chiS")]:
        for a, b in [(1, 0), (0, 1), (1, 1)]:
            for col, p in interior:
                got = g.character(variant, Weight(a, b), p)
                assert got == pytest.approx(table[f"{label}({a},{b})"][col], abs=1e-8)


def test_product_identities_hold_in_table_arithmetic():
    # the symbolic decompositions close over these integer columns:
    # 1 takes the constant value |orbit| = 1 on every class
    t = rational_table().as_dict()
    c10, c01 = t["C(1,0)"], t["C(0,1)"]
    c11, c20, c02, c03 = t["C(1,1)"], t["C(2,0)"], t["C(0,2)"], t["C(0,3)"]
    for j in range(14):
        assert c10[j] * c10[j] == c20[j] + 2 * c10[j] + 2 * c03[j] + 6
        assert c01[j] * c01[j] == c02[j] + 2 * c01[j] + 2 * c10[j] + 6
        assert c01[j] * c10[j] == c11[j] + 2 * c02[j] + 2 * c01[j]


# ------------------------------------------------------------ locating the classes


def test_search_recovers_exactly_the_rational_points():
    weights = [Weight(*w) for w in [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (0, 3)]]
    found = search_integer_points(C, weights, 12)
    want = [g.kac_point(*k).point() for k in RATIONAL_CLASSES]
    assert sorted(map(tuple, found)) == sorted(map(tuple, want))


def test_search_with_tight_bound_is_a_prefix():
    weights = [Weight(*w) for w in [(1, 0), (0, 1)]]
    small = {tuple(p) for p in search_integer_points(C, weights, 6)}
    large = {tuple(p) for p in search_integer_points(C, weights, 12)}
    assert small <= large
    assert (Fraction(0, 1), Fraction(0, 1)) in small
