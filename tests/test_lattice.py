"""Lattice grids on the fundamental domain and the matching weight spectra."""

import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import g2fun as g
from g2fun import C, S, SL, SS, Weight

from conftest import ALL_FAMILIES


# ------------------------------------------------------------ grid census


def test_smallest_grids():
    assert [tuple(k)[:3] for k in g.grid_points(1).points] == [(1, 0, 0)]
    assert [tuple(k)[:3] for k in g.grid_points(2).points] == [(2, 0, 0), (0, 1, 0)]
    assert len(g.grid_points(3).points) == 3
    six = [tuple(k)[:3] for k in g.grid_points(6).points]
    assert len(six) == 7 and (1, 1, 1) in six
    assert len(g.grid_points(10).points) == 14


def test_grid_points_are_valid_and_ordered():
    for M in (4, 7, 12, 30):
        grid = g.grid_points(M)
        keys = []
        for kp in grid.points:
            assert kp.is_valid and kp.M == M
            assert kp.point().in_fundamental_domain
            keys.append((kp.s2, kp.s1))
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


@given(st.integers(1, 60))
def test_grid_size_closed_form(M):
    grid = g.grid_points(M)
    assert len(grid.points) == g.grid_size(M)
    assert g.grid_size(M) == M // 3 + 1 + sum((M - 3 * i) // 2 for i in range(M // 3 + 1))


def test_discretization_weights():
    grid = g.grid_points(12)
    for kp, w in zip(grid.points, grid.weights):
        assert w == g.c_weight(kp)
        zeros = (kp.s0 == 0, kp.s1 == 0, kp.s2 == 0)
        if not any(zeros):
            assert w == 12
        elif zeros.count(True) == 1:
            assert w == 6
    assert g.c_weight(g.kac_point(12, 0, 0, 12)) == 1
    assert g.c_weight(g.kac_point(0, 6, 0, 12)) == 3
    assert g.c_weight(g.kac_point(0, 0, 4, 12)) == 2


@given(st.integers(1, 200))
@settings(max_examples=60, deadline=None)
def test_weights_sum_to_M_squared(M):
    assert sum(g.grid_points(M).weights) == M * M


def test_grid_nesting():
    base = {tuple(kp.point()) for kp in g.grid_points(8).points}
    for k in (2, 3, 5):
        finer = {tuple(kp.point()) for kp in g.grid_points(8 * k).points}
        assert base <= finer


def test_primitive_points_need_the_full_level():
    # a point with coprime Kac coordinates lies on no coarser grid
    for M in (7, 11, 12):
        for kp in g.grid_points(M).points:
            if gcd(gcd(kp.s0, kp.s1), kp.s2) == 1:
                for D in range(1, M):
                    coarser = {tuple(q.point()) for q in g.grid_points(D).points}
                    assert tuple(kp.point()) not in coarser


# ------------------------------------------------------------ spectra


def test_invariant_spectrum_at_level_six():
    sp = g.spectrum(C, 6)
    want = {
        (0, 0): Fraction(1, 12),
        (0, 1): Fraction(1, 2),
        (0, 2): Fraction(1, 2),
        (0, 3): Fraction(1, 1),
        (1, 0): Fraction(1, 2),
        (1, 1): Fraction(1, 1),
        (2, 0): Fraction(3, 2),
    }
    assert {tuple(e.weight): e.h for e in sp.entries} == want


def test_alternating_spectrum_at_level_six():
    sp = g.spectrum(S, 6)
    assert [(tuple(e.weight), e.h) for e in sp.entries] == [((1, 1), Fraction(1))]


def test_hybrid_spectra_at_level_six():
    sl = {tuple(e.weight): e.h for e in g.spectrum(SL, 6).entries}
    assert sl == {(1, 0): Fraction(1, 2), (1, 1): Fraction(1), (2, 0): Fraction(3, 2)}
    ss = {tuple(e.weight): e.h for e in g.spectrum(SS, 6).entries}
    assert ss == {(0, 1): Fraction(1, 2), (0, 2): Fraction(1, 2), (1, 1): Fraction(1)}


def _wall_rule_spectrum(fam, M):
    # Each family's weights and normalizations, written out by hand.
    entries = []
    if fam == C:
        for a in range(M // 3 + 1):
            for b in range((M - 3 * a) // 2 + 1):
                if a == 0 and b == 0:
                    h = Fraction(1, 12)
                elif b == 0:
                    h = Fraction(3, 2) if 3 * a == M else Fraction(1, 2)
                elif a == 0:
                    h = Fraction(1) if 2 * b == M else Fraction(1, 2)
                else:
                    h = Fraction(2) if 3 * a + 2 * b == M else Fraction(1)
                entries.append((Weight(a, b), h))
    elif fam == S:
        for a in range(1, M // 3 + 1):
            for b in range(1, (M - 1 - 3 * a) // 2 + 1):
                entries.append((Weight(a, b), Fraction(1)))
    elif fam == SL:
        for a in range(1, M // 3 + 1):
            for b in range((M - 3 * a) // 2 + 1):
                if b == 0:
                    h = Fraction(3, 2) if 3 * a == M else Fraction(1, 2)
                else:
                    h = Fraction(2) if 3 * a + 2 * b == M else Fraction(1)
                entries.append((Weight(a, b), h))
    elif fam == SS:
        for b in range(1, (M - 1) // 2 + 1):
            entries.append((Weight(0, b), Fraction(1, 2)))
        for a in range(1, M // 3 + 1):
            for b in range(1, (M - 1 - 3 * a) // 2 + 1):
                entries.append((Weight(a, b), Fraction(1)))
    return sorted(entries)


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.tag)
def test_spectrum_equals_wall_rules(fam):
    for M in range(1, 61):
        got = [(e.weight, e.h) for e in g.spectrum(fam, M).entries]
        assert got == _wall_rule_spectrum(fam, M), M
        assert all(type(h) is Fraction for _, h in got)


_DUAL = {C: C, S: S, SL: SS, SS: SL}


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.tag)
def test_spectrum_is_the_dual_grid(fam):
    # The grid points kept by the dual family's support rule, read as
    # lam = (s2, s1) in grid order, with h = 12 / (c_s * |Stab lam|^2).
    for M in range(1, 61):
        grid = g.grid_points(M)
        dual = []
        for kp, c, keep in zip(grid.points, grid.weights, g.support_mask(_DUAL[fam], M)):
            lam = Weight(kp.s2, kp.s1)
            if keep:
                dual.append((lam, Fraction(12, c * len(g.rootsys.stabilizer(lam)) ** 2)))
        assert list(g.spectrum(fam, M).entries) == dual, M


@given(st.integers(1, 60))
@settings(max_examples=40, deadline=None)
def test_spectrum_sizes_match_transform_shapes(M):
    # square transforms: one weight per grid point (C), per interior
    # point (S), and per point off the respective vanishing walls
    grid = g.grid_points(M).points
    interior = sum(1 for kp in grid if kp.s0 > 0 and kp.s1 > 0 and kp.s2 > 0)
    off_r1 = sum(1 for kp in grid if kp.s0 > 0 and kp.s1 > 0)
    off_r2 = sum(1 for kp in grid if kp.s2 > 0)
    assert len(g.spectrum(C, M).entries) == len(grid)
    assert len(g.spectrum(S, M).entries) == interior
    assert len(g.spectrum(SL, M).entries) == off_r1
    assert len(g.spectrum(SS, M).entries) == off_r2


@given(st.integers(1, 40))
@settings(max_examples=30, deadline=None)
def test_spectrum_entries_are_admissible_and_in_range(M):
    for fam in ALL_FAMILIES:
        for entry in g.spectrum(fam, M).entries:
            a, b = entry.weight
            assert g.is_admissible(fam, entry.weight)
            assert 3 * a + 2 * b <= M
            assert 0 < entry.h <= 2


def test_normalization_exponent_cases():
    sp = {tuple(e.weight): e.h for e in g.spectrum(C, 12).entries}
    assert sp[(0, 0)] == Fraction(1, 12)      # origin
    assert sp[(1, 0)] == Fraction(1, 2)       # long edge, inactive level
    assert sp[(0, 6)] == Fraction(1)          # short edge, level exactly M
    assert sp[(1, 1)] == Fraction(1)          # interior, level below M
    assert sp[(4, 0)] == Fraction(3, 2)       # long edge, level exactly M
    assert sp[(2, 3)] == Fraction(2)          # interior, level exactly M


# ------------------------------------------------------------ serialization


@pytest.mark.parametrize("M", [1, 2, 6, 17])
def test_grid_json_roundtrip(M):
    grid = g.grid_points(M)
    data = json.loads(g.grid_to_json(grid))
    points = tuple(g.kac_point(s0, s1, s2, data["M"]) for s0, s1, s2 in data["points"])
    assert g.Grid(data["M"], points, tuple(data["weights"])) == grid


def test_grid_rejects_nonpositive_level():
    with pytest.raises(ValueError):
        g.grid_points(0)
    with pytest.raises(ValueError):
        g.grid_size(-3)
