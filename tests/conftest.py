"""Shared test oracles built independently of the package internals.

The oracle works in explicit Euclidean coordinates: simple roots as
2-vectors, the reflection group generated by brute-force closure, orbit
sums evaluated as literal sums of exponentials.  Agreement between this
path and the package's integer-coordinate formulas is the backbone of
the evaluation tests.
"""

from __future__ import annotations

import cmath
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import g2fun
from g2fun import C, Family, Point, S, SL, SS, Weight

# Euclidean realization: alpha1 long (|alpha1|^2 = 2), alpha2 short
# (|alpha2|^2 = 2/3), angle 150 degrees.
ALPHA1 = np.array([math.sqrt(2.0), 0.0])
ALPHA2 = np.array([-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(6.0)])
# co-roots: 2*alpha / |alpha|^2
ALPHA1V = ALPHA1
ALPHA2V = 3.0 * ALPHA2
# fundamental weights (dual to co-roots) and co-weights (dual to roots)
OMEGA1 = 2.0 * ALPHA1 + 3.0 * ALPHA2
OMEGA2 = ALPHA1 + 2.0 * ALPHA2
OMEGA1V = 2.0 * ALPHA1V + ALPHA2V
OMEGA2V = 3.0 * ALPHA1V + 2.0 * ALPHA2V


def _reflection_matrix(root: np.ndarray) -> np.ndarray:
    n = root / np.linalg.norm(root)
    return np.eye(2) - 2.0 * np.outer(n, n)


R1_EUCLID = _reflection_matrix(ALPHA1)
R2_EUCLID = _reflection_matrix(ALPHA2)


def _close_group() -> list[tuple[np.ndarray, int, int]]:
    """All group elements as (matrix, #r1-letters mod 2 sign, #r2 sign)."""
    elems: list[tuple[np.ndarray, int, int]] = [(np.eye(2), 1, 1)]

    def find(m: np.ndarray) -> tuple[np.ndarray, int, int] | None:
        for e in elems:
            if np.allclose(e[0], m, atol=1e-12):
                return e
        return None

    frontier = [elems[0]]
    while frontier:
        new_frontier = []
        for mat, s1, s2 in frontier:
            for gen, gs1, gs2 in ((R1_EUCLID, -1, 1), (R2_EUCLID, 1, -1)):
                m = gen @ mat
                known = find(m)
                if known is None:
                    e = (m, s1 * gs1, s2 * gs2)
                    elems.append(e)
                    new_frontier.append(e)
                else:
                    # sign characters are homomorphisms: any word agrees
                    assert (known[1], known[2]) == (s1 * gs1, s2 * gs2)
        frontier = new_frontier
    return elems


WEYL_EUCLID = _close_group()
assert len(WEYL_EUCLID) == 12


def weight_vec(w: Weight | tuple[int, int]) -> np.ndarray:
    a, b = w
    return a * OMEGA1 + b * OMEGA2


def point_vec(p) -> np.ndarray:
    return float(p[0]) * OMEGA1V + float(p[1]) * OMEGA2V


def oracle_orbit(family: Family, lam: Weight) -> dict[tuple[float, float], int]:
    """Orbit points (rounded Euclidean coords) -> sign; {} if signs conflict."""
    v = weight_vec(lam)
    pts: dict[tuple[float, float], int] = {}
    for mat, s1, s2 in WEYL_EUCLID:
        u = mat @ v
        key = (round(u[0], 9), round(u[1], 9))
        sign = (s1 if family.sigma_r1 < 0 else 1) * (s2 if family.sigma_r2 < 0 else 1)
        if key in pts and pts[key] != sign:
            return {}
        pts[key] = sign
    return pts


def oracle_eval(family: Family, lam: Weight, p) -> complex:
    """Independent evaluation: literal signed sum of Euclidean exponentials."""
    pts = oracle_orbit(family, lam)
    x = point_vec(p)
    total = 0j
    for (u0, u1), sign in pts.items():
        total += sign * cmath.exp(2j * math.pi * (u0 * x[0] + u1 * x[1]))
    return total


# Exact integer matrices of the reflection group acting on point
# coordinates, generated by closure of the two boundary reflections.
def _close_point_matrices() -> list[tuple[tuple[int, int], tuple[int, int]]]:
    r1 = ((-1, 0), (1, 1))  # (x1, x2) -> (-x1, x1 + x2), rows act on column
    r2 = ((1, 3), (0, -1))  # (x1, x2) -> (x1 + 3*x2, -x2)

    def mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )

    elems = {((1, 0), (0, 1))}
    frontier = list(elems)
    while frontier:
        nxt = []
        for m in frontier:
            for gen in (r1, r2):
                q = mul(gen, m)
                if q not in elems:
                    elems.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(elems)


POINT_MATRICES = _close_point_matrices()
assert len(POINT_MATRICES) == 12


def affine_equivalent(p, q) -> bool:
    """True when q = w(p) + t for some Weyl w and integer translation t."""
    x1, x2 = Fraction(p[0]), Fraction(p[1])
    y1, y2 = Fraction(q[0]), Fraction(q[1])
    for m in POINT_MATRICES:
        u1 = m[0][0] * x1 + m[0][1] * x2
        u2 = m[1][0] * x1 + m[1][1] * x2
        if (y1 - u1).denominator == 1 and (y2 - u2).denominator == 1:
            return True
    return False


def random_interior_points(rng: np.random.Generator, n: int) -> list[Point]:
    """Points strictly inside the fundamental triangle, away from walls."""
    out = []
    while len(out) < n:
        u = rng.uniform(0.03, 0.97)
        v = rng.uniform(0.03, 0.97)
        x1 = u / 2.0
        x2 = v * (1.0 - 2.0 * x1) / 3.0
        if x1 > 1e-3 and x2 > 1e-3 and 2 * x1 + 3 * x2 < 1.0 - 1e-3:
            out.append(Point(x1, x2))
    return out


def random_dominant_weight(rng: np.random.Generator, family: Family, hi: int = 8) -> Weight:
    """Random dominant weight admissible for the family."""
    while True:
        a = int(rng.integers(0, hi + 1))
        b = int(rng.integers(0, hi + 1))
        w = Weight(a, b)
        if a == 0 and family.sigma_r1 < 0:
            continue
        if b == 0 and family.sigma_r2 < 0:
            continue
        return w


WALLS_PARAM = {
    # wall name -> (point at parameter t, flip direction across the wall)
    "r1": (lambda t: Point(0.0, t / 3.0), (2.0, -1.0)),
    "r2": (lambda t: Point(t / 2.0, 0.0), (-3.0, 2.0)),
    "affine": (lambda t: Point(t / 2.0, (1.0 - t) / 3.0), (1.0, 0.0)),
}


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


ALL_FAMILIES = (C, S, SL, SS)


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on the g2fun source tree these tests import."""
    env = dict(os.environ)
    src = str(Path(g2fun.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60, env=env
    )
