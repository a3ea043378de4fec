"""Reference mathematics for the benchmark's output checks.

Nothing here imports g2fun.  The Weyl group is built as twelve integer
matrices closed from the two simple reflections, which are derived from
the Cartan matrix; orbit functions are evaluated as group sums divided
by the stabilizer order, so the checks share no code path with the
orbit closures and hand-written wall rules of the package.

Conventions (those of the package documentation): weights (a, b) in the
fundamental-weight basis, points (x1, x2) in the co-weight basis, the
long simple root first, grid points [s0, s1, s2] with
s0 + 2*s1 + 3*s2 = M listed in (s2, s1)-lexicographic order, spectra
sorted by weight.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

# alpha_i = sum_j CARTAN[i][j] * omega_j
CARTAN = ((2, -3), (-1, 2))
# squared root lengths up to a common factor: alpha1 long, alpha2 short
ROOT_NORM = (3, 1)
# family tag -> (sign on r1, sign on r2)
SIGNS = {"C": (1, 1), "S": (-1, -1), "SL": (-1, 1), "SS": (1, -1)}
FAMILIES = tuple(SIGNS)
# character variant -> (denominator family, shift weight)
VARIANTS = {"full": ("S", (1, 1)), "L": ("SL", (1, 0)), "S": ("SS", (0, 1))}


def _inverse_cartan() -> tuple[tuple[int, int], tuple[int, int]]:
    (p, q), (r, s) = CARTAN
    det = p * s - q * r
    if det != 1:
        raise ValueError("the Cartan matrix must be unimodular")
    return ((s, -q), (-r, p))


CARTAN_INV = _inverse_cartan()


def _reflection(i: int) -> np.ndarray:
    # r_i(w) = w - <w, alpha_i^vee> alpha_i, and <w, alpha_i^vee> = w[i].
    m = np.eye(2, dtype=np.int64)
    m[:, i] -= np.array(CARTAN[i], dtype=np.int64)
    return m  # acts on column vectors (a, b)


def _close_group() -> list[tuple[np.ndarray, int, int]]:
    """Group elements as (matrix on weights, parity of r1 letters, of r2 letters)."""
    gens = ((_reflection(0), 1, 0), (_reflection(1), 0, 1))
    elems = {(1, 0, 0, 1): (np.eye(2, dtype=np.int64), 0, 0)}
    frontier = list(elems.values())
    while frontier:
        nxt = []
        for mat, p1, p2 in frontier:
            for g, g1, g2 in gens:
                m = g @ mat
                key = tuple(int(v) for v in m.ravel())
                parity = ((p1 + g1) % 2, (p2 + g2) % 2)
                if key in elems:
                    if elems[key][1:] != parity:
                        raise ValueError("sign characters are not well defined")
                    continue
                elems[key] = (m, *parity)
                nxt.append(elems[key])
        frontier = nxt
    if len(elems) != 12:
        raise ValueError(f"expected 12 group elements, got {len(elems)}")
    return list(elems.values())


WEYL = _close_group()
_MATS = np.stack([m for m, _, _ in WEYL])  # (12, 2, 2)


def _signs(tag: str) -> np.ndarray:
    s1, s2 = SIGNS[tag]
    return np.array([s1**p1 * s2**p2 for _, p1, p2 in WEYL], dtype=float)


_SIGN_TABLE = {tag: _signs(tag) for tag in FAMILIES}


def _stabilizer(lam) -> np.ndarray:
    """Mask of the group elements that fix lam."""
    v = np.asarray(lam, dtype=np.int64)
    return np.all(_MATS @ v == v, axis=1)


def stabilizer_order(lam) -> int:
    return int(_stabilizer(lam).sum())


def orbit_size(lam) -> int:
    return 12 // stabilizer_order(lam)


def admissible(tag: str, lam) -> bool:
    """True when the signed group sum does not cancel on the stabilizer."""
    return bool(np.all(_SIGN_TABLE[tag][_stabilizer(lam)] > 0))


def target_family(tag_a: str, tag_b: str) -> str:
    sa, sb = SIGNS[tag_a], SIGNS[tag_b]
    want = (sa[0] * sb[0], sa[1] * sb[1])
    return next(t for t, s in SIGNS.items() if s == want)


def sum_values(tag: str, terms: dict, x1, x2) -> np.ndarray:
    """Complex values of sum_w c_w * (orbit sum of w) at arrays of points.

    Each orbit sum is the signed sum over the twelve group images of w,
    divided by the order of the stabilizer; inadmissible weights vanish.
    """
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    kept = [(w, c) for w, c in terms.items() if admissible(tag, w)]
    if not kept:
        return np.zeros(np.broadcast_shapes(x1.shape, x2.shape), dtype=complex)
    lams = np.array([w for w, _ in kept], dtype=np.int64)  # (T, 2)
    scale = np.array([c / stabilizer_order(w) for w, c in kept])  # (T,)
    images = np.einsum("gij,tj->tgi", _MATS, lams)  # (T, 12, 2), omega basis
    k = (images @ np.array(CARTAN_INV, dtype=np.int64)).astype(float)
    phase = k[..., 0, None] * x1 + k[..., 1, None] * x2  # (T, 12, P)
    per_term = np.einsum("g,tgp->tp", _SIGN_TABLE[tag], np.exp(2j * math.pi * phase))
    return scale @ per_term


def orbit_values(tag: str, lam, x1, x2) -> np.ndarray:
    """Complex orbit-sum values at arrays of points (co-weight coordinates)."""
    shape = np.broadcast_shapes(np.shape(x1), np.shape(x2))
    return sum_values(tag, {tuple(lam): 1}, x1, x2).reshape(shape)


def renormalized(tag: str, lam, x1, x2) -> np.ndarray:
    """Real view: the value for C and S, the value divided by i for SL and SS."""
    v = orbit_values(tag, lam, x1, x2)
    s1, s2 = SIGNS[tag]
    return v.real if s1 * s2 == 1 else v.imag


@lru_cache(maxsize=None)
def grid(M: int) -> tuple[tuple[int, int, int], ...]:
    return tuple(
        (M - 2 * s1 - 3 * s2, s1, s2)
        for s2 in range(M // 3 + 1)
        for s1 in range((M - 3 * s2) // 2 + 1)
    )


def grid_coords(M: int) -> tuple[np.ndarray, np.ndarray]:
    pts = grid(M)
    return (
        np.array([s1 / M for _, s1, _ in pts]),
        np.array([s2 / M for _, _, s2 in pts]),
    )


def support_mask(tag: str, M: int) -> np.ndarray:
    """Grid points off the family's antisymmetric walls.

    The wall s1 = 0 is the r1 mirror, s2 = 0 the r2 mirror, and s0 = 0
    the affine mirror, which is conjugate to r1 and carries its sign.
    """
    s1_sign, s2_sign = SIGNS[tag]
    return np.array(
        [
            (s0 > 0 or s1_sign > 0) and (s1 > 0 or s1_sign > 0) and (s2 > 0 or s2_sign > 0)
            for s0, s1, s2 in grid(M)
        ]
    )


@lru_cache(maxsize=None)
def spectrum(tag: str, M: int) -> tuple[tuple[int, int], ...]:
    """Basis weights of the level-M transform, sorted.

    On the dual side the roles of the two reflections swap: the bounding
    wall 3a + 2b = M is antisymmetric when the family alternates under r2.
    """
    s1_sign, s2_sign = SIGNS[tag]
    top = M - (1 if s2_sign < 0 else 0)
    return tuple(sorted(
        (a, b)
        for a in range(1 if s1_sign < 0 else 0, M // 3 + 1)
        for b in range(1 if s2_sign < 0 else 0, M // 2 + 1)
        if 3 * a + 2 * b <= top
    ))


def _positive_roots() -> list[tuple[int, int]]:
    """Positive roots in simple-root coordinates, from the group images."""
    roots = set()
    for i in range(2):
        alpha = np.array(CARTAN[i], dtype=np.int64)  # omega basis
        for m in _MATS:
            c = (m @ alpha) @ np.array(CARTAN_INV, dtype=np.int64)
            if c[0] >= 0 and c[1] >= 0:
                roots.add((int(c[0]), int(c[1])))
    if len(roots) != 6:
        raise ValueError(f"expected 6 positive roots, got {len(roots)}")
    return sorted(roots)


POSITIVE_ROOTS = _positive_roots()


def dimension(lam) -> int:
    """Weyl dimension formula prod (lam + rho, alpha) / (rho, alpha)."""
    a, b = lam
    num = den = Fraction(1)
    for c1, c2 in POSITIVE_ROOTS:
        num *= ROOT_NORM[0] * (a + 1) * c1 + ROOT_NORM[1] * (b + 1) * c2
        den *= ROOT_NORM[0] * c1 + ROOT_NORM[1] * c2
    value = num / den
    if value.denominator != 1:
        raise ValueError(f"non-integral dimension for {lam}")
    return int(value)


def height(lam) -> int:
    """Height of a weight: the sum of its simple-root coordinates."""
    a, b = lam
    c = np.array((a, b), dtype=np.int64) @ np.array(CARTAN_INV, dtype=np.int64)
    return int(c.sum())


def interior_points(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Random points well inside the fundamental domain 2*x1 + 3*x2 <= 1."""
    u = rng.uniform(0.05, 0.95, n)
    v = rng.uniform(0.05, 0.95, n)
    x1 = 0.5 * u
    return x1, v * (1.0 - 2.0 * x1) / 3.0


def efo_classes(M: int) -> list[tuple[int, int, int]]:
    """Kac coordinates of the classes of order exactly M (coprime triples)."""
    return [p for p in grid(M) if math.gcd(*p) == 1]


def is_rational_class(kac: tuple[int, int, int], M: int) -> bool:
    """Whether every power coprime to M lands in the same conjugacy class.

    Two points of the torus are conjugate exactly when the two
    fundamental C-functions agree on them (they generate the ring of
    class functions), so the test compares values, reducing k*x mod 1
    exactly before the float conversion.
    """
    _, s1, s2 = kac
    ks = [k for k in range(1, M) if math.gcd(k, M) == 1]
    x1 = np.array([float(Fraction(k * s1, M) % 1) for k in ks] + [s1 / M])
    x2 = np.array([float(Fraction(k * s2, M) % 1) for k in ks] + [s2 / M])
    for lam in ((1, 0), (0, 1)):
        v = orbit_values("C", lam, x1, x2).real
        if np.max(np.abs(v[:-1] - v[-1]), initial=0.0) > 1e-9:
            return False
    return True
