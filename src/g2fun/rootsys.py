"""Exact combinatorics of the G2 root system.

Weights carry integer coordinates in the basis of fundamental weights;
evaluation points carry coordinates in the dual basis of fundamental
co-weights.  The two bases pair integrally, so every group-theoretic
operation here (reflections, orbits, folding into the fundamental
domain) stays in exact integer or rational arithmetic.

The four families are the four sign characters of the 12-element Weyl
group `WEYL_GROUP`.  Every family-specific rule is one stabilizer rule:
a family's orbit sum of lam vanishes identically when an element of
`stabilizer(lam)` has sign -1, and on the level-M grid when an element
of `stabilizer(lam, M)` does; the grid normalization is
h = |Stab_M| / |Stab|^2 (`lattice.spectrum`).

Conventions: the long simple root has squared length 2, the short one
2/3, and their inner product is -1.  Both the weight and the co-weight
lattice coincide with the corresponding root lattices, which is why
translations by integer co-weight vectors are symmetries of everything
built on top of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Union

Coord = Union[int, Fraction, float]

#: Cartan matrix, row convention alpha_i = sum_j CARTAN[i][j] * omega_j,
#: and its inverse (integer entries because the determinant is 1).
CARTAN = ((2, -3), (-1, 2))
CARTAN_INV = ((2, 3), (1, 2))


class Weight(NamedTuple):
    """Integer weight (a, b) in the fundamental-weight basis."""

    a: int
    b: int

    def __add__(self, other: "Weight") -> "Weight":  # type: ignore[override]
        return Weight(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "Weight":
        return Weight(-self.a, -self.b)

    @property
    def is_dominant(self) -> bool:
        return self.a >= 0 and self.b >= 0


class Point(NamedTuple):
    """Point (x1, x2) in the fundamental co-weight basis.

    Coordinates may be exact (int/Fraction) or floating.  Lattice and
    folding code keeps them exact; numeric evaluation converts to float
    at the last moment.
    """

    x1: Coord
    x2: Coord

    @property
    def in_fundamental_domain(self) -> bool:
        return self.x1 >= 0 and self.x2 >= 0 and 2 * self.x1 + 3 * self.x2 <= 1


class KacPoint(NamedTuple):
    """Lattice point [s0, s1, s2] at level M, with s0 + 2*s1 + 3*s2 = M.

    The marks (1, 2, 3) are the coefficients of the highest root plus
    the affine node; the encoded point of the fundamental domain is
    (s1/M, s2/M).
    """

    s0: int
    s1: int
    s2: int
    M: int

    def point(self) -> Point:
        return Point(Fraction(self.s1, self.M), Fraction(self.s2, self.M))

    @property
    def is_valid(self) -> bool:
        return (
            self.M >= 1
            and min(self.s0, self.s1, self.s2) >= 0
            and self.s0 + 2 * self.s1 + 3 * self.s2 == self.M
        )


def kac_point(s0: int, s1: int, s2: int, M: int) -> KacPoint:
    """Validated KacPoint constructor."""
    kp = KacPoint(s0, s1, s2, M)
    if not kp.is_valid:
        raise ValueError(f"[{s0},{s1},{s2}] is not a level-{M} lattice point")
    return kp


class SignedWeight(NamedTuple):
    """A weight together with the sign its family attaches to it (0 allowed)."""

    weight: Weight
    sign: int


@dataclass(frozen=True)
class Family:
    """One of the four sign homomorphisms of the Weyl group.

    A family is determined by the signs it assigns to the two simple
    reflections.  C is trivial (invariant sums), S fully alternating,
    SL alternates on the long-root reflection only, SS on the short one.
    """

    tag: str
    sigma_r1: int
    sigma_r2: int

    @property
    def real_valued(self) -> bool:
        """True when orbit sums of this family are real (else purely imaginary)."""
        return self.sigma_r1 * self.sigma_r2 == 1

    def __str__(self) -> str:
        return self.tag


C = Family("C", 1, 1)
S = Family("S", -1, -1)
SL = Family("SL", -1, 1)
SS = Family("SS", 1, -1)
FAMILIES = (C, S, SL, SS)


def family_by_tag(tag: str) -> Family:
    """The family with the given tag (exact match)."""
    for family in FAMILIES:
        if family.tag == tag:
            return family
    known = ", ".join(f.tag for f in FAMILIES)
    raise ValueError(f"unknown family {tag!r}; choose from {known}")


def omega_to_alpha(w: Weight) -> tuple[int, int]:
    """Coordinates of a weight in the simple-root basis."""
    return (2 * w.a + w.b, 3 * w.a + 2 * w.b)


def alpha_to_omega(k1: int, k2: int) -> Weight:
    return Weight(2 * k1 - k2, -3 * k1 + 2 * k2)


def height(w: Weight) -> int:
    """Sum of the simple-root coordinates; maximal on the dominant orbit member."""
    k1, k2 = omega_to_alpha(w)
    return k1 + k2


def reflect_point(k: int, p: Point) -> Point:
    """Simple reflection r_k acting on a point."""
    if k == 1:
        return Point(-p.x1, p.x1 + p.x2)
    if k == 2:
        return Point(p.x1 + 3 * p.x2, -p.x2)
    raise ValueError(f"generator index must be 1 or 2, got {k}")


def affine_reflect(p: Point) -> Point:
    """Reflection in the wall 2*x1 + 3*x2 = 1 opposite the origin."""
    return Point(1 - p.x1 - 3 * p.x2, p.x2)


class WeylElement(NamedTuple):
    """One element of the Weyl group as an integer matrix on point coordinates.

    `parity` counts, mod 2, the r1 and r2 letters of any word for the
    element; it is well defined because both sign characters are
    homomorphisms.  The transposes of the matrices act on the
    simple-root coordinates of weights (as the inverse elements).
    """

    matrix: tuple[tuple[int, int], tuple[int, int]]
    parity: tuple[int, int]

    def sign(self, family: Family) -> int:
        return family.sigma_r1 ** self.parity[0] * family.sigma_r2 ** self.parity[1]


def _close_weyl_group() -> tuple[WeylElement, ...]:
    # Columns of each matrix are the images of the two co-weight basis
    # vectors; left-multiplying by a simple reflection flips one parity.
    def times(k: int, m):
        c1 = reflect_point(k, Point(m[0][0], m[1][0]))
        c2 = reflect_point(k, Point(m[0][1], m[1][1]))
        return ((c1.x1, c2.x1), (c1.x2, c2.x2))

    parities = {((1, 0), (0, 1)): (0, 0)}
    stack = list(parities)
    while stack:
        m = stack.pop()
        p1, p2 = parities[m]
        for k in (1, 2):
            r = times(k, m)
            if r not in parities:
                parities[r] = (p1 ^ (k == 1), p2 ^ (k == 2))
                stack.append(r)
    if len(parities) != 12:
        raise RuntimeError(f"Weyl group closed to {len(parities)} elements, not 12")
    return tuple(WeylElement(m, p) for m, p in parities.items())


#: The 12 elements of the Weyl group, identity first.
WEYL_GROUP = _close_weyl_group()


def _on_weights(g: WeylElement) -> tuple[int, int, int, int]:
    # Row-major integer matrix of g on fundamental-weight coordinates:
    # the transpose of g's point matrix acts on simple-root coordinates
    # (as g^-1, which has the same sign in every family).
    (p, q), (r, s) = g.matrix
    (a1, b1), (a2, b2) = (
        alpha_to_omega(p * k1 + r * k2, q * k1 + s * k2)
        for k1, k2 in (omega_to_alpha(Weight(1, 0)), omega_to_alpha(Weight(0, 1)))
    )
    return a1, a2, b1, b2


#: WEYL_GROUP paired with each element's action on weight coordinates.
_WEIGHT_ACTION = tuple((g, _on_weights(g)) for g in WEYL_GROUP)


@lru_cache(maxsize=None)
def stabilizer(lam: Weight, M: int = 0) -> tuple[WeylElement, ...]:
    """The Weyl elements that fix lam: exactly when M == 0, else modulo M."""
    # Cached because the four spectra of one level share their wall
    # weights, and the product kernel asks again for the same weights.
    a, b = lam
    if M == 0:
        return tuple(
            g for g, (m11, m12, m21, m22) in _WEIGHT_ACTION
            if m11 * a + m12 * b == a and m21 * a + m22 * b == b
        )
    return tuple(
        g for g, (m11, m12, m21, m22) in _WEIGHT_ACTION
        if (m11 * a + m12 * b - a) % M == 0 and (m21 * a + m22 * b - b) % M == 0
    )


def is_admissible(family: Family, lam: Weight) -> bool:
    """True when the family's orbit sum for dominant lam is not identically zero.

    It vanishes exactly when an element fixing lam has sign -1 in the
    family: the stabilizer then pairs off orbit terms of opposite sign.
    """
    return lam.is_dominant and all(g.sign(family) > 0 for g in stabilizer(lam))


def dominantize(family: Family, w: Weight) -> SignedWeight:
    """The dominant member of w's orbit, with the family sign of w in its orbit sum.

    The sign is that of any element mapping w to the dominant member; it
    is 0 when the dominant member is inadmissible for the family.
    """
    a, b = w
    for g, (m11, m12, m21, m22) in _WEIGHT_ACTION:
        lam = Weight(m11 * a + m12 * b, m21 * a + m22 * b)
        if lam.is_dominant:
            return SignedWeight(lam, g.sign(family) if is_admissible(family, lam) else 0)
    raise RuntimeError(f"no Weyl image of {w} is dominant")


def signed_orbit(family: Family, lam: Weight) -> tuple[SignedWeight, ...]:
    """Weyl orbit of a dominant weight with the family's sign on each member.

    Returns the empty tuple for inadmissible weights (the orbit sum is
    identically zero there: some member is reached with both signs).
    Ordered by decreasing height, dominant member first, so callers get
    a deterministic term order.
    """
    if not lam.is_dominant:
        raise ValueError(f"{lam} is not dominant")
    a, b = lam
    signs: dict[Weight, int] = {}
    for g, (m11, m12, m21, m22) in _WEIGHT_ACTION:
        mu = Weight(m11 * a + m12 * b, m21 * a + m22 * b)
        s = g.sign(family)
        if signs.setdefault(mu, s) != s:
            return ()
    members = sorted(signs, key=lambda w: (-height(w), w))
    return tuple(SignedWeight(w, signs[w]) for w in members)


def weyl_orbit(lam: Weight) -> list[Weight]:
    """Weyl orbit of a dominant weight, ordered by decreasing height."""
    return [sw.weight for sw in signed_orbit(C, lam)]


def fold_to_F(p: Point) -> Point:
    """Map any point to its affine-Weyl representative in the fundamental domain.

    Integer co-weight translations are lattice translations here, so the
    affine Weyl orbit of p is its Weyl orbit mod 1.  Over a common
    denominator D the point is an integer point of (Z/D)^2, and the one
    image (y1, y2) mod D with 2*y1 + 3*y2 <= D is the representative.
    Arithmetic is exact for int, Fraction and float coordinates.
    """
    x1 = Fraction(p.x1)
    x2 = Fraction(p.x2)
    D = math.lcm(x1.denominator, x2.denominator)
    n1 = x1.numerator * (D // x1.denominator)
    n2 = x2.numerator * (D // x2.denominator)
    for g in WEYL_GROUP:
        (m11, m12), (m21, m22) = g.matrix
        y1 = (m11 * n1 + m12 * n2) % D
        y2 = (m21 * n1 + m22 * n2) % D
        if 2 * y1 + 3 * y2 <= D:
            return Point(Fraction(y1, D), Fraction(y2, D))
    raise RuntimeError(f"no Weyl image of {p} mod 1 lies in the fundamental domain")
