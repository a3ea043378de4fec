"""Exact combinatorics of the G2 root system.

Weights carry integer coordinates in the basis of fundamental weights;
evaluation points carry coordinates in the dual basis of fundamental
co-weights.  The two bases pair integrally, so every group-theoretic
operation here (reflections, orbits, folding into the fundamental
domain) stays in exact integer or rational arithmetic.

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


def point_to_kac(p: Point, M: int) -> KacPoint:
    """Exact inverse of KacPoint.point for points of F with denominator | M."""
    s1 = Fraction(p.x1) * M
    s2 = Fraction(p.x2) * M
    if s1.denominator != 1 or s2.denominator != 1:
        raise ValueError(f"{p} is not on the level-{M} lattice")
    return kac_point(M - 2 * int(s1) - 3 * int(s2), int(s1), int(s2), M)


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

    def sigma(self, k: int) -> int:
        if k == 1:
            return self.sigma_r1
        if k == 2:
            return self.sigma_r2
        raise ValueError(f"generator index must be 1 or 2, got {k}")

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


def pairing(w: Weight, p: Point) -> Coord:
    """Scalar product of a weight with a point, exact for exact coordinates."""
    k1, k2 = omega_to_alpha(w)
    return k1 * p.x1 + k2 * p.x2


def reflect_weight(k: int, w: Weight) -> Weight:
    """Simple reflection r_k acting on a weight."""
    if k == 1:
        return Weight(-w.a, 3 * w.a + w.b)
    if k == 2:
        return Weight(w.a + w.b, -w.b)
    raise ValueError(f"generator index must be 1 or 2, got {k}")


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


def is_admissible(family: Family, lam: Weight) -> bool:
    """True when the family's orbit sum for dominant lam is not identically zero.

    A dominant weight on a reflection wall is inadmissible for families
    that alternate under that reflection: the stabilizer forces pairwise
    cancellation of the whole sum.
    """
    if not lam.is_dominant:
        return False
    if lam.a == 0 and family.sigma_r1 < 0:
        return False
    if lam.b == 0 and family.sigma_r2 < 0:
        return False
    return True


def dominantize(family: Family, w: Weight) -> SignedWeight:
    """Fold a weight into the dominant chamber, accumulating the family sign.

    Applies r1 whenever the first coordinate is negative, else r2, until
    dominant; each step strictly increases the height, so the loop
    terminates.  If the dominant representative lies on a wall whose
    reflection the family counts with sign -1, the sign collapses to 0.
    """
    a, b = w
    sign = 1
    while a < 0 or b < 0:
        if a < 0:
            a, b = -a, 3 * a + b
            sign *= family.sigma_r1
        else:
            a, b = a + b, -b
            sign *= family.sigma_r2
    if (a == 0 and family.sigma_r1 < 0) or (b == 0 and family.sigma_r2 < 0):
        sign = 0
    return SignedWeight(Weight(a, b), sign)


def signed_orbit(family: Family, lam: Weight) -> tuple[SignedWeight, ...]:
    """Weyl orbit of a dominant weight with the family's sign on each member.

    Returns the empty tuple for inadmissible weights (the orbit sum is
    identically zero there).  Ordered by decreasing height, dominant
    member first, so callers get a deterministic term order.
    """
    if not lam.is_dominant:
        raise ValueError(f"{lam} is not dominant")
    if not is_admissible(family, lam):
        return ()
    signs = {lam: 1}
    stack = [lam]
    while stack:
        w = stack.pop()
        s = signs[w]
        for k in (1, 2):
            r = reflect_weight(k, w)
            rs = s * family.sigma(k)
            if r in signs:
                if signs[r] != rs:
                    raise AssertionError(f"sign conflict on admissible orbit of {lam}")
            else:
                signs[r] = rs
                stack.append(r)
    members = sorted(signs, key=lambda w: (-height(w), w))
    return tuple(SignedWeight(w, signs[w]) for w in members)


def weyl_orbit(lam: Weight) -> list[Weight]:
    """Weyl orbit of a dominant weight, ordered by decreasing height."""
    return [sw.weight for sw in signed_orbit(C, lam)]


def orbit_sign(family: Family, lam: Weight, mu: Weight) -> int:
    """Sign the family attaches to orbit member mu of dominant lam."""
    folded = dominantize(family, mu)
    if folded.weight != lam:
        raise ValueError(f"{mu} is not in the orbit of {lam}")
    return folded.sign


_FOLD_LIMIT = 100_000


def fold_to_F(p: Point) -> Point:
    """Map any point to its affine-Weyl representative in the fundamental domain.

    Coordinates are reduced mod 1 first (integer co-weight translations
    are lattice translations here), then reflected through whichever of
    the three bounding walls is violated until none is.  Arithmetic is
    exact rational, so termination is the usual strictly-decreasing
    gallery distance argument, not a numeric accident.
    """
    x1 = Fraction(p.x1)
    x2 = Fraction(p.x2)
    x1 -= math.floor(x1)
    x2 -= math.floor(x2)
    for _ in range(_FOLD_LIMIT):
        if x1 < 0:
            x1, x2 = -x1, x1 + x2
        elif x2 < 0:
            x1, x2 = x1 + 3 * x2, -x2
        elif 2 * x1 + 3 * x2 > 1:
            x1, x2 = 1 - x1 - 3 * x2, x2
        else:
            return Point(x1, x2)
    raise RuntimeError(f"folding failed to terminate for {p}")
