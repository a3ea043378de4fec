"""Numeric evaluation of the four orbit-function families.

For a dominant weight lam and a point x, the family value is the sum of
sign(mu) * exp(2*pi*i*<mu, x>) over the Weyl orbit of lam, with the sign
homomorphism of the family.  C and S values are real; SL and SS values
are purely imaginary, and their real "renormalized" view divides out the
factor i (a modulus-one factor, so all orthogonality constants survive
unchanged).

Only `sample_values` needs numpy, and it imports numpy when called.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .rootsys import (
    C,
    S,
    SL,
    SS,
    WEYL_GROUP,
    Family,
    Point,
    Weight,
    affine_reflect,
    reflect_point,
    signed_orbit,
)

if TYPE_CHECKING:
    import numpy as np

TWO_PI = 2.0 * math.pi


class FunctionValue(NamedTuple):
    """Full complex value plus the real renormalized view of one evaluation."""

    value: complex
    renormalized: float
    admissible: bool


class SingularPointError(ValueError):
    """Raised when a character ratio is requested where its denominator vanishes."""


@lru_cache(maxsize=None)
def _signed_exponents(family: Family, lam: Weight) -> tuple[tuple[int, int, int], ...]:
    # Simple-root coordinates of each orbit member, paired with its sign.
    return tuple(
        (2 * w.a + w.b, 3 * w.a + 2 * w.b, s) for w, s in signed_orbit(family, lam)
    )


def evaluate(family: Family, lam: Weight, p) -> FunctionValue:
    """Orbit sum of `family` at weight lam and point p.

    Total on dominant weights: an inadmissible weight (on a wall the
    family alternates across) yields exactly zero, flagged through the
    `admissible` field.  Integer co-weight translations are symmetries,
    so each coordinate is reduced mod 1 before it becomes a float; `%`
    is exact on int, Fraction and float, which keeps huge exact
    coordinates finite and accurate.  A non-finite coordinate raises
    ValueError.
    """
    lam = Weight(*lam)
    if not lam.is_dominant:
        raise ValueError(f"{lam} is not dominant")
    x1 = float(p[0] % 1)
    x2 = float(p[1] % 1)
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError(f"point coordinates must be finite, got ({p[0]}, {p[1]})")
    terms = _signed_exponents(family, lam)
    if not terms:
        return FunctionValue(0j, 0.0, False)
    val = 0j
    for k1, k2, s in terms:
        val += s * cmath.exp(1j * TWO_PI * (k1 * x1 + k2 * x2))
    ren = val.real if family.real_valued else val.imag
    return FunctionValue(val, ren, True)


def evaluate_real(family: Family, lam: Weight, p) -> float:
    """Renormalized real value: the full value for C and S, value/i for SL and SS."""
    return evaluate(family, lam, p).renormalized


def sample_values(family: Family, lam: Weight, x1, x2) -> np.ndarray:
    """Vectorized renormalized values over arrays of point coordinates.

    A non-finite coordinate raises ValueError, as in `evaluate`.
    """
    import numpy as np

    lam = Weight(*lam)
    if not lam.is_dominant:
        raise ValueError(f"{lam} is not dominant")
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if not (np.isfinite(x1).all() and np.isfinite(x2).all()):
        raise ValueError("point coordinates must be finite")
    total = np.zeros(np.broadcast_shapes(x1.shape, x2.shape), dtype=complex)
    for k1, k2, s in _signed_exponents(family, lam):
        total += s * np.exp(1j * TWO_PI * (k1 * x1 + k2 * x2))
    return total.real if family.real_valued else total.imag


#: Denominator family and weight shift for the three character variants.
CHARACTER_VARIANTS = {
    "full": (S, Weight(1, 1)),
    "L": (SL, Weight(1, 0)),
    "S": (SS, Weight(0, 1)),
}


def character(variant: str, lam: Weight, p, *, denom_tol: float = 1e-12) -> float:
    """Character-like ratio of alternating sums shifted by the variant's vector.

    The ratio of two same-family values is real even for the imaginary
    families, so this returns the renormalized quotient.  Points where
    the denominator is smaller than `denom_tol` in absolute value raise
    SingularPointError; lower the guard explicitly to probe near walls.
    """
    try:
        fam, shift = CHARACTER_VARIANTS[variant]
    except KeyError:
        raise ValueError(f"unknown character variant {variant!r}") from None
    lam = Weight(*lam)
    if not lam.is_dominant:
        raise ValueError(f"{lam} is not dominant")
    den = evaluate_real(fam, shift, p)
    if abs(den) <= denom_tol:
        raise SingularPointError(f"character denominator vanishes at {tuple(p)}")
    num = evaluate_real(fam, lam + shift, p)
    return num / den


def dimension(lam: Weight) -> int:
    """Dimension of the irreducible representation with highest weight lam."""
    a, b = Weight(*lam)
    if a < 0 or b < 0:
        raise ValueError(f"{Weight(a, b)} is not dominant")
    total = (
        (a + 1)
        * (b + 1)
        * (a + b + 2)
        * (2 * a + b + 3)
        * (3 * a + b + 4)
        * (3 * a + 2 * b + 5)
    )
    q, r = divmod(total, 120)
    if r:
        raise RuntimeError(f"dimension polynomial of {Weight(a, b)} is not divisible by 120")
    return q


#: The three walls of the fundamental domain.
WALLS = ("r1", "r2", "affine")


def boundary_parity(family: Family, wall: str) -> str:
    """Mirror behavior of a family on one wall of the fundamental domain.

    "antisymmetric" means the function vanishes on the wall;
    "symmetric" means its normal derivative does.  The linear part of
    the wall's reflection is an element of `WEYL_GROUP` (for the affine
    wall one conjugate to r1), and its family sign decides.
    """
    if wall not in WALLS:
        raise ValueError(f"wall must be one of {WALLS}, got {wall!r}")
    mirror = {"r1": lambda p: reflect_point(1, p), "r2": lambda p: reflect_point(2, p),
              "affine": affine_reflect}[wall]
    o, e1, e2 = (mirror(Point(*p)) for p in ((0, 0), (1, 0), (0, 1)))
    linear = ((e1.x1 - o.x1, e2.x1 - o.x1), (e1.x2 - o.x2, e2.x2 - o.x2))
    g = next(g for g in WEYL_GROUP if g.matrix == linear)
    return "antisymmetric" if g.sign(family) < 0 else "symmetric"


__all__ = [
    "C",
    "S",
    "SL",
    "SS",
    "Family",
    "FunctionValue",
    "SingularPointError",
    "CHARACTER_VARIANTS",
    "WALLS",
    "boundary_parity",
    "character",
    "dimension",
    "evaluate",
    "evaluate_real",
    "sample_values",
]
