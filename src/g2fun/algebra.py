"""Symbolic algebra of orbit sums: products, character expansions, inversion.

A product of two orbit functions is again a finite integer combination
of orbit functions of the "target" family, the componentwise product of
the two sign homomorphisms.  The expansion is computed exactly: sum the
two signed orbits pairwise into a bag of exponents, then read off the
coefficients at the dominant exponents (each dominant exponent carries
sign +1 in its own orbit sum, so its bag coefficient is the expansion
coefficient; exponents on sign-negative walls cancel to zero inside the
bag).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import lru_cache

from .orbitfn import CHARACTER_VARIANTS, evaluate
from .rootsys import (
    C,
    S,
    SL,
    SS,
    Family,
    Point,
    Weight,
    height,
    is_admissible,
    signed_orbit,
)

_BY_SIGNS = {(f.sigma_r1, f.sigma_r2): f for f in (C, S, SL, SS)}


def target_family(fam_a: Family, fam_b: Family) -> Family:
    """Family of a product: componentwise product of the generator signs."""
    return _BY_SIGNS[(fam_a.sigma_r1 * fam_b.sigma_r1, fam_a.sigma_r2 * fam_b.sigma_r2)]


@dataclass
class OrbitSum:
    """Integer combination of one family's orbit functions."""

    family: Family
    terms: dict[Weight, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned = {}
        for w, c in self.terms.items():
            w = Weight(*w)
            if not w.is_dominant:
                raise ValueError(f"orbit-sum term {w} is not dominant")
            if c:
                cleaned[w] = int(c)
        self.terms = cleaned

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Weight, int]]:
        return sorted(self.terms.items(), key=lambda t: (-height(t[0]), t[0]))

    def __add__(self, other: "OrbitSum") -> "OrbitSum":
        if other.family != self.family:
            raise ValueError("cannot add orbit sums of different families")
        merged = dict(self.terms)
        for w, c in other.terms.items():
            merged[w] = merged.get(w, 0) + c
        return OrbitSum(self.family, merged)

    def __sub__(self, other: "OrbitSum") -> "OrbitSum":
        return self + (-1) * other

    def __rmul__(self, k: int) -> "OrbitSum":
        return OrbitSum(self.family, {w: k * c for w, c in self.terms.items()})

    def pretty(self, latex: bool = False) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            if latex:
                name = {"C": "C", "S": "S", "SL": "S^L", "SS": "S^S"}[self.family.tag]
                term = f"{name}_{{({w.a},{w.b})}}"
            else:
                term = f"{self.family.tag}({w.a},{w.b})"
            mag = abs(c)
            body = term if mag == 1 else f"{mag}{term}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+{body}" if c > 0 else f"-{body}")
        return "".join(parts)

    def to_json(self) -> str:
        return json.dumps(
            {
                "family": self.family.tag,
                "terms": [[w.a, w.b, c] for w, c in self.sorted_terms()],
            }
        )


def evaluate_sum(osum: OrbitSum, p) -> complex:
    """Numeric value of an orbit sum at a point (full complex values)."""
    total = 0j
    for w, c in osum.terms.items():
        total += c * evaluate(osum.family, w, p).value
    return total


@lru_cache(maxsize=None)
def _product_terms(
    fam_a: Family, lam_a: Weight, fam_b: Family, lam_b: Weight
) -> tuple[tuple[Weight, int], ...]:
    bag: dict[Weight, int] = {}
    orbit_b = signed_orbit(fam_b, lam_b)
    for mu, s_mu in signed_orbit(fam_a, lam_a):
        for nu, s_nu in orbit_b:
            w = mu + nu
            bag[w] = bag.get(w, 0) + s_mu * s_nu
    target = target_family(fam_a, fam_b)
    terms = []
    for w, c in bag.items():
        if not w.is_dominant:
            continue
        if not is_admissible(target, w):
            # Wall exponents must cancel inside the bag for the target symmetry.
            if c:
                raise RuntimeError(f"wall exponent {w} survived with coefficient {c}")
            continue
        if c:
            terms.append((w, c))
    terms.sort(key=lambda t: (-height(t[0]), t[0]))
    return tuple(terms)


def expand_product(
    fam_a: Family, lam_a: Weight, fam_b: Family, lam_b: Weight
) -> OrbitSum:
    """Exact decomposition of a pointwise product into the target family.

    Inadmissible factors (identically-zero functions) give the zero sum.
    """
    lam_a, lam_b = Weight(*lam_a), Weight(*lam_b)
    if not (lam_a.is_dominant and lam_b.is_dominant):
        raise ValueError("product factors must be dominant weights")
    return OrbitSum(
        target_family(fam_a, fam_b),
        dict(_product_terms(fam_a, lam_a, fam_b, lam_b)),
    )


@lru_cache(maxsize=None)
def _char_terms(variant: str, lam: Weight) -> tuple[tuple[Weight, int], ...]:
    fam, shift = CHARACTER_VARIANTS[variant]
    work: dict[Weight, int] = {lam + shift: 1}
    coeffs: dict[Weight, int] = {}
    while work:
        nu = max(work, key=lambda w: (height(w), w))
        c = work[nu]
        mu = nu - shift
        if not mu.is_dominant:
            raise RuntimeError(f"peeling escaped the dominant cone at {nu}")
        coeffs[mu] = coeffs.get(mu, 0) + c
        for w, k in _product_terms(fam, shift, C, mu):
            work[w] = work.get(w, 0) - c * k
            if work[w] == 0:
                del work[w]
    return tuple(sorted(coeffs.items(), key=lambda t: (-height(t[0]), t[0])))


def expand_char_in_C(variant: str, lam: Weight) -> OrbitSum:
    """Expand a character variant over C-functions with integer coefficients.

    Solves the unitriangular system S_{lam+shift} = sum_mu m_mu *
    (S_shift * C_mu) by peeling the highest term: each denominator-times-C
    product has leading coefficient 1 at mu+shift and only lower terms
    below it, so the loop strictly descends and the coefficients are the
    exact integers of the character expansion.
    """
    if variant not in CHARACTER_VARIANTS:
        raise ValueError(f"unknown character variant {variant!r}")
    lam = Weight(*lam)
    if not lam.is_dominant:
        raise ValueError(f"{lam} is not dominant")
    return OrbitSum(C, dict(_char_terms(variant, lam)))


def char_expansion_matrix(weights) -> dict[Weight, dict[Weight, int]]:
    """Rows lam -> {mu: coefficient of C_mu in the full character of lam}."""
    ws = sorted({Weight(*w) for w in weights}, key=lambda w: (height(w), w))
    mat = {lam: dict(_char_terms("full", lam)) for lam in ws}
    allowed = set(ws)
    for lam, row in mat.items():
        stray = [mu for mu in row if mu not in allowed]
        if stray:
            raise ValueError(
                f"weight set is not downward-closed: character of {lam} "
                f"needs {stray[0]}"
            )
    return mat


def invert_char_matrix(weights) -> dict[Weight, dict[Weight, int]]:
    """Columns mu -> {lam: coefficient of the full character of lam in C_mu}.

    The weight set must be downward-closed so the expansion matrix is
    unitriangular in height order; the inverse is computed exactly over
    the integers by back-substitution.
    """
    mat = char_expansion_matrix(weights)
    order = sorted(mat, key=lambda w: (height(w), w))
    c_in_chi: dict[Weight, dict[Weight, int]] = {}
    for mu in order:
        combo: dict[Weight, int] = {mu: 1}
        for nu, m in mat[mu].items():
            if nu == mu:
                continue
            for lam, c in c_in_chi[nu].items():
                combo[lam] = combo.get(lam, 0) - m * c
        c_in_chi[mu] = {lam: c for lam, c in combo.items() if c}
    return c_in_chi


def random_interior_points(n: int, seed: int = 0) -> list[Point]:
    """Uniformly seeded points strictly inside the fundamental domain."""
    rng = random.Random(seed)
    pts = []
    for _ in range(n):
        u = rng.uniform(0.02, 0.98)
        v = rng.uniform(0.02, 0.98)
        x1 = 0.5 * u
        pts.append(Point(x1, v * (1.0 - 2.0 * x1) / 3.0))
    return pts


def product_check(
    fam_a: Family,
    lam_a: Weight,
    fam_b: Family,
    lam_b: Weight,
    osum: OrbitSum,
    *,
    n: int = 10,
    seed: int = 0,
) -> float:
    """Max relative error of the decomposition against direct evaluation at n points."""
    if n < 1:
        raise ValueError(f"product check needs a positive number of points, got {n}")
    worst = 0.0
    for p in random_interior_points(n, seed):
        lhs = evaluate(fam_a, lam_a, p).value * evaluate(fam_b, lam_b, p).value
        rhs = evaluate_sum(osum, p)
        err = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
        worst = max(worst, err)
    return worst


__all__ = [
    "OrbitSum",
    "char_expansion_matrix",
    "evaluate_sum",
    "expand_char_in_C",
    "expand_product",
    "invert_char_matrix",
    "product_check",
    "random_interior_points",
    "target_family",
]
