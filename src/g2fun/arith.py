"""Arithmetic of conjugacy classes of elements of finite order.

A level-M grid point with coprime Kac coordinates represents a
conjugacy class of elements of adjoint order exactly M; raising the
element to a power k folds k times the point back into the fundamental
domain.  A class is rational when every power coprime to M lands back
on the same class, which makes all character values at it rational
(here: integers, reproduced by the table builder below).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

from .algebra import expand_char_in_C
from .lattice import grid_points
from .orbitfn import evaluate_real
from .rootsys import C, Family, KacPoint, Point, Weight, fold_to_F


class FiniteOrderElement(NamedTuple):
    """Conjugacy class of an element of finite order, in lowest Kac terms."""

    kac: KacPoint

    @property
    def order(self) -> int:
        return self.kac.M

    def point(self) -> Point:
        return self.kac.point()


def enumerate_efo(M: int) -> list[FiniteOrderElement]:
    """All classes of order exactly M: grid points with coprime coordinates."""
    out = []
    for kp in grid_points(M).points:
        if math.gcd(kp.s0, math.gcd(kp.s1, kp.s2)) == 1:
            out.append(FiniteOrderElement(kp))
    return out


def power_class(e: FiniteOrderElement, k: int) -> KacPoint:
    """Kac coordinates, in lowest terms, of the k-th power of the class."""
    if k < 0:
        raise ValueError(f"power must be nonnegative, got {k}")
    M = e.order
    x = e.point()
    q = fold_to_F(Point(k * Fraction(x.x1), k * Fraction(x.x2)))
    t1 = Fraction(q.x1) * M
    t2 = Fraction(q.x2) * M
    if t1.denominator != 1 or t2.denominator != 1:
        raise RuntimeError(f"power {k} of {e.kac} left the level-{M} lattice")
    t1, t2 = int(t1), int(t2)
    t0 = M - 2 * t1 - 3 * t2
    g = math.gcd(t0, math.gcd(t1, t2))
    return KacPoint(t0 // g, t1 // g, t2 // g, M // g)


def is_rational(e: FiniteOrderElement) -> bool:
    """True when every power coprime to the order stays in the same class."""
    M = e.order
    return all(
        power_class(e, k) == e.kac
        for k in range(1, M)
        if math.gcd(k, M) == 1
    )


def rational_classes(max_order: int = 12) -> list[FiniteOrderElement]:
    """All rational classes of order up to max_order, sorted by (M, s2, s1)."""
    found = [
        e
        for M in range(1, max_order + 1)
        for e in enumerate_efo(M)
        if is_rational(e)
    ]
    found.sort(key=lambda e: (e.order, e.kac.s2, e.kac.s1))
    return found


#: Row layout of the integer table: six C-functions, then the three
#: character variants at the three lowest regular weights.
_C_ROWS = [Weight(1, 0), Weight(0, 1), Weight(1, 1), Weight(2, 0), Weight(0, 2), Weight(0, 3)]
_CHI_ROWS = [
    ("full", Weight(1, 0)),
    ("full", Weight(0, 1)),
    ("full", Weight(1, 1)),
    ("L", Weight(1, 0)),
    ("L", Weight(0, 1)),
    ("L", Weight(1, 1)),
    ("S", Weight(1, 0)),
    ("S", Weight(0, 1)),
    ("S", Weight(1, 1)),
]

_INT_TOL = 1e-8


def _rounded(v: float) -> int:
    r = round(v)
    if abs(v - r) > _INT_TOL:
        raise RuntimeError(f"expected an integer value, got {v}")
    return int(r)


def _char_value(variant: str, lam: Weight, p: Point) -> float:
    # Characters via their C-expansion: safe on the domain boundary,
    # where the defining ratio degenerates to 0/0.
    return sum(
        c * evaluate_real(C, mu, p)
        for mu, c in expand_char_in_C(variant, lam).terms.items()
    )


@dataclass(frozen=True)
class RationalTable:
    """Integer values of the lowest functions at all rational classes."""

    columns: tuple[KacPoint, ...]
    rows: tuple[tuple[str, tuple[int, ...]], ...]

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(
            ["function"]
            + [f"M={kp.M} [{kp.s0},{kp.s1},{kp.s2}]" for kp in self.columns]
        )
        for label, values in self.rows:
            writer.writerow([label] + list(values))
        return out.getvalue()

    def as_dict(self) -> dict[str, tuple[int, ...]]:
        return {label: values for label, values in self.rows}


@lru_cache(maxsize=1)
def rational_table(max_order: int = 12) -> RationalTable:
    """Evaluate the lowest C-functions and characters on all rational classes."""
    classes = rational_classes(max_order)
    columns = tuple(e.kac for e in classes)
    points = [e.point() for e in classes]
    rows: list[tuple[str, tuple[int, ...]]] = []
    for lam in _C_ROWS:
        values = tuple(_rounded(evaluate_real(C, lam, p)) for p in points)
        rows.append((f"C({lam.a},{lam.b})", values))
    for variant, lam in _CHI_ROWS:
        label = {"full": "chi", "L": "chiL", "S": "chiS"}[variant]
        values = tuple(_rounded(_char_value(variant, lam, p)) for p in points)
        rows.append((f"{label}({lam.a},{lam.b})", values))
    return RationalTable(columns, tuple(rows))


def search_integer_points(
    family: Family,
    weights: Iterable[Weight],
    denom_bound: int,
    *,
    tol: float = 1e-8,
) -> list[Point]:
    """Points of F with denominator <= bound where all listed values are integers.

    Scans the primitive Kac points of every level up to the bound (each
    point of finite order appears exactly once that way).
    """
    weights = [Weight(*w) for w in weights]
    hits = []
    for M in range(1, denom_bound + 1):
        for e in enumerate_efo(M):
            p = e.point()
            if all(
                abs(evaluate_real(family, w, p) - round(evaluate_real(family, w, p)))
                <= tol
                for w in weights
            ):
                hits.append(p)
    return hits


__all__ = [
    "FiniteOrderElement",
    "RationalTable",
    "enumerate_efo",
    "is_rational",
    "power_class",
    "rational_classes",
    "rational_table",
    "search_integer_points",
]
