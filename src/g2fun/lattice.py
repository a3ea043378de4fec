"""Discretization lattices: the grid F_M and the dual weight spectra.

The level-M grid collects the points of the fundamental domain whose
coordinates have denominator M, encoded as Kac coordinates [s0, s1, s2]
with s0 + 2*s1 + 3*s2 = M.  Each point carries an integer weight c_s
(the size of its orbit in the periodic torus); each family gets a
spectrum of weights with rational normalization constants h so that
discrete inner products come out as 12 * M^2 * h on the diagonal.
Both follow from `rootsys.stabilizer`: a weight with 3a + 2b <= M
belongs to a family's spectrum unless an element fixing it modulo M has
sign -1 in the family, and h = |Stab_M| / |Stab|^2.

The spectrum is also the dual grid: the grid points s off the walls of
the dual family (SL and SS swapped), read as weights lam = (s2, s1) in
grid order, with |Stab_M lam| = 12 / c_s.  The transforms read their
tables off that integer form with numpy, which makes a cold transform
about twice a warm one; these exact builders serve the exact commands
and the CSV files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .rootsys import Family, KacPoint, Weight, stabilizer


def c_weight(kp: KacPoint) -> int:
    """Orbit-size weight of a grid point: 12 interior, 6 facet, 1/3/2 at vertices."""
    if kp.s1 == 0 and kp.s2 == 0:
        return 1
    if kp.s0 == 0 and kp.s2 == 0:
        return 3
    if kp.s0 == 0 and kp.s1 == 0:
        return 2
    if kp.s0 == 0 or kp.s1 == 0 or kp.s2 == 0:
        return 6
    return 12


@dataclass(frozen=True)
class Grid:
    M: int
    points: tuple[KacPoint, ...]
    weights: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.points)


@lru_cache(maxsize=None)
def grid_points(M: int) -> Grid:
    """All level-M points of the fundamental domain, (s2, s1)-lexicographic."""
    if M < 1:
        raise ValueError(f"level must be a positive integer, got {M}")
    pts = []
    for s2 in range(M // 3 + 1):
        for s1 in range((M - 3 * s2) // 2 + 1):
            pts.append(KacPoint(M - 2 * s1 - 3 * s2, s1, s2, M))
    return Grid(M, tuple(pts), tuple(c_weight(kp) for kp in pts))


def grid_size(M: int) -> int:
    """Closed-form count of level-M grid points."""
    if M < 1:
        raise ValueError(f"level must be a positive integer, got {M}")
    return M // 3 + 1 + sum((M - 3 * i) // 2 for i in range(M // 3 + 1))


class SpectrumEntry(NamedTuple):
    """One basis label: the weight and its normalization constant h."""

    weight: Weight
    h: Fraction


@dataclass(frozen=True)
class Spectrum:
    family: Family
    M: int
    entries: tuple[SpectrumEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def weights(self) -> tuple[Weight, ...]:
        return tuple(w for w, _ in self.entries)


_ONE = Fraction(1)


@lru_cache(maxsize=None)
def spectrum(family: Family, M: int) -> Spectrum:
    """Weights labeling the family's orthogonal basis on the level-M grid.

    Each entry carries the normalization h with squared discrete norm
    12 * M^2 * h.  Off the three walls (a, b > 0, 3a + 2b < M) both
    stabilizers are trivial, so the weight is kept with h = 1.
    """
    if M < 1:
        raise ValueError(f"level must be a positive integer, got {M}")
    entries: list[SpectrumEntry] = []
    for a in range(M // 3 + 1):
        for b in range((M - 3 * a) // 2 + 1):
            lam = Weight(a, b)
            if a and b and 3 * a + 2 * b < M:
                entries.append(SpectrumEntry(lam, _ONE))
                continue
            fixing = stabilizer(lam, M)
            if all(g.sign(family) > 0 for g in fixing):
                h = Fraction(len(fixing), len(stabilizer(lam)) ** 2)
                entries.append(SpectrumEntry(lam, h))
    return Spectrum(family, M, tuple(entries))


def grid_to_json(grid: Grid) -> str:
    return json.dumps(
        {
            "M": grid.M,
            "points": [[kp.s0, kp.s1, kp.s2] for kp in grid.points],
            "weights": list(grid.weights),
        }
    )


__all__ = [
    "Grid",
    "Spectrum",
    "SpectrumEntry",
    "c_weight",
    "grid_points",
    "grid_size",
    "grid_to_json",
    "spectrum",
]
