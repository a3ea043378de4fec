"""Discrete and continuous inner products and the lattice Fourier pair.

Everything operates on the real renormalized basis functions, so fields
and coefficient vectors are plain real arrays for all four families.

The level-M grid is a fundamental domain of the Weyl group acting on
the finite torus (Z/M)^2, and on that torus every family value is a
signed sum of characters over a Weyl orbit.  Forward and inverse
transforms therefore extend the data to the whole torus with the
family signs and take one 2-D FFT: O(M^2 log M) time and O(M^2) memory
per call.  `basis_matrix`, the dense sampled basis they are equivalent
to, is the reference oracle for tests and Gram checks only.

The tables come from one integer array per level (`_level_table`), not
from `lattice`; the spectrum is read off it as the dual grid (`lattice`
docstring), so a level new to the process costs about twice a warm call.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .lattice import grid_points, spectrum
from .orbitfn import sample_values
from .rootsys import FAMILIES, WEYL_GROUP, Family, Weight, family_by_tag

SQRT3 = math.sqrt(3.0)


def _finite_values(values, what: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{what} must be real numbers: {exc}") from None
    if arr.ndim != 1:
        raise ValueError(f"{what} must be a flat list of numbers")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite (found NaN or infinity)")
    return arr


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only because the lru caches share them."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@dataclass
class SampledField:
    """Values of a function on the level-M grid, in grid enumeration order."""

    M: int
    values: np.ndarray
    family: Optional[Family] = None

    def __post_init__(self) -> None:
        self.values = _finite_values(self.values, "field values")
        n = _level_table(self.M)[0].shape[1]
        if len(self.values) != n:
            raise ValueError(f"expected {n} values for level {self.M}, got {len(self.values)}")


@dataclass
class CoefficientVector:
    """Expansion coefficients indexed by the family's level-M spectrum."""

    family: Family
    M: int
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = _finite_values(self.values, "coefficients")
        n = _spectral_table(self.family, self.M)[0].shape[1]
        if len(self.values) != n:
            raise ValueError(f"expected {n} coefficients for {self.family} "
                             f"at level {self.M}, got {len(self.values)}")


_WEYL_MATRICES = np.array([w.matrix for w in WEYL_GROUP])


@lru_cache(maxsize=None)
def _level_table(M: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid points (s1, s2) as a 2 x N array in `lattice.grid_points` order,
    and the flat torus index s1 * M + s2 of w.s mod M, one row per Weyl
    element (identity first)."""
    if M < 1:
        raise ValueError(f"level must be a positive integer, got {M}")
    s2, s1 = np.divmod(np.arange((M // 3 + 1) * (M // 2 + 1)), M // 2 + 1)
    inside = 2 * s1 + 3 * s2 <= M
    s = np.stack((s1[inside], s2[inside]))
    images = (_WEYL_MATRICES @ s) % M
    return _frozen(s, images[:, 0] * M + images[:, 1])


@lru_cache(maxsize=None)
def _grid_arrays(M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid coordinates x1, x2 and the weights c_s = 12 / |Stab_M s|."""
    (s1, s2), images = _level_table(M)
    return _frozen(s1 / M, s2 / M, 12.0 / (images == images[0]).sum(axis=0))


def sample_on_grid(family: Family, lam: Weight, M: int) -> SampledField:
    """Renormalized values of one basis function on the level-M grid."""
    x1, x2, _ = _grid_arrays(M)
    return SampledField(M, sample_values(family, lam, x1, x2), family)


def basis_matrix(family: Family, M: int) -> np.ndarray:
    """Sampled basis, one row per spectrum weight, one column per grid point.

    The dense reference for `forward` and `inverse`; O(N^2) time and memory.
    """
    x1, x2, _ = _grid_arrays(M)
    sp = spectrum(family, M)
    mat = np.zeros((len(sp), len(x1)))
    for i, (lam, _) in enumerate(sp.entries):
        mat[i] = sample_values(family, lam, x1, x2)
    return mat


def discrete_inner(f: SampledField, g: SampledField) -> float:
    """Weighted sum over the grid of f * g with the orbit-size weights c_s."""
    if f.M != g.M:
        raise ValueError(f"grid mismatch: levels {f.M} and {g.M}")
    _, _, w = _grid_arrays(f.M)
    return float(np.dot(w, f.values * g.values))


def norm_constants(family: Family, M: int) -> np.ndarray:
    """Squared discrete norms 12 * M^2 * h of the spectrum entries."""
    sp = spectrum(family, M)
    return np.array([12.0 * M * M * float(h) for _, h in sp.entries])


@lru_cache(maxsize=None)
def _signs(family: Family) -> np.ndarray:
    return _frozen(np.array([w.sign(family) for w in WEYL_GROUP], dtype=float))[0]


@lru_cache(maxsize=None)
def _spectral_table(family: Family, M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Torus frequencies of the spectrum weights and their stabilizer sizes.

    The spectrum is the dual grid (`lattice` docstring).  Returns the flat
    frequency index of w.lam mod M (rows as in `_level_table`, columns in
    spectrum order), |Stab lam| and the forward divisor
    |Stab lam| * M^2 * h = 12 * M^2 / (c_s * |Stab lam|).
    """
    swapped = (family.sigma_r2, family.sigma_r1)
    keep = support_mask(next(f for f in FAMILIES if (f.sigma_r1, f.sigma_r2) == swapped), M)
    b, a = _level_table(M)[0][:, keep]
    images = _WEYL_MATRICES.transpose(0, 2, 1) @ np.stack((2 * a + b, 3 * a + 2 * b))
    stab = (images == images[0]).all(axis=1).sum(axis=0).astype(float)
    freq = (images[:, 0] % M) * M + images[:, 1] % M
    return _frozen(freq, stab, 12.0 * M * M / (_grid_arrays(M)[2][keep] * stab))


def forward(family: Family, M: int, f: SampledField) -> CoefficientVector:
    """Analysis: project a sampled field onto the family's discrete basis.

    The field is extended to the torus as sigma(w) * f(s) at w.s (points
    on the family's antisymmetric walls carry no information and are
    zeroed), and coefficient lam is read from its 2-D FFT at the
    frequency of lam.
    """
    if f.M != M:
        raise ValueError(f"field is sampled at level {f.M}, not {M}")
    freq, _, divisor = _spectral_table(family, M)
    values = np.where(support_mask(family, M), f.values, 0.0)
    torus = np.zeros(M * M)
    torus[_level_table(M)[1]] = _signs(family)[:, None] * values
    spec = np.fft.fft2(torus.reshape(M, M)).ravel()[freq[0]].conj()
    part = spec.real if family.real_valued else spec.imag
    return CoefficientVector(family, M, part / divisor)


def inverse(family: Family, M: int, d: CoefficientVector) -> SampledField:
    """Synthesis: rebuild grid values from spectrum coefficients.

    Each coefficient is spread over the torus frequencies of its Weyl
    orbit (members may coincide mod M, hence the bincount) and one
    inverse 2-D FFT is read back at the grid points.
    """
    if d.family != family or d.M != M:
        raise ValueError(f"coefficients belong to {d.family} at level {d.M}")
    freq, stab, _ = _spectral_table(family, M)
    amplitudes = _signs(family)[:, None] * (d.values / stab)
    spec = np.bincount(freq.ravel(), weights=amplitudes.ravel(), minlength=M * M)
    torus = np.fft.ifft2(spec.reshape(M, M)).ravel()[_level_table(M)[1][0]] * (M * M)
    return SampledField(M, torus.real if family.real_valued else torus.imag, family)


@lru_cache(maxsize=None)
def support_mask(family: Family, M: int) -> np.ndarray:
    """Grid points where the family's basis does not vanish identically.

    A point is dropped when some Weyl element fixes it on the torus with
    family sign -1 (it lies on an antisymmetric wall); on the remaining
    points the sampled basis is square and invertible.  Read-only.
    """
    images = _level_table(M)[1]
    flips = (images == images[0]) & (_signs(family)[:, None] < 0)
    return _frozen(~flips.any(axis=0))[0]


@lru_cache(maxsize=None)
def _triangle_rule(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Tensor Gauss-Legendre rule mapped onto the fundamental triangle:
    # outer coordinate x1 in [0, 1/2], inner x2 in [0, (1 - 2*x1)/3].
    if order < 1:
        raise ValueError(f"quadrature order must be positive, got {order}")
    t, w = np.polynomial.legendre.leggauss(order)
    u = (t + 1.0) / 2.0
    x1 = u / 2.0
    span = (1.0 - 2.0 * x1) / 3.0
    x1g = np.repeat(x1, order)
    x2g = (np.outer(span, u)).ravel()
    wg = (np.outer(w * span, w)).ravel() / 8.0
    return _frozen(x1g, x2g, wg)


def continuous_inner(
    fam_a: Family,
    lam_a: Weight,
    fam_b: Family,
    lam_b: Weight,
    *,
    order: int = 40,
) -> float:
    """Quadrature for sqrt(3) * integral over F of the two renormalized values.

    For two functions of the same family this approximates the exact
    orthogonality constants (sqrt(3)/12, sqrt(3)/2, sqrt(3), or 0).
    """
    x1, x2, w = _triangle_rule(order)
    fa = sample_values(fam_a, lam_a, x1, x2)
    fb = sample_values(fam_b, lam_b, x1, x2)
    return SQRT3 * float(np.dot(w, fa * fb))


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def field_to_json(f: SampledField) -> str:
    tag = None if f.family is None else f.family.tag
    return json.dumps(
        {"M": f.M, "family": tag, "values": [float(v) for v in f.values]}
    )


def _json_object(text: str, *keys: str) -> dict:
    data = json.loads(text)
    missing = [k for k in keys if not isinstance(data, dict) or k not in data]
    if missing:
        raise ValueError(f"JSON input lacks key(s) {', '.join(missing)}")
    return data


def _level(value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"level M must be an integer, got {value!r}") from None


def field_from_json(text: str) -> SampledField:
    data = _json_object(text, "M", "values")
    tag = data.get("family")
    family = None if tag is None else family_by_tag(tag)
    return SampledField(_level(data["M"]), data["values"], family)


def coefficients_to_json(d: CoefficientVector) -> str:
    return json.dumps(
        {"M": d.M, "family": d.family.tag, "values": [float(v) for v in d.values]}
    )


def coefficients_from_json(text: str) -> CoefficientVector:
    data = _json_object(text, "family", "M", "values")
    return CoefficientVector(
        family_by_tag(data["family"]), _level(data["M"]), data["values"]
    )


def field_to_csv(f: SampledField) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["s0", "s1", "s2", "x1", "x2", "value"])
    grid = grid_points(f.M)
    for kp, v in zip(grid.points, f.values):
        writer.writerow([kp.s0, kp.s1, kp.s2, _fmt(kp.s1 / f.M), _fmt(kp.s2 / f.M), _fmt(v)])
    return out.getvalue()


def _csv_rows(text: str, *columns: str) -> list[tuple[str, ...]]:
    if "," not in text.partition("\n")[0]:
        # a text table as the CLI prints it: blank-separated columns
        text = "\n".join(",".join(line.split()) for line in text.splitlines())
    reader = csv.DictReader(io.StringIO(text))
    missing = [c for c in columns if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"CSV input lacks column(s) {', '.join(missing)}")
    rows = []
    for row in reader:
        cells = tuple(row[c] for c in columns)
        if None in cells:
            raise ValueError(f"CSV line {reader.line_num} has too few cells")
        rows.append(cells)
    return rows


def field_from_csv(text: str, M: int, family: Optional[Family] = None) -> SampledField:
    grid = grid_points(M)
    by_kac = {(kp.s0, kp.s1, kp.s2): i for i, kp in enumerate(grid.points)}
    values = np.zeros(len(grid))
    seen = 0
    for s0, s1, s2, value in _csv_rows(text, "s0", "s1", "s2", "value"):
        key = (int(s0), int(s1), int(s2))
        if key not in by_kac:
            raise ValueError(f"row {key} is not a level-{M} grid point")
        values[by_kac[key]] = float(value)
        seen += 1
    if seen != len(grid):
        raise ValueError(f"expected {len(grid)} rows, got {seen}")
    return SampledField(M, values, family)


def coefficients_to_csv(d: CoefficientVector) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["a", "b", "h", "value"])
    for (lam, h), v in zip(spectrum(d.family, d.M).entries, d.values):
        writer.writerow([lam.a, lam.b, str(h), _fmt(v)])
    return out.getvalue()


def coefficients_from_csv(text: str, family: Family, M: int) -> CoefficientVector:
    sp = spectrum(family, M)
    index = {w: i for i, w in enumerate(sp.weights())}
    values = np.zeros(len(sp))
    seen = 0
    for a, b, value in _csv_rows(text, "a", "b", "value"):
        lam = Weight(int(a), int(b))
        if lam not in index:
            raise ValueError(f"{lam} is not in the {family} spectrum at level {M}")
        values[index[lam]] = float(value)
        seen += 1
    if seen != len(sp):
        raise ValueError(f"expected {len(sp)} rows, got {seen}")
    return CoefficientVector(family, M, values)


__all__ = [
    "CoefficientVector",
    "SampledField",
    "basis_matrix",
    "coefficients_from_csv",
    "coefficients_from_json",
    "coefficients_to_csv",
    "coefficients_to_json",
    "continuous_inner",
    "discrete_inner",
    "field_from_csv",
    "field_from_json",
    "field_to_csv",
    "field_to_json",
    "forward",
    "inverse",
    "norm_constants",
    "sample_on_grid",
    "support_mask",
]
