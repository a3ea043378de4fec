"""Discrete and continuous pairings, transforms, and field serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import g2fun as g
from g2fun import C, S, SL, SS, CoefficientVector, SampledField, Weight

from conftest import ALL_FAMILIES

SQRT3 = math.sqrt(3.0)


# ------------------------------------------------------------ discrete pairing


def test_discrete_inner_of_constants():
    ones = SampledField(2, np.ones(g.grid_size(2)))
    assert g.discrete_inner(ones, ones) == pytest.approx(4.0)


def test_discrete_inner_fixtures():
    f = g.sample_on_grid(C, Weight(1, 0), 6)
    h = g.sample_on_grid(C, Weight(0, 1), 6)
    assert g.discrete_inner(f, h) == pytest.approx(0.0, abs=1e-10)
    s = g.sample_on_grid(S, Weight(1, 1), 6)
    assert g.discrete_inner(s, s) == pytest.approx(432.0)


@pytest.mark.parametrize("M", [2, 3, 6, 7, 12])
def test_discrete_orthogonality_small_levels(M):
    for fam in ALL_FAMILIES:
        B = g.basis_matrix(fam, M)
        if B.shape[0] == 0:
            continue
        w = np.asarray(g.grid_points(M).weights, dtype=float)
        gram = (B * w) @ B.T
        want = np.diag(g.norm_constants(fam, M))
        assert np.allclose(gram, want, atol=1e-9 * M * M)


def test_norm_constants_formula():
    for fam in ALL_FAMILIES:
        sp = g.spectrum(fam, 10)
        want = np.array([12.0 * 100.0 * float(e.h) for e in sp.entries])
        assert np.allclose(g.norm_constants(fam, 10), want)


def test_basis_matrix_rows_are_samples():
    B = g.basis_matrix(SL, 8)
    for row, entry in zip(B, g.spectrum(SL, 8).entries):
        f = g.sample_on_grid(SL, entry.weight, 8)
        assert np.allclose(row, f.values)


# ------------------------------------------------------------ transforms


def test_forward_of_basis_function_is_indicator():
    for fam, lam in [(C, Weight(1, 0)), (SS, Weight(0, 1))]:
        f = g.sample_on_grid(fam, lam, 6)
        d = g.forward(fam, 6, f)
        weights = [tuple(e.weight) for e in g.spectrum(fam, 6).entries]
        want = np.array([1.0 if w == tuple(lam) else 0.0 for w in weights])
        assert np.allclose(d.values, want, atol=1e-12)


@pytest.mark.parametrize("M", [3, 6, 10])
def test_coefficient_roundtrip(M, rng):
    for fam in ALL_FAMILIES:
        n = len(g.spectrum(fam, M).entries)
        if n == 0:
            continue
        coeffs = CoefficientVector(fam, M, rng.standard_normal(n))
        back = g.forward(fam, M, g.inverse(fam, M, coeffs))
        assert np.allclose(back.values, coeffs.values, atol=1e-10)


@pytest.mark.parametrize("M", [6, 10])
def test_field_roundtrip_on_supported_points(M, rng):
    for fam in ALL_FAMILIES:
        mask = g.support_mask(fam, M)
        values = rng.standard_normal(g.grid_size(M)) * mask
        f = SampledField(M, values)
        back = g.inverse(fam, M, g.forward(fam, M, f))
        assert np.allclose(back.values, values, atol=1e-10)


def test_interior_field_roundtrip_alternating():
    rng = np.random.default_rng(7)
    mask = g.support_mask(S, 10)
    values = rng.standard_normal(g.grid_size(10)) * mask
    back = g.inverse(S, 10, g.forward(S, 10, SampledField(10, values)))
    assert np.allclose(back.values, values, atol=1e-10)


def test_parseval_identity(rng):
    M = 12
    for fam in ALL_FAMILIES:
        values = rng.standard_normal(g.grid_size(M)) * g.support_mask(fam, M)
        f = SampledField(M, values)
        d = g.forward(fam, M, f)
        energy = float(g.norm_constants(fam, M) @ (d.values**2))
        assert g.discrete_inner(f, f) == pytest.approx(energy, rel=1e-9)


def test_support_mask_counts_match_spectrum():
    for M in (2, 5, 6, 11, 16):
        for fam in ALL_FAMILIES:
            assert int(g.support_mask(fam, M).sum()) == len(g.spectrum(fam, M).entries)


def test_excluded_weights_vanish_on_grid():
    # weights admissible for the family but outside the level-M spectrum
    # sample to the zero field, so they carry no grid information
    for fam, lam, M in [(S, Weight(1, 1), 5), (SS, Weight(0, 3), 6)]:
        spectrum_weights = {tuple(e.weight) for e in g.spectrum(fam, M).entries}
        assert tuple(lam) not in spectrum_weights
        f = g.sample_on_grid(fam, lam, M)
        assert np.allclose(f.values, 0.0, atol=1e-12)


# ------------------------------------------------------------ torus FFT = dense basis


def _dense_pair(fam, M, values, coeffs):
    # The reference: explicit products with the sampled basis matrix.
    B = g.basis_matrix(fam, M)
    w = np.asarray(g.grid_points(M).weights, dtype=float)
    return B @ (w * values) / g.norm_constants(fam, M), coeffs @ B


def _assert_fft_matches_dense(fam, M, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(g.grid_size(M))
    coeffs = rng.standard_normal(len(g.spectrum(fam, M)))
    want_d, want_f = _dense_pair(fam, M, values, coeffs)
    got_d = g.forward(fam, M, SampledField(M, values)).values
    got_f = g.inverse(fam, M, CoefficientVector(fam, M, coeffs)).values
    assert np.max(np.abs(got_d - want_d), initial=0.0) <= 1e-10
    assert np.max(np.abs(got_f - want_f), initial=0.0) <= 1e-10


@given(st.sampled_from(ALL_FAMILIES), st.integers(1, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_fft_transforms_equal_dense_products(fam, M, seed):
    _assert_fft_matches_dense(fam, M, seed)


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=str)
def test_fft_transforms_equal_dense_products_at_level_120(fam):
    _assert_fft_matches_dense(fam, 120, 120)


def _wall_rule_mask(fam, M):
    # The antisymmetric walls of each family, written out by hand.
    rules = {
        "C": lambda kp: True,
        "S": lambda kp: kp.s0 > 0 and kp.s1 > 0 and kp.s2 > 0,
        "SL": lambda kp: kp.s0 > 0 and kp.s1 > 0,
        "SS": lambda kp: kp.s2 > 0,
    }
    return np.array([rules[fam.tag](kp) for kp in g.grid_points(M).points])


@pytest.mark.parametrize("M", range(1, 31))
def test_support_mask_equals_wall_rules(M):
    for fam in ALL_FAMILIES:
        assert np.array_equal(g.support_mask(fam, M), _wall_rule_mask(fam, M))


@pytest.mark.parametrize("M", [1, 2, 3, 6, 7, 12, 13])
def test_grid_weights_are_torus_orbit_sizes(M):
    images = g.transforms._level_table(M)[1]
    sizes = [len(set(col)) for col in images.T]
    assert sizes == list(g.grid_points(M).weights)


# ------------------------------------------------------------ dual-grid tables = exact oracle


def _grid_oracle(M):
    # Grid coordinates, weights and torus images read off the KacPoints.
    grid = g.grid_points(M)
    s = np.array([(kp.s1, kp.s2) for kp in grid.points]).T
    images = (g.transforms._WEYL_MATRICES @ s) % M
    x1 = np.array([kp.s1 / M for kp in grid.points])
    x2 = np.array([kp.s2 / M for kp in grid.points])
    w = np.array(grid.weights, dtype=float)
    return s, images[:, 0] * M + images[:, 1], (x1, x2, w)


def _spectral_table_oracle(fam, M):
    # The table as built from lattice.spectrum: weights through
    # omega_to_alpha and the exact h of each entry.
    sp = g.spectrum(fam, M)
    k = np.array([g.rootsys.omega_to_alpha(lam) for lam, _ in sp.entries], dtype=int)
    images = g.transforms._WEYL_MATRICES.transpose(0, 2, 1) @ k.reshape(-1, 2).T
    stab = (images == images[0]).all(axis=1).sum(axis=0).astype(float)
    freq = (images[:, 0] % M) * M + images[:, 1] % M
    divisor = stab * (M * M) * np.array([float(h) for _, h in sp.entries])
    return freq, stab, divisor


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=str)
def test_dual_grid_tables_equal_the_exact_oracle(fam):
    for M in range(1, 61):
        s, images, arrays = _grid_oracle(M)
        assert _same_bits(g.transforms._level_table(M)[0], s), M
        assert _same_bits(g.transforms._level_table(M)[1], images), M
        for got, want in zip(g.transforms._grid_arrays(M), arrays):
            assert _same_bits(got, want), M
        assert _same_bits(g.support_mask(fam, M), _wall_rule_mask(fam, M)), M
        for got, want in zip(g.transforms._spectral_table(fam, M),
                             _spectral_table_oracle(fam, M)):
            assert _same_bits(got, want), M


def test_transforms_never_build_the_exact_grid_or_spectrum(monkeypatch):
    def refuse(*args):
        raise AssertionError("the transform path called an exact lattice builder")

    for module in (g.lattice, g.transforms):
        monkeypatch.setattr(module, "grid_points", refuse)
        monkeypatch.setattr(module, "spectrum", refuse)
    for table in (g.transforms._level_table, g.transforms._grid_arrays,
                  g.transforms.support_mask, g.transforms._spectral_table):
        table.cache_clear()
    M = 37
    values = np.random.default_rng(37).standard_normal(g.grid_size(M))
    for fam in ALL_FAMILIES:
        d = g.forward(fam, M, SampledField(M, values, fam))
        back = g.inverse(fam, M, CoefficientVector(fam, M, d.values))
        mask = g.support_mask(fam, M)
        assert np.allclose(back.values[mask], values[mask], atol=1e-10)
    with pytest.raises(ValueError, match="level must be a positive integer"):
        SampledField(0, [])


# ------------------------------------------------------------ continuous pairing


def test_continuous_norms():
    assert g.continuous_inner(C, Weight(0, 0), C, Weight(0, 0)) == pytest.approx(
        SQRT3 / 12.0, abs=1e-8
    )
    assert g.continuous_inner(C, Weight(1, 0), C, Weight(1, 0)) == pytest.approx(
        SQRT3 / 2.0, abs=1e-8
    )
    assert g.continuous_inner(SL, Weight(1, 0), SL, Weight(1, 0)) == pytest.approx(
        SQRT3 / 2.0, abs=1e-8
    )
    assert g.continuous_inner(S, Weight(1, 1), S, Weight(1, 1)) == pytest.approx(
        SQRT3, abs=1e-8
    )


def test_continuous_orthogonality_within_family():
    pairs = [
        (C, Weight(1, 0), Weight(0, 1)),
        (C, Weight(2, 1), Weight(1, 1)),
        (S, Weight(1, 1), Weight(1, 2)),
        (SL, Weight(1, 0), Weight(2, 0)),
        (SS, Weight(0, 1), Weight(1, 1)),
    ]
    for fam, lam, mu in pairs:
        assert g.continuous_inner(fam, lam, fam, mu) == pytest.approx(0.0, abs=1e-8)


def test_quadrature_weights_integrate_constants():
    x1, x2, w = g.transforms._triangle_rule(12)
    assert w.sum() == pytest.approx(1.0 / 12.0)
    assert ((x1 >= 0) & (x2 >= 0) & (2 * x1 + 3 * x2 <= 1 + 1e-12)).all()


def test_quadrature_converges_spectrally():
    # doubling the order shrinks the error at least tenfold until roundoff
    for lam in [Weight(1, 0), Weight(0, 1), Weight(2, 0), Weight(0, 3)]:
        exact = SQRT3 / 2.0
        errs = [
            abs(g.continuous_inner(C, lam, C, lam, order=order) - exact)
            for order in (4, 8, 16, 32)
        ]
        for coarse, fine in zip(errs, errs[1:]):
            if coarse < 1e-12:
                break
            assert fine < coarse / 10.0 or fine < 1e-12


# ------------------------------------------------------------ serialization


def test_field_serialization_roundtrip(rng):
    values = rng.standard_normal(g.grid_size(6))
    f = SampledField(6, values, family=SL)
    via_json = g.field_from_json(g.field_to_json(f))
    assert via_json.M == 6 and via_json.family == SL
    assert np.allclose(via_json.values, values)
    via_csv = g.field_from_csv(g.field_to_csv(f), 6, family=SL)
    assert np.allclose(via_csv.values, values)


def test_coefficient_serialization_roundtrip(rng):
    n = len(g.spectrum(SS, 9).entries)
    d = CoefficientVector(SS, 9, rng.standard_normal(n))
    via_json = g.coefficients_from_json(g.coefficients_to_json(d))
    assert via_json.family == SS and via_json.M == 9
    assert np.allclose(via_json.values, d.values)
    via_csv = g.coefficients_from_csv(g.coefficients_to_csv(d), SS, 9)
    assert np.allclose(via_csv.values, d.values)


def test_csv_has_readable_columns():
    f = g.sample_on_grid(C, Weight(1, 0), 3)
    header = g.field_to_csv(f).splitlines()[0]
    assert header.split(",")[:3] == ["s0", "s1", "s2"]
    d = g.forward(C, 3, f)
    header = g.coefficients_to_csv(d).splitlines()[0]
    assert header.split(",")[:2] == ["a", "b"]


# ------------------------------------------------------------ error paths


def test_shape_validation():
    with pytest.raises(ValueError):
        SampledField(6, np.zeros(3))
    with pytest.raises(ValueError):
        CoefficientVector(C, 6, np.zeros(2))
    f = SampledField(6, np.zeros(g.grid_size(6)))
    with pytest.raises(ValueError):
        g.forward(C, 7, f)
    d = CoefficientVector(C, 6, np.zeros(len(g.spectrum(C, 6).entries)))
    with pytest.raises(ValueError):
        g.inverse(C, 7, d)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e309])
def test_non_finite_values_are_rejected(bad):
    values = np.zeros(g.grid_size(6))
    values[2] = bad
    with pytest.raises(ValueError, match="finite"):
        SampledField(6, values)
    coeffs = np.zeros(len(g.spectrum(C, 6)))
    coeffs[0] = bad
    with pytest.raises(ValueError, match="finite"):
        CoefficientVector(C, 6, coeffs)


def test_unknown_family_tag_in_json_is_a_value_error():
    n = g.grid_size(3)
    with pytest.raises(ValueError, match="unknown family 'Q'"):
        g.field_from_json('{"M": 3, "family": "Q", "values": [%s]}' % ",".join(["0"] * n))
    with pytest.raises(ValueError, match="unknown family 'Q'"):
        g.coefficients_from_json('{"M": 3, "family": "Q", "values": []}')


def test_malformed_records_are_value_errors():
    with pytest.raises(ValueError, match="values"):
        g.field_from_json('{"M": 3}')
    with pytest.raises(ValueError, match="family"):
        g.coefficients_from_json('{"M": 3, "values": []}')
    with pytest.raises(ValueError, match="integer"):
        g.field_from_json('{"M": null, "values": []}')
    with pytest.raises(ValueError, match="real numbers"):
        g.coefficients_from_json('{"M": 1, "family": "C", "values": {"a": 1}}')
    with pytest.raises(ValueError, match="real numbers"):
        g.field_from_json('{"M": 1, "values": [1%s]}' % ("0" * 400))
    with pytest.raises(ValueError, match="column"):
        g.field_from_csv("s0,s1\n3,0\n", 3)
    with pytest.raises(ValueError, match="too few cells"):
        g.coefficients_from_csv("a,b,h,value\n1,0\n", C, 3)
