"""Singular-value analysis: closed form, LAPACK spectrum, and range boundaries."""

import numpy as np
import pytest

from nearlink.kernel import channel_matrix
from nearlink.geometry import ElementLayout, PanelSpec, make_upa
from nearlink.mimo import (
    ConvergenceFailure,
    DegenerateSpectrum,
    SingularSpectrum,
    condition_ratio,
    dof_count,
    exact_ratio_curve,
    r_max,
    r_min,
    singular_values,
    svd_closed_form_2x2,
    theory_ratio_curve,
    write_spectrum_csv,
)

LAM = 0.01


def unit_modulus_2x2(t0, t1, t2, t3):
    return np.exp(1j * np.array([[t0, t1], [t2, t3]]))


def test_closed_form_all_zero_phases():
    assert svd_closed_form_2x2(0.0, 0.0, 0.0, 0.0) == (2.0, 0.0)


def test_closed_form_delta_pi():
    hi, lo = svd_closed_form_2x2(np.pi, 0.0, 0.0, 0.0)
    assert hi == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert lo == pytest.approx(np.sqrt(2.0), abs=1e-14)


def test_closed_form_delta_half_pi_against_numeric_svd():
    hi, lo = svd_closed_form_2x2(np.pi / 2.0, 0.0, 0.0, 0.0)
    assert hi == pytest.approx(np.sqrt(2.0 + np.sqrt(2.0)), abs=1e-14)
    assert lo == pytest.approx(np.sqrt(2.0 - np.sqrt(2.0)), abs=1e-14)
    assert abs(hi - 1.8478) < 1e-4 and abs(lo - 0.7654) < 1e-4
    assert lo / hi == pytest.approx(0.4142, abs=1e-4)
    oracle = np.linalg.svd(unit_modulus_2x2(np.pi / 2.0, 0.0, 0.0, 0.0), compute_uv=False)
    assert abs(hi - oracle[0]) < 1e-12
    assert abs(lo - oracle[1]) < 1e-12


def test_closed_form_property_sweep_vs_gram_path():
    rng = np.random.default_rng(123)
    for _ in range(2000):
        t = rng.uniform(-np.pi, np.pi, size=4)
        hi, lo = svd_closed_form_2x2(*t)
        got = singular_values(unit_modulus_2x2(*t)).values
        assert abs(got[0] - hi) < 1e-10
        assert abs(got[1] - lo) < 1e-10
        # Frobenius and determinant identities
        assert hi * hi + lo * lo == pytest.approx(4.0, abs=1e-10)
        delta = (t[0] + t[3]) - (t[1] + t[2])
        assert hi * lo == pytest.approx(2.0 * abs(np.sin(delta / 2.0)), abs=1e-10)


def test_singular_values_orthogonal_rows():
    got = singular_values(np.array([[1, 1], [1, -1]], dtype=complex)).values
    np.testing.assert_allclose(got, [np.sqrt(2.0), np.sqrt(2.0)], atol=1e-14)


def test_singular_values_all_ones():
    got = singular_values(np.ones((2, 2), dtype=complex)).values
    np.testing.assert_allclose(got, [2.0, 0.0], atol=1e-12)


def test_singular_values_wide_matrix_vs_numpy_oracle():
    rng = np.random.default_rng(77)
    h = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(4, 2048)))
    got = singular_values(h).values
    want = np.linalg.svd(h, compute_uv=False)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9 * want[0])
    assert got.shape == (4,)
    assert (np.diff(got) <= 0.0).all()


def test_singular_values_general_complex_vs_numpy_oracle():
    rng = np.random.default_rng(78)
    for shape in [(3, 7), (7, 3), (6, 6), (1, 5), (8, 40)]:
        h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = singular_values(h).values
        want = np.linalg.svd(h, compute_uv=False)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-11 * want[0])
        # Frobenius identity
        assert (got**2).sum() == pytest.approx(
            (np.abs(h) ** 2).sum(), rel=1e-9
        )


def test_a_stack_of_channels_gives_each_channel_its_own_spectrum():
    rng = np.random.default_rng(79)
    stack = rng.normal(size=(3, 5, 4)) + 1j * rng.normal(size=(3, 5, 4))
    spectra = singular_values(stack)
    assert len(spectra) == 3
    for spectrum, h in zip(spectra, stack):
        assert spectrum.source_shape == (5, 4)
        assert np.array_equal(spectrum.values, singular_values(h).values)
    for bad in (np.ones(3), np.ones((2, 2, 2, 2)), np.ones((2, 0, 3))):
        with pytest.raises(ValueError):
            singular_values(bad)


def test_satellite_shape_channel_vs_numpy_oracle():
    # 4 x 16384 phase-only channel, the shape the satellite sweeps produce
    rng = np.random.default_rng(4)
    ground_pos = rng.uniform(-700.0, 700.0, size=(16384, 3))
    ground_pos[:, 2] = 0.0
    ground = ElementLayout(ground_pos, np.arange(16384), PanelSpec(1, 1, 1.0))
    sat_pos = np.array(
        [
            [-0.707, -0.5, 4.0e5],
            [0.707, -0.5, 4.0e5],
            [-0.707, 0.5, 4.0e5],
            [0.707, 0.5, 4.0e5],
        ]
    )
    sat = ElementLayout(sat_pos, np.arange(4), PanelSpec(1, 1, 1.0))
    lam = 299792458.0 / 28.0e9
    h = channel_matrix(sat, ground, lam)
    got = singular_values(h).values
    want = np.linalg.svd(h, compute_uv=False)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9 * want[0])
    assert h.shape == (16384, 4)


def test_far_field_ratio_of_sixteen_element_link_matches_svd():
    # A 4x4 satellite grid 3 km from a 32x32 grid at 1 cm wavelength: the
    # ratio is about 6e-9, far above the channel's own phase rounding of
    # 2e-10 rad, but its square is below double precision, so a Gram-matrix
    # spectrum misses it (by 13 % here).
    ground = make_upa(PanelSpec(32, 32, 0.5))
    sat = make_upa(PanelSpec(4, 4, 0.1), center=(0.0, 0.0, 3.0e3))
    h = channel_matrix(sat, ground, LAM)
    want = np.linalg.svd(h, compute_uv=False)
    assert 1e-9 < want[-1] / want[0] < 1e-8
    got = singular_values(h).values
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=0.0)


def test_lapack_failure_maps_to_convergence_failure(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(ConvergenceFailure, match="did not converge"):
        singular_values(np.eye(3, dtype=complex))


def test_spectrum_validation():
    with pytest.raises(ValueError):
        SingularSpectrum(np.array([1.0, 2.0]), (2, 2))  # not descending
    with pytest.raises(ValueError):
        SingularSpectrum(np.array([1.0, -0.1]), (2, 2))


def test_condition_ratio_trivials():
    sqrt2 = np.sqrt(2.0)
    assert condition_ratio(SingularSpectrum(np.array([sqrt2, sqrt2]), (2, 2))) == 1.0
    assert condition_ratio(SingularSpectrum(np.array([2.0, 0.0]), (2, 2))) == 0.0
    with pytest.raises(DegenerateSpectrum):
        condition_ratio(SingularSpectrum(np.array([0.0, 0.0]), (2, 2)))


def test_condition_ratio_region3_closed_form():
    # d = 0.2 m pair at r = 40 m: ratio should sit at tan(delta/4)
    delta = 2.0 * np.pi * 0.04 / (LAM * 40.0)
    want = np.tan(delta / 4.0)
    assert abs(want - 0.1584) < 1e-4
    got = exact_ratio_curve(0.2, 0.2, LAM, [40.0])[0]
    assert abs(got - want) <= 1e-3


def test_dof_count_by_definition():
    s = SingularSpectrum(np.array([2.0, 0.5, 0.15, 0.01]), (4, 4))
    assert dof_count(s, 0.1) == 2
    assert dof_count(s, 0.01) == 3
    flat = SingularSpectrum(np.ones(5), (5, 8))
    assert dof_count(flat, 0.99) == 5
    with pytest.raises(DegenerateSpectrum):
        dof_count(SingularSpectrum(np.zeros(2), (2, 2)), 0.1)
    with pytest.raises(ValueError):
        dof_count(flat, 1.5)


def test_dof_invariant_under_channel_scaling():
    rng = np.random.default_rng(21)
    h = rng.normal(size=(3, 9)) + 1j * rng.normal(size=(3, 9))
    base = dof_count(singular_values(h), 0.1)
    for scale in [1e-6, 3.7, 1e6 * np.exp(1j * 1.1)]:
        assert dof_count(singular_values(scale * h), 0.1) == base


def test_r_min_benchtop_and_satellite():
    assert abs(r_min(0.2, 0.2, LAM, 0.1) - 4.27) < 0.005
    assert abs(r_min(2000.0, 1.0, LAM, 0.1) - 213.6e3) < 0.1e3


def test_r_min_crossing_matches_exact_channel_sweep():
    # oracle: first upward crossing of tau on the exact-channel ratio curve,
    # scanned inside the rising region
    tau = 0.1
    want = r_min(0.2, 0.2, LAM, tau)
    ranges = np.arange(4.0, 8.0, 0.01)
    ratios = exact_ratio_curve(0.2, 0.2, LAM, ranges)
    crossing = ranges[np.argmax(ratios >= tau)]
    assert abs(crossing - want) <= 0.15


def test_r_max_values_and_tau_limit():
    assert 61.0 <= r_max(0.2, 0.2, LAM, 0.1) <= 64.0
    assert abs(r_max(0.2, 0.2, LAM, 0.1) - 63.04) < 0.01
    assert abs(r_max(2000.0, 1.0, LAM, 0.1) - 3150.0e3) < 5.0e3
    # both boundaries collapse to the ratio peak as tau -> 1
    knee2 = 2.0 * 0.04 / LAM
    assert r_min(0.2, 0.2, LAM, 0.999999) == pytest.approx(knee2, rel=1e-5)
    assert r_max(0.2, 0.2, LAM, 0.999999) == pytest.approx(knee2, rel=1e-5)
    assert r_max(0.2, 0.2, LAM, 0.999999) >= r_min(0.2, 0.2, LAM, 0.999999)


def test_boundaries_scale_linearly_in_aperture_product():
    rng = np.random.default_rng(3)
    for _ in range(10):
        tau = float(rng.uniform(0.02, 0.9))
        scale = float(rng.uniform(0.5, 200.0))
        assert r_min(0.2 * scale, 0.2, LAM, tau) == pytest.approx(
            scale * r_min(0.2, 0.2, LAM, tau), rel=1e-12
        )
        assert r_max(0.2, 0.2 * scale, LAM, tau) == pytest.approx(
            scale * r_max(0.2, 0.2, LAM, tau), rel=1e-12
        )
        assert r_min(0.2, 0.2, LAM, tau) < r_max(0.2, 0.2, LAM, tau)


def test_theory_curve_trivials():
    knee2 = 2.0 * 0.04 / LAM  # 8 m
    got = theory_ratio_curve(0.2, 0.2, LAM, [knee2, 1.0e9])
    assert got[0] == pytest.approx(1.0, abs=1e-12)
    assert got[1] < 1e-6


def test_theory_curve_peaks_at_eight_meters():
    ranges = np.arange(4.01, 60.0, 0.01)
    curve = theory_ratio_curve(0.2, 0.2, LAM, ranges)
    peak = ranges[np.argmax(curve)]
    assert abs(peak - 8.0) < 0.02


def test_exact_ratio_monotone_within_regions():
    rising = np.linspace(4.5, 7.9, 120)
    falling = np.linspace(8.5, 60.0, 120)
    r_up = exact_ratio_curve(0.2, 0.2, LAM, rising)
    r_down = exact_ratio_curve(0.2, 0.2, LAM, falling)
    assert (np.diff(r_up) >= -1e-9).all()
    assert (np.diff(r_down) <= 1e-9).all()


def test_spectrum_csv_format(tmp_path):
    ranges = [10.0, 20.0]
    spectra = [
        SingularSpectrum(np.array([2.0, 1.0]), (2, 2)),
        SingularSpectrum(np.array([2.0, 0.1]), (2, 2)),
    ]
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, ranges, spectra, tau=0.1, metadata={"note": "x"})
    lines = path.read_text().splitlines()
    assert "# note x" in lines
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "r_meters,sigma_0,sigma_1,ratio,dof"
    row = [l for l in lines if not l.startswith("#")][1].split(",")
    assert float(row[0]) == 10.0
    assert float(row[3]) == 0.5
    assert int(row[4]) == 2
