"""Delay-and-sum weights, gain evaluation, sweeps, and reference formulas."""

import numpy as np
import pytest

from nearlink import beamforming as bf
from nearlink import kernel
from nearlink.fileio import fmt
from nearlink.beamforming import (
    GAIN_FLOOR_DB,
    Direction,
    DishSpec,
    Point,
    delay_and_sum_weights,
    dish_gain,
    evaluate_gain,
    gain_pattern_sweep,
    point_at,
    response_sum,
    write_gain_csv,
)
from nearlink.geometry import (
    PanelSpec,
    make_distributed_panels,
    make_upa,
    random_panel_positions,
)

LAM = 299792458.0 / 28.0e9


def test_direction_unit_vector():
    d = Direction(0.0)
    np.testing.assert_allclose(d.unit, [0.0, 0.0, 1.0], atol=1e-15)
    e = Direction(np.pi / 2.0, 0.0)
    np.testing.assert_allclose(e.unit, [1.0, 0.0, 0.0], atol=1e-15)
    f = Direction(np.pi / 4.0, np.pi / 2.0)
    np.testing.assert_allclose(f.unit, [0.0, np.sqrt(0.5), np.sqrt(0.5)], atol=1e-15)


def test_direction_lists_use_the_per_object_unit_vectors_bit_for_bit():
    rng = np.random.default_rng(5)
    theta = rng.uniform(-1.5, 1.5, 2000)
    for phi in (np.zeros(2000), rng.uniform(0.0, 2.0 * np.pi, 2000)):
        directions = [Direction(float(t), float(p)) for t, p in zip(theta, phi)]
        want = np.stack([d.unit for d in directions])
        assert np.array_equal(kernel.unit_vectors(theta, phi), want)

    lay = make_upa(PanelSpec(3, 4, LAM / 2.0))
    w = delay_and_sum_weights(lay, Direction(0.2, 0.7), LAM)
    directions = [Direction(float(t), float(p)) for t, p in zip(theta[:50], phi[:50])]
    units = np.stack([d.unit for d in directions])
    want, _ = kernel.sums(lay, w.weights, units, True, LAM)
    assert np.array_equal(response_sum(lay, w, directions, LAM), want)


def test_broadside_weights_are_all_ones():
    lay = make_upa(PanelSpec(4, 4, LAM / 2.0))
    w = delay_and_sum_weights(lay, Direction(0.0), LAM)
    np.testing.assert_allclose(w.weights, 1.0, atol=1e-12)
    assert np.asarray(w).shape == (16,)


def test_point_weights_converge_to_direction_weights():
    spec = PanelSpec(32, 32, LAM / 2.0)
    lay = make_upa(spec)
    ext = spec.extent
    theta = 0.3
    wd = delay_and_sum_weights(lay, Direction(theta), LAM).weights
    wp = delay_and_sum_weights(lay, point_at(1.0e6 * ext, theta), LAM).weights
    rel = wp * np.conj(wd)
    rel = rel * np.conj(rel[0] / abs(rel[0]))  # strip the common phase
    assert np.abs(np.angle(rel)).max() < 1e-3


def test_single_element_weight_is_unit_modulus():
    lay = make_upa(PanelSpec(1, 1, 1.0))
    w = delay_and_sum_weights(lay, point_at(123.4, 0.2), LAM)
    assert abs(abs(w.weights[0]) - 1.0) < 1e-12


def test_matched_gain_single_panel():
    # 32x32 panel with 6 dBi elements: 30.1 + 6 dBi
    lay = make_upa(PanelSpec(32, 32, LAM / 2.0, 6.0))
    focal = point_at(500.0e3, 0.0)
    w = delay_and_sum_weights(lay, focal, LAM)
    g = evaluate_gain(lay, w, focal, LAM)
    assert g == pytest.approx(10.0 * np.log10(1024.0) + 6.0, abs=1e-9)
    assert abs(g - 36.1) < 0.01


def test_matched_gain_sixteen_panels():
    spec = PanelSpec(32, 32, LAM / 2.0, 6.0)
    centers = random_panel_positions(1414.0, 1000.0, 16, 50.0, seed=5)
    lay = make_distributed_panels(spec, centers)
    focal = point_at(500.0e3, 0.0)
    w = delay_and_sum_weights(lay, focal, LAM)
    g = evaluate_gain(lay, w, focal, LAM)
    assert g == pytest.approx(10.0 * np.log10(16384.0) + 6.0, abs=1e-9)
    assert abs(g - 48.1) < 0.05


def test_two_element_endfire_null_hits_floor():
    lay = make_upa(PanelSpec(1, 2, LAM / 2.0))
    w = delay_and_sum_weights(lay, Direction(0.0), LAM)
    g = evaluate_gain(lay, w, Direction(np.pi / 2.0), LAM)
    assert g == GAIN_FLOOR_DB


def test_matched_weights_beat_random_weights():
    rng = np.random.default_rng(14)
    spec = PanelSpec(4, 4, LAM / 2.0, 6.0)
    centers = random_panel_positions(50.0, 30.0, 6, 5.0, seed=2)
    lay = make_distributed_panels(spec, centers)
    focal = point_at(2000.0, 0.1)
    w = delay_and_sum_weights(lay, focal, LAM)
    best = evaluate_gain(lay, w, focal, LAM)
    for _ in range(25):
        other = np.exp(1j * rng.uniform(-np.pi, np.pi, size=lay.n_elements))
        assert evaluate_gain(lay, other, focal, LAM) <= best + 1e-9


def test_gain_invariant_under_global_weight_phase():
    lay = make_upa(PanelSpec(3, 5, LAM / 2.0))
    w = delay_and_sum_weights(lay, Direction(0.2), LAM).weights
    target = Direction(0.25)
    a = evaluate_gain(lay, w, target, LAM)
    b = evaluate_gain(lay, w * np.exp(1j * 1.234), target, LAM)
    assert a == pytest.approx(b, abs=1e-12)


def test_direction_mode_matches_row_column_array_factor():
    # the generalized position-based sum against the separable row/column
    # indexing form for a uniform grid
    rows, cols, pitch = 4, 6, LAM / 2.0
    lay = make_upa(PanelSpec(rows, cols, pitch))
    rng = np.random.default_rng(8)
    for _ in range(10):
        theta = float(rng.uniform(-1.2, 1.2))
        phi = float(rng.uniform(0.0, 2.0 * np.pi))
        got = abs(response_sum(lay, np.ones(lay.n_elements), Direction(theta, phi), LAM))
        k = 2.0 * np.pi / LAM
        ux = np.sin(theta) * np.cos(phi)
        uy = np.sin(theta) * np.sin(phi)
        total = 0.0 + 0.0j
        for m in range(cols):  # x index
            for n in range(rows):  # y index
                x = (m - (cols - 1) / 2.0) * pitch
                y = (n - (rows - 1) / 2.0) * pitch
                total += np.exp(1j * k * (x * ux + y * uy))
        assert got == pytest.approx(abs(total), abs=1e-9 * lay.n_elements)


def test_pattern_product_identity():
    # total pattern of identical panels = panel factor x placement factor
    spec = PanelSpec(8, 8, LAM / 2.0)
    panel = make_upa(spec)
    rng = np.random.default_rng(31)
    thetas = np.linspace(-1.0, 1.0, 512)
    dirs = [Direction(float(t), 0.7) for t in thetas]
    for _ in range(10):
        centers = random_panel_positions(
            400.0, 300.0, 5, 2.0, seed=int(rng.integers(1 << 30))
        )
        lay = make_distributed_panels(spec, centers)
        total = response_sum(lay, np.ones(lay.n_elements), dirs, LAM)
        pf = response_sum(panel, np.ones(64), dirs, LAM)
        centers_lay = make_distributed_panels(PanelSpec(1, 1, 1.0), centers)
        place = response_sum(centers_lay, np.ones(5), dirs, LAM)
        err = np.abs(np.abs(total) - np.abs(pf) * np.abs(place))
        assert err.max() <= 1e-9 * lay.n_elements


def test_upa_gain_flat_beyond_fraunhofer():
    spec = PanelSpec(32, 32, LAM / 2.0, 6.0)
    lay = make_upa(spec)
    r_far = 2.0 * spec.extent**2 / LAM  # the Fraunhofer distance 2 D^2 / lambda
    w = delay_and_sum_weights(lay, Direction(0.0), LAM)
    ranges = np.geomspace(10.0 * r_far, 1000.0 * r_far, 40)
    grid = gain_pattern_sweep(lay, w, LAM, [0.0], ranges)
    assert grid.gain_dbi.max() - grid.gain_dbi.min() < 0.5


def test_distributed_layout_focuses_in_range():
    # panels spread over ~200 m focused at 5 km: the focal range is resolved,
    # double the range is not
    spec = PanelSpec(8, 8, LAM / 2.0, 6.0)
    centers = random_panel_positions(200.0, 150.0, 6, 10.0, seed=9)
    lay = make_distributed_panels(spec, centers)
    r0 = 5.0e3
    focal = point_at(r0, 0.0)
    w = delay_and_sum_weights(lay, focal, LAM)
    g_focus = evaluate_gain(lay, w, focal, LAM)
    g_double = evaluate_gain(lay, w, point_at(2.0 * r0, 0.0), LAM)
    assert g_focus - g_double >= 3.0


def test_theta_sweep_peaks_at_steering_angle():
    lay = make_upa(PanelSpec(16, 16, LAM / 2.0, 6.0))
    focal = point_at(1.0e4, 0.1)
    w = delay_and_sum_weights(lay, focal, LAM)
    thetas = np.linspace(0.1 - 0.05, 0.1 + 0.05, 201)
    grid = gain_pattern_sweep(lay, w, LAM, thetas, [1.0e4])
    assert grid.gain_dbi.shape == (201, 1)
    peak_theta = grid.theta[int(np.argmax(grid.gain_dbi[:, 0]))]
    assert abs(peak_theta - 0.1) < 1e-9
    assert grid.peak_gain_dbi == pytest.approx(10.0 * np.log10(256.0) + 6.0, abs=1e-9)


def test_a_cut_is_the_response_at_its_points_bit_for_bit():
    # A cut passes its fixed axis as one value; its gains are those of
    # response_sum at the same Points, for the beam (the focused sums) and
    # for its weight array (the exact kernel).
    lay = make_distributed_panels(PanelSpec(4, 4, LAM / 2.0, 6.0), [[-30, 0, 0], [30, 0, 0]])
    w = delay_and_sum_weights(lay, point_at(2.0e4, 0.05), LAM)
    kernels = set()
    for thetas, ranges in ((np.linspace(0.0, 0.1, 7), [2.0e4]), ([0.05], [1.0e4, 2.0e4, 4.0e4])):
        for weights in (w, w.weights):
            grid = gain_pattern_sweep(lay, weights, LAM, thetas, ranges)
            points = [point_at(r, t) for t in grid.theta.tolist() for r in grid.ranges.tolist()]
            total = response_sum(lay, weights, points, LAM)
            want = bf._to_gain_dbi(total, lay.n_elements, lay.element_gain_dbi)
            assert np.array_equal(grid.gain_dbi.ravel(), want)
            kernels.add(grid.kernel.name)
    assert kernels == {"panel_factorized", "exact"}


def test_sweep_argument_errors():
    lay = make_upa(PanelSpec(2, 2, LAM / 2.0))
    w = delay_and_sum_weights(lay, Direction(0.0), LAM)
    with pytest.raises(ValueError):
        gain_pattern_sweep(lay, w, LAM, [0.0], np.array([-5.0]))
    with pytest.raises(ValueError):
        evaluate_gain(lay, np.ones(3) + 0.0j, Direction(0.0), LAM)
    # A NaN angle or range would come back as a NaN gain under a kernel
    # whose bound claims to hold, and an infinite one would overflow in it.
    upa = make_upa(PanelSpec(8, 8, LAM / 2.0))
    beam = delay_and_sum_weights(upa, point_at(1.0e4, 0.0), LAM)
    for bad in (np.nan, np.inf, -np.inf):
        for thetas, ranges in (([0.0], [bad, 1.0e4]), ([bad, 0.0], [1.0e4]), ([bad], [bad])):
            with pytest.raises(ValueError, match="finite"):
                gain_pattern_sweep(upa, beam, LAM, thetas, ranges)


def test_dish_gain_reference_points():
    assert dish_gain(DishSpec(1.47, 0.48), LAM) == pytest.approx(49.5, abs=0.1)
    assert dish_gain(DishSpec(1.85, 0.62), LAM) == pytest.approx(52.6, abs=0.1)
    assert dish_gain(DishSpec(LAM / np.pi, 1.0), LAM) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        DishSpec(1.0, 0.0)
    with pytest.raises(ValueError):
        DishSpec(-1.0, 0.5)


def test_gain_csv_format(tmp_path):
    lay = make_upa(PanelSpec(2, 2, LAM / 2.0, 6.0))
    w = delay_and_sum_weights(lay, Direction(0.0), LAM)
    grid = gain_pattern_sweep(lay, w, LAM, np.linspace(-0.1, 0.1, 5), [100.0])
    path = tmp_path / "gain.csv"
    write_gain_csv(grid, path, metadata={"scenario": "abc"})
    lines = path.read_text().splitlines()
    assert any(l.startswith("# wavelength_m ") for l in lines)
    assert "# steering direction theta_rad=0.0 phi_rad=0.0" in lines
    assert "# phi_rad 0.0" in lines
    assert "# scenario abc" in lines
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "theta_rad,range_m,gain_dbi"
    assert len(data) == 1 + 5
    first = data[1].split(",")
    assert float(first[1]) == 100.0


def per_value_csv_rows(grid):
    # The writer's rows as it used to format them: fmt(float(...)) per value.
    return [
        f"{fmt(float(th))},{fmt(float(rm))},{fmt(float(grid.gain_dbi[i, j]))}"
        for i, th in enumerate(grid.theta)
        for j, rm in enumerate(grid.ranges)
    ]


def test_gain_csv_rows_match_the_per_value_writer(tmp_path):
    # Signed zeros, integral floats, the gain floor and long fractions must
    # come out byte for byte as fmt formats them one at a time.
    theta = np.array([-0.0, 0.0, 1.0, -2.5, 0.1 + 0.2, 1e-300, np.pi])
    ranges = np.array([1.0, 1000.0, 2.5e5, 1.0 / 3.0])
    gains = np.random.default_rng(5).normal(30.0, 10.0, (len(theta), len(ranges)))
    gains[0, 0], gains[1, 1], gains[2, 2], gains[3, 3] = -0.0, 48.0, GAIN_FLOOR_DB, 0.0
    grid = bf.GainGrid(theta, ranges, gains, Point([0.0, -0.0, 5.0e5]), LAM)
    path = tmp_path / "gain.csv"
    write_gain_csv(grid, path, metadata={"scenario": "abc"})
    lines = path.read_text().splitlines()
    header = lines.index("theta_rad,range_m,gain_dbi")
    assert lines[header + 1 :] == per_value_csv_rows(grid)
    assert lines[header + 1].startswith("-0.0,1.0,-0.0")
    assert "# steering point x_m=0.0 y_m=-0.0 z_m=500000.0" in lines


def test_a_weight_array_sweep_records_no_steering(tmp_path):
    # A bare weight array carries no focal, whatever it steers at: the grid
    # records none and its file says so. The beam records its focal.
    lay = make_upa(PanelSpec(2, 2, LAM / 2.0, 6.0))
    beam = delay_and_sum_weights(lay, point_at(100.0, 0.3), LAM)
    assert gain_pattern_sweep(lay, beam, LAM, [0.3], [100.0]).steering is beam.focal
    grid = gain_pattern_sweep(lay, beam.weights, LAM, [0.3], [100.0])
    assert grid.steering is None
    path = tmp_path / "gain.csv"
    write_gain_csv(grid, path)
    lines = path.read_text().splitlines()
    assert lines[1:3] == ["# steering none", "# phi_rad 0.0"]
