"""Acceptance gate: one numbered check per shipped guarantee.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
the failure output) carrying the measured value, the bound it was held to,
and the elapsed time where a runtime budget applies. Tolerances here are
contractual; loosening them is a behavior change, not a test fix.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

from nearlink import (
    REFERENCE_DISH_LARGE,
    REFERENCE_DISH_SMALL,
    Direction,
    ElementLayout,
    PanelSpec,
    PlacementObjective,
    Point,
    channel_matrix,
    build_ground_layout,
    build_satellite_layout,
    default_exclusion_halfwidth,
    delay_and_sum_weights,
    dish_gain,
    dof_count,
    evaluate_gain,
    exact_ratio_curve,
    load_scenario,
    make_distributed_panels,
    make_upa,
    optimize_placement,
    peak_sidelobe,
    point_at,
    r_max,
    random_panel_positions,
    response_sum,
    run_scenario,
    singular_values,
    svd_closed_form_2x2,
    theory_ratio_curve,
    uniform_sparse_positions,
)

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
LAM = 299792458.0 / 28.0e9  # 28 GHz carrier, the working wavelength throughout


def _report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[accept {num:02d}] {label}: {status} ({detail})")
    assert ok, f"acceptance {num:02d} {label}: {detail}"


@pytest.fixture(scope="module")
def dof_scenario():
    return load_scenario(os.path.join(SCENARIO_DIR, "dof_vs_range.scenario"))


@pytest.fixture(scope="module")
def ground16(dof_scenario):
    # 16 panels of 32x32 half-wavelength elements at 6 dBi each, scattered
    # over a 1414 x 1000 m field (corner-pinned, seed 11).
    return build_ground_layout(dof_scenario)


@pytest.fixture(scope="module")
def upa128():
    return make_upa(PanelSpec(128, 128, 0.5 * LAM, 6.0))


def _gain_db(total, n, element_gain_dbi):
    power = np.abs(np.asarray(total)) ** 2 / n
    return 10.0 * np.log10(np.maximum(power, 1e-30)) + element_gain_dbi


def test_01_closed_form_svd_matches_gram_spectrum():
    budget_s, tol = 5.0, 1e-10
    rng = np.random.default_rng(20240701)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10000):
        th = rng.uniform(-np.pi, np.pi, 4)
        spec = singular_values(np.exp(1j * th).reshape(2, 2))
        hi, lo = svd_closed_form_2x2(*th)
        worst = max(worst, abs(spec.values[0] - hi), abs(spec.values[1] - lo))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "closed-form 2x2 svd equals iterative spectrum",
        worst <= tol and elapsed < budget_s,
        f"worst dev {worst:.2e} <= {tol:.0e}; {elapsed:.1f} s < {budget_s:.0f} s",
    )


def test_02_theory_curve_tracks_exact_channel():
    budget_s, tol = 5.0, 0.02
    ranges = np.arange(10.0, 101.0, 1.0)
    t0 = time.perf_counter()
    worst = 0.0
    for d_tx, d_rx in itertools.product((0.2, 0.5), repeat=2):
        exact = exact_ratio_curve(d_tx, d_rx, 0.01, ranges)
        theory = theory_ratio_curve(d_tx, d_rx, 0.01, ranges)
        worst = max(worst, float(np.abs(exact - theory).max()))
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "closed-form ratio within 0.02 of exact channel",
        worst <= tol and elapsed < budget_s,
        f"worst |diff| {worst:.4f} <= {tol}; {elapsed:.1f} s < {budget_s:.0f} s",
    )


def test_03_benchtop_upper_boundary():
    upper = r_max(0.2, 0.2, 0.01, 0.1)
    in_band = 61.0 <= upper <= 64.0
    # exact-channel crossing of tau = 0.1 in the falling region
    grid = np.arange(55.0, 70.0, 0.01)
    ratios = exact_ratio_curve(0.2, 0.2, 0.01, grid)
    below = np.nonzero(ratios < 0.1)[0]
    crossing = float(grid[below[0]]) if len(below) else float("nan")
    agree = abs(crossing - upper) <= 2.0
    _report(
        3,
        "rank-2 upper boundary near 62 m and exact crossing within 2 m",
        in_band and agree,
        f"r_max {upper:.2f} m in [61, 64]; exact crossing {crossing:.2f} m",
    )


def test_04_matched_gain_of_full_station(ground16):
    focus = point_at(500.0e3, 0.0)
    weights = delay_and_sum_weights(ground16, focus, LAM)
    gain = evaluate_gain(ground16, weights, focus, LAM)
    ok = abs(gain - 48.14) <= 0.01
    _report(
        4,
        "matched gain of 16x(32x32) at 6 dBi elements",
        ok,
        f"{gain:.4f} dBi vs 48.14 +- 0.01",
    )


def test_05_distributed_tracks_upa_across_steering(ground16, upa128):
    budget_s, tol_db = 120.0, 2.0
    steer_angles = np.deg2rad(np.linspace(-60.0, 60.0, 25))
    window = np.linspace(-2.0e-3, 2.0e-3, 201)  # odd count includes the center
    t0 = time.perf_counter()
    worst = 0.0
    for theta_s in steer_angles:
        dirs = [Direction(float(theta_s + dt)) for dt in window]
        peaks = []
        for lay in (ground16, upa128):
            w = delay_and_sum_weights(lay, Direction(float(theta_s)), LAM)
            total = response_sum(lay, w, dirs, LAM)
            peaks.append(
                float(_gain_db(total, lay.n_elements, lay.element_gain_dbi).max())
            )
        worst = max(worst, abs(peaks[0] - peaks[1]))
    elapsed = time.perf_counter() - t0
    _report(
        5,
        "distributed peak within 2 dB of the UPA over +-60 deg",
        worst <= tol_db and elapsed < budget_s,
        f"worst |peak diff| {worst:.3f} dB <= {tol_db}; "
        f"25 angles in {elapsed:.0f} s < {budget_s:.0f} s",
    )


def test_06_only_large_aperture_resolves_range(ground16, upa128):
    r0 = 500.0e3
    focus = point_at(r0, 0.0)
    far = point_at(2.0 * r0, 0.0)

    w_d = delay_and_sum_weights(ground16, focus, LAM)
    drop = evaluate_gain(ground16, w_d, focus, LAM) - evaluate_gain(
        ground16, w_d, far, LAM
    )

    w_u = delay_and_sum_weights(upa128, focus, LAM)
    upa_swing = abs(
        evaluate_gain(upa128, w_u, focus, LAM) - evaluate_gain(upa128, w_u, far, LAM)
    )
    _report(
        6,
        "distributed focus drops >= 3 dB at double range, UPA flat",
        drop >= 3.0 and upa_swing < 0.5,
        f"distributed drop {drop:.2f} dB >= 3; UPA swing {upa_swing:.3f} dB < 0.5",
    )


def test_07_stream_count_versus_range(dof_scenario, tmp_path):
    budget_s = 60.0
    s = dof_scenario
    ground = build_ground_layout(s)
    tau = s.analysis.tau

    t0 = time.perf_counter()
    report = run_scenario(s, output_dir=str(tmp_path))
    elapsed = time.perf_counter() - t0

    def dof_at(range_m):
        sat = build_satellite_layout(s, range_m=range_m)
        h = channel_matrix(sat, ground, s.wavelength)
        return dof_count(singular_values(h), tau)

    d400, d900, d1800 = dof_at(400.0e3), dof_at(900.0e3), dof_at(1800.0e3)

    # second singular value stays within tau of the first out to 2000 km
    with open(report.output_files[0]) as handle:
        rows = [ln for ln in handle if not ln.startswith("#")]
    data = np.genfromtxt(rows, delimiter=",", names=True)
    near = data[data["r_meters"] <= 2000.0e3]
    min_ratio2 = float((near["sigma_1"] / near["sigma_0"]).min())

    ok = (
        d400 == 4
        and d900 >= 3
        and d1800 >= 2
        and min_ratio2 > 0.1
        and elapsed < budget_s
    )
    _report(
        7,
        "stream count 4/3/2 at 400/900/1800 km, ratio > 0.1 to 2000 km",
        ok,
        f"dof {d400}/{d900}/{d1800}; min sigma2/sigma1 {min_ratio2:.4f}; "
        f"sweep {elapsed:.1f} s < {budget_s:.0f} s",
    )


def test_08_grating_lobes_and_randomized_placement():
    budget_s = 300.0
    t0 = time.perf_counter()

    # A periodic 10-panel line at 111 m pitch re-peaks to full strength at
    # sin(theta) = lambda / pitch.
    centers = uniform_sparse_positions(1000.0, 10)
    pitch = 1000.0 / 9.0
    lobe_theta = math.asin(LAM / pitch)
    uniform_obj = PlacementObjective(
        steering=Direction(0.0),
        exclusion_halfwidth=default_exclusion_halfwidth(1000.0, LAM),
        scan_range=(-1.5 * lobe_theta, 1.5 * lobe_theta),
        n_scan=40001,
    )
    uniform_lobe = peak_sidelobe(centers, LAM, uniform_obj)

    # Randomized 16-panel layouts over the full field, best of 500 draws,
    # judged in a narrow scan cut at phi = 30 deg. Every seed must stay at
    # or below the -6 dB design target.
    support = 1414.0 * math.cos(math.pi / 6.0) + 1000.0 * math.sin(math.pi / 6.0)
    random_obj = PlacementObjective(
        steering=Direction(0.0, math.pi / 6.0),
        exclusion_halfwidth=default_exclusion_halfwidth(support, LAM),
        scan_range=(-2.5e-4, 2.5e-4),
        n_scan=2001,
    )
    worst_opt = -np.inf
    for seed in range(20):
        result = optimize_placement(
            1414.0, 1000.0, 16, 50.0, LAM, random_obj, 500, seed
        )
        worst_opt = max(worst_opt, result.peak_sidelobe_db)
    elapsed = time.perf_counter() - t0

    ok = uniform_lobe >= -0.1 and worst_opt <= -6.0 and elapsed < budget_s
    _report(
        8,
        "periodic layout re-peaks, randomized search stays <= -6 dB",
        ok,
        f"uniform lobe {uniform_lobe:.3f} dB >= -0.1; worst optimized "
        f"{worst_opt:.2f} dB <= -6; 20 seeds in {elapsed:.0f} s < {budget_s:.0f} s",
    )


def test_09_pattern_product_identity():
    tol = 1e-9
    panel = PanelSpec(4, 4, 0.5 * LAM, 0.0)
    panel_alone = make_upa(panel)
    thetas = np.linspace(-np.pi / 2.0, np.pi / 2.0, 10000)
    dirs = [Direction(float(t)) for t in thetas]
    panel_resp = response_sum(panel_alone, np.ones(panel_alone.n_elements), dirs, LAM)

    worst = 0.0
    for seed in range(50):
        centers = random_panel_positions(100.0, 100.0, 8, 5.0, seed)
        layout = make_distributed_panels(panel, centers)
        total = response_sum(layout, np.ones(layout.n_elements), dirs, LAM)
        center_layout = ElementLayout(
            centers, np.arange(len(centers)), PanelSpec(1, 1, 1.0, 0.0)
        )
        center_resp = response_sum(
            center_layout, np.ones(len(centers)), dirs, LAM
        )
        dev = np.abs(total - panel_resp * center_resp).max() / layout.n_elements
        worst = max(worst, float(dev))
    _report(
        9,
        "total pattern factors into panel x placement",
        worst <= tol,
        f"worst peak-relative deviation {worst:.2e} <= {tol:.0e} over 50 layouts",
    )


def test_10_reference_dish_gains():
    small = dish_gain(REFERENCE_DISH_SMALL, LAM)
    large = dish_gain(REFERENCE_DISH_LARGE, LAM)
    ok = (
        abs(small - 49.5) <= 0.1
        and abs(large - 52.6) <= 0.1
        and REFERENCE_DISH_SMALL.efficiency == 0.48
        and REFERENCE_DISH_LARGE.efficiency == 0.62
    )
    _report(
        10,
        "reference dishes hit 49.5 and 52.6 dBi at 28 GHz",
        ok,
        f"1.47 m -> {small:.2f} dBi; 1.85 m -> {large:.2f} dBi (+- 0.1)",
    )
