"""Panel-factorized kernel against the exact kernel, its oracle: beam sums
against the exact per-element sum, link spectra against the exact channel
matrix, and the QR-compressed link spectra against the uncompressed
Khatri-Rao product of the same factors."""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from nearlink import beamforming as bf
from nearlink import kernel as kn
from nearlink import mimo
from nearlink.beamforming import (
    EXACT_KERNEL,
    Direction,
    Point,
    delay_and_sum_weights,
    gain_pattern_sweep,
    point_at,
    response_sum,
)
from nearlink.kernel import channel_matrix
from nearlink.geometry import (
    ElementLayout,
    PanelSpec,
    _grid_offsets,
    make_distributed_panels,
    make_upa,
    random_panel_positions,
)
from nearlink.mimo import (
    ConvergenceFailure,
    dof_count,
    link_spectra,
    singular_values,
)
from nearlink.scenario import (
    build_ground_layout,
    build_satellite_layout,
    load_scenario,
    parse_scenario,
    run_scenario,
)

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
LAM = 299792458.0 / 28.0e9
K = 2.0 * np.pi / LAM
UNIT_ROUNDOFF = 2.0**-53

PROPERTY = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much],
)


def unit_vectors(theta, phi):
    theta, phi = np.asarray(theta), np.asarray(phi)
    return np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1
    )


def tolerance(plan, w, reach):
    # The plan's bound covers the terms the factorized kernel drops. Both
    # kernels also round every path they form, to about reach * 2**-53 per
    # operation; four such roundings per element cover the pair.
    return np.abs(w).sum() * (plan.bound_rad + 4.0 * K * UNIT_ROUNDOFF * reach)


@st.composite
def panel_layouts(draw):
    spec = PanelSpec(
        draw(st.integers(1, 6)),
        draw(st.integers(1, 6)),
        draw(st.floats(0.2 * LAM, 2.0 * LAM)),
    )
    assume(spec.n_elements >= 2)
    n_panels = draw(st.integers(1, 4))
    field = draw(st.floats(1.0, 2000.0))
    coord = st.floats(-field, field)
    centres = np.array(
        [[draw(coord), draw(coord), draw(st.floats(-5.0, 5.0))] for _ in range(n_panels)]
    )
    gaps = [
        np.linalg.norm(centres[i] - centres[j]) for i in range(n_panels) for j in range(i)
    ]
    assume(not gaps or min(gaps) > spec.extent)
    return make_distributed_panels(spec, centres)


def random_weights(seed, n):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


# ----- fast against exact -----


@PROPERTY
@given(
    layout=panel_layouts(),
    seed=st.integers(0, 2**32 - 1),
    n_targets=st.integers(1, 5),
    log_range=st.floats(np.log(10.0), np.log(2.0e6)),
)
def test_factorized_points_within_bound_of_exact(layout, seed, n_targets, log_range):
    rng = np.random.default_rng(seed)
    ranges = np.exp(log_range + rng.uniform(0.0, 0.5, n_targets))
    units = unit_vectors(rng.uniform(-1.4, 1.4, n_targets), rng.uniform(0, 2 * np.pi, n_targets))
    pts = units * ranges[:, None]
    plan = kn._factorized_plan(layout, pts, False, LAM)
    assume(plan is not None)
    w = random_weights(seed, layout.n_elements)
    fast = kn._factorized_sums(plan, w, pts, LAM)
    exact = kn._point_sums(layout.positions, w, pts, LAM)
    reach = np.linalg.norm(pts[:, None, :] - layout.positions[None], axis=2).max()
    assert np.abs(fast - exact).max() <= tolerance(plan, w, reach)


@PROPERTY
@given(layout=panel_layouts(), seed=st.integers(0, 2**32 - 1), n_targets=st.integers(1, 5))
def test_factorized_directions_within_bound_of_exact(layout, seed, n_targets):
    rng = np.random.default_rng(seed)
    units = unit_vectors(rng.uniform(-1.5, 1.5, n_targets), rng.uniform(0, 2 * np.pi, n_targets))
    plan = kn._factorized_plan(layout, units, True, LAM)
    w = random_weights(seed, layout.n_elements)
    fast = kn._factorized_sums(plan, w, units, LAM)
    exact = kn._direction_sums(layout.positions, w, units, LAM)
    reach = np.linalg.norm(layout.positions, axis=1).max()
    assert np.abs(fast - exact).max() <= tolerance(plan, w, reach)


def test_station_map_takes_factorized_path_within_bound():
    # Sixteen 32x32 panels over a kilometre field, mapped from 250 to 1000 km
    # around a focus 10 degrees off nadir: the benchmark's geometry.
    spec = PanelSpec(32, 32, 0.5 * LAM, 6.0)
    lay = make_distributed_panels(spec, random_panel_positions(1414.0, 1000.0, 16, 50.0, 11))
    steer = np.deg2rad(10.0)
    w = delay_and_sum_weights(lay, point_at(500.0e3, steer), LAM)
    thetas = steer + np.deg2rad(np.linspace(-0.01, 0.01, 5))
    ranges = np.geomspace(250.0e3, 1000.0e3, 4)
    grid = gain_pattern_sweep(lay, w, LAM, thetas=thetas, ranges=ranges)
    assert grid.kernel.name == "panel_factorized"
    assert 0.0 < grid.kernel.bound_rad <= K * UNIT_ROUNDOFF * 250.0e3

    pts = (unit_vectors(thetas, 0.0)[:, None, :] * ranges[None, :, None]).reshape(-1, 3)
    plan = kn._factorized_plan(lay, pts, False, LAM)
    assert plan.bound_rad == grid.kernel.bound_rad
    fast = kn._factorized_sums(plan, w.weights, pts, LAM)
    exact = kn._point_sums(lay.positions, w.weights, pts, LAM)
    assert np.abs(fast - exact).max() <= tolerance(plan, w.weights, 1001.0e3)


def test_directions_on_a_built_layout_take_factorized_path():
    lay = make_distributed_panels(
        PanelSpec(4, 4, 0.5 * LAM), random_panel_positions(100.0, 100.0, 8, 5.0, 3)
    )
    units = unit_vectors(np.linspace(-1.0, 1.0, 9), 0.3)
    _, kernel = kn.sums(lay, np.ones(lay.n_elements), units, True, LAM)
    assert kernel.name == "panel_factorized"
    # A UPA at the origin, where the exact kernel rounds phases of a few
    # radians only: whole chains would round more than that, so the factors
    # take one exp per offset. The last is the acceptance gate's 128x128 UPA
    # at its broadside and +-60 degree steering windows.
    window = np.linspace(-2.0e-3, 2.0e-3, 201)
    for spec, thetas in (
        (PanelSpec(8, 8, 0.5 * LAM), [0.0]),
        (PanelSpec(32, 32, 0.5 * LAM), [0.1, -0.2]),
        (PanelSpec(128, 128, 0.5 * LAM, 6.0), np.linspace(-0.3, 0.3, 5)),
        (PanelSpec(128, 128, 0.5 * LAM, 6.0), window),
        (PanelSpec(128, 128, 0.5 * LAM, 6.0), np.deg2rad(60.0) + window),
    ):
        upa = make_upa(spec)
        units = unit_vectors(np.asarray(thetas), 0.3)
        plan = kn._factorized_plan(upa, units, True, LAM)
        assert not plan.chained and plan.bound_rad <= plan.floor_rad
        w = random_weights(7, upa.n_elements)
        total, kernel = kn.sums(upa, w, units, True, LAM)
        assert kernel == bf.BeamKernel("panel_factorized", plan.bound_rad)
        exact = kn._direction_sums(upa.positions, w, units, LAM)
        reach = np.linalg.norm(upa.positions, axis=1).max()
        assert np.abs(total - exact).max() <= tolerance(plan, w, reach)


# ----- the axis recurrence -----


def direct_axis_factor(n, spacing, u, inv_r):
    # One exp per offset: exp(-jk (o (o c - u))) at o = (i - (n - 1) / 2) s.
    o = ((np.arange(n) - (n - 1) / 2.0) * spacing)[None, :, None]
    c = ((1.0 - u * u) * (0.5 * inv_r))[:, None, :]
    return np.exp(-1j * K * (o * (o * c - u[:, None, :])))


def long_double_axis_factor(n, spacing, u, inv_r):
    # The same factor at the exact progression, phase and exp in long double
    # (80-bit on x86-64; float64 elsewhere, where the test's margin for the
    # reference's own rounding grows to match).
    ld = np.longdouble
    o = ((np.arange(n) - (n - 1) / 2.0).astype(ld) * ld(spacing))[None, :, None]
    c = ((1.0 - u * u) * (0.5 * inv_r)).astype(ld)[:, None, :]
    phase = ld(K) * o * (u.astype(ld)[:, None, :] - o * c)
    return np.cos(phase) + 1j * np.sin(phase)


@PROPERTY
@given(
    n=st.one_of(st.sampled_from([1, 2, 3, 32]), st.integers(1, 40)),
    chained=st.booleans(),
    pitch=st.floats(0.2, 2.0),
    seed=st.integers(0, 2**32 - 1),
    log_range=st.floats(np.log(1.0e3), np.log(3.0e6)),
    directional=st.booleans(),
)
def test_axis_recurrence_within_its_drift_of_direct_exps(
    n, chained, pitch, seed, log_range, directional
):
    rng = np.random.default_rng(seed)
    spacing = pitch * LAM
    theta, phi = rng.uniform(-1.4, 1.4, (3, 5)), rng.uniform(0.0, 2.0 * np.pi, (3, 5))
    u = np.sin(theta) * np.cos(phi)
    ranges = np.exp(log_range + rng.uniform(0.0, 0.5, (3, 5)))
    inv_r = np.zeros_like(ranges) if directional else 1.0 / ranges
    got = kn._axis_factor(n, spacing, chained, u, inv_r, K)
    want = direct_axis_factor(n, spacing, u, inv_r)
    assert got.shape == want.shape == (3, n, 5)
    edge = (n - 1) / 2.0 * spacing
    curvature = 0.0 if directional else 0.5 / ranges.min()
    if chained:
        # One exp pair per chain, from the innermost offset.
        drift = kn._recurrence_drift(n, spacing, K, 1.0, curvature)
        drift /= 1.0 - drift
        start = ((n + 1) // 2 - (n - 1) / 2.0) * spacing if n > 1 else 0.0
    else:
        # One exp per offset, of the expression a chain starts from.
        c = (1.0 - u * u) * (0.5 * inv_r)
        for i in range(n):
            o = (i - (n - 1) / 2.0) * spacing
            assert np.array_equal(got[:, i], np.exp(1j * ((K * o) * (u - o * c))))
        drift, start = 0.0, edge

    # A phase of at most k |o| (|u| + 2 |o c|) in five roundings, and an exp
    # within 2 ulps per component.
    def one_exp(o, unit):
        return 5.0 * unit * (1.0 + 1e-9) * K * o * (1.0 + 2.0 * o * curvature) + 4.0 * unit

    # Each form pays one rounded exp per factor at an offset up to the edge.
    assert np.abs(got - want).max() <= drift + 2.0 * one_exp(edge, UNIT_ROUNDOFF)
    # Against the long-double factor only the exp a factor starts from
    # counts: a chain's first, or the factor's own.
    ld_unit = float(np.finfo(np.longdouble).eps) / 2.0
    tight = drift + one_exp(start, UNIT_ROUNDOFF) + one_exp(edge, ld_unit)
    reference = long_double_axis_factor(n, spacing, u, inv_r)
    assert float(np.abs(got - reference).max()) <= tight


def test_grid_offsets_are_the_rounded_progression():
    # The plan's bound counts one rounding between each offset and the
    # progression m s the recurrence steps along.
    for rows, cols, pitch in ((1, 1, 0.3), (2, 7, 0.5 * LAM), (5, 4, 0.0123), (32, 32, 0.5 * LAM)):
        offsets = _grid_offsets(PanelSpec(rows, cols, pitch))
        m_x, m_y = np.arange(cols) - (cols - 1) / 2.0, np.arange(rows) - (rows - 1) / 2.0
        assert np.array_equal(offsets[:cols, 0], m_x * pitch)
        assert np.array_equal(offsets[::cols, 1], m_y * pitch)


@PROPERTY
@given(
    shape=st.sampled_from([(1, 6), (6, 1), (1, 2), (2, 2), (3, 5), (7, 7), (32, 32)]),
    seed=st.integers(0, 2**32 - 1),
    n_targets=st.integers(1, 4),
    log_range=st.floats(np.log(1.0e3), np.log(3.0e6)),
)
def test_factorized_sums_on_every_axis_length_within_bound(shape, seed, n_targets, log_range):
    # One or two offsets on an axis, odd and even counts, and the
    # benchmark's 32x32 panels, off axis from 1 km to 3 Mm.
    rng = np.random.default_rng(seed)
    spec = PanelSpec(*shape, 0.5 * LAM)
    centres = [[-40.0, 10.0, 0.0], [25.0, -30.0, 1.0], [5.0, 35.0, -2.0]]
    layout = make_distributed_panels(spec, centres[: 1 + seed % 3])
    ranges = np.exp(log_range + rng.uniform(0.0, 0.5, n_targets))
    units = unit_vectors(rng.uniform(-1.2, 1.2, n_targets), rng.uniform(0, 2 * np.pi, n_targets))
    pts = units * ranges[:, None]
    plan = kn._factorized_plan(layout, pts, False, LAM)
    assert plan is not None
    w = random_weights(seed, layout.n_elements)
    fast = kn._factorized_sums(plan, w, pts, LAM)
    exact = kn._point_sums(layout.positions, w, pts, LAM)
    reach = np.linalg.norm(pts[:, None, :] - layout.positions[None], axis=2).max()
    assert np.abs(fast - exact).max() <= tolerance(plan, w, reach)


SHIPPED_KERNELS = {
    "beam_map_distributed": ("panel_factorized", None),
    "beam_range_focus": ("panel_factorized", None),
    "beam_theta_distributed": ("panel_factorized", None),
    "beam_theta_upa": ("panel_factorized", None),
    "boundaries_benchtop": (None, None),
    "dish_reference": (None, None),
    "dof_vs_range": (None, "panel_factorized"),
    "placement_search": (None, None),
    "ratio_vs_range_benchtop": (None, "exact"),
}


def test_shipped_scenarios_keep_their_kernels(tmp_path):
    assert sorted(SHIPPED_KERNELS) == sorted(
        name[: -len(".scenario")] for name in os.listdir(SCENARIO_DIR)
    )
    for name, want in SHIPPED_KERNELS.items():
        s = load_scenario(os.path.join(SCENARIO_DIR, f"{name}.scenario"))
        report = run_scenario(s, str(tmp_path / name))
        kernels = (report.details.get("beam_kernel"), report.details.get("channel_kernel"))
        assert kernels == want, name


# ----- the gate -----


def test_short_range_takes_exact_path_bit_for_bit():
    lay = make_upa(PanelSpec(8, 8, 0.5 * LAM, 6.0))
    focus = point_at(0.5, 0.1)
    w = delay_and_sum_weights(lay, focus, LAM)
    thetas = np.linspace(0.0, 0.2, 11)
    plan = kn._factorized_plan(lay, unit_vectors(thetas, 0.0) * 0.5, False, LAM)
    assert plan.bound_rad > plan.floor_rad

    grid = gain_pattern_sweep(lay, w, LAM, thetas=thetas, fixed_range=0.5)
    assert grid.kernel == EXACT_KERNEL
    totals = kn._point_sums(lay.positions, w.weights, unit_vectors(thetas, 0.0) * 0.5, LAM)
    want = bf._to_gain_dbi(totals, lay.n_elements, lay.element_gain_dbi)
    assert np.array_equal(grid.gain_dbi[:, 0], want)
    got = response_sum(lay, w, focus, LAM)
    assert got == complex(kn._point_sums(lay.positions, w.weights, focus.position[None], LAM)[0])


def test_perturbed_positions_take_exact_path():
    lay = make_distributed_panels(
        PanelSpec(4, 4, 0.5 * LAM), random_panel_positions(200.0, 100.0, 5, 10.0, 4)
    )
    target = point_at(400.0e3, 0.0).position[None]
    ones = np.ones(lay.n_elements)
    assert kn.sums(lay, ones, target, False, LAM)[1].name == "panel_factorized"

    moved = lay.positions.copy()
    moved[21, 0] += 1.0e-7
    bent = ElementLayout(moved, lay.panel_ids, lay.panel_spec)
    plan = kn._factorized_plan(bent, target, False, LAM)
    assert plan.bound_rad > plan.floor_rad
    total, kernel = kn.sums(bent, ones, target, False, LAM)
    assert kernel == EXACT_KERNEL
    assert np.array_equal(total, kn._point_sums(moved, ones, target, LAM))


def test_single_element_panels_take_exact_path():
    text = """\
version: 1
frequency_hz: 28.0e9
satellite:
  range_m: 400.0e3
  positions_m: [[-0.707, -0.5], [0.707, -0.5], [-0.707, 0.5], [0.707, 0.5]]
analysis:
  kind: dish_gain
  diameter_m: 1.0
  efficiency: 0.5
"""
    sat = build_satellite_layout(parse_scenario(text))
    target = Point([0.0, 0.0, 0.0])
    assert kn._factorized_plan(sat, target.position[None], False, LAM) is None
    w = delay_and_sum_weights(sat, target, LAM)
    assert gain_pattern_sweep(sat, w, LAM, ranges=[1.0e3, 2.0e3]).kernel == EXACT_KERNEL


def test_layout_file_without_panel_comment_takes_exact_path():
    # A layout file's "# panel" comment is what makes its grid a panel; the
    # same positions as single-element panels, as a file without that
    # comment describes them, take the exact kernel.
    grid = make_upa(PanelSpec(3, 3, 0.5 * LAM))
    bare = ElementLayout(grid.positions, np.arange(grid.n_elements), PanelSpec(1, 1, 1.0))
    units = unit_vectors(np.array([0.0, 0.3]), 0.0)
    for lay, name in ((grid, "panel_factorized"), (bare, "exact")):
        _, kernel = kn.sums(lay, np.ones(lay.n_elements), units, True, LAM)
        assert kernel.name == name


def test_elements_out_of_grid_order_take_exact_path():
    lay = make_distributed_panels(PanelSpec(2, 3, 0.5 * LAM), [[0, 0, 0], [10, 0, 0]])
    order = np.r_[1, 0, 2:12]
    swapped = ElementLayout(lay.positions[order], lay.panel_ids, lay.panel_spec)
    units = Direction(0.1).unit[None]
    plan = kn._factorized_plan(swapped, units, True, LAM)
    assert plan.bound_rad > plan.floor_rad
    assert kn.sums(swapped, np.ones(12), units, True, LAM)[1] == EXACT_KERNEL


def test_run_report_carries_the_sweep_kernel(tmp_path):
    base = """\
version: 1
frequency_hz: 28.0e9
ground:
  kind: distributed
  panel:
    rows: 4
    cols: 4
    spacing_wavelengths: 0.5
  positions_m:
    - [-50.0, 0.0]
    - [50.0, 0.0]
satellite:
  range_m: {range_m}
  panel:
    rows: 1
    cols: 1
    spacing_wavelengths: 0.5
analysis:
  kind: beam_theta
  halfwidth_deg: 0.5
  n_theta: 11
"""
    far = run_scenario(parse_scenario(base.format(range_m="100.0e3")), str(tmp_path / "far"))
    assert far.details["beam_kernel"] == "panel_factorized"
    assert 0.0 < far.details["beam_kernel_bound_rad"] <= K * UNIT_ROUNDOFF * 100.0e3
    near = run_scenario(parse_scenario(base.format(range_m="2.0")), str(tmp_path / "near"))
    assert near.details == {"beam_kernel": "exact", "beam_kernel_bound_rad": 0.0}


# ----- link spectra -----


def point_layout(positions):
    return ElementLayout(positions, np.arange(len(positions)), PanelSpec(1, 1, 1.0))


@PROPERTY
@given(
    layout=panel_layouts(),
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(1, 6),
    log_range=st.floats(np.log(1.0e4), np.log(1.0e7)),
)
def test_factorized_spectrum_within_weyl_bound_of_exact(layout, seed, n_points, log_range):
    rng = np.random.default_rng(seed)
    centre = np.exp(log_range) * unit_vectors(rng.uniform(-0.5, 0.5), rng.uniform(0, 2 * np.pi))
    pts = centre + rng.uniform(-2.0, 2.0, size=(n_points, 3))
    plan = kn._factorized_plan(layout, pts, False, LAM)
    assume(plan is not None and plan.bound_rad <= plan.floor_rad)
    sat = point_layout(pts)
    spectrum, kernel = link_spectra([(sat, layout)], LAM)[0]
    assert kernel.name == "panel_factorized" and kernel.bound_rad == plan.bound_rad
    exact = singular_values(channel_matrix(sat, layout, LAM))
    assert spectrum.source_shape == exact.source_shape
    # Weyl: no singular value moves by more than the spectral norm of the
    # entry-wise difference, itself at most sqrt(N S) times its largest entry.
    reach = np.linalg.norm(pts[:, None, :] - layout.positions[None], axis=2).max()
    weyl = np.sqrt(layout.n_elements * n_points) * (
        plan.bound_rad + 4.0 * K * UNIT_ROUNDOFF * reach
    )
    assert np.abs(spectrum.values - exact.values).max() <= weyl


def staircase_steps(n_panels, rb, ra, s):
    # (rows, columns) of each QR of the staircase, for R factors of rb and ra
    # rows, and the rows of the triangle it leaves. Step m takes the rows
    # (i, j) of each panel's block with max(i, j) = m, and the triangle.
    steps, tri = [], 0
    for m in range(max(rb, ra) - 1, -1, -1):
        new = (m < rb) * min(m + 1, ra) + (m < ra) * min(m, rb)
        steps.append((n_panels * new + tri, s - m))
        tri = min(steps[-1][0], s - m)
    return steps, tri


def second_level_constant(n_panels, rb, ra, s):
    # c in c u ||H||_F for the second level and the SVD of what it leaves.
    # Householder QR of a k x w matrix is within gamma(k w) of it (Higham,
    # "Accuracy and Stability of Numerical Algorithms", Thm 19.4), with
    # gamma(k) = 4 k u for complex arithmetic, and so is LAPACK's SVD. Each
    # step's input is a rotation of rows of the stack, of norm ||H||_F at
    # most. Wide blocks (rb ra < s) skip the staircase: the stacked blocks
    # go to the SVD as they are.
    if rb * ra < s:
        return 4.0 * n_panels * rb * ra * s
    steps, tri = staircase_steps(n_panels, rb, ra, s)
    return 4.0 * sum(k * w for k, w in steps) + 4.0 * tri * s


def compressed_tolerance(n_panels, rows, cols, s, h_fro):
    # Bound on |compressed - uncompressed| for every singular value, c u ||H||_F.
    # - The first QR, of each rows x s and cols x s factor, returns the R of
    #   a factor within gamma(rows s) and gamma(cols s) of it, column by
    #   column (see second_level_constant for gamma). A Kronecker column
    #   carries both factors' relative errors and their product:
    #   g_row + g_col + g_row g_col.
    # - Forming each Khatri-Rao row, and forming H in the test, rounds each
    #   entry once: a complex product is within 2 sqrt(2) u of exact.
    # - The staircase steps and the SVD of the triangle they leave (or of the
    #   wide stack): second_level_constant.
    # - The test's own SVD of the n x s matrix H: 4 n s.
    # Weyl turns the sum of these Frobenius-norm perturbations into a bound
    # on every singular value.
    u = UNIT_ROUNDOFF
    g_row, g_col = 4.0 * rows * s * u, 4.0 * cols * s * u
    n = n_panels * rows * cols
    second = second_level_constant(n_panels, min(rows, s), min(cols, s), s)
    c = (g_row + g_col + g_row * g_col) / u + 2.0 * 2.0 * np.sqrt(2.0) + second + 4.0 * n * s
    return c * u * h_fro


def check_compressed_against_uncompressed(layout, pts, panels_receive):
    sat = point_layout(pts)
    tx, rx = (sat, layout) if panels_receive else (layout, sat)
    plan = kn._factorized_plan(layout, pts, False, LAM)
    spectrum, kernel = link_spectra([(tx, rx)], LAM)[0]
    assert kernel == bf.BeamKernel("panel_factorized", plan.bound_rad)

    # The channel the compressed path stands for: panel p's block is the
    # column-wise Kronecker product of its row and column factors.
    row, col = kn._factorized_factors(plan, pts, LAM)
    spec = layout.panel_spec
    h = (row[:, :, None, :] * col[:, None, :, :]).reshape(layout.n_elements, len(pts))
    want = np.linalg.svd(h if panels_receive else h.T, compute_uv=False)
    assert spectrum.source_shape == (h.shape if panels_receive else h.T.shape)
    assert spectrum.values.shape == want.shape
    bound = compressed_tolerance(
        len(plan.centres), spec.rows, spec.cols, len(pts), np.linalg.norm(h)
    )
    assert np.abs(spectrum.values - want).max() <= bound


@PROPERTY
@given(
    layout=panel_layouts(),
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(1, 9),
    log_range=st.floats(np.log(1.0e4), np.log(1.0e7)),
    panels_receive=st.booleans(),
)
def test_compressed_spectrum_within_qr_bound_of_uncompressed(
    layout, seed, n_points, log_range, panels_receive
):
    rng = np.random.default_rng(seed)
    centre = np.exp(log_range) * unit_vectors(rng.uniform(-0.5, 0.5), rng.uniform(0, 2 * np.pi))
    pts = centre + rng.uniform(-2.0, 2.0, size=(n_points, 3))
    plan = kn._factorized_plan(layout, pts, False, LAM)
    assume(plan is not None and plan.bound_rad <= plan.floor_rad)
    check_compressed_against_uncompressed(layout, pts, panels_receive)


@PROPERTY
@given(
    n_links=st.integers(1, 3),
    n_panels=st.integers(1, 4),
    rows=st.integers(1, 7),
    cols=st.integers(1, 7),
    s=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
@example(2, 3, 5, 4, 4, 0)  # both R square
@example(2, 3, 3, 2, 5, 0)  # both R trapezoidal, blocks taller than wide
@example(1, 2, 4, 4, 1, 0)  # one target
@example(1, 2, 2, 2, 7, 0)  # blocks wider than tall: no staircase
def test_staircase_within_its_bound_of_the_stacked_khatri_rao_blocks(
    n_links, n_panels, rows, cols, s, seed
):
    # The second level alone, on the R factors of random complex factors;
    # the property above covers it within links, with panels on either side.
    rng = np.random.default_rng(seed)

    def r_factor(n):
        f = rng.normal(size=(n_links, n_panels, n, s, 2)) @ [1.0, 1.0j]
        return np.linalg.qr(f, mode="r")

    r_row, r_col = r_factor(rows), r_factor(cols)
    rb, ra = r_row.shape[-2], r_col.shape[-2]
    stacks = (r_row[:, :, :, None] * r_col[:, :, None]).reshape(n_links, -1, s)
    reduced = mimo._second_level(r_row, r_col)
    _, tri = staircase_steps(n_panels, rb, ra, s)
    assert reduced.shape == (n_links, stacks.shape[1] if rb * ra < s else tri, s)
    # Both sides round each Khatri-Rao entry once; the test's SVD is of the
    # stack.
    second = second_level_constant(n_panels, rb, ra, s)
    c = 2.0 * 2.0 * np.sqrt(2.0) + second + 4.0 * stacks.shape[1] * s
    for r, stack in zip(reduced, stacks):
        got = np.linalg.svd(r, compute_uv=False)
        want = np.linalg.svd(stack, compute_uv=False)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= c * UNIT_ROUNDOFF * np.linalg.norm(stack)


def test_compressed_spectrum_shapes_of_r():
    rng = np.random.default_rng(17)
    far = np.array([0.0, 0.0, 5.0e4])
    cases = [
        # more targets than panel rows: each R is rows x S, on the staircase
        (PanelSpec(2, 5, 0.5 * LAM), [[0, 0, 0], [30, 0, 0]], 6),
        # one target
        (PanelSpec(4, 4, 0.5 * LAM), [[0, 0, 0], [0, 40, 0], [30, 10, 0]], 1),
        # more rows and columns than targets: both R square
        (PanelSpec(4, 4, 0.5 * LAM), [[0, 0, 0], [30, 0, 0]], 3),
        # a square row R and a trapezoidal column R
        (PanelSpec(6, 2, 0.5 * LAM), [[0, 0, 0]], 4),
        # fewer elements than targets: a wide H
        (PanelSpec(1, 2, 0.5 * LAM), [[0, 0, 0]], 5),
        # more targets than rows and columns on two panels: both R
        # trapezoidal, and each Khatri-Rao block wide
        (PanelSpec(3, 2, 0.5 * LAM), [[-9, 0, 0], [9, 0, 0]], 8),
    ]
    for spec, centres, n_points in cases:
        layout = make_distributed_panels(spec, centres)
        pts = far + rng.uniform(-2.0, 2.0, size=(n_points, 3))
        for panels_receive in (True, False):
            check_compressed_against_uncompressed(layout, pts, panels_receive)


def test_compressed_spectrum_keeps_the_exact_source_shape():
    panels = make_distributed_panels(PanelSpec(2, 3, 0.5 * LAM), [[-20, 0, 0], [20, 0, 0]])
    for n_points in (3, 20):
        sat = point_layout(np.array([[0.1 * i, 0.05 * i, 5.0e4] for i in range(n_points)]))
        for tx, rx in ((sat, panels), (panels, sat)):
            spectrum, kernel = link_spectra([(tx, rx)], LAM)[0]
            assert kernel.name == "panel_factorized"
            exact = singular_values(channel_matrix(tx, rx, LAM))
            assert spectrum.source_shape == exact.source_shape
            assert spectrum.values.shape == exact.values.shape


def test_svd_failure_on_a_panel_link_is_a_convergence_failure(monkeypatch):
    panels = make_distributed_panels(PanelSpec(4, 4, 0.5 * LAM), [[-20, 0, 0], [20, 0, 0]])
    sat = point_layout(np.array([[-0.5, 0.0, 5.0e4], [0.5, 0.0, 5.0e4], [0.0, 0.5, 5.0e4]]))
    assert link_spectra([(sat, panels)], LAM)[0][1].name == "panel_factorized"

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    for tx, rx in ((sat, panels), (panels, sat)):
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            link_spectra([(tx, rx)], LAM)[0]
    # A batch of ranges, several to a block.
    sweep = [point_layout(sat.positions + [0.0, 0.0, r]) for r in (0.0, 1.0e4, 2.0e4, 3.0e4)]
    with pytest.raises(ConvergenceFailure, match="did not converge"):
        link_spectra([(tx, panels) for tx in sweep], LAM)


def test_panels_on_either_side_of_the_link_give_the_same_spectrum():
    panels = make_distributed_panels(PanelSpec(4, 4, 0.5 * LAM), [[-20, 0, 0], [20, 0, 0]])
    sat = point_layout(np.array([[-0.5, 0.0, 5.0e4], [0.5, 0.0, 5.0e4], [0.0, 0.5, 5.0e4]]))
    down, down_kernel = link_spectra([(sat, panels)], LAM)[0]
    up, up_kernel = link_spectra([(panels, sat)], LAM)[0]
    assert down_kernel == up_kernel and down_kernel.name == "panel_factorized"
    assert down.source_shape == (32, 3) and up.source_shape == (3, 32)
    np.testing.assert_allclose(up.values, down.values, rtol=0.0, atol=1e-14 * down.values[0])


def test_shipped_dof_sweep_keeps_every_stream_count():
    s = load_scenario(os.path.join(SCENARIO_DIR, "dof_vs_range.scenario"))
    ana = s.analysis
    ground = build_ground_layout(s)
    for r in np.geomspace(ana.range_start_m, ana.range_stop_m, ana.n_ranges):
        sat = build_satellite_layout(s, range_m=float(r))
        fast, kernel = link_spectra([(sat, ground)], s.wavelength)[0]
        exact = singular_values(channel_matrix(sat, ground, s.wavelength))
        assert kernel.name == "panel_factorized"
        assert dof_count(fast, ana.tau) == dof_count(exact, ana.tau)
        np.testing.assert_allclose(fast.values[0], exact.values[0], rtol=1e-9)


def test_fallback_spectra_are_bit_identical_to_the_exact_path():
    benchtop = load_scenario(os.path.join(SCENARIO_DIR, "ratio_vs_range_benchtop.scenario"))
    upa = make_upa(PanelSpec(8, 8, 0.5 * LAM))
    cases = [
        # single-element panels on both sides
        (build_satellite_layout(benchtop), build_ground_layout(benchtop), benchtop.wavelength),
        # a point within a panel's reach of its centre
        (point_layout(np.array([[0.001, 0.0, 0.002], [0.0, 0.0, 1.0]])), upa, LAM),
        # beyond the reach, but too close for the gate
        (point_layout(np.array([[0.0, 0.0, 0.5], [0.01, 0.0, 0.5]])), upa, LAM),
    ]
    for tx, rx, lam in cases:
        spectrum, kernel = link_spectra([(tx, rx)], lam)[0]
        assert kernel == EXACT_KERNEL
        assert np.array_equal(spectrum.values, singular_values(channel_matrix(tx, rx, lam)).values)


# ----- batched sweeps -----


def station_ground(seed=7):
    # A station the size of the benchmark's dof_sweep one: 16 panels of
    # 32 x 32 at half a wavelength, drawn in a 1414 x 1000 m field at 50 m
    # spacing.
    centres = random_panel_positions(1414.0, 1000.0, 16, 50.0, seed)
    return make_distributed_panels(PanelSpec(32, 32, 0.5 * LAM, 6.0), centres)


def satellite_mount(n=4):
    # n x n elements on the 1.414 m x 1 m mount of dof_vs_range.
    xs, ys = np.linspace(-0.707, 0.707, n), np.linspace(-0.5, 0.5, n)
    return np.array([[x, y, 0.0] for y in ys for x in xs])


def check_batched_against_single_and_exact(links, panels, tau):
    batched = link_spectra(links, LAM)
    assert len(batched) == len(links)
    spec = panels.panel_spec
    kernels = set()
    for (tx, rx), (spectrum, kernel) in zip(links, batched):
        single, single_kernel = link_spectra([(tx, rx)], LAM)[0]
        exact = singular_values(channel_matrix(tx, rx, LAM))
        assert kernel == single_kernel
        assert spectrum.source_shape == single.source_shape == exact.source_shape
        assert dof_count(spectrum, tau) == dof_count(single, tau) == dof_count(exact, tau)
        kernels.add(kernel.name)
        if kernel == EXACT_KERNEL:
            assert np.array_equal(spectrum.values, exact.values)
            assert np.array_equal(single.values, exact.values)
            continue
        points = tx if rx is panels else rx
        plan = kn._factorized_plan(panels, points.positions, False, LAM)
        assert kernel == bf.BeamKernel("panel_factorized", plan.bound_rad)
        n, s = panels.n_elements, points.n_elements
        qr = compressed_tolerance(len(plan.centres), spec.rows, spec.cols, s, np.sqrt(n * s))
        assert np.abs(spectrum.values - single.values).max() <= qr
        reach = np.linalg.norm(points.positions[:, None] - panels.positions[None], axis=2).max()
        weyl = np.sqrt(n * s) * (plan.bound_rad + 4.0 * K * UNIT_ROUNDOFF * reach)
        assert np.abs(spectrum.values - exact.values).max() <= weyl + qr
    return kernels


def test_sweep_straddling_the_gate_matches_single_links_and_the_exact_channel():
    # Below about 70 km the station's panels fail the gate and take the
    # exact channel; from about 90 km they are factorized, several ranges
    # to a block.
    ground = station_ground()
    mount = satellite_mount()
    sats = [point_layout(mount + [0.0, 0.0, r]) for r in np.geomspace(20.0e3, 300.0e3, 12)]
    downlinks = [(sat, ground) for sat in sats]
    kernels = check_batched_against_single_and_exact(downlinks, ground, 0.1)
    assert kernels == {"exact", "panel_factorized"}
    # Uplink, and a batch of one on either side of the gate.
    assert check_batched_against_single_and_exact(
        [(ground, sat) for sat in sats[::3]], ground, 0.1
    ) == {"exact", "panel_factorized"}
    for link in (downlinks[0], downlinks[-1]):
        check_batched_against_single_and_exact([link], ground, 0.1)


def test_sweep_with_the_panels_on_the_satellite_side():
    # The satellite is the panel layout (four 4 x 4 panels on the mount) and
    # the ground's panel centres are the point elements, at each range below.
    corners = satellite_mount(2)
    sat = make_distributed_panels(PanelSpec(4, 4, 0.5 * LAM), corners)
    centres = random_panel_positions(1414.0, 1000.0, 16, 50.0, 7)
    grounds = [point_layout(centres - [0.0, 0.0, r]) for r in np.geomspace(1.0e3, 300.0e3, 7)]
    kernels = check_batched_against_single_and_exact([(sat, g) for g in grounds], sat, 0.1)
    assert kernels == {"exact", "panel_factorized"}


def test_links_share_factors_only_with_links_of_the_same_chain_run(monkeypatch):
    # Give alternate ranges chained and unchained plans: each factor build
    # must then serve links of its own plan's kind only.
    ground = make_distributed_panels(PanelSpec(8, 8, 0.5 * LAM), [[-30, 0, 0], [30, 0, 0]])
    ranges = np.geomspace(1.0e5, 1.0e6, 6)
    chained_at = {float(r): i % 2 == 1 for i, r in enumerate(ranges)}
    planned = kn._factorized_plan

    def alternating_chains(layout, targets, directional, wavelength):
        plan = planned(layout, targets, directional, wavelength)
        return plan and dataclasses.replace(plan, chained=chained_at[float(targets[0, 2])])

    built = []
    made = kn._factorized_factors

    def factors(plan, targets, wavelength):
        built.append((plan.chained, {chained_at[float(z)] for z in targets[:, 2]}))
        return made(plan, targets, wavelength)

    monkeypatch.setattr(kn, "_factorized_plan", alternating_chains)
    monkeypatch.setattr(kn, "_factorized_factors", factors)
    # Five elements: a block holds (8 + 8) // 5 = 3 links, every link of
    # one kind.
    mount = np.array([[0.2 * i, 0.1 * (i % 3), 0.0] for i in range(5)])
    sats = [point_layout(mount + [0.0, 0.0, r]) for r in ranges]
    link_spectra([(sat, ground) for sat in sats], LAM)
    assert sorted(chained for chained, _ in built) == [False, True]
    assert all(kinds == {chained} for chained, kinds in built)


def test_sweep_transient_memory_stays_within_the_block_bound():
    # The benchmark's dof_sweep: 25 ranges and the reference range, all
    # factorized. A block of (rows + cols) // S links stays within three
    # times its factors (mimo module docstring), so stacking every range at
    # once fails here.
    ground = station_ground()
    mount = satellite_mount()
    ranges = list(np.geomspace(100.0e3, 3000.0e3, 25)) + [450.0e3]
    links = [(point_layout(mount + [0.0, 0.0, r]), ground) for r in ranges]
    link_spectra(links[:1], LAM)  # the ground's cached panel grid
    n_panels, rows, cols, s = 16, 32, 32, len(mount)
    block = (rows + cols) // s
    factors = n_panels * (rows + cols) * block * s
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        results = link_spectra(links, LAM)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert {kernel.name for _, kernel in results} == {"panel_factorized"}
    assert peak <= 16 * 3 * factors
