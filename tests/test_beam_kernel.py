"""Panel-factorized beam kernel against the exact per-element sum, its oracle."""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from nearlink import beamforming as bf
from nearlink.beamforming import (
    EXACT_KERNEL,
    Direction,
    Point,
    delay_and_sum_weights,
    gain_pattern_sweep,
    point_at,
    response_sum,
)
from nearlink.geometry import (
    ElementLayout,
    PanelSpec,
    load_layout,
    make_distributed_panels,
    make_upa,
    random_panel_positions,
    save_layout,
)
from nearlink.scenario import build_satellite_layout, parse_scenario, run_scenario

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
    plan = bf._factorized_plan(layout, pts, False, LAM)
    assume(plan is not None)
    w = random_weights(seed, layout.n_elements)
    fast = bf._factorized_sums(plan, w, pts, LAM)
    exact = bf._point_sums(layout.positions, w, pts, LAM)
    reach = np.linalg.norm(pts[:, None, :] - layout.positions[None], axis=2).max()
    assert np.abs(fast - exact).max() <= tolerance(plan, w, reach)


@PROPERTY
@given(layout=panel_layouts(), seed=st.integers(0, 2**32 - 1), n_targets=st.integers(1, 5))
def test_factorized_directions_within_bound_of_exact(layout, seed, n_targets):
    rng = np.random.default_rng(seed)
    units = unit_vectors(rng.uniform(-1.5, 1.5, n_targets), rng.uniform(0, 2 * np.pi, n_targets))
    plan = bf._factorized_plan(layout, units, True, LAM)
    w = random_weights(seed, layout.n_elements)
    fast = bf._factorized_sums(plan, w, units, LAM)
    exact = bf._direction_sums(layout.positions, w, units, LAM)
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
    plan = bf._factorized_plan(lay, pts, False, LAM)
    assert plan.bound_rad == grid.kernel.bound_rad
    fast = bf._factorized_sums(plan, w.weights, pts, LAM)
    exact = bf._point_sums(lay.positions, w.weights, pts, LAM)
    assert np.abs(fast - exact).max() <= tolerance(plan, w.weights, 1001.0e3)


def test_directions_on_a_built_layout_take_factorized_path():
    lay = make_distributed_panels(
        PanelSpec(4, 4, 0.5 * LAM), random_panel_positions(100.0, 100.0, 8, 5.0, 3)
    )
    units = unit_vectors(np.linspace(-1.0, 1.0, 9), 0.3)
    _, kernel = bf._sums(lay, np.ones(lay.n_elements), units, True, LAM)
    assert kernel.name == "panel_factorized"


# ----- the gate -----


def test_short_range_takes_exact_path_bit_for_bit():
    lay = make_upa(PanelSpec(8, 8, 0.5 * LAM, 6.0))
    focus = point_at(0.5, 0.1)
    w = delay_and_sum_weights(lay, focus, LAM)
    thetas = np.linspace(0.0, 0.2, 11)
    plan = bf._factorized_plan(lay, unit_vectors(thetas, 0.0) * 0.5, False, LAM)
    assert plan.bound_rad > plan.floor_rad

    grid = gain_pattern_sweep(lay, w, LAM, thetas=thetas, fixed_range=0.5)
    assert grid.kernel == EXACT_KERNEL
    totals = bf._point_sums(lay.positions, w.weights, unit_vectors(thetas, 0.0) * 0.5, LAM)
    want = bf._to_gain_dbi(totals, lay.n_elements, lay.element_gain_dbi)
    assert np.array_equal(grid.gain_dbi[:, 0], want)
    got = response_sum(lay, w, focus, LAM)
    assert got == complex(bf._point_sums(lay.positions, w.weights, focus.position[None], LAM)[0])


def test_perturbed_positions_take_exact_path():
    lay = make_distributed_panels(
        PanelSpec(4, 4, 0.5 * LAM), random_panel_positions(200.0, 100.0, 5, 10.0, 4)
    )
    target = point_at(400.0e3, 0.0).position[None]
    ones = np.ones(lay.n_elements)
    assert bf._sums(lay, ones, target, False, LAM)[1].name == "panel_factorized"

    moved = lay.positions.copy()
    moved[21, 0] += 1.0e-7
    bent = ElementLayout(moved, lay.panel_ids, lay.panel_spec)
    plan = bf._factorized_plan(bent, target, False, LAM)
    assert plan.bound_rad > plan.floor_rad
    total, kernel = bf._sums(bent, ones, target, False, LAM)
    assert kernel == EXACT_KERNEL
    assert np.array_equal(total, bf._point_sums(moved, ones, target, LAM))


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
    assert bf._factorized_plan(sat, target.position[None], False, LAM) is None
    w = delay_and_sum_weights(sat, target, LAM)
    assert gain_pattern_sweep(sat, w, LAM, ranges=[1.0e3, 2.0e3]).kernel == EXACT_KERNEL


def test_layout_file_without_panel_comment_takes_exact_path(tmp_path):
    grid = make_upa(PanelSpec(3, 3, 0.5 * LAM))
    with_spec = tmp_path / "with_spec.txt"
    save_layout(grid, with_spec)
    bare = tmp_path / "bare.txt"
    bare.write_text(
        "\n".join(ln for ln in with_spec.read_text().splitlines() if not ln.startswith("# panel"))
        + "\n"
    )
    units = unit_vectors(np.array([0.0, 0.3]), 0.0)
    for path, name in ((with_spec, "panel_factorized"), (bare, "exact")):
        lay = load_layout(path)
        _, kernel = bf._sums(lay, np.ones(lay.n_elements), units, True, LAM)
        assert kernel.name == name


def test_elements_out_of_grid_order_take_exact_path():
    lay = make_distributed_panels(PanelSpec(2, 3, 0.5 * LAM), [[0, 0, 0], [10, 0, 0]])
    order = np.r_[1, 0, 2:12]
    swapped = ElementLayout(lay.positions[order], lay.panel_ids, lay.panel_spec)
    units = Direction(0.1).unit[None]
    plan = bf._factorized_plan(swapped, units, True, LAM)
    assert plan.bound_rad > plan.floor_rad
    assert bf._sums(swapped, np.ones(12), units, True, LAM)[1] == EXACT_KERNEL


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
    assert far.beam_kernel.name == "panel_factorized"
    assert 0.0 < far.beam_kernel.bound_rad <= K * UNIT_ROUNDOFF * 100.0e3
    near = run_scenario(parse_scenario(base.format(range_m="2.0")), str(tmp_path / "near"))
    assert near.beam_kernel == EXACT_KERNEL
