"""The kernel module's shared pieces: the block iterator at its edges (a step
of one row, a ragged last block), the wavenumber check, and its imports."""

import ast

import numpy as np
import pytest

from nearlink import kernel as kn
from nearlink import placement
from nearlink.beamforming import Direction
from nearlink.kernel import channel_matrix, unit_vectors
from nearlink.geometry import ElementLayout, PanelSpec, make_distributed_panels
from nearlink.placement import PlacementObjective, peak_sidelobe

LAM = 299792458.0 / 28.0e9
K = 2.0 * np.pi / LAM
U = 2.0**-53
STEP = 4  # rows per block at the ragged budget; no row count below is a multiple

rng = np.random.default_rng(3)
LAYOUT = make_distributed_panels(
    PanelSpec(6, 7, 0.5 * LAM),
    [[-40, 10, 0], [25, -30, 1], [5, 35, -2], [60, 60, 0], [-60, -50, 0]],
)
POINTS = unit_vectors(rng.uniform(-0.3, 0.3, 23), rng.uniform(0, 6, 23))
POINTS *= rng.uniform(1.0e5, 3.0e5, 23)[:, None]
UNITS = unit_vectors(rng.uniform(-1.0, 1.0, 23), rng.uniform(0, 6, 23))
WEIGHTS = rng.normal(size=LAYOUT.n_elements) + 1j * rng.normal(size=LAYOUT.n_elements)
SATELLITE = ElementLayout(POINTS[:7], np.arange(7), PanelSpec(1, 1, 1.0))
CENTRES = rng.uniform(-500.0, 500.0, (15, 3))
OBJECTIVE = PlacementObjective(Direction(0.1, 0.2), 0.01, (-0.5, 0.5), 401)


def evaluate():
    plan = kn._factorized_plan(LAYOUT, POINTS, False, LAM)
    dplan = kn._factorized_plan(LAYOUT, UNITS, True, LAM)
    return {
        "plans": (plan.bound_rad, plan.chained, dplan.bound_rad, dplan.chained),
        "factorized_points": kn._factorized_sums(plan, WEIGHTS, POINTS, LAM),
        "factorized_directions": kn._factorized_sums(dplan, WEIGHTS, UNITS, LAM),
        "exact_points": kn._point_sums(LAYOUT.positions, WEIGHTS, POINTS, LAM),
        "exact_directions": kn._direction_sums(LAYOUT.positions, WEIGHTS, UNITS, LAM),
        "channel": channel_matrix(SATELLITE, LAYOUT, LAM),
        "sidelobe_db": peak_sidelobe(CENTRES, LAM, OBJECTIVE),
    }


def ragged_budgets():
    # A budget per kernel that gives it STEP rows per block: (rows, width).
    n, s = LAYOUT.n_elements, len(POINTS)
    n_dirs = len(placement._scan_offsets(OBJECTIVE))
    shapes = {
        "factorized": (s, n),
        "exact": (n, s),
        "channel": (SATELLITE.n_elements, n),
        "sidelobe": (n_dirs, len(CENTRES)),
    }
    for name, (rows, width) in shapes.items():
        assert rows % STEP and rows > STEP, name
        yield name, STEP * width


def dot_rounding(n_terms, phase_reach=0.0):
    # One evaluation's distance from the exact sum sum_i w_i exp(j phi_i),
    # per unit of sum_i |w_i|: a phase formed as k times a 3-term dot product
    # within gamma_4 k reach of exact (Higham 3.1), an exp within 2 ulps per
    # component, and a complex inner product of n terms summed in any order,
    # within sqrt(2) gamma_(n+2) (Higham 3.1 and 4.2). Phases formed
    # elementwise are the same bits at every budget and pass reach 0.
    return kn._gamma(4) * K * phase_reach + 8.0 * U + np.sqrt(2.0) * kn._gamma(n_terms + 2)


def factorized_rounding(plan, targets, directional):
    # The factorized sum nests three such sums (columns, rows, panels) and
    # three complex products (sqrt(2) gamma_2 each), on factors whose
    # recurrence adds at most the drift the plan's bound counts.
    if directional:
        slope_x, slope_y, curvature = np.abs(targets[:, :2]).max(axis=0).tolist() + [0.0]
        reach = float((np.abs(targets) @ np.abs(plan.centres).T).max())
    else:
        nearest = np.linalg.norm(targets[:, None] - plan.centres[None], axis=2).min()
        slope_x = slope_y = 1.0
        curvature, reach = 0.5 / nearest, 0.0
    drift = 0.0
    if plan.chained:
        drift += kn._recurrence_drift(plan.cols, plan.spacing, K, slope_x, curvature)
        drift += kn._recurrence_drift(plan.rows, plan.spacing, K, slope_y, curvature)
    n_terms = plan.cols + plan.rows + len(plan.centres) + 6
    return drift / (1.0 - drift) + dot_rounding(n_terms, reach)


@pytest.mark.parametrize("ragged", [False, True], ids=["step_one", "ragged_last_block"])
def test_chunked_kernels_keep_their_results_at_any_block_budget(monkeypatch, ragged):
    want = evaluate()
    budgets = {name: budget if ragged else 1 for name, budget in ragged_budgets()}
    got = {}
    for name, budget in budgets.items():
        monkeypatch.setattr(kn, "_BLOCK_BUDGET", budget)
        got[name] = evaluate()

    # Elementwise work only: the same bits whatever the blocks.
    assert got["factorized"]["plans"] == want["plans"]
    assert np.array_equal(got["channel"]["channel"], want["channel"])

    # Matrix products and sums: BLAS and numpy's SIMD loops pick their
    # kernels, and with them the rounding and order of their sums, by the
    # width of the block, so these hold to their rounding bounds.
    total = np.abs(WEIGHTS).sum()
    plan = kn._factorized_plan(LAYOUT, POINTS, False, LAM)
    dplan = kn._factorized_plan(LAYOUT, UNITS, True, LAM)
    for key, bound in (
        ("factorized_points", factorized_rounding(plan, POINTS, False)),
        ("factorized_directions", factorized_rounding(dplan, UNITS, True)),
    ):
        assert np.abs(got["factorized"][key] - want[key]).max() <= 2.0 * total * bound, key
    reach = float((np.abs(UNITS) @ np.abs(LAYOUT.positions).T).max())
    for key, bound in (
        ("exact_points", dot_rounding(LAYOUT.n_elements)),
        ("exact_directions", dot_rounding(LAYOUT.n_elements, reach)),
    ):
        assert np.abs(got["exact"][key] - want[key]).max() <= 2.0 * total * bound, key
    # The placement search's prune margin bounds the amplitude gap between two
    # evaluations of a placement factor, the dB round trip included.
    n = len(CENTRES)
    rel = placement._scan_offsets(OBJECTIVE)
    margin = placement._prune_margin(rel, CENTRES[None], K)
    amplitude = [n * 10.0 ** (r["sidelobe_db"] / 20.0) for r in (got["sidelobe"], want)]
    assert abs(amplitude[0] - amplitude[1]) <= margin * n


def test_blocks_cover_every_row_once():
    for n, width in ((0, 5), (1, 0), (7, 10**9), (10, kn._BLOCK_BUDGET // 3)):
        rows = [i for block in kn.blocks(n, width) for i in range(n)[block]]
        assert rows == list(range(n))


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_wavenumber_refuses_a_bad_wavelength(bad):
    with pytest.raises(ValueError, match="wavelength must be positive and finite"):
        kn.wavenumber(bad)


def test_wavenumber_negated_is_the_old_negative_form():
    for lam in (LAM, 0.01, 3.0):
        assert kn.wavenumber(lam) == 2.0 * np.pi / lam
        assert -kn.wavenumber(lam) == -2.0 * np.pi / lam


def test_kernel_imports_no_other_package_module():
    tree = ast.parse(open(kn.__file__).read())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert all(node.level == 0 and not node.module.startswith("nearlink") for node in imports)
