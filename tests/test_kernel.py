"""The kernel module's shared pieces: the block iterator at its edges (a step
of one row, a ragged last block), the wavenumber check, and its imports."""

import ast

import numpy as np
import pytest

from nearlink import kernel as kn
from nearlink import placement, record
from nearlink.beamforming import Direction
from nearlink.kernel import channel_matrix, unit_vectors
from nearlink.geometry import PanelSpec, make_distributed_panels, point_layout
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
SATELLITE = point_layout(POINTS[:7])
CENTRES = rng.uniform(-500.0, 500.0, (15, 3))
OBJECTIVE = PlacementObjective(Direction(0.1, 0.2), 0.01, (-0.5, 0.5), 401)
# Targets in the plane of the focus, where the focused sums pass the gate.
FOCUS = 2.0e5 * unit_vectors(0.1, 0.0)
FOCUSED_POINTS = unit_vectors(np.linspace(-0.3, 0.3, 23), 0.0)
FOCUSED_POINTS *= np.geomspace(1.0e5, 3.0e5, 23)[:, None]


def evaluate():
    plan = kn._factorized_plan(LAYOUT, POINTS, LAM)
    fplan = kn._factorized_plan(LAYOUT, FOCUSED_POINTS, LAM, FOCUS)
    return {
        "plans": (plan.bound_rad, fplan.bound_rad),
        "focused_points": kn._factorized_sums(fplan, FOCUSED_POINTS, LAM),
        "exact_points": kn._exact_sums(LAYOUT.positions, WEIGHTS, POINTS, False, LAM),
        "exact_directions": kn._exact_sums(LAYOUT.positions, WEIGHTS, UNITS, True, LAM),
        "channel": channel_matrix(SATELLITE, LAYOUT, LAM),
        "sidelobe_db": peak_sidelobe(CENTRES, LAM, OBJECTIVE),
    }


def ragged_budgets():
    # A budget per kernel that gives it STEP rows per block: (rows, width).
    n, s = LAYOUT.n_elements, len(POINTS)
    n_dirs = len(placement._scan_offsets(OBJECTIVE))
    shapes = {
        "gate": (s, n),
        "focused": (len(FOCUSED_POINTS), len(LAYOUT._panel_grid.centres)),
        "exact": (n, s),
        "channel": (SATELLITE.n_elements, n),
        "sidelobe": (len(CENTRES), n_dirs),
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


@pytest.mark.parametrize("ragged", [False, True], ids=["step_one", "ragged_last_block"])
def test_chunked_kernels_keep_their_results_at_any_block_budget(monkeypatch, ragged):
    want = evaluate()
    budgets = {name: budget if ragged else 1 for name, budget in ragged_budgets()}
    got = {}
    for name, budget in budgets.items():
        monkeypatch.setattr(kn, "_BLOCK_BUDGET", budget)
        monkeypatch.setattr(kn, "_CACHE_ENTRIES", budget)
        got[name] = evaluate()

    # Elementwise work only: the same bits whatever the blocks. The gate's
    # bound walks the targets in blocks of targets x elements.
    assert got["gate"]["plans"] == want["plans"]
    assert got["focused"]["plans"] == want["plans"]
    assert np.array_equal(got["channel"]["channel"], want["channel"])

    # Matrix products and sums: BLAS and numpy's SIMD loops pick their
    # kernels, and with them the rounding and order of their sums, by the
    # width of the block, so these hold to their rounding bounds.
    # The focused sums take each block's (panels, targets) arrays through the
    # same elementwise steps, and sum two axes and the panels.
    n = LAYOUT.n_elements
    fplan = kn._factorized_plan(LAYOUT, FOCUSED_POINTS, LAM, FOCUS)
    assert fplan.bound_rad <= fplan.floor_rad
    bound = fplan.bound_rad + dot_rounding(fplan.cols + fplan.rows + len(fplan.centres) + 6)
    assert np.abs(got["focused"]["focused_points"] - want["focused_points"]).max() <= n * bound
    total = np.abs(WEIGHTS).sum()
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
    # A budget below one row's entries still gives one row a block.
    assert list(kn.blocks(10, 1, 0)) == [slice(i, i + 1) for i in range(10)]


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_wavenumber_refuses_a_bad_wavelength(bad):
    with pytest.raises(ValueError, match="wavelength must be positive and finite"):
        kn.wavenumber(bad)


def test_wavenumber_negated_is_the_old_negative_form():
    for lam in (LAM, 0.01, 3.0):
        assert kn.wavenumber(lam) == 2.0 * np.pi / lam
        assert -kn.wavenumber(lam) == -2.0 * np.pi / lam


def test_kernel_imports_no_other_package_module():
    # No other package module but the record base, which itself imports
    # nothing at all, so the kernel stays below every other module.
    tree = ast.parse(open(kn.__file__).read())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    package = [node for node in imports if node.level or node.module.startswith("nearlink")]
    assert [(node.level, node.module) for node in package] == [(1, "record")]
    base = ast.parse(open(record.__file__).read())
    assert not [node for node in ast.walk(base) if isinstance(node, (ast.Import, ast.ImportFrom))]
