"""Sparse placement: grating-lobe baseline and randomized search."""

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nearlink import geometry, placement
from nearlink.beamforming import Direction
from nearlink.geometry import PlacementInfeasible, random_panel_positions
from nearlink.placement import (
    PlacementObjective,
    PlacementResult,
    optimize_placement,
    peak_sidelobe,
    uniform_sparse_positions,
    write_placement_json,
)
from nearlink.scenario import load_scenario, run_scenario

LAM = 299792458.0 / 28.0e9
SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def test_uniform_two_panels_span_the_aperture():
    pos = uniform_sparse_positions(1000.0, 2)
    assert pos.shape == (2, 3)
    assert np.linalg.norm(pos[0] - pos[1]) == pytest.approx(1000.0)
    np.testing.assert_allclose(pos.mean(axis=0), 0.0, atol=1e-12)


def test_uniform_ten_panel_pitch():
    pos = uniform_sparse_positions(1000.0, 10)
    x = np.sort(pos[:, 0])
    np.testing.assert_allclose(np.diff(x), 1000.0 / 9.0, atol=1e-9)


def test_uniform_sparse_layout_has_a_grating_lobe():
    # pitch 111.1 m >> lambda/2: the placement factor re-peaks at
    # sin(theta) = lambda/pitch. Scan a window that straddles that angle.
    pos = uniform_sparse_positions(1000.0, 10)
    pitch = 1000.0 / 9.0
    lobe_theta = float(np.arcsin(LAM / pitch))
    obj = PlacementObjective(
        steering=Direction(0.0),
        exclusion_halfwidth=2.0 * LAM / 1000.0,
        scan_range=(-1.5 * lobe_theta, 1.5 * lobe_theta),
        n_scan=40001,
    )
    psl = peak_sidelobe(pos, LAM, obj)
    assert psl <= 0.0
    assert psl >= -0.001  # within 0.1% of the main lobe


def test_halfwave_ula_first_sidelobe():
    # 16-element half-wavelength line: the classic -13.3 dB first sidelobe
    pos = uniform_sparse_positions(15.0 * LAM / 2.0, 16)
    first_null = np.arcsin(2.0 / 16.0)
    obj = PlacementObjective(
        steering=Direction(0.0),
        exclusion_halfwidth=1.05 * first_null,
        scan_range=(-np.pi / 3.0, np.pi / 3.0),
        n_scan=200001,
    )
    psl = peak_sidelobe(pos, LAM, obj)
    assert psl == pytest.approx(-13.3, abs=0.2)


def test_two_positions_always_repeak():
    pos = uniform_sparse_positions(500.0, 2)
    obj = PlacementObjective(
        steering=Direction(0.0),
        exclusion_halfwidth=2.0 * LAM / 500.0,
        scan_range=(-0.001, 0.001),
        n_scan=50001,
    )
    assert peak_sidelobe(pos, LAM, obj) >= -0.001


def test_peak_sidelobe_invariances():
    rng = np.random.default_rng(6)
    pos = rng.uniform(-300.0, 300.0, size=(8, 3))
    pos[:, 2] = 0.0
    obj = PlacementObjective(
        steering=Direction(0.0, 0.5),
        exclusion_halfwidth=1e-5,
        scan_range=(-2e-4, 2e-4),
        n_scan=2001,
    )
    base = peak_sidelobe(pos, LAM, obj)
    shifted = peak_sidelobe(pos + np.array([13.0, -4.0, 0.0]), LAM, obj)
    assert base == pytest.approx(shifted, abs=1e-9)
    assert base <= 0.0


def test_objective_validation():
    with pytest.raises(ValueError):
        PlacementObjective(Direction(0.0), 0.0, (-0.1, 0.1), 1000)
    with pytest.raises(ValueError):
        PlacementObjective(Direction(0.5), 1e-4, (-0.1, 0.1), 1000)  # steering outside
    with pytest.raises(ValueError):
        PlacementObjective(Direction(0.0), 1e-4, (0.1, -0.1), 1000)
    with pytest.raises(ValueError):
        PlacementObjective(Direction(0.0), 1e-4, (-0.1, 0.1), 10)


def small_objective():
    return PlacementObjective(
        steering=Direction(0.0, np.pi / 6.0),
        exclusion_halfwidth=2.0 * LAM / 400.0,
        scan_range=(-5e-4, 5e-4),
        n_scan=1501,
    )


def test_optimizer_single_candidate_and_determinism():
    obj = small_objective()
    a = optimize_placement(400.0, 300.0, 8, 10.0, LAM, obj, n_candidates=1, seed=3)
    b = optimize_placement(400.0, 300.0, 8, 10.0, LAM, obj, n_candidates=1, seed=3)
    assert a.candidates_evaluated == 1
    np.testing.assert_array_equal(a.positions, b.positions)
    assert a.peak_sidelobe_db == b.peak_sidelobe_db
    assert a.peak_sidelobe_db <= 0.0
    # stored score is reproducible from the stored positions
    assert peak_sidelobe(a.positions, LAM, obj) == a.peak_sidelobe_db


def test_optimizer_improves_with_more_candidates():
    obj = small_objective()
    scores = [
        optimize_placement(400.0, 300.0, 8, 10.0, LAM, obj, n, seed=3).peak_sidelobe_db
        for n in (1, 5, 25)
    ]
    assert scores[1] <= scores[0]
    assert scores[2] <= scores[1]


def test_random_beats_uniform_sparse():
    # the qualitative claim behind randomized placement, on a small case:
    # uniform pitch re-peaks near 0 dB, the random search stays well below
    pitch = 1000.0 / 9.0
    lobe_theta = float(np.arcsin(LAM / pitch))
    obj = PlacementObjective(
        steering=Direction(0.0, np.pi / 6.0),
        exclusion_halfwidth=2.0 * LAM / 1000.0,
        scan_range=(-1.5 * lobe_theta, 1.5 * lobe_theta),
        n_scan=20001,
    )
    uniform_psl = peak_sidelobe(uniform_sparse_positions(1000.0, 10), LAM, obj)
    for seed in (0, 1, 2):
        res = optimize_placement(1000.0, 700.0, 10, 20.0, LAM, obj, 40, seed=seed)
        assert res.peak_sidelobe_db < uniform_psl - 3.0


def test_placement_json_output(tmp_path):
    obj = small_objective()
    res = optimize_placement(400.0, 300.0, 8, 10.0, LAM, obj, 4, seed=12)
    path = tmp_path / "placement.json"
    write_placement_json(res, obj, LAM, path)
    data = json.loads(path.read_text())
    assert data["seed"] == 12
    assert data["candidates_evaluated"] == 4
    assert data["peak_sidelobe_db"] == res.peak_sidelobe_db
    assert len(data["positions_m"]) == 8
    assert data["wavelength_m"] == LAM


def test_result_requires_nonpositive_sidelobe():
    with pytest.raises(ValueError):
        PlacementResult(np.zeros((2, 3)), 0.5, 0, 1)


# ----- random draws: the batched pass against the per-draw loop -----


def loop_positions(aperture_x, aperture_y, n_panels, min_spacing, seed, cap=10_000):
    """Frozen copy of the per-draw rejection loop that blocked draws replaced."""
    hx, hy = aperture_x / 2.0, aperture_y / 2.0
    corners = np.array(
        [[-hx, -hy, 0.0], [hx, -hy, 0.0], [-hx, hy, 0.0], [hx, hy, 0.0]]
    )
    taken = corners[: min(n_panels, 4)].copy()
    if len(taken) >= 2:
        for i in range(len(taken)):
            d = np.linalg.norm(taken[i + 1 :] - taken[i], axis=1)
            if len(d) and d.min() < min_spacing:
                raise PlacementInfeasible(
                    f"aperture corners are only {d.min():.6g} m apart, below the "
                    f"requested min spacing {min_spacing:.6g} m"
                )
    if n_panels <= 4:
        return taken
    rng = np.random.default_rng(seed)
    placed = list(taken)
    for _ in range(4, n_panels):
        for attempt in range(cap):
            cand = np.array([rng.uniform(-hx, hx), rng.uniform(-hy, hy), 0.0])
            d = np.linalg.norm(np.asarray(placed) - cand, axis=1)
            if d.min() >= min_spacing:
                placed.append(cand)
                break
        else:
            raise PlacementInfeasible(
                f"placed {len(placed)} of {n_panels} panels, then failed "
                f"{cap} consecutive draws at min spacing "
                f"{min_spacing:.6g} m in a {aperture_x:.6g} x {aperture_y:.6g} m aperture"
            )
    return np.asarray(placed)


def outcome(draw, *args):
    try:
        pos = draw(*args)
    except PlacementInfeasible as exc:
        return "infeasible", str(exc)
    return pos.shape, pos.dtype, pos.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    aperture_x=st.floats(1.0, 2000.0),
    aperture_y=st.floats(1.0, 2000.0),
    n_panels=st.integers(1, 24),
    spacing_fraction=st.floats(0.0, 0.7),
    seed=st.integers(0, 2**64 - 1),
)
@example(1414.0, 1000.0, 16, 50.0 / 1000.0, 7)
@example(1000.0, 1000.0, 30, 0.4, 0)  # a panel fails every one of its draws
@example(10.0, 10.0, 4, 10.0, 0)  # the corners alone are too close
def test_blocked_draws_equal_the_per_draw_loop(
    aperture_x, aperture_y, n_panels, spacing_fraction, seed
):
    spacing = spacing_fraction * min(aperture_x, aperture_y)
    args = (aperture_x, aperture_y, n_panels, spacing, seed)
    assert outcome(random_panel_positions, *args) == outcome(loop_positions, *args)


def stacked_loop(aperture_x, aperture_y, n_panels, min_spacing, seeds, cap=10_000):
    """The per-draw loop over each seed in turn, stacked; the first seed that
    fails raises its own error."""
    args = (aperture_x, aperture_y, n_panels, min_spacing)
    return np.stack([loop_positions(*args, int(s), cap) for s in seeds])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    aperture_x=st.floats(1.0, 2000.0),
    aperture_y=st.floats(1.0, 2000.0),
    n_panels=st.integers(1, 24),
    spacing_fraction=st.floats(0.0, 0.7),
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40),
)
@example(1414.0, 1000.0, 16, 50.0 / 1000.0, list(range(40)))
@example(1000.0, 1000.0, 30, 0.4, [0, 1, 2])  # every seed fails
@example(10.0, 10.0, 4, 10.0, [0, 1])  # the corners alone are too close
@example(1000.0, 1000.0, 9, 0.4, [15, 16, 1])  # only the last seed fails
# Seed 1 fails with 8 placed at step 317 of the pass, seed 21 with 9 placed
# at step 358: in the first batch the earlier seed fails after the later one,
# in the second the later seed stops drawing once the earlier one fails.
@example(1000.0, 1000.0, 10, 0.4, [21, 1])
@example(1000.0, 1000.0, 10, 0.4, [1, 21])
def test_batched_draws_equal_the_per_draw_loop_per_seed(
    aperture_x, aperture_y, n_panels, spacing_fraction, seeds
):
    spacing = spacing_fraction * min(aperture_x, aperture_y)
    args = (aperture_x, aperture_y, n_panels, spacing, np.array(seeds, dtype=np.uint64))
    assert outcome(random_panel_positions, *args) == outcome(stacked_loop, *args)


@pytest.mark.parametrize("cap", [5, 31, 32, 33])
def test_attempt_cap_counts_every_failed_draw(monkeypatch, cap):
    # With a cap of a few draws, slots succeed and fail on both sides of it,
    # inside a block and across block ends.
    monkeypatch.setattr(geometry, "_PLACEMENT_ATTEMPT_CAP", cap)
    args = (1000.0, 1000.0, 12, 250.0)
    seeds = np.arange(40, dtype=np.uint64)
    alone = [outcome(loop_positions, *args, int(s), cap) for s in seeds]
    assert len({a[0] for a in alone}) == 2  # some seeds fail, some do not
    assert [outcome(random_panel_positions, *args, int(s)) for s in seeds] == alone
    for start in range(0, len(seeds), 8):
        batch = seeds[start : start + 8]
        assert outcome(random_panel_positions, *args, batch) == outcome(
            stacked_loop, *args, batch, cap
        )


def test_seed_is_an_int_or_a_1d_array():
    with pytest.raises(ValueError, match="1-D"):
        random_panel_positions(1414.0, 1000.0, 16, 50.0, np.zeros((2, 2), dtype=np.uint64))
    empty = random_panel_positions(1414.0, 1000.0, 16, 50.0, np.array([], dtype=np.uint64))
    assert empty.shape == (0, 16, 3)


# ----- best-first search against scoring every candidate -----


def brute_force(aperture_x, aperture_y, n_panels, min_spacing, objective, n_candidates, seed):
    children = np.random.SeedSequence(seed).generate_state(n_candidates, dtype=np.uint64)
    candidates = [
        random_panel_positions(aperture_x, aperture_y, n_panels, min_spacing, int(c))
        for c in children
    ]
    scores = [peak_sidelobe(c, LAM, objective) for c in candidates]
    best = int(np.argmin(scores))  # first of the lowest
    return candidates[best], scores[best]


def field_objective(n_scan=801):
    return PlacementObjective(
        steering=Direction(0.0, np.pi / 6.0),
        exclusion_halfwidth=2.0 * LAM / 1700.0,
        scan_range=(-2.5e-4, 2.5e-4),
        n_scan=n_scan,
    )


# At 100 and 101 scan samples the fine screen keeps 6 directions and the
# coarse one 2. Two panels are two fixed aperture corners, so every candidate
# ties and none can be pruned.
SEARCH_CASES = [pytest.param(seed, 801, 16, id=str(seed)) for seed in (0, 1, 2, 11, 123)] + [
    pytest.param(seed, n_scan, n_panels, id=f"{seed}-scan{n_scan}-panels{n_panels}")
    for n_scan in (100, 101)
    for n_panels in (2, 5, 16)
    for seed in (0, 11)
]


@pytest.mark.parametrize("seed, n_scan, n_panels", SEARCH_CASES)
def test_search_winner_is_the_first_argmin_of_all_candidates(seed, n_scan, n_panels):
    obj = field_objective(n_scan)
    res = optimize_placement(1414.0, 1000.0, n_panels, 50.0, LAM, obj, 80, seed)
    pos, score = brute_force(1414.0, 1000.0, n_panels, 50.0, obj, 80, seed)
    np.testing.assert_array_equal(res.positions, pos)
    assert res.peak_sidelobe_db == score
    assert res.candidates_evaluated == 80
    assert 1 <= res.candidates_scored <= 80
    if n_panels > 4:
        assert res.candidates_scored < 80
    assert 0.0 < res.prune_margin < 1e-10
    # Every candidate is screened coarsely, and every scored one (at most
    # all of them) finely as well.
    rel = placement._scan_offsets(obj)
    n_coarse = len(rel[:: 4 * placement._SCREEN_STRIDE])
    n_fine = len(rel[:: placement._SCREEN_STRIDE])
    assert n_coarse < n_fine
    coarse_exps = 80 * n_panels * n_coarse
    assert coarse_exps + res.candidates_scored * n_panels * n_fine <= res.screen_exps
    assert res.screen_exps <= coarse_exps + 80 * n_panels * n_fine


def test_all_tied_candidates_are_scored_and_the_first_wins():
    # Four panels or fewer: every candidate is the same set of corners, so
    # every bound and score ties and none can be pruned.
    obj = field_objective()
    for n_panels in (2, 4):
        res = optimize_placement(1414.0, 1000.0, n_panels, 50.0, LAM, obj, 12, 5)
        pos, score = brute_force(1414.0, 1000.0, n_panels, 50.0, obj, 12, 5)
        np.testing.assert_array_equal(res.positions, pos)
        assert res.peak_sidelobe_db == score
        assert res.candidates_scored == 12


@pytest.mark.parametrize("lower_later_bound", [False, True])
def test_exact_ties_between_distinct_candidates_keep_the_lower_index(
    monkeypatch, lower_later_bound
):
    # A placement and its point reflection score the same to the last bit:
    # each phasor becomes its conjugate, in the same summation order.
    base = random_panel_positions(1414.0, 1000.0, 16, 50.0, 3)
    # A line along the scan azimuth throws a full-strength grating lobe.
    azimuth = (np.cos(np.pi / 6.0), np.sin(np.pi / 6.0), 0.0)
    worse = uniform_sparse_positions(1400.0, 16, axis=azimuth)
    monkeypatch.setattr(
        placement, "random_panel_positions", lambda *args: np.stack([worse, -base, base])
    )
    if lower_later_bound:
        # A looser (still valid) bound on the last candidate, at both screen
        # levels, makes the search score it before its tied twin at index 1.
        # The fine level screens one candidate at a time, so the candidate is
        # found by its positions, not by its place in the batch.
        screen = placement._screen_bounds

        def looser(candidates, rel, k):
            bounds = screen(candidates, rel, k)
            bounds[(candidates == base).all(axis=(1, 2))] -= 1.0
            return bounds

        monkeypatch.setattr(placement, "_screen_bounds", looser)
    obj = field_objective()
    assert peak_sidelobe(base, LAM, obj) == peak_sidelobe(-base, LAM, obj)
    res = optimize_placement(1414.0, 1000.0, 16, 50.0, LAM, obj, 3, 0)
    np.testing.assert_array_equal(res.positions, -base)


def test_screen_bound_is_within_the_margin_of_the_score():
    # Over every kept direction the screen computes the score's amplitude by
    # another route; the margin must cover the gap, dB round trip included.
    obj = field_objective(n_scan=2001)
    children = np.random.SeedSequence(4).generate_state(40, dtype=np.uint64)
    cands = np.stack(
        [random_panel_positions(1414.0, 1000.0, 16, 50.0, int(c)) for c in children]
    )
    k = 2.0 * np.pi / LAM
    rel = placement._scan_offsets(obj)
    bounds = placement._screen_bounds(cands, rel, k)
    margin = placement._prune_margin(rel, cands, k)
    amps = np.array([16 * 10.0 ** (peak_sidelobe(c, LAM, obj) / 20.0) for c in cands])
    assert np.abs(bounds - amps).max() <= margin * 16
    # Both levels of the search's screen are lower bounds within the margin.
    for stride in (placement._SCREEN_STRIDE, 4 * placement._SCREEN_STRIDE):
        strided = placement._screen_bounds(cands, rel[::stride], k)
        assert (strided <= amps + margin * 16).all()


def test_shipped_placement_outputs_are_unchanged(tmp_path):
    # Digests of the outputs of the search that scored every candidate.
    run_scenario(
        load_scenario(os.path.join(SCENARIO_DIR, "placement_search.scenario")),
        output_dir=str(tmp_path),
    )
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("placement.json", "placement_layout.txt")
    }
    assert digests == {
        "placement.json": "0b0361d34e4b844a955baba9fbeb6753142f5b5dbeb372507fe3f254e5bc3691",
        "placement_layout.txt": "9a5f05726afcaf845adfa062a1c63869f88db5b8f1b4553b13efed908c62171b",
    }
