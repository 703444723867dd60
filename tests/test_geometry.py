"""Layout construction, random placement, and the layout text format."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nearlink.geometry import (
    ElementLayout,
    OverlappingPanels,
    PanelSpec,
    PlacementInfeasible,
    _grid_offsets,
    check_panel_overlap,
    make_distributed_panels,
    make_upa,
    point_layout,
    random_panel_positions,
    save_layout,
)

LAM_28GHZ = 299792458.0 / 28.0e9


def brute_force_extent(positions):
    # O(n^2) oracle, no cleverness.
    best = 0.0
    for i in range(len(positions)):
        d = np.linalg.norm(positions[i + 1 :] - positions[i], axis=1)
        if len(d):
            best = max(best, float(d.max()))
    return best


def test_panel_spec_validation():
    with pytest.raises(ValueError):
        PanelSpec(0, 4, 0.005)
    with pytest.raises(ValueError):
        PanelSpec(4, 0, 0.005)
    with pytest.raises(ValueError):
        PanelSpec(4, 4, 0.0)
    with pytest.raises(ValueError):
        PanelSpec(4, 4, -0.1)


def test_single_element_upa_sits_at_center():
    lay = make_upa(PanelSpec(1, 1, 0.005, 6.0))
    assert lay.n_elements == 1
    np.testing.assert_array_equal(lay.positions, [[0.0, 0.0, 0.0]])


def test_2x2_upa_is_symmetric_about_center():
    lay = make_upa(PanelSpec(2, 2, 0.005, 6.0))
    got = set(map(tuple, np.round(lay.positions, 12)))
    want = {
        (-0.0025, -0.0025, 0.0),
        (0.0025, -0.0025, 0.0),
        (-0.0025, 0.0025, 0.0),
        (0.0025, 0.0025, 0.0),
    }
    assert got == want


def test_upa_count_and_centroid():
    rng = np.random.default_rng(42)
    for _ in range(10):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        center = rng.uniform(-50.0, 50.0, size=3)
        lay = make_upa(PanelSpec(rows, cols, 0.0125), center)
        assert lay.n_elements == rows * cols
        np.testing.assert_allclose(lay.positions.mean(axis=0), center, atol=1e-12)


def test_128x128_upa_extent():
    spec = PanelSpec(128, 128, LAM_28GHZ / 2.0, 6.0)
    lay = make_upa(spec)
    side = lay.positions[:, 0].max() - lay.positions[:, 0].min()
    assert abs(side - 127 * LAM_28GHZ / 2.0) < 1e-12
    assert abs(side - 0.680) < 0.002
    # diagonal, from the dumb pairwise oracle on its four corner elements:
    # a grid's convex hull is their rectangle
    corners = lay.positions[[0, spec.cols - 1, -spec.cols, -1]]
    ext = brute_force_extent(corners)
    assert abs(ext - 0.961) < 0.002
    assert abs(ext - spec.extent) < 1e-12


def test_distributed_16_panels_element_count():
    spec = PanelSpec(32, 32, LAM_28GHZ / 2.0, 6.0)
    centers = random_panel_positions(1414.0, 1000.0, 16, 50.0, seed=1)
    lay = make_distributed_panels(spec, centers)
    assert lay.n_elements == 16 * 32 * 32 == 16384
    assert lay.n_panels == 16
    np.testing.assert_allclose(lay.positions.reshape(16, -1, 3).mean(axis=1), centers, atol=1e-9)


def test_single_center_matches_make_upa():
    spec = PanelSpec(8, 8, 0.005, 6.0)
    a = make_upa(spec)
    b = make_distributed_panels(spec, np.zeros((1, 3)))
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(b.panel_ids, 0)


def test_overlapping_panels_rejected():
    spec = PanelSpec(4, 4, 0.01)  # extent ~ 0.042 m
    centers = np.array([[0.0, 0.0, 0.0], [0.02, 0.0, 0.0]])
    with pytest.raises(OverlappingPanels):
        make_distributed_panels(spec, centers)


def test_four_panels_are_exactly_corners():
    pos = random_panel_positions(1414.0, 1000.0, 4, 50.0, seed=3)
    got = set(map(tuple, pos))
    assert got == {
        (-707.0, -500.0, 0.0),
        (707.0, -500.0, 0.0),
        (-707.0, 500.0, 0.0),
        (707.0, 500.0, 0.0),
    }


def test_random_positions_deterministic():
    a = random_panel_positions(1414.0, 1000.0, 16, 50.0, seed=7)
    b = random_panel_positions(1414.0, 1000.0, 16, 50.0, seed=7)
    np.testing.assert_array_equal(a, b)
    c = random_panel_positions(1414.0, 1000.0, 16, 50.0, seed=8)
    assert not np.array_equal(a, c)


def test_random_positions_respect_min_spacing():
    pos = random_panel_positions(1414.0, 1000.0, 16, 50.0, seed=1)
    assert pos.shape == (16, 3)
    for i in range(16):
        for j in range(i + 1, 16):
            assert np.linalg.norm(pos[i] - pos[j]) >= 50.0
    # everything inside the aperture box
    assert (np.abs(pos[:, 0]) <= 707.0).all()
    assert (np.abs(pos[:, 1]) <= 500.0).all()


def test_placement_infeasible_raises():
    # 30 panels spaced 400 m apart do not fit in a 1000x1000 box.
    with pytest.raises(PlacementInfeasible):
        random_panel_positions(1000.0, 1000.0, 30, 400.0, seed=0)
    # corners themselves violating min_spacing is caught immediately
    with pytest.raises(PlacementInfeasible):
        random_panel_positions(10.0, 10.0, 4, 100.0, seed=0)


def test_layout_roundtrip(tmp_path):
    # The exact bytes of the text format: the header, the panel spec as a
    # comment and one "panel_id x y z" row per element, each float written as
    # the shortest text that reads back to the same double.
    spec = PanelSpec(1, 2, 0.0125, 6.0)
    lay = make_distributed_panels(spec, [[0.1, -2.0, 0.0], [30.0, 1.0 / 3.0, 0.5]])
    path = tmp_path / "layout.txt"
    save_layout(lay, path)
    text = path.read_text()
    assert text == (
        "# nearlink-layout v1\n"
        "# panel rows=1 cols=2 spacing=0.0125 element_gain_dbi=6.0\n"
        "0 0.09375 -2.0 0.0\n"
        "0 0.10625000000000001 -2.0 0.0\n"
        "1 29.99375 0.3333333333333333 0.5\n"
        "1 30.00625 0.3333333333333333 0.5\n"
    )
    rows = np.array([line.split() for line in text.splitlines()[2:]], dtype=float)
    np.testing.assert_array_equal(rows[:, 0], lay.panel_ids)
    np.testing.assert_array_equal(rows[:, 1:], lay.positions)


def test_layout_rejects_duplicate_positions():
    pos = np.zeros((2, 3))
    with pytest.raises(ValueError):
        ElementLayout(pos, np.array([0, 1]), PanelSpec(1, 1, 1.0))


def test_point_layout_is_single_element_panels_without_a_grid():
    pos = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [-1.0, 0.0, 9.0]])
    lay = point_layout(pos, 6.0)
    np.testing.assert_array_equal(lay.positions, pos)
    np.testing.assert_array_equal(lay.panel_ids, [0, 1, 2])
    assert lay.panel_spec == PanelSpec(1, 1, 1.0, 6.0) and lay._panel_grid is None
    assert point_layout(pos).element_gain_dbi == 0.0
    with pytest.raises(ValueError, match="identical position"):
        point_layout(np.zeros((2, 3)))


@st.composite
def panel_centres(draw):
    """A panel spec and its centres: each after the first either anywhere in
    a field, or its predecessor moved by the panel's diagonal, which puts
    the predecessor's last element on its own first, and then nudged a few
    ulps along x and y, past the extent or short of it."""
    spec = PanelSpec(
        draw(st.integers(1, 4)), draw(st.integers(1, 4)), 10.0 ** draw(st.floats(-4.0, 0.0))
    )
    field = 10.0 ** draw(st.floats(0.0, 9.0))
    coord = st.floats(-field, field)
    diagonal = 2.0 * _grid_offsets(spec)[-1]
    centres = [[draw(coord), draw(coord), draw(coord)]]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            centres.append([draw(coord), draw(coord), draw(coord)])
            continue
        c = np.array(centres[-1]) + diagonal
        for axis in (0, 1):
            for _ in range(draw(st.integers(0, 4))):
                c[axis] = np.nextafter(c[axis], np.inf)
        centres.append(c.tolist())
    return spec, np.array(centres)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(panel_centres())
# One ulp past the extent, panel 0's second element rounds onto panel 1's
# first.
@example((PanelSpec(1, 2, 0.01), np.array([[1.0e7, 0.0, 0.0], [10000000.010000002, 0.0, 0.0]])))
def test_panel_built_layouts_are_their_grid(drawn):
    # A layout built from centres skips the element check where its margin
    # holds; it must still be the layout the bare positions describe, and
    # fail with the bare layout's error where that one fails.
    spec, centres = drawn
    offsets = _grid_offsets(spec)
    positions = (centres[:, None, :] + offsets).reshape(-1, 3)
    ids = np.repeat(np.arange(len(centres)), spec.n_elements)
    try:
        check_panel_overlap(spec, centres)
    except OverlappingPanels:
        with pytest.raises(OverlappingPanels):
            make_distributed_panels(spec, centres)
        return
    try:
        bare = ElementLayout(positions, ids, spec)
    except ValueError as error:
        assert str(error) == "two elements share an identical position"
        with pytest.raises(ValueError) as built:
            make_distributed_panels(spec, centres)
        assert str(built.value) == str(error)
        return
    layout = make_distributed_panels(spec, centres)
    assert layout.positions.tobytes() == bare.positions.tobytes() == positions.tobytes()
    assert np.array_equal(layout.panel_ids, ids)
    assert layout.panel_spec == spec
    grid = layout._panel_grid
    assert grid.centres.tobytes() == centres.tobytes()
    assert grid.offsets.tobytes() == offsets.tobytes()
    assert bare._panel_grid is None
