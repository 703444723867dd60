"""Layout construction, field regions, and the layout text format."""

import numpy as np
import pytest

from nearlink.geometry import (
    ElementLayout,
    FieldRegion,
    LayoutFormatError,
    OverlappingPanels,
    PanelSpec,
    PlacementInfeasible,
    aperture_extent,
    field_region,
    fraunhofer_distance,
    fresnel_distance,
    load_layout,
    make_distributed_panels,
    make_upa,
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
    # diagonal, against the dumb pairwise oracle on its four corner elements:
    # a grid's convex hull is their rectangle
    ext = aperture_extent(lay)
    assert abs(ext - 0.961) < 0.002
    corners = lay.positions[[0, spec.cols - 1, -spec.cols, -1]]
    assert abs(ext - brute_force_extent(corners)) < 1e-12


def test_small_layout_extents_match_the_pairwise_oracle():
    # Every pair, on layouts small enough to scan in full: a UPA off the
    # origin, and panels of unequal rows and columns at scattered centres.
    upa = make_upa(PanelSpec(9, 13, LAM_28GHZ / 2.0), center=(3.0, -2.0, 1.0))
    spread = make_distributed_panels(
        PanelSpec(5, 3, 0.01), [[0.0, 0.0, 0.0], [1.3, -0.4, 0.2], [-0.7, 2.1, 0.0]]
    )
    for lay in (upa, spread):
        assert abs(aperture_extent(lay) - brute_force_extent(lay.positions)) < 1e-12


def test_distributed_16_panels_element_count():
    spec = PanelSpec(32, 32, LAM_28GHZ / 2.0, 6.0)
    centers = random_panel_positions(1414.0, 1000.0, 16, 50.0, seed=1)
    lay = make_distributed_panels(spec, centers)
    assert lay.n_elements == 16 * 32 * 32 == 16384
    assert lay.n_panels == 16
    np.testing.assert_allclose(lay.panel_centers(), centers, atol=1e-9)


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


def test_aperture_extent_trivial_cases():
    spec = PanelSpec(1, 1, 1.0)
    single = make_upa(spec)
    assert aperture_extent(single) == 0.0
    two = ElementLayout(
        np.array([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0]]),
        np.array([0, 1]),
        spec,
    )
    assert abs(aperture_extent(two) - 0.2) < 1e-15


def test_aperture_extent_matches_brute_force_on_large_cloud():
    # more than 256 points so the hull path is exercised
    rng = np.random.default_rng(11)
    pts = rng.uniform(-500.0, 500.0, size=(400, 3))
    pts[:, 2] = 0.0
    lay = ElementLayout(pts, np.arange(400), PanelSpec(1, 1, 1.0))
    assert abs(aperture_extent(lay) - brute_force_extent(pts)) < 1e-9


def test_field_region_examples():
    # fresnel ~ 0.554 m, fraunhofer = 8 m for d=0.2, lambda=0.01
    assert abs(fresnel_distance(0.2, 0.01) - 0.62 * np.sqrt(0.008 / 0.01)) < 1e-15
    assert fraunhofer_distance(0.2, 0.01) == pytest.approx(8.0)
    assert field_region(0.2, 0.01, 0.1) is FieldRegion.REACTIVE_NEAR
    assert field_region(0.2, 0.01, 4.0) is FieldRegion.RADIATIVE_NEAR
    assert field_region(0.2, 0.01, 100.0) is FieldRegion.FAR


def test_field_region_monotone_in_range():
    rng = np.random.default_rng(5)
    order = [FieldRegion.REACTIVE_NEAR, FieldRegion.RADIATIVE_NEAR, FieldRegion.FAR]
    for _ in range(20):
        d = float(rng.uniform(0.05, 5.0))
        lam = float(rng.uniform(0.001, 0.1))
        assert fresnel_distance(d, lam) < fraunhofer_distance(d, lam)
        ranges = np.geomspace(1e-3, 1e7, 300)
        idx = [order.index(field_region(d, lam, float(r))) for r in ranges]
        assert idx == sorted(idx)
        assert set(idx) == {0, 1, 2}


def test_layout_roundtrip(tmp_path):
    spec = PanelSpec(3, 2, 0.0125, 6.0)
    centers = random_panel_positions(200.0, 100.0, 6, 10.0, seed=2)
    lay = make_distributed_panels(spec, centers)
    path = tmp_path / "layout.txt"
    save_layout(lay, path)
    text = path.read_text()
    assert text.startswith("# nearlink-layout v1\n")
    back = load_layout(path)
    np.testing.assert_array_equal(back.positions, lay.positions)
    np.testing.assert_array_equal(back.panel_ids, lay.panel_ids)
    assert back.panel_spec == lay.panel_spec


def test_load_layout_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a layout\n0 0 0 0\n")
    with pytest.raises(LayoutFormatError):
        load_layout(path)


@pytest.mark.parametrize(
    "comment",
    [
        "# panel rows=1 cols=1 spacing=1.0",
        "# panel rows=1 cols cols=1 spacing=1.0 element_gain_dbi=0.0",
        "# panel rows=two cols=1 spacing=1.0 element_gain_dbi=0.0",
    ],
    ids=["missing_key", "item_without_equals", "non_integer_rows"],
)
def test_load_layout_rejects_a_bad_panel_comment_with_its_line(tmp_path, comment):
    path = tmp_path / "bad.txt"
    path.write_text(f"# nearlink-layout v1\n{comment}\n0 0 0 0\n")
    with pytest.raises(LayoutFormatError, match=r"^line 2: "):
        load_layout(path)


def test_layout_rejects_duplicate_positions():
    pos = np.zeros((2, 3))
    with pytest.raises(ValueError):
        ElementLayout(pos, np.array([0, 1]), PanelSpec(1, 1, 1.0))
