"""The numpy-free panel checks against the numpy formulas they replace, bit
for bit: the same extents and distances, and the same errors with the same
panels named."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nearlink import geometry, panels
from nearlink.panels import (
    OverlappingPanels,
    PanelSpec,
    PlacementInfeasible,
    check_corner_spacing,
    check_panel_overlap,
)


def numpy_extent(spec):
    with np.errstate(over="ignore"):
        return float(np.hypot((spec.rows - 1) * spec.spacing, (spec.cols - 1) * spec.spacing))


def numpy_overlap(spec, centres):
    """The pairwise loop the check replaced: its message, or None."""
    centers = np.asarray(centres, dtype=np.float64).reshape(-1, 3)
    limit = numpy_extent(spec)
    for i in range(len(centers)):
        d = np.linalg.norm(centers[i + 1 :] - centers[i], axis=1)
        if len(d) and d.min() <= limit:
            j = i + 1 + int(np.argmin(d))
            return f"panels {i} and {j} are {d.min():.6g} m apart; panel extent is {limit:.6g} m"
    return None


def numpy_corners(aperture_x, aperture_y, n_panels, min_spacing):
    hx, hy = aperture_x / 2.0, aperture_y / 2.0
    corners = np.array([[-hx, -hy, 0.0], [hx, -hy, 0.0], [-hx, hy, 0.0], [hx, hy, 0.0]])
    taken = corners[: min(n_panels, 4)]
    for i in range(len(taken)):
        d = np.linalg.norm(taken[i + 1 :] - taken[i], axis=1)
        if len(d) and d.min() < min_spacing:
            return (
                f"aperture corners are only {d.min():.6g} m apart, below the "
                f"requested min spacing {min_spacing:.6g} m"
            )
    return None


def message(check, *args, error):
    try:
        check(*args)
    except error as exc:
        return str(exc)
    return None


FINITE = st.floats(-1.0e100, 1.0e100) | st.floats(-50.0, 50.0)
POINTS = st.tuples(FINITE, FINITE, FINITE)


@given(st.integers(1, 300), st.integers(1, 300), st.floats(5e-324, 1.7e308))
@example(2, 2, 1.5e308)  # the diagonal overflows to inf, as np.hypot's does
@example(2, 2, 1.0)
def test_extent_is_numpy_hypot(rows, cols, spacing):
    spec = PanelSpec(rows, cols, spacing)
    assert spec.extent == numpy_extent(spec)


def test_extent_is_numpy_hypot_on_many_draws():
    # math.hypot, which does not call libm's hypot, differs in about 0.15 %.
    rng = np.random.default_rng(5)
    rows, cols = rng.integers(1, 300, (2, 20000))
    spacing = 10.0 ** rng.uniform(-6.0, 3.0, 20000)
    got = [PanelSpec(int(r), int(c), float(s)).extent for r, c, s in zip(rows, cols, spacing)]
    assert np.array_equal(got, np.hypot((rows - 1) * spacing, (cols - 1) * spacing))


@settings(max_examples=300)
@given(POINTS, POINTS)
def test_distance_is_numpy_norm(a, b):
    want = np.linalg.norm(np.array([b]) - np.array(a), axis=1)[0]
    assert panels._distance(a, b) == want


@st.composite
def layouts(draw):
    """A panel spec and centres, often on a grid of power-of-two pitch,
    where distances tie exactly and can equal the extent exactly."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    spacing = draw(st.sampled_from([0.25, 0.5, 1.0]) | st.floats(1e-3, 10.0))
    grid = draw(st.booleans())
    coord = st.integers(-3, 3).map(float) if grid else st.floats(-20.0, 20.0)
    z = st.just(0.0) | coord
    centres = draw(st.lists(st.tuples(coord, coord, z), max_size=24))
    return PanelSpec(rows, cols, spacing), centres


@settings(max_examples=400)
@given(layouts())
@example((PanelSpec(1, 1, 1.0), [(0.0, 0.0, 0.0), (1e-200, 0.0, 0.0)]))  # d*d underflows
@example((PanelSpec(2, 1, 1.0), [(0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (1.0, 0.0, 0.0)]))
@example((PanelSpec(2, 2, 1.0), [(1.0, 1.0, 0.0), (0.0, 0.0, 0.0), (0.0, 2.0, 0.0)]))
def test_overlap_names_the_pair_the_numpy_loop_named(layout):
    spec, centres = layout
    want = numpy_overlap(spec, centres)
    assert message(check_panel_overlap, spec, centres, error=OverlappingPanels) == want
    if centres:
        array = np.asarray(centres, dtype=np.float64)
        assert message(check_panel_overlap, spec, array, error=OverlappingPanels) == want


@settings(max_examples=300)
@given(
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
    st.integers(1, 6),
    st.sampled_from(["x", "y", "drawn"]),
    st.floats(0.0, 2e3),
)
def test_corner_spacing_refuses_as_the_numpy_loop_did(ax, ay, n_panels, which, drawn):
    # Spacings equal to a corner distance sit exactly on the bound.
    min_spacing = {"x": ax, "y": ay, "drawn": drawn}[which]
    args = (ax, ay, n_panels, min_spacing)
    want = numpy_corners(*args)
    assert message(check_corner_spacing, *args, error=PlacementInfeasible) == want


def test_geometry_reexports_the_one_copy_of_each_check():
    for name in (
        "OverlappingPanels",
        "PanelSpec",
        "PlacementInfeasible",
        "check_corner_spacing",
        "check_packing",
        "check_panel_overlap",
    ):
        assert getattr(geometry, name) is getattr(panels, name)


def test_make_distributed_panels_still_refuses_overlap():
    with pytest.raises(OverlappingPanels, match="panels 0 and 2 are 0.01 m apart"):
        geometry.make_distributed_panels(
            PanelSpec(2, 2, 0.01), [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.01, 0.0, 0.0]]
        )
