"""The numpy-free placement objective against the numpy checks and formula it
replaced, bit for bit: the same default exclusion halfwidth, and the same
refusals with the same messages on both sides of each bound."""

import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nearlink
from nearlink import beamforming, kernel, placement
from nearlink.objective import Direction, PlacementObjective, default_exclusion_halfwidth
from nearlink.record import replace
from nearlink.schema import _placement_objective, load_scenario

SCENARIO = os.path.join(os.path.dirname(__file__), "..", "scenarios", "placement_search.scenario")
PLACEMENT = load_scenario(SCENARIO).analysis


def numpy_refusal(theta, phi, excl, lo, hi, n_scan):
    """The checks of ``Direction`` and ``PlacementObjective`` on numpy: the
    message of the first that fails, or None."""
    if not (np.isfinite(theta) and np.isfinite(phi)):
        return "angles must be finite"
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo >= hi:
        return "scan_range must be an increasing (lo, hi) pair"
    if not lo <= theta <= hi:
        return "steering angle must lie inside the scan range"
    if excl <= 0.0:
        return "exclusion halfwidth must be positive"
    if excl >= (hi - lo) / 2.0:
        return "exclusion zone swallows the whole scan range"
    if n_scan < 100:
        return "n_scan must be at least 100"
    return None


def refusal(theta, phi, excl, lo, hi, n_scan):
    try:
        PlacementObjective(Direction(theta, phi), excl, (lo, hi), n_scan)
    except ValueError as exc:
        return str(exc)
    return None


def test_the_package_and_both_numerics_modules_export_the_one_objective():
    assert beamforming.Direction is placement.Direction is nearlink.Direction is Direction
    assert placement.PlacementObjective is nearlink.PlacementObjective is PlacementObjective
    assert placement.default_exclusion_halfwidth is default_exclusion_halfwidth
    assert np.array_equal(Direction(0.3, 1.1).unit, kernel.unit_vectors(0.3, 1.1))


@settings(max_examples=300, deadline=None)
@given(
    ax=st.floats(1e-3, 1e7),
    ay=st.floats(1e-3, 1e7),
    phi=st.floats(allow_nan=False, allow_infinity=False),
    lam=st.floats(1e-6, 1e3),
)
@example(ax=1414.0, ay=1000.0, phi=PLACEMENT.steer_phi_rad, lam=299792458.0 / 28.0e9)
def test_default_exclusion_matches_the_numpy_formula(ax, ay, phi, lam):
    ana = replace(
        PLACEMENT, aperture_x_m=ax, aperture_y_m=ay, steer_phi_rad=phi, scan_halfwidth_rad=1e10
    )
    expected = 2.0 * lam / (ax * abs(np.cos(phi)) + ay * abs(np.sin(phi)))
    assert _placement_objective(ana, lam).exclusion_halfwidth == float(expected)


LO, HI = -0.1, 0.1
TIE = (HI - LO) / 2.0
OUTSIDE = "steering angle must lie inside the scan range"
BOUNDS = [
    # The exclusion zone ties with half the scan range, and just misses it.
    ((0.0, 0.0, TIE, LO, HI, 100), "exclusion zone swallows the whole scan range"),
    ((0.0, 0.0, math.nextafter(TIE, 0.0), LO, HI, 100), None),
    ((0.0, 0.0, 1e-4, LO, HI, 99), "n_scan must be at least 100"),
    ((0.0, 0.0, 1e-4, LO, HI, 100), None),
    # Steering at either end of the scan range, and one step past it.
    ((LO, 0.0, 1e-4, LO, HI, 100), None),
    ((HI, 0.0, 1e-4, LO, HI, 100), None),
    ((math.nextafter(LO, -1.0), 0.0, 1e-4, LO, HI, 100), OUTSIDE),
    ((math.nextafter(HI, 1.0), 0.0, 1e-4, LO, HI, 100), OUTSIDE),
    ((0.0, 0.0, 0.0, LO, HI, 100), "exclusion halfwidth must be positive"),
    ((0.0, 0.0, 5e-324, LO, HI, 100), None),
    ((0.0, 0.0, 1e-4, HI, LO, 100), "scan_range must be an increasing (lo, hi) pair"),
    ((0.0, 0.0, 1e-4, LO, math.inf, 100), "scan_range must be an increasing (lo, hi) pair"),
    ((0.0, 0.0, 1e-4, math.nan, HI, 100), "scan_range must be an increasing (lo, hi) pair"),
    ((0.0, 0.0, 1e-4, -1.7e308, 1.7e308, 100), None),
    # Non-finite angles, and the largest finite ones.
    ((math.nan, 0.0, 1e-4, LO, HI, 100), "angles must be finite"),
    ((0.0, math.inf, 1e-4, LO, HI, 100), "angles must be finite"),
    ((-math.inf, 0.0, 1e-4, LO, HI, 100), "angles must be finite"),
    ((0.0, -1.7e308, 1e-4, LO, HI, 100), None),
]


@pytest.mark.parametrize("args, expected", BOUNDS)
def test_each_refusal_on_both_sides_of_its_bound(args, expected):
    assert numpy_refusal(*args) == expected
    assert refusal(*args) == expected


ANGLES = st.floats() | st.sampled_from([LO, HI, math.nextafter(LO, -1.0), math.nextafter(HI, 1.0)])


@settings(max_examples=300, deadline=None)
@given(
    theta=ANGLES,
    phi=ANGLES,
    excl=st.floats() | st.sampled_from([TIE, math.nextafter(TIE, 0.0), 0.0]),
    lo=ANGLES,
    hi=ANGLES,
    n_scan=st.integers(95, 105),
)
def test_refusals_match_the_numpy_checks(theta, phi, excl, lo, hi, n_scan):
    assert refusal(theta, phi, excl, lo, hi, n_scan) == numpy_refusal(
        theta, phi, excl, lo, hi, n_scan
    )


def test_default_exclusion_refuses_a_zero_aperture_or_wavelength():
    for args in ((0.0, 0.01), (1414.0, 0.0), (-1.0, 0.01)):
        with pytest.raises(ValueError, match="^aperture and wavelength must be positive$"):
            default_exclusion_halfwidth(*args)
