"""Steering directions and the placement search's scan definition without
numpy, so that checking a scenario loads no numerics. :mod:`nearlink.placement`
and :mod:`nearlink.beamforming` re-export these names."""

import math

from .record import Record


class Direction(Record):
    """Far-field steering target: polar angle ``theta``, azimuth ``phi``."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("angles must be finite")

    @property
    def unit(self):
        # Only the numerics ask for the vector, so numpy is loaded by now.
        from .kernel import unit_vectors
        return unit_vectors(self.theta, self.phi)


def default_exclusion_halfwidth(aperture: float, wavelength: float) -> float:
    """Twice the null-to-null halfwidth of the filled-aperture main lobe."""
    if aperture <= 0.0 or wavelength <= 0.0:
        raise ValueError("aperture and wavelength must be positive")
    return 2.0 * wavelength / aperture


def support_width(aperture_x: float, aperture_y: float, phi: float) -> float:
    """Width of an ``aperture_x`` by ``aperture_y`` rectangle along azimuth
    ``phi``. ``math.cos`` and ``math.sin`` round as ``np.cos`` and ``np.sin``
    do on float64 scalars."""
    return aperture_x * abs(math.cos(phi)) + aperture_y * abs(math.sin(phi))


class PlacementObjective(Record):
    """Scan definition for scoring a placement's sidelobes.

    The placement factor is scanned over polar angles ``scan_range`` through
    the steering azimuth; samples within ``exclusion_halfwidth`` of the
    steering angle belong to the main lobe and are ignored.
    """

    steering: Direction
    exclusion_halfwidth: float
    scan_range: tuple
    n_scan: int

    def __post_init__(self):
        lo, hi = self.scan_range
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
            raise ValueError("scan_range must be an increasing (lo, hi) pair")
        if not lo <= self.steering.theta <= hi:
            raise ValueError("steering angle must lie inside the scan range")
        if self.exclusion_halfwidth <= 0.0:
            raise ValueError("exclusion halfwidth must be positive")
        if self.exclusion_halfwidth >= (hi - lo) / 2.0:
            raise ValueError("exclusion zone swallows the whole scan range")
        if self.n_scan < 100:
            raise ValueError("n_scan must be at least 100")
        object.__setattr__(self, "scan_range", (float(lo), float(hi)))
