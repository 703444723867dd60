"""Delay-and-sum beamforming over arbitrary element layouts.

Weights are pure phase conjugates of the propagation delay to a focal target,
which is either a far-field direction (planar wavefront) or a specific point
in space (spherical wavefront, i.e. near-field focusing). Evaluated gain is
the coherently summed response normalized so that a perfectly matched array
reads 10 log10(N) above one element:

    gain_dbi = 10 log10(|sum_i w_i a_i|^2 / N) + element_gain_dbi

Angles are polar angle theta from the +z boresight and azimuth phi in the x-y
plane, radians. Exact nulls are clamped at -200 dB on the array factor.

The coherent sums come from :func:`nearlink.kernel.sums`, which decides
between the exact and panel-factorized kernels and states the error bound of
the one it ran. A :class:`WeightVector` is the beam itself: the layout, focal
and wavelength it is matched to, with its weight array formed on first read.
A sum at points on that same layout at that wavelength hands a Point focal
to the kernel, whose focused sums never read the array. Weight arrays, beams
summed on another layout or at another wavelength, Direction targets or
focals, and foci the kernel's gate refuses take the exact kernel, which
forms the array.
"""

from __future__ import annotations

from functools import cached_property
from typing import Union

import numpy as np

from .fileio import atomic_write_text, fmt
from .geometry import ElementLayout
from . import kernel
from .kernel import EXACT_KERNEL, BeamKernel, wavenumber
from .objective import Direction
from .record import Record

GAIN_FLOOR_DB = -200.0

# ===== focal targets =====


class Point(Record, eq=False):
    """Near-field focal target at an absolute position in meters."""

    position: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.position, dtype=np.float64).reshape(3).copy()
        if not np.all(np.isfinite(p)):
            raise ValueError("position must be finite")
        p.setflags(write=False)
        object.__setattr__(self, "position", p)


Focal = Union[Direction, Point]


def point_at(range_m: float, theta: float, phi: float = 0.0) -> Point:
    """Point at distance ``range_m`` from the origin along (theta, phi)."""
    if range_m <= 0.0 or not np.isfinite(range_m):
        raise ValueError("range must be positive and finite")
    return Point(range_m * Direction(theta, phi).unit)


class WeightVector(Record, eq=False):
    """The delay-and-sum beam of ``layout`` toward ``focal`` at ``wavelength``:
    weights ``w_i = exp(+j 2 pi d_i / lambda)``, with ``d_i`` the effective
    path of element i toward the focal, so the response from the focal sums
    exactly in phase."""

    layout: ElementLayout
    focal: Focal
    wavelength: float

    def __post_init__(self):
        wavenumber(self.wavelength)  # checks the wavelength
        if not isinstance(self.focal, (Direction, Point)):
            raise TypeError("focal must be a Direction or a Point")

    @cached_property
    def weights(self) -> np.ndarray:
        """The read-only weight array, formed and checked on first read."""
        d = _residual_path(self.layout.positions, self.focal)
        w = np.exp(2j * np.pi * (d / self.wavelength))
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        w.setflags(write=False)
        return w

    def __array__(self, dtype=None, copy=None):
        return np.array(self.weights, dtype=dtype, copy=copy)


class DishSpec(Record):
    """Parabolic dish: diameter in meters, aperture efficiency in (0, 1]."""

    diameter: float
    efficiency: float

    def __post_init__(self):
        if self.diameter <= 0.0 or not np.isfinite(self.diameter):
            raise ValueError("diameter must be positive and finite")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in (0, 1]")


# Ka-band feeder-dish reference points used for gain comparisons. The
# efficiencies are back-solved from the dishes' rated gains at 28 GHz
# (49.5 dBi and 52.6 dBi respectively), not quoted from datasheets.
REFERENCE_DISH_SMALL = DishSpec(diameter=1.47, efficiency=0.48)
REFERENCE_DISH_LARGE = DishSpec(diameter=1.85, efficiency=0.62)


# ===== weights and evaluation =====


def _residual_path(positions: np.ndarray, focal: Focal) -> np.ndarray:
    # Per-element effective path length whose conjugate phase aligns the
    # array at the focal: exact distance for a Point, minus the projection on
    # the steering unit vector for a Direction (the r -> infinity limit of the
    # Point case up to a common constant).
    if isinstance(focal, Direction):
        return -(positions @ focal.unit)
    return np.sqrt(kernel.squared_distances(positions, focal.position[None]))[:, 0]


def delay_and_sum_weights(
    layout: ElementLayout, focal: Focal, wavelength: float
) -> WeightVector:
    """The delay-and-sum beam of ``layout`` toward ``focal`` (see
    :class:`WeightVector`); its weights are formed where a kernel reads them."""
    return WeightVector(layout, focal, wavelength)


def response_sum(layout: ElementLayout, weights, where, wavelength: float):
    """Coherent sum ``sum_i w_i exp(-j 2 pi d_i(eval) / lambda)``.

    ``where`` is a Direction, a Point, or a homogeneous list of either;
    returns a complex scalar for a single target, else a complex array. The
    target axis is processed in blocks so arbitrarily large layouts sweep in
    bounded memory.
    """
    wavenumber(wavelength)  # checks the wavelength
    focus = _focus_of(weights, layout, wavelength)
    single = isinstance(where, (Direction, Point))
    targets = [where] if single else list(where)
    if not targets:
        raise ValueError("need at least one evaluation target")
    if all(isinstance(t, Direction) for t in targets):
        theta = np.fromiter((t.theta for t in targets), np.float64, len(targets))
        phi = np.fromiter((t.phi for t in targets), np.float64, len(targets))
        units = kernel.unit_vectors(theta, phi)
        total, _ = kernel.sums(layout, weights, units, True, wavelength, focus)
    elif all(isinstance(t, Point) for t in targets):
        points = np.stack([t.position for t in targets])
        total, _ = kernel.sums(layout, weights, points, False, wavelength, focus)
    else:
        raise TypeError("evaluation targets must be all Directions or all Points")
    return complex(total[0]) if single else total


def _focus_of(weights, layout: ElementLayout, wavelength: float):
    # The focus kernel.sums takes: the Point the weights are the beam toward
    # on this layout at this wavelength; else None.
    if not isinstance(weights, WeightVector) or isinstance(weights.focal, Direction):
        return None
    if weights.layout is not layout or weights.wavelength != wavelength:
        return None
    return weights.focal.position


def _to_gain_dbi(total, n: int, element_gain_dbi: float):
    power = (np.abs(total) ** 2) / n
    db = 10.0 * np.log10(np.maximum(power, 10.0 ** (GAIN_FLOOR_DB / 10.0)))
    return np.maximum(db, GAIN_FLOOR_DB) + element_gain_dbi


def evaluate_gain(layout: ElementLayout, weights, where, wavelength: float) -> float:
    """Realized gain in dBi at one evaluation target.

    A matched array (weights focused on ``where``) reads
    ``10 log10(n_elements) + element_gain_dbi`` exactly.
    """
    total = response_sum(layout, weights, where, wavelength)
    return float(_to_gain_dbi(total, layout.n_elements, layout.element_gain_dbi))


# ===== sweeps =====


class GainGrid(Record, eq=False):
    """Gain samples over a (theta, range) grid in the phi = 0 plane, of shape
    (len(theta), len(ranges)); a cut has one value on its fixed axis.
    ``steering`` is the beam's focal, None for a bare weight array, and
    ``kernel`` the evaluator that computed the samples, with its error bound.
    """

    theta: np.ndarray
    ranges: np.ndarray
    gain_dbi: np.ndarray
    steering: Focal | None
    wavelength: float
    kernel: BeamKernel = EXACT_KERNEL

    def __post_init__(self):
        th = np.atleast_1d(np.asarray(self.theta, dtype=np.float64))
        rr = np.atleast_1d(np.asarray(self.ranges, dtype=np.float64))
        g = np.asarray(self.gain_dbi, dtype=np.float64)
        if g.shape != (len(th), len(rr)):
            raise ValueError("gain grid shape must be (len(theta), len(ranges))")
        for arr in (th, rr, g):
            arr.setflags(write=False)
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "ranges", rr)
        object.__setattr__(self, "gain_dbi", g)

    @property
    def peak_gain_dbi(self) -> float:
        return float(self.gain_dbi.max())


def gain_pattern_sweep(
    layout: ElementLayout, weights, wavelength: float, thetas, ranges
) -> GainGrid:
    """Evaluate gain over the Cartesian product of ``thetas`` and ``ranges``
    (theta outer, range inner), each sample a near-field Point evaluation at
    ``r * unit(theta, 0)``. A cut passes its fixed axis as one value.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    ranges = np.atleast_1d(np.asarray(ranges, dtype=np.float64))
    if not (np.isfinite(thetas).all() and np.isfinite(ranges).all()):
        raise ValueError("evaluation angles and ranges must be finite")
    if (ranges <= 0.0).any():
        raise ValueError("evaluation ranges must be positive")

    units = kernel.unit_vectors(thetas, 0.0)
    pts = (units[:, None, :] * ranges[None, :, None]).reshape(-1, 3)
    focus = _focus_of(weights, layout, wavelength)
    totals, used = kernel.sums(layout, weights, pts, False, wavelength, focus)
    gain = _to_gain_dbi(totals, layout.n_elements, layout.element_gain_dbi)
    return GainGrid(
        theta=thetas,
        ranges=ranges,
        gain_dbi=gain.reshape(len(thetas), len(ranges)),
        steering=weights.focal if isinstance(weights, WeightVector) else None,
        wavelength=wavelength,
        kernel=used,
    )


# ===== reference formulas =====


def dish_gain(dish: DishSpec, wavelength: float) -> float:
    """Parabolic-dish gain ``10 log10((pi D / lambda)^2 e_A)`` in dBi."""
    wavenumber(wavelength)  # checks the wavelength
    return float(
        10.0 * np.log10((np.pi * dish.diameter / wavelength) ** 2 * dish.efficiency)
    )


# ===== export =====


def _describe_focal(focal: Focal | None) -> str:
    if focal is None:
        return "none"
    if isinstance(focal, Direction):
        return f"direction theta_rad={fmt(float(focal.theta))} phi_rad={fmt(float(focal.phi))}"
    p = focal.position
    return f"point x_m={fmt(float(p[0]))} y_m={fmt(float(p[1]))} z_m={fmt(float(p[2]))}"


def write_gain_csv(grid: GainGrid, path, metadata=None) -> None:
    """Write a sweep as ``theta_rad,range_m,gain_dbi`` rows.

    Leading ``#`` lines carry the wavelength, the steering focal (``none`` for
    a bare weight array), phi = 0 and any metadata, so a file stands alone.
    """
    lines = [
        f"# wavelength_m {fmt(float(grid.wavelength))}",
        f"# steering {_describe_focal(grid.steering)}",
        "# phi_rad 0.0",
    ]
    for key, value in (metadata or {}).items():
        lines.append(f"# {key} {fmt(value)}")
    lines.append("theta_rad,range_m,gain_dbi")
    # repr of a Python float is what fmt writes for it.
    ranges = [repr(rm) for rm in grid.ranges.tolist()]
    for th, gains in zip(grid.theta.tolist(), grid.gain_dbi.tolist()):
        th = repr(th)
        lines.extend(f"{th},{rm},{g!r}" for rm, g in zip(ranges, gains))
    atomic_write_text(path, lines)
