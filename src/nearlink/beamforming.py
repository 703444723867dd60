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
the one it ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .fileio import atomic_write_text, fmt
from .geometry import ElementLayout
from . import kernel
from .kernel import EXACT_KERNEL, BeamKernel, wavenumber
from .objective import Direction

GAIN_FLOOR_DB = -200.0

# ===== focal targets =====


@dataclass(frozen=True, eq=False)
class Point:
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


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Per-element phase-only weights plus the focal they were matched to."""

    weights: np.ndarray
    focal: Focal

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.complex128))
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        worst = float(np.abs(np.abs(w) - 1.0).max())
        if worst > 1e-9:
            raise ValueError(f"weights must be unit modulus (off by {worst:.3g})")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class DishSpec:
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
    if isinstance(focal, Point):
        return np.sqrt(kernel.squared_distances(positions, focal.position[None]))[:, 0]
    raise TypeError("focal must be a Direction or a Point")


def delay_and_sum_weights(
    layout: ElementLayout, focal: Focal, wavelength: float
) -> WeightVector:
    """Matched phase weights ``w_i = exp(+j 2 pi d_i / lambda)``.

    ``d_i`` is the effective path length of element i toward the focal, so the
    weighted response from the focal sums exactly in phase.
    """
    wavenumber(wavelength)  # checks the wavelength
    d = _residual_path(layout.positions, focal)
    return WeightVector(np.exp(2j * np.pi * (d / wavelength)), focal)


def response_sum(layout: ElementLayout, weights, where, wavelength: float):
    """Coherent sum ``sum_i w_i exp(-j 2 pi d_i(eval) / lambda)``.

    ``where`` is a Direction, a Point, or a homogeneous list of either;
    returns a complex scalar for a single target, else a complex array. The
    target axis is processed in blocks so arbitrarily large layouts sweep in
    bounded memory.
    """
    wavenumber(wavelength)  # checks the wavelength
    w = _weights_of(layout, weights)
    single = isinstance(where, (Direction, Point))
    targets = [where] if single else list(where)
    if not targets:
        raise ValueError("need at least one evaluation target")
    if all(isinstance(t, Direction) for t in targets):
        theta = np.fromiter((t.theta for t in targets), np.float64, len(targets))
        phi = np.fromiter((t.phi for t in targets), np.float64, len(targets))
        total, _ = kernel.sums(layout, w, kernel.unit_vectors(theta, phi), True, wavelength)
    elif all(isinstance(t, Point) for t in targets):
        points = np.stack([t.position for t in targets])
        total, _ = kernel.sums(layout, w, points, False, wavelength)
    else:
        raise TypeError("evaluation targets must be all Directions or all Points")
    return complex(total[0]) if single else total


def _weights_of(layout: ElementLayout, weights) -> np.ndarray:
    w = weights.weights if isinstance(weights, WeightVector) else np.asarray(weights)
    if w.shape != (layout.n_elements,):
        raise ValueError("weights do not match the layout")
    return w


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


@dataclass(frozen=True, eq=False)
class GainGrid:
    """Gain samples over a theta and/or range grid.

    ``gain_dbi`` has shape (len(theta), len(ranges)); single-axis sweeps carry
    a one-element second axis. ``kernel`` names the evaluator that computed
    the samples and its error bound.
    """

    theta: np.ndarray
    ranges: np.ndarray
    gain_dbi: np.ndarray
    phi: float
    steering: Focal
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
    layout: ElementLayout,
    weights,
    wavelength: float,
    thetas=None,
    ranges=None,
    fixed_range: float | None = None,
    fixed_theta: float = 0.0,
    phi: float = 0.0,
) -> GainGrid:
    """Evaluate gain over angles, ranges, or their Cartesian product.

    Every sample is a near-field Point evaluation at ``r * unit(theta, phi)``:
    a theta sweep needs ``fixed_range``, a range sweep uses ``fixed_theta``,
    and giving both axes produces the full 2-d map (theta outer, range inner).
    """
    if thetas is None and ranges is None:
        raise ValueError("need a theta axis, a range axis, or both")
    if thetas is None:
        thetas = np.array([fixed_theta])
    else:
        thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    if ranges is None:
        if fixed_range is None:
            raise ValueError("a pure theta sweep needs fixed_range")
        ranges = np.array([fixed_range])
    else:
        ranges = np.atleast_1d(np.asarray(ranges, dtype=np.float64))
    if (ranges <= 0.0).any():
        raise ValueError("evaluation ranges must be positive")

    units = kernel.unit_vectors(thetas, phi)
    pts = (units[:, None, :] * ranges[None, :, None]).reshape(-1, 3)
    w = _weights_of(layout, weights)
    totals, used = kernel.sums(layout, w, pts, False, wavelength)
    gain = _to_gain_dbi(totals, layout.n_elements, layout.element_gain_dbi)
    steering = weights.focal if isinstance(weights, WeightVector) else Direction(0.0)
    return GainGrid(
        theta=thetas,
        ranges=ranges,
        gain_dbi=gain.reshape(len(thetas), len(ranges)),
        phi=phi,
        steering=steering,
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


def _describe_focal(focal: Focal) -> str:
    if isinstance(focal, Direction):
        return f"direction theta_rad={fmt(float(focal.theta))} phi_rad={fmt(float(focal.phi))}"
    p = focal.position
    return f"point x_m={fmt(float(p[0]))} y_m={fmt(float(p[1]))} z_m={fmt(float(p[2]))}"


def write_gain_csv(grid: GainGrid, path, metadata=None) -> None:
    """Write a sweep as ``theta_rad,range_m,gain_dbi`` rows.

    Leading ``#`` lines carry the wavelength, steering descriptor, azimuth,
    and any extra metadata items, so a grid file is self-describing.
    """
    lines = [
        f"# wavelength_m {fmt(float(grid.wavelength))}",
        f"# steering {_describe_focal(grid.steering)}",
        f"# phi_rad {fmt(float(grid.phi))}",
    ]
    for key, value in (metadata or {}).items():
        lines.append(f"# {key} {fmt(value)}")
    lines.append("theta_rad,range_m,gain_dbi")
    # repr of a Python float is what fmt writes for it.
    ranges = [repr(rm) for rm in grid.ranges.tolist()]
    for th, gains in zip(grid.theta.tolist(), grid.gain_dbi.tolist()):
        th = repr(th)
        lines.extend(f"{th},{rm},{g!r}" for rm, g in zip(ranges, gains))
    atomic_write_text(path, "\n".join(lines) + "\n")
