"""Delay-and-sum beamforming over arbitrary element layouts.

Weights are pure phase conjugates of the propagation delay to a focal target,
which is either a far-field direction (planar wavefront) or a specific point
in space (spherical wavefront, i.e. near-field focusing). Evaluated gain is
the coherently summed response normalized so that a perfectly matched array
reads 10 log10(N) above one element:

    gain_dbi = 10 log10(|sum_i w_i a_i|^2 / N) + element_gain_dbi

Angles are polar angle theta from the +z boresight and azimuth phi in the x-y
plane, radians. Exact nulls are clamped at -200 dB on the array factor.

Two kernels evaluate the coherent sum. The exact one pays one distance and one
complex exponential per element and target. The panel-factorized one serves
layouts of identical panels (every UPA and every distributed layout): it keeps
the exact path to each panel centre and expands the path inside a panel to
second order (the Fresnel expansion), split into a row factor and a column
factor, so a panel costs one small matrix product per target. It runs only
when a rigorous bound on the terms it drops stays below the exact kernel's own
phase rounding; otherwise the exact kernel runs. The exact kernel is also the
oracle the factorized one is tested against. The same factors, expanded into
a matrix instead of summed, give the channel matrices of the MIMO sweeps
(:func:`nearlink.mimo.link_spectrum`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .fileio import atomic_write_text, fmt
from .geometry import _UNIT_ROUNDOFF, ElementLayout

GAIN_FLOOR_DB = -200.0

# Upper bound on entries of one phase block (eval samples x element chunk);
# keeps peak memory for a sweep near 100 MB.
_BLOCK_BUDGET = 4_000_000

# ===== focal targets =====


@dataclass(frozen=True)
class Direction:
    """Far-field steering target: polar angle ``theta``, azimuth ``phi``."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.theta) and np.isfinite(self.phi)):
            raise ValueError("angles must be finite")

    @property
    def unit(self) -> np.ndarray:
        return np.array(
            [
                np.sin(self.theta) * np.cos(self.phi),
                np.sin(self.theta) * np.sin(self.phi),
                np.cos(self.theta),
            ]
        )


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
        diff = positions - focal.position
        return np.sqrt((diff * diff).sum(axis=1))
    raise TypeError("focal must be a Direction or a Point")


def delay_and_sum_weights(
    layout: ElementLayout, focal: Focal, wavelength: float
) -> WeightVector:
    """Matched phase weights ``w_i = exp(+j 2 pi d_i / lambda)``.

    ``d_i`` is the effective path length of element i toward the focal, so the
    weighted response from the focal sums exactly in phase.
    """
    _check_wavelength(wavelength)
    d = _residual_path(layout.positions, focal)
    return WeightVector(np.exp(2j * np.pi * (d / wavelength)), focal)


def response_sum(layout: ElementLayout, weights, where, wavelength: float):
    """Coherent sum ``sum_i w_i exp(-j 2 pi d_i(eval) / lambda)``.

    ``where`` is a Direction, a Point, or a homogeneous list of either;
    returns a complex scalar for a single target, else a complex array. The
    target axis is processed in blocks so arbitrarily large layouts sweep in
    bounded memory.
    """
    _check_wavelength(wavelength)
    w = _weights_of(layout, weights)
    single = isinstance(where, (Direction, Point))
    targets = [where] if single else list(where)
    if not targets:
        raise ValueError("need at least one evaluation target")
    if all(isinstance(t, Direction) for t in targets):
        total, _ = _sums(layout, w, np.stack([t.unit for t in targets]), True, wavelength)
    elif all(isinstance(t, Point) for t in targets):
        total, _ = _sums(layout, w, np.stack([t.position for t in targets]), False, wavelength)
    else:
        raise TypeError("evaluation targets must be all Directions or all Points")
    return complex(total[0]) if single else total


def _weights_of(layout: ElementLayout, weights) -> np.ndarray:
    w = weights.weights if isinstance(weights, WeightVector) else np.asarray(weights)
    if w.shape != (layout.n_elements,):
        raise ValueError("weights do not match the layout")
    return w


@dataclass(frozen=True)
class BeamKernel:
    """The kernel that evaluated a response or built a channel matrix, and
    its per-element phase bound.

    ``name`` is ``"panel_factorized"`` or ``"exact"``. ``bound_rad`` bounds,
    at every element and target, the phase of the terms the kernel drops
    (zero for the exact kernel).
    """

    name: str
    bound_rad: float


EXACT_KERNEL = BeamKernel("exact", 0.0)


def _sums(layout, w, targets, directional, wavelength):
    # Response at each target (unit vectors if ``directional``, else points)
    # and the kernel that computed it: the factorized kernel when its bound
    # is within the exact kernel's rounding floor, else the exact kernel.
    plan = _factorized_plan(layout, targets, directional, wavelength)
    if plan is not None and plan.bound_rad <= plan.floor_rad:
        kernel = BeamKernel("panel_factorized", plan.bound_rad)
        return _factorized_sums(plan, w, targets, wavelength), kernel
    exact = _direction_sums if directional else _point_sums
    return exact(layout.positions, w, targets, wavelength), EXACT_KERNEL


def _direction_sums(positions, w, units, wavelength):
    out = np.zeros(len(units), dtype=np.complex128)
    step = max(1, int(_BLOCK_BUDGET // max(len(units), 1)))
    for start in range(0, len(positions), step):
        block = positions[start : start + step]
        phase = (units @ block.T) * (2.0 * np.pi / wavelength)
        out += np.exp(1j * phase) @ w[start : start + step]
    return out


def _point_sums(positions, w, pts, wavelength):
    out = np.zeros(len(pts), dtype=np.complex128)
    step = max(1, int(_BLOCK_BUDGET // max(len(pts), 1)))
    for start in range(0, len(positions), step):
        block = positions[start : start + step]
        d2 = np.subtract.outer(pts[:, 0], block[:, 0]) ** 2
        d2 += np.subtract.outer(pts[:, 1], block[:, 1]) ** 2
        d2 += np.subtract.outer(pts[:, 2], block[:, 2]) ** 2
        phase = np.sqrt(d2) * (-2.0 * np.pi / wavelength)
        out += np.exp(1j * phase) @ w[start : start + step]
    return out


# ----- panel-factorized kernel -----
#
# Element (row r, column c) of panel p sits at c_p + o with o = (x_c, y_r, 0).
# With R the path to the panel centre and u its unit vector, the path to the
# element is
#
#     d = R - x u_x - y u_y + x^2 (1 - u_x^2) / 2R + y^2 (1 - u_y^2) / 2R
#           - x y u_x u_y / R + remainder,
#
# so dropping the cross term and the remainder leaves a row factor times a
# column factor, and the response is
#
#     sum_p exp(-jkR_p) sum_r B_pr (A_p W_p^T)_r
#
# with A the column factors, B the row factors and W_p the panel's weights as
# a rows x cols matrix. A far-field Direction is the same with 1/R = 0 and
# R_p = -u . c_p, where nothing is dropped.


@dataclass(frozen=True, eq=False)
class _FactorizedPlan:
    centres: np.ndarray  # (panels, 3) panel centres
    x: np.ndarray  # (cols,) column offsets inside a panel
    y: np.ndarray  # (rows,) row offsets inside a panel
    directional: bool  # targets are unit vectors, not points
    step: int  # targets per block
    bound_rad: float  # dropped-term phase bound at any element and target
    floor_rad: float  # exact kernel's phase rounding at the nearest target


def _factorized_plan(layout, targets, directional, wavelength):
    """Panel geometry and error bound of the factorized kernel, or None.

    None means the layout is not one shared ``_grid_offsets`` grid repeated
    at each panel centre (for example 1x1 panels, or ids out of order), or a
    point target lies within a panel's reach of its centre. Positions that
    are off the grid by more than rounding stay eligible here: their offset
    enters the bound, and the gate refuses them.
    """
    spec = layout.panel_spec
    grid = layout._panel_grid if spec.n_elements > 1 else None
    if grid is None:
        return None
    centres, scale = grid.centres, grid.scale
    # |position - (centre + offset)|: the gap to the rebuilt grid, plus the
    # one rounding (at most 2**-53 of each coordinate) that rebuilding took.
    residual = grid.gap + _UNIT_ROUNDOFF * scale

    x = grid.offsets[: spec.cols, 0]
    y = grid.offsets[:: spec.cols, 1]
    # As many targets per block as the exact kernel's budget of element x
    # target entries allows, so peak memory stays below the exact kernel's.
    step = max(1, _BLOCK_BUDGET // layout.n_elements)
    if directional:
        # Nothing is dropped. The exact kernel rounds phases as large as the
        # largest element coordinate.
        bound, floor = residual, _UNIT_ROUNDOFF * scale
    else:
        half_x, half_y = float(np.abs(x).max()), float(np.abs(y).max())
        rho = float(np.hypot(half_x, half_y))
        nearest, skew = np.inf, 0.0
        for start in range(0, len(targets), step):
            v = targets[start : start + step] - centres[:, None, :]
            path = np.sqrt((v * v).sum(axis=-1))
            nearest = min(nearest, float(path.min()))
            if nearest <= rho:
                return None
            skew = max(skew, float((np.abs(v[..., 0] * v[..., 1]) / path**3).max()))
        # Cross term |x y u_x u_y| / R, plus the remainder of the second-order
        # expansion: with a = u . o and q = |o|^2 - a^2 <= rho^2, the exact
        # path sqrt((R - a)^2 + q) differs from R - a + q / 2R by at most
        # q |a| / 2R(R - a) + q^2 / 8(R - a)^3.
        near = nearest - rho
        tail = rho**3 / (2.0 * nearest * near) + rho**4 / (8.0 * near**3)
        bound = half_x * half_y * skew + tail + residual
        floor = _UNIT_ROUNDOFF * near
    k = 2.0 * np.pi / wavelength
    return _FactorizedPlan(centres, x, y, directional, step, k * bound, k * floor)


def _panel_paths(plan, targets):
    # Per (panel, target): the path to the panel centre (R, or -u . c for a
    # Direction), the in-plane components of its unit vector, and 1/R (zero
    # for a Direction).
    if plan.directional:
        path = -(plan.centres @ targets.T)
        ux = np.broadcast_to(targets[:, 0], path.shape)
        uy = np.broadcast_to(targets[:, 1], path.shape)
        return path, ux, uy, np.zeros(path.shape)
    v = targets - plan.centres[:, None, :]
    path = np.sqrt((v * v).sum(axis=-1))
    inv_r = 1.0 / path
    return path, v[..., 0] * inv_r, v[..., 1] * inv_r, inv_r


def _factorized_sums(plan, w, targets, wavelength):
    k = 2.0 * np.pi / wavelength
    rows, cols = len(plan.y), len(plan.x)
    w_t = w.reshape(len(plan.centres), rows, cols).transpose(0, 2, 1)
    out = np.empty(len(targets), dtype=np.complex128)
    for start in range(0, len(targets), plan.step):
        block = slice(start, start + plan.step)
        path, ux, uy, inv_r = _panel_paths(plan, targets[block])
        col = _axis_factor(plan.x, ux, inv_r, k)
        row = _axis_factor(plan.y, uy, inv_r, k)
        inner = np.einsum("ptr,ptr->pt", col @ w_t, row)
        out[block] = (np.exp(-1j * k * path) * inner).sum(axis=0)
    return out


def _factorized_channel(plan, targets, wavelength):
    # The factorized kernel expanded into a matrix instead of contracted with
    # weights: entry [n, a] couples element n (panels in order, each row-major)
    # to point target a as exp(-jk (R_pa - |t_a|)) B_pa[r] A_pa[c]. Taking
    # each target's path relative to its distance |t_a| from the origin scales
    # column a by exp(jk |t_a|), which leaves the singular values unchanged,
    # and keeps the phase rounding at the size of |c_p| instead of R_pa, where
    # it would be shared by every element of the panel. The difference is
    # formed without cancellation as (|c_p|^2 - 2 t_a . c_p) / (R_pa + |t_a|).
    k = 2.0 * np.pi / wavelength
    path, ux, uy, inv_r = _panel_paths(plan, targets)
    c = plan.centres
    t_norm = np.sqrt((targets * targets).sum(axis=-1))
    rel = ((c * c).sum(axis=-1)[:, None] - 2.0 * (c @ targets.T)) / (path + t_norm)
    col = _axis_factor(plan.x, ux.T, inv_r.T, k)
    row = np.exp(-1j * k * rel.T)[..., None] * _axis_factor(plan.y, uy.T, inv_r.T, k)
    # Built as (targets, elements) in C order and returned transposed: the
    # Fortran-ordered matrix goes to LAPACK without a copy.
    h = np.multiply(row[..., :, None], col[..., None, :], order="C")
    return h.reshape(len(targets), -1).T


def _axis_factor(offsets, u, inv_r, k):
    # exp(-jk (-o u + o^2 (1 - u^2) / 2R)) for every offset o along one panel
    # axis; shape (panels, targets, len(offsets)).
    u = u[..., None]
    curvature = (1.0 - u * u) * (0.5 * inv_r[..., None])
    return np.exp(-1j * k * (offsets * (offsets * curvature - u)))


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

    units = np.stack(
        [np.sin(thetas) * np.cos(phi), np.sin(thetas) * np.sin(phi), np.cos(thetas)],
        axis=1,
    )
    pts = (units[:, None, :] * ranges[None, :, None]).reshape(-1, 3)
    w = _weights_of(layout, weights)
    totals, kernel = _sums(layout, w, pts, False, wavelength)
    gain = _to_gain_dbi(totals, layout.n_elements, layout.element_gain_dbi)
    steering = weights.focal if isinstance(weights, WeightVector) else Direction(0.0)
    return GainGrid(
        theta=thetas,
        ranges=ranges,
        gain_dbi=gain.reshape(len(thetas), len(ranges)),
        phi=phi,
        steering=steering,
        wavelength=wavelength,
        kernel=kernel,
    )


# ===== reference formulas =====


def aggregate_gain_estimate(
    n_panels: int, panel_gain_dbi: float, phase_error_var: float = 0.0
) -> float:
    """Coherent combining estimate ``10 log10(N e^{-delta}) + panel_gain_dbi``.

    ``phase_error_var`` is the residual synchronization phase variance delta
    in rad^2; zero means ideal coherence.
    """
    if n_panels < 1:
        raise ValueError("need at least one panel")
    if phase_error_var < 0.0 or not np.isfinite(phase_error_var):
        raise ValueError("phase error variance must be non-negative and finite")
    return float(
        10.0 * np.log10(n_panels * np.exp(-phase_error_var)) + panel_gain_dbi
    )


def dish_gain(dish: DishSpec, wavelength: float) -> float:
    """Parabolic-dish gain ``10 log10((pi D / lambda)^2 e_A)`` in dBi."""
    _check_wavelength(wavelength)
    return float(
        10.0 * np.log10((np.pi * dish.diameter / wavelength) ** 2 * dish.efficiency)
    )


def offnadir_effective_gain(gain_dbi: float, theta_off: float) -> float:
    """Projected-aperture gain reduction ``gain + 10 log10(cos theta_off)``.

    Valid for ``theta_off`` in [0, pi/2]; the reduction term is clamped at
    the -200 dB floor as the projection collapses.
    """
    if not 0.0 <= theta_off <= np.pi / 2:
        raise ValueError("off-nadir angle must lie in [0, pi/2]")
    projected = max(float(np.cos(theta_off)), 0.0)
    if projected == 0.0:
        term = GAIN_FLOOR_DB
    else:
        term = max(10.0 * np.log10(projected), GAIN_FLOOR_DB)
    return gain_dbi + term


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
    for i, th in enumerate(grid.theta):
        for j, rm in enumerate(grid.ranges):
            lines.append(
                f"{fmt(float(th))},{fmt(float(rm))},{fmt(float(grid.gain_dbi[i, j]))}"
            )
    atomic_write_text(path, "\n".join(lines) + "\n")


def _check_wavelength(wavelength: float) -> None:
    if wavelength <= 0.0 or not np.isfinite(wavelength):
        raise ValueError("wavelength must be positive and finite")
