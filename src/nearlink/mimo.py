"""Singular-value structure of line-of-sight MIMO links.

For a 2x2 link with unit-modulus entries ``exp(j theta_k)`` the two singular
values depend on the phases only through the spread

    Delta = (theta_0 + theta_3) - (theta_1 + theta_2)

and come out in closed form as sqrt(2 +- 2 |cos(Delta/2)|). Combined with the
small-angle spread Delta = 2 pi d_tx d_rx / (lambda r) this turns spatial
multiplexing feasibility into simple range boundaries: the ratio of the two
singular values rises from 0 to 1 as r grows from d_tx d_rx / lambda to
2 d_tx d_rx / lambda, and falls back toward 0 beyond that, crossing a
threshold tau at r_min and r_max.

Arbitrary layouts are handled numerically: the spectrum is LAPACK's SVD of
the channel matrix itself. Forming a Gram matrix instead would square the
condition number and lose the small singular values of a far-field link,
which are the ones that decide the stream count. When one side of a link is a
layout of identical panels, :func:`link_spectrum` builds the matrix with the
panel-factorized kernel of :mod:`nearlink.beamforming`, under the same
run-time error gate as the beam sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .beamforming import EXACT_KERNEL, BeamKernel, _factorized_channel, _factorized_plan
from .channel import ChannelMatrix, ChannelModel, channel_matrix
from .fileio import atomic_write_text, fmt
from .geometry import ElementLayout, PanelSpec


class ConvergenceFailure(RuntimeError):
    """LAPACK's SVD did not converge."""


class DegenerateSpectrum(ValueError):
    """All singular values are zero; ratios and counts are undefined."""


class MimoRegion(Enum):
    """Behavior of the 2x2 singular-value ratio as range grows.

    OSCILLATORY: r below d_tx d_rx / lambda; the phase spread exceeds a full
    turn and the ratio swings rapidly between 0 and 1.
    RISING: ratio climbs monotonically to 1, reached at 2 d_tx d_rx / lambda.
    FALLING: ratio decays monotonically toward 0 as curvature vanishes.
    """

    OSCILLATORY = "oscillatory"
    RISING = "rising"
    FALLING = "falling"


@dataclass(frozen=True, eq=False)
class SingularSpectrum:
    """Singular values in descending order plus the matrix shape they came from."""

    values: np.ndarray
    source_shape: tuple

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if v.ndim != 1 or v.size == 0:
            raise ValueError("values must be a nonempty 1-d array")
        if not np.all(np.isfinite(v)) or (v < 0.0).any():
            raise ValueError("singular values must be finite and non-negative")
        if (np.diff(v) > 0.0).any():
            raise ValueError("values must be sorted in descending order")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "source_shape", tuple(self.source_shape))


def _sigma_pair(delta) -> tuple:
    # sqrt(2 + 2|cos(Delta/2)|) and sqrt(2 - 2|cos(Delta/2)|), evaluated via
    # the half-angle forms 2|cos(Delta/4)| and 2|sin(Delta/4)| which avoid the
    # catastrophic cancellation of the subtractive form near Delta ~ 0.
    delta = np.asarray(delta, dtype=np.float64)
    a = 2.0 * np.abs(np.cos(delta / 4.0))
    b = 2.0 * np.abs(np.sin(delta / 4.0))
    return np.maximum(a, b), np.minimum(a, b)


def svd_closed_form_2x2(
    theta0: float, theta1: float, theta2: float, theta3: float
) -> tuple:
    """Singular values of ``[[e^{j t0}, e^{j t1}], [e^{j t2}, e^{j t3}]]``.

    Returns ``(sigma_max, sigma_min)``; they satisfy sigma_max^2 + sigma_min^2 = 4
    and sigma_max * sigma_min = 2 |sin(Delta/2)| with
    Delta = (t0 + t3) - (t1 + t2).
    """
    for t in (theta0, theta1, theta2, theta3):
        if not np.isfinite(t):
            raise ValueError("phases must be finite")
    delta = (theta0 + theta3) - (theta1 + theta2)
    hi, lo = _sigma_pair(delta)
    return float(hi), float(lo)


def singular_values(channel) -> SingularSpectrum:
    """Full singular spectrum of a channel matrix, from LAPACK's SVD.

    Accepts a :class:`ChannelMatrix` or any 2-d complex array.

    Raises
    ------
    ConvergenceFailure
        If LAPACK's SVD does not converge.
    """
    h = channel.entries if isinstance(channel, ChannelMatrix) else channel
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.size == 0:
        raise ValueError("channel must be a nonempty 2-d array")
    if not np.all(np.isfinite(h)):
        raise ValueError("channel entries must be finite")
    try:
        values = np.linalg.svd(h, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(
            f"LAPACK SVD did not converge on a {h.shape[0]}x{h.shape[1]} matrix"
        ) from exc
    return SingularSpectrum(values, h.shape)


def link_spectrum(
    tx: ElementLayout, rx: ElementLayout, wavelength: float
) -> tuple:
    """Singular spectrum of the phase-only tx -> rx channel, and the kernel
    that built the matrix.

    Returns ``(SingularSpectrum, BeamKernel)``. When one side is a layout of
    identical panel grids and the other side's elements, as point targets,
    keep the panel-factorized bound within the exact kernel's own phase
    rounding, the matrix comes from the factorized kernel with each column
    multiplied by a unit-modulus constant, which leaves the singular values
    unchanged. Otherwise the result is exactly
    ``singular_values(channel_matrix(tx, rx, wavelength))``.
    """
    if wavelength <= 0.0 or not np.isfinite(wavelength):
        raise ValueError("wavelength must be positive and finite")
    for panels, points in ((rx, tx), (tx, rx)):
        plan = _factorized_plan(panels, points.positions, False, wavelength)
        if plan is not None and plan.bound_rad <= plan.floor_rad:
            h = _factorized_channel(plan, points.positions, wavelength)
            spectrum = singular_values(h if panels is rx else h.T)
            return spectrum, BeamKernel("panel_factorized", plan.bound_rad)
    h = channel_matrix(tx, rx, wavelength, ChannelModel.PHASE_ONLY)
    return singular_values(h), EXACT_KERNEL


def condition_ratio(spectrum: SingularSpectrum) -> float:
    """Smallest over largest singular value.

    Raises
    ------
    DegenerateSpectrum
        If the largest singular value is zero.
    """
    smax = float(spectrum.values[0])
    if smax == 0.0:
        raise DegenerateSpectrum("all singular values are zero")
    return float(spectrum.values[-1]) / smax


def dof_count(spectrum: SingularSpectrum, tau: float) -> int:
    """Number of usable spatial streams: singular values >= tau * sigma_max."""
    _check_tau(tau)
    smax = float(spectrum.values[0])
    if smax == 0.0:
        raise DegenerateSpectrum("all singular values are zero")
    return int(np.sum(spectrum.values >= tau * smax))


def r_min(d_tx: float, d_rx: float, wavelength: float, tau: float) -> float:
    """Shortest range with a stable ratio above ``tau``.

    Below this range the ratio has not yet risen through ``tau`` on its single
    monotone climb: r_min = pi / (2 arctan(1/tau)) * d_tx d_rx / lambda.
    """
    _check_boundary_args(d_tx, d_rx, wavelength)
    _check_tau(tau)
    return float(np.pi / (2.0 * np.arctan(1.0 / tau)) * d_tx * d_rx / wavelength)


def r_max(d_tx: float, d_rx: float, wavelength: float, tau: float) -> float:
    """Longest range before the decaying ratio falls through ``tau``:
    r_max = pi / (2 arctan(tau)) * d_tx d_rx / lambda.
    """
    _check_boundary_args(d_tx, d_rx, wavelength)
    _check_tau(tau)
    return float(np.pi / (2.0 * np.arctan(tau)) * d_tx * d_rx / wavelength)


def mimo_region(r: float, d_tx: float, d_rx: float, wavelength: float) -> MimoRegion:
    """Which behavior regime range ``r`` falls into for the given apertures."""
    _check_boundary_args(d_tx, d_rx, wavelength)
    if r <= 0.0 or not np.isfinite(r):
        raise ValueError("range must be positive and finite")
    knee = d_tx * d_rx / wavelength
    if r < knee:
        return MimoRegion.OSCILLATORY
    if r <= 2.0 * knee:
        return MimoRegion.RISING
    return MimoRegion.FALLING


def theory_ratio_curve(
    d_tx: float, d_rx: float, wavelength: float, ranges
) -> np.ndarray:
    """Closed-form singular-value ratio at each range in ``ranges``."""
    _check_boundary_args(d_tx, d_rx, wavelength)
    r = np.asarray(ranges, dtype=np.float64)
    if (r <= 0.0).any() or not np.all(np.isfinite(r)):
        raise ValueError("ranges must be positive and finite")
    delta = 2.0 * np.pi * d_tx * d_rx / (wavelength * r)
    hi, lo = _sigma_pair(delta)
    return lo / hi


def _pair_layout(separation: float, z: float) -> ElementLayout:
    spec = PanelSpec(rows=1, cols=1, spacing=1.0, element_gain_dbi=0.0)
    half = separation / 2.0
    positions = np.array([[-half, 0.0, z], [half, 0.0, z]])
    return ElementLayout(positions, np.array([0, 1]), spec)


def exact_ratio_curve(
    d_tx: float,
    d_rx: float,
    wavelength: float,
    ranges,
    model: ChannelModel = ChannelModel.PHASE_ONLY,
) -> np.ndarray:
    """Singular-value ratio of the exact 2x2 channel at each range.

    Geometry: both two-element baselines are perpendicular to the line of
    sight and parallel to each other, separated by the range. No small-angle
    approximation; this is the reference the closed-form curve is judged
    against.
    """
    _check_boundary_args(d_tx, d_rx, wavelength)
    r = np.asarray(ranges, dtype=np.float64)
    if r.ndim != 1:
        r = r.reshape(-1)
    if (r <= 0.0).any() or not np.all(np.isfinite(r)):
        raise ValueError("ranges must be positive and finite")
    tx = _pair_layout(d_tx, 0.0)
    out = np.empty(len(r))
    for k, rng_m in enumerate(r):
        rx = _pair_layout(d_rx, float(rng_m))
        h = channel_matrix(tx, rx, wavelength, model)
        out[k] = condition_ratio(singular_values(h))
    return out


def write_spectrum_csv(path, ranges, spectra, tau: float, metadata=None) -> None:
    """Write per-range spectra as ``r_meters,sigma_0..sigma_{k-1},ratio,dof``.

    ``spectra`` is a sequence of :class:`SingularSpectrum`, one per range, all
    of equal length. ``ratio`` is sigma_min / sigma_max and ``dof`` counts
    values at or above ``tau * sigma_max``.
    """
    _check_tau(tau)
    ranges = np.asarray(ranges, dtype=np.float64)
    spectra = list(spectra)
    if len(ranges) != len(spectra) or len(spectra) == 0:
        raise ValueError("need one spectrum per range")
    k = len(spectra[0].values)
    if any(len(s.values) != k for s in spectra):
        raise ValueError("spectra must all have the same length")

    lines = []
    for key, value in (metadata or {}).items():
        lines.append(f"# {key} {fmt(value)}")
    lines.append(f"# tau {fmt(float(tau))}")
    lines.append(
        "r_meters," + ",".join(f"sigma_{i}" for i in range(k)) + ",ratio,dof"
    )
    for rng_m, spec in zip(ranges, spectra):
        sig = ",".join(fmt(float(v)) for v in spec.values)
        lines.append(
            f"{fmt(float(rng_m))},{sig},{fmt(condition_ratio(spec))},{dof_count(spec, tau)}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def _check_tau(tau: float) -> None:
    if not (0.0 < tau < 1.0) or not np.isfinite(tau):
        raise ValueError("tau must lie strictly between 0 and 1")


def _check_boundary_args(d_tx: float, d_rx: float, wavelength: float) -> None:
    if d_tx <= 0.0 or d_rx <= 0.0:
        raise ValueError("element separations must be positive")
    if wavelength <= 0.0 or not np.isfinite(wavelength):
        raise ValueError("wavelength must be positive and finite")
