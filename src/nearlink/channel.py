"""Line-of-sight channel coefficients between element layouts.

The free-space coefficient between two elements a distance ``d`` apart is

    h = (lambda / sqrt(4 pi d^2)) * exp(-j 2 pi d / lambda)

and the phase-only variant keeps the same phase at unit modulus, which is the
normalization used for singular-value ratio analysis (ratios are invariant to
any common scaling, and path-loss differences across one link are negligible).

Distances at satellite ranges put ``d / lambda`` near 1e8, so phases are
computed in double precision straight from the geometric distance (the
distance block of :mod:`nearlink.kernel`) and wrapped only inside the complex
exponential; phase differences between elements, which are what the spectrum
depends on, stay accurate to well below a microradian.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fileio import atomic_write_text, fmt
from .geometry import ElementLayout
from .kernel import blocks, squared_distances, wavenumber


class ZeroDistance(ValueError):
    """A transmit and receive element coincide; the coefficient is undefined."""


class ChannelModel(Enum):
    FULL_AMPLITUDE = "full_amplitude"
    PHASE_ONLY = "phase_only"


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Complex channel between a transmit and a receive layout.

    ``entries[i, j]`` couples transmit element ``j`` to receive element ``i``.
    """

    entries: np.ndarray
    wavelength: float
    model: ChannelModel

    def __post_init__(self):
        h = np.ascontiguousarray(np.asarray(self.entries, dtype=np.complex128))
        if h.ndim != 2 or h.size == 0:
            raise ValueError("entries must be a nonempty 2-d complex array")
        if not np.all(np.isfinite(h)):
            raise ValueError("entries must be finite")
        wavenumber(self.wavelength)  # checks the wavelength
        if self.model is ChannelModel.PHASE_ONLY:
            worst = float(np.abs(np.abs(h) - 1.0).max())
            if worst > 1e-9:
                raise ValueError(
                    f"phase-only entries must have unit modulus (off by {worst:.3g})"
                )
        h.setflags(write=False)
        object.__setattr__(self, "entries", h)

    @property
    def shape(self) -> tuple:
        return self.entries.shape

    @property
    def n_rx(self) -> int:
        return self.entries.shape[0]

    @property
    def n_tx(self) -> int:
        return self.entries.shape[1]


def _coeff_from_distances(d: np.ndarray, wavelength: float, model: ChannelModel):
    # Shared core for scalar and matrix paths; d is validated nonzero upstream.
    phase = np.exp(-2j * np.pi * (d / wavelength))
    if model is ChannelModel.PHASE_ONLY:
        return phase
    return (wavelength / (np.sqrt(4.0 * np.pi) * d)) * phase


def channel_coeff(
    distance: float, wavelength: float, model: ChannelModel = ChannelModel.PHASE_ONLY
) -> complex:
    """Coefficient for a single path of length ``distance`` meters.

    Raises
    ------
    ZeroDistance
        If ``distance`` is exactly zero.
    ValueError
        For negative or non-finite distance, or non-positive wavelength.
    """
    wavenumber(wavelength)  # checks the wavelength
    if not np.isfinite(distance) or distance < 0.0:
        raise ValueError("distance must be non-negative and finite")
    if distance == 0.0:
        raise ZeroDistance("coincident elements: channel coefficient undefined")
    return complex(_coeff_from_distances(np.float64(distance), wavelength, model))


def channel_matrix(
    tx: ElementLayout,
    rx: ElementLayout,
    wavelength: float,
    model: ChannelModel = ChannelModel.PHASE_ONLY,
) -> ChannelMatrix:
    """Pairwise channel between every tx and rx element.

    Parameters
    ----------
    tx, rx : ElementLayout
        Transmit and receive geometries (absolute coordinates, meters).
    wavelength : float
        Carrier wavelength in meters.
    model : ChannelModel
        Full-amplitude or phase-only entries.

    Returns
    -------
    ChannelMatrix
        Shape ``(rx.n_elements, tx.n_elements)``.

    Raises
    ------
    ZeroDistance
        If any tx/rx element pair coincides exactly.
    """
    wavenumber(wavelength)  # checks the wavelength
    txp = tx.positions
    rxp = rx.positions
    out = np.empty((len(rxp), len(txp)), dtype=np.complex128)
    for rows in blocks(len(rxp), len(txp)):
        d = np.sqrt(squared_distances(rxp[rows], txp))
        if (d == 0.0).any():
            i, j = np.argwhere(d == 0.0)[0]
            raise ZeroDistance(
                f"rx element {rows.start + int(i)} coincides with tx element {int(j)}"
            )
        out[rows] = _coeff_from_distances(d, wavelength, model)
    return ChannelMatrix(out, wavelength, model)


def phase_spread_2x2(
    d_tx: float,
    d_rx: float,
    wavelength: float,
    r: float,
    tilt_tx: float = 0.0,
    tilt_rx: float = 0.0,
) -> float:
    """Small-angle phase spread of a 2x2 link with element separations
    ``d_tx`` and ``d_rx`` at range ``r``:

        Delta = 2 pi (d_tx cos tilt_tx) (d_rx cos tilt_rx) / (lambda r)

    Tilts are the angles between each two-element baseline and the plane
    perpendicular to the line of sight; a tilted baseline only contributes its
    projected length. The returned value is not wrapped.
    """
    if d_tx <= 0.0 or d_rx <= 0.0:
        raise ValueError("element separations must be positive")
    if wavelength <= 0.0 or r <= 0.0:
        raise ValueError("wavelength and range must be positive")
    for tilt in (tilt_tx, tilt_rx):
        if not -np.pi / 2 < tilt < np.pi / 2:
            raise ValueError("tilts must lie in (-pi/2, pi/2)")
    eff_tx = d_tx * np.cos(tilt_tx)
    eff_rx = d_rx * np.cos(tilt_rx)
    return float(2.0 * np.pi * eff_tx * eff_rx / (wavelength * r))


def write_channel_csv(matrix: ChannelMatrix, path) -> None:
    """Dump entries as ``i,j,re,im`` rows at full round-trip precision."""
    lines = ["i,j,re,im"]
    h = matrix.entries
    for i in range(h.shape[0]):
        for j in range(h.shape[1]):
            lines.append(f"{i},{j},{fmt(float(h[i, j].real))},{fmt(float(h[i, j].imag))}")
    atomic_write_text(path, "\n".join(lines) + "\n")
