"""Line-of-sight channel matrices between element layouts.

The coefficient between two elements a distance ``d`` apart is the phase-only
``exp(-j 2 pi d / lambda)``: the free-space coefficient at unit modulus,
which is the normalization used for singular-value ratio analysis (ratios are
invariant to any common scaling, and path-loss differences across one link
are negligible).

Distances at satellite ranges put ``d / lambda`` near 1e8, so phases are
computed in double precision straight from the geometric distance (the
distance block of :mod:`nearlink.kernel`) and wrapped only inside the complex
exponential; phase differences between elements, which are what the spectrum
depends on, stay accurate to well below a microradian.
"""

from __future__ import annotations

import numpy as np

from .geometry import ElementLayout
from .kernel import blocks, squared_distances, wavenumber


class ZeroDistance(ValueError):
    """A transmit and receive element coincide; the coefficient is undefined."""


def channel_matrix(tx: ElementLayout, rx: ElementLayout, wavelength: float) -> np.ndarray:
    """Phase-only channel between every tx and rx element.

    Returns a read-only complex128 array of shape ``(rx.n_elements,
    tx.n_elements)``; entry ``[i, j]`` couples transmit element ``j`` to
    receive element ``i``.

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
        out[rows] = np.exp(-2j * np.pi * (d / wavelength))
    out.setflags(write=False)
    return out
