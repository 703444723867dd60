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
layout of identical panels, :func:`link_spectra` takes the row and column
factors of the panel-factorized kernel of :mod:`nearlink.kernel`, under the
same run-time error gate (:func:`nearlink.kernel.gate`) as the beam sweeps,
and never forms the matrix.
Inside panel p the channel block is the column-wise Kronecker (Khatri-Rao)
product B_p (.) A_p of its row and column factors. With B_p = Q_b R_b and
A_p = Q_a R_a, the mixed-product rule gives B_p (.) A_p = (Q_b x Q_a)
(R_b (.) R_a), and Q_b x Q_a has orthonormal columns, so the channel has the
singular values of the panels' R_b (.) R_a stacked: P rb ra rows for S
targets instead of one per element, with rb = min(rows, S) and
ra = min(cols, S), or fewer after the cut described last.

R_b and R_a are upper triangular, so row (i, j) of R_b (.) R_a is zero left
of column max(i, j). A staircase of QRs reduces the stack one leading column
at a time: for m from max(rb, ra) - 1 down to 0, step m takes every panel's
rows with max(i, j) = m, from column m on, stacks the triangle left by the
steps before under them, shifted one column, and keeps the R of their QR. The
last triangle, at most S x S, has the channel's singular values: 16 x 16
instead of 4 096 x 16 for 16 panels of 32 x 32 and a 16-element satellite,
from 16 steps of at most 496 rows each. This is the tall-skinny QR reduction
(Demmel et al., SIAM J. Sci. Comput. 34, 2012) ordered by the blocks' zeros;
no Khatri-Rao block is formed whole. Blocks wider than they are tall
(rb ra < S) take the same steps.

:func:`link_spectra` runs many links, such as the ranges of a sweep, through
one pass. Links that pass the gate against the same panel layout share one
factor build, one batched QR per axis, one batched QR per staircase step and
one batched SVD, a block of links at a time. A block holds
L = max(1, (rows + cols) // S) links, so that its
L S targets number no more than a panel's rows + cols offsets, unless one
link alone has more: 4 links for 32 x 32 panels and S = 16, 16 for S = 4. Its
factors, P (rows + cols) L S entries, are then within P (rows + cols)**2
entries, or one link's. Besides them, a block holds at most one factor's copy
for its QR and the R factors, P (rb + ra) L S entries (no larger); then the R
factors and, during step m, a few arrays of at most L k_m (S - m) entries,
k_m being the step's rows: the new rows, the shifted triangle, their stack,
the copy QR takes and its R. For 16 panels of 32 x 32 and S = 16 those are
far smaller than the factors, and a block stays within three times its
factors.

Householder QR and LAPACK's SVD are backward stable: each returns the exact
result for an input within about 4 k n 2**-53 of the k x n one it was given,
in Frobenius norm (Higham, "Accuracy and Stability of Numerical Algorithms",
Thm 19.4). Each staircase step's input is a rotation of rows of the stack,
of norm at most ||H||_F. Step m is k_m <= P (rb + ra - 1) + S - m - 1 rows by
S - m columns, so the steps add at most 4 k_m (S - m) each: about 1.0e5 in
all for 16 panels of 32 x 32 and S = 16, where the per-panel QRs and the
stacked SVD they replace added 3.3e4, and 2.0e3 for S = 4. By Weyl's
inequality no singular value moves by more than the sum over both QR levels
and the SVD, times 2**-53 ||H||_F. That is a worst case: the moves seen are a
few 2**-53 sigma_max.

Most rows of the first level's R factors lie below that level's own backward
error: its QR of an axis' k x S factor is exact for a factor within
4 k S 2**-53 of it, relative to its norm, so smaller rows carry nothing the
bound resolves. Each block keeps, per axis, the fewest leading rows rb' (ra')
of R such that in every link and panel the rows dropped are within
4 k S 2**-53 ||R||_F in Frobenius norm, k being the axis' offsets; the
staircase and the SVD take those, in max(rb', ra') steps. The factors' entries have unit modulus, so all
columns of a factor have one norm, and the Khatri-Rao rows that one axis' cut
drops are the same fraction of the panel's block of H. The cut thus moves no
singular value by more than 4 (rows + cols) S 2**-53 ||H||_F, at most doubling
the first level's term. Where P rb' ra' < S the last triangle has fewer than
min(N, S) rows, and the values past them are exact zeros. On a station of 16
panels of 32 x 32 with a 16-element satellite, from 100 to 3000 km, a block
keeps 9 to 13 of the row factor's 16 rows and 3 or 4 of the column factor's:
9 to 13 staircase steps instead of 16.
"""

from __future__ import annotations

import numpy as np

from . import kernel
from .kernel import channel_matrix
from .fileio import atomic_write_text, fmt
from .geometry import ElementLayout, point_layout
from .record import Record


class ConvergenceFailure(RuntimeError):
    """LAPACK's SVD did not converge."""


class DegenerateSpectrum(ValueError):
    """All singular values are zero; ratios and counts are undefined."""


class SingularSpectrum(Record, eq=False):
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


def singular_values(channel):
    """Full singular spectrum of a 2-d complex channel array, from LAPACK's SVD.

    A 3-d array is a stack of channels: it takes one batched SVD and gives a
    list of spectra, one per channel, in order.

    Raises
    ------
    ValueError
        If the array is not a nonempty 2-d or 3-d array of finite entries.
    ConvergenceFailure
        If LAPACK's SVD does not converge.
    """
    h = np.asarray(channel, dtype=np.complex128)
    if h.ndim not in (2, 3) or h.size == 0:
        raise ValueError("channel must be a nonempty 2-d array or a stack of them")
    if not np.all(np.isfinite(h)):
        raise ValueError("channel entries must be finite")
    values = _svd_values(h)
    if h.ndim == 2:
        return SingularSpectrum(values, h.shape)
    return [SingularSpectrum(v, h.shape[1:]) for v in values]


def _svd_values(h):
    # LAPACK's singular values of a matrix or a stack of them.
    try:
        return np.linalg.svd(h, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(
            f"LAPACK SVD did not converge on a {h.shape[-2]}x{h.shape[-1]} matrix"
        ) from exc


def link_spectra(links, wavelength: float) -> list:
    """Singular spectrum of the phase-only tx -> rx channel of every
    ``(tx, rx)`` pair in ``links``, and the kernel that built it, in order.

    Returns a list of ``(SingularSpectrum, BeamKernel)``. Each link keeps its
    own gate and kernel. When one side is a layout of identical panel grids
    and the other side's elements, as point targets, keep the
    panel-factorized bound within the exact kernel's own phase rounding, the
    spectrum comes from the factorized kernel's row and column factors,
    compressed by two levels of QR (see the module docstring);
    ``source_shape`` is still the channel matrix's. Links that pass the gate
    with the same panel layout and number of point elements share the factor
    build and the first QR, a block of them at a time. Every other link gives
    exactly ``singular_values(channel_matrix(tx, rx, wavelength))``.
    """
    kernel.wavenumber(wavelength)  # checks the wavelength
    links = list(links)
    out = [None] * len(links)
    groups = {}
    for i, (tx, rx) in enumerate(links):
        for panels, points in ((rx, tx), (tx, rx)):
            plan, used = kernel.gate(panels, points.positions, wavelength)
            if plan is not None:
                key = (id(panels), points.n_elements)
                groups.setdefault(key, (plan, panels, []))[2].append((i, used, points))
                break
        else:
            out[i] = singular_values(channel_matrix(tx, rx, wavelength)), kernel.EXACT_KERNEL
    for (_, s), (plan, panels, members) in groups.items():
        spec = panels.panel_spec
        # A block's targets number no more than a panel's offsets on its two
        # axes, or it is one link.
        size = max(1, (spec.rows + spec.cols) // s)
        for start in range(0, len(members), size):
            block = members[start : start + size]
            targets = np.concatenate([points.positions for _, _, points in block])
            spectra = _compressed(plan, targets, wavelength, s)
            for (i, used, _), values in zip(block, spectra):
                shape = (panels.n_elements, s)[:: 1 if panels is links[i][1] else -1]
                out[i] = SingularSpectrum(values, shape), used
    return out


def _compressed(plan, targets, wavelength, s):
    # Singular values of each consecutive run of s targets' channel to the
    # plan's panels, (links, min(N, S)), from the R factors of the first QR
    # level, cut to the rows it resolves, and the staircase second level.
    # The row factor is dropped once its R factors exist, before the column
    # factor's QR.
    row, col = kernel._factorized_factors(plan, targets, wavelength)
    r_row = _resolved_rows(_panel_r(row, s), plan.rows)
    del row
    r_col = _resolved_rows(_panel_r(col, s), plan.cols)
    del col
    values = _svd_values(_second_level(r_row, r_col))
    # Where P rb' ra' < S the cut rows leave fewer values; the rest are zero.
    n = min(len(plan.centres) * plan.rows * plan.cols, s)
    return np.pad(values, ((0, 0), (0, n - values.shape[1])))


def _second_level(r_row, r_col):
    # For each link, a matrix of s columns with the singular values of its
    # panels' stacked Khatri-Rao blocks R_b (.) R_a, from the (links, panels,
    # rb, s) and (links, panels, ra, s) R factors.
    n_links, _, rb, s = r_row.shape
    ra = r_col.shape[-2]
    # Row (i, j) of a block is zero left of column max(i, j). Step m takes
    # every panel's rows with max(i, j) = m, from column m on, and the
    # triangle of the rows already taken, one column narrower, under them.
    tri = np.empty((n_links, 0, s - max(rb, ra)), dtype=np.complex128)
    for m in range(max(rb, ra) - 1, -1, -1):
        b, a = r_row[:, :, : m + 1, m:], r_col[:, :, : m + 1, m:]
        # Rows (m, j <= m), then (i < m, m); either is empty past its R's rows.
        new = (b[:, :, m:, None] * a[:, :, None], b[:, :, :m, None] * a[:, :, None, m:])
        below = np.concatenate([np.zeros((n_links, tri.shape[1], 1)), tri], axis=2)
        step = np.concatenate([x.reshape(n_links, -1, s - m) for x in new] + [below], axis=1)
        tri = np.linalg.qr(step, mode="r")
    return tri


def _panel_r(factor, s):
    # R of each (link, panel) block of a (panels, offsets, links * s) factor.
    p, offsets, t = factor.shape
    return np.linalg.qr(factor.reshape(p, offsets, t // s, s).transpose(2, 0, 1, 3), mode="r")


def _resolved_rows(r, offsets):
    # The fewest leading rows of the (links, panels, rows, s) R factors of an
    # axis of ``offsets`` whose dropped rows are, in every block, within the
    # first QR's own backward error 4 offsets s u ||R||_F (module docstring).
    # tail[..., i]: the squared norm of rows i on, per link and panel. It
    # falls with i, so the rows any block cannot drop are leading ones.
    tail = np.cumsum((r.real**2 + r.imag**2).sum(axis=-1)[..., ::-1], axis=-1)[..., ::-1]
    tol = 4.0 * offsets * r.shape[-1] * kernel._UNIT_ROUNDOFF
    kept = (tail > tol**2 * tail[..., :1]).any(axis=(0, 1))
    return r[:, :, : np.count_nonzero(kept)]


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
    half = separation / 2.0
    return point_layout([[-half, 0.0, z], [half, 0.0, z]])


def exact_ratio_curve(d_tx: float, d_rx: float, wavelength: float, ranges) -> np.ndarray:
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
        out[k] = condition_ratio(singular_values(channel_matrix(tx, rx, wavelength)))
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
    kernel.wavenumber(wavelength)  # checks the wavelength
