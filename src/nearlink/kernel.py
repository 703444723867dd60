"""Phase-sum kernels: how a coherent sum over elements and targets is chunked,
gated and rounded, which kernel runs (:func:`sums`), and the exact channel
matrix. Of the package, this module imports only :mod:`nearlink.record`.

Two kernels evaluate the coherent sum. The exact one pays one path and one
complex exponential per element and target; it is the package's one float64
direction sum, and the placement factor that
:func:`nearlink.placement.peak_sidelobe` scores. The panel-factorized one
serves near-field point targets of layouts of identical panels (every UPA and
every distributed layout): it keeps the exact path to each panel centre and
expands the path inside a panel to second order (the Fresnel expansion), split
into a row factor and a column factor. The phase of a factor is quadratic
along its axis, so the focused sums (below) step it by a product recurrence:
at most five exps per panel, target and axis, not one per element offset.

The factorized kernel sums the delay-and-sum weights toward a point focus,
which every beam analysis uses. Those weights split the same way as the paths
to a target, so a panel costs the product of two sums per target: each axis'
chirp relative to the focus, exp(jk (o du - o^2 dc)), added up as the
recurrence steps along it. No array then holds an entry per offset, and the
weights are never formed: the beam comes as its focus (:func:`sums`).
Weight arrays, beams on another layout or at another wavelength, direction
targets or foci, and foci the gate refuses take the exact kernel.

The kernel runs only when a rigorous bound on the terms it drops, and on the
rounding it adds, stays below the exact kernel's own phase rounding
(:func:`gate`); else the exact kernel runs. The focused sums' bound holds what
the expansion drops at the targets and at the focus (the exact weights differ
from their split form by the latter), the chains' drift for a chirp whose
slope |du| reaches 2 and whose curvature is |dc| <= |c_t| + |c_F|, the one
rounding of du and of dc (which moves a term's phase by at most k |o| u |du|
and k o^2 u |dc|), and the rounding of summing each axis' n terms one after
another: within gamma_(n-1) of the terms' moduli (Higham 4.2), as if each
term's phase moved by that much. The floor is the exact path's phase rounding
at the nearest target plus that of the weights' phases (the focus's floor).
R_pt - R_pF is one subtraction, exact where the two are within a factor of two
of each other (Sterbenz's lemma) and else within u max(R_pt, R_pF): no more
than the exact path's own rounding of its path to that target or to the focus
(in the weights). Like those roundings, which no bound here counts, it is held
by the tests rather than gated against the floor, which the nearest target and
the focus set: on ``beam_range_focus`` |R_pt - R_pF| reaches 1.5 Mm, against
their 0.1 + 0.5 Mm. At the focus itself du = dc = 0 and R_pt = R_pF bit for
bit, so every term is exactly 1 and the sum is exactly N.

The exact kernel is also the oracle the factorized one is tested against. The
link spectra of the MIMO sweeps (:func:`nearlink.mimo.link_spectra`) take the
gate and the plan without a focus, whose bound is the expansion's alone, and
build their own factors.

A chunk of the exact sums, the channel matrix or the gate's bound forms at
most ``_BLOCK_BUDGET`` entries (targets x elements, rows x columns), one
:func:`blocks` slice at a time. Its float64 and complex128 temporaries take
8 to 24 bytes per entry, so each stays within 100 MB. The focused sums take
cache-sized chunks of ``_CACHE_ENTRIES`` targets x panels.
"""

from __future__ import annotations

import numpy as np

from .record import Record

_BLOCK_BUDGET = 4_000_000
# The focused sums hold about a dozen complex128 (panels, targets) arrays at
# once; blocks of this many entries keep them near 1.5 MB, within a core's
# cache. On the shipped 12 060-target map that ran 1.5 times as fast as one
# block.
_CACHE_ENTRIES = 1 << 13

# Unit roundoff of float64: one rounding moves a value by at most this
# fraction of itself.
_UNIT_ROUNDOFF = 2.0**-53


def _gamma(m: float) -> float:
    # Relative error bound of m chained roundings, gamma_m = m u / (1 - m u)
    # (Higham, *Accuracy and Stability of Numerical Algorithms*, 3.1).
    return m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)


def wavenumber(wavelength: float) -> float:
    """``2 pi / wavelength``; raises ValueError unless the wavelength is
    positive and finite."""
    if wavelength <= 0.0 or not np.isfinite(wavelength):
        raise ValueError("wavelength must be positive and finite")
    return 2.0 * np.pi / wavelength


def blocks(n: int, width: int, budget: int | None = None):
    """Slices covering ``range(n)`` in order: as many rows of ``width`` entries
    each as fit in ``budget`` (``_BLOCK_BUDGET`` unless given; at least one
    row), fewer in the last."""
    step = max(1, (_BLOCK_BUDGET if budget is None else budget) // max(width, 1))
    for start in range(0, n, step):
        yield slice(start, start + step)


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared distances between two (n, 3) point sets,
    (dx^2 + dy^2) + dz^2, with no (n, m, 3) temporary."""
    d2 = np.subtract.outer(a[:, 0], b[:, 0]) ** 2
    d2 += np.subtract.outer(a[:, 1], b[:, 1]) ** 2
    d2 += np.subtract.outer(a[:, 2], b[:, 2]) ** 2
    return d2


class BeamKernel(Record):
    """The kernel that evaluated a response or built a channel matrix, and
    its per-element phase bound.

    ``name`` is ``"panel_factorized"`` or ``"exact"``. ``bound_rad`` bounds,
    at every element and target, the phase of the terms the kernel drops
    (zero for the exact kernel).
    """

    name: str
    bound_rad: float


EXACT_KERNEL = BeamKernel("exact", 0.0)


def unit_vectors(theta, phi) -> np.ndarray:
    """Unit vectors toward (theta, phi); scalar angles give one 3-vector."""
    return np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1
    )


def _exact_sums(positions, w, targets, directional, wavelength):
    # One exp per element and target: the phase k u . p toward a unit vector,
    # or -k |t - p| toward a point, weighted in place and summed along the
    # elements: the placement score's bits are those of this order.
    k = wavenumber(wavelength)
    out = np.zeros(len(targets), dtype=np.complex128)
    for rows in blocks(len(positions), len(targets)):
        if directional:
            phase = (targets @ positions[rows].T) * k
        else:
            phase = np.sqrt(squared_distances(targets, positions[rows])) * -k
        terms = np.exp(1j * phase)
        terms *= w[rows]
        out += terms.sum(axis=1)
    return out


class ZeroDistance(ValueError):
    """A transmit and receive element coincide; the coefficient is undefined."""


def channel_matrix(tx, rx, wavelength: float) -> np.ndarray:
    """Read-only (rx elements, tx elements) channel between two layouts:
    ``exp(-j 2 pi d / lambda)`` at element distance ``d``, the free-space
    coefficient at unit modulus (ratios of singular values see no common
    scale). The phase is formed in float64 from the distance and wrapped only
    inside the exp, so phase differences stay well below a microradian where
    ``d / lambda`` nears 1e8. Raises ZeroDistance where two elements meet."""
    wavenumber(wavelength)  # checks the wavelength
    txp, rxp = tx.positions, rx.positions
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
# column factor: the element's term is exp(-jkR_p) B_pr A_pc, with A the
# column factors and B the row factors.
#
# The delay-and-sum weights toward a focus F, exp(jk d_F) at each element,
# split the same way into exp(jk R_pF) conj(B_F) conj(A_F), so the panel's
# double sum splits into one sum per axis and the response is
#
#     sum_p exp(-jk (R_pt - R_pF)) S_row S_col,
#     S = sum_i exp(jk (o_i du - o_i^2 dc)),
#
# with du = u_t - u_F and dc = c_t - c_F, c = (1 - u^2) / 2R, per panel and
# target: a chirp of the same form as a factor, summed as it is stepped.


class _FactorizedPlan(Record, eq=False):
    centres: np.ndarray  # (panels, 3) panel centres
    rows: int  # offsets along a panel's y axis
    cols: int  # offsets along a panel's x axis
    spacing: float  # element pitch inside a panel
    bound_rad: float  # what the kernel drops or adds, at any element and target
    floor_rad: float  # exact kernel's own phase rounding at the nearest target
    # The point the weights are delay-and-sum toward (the focused sums' plan,
    # which takes no weights), or None (the link spectra's plan of factors).
    focus: np.ndarray | None = None


def gate(layout, targets, wavelength, focus=None):
    """``(plan, kernel)``: the factorized plan toward the points ``targets``
    (with the point ``focus``, of the focused sums, see :func:`sums`; else of
    the factors alone) and its kernel when the plan's bound is within the
    exact kernel's rounding floor, else ``(None, EXACT_KERNEL)``."""
    plan = _factorized_plan(layout, targets, wavelength, focus)
    if plan is not None and plan.bound_rad <= plan.floor_rad:
        return plan, BeamKernel("panel_factorized", plan.bound_rad)
    return None, EXACT_KERNEL


def sums(layout, w, targets, directional, wavelength, focus=None):
    """``(response, kernel)``: the sum over ``layout``'s elements weighted by
    ``w`` at each target (unit vectors if ``directional``, else points).

    ``focus`` is the point that ``w`` is the delay-and-sum beam toward at
    ``wavelength``, or None. With a focus and point targets, the focused sums
    run where :func:`gate` passes them, and never read ``w``. Elsewhere
    ``np.asarray(w)`` forms the weights and the exact kernel sums them: a
    focus the gate refuses gives the bits of a call without it. Raises
    ValueError where the weights are not one per element.
    """
    if focus is not None and not directional:
        plan, used = gate(layout, targets, wavelength, focus)
        if plan is not None:
            return _factorized_sums(plan, targets, wavelength), used
    w = np.asarray(w)
    if w.shape != (layout.n_elements,):
        raise ValueError("weights do not match the layout")
    return _exact_sums(layout.positions, w, targets, directional, wavelength), EXACT_KERNEL


def _factorized_plan(layout, targets, wavelength, focus=None):
    """Panel geometry and error bound of the factorized kernel toward the
    points ``targets``, or None.

    None means the layout was not built as one shared ``_grid_offsets``
    grid repeated at each panel centre (bare positions, or 1x1 panels), or
    a target, or the focus, lies within a panel's reach of its centre.

    With a focus the plan is of the focused sums, and its bound and floor
    are theirs (module docstring); without one, the bound is the expansion's.
    """
    spec = layout.panel_spec
    grid = layout._panel_grid if spec.n_elements > 1 else None
    if grid is None:
        return None
    k = wavenumber(wavelength)
    s = spec.spacing
    half_x = float(np.abs(grid.offsets[: spec.cols, 0]).max())
    half_y = float(np.abs(grid.offsets[:: spec.cols, 1]).max())
    drops = _expansion_bound(layout, grid, half_x, half_y, targets)
    if drops is None:
        return None
    bound, curvature, floor = drops
    summing = drift = 0.0
    if focus is not None:
        at_focus = _expansion_bound(layout, grid, half_x, half_y, focus[None])
        if at_focus is None:
            return None
        f_bound, f_curvature, f_floor = at_focus
        curvature += f_curvature
        bound += f_bound + _UNIT_ROUNDOFF * (
            2.0 * (half_x + half_y) + curvature * (half_x**2 + half_y**2)
        )
        floor += f_floor
        summing = _gamma(spec.cols - 1) + _gamma(spec.rows - 1)
        drift = _recurrence_drift(spec.cols, s, k, 2.0, curvature)
        drift += _recurrence_drift(spec.rows, s, k, 2.0, curvature)
    bound_rad = float(k * bound + summing + drift / (1.0 - drift))
    return _FactorizedPlan(
        grid.centres, spec.rows, spec.cols, s, bound_rad, float(k * floor), focus
    )


def _expansion_bound(layout, grid, half_x, half_y, targets):
    """``(bound, curvature, floor)`` of the expansion toward the points
    ``targets``, or None where a point lies within a panel's reach or the
    bound overflows: the path it drops or moves at any element and target
    (m), the bound on |c| its factors take (|u| is at most 1), and the exact
    kernel's own rounding of a path at the nearest target (m)."""
    u = _UNIT_ROUNDOFF
    # The kernel places element (r, c) at centre + (m_c s, m_r s, 0) exactly,
    # with m_i = i - (n - 1) / 2 (the progression the axis chirps take).
    # Each position is centre + offset rounded once (at most 2**-53 of each
    # coordinate), and _grid_offsets rounds each offset once from m_i s, so
    # each offset coordinate is within u half_x or u half_y of the
    # progression.
    rho = float(np.hypot(half_x, half_y))
    # |position - element the kernel uses|.
    residual = u * (grid.scale + rho)
    nearest, skew = np.inf, 0.0
    for chunk in blocks(len(targets), layout.n_elements):
        paths = _panel_paths(grid.centres, targets[chunk])
        if paths is None:
            return None
        path, ux, uy, inv_r = paths
        nearest = min(nearest, float(path.min()))
        if nearest <= rho:
            return None
        skew = max(skew, float((np.abs(ux * uy) * inv_r).max()))
    # Cross term |x y u_x u_y| / R, plus the remainder of the second-order
    # expansion: with a = u . o and q = |o|^2 - a^2 <= rho^2, the exact
    # path sqrt((R - a)^2 + q) differs from R - a + q / 2R by at most
    # q |a| / 2R(R - a) + q^2 / 8(R - a)^3.
    near = nearest - rho
    try:
        tail = rho**3 / (2.0 * nearest * near) + rho**4 / (8.0 * near**3)
    except (OverflowError, ZeroDivisionError):  # a power past float64's range
        return None
    # (1 - u^2) / 2R is at most 1 / 2R.
    return half_x * half_y * skew + tail + residual, 0.5 / nearest, u * near


def _recurrence_drift(n, spacing, k, slope, curvature):
    """First-order bound on the relative error _axis_sum's chains add to
    a term of the focused chirp beyond the one rounded exp a term costs when
    evaluated on its own.

    The focused sums step f(o) = exp(jk (o u - o^2 c)) with u = du and
    c = dc relative to the focus; ``slope`` bounds |u| and ``curvature``
    bounds |c| along the axis.
    A term is at most m = n // 2 - 1 steps from its chain's first exp,
    which is that one exp; step i multiplies by r_(i-1) = r_0 q^(i-1). So the
    term is f_0 r_0^m q^(m(m-1)/2), and m(m+1)/2 rounded products reach it:
    m along the chain and i - 1 inside each r_(i-1). Each of those inputs
    carries its own relative error, and they add to first order:

    - r_0 = exp(jk d (u - (2o + d) c)) with |d| = s and |2o + d| <= n s: its
      phase takes five roundings, and the chain's first offset o one more,
      on values of at most k s (|u| + n s |c|), so it is within gamma_6 of
      that; exp adds at most 2 ulps per component, 4u; times m;
    - q = exp(-2jk s^2 c): three roundings of 2 k s^2 |c| plus the exp's 4u,
      times m(m - 1) / 2;
    - each complex product of unit-modulus values: sqrt(2) gamma_2
      (Higham, Lemma 3.5).

    The exact form of the compounding, prod (1 + e_i) - 1, stays below
    e / (1 - e) for e the sum returned here.
    """
    m = max(n // 2 - 1, 0)
    exp_err = 4.0 * _UNIT_ROUNDOFF
    ratio = _gamma(6) * k * spacing * (slope + n * spacing * curvature) + exp_err
    chirp = _gamma(3) * 2.0 * k * spacing * spacing * curvature + exp_err
    return m * ratio + m * (m - 1) // 2 * chirp + m * (m + 1) // 2 * 2.0**0.5 * _gamma(2)


def _panel_paths(centres, targets):
    # Per (panel, target): the path R to the panel centre, the in-plane
    # components of its unit vector, and 1/R; None where a point sits on a
    # centre. A nonzero R is at least 2e-162 m (a root of the least float64),
    # so 1/R stays finite.
    v = targets - centres[:, None, :]
    path = np.sqrt((v * v).sum(axis=-1))
    if not path.all():
        return None
    inv_r = 1.0 / path
    return path, v[..., 0] * inv_r, v[..., 1] * inv_r, inv_r


def _curvature(u, inv_r):
    # c = (1 - u^2) / 2R of a factor's chirp along an axis.
    return (1.0 - u * u) * (0.5 * inv_r)


def _factorized_sums(plan, targets, wavelength):
    # The focused sums of a plan with a focus, in cache-sized blocks of
    # (panels, targets) arrays.
    k = wavenumber(wavelength)
    f_path, f_ux, f_uy, f_inv_r = _panel_paths(plan.centres, plan.focus[None])
    f_cx, f_cy = _curvature(f_ux, f_inv_r), _curvature(f_uy, f_inv_r)
    out = np.empty(len(targets), dtype=np.complex128)
    for chunk in blocks(len(targets), len(plan.centres), _CACHE_ENTRIES):
        path, ux, uy, inv_r = _panel_paths(plan.centres, targets[chunk])
        cx, cy = _curvature(ux, inv_r) - f_cx, _curvature(uy, inv_r) - f_cy
        ux, uy = ux - f_ux, uy - f_uy
        inner = _axis_sum(plan.cols, plan.spacing, ux, cx, k)
        inner *= _axis_sum(plan.rows, plan.spacing, uy, cy, k)
        out[chunk] = (np.exp(-1j * k * (path - f_path)) * inner).sum(axis=0)
    return out


def _cis(phase):
    # exp(1j * phase) of a real array as cos and sin written into its real
    # and imaginary parts: the bits of numpy's complex exp (tests hold them
    # on the build they run on), but for the sign of the zero sine at a
    # phase of -0. About twice as fast on the axis factors' small phases;
    # from tens of radians up it is slower, so the paths keep np.exp.
    out = np.empty(phase.shape, dtype=np.complex128)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _axis_sum(n, spacing, u, c, k):
    # The (panels, targets) sum of f(o) = exp(jk (o u - o^2 c)) over the n
    # offsets o = m spacing, m = i - (n - 1) / 2, of one panel axis, each
    # term added as it is made; u and c are (panels, targets).
    #
    # The phase is quadratic in o, so along steps d = +-spacing the ratio of
    # neighbours is r_i = r_0 q^i with q = exp(-2jk d^2 c): two chains run
    # outward from the centre and share q. A chain takes an exp of f at its
    # innermost offset, and past it one of its first ratio and one product
    # per offset. A centre offset (odd n) is 0, where f is 1, and is all of
    # a one-offset axis.
    half = n // 2
    out = np.full(u.shape, float(n % 2), dtype=np.complex128)
    if not half:
        return out
    if half > 2:
        q = _cis((-2.0 * k * spacing * spacing) * c)
    # The innermost offset above the centre, in pitches: 1 or 1/2.
    first = (n + 1) // 2 - (n - 1) / 2.0
    for sign in (1.0, -1.0):
        d, o = sign * spacing, sign * first * spacing
        f = _cis((k * o) * (u - o * c))
        out += f
        for i in range(1, half):
            if i == 1:
                r = _cis((k * d) * (u - (2.0 * o + d) * c))
            else:
                r *= q
            f *= r
            out += f
    return out
