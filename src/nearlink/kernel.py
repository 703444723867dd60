"""Phase-sum kernels: how a coherent sum over elements and targets is chunked,
gated and rounded, which kernel runs (:func:`sums`), and the exact channel
matrix. Of the package, this module imports only :mod:`nearlink.record`.

Two kernels evaluate the coherent sum. The exact one pays one distance and one
complex exponential per element and target. The panel-factorized one serves
layouts of identical panels (every UPA and every distributed layout): it keeps
the exact path to each panel centre and expands the path inside a panel to
second order (the Fresnel expansion), split into a row factor and a column
factor. The phase of a factor is quadratic along its axis, so the factors
come from a product recurrence with five exps per panel, target and axis
rather than one per element offset; where the exact kernel itself rounds less
than that recurrence would, each offset takes its own exp.

The factorized kernel sums the delay-and-sum weights toward a focal (a point
or a direction), which every beam analysis uses. Those weights split the same
way as the paths to a target, so a panel costs the product of two sums per
target: each axis' chirp relative to the focus, exp(jk (o du - o^2 dc)), added
up as the recurrence steps along it. No array then holds an entry per offset,
and the weights are never formed: the beam comes as its focal (:func:`sums`).
On the benchmark's beam map (16 panels of 32 x 32, 861 targets, 2-core host)
that took the CLI's median solve from 0.0365 s to 0.0217 s, and the solve of
the shipped 12 060-target ``beam_map_distributed`` from 0.21-0.31 s to
0.12-0.17 s. Weight arrays, beams on another layout or at another
wavelength, and foci the gate refuses take the exact kernel.

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
same factors give the link spectra of the MIMO sweeps
(:func:`nearlink.mimo.link_spectra`).

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
    step = max(1, (budget or _BLOCK_BUDGET) // max(width, 1))
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
    # or -k |t - p| toward a point.
    k = wavenumber(wavelength)
    out = np.zeros(len(targets), dtype=np.complex128)
    for rows in blocks(len(positions), len(targets)):
        if directional:
            phase = (targets @ positions[rows].T) * k
        else:
            phase = np.sqrt(squared_distances(targets, positions[rows])) * -k
        out += np.exp(1j * phase) @ w[rows]
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
# column factors and B the row factors (the link spectra's factors,
# _factorized_factors). A far-field Direction is the same with 1/R = 0 and
# R_p = -u . c_p, where nothing is dropped.
#
# The delay-and-sum weights toward a focal F, exp(jk d_F) at each element,
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
    chained: bool  # factors step along whole chains, else one exp per offset
    directional: bool  # targets are unit vectors, not points
    bound_rad: float  # what the kernel drops or adds, at any element and target
    floor_rad: float  # exact kernel's own phase rounding (nearest target, for points)
    # (vector, directional) of the focal the weights are delay-and-sum toward:
    # the plan of the focused sums, which take no weights. None: the plan of
    # the targets' factors alone, which the link spectra take.
    focus: tuple | None = None


def gate(layout, targets, directional, wavelength, focus=None):
    """``(plan, kernel)``: the factorized plan toward ``targets`` (with
    ``focus``, of the focused sums, see :func:`sums`; else of the factors
    alone) and its kernel when the plan's bound is within the exact kernel's
    rounding floor, else ``(None, EXACT_KERNEL)``."""
    plan = _factorized_plan(layout, targets, directional, wavelength, focus)
    if plan is not None and plan.bound_rad <= plan.floor_rad:
        return plan, BeamKernel("panel_factorized", plan.bound_rad)
    return None, EXACT_KERNEL


def sums(layout, w, targets, directional, wavelength, focus=None):
    """``(response, kernel)``: the sum over ``layout``'s elements weighted by
    ``w`` at each target (unit vectors if ``directional``, else points).

    ``focus`` is ``(vector, directional)`` of the focal that ``w`` is the
    delay-and-sum beam toward at ``wavelength`` (a point, or a unit vector if
    ``directional``), or None. With a focus, the focused sums run where
    :func:`gate` passes them, and never read ``w``. Elsewhere ``np.asarray(w)``
    forms the weights and the exact kernel sums them: a focus the gate
    refuses gives the bits of a call without it. Raises ValueError where the
    weights are not one per element.
    """
    if focus is not None:
        plan, used = gate(layout, targets, directional, wavelength, focus)
        if plan is not None:
            return _factorized_sums(plan, targets, wavelength), used
    w = np.asarray(w)
    if w.shape != (layout.n_elements,):
        raise ValueError("weights do not match the layout")
    return _exact_sums(layout.positions, w, targets, directional, wavelength), EXACT_KERNEL


def _factorized_plan(layout, targets, directional, wavelength, focus=None):
    """Panel geometry and error bound of the factorized kernel, or None.

    None means the layout is not one shared ``_grid_offsets`` grid repeated
    at each panel centre (for example 1x1 panels, or ids out of order), or a
    point target, or a point focus, lies within a panel's reach of its
    centre. Positions that are off the grid by more than rounding stay
    eligible here: their offset enters the bound, and the gate refuses them.

    With a focus the plan is of the focused sums, and its bound and floor
    are theirs (module docstring). The targets and the focus must each pass
    the gate on their own, or the plan is None.
    """
    spec = layout.panel_spec
    grid = layout._panel_grid if spec.n_elements > 1 else None
    if grid is None:
        return None
    k = wavenumber(wavelength)
    s = spec.spacing
    half_x = float(np.abs(grid.offsets[: spec.cols, 0]).max())
    half_y = float(np.abs(grid.offsets[:: spec.cols, 1]).max())
    drops = _expansion_bound(layout, grid, half_x, half_y, targets, directional)
    if drops is None:
        return None
    bound, slope_x, slope_y, curvature, floor = drops
    summing = 0.0
    if focus is not None:
        at_focus = _expansion_bound(layout, grid, half_x, half_y, focus[0][None], focus[1])
        if at_focus is None:
            return None
        f_bound, f_slope_x, f_slope_y, f_curvature, f_floor = at_focus
        if f_bound > f_floor or bound > floor:
            return None
        slope_x, slope_y = slope_x + f_slope_x, slope_y + f_slope_y
        curvature += f_curvature
        bound += f_bound + _UNIT_ROUNDOFF * (
            slope_x * half_x + slope_y * half_y + curvature * (half_x**2 + half_y**2)
        )
        floor += f_floor
        summing = _gamma(spec.cols - 1) + _gamma(spec.rows - 1)
    # Whole chains where their rounding fits under the floor, as it does for
    # every point target tried; else (directions near broadside on a
    # panel at the origin, where the exact kernel itself rounds little) one
    # exp per offset, which adds no rounding of its own.
    drift = _recurrence_drift(spec.cols, s, k, slope_x, curvature)
    drift += _recurrence_drift(spec.rows, s, k, slope_y, curvature)
    bound_rad = float(k * bound + summing + drift / (1.0 - drift))
    floor_rad = float(k * floor)
    chained = bound_rad <= floor_rad
    if not chained:
        bound_rad = float(k * bound + summing)
    return _FactorizedPlan(
        grid.centres, spec.rows, spec.cols, s, chained, directional, bound_rad, floor_rad, focus
    )


def _expansion_bound(layout, grid, half_x, half_y, targets, directional):
    """``(bound, slope_x, slope_y, curvature, floor)`` of the expansion toward
    ``targets``, or None where a point lies within a panel's reach or the
    bound overflows: the path it drops or moves at any element and target
    (m), the bounds on |u_x|, |u_y| and |c| its factors take, and the exact
    kernel's own rounding of a path at the nearest target (m)."""
    u = _UNIT_ROUNDOFF
    # The kernel places element (r, c) at centre + (m_c s, m_r s, 0) exactly,
    # with m_i = i - (n - 1) / 2 (the progression _axis_factor steps along).
    # The positions are within gap of centre + offset, summed exactly, and
    # _grid_offsets rounds each offset once from m_i s, so each offset
    # coordinate is within u half_x or u half_y of the progression.
    if directional:
        # Nothing is dropped. The phase u . p moves by at most |u| gap for
        # the gap, u sum_c |u_c| (|p_c| + gap) for the one rounding of each
        # coordinate of centre + offset, and u (|u_x| half_x + |u_y| half_y)
        # for the progression. The exact kernel forms u . p as a 3-term dot
        # product, within gamma_3 sum_c |u_c p_c| of it (Higham 3.1). reach
        # is the largest sum_c |u_c p_c|: on a grid each panel's |p_c| peak
        # at one corner together, so the sum of the componentwise peaks is
        # attained, to within the gap.
        peaks = np.abs(grid.positions).max(axis=1)
        reach = float((np.abs(targets) @ peaks.T).max())
        slope_x, slope_y = float(np.abs(targets[:, 0]).max()), float(np.abs(targets[:, 1]).max())
        bound = grid.gap + u * (reach + 2.0 * grid.gap + slope_x * half_x + slope_y * half_y)
        return bound, slope_x, slope_y, 0.0, _gamma(3) * reach
    rho = float(np.hypot(half_x, half_y))
    # |position - element the kernel uses|: the gap to the rebuilt grid,
    # the one rounding (at most 2**-53 of each coordinate) that
    # rebuilding took, and the offsets' distance from the progression.
    residual = grid.gap + u * (grid.scale + rho)
    nearest, skew = np.inf, 0.0
    for chunk in blocks(len(targets), layout.n_elements):
        paths = _panel_paths(grid.centres, targets[chunk], False)
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
    return half_x * half_y * skew + tail + residual, 1.0, 1.0, 0.5 / nearest, u * near


def _recurrence_drift(n, spacing, k, slope, curvature):
    """First-order bound on the relative error _axis_factor's chains add to
    a factor beyond the one rounded exp a factor costs when evaluated on its
    own.

    ``slope`` bounds |u| and ``curvature`` bounds |c| of the chirp along the
    axis: c = (1 - u^2) / 2R for a factor (zero for directions), and du, dc
    for the focused chirp. A factor is at most m = n // 2 - 1 steps from its
    chain's first exp, which is that one exp; step i multiplies by
    r_(i-1) = r_0 q^(i-1). So the factor is f_0 r_0^m q^(m(m-1)/2), and
    m(m+1)/2 rounded products reach it: m along the chain and i - 1 inside
    each r_(i-1). Each of those inputs carries its own relative error, and
    they add to first order:

    - r_0 = exp(jk d (u - (2o + d) c)) with |d| = s and |2o + d| <= n s: its
      phase takes five roundings, and the chain's first offset o one more,
      on values of at most k s (|u| + n s |c|), so it is within gamma_6 of
      that; exp adds at most 2 ulps per component, 4u; times m;
    - q = exp(-2jk s^2 c): three roundings of 2 k s^2 |c| plus the exp's 4u,
      times m(m - 1) / 2. With c = 0, q and every r_i product are exact;
    - each complex product of unit-modulus values: sqrt(2) gamma_2
      (Higham, Lemma 3.5).

    The exact form of the compounding, prod (1 + e_i) - 1, stays below
    e / (1 - e) for e the sum returned here.
    """
    m = max(n // 2 - 1, 0)
    exp_err = 4.0 * _UNIT_ROUNDOFF
    ratio = _gamma(6) * k * spacing * (slope + n * spacing * curvature) + exp_err
    if curvature == 0.0:
        chirp, products = 0.0, m
    else:
        chirp = _gamma(3) * 2.0 * k * spacing * spacing * curvature + exp_err
        products = m * (m + 1) // 2
    return m * ratio + m * (m - 1) // 2 * chirp + products * 2.0**0.5 * _gamma(2)


def _panel_paths(centres, targets, directional):
    # Per (panel, target): the path to the panel centre (R, or -u . c for a
    # Direction), the in-plane components of its unit vector, and 1/R (zero
    # for a Direction); None where a point sits on a centre. A nonzero R is
    # at least 2e-162 m (a root of the least float64), so 1/R stays finite.
    if directional:
        path = -(centres @ targets.T)
        ux = np.broadcast_to(targets[:, 0], path.shape)
        uy = np.broadcast_to(targets[:, 1], path.shape)
        return path, ux, uy, np.zeros(path.shape)
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
    vector, directional = plan.focus
    f_path, f_ux, f_uy, f_inv_r = _panel_paths(plan.centres, vector[None], directional)
    f_cx, f_cy = _curvature(f_ux, f_inv_r), _curvature(f_uy, f_inv_r)
    out = np.empty(len(targets), dtype=np.complex128)
    for chunk in blocks(len(targets), len(plan.centres), _CACHE_ENTRIES):
        path, ux, uy, inv_r = _panel_paths(plan.centres, targets[chunk], plan.directional)
        cx, cy = _curvature(ux, inv_r) - f_cx, _curvature(uy, inv_r) - f_cy
        ux, uy = ux - f_ux, uy - f_uy
        inner = _axis_factor(plan.cols, plan.spacing, plan.chained, ux, cx, k, summed=True)
        inner *= _axis_factor(plan.rows, plan.spacing, plan.chained, uy, cy, k, summed=True)
        out[chunk] = (np.exp(-1j * k * (path - f_path)) * inner).sum(axis=0)
    return out


def _factorized_factors(plan, targets, wavelength):
    # The factorized kernel's channel to point targets, left as its factors:
    # element (row r, column c) of panel p couples to target a as
    # row[p, r, a] * col[p, c, a], so panel p's block of the channel matrix is
    # the column-wise Kronecker product of row[p] and col[p]. The row factor
    # carries exp(-jk (R_pa - |t_a|)): taking each target's path relative to
    # its distance |t_a| from the origin scales column a by exp(jk |t_a|),
    # which leaves the singular values unchanged, and keeps the phase rounding
    # at the size of |c_p| instead of R_pa, where it would be shared by every
    # element of the panel. The difference is formed without cancellation as
    # (|c_p|^2 - 2 t_a . c_p) / (R_pa + |t_a|).
    k = wavenumber(wavelength)
    path, ux, uy, inv_r = _panel_paths(plan.centres, targets, False)
    c = plan.centres
    t_norm = np.sqrt((targets * targets).sum(axis=-1))
    rel = ((c * c).sum(axis=-1)[:, None] - 2.0 * (c @ targets.T)) / (path + t_norm)
    row = _axis_factor(plan.rows, plan.spacing, plan.chained, uy, _curvature(uy, inv_r), k)
    row *= np.exp(-1j * k * rel)[:, None, :]
    col = _axis_factor(plan.cols, plan.spacing, plan.chained, ux, _curvature(ux, inv_r), k)
    return row, col


def _axis_factor(n, spacing, chained, u, c, k, summed=False):
    # f(o) = exp(jk (o u - o^2 c)) at the n offsets o = m spacing,
    # m = i - (n - 1) / 2, of one panel axis; u and c are (panels, targets)
    # and the result is (panels, n, targets), or with ``summed`` the
    # (panels, targets) sum over the offsets, each term added as it is made.
    #
    # Unchained, each offset takes its own exp. Chained, the phase is
    # quadratic in o, so along steps d = +-spacing the ratio of neighbours is
    # r_i = r_0 q^i with q = exp(-2jk d^2 c): two chains run outward from the
    # centre and share q. A chain takes an exp of f at its innermost offset
    # and one of its first ratio, then one product per offset. A centre
    # offset (odd n) is 0, where f is 1. Chains of one offset are that exp.
    half = n // 2
    if not chained or half < 2:
        o = (np.arange(n) - (n - 1) / 2.0) * spacing
        if not summed:
            o = o[:, None]
            return np.exp(1j * ((k * o) * (u[:, None, :] - o * c[:, None, :])))
        out = np.zeros(u.shape, dtype=np.complex128)
        for o_i in o:
            out += np.exp(1j * ((k * o_i) * (u - o_i * c)))
        return out
    if summed:
        out = np.full(u.shape, float(n % 2), dtype=np.complex128)
    else:
        out = np.empty((u.shape[0], n, u.shape[1]), dtype=np.complex128)
        if n % 2:
            out[:, half] = 1.0
    if half > 2:
        q = np.exp(1j * ((-2.0 * k * spacing * spacing) * c))
    # The innermost offset above the centre, in pitches: 1 or 1/2.
    first = (n + 1) // 2 - (n - 1) / 2.0
    for sign, chain in ((1.0, range(n - half, n)), (-1.0, range(half - 1, -1, -1))):
        d, o = sign * spacing, sign * first * spacing
        f = np.exp(1j * ((k * o) * (u - o * c)))
        r = np.exp(1j * ((k * d) * (u - (2.0 * o + d) * c)))
        if summed:
            out += f
        else:
            out[:, chain[0]] = f
        for i in range(1, half):
            if i > 1:
                r *= q
            if summed:
                f *= r
                out += f
            else:
                f = np.multiply(f, r, out=out[:, chain[i]])
    return out
