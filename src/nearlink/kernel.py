"""Phase-sum kernels: how a coherent sum over elements and targets is chunked,
gated and rounded. This module imports no other part of the package.

Two kernels evaluate the coherent sum. The exact one pays one distance and one
complex exponential per element and target. The panel-factorized one serves
layouts of identical panels (every UPA and every distributed layout): it keeps
the exact path to each panel centre and expands the path inside a panel to
second order (the Fresnel expansion), split into a row factor and a column
factor, so a panel costs one small matrix product per target. The phase of a
factor is quadratic along its axis, so the factors come from a product
recurrence with five exps per panel, target and axis rather than one per
element offset. The kernel runs only when a rigorous bound on the terms it
drops, and on the rounding its recurrence adds, stays below the exact kernel's
own phase rounding (:func:`gate`); otherwise the exact kernel runs. The exact
kernel is also the oracle the factorized one is tested against. The same
factors give the link spectra of the MIMO sweeps
(:func:`nearlink.mimo.link_spectra`).

A chunk of any kernel forms at most ``_BLOCK_BUDGET`` entries (targets x
elements, rows x columns, directions x panels), one :func:`blocks` slice at a
time. Its float64 and complex128 temporaries take 8 to 24 bytes per entry, so
each stays within 100 MB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_BLOCK_BUDGET = 4_000_000

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


def blocks(n: int, width: int):
    """Slices covering ``range(n)`` in order: as many rows of ``width`` entries
    each as fit in ``_BLOCK_BUDGET`` (at least one), fewer in the last."""
    step = max(1, _BLOCK_BUDGET // max(width, 1))
    for start in range(0, n, step):
        yield slice(start, start + step)


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared distances between two (n, 3) point sets,
    (dx^2 + dy^2) + dz^2, with no (n, m, 3) temporary."""
    d2 = np.subtract.outer(a[:, 0], b[:, 0]) ** 2
    d2 += np.subtract.outer(a[:, 1], b[:, 1]) ** 2
    d2 += np.subtract.outer(a[:, 2], b[:, 2]) ** 2
    return d2


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


def _direction_sums(positions, w, units, wavelength):
    k = wavenumber(wavelength)
    out = np.zeros(len(units), dtype=np.complex128)
    for rows in blocks(len(positions), len(units)):
        phase = (units @ positions[rows].T) * k
        out += np.exp(1j * phase) @ w[rows]
    return out


def _point_sums(positions, w, pts, wavelength):
    k = wavenumber(wavelength)
    out = np.zeros(len(pts), dtype=np.complex128)
    for rows in blocks(len(positions), len(pts)):
        phase = np.sqrt(squared_distances(pts, positions[rows])) * -k
        out += np.exp(1j * phase) @ w[rows]
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
#     sum_p exp(-jkR_p) sum_r B_pr (W_p A_p)_r
#
# with A the column factors, B the row factors and W_p the panel's weights as
# a rows x cols matrix. A far-field Direction is the same with 1/R = 0 and
# R_p = -u . c_p, where nothing is dropped.


@dataclass(frozen=True, eq=False)
class _FactorizedPlan:
    centres: np.ndarray  # (panels, 3) panel centres
    rows: int  # offsets along a panel's y axis
    cols: int  # offsets along a panel's x axis
    spacing: float  # element pitch inside a panel
    run: int  # most products along an axis chain between fresh exps
    directional: bool  # targets are unit vectors, not points
    bound_rad: float  # what the kernel drops or adds, at any element and target
    floor_rad: float  # exact kernel's own phase rounding (nearest target, for points)


def gate(layout, targets, directional, wavelength):
    """``(plan, kernel)``: the factorized plan and its kernel when the plan's
    bound is within the exact kernel's rounding floor, else
    ``(None, EXACT_KERNEL)``."""
    plan = _factorized_plan(layout, targets, directional, wavelength)
    if plan is not None and plan.bound_rad <= plan.floor_rad:
        return plan, BeamKernel("panel_factorized", plan.bound_rad)
    return None, EXACT_KERNEL


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
    u = _UNIT_ROUNDOFF
    k = wavenumber(wavelength)
    s = spec.spacing
    half_x = float(np.abs(grid.offsets[: spec.cols, 0]).max())
    half_y = float(np.abs(grid.offsets[:: spec.cols, 1]).max())
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
        floor = _gamma(3) * reach
        curvature = 0.0
    else:
        rho = float(np.hypot(half_x, half_y))
        # |position - element the kernel uses|: the gap to the rebuilt grid,
        # the one rounding (at most 2**-53 of each coordinate) that
        # rebuilding took, and the offsets' distance from the progression.
        residual = grid.gap + u * (grid.scale + rho)
        nearest, skew = np.inf, 0.0
        for chunk in blocks(len(targets), layout.n_elements):
            path, ux, uy, inv_r = _panel_paths(grid.centres, targets[chunk], False)
            nearest = min(nearest, float(path.min()))
            if nearest <= rho:
                return None
            skew = max(skew, float((np.abs(ux * uy) * inv_r).max()))
        # Cross term |x y u_x u_y| / R, plus the remainder of the second-order
        # expansion: with a = u . o and q = |o|^2 - a^2 <= rho^2, the exact
        # path sqrt((R - a)^2 + q) differs from R - a + q / 2R by at most
        # q |a| / 2R(R - a) + q^2 / 8(R - a)^3.
        near = nearest - rho
        tail = rho**3 / (2.0 * nearest * near) + rho**4 / (8.0 * near**3)
        bound = half_x * half_y * skew + tail + residual
        floor = u * near
        slope_x = slope_y = 1.0
        # (1 - u^2) / 2R is at most 1 / 2R.
        curvature = 0.5 / nearest
    # The longest chain run between fresh exps whose rounding still fits
    # under the floor: whole chains for point targets, shorter ones where the
    # exact kernel itself rounds little (directions near broadside on a
    # panel at the origin), down to one exp per offset.
    for run in range(max(spec.rows, spec.cols) // 2 - 1, -1, -1):
        drift = _recurrence_drift(run, spec.cols, s, k, slope_x, curvature)
        drift += _recurrence_drift(run, spec.rows, s, k, slope_y, curvature)
        bound_rad = float(k * bound + drift / (1.0 - drift))
        if bound_rad <= k * floor:
            break
    return _FactorizedPlan(
        grid.centres, spec.rows, spec.cols, s, run, directional, bound_rad, k * floor
    )


def _recurrence_drift(run, n, spacing, k, slope, curvature):
    """First-order bound on the relative error _axis_factor adds to a factor
    beyond the one rounded exp a factor costs when evaluated on its own.

    ``slope`` bounds |u| and ``curvature`` bounds |c| = |(1 - u^2) / 2R|
    along the axis (zero for directions). Each chain of ``_axis_factor``
    restarts from an exp every ``run`` products, so a factor is at most
    m = min(run, n // 2 - 1) steps from its segment's first exp, which is
    that one exp; step i multiplies by r_(i-1) = r_0 q^(i-1). So the factor
    is f_0 r_0^m q^(m(m-1)/2), and m(m+1)/2 rounded products reach it: m
    along the chain and i - 1 inside each r_(i-1). Each of those inputs
    carries its own relative error, and they add to first order:

    - r_0 = exp(jk d (u - (2o + d) c)) with |d| = s and |2o + d| <= n s: its
      phase takes five roundings, and the segment's start offset o one more,
      on values of at most k s (|u| + n s |c|), so it is within gamma_6 of
      that; exp adds at most 2 ulps per component, 4u; times m;
    - q = exp(-2jk s^2 c): three roundings of 2 k s^2 |c| plus the exp's 4u,
      times m(m - 1) / 2. With c = 0, q and every r_i product are exact;
    - each complex product of unit-modulus values: sqrt(2) gamma_2
      (Higham, Lemma 3.5).

    The exact form of the compounding, prod (1 + e_i) - 1, stays below
    e / (1 - e) for e the sum returned here.
    """
    m = max(min(run, n // 2 - 1), 0)
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
    # for a Direction).
    if directional:
        path = -(centres @ targets.T)
        ux = np.broadcast_to(targets[:, 0], path.shape)
        uy = np.broadcast_to(targets[:, 1], path.shape)
        return path, ux, uy, np.zeros(path.shape)
    v = targets - centres[:, None, :]
    path = np.sqrt((v * v).sum(axis=-1))
    inv_r = 1.0 / path
    return path, v[..., 0] * inv_r, v[..., 1] * inv_r, inv_r


def _factorized_sums(plan, w, targets, wavelength):
    k = wavenumber(wavelength)
    w_p = w.reshape(len(plan.centres), plan.rows, plan.cols)
    out = np.empty(len(targets), dtype=np.complex128)
    for chunk in blocks(len(targets), len(w)):
        path, ux, uy, inv_r = _panel_paths(plan.centres, targets[chunk], plan.directional)
        col = _axis_factor(plan.cols, plan.spacing, plan.run, ux, inv_r, k)
        row = _axis_factor(plan.rows, plan.spacing, plan.run, uy, inv_r, k)
        inner = np.einsum("prt,prt->pt", w_p @ col, row)
        out[chunk] = (np.exp(-1j * k * path) * inner).sum(axis=0)
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
    row = _axis_factor(plan.rows, plan.spacing, plan.run, uy, inv_r, k)
    row *= np.exp(-1j * k * rel)[:, None, :]
    return row, _axis_factor(plan.cols, plan.spacing, plan.run, ux, inv_r, k)


def _axis_factor(n, spacing, run, u, inv_r, k):
    # f(o) = exp(jk (o u - o^2 c)), c = (1 - u^2) / 2R, at the n offsets
    # o = m spacing, m = i - (n - 1) / 2, of one panel axis; u and inv_r are
    # (panels, targets) and the result is (panels, n, targets).
    #
    # The phase is quadratic in o, so along steps d = +-spacing the ratio of
    # neighbours is r_i = r_0 q^i with q = exp(-2jk d^2 c): two chains run
    # outward from the centre and share q. A chain takes an exp of f and one
    # of its first ratio, then one product per offset, and starts afresh
    # after ``run`` products. A centre offset (odd n) is 0, where f is 1.
    c = (1.0 - u * u) * (0.5 * inv_r)
    out = np.empty((u.shape[0], n, u.shape[1]), dtype=np.complex128)
    half = n // 2
    if n % 2:
        out[:, half] = 1.0
    if run > 1:
        q = np.exp(1j * ((-2.0 * k * spacing * spacing) * c))
    # The innermost offset above the centre, in pitches: 1 or 1/2.
    first = (n + 1) // 2 - (n - 1) / 2.0
    for sign, chain in ((1.0, range(n - half, n)), (-1.0, range(half - 1, -1, -1))):
        d = sign * spacing
        for start in range(0, half, run + 1):
            seg = chain[start : start + run + 1]
            o = sign * (first + start) * spacing
            out[:, seg[0]] = np.exp(1j * ((k * o) * (u - o * c)))
            if len(seg) > 1:
                r = np.exp(1j * ((k * d) * (u - (2.0 * o + d) * c)))
            for i in range(1, len(seg)):
                if i > 1:
                    r *= q
                np.multiply(out[:, seg[i - 1]], r, out=out[:, seg[i]])
    return out
