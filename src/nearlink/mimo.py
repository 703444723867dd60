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
layout of identical panels, :func:`link_spectra` builds the row and column
factors of the panel-factorized kernel of :mod:`nearlink.kernel`, under the
same run-time error gate (:func:`nearlink.kernel.gate`) as the beam sweeps,
and never forms the matrix.
Inside panel p the channel block is the column-wise Kronecker (Khatri-Rao)
product B_p (.) A_p of its row and column factors. With B_p = Q_b R_b and
A_p = Q_a R_a, the mixed-product rule gives B_p (.) A_p = (Q_b x Q_a)
(R_b (.) R_a), and Q_b x Q_a has orthonormal columns, so the channel has the
singular values of the panels' R_b (.) R_a stacked: P rb ra rows for S
targets instead of one per element, with rb and ra at most min(M, S) for the
M of the first level below, or fewer after the cut described last.

The first level takes each factor as a smooth function of the element
offset. An axis' factor holds the chirp f(o) = exp(jk (o u - o^2 c)) at its
n offsets o, per target, and the row factor also the target's path phase.
That phase scales a column of B_p, and so the same column of R_b: R is
formed without it and then scaled. Per link and panel, u and c are taken
relative to the mid-range of the link's S targets, which scales row o by a
unit-modulus number and leaves R unchanged. What is left has phase at most
x = k (o_max max|du| + o_max^2 max|dc|) over a block of links: below 1e-3
for a 1.7 m satellite from 100 km on, a factor of numerical rank 3 to 4.
Each axis' factor F is projected onto the first M orthonormal polynomials of
its offsets, the rows of a real M x n matrix V built once per n and M by
Vandermonde with Arnoldi (Brubeck, Nakatsukasa & Trefethen, SIAM Rev. 63,
2021); the QR is of the M x S matrix V F in place of the n x S F. By the
mixed-product rule (V_b x V_a) (B (.) A) = (V_b B) (.) (V_a A), so the
staircase below takes these R factors alike.

M = min(n, 2N - 1) for the fewest Taylor terms N of exp(j phi) whose
remainder x^N / N! (N + 1) / (N + 1 - x) is within 4 n S 2**-53, the cut's
tolerance below, computed per block and axis at run time. phi is quadratic
in o, so those N terms are a polynomial of degree 2N - 2 within that of
every entry of F. The projection is the best approximation in the span in
Frobenius norm, so it drops at most that fraction of each link and panel's
factor, whose entries have unit modulus. Where M reaches n the factor goes
to the QR whole. On a station of 16 panels of 32 x 32 with a 16-element
satellite, from 100 to 3000 km, M is 7 on the blocks of links within about
300 km and 5 on the rest, against n = 32.

Where M < n, V F is formed from those N terms and F never is. With
xi = o / o_max in [-1, 1], phi = a xi + b xi^2 for a = k o_max u and
b = -k o_max^2 c, and the series T = sum over i + l < N of
(j a xi)^i (j b xi^2)^l / (i! l!) has M coefficients C of xi^0 .. xi^(M-1)
per target, each a sum of real a^i / i! b^l / l! times a power of j. So
V T = W C for the moments W = V Xi of the basis against the monomials
xi^d, d < M: an M x M matrix built once per n and M, upper triangular
because row j of V is orthogonal to the polynomials of degree below j. It
takes a few products of (panels, targets) arrays and one real gemm of W by
C's float64 view, in place of n exps per target and V's gemm of n. T is
within the remainder above of F at every offset, and V has orthonormal rows,
so V T is within that fraction of V F: the same bound as the projection's.
To first order, rounding adds 3 (N + M) 2**-53 e^x of each column's norm: a
term's products of a / i and b / l are within 2N 2**-53 of its size and a
coefficient's sum adds N / 2, the terms' sizes summing to at most e^x; W,
whose entries are exact sums of rounded products, and the gemm W C add 3M.
a and b round phi within 3 x 2**-53, as the exp of each entry would.

Where that rounding passes 4 n S 2**-53, or where M = n, the axis' factor
is the chirp itself, one exp per offset, and goes to the QR whole. Its phase
takes five roundings of terms of at most x, the offset's counting twice, and
the exp adds at most 2 ulps per component, so each entry is within
(6 x + 4) 2**-53 of the chirp: one exp's rounding, as the exact kernel pays
per element. The station above has x below 1e-3; with n = 64 and S = 16 the
guard refuses from x of about 3.

R_b and R_a are upper triangular, so row (i, j) of R_b (.) R_a is zero left
of column max(i, j). A staircase of QRs reduces the stack one leading column
at a time: for m from max(rb, ra) - 1 down to 0, step m takes every panel's
rows with max(i, j) = m, from column m on, stacks the triangle left by the
steps before under them, shifted one column, and keeps the R of their QR. The
last triangle, at most S x S, has the channel's singular values: 16 x 16
instead of 4 096 x 16 for 16 panels of 32 x 32 and a 16-element satellite,
from at most 16 steps of at most 496 rows each. This is the tall-skinny QR
reduction (Demmel et al., SIAM J. Sci. Comput. 34, 2012) ordered by the
blocks' zeros; no Khatri-Rao block is formed whole. Blocks wider than they
are tall (rb ra < S) take the same steps.

:func:`link_spectra` streams a sweep: one ground, one satellite mount built
about the origin, and a centre per range, read one at a time; each link's
targets are the mount's elements plus its centre. Consecutive links that pass
the gate with the ground as the panel side share one factor build and one
batched QR per axis, one batched QR per staircase step and one batched SVD, a
block of links at a time. One block waits at a time, and runs when it is
full, before a link that does not join it and at the end, so the spectra come
out in order and a sweep of any length holds one block's arrays. A block
holds L = max(1, (rows + cols) // S) links, so that its
L S targets number no more than a panel's rows + cols offsets, unless one
link alone has more: 4 links for 32 x 32 panels and S = 16, 16 for S = 4. Its
factors, P (rows + cols) L S entries, are then within P (rows + cols)**2
entries, or one link's. They are built one axis at a time, and each is
dropped once its R factors exist; besides one, a block holds its projection
or the copy QR takes (no larger) and the R factors, P (rb + ra) L S entries
(no larger); then the R factors and, during step m, a few arrays of at most
L k_m (S - m) entries, k_m being the step's rows: the new rows, the shifted
triangle, their stack, the copy QR takes and its R. For 16 panels of 32 x 32
and S = 16 those are far smaller than the factors, and a block stays within
three times its factors.

Householder QR and LAPACK's SVD are backward stable: each returns the exact
result for an input within about 4 k n 2**-53 of the k x n one it was given,
in Frobenius norm (Higham, "Accuracy and Stability of Numerical Algorithms",
Thm 19.4). Where M < n the QR of V F adds 4 M S in place of a QR of F's
4 n S, and the series its rounding, within 4 n S; where the factor goes
whole, its exps add 6 x + 4. Each staircase step's input is a rotation of
rows of the stack, of norm at most ||H||_F. Step m is
k_m <= P (rb + ra - 1) + S - m - 1 rows by S - m columns, so the steps add
at most 4 k_m (S - m) each: about 1.0e5 in all for 16 panels of 32 x 32,
S = 16 and R factors of 16 rows, where the per-panel QRs and the stacked
SVD they replace added 3.3e4, and 2.0e3 for S = 4. By Weyl's inequality no
singular value moves by more than the sum over both QR levels, the
projection, the series or the exps, the cut (below) and the SVD, times
2**-53 ||H||_F. That is a worst case: the moves seen are a few 2**-53
sigma_max.

Most rows of the first level's R factors lie below that level's own backward
error: its QR of an axis' k x S factor is exact for a factor within
4 k S 2**-53 of it, relative to its norm, so smaller rows carry nothing the
bound resolves. Each block keeps, per axis, the fewest leading rows rb' (ra')
of R such that in every link and panel the rows dropped are within
4 k S 2**-53 ||R||_F in Frobenius norm, k being the axis' offsets; the
staircase and the SVD take those, in max(rb', ra') steps. The factors'
entries have unit modulus, so all columns of a factor have one norm, and the
Khatri-Rao rows that one axis' cut, or one axis' projection, drops are the
same fraction of the panel's block of H. The cut thus moves no singular value
by more than 4 (rows + cols) S 2**-53 ||H||_F, and the projection and the
series' remainder each as much again. Where P rb' ra' < S the last triangle
has fewer than min(N, S) rows, and the values past them are exact zeros. On
the station above a block keeps 3 or 4 of the row factor's projected rows
and 3 or 4 of the column factor's: 3 or 4 staircase steps, against 9 to 13
of 16 rows kept without the projection.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import kernel
from .kernel import channel_matrix
from .fileio import atomic_write_text, fmt
from .geometry import placed, point_layout
from .record import Record


class ConvergenceFailure(RuntimeError):
    """LAPACK's SVD did not converge."""


class DegenerateSpectrum(ValueError):
    """All singular values are zero; ratios and counts are undefined."""


class SingularSpectrum(Record, eq=False):
    """Singular values in descending order."""

    values: np.ndarray

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

    Raises
    ------
    ValueError
        If the array is not a nonempty 2-d array of finite entries.
    ConvergenceFailure
        If LAPACK's SVD does not converge.
    """
    h = np.asarray(channel, dtype=np.complex128)
    if h.ndim != 2 or h.size == 0:
        raise ValueError("channel must be a nonempty 2-d array")
    if not np.all(np.isfinite(h)):
        raise ValueError("channel entries must be finite")
    return SingularSpectrum(_svd_values(h))


def _svd_values(h):
    # LAPACK's singular values of a matrix or a stack of them.
    try:
        return np.linalg.svd(h, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(
            f"LAPACK SVD did not converge on a {h.shape[-2]}x{h.shape[-1]} matrix"
        ) from exc


def link_spectra(ground, mount, centres, wavelength: float):
    """Singular spectrum of the phase-only channel from ``mount``, built
    about the origin, at each 3-vector c of ``centres`` to ``ground``, and
    the kernel that built it: ``(SingularSpectrum, BeamKernel)`` pairs in
    order, ``centres`` read as they are needed.

    The mount's elements sit at ``mount.positions + c``. Each link keeps its
    own gate and kernel: when one side is a layout of identical panel grids
    (the ground first, then the mount at c) and the other side's elements, as
    point targets, keep the panel-factorized bound within the exact kernel's
    own phase rounding, the spectrum comes from the factorized kernel's row
    and column factors, compressed by two levels of QR (see the module
    docstring), with min(N, S) values as the channel matrix has. Consecutive
    links that pass with the ground as the panel side share the factor build
    and the first QR, a block of them at a time. Every other link gives
    exactly ``singular_values(channel_matrix(placed(mount, c), ground, wavelength))``.
    """
    kernel.wavenumber(wavelength)  # checks the wavelength
    # The links that pass with the ground as the panel side wait in one
    # block until it is full, a link does not join it, or the centres end. A
    # block's targets number no more than a panel's offsets on its two axes,
    # or it is one link.
    block = []
    for centre in centres:
        targets = mount.positions + centre
        plan, used = kernel.gate(ground, targets, wavelength)
        if plan is not None:
            block.append((plan, targets, used))
            if len(block) < max(1, (plan.rows + plan.cols) // len(targets)):
                continue
        yield from _block_spectra(block, wavelength)
        block = []
        if plan is None:
            sat = placed(mount, centre)
            plan, used = kernel.gate(sat, ground.positions, wavelength)
            if plan is None:
                yield singular_values(channel_matrix(sat, ground, wavelength)), used
            else:
                yield from _block_spectra([(plan, ground.positions, used)], wavelength)
    yield from _block_spectra(block, wavelength)


def _block_spectra(block, wavelength):
    # The spectra of a block of (plan, targets, kernel) links of S targets
    # each toward one panel layout, whose plans differ only in their bounds:
    # singular values of each link's channel to the panels, min(N, S) of
    # them, from the R factors of the first QR level, projected and cut to
    # the rows it resolves, and the staircase second level. Each axis' factor
    # is dropped once its R factors exist.
    if not block:
        return
    plan, targets, _ = block[0]
    k, s = kernel.wavenumber(wavelength), len(targets)
    phase, axes = _factor_terms(plan, np.concatenate([t for _, t, _ in block]), k)
    r_row, r_col = (
        _axis_r(n, plan.spacing, u, c, k, s) for n, (u, c) in zip((plan.rows, plan.cols), axes)
    )
    # The path phase scales column a of each panel's row factor, and so of
    # its R.
    r_row = r_row * phase.reshape(len(phase), -1, s).transpose(1, 0, 2)[:, :, None]
    values = _svd_values(_second_level(r_row, r_col))
    # Where P rb' ra' < S the cut rows leave fewer values; the rest are zero.
    n = min(len(plan.centres) * plan.rows * plan.cols, s)
    values = np.pad(values, ((0, 0), (0, n - values.shape[1])))
    for (_, _, used), link_values in zip(block, values):
        yield SingularSpectrum(link_values), used


def _factor_terms(plan, targets, k):
    # The factorized kernel's channel to point targets, in terms of its
    # factors: element (row r, column c) of panel p couples to target a as
    # phase[p, a] f_y(y_r) f_x(x_c), each f(o) = exp(jk (o u - o^2 c)) an
    # axis' chirp (_chirp). Returns phase and the (u, c) of the row (y) and
    # the column (x) axis, all (panels, targets). The phase is
    # exp(-jk (R_pa - |t_a|)): taking each target's path relative to its
    # distance |t_a| from the origin scales column a by exp(jk |t_a|), which
    # leaves the singular values unchanged, and keeps the phase rounding at
    # the size of |c_p| instead of R_pa, where it would be shared by every
    # element of the panel. The difference is formed without cancellation
    # as (|c_p|^2 - 2 t_a . c_p) / (R_pa + |t_a|).
    path, ux, uy, inv_r = kernel._panel_paths(plan.centres, targets)
    c = plan.centres
    t_norm = np.sqrt((targets * targets).sum(axis=-1))
    rel = ((c * c).sum(axis=-1)[:, None] - 2.0 * (c @ targets.T)) / (path + t_norm)
    axes = ((uy, kernel._curvature(uy, inv_r)), (ux, kernel._curvature(ux, inv_r)))
    return np.exp(-1j * k * rel), axes


def _chirp(n, spacing, u, c, k):
    # f(o) = exp(jk (o u - o^2 c)), (panels, n, targets), at the n offsets
    # o = (i - (n - 1) / 2) spacing of one panel axis: one exp per offset of
    # the (panels, targets) u and c.
    offsets = (np.arange(n) - 0.5 * (n - 1)) * spacing
    return np.stack([kernel._cis((k * o) * (u - o * c)) for o in offsets], axis=1)


def _axis_r(n, spacing, u, c, k, s):
    # R factors, (links, panels, rows, s), of one panel axis of n offsets
    # with the (panels, links * s) chirps u, c: taken relative to each
    # link's mid-range per panel, projected on the first M orthonormal
    # polynomials of the offsets from the chirp's Taylor series where M < n
    # and its rounding stays within the tolerance, else the chirp whole, and
    # cut to the rows the first level resolves (module docstring).
    u, c = _centred(u, s), _centred(c, s)
    m, x = _basis_rows(n, spacing, k, u, c, s)
    # The series' rounding, 3 (N + M) u e^x, against the cut's 4 n s u.
    if m < n and 3.0 * ((m + 1) // 2 + m) <= 4.0 * n * s * math.exp(-x):
        factor = _series_factor(n, spacing, u, c, k, m)
    else:
        factor = _chirp(n, spacing, u, c, k)
    return _resolved_rows(_panel_r(factor, s), n)


def _centred(v, s):
    # v less the mid-range of each consecutive run of s targets, per panel.
    runs = v.reshape(len(v), -1, s)
    mid = 0.5 * (runs.max(axis=-1) + runs.min(axis=-1))
    return (runs - mid[..., None]).reshape(v.shape)


def _basis_rows(n, spacing, k, du, dc, s):
    # (M, x): M = min(n, 2N - 1) for the fewest Taylor terms N of exp(jx)
    # whose remainder x^N / N! (N + 1) / (N + 1 - x) is within the cut's
    # tolerance 4 n s u, x bounding the chirp's phase k |o du - o^2 dc| at
    # every offset (module docstring).
    o = 0.5 * (n - 1) * spacing
    x = k * (o * float(np.abs(du).max()) + o * o * float(np.abs(dc).max()))
    tol = 4.0 * n * s * kernel._UNIT_ROUNDOFF
    terms, term = 1, x  # term = x^terms / terms!
    while 2 * terms - 1 < n and (terms + 1 <= x or term * (terms + 1) / (terms + 1 - x) > tol):
        terms += 1
        term *= x / terms
    return min(n, 2 * terms - 1), x


def _series_factor(n, spacing, du, dc, k, m):
    # V T, (panels, m, targets), for the first m = 2N - 1 < n orthonormal
    # polynomials V and the N-term series T of the chirp exp(j (a xi + b
    # xi^2)) in xi = o / o_max, a = k o_max du and b = -k o_max^2 dc: the
    # moments W = V Xi times the coefficients C of xi^d, d < m. Term
    # (ja)^i (jb)^l / (i! l!), i + l < N, adds j^(i + l) a^i / i! b^l / l! to
    # C[i + 2 l]; those powers of a and b are real.
    o = 0.5 * (n - 1) * spacing
    terms = (m + 1) // 2
    pa, pb = _scaled_powers((k * o) * du, terms), _scaled_powers((-k * o * o) * dc, terms)
    coeffs = np.zeros((m,) + du.shape, dtype=np.complex128)
    parts = (coeffs.real, coeffs.imag)
    for i in range(terms):
        for l in range(terms - i):
            # j^(i + l) is 1, j, -1 or -j.
            part = parts[(i + l) % 2][i + 2 * l]
            if (i + l) % 4 < 2:
                part += pa[i] * pb[l]
            else:
                part -= pa[i] * pb[l]
    # One real gemm on the float64 view: the moments are real.
    flat = coeffs.view(np.float64).reshape(m, -1)
    product = (_moments(n, m) @ flat).view(np.complex128).reshape(coeffs.shape)
    return product.transpose(1, 0, 2)


def _scaled_powers(v, terms):
    # v^i / i! for i < terms, the first the scalar 1.
    out = [1.0, v]
    for i in range(2, terms):
        out.append(out[-1] * (v / i))
    return out[:terms]


@functools.lru_cache
def _polynomial_basis(n, m):
    # Rows: the first m orthonormal polynomials of degree 0, 1, ... at the n
    # offsets i - (n - 1) / 2, by Vandermonde with Arnoldi (Brubeck,
    # Nakatsukasa & Trefethen, SIAM Rev. 63, 2021): row j is the offsets
    # times row j - 1, orthogonalized twice against the rows before it and
    # normalized.
    offsets = np.arange(n) - 0.5 * (n - 1)
    q = np.empty((m, n))
    q[0] = n**-0.5
    for j in range(1, m):
        v = offsets * q[j - 1]
        for _ in range(2):
            v -= (q[:j] @ v) @ q[:j]
        q[j] = v / np.sqrt(v @ v)
    q.setflags(write=False)
    return q


@functools.lru_cache
def _moments(n, m):
    # W = V Xi, (m, m), for V = _polynomial_basis(n, m) and the monomials
    # xi^d, d < m, of the n offsets scaled to [-1, 1], n > 1. Row j of V is
    # orthogonal to the polynomials of degree below j, so W is upper
    # triangular; each entry above is an exact sum (fsum) of rounded
    # products.
    offsets = np.arange(n) - 0.5 * (n - 1)
    powers = np.vander(offsets / offsets[-1], m, increasing=True).T
    q = _polynomial_basis(n, m)
    w = np.zeros((m, m))
    for j in range(m):
        for d in range(j, m):
            w[j, d] = math.fsum(q[j] * powers[d])
    w.setflags(write=False)
    return w


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


def exact_ratio_curve(d_tx: float, d_rx: float, wavelength: float, ranges) -> np.ndarray:
    """Singular-value ratio of the exact 2x2 channel at each range.

    Geometry: both two-element baselines are perpendicular to the line of
    sight and parallel to each other, separated by the range. No small-angle
    approximation; this is the reference the closed-form curve is judged
    against.
    """
    _check_boundary_args(d_tx, d_rx, wavelength)
    r = np.asarray(ranges, dtype=np.float64).reshape(-1)
    if (r <= 0.0).any() or not np.all(np.isfinite(r)):
        raise ValueError("ranges must be positive and finite")
    tx, rx = (point_layout([[-d / 2.0, 0.0, 0.0], [d / 2.0, 0.0, 0.0]]) for d in (d_tx, d_rx))
    # The tx pair, as the mount, at each range below the rx pair.
    links = link_spectra(rx, tx, ((0.0, 0.0, -x) for x in r), wavelength)
    return np.array([condition_ratio(spectrum) for spectrum, _ in links])


def write_spectrum_csv(path, ranges, spectra, tau: float, metadata=None) -> None:
    """Write per-range spectra as ``r_meters,sigma_0..sigma_{k-1},ratio,dof``.

    ``spectra`` is an iterable of :class:`SingularSpectrum`, one per range,
    all of equal length, read one at a time as its row is written; an error
    raised while reading it leaves no file. ``ratio`` is sigma_min /
    sigma_max and ``dof`` counts values at or above ``tau * sigma_max``.
    """
    _check_tau(tau)
    ranges = np.asarray(ranges, dtype=np.float64)
    atomic_write_text(path, _spectrum_lines(ranges, iter(spectra), tau, metadata))


def _spectrum_lines(ranges, spectra, tau, metadata):
    first = next(spectra, None)
    if first is None:
        raise ValueError("need one spectrum per range")
    k = len(first.values)
    for key, value in (metadata or {}).items():
        yield f"# {key} {fmt(value)}"
    yield f"# tau {fmt(float(tau))}"
    yield "r_meters," + ",".join(f"sigma_{i}" for i in range(k)) + ",ratio,dof"
    for rng_m, spec in itertools.zip_longest(ranges, itertools.chain([first], spectra)):
        if rng_m is None or spec is None:
            raise ValueError("need one spectrum per range")
        if len(spec.values) != k:
            raise ValueError("spectra must all have the same length")
        sig = ",".join(fmt(float(v)) for v in spec.values)
        yield f"{fmt(float(rng_m))},{sig},{fmt(condition_ratio(spec))},{dof_count(spec, tau)}"


def _check_tau(tau: float) -> None:
    if not (0.0 < tau < 1.0) or not np.isfinite(tau):
        raise ValueError("tau must lie strictly between 0 and 1")


def _check_boundary_args(d_tx: float, d_rx: float, wavelength: float) -> None:
    if d_tx <= 0.0 or d_rx <= 0.0:
        raise ValueError("element separations must be positive")
    kernel.wavenumber(wavelength)  # checks the wavelength
