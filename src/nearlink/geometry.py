"""Element and panel geometry for distributed ground arrays.

A ground station is modeled as identical rectangular panels with uniform
element pitch, all lying in the z = 0 plane; the link boresight points along
+z. Positions are always meters, carried as (n, 3) float64 arrays.

The same types describe the space segment: a satellite-side array is just an
:class:`ElementLayout` whose positions sit near the nominal satellite location.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .fileio import atomic_write_text, fmt
from .panels import OverlappingPanels, PanelSpec, PlacementInfeasible, check_packing  # noqa: F401
from .panels import aperture_corners, check_corner_spacing, check_panel_overlap

# Per-point rejection budget for random placement; exceeding it means the
# requested density is not achievable and the caller gets a clear error
# instead of a hang.
_PLACEMENT_ATTEMPT_CAP = 10_000

# Uniform (x, y) pairs drawn per generator call by random placement.
_DRAW_BLOCK = 32

# Distances per slab when random placement tests a fresh block of draws
# against the points placed so far; each temporary stays near 8 bytes times
# this.
_MASK_ELEMENTS = 1 << 15

LAYOUT_HEADER = "# nearlink-layout v1"


class _PanelGrid(NamedTuple):
    positions: np.ndarray  # (panels, elements per panel, 3)
    centres: np.ndarray  # (panels, 3)
    offsets: np.ndarray  # (elements per panel, 3), shared by every panel
    gap: float  # largest distance of an element from centre + offset
    scale: float  # largest |centre + offset|


@dataclass(frozen=True, eq=False)
class ElementLayout:
    """Element coordinates in meters, ``positions`` (n, 3), the panel of
    each element, ``panel_ids`` (n,), 0-based and contiguous, and the
    ``panel_spec`` of the per-panel grid, which carries the element gain."""

    positions: np.ndarray
    panel_ids: np.ndarray
    panel_spec: PanelSpec

    def __post_init__(self):
        pos = np.ascontiguousarray(np.asarray(self.positions, dtype=np.float64))
        ids = np.ascontiguousarray(np.asarray(self.panel_ids, dtype=np.int64))
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] == 0:
            raise ValueError("positions must be a nonempty (n, 3) array")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        if ids.shape != (pos.shape[0],):
            raise ValueError("panel_ids must align with positions")
        # Sorted, equal rows sit next to each other. (np.unique would import
        # numpy.ma on its first call, inside the first run's timing.)
        rows = pos[np.lexsort(pos.T)]
        if (rows[1:] == rows[:-1]).all(axis=1).any():
            raise ValueError("two elements share an identical position")
        sorted_ids = np.sort(ids)
        if sorted_ids[0] != 0 or (np.diff(sorted_ids) > 1).any():
            raise ValueError("panel ids must be contiguous starting at 0")
        pos.setflags(write=False)
        ids.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "panel_ids", ids)

    @property
    def n_elements(self) -> int:
        return self.positions.shape[0]

    @property
    def n_panels(self) -> int:
        return int(self.panel_ids.max()) + 1

    @property
    def element_gain_dbi(self) -> float:
        return self.panel_spec.element_gain_dbi

    @cached_property
    def _panel_grid(self):
        """The layout as panel centres plus the shared ``_grid_offsets`` grid.

        None unless the elements come as whole panels in id order. ``gap``
        says how far the positions are from that grid: zero for a layout
        built from panel centres, up to the one rounding rebuilding the grid
        takes. Cached: the layout is immutable, and sweeps ask once per
        range.
        """
        spec = self.panel_spec
        per_panel = spec.n_elements
        if self.n_elements % per_panel:
            return None
        n_panels = self.n_elements // per_panel
        if not np.array_equal(self.panel_ids, np.repeat(np.arange(n_panels), per_panel)):
            return None
        offsets = _grid_offsets(spec)
        pos = self.positions.reshape(n_panels, per_panel, 3)
        # The first and last elements sit at opposite offsets, so their
        # midpoint recovers the centre a layout was built from, usually to
        # the last bit.
        centres = 0.5 * (pos[:, 0] + pos[:, -1])
        rebuilt = centres[:, None, :] + offsets
        scale = float(np.sqrt((rebuilt * rebuilt).sum(axis=-1)).max())
        gap = float(np.sqrt(((pos - rebuilt) ** 2).sum(axis=-1)).max())
        centres.setflags(write=False)
        offsets.setflags(write=False)
        return _PanelGrid(pos, centres, offsets, gap, scale)


def _grid_offsets(spec: PanelSpec) -> np.ndarray:
    # Row-major element offsets of one panel, centered on the panel origin.
    # Computed once per call so every panel of a distributed layout shares
    # bit-identical offsets.
    jj, ii = np.meshgrid(np.arange(spec.cols), np.arange(spec.rows))
    off = np.zeros((spec.n_elements, 3))
    off[:, 0] = (jj.ravel() - (spec.cols - 1) / 2.0) * spec.spacing
    off[:, 1] = (ii.ravel() - (spec.rows - 1) / 2.0) * spec.spacing
    return off


def make_upa(spec: PanelSpec, center=(0.0, 0.0, 0.0)) -> ElementLayout:
    """One uniform planar array of ``spec``'s grid centred on the 3-vector
    ``center`` (meters): row-major elements in its z-plane, panel id 0."""
    center = np.asarray(center, dtype=np.float64)
    if center.shape != (3,):
        raise ValueError("center must be a 3-vector")
    positions = _grid_offsets(spec) + center
    return ElementLayout(positions, np.zeros(spec.n_elements, dtype=np.int64), spec)


def make_distributed_panels(spec: PanelSpec, panel_centers) -> ElementLayout:
    """One ``spec`` panel at each of the (k, 3) ``panel_centers`` (meters),
    concatenated in input order: element i of panel p is at
    ``panel_centers[p] + offset[i]``, with offsets identical across panels.
    Raises OverlappingPanels if two centres are no farther apart than the
    panel extent, where footprints would overlap."""
    centers = np.asarray(panel_centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[1] != 3 or centers.shape[0] == 0:
        raise ValueError("panel_centers must be a nonempty (k, 3) array")
    if not np.all(np.isfinite(centers)):
        raise ValueError("panel_centers must be finite")
    check_panel_overlap(spec, centers)
    offsets = _grid_offsets(spec)
    positions = (centers[:, None, :] + offsets[None, :, :]).reshape(-1, 3)
    ids = np.repeat(np.arange(len(centers), dtype=np.int64), spec.n_elements)
    return ElementLayout(positions, ids, spec)


def _clear_mask(points, draws, min_spacing: float) -> np.ndarray:
    """(R, B) mask: draw b of row r lies at least ``min_spacing`` from every
    point of ``points[r]``.

    ``points`` is (R, 2, k) and ``draws`` (R, 2, B), x then y. The test is
    ``sqrt(dx*dx + dy*dy) >= min_spacing`` with ``dx = point - draw``, the
    rounding of np.linalg.norm on points at z = 0, so a NaN spacing rejects.
    """
    dx = points[:, 0, :, None] - draws[:, 0, None, :]
    dy = points[:, 1, :, None] - draws[:, 1, None, :]
    dx *= dx
    dy *= dy
    dx += dy
    return (np.sqrt(dx, out=dx) >= min_spacing).all(axis=1)


def random_panel_positions(
    aperture_x: float,
    aperture_y: float,
    n_panels: int,
    min_spacing: float,
    seed,
) -> np.ndarray:
    """Draw panel centers in a rectangle, corners first, then rejection sampling.

    The rectangle is centered on the origin in the z = 0 plane. The first four
    placements are always the aperture corners (so the full extent is realized
    deterministically); remaining panels are drawn uniformly and accepted only
    if at least ``min_spacing`` away from everything placed so far.

    Parameters
    ----------
    aperture_x, aperture_y : float
        Rectangle side lengths in meters, strictly positive.
    n_panels : int
        Total number of centers, at least 1. For ``n_panels <= 4`` the result
        is the first ``n_panels`` corners.
    min_spacing : float
        Minimum pairwise center distance in meters, non-negative.
    seed : int or 1-D array of int
        Seed for the draw; identical inputs give identical output. An array
        draws one placement per seed in a single pass, and its row i equals
        the placement drawn with ``int(seed[i])``, bit for bit.

    Returns
    -------
    ndarray, shape (n_panels, 3), or (len(seed), n_panels, 3) for an array

    Raises
    ------
    PlacementInfeasible
        If the corners themselves violate ``min_spacing``, or a point fails
        the rejection test 10,000 times in a row. For an array of seeds the
        error is the one the lowest-index failing seed raises alone.

    Notes
    -----
    Each seed draws from its own ``default_rng(seed)`` stream, in blocks of
    ``_DRAW_BLOCK`` (x, y) pairs. ``random`` fills a (B, 2) block in C order
    from one double per element, and each is scaled as ``uniform`` scales
    it, so a block holds exactly what B successive uniform(-hx, hx),
    uniform(-hy, hy) calls would return.

    All seeds advance together. Each keeps a mask of which unread draws of its
    block are clear of every point placed so far: the mask is computed when
    the block is drawn and narrowed by the test against each point placed
    after. A step accepts, for every seed, the first clear unread draw and
    counts the draws skipped before it as failures, or, with no clear draw
    left, counts the rest of the block and draws the next. Every draw thus
    gets the same accept or reject as the one-draw-at-a-time loop, against
    the same points, in stream order.
    """
    if not (0.0 < aperture_x < np.inf and 0.0 < aperture_y < np.inf):
        raise ValueError("aperture sides must be positive and finite")
    if n_panels < 1:
        raise ValueError("need at least one panel")
    if min_spacing < 0.0:
        raise ValueError("min_spacing must be non-negative")

    if np.ndim(seed) > 1:
        raise ValueError("seed must be an int or a 1-D array of ints")
    batch = np.ndim(seed) == 1
    check_corner_spacing(aperture_x, aperture_y, n_panels, min_spacing)
    seeds = [int(s) for s in seed] if batch else [seed]
    taken = np.array(aperture_corners(aperture_x, aperture_y))[: min(n_panels, 4)]
    out = np.zeros((len(seeds), n_panels, 3))
    out[:, : len(taken)] = taken
    if n_panels > 4:
        placed = _draw_rest(out, seeds, min_spacing, aperture_x / 2.0, aperture_y / 2.0)
        failed = np.flatnonzero(placed < n_panels)
        if failed.size:
            raise PlacementInfeasible(
                f"placed {placed[failed[0]]} of {n_panels} panels, then failed "
                f"{_PLACEMENT_ATTEMPT_CAP} consecutive draws at min spacing "
                f"{min_spacing:.6g} m in a {aperture_x:.6g} x {aperture_y:.6g} m aperture"
            )
    return out if batch else out[0]


def _draw_rest(out, seeds, min_spacing: float, hx: float, hy: float) -> np.ndarray:
    """Fill ``out[:, 4:]`` by rejection, one generator per seed; return how
    many points each seed placed: fewer than ``n_panels`` where it hit the
    cap. Once a seed fails, later seeds stop drawing and read ``n_panels``;
    the error is the lowest failing seed's either way.

    The state arrays hold the seeds still drawing, row r for seed ``ids[r]``.
    A step updates every row: a row without a clear draw has an all-False
    mask, so the updates for a placed point leave it as it was. Slots not yet
    placed hold inf, which is clear of every draw at a finite spacing; a NaN
    spacing already rejects every draw at the corners.
    """
    n_seeds, n_panels, _ = out.shape
    ids = np.arange(n_seeds)
    rows = ids
    gens = [np.random.default_rng(s) for s in seeds]
    low, span = np.array([[-hx], [-hy]]), np.array([[2.0 * hx], [2.0 * hy]])
    # x and y as rows, so that the distance tests run along contiguous memory.
    points = np.full((n_seeds, 2, n_panels), np.inf)
    points[:, :, :4] = out[:, :4, :2].transpose(0, 2, 1)
    draws = np.empty((n_seeds, 2, _DRAW_BLOCK))
    clear = np.zeros((n_seeds, _DRAW_BLOCK), dtype=bool)
    unread = np.full(n_seeds, _DRAW_BLOCK)  # index of the next unread draw
    placed = np.full(n_seeds, 4)
    fails = np.zeros(n_seeds, dtype=np.int64)  # consecutive, for the current slot
    n_placed = np.full(n_seeds, n_panels)
    while ids.size:
        spent = unread == _DRAW_BLOCK
        if spent.any():
            spent = np.flatnonzero(spent)
            for r in spent.tolist():
                draws[r] = gens[r].random((_DRAW_BLOCK, 2)).T
            # What uniform(low, high) computes from the same stream, without
            # its per-call range checks: the span is the finite aperture.
            draws[spent] = low + span * draws[spent]
            unread[spent] = 0
            k = placed[spent].max()
            slab = max(1, _MASK_ELEMENTS // (k * _DRAW_BLOCK))
            for start in range(0, spent.size, slab):
                r = spent[start : start + slab]
                clear[r] = _clear_mask(points[r, :, :k], draws[r], min_spacing)

        hit = clear.any(axis=1)
        first = clear.argmax(axis=1)
        stop = np.where(hit, first, _DRAW_BLOCK)
        fails += stop - unread
        unread = stop + hit
        ok = fails < _PLACEMENT_ATTEMPT_CAP
        take = hit & ok
        if take.any():
            point = draws[rows, :, first]
            point[~take] = np.inf
            points[rows, :, placed] = point
            placed += take
            fails[take] = 0
            clear[rows, first] = False
            clear &= _clear_mask(point[:, :, None], draws, min_spacing)

        keep = ok & (placed < n_panels)
        if not keep.all():
            gone = ~keep
            out[ids[gone], :, :2] = points[gone].transpose(0, 2, 1)
            n_placed[ids[gone]] = placed[gone]
            if not ok.all():
                # Seeds after one that failed cannot change the error raised.
                keep &= ids < ids[~ok].min()
            ids, points, draws, clear = ids[keep], points[keep], draws[keep], clear[keep]
            unread, placed, fails = unread[keep], placed[keep], fails[keep]
            gens = [g for g, kept in zip(gens, keep.tolist()) if kept]
            rows = np.arange(ids.size)
    return n_placed


def save_layout(layout: ElementLayout, path) -> None:
    """Write a layout as the line-oriented nearlink-layout text format.

    First line is the format header, then the panel spec as a comment, then
    one data line per element: ``panel_id x y z`` with full round-trip float
    precision, so the file records the layout exactly.
    """
    spec = layout.panel_spec
    lines = [
        LAYOUT_HEADER,
        "# panel rows={} cols={} spacing={} element_gain_dbi={}".format(
            spec.rows, spec.cols, fmt(spec.spacing), fmt(spec.element_gain_dbi)
        ),
    ]
    for pid, (x, y, z) in zip(layout.panel_ids, layout.positions):
        lines.append(f"{pid} {fmt(float(x))} {fmt(float(y))} {fmt(float(z))}")
    atomic_write_text(path, "\n".join(lines) + "\n")
