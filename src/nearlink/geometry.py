"""Element and panel geometry for distributed ground arrays.

A ground station is modeled as identical rectangular panels with uniform
element pitch, all lying in the z = 0 plane; the link boresight points along
+z. Positions are always meters, carried as (n, 3) float64 arrays.

The same types describe the space segment: a satellite-side array is just an
:class:`ElementLayout` whose positions sit near the nominal satellite location.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .fileio import atomic_write_text, fmt

# Per-point rejection budget for random placement; exceeding it means the
# requested density is not achievable and the caller gets a clear error
# instead of a hang.
_PLACEMENT_ATTEMPT_CAP = 10_000

LAYOUT_HEADER = "# nearlink-layout v1"

# Unit roundoff of float64: one rounding moves a value by at most this
# fraction of itself.
_UNIT_ROUNDOFF = 2.0**-53


class OverlappingPanels(ValueError):
    """Two panel footprints would physically intersect."""


class PlacementInfeasible(RuntimeError):
    """Random placement could not satisfy the minimum spacing constraint."""


class LayoutFormatError(ValueError):
    """A layout file does not follow the nearlink-layout text format."""


class FieldRegion(Enum):
    """Coarse radiated-field classification for an aperture at a given range."""

    REACTIVE_NEAR = "reactive_near"
    RADIATIVE_NEAR = "radiative_near"
    FAR = "far"


@dataclass(frozen=True)
class PanelSpec:
    """Shape of one rectangular panel.

    Parameters
    ----------
    rows, cols : int
        Element grid dimensions, both at least 1.
    spacing : float
        Element pitch in meters, strictly positive. The same pitch applies to
        rows and columns.
    element_gain_dbi : float
        Gain of a single element, added on top of the array factor when
        patterns are evaluated. Elements are otherwise isotropic.
    """

    rows: int
    cols: int
    spacing: float
    element_gain_dbi: float = 0.0

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("panel needs at least a 1x1 element grid")
        if not np.isfinite(self.spacing) or self.spacing <= 0.0:
            raise ValueError("element spacing must be a positive finite number")
        if not np.isfinite(self.element_gain_dbi):
            raise ValueError("element gain must be finite")

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols

    @property
    def extent(self) -> float:
        """Diagonal of the panel footprint in meters."""
        return float(
            np.hypot((self.rows - 1) * self.spacing, (self.cols - 1) * self.spacing)
        )


class _PanelGrid(NamedTuple):
    positions: np.ndarray  # (panels, elements per panel, 3)
    centres: np.ndarray  # (panels, 3)
    offsets: np.ndarray  # (elements per panel, 3), shared by every panel
    gap: float  # largest distance of an element from centre + offset
    scale: float  # largest |centre + offset|


@dataclass(frozen=True, eq=False)
class ElementLayout:
    """Concrete element positions plus the panel spec they were built from.

    Attributes
    ----------
    positions : ndarray, shape (n, 3)
        Element coordinates in meters.
    panel_ids : ndarray, shape (n,)
        Which panel each element belongs to; ids are 0-based and contiguous.
    panel_spec : PanelSpec
        The per-panel grid description (also carries the element gain).
    """

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

    def panel_centers(self) -> np.ndarray:
        """Centroid of each panel, shape (n_panels, 3)."""
        centers = np.empty((self.n_panels, 3))
        for pid in range(self.n_panels):
            centers[pid] = self.positions[self.panel_ids == pid].mean(axis=0)
        return centers


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
    """Build a single uniform planar array.

    Parameters
    ----------
    spec : PanelSpec
        Grid shape and pitch.
    center : array-like, shape (3,)
        Centroid of the array in meters.

    Returns
    -------
    ElementLayout
        Row-major elements in the z-plane of ``center``, panel id 0.
    """
    center = np.asarray(center, dtype=np.float64)
    if center.shape != (3,):
        raise ValueError("center must be a 3-vector")
    positions = _grid_offsets(spec) + center
    return ElementLayout(positions, np.zeros(spec.n_elements, dtype=np.int64), spec)


def make_distributed_panels(spec: PanelSpec, panel_centers) -> ElementLayout:
    """Replicate one panel at each given center.

    Parameters
    ----------
    spec : PanelSpec
        Shared per-panel grid.
    panel_centers : array-like, shape (k, 3)
        Panel centroids in meters. Pairwise center distances must exceed the
        panel diagonal so footprints cannot overlap.

    Returns
    -------
    ElementLayout
        Panels concatenated in input order; element i of panel p is at
        ``panel_centers[p] + offset[i]`` with offsets identical across panels.

    Raises
    ------
    OverlappingPanels
        If any two centers are closer than the panel extent.
    """
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


def check_panel_overlap(spec: PanelSpec, panel_centers) -> None:
    """Raise :class:`OverlappingPanels` if two centers are no farther apart
    than the panel extent."""
    centers = np.asarray(panel_centers, dtype=np.float64)
    limit = spec.extent
    for i in range(len(centers)):
        d = np.linalg.norm(centers[i + 1 :] - centers[i], axis=1)
        if len(d) and d.min() <= limit:
            j = i + 1 + int(np.argmin(d))
            raise OverlappingPanels(
                f"panels {i} and {j} are {d.min():.6g} m apart; "
                f"panel extent is {limit:.6g} m"
            )


def random_panel_positions(
    aperture_x: float,
    aperture_y: float,
    n_panels: int,
    min_spacing: float,
    seed: int,
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
    seed : int
        Seed for the draw; identical inputs give identical output.

    Returns
    -------
    ndarray, shape (n_panels, 3)

    Raises
    ------
    PlacementInfeasible
        If the corners themselves violate ``min_spacing``, or a point fails
        the rejection test 10,000 times in a row.
    """
    if aperture_x <= 0.0 or aperture_y <= 0.0:
        raise ValueError("aperture sides must be positive")
    if n_panels < 1:
        raise ValueError("need at least one panel")
    if min_spacing < 0.0:
        raise ValueError("min_spacing must be non-negative")

    hx, hy = aperture_x / 2.0, aperture_y / 2.0
    corners = np.array(
        [[-hx, -hy, 0.0], [hx, -hy, 0.0], [-hx, hy, 0.0], [hx, hy, 0.0]]
    )
    taken = corners[: min(n_panels, 4)].copy()
    if len(taken) >= 2:
        for i in range(len(taken)):
            d = np.linalg.norm(taken[i + 1 :] - taken[i], axis=1)
            if len(d) and d.min() < min_spacing:
                raise PlacementInfeasible(
                    f"aperture corners are only {d.min():.6g} m apart, below the "
                    f"requested min spacing {min_spacing:.6g} m"
                )
    if n_panels <= 4:
        return taken

    rng = np.random.default_rng(seed)
    placed = list(taken)
    for _ in range(4, n_panels):
        for attempt in range(_PLACEMENT_ATTEMPT_CAP):
            cand = np.array([rng.uniform(-hx, hx), rng.uniform(-hy, hy), 0.0])
            d = np.linalg.norm(np.asarray(placed) - cand, axis=1)
            if d.min() >= min_spacing:
                placed.append(cand)
                break
        else:
            raise PlacementInfeasible(
                f"placed {len(placed)} of {n_panels} panels, then failed "
                f"{_PLACEMENT_ATTEMPT_CAP} consecutive draws at min spacing "
                f"{min_spacing:.6g} m in a {aperture_x:.6g} x {aperture_y:.6g} m aperture"
            )
    return np.asarray(placed)


def _max_pairwise_distance(points: np.ndarray) -> float:
    # Chunked exact scan of all pairs; quadratic.
    best = 0.0
    step = max(1, int(4_000_000 // max(len(points), 1)))
    for start in range(0, len(points), step):
        block = points[start : start + step]
        d2 = ((block[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
        best = max(best, float(d2.max()))
    return float(np.sqrt(best))


def aperture_extent(layout) -> float:
    """Largest pairwise element distance in meters.

    Accepts an :class:`ElementLayout` or a raw (n, 3) position array. A
    panel grid's convex hull is the rectangle on its four corner elements,
    so when a layout's panels sit on the shared grid to rounding only the
    corner elements are scanned. Otherwise every pair is.
    """
    points = np.asarray(getattr(layout, "positions", layout), dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError("expected an (n, 3) position array or an ElementLayout")
    if len(points) < 2:
        return 0.0
    grid = layout._panel_grid if isinstance(layout, ElementLayout) else None
    if grid is not None and grid.gap <= 4.0 * _UNIT_ROUNDOFF * grid.scale:
        spec = layout.panel_spec
        corners = sorted({0, spec.cols - 1, spec.n_elements - spec.cols, spec.n_elements - 1})
        points = grid.positions[:, corners].reshape(-1, 3)
    return _max_pairwise_distance(points)


def fresnel_distance(aperture: float, wavelength: float) -> float:
    """Inner edge of the radiative near field, ``0.62 * sqrt(d^3 / lambda)``."""
    _check_aperture_wavelength(aperture, wavelength)
    return 0.62 * np.sqrt(aperture**3 / wavelength)


def fraunhofer_distance(aperture: float, wavelength: float) -> float:
    """Far-field boundary ``2 d^2 / lambda``."""
    _check_aperture_wavelength(aperture, wavelength)
    return 2.0 * aperture**2 / wavelength


def field_region(aperture: float, wavelength: float, r: float) -> FieldRegion:
    """Classify range ``r`` relative to the aperture's field boundaries.

    Below the Fresnel distance the field is reactive; between Fresnel and
    Fraunhofer distances it is radiative near field (where wavefront curvature
    across the aperture is usable); beyond is far field.
    """
    if r < 0.0:
        raise ValueError("range must be non-negative")
    if r < fresnel_distance(aperture, wavelength):
        return FieldRegion.REACTIVE_NEAR
    if r < fraunhofer_distance(aperture, wavelength):
        return FieldRegion.RADIATIVE_NEAR
    return FieldRegion.FAR


def _check_aperture_wavelength(aperture: float, wavelength: float) -> None:
    if aperture <= 0.0 or not np.isfinite(aperture):
        raise ValueError("aperture must be positive and finite")
    if wavelength <= 0.0 or not np.isfinite(wavelength):
        raise ValueError("wavelength must be positive and finite")


def save_layout(layout: ElementLayout, path) -> None:
    """Write a layout as the line-oriented nearlink-layout text format.

    First line is the format header, one data line per element follows:
    ``panel_id x y z`` with full round-trip float precision. The panel spec is
    kept in a comment so a load reconstructs the layout exactly.
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


def load_layout(path) -> ElementLayout:
    """Read a layout written by :func:`save_layout`.

    Unknown comment lines are ignored. Without a panel-spec comment the layout
    is treated as bare single-element panels with 0 dBi elements.
    """
    with open(path, "r") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0].strip() != LAYOUT_HEADER:
        raise LayoutFormatError(f"missing '{LAYOUT_HEADER}' header line")

    spec = None
    ids, rows = [], []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# panel "):
                fields = dict(item.split("=", 1) for item in line[8:].split())
                spec = PanelSpec(
                    rows=int(fields["rows"]),
                    cols=int(fields["cols"]),
                    spacing=float(fields["spacing"]),
                    element_gain_dbi=float(fields["element_gain_dbi"]),
                )
            continue
        parts = line.split()
        if len(parts) != 4:
            raise LayoutFormatError(f"line {lineno}: expected 'panel_id x y z'")
        try:
            ids.append(int(parts[0]))
            rows.append([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise LayoutFormatError(f"line {lineno}: {exc}") from None
    if not rows:
        raise LayoutFormatError("layout file has no element lines")
    if spec is None:
        spec = PanelSpec(rows=1, cols=1, spacing=1.0, element_gain_dbi=0.0)
    return ElementLayout(np.asarray(rows), np.asarray(ids, dtype=np.int64), spec)
