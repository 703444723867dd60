"""Panel shapes and placement checks without numpy, for the scenario parser
and :mod:`nearlink.geometry` alike. ``sqrt(dx*dx + dy*dy + dz*dz)`` and
``abs(complex(a, b))`` round as ``np.linalg.norm(axis=1)`` and ``np.hypot`` do."""

import math

from .record import Record


class OverlappingPanels(ValueError):
    """Two panel footprints would physically intersect."""


class PlacementInfeasible(RuntimeError):
    """Random placement could not satisfy the minimum spacing constraint."""


class PanelSpec(Record):
    """Shape of one rectangular panel: a ``rows`` x ``cols`` grid of elements,
    both at least 1, at one positive pitch ``spacing`` in meters along rows and
    columns. ``element_gain_dbi`` is one element's gain, added on top of the
    array factor when patterns are evaluated; elements are otherwise isotropic.
    """

    rows: int
    cols: int
    spacing: float
    element_gain_dbi: float = 0.0

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("panel needs at least a 1x1 element grid")
        if not math.isfinite(self.spacing) or self.spacing <= 0.0:
            raise ValueError("element spacing must be a positive finite number")
        if not math.isfinite(self.element_gain_dbi):
            raise ValueError("element gain must be finite")

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols

    @property
    def extent(self) -> float:
        """Diagonal of the panel footprint in meters."""
        try:
            return abs(complex((self.rows - 1) * self.spacing, (self.cols - 1) * self.spacing))
        except OverflowError:
            return math.inf


def _distance(a, b) -> float:
    dx, dy, dz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def close_pairs(panel_centers, limit: float) -> list:
    """``(i, d, j)`` with i < j for every two centres at distance d no more
    than ``limit`` (m), d as :func:`_distance` rounds it."""
    pts = getattr(panel_centers, "tolist", lambda: panel_centers)()
    if len(pts) < 2:
        return []
    # Only pairs within ``reach`` along the wider of x and y can be that
    # close: sqrt(fl(x*x)) == |x| for any x whose square does not underflow.
    reach = max(limit, 2.0**-500)
    axis = max((0, 1), key=lambda a: max(p[a] for p in pts) - min(p[a] for p in pts))
    order = sorted(range(len(pts)), key=lambda i: pts[i][axis])
    close = []
    for a, i in enumerate(order):
        for j in order[a + 1 :]:
            if pts[j][axis] - pts[i][axis] > reach:
                break
            lo, hi = min(i, j), max(i, j)
            d = _distance(pts[lo], pts[hi])
            if d <= limit:
                close.append((lo, d, hi))
    return close


def check_panel_overlap(spec: PanelSpec, panel_centers) -> None:
    """Raise :class:`OverlappingPanels` if two centers are no farther apart
    than the panel extent. The error names the first panel i with a later
    panel that close, and the nearest such panel, the first on ties."""
    close = close_pairs(panel_centers, spec.extent)
    if close:
        i, d, j = min(close)  # the first i, then its nearest j, the first on ties
        raise OverlappingPanels(
            f"panels {i} and {j} are {d:.6g} m apart; panel extent is {spec.extent:.6g} m"
        )


def aperture_corners(aperture_x: float, aperture_y: float) -> list:
    """The four corners of an aperture centered on the origin at z = 0, in
    the order :func:`nearlink.geometry.random_panel_positions` places them."""
    hx, hy = aperture_x / 2.0, aperture_y / 2.0
    return [(-hx, -hy, 0.0), (hx, -hy, 0.0), (-hx, hy, 0.0), (hx, hy, 0.0)]


def check_corner_spacing(
    aperture_x: float, aperture_y: float, n_panels: int, min_spacing: float
) -> None:
    """Raise :class:`PlacementInfeasible` if the aperture corners that
    :func:`nearlink.geometry.random_panel_positions` places first sit closer
    than ``min_spacing``."""
    taken = aperture_corners(aperture_x, aperture_y)[: min(n_panels, 4)]
    for i in range(len(taken) - 1):
        d = min(_distance(taken[i], b) for b in taken[i + 1 :])
        if d < min_spacing:
            raise PlacementInfeasible(
                f"aperture corners are only {d:.6g} m apart, below the "
                f"requested min spacing {min_spacing:.6g} m"
            )


def check_packing(
    aperture_x: float, aperture_y: float, n_panels: int, min_spacing: float
) -> None:
    """Raise :class:`PlacementInfeasible` if ``n_panels`` centres at least
    ``min_spacing`` apart cannot fit in the aperture at all.

    Disks of radius ``min_spacing / 2`` around such centres do not overlap,
    and they lie inside the aperture grown by that radius on every side, so
    their total area cannot exceed that box's.
    """
    disks = n_panels * math.pi * (min_spacing / 2.0) ** 2
    box = (aperture_x + min_spacing) * (aperture_y + min_spacing)
    if disks > box:
        raise PlacementInfeasible(
            f"{n_panels} panels at least {min_spacing:.6g} m apart need {disks:.6g} m^2 "
            f"of disks that wide, more than the {box:.6g} m^2 of the aperture grown "
            f"by {min_spacing / 2.0:.6g} m on every side"
        )
