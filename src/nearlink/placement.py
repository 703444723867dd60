"""Panel placement and grating-lobe control for sparse distributed arrays.

Panels sit many wavelengths apart, so a periodic arrangement re-coheres at
predictable angles and throws grating lobes as strong as the main beam.
Randomizing the placement spreads that energy into a low sidelobe floor; the
optimizer here is a seeded best-of-N search over random placements scored by
their worst sidelobe along a scan cut.

The search is exact but best-first (branch and bound; Land & Doig,
Econometrica 1960). A cheap screen over every 16th scan direction gives each
candidate a lower bound on its worst sidelobe; candidates are scored in full
in order of that bound, and the search stops once the next bound exceeds the
best score so far by a margin delta. Delta bounds the rounding gap between
the screen and the full score (about 2e-12 of the main lobe at the shipped
sizes), so a pruned candidate provably scores worse: the winner and its score
are those of scoring every candidate, bit for bit. Scan directions, shared by
screen and score, are built in one place (``_scan_offsets``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .beamforming import Direction, _unit_vectors
from .fileio import atomic_write_text, fmt
from .geometry import random_panel_positions
from .kernel import _UNIT_ROUNDOFF, _gamma, blocks, wavenumber

# Design target for an optimized placement's worst sidelobe. A K-panel random
# placement averages -10 log10(K) relative to the main lobe; -6 dB leaves
# headroom for peak statistics over the scan window at K = 16.
DESIGN_SIDELOBE_TARGET_DB = -6.0

# The search's screen scans every _SCREEN_STRIDE-th kept direction, in blocks
# of candidates whose temporaries (about _SCREEN_BYTES_PER_TERM bytes per
# panel and direction: phases, complex phasors, their exponentials) stay
# near _SCREEN_BLOCK_BYTES.
_SCREEN_STRIDE = 16
_SCREEN_BLOCK_BYTES = 1 << 20
_SCREEN_BYTES_PER_TERM = 40


def default_exclusion_halfwidth(aperture: float, wavelength: float) -> float:
    """Twice the null-to-null halfwidth of the filled-aperture main lobe."""
    if aperture <= 0.0 or wavelength <= 0.0:
        raise ValueError("aperture and wavelength must be positive")
    return 2.0 * wavelength / aperture


@dataclass(frozen=True)
class PlacementObjective:
    """Scan definition for scoring a placement's sidelobes.

    The placement factor is scanned over polar angles ``scan_range`` through
    the steering azimuth; samples within ``exclusion_halfwidth`` of the
    steering angle belong to the main lobe and are ignored.
    """

    steering: Direction
    exclusion_halfwidth: float
    scan_range: tuple
    n_scan: int

    def __post_init__(self):
        lo, hi = self.scan_range
        if not (np.isfinite(lo) and np.isfinite(hi)) or lo >= hi:
            raise ValueError("scan_range must be an increasing (lo, hi) pair")
        if not lo <= self.steering.theta <= hi:
            raise ValueError("steering angle must lie inside the scan range")
        if self.exclusion_halfwidth <= 0.0:
            raise ValueError("exclusion halfwidth must be positive")
        if self.exclusion_halfwidth >= (hi - lo) / 2.0:
            raise ValueError("exclusion zone swallows the whole scan range")
        if self.n_scan < 100:
            raise ValueError("n_scan must be at least 100")
        object.__setattr__(self, "scan_range", (float(lo), float(hi)))


@dataclass(frozen=True, eq=False)
class PlacementResult:
    """A search's winner. ``candidates_scored`` is how many candidates the
    search scored in full and ``prune_margin`` the margin delta it pruned
    with (see :func:`optimize_placement`); both are None for a result built
    by hand."""

    positions: np.ndarray
    peak_sidelobe_db: float
    seed: int
    candidates_evaluated: int
    candidates_scored: Optional[int] = None
    prune_margin: Optional[float] = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must be (k, 3)")
        if self.peak_sidelobe_db > 0.0:
            raise ValueError("peak sidelobe is relative to the main lobe; it cannot be positive")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)


def uniform_sparse_positions(aperture: float, n_panels: int, axis=(1.0, 0.0, 0.0)):
    """Evenly pitched centers spanning ``aperture`` along ``axis``, centered on the origin."""
    if aperture <= 0.0:
        raise ValueError("aperture must be positive")
    if n_panels < 2:
        raise ValueError("a uniform line needs at least two panels")
    axis = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(axis)
    if norm == 0.0 or not np.all(np.isfinite(axis)):
        raise ValueError("axis must be a nonzero finite vector")
    axis = axis / norm
    pitch = aperture / (n_panels - 1)
    steps = np.arange(n_panels) - (n_panels - 1) / 2.0
    return steps[:, None] * pitch * axis[None, :]


def _scan_offsets(objective: PlacementObjective) -> np.ndarray:
    """Kept scan directions minus the steering direction, shape (n_kept, 3).

    The scan samples ``objective.n_scan`` polar angles across ``scan_range``
    through the steering azimuth and drops those within the exclusion zone.
    Matched weights cancel the steering phase, so a placement factor only
    sees these offsets.
    """
    lo, hi = objective.scan_range
    thetas = np.linspace(lo, hi, objective.n_scan)
    keep = np.abs(thetas - objective.steering.theta) > objective.exclusion_halfwidth
    if not keep.any():
        raise ValueError("no scan samples outside the exclusion zone")
    units = _unit_vectors(thetas[keep], objective.steering.phi)
    return units - objective.steering.unit[None, :]


def peak_sidelobe(positions, wavelength: float, objective: PlacementObjective) -> float:
    """Worst placement-factor sidelobe in dB relative to the main lobe.

    The factor treats each panel center as a single matched-weight element
    steered at ``objective.steering``; the main-lobe reference is the exact
    on-focus value (the panel count), so the result never depends on whether
    the scan grid happens to sample the peak.
    """
    k = wavenumber(wavelength)
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 2:
        raise ValueError("positions must be (k, 3) with at least two panels")

    rel = _scan_offsets(objective)
    worst = 0.0
    for rows in blocks(len(rel), len(pos)):
        phase = (rel[rows] @ pos.T) * k
        mags = np.abs(np.exp(1j * phase).sum(axis=1))
        worst = max(worst, float(mags.max()))
    return 20.0 * np.log10(max(worst, 1e-300) / pos.shape[0])


def _screen_bounds(candidates: np.ndarray, rel: np.ndarray, k: float) -> np.ndarray:
    """Peak |sum_p exp(j k rel.p)| of each candidate over the directions ``rel``.

    ``candidates`` is (n_candidates, n_panels, 3). Candidates go through in
    blocks sized so that the block's temporaries stay near
    ``_SCREEN_BLOCK_BYTES``.
    """
    n_cand, n_panels, _ = candidates.shape
    block = max(1, _SCREEN_BLOCK_BYTES // (_SCREEN_BYTES_PER_TERM * n_panels * len(rel)))
    bounds = np.empty(n_cand)
    for start in range(0, n_cand, block):
        phase = (candidates[start : start + block] @ rel.T) * k
        bounds[start : start + block] = np.abs(np.exp(1j * phase).sum(axis=1)).max(axis=1)
    return bounds


def _prune_margin(rel: np.ndarray, candidates: np.ndarray, k: float) -> float:
    """Margin delta, per unit of main lobe, that makes screen pruning exact.

    A candidate whose screen bound exceeds the incumbent's amplitude by more
    than ``delta * n_panels`` scores strictly worse in dB under
    :func:`peak_sidelobe`. The three terms bound, per unit of main lobe:

    - the gap between the screen's phases and the scorer's: each side forms
      k * (rel . p) with a 3-term dot product and one product, so each is
      within gamma_4 * k * sum_c |rel_c p_c| of the exact phase (Higham,
      *Accuracy and Stability of Numerical Algorithms*, 3.1);
    - each side's exp (4u per component), summation over n panels in any
      order (gamma_{n-1} per component) and modulus (2u);
    - the dB round trip: the incumbent's amplitude is recovered from its dB
      score, and a worse amplitude must stay worse through log10 and the
      1e-300 floor of the score, where |log10(amplitude / n)| <= 300 + log10 n.
    """
    u = _UNIT_ROUNDOFF
    n = candidates.shape[1]
    # Bounds sum_c |rel_c p_c| for every kept direction and panel.
    reach = float(np.abs(rel).max(axis=0) @ np.abs(candidates).max(axis=(0, 1)))
    phase_gap = 2.0 * _gamma(4) * k * reach
    sum_gap = 3.0 * _gamma(n - 1) + 20.0 * u
    db_gap = 64.0 * u * (301.0 + np.log10(n))
    return float(phase_gap + sum_gap + db_gap)


def optimize_placement(
    aperture_x: float,
    aperture_y: float,
    n_panels: int,
    min_spacing: float,
    wavelength: float,
    objective: PlacementObjective,
    n_candidates: int,
    seed: int,
) -> PlacementResult:
    """Best-of-N random placement search, pruned best-first.

    Candidate i is drawn by :func:`random_panel_positions` with a child seed
    derived from ``(seed, i)``, so any one candidate can be regenerated
    without replaying the search; the lowest :func:`peak_sidelobe` wins,
    first drawn winning ties. One call draws all N candidates, each from its
    own child seed's stream, and gives each the placement that seed draws
    alone; if any seed fails, the search raises the
    :class:`~nearlink.geometry.PlacementInfeasible` of the first one.

    The search scores only the candidates that can win. A screen computes,
    for every candidate, its peak placement-factor amplitude over every
    ``_SCREEN_STRIDE``-th kept scan direction: a lower bound on the peak
    over all of them. Candidates are then scored in full in order of
    (bound, index), and the search stops at the first one whose bound exceeds
    the best amplitude so far by more than ``delta * n_panels``, delta being
    :func:`_prune_margin`, a bound on the rounding gap between screen and
    score. Every candidate left has a bound at least as high, so it scores
    strictly worse than the best: the winner and its score are the ones the
    full search over all N gives.
    """
    if n_candidates < 1:
        raise ValueError("need at least one candidate")
    child_seeds = np.random.SeedSequence(seed).generate_state(
        n_candidates, dtype=np.uint64
    )
    candidates = random_panel_positions(
        aperture_x, aperture_y, n_panels, min_spacing, child_seeds
    )
    k = wavenumber(wavelength)
    rel = _scan_offsets(objective)
    bounds = _screen_bounds(candidates, rel[::_SCREEN_STRIDE], k)
    margin = _prune_margin(rel, candidates, k)

    best, best_db, best_amp = -1, np.inf, np.inf
    scored = 0
    for i in np.argsort(bounds, kind="stable"):
        if bounds[i] > best_amp + margin * n_panels:
            break
        score = peak_sidelobe(candidates[i], wavelength, objective)
        scored += 1
        if score < best_db or (score == best_db and i < best):
            best, best_db = int(i), score
            best_amp = n_panels * 10.0 ** (score / 20.0)
    return PlacementResult(
        positions=candidates[best].copy(),
        peak_sidelobe_db=float(best_db),
        seed=seed,
        candidates_evaluated=n_candidates,
        candidates_scored=scored,
        prune_margin=margin,
    )


def write_placement_json(
    result: PlacementResult,
    objective: PlacementObjective,
    wavelength: float,
    path,
) -> None:
    """Summarize a search as deterministic JSON (positions included)."""
    payload = {
        "seed": result.seed,
        "candidates_evaluated": result.candidates_evaluated,
        "peak_sidelobe_db": result.peak_sidelobe_db,
        "wavelength_m": wavelength,
        "objective": {
            "steer_theta_rad": objective.steering.theta,
            "steer_phi_rad": objective.steering.phi,
            "exclusion_halfwidth_rad": objective.exclusion_halfwidth,
            "scan_range_rad": list(objective.scan_range),
            "n_scan": objective.n_scan,
        },
        "positions_m": [[float(v) for v in row] for row in result.positions],
    }
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


__all__ = [
    "DESIGN_SIDELOBE_TARGET_DB",
    "PlacementObjective",
    "PlacementResult",
    "default_exclusion_halfwidth",
    "uniform_sparse_positions",
    "peak_sidelobe",
    "optimize_placement",
    "write_placement_json",
]
