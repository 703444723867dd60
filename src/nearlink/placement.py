"""Panel placement and grating-lobe control for sparse distributed arrays.

Panels sit many wavelengths apart, so a periodic arrangement re-coheres at
predictable angles and throws grating lobes as strong as the main beam.
Randomizing the placement spreads that energy into a low sidelobe floor; the
optimizer here is a seeded best-of-N search over random placements scored by
their worst sidelobe along a scan cut.

The search is exact but best-first (branch and bound; Land & Doig,
Econometrica 1960), with a screen on two levels. A coarse screen over every
64th kept scan direction gives each candidate a lower bound on its worst
sidelobe, and candidates are walked in order of that bound. Each one the walk
reaches is screened again over every 16th direction, a tighter lower bound,
and scored in full only if that bound too is within a margin delta of the
best score so far; the walk stops at the first coarse bound past it. Both
screens take a maximum over a subset of the directions the score scans, with
the same phase expression, and delta bounds the rounding gap between either
screen and the full score, in any summation order (about 2e-12 of the main
lobe at the shipped sizes). The best score only falls, so a candidate pruned
at either level provably scores worse: the winner and its score are those of
scoring every candidate, bit for bit. Scan directions, shared by screens and
score, are built in one place (``_scan_offsets``), and the phasors of the
aperture corners, shared by every drawn candidate, are formed once per screen
level and search.
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from .fileio import atomic_write_text, fmt
from .geometry import random_panel_positions
from .kernel import _UNIT_ROUNDOFF, _gamma, blocks, unit_vectors, wavenumber
from .objective import Direction, PlacementObjective, default_exclusion_halfwidth  # noqa: F401
from .record import Record

# The search's fine screen scans every _SCREEN_STRIDE-th kept direction and
# its coarse screen every fourth of those, in blocks of candidates whose
# temporaries (about _SCREEN_BYTES_PER_TERM bytes per panel and direction:
# phases, complex phasors, their exponentials) stay near _SCREEN_BLOCK_BYTES.
_SCREEN_STRIDE = 16
_SCREEN_BLOCK_BYTES = 1 << 20
_SCREEN_BYTES_PER_TERM = 40


class PlacementResult(Record, eq=False):
    """A search's winner. ``candidates_scored`` is how many candidates the
    search scored in full, ``prune_margin`` the margin delta it pruned with
    and ``screen_exps`` how many terms its screens summed, candidates x
    panels x directions over both levels (see :func:`optimize_placement`);
    all three are None for a result built by hand."""

    positions: np.ndarray
    peak_sidelobe_db: float
    seed: int
    candidates_evaluated: int
    candidates_scored: Optional[int] = None
    prune_margin: Optional[float] = None
    screen_exps: Optional[int] = None

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
    units = unit_vectors(thetas[keep], objective.steering.phi)
    return units - objective.steering.unit[None, :]


def peak_sidelobe(positions, wavelength: float, objective: PlacementObjective) -> float:
    """Worst placement-factor sidelobe in dB relative to the main lobe.

    The factor treats each panel center as a single matched-weight element
    steered at ``objective.steering``; the main-lobe reference is the exact
    on-focus value (the panel count), so the result never depends on whether
    the scan grid happens to sample the peak; a sum that rounds above it, in
    a scan that reaches into the main lobe, reads 0 dB.
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
    return 20.0 * np.log10(min(max(worst, 1e-300), pos.shape[0]) / pos.shape[0])


def _shared_head(candidates: np.ndarray, rel: np.ndarray, k: float):
    """``(m, head)``: the first m rows that every candidate shares, at most
    four and fewer than all (a search's aperture corners), and ``head``, the
    sum of their phasors along each direction of ``rel``, in row order.

    The phases come from the first candidate's rows of the product
    :func:`_screen_bounds` forms, so they are bit for bit the ones it would
    form for any candidate.
    """
    m = 0
    while m < min(candidates.shape[1] - 1, 4) and (candidates[:, m] == candidates[0, m]).all():
        m += 1
    phase = (candidates[:1] @ rel.T)[0, :m] * k
    return m, np.exp(1j * phase).sum(axis=0)


def _screen_bounds(candidates: np.ndarray, rel: np.ndarray, k: float, head=None) -> np.ndarray:
    """Peak |sum_p exp(j k rel.p)| of each candidate over the directions ``rel``.

    ``candidates`` is (n_candidates, n_panels, 3). ``head`` is the
    :func:`_shared_head` of the stack they come from (by default, of
    ``candidates``): its sum stands in for the shared rows' phasors, and the
    other rows are added to it one at a time, the order a sum over every row
    takes, so the bounds are those of forming every phasor, bit for bit.
    Candidates go through in blocks sized so that the block's temporaries
    stay near ``_SCREEN_BLOCK_BYTES``.
    """
    m, shared = _shared_head(candidates, rel, k) if head is None else head
    n_cand, n_panels, _ = candidates.shape
    block = max(1, _SCREEN_BLOCK_BYTES // (_SCREEN_BYTES_PER_TERM * n_panels * len(rel)))
    bounds = np.empty(n_cand)
    for start in range(0, n_cand, block):
        phase = (candidates[start : start + block] @ rel.T) * k
        terms = np.exp(1j * phase[:, m:])
        terms[:, 0] += shared
        bounds[start : start + block] = np.abs(terms.sum(axis=1)).max(axis=1)
    return bounds


def _prune_margin(rel: np.ndarray, candidates: np.ndarray, k: float) -> float:
    """Margin delta, per unit of main lobe, that makes screen pruning exact.

    A candidate whose screen bound exceeds the incumbent's amplitude by more
    than ``delta * n_panels`` scores strictly worse in dB under
    :func:`peak_sidelobe`. The three terms bound, per unit of main lobe:

    - the gap between a screen's phases and the scorer's: each side forms
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

    The search scores only the candidates that can win. A coarse screen
    computes, for every candidate, its peak placement-factor amplitude over
    every ``4 * _SCREEN_STRIDE``-th kept scan direction: a lower bound on the
    peak over all of them. Candidates are walked in order of (coarse bound,
    index), and the walk stops at the first one whose bound exceeds the best
    amplitude so far by more than ``delta * n_panels``, delta being
    :func:`_prune_margin`, a bound on the rounding gap between a screen and
    the score. Each candidate the walk reaches is screened again over every
    ``_SCREEN_STRIDE``-th direction and skipped if that bound exceeds the
    same cutoff; otherwise it is scored in full. Both bounds are maxima over
    subsets of the scored directions, so a skipped candidate, and every one
    after the stop, scores strictly worse than the best: the winner and its
    score are the ones the full search over all N gives. ``screen_exps``
    counts the terms both screens summed, candidates x panels x directions;
    the phasors of the corners every candidate shares are formed once per
    search and level, so fewer phasors than that are formed.
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
    fine = rel[::_SCREEN_STRIDE]
    coarse = rel[:: 4 * _SCREEN_STRIDE]
    bounds = _screen_bounds(candidates, coarse, k)
    fine_head = _shared_head(candidates, fine, k)
    margin = _prune_margin(rel, candidates, k)
    screen_exps = n_candidates * n_panels * len(coarse)

    best, best_db, best_amp = -1, np.inf, np.inf
    scored = 0
    for i in np.argsort(bounds, kind="stable"):
        # At 0 dB no score is worse, and any candidate ties the best.
        cutoff = best_amp + margin * n_panels if best_db < 0.0 else np.inf
        if bounds[i] > cutoff:
            break
        screen_exps += n_panels * len(fine)
        if _screen_bounds(candidates[i : i + 1], fine, k, fine_head)[0] > cutoff:
            continue
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
        screen_exps=screen_exps,
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
    "PlacementObjective",
    "PlacementResult",
    "default_exclusion_halfwidth",
    "uniform_sparse_positions",
    "peak_sidelobe",
    "optimize_placement",
    "write_placement_json",
]
