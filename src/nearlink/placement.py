"""Panel placement and grating-lobe control for sparse distributed arrays.

Panels sit many wavelengths apart, so a periodic arrangement re-coheres at
predictable angles and throws grating lobes as strong as the main beam.
Randomizing the placement spreads that energy into a low sidelobe floor; the
optimizer here is a seeded best-of-N search over random placements scored by
their worst sidelobe along a scan cut.

The search is exact but best-first (branch and bound; Land & Doig,
Econometrica 1960), and it works in two precisions. The score,
:func:`peak_sidelobe`, sums complex128 phasors through the exact kernel of
:mod:`nearlink.kernel`; the screen, :func:`_screen_peaks`, sums float32 cos
and sin of the same float64 phases in float64. A screen peak is within n E of
the score's amplitude over the same directions, for n panels and E from
:func:`_prune_margin`. A coarse screen over every 64th kept scan direction
orders the candidates; the walk screens each one it reaches again over every
16th direction and then over all of them, and stops or skips where a screen
peak exceeds the best full screen peak so far by more than 2 n E. Only the
walked candidates whose full screen peak is within 2 n E of the best are
scored, and the lowest score wins. Every candidate left out scores strictly
worse than one that is scored, so the winner and its score are those of
scoring every candidate, bit for bit. The search checks the bound on every
scored candidate and raises if a screen peak is off by more. Scan directions,
shared by screens and score, are built in one place (``_scan_offsets``).
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from .fileio import atomic_write_text, fmt
from .geometry import random_panel_positions
from .kernel import _UNIT_ROUNDOFF, _exact_sums, _gamma, blocks, unit_vectors, wavenumber
from .objective import Direction, PlacementObjective, default_exclusion_halfwidth  # noqa: F401
from .record import Record

# The search's fine screen scans every _SCREEN_STRIDE-th kept direction and
# its coarse screen every fourth of those, in blocks of candidates whose
# temporaries (about _SCREEN_BYTES_PER_TERM bytes per panel and direction:
# float64 phases, their float32 cast, its cos and its sin) stay near
# _SCREEN_BLOCK_BYTES.
_SCREEN_STRIDE = 16
_SCREEN_BLOCK_BYTES = 1 << 20
_SCREEN_BYTES_PER_TERM = 20
# Unit roundoff of float32, and the error assumed of numpy's float32 cos and
# sin, per component, against the exact cos and sin of their float32
# argument (tests/test_placement.py holds a numpy build to it).
_F32_ROUNDOFF = 2.0**-24
_F32_TRIG_ERROR = 2.0 * _F32_ROUNDOFF
# Screen phases are clipped to this magnitude before the float32 cast, so
# the cast never overflows; a clip only happens where the cast term of
# _prune_margin alone exceeds 2, the most any two unit phasors differ by.
_F32_PHASE_CEILING = 2.0**127


class PlacementResult(Record, eq=False):
    """A search's winner. ``candidates_scored`` is how many candidates the
    search scored exactly with :func:`peak_sidelobe`, ``prune_margin`` the
    bound E it pruned with (see :func:`_prune_margin`) and ``screen_exps``
    how many float32 phasors its screens formed, candidates x panels x
    directions over every level (see :func:`optimize_placement`); all three
    are None for a result built by hand."""

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
        if not self.peak_sidelobe_db <= 0.0:
            raise ValueError("peak sidelobe is relative to the main lobe: at most 0 dB, not NaN")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)


def uniform_sparse_positions(aperture: float, n_panels: int):
    """Evenly pitched centers spanning ``aperture`` along x, centered on the origin."""
    if aperture <= 0.0:
        raise ValueError("aperture must be positive")
    if n_panels < 2:
        raise ValueError("a uniform line needs at least two panels")
    pitch = aperture / (n_panels - 1)
    steps = np.arange(n_panels) - (n_panels - 1) / 2.0
    return steps[:, None] * pitch * np.array([1.0, 0.0, 0.0])


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
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 2:
        raise ValueError("positions must be (k, 3) with at least two panels")
    if not np.isfinite(pos).all():
        raise ValueError("positions must be finite")
    n = pos.shape[0]
    factor = _exact_sums(pos, np.ones(n), _scan_offsets(objective), True, wavelength)
    worst = float(np.abs(factor).max())
    return 20.0 * np.log10(min(max(worst, 1e-300), n) / n)


def _screen_peaks(candidates: np.ndarray, rel: np.ndarray, k: float) -> np.ndarray:
    """Peak |sum_p exp(j k rel.p)| of each candidate over the directions
    ``rel``, from float32 phasors.

    ``candidates`` is (n_candidates, n_panels, 3). The phases are formed in
    float64, as the score forms them, and cast to float32 (clipped to
    ``_F32_PHASE_CEILING`` first); their float32 cos and sin are summed over
    the panels in float64, and the peak is the root of the largest squared
    modulus (``np.hypot`` per direction costs several times more, for no
    gain within the bound). Each peak is within ``n_panels`` times
    :func:`_prune_margin` of the score's amplitude over the same directions.
    Candidates go through in blocks sized so that the block's temporaries
    stay near ``_SCREEN_BLOCK_BYTES``.
    """
    n_cand, n_panels, _ = candidates.shape
    peaks = np.empty(n_cand)
    width = _SCREEN_BYTES_PER_TERM * n_panels * len(rel)
    for block in blocks(n_cand, width, _SCREEN_BLOCK_BYTES):
        phase = candidates[block] @ rel.T
        phase *= k
        np.clip(phase, -_F32_PHASE_CEILING, _F32_PHASE_CEILING, out=phase)
        phase = phase.astype(np.float32)
        re = np.cos(phase).sum(axis=1, dtype=np.float64)
        im = np.sin(phase).sum(axis=1, dtype=np.float64)
        peaks[block] = np.sqrt((re * re + im * im).max(axis=1))
    return peaks


def _prune_margin(rel: np.ndarray, candidates: np.ndarray, k: float) -> float:
    """E: per unit of main lobe, a bound on the gap between a screen peak of
    :func:`_screen_peaks` and the amplitude :func:`peak_sidelobe` scores
    over the same directions, read back from its dB score.

    Two candidates whose screen peaks are more than ``2 E n_panels`` apart
    score apart, the higher one strictly worse, unless both score 0 dB. The
    terms bound, per unit of main lobe:

    - the gap between a screen's float64 phases and the scorer's: each side
      forms k * (rel . p) with a 3-term dot product and one product, so each
      is within gamma_4 * k * sum_c |rel_c p_c| of the exact phase (Higham,
      *Accuracy and Stability of Numerical Algorithms*, 3.1);
    - the float32 cast of the screen's phases, a relative 2^-24 (a phasor
      moves by at most its phase's move; past the clip the term exceeds 2);
    - float32 cos and sin, ``_F32_TRIG_ERROR`` per component;
    - each side's sum over n panels in float64 in any order (gamma_{n-1} per
      component), the scorer's exp (4u per component) and either modulus;
    - the dB round trip: the scored amplitude is read back from its dB
      score, and a worse amplitude must stay worse through log10 and the
      1e-300 floor of the score, where |log10(amplitude / n)| <= 300 + log10 n.
    """
    u = _UNIT_ROUNDOFF
    n = candidates.shape[1]
    # Bounds sum_c |rel_c p_c| for every kept direction and panel; reducing
    # the two panel axes one at a time is ten times faster than at once.
    reach = float(np.abs(rel).max(axis=0) @ np.abs(candidates).max(axis=0).max(axis=0))
    phase_gap = 2.0 * _gamma(4) * k * reach
    cast_gap = _F32_ROUNDOFF * (1.0 + _gamma(4)) * k * reach
    trig_gap = 2.0 * _F32_TRIG_ERROR
    sum_gap = 3.0 * _gamma(n - 1) + 20.0 * u
    db_gap = 64.0 * u * (301.0 + np.log10(n))
    return float(phase_gap + cast_gap + trig_gap + sum_gap + db_gap)


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

    The search scores only the candidates that can win. A float32 screen
    (:func:`_screen_peaks`) computes, for every candidate, its peak
    placement-factor amplitude over every ``4 * _SCREEN_STRIDE``-th kept
    scan direction. Candidates are walked in order of (coarse peak, index),
    and the walk stops at the first one whose coarse peak exceeds the best
    full peak so far by more than the slack ``2 E n_panels``, E being
    :func:`_prune_margin`. Each candidate the walk reaches is screened over
    every ``_SCREEN_STRIDE``-th direction and skipped if that peak exceeds
    the same cutoff; otherwise it is screened over every kept direction,
    its full peak. The finalists are the walked candidates whose full peak
    is within the slack of the best; each is scored in float64, and the
    lowest score wins, the lower index on ties. A screen peak over a subset
    of the directions is within ``E n_panels`` of the score's amplitude
    over that subset, which is at most the amplitude scored, so every
    candidate skipped, stopped at or not a finalist scores strictly worse
    than the finalist with the best full peak. If the best score is 0 dB,
    where scores clamp and tie, every candidate is scored. The winner and
    its score are the ones the full search over all N gives.

    The search holds the bound at run time: a finalist whose full peak is
    more than ``E n_panels`` from its scored amplitude raises RuntimeError.
    ``screen_exps`` counts the float32 phasors the screens formed,
    candidates x panels x directions over every level.
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
    margin = _prune_margin(rel, candidates, k)
    slack = 2.0 * margin * n_panels
    coarse_peaks = _screen_peaks(candidates, coarse, k)
    screen_exps = n_candidates * n_panels * len(coarse)

    peaks = {}
    best_peak = np.inf
    for i in np.argsort(coarse_peaks, kind="stable"):
        if coarse_peaks[i] > best_peak + slack:
            break
        screen_exps += n_panels * len(fine)
        if _screen_peaks(candidates[i : i + 1], fine, k)[0] > best_peak + slack:
            continue
        screen_exps += n_panels * len(rel)
        peaks[int(i)] = peak = _screen_peaks(candidates[i : i + 1], rel, k)[0]
        best_peak = min(best_peak, peak)

    def score(i):
        return peak_sidelobe(candidates[i], wavelength, objective)

    scores = {i: score(i) for i, peak in peaks.items() if peak <= best_peak + slack}
    for i in scores:
        gap = abs(peaks[i] - n_panels * 10.0 ** (scores[i] / 20.0))
        if not gap <= margin * n_panels:
            raise RuntimeError(
                f"float32 screen peak of candidate {i} is {gap:.3g} from its score's "
                f"amplitude, past the bound {margin * n_panels:.3g}; numpy "
                f"{np.__version__}'s float32 cos or sin breaks the error the search assumes"
            )
    # At 0 dB scores clamp and tie, and the lowest index of all must win.
    if min(scores.values()) == 0.0:
        scores.update((i, score(i)) for i in range(n_candidates) if i not in scores)
    best = min(scores, key=lambda i: (scores[i], i))
    return PlacementResult(
        positions=candidates[best].copy(),
        peak_sidelobe_db=float(scores[best]),
        seed=seed,
        candidates_evaluated=n_candidates,
        candidates_scored=len(scores),
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
    atomic_write_text(path, [json.dumps(payload, indent=2, sort_keys=True)])


__all__ = [
    "PlacementObjective",
    "PlacementResult",
    "default_exclusion_halfwidth",
    "uniform_sparse_positions",
    "peak_sidelobe",
    "optimize_placement",
    "write_placement_json",
]
