"""Seeded scenario generation for the three benchmark workloads.

Each workload is one scenario file, written from ``--seed`` alone, so two runs
with the same seed feed the program byte-identical input. The seed moves the
geometry (panel centres, focus, sweep reference range, scan azimuth) but never
the amount of work, so timings from different seeds are comparable.

Why these three:

- ``beam_map``: one large near-field gain map. Almost all of the run is a
  single ``gain_pattern_sweep`` over 16 384 elements; no channel, spectrum or
  placement work happens. A near-field kernel change shows here.
- ``dof_sweep``: a DoF-versus-range sweep. Each range point builds one
  16 x 16 384 channel matrix and one spectrum: many medium-sized calls, with
  beamforming idle. A channel or spectrum (LAPACK) change shows here.
- ``placement_search``: a best-of-N placement search over thousands of cheap
  candidates (16 panel centres each), so per-call Python overhead dominates.
  A placement change shows here, and a kernel tuned for the big beam map can
  get slower here.

Ground panel centres are drawn here, not by the program, and written out as
``positions_m``; the oracles then know the exact geometry without asking the
program under test for it.
"""

from __future__ import annotations

import json
import math

import numpy as np

SPEED_OF_LIGHT = 299792458.0
FREQUENCY_HZ = 28.0e9
WAVELENGTH_M = SPEED_OF_LIGHT / FREQUENCY_HZ

WORKLOADS = ("beam_map", "dof_sweep", "placement_search")

# Field of the shipped distributed-station scenarios.
APERTURE_X_M = 1414.0
APERTURE_Y_M = 1000.0
MIN_SPACING_M = 50.0
ELEMENT_GAIN_DBI = 6.0

# Work sizes. "full" aims at about two seconds of solve time per CLI run on a
# 2-core machine; "smoke" is for the benchmark's own tests.
SIZES = {
    "full": {
        "panel": 32,
        "n_panels": 16,
        "n_theta": 41,
        "n_ranges_map": 21,
        "sat_grid": 4,
        "n_ranges_dof": 25,
        "n_candidates": 750,
        "n_scan": 2001,
    },
    "smoke": {
        "panel": 4,
        "n_panels": 6,
        "n_theta": 5,
        "n_ranges_map": 4,
        "sat_grid": 4,
        "n_ranges_dof": 4,
        "n_candidates": 12,
        "n_scan": 201,
    },
}


def draw_centres(rng, aperture_x, aperture_y, n_panels, min_spacing):
    """Corners first, then uniform rejection sampling at ``min_spacing``."""
    hx, hy = aperture_x / 2.0, aperture_y / 2.0
    placed = [(-hx, -hy), (hx, -hy), (-hx, hy), (hx, hy)][:n_panels]
    while len(placed) < n_panels:
        x, y = rng.uniform(-hx, hx), rng.uniform(-hy, hy)
        gap = min(math.sqrt((x - px) ** 2 + (y - py) ** 2) for px, py in placed)
        if gap >= min_spacing:
            placed.append((x, y))
    return [[float(x), float(y), 0.0] for x, y in placed]


def _ground(rng, size):
    return {
        "kind": "distributed",
        "panel": {
            "rows": size["panel"],
            "cols": size["panel"],
            "spacing_wavelengths": 0.5,
            "element_gain_dbi": ELEMENT_GAIN_DBI,
        },
        "positions_m": draw_centres(
            rng, APERTURE_X_M, APERTURE_Y_M, size["n_panels"], MIN_SPACING_M
        ),
    }


def satellite_mount(n):
    """``n`` x ``n`` element grid on the 1.414 m x 1 m ``dof_vs_range`` mount."""
    xs = np.linspace(-0.707, 0.707, n)
    ys = np.linspace(-0.5, 0.5, n)
    return [[float(x), float(y)] for y in ys for x in xs]


def make_scenario(workload, seed, size="full"):
    """Scenario mapping for ``workload``, determined by ``seed`` alone."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sz = SIZES[size]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    doc = {"version": 1, "frequency_hz": FREQUENCY_HZ}
    if workload == "beam_map":
        doc["ground"] = _ground(rng, sz)
        doc["satellite"] = {
            "range_m": float(rng.uniform(400.0e3, 600.0e3)),
            "off_nadir_deg": float(rng.uniform(0.0, 10.0)),
            "panel": {"rows": 1, "cols": 1, "spacing_wavelengths": 0.5},
        }
        doc["analysis"] = {
            "kind": "beam_map",
            "range_start_m": 250.0e3,
            "range_stop_m": 1000.0e3,
            "n_ranges": sz["n_ranges_map"],
            "spacing": "log",
            "halfwidth_deg": 0.01,
            "n_theta": sz["n_theta"],
        }
    elif workload == "dof_sweep":
        doc["ground"] = _ground(rng, sz)
        doc["satellite"] = {
            "range_m": float(rng.uniform(300.0e3, 600.0e3)),
            "off_nadir_deg": 0.0,
            "positions_m": satellite_mount(sz["sat_grid"]),
        }
        doc["analysis"] = {
            "kind": "dof_sweep",
            "range_start_m": 100.0e3,
            "range_stop_m": 3000.0e3,
            "n_ranges": sz["n_ranges_dof"],
            "spacing": "log",
            "tau": 0.1,
        }
    else:
        doc["analysis"] = {
            "kind": "optimize_placement",
            "aperture_x_m": APERTURE_X_M,
            "aperture_y_m": APERTURE_Y_M,
            "n_panels": 16,
            "min_spacing_m": MIN_SPACING_M,
            "n_candidates": sz["n_candidates"],
            "seed": int(rng.integers(0, 2**31)),
            "scan_halfwidth_rad": 2.5e-4,
            "n_scan": sz["n_scan"],
            "steer_theta_rad": 0.0,
            # Off the field axes: an axis-aligned cut sees the corner panels
            # re-cohere and scores every candidate alike.
            "steer_phi_rad": float(rng.uniform(0.2, 1.3)),
        }
    return doc


def scenario_text(doc):
    """Scenario file text. JSON is a subset of the YAML the program reads."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
