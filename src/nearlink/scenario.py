"""Running scenarios: the layouts a scenario describes, and one runner per
analysis kind. The parse API of :mod:`nearlink.schema` is re-exported here."""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np

from . import beamforming, mimo, placement
# ``channel_matrix`` is not called here since sweeps go through
# ``mimo.link_spectra``; the name stays because the benchmark's traced run
# (perfbench/traced_run.py) times channel builds by wrapping it.
from .kernel import channel_matrix  # noqa: F401
from .fileio import atomic_write_text
from .geometry import ElementLayout, PanelSpec, make_distributed_panels, make_upa
from .geometry import random_panel_positions, save_layout
from .schema import *  # noqa: F401,F403  the parse API, re-exported
from .schema import _CLOSED_FORMS, _panel_spec, _placement_objective


@dataclass(frozen=True)
class RunReport:
    """What a run did. ``details`` holds the report lines that depend on the
    analysis kind, in print order, from line name to value: the kernel of a
    beam sweep or of a sweep's channel matrices with its error bound (the
    worst over the ranges, ``exact`` if any range needed the exact kernel),
    and a placement search's counts of candidates scored and phasors
    screened with the margin it pruned by, per unit of main lobe."""

    scenario_hash: str
    wall_time_s: float
    output_files: tuple
    key_scalars: dict
    details: dict


def build_ground_layout(s: Scenario) -> ElementLayout:
    """Materialize the ground section as element positions."""
    if s.ground is None:
        raise ValidationError("this analysis needs a 'ground' section")
    spec = _panel_spec(s.ground.panel, s.wavelength)
    if s.ground.kind == "upa":
        return make_upa(spec)
    if s.ground.random is not None:
        r = s.ground.random
        centers = random_panel_positions(
            r.aperture_x_m, r.aperture_y_m, r.n_panels, r.min_spacing_m, r.seed
        )
    else:
        centers = np.asarray(s.ground.positions_m, dtype=np.float64)
    return make_distributed_panels(spec, centers)


def build_satellite_layout(s: Scenario, range_m=None) -> ElementLayout:
    """Materialize the satellite at its (range, off-nadir) position.

    The array plane stays parallel to the ground plane; its centroid sits at
    ``range * (sin off_nadir, 0, cos off_nadir)``. ``range_m`` overrides the
    scenario's reference range (used by range sweeps).
    """
    if s.satellite is None:
        raise ValidationError("this analysis needs a 'satellite' section")
    sat = s.satellite
    r = sat.range_m if range_m is None else float(range_m)
    theta = np.deg2rad(sat.off_nadir_deg)
    center = r * np.array([np.sin(theta), 0.0, np.cos(theta)])
    if sat.panel is not None:
        return make_upa(_panel_spec(sat.panel, s.wavelength), center)
    offsets = np.asarray(sat.positions_m, dtype=np.float64)
    offsets = offsets - offsets.mean(axis=0)
    spec = PanelSpec(1, 1, 1.0, sat.element_gain_dbi)
    ids = np.arange(len(offsets), dtype=np.int64)
    return ElementLayout(offsets + center, ids, spec)


# ----- running -----


def _range_axis(ana):
    if ana.spacing == "log":
        return np.geomspace(ana.range_start_m, ana.range_stop_m, ana.n_ranges)
    return np.linspace(ana.range_start_m, ana.range_stop_m, ana.n_ranges)


# Each runner writes its analysis' outputs and returns the RunReport fields
# that depend on the kind: the files, the key scalars and the details.


def _run_closed_form(s, outdir, tag):
    _, name, keys = _CLOSED_FORMS[analysis_kind(s.analysis)]
    payload = closed_form(s.analysis, s.wavelength)
    path = os.path.join(outdir, name)
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    scalars = {k: payload[k] for k in keys}
    return {"output_files": (path,), "key_scalars": scalars, "details": {}}


def _run_sweep(s, outdir, tag):
    ana, lam = s.analysis, s.wavelength
    ground = build_ground_layout(s)
    ranges = _range_axis(ana)
    # The reference range last, in the same batched pass as the sweep.
    sats = [build_satellite_layout(s, range_m=float(r)) for r in ranges]
    sats.append(build_satellite_layout(s))
    spectra, kernels = zip(*mimo.link_spectra([(sat, ground) for sat in sats], lam))
    path = os.path.join(outdir, "spectrum.csv")
    mimo.write_spectrum_csv(
        path, ranges, spectra[:-1], ana.tau, metadata={"scenario": tag, "wavelength_m": lam}
    )
    ref_spec = spectra[-1]
    scalars = {
        "dof_at_reference_range": float(mimo.dof_count(ref_spec, ana.tau)),
        "ratio_at_reference_range": mimo.condition_ratio(ref_spec),
    }
    details = {
        "channel_kernel": "exact" if beamforming.EXACT_KERNEL in kernels else "panel_factorized",
        "channel_kernel_bound_rad": max(k.bound_rad for k in kernels),
    }
    return {"output_files": (path,), "key_scalars": scalars, "details": details}


def _run_beam(s, outdir, tag):
    # A theta axis where the analysis has a halfwidth, a range axis where it
    # has a range span; the sweep fixes whichever axis is missing.
    ana, lam = s.analysis, s.wavelength
    ground = build_ground_layout(s)
    sat = build_satellite_layout(s)
    focus = beamforming.Point(sat.positions.mean(axis=0))
    weights = beamforming.delay_and_sum_weights(ground, focus, lam)
    steer_theta = np.deg2rad(s.satellite.off_nadir_deg)
    thetas = ranges = None
    if hasattr(ana, "halfwidth_deg"):
        hw = np.deg2rad(ana.halfwidth_deg)
        thetas = np.linspace(steer_theta - hw, steer_theta + hw, ana.n_theta)
    if hasattr(ana, "range_start_m"):
        ranges = _range_axis(ana)
    grid = beamforming.gain_pattern_sweep(
        ground,
        weights,
        lam,
        thetas=thetas,
        ranges=ranges,
        fixed_range=s.satellite.range_m,
        fixed_theta=steer_theta,
    )
    path = os.path.join(outdir, f"gain_{analysis_kind(ana).removeprefix('beam_')}.csv")
    beamforming.write_gain_csv(grid, path, metadata={"scenario": tag})
    scalars = {
        "peak_gain_dbi": grid.peak_gain_dbi,
        "gain_at_focus_dbi": beamforming.evaluate_gain(ground, weights, focus, lam),
        "gain_at_double_range_dbi": beamforming.evaluate_gain(
            ground, weights, beamforming.point_at(2.0 * s.satellite.range_m, steer_theta), lam
        ),
    }
    details = {"beam_kernel": grid.kernel.name, "beam_kernel_bound_rad": grid.kernel.bound_rad}
    return {"output_files": (path,), "key_scalars": scalars, "details": details}


def _run_placement(s, outdir, tag):
    ana, lam = s.analysis, s.wavelength
    objective = _placement_objective(ana, lam)
    result = placement.optimize_placement(
        ana.aperture_x_m,
        ana.aperture_y_m,
        ana.n_panels,
        ana.min_spacing_m,
        lam,
        objective,
        ana.n_candidates,
        ana.seed,
    )
    json_path = os.path.join(outdir, "placement.json")
    placement.write_placement_json(result, objective, lam, json_path)
    layout_path = os.path.join(outdir, "placement_layout.txt")
    centers_layout = ElementLayout(
        result.positions,
        np.arange(len(result.positions), dtype=np.int64),
        PanelSpec(1, 1, 1.0, 0.0),
    )
    save_layout(centers_layout, layout_path)
    return {
        "output_files": (json_path, layout_path),
        "key_scalars": {"peak_sidelobe_db": result.peak_sidelobe_db},
        "details": {
            "placement_scored": result.candidates_scored,
            "placement_prune_margin": result.prune_margin,
            "placement_screen_exps": result.screen_exps,
        },
    }


_RUNNERS = {
    "boundaries": _run_closed_form,
    "svd_sweep": _run_sweep,
    "dof_sweep": _run_sweep,
    "beam_theta": _run_beam,
    "beam_range": _run_beam,
    "beam_map": _run_beam,
    "optimize_placement": _run_placement,
    "dish_gain": _run_closed_form,
}


def run_scenario(s: Scenario, output_dir=None) -> RunReport:
    """Execute the scenario's analysis and write its outputs.

    Returns a report with the canonical scenario hash, elapsed wall time, the
    files written, and the analysis' headline scalars. All file writes are
    atomic and byte-deterministic for identical scenarios on one build: the
    kernels' block budget, the BLAS build and the CPU set the summation order,
    and with it the last digits of gains and sidelobe levels.
    """
    t0 = time.perf_counter()
    outdir = s.output_dir if output_dir is None else output_dir
    os.makedirs(outdir, exist_ok=True)
    tag = scenario_hash(s)
    kind_fields = _RUNNERS[analysis_kind(s.analysis)](s, outdir, tag)
    return RunReport(
        scenario_hash=tag, wall_time_s=time.perf_counter() - t0, **kind_fields
    )
