"""Running scenarios: the layouts a scenario describes, and one runner per
analysis kind. The parse API of :mod:`nearlink.schema` is re-exported here."""

from __future__ import annotations

import itertools
import json
import os
import time
from importlib import import_module

import numpy as np

# Sweeps reach ``channel_matrix`` through ``mimo.link_spectra``; the name stays
# here for the benchmark's traced run (perfbench/traced_run.py) to wrap.
from .kernel import EXACT_KERNEL, channel_matrix  # noqa: F401
from .fileio import atomic_write_text
from .geometry import ElementLayout, make_distributed_panels, make_upa, placed, point_layout
from .geometry import random_panel_positions, save_layout
from .record import Record
from .schema import *  # noqa: F401,F403  the parse API, re-exported
from .schema import _CLOSED_FORMS, _panel_spec, _placement_objective


class RunReport(Record):
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


def _satellite_mount(s: Scenario) -> tuple:
    # Where the satellite sits: its mount, its elements about the origin
    # parallel to the ground plane (its panel grid, or its positions less
    # their mean), and the direction (sin off_nadir, 0, cos off_nadir) on
    # which its centre sits at each range.
    if s.satellite is None:
        raise ValidationError("this analysis needs a 'satellite' section")
    sat, theta = s.satellite, np.deg2rad(s.satellite.off_nadir_deg)
    direction = np.array([np.sin(theta), 0.0, np.cos(theta)])
    if sat.panel is not None:
        return make_upa(_panel_spec(sat.panel, s.wavelength)), direction
    offsets = np.asarray(sat.positions_m, dtype=np.float64)
    return point_layout(offsets - offsets.mean(axis=0), sat.element_gain_dbi), direction


def build_satellite_layout(s: Scenario, range_m=None) -> ElementLayout:
    """The satellite's mount at its centre ``range * (sin off_nadir, 0, cos
    off_nadir)``, the array plane parallel to the ground plane. ``range_m``
    overrides the scenario's reference range."""
    mount, direction = _satellite_mount(s)
    return placed(mount, (s.satellite.range_m if range_m is None else float(range_m)) * direction)


# ----- running -----


def _range_axis(ana):
    if ana.spacing == "log":
        return np.geomspace(ana.range_start_m, ana.range_stop_m, ana.n_ranges)
    return np.linspace(ana.range_start_m, ana.range_stop_m, ana.n_ranges)


# Each runner writes its analysis' outputs and returns the RunReport fields
# that depend on the kind: the files, the key scalars and the details.


def _run_closed_form(s, outdir, tag, module):
    _, name, keys = _CLOSED_FORMS[analysis_kind(s.analysis)]
    payload = closed_form(s.analysis, s.wavelength)
    path = os.path.join(outdir, name)
    atomic_write_text(path, [json.dumps(payload, indent=2, sort_keys=True)])
    scalars = {k: payload[k] for k in keys}
    return {"output_files": (path,), "key_scalars": scalars, "details": {}}


def _run_sweep(s, outdir, tag, mimo):
    ana, lam = s.analysis, s.wavelength
    ground, (mount, direction) = build_ground_layout(s), _satellite_mount(s)
    ranges = _range_axis(ana)
    # The sweep's ranges, then the reference range, in one pass.
    centres = (r * direction for r in itertools.chain(ranges, [s.satellite.range_m]))
    results = mimo.link_spectra(ground, mount, centres, lam)
    bounds, reference = {}, []  # kernel name -> its largest bound; the reference's spectrum

    def sweep():
        # The CSV reads this to its end, the reference range, before it is
        # renamed into place: a failure at any range leaves no file.
        for i, (spectrum, used) in enumerate(results):
            bounds[used.name] = max(bounds.get(used.name, 0.0), used.bound_rad)
            if i < len(ranges):
                yield spectrum
            else:
                reference.append(spectrum)

    path = os.path.join(outdir, "spectrum.csv")
    mimo.write_spectrum_csv(
        path, ranges, sweep(), ana.tau, metadata={"scenario": tag, "wavelength_m": lam}
    )
    scalars = {
        "dof_at_reference_range": float(mimo.dof_count(reference[0], ana.tau)),
        "ratio_at_reference_range": mimo.condition_ratio(reference[0]),
    }
    details = {
        "channel_kernel": "exact" if EXACT_KERNEL.name in bounds else "panel_factorized",
        "channel_kernel_bound_rad": max(bounds.values()),
    }
    return {"output_files": (path,), "key_scalars": scalars, "details": details}


def _run_beam(s, outdir, tag, beamforming):
    # A theta axis where the analysis has a halfwidth, a range axis where it
    # has a range span; a missing axis is fixed at the satellite's.
    ana, lam = s.analysis, s.wavelength
    ground = build_ground_layout(s)
    sat = build_satellite_layout(s)
    focus = beamforming.Point(sat.positions.mean(axis=0))
    weights = beamforming.delay_and_sum_weights(ground, focus, lam)
    steer_theta = np.deg2rad(s.satellite.off_nadir_deg)
    thetas, ranges = [steer_theta], [s.satellite.range_m]
    if hasattr(ana, "halfwidth_deg"):
        hw = np.deg2rad(ana.halfwidth_deg)
        thetas = np.linspace(steer_theta - hw, steer_theta + hw, ana.n_theta)
    if hasattr(ana, "range_start_m"):
        ranges = _range_axis(ana)
    grid = beamforming.gain_pattern_sweep(ground, weights, lam, thetas, ranges)
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


def _run_placement(s, outdir, tag, placement):
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
    save_layout(point_layout(result.positions), layout_path)
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
    "boundaries": (_run_closed_form, None),
    "svd_sweep": (_run_sweep, "mimo"),
    "dof_sweep": (_run_sweep, "mimo"),
    "beam_theta": (_run_beam, "beamforming"),
    "beam_range": (_run_beam, "beamforming"),
    "beam_map": (_run_beam, "beamforming"),
    "optimize_placement": (_run_placement, "placement"),
    "dish_gain": (_run_closed_form, None),
}


def run_scenario(s: Scenario, output_dir=None) -> RunReport:
    """Execute the scenario's analysis and write its outputs.

    Returns a report with the canonical scenario hash, elapsed wall time, the
    files written, and the analysis' headline scalars. All file writes are
    atomic and byte-deterministic for identical scenarios on one build: the
    kernels' block budget, the BLAS build and the CPU set the summation order,
    and with it the last digits of gains and sidelobe levels.
    """
    # Import the kind's numerics, and the seeding (with numpy.random) if it
    # draws, before the clock.
    runner, name = _RUNNERS[analysis_kind(s.analysis)]
    module = name and import_module(f".{name}", __package__)
    if isinstance(s.analysis, OptimizePlacementAnalysis) or (s.ground and s.ground.random):
        import_module(".seeding", __package__)
    t0 = time.perf_counter()
    outdir = s.output_dir if output_dir is None else output_dir
    os.makedirs(outdir, exist_ok=True)
    tag = scenario_hash(s)
    kind_fields = runner(s, outdir, tag, module)
    return RunReport(scenario_hash=tag, wall_time_s=time.perf_counter() - t0, **kind_fields)
