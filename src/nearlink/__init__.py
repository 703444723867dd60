"""Distributed phased-array ground stations: coherent gain and LoS MIMO.

The package models many small antenna panels spread over a large ground
aperture talking to a satellite: how much beamforming gain the ensemble
achieves, where its grating lobes go, and over what ranges the link offers
more than one spatial degree of freedom.

The names below load from their modules on first use (PEP 562), so
``import nearlink`` loads no numerics.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "beamforming": (
        "GAIN_FLOOR_DB", "REFERENCE_DISH_LARGE", "REFERENCE_DISH_SMALL", "BeamKernel",
        "DishSpec", "GainGrid", "Point", "WeightVector", "delay_and_sum_weights", "dish_gain",
        "evaluate_gain", "gain_pattern_sweep", "point_at", "response_sum", "write_gain_csv",
    ),
    "geometry": (
        "ElementLayout", "make_distributed_panels", "make_upa", "random_panel_positions",
        "save_layout",
    ),
    "kernel": ("ZeroDistance", "channel_matrix"),
    "mimo": (
        "ConvergenceFailure", "DegenerateSpectrum", "SingularSpectrum", "condition_ratio",
        "dof_count", "exact_ratio_curve", "link_spectra", "r_max", "r_min",
        "singular_values", "svd_closed_form_2x2", "theory_ratio_curve", "write_spectrum_csv",
    ),
    "objective": ("Direction", "PlacementObjective", "default_exclusion_halfwidth"),
    "panels": ("OverlappingPanels", "PanelSpec", "PlacementInfeasible"),
    "placement": (
        "PlacementResult", "optimize_placement", "peak_sidelobe", "uniform_sparse_positions",
        "write_placement_json",
    ),
    "scenario": ("RunReport", "build_ground_layout", "build_satellite_layout", "run_scenario"),
    "schema": (
        "SPEED_OF_LIGHT", "ParseError", "Scenario", "ScenarioError", "ValidationError",
        "load_scenario", "parse_scenario", "scenario_hash", "serialize_scenario",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
