"""Scenario files: a small declarative format tying the library together.

A scenario is a YAML mapping with a ``version``, a carrier ``frequency_hz``,
optional ``ground`` and ``satellite`` sections, and exactly one ``analysis``
block naming what to compute. Parsing is strict: unknown keys anywhere are
errors, so typos fail loudly instead of silently running defaults.

YAML 1.1 lexes unsigned exponents like ``28.0e9`` as strings; every numeric
field here coerces numeric strings, so the natural spellings work.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import yaml

from . import beamforming, mimo, placement
# ``channel_matrix`` is not called here since sweeps go through
# ``mimo.link_spectrum``; the name stays because the benchmark's traced run
# (perfbench/traced_run.py) times channel builds by wrapping it.
from .channel import channel_matrix  # noqa: F401
from .fileio import atomic_write_text, sha256_hex
from .geometry import (
    ElementLayout,
    OverlappingPanels,
    PanelSpec,
    PlacementInfeasible,
    check_corner_spacing,
    check_panel_overlap,
    make_distributed_panels,
    make_upa,
    random_panel_positions,
    save_layout,
)

SPEED_OF_LIGHT = 299792458.0

SCENARIO_VERSION = 1


class ScenarioError(ValueError):
    """Base for scenario file problems."""


class ParseError(ScenarioError):
    """The text is not valid scenario syntax."""


class ValidationError(ScenarioError):
    """The text parsed but violates the scenario schema."""


# ----- configuration tree -----


@dataclass(frozen=True)
class PanelConfig:
    rows: int
    cols: int
    spacing_m: Optional[float] = None
    spacing_wavelengths: Optional[float] = None
    element_gain_dbi: float = 0.0


@dataclass(frozen=True)
class RandomPlacementConfig:
    aperture_x_m: float
    aperture_y_m: float
    n_panels: int
    min_spacing_m: float
    seed: int


@dataclass(frozen=True)
class GroundConfig:
    kind: str
    panel: PanelConfig
    random: Optional[RandomPlacementConfig] = None
    positions_m: Optional[tuple] = None


@dataclass(frozen=True)
class SatelliteConfig:
    range_m: float
    off_nadir_deg: float = 0.0
    element_gain_dbi: float = 0.0
    panel: Optional[PanelConfig] = None
    positions_m: Optional[tuple] = None


@dataclass(frozen=True)
class BoundariesAnalysis:
    d_tx_m: float
    d_rx_m: float
    tau: float


@dataclass(frozen=True)
class SvdSweepAnalysis:
    range_start_m: float
    range_stop_m: float
    n_ranges: int
    spacing: str = "log"
    tau: float = 0.1


@dataclass(frozen=True)
class DofSweepAnalysis:
    range_start_m: float
    range_stop_m: float
    n_ranges: int
    tau: float
    spacing: str = "log"


@dataclass(frozen=True)
class BeamThetaAnalysis:
    halfwidth_deg: float = 2.0
    n_theta: int = 2001


@dataclass(frozen=True)
class BeamRangeAnalysis:
    range_start_m: float
    range_stop_m: float
    n_ranges: int = 200
    spacing: str = "log"


@dataclass(frozen=True)
class BeamMapAnalysis:
    range_start_m: float
    range_stop_m: float
    halfwidth_deg: float = 2.0
    n_theta: int = 2001
    n_ranges: int = 200
    spacing: str = "log"


@dataclass(frozen=True)
class OptimizePlacementAnalysis:
    aperture_x_m: float
    aperture_y_m: float
    n_panels: int
    min_spacing_m: float
    n_candidates: int
    seed: int
    scan_halfwidth_rad: float
    n_scan: int
    exclusion_halfwidth_rad: Optional[float] = None
    steer_theta_rad: float = 0.0
    steer_phi_rad: float = 0.0


@dataclass(frozen=True)
class DishGainAnalysis:
    diameter_m: float
    efficiency: float


Analysis = Union[
    BoundariesAnalysis,
    SvdSweepAnalysis,
    DofSweepAnalysis,
    BeamThetaAnalysis,
    BeamRangeAnalysis,
    BeamMapAnalysis,
    OptimizePlacementAnalysis,
    DishGainAnalysis,
]

_ANALYSIS_KINDS = {
    BoundariesAnalysis: "boundaries",
    SvdSweepAnalysis: "svd_sweep",
    DofSweepAnalysis: "dof_sweep",
    BeamThetaAnalysis: "beam_theta",
    BeamRangeAnalysis: "beam_range",
    BeamMapAnalysis: "beam_map",
    OptimizePlacementAnalysis: "optimize_placement",
    DishGainAnalysis: "dish_gain",
}


@dataclass(frozen=True)
class Scenario:
    version: int
    frequency_hz: float
    analysis: Analysis
    ground: Optional[GroundConfig] = None
    satellite: Optional[SatelliteConfig] = None
    output_dir: str = "."

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency_hz


@dataclass(frozen=True)
class RunReport:
    """What a run did. ``beam_kernel`` is the kernel that evaluated the gain
    sweep of a beam analysis, with its error bound; None for other kinds.
    ``channel_kernel`` is the kernel that built the channel matrices of an
    svd or dof sweep: ``exact`` if any range needed the exact kernel, with
    the worst bound over the ranges; None for other kinds.
    ``placement_scored`` is how many candidates a placement search scored in
    full and ``placement_prune_margin`` the margin it pruned the rest with,
    per unit of main lobe; None for other kinds."""

    scenario_hash: str
    wall_time_s: float
    output_files: tuple
    key_scalars: dict
    beam_kernel: Optional[beamforming.BeamKernel] = None
    channel_kernel: Optional[beamforming.BeamKernel] = None
    placement_scored: Optional[int] = None
    placement_prune_margin: Optional[float] = None


# ----- strict mapping helpers -----


class _StrictLoader(yaml.SafeLoader):
    """SafeLoader that refuses a mapping which repeats a key."""

    def construct_document(self, node):
        _reject_duplicate_keys(node, "", set())
        return super().construct_document(node)


def _reject_duplicate_keys(node, path, visited):
    # Walk the composed node tree before construction, which would otherwise
    # keep the last of two equal keys without a word.
    if id(node) in visited:
        return
    visited.add(id(node))
    if isinstance(node, yaml.MappingNode):
        keys = set()
        for key_node, value_node in node.value:
            key = key_node.value if isinstance(key_node, yaml.ScalarNode) else None
            where = f"{path}.{key}" if path else str(key)
            if key is not None:
                if key in keys:
                    raise ParseError(f"duplicate key '{where}'")
                keys.add(key)
            _reject_duplicate_keys(value_node, where, visited)
    elif isinstance(node, yaml.SequenceNode):
        for idx, item in enumerate(node.value):
            _reject_duplicate_keys(item, f"{path}[{idx}]", visited)


def _as_mapping(value, path):
    if not isinstance(value, dict):
        raise ValidationError(f"'{path}' must be a mapping")
    return value


def _check_keys(mapping, path, allowed):
    for key in mapping:
        if key not in allowed:
            raise ValidationError(f"unknown key '{path}.{key}'")


def _pop(mapping, path, key, required=False, default=None):
    if key in mapping:
        return mapping[key]
    if required:
        raise ValidationError(f"missing required key '{path}.{key}'")
    return default


def _as_float(value, path):
    if isinstance(value, bool) or value is None:
        raise ValidationError(f"'{path}' must be a number")
    if isinstance(value, (int, float)):
        number = float(value)
    elif isinstance(value, str):
        try:
            number = float(value)
        except ValueError:
            raise ValidationError(f"'{path}' must be a number, got '{value}'") from None
    else:
        raise ValidationError(f"'{path}' must be a number")
    if not np.isfinite(number):
        raise ValidationError(f"'{path}' must be finite, got {value}")
    return number


def _as_int(value, path):
    if isinstance(value, bool):
        raise ValidationError(f"'{path}' must be an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            raise ValidationError(f"'{path}' must be an integer, got '{value}'") from None
    raise ValidationError(f"'{path}' must be an integer")


def _as_seed(value, path):
    seed = _as_int(value, path)
    if seed < 0:
        raise ValidationError(f"'{path}' must be a non-negative integer, got {seed}")
    return seed


def _as_str(value, path, choices=None):
    if not isinstance(value, str):
        raise ValidationError(f"'{path}' must be a string")
    if choices is not None and value not in choices:
        raise ValidationError(f"'{path}' must be one of {sorted(choices)}, got '{value}'")
    return value


def _positive(value, path):
    if not np.isfinite(value) or value <= 0.0:
        raise ValidationError(f"'{path}' must be positive")
    return value


def _as_positions(value, path):
    if not isinstance(value, list) or not value:
        raise ValidationError(f"'{path}' must be a nonempty list of [x, y] or [x, y, z]")
    rows = []
    for idx, item in enumerate(value):
        if not isinstance(item, list) or len(item) not in (2, 3):
            raise ValidationError(f"'{path}[{idx}]' must be [x, y] or [x, y, z]")
        coords = [_as_float(v, f"{path}[{idx}]") for v in item]
        if len(coords) == 2:
            coords.append(0.0)
        rows.append(tuple(coords))
    return tuple(rows)


# ----- section parsers -----


def _parse_panel(node, path, gain_allowed=True):
    node = _as_mapping(node, path)
    allowed = {"rows", "cols", "spacing_m", "spacing_wavelengths"}
    if gain_allowed:
        allowed.add("element_gain_dbi")
    _check_keys(node, path, allowed)
    rows = _as_int(_pop(node, path, "rows", required=True), f"{path}.rows")
    cols = _as_int(_pop(node, path, "cols", required=True), f"{path}.cols")
    if rows < 1 or cols < 1:
        raise ValidationError(f"'{path}' needs rows >= 1 and cols >= 1")
    sp_m = node.get("spacing_m")
    sp_wl = node.get("spacing_wavelengths")
    if (sp_m is None) == (sp_wl is None):
        raise ValidationError(
            f"'{path}' needs exactly one of spacing_m or spacing_wavelengths"
        )
    if sp_m is not None:
        sp_m = _positive(_as_float(sp_m, f"{path}.spacing_m"), f"{path}.spacing_m")
    if sp_wl is not None:
        sp_wl = _positive(
            _as_float(sp_wl, f"{path}.spacing_wavelengths"),
            f"{path}.spacing_wavelengths",
        )
    gain = 0.0
    if gain_allowed and "element_gain_dbi" in node:
        gain = _as_float(node["element_gain_dbi"], f"{path}.element_gain_dbi")
    return PanelConfig(rows, cols, sp_m, sp_wl, gain)


def _parse_random(node, path):
    node = _as_mapping(node, path)
    _check_keys(
        node, path, {"aperture_x_m", "aperture_y_m", "n_panels", "min_spacing_m", "seed"}
    )
    aperture_x, aperture_y = _parse_aperture(node, path)
    n_panels = _parse_n(node, path, "n_panels", minimum=1)
    return RandomPlacementConfig(
        aperture_x_m=aperture_x,
        aperture_y_m=aperture_y,
        n_panels=n_panels,
        min_spacing_m=_parse_min_spacing(node, path, aperture_x, aperture_y, n_panels),
        seed=_as_seed(_pop(node, path, "seed", required=True), f"{path}.seed"),
    )


def _parse_aperture(node, path):
    return tuple(
        _positive(
            _as_float(_pop(node, path, key, required=True), f"{path}.{key}"), f"{path}.{key}"
        )
        for key in ("aperture_x_m", "aperture_y_m")
    )


def _parse_min_spacing(node, path, aperture_x, aperture_y, n_panels):
    # Random placement pins the aperture corners first, so corners closer
    # than the spacing make every draw fail; refuse that here, not at run time.
    where = f"{path}.min_spacing_m"
    spacing = _as_float(_pop(node, path, "min_spacing_m", required=True), where)
    if spacing < 0.0:
        raise ValidationError(f"'{where}' must be non-negative")
    try:
        check_corner_spacing(aperture_x, aperture_y, n_panels, spacing)
    except PlacementInfeasible as exc:
        raise ValidationError(f"'{where}': {exc}") from None
    return spacing


def _parse_ground(node):
    node = _as_mapping(node, "ground")
    _check_keys(node, "ground", {"kind", "panel", "random", "positions_m"})
    kind = _as_str(
        _pop(node, "ground", "kind", required=True), "ground.kind", {"upa", "distributed"}
    )
    panel = _parse_panel(_pop(node, "ground", "panel", required=True), "ground.panel")
    random_cfg = None
    positions = None
    if kind == "upa":
        if "random" in node or "positions_m" in node:
            raise ValidationError("'ground.kind: upa' takes no placement section")
    else:
        has_random = "random" in node
        has_pos = "positions_m" in node
        if has_random == has_pos:
            raise ValidationError(
                "'ground.kind: distributed' needs exactly one of random or positions_m"
            )
        if has_random:
            random_cfg = _parse_random(node["random"], "ground.random")
        else:
            positions = _as_positions(node["positions_m"], "ground.positions_m")
    return GroundConfig(kind=kind, panel=panel, random=random_cfg, positions_m=positions)


def _parse_satellite(node):
    node = _as_mapping(node, "satellite")
    _check_keys(
        node,
        "satellite",
        {"range_m", "off_nadir_deg", "element_gain_dbi", "panel", "positions_m"},
    )
    range_m = _positive(
        _as_float(_pop(node, "satellite", "range_m", required=True), "satellite.range_m"),
        "satellite.range_m",
    )
    off_nadir = 0.0
    if "off_nadir_deg" in node:
        off_nadir = _as_float(node["off_nadir_deg"], "satellite.off_nadir_deg")
        if not 0.0 <= off_nadir < 90.0:
            raise ValidationError("'satellite.off_nadir_deg' must lie in [0, 90)")
    has_panel = "panel" in node
    has_pos = "positions_m" in node
    if has_panel == has_pos:
        raise ValidationError("'satellite' needs exactly one of panel or positions_m")
    panel = None
    positions = None
    gain = 0.0
    if has_panel:
        if "element_gain_dbi" in node:
            raise ValidationError(
                "'satellite.element_gain_dbi' belongs inside satellite.panel "
                "when a panel is given"
            )
        panel = _parse_panel(node["panel"], "satellite.panel")
    else:
        positions = _as_positions(node["positions_m"], "satellite.positions_m")
        first = {}
        for idx, point in enumerate(positions):
            if first.setdefault(point, idx) != idx:
                raise ValidationError(
                    f"'satellite.positions_m[{idx}]' repeats element {first[point]}"
                )
        if "element_gain_dbi" in node:
            gain = _as_float(node["element_gain_dbi"], "satellite.element_gain_dbi")
    return SatelliteConfig(
        range_m=range_m,
        off_nadir_deg=off_nadir,
        element_gain_dbi=gain,
        panel=panel,
        positions_m=positions,
    )


def _parse_range_axis(node, path):
    start = _positive(
        _as_float(_pop(node, path, "range_start_m", required=True), f"{path}.range_start_m"),
        f"{path}.range_start_m",
    )
    stop = _positive(
        _as_float(_pop(node, path, "range_stop_m", required=True), f"{path}.range_stop_m"),
        f"{path}.range_stop_m",
    )
    if stop <= start:
        raise ValidationError(f"'{path}.range_stop_m' must exceed range_start_m")
    return start, stop


def _parse_tau(node, path, required, default=0.1):
    if "tau" in node:
        tau = _as_float(node["tau"], f"{path}.tau")
    elif required:
        raise ValidationError(f"missing required key '{path}.tau'")
    else:
        tau = default
    if not 0.0 < tau < 1.0:
        raise ValidationError(f"'{path}.tau' must lie strictly between 0 and 1")
    return tau


def _parse_spacing_mode(node, path):
    if "spacing" in node:
        return _as_str(node["spacing"], f"{path}.spacing", {"log", "linear"})
    return "log"


def _parse_n(node, path, key, minimum, default=None):
    if key in node:
        val = _as_int(node[key], f"{path}.{key}")
    elif default is not None:
        val = default
    else:
        raise ValidationError(f"missing required key '{path}.{key}'")
    if val < minimum:
        raise ValidationError(f"'{path}.{key}' must be at least {minimum}")
    return val


def _parse_analysis(node):
    path = "analysis"
    node = _as_mapping(node, path)
    kind = _as_str(
        _pop(node, path, "kind", required=True),
        f"{path}.kind",
        set(_ANALYSIS_KINDS.values()),
    )

    if kind == "boundaries":
        _check_keys(node, path, {"kind", "d_tx_m", "d_rx_m", "tau"})
        return BoundariesAnalysis(
            d_tx_m=_positive(
                _as_float(_pop(node, path, "d_tx_m", required=True), f"{path}.d_tx_m"),
                f"{path}.d_tx_m",
            ),
            d_rx_m=_positive(
                _as_float(_pop(node, path, "d_rx_m", required=True), f"{path}.d_rx_m"),
                f"{path}.d_rx_m",
            ),
            tau=_parse_tau(node, path, required=True),
        )

    if kind in ("svd_sweep", "dof_sweep"):
        _check_keys(
            node,
            path,
            {"kind", "range_start_m", "range_stop_m", "n_ranges", "spacing", "tau"},
        )
        start, stop = _parse_range_axis(node, path)
        n_ranges = _parse_n(node, path, "n_ranges", minimum=2)
        spacing = _parse_spacing_mode(node, path)
        if kind == "svd_sweep":
            return SvdSweepAnalysis(
                start, stop, n_ranges, spacing, _parse_tau(node, path, required=False)
            )
        return DofSweepAnalysis(
            start, stop, n_ranges, _parse_tau(node, path, required=True), spacing
        )

    if kind == "beam_theta":
        _check_keys(node, path, {"kind", "halfwidth_deg", "n_theta"})
        hw = _as_float(node.get("halfwidth_deg", 2.0), f"{path}.halfwidth_deg")
        if not 0.0 < hw <= 90.0:
            raise ValidationError(f"'{path}.halfwidth_deg' must lie in (0, 90]")
        return BeamThetaAnalysis(hw, _parse_n(node, path, "n_theta", 3, default=2001))

    if kind == "beam_range":
        _check_keys(
            node, path, {"kind", "range_start_m", "range_stop_m", "n_ranges", "spacing"}
        )
        start, stop = _parse_range_axis(node, path)
        return BeamRangeAnalysis(
            start,
            stop,
            _parse_n(node, path, "n_ranges", 2, default=200),
            _parse_spacing_mode(node, path),
        )

    if kind == "beam_map":
        _check_keys(
            node,
            path,
            {
                "kind",
                "range_start_m",
                "range_stop_m",
                "halfwidth_deg",
                "n_theta",
                "n_ranges",
                "spacing",
            },
        )
        start, stop = _parse_range_axis(node, path)
        hw = _as_float(node.get("halfwidth_deg", 2.0), f"{path}.halfwidth_deg")
        if not 0.0 < hw <= 90.0:
            raise ValidationError(f"'{path}.halfwidth_deg' must lie in (0, 90]")
        return BeamMapAnalysis(
            start,
            stop,
            hw,
            _parse_n(node, path, "n_theta", 3, default=2001),
            _parse_n(node, path, "n_ranges", 2, default=200),
            _parse_spacing_mode(node, path),
        )

    if kind == "optimize_placement":
        _check_keys(
            node,
            path,
            {
                "kind",
                "aperture_x_m",
                "aperture_y_m",
                "n_panels",
                "min_spacing_m",
                "n_candidates",
                "seed",
                "scan_halfwidth_rad",
                "n_scan",
                "exclusion_halfwidth_rad",
                "steer_theta_rad",
                "steer_phi_rad",
            },
        )
        excl = None
        if "exclusion_halfwidth_rad" in node:
            excl = _positive(
                _as_float(node["exclusion_halfwidth_rad"], f"{path}.exclusion_halfwidth_rad"),
                f"{path}.exclusion_halfwidth_rad",
            )
        aperture_x, aperture_y = _parse_aperture(node, path)
        n_panels = _parse_n(node, path, "n_panels", minimum=2)
        return OptimizePlacementAnalysis(
            aperture_x_m=aperture_x,
            aperture_y_m=aperture_y,
            n_panels=n_panels,
            min_spacing_m=_parse_min_spacing(node, path, aperture_x, aperture_y, n_panels),
            n_candidates=_parse_n(node, path, "n_candidates", minimum=1),
            seed=_as_seed(_pop(node, path, "seed", required=True), f"{path}.seed"),
            scan_halfwidth_rad=_positive(
                _as_float(
                    _pop(node, path, "scan_halfwidth_rad", required=True),
                    f"{path}.scan_halfwidth_rad",
                ),
                f"{path}.scan_halfwidth_rad",
            ),
            n_scan=_parse_n(node, path, "n_scan", minimum=100),
            exclusion_halfwidth_rad=excl,
            steer_theta_rad=_as_float(
                node.get("steer_theta_rad", 0.0), f"{path}.steer_theta_rad"
            ),
            steer_phi_rad=_as_float(
                node.get("steer_phi_rad", 0.0), f"{path}.steer_phi_rad"
            ),
        )

    _check_keys(node, path, {"kind", "diameter_m", "efficiency"})
    eff = _as_float(_pop(node, path, "efficiency", required=True), f"{path}.efficiency")
    if not 0.0 < eff <= 1.0:
        raise ValidationError(f"'{path}.efficiency' must lie in (0, 1]")
    return DishGainAnalysis(
        diameter_m=_positive(
            _as_float(_pop(node, path, "diameter_m", required=True), f"{path}.diameter_m"),
            f"{path}.diameter_m",
        ),
        efficiency=eff,
    )


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text, strictly, into a :class:`Scenario`."""
    try:
        raw = yaml.load(text, Loader=_StrictLoader)
    except yaml.YAMLError as exc:
        raise ParseError(f"invalid scenario syntax: {exc}") from None
    if not isinstance(raw, dict):
        raise ValidationError("scenario must be a key-value mapping")
    _check_keys(
        raw,
        "scenario",
        {"version", "frequency_hz", "output_dir", "ground", "satellite", "analysis"},
    )
    version = _as_int(_pop(raw, "scenario", "version", required=True), "version")
    if version != SCENARIO_VERSION:
        raise ValidationError(
            f"unsupported scenario version {version}; this build reads version "
            f"{SCENARIO_VERSION}"
        )
    freq = _positive(
        _as_float(_pop(raw, "scenario", "frequency_hz", required=True), "frequency_hz"),
        "frequency_hz",
    )
    output_dir = "."
    if "output_dir" in raw:
        output_dir = _as_str(raw["output_dir"], "output_dir")
    ground = _parse_ground(raw["ground"]) if "ground" in raw else None
    if ground is not None and ground.positions_m is not None:
        try:
            check_panel_overlap(
                _panel_spec(ground.panel, SPEED_OF_LIGHT / freq), ground.positions_m
            )
        except OverlappingPanels as exc:
            raise ValidationError(f"'ground.positions_m': {exc}") from None
    if ground is not None and ground.random is not None:
        # Drawn centres are at least min_spacing_m apart, and panels overlap
        # when their centres are no farther apart than the panel extent.
        extent = _panel_spec(ground.panel, SPEED_OF_LIGHT / freq).extent
        if not ground.random.min_spacing_m > extent:
            raise ValidationError(
                f"'ground.random.min_spacing_m' must exceed the panel extent "
                f"{extent:.6g} m, or drawn panels can overlap"
            )
    satellite = _parse_satellite(raw["satellite"]) if "satellite" in raw else None
    analysis = _parse_analysis(_pop(raw, "scenario", "analysis", required=True))
    if isinstance(analysis, OptimizePlacementAnalysis):
        try:
            _placement_objective(analysis, SPEED_OF_LIGHT / freq)
        except ValueError as exc:
            raise ValidationError(f"'analysis.scan_halfwidth_rad': {exc}") from None
    return Scenario(
        version=version,
        frequency_hz=freq,
        analysis=analysis,
        ground=ground,
        satellite=satellite,
        output_dir=output_dir,
    )


def load_scenario(path) -> Scenario:
    with open(path, "r") as handle:
        return parse_scenario(handle.read())


# ----- serialization -----


def _panel_dict(panel: PanelConfig, gain_allowed=True):
    out = {"rows": panel.rows, "cols": panel.cols}
    if panel.spacing_m is not None:
        out["spacing_m"] = panel.spacing_m
    if panel.spacing_wavelengths is not None:
        out["spacing_wavelengths"] = panel.spacing_wavelengths
    if gain_allowed:
        out["element_gain_dbi"] = panel.element_gain_dbi
    return out


def scenario_to_dict(s: Scenario) -> dict:
    """Plain nested dict with every resolved field, suitable for YAML."""
    out = {
        "version": s.version,
        "frequency_hz": s.frequency_hz,
        "output_dir": s.output_dir,
    }
    if s.ground is not None:
        g = {"kind": s.ground.kind, "panel": _panel_dict(s.ground.panel)}
        if s.ground.random is not None:
            r = s.ground.random
            g["random"] = {
                "aperture_x_m": r.aperture_x_m,
                "aperture_y_m": r.aperture_y_m,
                "n_panels": r.n_panels,
                "min_spacing_m": r.min_spacing_m,
                "seed": r.seed,
            }
        if s.ground.positions_m is not None:
            g["positions_m"] = [list(row) for row in s.ground.positions_m]
        out["ground"] = g
    if s.satellite is not None:
        sat = {
            "range_m": s.satellite.range_m,
            "off_nadir_deg": s.satellite.off_nadir_deg,
        }
        if s.satellite.panel is not None:
            sat["panel"] = _panel_dict(s.satellite.panel)
        else:
            sat["positions_m"] = [list(row) for row in s.satellite.positions_m]
            sat["element_gain_dbi"] = s.satellite.element_gain_dbi
        out["satellite"] = sat
    ana = {"kind": _ANALYSIS_KINDS[type(s.analysis)]}
    for field_name, value in vars(s.analysis).items():
        if value is not None:
            ana[field_name] = value
    out["analysis"] = ana
    return out


def serialize_scenario(s: Scenario) -> str:
    """Canonical text form; ``parse_scenario`` round-trips it exactly."""
    return yaml.safe_dump(scenario_to_dict(s), sort_keys=True, default_flow_style=False)


def scenario_hash(s: Scenario) -> str:
    return sha256_hex(serialize_scenario(s))[:16]


# ----- building layouts -----


def _panel_spec(panel: PanelConfig, wavelength: float, element_gain_dbi=None) -> PanelSpec:
    spacing = (
        panel.spacing_m
        if panel.spacing_m is not None
        else panel.spacing_wavelengths * wavelength
    )
    gain = panel.element_gain_dbi if element_gain_dbi is None else element_gain_dbi
    return PanelSpec(panel.rows, panel.cols, spacing, gain)


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


def _range_axis(start, stop, n, spacing):
    if spacing == "log":
        return np.geomspace(start, stop, n)
    return np.linspace(start, stop, n)


def _write_json(payload: dict, path) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _placement_objective(ana: OptimizePlacementAnalysis, lam: float):
    excl = ana.exclusion_halfwidth_rad
    if excl is None:
        # Support width of the aperture rectangle along the scan azimuth.
        along = ana.aperture_x_m * abs(np.cos(ana.steer_phi_rad)) + (
            ana.aperture_y_m * abs(np.sin(ana.steer_phi_rad))
        )
        excl = placement.default_exclusion_halfwidth(along, lam)
    return placement.PlacementObjective(
        steering=beamforming.Direction(ana.steer_theta_rad, ana.steer_phi_rad),
        exclusion_halfwidth=excl,
        scan_range=(
            ana.steer_theta_rad - ana.scan_halfwidth_rad,
            ana.steer_theta_rad + ana.scan_halfwidth_rad,
        ),
        n_scan=ana.n_scan,
    )


def run_scenario(s: Scenario, output_dir=None) -> RunReport:
    """Execute the scenario's analysis and write its outputs.

    Returns a report with the canonical scenario hash, elapsed wall time, the
    files written, and the analysis' headline scalars. All file writes are
    atomic and byte-deterministic for identical scenarios.
    """
    t0 = time.perf_counter()
    outdir = s.output_dir if output_dir is None else output_dir
    os.makedirs(outdir, exist_ok=True)
    tag = scenario_hash(s)
    lam = s.wavelength
    ana = s.analysis
    files = []
    scalars = {}
    beam_kernel = None
    channel_kernel = None
    search = None

    if isinstance(ana, BoundariesAnalysis):
        knee = ana.d_tx_m * ana.d_rx_m / lam
        payload = {
            "d_tx_m": ana.d_tx_m,
            "d_rx_m": ana.d_rx_m,
            "wavelength_m": lam,
            "tau": ana.tau,
            "r_min_m": mimo.r_min(ana.d_tx_m, ana.d_rx_m, lam, ana.tau),
            "r_max_m": mimo.r_max(ana.d_tx_m, ana.d_rx_m, lam, ana.tau),
            "rising_start_m": knee,
            "falling_start_m": 2.0 * knee,
        }
        path = os.path.join(outdir, "boundaries.json")
        _write_json(payload, path)
        files.append(path)
        scalars = {"r_min_m": payload["r_min_m"], "r_max_m": payload["r_max_m"]}

    elif isinstance(ana, (SvdSweepAnalysis, DofSweepAnalysis)):
        ground = build_ground_layout(s)
        ranges = _range_axis(ana.range_start_m, ana.range_stop_m, ana.n_ranges, ana.spacing)
        # One range at a time: a stacked SVD over every range would hold all
        # the matrices at once.
        spectra, kernels = [], []
        for r in ranges:
            sat = build_satellite_layout(s, range_m=float(r))
            spectrum, kernel = mimo.link_spectrum(sat, ground, lam)
            spectra.append(spectrum)
            kernels.append(kernel)
        path = os.path.join(outdir, "spectrum.csv")
        mimo.write_spectrum_csv(
            path, ranges, spectra, ana.tau, metadata={"scenario": tag, "wavelength_m": lam}
        )
        files.append(path)
        ref_spec, kernel = mimo.link_spectrum(build_satellite_layout(s), ground, lam)
        kernels.append(kernel)
        name = "exact" if beamforming.EXACT_KERNEL in kernels else "panel_factorized"
        channel_kernel = beamforming.BeamKernel(name, max(k.bound_rad for k in kernels))
        scalars = {
            "dof_at_reference_range": float(mimo.dof_count(ref_spec, ana.tau)),
            "ratio_at_reference_range": mimo.condition_ratio(ref_spec),
        }

    elif isinstance(ana, (BeamThetaAnalysis, BeamRangeAnalysis, BeamMapAnalysis)):
        ground = build_ground_layout(s)
        sat = build_satellite_layout(s)
        focus = beamforming.Point(sat.positions.mean(axis=0))
        weights = beamforming.delay_and_sum_weights(ground, focus, lam)
        steer_theta = np.deg2rad(s.satellite.off_nadir_deg)
        if isinstance(ana, BeamThetaAnalysis):
            hw = np.deg2rad(ana.halfwidth_deg)
            thetas = np.linspace(steer_theta - hw, steer_theta + hw, ana.n_theta)
            grid = beamforming.gain_pattern_sweep(
                ground, weights, lam, thetas=thetas, fixed_range=s.satellite.range_m
            )
            name = "gain_theta.csv"
        elif isinstance(ana, BeamRangeAnalysis):
            rr = _range_axis(ana.range_start_m, ana.range_stop_m, ana.n_ranges, ana.spacing)
            grid = beamforming.gain_pattern_sweep(
                ground, weights, lam, ranges=rr, fixed_theta=steer_theta
            )
            name = "gain_range.csv"
        else:
            hw = np.deg2rad(ana.halfwidth_deg)
            thetas = np.linspace(steer_theta - hw, steer_theta + hw, ana.n_theta)
            rr = _range_axis(ana.range_start_m, ana.range_stop_m, ana.n_ranges, ana.spacing)
            grid = beamforming.gain_pattern_sweep(
                ground, weights, lam, thetas=thetas, ranges=rr
            )
            name = "gain_map.csv"
        path = os.path.join(outdir, name)
        beamforming.write_gain_csv(grid, path, metadata={"scenario": tag})
        files.append(path)
        beam_kernel = grid.kernel
        scalars = {"peak_gain_dbi": grid.peak_gain_dbi}
        r0 = s.satellite.range_m
        scalars["gain_at_focus_dbi"] = beamforming.evaluate_gain(
            ground, weights, focus, lam
        )
        scalars["gain_at_double_range_dbi"] = beamforming.evaluate_gain(
            ground,
            weights,
            beamforming.point_at(2.0 * r0, steer_theta),
            lam,
        )

    elif isinstance(ana, OptimizePlacementAnalysis):
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
        files.extend([json_path, layout_path])
        scalars = {"peak_sidelobe_db": result.peak_sidelobe_db}
        search = result

    else:
        spec = beamforming.DishSpec(ana.diameter_m, ana.efficiency)
        gain = beamforming.dish_gain(spec, lam)
        path = os.path.join(outdir, "dish.json")
        _write_json(
            {
                "diameter_m": ana.diameter_m,
                "efficiency": ana.efficiency,
                "wavelength_m": lam,
                "gain_dbi": gain,
            },
            path,
        )
        files.append(path)
        scalars = {"gain_dbi": gain}

    return RunReport(
        scenario_hash=tag,
        wall_time_s=time.perf_counter() - t0,
        output_files=tuple(files),
        key_scalars=scalars,
        beam_kernel=beam_kernel,
        channel_kernel=channel_kernel,
        placement_scored=None if search is None else search.candidates_scored,
        placement_prune_margin=None if search is None else search.prune_margin,
    )
