"""Scenario files: a small declarative format tying the library together.

A scenario is a YAML mapping with a ``version``, a carrier ``frequency_hz``,
optional ``ground`` and ``satellite`` sections, and exactly one ``analysis``
block naming what to compute. Parsing is strict: unknown keys anywhere are
errors, so typos fail loudly instead of silently running defaults.

Each key is declared once, as a record field (:mod:`nearlink.record`) whose
``_f(coerce, bound, default, not_with)`` metadata gives its coercion
(``float``, which must be finite, ``int``, ``str``, a tuple of allowed
strings, ``_POSITIONS``, a nested section's class, or ``ANALYSIS_KINDS``,
whose ``kind`` key picks the class), its :class:`Bound`, its default (none:
the key is required) and any sibling key that carries it instead. One walker, :func:`_walk`, checks every
section for unknown keys, then required keys, coercion and bounds, then the
checks between fields that each class lists in ``_checks``. The scenario's own
checks, which need the wavelength or several sections, run last. Errors name
the ``section.key`` path. An override, ``section.key=value``, sets one key of
the parsed text before the walk, so it meets the same checks. One serializer
writes every set field back, and the command line's calculators take their
flag types and checks from the same declarations.

YAML 1.1 lexes unsigned exponents like ``28.0e9`` as strings; every numeric
field here coerces numeric strings, so the natural spellings work.

Checking a scenario loads no numerics: only the closed forms import theirs,
when they run, since ``math.log10`` and ``math.atan`` do not round as numpy's
do. :mod:`nearlink.scenario` runs it.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Union

import yaml

from .fileio import sha256_hex
from .record import MISSING, Field, Record
from .panels import OverlappingPanels, PanelSpec, PlacementInfeasible, check_packing
from .panels import check_corner_spacing, check_panel_overlap

__all__ = [
    "ANALYSIS_KINDS", "SCENARIO_VERSION", "SPEED_OF_LIGHT", "Bound", "ParseError",
    "ScenarioError", "ValidationError", "PanelConfig", "RandomPlacementConfig",
    "GroundConfig", "SatelliteConfig", "BoundariesAnalysis", "SvdSweepAnalysis",
    "DofSweepAnalysis", "BeamThetaAnalysis", "BeamRangeAnalysis", "BeamMapAnalysis",
    "OptimizePlacementAnalysis", "DishGainAnalysis", "Scenario", "analysis_kind",
    "check_value", "closed_form", "load_scenario", "parse_scenario", "scenario_hash",
    "serialize_scenario", "WAVELENGTH", "wavelength_of",
]

SPEED_OF_LIGHT = 299792458.0

SCENARIO_VERSION = 1


class ScenarioError(ValueError):
    """Base for scenario file problems."""


class ParseError(ScenarioError):
    """The text is not valid scenario syntax."""


class ValidationError(ScenarioError):
    """The text parsed but violates the scenario schema."""


# ----- declarations -----


class Bound(NamedTuple):
    """The interval a declared number must lie in. ``closed`` says which ends
    belong to it, as in ``"[)"``; ``text`` overrides the error's wording."""

    lo: float = -math.inf
    hi: float = math.inf
    closed: str = "[]"
    text: str = ""

    def holds(self, value) -> bool:
        above = self.lo <= value if self.closed[0] == "[" else self.lo < value
        below = value <= self.hi if self.closed[1] == "]" else value < self.hi
        return above and below

    def describe(self) -> str:
        return self.text or f"must lie in {self.closed[0]}{self.lo:g}, {self.hi:g}{self.closed[1]}"


_POSITIVE = Bound(0.0, closed="(]", text="must be positive")
_SEED = Bound(0, text="must be a non-negative integer")
_TAU = Bound(0.0, 1.0, "()")
_HALFWIDTH_DEG = Bound(0.0, 90.0, "(]")
# Runs square distances up to twice a range (the beam analyses' double-range
# gain), and the factorized kernel's error bound cubes them. At 1e100 m that
# cube, 8e300, stays below the float64 maximum of 1.8e308 with room for
# element offsets of the same size; past it a square or cube overflows, and
# the run writes NaN gains or fails. At 1e-100 m the cube, 1e-300, stays
# above the smallest normal float64, 2.2e-308; below it a square or cube
# underflows, and elements that are apart coincide. Ranges, apertures, panel
# pitches and every coordinate of a position list share the ceiling, so no
# distance can outgrow it.
_LENGTH = Bound(1.0e-100, 1.0e100)
# A carrier of at most 1e200 Hz has a wavelength of at least 1.5e-192 m, so
# the phase k d of a distance at that ceiling stays below 1e293, which
# float64 holds; past about 2.8e307 wavelengths it overflows.
_FREQUENCY = Bound(0.0, 1.0e200, "(]", "must be positive and at most 1e+200")
_SPACING = Bound(0.0, 1.0e100, text="must be non-negative and at most 1e+100")
_COORDINATE = Bound(-1.0e100, 1.0e100)
_VERSION = Bound(
    SCENARIO_VERSION,
    SCENARIO_VERSION,
    text=f"must be {SCENARIO_VERSION}, the version this build reads",
)
_SPACING_MODES = ("log", "linear")
_POSITIONS = "positions"


def _at_least(n: int) -> Bound:
    return Bound(n, text=f"must be at least {n}")


# An array a run allocates in one piece holds at most this many entries,
# about 100 MB at the 24 bytes of a position, so that a count validation
# passes cannot fail the run's allocation. A count bounds its own axis (a
# sweep's ranges, a placement search's scan directions); _arrays_fit lists, by
# analysis kind, the arrays that products of counts size.
_MAX_ENTRIES = 1 << 22


def _count(n: int) -> Bound:
    return Bound(n, _MAX_ENTRIES, text=f"must be at least {n} and at most {_MAX_ENTRIES}")


def _f(coerce, bound=None, default=MISSING, not_with=None):
    """Declare one scenario key; see the module docstring."""
    return Field(default, {"coerce": coerce, "bound": bound, "not_with": not_with})


# ----- cross checks -----

# Each class lists in ``_checks`` the checks between its fields that run, in
# order, once every field has passed; the scenario's run last, with every
# section built.


def _exactly_one(a, b):
    def check(obj, path):
        if (getattr(obj, a) is None) == (getattr(obj, b) is None):
            raise ValidationError(f"'{path}' needs exactly one of {a} or {b}")

    return check


def _range_order(ana, path):
    if ana.range_stop_m <= ana.range_start_m:
        raise ValidationError(f"'{path}.range_stop_m' must exceed range_start_m")


def _placement_fits(cfg, path):
    # Random placement pins the aperture corners first, so corners closer
    # than the spacing make every draw fail, and centres that cannot pack in
    # the aperture never all draw; refuse both here, not at run time after
    # the draw cap.
    args = (cfg.aperture_x_m, cfg.aperture_y_m, cfg.n_panels, cfg.min_spacing_m)
    for check, key in ((check_corner_spacing, "min_spacing_m"), (check_packing, "n_panels")):
        try:
            check(*args)
        except PlacementInfeasible as exc:
            raise ValidationError(f"'{path}.{key}': {exc}") from None


def _ground_placement(ground, path):
    if ground.kind == "distributed":
        _exactly_one("random", "positions_m")(ground, f"{path}.kind: distributed")
    elif ground.random is not None or ground.positions_m is not None:
        raise ValidationError(f"'{path}.kind: upa' takes no placement section")


def _distinct_points(sat, path):
    first = {}
    for idx, point in enumerate(sat.positions_m or ()):
        if first.setdefault(point, idx) != idx:
            raise ValidationError(f"'{path}.positions_m[{idx}]' repeats element {first[point]}")


def _link_sections(s, path):
    # Sweeps and beam analyses run over the ground-satellite link.
    if isinstance(s.analysis, _SWEEPS + _BEAMS):
        for section in ("ground", "satellite"):
            if getattr(s, section) is None:
                kind = analysis_kind(s.analysis)
                raise ValidationError(f"missing required key '{section}': {kind} needs it")


def _arrays_fit(s, path):
    # The table of the arrays a run allocates whole, by analysis kind: the
    # key path that sets each, what it holds, and the counts whose product
    # is its entries, which must not pass _MAX_ENTRIES.
    a, g, sat, rows = s.analysis, s.ground, s.satellite, []
    if isinstance(a, OptimizePlacementAnalysis):
        counts = (a.n_panels, a.n_candidates)
        rows.append(("analysis.n_candidates", "n_panels x n_candidates", counts))
    if isinstance(a, _SWEEPS + _BEAMS):
        key, panels = "ground.panel.cols", 1  # a upa ground is one panel
        if g.random is not None:
            key, panels = "ground.random.n_panels", g.random.n_panels
        elif g.positions_m is not None:
            key, panels = "ground.positions_m", len(g.positions_m)
        ground = (panels, g.panel.rows, g.panel.cols)
        rows.append((key, "panels x rows x cols", ground))
        key, n_sat = "satellite.positions_m", len(sat.positions_m or ())
        if sat.panel is not None:
            key, n_sat = "satellite.panel", sat.panel.rows * sat.panel.cols
            rows.append(("satellite.panel.cols", "rows x cols", (sat.panel.rows, sat.panel.cols)))
        if isinstance(a, _SWEEPS):
            # A sweep's spectra stand for the ground x satellite channel,
            # which the exact path builds whole.
            rows.append((key, "ground elements x satellite elements", (math.prod(ground), n_sat)))
    if isinstance(a, BeamMapAnalysis):
        rows.append(("analysis.n_ranges", "n_theta x n_ranges", (a.n_theta, a.n_ranges)))
    for key, what, counts in rows:
        if math.prod(counts) > _MAX_ENTRIES:
            raise ValidationError(
                f"'{key}': {what} is {math.prod(counts)} entries, "
                f"above the {_MAX_ENTRIES} one array may hold"
            )


def _satellite_clears_ground(s, path):
    # A sweep brings the satellite to its nearest range, where every element
    # must sit above the ground's highest, or an element of each can meet.
    # build_satellite_layout centres a mount on its mean; panels lie flat.
    if not isinstance(s.analysis, _SWEEPS):
        return
    sat, r = s.satellite, min(s.analysis.range_start_m, s.satellite.range_m)
    key = "analysis.range_start_m" if r < sat.range_m else "satellite.range_m"
    zs = [p[2] for p in sat.positions_m or ((0.0, 0.0, 0.0),)]
    lowest = r * math.cos(math.radians(sat.off_nadir_deg)) + (min(zs) - math.fsum(zs) / len(zs))
    highest = max((p[2] for p in s.ground.positions_m or ()), default=0.0)
    if not lowest > highest:
        raise ValidationError(
            f"'{key}': at this range the satellite's lowest element sits at z = "
            f"{lowest:.6g} m, not above the ground's highest at z = {highest:.6g} m"
        )


def _panels_fit(s, path):
    # A pitch in wavelengths is a length once scaled, and ground panels must
    # not overlap, whether placed or drawn.
    for section in ("ground", "satellite"):
        panel = getattr(getattr(s, section), "panel", None)
        if panel is not None and panel.spacing_wavelengths is not None:
            pitch = panel.spacing_wavelengths * s.wavelength
            if not _LENGTH.holds(pitch):
                raise ValidationError(
                    f"'{section}.panel.spacing_wavelengths' gives a pitch of {pitch:.6g} m "
                    f"at wavelength {s.wavelength:.6g} m; it {_LENGTH.describe()}"
                )
    if s.ground is None or s.ground.kind == "upa":
        return
    spec = _panel_spec(s.ground.panel, s.wavelength)
    if s.ground.positions_m is not None:
        try:
            check_panel_overlap(spec, s.ground.positions_m)
        except OverlappingPanels as exc:
            raise ValidationError(f"'ground.positions_m': {exc}") from None
    # Drawn centres are at least min_spacing_m apart, and panels overlap
    # when their centres are no farther apart than the panel extent.
    elif not s.ground.random.min_spacing_m > spec.extent:
        raise ValidationError(
            f"'ground.random.min_spacing_m' must exceed the panel extent "
            f"{spec.extent:.6g} m, or drawn panels can overlap"
        )


def _scan_outside_exclusion(s, path):
    if isinstance(s.analysis, OptimizePlacementAnalysis):
        try:
            _placement_objective(s.analysis, s.wavelength)
        except ValueError as exc:
            raise ValidationError(f"'analysis.scan_halfwidth_rad': {exc}") from None


def _finite_wavelength(s, path):
    wavelength_of(s.frequency_hz)


def _closed_form_finite(s, path):
    if analysis_kind(s.analysis) in _CLOSED_FORMS:
        try:
            closed_form(s.analysis, s.wavelength)
        except ValidationError as exc:
            raise ValidationError(f"'analysis': {exc}") from None


def _pitch_resolves(s, path):
    # Elements sit at centre + offset in float64. Two stay apart where their
    # separation on an axis exceeds twice the float64 spacing at the farthest
    # coordinate on it: a panel's pitch in x and y (its elements share z),
    # and a satellite mount's smallest nonzero separation on each axis.
    g, sat, panels, found = s.ground, s.satellite, [], []
    if g is not None and g.random is not None:
        far = (g.random.aperture_x_m / 2.0, g.random.aperture_y_m / 2.0)
        panels.append((g.panel, far, "ground.random"))
    elif g is not None and g.positions_m is not None:
        far = [max(abs(p[axis]) for p in g.positions_m) for axis in (0, 1)]
        panels.append((g.panel, far, "ground.positions_m"))
    if sat is not None:
        # A sweep moves the satellite out to its last range.
        key, r = "satellite.range_m", sat.range_m
        if isinstance(s.analysis, _SWEEPS) and s.analysis.range_stop_m > r:
            key, r = "analysis.range_stop_m", s.analysis.range_stop_m
        nadir = math.radians(sat.off_nadir_deg)
        centre = (r * math.sin(nadir), 0.0, r * math.cos(nadir))
        if sat.panel is not None:
            panels.append((sat.panel, centre, key))
        # build_satellite_layout centres a mount on its mean.
        for i, coords in enumerate(zip(*(sat.positions_m or ()))):
            ordered, mean = sorted(set(coords)), math.fsum(coords) / len(coords)
            if len(ordered) > 1:
                gap = min(b - a for a, b in zip(ordered, ordered[1:]))
                reach = centre[i] + max(abs(c - mean) for c in ordered)
                found.append((key, "smallest element separation", gap, "xyz"[i], reach))
    for panel, far, key in panels:
        spec = _panel_spec(panel, s.wavelength)
        for n, reach, axis in ((spec.cols, far[0], "x"), (spec.rows, far[1], "y")):
            if n > 1:
                reach += (n - 1) / 2.0 * spec.spacing
                found.append((key, "element pitch", spec.spacing, axis, reach))
    for key, what, gap, axis, reach in found:
        if not gap > 2.0 * math.ulp(reach):
            raise ValidationError(
                f"'{key}': the {what} {gap:.6g} m is not above twice "
                f"the float64 spacing at {axis} = {reach:.6g} m, so elements would coincide"
            )


def wavelength_of(frequency_hz: float, path="frequency_hz") -> float:
    """The carrier wavelength of a positive frequency, refused where it
    overflows (below about 1.7e-300 Hz)."""
    wavelength = SPEED_OF_LIGHT / frequency_hz
    if not math.isfinite(wavelength):
        raise ValidationError(f"'{path}' is too low: its wavelength overflows")
    return wavelength


# A wavelength flag: any positive finite length, with no bound of the carrier's.
WAVELENGTH = _f(float, _POSITIVE)


# ----- configuration tree -----


class PanelConfig(Record):
    rows: int = _f(int, _at_least(1))
    cols: int = _f(int, _at_least(1))
    spacing_m: Optional[float] = _f(float, _LENGTH, None)
    spacing_wavelengths: Optional[float] = _f(float, _POSITIVE, None)
    element_gain_dbi: float = _f(float, default=0.0)
    _checks = (_exactly_one("spacing_m", "spacing_wavelengths"),)


class RandomPlacementConfig(Record):
    aperture_x_m: float = _f(float, _LENGTH)
    aperture_y_m: float = _f(float, _LENGTH)
    n_panels: int = _f(int, _at_least(1))
    min_spacing_m: float = _f(float, _SPACING)
    seed: int = _f(int, _SEED)
    _checks = (_placement_fits,)


class GroundConfig(Record):
    kind: str = _f(("upa", "distributed"))
    panel: PanelConfig = _f(PanelConfig)
    random: Optional[RandomPlacementConfig] = _f(RandomPlacementConfig, default=None)
    positions_m: Optional[tuple] = _f(_POSITIONS, default=None)
    _checks = (_ground_placement,)


class SatelliteConfig(Record):
    range_m: float = _f(float, _LENGTH)
    off_nadir_deg: float = _f(float, Bound(0.0, 90.0, "[)"), 0.0)
    element_gain_dbi: float = _f(float, default=0.0, not_with="panel")
    panel: Optional[PanelConfig] = _f(PanelConfig, default=None)
    positions_m: Optional[tuple] = _f(_POSITIONS, default=None)
    _checks = (_exactly_one("panel", "positions_m"), _distinct_points)


class BoundariesAnalysis(Record):
    d_tx_m: float = _f(float, _POSITIVE)
    d_rx_m: float = _f(float, _POSITIVE)
    tau: float = _f(float, _TAU)


class _RangeSpan(Record):
    """The range span that sweeps and range cuts share; they add the rest."""

    range_start_m: float = _f(float, _LENGTH)
    range_stop_m: float = _f(float, _LENGTH)
    _checks = (_range_order,)


class SvdSweepAnalysis(_RangeSpan):
    n_ranges: int = _f(int, _count(2))
    spacing: str = _f(_SPACING_MODES, default="log")
    tau: float = _f(float, _TAU, 0.1)


class DofSweepAnalysis(_RangeSpan):
    n_ranges: int = _f(int, _count(2))
    tau: float = _f(float, _TAU)
    spacing: str = _f(_SPACING_MODES, default="log")


class BeamThetaAnalysis(Record):
    halfwidth_deg: float = _f(float, _HALFWIDTH_DEG, 2.0)
    n_theta: int = _f(int, _count(3), 2001)


class BeamRangeAnalysis(_RangeSpan):
    n_ranges: int = _f(int, _count(2), 200)
    spacing: str = _f(_SPACING_MODES, default="log")


class BeamMapAnalysis(_RangeSpan):
    halfwidth_deg: float = _f(float, _HALFWIDTH_DEG, 2.0)
    n_theta: int = _f(int, _count(3), 2001)
    n_ranges: int = _f(int, _count(2), 200)
    spacing: str = _f(_SPACING_MODES, default="log")


class OptimizePlacementAnalysis(Record):
    aperture_x_m: float = _f(float, _LENGTH)
    aperture_y_m: float = _f(float, _LENGTH)
    n_panels: int = _f(int, _at_least(2))
    min_spacing_m: float = _f(float, _SPACING)
    n_candidates: int = _f(int, _count(1))
    seed: int = _f(int, _SEED)
    scan_halfwidth_rad: float = _f(float, _POSITIVE)
    n_scan: int = _f(int, _count(100))
    exclusion_halfwidth_rad: Optional[float] = _f(float, _POSITIVE, None)
    steer_theta_rad: float = _f(float, default=0.0)
    steer_phi_rad: float = _f(float, default=0.0)
    _checks = (_placement_fits,)


class DishGainAnalysis(Record):
    diameter_m: float = _f(float, _POSITIVE)
    efficiency: float = _f(float, Bound(0.0, 1.0, "(]"))


# The one table between an analysis' ``kind`` and its class.
ANALYSIS_KINDS = {
    "boundaries": BoundariesAnalysis,
    "svd_sweep": SvdSweepAnalysis,
    "dof_sweep": DofSweepAnalysis,
    "beam_theta": BeamThetaAnalysis,
    "beam_range": BeamRangeAnalysis,
    "beam_map": BeamMapAnalysis,
    "optimize_placement": OptimizePlacementAnalysis,
    "dish_gain": DishGainAnalysis,
}
_KIND_OF = {cls: kind for kind, cls in ANALYSIS_KINDS.items()}
# The analyses run over the ground-satellite link; sweeps move the satellite.
_SWEEPS = (SvdSweepAnalysis, DofSweepAnalysis)
_BEAMS = (BeamThetaAnalysis, BeamRangeAnalysis, BeamMapAnalysis)

Analysis = Union[tuple(ANALYSIS_KINDS.values())]


def analysis_kind(analysis) -> str:
    """The scenario ``kind`` of an analysis object."""
    return _KIND_OF[type(analysis)]


class Scenario(Record):
    version: int = _f(int, _VERSION)
    frequency_hz: float = _f(float, _FREQUENCY)
    analysis: Analysis = _f(ANALYSIS_KINDS)
    ground: Optional[GroundConfig] = _f(GroundConfig, default=None)
    satellite: Optional[SatelliteConfig] = _f(SatelliteConfig, default=None)
    output_dir: str = _f(str, default=".")
    _checks = (
        _link_sections,
        _arrays_fit,
        _satellite_clears_ground,
        _panels_fit,
        _scan_outside_exclusion,
        _finite_wavelength,
        _closed_form_finite,
        _pitch_resolves,
    )

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency_hz


# ----- parsing -----


# libyaml's classes where PyYAML was built with it; they parse and emit the
# same documents as the pure-Python ones, several times faster.
_SafeLoader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_SafeDumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


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


def _join(path, key):
    return f"{path}.{key}" if path else key


def _as_mapping(value, path):
    if not isinstance(value, dict):
        raise ValidationError(f"'{path or 'scenario'}' must be a mapping")
    return value


def _as_float(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValidationError(f"'{path}' must be a number")
    try:
        number = float(value)
    except ValueError:
        raise ValidationError(f"'{path}' must be a number, got '{value}'") from None
    except OverflowError:  # an integer past the float64 range
        raise ValidationError(f"'{path}' must be finite, got an integer past 1.8e+308") from None
    if not math.isfinite(number):
        raise ValidationError(f"'{path}' must be finite, got {value}")
    return number


def _as_int(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValidationError(f"'{path}' must be an integer")
    try:
        return int(value)
    except ValueError:
        raise ValidationError(f"'{path}' must be an integer, got '{value}'") from None


def _as_positions(value, path):
    if not isinstance(value, list) or not value:
        raise ValidationError(f"'{path}' must be a nonempty list of [x, y] or [x, y, z]")
    rows = []
    for idx, item in enumerate(value):
        if not isinstance(item, list) or len(item) not in (2, 3):
            raise ValidationError(f"'{path}[{idx}]' must be [x, y] or [x, y, z]")
        coords = [_as_float(v, f"{path}[{idx}]") for v in item]
        if not all(_COORDINATE.holds(c) for c in coords):
            raise ValidationError(
                f"'{path}[{idx}]' coordinates {_COORDINATE.describe()}, got {coords}"
            )
        if len(coords) == 2:
            coords.append(0.0)
        rows.append(tuple(coords))
    return tuple(rows)


def _coerce(coerce, value, path):
    if coerce is float:
        return _as_float(value, path)
    if coerce is int:
        return _as_int(value, path)
    if coerce is str or isinstance(coerce, tuple):
        if not isinstance(value, str):
            raise ValidationError(f"'{path}' must be a string")
        if coerce is not str and value not in coerce:
            raise ValidationError(f"'{path}' must be one of {sorted(coerce)}, got '{value}'")
        return value
    if coerce == _POSITIONS:
        return _as_positions(value, path)
    if isinstance(coerce, dict):
        node = _as_mapping(value, path)
        if "kind" not in node:
            raise ValidationError(f"missing required key '{path}.kind'")
        cls = coerce[_coerce(tuple(coerce), node["kind"], f"{path}.kind")]
        return _walk(cls, {k: v for k, v in node.items() if k != "kind"}, path)
    return _walk(coerce, value, path)


def check_value(decl: Field, value, path):
    """``value`` coerced and bounded as the field ``decl`` declares, with any
    error naming ``path``."""
    value = _coerce(decl.metadata["coerce"], value, path)
    bound = decl.metadata["bound"]
    if bound is not None and not bound.holds(value):
        raise ValidationError(f"'{path}' {bound.describe()}, got {value}")
    return value


def _walk(cls, node, path):
    """Build ``cls`` from a parsed mapping, checked against its declarations."""
    node = _as_mapping(node, path)
    decls = cls._fields
    for key in node:
        if key not in decls:
            raise ValidationError(f"unknown key '{path or 'scenario'}.{key}'")
    for name, decl in decls.items():
        if name not in node and decl.default is MISSING:
            raise ValidationError(f"missing required key '{_join(path, name)}'")
    values = {k: check_value(decls[k], v, _join(path, k)) for k, v in node.items()}
    for key in values:
        sibling = decls[key].metadata["not_with"]
        if sibling in values:
            raise ValidationError(
                f"'{_join(path, key)}' belongs inside {_join(path, sibling)} "
                f"when a {sibling} is given"
            )
    obj = cls(**values)
    for check in getattr(cls, "_checks", ()):
        check(obj, path)
    return obj


def _load(text, at=""):
    """``text`` read as YAML, as the value at key path ``at`` or, where that
    is empty, as a whole scenario, refusing a mapping which repeats a key."""
    loader = _SafeLoader(text)
    try:
        node = loader.get_single_node()
        if node is None:  # an empty document
            return None
        _reject_duplicate_keys(node, at, set())
        return loader.construct_document(node)
    except yaml.YAMLError as exc:
        where = f"override syntax at '{at}'" if at else "scenario syntax"
        raise ParseError(f"invalid {where}: {exc}") from None
    finally:
        loader.dispose()


def _override(raw, override):
    """Set the raw mapping's key at a ``section.key=value`` override's path,
    making missing sections on the way, as an edit of the text would."""
    path, eq, value = override.partition("=")
    keys = path.split(".")
    if not eq or not all(keys):
        raise ParseError(f"override '{override}' must be section.key=value")
    node = _as_mapping(raw, "")
    for depth, key in enumerate(keys[:-1], 1):
        # A copy of each section on the path, so that one the text shares
        # through a YAML alias changes at this path alone.
        section = _as_mapping(node.get(key, {}), ".".join(keys[:depth]))
        node[key] = node = dict(section)
    node[keys[-1]] = _load(value, path)


def parse_scenario(text: str, overrides=()) -> Scenario:
    """Parse scenario text, strictly, into a :class:`Scenario`, each of
    ``overrides`` first setting one key (see :func:`_override`)."""
    raw = _load(text)
    for override in overrides:
        _override(raw, override)
    return _walk(Scenario, raw, "")


def load_scenario(path, overrides=()) -> Scenario:
    with open(path, "r") as handle:
        return parse_scenario(handle.read(), overrides)


# ----- serialization -----


def _to_dict(obj) -> dict:
    """Every set field as plain YAML types; an analysis leads with its kind."""
    out = {"kind": _KIND_OF[type(obj)]} if type(obj) in _KIND_OF else {}
    for (name, f), value in zip(obj._fields.items(), obj._values()):
        sibling = f.metadata["not_with"]
        if value is None or (sibling and getattr(obj, sibling) is not None):
            continue
        if isinstance(value, Record):
            value = _to_dict(value)
        elif isinstance(value, tuple):
            value = [list(row) for row in value]
        out[name] = value
    return out


def serialize_scenario(s: Scenario) -> str:
    """Canonical text form; ``parse_scenario`` round-trips it exactly."""
    return yaml.dump(_to_dict(s), Dumper=_SafeDumper, sort_keys=True, default_flow_style=False)


def scenario_hash(s: Scenario) -> str:
    return sha256_hex(serialize_scenario(s))[:16]


def _panel_spec(panel: PanelConfig, wavelength: float) -> PanelSpec:
    spacing = (
        panel.spacing_m
        if panel.spacing_m is not None
        else panel.spacing_wavelengths * wavelength
    )
    return PanelSpec(panel.rows, panel.cols, spacing, panel.element_gain_dbi)


def _placement_objective(ana: OptimizePlacementAnalysis, lam: float):
    from .objective import Direction, PlacementObjective, default_exclusion_halfwidth, support_width
    excl = ana.exclusion_halfwidth_rad
    if excl is None:
        along = support_width(ana.aperture_x_m, ana.aperture_y_m, ana.steer_phi_rad)
        excl = default_exclusion_halfwidth(along, lam)
    return PlacementObjective(
        steering=Direction(ana.steer_theta_rad, ana.steer_phi_rad),
        exclusion_halfwidth=excl,
        scan_range=(
            ana.steer_theta_rad - ana.scan_halfwidth_rad,
            ana.steer_theta_rad + ana.scan_halfwidth_rad,
        ),
        n_scan=ana.n_scan,
    )


def _boundaries(ana, lam):
    from .mimo import r_max, r_min
    knee = ana.d_tx_m * ana.d_rx_m / lam
    return {
        "d_tx_m": ana.d_tx_m,
        "d_rx_m": ana.d_rx_m,
        "wavelength_m": lam,
        "tau": ana.tau,
        "r_min_m": r_min(ana.d_tx_m, ana.d_rx_m, lam, ana.tau),
        "rising_start_m": knee,
        "falling_start_m": 2.0 * knee,
        "r_max_m": r_max(ana.d_tx_m, ana.d_rx_m, lam, ana.tau),
    }


def _dish(ana, lam):
    from .beamforming import DishSpec, dish_gain
    spec = DishSpec(ana.diameter_m, ana.efficiency)
    inputs = {"diameter_m": ana.diameter_m, "efficiency": ana.efficiency, "wavelength_m": lam}
    return {**inputs, "gain_dbi": dish_gain(spec, lam)}


# The closed-form kinds: their inputs and results, the file that holds
# them, and the results the report lists.
_CLOSED_FORMS = {
    "boundaries": (_boundaries, "boundaries.json", ("r_min_m", "r_max_m")),
    "dish_gain": (_dish, "dish.json", ("gain_dbi",)),
}


def closed_form(analysis, wavelength: float) -> dict:
    """The inputs and results of a ``boundaries`` or ``dish_gain`` analysis.

    Raises ValidationError where a result overflows or is not finite, which
    JSON cannot hold.
    """
    import numpy as np
    kind = analysis_kind(analysis)
    try:
        with np.errstate(all="ignore"):  # the check below reports it
            payload = _CLOSED_FORMS[kind][0](analysis, wavelength)
    except OverflowError:
        raise ValidationError(f"{kind} overflows: its inputs are out of range") from None
    for key, value in payload.items():
        if not math.isfinite(value):
            raise ValidationError(f"{kind} gives {key}={value}: its inputs are out of range")
    return payload


