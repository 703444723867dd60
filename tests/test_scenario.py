"""Scenario parsing, serialization round-trips, layout building, and runs."""

import copy
import json
import math
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nearlink.scenario import (
    SCENARIO_VERSION,
    SPEED_OF_LIGHT,
    BeamMapAnalysis,
    BeamRangeAnalysis,
    BeamThetaAnalysis,
    Bound,
    BoundariesAnalysis,
    DishGainAnalysis,
    DofSweepAnalysis,
    GroundConfig,
    OptimizePlacementAnalysis,
    PanelConfig,
    ParseError,
    SatelliteConfig,
    Scenario,
    SvdSweepAnalysis,
    ValidationError,
    build_ground_layout,
    build_satellite_layout,
    load_scenario,
    parse_scenario,
    run_scenario,
    scenario_hash,
    serialize_scenario,
)
from nearlink.mimo import ConvergenceFailure
from nearlink.panels import PlacementInfeasible
from nearlink.record import MISSING, Record, replace
from nearlink.schema import _FREQUENCY, _satellite_clears_ground, _to_dict

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")

MINIMAL = """\
version: 1
frequency_hz: 28.0e9
analysis:
  kind: dish_gain
  diameter_m: 1.47
  efficiency: 0.48
"""

DISTRIBUTED_GROUND = """\
ground:
  kind: distributed
  panel:
    rows: 2
    cols: 2
    spacing_wavelengths: 0.5
  positions_m:
    - [-10.0, 0.0]
    - [10.0, 0.0]
"""

SATELLITE_POINTS = """\
satellite:
  range_m: 1000.0
  positions_m:
    - [-0.1, 0.0]
    - [0.1, 0.0]
"""


def scenario_text(analysis_block, ground=DISTRIBUTED_GROUND, satellite=SATELLITE_POINTS):
    parts = ["version: 1", "frequency_hz: 28.0e9"]
    if ground:
        parts.append(ground.rstrip())
    if satellite:
        parts.append(satellite.rstrip())
    parts.append(analysis_block.rstrip())
    return "\n".join(parts) + "\n"


# ----- parsing -----


def test_parse_minimal_dish_scenario():
    s = parse_scenario(MINIMAL)
    assert s.version == SCENARIO_VERSION
    assert s.frequency_hz == 28.0e9
    assert s.ground is None and s.satellite is None
    assert isinstance(s.analysis, DishGainAnalysis)
    assert s.analysis.diameter_m == 1.47
    assert s.wavelength == SPEED_OF_LIGHT / 28.0e9


def test_numeric_strings_are_coerced():
    # YAML 1.1 lexes exponents without a sign ("28.0e9") as strings. The
    # parser must treat them as the numbers the author plainly wrote.
    s = parse_scenario(MINIMAL.replace("28.0e9", "'28.0e9'"))
    assert s.frequency_hz == 28.0e9


def test_bad_yaml_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_scenario("version: [unclosed")


def test_non_mapping_document_rejected():
    with pytest.raises(ValidationError):
        parse_scenario("- just\n- a\n- list\n")


def test_unknown_top_level_key_named_in_error():
    with pytest.raises(ValidationError, match="scenario.bandwidth_hz"):
        parse_scenario(MINIMAL + "bandwidth_hz: 1.0e6\n")


def test_unknown_nested_key_named_in_error():
    text = MINIMAL.replace("efficiency: 0.48", "efficiency: 0.48\n  taper: cosine")
    with pytest.raises(ValidationError, match="analysis.taper"):
        parse_scenario(text)


def test_wrong_version_rejected():
    with pytest.raises(ValidationError, match="version"):
        parse_scenario(MINIMAL.replace("version: 1", "version: 2"))


def test_missing_frequency_rejected():
    text = MINIMAL.replace("frequency_hz: 28.0e9\n", "")
    with pytest.raises(ValidationError, match="frequency_hz"):
        parse_scenario(text)


def test_nonpositive_frequency_rejected():
    with pytest.raises(ValidationError, match="frequency_hz"):
        parse_scenario(MINIMAL.replace("28.0e9", "-28.0e9"))
    with pytest.raises(ValidationError, match="frequency_hz"):
        parse_scenario(MINIMAL.replace("28.0e9", "0.0"))


def test_duplicate_keys_rejected_with_path():
    text = MINIMAL.replace("efficiency: 0.48", "efficiency: 0.48\n  efficiency: 0.9")
    with pytest.raises(ParseError, match="duplicate key 'analysis.efficiency'"):
        parse_scenario(text)
    text = MINIMAL + "frequency_hz: 30.0e9\n"
    with pytest.raises(ParseError, match="duplicate key 'frequency_hz'"):
        parse_scenario(text)
    nested = DISTRIBUTED_GROUND.replace("rows: 2", "rows: 2\n    rows: 3")
    with pytest.raises(ParseError, match="duplicate key 'ground.panel.rows'"):
        parse_scenario(scenario_text("analysis:\n  kind: beam_theta", ground=nested))


def test_override_sets_an_aliased_section_at_its_path_alone():
    # The two panels are one mapping, shared through a YAML alias.
    text = """\
version: 1
frequency_hz: 28.0e9
ground:
  kind: upa
  panel: &p {rows: 4, cols: 4, spacing_wavelengths: 0.5}
satellite:
  range_m: 500.0e3
  panel: *p
analysis: {kind: beam_theta, n_theta: 3}
"""
    for override, rows in (("satellite.panel.rows=2", (4, 2)), ("ground.panel.rows=2", (2, 4))):
        s = parse_scenario(text, [override])
        assert (s.ground.panel.rows, s.satellite.panel.rows) == rows, override


RANDOM_GROUND = """\
ground:
  kind: distributed
  panel:
    rows: 2
    cols: 2
    spacing_wavelengths: 0.5
  random:
    aperture_x_m: 100.0
    aperture_y_m: 80.0
    n_panels: 5
    min_spacing_m: 5.0
    seed: 3
"""

PLACEMENT = """\
analysis:
  kind: optimize_placement
  aperture_x_m: 200.0
  aperture_y_m: 100.0
  n_panels: 5
  min_spacing_m: 10.0
  n_candidates: 3
  seed: 7
  scan_halfwidth_rad: 1.0e-3
  n_scan: 101
"""


def test_negative_seeds_rejected_with_path():
    ground = RANDOM_GROUND.replace("seed: 3", "seed: -1")
    with pytest.raises(ValidationError, match="'ground.random.seed' must be a non-negative"):
        parse_scenario(scenario_text("analysis:\n  kind: beam_theta", ground=ground))
    text = scenario_text(PLACEMENT.replace("seed: 7", "seed: -2"), ground="", satellite="")
    with pytest.raises(ValidationError, match="'analysis.seed' must be a non-negative"):
        parse_scenario(text)


def test_non_finite_numbers_rejected_with_path():
    placement = scenario_text(PLACEMENT, ground="", satellite="")
    cases = [
        (placement.replace("min_spacing_m: 10.0", "min_spacing_m: .nan"), "analysis.min_spacing_m"),
        (placement + "  steer_theta_rad: .inf\n", "analysis.steer_theta_rad"),
        (
            scenario_text(
                "analysis:\n  kind: beam_theta",
                ground=DISTRIBUTED_GROUND.replace(
                    "spacing_wavelengths: 0.5", "spacing_wavelengths: 0.5\n    element_gain_dbi: .inf"
                ),
            ),
            "ground.panel.element_gain_dbi",
        ),
        (
            scenario_text(
                "analysis:\n  kind: beam_theta",
                satellite=SATELLITE_POINTS + "  element_gain_dbi: -.inf\n",
            ),
            "satellite.element_gain_dbi",
        ),
        (MINIMAL.replace("efficiency: 0.48", "efficiency: 'nan'"), "analysis.efficiency"),
        (
            scenario_text(
                "analysis:\n  kind: beam_theta",
                ground=DISTRIBUTED_GROUND.replace("[10.0, 0.0]", "[.inf, 0.0]"),
            ),
            r"ground.positions_m\[1\]",
        ),
    ]
    for text, path in cases:
        with pytest.raises(ValidationError, match=f"'{path}' must be finite"):
            parse_scenario(text)


def test_placement_geometry_that_cannot_run_rejected_with_path():
    placement = scenario_text(PLACEMENT, ground="", satellite="")
    beam = "analysis:\n  kind: beam_theta"
    cases = [
        # explicit exclusion zone as wide as the scan
        (
            placement + "  exclusion_halfwidth_rad: 1.0e-3\n",
            "'analysis.scan_halfwidth_rad': exclusion zone swallows",
        ),
        # the default zone, 2 lambda / 200 m = 1.07e-4 rad, wider than the scan
        (
            placement.replace("scan_halfwidth_rad: 1.0e-3", "scan_halfwidth_rad: 1.0e-4"),
            "'analysis.scan_halfwidth_rad': exclusion zone swallows",
        ),
        # corners of a 200 x 100 m field are 100 m apart
        (
            placement.replace("min_spacing_m: 10.0", "min_spacing_m: 150.0"),
            "'analysis.min_spacing_m': aperture corners are only 100 m apart",
        ),
        (
            placement.replace("min_spacing_m: 10.0", "min_spacing_m: -1.0"),
            "'analysis.min_spacing_m' must be non-negative",
        ),
        (
            scenario_text(
                beam, ground=RANDOM_GROUND.replace("min_spacing_m: 5.0", "min_spacing_m: 90.0")
            ),
            "'ground.random.min_spacing_m': aperture corners are only 80 m apart",
        ),
        (
            scenario_text(beam, ground=RANDOM_GROUND.replace("n_panels: 5", "n_panels: 0")),
            "'ground.random.n_panels' must be at least 1",
        ),
        # 300 disks of diameter 10 m cover 23 562 m^2, more than the 210 x
        # 110 m box their centres' disks must fit in
        (
            placement.replace("n_panels: 5", "n_panels: 300"),
            "'analysis.n_panels': 300 panels at least 10 m apart need 23561.9 m",
        ),
        (
            scenario_text(
                beam,
                ground=RANDOM_GROUND.replace("n_panels: 5", "n_panels: 400").replace(
                    "min_spacing_m: 5.0", "min_spacing_m: 6.0"
                ),
            ),
            "'ground.random.n_panels': 400 panels at least 6 m apart",
        ),
        # drawn centres may sit min_spacing_m apart, inside a 2x2 panel's
        # 7.57 mm extent at lambda/2, so drawn panels could overlap
        (
            scenario_text(
                beam, ground=RANDOM_GROUND.replace("min_spacing_m: 5.0", "min_spacing_m: 0.0075")
            ),
            "'ground.random.min_spacing_m' must exceed the panel extent 0.00757",
        ),
    ]
    for text, message in cases:
        with pytest.raises(ValidationError, match=message):
            parse_scenario(text)
    parse_scenario(placement.replace("min_spacing_m: 10.0", "min_spacing_m: 100.0"))
    # 290 disks (22 777 m^2) pass the packing bound
    parse_scenario(placement.replace("n_panels: 5", "n_panels: 290"))
    parse_scenario(
        scenario_text(
            beam, ground=RANDOM_GROUND.replace("min_spacing_m: 5.0", "min_spacing_m: 0.0076")
        )
    )


def test_panel_spacing_is_exclusive():
    both = scenario_text(
        "analysis:\n  kind: beam_theta",
        ground="""\
ground:
  kind: upa
  panel:
    rows: 4
    cols: 4
    spacing_m: 0.005
    spacing_wavelengths: 0.5
""",
    )
    with pytest.raises(ValidationError, match="exactly one of spacing"):
        parse_scenario(both)
    neither = both.replace("    spacing_m: 0.005\n", "").replace(
        "    spacing_wavelengths: 0.5\n", ""
    )
    with pytest.raises(ValidationError, match="exactly one of spacing"):
        parse_scenario(neither)


def test_upa_ground_takes_no_placement():
    text = scenario_text(
        "analysis:\n  kind: beam_theta",
        ground="""\
ground:
  kind: upa
  panel:
    rows: 4
    cols: 4
    spacing_wavelengths: 0.5
  positions_m:
    - [0.0, 0.0]
""",
    )
    with pytest.raises(ValidationError, match="upa"):
        parse_scenario(text)


def test_distributed_ground_needs_one_placement():
    base = """\
ground:
  kind: distributed
  panel:
    rows: 2
    cols: 2
    spacing_wavelengths: 0.5
"""
    with pytest.raises(ValidationError, match="exactly one of random or positions_m"):
        parse_scenario(scenario_text("analysis:\n  kind: beam_theta", ground=base))


def test_satellite_gain_must_live_inside_panel():
    text = scenario_text(
        "analysis:\n  kind: beam_theta",
        satellite="""\
satellite:
  range_m: 1000.0
  element_gain_dbi: 6.0
  panel:
    rows: 2
    cols: 2
    spacing_wavelengths: 0.5
""",
    )
    with pytest.raises(ValidationError, match="element_gain_dbi"):
        parse_scenario(text)


def test_satellite_off_nadir_range():
    for bad in ("-1.0", "90.0", "120.0"):
        text = scenario_text(
            "analysis:\n  kind: beam_theta",
            satellite=SATELLITE_POINTS.rstrip() + f"\n  off_nadir_deg: {bad}\n",
        )
        with pytest.raises(ValidationError, match="off_nadir_deg"):
            parse_scenario(text)


def test_positions_accept_2d_and_3d_rows():
    text = scenario_text(
        "analysis:\n  kind: beam_theta",
        satellite="""\
satellite:
  range_m: 1000.0
  positions_m:
    - [-0.1, 0.0]
    - [0.1, 0.0, 0.25]
""",
    )
    s = parse_scenario(text)
    assert s.satellite.positions_m == ((-0.1, 0.0, 0.0), (0.1, 0.0, 0.25))


def test_repeated_satellite_point_rejected_with_path():
    text = scenario_text(
        "analysis:\n  kind: dof_sweep\n  range_start_m: 1.0e3\n  range_stop_m: 2.0e3\n"
        "  n_ranges: 3\n  tau: 0.1",
        satellite="""\
satellite:
  range_m: 1000.0
  positions_m: [[0, 0], [0, 0], [1, 0], [0, 1]]
""",
    )
    with pytest.raises(ValidationError, match=r"satellite.positions_m\[1\]' repeats element 0"):
        parse_scenario(text)


def test_overlapping_ground_panels_rejected_with_path():
    ground = DISTRIBUTED_GROUND.replace("[10.0, 0.0]", "[-10.0, 0.0]")
    with pytest.raises(ValidationError, match=r"ground.positions_m': panels 0 and 1 are 0 m apart"):
        parse_scenario(scenario_text("analysis:\n  kind: beam_theta", ground=ground))
    # Closer than the 2x2 panel's diagonal at half-wavelength pitch, but apart.
    near = DISTRIBUTED_GROUND.replace("[10.0, 0.0]", "[-9.995, 0.0]")
    with pytest.raises(ValidationError, match="panel extent"):
        parse_scenario(scenario_text("analysis:\n  kind: beam_theta", ground=near))


def test_dof_sweep_requires_tau():
    text = scenario_text(
        """\
analysis:
  kind: dof_sweep
  range_start_m: 10.0
  range_stop_m: 100.0
  n_ranges: 5
"""
    )
    with pytest.raises(ValidationError, match="tau"):
        parse_scenario(text)


def test_sweep_range_ordering_enforced():
    text = scenario_text(
        """\
analysis:
  kind: svd_sweep
  range_start_m: 100.0
  range_stop_m: 10.0
  n_ranges: 5
"""
    )
    with pytest.raises(ValidationError):
        parse_scenario(text)


def test_unknown_analysis_kind_rejected():
    with pytest.raises(ValidationError, match="kind"):
        parse_scenario(scenario_text("analysis:\n  kind: holography"))


# ----- serialization -----


def all_kind_scenarios():
    """One valid scenario per analysis kind, exercising optional fields."""
    texts = {
        "boundaries": scenario_text(
            """\
analysis:
  kind: boundaries
  d_tx_m: 0.2
  d_rx_m: 0.2
  tau: 0.1
""",
            ground="",
            satellite="",
        ),
        "svd_sweep": scenario_text(
            """\
analysis:
  kind: svd_sweep
  range_start_m: 4.0
  range_stop_m: 100.0
  n_ranges: 9
  spacing: linear
"""
        ),
        "dof_sweep": scenario_text(
            """\
analysis:
  kind: dof_sweep
  range_start_m: 4.0
  range_stop_m: 100.0
  n_ranges: 9
  tau: 0.2
"""
        ),
        "beam_theta": scenario_text(
            "analysis:\n  kind: beam_theta\n  halfwidth_deg: 1.0\n  n_theta: 11"
        ),
        "beam_range": scenario_text(
            """\
analysis:
  kind: beam_range
  range_start_m: 500.0
  range_stop_m: 2000.0
  n_ranges: 7
"""
        ),
        "beam_map": scenario_text(
            """\
analysis:
  kind: beam_map
  range_start_m: 500.0
  range_stop_m: 2000.0
  n_ranges: 5
  halfwidth_deg: 1.0
  n_theta: 7
"""
        ),
        "optimize_placement": scenario_text(
            """\
analysis:
  kind: optimize_placement
  aperture_x_m: 200.0
  aperture_y_m: 100.0
  n_panels: 5
  min_spacing_m: 10.0
  n_candidates: 3
  seed: 7
  scan_halfwidth_rad: 1.0e-3
  n_scan: 101
  steer_phi_rad: 0.5
""",
            ground="",
            satellite="",
        ),
        "dish_gain": MINIMAL,
    }
    return {kind: parse_scenario(text) for kind, text in texts.items()}


def test_round_trip_every_analysis_kind():
    for kind, s in all_kind_scenarios().items():
        again = parse_scenario(serialize_scenario(s))
        assert again == s, kind
        assert scenario_hash(again) == scenario_hash(s), kind


def test_hash_ignores_formatting_not_content():
    s = parse_scenario(MINIMAL)
    reordered = parse_scenario(
        "analysis: {kind: dish_gain, efficiency: 0.48, diameter_m: 1.47}\n"
        "frequency_hz: '28.0e9'\n"
        "version: 1\n"
    )
    assert scenario_hash(reordered) == scenario_hash(s)
    changed = parse_scenario(MINIMAL.replace("0.48", "0.5"))
    assert scenario_hash(changed) != scenario_hash(s)
    assert len(scenario_hash(s)) == 16


def test_defaults_are_resolved_in_serialized_form():
    # Serialization writes the resolved values so a round-trip cannot drift
    # if defaults ever change.
    s = parse_scenario(
        scenario_text("analysis:\n  kind: beam_theta")
    )
    text = serialize_scenario(s)
    assert "halfwidth_deg: 2.0" in text
    assert "n_theta: 2001" in text
    assert "off_nadir_deg: 0.0" in text


# ----- layout building -----


def test_build_ground_layout_upa():
    s = parse_scenario(
        scenario_text(
            "analysis:\n  kind: beam_theta",
            ground="""\
ground:
  kind: upa
  panel:
    rows: 32
    cols: 32
    spacing_wavelengths: 0.5
    element_gain_dbi: 6.0
""",
        )
    )
    lay = build_ground_layout(s)
    assert lay.n_elements == 1024
    assert lay.panel_spec.element_gain_dbi == 6.0
    np.testing.assert_allclose(lay.positions.mean(axis=0), 0.0, atol=1e-12)
    # spacing_wavelengths resolves against the carrier.
    xs = np.unique(np.round(lay.positions[:, 0], 9))
    np.testing.assert_allclose(np.diff(xs), 0.5 * s.wavelength, atol=1e-9)


def test_build_ground_layout_explicit_positions():
    s = parse_scenario(scenario_text("analysis:\n  kind: beam_theta"))
    lay = build_ground_layout(s)
    # two 2x2 panels
    assert lay.n_elements == 8
    assert set(np.unique(lay.panel_ids)) == {0, 1}
    np.testing.assert_allclose(
        lay.positions[lay.panel_ids == 0].mean(axis=0), [-10.0, 0.0, 0.0], atol=1e-12
    )


def test_build_ground_layout_random_is_deterministic():
    text = scenario_text(
        "analysis:\n  kind: beam_theta",
        ground="""\
ground:
  kind: distributed
  panel:
    rows: 2
    cols: 2
    spacing_wavelengths: 0.5
  random:
    aperture_x_m: 400.0
    aperture_y_m: 300.0
    n_panels: 6
    min_spacing_m: 20.0
    seed: 3
""",
    )
    a = build_ground_layout(parse_scenario(text))
    b = build_ground_layout(parse_scenario(text))
    np.testing.assert_array_equal(a.positions, b.positions)
    assert a.n_elements == 24


def test_build_ground_layout_requires_section():
    with pytest.raises(ValidationError, match="ground"):
        build_ground_layout(parse_scenario(MINIMAL))


def test_build_satellite_layout_nadir():
    s = parse_scenario(scenario_text("analysis:\n  kind: beam_theta"))
    lay = build_satellite_layout(s)
    assert lay.n_elements == 2
    np.testing.assert_allclose(lay.positions.mean(axis=0), [0.0, 0.0, 1000.0], atol=1e-9)
    # explicit positions recenter on their centroid before placement
    np.testing.assert_allclose(
        sorted(lay.positions[:, 0]), [-0.1, 0.1], atol=1e-12
    )


def test_build_satellite_layout_off_nadir_center():
    text = scenario_text(
        "analysis:\n  kind: beam_theta",
        satellite="""\
satellite:
  range_m: 1000.0
  off_nadir_deg: 30.0
  panel:
    rows: 1
    cols: 1
    spacing_wavelengths: 0.5
""",
    )
    lay = build_satellite_layout(parse_scenario(text))
    want = 1000.0 * np.array([math.sin(math.radians(30.0)), 0.0, math.cos(math.radians(30.0))])
    np.testing.assert_allclose(lay.positions[0], want, atol=1e-9)


def test_build_satellite_layout_range_override():
    s = parse_scenario(scenario_text("analysis:\n  kind: beam_theta"))
    lay = build_satellite_layout(s, range_m=2500.0)
    np.testing.assert_allclose(lay.positions.mean(axis=0), [0.0, 0.0, 2500.0], atol=1e-9)


def test_build_satellite_layout_requires_section():
    # The parser refuses a beam analysis without a satellite; a scenario
    # built by hand still meets the builder's own check.
    with pytest.raises(ValidationError, match="'satellite'"):
        parse_scenario(scenario_text("analysis:\n  kind: beam_theta", satellite=""))
    s = replace(parse_scenario(scenario_text("analysis:\n  kind: beam_theta")), satellite=None)
    with pytest.raises(ValidationError, match="satellite"):
        build_satellite_layout(s)


# ----- running -----


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def read_csv(path):
    with open(path) as handle:
        lines = [ln for ln in handle if not ln.startswith("#")]
    return np.genfromtxt(lines, delimiter=",", names=True)


def test_run_boundaries(tmp_path):
    s = load_scenario(os.path.join(SCENARIO_DIR, "boundaries_benchtop.scenario"))
    report = run_scenario(s, output_dir=str(tmp_path))
    assert report.scenario_hash == scenario_hash(s)
    payload = read_json(report.output_files[0])
    np.testing.assert_allclose(payload["r_min_m"], 4.2709993272020625, rtol=1e-12)
    np.testing.assert_allclose(payload["r_max_m"], 63.04073698334327, rtol=1e-12)
    np.testing.assert_allclose(payload["rising_start_m"], 4.0, rtol=1e-12)
    np.testing.assert_allclose(payload["falling_start_m"], 8.0, rtol=1e-12)
    assert report.key_scalars["r_max_m"] == payload["r_max_m"]


def test_run_svd_sweep_benchtop(tmp_path):
    s = load_scenario(os.path.join(SCENARIO_DIR, "ratio_vs_range_benchtop.scenario"))
    report = run_scenario(s, output_dir=str(tmp_path))
    # reference range sits exactly on the rising-region peak
    assert report.key_scalars["dof_at_reference_range"] == 2.0
    assert report.key_scalars["ratio_at_reference_range"] > 0.999
    rows = read_csv(report.output_files[0])
    assert len(rows) == 97
    assert rows["r_meters"][0] == 4.0 and rows["r_meters"][-1] == 100.0


def streamed_sweep(n_ranges):
    # A dof sweep over two 32 x 32 panels from the 4-element mount of
    # dof_vs_range: blocks of 16 links, all factorized.
    return f"""\
version: 1
frequency_hz: 28.0e9
ground:
  kind: distributed
  panel: {{rows: 32, cols: 32, spacing_wavelengths: 0.5}}
  positions_m: [[-50.0, 0.0], [50.0, 0.0]]
satellite:
  range_m: 450.0e3
  positions_m: [[-0.707, -0.5], [0.707, -0.5], [-0.707, 0.5], [0.707, 0.5]]
analysis:
  kind: dof_sweep
  range_start_m: 100.0e3
  range_stop_m: 3000.0e3
  n_ranges: {n_ranges}
  tau: 0.1
"""


def test_a_sweep_that_fails_partway_leaves_nothing_behind(tmp_path, monkeypatch):
    # 48 ranges and the reference range take four SVDs, blocks of 16 links;
    # the last, of the reference range alone, comes after every CSV row. A
    # failure at any of them leaves neither spectrum.csv nor a temp file.
    s = parse_scenario(streamed_sweep(48))
    real_svd, calls = np.linalg.svd, []

    def svd_failing_at(call):
        def svd(*args, **kwargs):
            calls.append(None)
            if len(calls) == call:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(*args, **kwargs)

        return svd

    monkeypatch.setattr(np.linalg, "svd", svd_failing_at(None))
    report = run_scenario(s, output_dir=str(tmp_path / "whole"))
    assert report.details["channel_kernel"] == "panel_factorized" and len(calls) == 4
    assert os.listdir(tmp_path / "whole") == ["spectrum.csv"]
    for call in range(1, 5):
        calls.clear()
        monkeypatch.setattr(np.linalg, "svd", svd_failing_at(call))
        out = tmp_path / f"failed_at_{call}"
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            run_scenario(s, output_dir=str(out))
        assert os.listdir(out) == []


def test_sweep_memory_does_not_grow_with_its_ranges(tmp_path):
    # A sweep streams its centres, its spectra and its CSV rows: from 1 000
    # to 4 000 ranges its traced peak grows by no more than the range axis
    # and one array of centres would, 32 B a range.
    def peak(n_ranges):
        s = parse_scenario(streamed_sweep(n_ranges))
        tracemalloc.start()
        try:
            run_scenario(s, output_dir=str(tmp_path))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # the first run's imports and caches
    assert peak(4000) - peak(1000) <= 32 * 3000


def test_run_beam_theta_small(tmp_path):
    text = """\
version: 1
frequency_hz: 28.0e9
ground:
  kind: distributed
  panel:
    rows: 4
    cols: 4
    spacing_wavelengths: 0.5
    element_gain_dbi: 6.0
  positions_m:
    - [-50.0, 0.0]
    - [50.0, 0.0]
    - [0.0, 40.0]
satellite:
  range_m: 100.0e3
  panel:
    rows: 1
    cols: 1
    spacing_wavelengths: 0.5
analysis:
  kind: beam_theta
  halfwidth_deg: 0.5
  n_theta: 101
"""
    s = parse_scenario(text)
    report = run_scenario(s, output_dir=str(tmp_path))
    n = 3 * 16
    want = 10.0 * math.log10(n) + 6.0
    np.testing.assert_allclose(report.key_scalars["peak_gain_dbi"], want, atol=1e-6)
    np.testing.assert_allclose(report.key_scalars["gain_at_focus_dbi"], want, atol=1e-6)
    assert report.key_scalars["gain_at_double_range_dbi"] <= want


def test_run_optimize_placement_small(tmp_path):
    text = """\
version: 1
frequency_hz: 28.0e9
analysis:
  kind: optimize_placement
  aperture_x_m: 400.0
  aperture_y_m: 300.0
  n_panels: 6
  min_spacing_m: 20.0
  n_candidates: 4
  seed: 5
  scan_halfwidth_rad: 5.0e-4
  n_scan: 401
  steer_phi_rad: 0.5235987755982988
"""
    s = parse_scenario(text)
    report = run_scenario(s, output_dir=str(tmp_path))
    assert report.key_scalars["peak_sidelobe_db"] <= 0.0
    payload = read_json(report.output_files[0])
    assert payload["candidates_evaluated"] == 4
    assert payload["objective"]["exclusion_halfwidth_rad"] > 0.0
    assert (tmp_path / "placement_layout.txt").read_text().startswith("# nearlink-layout v1")


def test_run_dish(tmp_path):
    s = load_scenario(os.path.join(SCENARIO_DIR, "dish_reference.scenario"))
    report = run_scenario(s, output_dir=str(tmp_path))
    np.testing.assert_allclose(report.key_scalars["gain_dbi"], 49.5085, atol=1e-3)
    payload = read_json(report.output_files[0])
    assert payload["diameter_m"] == 1.47


def test_run_outputs_are_byte_deterministic(tmp_path):
    s = load_scenario(os.path.join(SCENARIO_DIR, "ratio_vs_range_benchtop.scenario"))
    first = run_scenario(s, output_dir=str(tmp_path / "a"))
    second = run_scenario(s, output_dir=str(tmp_path / "b"))
    for pa, pb in zip(first.output_files, second.output_files):
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read()


def test_report_lists_only_real_files(tmp_path):
    for name in ("boundaries_benchtop", "dish_reference", "ratio_vs_range_benchtop"):
        s = load_scenario(os.path.join(SCENARIO_DIR, f"{name}.scenario"))
        report = run_scenario(s, output_dir=str(tmp_path / name))
        assert report.output_files
        for path in report.output_files:
            assert os.path.getsize(path) > 0
        assert report.wall_time_s >= 0.0


def test_outputs_take_the_mode_the_umask_gives(tmp_path):
    # Every output file is 0666 less the umask, as open() would make it,
    # not the 0600 of the temporary file it is renamed from.
    for umask in (0o022, 0o077, 0o002):
        old = os.umask(umask)
        try:
            report = run_scenario(
                load_scenario(os.path.join(SCENARIO_DIR, "placement_search.scenario")),
                output_dir=str(tmp_path / oct(umask)),
            )
        finally:
            os.umask(old)
        assert len(report.output_files) >= 2
        for path in report.output_files:
            assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask


def test_all_shipped_scenarios_parse():
    names = sorted(os.listdir(SCENARIO_DIR))
    assert len(names) >= 9
    for name in names:
        s = load_scenario(os.path.join(SCENARIO_DIR, name))
        assert s.version == SCENARIO_VERSION
        # serialized form must round-trip for every shipped file
        assert parse_scenario(serialize_scenario(s)) == s


# ----- declarations -----


SHIPPED_HASHES = {
    "beam_map_distributed": "a260e856f64ccc8e",
    "beam_range_focus": "568ef37a2c921f3c",
    "beam_theta_distributed": "a8d9023b542c6ef4",
    "beam_theta_upa": "9980bf7ee630e1fc",
    "boundaries_benchtop": "5653002d5bf83b33",
    "dish_reference": "bdef47a462de8294",
    "dof_vs_range": "4ee41e4417327676",
    "placement_search": "7527f045ff47f6bc",
    "ratio_vs_range_benchtop": "b28b88fb62eb0ccd",
}


def python_dump(s):
    """The scenario's canonical text from PyYAML's pure-Python emitter."""
    return yaml.safe_dump(_to_dict(s), sort_keys=True, default_flow_style=False)


def test_shipped_scenarios_keep_their_hashes():
    # The hash heads every output file, so a serializer that drifts by one
    # byte would change every output of every shipped scenario.
    for name, want in SHIPPED_HASHES.items():
        s = load_scenario(os.path.join(SCENARIO_DIR, f"{name}.scenario"))
        assert scenario_hash(s) == want
        assert serialize_scenario(s) == python_dump(s)


# Of each pair, a valid section sets exactly one; a upa ground sets neither.
EXCLUSIVE = {
    PanelConfig: ("spacing_m", "spacing_wavelengths"),
    GroundConfig: ("random", "positions_m"),
    SatelliteConfig: ("panel", "positions_m"),
}


def _number(draw, decl, is_int):
    """A value inside the declared bound, of moderate magnitude; a carrier
    frequency log-uniform over its band, from where its wavelength
    overflows (about 1.7e-300 Hz) up to 1e200 Hz, radio carriers among
    them."""
    bound = decl.metadata["bound"] or Bound()
    if bound == _FREQUENCY:
        return 10.0 ** draw(st.floats(-300.0, np.log10(bound.hi)))
    if is_int:
        lo = int(bound.lo) if np.isfinite(bound.lo) else -10
        return draw(st.integers(lo, int(min(bound.hi, lo + 10))))
    lo, hi = max(bound.lo, -1.0e3), min(bound.hi, 1.0e3)
    open_lo = lo == bound.lo and bound.closed[0] == "("
    open_hi = hi == bound.hi and bound.closed[1] == ")"
    return draw(st.floats(lo, hi, exclude_min=open_lo, exclude_max=open_hi))


@st.composite
def sections(draw, cls):
    """``cls`` with its fields drawn from their declarations. A field with
    a default is sometimes left at it, and of an exclusive pair only one is
    drawn."""
    pair = EXCLUSIVE.get(cls, ())
    keep = draw(st.sampled_from(pair + ((None,) if cls is GroundConfig else ()))) if pair else None
    values = {}
    for name, decl in cls._fields.items():
        coerce = decl.metadata["coerce"]
        if (name in pair and name != keep) or (keep and decl.metadata["not_with"] == keep):
            continue
        if decl.default is not MISSING and name != keep and draw(st.booleans()):
            continue
        if coerce in (float, int):
            values[name] = _number(draw, decl, coerce is int)
        elif isinstance(coerce, tuple):
            values[name] = draw(st.sampled_from(coerce))
        elif coerce is str:
            values[name] = draw(st.text("abc/._- 019", max_size=8))
        elif coerce == "positions":
            point = st.tuples(*[st.floats(-1.0e3, 1.0e3)] * 3)
            values[name] = tuple(draw(st.lists(point, min_size=1, max_size=4, unique=True)))
        elif isinstance(coerce, dict):
            values[name] = draw(sections(draw(st.sampled_from(list(coerce.values())))))
        else:
            values[name] = draw(sections(coerce))
    if cls is GroundConfig:
        values["kind"] = "upa" if keep is None else "distributed"
    # Random placement pins the aperture corners first, at least this far apart.
    if "min_spacing_m" in values:
        values["min_spacing_m"] = min(
            values["min_spacing_m"], values["aperture_x_m"], values["aperture_y_m"]
        )
    if "range_start_m" in values:
        start, stop = sorted((values["range_start_m"], values["range_stop_m"]))
        assume(start < stop)
        values.update(range_start_m=start, range_stop_m=stop)
    obj = cls(**values)
    # A sweep whose satellite reaches down to the ground is refused; keep
    # such draws out rather than spend examples on them.
    if cls is Scenario and obj.ground is not None and obj.satellite is not None:
        try:
            _satellite_clears_ground(obj, "")
        except ValidationError:
            assume(False)
    return obj


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sections(Scenario))
def test_generated_scenarios_round_trip(s):
    # Cross checks refuse some draws, such as overlapping panels; every
    # scenario they accept must come back unchanged, with the same hash.
    assert serialize_scenario(s) == python_dump(s)
    try:
        again = parse_scenario(serialize_scenario(s))
    except ValidationError:
        assume(False)
    assert again == s
    assert scenario_hash(again) == scenario_hash(s)


def _shipped(name, *pairs):
    """Shipped scenario ``name``'s text with each (old, new) pair replaced."""
    with open(os.path.join(SCENARIO_DIR, f"{name}.scenario")) as handle:
        text = handle.read()
    for old, new in pairs:
        assert old in text, (name, old)
        text = text.replace(old, new, 1)
    return text


def _small_upa(n, *pairs):
    # beam_theta_upa with an n x n ground, cut to 11 angles.
    upa = (("rows: 128", f"rows: {n}"), ("cols: 128", f"cols: {n}"))
    return _shipped("beam_theta_upa", *upa, ("n_theta: 2001", "n_theta: 11"), *pairs)


def _capped(s):
    """``s`` as text, with an n_theta or n_ranges left at its default (2001
    or 200, about 1.3 s a run) cut to 11. Drawn counts lie within 10 of
    their floor, so each run stays near 50 ms."""
    counts = {n: 11 for n in ("n_theta", "n_ranges") if getattr(s.analysis, n, 0) > 13}
    return serialize_scenario(replace(s, analysis=replace(s.analysis, **counts)))


def _leaves(doc, path=()):
    """The key path of every value of a parsed mapping that is no mapping."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


def _split(text, picks):
    """``text`` without the leaves that ``picks`` index (modulo their count),
    and the ``section.key=value`` overrides that set them back."""
    doc = yaml.safe_load(text)
    leaves = list(_leaves(doc))
    overrides = []
    for path in sorted({leaves[i % len(leaves)] for i in picks}):
        node = doc
        for key in path[:-1]:
            node = node[key]
        value = yaml.safe_dump(node.pop(path[-1]), default_flow_style=True)
        overrides.append(f"{'.'.join(path)}={value}")
    return yaml.safe_dump(doc), overrides


# Scenarios that validate used to accept and run then failed (exit 1 or a
# RuntimeWarning): a range or a pitch whose square underflows, a pitch in
# wavelengths past the length bound, a focus on the panel centre, a kernel
# bound whose tail overflows, a scan that rounds above the main lobe, and a
# carrier so high that k d overflows (now refused at frequency_hz).
@example(_shipped("ratio_vs_range_benchtop", ("range_m: 8.0", "range_m: 5.0e-324")), [])
@example(
    _shipped(
        "ratio_vs_range_benchtop",
        ("frequency_hz: 29979245800.0", "frequency_hz: 1.0e+300"),
        ("range_stop_m: 100.0", "range_stop_m: 1.0e+20"),
        ("spacing_wavelengths: 0.5", "spacing_m: 0.005"),
    ),
    [],
)
@example(_small_upa(4, ("spacing_wavelengths: 0.5", "spacing_m: 5.0e-324")), [])
@example(_small_upa(4, ("frequency_hz: 28.0e9", "frequency_hz: 1.0e-150")), [])
@example(
    _small_upa(
        128,
        ("range_m: 500.0e3", "range_m: 1.0e-20"),
        ("  panel:\n    rows: 1\n    cols: 1\n    spacing_wavelengths: 0.5\n",
         "  positions_m: [[0, 0, -1], [0, 0, 1]]\n"),
    ),
    [],
)
@example(
    _small_upa(
        2,
        ("frequency_hz: 28.0e9", "frequency_hz: 1.0e-70"),
        ("range_m: 500.0e3", "range_m: 1.0e90"),
    ),
    [],
)
@example(
    _shipped(
        "placement_search",
        ("frequency_hz: 28.0e9", "frequency_hz: 904.0536097983003"),
        ("aperture_x_m: 1414.0", "aperture_x_m: 8.054464598295456e-80"),
        ("aperture_y_m: 1000.0", "aperture_y_m: 951.9970079672213"),
        ("n_panels: 16", "n_panels: 2"),
        ("min_spacing_m: 50.0", "min_spacing_m: 2.653672424725589e-274"),
        ("n_candidates: 500", "n_candidates: 6"),
        ("seed: 0", "seed: 9"),
        ("scan_halfwidth_rad: 2.5e-4", "scan_halfwidth_rad: 2.0"),
        ("n_scan: 2001", "n_scan: 101\n  exclusion_halfwidth_rad: 1.175494351e-38"),
        ("steer_phi_rad: 0.5235987755982988", "steer_phi_rad: 640.6411895306169"),
    ),
    [],
)
# About one draw in five validates; 220 draws run about 40 scenarios.
@settings(max_examples=220, deadline=None, derandomize=True)
@given(sections(Scenario).map(_capped), st.lists(st.integers(0, 63), max_size=3))
def test_every_scenario_validate_accepts_runs(text, picks):
    # validate => run: a scenario the parser accepts runs with no exception
    # and no RuntimeWarning. Only a random draw may fail, for want of room.
    # The leaves ``picks`` indexes, moved out of the text into overrides,
    # must give the same scenario, or be refused as it is.
    rest, overrides = _split(text, picks)
    try:
        s = parse_scenario(text)
    except ValidationError:
        with pytest.raises(ValidationError):
            parse_scenario(rest, overrides)
        return
    assert parse_scenario(rest, overrides) == s
    with tempfile.TemporaryDirectory() as out:
        try:
            run_scenario(s, output_dir=out)
        except PlacementInfeasible:
            assert isinstance(s.analysis, OptimizePlacementAnalysis) or s.ground.random


def _numeric_fields(obj, path=()):
    """(key path, value, bound) of every number set in a parsed section."""
    for name, decl in obj._fields.items():
        value, where = getattr(obj, name), path + (name,)
        if isinstance(value, Record):
            yield from _numeric_fields(value, where)
        elif isinstance(value, tuple):
            yield where + (0, 0), value[0][0], None
        elif isinstance(value, (int, float)):
            yield where, value, decl.metadata["bound"]


def _past(bound, is_int):
    """Values just outside each finite end of ``bound``."""
    below = (lambda x: x - 1) if is_int else (lambda x: float(np.nextafter(x, -np.inf)))
    above = (lambda x: x + 1) if is_int else (lambda x: float(np.nextafter(x, np.inf)))
    if np.isfinite(bound.lo):
        yield bound.lo if bound.closed[0] == "(" else below(bound.lo)
    if np.isfinite(bound.hi):
        yield bound.hi if bound.closed[1] == ")" else above(bound.hi)


def test_out_of_domain_numbers_rejected_with_path():
    # Every number of every shipped scenario, set to nan, +-inf and just past
    # each end of its declared bound, must fail parsing with its key path.
    # Bounds are checked before any cross check, so a key already tried at
    # the same value in another scenario is skipped.
    seen = set()
    for name in SHIPPED_HASHES:
        s = load_scenario(os.path.join(SCENARIO_DIR, f"{name}.scenario"))
        doc = yaml.safe_load(serialize_scenario(s))
        for path, value, bound in _numeric_fields(s):
            if (path, value) in seen:
                continue
            seen.add((path, value))
            where = re.escape("'" + ".".join(k for k in path if isinstance(k, str)))
            past = _past(bound, isinstance(value, int)) if bound else ()
            for bad in (np.nan, np.inf, -np.inf, *past):
                mutated = node = copy.deepcopy(doc)
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = bad
                with pytest.raises(ValidationError, match=where):
                    parse_scenario(yaml.safe_dump(mutated))
