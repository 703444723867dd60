"""Command-line surface: exit codes, printed output, flag overrides."""

import glob
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import nearlink
from nearlink.cli import main

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def scen(name):
    return os.path.join(SCENARIO_DIR, name + ".scenario")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    pairs = {}
    for line in out.splitlines():
        key, _, value = line.partition("=")
        pairs.setdefault(key, []).append(value)
    return pairs


# ----- exit codes -----


def test_success_is_zero(capsys):
    code, out, err = run_cli(
        capsys, "boundaries", "--dtx", "0.2", "--drx", "0.2", "--lambda", "0.01"
    )
    assert code == 0
    assert err == ""


def test_validation_error_is_three(capsys):
    dish = ("dish-gain", "--diameter", "1.47", "--efficiency", "0.48")
    cases = [
        (("boundaries", "--dtx", "-0.2", "--drx", "0.2", "--lambda", "0.01"), "--dtx"),
        (("boundaries", "--dtx", "nan", "--drx", "0.2", "--frequency", "28e9"), "--dtx"),
        (("dish-gain", "--diameter", "1.47", "--efficiency", "1.5", "--frequency", "28e9"), "--efficiency"),
        (("dish-gain", "--diameter", "-1", "--efficiency", "0.48", "--frequency", "28e9"), "--diameter"),
        (dish + ("--frequency", "1e-300"), "--frequency"),
    ]
    # Non-finite carriers used to reach the numerics and exit 1.
    for calculator in (("boundaries", "--dtx", "0.2", "--drx", "0.2"), dish):
        cases += [
            (calculator + ("--frequency", "nan"), "--frequency"),
            (calculator + ("--lambda", "nan"), "--lambda"),
            (calculator + ("--lambda", "inf"), "--lambda"),
        ]
    for argv, flag in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 3, argv
        assert err.startswith("error: ")
        assert flag in err, argv


def test_lambda_takes_no_bound_of_the_frequency(capsys):
    # A wavelength is any positive finite length; a frequency keeps the
    # scenario's ceiling of 1e200 Hz.
    calculator = ("boundaries", "--dtx", "0.2", "--drx", "0.2", "--tau", "0.1")
    for wavelength in ("1e-250", "1e201"):
        code, out, err = run_cli(capsys, *calculator, "--lambda", wavelength)
        assert code == 0 and err == "" and "r_max_m=" in out, wavelength
    code, out, err = run_cli(capsys, *calculator, "--frequency", "1e201")
    assert code == 3 and out == ""
    assert err == "error: '--frequency' must be positive and at most 1e+200, got 1e+201\n"


def test_tau_bounds_checked(capsys):
    for bad in ("0.0", "1.0", "1.5"):
        code, _, err = run_cli(
            capsys,
            "boundaries", "--dtx", "0.2", "--drx", "0.2", "--lambda", "0.01",
            "--tau", bad,
        )
        assert code == 3
        assert "--tau" in err


def test_invalid_scenario_file_is_three(tmp_path, capsys):
    bad = tmp_path / "bad.scenario"
    bad.write_text("version: 1\nfrequency_hz: 28.0e9\nbogus_key: 1\n")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 3
    assert "bogus_key" in err


def test_missing_file_is_runtime_failure(capsys):
    code, _, err = run_cli(capsys, "run", "/nonexistent/path.scenario")
    assert code == 1
    assert err.startswith("error: ")


def test_argparse_errors_are_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["boundaries", "--dtx", "0.2"])  # missing --drx and wavelength
    assert excinfo.value.code == 2


def test_errors_are_single_line(tmp_path, capsys):
    bad = tmp_path / "bad.scenario"
    bad.write_text("version: 1\nfrequency_hz: 28.0e9\nanalysis:\n  kind: [a\n")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 3
    # YAML errors span lines; the CLI must flatten them for grep-ability.
    assert err.endswith("\n") and err.count("\n") == 1


# ----- simple calculators -----


def test_boundaries_output_values(capsys):
    code, out, _ = run_cli(
        capsys, "boundaries", "--dtx", "0.2", "--drx", "0.2", "--lambda", "0.01"
    )
    assert code == 0
    kv = parse_kv(out)
    np.testing.assert_allclose(float(kv["r_min_m"][0]), 4.2709993272020625, rtol=1e-12)
    np.testing.assert_allclose(float(kv["rising_start_m"][0]), 4.0, rtol=1e-12)
    np.testing.assert_allclose(float(kv["falling_start_m"][0]), 8.0, rtol=1e-12)
    np.testing.assert_allclose(float(kv["r_max_m"][0]), 63.04073698334327, rtol=1e-12)


def test_boundaries_frequency_flag_matches_lambda(capsys):
    _, out_l, _ = run_cli(
        capsys, "boundaries", "--dtx", "0.2", "--drx", "0.2", "--lambda", "0.01"
    )
    _, out_f, _ = run_cli(
        capsys, "boundaries", "--dtx", "0.2", "--drx", "0.2",
        "--frequency", "29979245800.0",
    )
    assert out_l == out_f


def test_wavelength_flags_are_exclusive(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([
            "boundaries", "--dtx", "0.2", "--drx", "0.2",
            "--lambda", "0.01", "--frequency", "28.0e9",
        ])
    assert excinfo.value.code == 2


def test_dish_gain_output(capsys):
    code, out, _ = run_cli(
        capsys, "dish-gain", "--diameter", "1.47", "--efficiency", "0.48",
        "--frequency", "28.0e9",
    )
    assert code == 0
    kv = parse_kv(out)
    np.testing.assert_allclose(float(kv["gain_dbi"][0]), 49.5085, atol=1e-3)


# ----- scenario commands -----


def test_validate_prints_kind_and_hash_and_writes_nothing(tmp_path, capsys, monkeypatch):
    path = os.path.abspath(scen("boundaries_benchtop"))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "validate", path)
    assert code == 0
    assert out.startswith("valid kind=boundaries hash=")
    assert len(out.split("hash=")[1].strip()) == 16
    assert os.listdir(tmp_path) == []


def test_run_prints_report(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "run", scen("boundaries_benchtop"), "--output-dir", str(tmp_path)
    )
    assert code == 0
    kv = parse_kv(out)
    assert "scenario_hash" in kv and "wall_time_s" in kv
    out_files = kv["output"]
    assert len(out_files) == 1 and out_files[0].endswith("boundaries.json")
    assert os.path.exists(out_files[0])
    np.testing.assert_allclose(float(kv["r_max_m"][0]), 63.04073698334327, rtol=1e-12)


def test_run_hash_matches_validate_hash(tmp_path, capsys):
    _, val_out, _ = run_cli(capsys, "validate", scen("dish_reference"))
    _, run_out, _ = run_cli(
        capsys, "run", scen("dish_reference"), "--output-dir", str(tmp_path)
    )
    val_hash = val_out.split("hash=")[1].strip()
    run_hash = parse_kv(run_out)["scenario_hash"][0]
    assert val_hash == run_hash


def test_svd_sweep_uses_scenario_analysis(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "run", scen("ratio_vs_range_benchtop"), "--output-dir", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "spectrum.csv").exists()
    kv = parse_kv(out)
    assert float(kv["ratio_at_reference_range"][0]) > 0.999


def test_svd_sweep_flag_overrides(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "run", scen("ratio_vs_range_benchtop"),
        "--set", "analysis.range_start_m=6.0", "--set", "analysis.range_stop_m=10.0",
        "--set", "analysis.n_ranges=3", "--set", "analysis.spacing=linear",
        "--output-dir", str(tmp_path),
    )
    assert code == 0
    with open(tmp_path / "spectrum.csv") as handle:
        rows = [ln for ln in handle if not ln.startswith("#")]
    # header plus exactly the overridden 3 ranges
    assert len(rows) == 4
    assert rows[1].startswith("6.0,") and rows[3].startswith("10.0,")


def test_sweep_on_wrong_kind_needs_flags(tmp_path, capsys):
    dof = "analysis={kind: dof_sweep, range_start_m: 5.0, range_stop_m: 50.0, n_ranges: 4, tau: 0.1}"
    code, _, err = run_cli(
        capsys, "run", scen("dish_reference"), "--set", dof, "--output-dir", str(tmp_path)
    )
    assert code == 3
    assert "missing required key 'ground': dof_sweep needs it" in err
    # ... but works once the full axis is given on a scenario with geometry
    code, out, _ = run_cli(
        capsys, "run", scen("ratio_vs_range_benchtop"), "--set", dof,
        "--output-dir", str(tmp_path),
    )
    assert code == 0
    assert float(parse_kv(out)["dof_at_reference_range"][0]) == 2.0


def test_overridden_analysis_is_revalidated(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "run", scen("ratio_vs_range_benchtop"),
        "--set", "analysis.range_start_m=50.0", "--set", "analysis.range_stop_m=5.0",
        "--output-dir", str(tmp_path),
    )
    assert code == 3
    assert "range" in err


def test_beam_pattern_theta_mode(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "run", scen("beam_theta_distributed"),
        "--set", "analysis.n_theta=41", "--set", "analysis.halfwidth_deg=0.01",
        "--output-dir", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "gain_theta.csv").exists()
    kv = parse_kv(out)
    np.testing.assert_allclose(float(kv["peak_gain_dbi"][0]), 48.144, atol=0.01)


def test_beam_kernel_lines_follow_the_report(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "run", scen("beam_range_focus"), "--set", "analysis.n_ranges=5",
        "--output-dir", str(tmp_path),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-2] == "beam_kernel=panel_factorized"
    key, _, bound = lines[-1].partition("=")
    assert key == "beam_kernel_bound_rad" and 0.0 < float(bound) < 1e-8
    assert lines[-3].startswith("peak_gain_dbi=")
    assert "beam_kernel" not in (tmp_path / "gain_range.csv").read_text()

    code, out, _ = run_cli(
        capsys, "run", scen("boundaries_benchtop"), "--output-dir", str(tmp_path)
    )
    assert code == 0 and "beam_kernel" not in parse_kv(out)


def test_channel_kernel_lines_follow_the_sweep_report(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "run", scen("dof_vs_range"), "--set", "analysis.n_ranges=3",
        "--output-dir", str(tmp_path),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-3].startswith("ratio_at_reference_range=")
    assert lines[-2] == "channel_kernel=panel_factorized"
    key, _, bound = lines[-1].partition("=")
    assert key == "channel_kernel_bound_rad" and 0.0 < float(bound) < 1e-8
    assert "beam_kernel" not in parse_kv(out)
    assert "channel_kernel" not in (tmp_path / "spectrum.csv").read_text()

    # Single-element panels on both sides: every range falls back.
    code, out, _ = run_cli(
        capsys, "run", scen("ratio_vs_range_benchtop"), "--output-dir", str(tmp_path)
    )
    assert code == 0
    assert out.splitlines()[-2:] == ["channel_kernel=exact", "channel_kernel_bound_rad=0.0"]


def test_placement_search_lines_follow_the_report(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "run", scen("placement_search"), "--output-dir", str(tmp_path)
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-4].startswith("peak_sidelobe_db=")
    key, _, scored = lines[-3].partition("=")
    assert key == "placement_scored" and 1 <= int(scored) < 500
    key, _, margin = lines[-2].partition("=")
    assert key == "placement_prune_margin" and 0.0 < float(margin) < 1e-4
    key, _, exps = lines[-1].partition("=")
    # 500 candidates of 16 panels, each screened over at least one direction.
    assert key == "placement_screen_exps" and int(exps) >= 500 * 16
    assert "placement_scored" not in (tmp_path / "placement.json").read_text()
    assert "placement_screen_exps" not in (tmp_path / "placement.json").read_text()

    code, out, _ = run_cli(
        capsys, "run", scen("boundaries_benchtop"), "--output-dir", str(tmp_path)
    )
    assert code == 0 and "placement_scored" not in parse_kv(out)


def test_beam_pattern_mode_switch(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "run", scen("beam_theta_distributed"),
        "--set", "analysis={kind: beam_range, range_start_m: 250.0e3, range_stop_m: 1000.0e3}",
        "--set", "analysis.n_ranges=11",
        "--output-dir", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "gain_range.csv").exists()


def test_beam_pattern_needs_mode_on_other_kinds(tmp_path, capsys):
    # A beam key on another kind is unknown there; the kind must switch too.
    code, _, err = run_cli(
        capsys, "run", scen("dish_reference"), "--set", "analysis.n_theta=41",
        "--output-dir", str(tmp_path),
    )
    assert code == 3
    assert "unknown key 'analysis.n_theta'" in err


def test_optimize_placement_overrides(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "run", scen("placement_search"),
        "--set", "analysis.n_candidates=2", "--set", "analysis.seed=9",
        "--set", "analysis.n_scan=201", "--output-dir", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "placement.json").exists()
    assert float(parse_kv(out)["peak_sidelobe_db"][0]) <= 0.0
    code2, _, err = run_cli(
        capsys, "run", scen("dish_reference"),
        "--set", "analysis={kind: optimize_placement, n_candidates: 2}",
        "--output-dir", str(tmp_path),
    )
    assert code2 == 3
    assert "missing required key 'analysis.aperture_x_m'" in err


def test_scenario_defects_exit_three(tmp_path, capsys):
    text = open(scen("placement_search")).read()
    duplicated = tmp_path / "dup.scenario"
    duplicated.write_text(text.replace("n_candidates: 500", "n_candidates: 500\n  n_candidates: 3"))
    code, _, err = run_cli(capsys, "validate", str(duplicated))
    assert code == 3 and "duplicate key 'analysis.n_candidates'" in err

    not_a_number = tmp_path / "nan.scenario"
    not_a_number.write_text(text.replace("min_spacing_m: 50.0", "min_spacing_m: .nan"))
    code, _, err = run_cli(capsys, "validate", str(not_a_number))
    assert code == 3 and "analysis.min_spacing_m" in err

    code, _, err = run_cli(
        capsys, "run", scen("placement_search"), "--set", "analysis.seed=-1",
        "--output-dir", str(tmp_path),
    )
    assert code == 3 and "analysis.seed" in err

    # A link analysis without one of its ends used to pass validate, then
    # fail the run.
    for name in ("beam_theta_upa", "dof_vs_range"):
        blocks = open(scen(name)).read().split("\n\n")
        for section in ("satellite", "ground"):
            kept = [b for b in blocks if not b.startswith(f"{section}:")]
            assert len(kept) == len(blocks) - 1
            bad = tmp_path / "one_end.scenario"
            bad.write_text("\n\n".join(kept))
            for argv in (("validate", str(bad)), ("run", str(bad), "--output-dir", str(tmp_path))):
                code, _, err = run_cli(capsys, *argv)
                assert code == 3 and f"missing required key '{section}'" in err, (name, argv)

    # Both of these used to pass validate, then fail the run with exit 1.
    for old, new, where in (
        (
            "scan_halfwidth_rad: 2.5e-4",
            "scan_halfwidth_rad: 1.0e-6",
            "analysis.scan_halfwidth_rad",
        ),
        ("min_spacing_m: 50.0", "min_spacing_m: 1200.0", "analysis.min_spacing_m"),
    ):
        bad = tmp_path / "bad.scenario"
        bad.write_text(text.replace(old, new))
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 3 and where in err
        code, _, err = run_cli(capsys, "run", str(bad), "--output-dir", str(tmp_path))
        assert code == 3 and where in err


# The README's analysis runs, each a shipped scenario and its overrides, and
# the hash each printed as the subcommand that --set replaced: svd-sweep
# --n-ranges 25, dof-sweep --tau 0.2, beam-pattern --mode range and
# optimize-placement --seed 3. The hash covers the whole resolved scenario.
README_SETS = (
    ("ratio_vs_range_benchtop", ["analysis.n_ranges=25"], "c8bdbfc856e196c3"),
    ("dof_vs_range", ["analysis.tau=0.2"], "554b569e2ded7798"),
    (
        "beam_theta_distributed",
        ["analysis={kind: beam_range, range_start_m: 250.0e3, range_stop_m: 1000.0e3, n_ranges: 50}"],
        "a44e169be08577dc",
    ),
    ("placement_search", ["analysis.seed=3"], "00354094a7e884ca"),
)


def _sets(overrides):
    return [arg for override in overrides for arg in ("--set", override)]


def test_set_keeps_the_hashes_of_the_subcommands_it_replaced(capsys):
    for name, overrides, want in README_SETS:
        code, out, err = run_cli(capsys, "validate", scen(name), *_sets(overrides))
        assert code == 0 and err == "", name
        assert out.split("hash=")[1].strip() == want, name


def _report_and_outputs(out, out_dir):
    """A run's stdout but for its wall time and output paths, and the bytes
    of every file it wrote."""
    kept = [line for line in out.splitlines() if not line.startswith(("wall_time_s=", "output="))]
    return kept, {name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))}


@pytest.mark.parametrize(
    "name, overrides, edits",
    [
        # a leaf scalar
        ("ratio_vs_range_benchtop", ["analysis.n_ranges=5"], [("n_ranges: 97", "n_ranges: 5")]),
        # a nested key
        ("ratio_vs_range_benchtop", ["ground.panel.rows=2"], [("rows: 1", "rows: 2")]),
        # a whole-section kind switch
        (
            "beam_theta_distributed",
            ["analysis={kind: beam_range, range_start_m: 250.0e3, range_stop_m: 1000.0e3, n_ranges: 5}"],
            [(
                "analysis:\n  kind: beam_theta\n  halfwidth_deg: 2.0\n  n_theta: 2001\n",
                "analysis:\n  kind: beam_range\n  range_start_m: 250.0e3\n"
                "  range_stop_m: 1000.0e3\n  n_ranges: 5\n",
            )],
        ),
    ],
)
def test_set_equals_editing_the_file(tmp_path, capsys, name, overrides, edits):
    edited = tmp_path / "edited.scenario"
    edited.write_text(_edited(name, *edits))
    runs = []
    for i, argv in enumerate([(scen(name), *_sets(overrides)), (str(edited),)]):
        out_dir = tmp_path / f"out{i}"
        code, out, err = run_cli(capsys, "run", *argv, "--output-dir", str(out_dir))
        assert code == 0 and err == "", argv
        runs.append(_report_and_outputs(out, out_dir))
    assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "override, message",
    [
        ("analysis.seed", "override 'analysis.seed' must be section.key=value"),
        ("analysis..seed=1", "override 'analysis..seed=1' must be section.key=value"),
        ("=1", "override '=1' must be section.key=value"),
        ("analysis.=1", "override 'analysis.=1' must be section.key=value"),
        ("frequency_hz.x=1", "'frequency_hz' must be a mapping"),
        ("analysis.seed.x=1", "'analysis.seed' must be a mapping"),
        ("analysis={a: 1, a: 2}", "duplicate key 'analysis.a'"),
        ("ground={panel: {rows: 1, rows: 2}}", "duplicate key 'ground.panel.rows'"),
        ("analysis.seed=[1", "invalid override syntax at 'analysis.seed': "),
        ("analysis.seed=", "'analysis.seed' must be an integer"),
    ],
)
def test_bad_overrides_exit_three(tmp_path, capsys, override, message):
    for argv in (("validate",), ("run", "--output-dir", str(tmp_path / "out"))):
        code, out, err = run_cli(capsys, *argv, scen("placement_search"), "--set", override)
        assert code == 3 and out == "", (argv, err)
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, (argv, err)
    assert os.listdir(tmp_path) == []


def test_placement_that_cannot_pack_exits_three(tmp_path, capsys):
    # 400 centres 10 m apart in a 100 x 100 m field: their 5 m disks cover
    # 31 416 m^2, and the field grown by 5 m each side holds 12 100 m^2. This
    # used to pass validate, then exit 1 after seconds of failed draws.
    text = open(scen("placement_search")).read()
    for old, new in (
        ("aperture_x_m: 1414.0", "aperture_x_m: 100.0"),
        ("aperture_y_m: 1000.0", "aperture_y_m: 100.0"),
        ("n_panels: 16", "n_panels: 400"),
        ("min_spacing_m: 50.0", "min_spacing_m: 10.0"),
    ):
        assert old in text
        text = text.replace(old, new)
    bad = tmp_path / "packed.scenario"
    bad.write_text(text)
    for argv in (("validate", str(bad)), ("run", str(bad), "--output-dir", str(tmp_path))):
        code, _, err = run_cli(capsys, *argv)
        assert code == 3 and "'analysis.n_panels': 400 panels" in err
    # 154 disks (12 095 m^2) fit the bound, so validate accepts them.
    bad.write_text(text.replace("n_panels: 400", "n_panels: 154"))
    assert run_cli(capsys, "validate", str(bad))[0] == 0
    bad.write_text(text.replace("n_panels: 400", "n_panels: 155"))
    assert run_cli(capsys, "validate", str(bad))[0] == 3


def test_sweep_past_the_channel_bound_exits_three(tmp_path, capsys):
    # A 256 x 256 satellite panel against the 16 x 32 x 32 station: spectra
    # of 2**30 channel entries. This used to pass validate.
    text = open(scen("dof_vs_range")).read()
    mount = "  positions_m: [[-0.707, -0.5], [0.707, -0.5], [-0.707, 0.5], [0.707, 0.5]]"
    assert mount in text and "n_ranges: 100" in text
    text = text.replace("n_ranges: 100", "n_ranges: 2")
    bad = tmp_path / "wide.scenario"

    def panel(rows, cols):
        return f"  panel:\n    rows: {rows}\n    cols: {cols}\n    spacing_wavelengths: 0.5"

    bad.write_text(text.replace(mount, panel(256, 256)))
    for argv in (("validate", str(bad)), ("run", str(bad), "--output-dir", str(tmp_path))):
        code, _, err = run_cli(capsys, *argv)
        assert code == 3, argv
        assert (
            "'satellite.panel': ground elements x satellite elements is 1073741824 entries, "
            "above the 4194304 one array may hold"
        ) in err
    # 16 384 x 256 is the bound itself.
    bad.write_text(text.replace(mount, panel(16, 16)))
    assert run_cli(capsys, "validate", str(bad))[0] == 0
    bad.write_text(text.replace(mount, panel(16, 17)))
    assert run_cli(capsys, "validate", str(bad))[0] == 3


def test_random_ground_that_could_overlap_exits_three(tmp_path, capsys):
    # 80 panels of 8x8 at lambda/2 in a 1 x 1 m field at 1 mm spacing: this
    # seed draws two centres 26.6 mm apart, inside the 53.0 mm panel extent.
    text = open(scen("beam_theta_distributed")).read()
    for old, new in (
        ("rows: 32", "rows: 8"),
        ("cols: 32", "cols: 8"),
        ("aperture_x_m: 1414.0", "aperture_x_m: 1.0"),
        ("aperture_y_m: 1000.0", "aperture_y_m: 1.0"),
        ("n_panels: 16", "n_panels: 80"),
        ("min_spacing_m: 50.0", "min_spacing_m: 0.001"),
        ("seed: 11", "seed: 3"),
    ):
        assert old in text
        text = text.replace(old, new)
    bad = tmp_path / "overlap.scenario"
    bad.write_text(text)
    for argv in (("validate", str(bad)), ("run", str(bad), "--output-dir", str(tmp_path))):
        code, _, err = run_cli(capsys, *argv)
        assert code == 3 and "ground.random.min_spacing_m" in err


def test_overflowing_panel_pitch_exits_three(tmp_path, capsys):
    # At 1e-300 Hz the wavelength, and with it a pitch given in wavelengths,
    # overflows to inf. Both scenarios used to pass validate, then exit 1.
    text = open(scen("beam_theta_distributed")).read()
    assert "frequency_hz: 28.0e9" in text
    text = text.replace("frequency_hz: 28.0e9", "frequency_hz: 1.0e-300")
    ground_in_meters = text.replace("spacing_wavelengths: 0.5", "spacing_m: 0.005", 1)
    for body, where in (
        (text, "ground.panel.spacing_wavelengths"),
        (ground_in_meters, "satellite.panel.spacing_wavelengths"),
    ):
        bad = tmp_path / "pitch.scenario"
        bad.write_text(body)
        for argv in (("validate", str(bad)), ("run", str(bad), "--output-dir", str(tmp_path))):
            code, _, err = run_cli(capsys, *argv)
            assert code == 3 and where in err


def _edited(name, *pairs):
    text = open(scen(name)).read()
    for old, new in pairs:
        assert old in text, (name, old)
        text = text.replace(old, new)
    return text


def test_overflowing_ranges_exit_three(tmp_path, capsys):
    # Past the range bound a squared distance overflows. These used to pass
    # validate, then write NaN gains (exit 0) or fail the run (exit 1).
    one_by_one = (("rows: 32", "rows: 1"), ("cols: 32", "cols: 1"))
    for name, pairs, where in (
        ("beam_range_focus", [("range_stop_m: 2000.0e3", "range_stop_m: 1.0e200")], "analysis.range_stop_m"),
        ("beam_theta_distributed", [("range_m: 500.0e3", "range_m: 1.0e200")], "satellite.range_m"),
        ("dof_vs_range", [("range_stop_m: 3000.0e3", "range_stop_m: 1.0e200"), *one_by_one], "analysis.range_stop_m"),
    ):
        bad = tmp_path / "far.scenario"
        bad.write_text(_edited(name, *pairs))
        for argv in (("validate", str(bad)), ("run", str(bad), "--output-dir", str(tmp_path))):
            code, _, err = run_cli(capsys, *argv)
            assert code == 3 and f"'{where}' must lie in [1e-100, 1e+100]" in err, (name, argv)


def test_counts_past_the_array_bound_exit_three(tmp_path, capsys):
    # The largest array a count sizes holds at most 4 194 304 entries. An
    # n_scan of 1e20 used to pass validate, then fail the run's allocation
    # (exit 1, "Maximum allowed size exceeded").
    for name, pairs, where in (
        ("placement_search", [("n_scan: 2001", "n_scan: 100000000000000000000")], "analysis.n_scan"),
        ("placement_search", [("n_candidates: 500", "n_candidates: 262145")], "analysis.n_candidates"),
        ("beam_map_distributed", [("n_ranges: 60", "n_ranges: 2097"), ("n_theta: 201", "n_theta: 2001")], "analysis.n_ranges"),
    ):
        bad = tmp_path / "big.scenario"
        bad.write_text(_edited(name, *pairs))
        for argv in (("validate", str(bad)), ("run", str(bad), "--output-dir", str(tmp_path))):
            code, out, err = run_cli(capsys, *argv)
            assert code == 3 and out == "" and f"'{where}'" in err and "4194304" in err, (name, argv)
    # 16 panels x 262 144 candidates is the bound itself.
    bad.write_text(_edited("placement_search", ("n_candidates: 500", "n_candidates: 262144")))
    assert run_cli(capsys, "validate", str(bad))[0] == 0
    assert os.listdir(tmp_path) == ["big.scenario"]


def test_layouts_past_the_array_bound_exit_three(tmp_path, capsys):
    # A layout's element positions, panels x rows x cols, share the same
    # bound. 1e20 random panels used to pass validate, then fail the run's
    # allocation (exit 1, "Maximum allowed dimension exceeded").
    ground = ("rows: 32", "rows: 512"), ("cols: 32", "cols: 512")
    for name, pairs, where in (
        (
            "beam_theta_distributed",
            [
                ("n_panels: 16", "n_panels: 100000000000000000000"),
                ("aperture_x_m: 1414.0", "aperture_x_m: 1.0e12"),
                ("aperture_y_m: 1000.0", "aperture_y_m: 1.0e12"),
            ],
            "ground.random.n_panels",
        ),
        ("beam_theta_distributed", [*ground, ("n_panels: 16", "n_panels: 17")], "ground.random.n_panels"),
        ("beam_theta_upa", [("rows: 128", "rows: 200000"), ("cols: 128", "cols: 200000")], "ground.panel.cols"),
        ("beam_theta_upa", [("rows: 1\n", "rows: 2048\n"), ("cols: 1\n", "cols: 2049\n")], "satellite.panel.cols"),
        ("ratio_vs_range_benchtop", [("rows: 1", "rows: 2048"), ("cols: 1", "cols: 1025")], "ground.positions_m"),
    ):
        bad = tmp_path / "big.scenario"
        bad.write_text(_edited(name, *pairs))
        for argv in (("validate", str(bad)), ("run", str(bad), "--output-dir", str(tmp_path))):
            code, out, err = run_cli(capsys, *argv)
            assert code == 3 and out == "" and f"'{where}'" in err and "4194304" in err, (name, argv)
    # 16 panels of 512 x 512 and one of 2048 x 2048 are the bound itself.
    for name, pairs in (
        ("beam_theta_distributed", ground),
        ("beam_theta_upa", [("rows: 128", "rows: 2048"), ("cols: 128", "cols: 2048")]),
    ):
        bad.write_text(_edited(name, *pairs))
        assert run_cli(capsys, "validate", str(bad))[0] == 0, name
    assert os.listdir(tmp_path) == ["big.scenario"]


def _benchtop_ground_at(z):
    ground = "    - [-0.1, 0.0]\n    - [0.1, 0.0]\n\nsatellite"
    raised = f"    - [-0.1, 0.0, {z}]\n    - [0.1, 0.0, {z}]\n\nsatellite"
    return _edited("ratio_vs_range_benchtop", (ground, raised))


def test_sweep_whose_satellite_reaches_the_ground_exits_three(tmp_path, capsys):
    # At its first range, 4 m, the satellite's elements sat on the raised
    # ground's: this used to pass validate, then exit 1 with "rx element 0
    # coincides with tx element 0". The reference range counts too.
    below_reference = _benchtop_ground_at(3.5).replace("range_m: 8.0", "range_m: 3.0")
    for text, where in (
        (_benchtop_ground_at(4.0), "analysis.range_start_m"),
        (below_reference, "satellite.range_m"),
    ):
        bad = tmp_path / "touch.scenario"
        bad.write_text(text)
        for argv in (("validate", str(bad)), ("run", str(bad), "--output-dir", str(tmp_path))):
            code, out, err = run_cli(capsys, *argv)
            assert code == 3 and out == "" and f"'{where}'" in err, (where, argv, err)
            assert "not above the ground's highest at z = " in err
    assert os.listdir(tmp_path) == ["touch.scenario"]
    # Just below the satellite's first range, the same ground runs.
    path = tmp_path / "clear.scenario"
    path.write_text(_benchtop_ground_at(3.9))
    assert run_cli(capsys, "validate", str(path))[0] == 0
    code, _, err = run_cli(capsys, "run", str(path), "--output-dir", str(tmp_path / "out"))
    assert code == 0 and err == ""


SATELLITE_MOUNT = "positions_m: [[-0.707, -0.5], [0.707, -0.5], [-0.707, 0.5], [0.707, 0.5]]"


def test_overflowing_positions_and_apertures_exit_three(tmp_path, capsys):
    # Coordinates at 1e200 m used to pass validate, then run to a spectrum
    # built from inf paths (exit 0, with numpy overflow warnings).
    for name, pairs, where in (
        ("dof_vs_range", [(SATELLITE_MOUNT, "positions_m: [[-1.0e200, 0.0], [1.0e200, 0.0]]")], "satellite.positions_m[0]"),
        ("ratio_vs_range_benchtop", [("- [-0.1, 0.0]", "- [-0.1, 1.0e200]")], "ground.positions_m[0]"),
        ("placement_search", [("aperture_x_m: 1414.0", "aperture_x_m: 1.0e200")], "analysis.aperture_x_m"),
        ("beam_range_focus", [("min_spacing_m: 50.0", "min_spacing_m: 1.0e200")], "ground.random.min_spacing_m"),
    ):
        bad = tmp_path / "huge.scenario"
        bad.write_text(_edited(name, *pairs))
        for argv in (("validate", str(bad)), ("run", str(bad), "--output-dir", str(tmp_path))):
            code, out, err = run_cli(capsys, *argv)
            assert code == 3 and out == "" and f"'{where}'" in err and "1e+100" in err, (name, argv)
    assert os.listdir(tmp_path) == ["huge.scenario"]


# Ground panels of two columns at x = +-1e6 m, where float64 values lie
# 2**-33 m apart, so a pitch must exceed 2**-32 m; a 2x2 satellite panel.
PITCH_BOUND = 2.0 * math.ulp(1.0e6)
BEAM = "{kind: beam_theta, halfwidth_deg: 1.0, n_theta: 3}"


def _far_panels(pitch=0.005, range_m="500.0e+3", off_nadir=0.0, analysis=BEAM):
    return f"""version: 1
frequency_hz: 28.0e+9
ground:
  kind: distributed
  panel: {{rows: 1, cols: 2, spacing_m: {pitch!r}}}
  positions_m: [[-1.0e+6, 0.0], [1.0e+6, 0.0]]
satellite:
  range_m: {range_m}
  off_nadir_deg: {off_nadir}
  panel: {{rows: 2, cols: 2, spacing_wavelengths: 0.5}}
analysis: {analysis}
"""


def test_pitch_that_vanishes_against_its_centre_exits_three(tmp_path, capsys):
    # Elements one pitch apart round to one position once added to a centre
    # where float64 values lie half a pitch apart or more. These used to pass
    # validate, then exit 1 with "two elements share an identical position".
    sweep = "{kind: svd_sweep, range_start_m: 1.0e+3, range_stop_m: 1.0e+20, n_ranges: 3}"
    huge_field = (
        ("aperture_x_m: 1414.0", "aperture_x_m: 1.0e20"),
        ("aperture_y_m: 1000.0", "aperture_y_m: 1.0e20"),
    )
    for text, where in (
        (_far_panels(pitch=PITCH_BOUND), "'ground.positions_m': the element pitch"),
        (_far_panels(range_m="1.0e+20", off_nadir=30.0), "'satellite.range_m'"),
        (_far_panels(range_m="1.0e+3", off_nadir=30.0, analysis=sweep), "'analysis.range_stop_m'"),
        (_edited("beam_range_focus", *huge_field), "'ground.random'"),
    ):
        bad = tmp_path / "collapse.scenario"
        bad.write_text(text)
        for argv in (("validate", str(bad)), ("run", str(bad), "--output-dir", str(tmp_path))):
            code, out, err = run_cli(capsys, *argv)
            assert code == 3 and out == "" and where in err, (where, argv, err)
            assert "so elements would coincide" in err
    assert os.listdir(tmp_path) == ["collapse.scenario"]


def test_pitch_just_above_its_bound_runs(tmp_path, capsys):
    # The satellite's z is left out of the rule: its elements share it.
    for text in (
        _far_panels(pitch=math.nextafter(PITCH_BOUND, math.inf)),
        _far_panels(range_m="1.0e+20", off_nadir=0.0),
    ):
        path = tmp_path / "near.scenario"
        path.write_text(text)
        assert run_cli(capsys, "validate", str(path))[0] == 0
        code, _, err = run_cli(capsys, "run", str(path), "--output-dir", str(tmp_path / "out"))
        assert code == 0 and err == ""


# A mount one metre apart in x and y, steered 30 deg off nadir: its x
# coordinates reach about 1.5 * 2**51 m at a range of 3 * 2**51 m, where
# float64 values lie 0.5 m apart, so its 1 m separation sits on the bound.
UNIT_MOUNT = "positions_m: [[-0.5, -0.5], [0.5, -0.5], [-0.5, 0.5], [0.5, 0.5]]"


def _far_mount(range_m, mount=UNIT_MOUNT, off_nadir="30.0", stop="1.0e+6"):
    return _edited(
        "dof_vs_range",
        ("range_m: 400.0e3", f"range_m: {range_m!r}"),
        ("off_nadir_deg: 0.0", f"off_nadir_deg: {off_nadir}"),
        ("range_start_m: 100.0e3", "range_start_m: 1.0e+3"),
        ("range_stop_m: 3000.0e3", f"range_stop_m: {stop}"),
        ("n_ranges: 100", "n_ranges: 3"),
        (SATELLITE_MOUNT, mount),
    )


def test_satellite_mount_that_vanishes_against_its_range_exits_three(tmp_path, capsys):
    # The last two used to pass validate, then exit 1 with "two elements
    # share an identical position"; the first sits on the bound.
    z_mount = "positions_m: [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]"
    bound = "m is not above twice the float64 spacing at"
    for text, where in (
        (_far_mount(3.0 * 2.0**51), f"1 {bound} x = 3.3777e+15 m"),
        (_far_mount(1.0e20, SATELLITE_MOUNT, stop="1.0e+20"), f"1.414 {bound} x = 5e+19 m"),
        (_far_mount(1.0e20, z_mount, off_nadir="0.0"), f"1 {bound} z = 1e+20 m"),
    ):
        bad = tmp_path / "collapse.scenario"
        bad.write_text(text)
        for argv in (("validate", str(bad)), ("run", str(bad), "--output-dir", str(tmp_path))):
            code, out, err = run_cli(capsys, *argv)
            assert code == 3 and out == "" and where in err, (where, argv, err)
            assert err.startswith("error: 'satellite.range_m': the smallest element separation ")
    assert os.listdir(tmp_path) == ["collapse.scenario"]
    # Where float64 values lie 0.25 m apart, the same mount runs.
    path = tmp_path / "near.scenario"
    path.write_text(_far_mount(3.0 * 2.0**50))
    assert run_cli(capsys, "validate", str(path))[0] == 0
    code, _, err = run_cli(capsys, "run", str(path), "--output-dir", str(tmp_path / "out"))
    assert code == 0 and err == ""


def test_integer_past_the_float_range_exits_three(tmp_path, capsys):
    # float() of such an integer raises OverflowError, which used to escape
    # validate as exit 1.
    huge = "1" + "0" * 400
    mount = f"positions_m: [[-0.707, {huge}], [0.707, -0.5]]"
    for pairs, where in (
        ([("frequency_hz: 28.0e9", f"frequency_hz: {huge}")], "frequency_hz"),
        ([(SATELLITE_MOUNT, mount)], "satellite.positions_m[0]"),
    ):
        bad = tmp_path / "huge.scenario"
        bad.write_text(_edited("dof_vs_range", *pairs))
        for argv in (("validate", str(bad)), ("run", str(bad), "--output-dir", str(tmp_path))):
            code, out, err = run_cli(capsys, *argv)
            assert code == 3 and out == "", (where, argv, err)
            assert err == f"error: '{where}' must be finite, got an integer past 1.8e+308\n"
    assert os.listdir(tmp_path) == ["huge.scenario"]


def test_ranges_at_the_bound_run_to_finite_outputs(tmp_path, capsys):
    # The factorized kernel cubes the nearest distance, the exact kernel
    # squares every one, and beam analyses evaluate at twice the range.
    far = ("range_m: ", "range_m: 1.0e100 #"), ("range_stop_m: ", "range_stop_m: 1.0e100 #")
    few = ("n_ranges: 100", "n_ranges: 3"), ("n_ranges: 200", "n_ranges: 3")
    wide = (SATELLITE_MOUNT, "positions_m: [[-1.0e100, 0.0], [1.0e100, 0.0]]")
    for name, pairs in (
        ("beam_range_focus", (*far, few[1])),
        ("dof_vs_range", (*far, few[0])),
        ("dof_vs_range", (*far, few[0], ("rows: 32", "rows: 1"), ("cols: 32", "cols: 1"))),
        ("dof_vs_range", (*far, few[0], wide)),
    ):
        path = tmp_path / "far.scenario"
        path.write_text(_edited(name, *pairs))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "run", str(path), "--output-dir", str(out_dir))
        assert code == 0 and err == "", (name, err)
        for line in out.splitlines():
            assert "nan" not in line and "inf" not in line, (name, line)
        for output in os.listdir(out_dir):
            body = (out_dir / output).read_text()
            assert "nan" not in body and "inf" not in body, (name, output)


def test_overflowing_closed_forms_exit_three(tmp_path, capsys):
    # boundaries used to write Infinity into boundaries.json, and dish_gain
    # to exit 1 on an OverflowError.
    for name, pairs, argv, message in (
        (
            "boundaries_benchtop",
            [("d_tx_m: 0.2", "d_tx_m: 1.0e200"), ("d_rx_m: 0.2", "d_rx_m: 1.0e200")],
            ("boundaries", "--dtx", "1e200", "--drx", "1e200", "--lambda", "0.01"),
            "boundaries gives r_min_m=inf",
        ),
        (
            "dish_reference",
            [("diameter_m: 1.47", "diameter_m: 1.0e300")],
            ("dish-gain", "--diameter", "1e300", "--efficiency", "0.48", "--lambda", "0.01"),
            "dish_gain overflows",
        ),
    ):
        bad = tmp_path / "huge.scenario"
        bad.write_text(_edited(name, *pairs))
        for cmd in (("validate", str(bad)), ("run", str(bad), "--output-dir", str(tmp_path))):
            code, _, err = run_cli(capsys, *cmd)
            assert code == 3 and err == f"error: 'analysis': {message}: its inputs are out of range\n"
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == "" and message in err
    assert os.listdir(tmp_path) == ["huge.scenario"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == f"nearlink {nearlink.__version__}\n"


def _fresh(probe):
    """What ``probe`` prints in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nearlink.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_leaves_out_package_metadata():
    # importlib.metadata costs tens of ms in every CLI child; the version
    # comes from the package instead.
    probe = "import nearlink.cli, sys; print('importlib.metadata' in sys.modules)"
    assert _fresh(probe) == "False\n"


NUMERICS = (
    "numpy",
    "nearlink.beamforming",
    "nearlink.geometry",
    "nearlink.kernel",
    "nearlink.mimo",
    "nearlink.placement",
    "nearlink.scenario",
)


def test_validate_and_package_import_load_no_numerics():
    # numpy alone is about half of a validate child's start-up; records are
    # not dataclasses, so dataclasses and the inspect it imports stay out.
    unneeded = NUMERICS + ("dataclasses", "inspect")
    loaded = f"print(sorted(m for m in {unneeded!r} if m in sys.modules))"
    assert _fresh(f"import sys, nearlink; {loaded}") == "[]\n"
    assert _fresh(f"import sys, nearlink; nearlink.Direction; {loaded}") == "[]\n"
    package = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'nearlink'))"
    parser = ["nearlink", "nearlink.cli", "nearlink.fileio", "nearlink.panels", "nearlink.record"]
    parser.append("nearlink.schema")
    # Only a placement check loads the objective's module, and no numerics;
    # an override adds no module.
    for names, override, extra in (
        (["dof_vs_range", "beam_map_distributed"], "analysis.n_ranges=4", []),
        (["placement_search"], "analysis.seed=3", ["nearlink.objective"]),
    ):
        argvs = [["validate", scen(name)] for name in names]
        argvs += [["validate", scen(name), "--set", override] for name in names]
        validate = f"from nearlink.cli import main; codes = [main(a) for a in {argvs}]"
        out = _fresh(f"import sys; {validate}; print(codes); {loaded}; {package}").splitlines()
        assert out[-3:] == [str([0] * len(argvs)), "[]", str(sorted(parser + extra))], names


def test_each_run_loads_only_its_own_kinds_numerics(tmp_path):
    # A beam run loads no mimo or placement, a sweep no beamforming or
    # placement, a placement search no beamforming or mimo. No run loads
    # dataclasses; numpy.random and the seeding are loaded by the runs that
    # draw (a placement search, a drawn ground) and by no other.
    shared = ["nearlink", "nearlink.cli", "nearlink.fileio", "nearlink.geometry"]
    shared += ["nearlink.kernel", "nearlink.panels", "nearlink.record", "nearlink.scenario"]
    shared += ["nearlink.schema"]
    loaded = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'nearlink'"
    loaded += " or m in ('dataclasses', 'numpy.random')))"
    draws = ["nearlink.seeding", "numpy.random"]
    for name, own in (
        ("beam_theta_upa", ["nearlink.beamforming", "nearlink.objective"]),
        ("dof_vs_range", ["nearlink.mimo", *draws]),
        ("placement_search", ["nearlink.objective", "nearlink.placement", *draws]),
    ):
        argv = ["run", scen(name), "--output-dir", str(tmp_path / name)]
        out = _fresh(f"import sys; from nearlink.cli import main; print(main({argv})); {loaded}")
        assert out.splitlines()[-2:] == ["0", str(sorted(shared + own))], name


def test_validate_prints_the_shipped_hashes(capsys):
    # Each shipped scenario's hash as validate prints it, in glob order.
    want = [
        "a260e856f64ccc8e", "568ef37a2c921f3c", "a8d9023b542c6ef4", "9980bf7ee630e1fc",
        "5653002d5bf83b33", "bdef47a462de8294", "4ee41e4417327676", "7527f045ff47f6bc",
        "b28b88fb62eb0ccd",
    ]
    paths = sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.scenario")))
    got = []
    for path in paths:
        code, out, err = run_cli(capsys, "validate", path)
        assert code == 0 and err == "", path
        got.append(out.split("hash=")[1].strip())
    assert got == want


# Every name the package exports, each loaded from its module on first use.
EXPORTED = """
GAIN_FLOOR_DB REFERENCE_DISH_LARGE REFERENCE_DISH_SMALL BeamKernel DishSpec Direction GainGrid
Point WeightVector delay_and_sum_weights dish_gain evaluate_gain gain_pattern_sweep point_at
response_sum write_gain_csv ZeroDistance channel_matrix ElementLayout OverlappingPanels
PanelSpec PlacementInfeasible make_distributed_panels make_upa random_panel_positions
save_layout ConvergenceFailure DegenerateSpectrum SingularSpectrum condition_ratio dof_count
exact_ratio_curve link_spectra r_max r_min singular_values svd_closed_form_2x2
theory_ratio_curve write_spectrum_csv PlacementObjective PlacementResult
default_exclusion_halfwidth optimize_placement peak_sidelobe uniform_sparse_positions
write_placement_json SPEED_OF_LIGHT ParseError RunReport Scenario ScenarioError
ValidationError build_ground_layout build_satellite_layout load_scenario parse_scenario
run_scenario scenario_hash serialize_scenario
""".split()


def test_every_exported_name_still_imports():
    assert sorted(EXPORTED) == nearlink.__all__
    probe = f"from nearlink import {', '.join(EXPORTED)}; import nearlink; print(nearlink.Point)"
    assert _fresh(probe) == "<class 'nearlink.beamforming.Point'>\n"
    with pytest.raises(AttributeError, match="no attribute 'offnadir_effective_gain'"):
        nearlink.offnadir_effective_gain
