"""Command-line surface: exit codes, printed output, flag overrides."""

import os

import numpy as np
import pytest

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
    code, out, err = run_cli(
        capsys, "boundaries", "--dtx", "-0.2", "--drx", "0.2", "--lambda", "0.01"
    )
    assert code == 3
    assert err.startswith("error: ")
    assert "--dtx" in err


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
        capsys, "svd-sweep", scen("ratio_vs_range_benchtop"),
        "--output-dir", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "spectrum.csv").exists()
    kv = parse_kv(out)
    assert float(kv["ratio_at_reference_range"][0]) > 0.999


def test_svd_sweep_flag_overrides(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "svd-sweep", scen("ratio_vs_range_benchtop"),
        "--range-start", "6.0", "--range-stop", "10.0", "--n-ranges", "3",
        "--spacing", "linear", "--output-dir", str(tmp_path),
    )
    assert code == 0
    with open(tmp_path / "spectrum.csv") as handle:
        rows = [ln for ln in handle if not ln.startswith("#")]
    # header plus exactly the overridden 3 ranges
    assert len(rows) == 4
    assert rows[1].startswith("6.0,") and rows[3].startswith("10.0,")


def test_sweep_on_wrong_kind_needs_flags(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "dof-sweep", scen("dish_reference"), "--output-dir", str(tmp_path)
    )
    assert code == 3
    assert "dof_sweep" in err
    # ... but works once the full axis is given on a scenario with geometry
    code, out, _ = run_cli(
        capsys, "dof-sweep", scen("ratio_vs_range_benchtop"),
        "--range-start", "5.0", "--range-stop", "50.0", "--n-ranges", "4",
        "--tau", "0.1", "--output-dir", str(tmp_path),
    )
    assert code == 0
    assert float(parse_kv(out)["dof_at_reference_range"][0]) == 2.0


def test_overridden_analysis_is_revalidated(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "svd-sweep", scen("ratio_vs_range_benchtop"),
        "--range-start", "50.0", "--range-stop", "5.0", "--output-dir", str(tmp_path),
    )
    assert code == 3
    assert "range" in err


def test_beam_pattern_theta_mode(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "beam-pattern", scen("beam_theta_distributed"),
        "--n-theta", "41", "--halfwidth-deg", "0.01", "--output-dir", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "gain_theta.csv").exists()
    kv = parse_kv(out)
    np.testing.assert_allclose(float(kv["peak_gain_dbi"][0]), 48.144, atol=0.01)


def test_beam_kernel_lines_follow_the_report(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "beam-pattern", scen("beam_range_focus"), "--n-ranges", "5",
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
        capsys, "dof-sweep", scen("dof_vs_range"), "--n-ranges", "3",
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
        capsys, "svd-sweep", scen("ratio_vs_range_benchtop"), "--output-dir", str(tmp_path)
    )
    assert code == 0
    assert out.splitlines()[-2:] == ["channel_kernel=exact", "channel_kernel_bound_rad=0.0"]


def test_beam_pattern_mode_switch(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "beam-pattern", scen("beam_theta_distributed"), "--mode", "range",
        "--range-start", "250.0e3", "--range-stop", "1000.0e3", "--n-ranges", "11",
        "--output-dir", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "gain_range.csv").exists()


def test_beam_pattern_needs_mode_on_other_kinds(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "beam-pattern", scen("dish_reference"), "--output-dir", str(tmp_path)
    )
    assert code == 3
    assert "--mode" in err


def test_optimize_placement_overrides(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "optimize-placement", scen("placement_search"),
        "--n-candidates", "2", "--seed", "9", "--n-scan", "201",
        "--output-dir", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "placement.json").exists()
    assert float(parse_kv(out)["peak_sidelobe_db"][0]) <= 0.0
    code2, _, err = run_cli(
        capsys, "optimize-placement", scen("dish_reference"),
        "--output-dir", str(tmp_path),
    )
    assert code2 == 3
    assert "optimize_placement" in err


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
        capsys, "optimize-placement", scen("placement_search"), "--seed", "-1",
        "--output-dir", str(tmp_path),
    )
    assert code == 3 and "analysis.seed" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("nearlink ")
