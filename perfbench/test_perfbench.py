"""Tests of the benchmark itself, on its smoke sizes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, self_time  # noqa: E402


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seconds", "0", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def _last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke_run_reports_every_layer_metric(workload):
    proc = _bench("--workload", workload, "--seed", "5", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _declared("per_layer")
    assert "error_rate=0.0" in proc.stdout
    spans = json.load(open(os.path.join(ROOT, ".bench_out", f"{workload}-seed5-smoke", "spans.json")))
    assert spans["unmeasured"] == []
    assert {s["run_id"] for s in spans["spans"]} == {spans["run_id"]}


def test_untraced_smoke_run_reports_every_end_to_end_metric():
    proc = _bench("--workload", "dof_sweep", "--seed", "2", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _last_json(proc)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.load(open(os.path.join(ROOT, ".bench_out", "dof_sweep-seed2-smoke", "result.json")))
    assert record["scenario_hash"] and record["environment"]["nproc"] >= 1


def test_without_program_source_exits_nonzero_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "beam_map", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_scenarios_follow_the_seed_but_not_the_work_size():
    for workload in workloads.WORKLOADS:
        a = workloads.make_scenario(workload, 7)
        assert workloads.scenario_text(a) == workloads.scenario_text(workloads.make_scenario(workload, 7))
        b = workloads.make_scenario(workload, 8)
        assert a != b
        assert a["analysis"] == b["analysis"] or workload == "placement_search"
        if workload == "placement_search":
            assert a["analysis"]["n_candidates"] == b["analysis"]["n_candidates"]
        else:
            assert len(a["ground"]["positions_m"]) == len(b["ground"]["positions_m"])


def _smoke_outputs(tmp_path, workload):
    """Run the CLI once on the smoke scenario; return (doc, outdir, scalars)."""
    doc = workloads.make_scenario(workload, 4, "smoke")
    scen = tmp_path / "w.scenario"
    scen.write_text(workloads.scenario_text(doc))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "nearlink.cli", "run", str(scen), "--output-dir", str(out)],
        cwd=ROOT,
        env=run.child_env(ROOT),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return doc, str(out), run.scalars_of(run.report_fields(proc.stdout))


def _edit(path, old, new):
    with open(path) as handle:
        text = handle.read()
    assert old in text
    with open(path, "w") as handle:
        handle.write(text.replace(old, new, 1))


def test_beam_map_oracle_rejects_a_wrong_gain(tmp_path):
    doc, out, scalars = _smoke_outputs(tmp_path, "beam_map")
    assert oracles.check_beam_map(doc, out, scalars)[0] == []
    path = os.path.join(out, "gain_map.csv")
    _, rows = oracles.read_table(path)
    _edit(path, f",{float(rows[2, 2])!r}\n", f",{float(rows[2, 2]) + 0.01!r}\n")
    assert oracles.check_beam_map(doc, out, scalars)[0]
    scalars["gain_at_focus_dbi"] += 0.02
    assert any("gain_at_focus" in p for p in oracles.check_beam_map(doc, out, scalars)[0])


def test_dof_oracle_rejects_a_wrong_count_and_reports_ratio_error(tmp_path):
    doc, out, scalars = _smoke_outputs(tmp_path, "dof_sweep")
    problems, facts = oracles.check_dof_sweep(doc, out, scalars)
    assert problems == [] and facts["ratio_rel_err_max"] >= 0.0
    path = os.path.join(out, "spectrum.csv")
    with open(path) as handle:
        lines = handle.read().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",9"
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    assert any("dof 9" in p for p in oracles.check_dof_sweep(doc, out, scalars)[0])


def test_placement_oracle_rejects_a_non_winner(tmp_path):
    doc, out, scalars = _smoke_outputs(tmp_path, "placement_search")
    assert oracles.check_placement(doc, out, scalars)[0] == []
    ana = doc["analysis"]
    children = np.random.SeedSequence(ana["seed"]).generate_state(ana["n_candidates"], dtype=np.uint64)
    scores = [float(oracles.sidelobe_db(ana, oracles.candidate(ana, c))) for c in children]
    worst = int(np.argmax(scores))
    path = os.path.join(out, "placement.json")
    with open(path) as handle:
        res = json.load(handle)
    res["positions_m"] = oracles.candidate(ana, children[worst]).tolist()
    res["peak_sidelobe_db"] = scalars["peak_sidelobe_db"] = scores[worst]
    with open(path, "w") as handle:
        json.dump(res, handle)
    problems = oracles.check_placement(doc, out, scalars)[0]
    assert any("not candidate" in p for p in problems)


def test_self_time_subtracts_children_and_missing_names_are_unmeasured():
    Mod = types.ModuleType("fake")
    Mod.work = lambda n: sum(range(n))
    tracer = Tracer()
    tracer.wrap(Mod, "work", "layer.work", lambda args, result: {"n": args["n"]})
    tracer.wrap(Mod, "gone", "layer.gone")
    with tracer.span("outer"):
        Mod.work(10)
        Mod.work(20)
    tracer.restore()
    outer, first, second = tracer.spans
    assert first["parent"] == second["parent"] == outer["id"]
    assert second["counts"] == {"n": 20}
    assert "overhead" not in outer and first["overhead"] > 0.0
    busy = (first["end"] - first["start"]) + (second["end"] - second["start"])
    assert self_time(outer, tracer.spans) == pytest.approx(outer["end"] - outer["start"] - busy)
    assert tracer.unmeasured == ["fake.gone"]
    assert not hasattr(Mod.work, "__wrapped__")


def test_peak_rss_is_per_child(tmp_path):
    big = "b = bytearray(200 * 2**20); b[::4096] = b'x' * len(b[::4096])"
    launcher = run.Launcher(ROOT, str(tmp_path), 60.0)
    _, _, rss_big, _ = launcher.run([sys.executable, "-c", big], "big")
    _, _, rss_small, _ = launcher.run([sys.executable, "-c", "pass"], "small")
    assert rss_big > 200 and rss_small < 100


def test_scipy_share_is_read_from_the_outermost_scipy_imports():
    log = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     scipy._lib",
            "import time:       200 |        300 |   scipy",
            "import time:       400 |        500 |   scipy.spatial",
            "import time:        50 |        900 | nearlink.geometry",
        ]
    )
    assert run.scipy_import_s(log) == pytest.approx(800e-6)
    assert run.scipy_import_s("import time: 1 | 1 | numpy") == 0.0
