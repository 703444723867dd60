"""nearlink benchmark: seeded scenario workloads run through the CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload beam_map --seed 1 --seconds 15 --trace 0

The benchmark writes one seeded scenario file for the workload. Within
``--seconds`` it then runs, one subprocess at a time, a few fresh
``python -m nearlink.cli validate`` children (set-up time) and a closed loop
of fresh ``python -m nearlink.cli run`` children (wall time, the CLI's own
solve time and the child's peak RSS). Every run's outputs must be
byte-identical; the first set is then checked against independent numpy
oracles, outside the timed loop.

``--trace 1`` adds one in-process traced run of the same scenario
(``traced_run.py``) and a fresh ``-X importtime`` import of the package, and
reports per-layer numbers instead of end-to-end ones. ``--smoke`` shrinks the
workloads to seconds for the benchmark's own tests.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; all metrics are medians over the loop's samples.
Results, scenario hash, environment and spans go to
``.bench_out/<workload>-seed<seed>/``. The exit code is 0 when every output
check passed, 1 when one failed, 2 when the program's source is missing.

No BLAS or thread variable is set for the children; they inherit the
environment as found, which ``result.json`` records.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import numpy as np

from oracles import CHECKS
from workloads import WORKLOADS, make_scenario, scenario_text

HERE = os.path.dirname(os.path.abspath(__file__))
# A run is short (``run_seconds`` in BENCHMARK.json) and holds only a few
# samples: on a shared host the CPU speed shifts between levels that each last
# minutes, so the spread over a set of runs is set by how long the set takes,
# not by how many samples each run takes.
MIN_RUNS = 3
SETUP_REPS = 5
IMPORT_REPS = 3
# Every child must have ended this long after start, inside a 180 s limit.
BUDGET_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class ChildFailed(RuntimeError):
    pass


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Launcher:
    """Runs children one at a time from ``root``, logging to ``work``.

    Every child shares one deadline ``budget_s`` from now; a child still
    running at the deadline is killed, so the benchmark ends in bounded time.
    """

    def __init__(self, root, work, budget_s):
        self.root = root
        self.work = work
        self.env = child_env(root)
        self.deadline = time.monotonic() + budget_s

    def run(self, argv, log_name):
        """Run one child to completion; return (exit code, wall s, peak RSS MB, stdout).

        The child is reaped with ``os.wait4`` so its rusage is its own, not
        the running maximum over every child reaped so far that
        ``getrusage(RUSAGE_CHILDREN)`` would give.
        """
        out_path = os.path.join(self.work, log_name + ".stdout")
        err_path = os.path.join(self.work, log_name + ".stderr")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.root, stdout=out, stderr=err)
            pidfd = os.pidfd_open(proc.pid)
            ready = []
            try:
                timeout = max(0.0, self.deadline - time.monotonic())
                ready, _, _ = select.select([pidfd], [], [], timeout)
            finally:
                if not ready:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                os.close(pidfd)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as handle:
            stdout = handle.read()
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout


def report_fields(stdout):
    """``key=value`` lines of a CLI report; values stay strings."""
    fields = {"output": []}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            continue
        if key == "output":
            fields["output"].append(value)
        else:
            fields[key] = value
    return fields


def outputs_digest(paths):
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


def environment():
    """Machine and library facts recorded next to every result."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = None
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def scipy_import_s(importtime_log):
    """Cumulative seconds of the outermost scipy imports in ``-X importtime`` output."""
    rows = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:") :].split("|")
        if not cumulative.strip().isdigit():
            continue
        stripped = name.strip()
        if stripped == "scipy" or stripped.startswith("scipy."):
            rows.append((len(name) - len(name.lstrip()), int(cumulative)))
    if not rows:
        return 0.0
    top = min(depth for depth, _ in rows)
    return sum(us for depth, us in rows if depth == top) / 1e6


def measure_import(launcher):
    """Median fresh ``import nearlink`` time and its scipy share."""
    code = "import time; t = time.perf_counter(); import nearlink; print(time.perf_counter() - t)"
    totals, scipy_parts = [], []
    for i in range(IMPORT_REPS):
        rc, _, _, stdout = launcher.run([sys.executable, "-X", "importtime", "-c", code], f"import{i}")
        if rc != 0:
            raise ChildFailed(f"import nearlink exited {rc}")
        totals.append(float(stdout.split()[-1]))
        with open(os.path.join(launcher.work, f"import{i}.stderr")) as handle:
            scipy_parts.append(scipy_import_s(handle.read()))
    return statistics.median(totals), statistics.median(scipy_parts)


def run_loop(launcher, scenario, seconds):
    """Set-up children, then a closed loop of run children, for ``seconds``."""
    cli = [sys.executable, "-m", "nearlink.cli"]
    outdir = os.path.join(launcher.work, "out")
    samples = {"wall_s": [], "solve_s": [], "setup_s": [], "peak_rss_mb": []}
    state = {"attempted": 0, "failed": 0, "hash": None, "digest": None, "report": None, "errors": []}
    deadline = time.perf_counter() + seconds
    for i in range(SETUP_REPS):
        rc, setup, _, stdout = launcher.run(cli + ["validate", scenario], f"validate{i}")
        words = stdout.split()
        found = dict(w.split("=", 1) for w in words if "=" in w).get("hash")
        if rc != 0 or words[:1] != ["valid"] or state["hash"] not in (None, found):
            state.update(attempted=1, failed=1)
            state["errors"].append(f"validate exited {rc} with {stdout.strip()!r}")
            return samples, state
        state["hash"] = found
        samples["setup_s"].append(setup)

    while state["attempted"] < MIN_RUNS or time.perf_counter() < deadline:
        i = state["attempted"]
        state["attempted"] += 1
        # Every run writes into an empty directory, so a run that skips an
        # output cannot pass on a file an earlier run left behind.
        shutil.rmtree(outdir, ignore_errors=True)
        rc, wall, rss, stdout = launcher.run(cli + ["run", scenario, "--output-dir", outdir], f"run{i}")
        fields = report_fields(stdout)
        problem = None
        if rc != 0:
            problem = f"run exited {rc}"
        elif fields.get("scenario_hash") != state["hash"]:
            problem = f"run hash {fields.get('scenario_hash')} != validate hash {state['hash']}"
        else:
            digest = outputs_digest(fields["output"])
            if state["digest"] is None:
                state["digest"], state["report"] = digest, fields
            elif digest != state["digest"]:
                problem = "outputs differ from the first run"
        if problem:
            state["failed"] += 1
            state["errors"].append(problem)
            if rc != 0:
                break
            continue
        samples["wall_s"].append(wall)
        samples["solve_s"].append(float(fields["wall_time_s"]))
        samples["peak_rss_mb"].append(rss)
    return samples, state


def scalars_of(fields):
    out = {}
    for key, value in fields.items():
        try:
            out[key] = float(value)
        except (TypeError, ValueError):
            pass
    return out


def traced(launcher, scenario, ref_digest):
    """Per-layer numbers from one traced in-process run plus a fresh import."""
    import_s, scipy_s = measure_import(launcher)
    outdir = os.path.join(launcher.work, "out_traced")
    shutil.rmtree(outdir, ignore_errors=True)
    spans = os.path.join(launcher.work, "spans.json")
    rc, _, _, stdout = launcher.run(
        [sys.executable, os.path.join(HERE, "traced_run.py"), scenario, outdir, spans], "traced"
    )
    if rc != 0:
        raise ChildFailed(f"traced run exited {rc}")
    result = json.loads(stdout.strip().splitlines()[-1])
    written = [os.path.join(outdir, f) for f in os.listdir(outdir) if not f.startswith(".")]
    if outputs_digest(written) != ref_digest:
        raise ChildFailed("traced run wrote different outputs than the untraced runs")
    layers = result["metrics"]
    layers["cli.import_s"] = import_s
    layers["geometry.scipy_import_s"] = scipy_s
    return layers, result["unmeasured"]


def declared_units():
    """Unit of every metric, as ``BENCHMARK.json`` declares it."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    return {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in bench[kind]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nearlink", "cli.py")):
        print("error: src/nearlink not found; run from the root of a nearlink checkout", file=sys.stderr)
        return 2

    size = "smoke" if args.smoke else "full"
    tag = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    work = os.path.join(root, ".bench_out", tag)
    os.makedirs(work, exist_ok=True)
    doc = make_scenario(args.workload, args.seed, size)
    scenario = os.path.join(work, "workload.scenario")
    with open(scenario, "w") as handle:
        handle.write(scenario_text(doc))
    launcher = Launcher(root, work, BUDGET_S)

    samples, state = run_loop(launcher, scenario, args.seconds)
    problems, facts = list(state["errors"]), {}
    if state["digest"] is not None:
        checked, facts = CHECKS[args.workload](doc, os.path.join(work, "out"), scalars_of(state["report"]))
        if checked:
            problems += checked
            state["failed"] = state["attempted"]
    else:
        problems.append("no run completed")

    metrics, unmeasured = {}, []
    if not problems:
        if args.trace:
            try:
                metrics, unmeasured = traced(launcher, scenario, state["digest"])
            except ChildFailed as exc:
                problems.append(str(exc))
            else:
                metrics["mimo.ratio_rel_err_max"] = facts.get("ratio_rel_err_max", 0.0)
                metrics["trace.untraced_solve_s"] = statistics.median(samples["solve_s"])
        else:
            metrics = {k: statistics.median(v) for k, v in samples.items()}

    attempted, failed = state["attempted"], state["failed"]
    units = declared_units()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": size,
        "scenario_hash": state["hash"],
        "environment": environment(),
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "facts": facts,
        "unmeasured": unmeasured,
        "metrics": metrics,
    }
    with open(os.path.join(work, "result.json" if not args.trace else "result_trace.json"), "w") as handle:
        json.dump(record, handle, indent=2)

    print(f"workload={args.workload} seed={args.seed} size={size} scenario_hash={state['hash']}")
    print(f"environment={json.dumps(record['environment'], sort_keys=True)}")
    n = len(samples["wall_s"])
    for name, value in metrics.items():
        print(f"{name}={value!r} {units[name]}" + ("" if args.trace else f" (median of {n})"))
    print(f"error_rate={failed / attempted!r} ({failed} of {attempted} runs failed)")
    for name, value in facts.items():
        print(f"oracle.{name}={value!r}")
    for name in unmeasured:
        print(f"unmeasured={name}")
    for problem in problems:
        print(f"problem={problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
