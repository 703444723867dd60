"""Command-line front end for scenario runs and one-off calculations.

Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 scenario
validation error. Failures print a single ``error: ...`` line on stderr.

``run`` and ``validate`` operate on a scenario file as-is. The sweep and
beam subcommands also start from a scenario file (it carries the geometry)
and let flags override the analysis parameters; the final configuration is
re-validated before running. ``boundaries`` and ``dish-gain`` are pure
flag-driven calculators that write nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from importlib import metadata

from . import beamforming, mimo
from .fileio import fmt
from .scenario import (
    SPEED_OF_LIGHT,
    BeamMapAnalysis,
    BeamRangeAnalysis,
    BeamThetaAnalysis,
    DofSweepAnalysis,
    OptimizePlacementAnalysis,
    Scenario,
    ScenarioError,
    SvdSweepAnalysis,
    ValidationError,
    load_scenario,
    parse_scenario,
    run_scenario,
    scenario_hash,
    serialize_scenario,
)


def _version() -> str:
    try:
        return metadata.version("nearlink")
    except metadata.PackageNotFoundError:
        return "unknown"


def _add_wavelength_flags(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--lambda",
        dest="wavelength_m",
        type=float,
        metavar="METERS",
        help="carrier wavelength in meters",
    )
    group.add_argument(
        "--frequency",
        dest="frequency_hz",
        type=float,
        metavar="HZ",
        help="carrier frequency in Hz",
    )


def _wavelength(args) -> float:
    if args.wavelength_m is not None:
        lam = args.wavelength_m
    else:
        if args.frequency_hz <= 0.0:
            raise ValidationError("frequency must be positive")
        lam = SPEED_OF_LIGHT / args.frequency_hz
    if lam <= 0.0:
        raise ValidationError("wavelength must be positive")
    return lam


def _override(base, **overrides):
    applied = {k: v for k, v in overrides.items() if v is not None}
    return dataclasses.replace(base, **applied) if applied else base


def _revalidated(s: Scenario) -> Scenario:
    # Flag overrides bypass the parser's checks; a serialize/parse round
    # trip pushes the final configuration back through all of them.
    return parse_scenario(serialize_scenario(s))


def _print_report(report) -> None:
    print(f"scenario_hash={report.scenario_hash}")
    print(f"wall_time_s={report.wall_time_s:.3f}")
    for path in report.output_files:
        print(f"output={path}")
    for key in sorted(report.key_scalars):
        print(f"{key}={fmt(report.key_scalars[key])}")
    if report.beam_kernel is not None:
        print(f"beam_kernel={report.beam_kernel.name}")
        print(f"beam_kernel_bound_rad={fmt(report.beam_kernel.bound_rad)}")
    if report.channel_kernel is not None:
        print(f"channel_kernel={report.channel_kernel.name}")
        print(f"channel_kernel_bound_rad={fmt(report.channel_kernel.bound_rad)}")


def _run_with_analysis(s: Scenario, analysis, output_dir) -> int:
    s = _revalidated(dataclasses.replace(s, analysis=analysis))
    _print_report(run_scenario(s, output_dir=output_dir))
    return 0


# ----- subcommand handlers -----


def _cmd_run(args) -> int:
    s = load_scenario(args.scenario)
    _print_report(run_scenario(s, output_dir=args.output_dir))
    return 0


def _cmd_validate(args) -> int:
    s = load_scenario(args.scenario)
    from .scenario import _ANALYSIS_KINDS

    print(f"valid kind={_ANALYSIS_KINDS[type(s.analysis)]} hash={scenario_hash(s)}")
    return 0


def _cmd_boundaries(args) -> int:
    lam = _wavelength(args)
    for name, value in (("--dtx", args.d_tx_m), ("--drx", args.d_rx_m)):
        if value <= 0.0:
            raise ValidationError(f"{name} must be positive")
    if not 0.0 < args.tau < 1.0:
        raise ValidationError("--tau must lie strictly between 0 and 1")
    knee = args.d_tx_m * args.d_rx_m / lam
    print(f"r_min_m={fmt(mimo.r_min(args.d_tx_m, args.d_rx_m, lam, args.tau))}")
    print(f"rising_start_m={fmt(knee)}")
    print(f"falling_start_m={fmt(2.0 * knee)}")
    print(f"r_max_m={fmt(mimo.r_max(args.d_tx_m, args.d_rx_m, lam, args.tau))}")
    return 0


def _cmd_dish_gain(args) -> int:
    lam = _wavelength(args)
    spec = beamforming.DishSpec(args.diameter_m, args.efficiency)
    print(f"gain_dbi={fmt(beamforming.dish_gain(spec, lam))}")
    return 0


def _cmd_svd_sweep(args) -> int:
    s = load_scenario(args.scenario)
    if isinstance(s.analysis, SvdSweepAnalysis):
        base = s.analysis
    elif None not in (args.range_start_m, args.range_stop_m, args.n_ranges):
        base = SvdSweepAnalysis(args.range_start_m, args.range_stop_m, args.n_ranges)
    else:
        raise ValidationError(
            "scenario's analysis is not svd_sweep; pass --range-start, "
            "--range-stop and --n-ranges"
        )
    ana = _override(
        base,
        range_start_m=args.range_start_m,
        range_stop_m=args.range_stop_m,
        n_ranges=args.n_ranges,
        spacing=args.spacing,
        tau=args.tau,
    )
    return _run_with_analysis(s, ana, args.output_dir)


def _cmd_dof_sweep(args) -> int:
    s = load_scenario(args.scenario)
    if isinstance(s.analysis, DofSweepAnalysis):
        base = s.analysis
    elif None not in (args.range_start_m, args.range_stop_m, args.n_ranges, args.tau):
        base = DofSweepAnalysis(
            args.range_start_m, args.range_stop_m, args.n_ranges, args.tau
        )
    else:
        raise ValidationError(
            "scenario's analysis is not dof_sweep; pass --range-start, "
            "--range-stop, --n-ranges and --tau"
        )
    ana = _override(
        base,
        range_start_m=args.range_start_m,
        range_stop_m=args.range_stop_m,
        n_ranges=args.n_ranges,
        spacing=args.spacing,
        tau=args.tau,
    )
    return _run_with_analysis(s, ana, args.output_dir)


_BEAM_MODES = {"theta": BeamThetaAnalysis, "range": BeamRangeAnalysis, "map": BeamMapAnalysis}


def _cmd_beam_pattern(args) -> int:
    s = load_scenario(args.scenario)
    if args.mode is not None:
        cls = _BEAM_MODES[args.mode]
    elif isinstance(s.analysis, tuple(_BEAM_MODES.values())):
        cls = type(s.analysis)
    else:
        raise ValidationError(
            "scenario's analysis is not a beam pattern; pass --mode theta|range|map"
        )

    if isinstance(s.analysis, cls):
        base = s.analysis
    elif cls is BeamThetaAnalysis:
        base = BeamThetaAnalysis()
    elif None not in (args.range_start_m, args.range_stop_m):
        if cls is BeamRangeAnalysis:
            base = BeamRangeAnalysis(args.range_start_m, args.range_stop_m)
        else:
            base = BeamMapAnalysis(args.range_start_m, args.range_stop_m)
    else:
        raise ValidationError(
            f"--mode {args.mode} needs --range-start and --range-stop"
        )

    overrides = {"halfwidth_deg": args.halfwidth_deg, "n_theta": args.n_theta}
    if cls is BeamThetaAnalysis:
        ana = _override(base, **overrides)
    else:
        overrides.update(
            range_start_m=args.range_start_m,
            range_stop_m=args.range_stop_m,
            n_ranges=args.n_ranges,
            spacing=args.spacing,
        )
        if cls is BeamRangeAnalysis:
            overrides.pop("halfwidth_deg")
            overrides.pop("n_theta")
        ana = _override(base, **overrides)
    return _run_with_analysis(s, ana, args.output_dir)


def _cmd_optimize_placement(args) -> int:
    s = load_scenario(args.scenario)
    if not isinstance(s.analysis, OptimizePlacementAnalysis):
        raise ValidationError("scenario's analysis must be optimize_placement")
    ana = _override(
        s.analysis,
        n_candidates=args.n_candidates,
        seed=args.seed,
        n_scan=args.n_scan,
        scan_halfwidth_rad=args.scan_halfwidth_rad,
    )
    return _run_with_analysis(s, ana, args.output_dir)


# ----- parser -----


def _add_scenario_arg(parser):
    parser.add_argument("scenario", help="path to a scenario file")
    parser.add_argument(
        "--output-dir", default=None, help="write outputs here instead of the scenario's output_dir"
    )


def _add_range_flags(parser):
    parser.add_argument("--range-start", dest="range_start_m", type=float, default=None)
    parser.add_argument("--range-stop", dest="range_stop_m", type=float, default=None)
    parser.add_argument("--n-ranges", dest="n_ranges", type=int, default=None)
    parser.add_argument("--spacing", choices=("log", "linear"), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearlink",
        description="Distributed phased-array ground station analysis.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario file end to end")
    _add_scenario_arg(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("validate", help="parse and validate a scenario, writing nothing")
    p.add_argument("scenario", help="path to a scenario file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("boundaries", help="MIMO feasibility range boundaries")
    p.add_argument("--dtx", dest="d_tx_m", type=float, required=True, metavar="METERS")
    p.add_argument("--drx", dest="d_rx_m", type=float, required=True, metavar="METERS")
    p.add_argument("--tau", type=float, default=0.1)
    _add_wavelength_flags(p)
    p.set_defaults(func=_cmd_boundaries)

    p = sub.add_parser("dish-gain", help="parabolic dish gain for a given aperture")
    p.add_argument("--diameter", dest="diameter_m", type=float, required=True, metavar="METERS")
    p.add_argument("--efficiency", type=float, required=True)
    _add_wavelength_flags(p)
    p.set_defaults(func=_cmd_dish_gain)

    p = sub.add_parser("svd-sweep", help="singular values versus range")
    _add_scenario_arg(p)
    _add_range_flags(p)
    p.add_argument("--tau", type=float, default=None)
    p.set_defaults(func=_cmd_svd_sweep)

    p = sub.add_parser("dof-sweep", help="spatial degrees of freedom versus range")
    _add_scenario_arg(p)
    _add_range_flags(p)
    p.add_argument("--tau", type=float, default=None)
    p.set_defaults(func=_cmd_dof_sweep)

    p = sub.add_parser("beam-pattern", help="array gain over angle and/or range")
    _add_scenario_arg(p)
    p.add_argument("--mode", choices=tuple(_BEAM_MODES), default=None)
    p.add_argument("--halfwidth-deg", dest="halfwidth_deg", type=float, default=None)
    p.add_argument("--n-theta", dest="n_theta", type=int, default=None)
    _add_range_flags(p)
    p.set_defaults(func=_cmd_beam_pattern)

    p = sub.add_parser("optimize-placement", help="search random placements for low sidelobes")
    _add_scenario_arg(p)
    p.add_argument("--n-candidates", dest="n_candidates", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n-scan", dest="n_scan", type=int, default=None)
    p.add_argument(
        "--scan-halfwidth", dest="scan_halfwidth_rad", type=float, default=None, metavar="RAD"
    )
    p.set_defaults(func=_cmd_optimize_placement)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {' '.join(str(exc).split())}", file=sys.stderr)
        return 3
    except Exception as exc:  # CLI boundary: anything else is a runtime failure.
        print(f"error: {' '.join(str(exc).split())}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
