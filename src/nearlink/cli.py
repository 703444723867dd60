"""Command-line front end for scenario runs and one-off calculations.

Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 scenario
validation error, or an invalid flag value. Failures print a single
``error: ...`` line on stderr.

``run`` and ``validate`` operate on a scenario file as-is. The sweep and
beam subcommands also start from a scenario file (it carries the geometry)
and let flags override the analysis parameters; the final configuration is
re-validated before running. ``boundaries`` and ``dish-gain`` are pure
flag-driven calculators that write nothing. Each flag that sets an analysis
field takes that field's declared type, and the calculators check their
flags against the field declarations too.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import __version__
from .fileio import fmt
# The parser only, so that ``validate`` loads no numerics; runs import scenario.
from .schema import (
    ANALYSIS_KINDS,
    Scenario,
    ScenarioError,
    ValidationError,
    analysis_kind,
    check_value,
    closed_form,
    load_scenario,
    parse_scenario,
    scenario_hash,
    serialize_scenario,
    wavelength_of,
)


def _wavelength(args) -> float:
    # A wavelength shares the frequency's declaration: a positive finite number.
    if args.wavelength_m is not None:
        return check_value(Scenario, "frequency_hz", args.wavelength_m, "--lambda")
    frequency = check_value(Scenario, "frequency_hz", args.frequency_hz, "--frequency")
    return wavelength_of(frequency, "--frequency")


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
    if report.placement_scored is not None:
        print(f"placement_scored={report.placement_scored}")
        print(f"placement_prune_margin={fmt(report.placement_prune_margin)}")
        print(f"placement_screen_exps={report.placement_screen_exps}")


# ----- subcommand handlers -----


def _cmd_run(args) -> int:
    from .scenario import run_scenario
    s = load_scenario(args.scenario)
    _print_report(run_scenario(s, output_dir=args.output_dir))
    return 0


def _cmd_validate(args) -> int:
    s = load_scenario(args.scenario)
    print(f"valid kind={analysis_kind(s.analysis)} hash={scenario_hash(s)}")
    return 0


def _cmd_closed_form(args) -> int:
    """Print the results of a closed-form analysis set by the flags, each
    flag checked as the field it sets is declared."""
    lam = _wavelength(args)
    cls = ANALYSIS_KINDS[args.kind]
    checked = {n: check_value(cls, n, getattr(args, n), flag) for n, flag in args.flags.items()}
    analysis = cls(**checked)
    # The payload repeats the inputs, the flags and the wavelength, before the results.
    for key, value in closed_form(analysis, lam).items():
        if key not in args.flags and key != "wavelength_m":
            print(f"{key}={fmt(value)}")
    return 0


def _cmd_analysis(args) -> int:
    """Run the scenario's geometry with an analysis of the subcommand's kind.
    The scenario's own analysis is the base when its kind fits; otherwise the
    flags must give every field without a default. Flags override the fields
    they are named after."""
    from .scenario import run_scenario
    s = load_scenario(args.scenario)
    mode, own = getattr(args, "mode", None), analysis_kind(s.analysis)
    kind = own if mode is None and own in args.kinds.values() else args.kinds.get(mode)
    if kind is None:
        raise ValidationError(
            f"scenario's analysis is not {' or '.join(args.kinds.values())}; "
            f"pass --mode {'|'.join(args.kinds)}"
        )
    cls = ANALYSIS_KINDS[kind]
    given = {
        name: getattr(args, name)
        for name in args.flags
        if name in cls.__dataclass_fields__ and getattr(args, name) is not None
    }
    if isinstance(s.analysis, cls):
        analysis = dataclasses.replace(s.analysis, **given)
    else:
        missing = [
            args.flags.get(f.name, f"analysis.{f.name}")
            for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING and f.name not in given
        ]
        if missing:
            needs = ", ".join(missing)
            raise ValidationError(f"scenario's analysis is not {kind}; it needs {needs}")
        analysis = cls(**given)
    # Flag values bypass the parser's checks; a serialize/parse round trip
    # pushes the final configuration back through all of them.
    s = parse_scenario(serialize_scenario(dataclasses.replace(s, analysis=analysis)))
    _print_report(run_scenario(s, output_dir=args.output_dir))
    return 0


# ----- parser -----


def _add_scenario_arg(parser):
    parser.add_argument("scenario", help="path to a scenario file")
    parser.add_argument(
        "--output-dir", default=None, help="write outputs here instead of the scenario's output_dir"
    )


def _field_flags(parser, *flags):
    """Add ``(option, field name[, add_argument keywords])`` flags that set
    analysis fields, each typed as its field declares."""
    for option, name, *extra in flags:
        cls = next(c for c in ANALYSIS_KINDS.values() if name in c.__dataclass_fields__)
        coerce = cls.__dataclass_fields__[name].metadata["coerce"]
        typed = {"choices": coerce} if isinstance(coerce, tuple) else {"type": coerce}
        parser.add_argument(option, dest=name, **typed, **(extra or [{"default": None}])[0])
    parser.set_defaults(flags={name: option for option, name, *_ in flags})


def _calculator(sub, name, help, kind, *flags):
    p = sub.add_parser(name, help=help)
    _field_flags(p, *flags)
    group = p.add_mutually_exclusive_group(required=True)
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
    p.set_defaults(func=_cmd_closed_form, kind=kind)


def _analysis_command(sub, name, help, kinds, *flags):
    """A subcommand that runs a scenario with an analysis of its kind.
    ``kinds`` maps each ``--mode`` value to a kind, or None to the one kind."""
    p = sub.add_parser(name, help=help)
    _add_scenario_arg(p)
    if None not in kinds:
        p.add_argument("--mode", choices=tuple(kinds), default=None)
    _field_flags(p, *flags)
    p.set_defaults(func=_cmd_analysis, kinds=kinds)


_METERS = {"required": True, "metavar": "METERS"}
_RANGE_FLAGS = (
    ("--range-start", "range_start_m"),
    ("--range-stop", "range_stop_m"),
    ("--n-ranges", "n_ranges"),
    ("--spacing", "spacing"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearlink",
        description="Distributed phased-array ground station analysis.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario file end to end")
    _add_scenario_arg(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("validate", help="parse and validate a scenario, writing nothing")
    p.add_argument("scenario", help="path to a scenario file")
    p.set_defaults(func=_cmd_validate)

    _calculator(
        sub,
        "boundaries",
        "MIMO feasibility range boundaries",
        "boundaries",
        ("--dtx", "d_tx_m", _METERS),
        ("--drx", "d_rx_m", _METERS),
        ("--tau", "tau", {"default": 0.1}),
    )
    _calculator(
        sub,
        "dish-gain",
        "parabolic dish gain for a given aperture",
        "dish_gain",
        ("--diameter", "diameter_m", _METERS),
        ("--efficiency", "efficiency", {"required": True}),
    )
    for name, help, kind in (
        ("svd-sweep", "singular values versus range", "svd_sweep"),
        ("dof-sweep", "spatial degrees of freedom versus range", "dof_sweep"),
    ):
        _analysis_command(sub, name, help, {None: kind}, *_RANGE_FLAGS, ("--tau", "tau"))
    _analysis_command(
        sub,
        "beam-pattern",
        "array gain over angle and/or range",
        {"theta": "beam_theta", "range": "beam_range", "map": "beam_map"},
        ("--halfwidth-deg", "halfwidth_deg"),
        ("--n-theta", "n_theta"),
        *_RANGE_FLAGS,
    )
    _analysis_command(
        sub,
        "optimize-placement",
        "search random placements for low sidelobes",
        {None: "optimize_placement"},
        ("--n-candidates", "n_candidates"),
        ("--seed", "seed"),
        ("--n-scan", "n_scan"),
        ("--scan-halfwidth", "scan_halfwidth_rad", {"default": None, "metavar": "RAD"}),
    )
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
