"""Command-line front end for scenario runs and one-off calculations.

Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 scenario
validation error, or an invalid flag value. Failures print a single
``error: ...`` line on stderr.

``run`` and ``validate`` operate on a scenario file. Each repeatable
``--set section.key=value`` sets one key of it first, its value read as YAML,
so ``--set analysis.n_ranges=25`` or a whole ``--set 'analysis={kind: ...}'``
runs a file's geometry with another analysis; the result is checked as a file
with that edit would be. ``boundaries`` and ``dish-gain`` are pure
flag-driven calculators that write nothing; they check their flags against
the declarations of the fields they set.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .fileio import fmt
# The parser only, so that ``validate`` loads no numerics; runs import scenario.
from .schema import (
    ANALYSIS_KINDS,
    WAVELENGTH,
    Scenario,
    ScenarioError,
    analysis_kind,
    check_value,
    closed_form,
    load_scenario,
    scenario_hash,
    wavelength_of,
)


def _wavelength(args) -> float:
    if args.wavelength_m is not None:
        return check_value(WAVELENGTH, args.wavelength_m, "--lambda")
    frequency = check_value(Scenario._fields["frequency_hz"], args.frequency_hz, "--frequency")
    return wavelength_of(frequency, "--frequency")


def _print_report(report) -> None:
    print(f"scenario_hash={report.scenario_hash}")
    print(f"wall_time_s={fmt(report.wall_time_s)}")
    for path in report.output_files:
        print(f"output={path}")
    for key in sorted(report.key_scalars):
        print(f"{key}={fmt(report.key_scalars[key])}")
    for key, value in report.details.items():
        print(f"{key}={fmt(value)}")


# ----- subcommand handlers -----


def _cmd_run(args) -> int:
    from .scenario import run_scenario
    s = load_scenario(args.scenario, args.overrides)
    _print_report(run_scenario(s, output_dir=args.output_dir))
    return 0


def _cmd_validate(args) -> int:
    s = load_scenario(args.scenario, args.overrides)
    print(f"valid kind={analysis_kind(s.analysis)} hash={scenario_hash(s)}")
    return 0


def _cmd_closed_form(args) -> int:
    """Print the results of a closed-form analysis set by the flags, each
    flag checked as the field it sets is declared."""
    lam = _wavelength(args)
    cls = ANALYSIS_KINDS[args.kind]
    checked = {n: check_value(cls._fields[n], getattr(args, n), f) for n, f in args.flags.items()}
    analysis = cls(**checked)
    # The payload repeats the inputs, the flags and the wavelength, before the results.
    for key, value in closed_form(analysis, lam).items():
        if key not in args.flags and key != "wavelength_m":
            print(f"{key}={fmt(value)}")
    return 0


# ----- parser -----


def _add_scenario_args(parser):
    parser.add_argument("scenario", help="path to a scenario file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="set a scenario key before validation, its value read as YAML; repeatable",
    )


def _calculator(sub, name, help, kind, *flags):
    """A calculator of a closed-form kind. ``flags`` are ``(option, field
    name, add_argument keywords)``, each typed as its field declares."""
    p = sub.add_parser(name, help=help)
    fields = ANALYSIS_KINDS[kind]._fields
    for option, field, extra in flags:
        p.add_argument(option, dest=field, type=fields[field].metadata["coerce"], **extra)
    carrier = p.add_mutually_exclusive_group(required=True)
    for option, dest, unit, what in (
        ("--lambda", "wavelength_m", "METERS", "wavelength in meters"),
        ("--frequency", "frequency_hz", "HZ", "frequency in Hz"),
    ):
        carrier.add_argument(option, dest=dest, type=float, metavar=unit, help=f"carrier {what}")
    p.set_defaults(func=_cmd_closed_form, kind=kind, flags={f: o for o, f, _ in flags})


_METERS = {"required": True, "metavar": "METERS"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearlink",
        description="Distributed phased-array ground station analysis.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario file end to end")
    _add_scenario_args(p)
    p.add_argument(
        "--output-dir", default=None, help="write outputs here instead of the scenario's output_dir"
    )
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("validate", help="parse and validate a scenario, writing nothing")
    _add_scenario_args(p)
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
