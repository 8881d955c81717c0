"""Command-line entry point: one subcommand per named experiment.

Each subcommand takes the flags of its experiment's parameter table
(``experiments.PARAMS``) and no others, plus --config, --out and --format;
``freemimo <experiment> --help`` lists them with their defaults.  Flag
values arrive as text and are parsed by their parameter, so a bad value, a
flag the experiment does not take and a bad config value all name the field.
SNR is given in dB.  Exit codes: 0 success, 1 validation error, 2 numeric
failure or out of memory, 3 acceptance-suite failure (verify only).
"""

import argparse
import re
import sys

import numpy as np

from .errors import ConvergenceError
from .experiments import (
    PARAMS,
    ExperimentConfig,
    emit,
    run_experiment,
)


# A flag value that starts like a negative number.
_NUMERIC = re.compile(r"-\.?\d")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(self.format_usage(), file=sys.stderr, end="")
        raise ValueError(message)

    def parse_known_args(self, args=None, namespace=None):
        """argparse reads a flag's value that starts with "-" but is not a
        plain number ("-10:5:10", "-4000,0") as a flag, so such a value is
        glued to its flag first, as --gamma-db=-10:5:10."""
        glued = []
        for arg in sys.argv[1:] if args is None else args:
            if (glued and glued[-1].startswith("--") and len(glued[-1]) > 2
                    and "=" not in glued[-1] and _NUMERIC.match(arg)):
                glued[-1] += "=" + arg
            else:
                glued.append(arg)
        return super().parse_known_args(glued, namespace)


def _build_parser(argv=()):
    """The command's parser.  It holds only the subcommand that ``argv[0]``
    names, or all of them if ``argv[0]`` names none: each subcommand costs
    a parser and a help formatter per flag, and a call runs one.  Top-level
    help and a misspelt command see every subcommand, so their text lists
    every experiment."""
    parser = _Parser(prog="freemimo",
                     description="Capacity-scaling experiments for large "
                                 "MIMO systems")
    sub = parser.add_subparsers(dest="experiment", metavar="EXPERIMENT",
                                required=True)
    named = [argv[0]] if argv and argv[0] in PARAMS else PARAMS
    for experiment in named:
        p = sub.add_parser(experiment, help=f"run the {experiment} experiment")
        p.add_argument("--config", help="JSON config file (flags override it)")
        for field, param in PARAMS[experiment].items():
            p.add_argument(param.option(field), dest=field,
                           help=f"{param.help} (default: {param.shown()})")
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"))
    return parser


def _unknown_flags(experiment, unknown):
    """The message for arguments the experiment's subcommand does not take."""
    fields = [arg[2:].split("=")[0].replace("-", "_") for arg in unknown
              if arg.startswith("--")]
    return (f"{', '.join(fields)}: not a parameter of {experiment}" if fields
            else f"unrecognized arguments: {' '.join(unknown)}")


def _config_from_args(args):
    if args.config:
        config = ExperimentConfig.from_file(args.config)
        if config.experiment != args.experiment:
            raise ValueError(
                f"config is for {config.experiment!r}, not {args.experiment!r}")
    else:
        config = ExperimentConfig(experiment=args.experiment)
    for field, param in PARAMS[args.experiment].items():
        text = getattr(args, field)
        if text is not None:
            config.params[field] = param.parse(field, text)
    if args.out is not None:
        config.out = args.out
    if args.fmt is not None:
        config.fmt = args.fmt
    return config


def _print_verify_lines(table):
    by_criterion = {}
    for row in table.rows:
        cid, name, measured, tol, passed = row
        by_criterion.setdefault(cid, []).append((name, measured, tol, passed))
    seconds = table.metadata["criterion_seconds"]
    all_ok = True
    for cid, checks in by_criterion.items():
        ok = all(c[3] for c in checks)
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {cid} ({seconds[cid]:.1f} s)")
        for name, measured, tol, passed in checks:
            mark = "ok" if passed else "FAIL"
            print(f"    [{mark}] {name}: measured={measured:.6g} "
                  f"tolerance={tol:.6g}")
    return all_ok


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv)
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:
            parser.error(_unknown_flags(args.experiment, unknown))
        config = _config_from_args(args)
        errors = config.validate()
        if not errors and config.experiment != "verify" and config.out is None:
            errors = ["--out is required for this experiment"]
    except (OSError, ValueError) as exc:  # JSON and flag errors too
        errors = [str(exc)]
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    if errors:
        return 1

    try:
        # A non-finite result is the one numeric-failure line, not warnings.
        with np.errstate(all="ignore"):
            table = run_experiment(config)
    except (ConvergenceError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 2

    all_ok = config.experiment != "verify" or _print_verify_lines(table)
    if config.out is not None:  # verify alone may write no file
        emit(table, config.out, config.fmt)
        print(f"wrote {config.out}")
    return 0 if all_ok else 3


if __name__ == "__main__":
    sys.exit(main())
