"""Command-line entry point: one subcommand per named experiment.

SNR is expressed in dB on the command line and converted to linear scale
once at parse time.  Exit codes: 0 success, 1 validation error, 2 numeric
failure, 3 acceptance-suite failure (verify only).
"""

import argparse
import json
import math
import sys

import numpy as np

from .errors import ConvergenceError
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    emit,
    run_experiment,
)


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(self.format_usage(), file=sys.stderr, end="")
        raise _CliError(message)


# A start:step:stop SNR grid longer than this is a typo, not an experiment.
_MAX_GRID_POINTS = 10_000


def _parse_list(field, text, kind=float, sep=","):
    """The values of a list flag; a value that does not parse is an error
    naming the flag's field."""
    try:
        return [kind(x) for x in str(text).split(sep)]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise _CliError(f"{field}: expected {noun}, got {text!r}") from None


def _parse_one(field, text, kind=float):
    """The value of a one-value flag; a list is an error naming the field."""
    values = _parse_list(field, text, kind)
    if len(values) != 1:
        raise _CliError(f"{field}: expected one value, got {text!r}")
    return values[0]


def _parse_grid(text):
    """Parse '0:2:40' (start:step:stop, inclusive), 'a,b,c', or a scalar."""
    if ":" not in text:
        return _parse_list("gamma_db", text)
    parts = _parse_list("gamma_db", text, sep=":")
    start, step, stop = parts if len(parts) == 3 else (0.0, 0.0, 0.0)
    grid = []
    if (step > 0.0 and math.isfinite(start) and math.isfinite(stop + step)
            and (stop - start) / step < _MAX_GRID_POINTS):
        grid = [float(v) for v in np.arange(start, stop + 0.5 * step, step)]
    if not grid:
        raise _CliError(f"gamma_db: bad grid spec {text!r}; expected "
                        f"start:step:stop with step > 0, start <= stop and "
                        f"fewer than {_MAX_GRID_POINTS} points")
    return grid


def _build_parser():
    parser = _Parser(prog="freemimo",
                     description="Capacity-scaling experiments for large "
                                 "MIMO systems")
    sub = parser.add_subparsers(dest="experiment", metavar="EXPERIMENT")
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--gamma-db", dest="gamma_db",
                       help="SNR grid in dB: start:step:stop, list, or value")
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--beta", help="kept fraction(s), e.g. 0.5 or 0.25,0.5")
        p.add_argument("--phi", type=float, help="antenna ratio T/R")
        p.add_argument("--n", help="system size(s), e.g. 512 or 64,128,256")
        p.add_argument("--ensemble", help="iid_complex_gaussian, "
                       "iid_real_gaussian, haar_unitary, product_iid")
        p.add_argument("--sigma2", type=float, help="ensemble variance scale")
        p.add_argument("--m", type=int, help="factors in a product ensemble")
        p.add_argument("--rows", type=int, help="receive antennas R")
        p.add_argument("--cols", type=int, help="transmit antennas T")
        p.add_argument("--family", help="spectral family for transforms")
        p.add_argument("--at", type=float, help="Dirac location")
        p.add_argument("--points", type=int, help="grid points for transforms")
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"))
    return parser


def _config_from_args(args):
    if args.config:
        config = ExperimentConfig.from_file(args.config)
        if config.experiment != args.experiment:
            raise _CliError(
                f"config is for {config.experiment!r}, not {args.experiment!r}")
    else:
        config = ExperimentConfig(experiment=args.experiment)

    p = config.params
    if args.gamma_db is not None:
        grid = _parse_grid(args.gamma_db)
        p["gamma_db"] = grid if len(grid) > 1 else grid[0]
    if args.trials is not None:
        p["trials"] = args.trials
    if args.seed is not None:
        p["master_seed"] = args.seed
    if args.beta is not None:
        if args.experiment == "deviation-sweep":
            p["beta_list"] = _parse_list("beta_list", args.beta)
        else:
            p["beta"] = _parse_one("beta", args.beta)
    if args.phi is not None:
        p["phi"] = args.phi
    if args.n is not None:
        if args.experiment == "loss-convergence":
            p["n_list"] = _parse_list("n_list", args.n, int)
        else:
            p["n"] = _parse_one("n", args.n, int)
    for name in ("ensemble", "sigma2", "m", "rows", "cols", "family", "at",
                 "points"):
        value = getattr(args, name)
        if value is not None:
            p[name] = value
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.experiment is None:
            parser.error("an experiment subcommand is required")
        config = _config_from_args(args)
        errors = config.validate()
        if errors:
            for err in errors:
                print(f"error: {err}", file=sys.stderr)
            return 1
        if config.experiment != "verify" and config.out is None:
            print("error: --out is required for this experiment",
                  file=sys.stderr)
            return 1
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        table = run_experiment(config)
    except (ConvergenceError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2

    if config.experiment == "verify":
        all_ok = _print_verify_lines(table)
        if config.out is not None:
            emit(table, config.out, "json")
            print(f"wrote {config.out}")
        return 0 if all_ok else 3

    emit(table, config.out, config.fmt)
    print(f"wrote {config.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
