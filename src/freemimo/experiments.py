"""Named experiments binding closed-form asymptotics to Monte Carlo estimates.

Each experiment consumes a validated ``ExperimentConfig`` and produces a
``ResultTable`` whose rows are plain JSON scalars; ``emit`` writes CSV or
JSON.  Identical (config, seed) re-runs on the same numpy/BLAS build and
BLAS thread count reproduce output files byte for byte, except for the
wall-clock metadata fields (JSON only: ``wall_clock_s``, and
``criterion_seconds`` for ``verify``), which are excluded from the
determinism guarantee.
"""

import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .asymptotics import (
    binary_entropy_loss,
    deviation_from_linear,
    deviation_product_iid,
)
from .errors import is_integer, is_real
from .montecarlo import (
    ENSEMBLE_KINDS,
    EnsembleSpec,
    ProjectorSpec,
    ergodic_deviation,
    ergodic_loss,
    kept_count,
    limiting_family,
    mean_stderr,
    trial_stats,
)
from .spectra import (
    BernoulliProjector,
    Dirac,
    FreeProduct,
    ProjectorScaled,
    SquareIidGram,
    eta_transform,
    psi_transform,
    s_transform,
)

CONFIG_SCHEMA = "freemimo-config/1"

# The master seed of a run that names none.
MASTER_SEED = 20260808


def db_to_linear(db):
    return 10.0 ** (db / 10.0)


def _is_number(value, integer=False):
    """A finite real number, Python's or numpy's (not a bool or a string);
    with ``integer``, one with an integral value."""
    if not is_real(value):
        return False
    try:
        x = float(value)
    except OverflowError:
        return False
    return math.isfinite(x) and (not integer or x.is_integer())


# A start:step:stop SNR grid longer than this is a typo, not an experiment.
_MAX_GRID_POINTS = 10_000


@dataclass(frozen=True)
class Param:
    """One parameter of an experiment: its values, its flag and its default.

    ``kind``: "int" or "float" (one number), "ints" or "floats" (one number
    or a list), "grid" (the same, strictly increasing) or "name" (one of
    ``domain``).  A numeric ``domain`` is a (description, test) pair that
    each value must pass, or None.  A numeric ``default`` that names another
    parameter of the table takes its value.  ``flag`` replaces ``--<name>``.
    """

    kind: str
    domain: tuple | None
    default: object
    help: str
    flag: str | None = None

    def option(self, name):
        """The command-line flag of parameter ``name``."""
        return self.flag or "--" + name.replace("_", "-")

    def shown(self):
        """The default as its flag would be written."""
        default = self.default
        if isinstance(default, range):
            return f"{default.start}:{default.step}:{default[-1]}"
        if isinstance(default, tuple):
            return ",".join(map(str, default))
        return str(default)

    def parse(self, name, text):
        """A flag's text as this parameter's value: a name, one number, a
        list of numbers, or a grid, '0:2:40' (start:step:stop, inclusive)
        or 'a,b,c' (one number if it has one point).  Text that does not
        parse is an error naming the field.  argparse passes the text
        "--" as [], which is an error too."""
        if self.kind == "name":
            return text
        number = int if self.kind in ("int", "ints") else float
        sep = ":" if self.kind == "grid" and ":" in text else ","
        try:
            values = [number(x) for x in str(text).split(sep)]
        except ValueError:
            noun = "integers" if number is int else "numbers"
            raise ValueError(f"{name}: expected {noun}, got {text!r}") from None
        if sep == ":":
            start, step, stop = values if len(values) == 3 else (0.0, 0.0, 0.0)
            values = []
            if (step > 0.0 and math.isfinite(start)
                    and math.isfinite(stop + step)
                    and (stop - start) / step < _MAX_GRID_POINTS):
                values = [float(v) for v in
                          np.arange(start, stop + 0.5 * step, step)]
            if not values:
                raise ValueError(f"{name}: bad grid spec {text!r}; expected "
                                 f"start:step:stop with step > 0, start <= "
                                 f"stop and fewer than {_MAX_GRID_POINTS} "
                                 f"points")
        if self.kind == "grid":
            return values if len(values) > 1 else values[0]
        if self.kind in ("ints", "floats"):
            return values
        if len(values) != 1:
            raise ValueError(f"{name}: expected one value, got {text!r}")
        return values[0]

    def error(self, name, raw):
        """The message for a given value outside this parameter, or None."""
        if self.kind == "name":
            return None if raw in self.domain else (
                f"{name}: must be one of {', '.join(self.domain)}, got {raw!r}")
        listed = self.kind in ("ints", "floats", "grid")
        if isinstance(raw, (list, tuple)) and not listed:
            return f"{name}: takes one value, got {raw!r}"
        vals = list(raw) if isinstance(raw, (list, tuple)) else [raw]
        integer = self.kind in ("int", "ints")
        if not vals or not all(_is_number(v, integer) for v in vals):
            return (f"{name}: not {'an integer' if integer else 'a number'}"
                    f"{' or a list of them' if listed else ''}: {raw!r}")
        if self.domain is not None and not all(map(self.domain[1], vals)):
            return f"{name}: must be {self.domain[0]}, got {raw}"
        if self.kind == "grid" and any(a >= b for a, b in zip(vals, vals[1:])):
            return f"{name}: grid must be strictly increasing"
        return None

    def convert(self, value):
        """A valid value as runners read it (lists stay lists)."""
        if self.kind == "name":
            return value
        number = int if self.kind in ("int", "ints") else float
        if self.kind in ("int", "float"):
            return number(value)
        return [number(v) for v in
                ([value] if is_real(value) else value)]


# Spectral families of the transforms experiment, built from its params.
_FAMILIES = {
    "square_iid": lambda p: SquareIidGram(p["sigma2"]),
    "dirac": lambda p: Dirac(p["at"]),
    "bernoulli": lambda p: BernoulliProjector(p["beta"]),
    "projector_scaled":
        lambda p: ProjectorScaled(SquareIidGram(p["sigma2"]), p["beta"]),
    "product_iid":
        lambda p: FreeProduct(*[SquareIidGram(p["sigma2"])] * p["m"]),
}
FAMILY_NAMES = tuple(_FAMILIES)

_POSITIVE = ("positive", lambda v: v > 0)
_FRACTION = ("in (0, 1]", lambda v: 0 < v <= 1)
_AT_LEAST_TWO = (">= 2", lambda v: v >= 2)


def _finite_snr(db):
    """Whether 10^(db/10), the linear SNR, is a finite double > 0."""
    try:
        return 0.0 < db_to_linear(db) < math.inf
    except OverflowError:
        return False


_SNR_DB = ("a dB value whose 10^(dB/10) is a finite number > 0", _finite_snr)

# Parameters that several experiments take; a table may change the default.
TRIALS = Param("int", _AT_LEAST_TWO, 200, "Monte Carlo trials")
BETA = Param("float", _FRACTION, 0.5, "kept fraction of the antennas")
GAMMA_DB = Param("float", _SNR_DB, 60.0, "SNR in dB")
N = Param("int", _POSITIVE, 512, "antennas on each side (n x n channel)")
M = Param("int", _POSITIVE, 1, "factors in a product channel")
SIGMA2 = Param("float", _POSITIVE, 1.0, "ensemble variance scale")
_RUNS = {"trials": TRIALS, "master_seed": Param(
    "int", ("in [0, 2^64)", lambda v: 0 <= v < 2 ** 64), MASTER_SEED,
    "master seed", "--seed")}
_ENSEMBLE = {"ensemble": Param("name", ENSEMBLE_KINDS, "iid_complex_gaussian",
                               "channel ensemble"),
             "sigma2": SIGMA2, "m": M}


def _receive_table(grid):
    """loss-curve and monotonicity: one R x T channel, its receive antennas
    cut to beta R, over an SNR grid."""
    return {"gamma_db": Param("grid", _SNR_DB, grid, "SNR grid in dB: "
                              "start:step:stop, a list, or one value"),
            **_RUNS, "trials": replace(TRIALS, default=20000), "beta": BETA,
            **_ENSEMBLE, "sigma2": replace(SIGMA2, default="rows"),
            "rows": Param("int", _POSITIVE, 4, "receive antennas R"),
            "cols": Param("int", _POSITIVE, 2, "transmit antennas T")}


# Every experiment's parameters: validate(), the command-line flags and the
# runners' values all come from here.  Flags enter metadata.params in table
# order, so reordering a table changes the bytes of JSON outputs.
PARAMS = {
    "loss-curve": _receive_table(range(0, 41, 2)),
    "loss-convergence": {
        "gamma_db": replace(GAMMA_DB, default=40.0), **_RUNS,
        "beta": replace(BETA, default=0.75),
        "phi": Param("float", _FRACTION, 0.5, "antenna ratio T/R"),
        "n_list": Param("ints", _AT_LEAST_TWO, (64, 128, 256, 512),
                        "receive antennas n of each n x phi n channel", "--n"),
        # Haar and product draws are square, and a square channel cut to
        # beta >= phi = 1 loses nothing.
        "ensemble": replace(_ENSEMBLE["ensemble"], domain=(
            "iid_complex_gaussian", "iid_real_gaussian")),
        "sigma2": SIGMA2},
    "deviation-sweep": {
        "gamma_db": GAMMA_DB, **_RUNS,
        "beta_list": Param("floats", _FRACTION, (0.25, 0.5, 0.75),
                           "kept fractions of the antennas", "--beta"),
        "n": N, **_ENSEMBLE},
    "product-additivity": {"gamma_db": GAMMA_DB, **_RUNS, "beta": BETA, "n": N,
                           "sigma2": SIGMA2, "m": replace(M, default=2)},
    "monotonicity": _receive_table(range(0, 41, 5)),
    "transforms": {
        "beta": BETA, "sigma2": SIGMA2, "m": replace(M, default=2),
        "family": Param("name", FAMILY_NAMES, "square_iid", "spectral family"),
        "at": Param("float", _POSITIVE, 1.0, "Dirac location"),
        "points": Param("int", _POSITIVE, 25, "grid points")},
    "verify": {},
}
EXPERIMENTS = tuple(PARAMS)


def _resolve(experiment, params):
    """Every parameter of a valid config: the given value, else the
    default, as runners read it."""
    table = PARAMS[experiment]
    values = {name: params.get(name, param.default)
              for name, param in table.items()}
    for name, param in table.items():
        if param.kind != "name" and isinstance(values[name], str):
            values[name] = values[values[name]]  # e.g. sigma2 = rows
    return {name: param.convert(values[name]) for name, param in table.items()}


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment run.  ``fmt`` defaults
    to the experiment's own format: JSON for verify, CSV for the others."""

    experiment: str
    params: dict = field(default_factory=dict)
    out: str | None = None
    fmt: str | None = None

    def __post_init__(self):
        if self.fmt is None:
            self.fmt = "json" if self.experiment == "verify" else "csv"

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        if raw.get("schema") != CONFIG_SCHEMA:
            raise ValueError(
                f"config schema must be {CONFIG_SCHEMA!r}, got {raw.get('schema')!r}")
        params, output = raw.get("params", {}), raw.get("output", {})
        if not isinstance(params, dict) or not isinstance(output, dict):
            raise ValueError("config params and output must be JSON objects")
        return cls(experiment=raw.get("experiment", ""),
                   params=dict(params),
                   out=output.get("path"),
                   fmt=output.get("format"))

    def validate(self):
        """Return a list of messages, one per offending field; empty if valid.

        Never raises: a value of the wrong type is reported like one out of
        range.  Numeric fields take JSON numbers, not strings.
        """
        if self.experiment not in EXPERIMENTS:
            return [f"experiment: unknown name {self.experiment!r}"]
        errors = []
        if self.fmt not in ("csv", "json"):
            errors.append(f"format: must be csv or json, got {self.fmt!r}")
        elif self.experiment == "verify" and self.fmt == "csv":
            errors.append("format: verify writes a JSON report")
        if self.out is not None and not isinstance(self.out, str):
            errors.append(f"output.path: must be a string, got {self.out!r}")
        table = PARAMS[self.experiment]
        for name, raw in self.params.items():
            message = (table[name].error(name, raw) if name in table else
                       f"{name}: not a parameter of {self.experiment}")
            if message:
                errors.append(message)
        return errors or self._cross_field_errors()

    def _cross_field_errors(self):
        """Messages for fields that are valid alone but not together."""
        p = _resolve(self.experiment, self.params)
        kind = p.get("ensemble")
        errors = []
        if kind == "haar_unitary" and "sigma2" in self.params:
            errors.append("sigma2: haar_unitary draws are exactly unitary and "
                          "take no variance")
        if kind not in (None, "product_iid") and "m" in self.params:
            errors.append(f"m: only product_iid takes factors, got "
                          f"ensemble={kind}")
        square = kind in ("haar_unitary", "product_iid")
        if square and "rows" in p and p["rows"] != p["cols"]:
            errors.append(f"rows, cols: {kind} needs a square channel, got "
                          f"rows={p['rows']}, cols={p['cols']}")
        if "phi" in p and p["beta"] < p["phi"]:
            errors.append(f"beta: must be >= phi = {p['phi']} for "
                          f"{self.experiment}, got {p['beta']}")
        return errors


@dataclass
class ResultTable:
    """Column-named rows plus a metadata block echoing the run inputs."""

    columns: list
    rows: list
    metadata: dict

    def column(self, name):
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


def _ensemble(p, rows, cols):
    # m is 1 unless the ensemble is product_iid (a cross-field rule);
    # loss-convergence takes no product and has no m.
    return EnsembleSpec(p["ensemble"], rows, cols, p["sigma2"], p.get("m", 1))


def _convergence_shapes(p):
    """(n, round-half-up phi n) of each loss-convergence channel."""
    return [(n, kept_count(p["phi"], n)) for n in p["n_list"]]


def _receive_stats(p, stats):
    """Trial statistics of the loss-curve and monotonicity channel, its
    receive antennas cut to beta R, over the SNR grid."""
    return trial_stats(_ensemble(p, p["rows"], p["cols"]),
                       ProjectorSpec("receive", p["beta"]),
                       [db_to_linear(g) for g in p["gamma_db"]], p["trials"],
                       p["master_seed"], stats)


def _run_loss_curve(p):
    s = _receive_stats(p, ("mi", "mr"))
    # total bits, all transmit antennas
    loss, stderr = mean_stderr((s.mi_ref - s.mi_proj) * p["cols"])
    columns = [np.mean(a, axis=-1) for a in
               (s.mi_ref, s.mr_ref, s.mi_proj, s.mr_proj)] + [loss, stderr]
    return ["gamma_db", "mi_ref_bits", "mr_ref_bits", "mi_proj_bits",
            "mr_proj_bits", "loss_total_bits", "stderr_bits"], [
        [g] + [float(c[i]) for c in columns]
        for i, g in enumerate(p["gamma_db"])]


def _run_loss_convergence(p):
    gamma = db_to_linear(p["gamma_db"])
    asym = binary_entropy_loss(p["phi"], p["beta"])
    table_rows = []
    proj = ProjectorSpec("receive", p["beta"])
    for n, cols in _convergence_shapes(p):
        est = ergodic_loss(_ensemble(p, n, cols), proj, gamma, p["trials"],
                           p["master_seed"])
        table_rows.append([n, est.mean, est.stderr, asym,
                           abs(est.mean - asym)])
    return ["n", "loss_mc_bits", "stderr_bits", "loss_asymptotic_bits",
            "discrepancy_bits"], table_rows


def _run_deviation_sweep(p):
    gamma = db_to_linear(p["gamma_db"])
    spec = _ensemble(p, p["n"], p["n"])
    family = limiting_family(spec)
    table_rows = []
    for b in p["beta_list"]:
        est = ergodic_deviation(spec, b, gamma, p["trials"], p["master_seed"])
        asym = deviation_from_linear(family, b)
        table_rows.append([b, est.mean, est.stderr, asym,
                           abs(est.mean - asym)])
    return ["beta", "dev_mc_bits", "stderr_bits", "dev_asymptotic_bits",
            "discrepancy_bits"], table_rows


def _run_product_additivity(p):
    n, m, beta, seed = p["n"], p["m"], p["beta"], p["master_seed"]
    gamma = db_to_linear(p["gamma_db"])
    prod = EnsembleSpec("product_iid", n, n, p["sigma2"], factors=m)
    est_prod = ergodic_deviation(prod, beta, gamma, p["trials"], seed)
    single = EnsembleSpec("iid_complex_gaussian", n, n, p["sigma2"])
    ests = [ergodic_deviation(single, beta, gamma, p["trials"], seed + 1 + k)
            for k in range(m)]
    closed = deviation_product_iid(m, beta)
    row = [m, beta, est_prod.mean, est_prod.stderr, sum(e.mean for e in ests),
           math.sqrt(sum(e.stderr ** 2 for e in ests)), closed,
           abs(est_prod.mean - closed)]
    return ["m", "beta", "dev_product_bits", "stderr_product_bits",
            "dev_factor_sum_bits", "stderr_factor_sum_bits",
            "dev_closed_form_bits", "discrepancy_bits"], [row]


def _run_monotonicity(p):
    s = _receive_stats(p, ("mi",))
    loss, stderr = mean_stderr(s.mi_ref - s.mi_proj)  # per transmit antenna
    ok = [1] + [int(loss[i] >= loss[i - 1] - 3.0 * (stderr[i] + stderr[i - 1]))
                for i in range(1, len(loss))]
    return ["gamma_db", "loss_bits", "stderr_bits", "nondecreasing"], [
        [g, float(m), float(e), k]
        for g, m, e, k in zip(p["gamma_db"], loss, stderr, ok)]


def _run_transforms(p):
    family = _FAMILIES[p["family"]](p)
    points = p["points"]
    alpha = family.alpha
    table_rows = []
    for i in range(1, points + 1):
        z = alpha * i / (points + 1)
        gamma_db = -10.0 + 50.0 * (i - 1) / max(points - 1, 1)
        gamma = db_to_linear(gamma_db)
        psi, s = psi_transform(family, -z), s_transform(family, -z)
        table_rows.append([float(z), psi, s, 1.0 / s,  # m_hat = 1 / S(-z)
                           float(gamma_db), eta_transform(family, gamma)])
    return ["z", "psi_at_minus_z", "s_at_minus_z", "m_hat", "gamma_db",
            "eta"], table_rows


def _run_verify(p):
    from . import acceptance
    results = acceptance.run_all()
    table_rows = []
    for res in results:
        for check in res.checks:
            table_rows.append([res.id, check.name, check.measured,
                               check.tolerance, int(check.passed)])
    seconds = {res.id: res.seconds for res in results}
    return (["criterion", "check", "measured", "tolerance", "passed"],
            table_rows, {"criterion_seconds": seconds})


_RUNNERS = {
    "loss-curve": _run_loss_curve,
    "loss-convergence": _run_loss_convergence,
    "deviation-sweep": _run_deviation_sweep,
    "product-additivity": _run_product_additivity,
    "monotonicity": _run_monotonicity,
    "transforms": _run_transforms,
    "verify": _run_verify,
}


def run_experiment(config):
    """Execute a validated config and return its ResultTable; raise
    FloatingPointError naming the first column with a NaN or inf."""
    errors = config.validate()
    if errors:
        raise ValueError("invalid config: " + "; ".join(errors))
    p = _resolve(config.experiment, config.params)
    seed = p.get("master_seed", MASTER_SEED)
    start = time.monotonic()
    # A runner may also return a dict of wall-clock metadata, which like
    # wall_clock_s is outside the determinism guarantee.
    columns, rows, *timings = _RUNNERS[config.experiment](p)
    for name, *values in zip(columns, *rows):
        if not all(isinstance(v, str) or math.isfinite(v) for v in values):
            raise FloatingPointError(f"{name}: a value is not finite")
    meta = {"schema": CONFIG_SCHEMA, "experiment": config.experiment,
            "params": {name: _plain(raw) for name, raw in
                       config.params.items()},
            "master_seed": seed,
            "code_version": __version__,
            "wall_clock_s": time.monotonic() - start}
    meta.update(*timings)
    return ResultTable(columns=columns, rows=rows, metadata=meta)


def _plain(value):
    """A parameter value as JSON writes it: a numpy number becomes the
    Python int or float of the same value, a tuple a list."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if is_integer(value):
        return int(value)
    return float(value) if is_real(value) else value


def _format_cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def emit(table, path, fmt):
    """Write a ResultTable as CSV (header + rows) or JSON (metadata + rows)."""
    if fmt == "csv":
        lines = [",".join(table.columns)]
        for row in table.rows:
            lines.append(",".join(_format_cell(v) for v in row))
        text = "\n".join(lines) + "\n"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return
    if fmt == "json":
        payload = {
            "metadata": table.metadata,
            "columns": table.columns,
            "rows": [dict(zip(table.columns, row)) for row in table.rows],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return
    raise ValueError(f"unknown format {fmt!r}")


def load_table(path):
    """Re-read a JSON table emitted by ``emit`` (bit-exact round trip)."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    columns = payload["columns"]
    rows = [[obj[c] for c in columns] for obj in payload["rows"]]
    return ResultTable(columns=columns, rows=rows, metadata=payload["metadata"])
