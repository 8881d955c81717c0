"""Named experiments binding closed-form asymptotics to Monte Carlo estimates.

Each experiment consumes a validated ``ExperimentConfig`` and produces a
``ResultTable`` whose rows are plain JSON scalars; ``emit`` writes CSV or
JSON.  Identical (config, seed) re-runs reproduce output files byte for byte,
except for the wall-clock metadata fields (JSON only: ``wall_clock_s``, and
``criterion_seconds`` for ``verify``), which are excluded from the
determinism guarantee.
"""

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .asymptotics import (
    binary_entropy_loss,
    deviation_from_linear,
    deviation_product_iid,
)
from .errors import ConvergenceError, DomainError
from .infotheory import harmonic_mean_measure
from .montecarlo import (
    ENSEMBLE_KINDS,
    EnsembleSpec,
    ProjectorSpec,
    ergodic_deviation,
    kept_count,
    limiting_family,
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

EXPERIMENTS = (
    "loss-curve",
    "loss-convergence",
    "deviation-sweep",
    "product-additivity",
    "monotonicity",
    "transforms",
    "verify",
)

# Experiments that take a grid of SNRs; the others take one.
GRID_EXPERIMENTS = ("loss-curve", "monotonicity")

FAMILY_NAMES = ("square_iid", "dirac", "bernoulli", "projector_scaled",
                "product_iid")


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment run."""

    experiment: str
    params: dict = field(default_factory=dict)
    out: str | None = None
    fmt: str = "csv"

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
                   fmt=output.get("format", "csv"))

    def validate(self):
        """Return a list of messages, one per offending field; empty if valid.

        Never raises: a value of the wrong type is reported like one out of
        range.  Numeric fields take JSON numbers, not strings.
        """
        errors = []
        if self.experiment not in EXPERIMENTS:
            errors.append(f"experiment: unknown name {self.experiment!r}")
            return errors
        if self.fmt not in ("csv", "json"):
            errors.append(f"format: must be csv or json, got {self.fmt!r}")
        if self.out is not None and not isinstance(self.out, str):
            errors.append(f"output.path: must be a string, got {self.out!r}")
        p = self.params

        def numbers(name, listed=False, integer=False):
            """The field's values as a list of numbers, or None (with a
            message unless the field is absent)."""
            if name not in p:
                return None
            raw = p[name]
            if isinstance(raw, (list, tuple)) and not listed:
                errors.append(f"{name}: takes one value, got {raw!r}")
                return None
            vals = list(raw) if isinstance(raw, (list, tuple)) else [raw]
            kind = "an integer" if integer else "a number"
            if not vals or not all(_is_number(v, integer) for v in vals):
                errors.append(f"{name}: not {kind}"
                              f"{' or a list of them' if listed else ''}: {raw!r}")
                return None
            return vals

        for name in ("trials", "n", "rows", "cols", "m", "points", "sigma2",
                     "at"):
            vals = numbers(name, integer=name not in ("sigma2", "at"))
            if vals is None:
                continue
            if vals[0] <= 0:
                errors.append(f"{name}: must be positive, got {p[name]}")
            elif name == "trials" and vals[0] < 2:
                errors.append(f"trials: must be >= 2, got {p[name]}")
        seed = numbers("master_seed", integer=True)
        if seed is not None and not 0 <= seed[0] < 2 ** 64:
            errors.append(f"master_seed: must be in [0, 2^64), got {seed[0]}")
        for name, listed in (("phi", False), ("beta", False),
                             ("beta_list", True)):
            vals = numbers(name, listed)
            if vals is not None and not all(0.0 < v <= 1.0 for v in vals):
                errors.append(f"{name}: must be in (0, 1], got {p[name]}")
        grid = numbers("gamma_db", listed=self.experiment in GRID_EXPERIMENTS)
        if grid is not None and any(a >= b for a, b in zip(grid, grid[1:])):
            errors.append("gamma_db: grid must be strictly increasing")
        n_list = numbers("n_list", listed=True, integer=True)
        if n_list is not None and not all(n >= 2 for n in n_list):
            errors.append(f"n_list: entries must be >= 2, got {p['n_list']}")
        if "ensemble" in p and p["ensemble"] not in ENSEMBLE_KINDS:
            errors.append(f"ensemble: unknown kind {p['ensemble']!r}")
        if "family" in p and p["family"] not in FAMILY_NAMES:
            errors.append(f"family: unknown name {p['family']!r}")
        return errors or self._cross_field_errors()

    def _cross_field_errors(self):
        """Messages for fields that are valid alone but not together."""
        p = self.params
        kind = p.get("ensemble", "iid_complex_gaussian")
        square = kind in ("haar_unitary", "product_iid")
        if self.experiment in ("loss-curve", "monotonicity"):
            rows, cols = _receive_shape(p)
            if square and rows != cols:
                return [f"rows, cols: {kind} needs a square channel, got "
                        f"rows={rows}, cols={cols}"]
        if self.experiment == "loss-convergence":
            phi, beta = float(p.get("phi", 0.5)), float(p.get("beta", 0.75))
            errors = []
            if beta < phi:
                errors.append(f"beta: must be >= phi = {phi} for "
                              f"loss-convergence, got {beta}")
            if square and any(n != t for n, t in _convergence_shapes(p)):
                errors.append(f"phi: {kind} needs a square channel, so phi "
                              f"must be 1, got {phi}")
            return errors
        return []


def _is_number(value, integer=False):
    """A finite JSON number (not a bool or a string); with ``integer``, one
    with an integral value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        x = float(value)
    except OverflowError:
        return False
    return math.isfinite(x) and (not integer or x.is_integer())


@dataclass
class ResultTable:
    """Column-named rows plus a metadata block echoing the run inputs."""

    columns: list
    rows: list
    metadata: dict

    def column(self, name):
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


def _metadata(config, seed):
    return {
        "schema": CONFIG_SCHEMA,
        "experiment": config.experiment,
        "params": dict(config.params),
        "master_seed": seed,
        "code_version": __version__,
        "wall_clock_s": None,  # filled by run_experiment
    }


def db_to_linear(db):
    return 10.0 ** (db / 10.0)


@contextmanager
def _row_context(experiment, **fields):
    """Attach the experiment row being computed to numeric failures."""
    try:
        yield
    except ConvergenceError as exc:
        where = ", ".join(f"{k}={v}" for k, v in fields.items())
        raise ConvergenceError(f"{experiment} row ({where}): {exc}") from exc


def _grid(params, key, default):
    raw = params.get(key, default)
    if isinstance(raw, (int, float)):
        return [float(raw)]
    return [float(v) for v in raw]


def _ensemble(params, rows, cols, default_sigma2):
    kind = params.get("ensemble", "iid_complex_gaussian")
    sigma2 = float(params.get("sigma2", default_sigma2))
    m = int(params.get("m", 1))
    if kind == "product_iid":
        return EnsembleSpec(kind, rows, cols, sigma2, factors=m)
    return EnsembleSpec(kind, rows, cols, sigma2)


def _mean_se(a, axis=-1):
    return (np.mean(a, axis=axis),
            np.std(a, axis=axis, ddof=1) / math.sqrt(a.shape[axis]))


def _receive_shape(params):
    """(rows, cols) of the loss-curve and monotonicity channel."""
    return int(params.get("rows", 4)), int(params.get("cols", 2))


def _convergence_shapes(params):
    """(n, round-half-up phi n) of each loss-convergence channel."""
    phi = float(params.get("phi", 0.5))
    return [(int(n), kept_count(phi, int(n)))
            for n in _grid(params, "n_list", [64, 128, 256, 512])]


def _run_loss_curve(params, seed):
    rows, cols = _receive_shape(params)
    beta = float(params.get("beta", 0.5))
    trials = int(params.get("trials", 20000))
    gammas_db = _grid(params, "gamma_db", list(np.arange(0.0, 41.0, 2.0)))
    spec = _ensemble(params, rows, cols, default_sigma2=float(rows))
    gammas = [db_to_linear(g) for g in gammas_db]
    s = trial_stats(spec, ProjectorSpec("receive", beta), gammas, trials, seed)
    loss = (s.mi_ref - s.mi_proj) * cols  # total bits, all transmit antennas
    table_rows = []
    for i, gdb in enumerate(gammas_db):
        lm, ls = _mean_se(loss[i])
        table_rows.append([
            float(gdb),
            float(np.mean(s.mi_ref[i])), float(np.mean(s.mr_ref[i])),
            float(np.mean(s.mi_proj[i])), float(np.mean(s.mr_proj[i])),
            float(lm), float(ls),
        ])
    return ["gamma_db", "mi_ref_bits", "mr_ref_bits", "mi_proj_bits",
            "mr_proj_bits", "loss_total_bits", "stderr_bits"], table_rows


def _run_loss_convergence(params, seed):
    phi = float(params.get("phi", 0.5))
    beta = float(params.get("beta", 0.75))
    gamma = db_to_linear(float(params.get("gamma_db", 40.0)))
    trials = int(params.get("trials", 200))
    asym = binary_entropy_loss(phi, beta)
    table_rows = []
    proj = ProjectorSpec("receive", beta)
    for n, cols in _convergence_shapes(params):
        spec = _ensemble(params, n, cols, default_sigma2=1.0)
        with _row_context("loss-convergence", n=n):
            s = trial_stats(spec, proj, [gamma], trials, seed, ("mi",))
        mean, se = _mean_se(s.mi_ref[0] - s.mi_proj[0])
        table_rows.append([n, float(mean), float(se), asym,
                           abs(float(mean) - asym)])
    return ["n", "loss_mc_bits", "stderr_bits", "loss_asymptotic_bits",
            "discrepancy_bits"], table_rows


def _run_deviation_sweep(params, seed):
    n = int(params.get("n", 512))
    betas = _grid(params, "beta_list", [0.25, 0.5, 0.75])
    gamma = db_to_linear(float(params.get("gamma_db", 60.0)))
    trials = int(params.get("trials", 200))
    spec = _ensemble(params, n, n, default_sigma2=1.0)
    family = limiting_family(spec)
    table_rows = []
    for b in betas:
        with _row_context("deviation-sweep", beta=b):
            est = ergodic_deviation(spec, b, gamma, trials, seed)
            asym = deviation_from_linear(family, b)
        table_rows.append([b, est.mean, est.stderr, asym,
                           abs(est.mean - asym)])
    return ["beta", "dev_mc_bits", "stderr_bits", "dev_asymptotic_bits",
            "discrepancy_bits"], table_rows


def _run_product_additivity(params, seed):
    n = int(params.get("n", 512))
    m = int(params.get("m", 2))
    beta = float(params.get("beta", 0.5))
    gamma = db_to_linear(float(params.get("gamma_db", 60.0)))
    trials = int(params.get("trials", 200))
    sigma2 = float(params.get("sigma2", 1.0))
    prod = EnsembleSpec("product_iid", n, n, sigma2, factors=m)
    est_prod = ergodic_deviation(prod, beta, gamma, trials, seed)
    single = EnsembleSpec("iid_complex_gaussian", n, n, sigma2)
    factor_sum = 0.0
    factor_var = 0.0
    for k in range(m):
        est_k = ergodic_deviation(single, beta, gamma, trials, seed + 1 + k)
        factor_sum += est_k.mean
        factor_var += est_k.stderr ** 2
    closed = deviation_product_iid(m, beta)
    row = [m, beta, est_prod.mean, est_prod.stderr, factor_sum,
           math.sqrt(factor_var), closed, abs(est_prod.mean - closed)]
    return ["m", "beta", "dev_product_bits", "stderr_product_bits",
            "dev_factor_sum_bits", "stderr_factor_sum_bits",
            "dev_closed_form_bits", "discrepancy_bits"], [row]


def _run_monotonicity(params, seed):
    rows, cols = _receive_shape(params)
    beta = float(params.get("beta", 0.5))
    trials = int(params.get("trials", 20000))
    gammas_db = _grid(params, "gamma_db", list(np.arange(0.0, 41.0, 5.0)))
    spec = _ensemble(params, rows, cols, default_sigma2=float(rows))
    gammas = [db_to_linear(g) for g in gammas_db]
    s = trial_stats(spec, ProjectorSpec("receive", beta), gammas, trials, seed,
                    ("mi",))
    loss = s.mi_ref - s.mi_proj  # per transmit antenna
    table_rows = []
    prev_mean = None
    prev_se = 0.0
    for i, gdb in enumerate(gammas_db):
        mean, se = _mean_se(loss[i])
        if prev_mean is None:
            ok = 1
        else:
            ok = 1 if mean >= prev_mean - 3.0 * (se + prev_se) else 0
        table_rows.append([float(gdb), float(mean), float(se), ok])
        prev_mean, prev_se = mean, se
    return ["gamma_db", "loss_bits", "stderr_bits", "nondecreasing"], table_rows


def _named_family(params):
    name = params.get("family", "square_iid")
    sigma2 = float(params.get("sigma2", 1.0))
    if name == "square_iid":
        return SquareIidGram(sigma2)
    if name == "dirac":
        return Dirac(float(params.get("at", 1.0)))
    if name == "bernoulli":
        return BernoulliProjector(float(params.get("beta", 0.5)))
    if name == "projector_scaled":
        return ProjectorScaled(SquareIidGram(sigma2),
                               float(params.get("beta", 0.5)))
    if name == "product_iid":
        return FreeProduct(*[SquareIidGram(sigma2)] * int(params.get("m", 2)))
    raise DomainError(f"unknown family {name!r}")


def _run_transforms(params, seed):
    family = _named_family(params)
    points = int(params.get("points", 25))
    alpha = family.alpha
    table_rows = []
    for i in range(1, points + 1):
        z = alpha * i / (points + 1)
        gamma_db = -10.0 + 50.0 * (i - 1) / max(points - 1, 1)
        gamma = db_to_linear(gamma_db)
        table_rows.append([
            float(z),
            psi_transform(family, -z),
            s_transform(family, -z),
            harmonic_mean_measure(family, z),
            float(gamma_db),
            eta_transform(family, gamma),
        ])
    return ["z", "psi_at_minus_z", "s_at_minus_z", "m_hat", "gamma_db",
            "eta"], table_rows


def _run_verify(params, seed):
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
    """Execute a validated config and return its ResultTable."""
    errors = config.validate()
    if errors:
        raise ValueError("invalid config: " + "; ".join(errors))
    seed = int(config.params.get("master_seed", 20260808))
    start = time.monotonic()
    # A runner may also return a dict of wall-clock metadata, which like
    # wall_clock_s is outside the determinism guarantee.
    columns, rows, *timings = _RUNNERS[config.experiment](config.params, seed)
    meta = _metadata(config, seed)
    meta.update(*timings)
    meta["wall_clock_s"] = time.monotonic() - start
    return ResultTable(columns=columns, rows=rows, metadata=meta)


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
