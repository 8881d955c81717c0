"""The benchmark's three workloads: fixed job lists with correctness checks.

A job is one user-visible call: a public freemimo function or one
``freemimo`` command run through ``cli.main``.  Each job returns its output
as bytes (the CSV a command writes, or the returned numbers as JSON), so
reruns can be compared byte for byte, and each job carries a check against
an exact oracle (see ``oracles``).  Monte Carlo checks are stated in
standard errors; deterministic ones in absolute error.

``accuracy(out)`` is (se / target)^2 for a Monte Carlo job, the factor by
which its trial count would have to grow to reach the target standard
error; it is None for a job whose answer is exact after one call.

Every master seed derives from the workload seed.  Calls go through module
attributes (``mc.ergodic_loss``, not a from-import) so that the traced run's
wrappers see them.
"""

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import freemimo.acceptance as acc
import freemimo.asymptotics as asy
import freemimo.cli as cli
import freemimo.infotheory as it
import freemimo.montecarlo as mc
import freemimo.spectra as sp

import oracles

WORKLOADS = ("loss-grid", "deviation-large", "analytic")

# Monte Carlo tolerance, in standard errors.  Per-trial values here are
# close to Gaussian, so a correct estimator fails it about once in 10^6.
Z_TOL = 5.0

# Target standard errors for time-to-accuracy, per transmit antenna, each a
# fifth of the acceptance tolerance its job's shape mirrors: C1 allows 0.1
# (complex) and 0.15 (real) bits of total 4x2 loss; C2 must resolve a 1e-4
# bit gap between N=64 and N=512; at N=512 the iid deviation sits 7e-4 bits
# below its limit, which a 1e-4 target resolves at 7 standard errors.
TARGET_LOSS_COMPLEX = 0.01
TARGET_LOSS_REAL = 0.015
TARGET_LOSS_CONVERGENCE = 2e-5
TARGET_DEVIATION = 1e-4

# High enough SNR that the finite-SNR remainder (at most ~1e-4 bits, for
# real 4x2 draws) is far below a standard error, so the exact high-SNR
# Wishart means apply.
HIGH_SNR_DB = 80


class JobFailed(Exception):
    """A job ran but reported failure (non-zero exit code)."""


@dataclass(frozen=True)
class Check:
    name: str
    measured: float
    tolerance: float
    passed: bool


@dataclass
class Job:
    id: str
    run: Callable[[], bytes]
    check: Callable[[bytes], list]
    accuracy: Optional[Callable[[bytes], float]] = None


@dataclass
class Workload:
    name: str
    jobs: list
    warmup: Job


def near(name, value, ref, tol):
    diff = abs(value - ref)
    return Check(name, diff, tol, bool(diff <= tol))


def agrees(name, ok):
    return Check(name, float(not ok), 0.0, bool(ok))


def within_se(name, value, ref, se):
    """|value - ref| in units of the standard error se; passes at Z_TOL."""
    z = abs(value - ref) / se if se > 0.0 else math.inf
    return Check(name + " [stderr units]", z, Z_TOL, bool(z <= Z_TOL))


def _seed(seed, j):
    # Spaced by 10 so product-additivity's internal seed+1, seed+2 never
    # reach the next job's stream.
    return seed * 1000 + 10 * j


def _value(x):
    return json.dumps(x).encode()


def _rows(out):
    return [{k: float(v) for k, v in row.items()}
            for row in csv.DictReader(io.StringIO(out.decode()))]


def _cli_run(argv, path):
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--out", path])
        if code != 0:
            raise JobFailed(f"freemimo {' '.join(argv)} exited with {code}")
        with open(path, "rb") as fh:
            return fh.read()
    return run


# ---------------------------------------------------------------------------
# loss-grid: many small trials (C1, C2 at N=64, C5 shapes)
# ---------------------------------------------------------------------------

def _ergodic_loss_job(kind, trials, seed, target):
    real = kind == "iid_real_gaussian"
    spec = mc.EnsembleSpec(kind, 4, 2, 16.0)
    proj = mc.ProjectorSpec("receive", 0.5)
    exact = oracles.paired_loss(4, 2, 2, real)

    def run():
        est = mc.ergodic_loss(spec, proj, 10.0 ** (HIGH_SNR_DB / 10), trials,
                              seed)
        return _value([est.mean, est.stderr, est.trials])

    def check(out):
        mean, se, n = json.loads(out)
        return [within_se("loss vs Wishart mean", mean, exact, se),
                near("trials", n, trials, 0)]

    return Job(f"ergodic_loss.{'real' if real else 'complex'}4x2", run, check,
               lambda out: (json.loads(out)[1] / target) ** 2)


def _grid_argv(experiment, trials, seed):
    return [experiment, "--rows", "4", "--cols", "2", "--beta", "0.5",
            "--sigma2", "16", "--gamma-db", f"0:10:{HIGH_SNR_DB}",
            "--trials", str(trials), "--seed", str(seed)]


def _loss_curve_job(trials, seed, path):
    exact = oracles.paired_loss(4, 2, 2)
    grid = [float(g) for g in range(0, HIGH_SNR_DB + 1, 10)]

    def check(out):
        rows = _rows(out)
        last = rows[-1]
        paired = max(abs(r["loss_total_bits"]
                         - 2.0 * (r["mi_ref_bits"] - r["mi_proj_bits"]))
                     for r in rows)
        return [agrees("gamma grid", [r["gamma_db"] for r in rows] == grid),
                near("loss = 2 (mi_ref - mi_proj)", paired, 0.0, 1e-9),
                within_se("80 dB loss vs Wishart mean",
                          last["loss_total_bits"] / 2.0, exact,
                          last["stderr_bits"] / 2.0)]

    return Job("cli.loss-curve4x2",
               _cli_run(_grid_argv("loss-curve", trials, seed), path), check,
               lambda out: max((r["stderr_bits"] / 2.0 / TARGET_LOSS_COMPLEX)
                               ** 2 for r in _rows(out)))


def _monotonicity_job(trials, seed, path):
    exact = oracles.paired_loss(4, 2, 2)

    def check(out):
        rows = _rows(out)
        bad = sum(r["nondecreasing"] != 1.0 for r in rows)
        return [near("rows flagged non-monotone", bad, 0, 0),
                within_se("80 dB loss vs Wishart mean", rows[-1]["loss_bits"],
                          exact, rows[-1]["stderr_bits"])]

    return Job("cli.monotonicity4x2",
               _cli_run(_grid_argv("monotonicity", trials, seed), path), check,
               lambda out: max((r["stderr_bits"] / TARGET_LOSS_COMPLEX) ** 2
                               for r in _rows(out)))


def _loss_convergence_job(n, trials, seed, path):
    kept = oracles.kept_count(0.75, n)
    exact = oracles.paired_loss(n, n // 2, kept)
    asym = oracles.binary_entropy_loss(0.5, 0.75)
    argv = ["loss-convergence", "--n", str(n), "--phi", "0.5",
            "--beta", "0.75", "--gamma-db", str(HIGH_SNR_DB), "--trials", str(trials),
            "--seed", str(seed)]

    def check(out):
        (row,) = _rows(out)
        return [near("n", row["n"], n, 0),
                within_se("loss vs Wishart mean", row["loss_mc_bits"], exact,
                          row["stderr_bits"]),
                near("closed form", row["loss_asymptotic_bits"], asym, 1e-12),
                near("discrepancy column", row["discrepancy_bits"],
                     abs(row["loss_mc_bits"] - asym), 1e-12)]

    return Job(f"cli.loss-convergence{n}x{n // 2}", _cli_run(argv, path),
               check, lambda out: (_rows(out)[0]["stderr_bits"]
                            / TARGET_LOSS_CONVERGENCE) ** 2)


def loss_grid(seed, reduced, out_dir):
    # Trial counts make the first four jobs cost about the same (~0.3 s on
    # a 2-core x86-64 VM) and loss-convergence four times more, so call_p50_ms falls inside
    # the group of four and call_p90_ms on loss-convergence.
    complex_trials, real_trials, grid_trials, conv_n, conv_trials = (
        (300, 400, 1000, 16, 300) if reduced
        else (3000, 4000, 10000, 64, 3000))
    warmup = _ergodic_loss_job("iid_complex_gaussian", 200, _seed(seed, 0),
                               TARGET_LOSS_COMPLEX)
    jobs = [
        _ergodic_loss_job("iid_complex_gaussian", complex_trials,
                          _seed(seed, 0), TARGET_LOSS_COMPLEX),
        _ergodic_loss_job("iid_real_gaussian", real_trials, _seed(seed, 1),
                          TARGET_LOSS_REAL),
        _loss_curve_job(grid_trials, _seed(seed, 2), f"{out_dir}/curve.csv"),
        _monotonicity_job(grid_trials, _seed(seed, 3), f"{out_dir}/mono.csv"),
        _loss_convergence_job(conv_n, conv_trials, _seed(seed, 4),
                              f"{out_dir}/conv.csv"),
    ]
    return Workload("loss-grid", jobs, warmup)


# ---------------------------------------------------------------------------
# deviation-large: few large trials (C3, C4 shapes)
# ---------------------------------------------------------------------------

# The jobs run 3 trials, whose sample standard error is itself uncertain by
# about +-50%.  Checks and time-to-accuracy therefore use the exact standard
# error of the same estimator, from the Wishart variance.

def _deviation_sweep_job(n, beta, trials, seed, path):
    mean, var = oracles.deviation_moments(n, oracles.kept_count(beta, n))
    argv = ["deviation-sweep", "--n", str(n), "--beta", str(beta),
            "--gamma-db", "60", "--trials", str(trials), "--seed", str(seed)]

    def check(out):
        (row,) = _rows(out)
        return [near("beta", row["beta"], beta, 0.0),
                within_se("deviation vs Wishart mean", row["dev_mc_bits"],
                          mean, math.sqrt(var / trials)),
                near("closed form", row["dev_asymptotic_bits"],
                     oracles.deviation_iid(beta), 1e-9),
                agrees("stderr finite and positive",
                       0.0 < row["stderr_bits"] < math.inf)]

    return Job(f"cli.deviation-sweep{n}.b{beta}", _cli_run(argv, path), check,
               lambda out: var / trials / TARGET_DEVIATION ** 2)


def _product_additivity_job(n, trials, seed, path):
    mean1, var1 = oracles.deviation_moments(n, oracles.kept_count(0.5, n))
    se = math.sqrt(2.0 * var1 / trials)
    argv = ["product-additivity", "--n", str(n), "--m", "2", "--beta", "0.5",
            "--gamma-db", "60", "--trials", str(trials), "--seed", str(seed)]

    def check(out):
        (row,) = _rows(out)
        return [within_se("product vs Wishart mean", row["dev_product_bits"],
                          2.0 * mean1, se),
                within_se("factor sum vs Wishart mean",
                          row["dev_factor_sum_bits"], 2.0 * mean1, se),
                near("closed form", row["dev_closed_form_bits"],
                     2.0 * oracles.deviation_iid(0.5), 1e-12)]

    return Job(f"cli.product-additivity{n}", _cli_run(argv, path), check,
               lambda out: (se / TARGET_DEVIATION) ** 2)


def _haar_deviation_job(n, trials, seed, path):
    argv = ["deviation-sweep", "--ensemble", "haar_unitary", "--n", str(n),
            "--beta", "0.5", "--gamma-db", "60", "--trials", str(trials),
            "--seed", str(seed)]

    def check(out):
        (row,) = _rows(out)
        return [near("Haar deviation is 0", row["dev_mc_bits"], 0.0, 1e-9),
                near("Haar stderr is 0", row["stderr_bits"], 0.0, 1e-9),
                near("closed form", row["dev_asymptotic_bits"], 0.0, 1e-12)]

    return Job(f"cli.deviation-sweep-haar{n}", _cli_run(argv, path), check)


def deviation_large(seed, reduced, out_dir):
    n, n_haar = (64, 32) if reduced else (512, 256)
    haar = _haar_deviation_job(n_haar, 8, _seed(seed, 4),
                               f"{out_dir}/haar.csv")
    jobs = [_deviation_sweep_job(n, beta, 3, _seed(seed, j),
                                 f"{out_dir}/sweep{j}.csv")
            for j, beta in enumerate((0.25, 0.5, 0.75))]
    jobs += [_product_additivity_job(n, 3, _seed(seed, 3),
                                     f"{out_dir}/prod.csv"), haar]
    return Workload("deviation-large", jobs, haar)


# ---------------------------------------------------------------------------
# analytic: quadrature and root finding, no Monte Carlo in the loop
# ---------------------------------------------------------------------------

def _value_job(job_id, fn, name, ref, tol):
    return Job(job_id, lambda: _value(fn()),
               lambda out: [near(name, json.loads(out), ref, tol)])


def _transforms_job(family, path, eta, s_minus):
    argv = ["transforms", "--family", family, "--m", "2", "--beta", "0.5",
            "--points", "25"]

    def check(out):
        worst = 0.0
        for r in _rows(out):
            z = r["z"]
            refs = ((r["psi_at_minus_z"], eta(z) - 1.0),
                    (r["s_at_minus_z"], s_minus(z)),
                    (r["m_hat"], 1.0 / s_minus(z)),
                    (r["eta"], eta(10.0 ** (r["gamma_db"] / 10.0))))
            worst = max(worst, max(abs(v - ref) / max(1.0, abs(ref))
                                   for v, ref in refs))
        return [near("transform columns vs closed forms (relative)", worst,
                     0.0, 1e-9)]

    return Job(f"cli.transforms.{family}", _cli_run(argv, path), check)


def _criterion_job(name):
    def run():
        res = getattr(acc, name)()
        return json.dumps([[c.name, c.measured, c.tolerance, c.passed]
                           for c in res.checks]).encode()

    def check(out):
        return [Check(name, measured, tol, passed)
                for name, measured, tol, passed in json.loads(out)]

    return Job(f"acceptance.{name}", run, check)


def _empirical_jobs(emp):
    lam = emp.eigenvalues
    direct = float(np.mean(np.log2(lam[lam > emp.zero_tolerance])))
    n = lam.size
    jobs = [_value_job(f"spectra.log_mean.empirical{n}",
                       lambda: sp.log_mean(emp),
                       "S-integral vs direct mean of log2", direct, 1e-8)]

    def s_job(z):
        def check(out):
            x = z * json.loads(out) / (z + 1.0)
            psi = float(np.mean(x * lam / (1.0 - x * lam)))
            return [near("Psi(Psi^-1(z)) = z", psi, z, 1e-10)]
        return Job(f"spectra.s_transform.empirical{n}.z{z}",
                   lambda: _value(sp.s_transform(emp, z)), check)

    def eta_job(t):
        def check(out):
            eta = float(np.mean(1.0 / (1.0 + json.loads(out) * lam)))
            return [near("eta(eta^-1(t)) = t", eta, t, 1e-10)]
        return Job(f"spectra.eta_inverse.empirical{n}.t{t}",
                   lambda: _value(sp.eta_inverse(emp, t)), check)

    jobs += [s_job(z) for z in (-0.75, -0.5, -0.25)]
    jobs += [eta_job(t) for t in (0.25, 0.5, 0.75)]
    return jobs


def analytic(seed, reduced, out_dir):
    # From 10 dB up, each family's MI calls cost within about 25% of each
    # other, so call_p50_ms / call_p90_ms fall inside one group of calls.
    grid_db = (10, 35, 65) if reduced else range(10, 66, 5)
    n_emp = 64 if reduced else 512
    sq = sp.SquareIidGram(1.0)
    product = sp.FreeProduct(sq, sq)
    scaled = sp.ProjectorScaled(sq, 0.5)
    product3 = sp.FreeProduct(sq, sq, sq)
    # A tall 2:1 channel keeps its Gram spectrum away from 0, so the
    # quadrature inside log_mean does the same work for every seed; a square
    # channel's smallest eigenvalues move its node count by +-40%.
    emp = mc.empirical_spectrum(
        mc.EnsembleSpec("iid_complex_gaussian", 2 * n_emp, n_emp, 1.0),
        _seed(seed, 0))

    jobs = []
    for db in grid_db:
        g = 10.0 ** (db / 10.0)
        jobs.append(_value_job(
            f"infotheory.mutual_info_measure.free_product.{db}dB",
            lambda g=g: it.mutual_info_measure(product, g),
            "MI vs closed form", oracles.mi_free_product(g, 2), 1e-9))
        jobs.append(_value_job(
            f"infotheory.mutual_info_measure.projector_scaled.{db}dB",
            lambda g=g: it.mutual_info_measure(scaled, g),
            "MI vs closed form", oracles.mi_projector_scaled(g, 0.5), 1e-9))
    for b in (0.25, 0.5, 0.75):
        jobs.append(_value_job(
            f"asymptotics.deviation_from_linear.free_product3.b{b}",
            lambda b=b: asy.deviation_from_linear(product3, b),
            "3 x iid deviation", 3.0 * oracles.deviation_iid(b), 1e-9))
        rate = oracles.multiplexing_rate_rows(b, 100.0)
        jobs.append(_value_job(
            f"infotheory.multiplexing_rate_s.b{b}",
            lambda b=b: it.multiplexing_rate_s(sp.ProjectorScaled(sq, b),
                                               100.0),
            "rate vs closed form", rate, 1e-8))
        jobs.append(_value_job(
            f"infotheory.multiplexing_rate_harmonic.b{b}",
            lambda b=b: it.multiplexing_rate_harmonic(sq, b, 100.0),
            "rate vs closed form", rate, 1e-8))
    jobs.append(_transforms_job(
        "product_iid", f"{out_dir}/tr_product.csv",
        lambda g: oracles.eta_free_product(g, 2),
        lambda z: 1.0 / (1.0 - z) ** 2))
    jobs.append(_transforms_job(
        "projector_scaled", f"{out_dir}/tr_scaled.csv",
        lambda g: oracles.eta_projector_scaled(g, 0.5),
        lambda z: 1.0 / (0.5 - z)))
    jobs += _empirical_jobs(emp)
    jobs += [_criterion_job(name)
             for name in ("criterion_6", "criterion_8", "criterion_9")]
    return Workload("analytic", jobs, jobs[0])


BUILDERS = {"loss-grid": loss_grid, "deviation-large": deviation_large,
            "analytic": analytic}


def build(name, seed, reduced, out_dir):
    """The workload's inputs and job list; nothing is timed here."""
    return BUILDERS[name](seed, reduced, out_dir)
