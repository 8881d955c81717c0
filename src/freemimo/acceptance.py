"""Runnable acceptance suite: every release gate as an executable check.

Each criterion returns a ``CriterionResult`` whose checks carry the measured
value, the pinned tolerance, and a pass flag.  ``run_all`` executes the whole
suite; the ``verify`` experiment and tests/test_acceptance.py are thin
wrappers around it.  The Monte Carlo criteria C1-C5 run experiments through
``run_experiment`` and read their numbers from the result tables, so every
such gate is a ``freemimo`` command a user can repeat (README, "Command
line"), and a seed offset for it is a shift of each config's
``master_seed``.  All Monte Carlo checks use fixed seeds, so they reproduce
bit for bit on the same numpy/BLAS build and BLAS thread count.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import asymptotics as asy
from . import experiments as ex
from . import infotheory as it
from . import montecarlo as mc
from . import spectra as sp


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float
    passed: bool


@dataclass
class CriterionResult:
    id: str
    title: str
    checks: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def check(self, name, measured, tolerance, passed=None):
        if passed is None:
            passed = bool(measured <= tolerance)
        self.checks.append(CheckResult(name, float(measured),
                                       float(tolerance), bool(passed)))

    def summary(self):
        parts = [f"{'PASS' if c.passed else 'FAIL'} {c.name}: "
                 f"measured={c.measured:.6g} tol={c.tolerance:.6g}"
                 for c in self.checks]
        return "; ".join(parts)


def _run(experiment, **params):
    """The ResultTable of one experiment run, as ``freemimo <experiment>``
    with these parameters writes it."""
    return ex.run_experiment(ex.ExperimentConfig(experiment, params))


def criterion_1():
    """Figure-style 4x2 loss at 30 dB: Monte Carlo vs the closed form.

    Entry variance 4 (sigma2 = 16 with the sigma2/R convention) keeps the
    30 dB run inside the asymptotic band; real-valued spectra approach the
    high-SNR limit only like gamma^(-1/2) because their eigenvalue density
    diverges at the origin.
    """
    res = CriterionResult("C1", "4x2 ergodic loss at 30 dB (complex 3.4, real 4.3)")
    for name, ensemble, seed, total, tol in (
            ("complex total loss vs 3.4", "iid_complex_gaussian", 101, 3.4, 0.1),
            ("real total loss vs 4.3", "iid_real_gaussian", 102, 4.3, 0.15)):
        loss = _run("loss-convergence", n_list=[4], phi=0.5, beta=0.5,
                    sigma2=16.0, gamma_db=30.0, trials=100_000,
                    ensemble=ensemble, master_seed=seed).column("loss_mc_bits")
        res.check(name, abs(2.0 * loss[0] - total), tol)
    formula_total = 2.0 * asy.binary_entropy_loss(0.5, 0.5)
    res.check("closed form reports 4.0 total", abs(formula_total - 4.0), 1e-12)
    return res


def criterion_2():
    """Receive-side loss converges to the closed form as N grows.

    The N-comparison is statistically tight: at gamma = 1e4 the exact
    finite-size discrepancies (Wishart means plus the shared finite-SNR
    remainder) are 3.86e-4 at N=64 and 2.90e-4 at N=512, a gap of only
    ~1e-4, comparable to the estimator noise at runtime-feasible trial
    counts.  The seed below is pinned so the comparison reproduces
    bit-identically; tests/test_montecarlo.py validates the same
    convergence seed-independently against the exact Wishart oracle.
    """
    res = CriterionResult("C2", "loss convergence: phi=0.5 beta=0.75 gamma=1e4")
    d64, d512 = (_run("loss-convergence", n_list=[n], phi=0.5, beta=0.75,
                      gamma_db=40.0, trials=trials, master_seed=203
                      ).column("discrepancy_bits")[0]
                 for n, trials in ((64, 150_000), (512, 3_000)))
    res.check("|loss(512) - 0.622556|", d512, 0.05)
    res.check("discrepancy(512) < discrepancy(64)", d512 - d64, 0.0,
              passed=d512 < d64)
    return res


def criterion_3():
    """Deviation from linear growth: square iid 0.5; unitary exactly 0."""
    res = CriterionResult("C3", "deviation: iid N=512 -> 0.5, Haar N=256 -> 0")
    dev = _run("deviation-sweep", n=512, beta_list=[0.5], gamma_db=60.0,
               trials=200, master_seed=303).column("dev_mc_bits")
    res.check("|dev(iid, N=512) - 0.5|", abs(dev[0] - 0.5), 0.05)
    dev = _run("deviation-sweep", ensemble="haar_unitary", n=256,
               beta_list=[0.5], gamma_db=60.0, trials=50,
               master_seed=304).column("dev_mc_bits")
    res.check("|dev(Haar, N=256)|", abs(dev[0]), 0.02)
    return res


def criterion_4():
    """Additivity of the deviation for a two-factor product channel: the
    product draws with seed 404, its two single factors with 405 and 406."""
    res = CriterionResult("C4", "product m=2 deviation: 1.0 and additivity")
    table = _run("product-additivity", n=512, m=2, beta=0.5, gamma_db=60.0,
                 trials=200, master_seed=404)
    res.check("|dev(product) - 1.0|", table.column("discrepancy_bits")[0], 0.1)
    res.check("|dev(product) - (dev1 + dev2)|",
              abs(table.column("dev_product_bits")[0]
                  - table.column("dev_factor_sum_bits")[0]), 0.05)
    return res


def criterion_5():
    """Ergodic loss grows with SNR and is capped by the closed form: the
    monotonicity experiment (4x2, beta = 0.5, 0:5:40 dB, 20,000 trials)."""
    res = CriterionResult("C5", "loss monotone in SNR, bounded by closed form")
    table = _run("monotonicity", sigma2=16.0, master_seed=505)
    means, ses = table.column("loss_bits"), table.column("stderr_bits")
    worst = max([0.0] + [means[i - 1] - means[i] - 3.0 * (ses[i] + ses[i - 1])
                         for i in range(1, len(means))])
    res.check("largest monotonicity violation beyond 3*stderr", worst, 0.0,
              passed=worst <= 0.0)
    bound = asy.binary_entropy_loss(0.5, 0.5) + 3.0 * ses[-1]
    res.check("terminal loss <= closed form + 3*stderr",
              means[-1] - bound, 0.0, passed=means[-1] <= bound)
    return res


def criterion_6():
    """Quadrature kernels reproduce the closed-form integrals.

    The ln S integrals take the quadrature route of ``SpectralFamily``,
    which the built-in families' closed forms otherwise bypass: the log-mean
    is -L(1)/ln 2 and the deviation (beta L(1) - L(beta))/ln 2.
    """
    res = CriterionResult("C6", "quadrature vs closed forms")
    worst = max(abs(sp.entropy_integral_check(p) - sp.binary_entropy(p))
                for p in np.arange(0.1, 0.95, 0.1))
    res.check("entropy integral vs H(p)", worst, 1e-8)
    fam = sp.SquareIidGram(1.0)
    l_one = sp.SpectralFamily.log_s_integral(fam, 1.0)
    res.check("log-mean of square iid law vs -log2(e)",
              abs(-l_one / math.log(2.0) + math.log2(math.e)), 1e-6)
    worst = max(abs((b * l_one - sp.SpectralFamily.log_s_integral(fam, b))
                    / math.log(2.0) - asy.deviation_iid(b))
                for b in np.arange(0.1, 0.95, 0.1))
    res.check("deviation integral vs closed form", worst, 1e-9)
    return res


def criterion_7():
    """Transform identities, against both closed forms and sampled spectra."""
    res = CriterionResult("C7", "S/eta transform identities")
    # Bernoulli projector S-transform, via the generic numeric inversion.
    bern = sp.BernoulliProjector(0.7)
    worst = 0.0
    for z in np.arange(-0.65, -0.04, 0.05):
        numeric = (z + 1.0) / z * sp.invert_psi(bern.psi, z, bern.mean)
        worst = max(worst, abs(numeric - (z + 1.0) / (z + 0.7)))
    res.check("Bernoulli S closed form vs numeric inversion", worst, 1e-12)

    # Row-removal scaling of a sampled iid Gram: restricted spectrum has
    # S(z) = S_inner(beta z).
    spec = mc.EnsembleSpec("iid_complex_gaussian", 1024, 1024, 1.0)
    h = mc.sample_matrix(spec, 701)
    hp = mc.apply_projector(h, mc.ProjectorSpec("receive", 0.5))
    w = np.maximum(np.linalg.eigvalsh(hp @ hp.conj().T), 0.0)
    restricted = sp.EmpiricalSpectrum(w)
    inner = sp.SquareIidGram(1.0)
    worst = max(abs(sp.s_transform(restricted, z)
                    - inner.s_transform(0.5 * z))
                for z in (-0.6, -0.4, -0.2))
    res.check("projector scaling vs sampled spectrum", worst, 0.05)

    # Free product rule on a sampled two-factor product.
    spec2 = mc.EnsembleSpec("product_iid", 1024, 1024, 1.0, factors=2)
    emp = mc.empirical_spectrum(spec2, 702)
    prod = sp.FreeProduct(inner, inner)
    worst = max(abs(sp.s_transform(emp, z) - prod.s_transform(z))
                for z in (-0.5, -0.25))
    res.check("free product S rule vs sampled spectrum", worst, 0.05)

    # eta-inverse round trips.
    worst = 0.0
    for fam in (sp.SquareIidGram(1.0), sp.BernoulliProjector(0.5),
                sp.FreeProduct(inner, inner)):
        lo = 1.0 - fam.alpha
        for t in np.arange(0.1, 0.95, 0.1):
            if not lo < t < 1.0:
                continue
            worst = max(worst, abs(sp.eta_transform(fam, sp.eta_inverse(fam, t)) - t))
    res.check("eta inverse round trip", worst, 1e-9)

    # dI/dgamma identity on a sampled spectrum: finite difference of the
    # mutual information vs (1 - eta)/(gamma ln 2).
    emp_iid = mc.empirical_spectrum(
        mc.EnsembleSpec("iid_complex_gaussian", 1024, 1024, 1.0), 703)
    worst = 0.0
    for gamma in (0.5, 1.0, 5.0, 10.0, 100.0):
        h_step = 3e-4 * gamma
        fd = (it.mutual_info_measure(emp_iid, gamma + h_step)
              - it.mutual_info_measure(emp_iid, gamma - h_step)) / (2 * h_step)
        ident = (1.0 - sp.eta_transform(emp_iid, gamma)) / (gamma * math.log(2))
        worst = max(worst, abs(fd - ident) / abs(ident))
    res.check("dI/dgamma vs (1 - eta)/(gamma ln 2), relative", worst, 1e-6)
    return res


def criterion_8():
    """Harmonic-mean route equals the S-integral route for row removal.

    The harmonic route, beta log2(gamma) + integral_0^beta log2 m_hat(t) dt
    with m_hat = 1/S(-t), integrates by the quadrature of ``SpectralFamily``;
    the S-integral route is ``multiplexing_rate_s`` of the row-removed law.
    """
    res = CriterionResult("C8", "multiplexing-rate route agreement")
    fam = sp.SquareIidGram(1.0)
    worst = 0.0
    for beta in (0.25, 0.5, 0.75):
        scaled = sp.ProjectorScaled(fam, beta)
        log_m_hat = -sp.SpectralFamily.log_s_integral(fam, beta) / math.log(2.0)
        for gamma in (1.0, 100.0):
            harmonic = beta * math.log2(gamma) + log_m_hat
            s_route = it.multiplexing_rate_s(scaled, gamma)
            worst = max(worst, abs(harmonic - s_route))
    res.check("harmonic vs S-integral multiplexing rate", worst, 1e-6)
    return res


def criterion_9():
    """Water-filling against brute force; uniform allocation at high SNR."""
    res = CriterionResult("C9", "water-filling optimality and high-SNR limit")
    worst = 0.0
    for lam, gamma in (((4.0, 1.0), 1.0), ((1.0, 0.1), 10.0),
                       ((2.0, 0.5), 0.3)):
        cap, _ = it.waterfilling_capacity(lam, gamma)
        grid = np.arange(0.0, 2.0 + 1e-12, 1e-4)
        brute = np.max(0.5 * (np.log2(1.0 + gamma * grid * lam[0])
                              + np.log2(1.0 + gamma * (2.0 - grid) * lam[1])))
        worst = max(worst, abs(cap - float(brute)))
    res.check("2-mode capacity vs brute-force grid", worst, 1e-6)

    # Well-conditioned 64-mode spectrum: a tall 128x64 draw keeps the
    # smallest eigenvalue away from zero.
    spec = mc.empirical_spectrum(
        mc.EnsembleSpec("iid_complex_gaussian", 128, 64, 1.0), 901)
    _, q = it.waterfilling_capacity(spec.eigenvalues, 1e6)
    res.check("allocation uniformity at gamma=1e6",
              float(np.max(np.abs(q - 1.0))), 1e-3)
    return res


CRITERIA = (
    ("C1", criterion_1),
    ("C2", criterion_2),
    ("C3", criterion_3),
    ("C4", criterion_4),
    ("C5", criterion_5),
    ("C6", criterion_6),
    ("C7", criterion_7),
    ("C8", criterion_8),
    ("C9", criterion_9),
)


def run_all(only=None):
    """Run all (or the named) criteria, returning CriterionResults."""
    results = []
    for cid, fn in CRITERIA:
        if only is not None and cid not in only:
            continue
        start = time.monotonic()
        res = fn()
        res.seconds = time.monotonic() - start
        results.append(res)
    return results
