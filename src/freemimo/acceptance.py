"""Runnable acceptance suite: every release gate as an executable check.

Each criterion returns a ``CriterionResult`` whose checks carry the measured
value, the pinned tolerance, and a pass flag.  ``run_all`` executes the whole
suite; the ``verify`` experiment and tests/test_acceptance.py are thin
wrappers around it.  The Monte Carlo criteria C1-C5 are entries of
``GATES``: each lists its experiment runs, ``freemimo`` commands a user can
repeat (README, "Command line"), and each of its checks is one row that
reads its measured value from the runs' result tables.  The analytic
criteria C6-C9 are functions.  All Monte Carlo checks use fixed seeds, so
they reproduce bit for bit on the same numpy/BLAS build and BLAS thread
count.
"""

import functools
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

    def check(self, name, measured, tolerance, strict=False):
        """Record a check: measured <= tolerance passes (< if strict)."""
        passed = measured < tolerance if strict else measured <= tolerance
        self.checks.append(CheckResult(name, float(measured),
                                       float(tolerance), bool(passed)))

    def summary(self):
        parts = [f"{'PASS' if c.passed else 'FAIL'} {c.name}: "
                 f"measured={c.measured:.6g} tol={c.tolerance:.6g}"
                 for c in self.checks]
        return "; ".join(parts)


def _largest_drop(table):
    """The largest fall of a monotonicity table's loss_bits from one SNR to
    the next beyond three standard errors of the two, or 0.0."""
    m, s = table.column("loss_bits"), table.column("stderr_bits")
    return max([0.0] + [m[i - 1] - m[i] - 3.0 * (s[i] + s[i - 1])
                        for i in range(1, len(m))])


# The Monte Carlo criteria: criterion -> (title, runs, checks).  A run is an
# (experiment, params) pair, exactly as the README's C1-C5 command lines give
# it.  A check is (name, measure, tolerance, strict), recorded by
# ``CriterionResult.check``; ``measure`` takes the criterion's run tables in
# order and returns the measured value.
#
# C1: entry variance 4 (sigma2 = 16 with the sigma2/R convention) keeps the
# 30 dB run inside the asymptotic band; real-valued spectra approach the
# high-SNR limit only like gamma^(-1/2), as their eigenvalue density diverges
# at the origin.
# C2: the exact discrepancies at gamma = 1e4 (Wishart means plus the shared
# finite-SNR remainder) are 3.86e-4 at N=64 and 2.90e-4 at N=512, a gap near
# the estimator noise, so the seed is pinned; tests/test_montecarlo.py checks
# the convergence against the exact Wishart oracle at any seed.
# C4: the product draws with seed 404, its two single factors with 405, 406.
GATES = {
    "C1": ("4x2 ergodic loss at 30 dB (complex 3.4, real 4.3)",
           [("loss-convergence", dict(n_list=[4], phi=0.5, beta=0.5,
                                      sigma2=16.0, gamma_db=30.0,
                                      trials=100_000, master_seed=101)),
            ("loss-convergence", dict(n_list=[4], phi=0.5, beta=0.5,
                                      sigma2=16.0, gamma_db=30.0,
                                      trials=100_000, master_seed=102,
                                      ensemble="iid_real_gaussian"))],
           [("complex total loss vs 3.4", lambda cplx, real: abs(
               2.0 * cplx.column("loss_mc_bits")[0] - 3.4), 0.1, False),
            ("real total loss vs 4.3", lambda cplx, real: abs(
                2.0 * real.column("loss_mc_bits")[0] - 4.3), 0.15, False),
            ("closed form reports 4.0 total", lambda *_: abs(
                2.0 * asy.binary_entropy_loss(0.5, 0.5) - 4.0), 1e-12,
             False)]),
    "C2": ("loss convergence: phi=0.5 beta=0.75 gamma=1e4",
           [("loss-convergence", dict(n_list=[64], phi=0.5, beta=0.75,
                                      gamma_db=40.0, trials=150_000,
                                      master_seed=203)),
            ("loss-convergence", dict(n_list=[512], phi=0.5, beta=0.75,
                                      gamma_db=40.0, trials=3_000,
                                      master_seed=203))],
           [("|loss(512) - 0.622556|", lambda t64, t512:
             t512.column("discrepancy_bits")[0], 0.05, False),
            ("discrepancy(512) < discrepancy(64)", lambda t64, t512:
             t512.column("discrepancy_bits")[0]
             - t64.column("discrepancy_bits")[0], 0.0, True)]),
    "C3": ("deviation: iid N=512 -> 0.5, Haar N=256 -> 0",
           [("deviation-sweep", dict(n=512, beta_list=[0.5], gamma_db=60.0,
                                     trials=200, master_seed=303)),
            ("deviation-sweep", dict(ensemble="haar_unitary", n=256,
                                     beta_list=[0.5], gamma_db=60.0,
                                     trials=50, master_seed=304))],
           [("|dev(iid, N=512) - 0.5|", lambda iid, haar: abs(
               iid.column("dev_mc_bits")[0] - 0.5), 0.05, False),
            ("|dev(Haar, N=256)|", lambda iid, haar: abs(
                haar.column("dev_mc_bits")[0]), 0.02, False)]),
    "C4": ("product m=2 deviation: 1.0 and additivity",
           [("product-additivity", dict(n=512, m=2, beta=0.5, gamma_db=60.0,
                                        trials=200, master_seed=404))],
           [("|dev(product) - 1.0|", lambda prod:
             prod.column("discrepancy_bits")[0], 0.1, False),
            ("|dev(product) - (dev1 + dev2)|", lambda prod: abs(
                prod.column("dev_product_bits")[0]
                - prod.column("dev_factor_sum_bits")[0]), 0.05, False)]),
    "C5": ("loss monotone in SNR, bounded by closed form",
           [("monotonicity", dict(sigma2=16.0, master_seed=505))],
           [("largest monotonicity violation beyond 3*stderr",
             _largest_drop, 0.0, False),
            ("terminal loss <= closed form + 3*stderr", lambda mono:
             mono.column("loss_bits")[-1]
             - (asy.binary_entropy_loss(0.5, 0.5)
                + 3.0 * mono.column("stderr_bits")[-1]), 0.0, False)]),
}


def _gate(cid):
    """Run a gate's experiments once each and apply its checks."""
    title, runs, checks = GATES[cid]
    tables = [ex.run_experiment(ex.ExperimentConfig(experiment, params))
              for experiment, params in runs]
    res = CriterionResult(cid, title)
    for name, measure, tolerance, strict in checks:
        res.check(name, measure(*tables), tolerance, strict)
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
    l_one = sp.SpectralFamily._log_s_integral(fam, 1.0)
    res.check("log-mean of square iid law vs -log2(e)",
              abs(-l_one / math.log(2.0) + math.log2(math.e)), 1e-6)
    worst = max(abs((b * l_one - sp.SpectralFamily._log_s_integral(fam, b))
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
    w = np.maximum(np.linalg.eigvalsh(it._gram_smaller_side(hp)), 0.0)
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
        log_m_hat = -sp.SpectralFamily._log_s_integral(fam, beta) / math.log(2.0)
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


CRITERIA = {**{cid: functools.partial(_gate, cid) for cid in GATES},
            "C6": criterion_6, "C7": criterion_7, "C8": criterion_8,
            "C9": criterion_9}


def run_all(only=None):
    """Run all (or the named) criteria, returning CriterionResults."""
    results = []
    for cid, fn in CRITERIA.items():
        if only is not None and cid not in only:
            continue
        start = time.monotonic()
        res = fn()
        res.seconds = time.monotonic() - start
        results.append(res)
    return results
