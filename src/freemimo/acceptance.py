"""Runnable acceptance suite: every release gate as an executable check.

Each criterion returns a ``CriterionResult`` whose checks carry the measured
value, the pinned tolerance, and a pass flag.  ``run_all`` executes the whole
suite; the ``verify`` experiment and tests/test_acceptance.py are thin
wrappers around it.  Every criterion C1-C9 is an entry of ``GATES``: it
lists its runs, and each of its checks is one row that reads its measured
value from the runs' results.  A run is an experiment, which a user can
repeat as a ``freemimo`` command (README, "Command line"), or a function of
the row's data, such as a named draw of one spectrum at its seed.  All Monte
Carlo runs use fixed seeds, so they reproduce bit for bit on the same
numpy/BLAS build and BLAS thread count.
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
from .errors import DomainError
from .quadrature import integrate_log_singular_upper


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


_MP = sp.SquareIidGram(1.0)
_SQUARE_IID = mc.EnsembleSpec("iid_complex_gaussian", 1024, 1024, 1.0)


def entropy_integral_check(p):
    """Quadrature self-test: integral_0^p log2((1-z)/(p-z)) dz equals H(p)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"requires p in (0, 1), got {p}")
    return integrate_log_singular_upper(
        lambda z: math.log2((1.0 - z) / (p - z)), 0.0, p)


def _square_iid_log_s(x):
    """L(x) of the square iid law by the quadrature its closed form skips."""
    return sp.SpectralFamily._log_s_integral(_MP, x)


def _receive_cut_spectrum(spec, seed, beta):
    """One draw's spectrum with a beta-fraction of its receive rows kept."""
    hp = mc.apply_projector(mc.sample_matrix(spec, seed),
                            mc.ProjectorSpec("receive", beta))
    return sp.EmpiricalSpectrum(
        np.maximum(np.linalg.eigvalsh(it._gram_smaller_side(hp)), 0.0))


def _bernoulli_inversion_gap(*_):
    """Bernoulli S in closed form against the numeric inversion of its Psi."""
    bern, worst = sp.BernoulliProjector(0.7), 0.0
    for z in np.arange(-0.65, -0.04, 0.05):
        numeric = (z + 1.0) / z * sp.invert_psi(bern.psi, z, bern.mean)
        worst = max(worst, abs(numeric - (z + 1.0) / (z + 0.7)))
    return worst


def _mi_slope_gap(cut, product, iid):
    """Finite-difference dI/dgamma against (1 - eta)/(gamma ln 2)."""
    worst = 0.0
    for gamma in (0.5, 1.0, 5.0, 10.0, 100.0):
        h_step = 3e-4 * gamma
        fd = (it.mutual_info_measure(iid, gamma + h_step)
              - it.mutual_info_measure(iid, gamma - h_step)) / (2 * h_step)
        ident = (1.0 - iid.eta(gamma)) / (gamma * math.log(2))
        worst = max(worst, abs(fd - ident) / abs(ident))
    return worst


def _rate_route_gap(*_):
    """beta log2(gamma) + integral_0^beta log2 m_hat(t) dt, m_hat = 1/S(-t)
    by quadrature, against the S-integral route of the row-removed law."""
    worst = 0.0
    for beta in (0.25, 0.5, 0.75):
        scaled = sp.ProjectorScaled(_MP, beta)
        log_m_hat = -_square_iid_log_s(beta) / math.log(2.0)
        for gamma in (1.0, 100.0):
            worst = max(worst, abs(beta * math.log2(gamma) + log_m_hat
                                   - it.multiplexing_rate_s(scaled, gamma)))
    return worst


def _waterfilling_brute_gap(*_):
    """Two-mode water-filling capacity against a brute-force power grid."""
    worst = 0.0
    for lam, gamma in (((4.0, 1.0), 1.0), ((1.0, 0.1), 10.0),
                       ((2.0, 0.5), 0.3)):
        cap, _ = it.waterfilling_capacity(lam, gamma)
        grid = np.arange(0.0, 2.0 + 1e-12, 1e-4)
        brute = np.max(0.5 * (np.log2(1.0 + gamma * grid * lam[0])
                              + np.log2(1.0 + gamma * (2.0 - grid) * lam[1])))
        worst = max(worst, abs(cap - float(brute)))
    return worst


# Every criterion: criterion -> (title, runs, checks).  A run is a
# (source, params) pair: an experiment, exactly as the README's C1-C5
# command lines give it, or a function called with the params, such as a
# named draw at its seed.  A check is (name, measure, tolerance, strict),
# recorded by ``CriterionResult.check``; ``measure`` takes the criterion's
# run results in order and returns the measured value.
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
# C6: the log-mean is -L(1)/ln 2 and the deviation (beta L(1) - L(beta))/ln 2
# of the square iid law by quadrature; both read L(1), its one run.
# C7: the draws are a 1024 x 1024 iid draw with half its receive rows kept
# (seed 701), a two-factor product (702) and an iid draw (703).
# C9: a tall 128 x 64 draw keeps the smallest eigenvalue away from zero.
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
    "C6": ("quadrature vs closed forms",
           [(_square_iid_log_s, dict(x=1.0))],
           [("entropy integral vs H(p)", lambda _: max(
               abs(entropy_integral_check(p) - sp.binary_entropy(p))
               for p in np.arange(0.1, 0.95, 0.1)), 1e-8, False),
            ("log-mean of square iid law vs -log2(e)", lambda l_one: abs(
                -l_one / math.log(2.0) + math.log2(math.e)), 1e-6, False),
            ("deviation integral vs closed form", lambda l_one: max(
                abs((b * l_one - _square_iid_log_s(b)) / math.log(2.0)
                    - asy.deviation_iid(b))
                for b in np.arange(0.1, 0.95, 0.1)), 1e-9, False)]),
    "C7": ("S/eta transform identities",
           [(_receive_cut_spectrum, dict(spec=_SQUARE_IID, seed=701,
                                         beta=0.5)),
            (mc.empirical_spectrum, dict(spec=mc.EnsembleSpec(
                "product_iid", 1024, 1024, 1.0, factors=2), seed=702)),
            (mc.empirical_spectrum, dict(spec=_SQUARE_IID, seed=703))],
           [("Bernoulli S closed form vs numeric inversion",
             _bernoulli_inversion_gap, 1e-12, False),
            ("projector scaling vs sampled spectrum", lambda cut, *_: max(
                abs(cut.s_transform(z) - _MP.s_transform(0.5 * z))
                for z in (-0.6, -0.4, -0.2)), 0.05, False),
            ("free product S rule vs sampled spectrum", lambda _, prod, __:
             max(abs(prod.s_transform(z)
                     - sp.FreeProduct(_MP, _MP).s_transform(z))
                 for z in (-0.5, -0.25)), 0.05, False),
            ("eta inverse round trip", lambda *_: max([0.0] + [
                abs(fam.eta(fam.eta_inverse(t)) - t)
                for fam in (_MP, sp.BernoulliProjector(0.5),
                            sp.FreeProduct(_MP, _MP))
                for t in np.arange(0.1, 0.95, 0.1)
                if 1.0 - fam.alpha < t < 1.0]), 1e-9, False),
            ("dI/dgamma vs (1 - eta)/(gamma ln 2), relative", _mi_slope_gap,
             1e-6, False)]),
    "C8": ("multiplexing-rate route agreement", [],
           [("harmonic vs S-integral multiplexing rate", _rate_route_gap,
             1e-6, False)]),
    "C9": ("water-filling optimality and high-SNR limit",
           [(mc.empirical_spectrum, dict(spec=mc.EnsembleSpec(
               "iid_complex_gaussian", 128, 64, 1.0), seed=901))],
           [("2-mode capacity vs brute-force grid", _waterfilling_brute_gap,
             1e-6, False),
            ("allocation uniformity at gamma=1e6", lambda spec: float(
                np.max(np.abs(it.waterfilling_capacity(
                    spec.eigenvalues, 1e6)[1] - 1.0))), 1e-3, False)]),
}


def _gate(cid):
    """Run a gate's runs once each and apply its checks, timed."""
    start = time.monotonic()
    title, runs, checks = GATES[cid]
    results = [source(**params) if callable(source)
               else ex.run_experiment(ex.ExperimentConfig(source, params))
               for source, params in runs]
    res = CriterionResult(cid, title)
    for name, measure, tolerance, strict in checks:
        res.check(name, measure(*results), tolerance, strict)
    res.seconds = time.monotonic() - start
    return res


# The benchmark's analytic jobs call these by name.  They go when its
# criterion job calls ``run_all(only={cid})`` (ROADMAP item 1).
criterion_6 = functools.partial(_gate, "C6")
criterion_8 = functools.partial(_gate, "C8")
criterion_9 = functools.partial(_gate, "C9")


def run_all(only=None):
    """Run all (or the named) criteria, returning CriterionResults."""
    return [_gate(cid) for cid in GATES if only is None or cid in only]
