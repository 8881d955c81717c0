import math
import tracemalloc
import warnings

import numpy as np
import pytest

from freemimo import asymptotics as asy
from freemimo import infotheory as it
from freemimo import montecarlo as mc
from freemimo import spectra as sp
from freemimo.errors import DomainError
from freemimo.quadrature import integrate

LOG2E = math.log2(math.e)
MP = sp.SquareIidGram(1.0)


# ---------------------------------------------------------------------------
# mutual information on measures
# ---------------------------------------------------------------------------

def test_mutual_info_measure_examples():
    assert abs(it.mutual_info_measure(sp.Dirac(1.0), 3.0) - 2.0) < 1e-9
    zeros = sp.EmpiricalSpectrum(np.zeros(4))
    assert it.mutual_info_measure(zeros, 123.0) == 0.0
    with pytest.raises(DomainError):
        it.mutual_info_measure(MP, 0.0)


def test_mutual_info_measure_matches_logdet():
    h = mc.sample_matrix(mc.EnsembleSpec("iid_complex_gaussian", 2, 2, 1.0), 4)
    w = np.maximum(np.linalg.eigvalsh(h.conj().T @ h), 0.0)
    spec = sp.EmpiricalSpectrum(w)
    direct = it.mutual_info_finite(h, 10.0)
    assert abs(it.mutual_info_measure(spec, 10.0) - direct) < 1e-12


def test_family_mutual_info_matches_large_sample():
    spec = mc.empirical_spectrum(
        mc.EnsembleSpec("iid_complex_gaussian", 2048, 2048, 1.0), 8)
    for gamma in (0.5, 5.0, 100.0):
        assert abs(it.mutual_info_measure(MP, gamma)
                   - it.mutual_info_measure(spec, gamma)) < 0.02


def test_family_mutual_info_small_gamma_limit():
    fam = sp.Dirac(2.0)
    assert abs(it.mutual_info_measure(fam, 1e-16) - 2e-16 * LOG2E) < 1e-18


def _v_integral_mi(family, gamma):
    """I(gamma) ln 2 = integral of -Psi(-e^v) dv up to ln(gamma), one Psi
    root solve per Kronrod node: the slow path, kept as an oracle.  The
    integrand decays like mean * e^v to the left, so truncating at
    e^v = eps/mean discards just under eps."""
    mean = family.mean
    eps = 1e-13
    v_hi = math.log(gamma)
    v_lo = math.log(eps / mean)
    if v_lo >= v_hi:
        return gamma * mean / math.log(2.0)

    def g(v):
        return -family.psi(-math.exp(v))

    return (integrate(g, v_lo, v_hi, abs_tol=1e-11, rel_tol=1e-11,
                      initial_splits=4) + eps) / math.log(2.0)


def _mi_square_iid(gamma):
    """Closed-form MI of the unit square iid law, from its
    eta = (1 + r)/(1 + 2 gamma + r), r = sqrt(1 + 4 gamma)."""
    r = math.sqrt(1.0 + 4.0 * gamma)
    eta = (1.0 + r) / (1.0 + 2.0 * gamma + r)
    return (-2.0 * math.log(eta) - (1.0 - eta)) / math.log(2.0)


MI_FAMILIES = [
    sp.Dirac(2.0),
    sp.BernoulliProjector(0.6),
    MP,
    sp.ProjectorScaled(MP, 0.25),
    sp.ProjectorScaled(MP, 0.5),
    sp.FreeProduct(MP, MP),
    sp.FreeProduct(MP, sp.SquareIidGram(2.0), sp.SquareIidGram(0.5)),
    sp.ProjectorScaled(MP, 0.5).restricted(),
]
# 1e-16 to 1e12, plus 65 dB.
MI_GRID = [10.0 ** e for e in range(-16, 13, 2)] + [10.0 ** 6.5]
CLOSED_FORM_MI = {
    "Dirac": lambda g: math.log1p(2.0 * g) / math.log(2.0),
    "BernoulliProjector": lambda g: 0.6 * math.log1p(g) / math.log(2.0),
    "SquareIidGram": _mi_square_iid,
}


@pytest.mark.parametrize("family", MI_FAMILIES,
                         ids=lambda f: type(f).__name__)
def test_family_mutual_info_matches_v_integral(family):
    new_err, old_err = [], []
    exact = CLOSED_FORM_MI.get(type(family).__name__)
    for gamma in MI_GRID:
        new = it.mutual_info_measure(family, gamma)
        old = _v_integral_mi(family, gamma)
        assert abs(new - old) <= 1e-12, gamma
        if exact is not None:
            new_err.append(abs(new - exact(gamma)))
            old_err.append(abs(old - exact(gamma)))
    if exact is not None:
        assert max(new_err) <= max(old_err)


@pytest.mark.parametrize("gamma", [1e12, 1e20])  # at 1e20 Dirac's Psi is -1
def test_family_mutual_info_closed_forms_at_high_snr(gamma):
    cases = ((sp.Dirac(1.0), math.log2(1.0 + gamma)),
             (sp.Dirac(3.0), math.log2(1.0 + 3.0 * gamma)),
             (MP, _mi_square_iid(gamma)),
             (sp.SquareIidGram(2.0), _mi_square_iid(2.0 * gamma)))
    for family, exact in cases:
        mi = it.mutual_info_measure(family, gamma)
        assert abs(mi - exact) <= 1e-12 * exact


def _mi_free_product(m, gamma):
    """I(gamma) of m free square iid factors, [-(m+1) ln eta - m(1-eta)]/ln 2,
    where eta solves gamma eta^(m+1) = 1 - eta (a contraction at high SNR)."""
    eta = 0.0
    for _ in range(50):
        eta = ((1.0 - eta) / gamma) ** (1.0 / (m + 1))
    return (-(m + 1) * math.log(eta) - m * (1.0 - eta)) / math.log(2.0)


@pytest.mark.parametrize("gamma", [1e16, 1e18, 1e30])
def test_free_product_mutual_info_past_jensen_start(gamma):
    # Jensen's start lies past t = 36.7 here, where y rounds to -alpha.
    for m in (2, 3):
        mi = it.mutual_info_measure(sp.FreeProduct(*[MP] * m), gamma)
        assert abs(mi - _mi_free_product(m, gamma)) <= 1e-12 * mi


@pytest.mark.parametrize("family", [
    sp.ProjectorScaled(MP, 0.5),
    sp.ProjectorScaled(MP, 0.5).restricted(),
    sp.ProjectorScaled(MP, 0.0546875).restricted(),
    sp.FreeProduct(sp.Dirac(1.0), sp.BernoulliProjector(0.75).restricted()),
    sp.BernoulliProjector(0.43),
], ids=["ProjectorScaled", "Restricted", "Restricted-inexact-alpha",
        "FreeProduct-Restricted", "BernoulliProjector"])
def test_family_mutual_info_past_last_double_of_psi(family):
    # Past gamma of about 1.8e16, alpha + Psi(-gamma) is below one ulp of
    # alpha: Psi settles on the double of (-alpha, 0) nearest -alpha, and
    # the mutual information, stationary in Psi, is the multiplexing rate.
    # A Restricted law whose alpha times y rounds (0.0546875, 0.75) keeps
    # its S accurate there, and beta z / (1 - z) may not round past -beta.
    previous = it.mutual_info_measure(family, 1e15)
    for gamma in (1e16, 1e20, 1e300):
        mi = it.mutual_info_measure(family, gamma)
        i0 = it.multiplexing_rate_s(family, gamma)
        assert math.isfinite(mi) and mi >= previous
        assert abs(mi - i0) <= 1e-15 * i0
        previous = mi


class _CountingFactor(sp.SpectralFamily):
    """Wraps a family and counts its S-transform evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.s_evals = 0

    @property
    def alpha(self):
        return self.inner.alpha

    def s_transform(self, z):
        self.s_evals += 1
        return self.inner.s_transform(z)


@pytest.mark.parametrize("make", [
    lambda f: sp.FreeProduct(f, MP),
    lambda f: sp.ProjectorScaled(f, 0.5),
], ids=["FreeProduct", "ProjectorScaled"])
def test_family_mutual_info_one_psi_solve(make, monkeypatch):
    solves = []
    log_root = sp._log_root

    def counting_log_root(*args):
        solves.append(args)
        return log_root(*args)

    monkeypatch.setattr(sp, "_log_root", counting_log_root)
    for gamma in MI_GRID:
        factor = _CountingFactor(MP)
        solves.clear()
        it.mutual_info_measure(make(factor), gamma)
        assert len(solves) == 1, gamma
        assert factor.s_evals <= 250, gamma


def test_subclass_overriding_s_transform_composes_through_it():
    # A factor written against the public s_transform alone is a free
    # product's factor through that method: the same bits and the same 131
    # evaluations as when every layer called s_transform.
    factor = _CountingFactor(MP)
    mi = it.mutual_info_measure(sp.FreeProduct(factor, MP), 100.0)
    assert mi.hex() == "0x1.2a14065bea732p+2"
    assert factor.s_evals == 131


BUILT_IN = (sp.Dirac, sp.BernoulliProjector, sp.SquareIidGram,
            sp.ProjectorScaled, sp.FreeProduct, sp.Restricted)


def _count_s_evals(monkeypatch, classes):
    """Count S-transform evaluations of the given family classes: calls of
    their kernel ``_s``, which the library calls in place of the checked
    ``s_transform``."""
    counts = []
    for cls in classes:
        def counting(self, z, kernel=cls._s):
            counts.append(cls)
            return kernel(self, z)
        monkeypatch.setattr(cls, "_s", counting)
    return counts


def test_built_in_families_integrate_ln_s_without_s(monkeypatch):
    counts = _count_s_evals(monkeypatch, BUILT_IN)
    for family in (MP, sp.Dirac(2.0), sp.FreeProduct(MP, MP, MP),
                   sp.FreeProduct(MP, sp.Dirac(3.0))):
        for beta in (0.25, 0.5, 0.75):
            asy.deviation_from_linear(family, beta)
    assert counts == []
    sp.ProjectorScaled(sp.FreeProduct(MP, MP), 0.5).log_mean()
    assert counts == []


@pytest.mark.parametrize("family, most", [
    (sp.FreeProduct(MP, MP), 30),
    (sp.ProjectorScaled(MP, 0.5), 15),
], ids=["FreeProduct", "ProjectorScaled"])
def test_family_mutual_info_s_evaluations(family, most, monkeypatch):
    # The Psi solve and the mean evaluate S; the ln S integral does not.
    counts = _count_s_evals(monkeypatch, [sp.SquareIidGram])
    it.mutual_info_measure(family, 100.0)
    assert 0 < len(counts) <= most


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_decompose_examples():
    spec = sp.EmpiricalSpectrum(np.array([1.0, 1.0]))
    d = it.decompose(spec, 1.0)
    assert (d.multiplexing_rate, d.delta, d.mutual_info) == (0.0, 1.0, 1.0)

    spec = sp.EmpiricalSpectrum(np.array([0.0, 4.0]))
    d = it.decompose(spec, 4.0)
    assert abs(d.multiplexing_rate - 2.0) < 1e-14
    assert abs(d.delta - 0.5 * math.log2(17.0 / 16.0)) < 1e-14
    assert abs(d.mutual_info - d.multiplexing_rate - d.delta) < 1e-12


def test_decompose_delta_vanishes_at_high_snr():
    spec = sp.EmpiricalSpectrum(np.array([0.5, 1.0, 2.0]))
    deltas = [it.decompose(spec, g).delta for g in (1.0, 1e2, 1e4, 1e8)]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))
    assert deltas[-1] < 1e-7


@pytest.mark.parametrize("family", [sp.Dirac(2.0), MP,
                                    sp.ProjectorScaled(MP, 0.5),
                                    sp.FreeProduct(MP, MP)],
                         ids=lambda f: type(f).__name__)
def test_decompose_family(family):
    deltas = []
    for gamma in (1.0, 1e2, 1e4, 1e8, 1e12):
        d = it.decompose(family, gamma)
        assert d.multiplexing_rate == it.multiplexing_rate_s(family, gamma)
        assert abs(d.multiplexing_rate + d.delta
                   - it.mutual_info_measure(family, gamma)) < 1e-12
        deltas.append(d.delta)
    assert all(a > b for a, b in zip(deltas, deltas[1:]))
    assert deltas[-1] < 1e-3 * deltas[0]


def test_decompose_dirac_delta():
    for gamma in (1e-3, 1.0, 10.0, 1e4, 1e8, 1e12):
        d = it.decompose(sp.Dirac(2.0), gamma)
        assert abs(d.delta - math.log2(1.0 + 1.0 / (2.0 * gamma))) < 1e-12


def test_decompose_identity_random_spectra():
    rng = np.random.default_rng(0)
    for _ in range(5):
        spec = sp.EmpiricalSpectrum(rng.uniform(0.01, 9.0, size=16))
        gamma = float(rng.uniform(0.1, 100.0))
        d = it.decompose(spec, gamma)
        assert abs(d.mutual_info
                   - it.mutual_info_measure(spec, gamma)) < 1e-12


def test_rate_of_a_draw_solves_no_psi(monkeypatch):
    # I0 = alpha (log2 gamma + log_mean) needs no S-transform of the draw.
    spec = mc.empirical_spectrum(
        mc.EnsembleSpec("iid_complex_gaussian", 64, 96, 1.0), 24)
    calls = []
    psi = sp.EmpiricalSpectrum._psi

    def counting_psi(self, z):
        calls.append(z)
        return psi(self, z)

    monkeypatch.setattr(sp.EmpiricalSpectrum, "_psi", counting_psi)
    for gamma in (1e-3, 1.0, 1e6, 1e300):
        it.multiplexing_rate_s(spec, gamma)
        it.decompose(spec, gamma)
    assert spec.alpha == 64 / 96
    assert calls == []


# ---------------------------------------------------------------------------
# finite-matrix operations
# ---------------------------------------------------------------------------

def test_mutual_info_finite_examples():
    assert abs(it.mutual_info_finite(np.eye(2), 3.0) - 2.0) < 1e-14
    assert it.mutual_info_finite(np.zeros((3, 2)), 5.0) == 0.0
    with pytest.raises(ValueError):
        it.mutual_info_finite(np.array([[np.inf, 1.0]]), 1.0)


def test_mutual_info_finite_matches_eigenvalues():
    h = mc.sample_matrix(mc.EnsembleSpec("iid_complex_gaussian", 8, 4, 1.0), 17)
    w = np.maximum(np.linalg.eigvalsh(h.conj().T @ h), 0.0)
    expected = float(np.mean(np.log2(1.0 + 100.0 * w)))
    assert abs(it.mutual_info_finite(h, 100.0) - expected) < 1e-9


def test_mutual_info_finite_orientation():
    # wide matrix: the R x R Gram orientation must give the same value
    h = mc.sample_matrix(mc.EnsembleSpec("iid_complex_gaussian", 3, 7, 1.0), 18)
    w = np.maximum(np.linalg.eigvalsh(h.conj().T @ h), 0.0)
    expected = float(np.mean(np.log2(1.0 + 9.0 * w)))
    assert abs(it.mutual_info_finite(h, 9.0) - expected) < 1e-12


def test_unitary_invariance():
    spec = mc.EnsembleSpec("iid_complex_gaussian", 6, 4, 1.0)
    h = mc.sample_matrix(spec, 19)
    u = mc.sample_matrix(mc.EnsembleSpec("haar_unitary", 6, 6), 20)
    v = mc.sample_matrix(mc.EnsembleSpec("haar_unitary", 4, 4), 21)
    assert abs(it.mutual_info_finite(h, 7.0)
               - it.mutual_info_finite(u @ h @ v, 7.0)) < 1e-9


def _complex_draw(seed, *shape):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _one_product_gram(h):
    r, t = h.shape[-2:]
    return (h @ h.conj().swapaxes(-1, -2) if r < t
            else h.conj().swapaxes(-1, -2) @ h)


def _c7_view():
    """C7's draw cut to its leading 512 of 1024 rows: a wide view."""
    h = mc.sample_matrix(mc.EnsembleSpec("iid_complex_gaussian", 1024, 1024),
                         701)
    return mc.apply_projector(h, mc.ProjectorSpec("receive", 0.5))


# Tall, wide and stacked draws over GRAM_BLOCK_BYTES; 257 and 513 are
# 1 (mod 64), so a one-wide last block would be left over.
BLOCKED_DRAWS = {
    "tall": lambda: _complex_draw(1, 1024, 512),
    "wide": lambda: _complex_draw(2, 512, 1024),
    "wide-257": lambda: _complex_draw(3, 257, 1031),
    "tall-257": lambda: _complex_draw(4, 1031, 257),
    "tall-513": lambda: _complex_draw(5, 1024, 513),
    "stack": lambda: _complex_draw(6, 3, 129, 400),
    "c7-view": _c7_view,
}


@pytest.mark.parametrize("name", sorted(BLOCKED_DRAWS))
def test_blocked_gram_keeps_the_bytes_of_one_product(name):
    # Bytes, not values: array_equal cannot tell -0.0 from +0.0.
    h = BLOCKED_DRAWS[name]()
    assert h.nbytes > it.GRAM_BLOCK_BYTES
    assert (it._gram_smaller_side(h).tobytes()
            == _one_product_gram(h).tobytes())


@pytest.mark.parametrize("shape", [(1024, 512), (512, 1024)])
def test_real_gram_is_one_copy_free_product(shape):
    h = np.random.default_rng(7).standard_normal(shape)
    assert h.nbytes > it.GRAM_BLOCK_BYTES
    want = h @ h.T if shape[0] < shape[1] else h.T @ h
    tracemalloc.start()
    try:
        got = it._gram_smaller_side(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak <= got.nbytes + 2 ** 20


def test_blocked_gram_holds_one_block_of_the_conjugate():
    h = _complex_draw(1, 1024, 512)
    tracemalloc.start()
    try:
        gram = it._gram_smaller_side(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One product held all 8 MiB of conj(h) beside the 4 MiB Gram.
    assert peak <= gram.nbytes + it.GRAM_BLOCK_BYTES + 2 ** 20


def test_multiplexing_rate_finite_examples():
    assert abs(it.multiplexing_rate_finite(np.eye(2), 4.0) - 2.0) < 1e-14
    # The rate of a finite H is the log-det rule: a singular H gives -inf,
    # by LU (square) or QR (tall), with no warning.  decompose of its
    # spectrum keeps the nonzero eigenvalues' split.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h in (np.diag([0.0, math.sqrt(2.0)]), np.zeros((3, 2))):
            assert it.multiplexing_rate_finite(h, 2.0) == -math.inf
    spectrum = sp.EmpiricalSpectrum(np.array([0.0, 2.0]))
    assert abs(it.decompose(spectrum, 2.0).multiplexing_rate - 1.0) < 1e-14
    # No rank threshold: 1e-12 counts, though below a max * dim * 2^-40
    # threshold (1.8e-12).
    h = np.diag([1e-6, 1.0])
    assert it.multiplexing_rate_finite(h, 1.0) == math.log2(1e-12) / 2.0


def test_multiplexing_rate_finite_does_not_square_kappa():
    # H = diag(1, 1e-6, 1e-9) B / 3 with B^T B = 9 I: every entry is one
    # exact product, so H's singular values are (1, 1e-6, 1e-9) to
    # rounding while its Gram mixes all three.  An eigvalsh of the Gram
    # (kappa^2 = 1e18) loses the two small ones; the LU log-det of H keeps
    # them, and so does the QR log-det of its tall orientation.
    b = np.array([[1.0, 2.0, 2.0], [2.0, 1.0, -2.0], [2.0, -2.0, 1.0]])
    h = np.array([[1.0], [1e-6], [1e-9]]) / 3.0 * b
    exact = 2.0 * (math.log2(1e-6) + math.log2(1e-9)) / 3.0
    sigma = np.linalg.svd(h, compute_uv=False)
    assert abs(np.sum(np.log2(sigma ** 2)) / 3.0 - exact) < 1e-9
    assert abs(it.multiplexing_rate_finite(h, 1.0) - exact) < 1e-9
    tall = np.vstack([h, np.zeros((1, 3))])
    assert abs(it.multiplexing_rate_finite(tall, 1.0) - exact) < 1e-9


def test_multiplexing_rate_two_code_paths_agree():
    rng = np.random.default_rng(1)
    for _ in range(5):
        h = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        gamma = float(rng.uniform(0.5, 50.0))
        w = np.maximum(np.linalg.eigvalsh(h.conj().T @ h), 0.0)
        d = it.decompose(sp.EmpiricalSpectrum(w), gamma)
        assert abs(it.multiplexing_rate_finite(h, gamma)
                   - d.multiplexing_rate) < 1e-12


def test_multiplexing_rate_s_examples():
    assert abs(it.multiplexing_rate_s(sp.Dirac(1.0), 4.0) - 2.0) < 1e-10
    assert abs(it.multiplexing_rate_s(MP, 1.0) + LOG2E) < 1e-6
    assert abs(it.multiplexing_rate_s(MP, 1.0) - MP.log_mean()) < 1e-9


def test_multiplexing_rate_harmonic_examples():
    assert abs(it.multiplexing_rate_harmonic(sp.Dirac(1.0), 0.5, 4.0) - 1.0) < 1e-10
    assert abs(it.multiplexing_rate_harmonic(MP, 1.0, 1.0) + LOG2E) < 1e-6
    assert abs(1.0 / MP.s_transform(-0.5) - 0.5) < 1e-14
    with pytest.raises(DomainError):
        it.multiplexing_rate_harmonic(sp.BernoulliProjector(0.5), 0.5, 1.0)


def test_harmonic_route_requires_exact_full_rank():
    # alpha = 1 - 1e-13 is rank deficient, however close to 1.
    with pytest.raises(DomainError, match="full-rank"):
        it.multiplexing_rate_harmonic(
            sp.ProjectorScaled(MP, 1.0 - 1e-13), 0.5, 1.0)


@pytest.mark.parametrize("t", [0.0, 0.5, 0.6, -0.1, math.nan])
def test_harmonic_mean_takes_the_s_transform_domain(t):
    # t in (0, alpha) is -t in S's domain (-alpha, 0): one check, in S.
    with pytest.raises(DomainError):
        1.0 / sp.BernoulliProjector(0.5).s_transform(-t)


@pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("gamma", [1.0, 100.0])
def test_route_agreement(beta, gamma):
    harmonic = it.multiplexing_rate_harmonic(MP, beta, gamma)
    s_route = it.multiplexing_rate_s(sp.ProjectorScaled(MP, beta), gamma)
    assert abs(harmonic - s_route) < 1e-6


def test_mutual_info_derivative_identity():
    spec = mc.empirical_spectrum(
        mc.EnsembleSpec("iid_complex_gaussian", 256, 256, 1.0), 23)
    for gamma in (0.5, 2.0, 20.0):
        h_step = 3e-4 * gamma
        fd = (it.mutual_info_measure(spec, gamma + h_step)
              - it.mutual_info_measure(spec, gamma - h_step)) / (2.0 * h_step)
        ident = (1.0 - spec.eta(gamma)) / (gamma * math.log(2.0))
        assert abs(fd - ident) / ident < 1e-6


# ---------------------------------------------------------------------------
# water-filling
# ---------------------------------------------------------------------------

def test_waterfilling_single_mode():
    for gamma in (0.1, 1.0, 1e4):
        cap, q = it.waterfilling_capacity([1.0], gamma)
        assert abs(cap - math.log2(1.0 + gamma)) < 1e-9
        assert abs(q[0] - 1.0) < 1e-12


def test_waterfilling_symmetric_modes():
    cap, q = it.waterfilling_capacity([1.0, 1.0], 9.0)
    assert abs(cap - math.log2(10.0)) < 1e-9
    assert np.max(np.abs(q - 1.0)) < 1e-11


def test_waterfilling_matches_brute_force():
    for lam, gamma in (((4.0, 1.0), 1.0), ((1.0, 0.1), 10.0),
                       ((2.0, 0.5), 0.3)):
        cap, q = it.waterfilling_capacity(lam, gamma)
        grid = np.arange(0.0, 2.0 + 1e-12, 1e-4)
        brute = np.max(0.5 * (np.log2(1.0 + gamma * grid * lam[0])
                              + np.log2(1.0 + gamma * (2.0 - grid) * lam[1])))
        assert abs(cap - float(brute)) < 1e-6
        assert abs(np.sum(q) - 2.0) < 1e-10


def _bisection_waterfilling(lam, gamma):
    """Water level by 200-step bisection on the spent budget: the
    reference for the exact level."""
    t = lam.size
    pos = lam > 0.0
    inv = 1.0 / (gamma * lam[pos])
    lo, hi = 0.0, t + float(np.max(inv))
    for _ in range(200):
        if hi - lo <= 1e-12:
            break
        mid = 0.5 * (lo + hi)
        if np.sum(np.maximum(0.0, mid - inv)) < t:
            lo = mid
        else:
            hi = mid
    q = np.zeros(t)
    q[pos] = np.maximum(0.0, 0.5 * (lo + hi) - inv)
    return float(np.sum(np.log2(1.0 + gamma * q * lam)) / t), q


def test_waterfilling_exact_level_matches_bisection():
    rng = np.random.default_rng(31)
    for size in (1, 2, 5, 64):
        for zeros in (False, True):
            for gamma in (1e-2, 1.0, 1e3):
                lam = rng.exponential(size=size) ** 3
                if zeros and size > 1:
                    lam[rng.permutation(size)[:size // 2]] = 0.0
                cap, q = it.waterfilling_capacity(lam, gamma)
                ref_cap, ref_q = _bisection_waterfilling(lam, gamma)
                assert abs(cap - ref_cap) <= 1e-12
                assert np.max(np.abs(q - ref_q)) <= 1e-12
                assert abs(np.sum(q) - size) <= 1e-12 * size


def test_waterfilling_zero_modes_get_no_power():
    cap, q = it.waterfilling_capacity([0.0, 2.0, 0.0], 5.0)
    assert q[0] == 0.0 and q[2] == 0.0
    assert abs(np.sum(q) - 3.0) < 1e-10
    assert cap > 0.0


def test_waterfilling_uniform_at_high_snr():
    spec = mc.empirical_spectrum(
        mc.EnsembleSpec("iid_complex_gaussian", 128, 64, 1.0), 29)
    _, q = it.waterfilling_capacity(spec.eigenvalues, 1e6)
    assert np.max(np.abs(q - 1.0)) < 1e-3


def test_waterfilling_errors():
    with pytest.raises(DomainError):
        it.waterfilling_capacity([0.0, 0.0], 1.0)
    with pytest.raises(DomainError):
        it.waterfilling_capacity([1.0], -1.0)
    with pytest.raises(DomainError):
        it.waterfilling_capacity([-1.0, 2.0], 1.0)


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------

NAN = float("nan")
EMPIRICAL = sp.EmpiricalSpectrum(np.array([0.5, 2.0]))

# Each positivity check rejects NaN, which fails a `x <= 0` test.
NAN_SITES = {
    "EnsembleSpec.variance": (ValueError, lambda: mc.EnsembleSpec(
        "iid_complex_gaussian", 4, 2, variance=NAN)),
    "trial_stats.gammas": (DomainError, lambda: mc.trial_stats(
        mc.EnsembleSpec("iid_complex_gaussian", 4, 2),
        mc.ProjectorSpec("receive", 0.5), [1.0, NAN], 4, 0)),
    "ergodic_loss.gamma": (DomainError, lambda: mc.ergodic_loss(
        mc.EnsembleSpec("iid_complex_gaussian", 4, 2),
        mc.ProjectorSpec("receive", 0.5), NAN, 4, 0)),
    "mutual_info_measure": (DomainError,
                            lambda: it.mutual_info_measure(MP, NAN)),
    "decompose": (DomainError, lambda: it.decompose(EMPIRICAL, NAN)),
    "mutual_info_finite": (DomainError,
                           lambda: it.mutual_info_finite(np.eye(2), NAN)),
    "multiplexing_rate_finite": (
        DomainError, lambda: it.multiplexing_rate_finite(np.eye(2), NAN)),
    "multiplexing_rate_s": (DomainError,
                            lambda: it.multiplexing_rate_s(MP, NAN)),
    "multiplexing_rate_harmonic": (
        DomainError, lambda: it.multiplexing_rate_harmonic(MP, 0.5, NAN)),
    "waterfilling_capacity": (
        DomainError, lambda: it.waterfilling_capacity([1.0, 2.0], NAN)),
    "SpectralFamily.eta": (DomainError, lambda: MP.eta(NAN)),
    "Dirac.at": (ValueError, lambda: sp.Dirac(NAN)),
    "SquareIidGram.variance": (ValueError, lambda: sp.SquareIidGram(NAN)),
    "EmpiricalSpectrum.eta": (DomainError, lambda: EMPIRICAL.eta(NAN)),
}


@pytest.mark.parametrize("site", sorted(NAN_SITES))
def test_positivity_checks_reject_nan(site):
    error, call = NAN_SITES[site]
    with pytest.raises(error):
        call()


# Every gamma must be a finite SNR > 0; infinity, like NaN, is a DomainError
# that names gamma, not a silent inf or NaN.
_SPEC = mc.EnsembleSpec("iid_complex_gaussian", 4, 2)
_CUT = mc.ProjectorSpec("receive", 0.5)
GAMMA_SITES = {
    "trial_stats": lambda g: mc.trial_stats(_SPEC, _CUT, [1.0, g], 4, 0),
    "ergodic_loss": lambda g: mc.ergodic_loss(_SPEC, _CUT, g, 4, 0),
    "ergodic_deviation": lambda g: mc.ergodic_deviation(
        mc.EnsembleSpec("iid_complex_gaussian", 4, 4), 0.5, g, 4, 0),
    "mutual_info_finite": lambda g: it.mutual_info_finite(np.eye(2), g),
    "multiplexing_rate_finite":
        lambda g: it.multiplexing_rate_finite(np.eye(2), g),
    "mutual_info_measure.family":
        lambda g: it.mutual_info_measure(sp.SquareIidGram(1.0), g),
    "mutual_info_measure.empirical":
        lambda g: it.mutual_info_measure(EMPIRICAL, g),
    "decompose": lambda g: it.decompose(MP, g),
    "multiplexing_rate_s": lambda g: it.multiplexing_rate_s(MP, g),
    "multiplexing_rate_harmonic":
        lambda g: it.multiplexing_rate_harmonic(MP, 0.5, g),
    "waterfilling_capacity":
        lambda g: it.waterfilling_capacity([1.0, 2.0], g),
}


@pytest.mark.parametrize("gamma", [math.inf, NAN], ids=["inf", "nan"])
@pytest.mark.parametrize("site", sorted(GAMMA_SITES))
def test_gamma_must_be_finite(site, gamma):
    with pytest.raises(DomainError, match="gamma"):
        GAMMA_SITES[site](gamma)


@pytest.mark.parametrize("family, gamma, rate", [
    (sp.SquareIidGram(1e300), 1e10, 1028.3550143741934),
    (sp.Dirac(1e308), 1e10, 1056.3731341741814),
    (sp.SquareIidGram(1.0), 5e307, 1020.7111581844187),
], ids=["SquareIidGram", "Dirac", "SquareIidGram-4sz"])
def test_family_mutual_info_where_z_times_scale_overflows(family, gamma, rate):
    # -gamma sigma^2 (or -gamma at) overflows, or at 5e307 only -4 gamma
    # sigma^2 does, where the unclamped Psi reads finite/inf = -0; Psi is
    # its limit -1 there, and I is the multiplexing rate.
    mi = it.mutual_info_measure(family, gamma)
    assert mi == it.multiplexing_rate_s(family, gamma)
    assert abs(mi - rate) <= 1e-12 * rate


def test_family_mutual_info_where_psi_underflows():
    # Psi(-1e-200) of a Dirac at 1e-200 underflows to -0: I, about 1.4e-400,
    # is below the smallest double.
    assert it.mutual_info_measure(sp.Dirac(1e-200), 1e-200) == 0.0


def test_largest_finite_gamma_is_accepted():
    assert math.isfinite(it.mutual_info_finite(np.eye(2), 1e308))
    assert math.isfinite(it.mutual_info_measure(sp.SquareIidGram(1.0),
                                                1e300))


EMPIRICAL_WIDE = sp.EmpiricalSpectrum(np.array([0.0, 1.0, 1e10]))
LOG2_1E300 = math.log2(1e300)
# Each value where gamma lambda overflows, against its closed form: there
# log2(1 + gamma lambda) is log2 gamma + log2 lambda to rounding.
OVERFLOW_SITES = {
    "mutual_info_finite.rank_one": (
        lambda: it.mutual_info_finite(np.ones((4, 2)), 1e30),
        math.log2(8e30) / 2.0),
    "mutual_info_finite": (
        lambda: it.mutual_info_finite(np.diag([1e10, 1.0]), 1e300),
        (LOG2_1E300 + math.log2(1e20) + LOG2_1E300) / 2.0),
    "mutual_info_measure": (
        lambda: it.mutual_info_measure(EMPIRICAL_WIDE, 1e300),
        (2.0 * LOG2_1E300 + math.log2(1e10)) / 3.0),
    "waterfilling_capacity": (
        lambda: it.waterfilling_capacity([1.0, 1e10], 1e300)[0],
        (2.0 * LOG2_1E300 + math.log2(1e10)) / 2.0),
    # gamma q = 3e308 overflows before the kernel sees lambda.
    "waterfilling_capacity.gamma_q": (
        lambda: it.waterfilling_capacity([0.0, 0.0, 1.0], 1e308)[0],
        (math.log2(1e308) + math.log2(3.0)) / 3.0),
    "decompose.mutual_info": (
        lambda: it.decompose(EMPIRICAL_WIDE, 1e300).mutual_info,
        (2.0 * LOG2_1E300 + math.log2(1e10)) / 3.0),
    "decompose.multiplexing_rate": (
        lambda: it.decompose(EMPIRICAL_WIDE, 1e300).multiplexing_rate,
        (2.0 * LOG2_1E300 + math.log2(1e10)) / 3.0),
}


@pytest.mark.parametrize("site", sorted(OVERFLOW_SITES))
def test_gamma_lambda_overflow_stays_finite(site):
    call, expected = OVERFLOW_SITES[site]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = call()
    assert abs(got - expected) < 1e-12 * expected


def test_decompose_patches_only_overflowing_entries():
    # Entries where gamma lambda is finite keep the bytes of log2(gamma
    # lambda); only the overflowing one becomes log2 gamma + log2 lambda.
    gamma, nz = 1e300, np.array([1e-300, 1.0, 3.0, 1e10])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = it.decompose(sp.EmpiricalSpectrum(nz), gamma)
        with np.errstate(over="ignore"):
            plain = np.log2(gamma * nz)
    plain[-1] = math.log2(gamma) + math.log2(1e10)
    assert d.multiplexing_rate == float(np.sum(plain) / 4)


def test_decompose_patches_underflowing_entries():
    # Where gamma lambda is below the smallest normal double (1e-600 rounds
    # to 0; 1e-310 is subnormal, and its reciprocal overflows), the rate
    # term is log2 gamma + log2 lambda and delta's term is its negative,
    # so I0 + delta is still the mutual information, about 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        low = it.decompose(sp.EmpiricalSpectrum([1e-300, 1.0]), 1e-300)
        sub = it.decompose(sp.EmpiricalSpectrum([1.0]), 1e-310)
    rate = (math.log2(1e-300) * 2.0 + math.log2(1e-300)) / 2.0
    assert abs(low.multiplexing_rate - rate) < 1e-12 * -rate
    assert abs(low.delta + rate) < 1e-12 * -rate
    assert abs(low.mutual_info) < 1e-10
    assert abs(sub.multiplexing_rate - math.log2(1e-310)) < 1e-12 * 1030.0
    assert abs(sub.mutual_info) < 1e-10
    # The normal entry keeps the bytes of log2(gamma lambda).
    assert low.multiplexing_rate == float(
        np.sum([math.log2(1e-300) + math.log2(1e-300),
                np.log2(1e-300)]) / 2)


@pytest.mark.parametrize("bad", [NAN, math.inf], ids=["nan", "inf"])
def test_waterfilling_rejects_non_finite_eigenvalues(bad):
    with pytest.raises(DomainError, match="finite"):
        it.waterfilling_capacity([bad, 1.0], 1.0)


@pytest.mark.parametrize("fn", [it.mutual_info_finite,
                                it.multiplexing_rate_finite],
                         ids=lambda fn: fn.__name__)
def test_finite_channel_checks(fn):
    with pytest.raises(ValueError, match="2-dimensional"):
        fn(np.ones(4), 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        fn(np.array([[1.0, NAN], [0.0, 1.0]]), 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        fn(np.array([[1.0, complex(0.0, np.inf)]]), 1.0)
