import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from freemimo import infotheory as it
from freemimo import montecarlo as mc
from freemimo import spectra as sp
from freemimo.errors import ConvergenceError, DomainError
from freemimo.quadrature import integrate_log_singular_upper

LOG2E = math.log2(math.e)

MP = sp.SquareIidGram(1.0)


# ---------------------------------------------------------------------------
# binary entropy
# ---------------------------------------------------------------------------

def test_binary_entropy_values():
    assert sp.binary_entropy(0.5) == 1.0
    assert sp.binary_entropy(0.0) == 0.0
    assert sp.binary_entropy(1.0) == 0.0
    # extended-precision oracle: H(1/3) = log2(3) - 2/3
    assert abs(sp.binary_entropy(1.0 / 3.0) - 0.9182958340544896) < 1e-12


def test_binary_entropy_symmetry_and_domain():
    for p in np.linspace(0.01, 0.49, 13):
        assert abs(sp.binary_entropy(p) - sp.binary_entropy(1 - p)) < 1e-14
        assert 0.0 < sp.binary_entropy(p) < 1.0
    for bad in (-0.1, 1.1, 2.0):
        with pytest.raises(DomainError):
            sp.binary_entropy(bad)


# ---------------------------------------------------------------------------
# empirical spectra
# ---------------------------------------------------------------------------

def test_rank_measure_counting():
    spec = sp.EmpiricalSpectrum(np.array([0.0, 0.0, 1.0, 2.0]))
    assert spec.alpha == 0.5
    assert sp.EmpiricalSpectrum(np.zeros(5)).alpha == 0.0
    # Zeros are exact: a tiny eigenvalue is rank, not a zero atom.
    assert sp.EmpiricalSpectrum(np.array([0.0, 1e-300, 1.0])).alpha == 2 / 3


def test_rank_of_sampled_fat_gram():
    # 256 x 512 draw: the 512-dim Gram has rank 256 and exactly 256 exact
    # zeros, appended structurally; a tall 1024 x 512 draw has none.
    for rows, cols in ((256, 512), (1024, 512)):
        spec = mc.EnsembleSpec("iid_complex_gaussian", rows, cols)
        h = mc.sample_matrix(spec, 5)
        emp = mc.empirical_spectrum(spec, 5)
        rank = min(rows, cols)
        assert np.linalg.matrix_rank(h) == rank
        assert emp.total_dim == cols
        assert np.count_nonzero(emp.eigenvalues == 0.0) == cols - rank
        assert emp.alpha == rank / cols


def test_product_draw_is_full_rank():
    # C7's two-factor draw: its smallest eigenvalue, 2.27e-11, is genuine
    # rank, though below a relative max * dim * 2^-40 threshold (6.1e-9).
    emp = mc.empirical_spectrum(
        mc.EnsembleSpec("product_iid", 1024, 1024, 1.0, factors=2), 702)
    assert 2e-11 < emp.eigenvalues[0] < 3e-11
    assert emp.alpha == 1.0


def test_spectrum_validation():
    with pytest.raises(ValueError):
        sp.EmpiricalSpectrum(np.array([1.0, -0.5]))
    # Zeros are exact: the constructor takes no tolerance, and the class
    # constant reads 0.
    with pytest.raises(TypeError):
        sp.EmpiricalSpectrum(np.array([1.0]), zero_tolerance=1e-12)
    assert sp.EmpiricalSpectrum.zero_tolerance == 0.0
    spec = sp.EmpiricalSpectrum(np.array([3.0, 1.0, 2.0]))
    assert list(spec.eigenvalues) == [1.0, 2.0, 3.0]


def test_restricted_spectrum():
    spec = sp.EmpiricalSpectrum(np.array([0.0, 0.0, 1.0, 2.0]))
    assert list(spec.restricted().eigenvalues) == [1.0, 2.0]
    with pytest.raises(DomainError):
        sp.EmpiricalSpectrum(np.zeros(3)).restricted()


# ---------------------------------------------------------------------------
# Psi transform and its inverse
# ---------------------------------------------------------------------------

def test_psi_closed_forms():
    assert sp.psi_transform(sp.Dirac(1.0), -1.0) == -0.5
    zeros = sp.EmpiricalSpectrum(np.zeros(4))
    for z in (-0.1, -1.0, -100.0):
        assert sp.psi_transform(zeros, z) == 0.0
    with pytest.raises(DomainError):
        sp.psi_transform(MP, 0.5)


def test_zero_eigenvalues_at_infinite_argument():
    spec = sp.EmpiricalSpectrum(np.array([0.0, 1.0]))
    assert sp.psi_transform(spec, -math.inf) == -0.5
    assert sp.eta_transform(spec, math.inf) == 0.5


def test_psi_against_sampled_spectrum():
    spec = mc.empirical_spectrum(
        mc.EnsembleSpec("iid_complex_gaussian", 1024, 1024, 1.0), 11)
    assert abs(sp.psi_transform(MP, -1.0)
               - sp.psi_transform(spec, -1.0)) < 0.01


def test_psi_inverse_examples():
    assert abs(sp.psi_inverse(sp.Dirac(1.0), -0.5) + 1.0) < 1e-14
    # y -> 0- gives z -> 0-
    z = sp.psi_inverse(MP, -1e-8)
    assert -1e-7 < z < 0.0
    z = sp.psi_inverse(MP, -0.25)
    assert abs(sp.psi_transform(MP, z) + 0.25) < 1e-10
    for bad in (-2.0, 0.0, 0.5):
        with pytest.raises(DomainError):
            sp.psi_inverse(MP, bad)


@pytest.mark.parametrize("measure", [
    sp.Dirac(2.0),
    sp.BernoulliProjector(0.6),
    MP,
    sp.ProjectorScaled(MP, 0.5),
    sp.FreeProduct(MP, sp.SquareIidGram(2.0)),
])
def test_psi_roundtrip_families(measure):
    alpha = measure.alpha
    for frac in (0.05, 0.3, 0.6, 0.95):
        y = -alpha * frac
        z = sp.psi_inverse(measure, y)
        assert z < 0.0
        assert abs(sp.psi_transform(measure, z) - y) < 1e-10


def test_psi_roundtrip_empirical():
    rng = np.random.default_rng(3)
    spec = sp.EmpiricalSpectrum(rng.uniform(0.1, 5.0, size=64))
    for z in (-20.0, -1.0, -0.05):
        y = sp.psi_transform(spec, z)
        assert abs(sp.psi_inverse(spec, y) - z) < 1e-9 * max(1.0, abs(z))


def _masked_psi(lam, z):
    """Psi of a spectrum as a mean over every eigenvalue, zero atoms masked
    to 0 and non-finite terms to -1: the reference for the direct sum."""
    with np.errstate(invalid="ignore", over="ignore"):
        w = -z * lam
        vals = -w / (1.0 + w)
    vals = np.where(np.isfinite(vals), vals, -1.0)
    return float(np.mean(np.where(lam > 0.0, vals, 0.0)))


WIDE_SPECTRA = [
    [0.0, 0.0, 1e-300, 1e-150, 1e-3, 1.0, 1e3, 1e150, 1e300],
    [1e-300, 1e300],
    np.concatenate([np.zeros(40), np.logspace(-300, 300, 601)]),
    np.concatenate([np.zeros(3), np.geomspace(1e-300, 1e300, 7)]),
]


@pytest.mark.parametrize("vals", WIDE_SPECTRA, ids=range(len(WIDE_SPECTRA)))
def test_empirical_psi_matches_masked_mean(vals):
    spec = sp.EmpiricalSpectrum(np.asarray(vals, dtype=float))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (-1e-300, -1e-3, -1.0, -1e3, -1e300):
            want = _masked_psi(spec.eigenvalues, z)
            assert abs(spec.psi(z) - want) <= 4.0 * math.ulp(want), z
        assert spec.psi(-math.inf) == _masked_psi(spec.eigenvalues, -math.inf)
        assert spec.psi(-math.inf) == -spec.alpha


def test_empirical_psi_of_all_zero_spectrum():
    spec = sp.EmpiricalSpectrum(np.zeros(5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (-1e-300, -1.0, -1e300, -math.inf):
            assert spec.psi(z) == _masked_psi(spec.eigenvalues, z) == 0.0


def test_empirical_nonzero_is_computed_once():
    spec = sp.EmpiricalSpectrum(np.array([0.0, 0.5, 2.0]))
    assert spec.nonzero is spec.nonzero
    assert spec.nonzero.tolist() == [0.5, 2.0]
    assert not spec.nonzero.flags.writeable
    assert spec.alpha == 2.0 / 3.0
    assert spec.restricted().eigenvalues.tolist() == [0.5, 2.0]


# Psi^{-1} evaluations, mutual information and Psi(-gamma) of
# ProjectorScaled(MP, 0.5) at the root finder's former stop, which kept
# stepping on output doubles it had already evaluated.
HIGH_SNR_ROOTS = [
    (1e7, 25, "0x1.6cf90b6cefac4p+3", "-0x1.fffff94a03866p-2"),
    (1e8, 32, "0x1.a21fa93a2d877p+3", "-0x1.ffffff5433896p-2"),
    (1e10, 46, "0x1.063672ac348afp+4", "-0x1.fffffffe48320p-2"),
    (1e12, 36, "0x1.3b5d10bf1e013p+4", "-0x1.fffffffffb9a2p-2"),
    (1e15, 105, "0x1.8b16fddb8ad23p+4", "-0x1.fffffffffffeep-2"),
]


@pytest.mark.parametrize("gamma, before, mi_hex, psi_hex", HIGH_SNR_ROOTS,
                         ids=[f"{row[0]:g}" for row in HIGH_SNR_ROOTS])
def test_root_stops_on_a_repeated_output(gamma, before, mi_hex, psi_hex,
                                         monkeypatch):
    calls = []
    inverse = sp.FreeProduct.psi_inverse

    def counted(self, y):
        calls.append(y)
        return inverse(self, y)

    monkeypatch.setattr(sp.FreeProduct, "psi_inverse", counted)
    family = sp.ProjectorScaled(MP, 0.5)
    mi = it.mutual_info_measure(family, gamma)
    assert len(calls) <= 15 < before
    assert mi.hex() == mi_hex
    psi = family.psi(-gamma)
    want = float.fromhex(psi_hex)
    assert abs(psi - want) <= 4.0 * math.ulp(want)


# z where a stop on a repeated output double while the bracket is still
# wider than 4 ulps returns an end an ulp away from the correctly rounded Psi.
NARROW_STOPS = [(0.6, -107.17048298967093), (0.6, -7073332279.644439),
                (0.7, -27295447924.020016)]


@pytest.mark.parametrize("beta, z", NARROW_STOPS)
def test_root_stops_only_on_a_narrow_bracket(beta, z):
    exact = float(Fraction(beta) * Fraction(z) / (1 - Fraction(z)))
    assert sp.SpectralFamily._psi(sp.BernoulliProjector(beta), z) == exact


def test_psi_monotone():
    zs = np.linspace(-10.0, -0.01, 40)
    vals = [sp.psi_transform(MP, z) for z in zs]
    assert all(a < b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# the root finder against the nested bisection it replaced
# ---------------------------------------------------------------------------

def _bisection_psi(family, z):
    """Psi(z) of a family by bracketing and bisecting Psi^{-1}(y) = z on
    (-alpha, 0) to width 1e-17 alpha: the slow path, kept as an oracle."""
    a = family.alpha
    pinv = family.psi_inverse
    hi = -0.5 * a
    if pinv(hi) < z:
        while pinv(hi) < z:
            hi *= 0.5
        lo = 2.0 * hi
    else:
        delta = 0.5 * a
        lo = -a + delta
        while pinv(lo) > z:
            delta *= 0.5
            lo = -a + delta
        hi = -a + 2.0 * delta if -a + 2.0 * delta < 0.0 else -0.25 * a
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi or hi - lo <= 1e-17 * a:
            break
        if pinv(mid) < z:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class _CountingInverse(sp.SpectralFamily):
    """Wraps a family and counts its Psi^{-1} evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    @property
    def alpha(self):
        return self.inner.alpha

    def s_transform(self, z):
        return self.inner.s_transform(z)

    def psi_inverse(self, y):
        self.calls += 1
        return self.inner.psi_inverse(y)


ROOT_FAMILIES = [
    sp.Dirac(2.0),
    sp.BernoulliProjector(0.6),
    sp.SquareIidGram(2.0),
    sp.ProjectorScaled(MP, 0.25),
    sp.ProjectorScaled(MP, 0.5),
    sp.FreeProduct(MP, sp.SquareIidGram(2.0)),
    sp.FreeProduct(MP, sp.SquareIidGram(2.0), sp.SquareIidGram(0.5)),
    sp.ProjectorScaled(MP, 0.5).restricted(),
]
ROOT_GRID = [float(z) for z in -np.logspace(-14, 7, 43)]


@pytest.mark.parametrize("family", ROOT_FAMILIES,
                         ids=lambda f: type(f).__name__)
def test_generic_psi_matches_bisection(family):
    # SpectralFamily._psi is the generic route even where a subclass has a
    # closed form.
    for z in ROOT_GRID:
        fast = sp.SpectralFamily._psi(family, z)
        assert -family.alpha < fast < 0.0
        assert abs(fast - _bisection_psi(family, z)) <= 1e-15, z


def test_generic_psi_matches_closed_form():
    fam = sp.SquareIidGram(2.0)
    for z in ROOT_GRID:
        exact = fam.psi(z)
        assert abs(sp.SpectralFamily._psi(fam, z) - exact) <= 1e-13 * abs(exact)


@pytest.mark.parametrize("family", ROOT_FAMILIES,
                         ids=lambda f: type(f).__name__)
def test_psi_inverse_evaluations_per_psi(family):
    counting = _CountingInverse(family)
    for z in ROOT_GRID:
        sp.SpectralFamily._psi(counting, z)
    assert counting.calls / len(ROOT_GRID) <= 20


class _BoundedInverse(sp.SpectralFamily):
    """A law whose Psi^{-1}(y) = y / (1 + y) never goes below -1."""

    alpha = 0.5

    def s_transform(self, z):
        return 1.0


def test_psi_root_convergence_errors():
    with pytest.raises(ConvergenceError):
        sp.SpectralFamily._psi(sp.FreeProduct(MP, MP), -1e-320)
    with pytest.raises(ConvergenceError):
        _BoundedInverse().psi(-10.0)
    # Past t = 30 its Psi^{-1}(edge) = -1 breaks Jensen's bound, so Psi
    # does not settle on the edge of (-alpha, 0).
    with pytest.raises(ConvergenceError):
        _BoundedInverse().psi(-1e30)
    # Psi reaches -0.99 only beyond z = -1e308, which overflows.
    spec = sp.EmpiricalSpectrum(np.array([1e-307, 1.0]))
    with pytest.raises(ConvergenceError):
        sp.psi_inverse(spec, -0.99)
    with pytest.raises(ConvergenceError):
        sp.psi_inverse(sp.EmpiricalSpectrum(np.array([1.0, 2.0])), -1e-320)


# ---------------------------------------------------------------------------
# S-transform
# ---------------------------------------------------------------------------

def test_s_transform_closed_forms():
    for z in (-0.9, -0.5, -0.1):
        assert sp.s_transform(sp.BernoulliProjector(1.0), z) == 1.0
    assert abs(sp.s_transform(MP, -0.5) - 2.0) < 1e-14
    assert abs(sp.s_transform(sp.FreeProduct(MP, MP), -0.5) - 4.0) < 1e-14
    with pytest.raises(DomainError):
        sp.s_transform(sp.BernoulliProjector(0.5), -0.7)


# The built-in measures, nested ones included: each implements kernels
# only and takes the checks and limits of SpectralFamily's public entries.
CHECKED_MEASURES = [
    sp.Dirac(2.0),
    sp.BernoulliProjector(0.6),
    MP,
    sp.FreeProduct(MP, sp.Dirac(2.0)),
    sp.ProjectorScaled(MP, 0.5),
    sp.ProjectorScaled(MP, 0.5).restricted(),
    sp.EmpiricalSpectrum(np.array([0.0, 1.0, 2.0, 4.0])),
]


@pytest.mark.parametrize("measure", CHECKED_MEASURES,
                         ids=lambda m: type(m).__name__)
def test_public_entries_reject_arguments_outside_the_domain(measure):
    a = measure.alpha
    for z in (0.0, -a, -a - 1e-3, -math.inf, math.nan):
        with pytest.raises(DomainError):
            measure.s_transform(z)
        with pytest.raises(DomainError):
            measure.psi_inverse(z)
    for z in (0.0, 1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            measure.psi(z)
        with pytest.raises(DomainError):
            measure.eta(-z)
    for t in (1.0 - a, 1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            measure.eta_inverse(t)
    # The limits at infinity are the same rule for every measure.
    assert measure.psi(-math.inf) == -a
    assert measure.eta(math.inf) == 1.0 - a
    # Closed forms and the quadrature route alike check their bound once.
    for x in (-1e-3, a + 1e-3, -math.inf, math.inf, math.nan):
        with pytest.raises(DomainError):
            measure.log_s_integral(x)


def test_generic_kernels_take_the_generic_route(monkeypatch):
    # A reference route called on a closed-form family must not reach its
    # closed form, or a check against it compares the closed form with
    # itself.
    inverses, kernels = [], []
    psi_inverse, s = sp.SpectralFamily.psi_inverse, sp.SquareIidGram._s
    monkeypatch.setattr(sp.SpectralFamily, "psi_inverse",
                        lambda self, y: inverses.append(y) or psi_inverse(self, y))
    monkeypatch.setattr(sp.SquareIidGram, "_s",
                        lambda self, z: kernels.append(z) or s(self, z))
    sp.SpectralFamily._psi(sp.BernoulliProjector(0.6), -2.0)
    sp.SpectralFamily._log_s_integral(sp.SquareIidGram(), 1.0)
    assert len(inverses) > 0 and len(kernels) > 0


def test_one_domain_check_per_public_call(monkeypatch):
    checks = []
    check = sp.SpectralFamily._check_s_domain

    def counting(self, z):
        checks.append(z)
        check(self, z)

    monkeypatch.setattr(sp.SpectralFamily, "_check_s_domain", counting)
    nested = sp.ProjectorScaled(sp.FreeProduct(MP, MP), 0.5).restricted()
    assert nested.mean > 0.0 and checks == []  # mean calls the kernel
    for entry in (nested.s_transform, nested.psi_inverse,
                  lambda z: sp.s_transform(nested, z),
                  lambda z: sp.psi_inverse(nested, z)):
        checks.clear()
        entry(-0.25)
        assert checks == [-0.25]
    # A Psi solve checks once per Psi^{-1} evaluation, not once per layer.
    inverse = sp.SpectralFamily.psi_inverse
    solves = []
    monkeypatch.setattr(sp.SpectralFamily, "psi_inverse",
                        lambda self, y: solves.append(y) or inverse(self, y))
    checks.clear()
    nested.psi(-3.0)
    assert checks == solves and len(solves) > 1


def test_override_of_s_transform_over_a_kernel_is_refused():
    # The library calls a built-in's kernel, not its s_transform, so an
    # override there would be bypassed, and its super().s_transform would
    # come back to it through _s; the class is refused when it is made.
    with pytest.raises(TypeError, match="override _s instead"):
        class CountingGram(sp.SquareIidGram):
            def s_transform(self, z):
                return super().s_transform(z)

    # Overriding the kernel is the way to wrap a built-in.
    evals = []

    class KernelCountingGram(sp.SquareIidGram):
        def _s(self, z):
            evals.append(z)
            return super()._s(z)

    gram = KernelCountingGram(1.0)
    assert gram.s_transform(-0.25) == MP.s_transform(-0.25)
    assert it.mutual_info_measure(sp.FreeProduct(gram, MP), 100.0) == \
        it.mutual_info_measure(sp.FreeProduct(MP, MP), 100.0)
    assert len(evals) > 1
    # Over an s_transform-only subclass, whose kernel is its s_transform,
    # an override and its super() call compose.
    calls = []

    class Wrapped(_CountingInverse):
        def s_transform(self, z):
            calls.append(z)
            return super().s_transform(z)

    wrapped = Wrapped(MP)
    assert wrapped._s(-0.25) == MP.s_transform(-0.25) and calls == [-0.25]


def test_bernoulli_s_exact_on_grid():
    beta = 0.35
    fam = sp.BernoulliProjector(beta)
    for z in np.linspace(-0.34, -0.01, 12):
        assert abs(sp.s_transform(fam, z) - (z + 1) / (z + beta)) < 1e-15


def test_s_numeric_matches_sampled_square_iid():
    spec = mc.empirical_spectrum(
        mc.EnsembleSpec("iid_complex_gaussian", 2048, 2048, 1.0), 21)
    assert abs(sp.s_transform(spec, -0.5) - 2.0) < 0.02


def test_s_numeric_matches_sampled_product():
    spec = mc.empirical_spectrum(
        mc.EnsembleSpec("product_iid", 1024, 1024, 1.0, factors=2), 22)
    assert abs(sp.s_transform(spec, -0.5) - 4.0) < 0.05


def test_projector_scaling_rule_analytic():
    # restricted row-removal law has S(z) = S_inner(beta z)
    for beta in (0.25, 0.5, 0.75):
        scaled = sp.ProjectorScaled(MP, beta).restricted()
        for z in (-0.8, -0.4, -0.1):
            assert abs(scaled.s_transform(z) - MP.s_transform(beta * z)) < 1e-14


def test_restricted_s_where_the_scaled_argument_rounds_to_zero():
    # With alpha = 0.5, alpha z rounds to -0.0 at z = -5e-324; the base's
    # kernel still gets an argument inside (-alpha, 0).
    assert sp.ProjectorScaled(MP, 0.5).restricted().s_transform(
        -5e-324) == 1.0


_DRAW = sp.EmpiricalSpectrum(np.array([0.0, 0.0, 1.0, 2.0]))


@pytest.mark.xfail(strict=True, raises=ConvergenceError,
                   reason="the empirical Psi overflows 1/(z lambda) at a "
                          "subnormal z, so Psi^{-1} cannot bracket there")
@pytest.mark.parametrize("law", [_DRAW, sp.FreeProduct(_DRAW, MP).restricted()],
                         ids=["EmpiricalSpectrum", "Restricted-FreeProduct"])
def test_empirical_s_at_a_subnormal_argument(law):
    assert 0.0 < law.s_transform(-5e-324) < math.inf


def test_projector_scaling_rule_sampled():
    h = mc.sample_matrix(mc.EnsembleSpec("iid_complex_gaussian",
                                         1024, 1024, 1.0), 23)
    hp = mc.apply_projector(h, mc.ProjectorSpec("receive", 0.5))
    w = np.maximum(np.linalg.eigvalsh(hp @ hp.conj().T), 0.0)
    restricted = sp.EmpiricalSpectrum(w)
    for z in (-0.6, -0.3):
        assert abs(sp.s_transform(restricted, z)
                   - MP.s_transform(0.5 * z)) < 0.05


# S(z) at z = -0.75, -0.5, -0.25 and eta^{-1}(t) at t = 0.25, 0.5, 0.75 of
# the 1024 x 512 iid complex draw of the benchmark's analytic workload
# (seed 1000), recorded from the module-level transforms.
RECORDED_S = (1.6008941983791778, 1.3344167321478029, 1.143626559253706)
RECORDED_ETA_INV = (4.802682595137534, 1.3344167321478029, 0.3812088530845687)


def test_empirical_methods_match_public_functions():
    emp = mc.empirical_spectrum(
        mc.EnsembleSpec("iid_complex_gaussian", 1024, 512, 1.0), 1000)
    for z, ref in zip((-0.75, -0.5, -0.25), RECORDED_S):
        value = emp.s_transform(z)
        assert value == sp.s_transform(emp, z)
        # The last bits of eigvalsh depend on the LAPACK build.
        assert abs(value - ref) <= 1e-13 * ref
    for t, ref in zip((0.25, 0.5, 0.75), RECORDED_ETA_INV):
        value = emp.eta_inverse(t)
        assert value == sp.eta_inverse(emp, t)
        assert abs(value - ref) <= 1e-13 * ref
    assert emp.psi(-2.0) == sp.psi_transform(emp, -2.0)
    assert emp.psi_inverse(-0.3) == sp.psi_inverse(emp, -0.3)
    assert emp.eta(2.0) == sp.eta_transform(emp, 2.0)
    assert emp.mean == float(np.mean(emp.eigenvalues))


def test_projector_scaled_alpha_rule():
    assert sp.ProjectorScaled(MP, 0.3).alpha == 0.3
    assert sp.ProjectorScaled(sp.BernoulliProjector(0.2), 0.7).alpha == 0.2
    assert sp.FreeProduct(MP, sp.BernoulliProjector(0.4)).alpha == 0.4


@pytest.mark.parametrize("beta", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("inner", [
    MP, sp.SquareIidGram(2.0), sp.FreeProduct(MP, MP),
    sp.BernoulliProjector(0.3),
], ids=["MP", "SquareIidGram2", "FreeProduct", "BernoulliProjector"])
def test_projector_scaled_is_the_bernoulli_free_product(inner, beta):
    # Row removal adds no math of its own: every value is the free
    # product's, bit for bit.
    got = sp.ProjectorScaled(inner, beta)
    ref = sp.FreeProduct(inner, sp.BernoulliProjector(beta))
    assert isinstance(got, sp.FreeProduct)
    a = ref.alpha
    assert got.alpha == a
    assert got.mean == ref.mean
    for u in (0.9, 0.5, 0.3, 1e-6):
        assert got.s_transform(-u * a) == ref.s_transform(-u * a)
        assert (got.restricted().s_transform(-u)
                == ref.restricted().s_transform(-u))
    for z in (-0.1, -3.0, -1e3):
        assert got.psi(z) == ref.psi(z)
        assert got.eta(-z) == ref.eta(-z)
    for x in (0.3 * a, a):
        assert got.log_s_integral(x) == ref.log_s_integral(x)
    assert (it.mutual_info_measure(got, 10.0)
            == it.mutual_info_measure(ref, 10.0))


def test_projector_scaled_validates_beta():
    for beta in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"beta must be in \(0, 1\]"):
            sp.ProjectorScaled(MP, beta)


# ---------------------------------------------------------------------------
# eta transform
# ---------------------------------------------------------------------------

def test_eta_values():
    assert abs(sp.eta_transform(sp.Dirac(1.0), 1.0) - 0.5) < 1e-14
    assert abs(sp.eta_transform(MP, 1e-9) - 1.0) < 1e-8
    spec = mc.empirical_spectrum(
        mc.EnsembleSpec("iid_complex_gaussian", 1024, 1024, 1.0), 31)
    assert abs(sp.eta_transform(MP, 10.0)
               - sp.eta_transform(spec, 10.0)) < 0.01
    with pytest.raises(DomainError):
        sp.eta_transform(MP, 0.0)


def test_eta_strictly_decreasing():
    gammas = np.logspace(-2, 4, 25)
    vals = [sp.eta_transform(MP, g) for g in gammas]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[0] < 1.0


def test_eta_inverse_examples():
    assert abs(sp.eta_inverse(sp.Dirac(1.0), 0.5) - 1.0) < 1e-14
    # two-atom closed form: eta(gamma) = 0.5 + 0.5/(1 + gamma)
    bern = sp.BernoulliProjector(0.5)
    g = sp.eta_inverse(bern, 0.75)
    assert abs(0.5 + 0.5 / (1.0 + g) - 0.75) < 1e-12
    with pytest.raises(DomainError):
        sp.eta_inverse(bern, 0.25)  # below eta(inf) = 1 - beta


def test_eta_inverse_roundtrip_grid():
    for t in np.arange(0.1, 0.95, 0.1):
        g = sp.eta_inverse(MP, t)
        assert abs(sp.eta_transform(MP, g) - t) < 1e-9
    spec = sp.EmpiricalSpectrum(np.array([0.2, 1.0, 3.0, 4.5]))
    for t in (0.15, 0.5, 0.85):
        g = sp.eta_inverse(spec, t)
        assert abs(sp.eta_transform(spec, g) - t) < 1e-9


# ---------------------------------------------------------------------------
# log-mean and the entropy integral
# ---------------------------------------------------------------------------

def test_log_mean_closed_forms():
    assert abs(sp.log_mean(sp.Dirac(1.0))) < 1e-10
    assert abs(sp.log_mean(sp.Dirac(4.0)) - 2.0) < 1e-10
    assert abs(sp.log_mean(MP) + LOG2E) < 1e-6


def test_log_mean_against_sampled_eigenvalues():
    spec = mc.empirical_spectrum(
        mc.EnsembleSpec("iid_complex_gaussian", 1024, 1024, 1.0), 41)
    assert abs(sp.log_mean(MP)
               - float(np.mean(np.log2(spec.eigenvalues)))) < 0.02


def _s_integral_log_mean(spec):
    """-integral_0^1 log2 S(-z) dz of the restricted spectrum."""
    m = spec.restricted()
    return -integrate_log_singular_upper(
        lambda z: math.log2(sp.s_transform(m, -max(z, 1e-18))), 0.0, 1.0)


def test_log_mean_empirical_equals_direct_mean():
    # log_mean of a sampled spectrum is the direct mean of log2; the
    # S-transform identity, integrated numerically, must agree with it.
    draw = mc.empirical_spectrum(
        mc.EnsembleSpec("iid_complex_gaussian", 1024, 512, 1.0), 42)
    for spec in (sp.EmpiricalSpectrum(np.array([0.0, 0.5, 1.0, 2.0, 4.0])),
                 draw):
        direct = float(np.mean(np.log2(spec.nonzero)))
        assert sp.log_mean(spec) == direct
        assert abs(_s_integral_log_mean(spec) - direct) < 1e-8


def test_empirical_log_mean_reads_the_cached_nonzero(monkeypatch):
    # The same double as the mean over the restricted spectrum's sorted
    # eigenvalues, with no spectrum built to get it.
    draw = mc.empirical_spectrum(
        mc.EnsembleSpec("iid_complex_gaussian", 512, 1024, 1.0), 1)
    assert draw.alpha == 0.5
    via_restricted = float(np.mean(np.log2(
        sp.EmpiricalSpectrum(draw.nonzero).eigenvalues)))
    built = []
    monkeypatch.setattr(sp.EmpiricalSpectrum, "__post_init__",
                        lambda self: built.append(self))
    assert sp.log_mean(draw).hex() == via_restricted.hex()
    assert built == []


def test_log_mean_all_zero_spectrum():
    with pytest.raises(DomainError):
        sp.log_mean(sp.EmpiricalSpectrum(np.zeros(4)))


def test_log_mean_additive_under_free_product():
    f = sp.SquareIidGram(1.0)
    g = sp.Dirac(3.0)
    product = sp.FreeProduct(f, g)
    combined = sp.log_mean(product)
    assert abs(combined - sp.log_mean(f) - sp.log_mean(g)) < 1e-8
    # The closed form sums the factors' ln S integrals; the quadrature
    # route integrates the numeric product of their S-transforms.
    via_product = -sp.SpectralFamily._log_s_integral(product, 1.0) * LOG2E
    assert abs(combined - via_product) < 1e-8


# _CountingInverse supplies no log_s_integral, so it is a factor whose ln S
# integral takes the quadrature route.
LOG_S_FAMILIES = [
    sp.Dirac(2.0),
    sp.Dirac(0.3),
    MP,
    sp.SquareIidGram(2.5),
    sp.BernoulliProjector(0.6),
    sp.BernoulliProjector(1.0),
    sp.BernoulliProjector(0.6).restricted(),
    sp.ProjectorScaled(MP, 0.5),
    sp.ProjectorScaled(MP, 1.0),
    sp.ProjectorScaled(sp.BernoulliProjector(0.3), 0.5),
    sp.ProjectorScaled(MP, 0.5).restricted(),
    sp.FreeProduct(MP, sp.SquareIidGram(2.0)),
    sp.FreeProduct(MP, MP, MP),
    sp.ProjectorScaled(sp.FreeProduct(MP, MP), 0.4),
    sp.ProjectorScaled(sp.FreeProduct(MP, MP), 0.4).restricted(),
    sp.FreeProduct(_CountingInverse(MP), sp.Dirac(2.0)),
    sp.FreeProduct(_CountingInverse(sp.ProjectorScaled(MP, 0.5)), MP),
]


@pytest.mark.parametrize("family", LOG_S_FAMILIES,
                         ids=lambda f: type(f).__name__)
def test_closed_form_log_s_integral_matches_quadrature(family):
    a = family.alpha
    for x in (1e-12, 1e-6, 0.1 * a, 0.5 * a, a * (1.0 - 1e-9), a):
        fast = family.log_s_integral(x)
        slow = sp.SpectralFamily._log_s_integral(family, x)
        assert abs(fast - slow) <= 1e-10 * max(x, abs(slow)), x


def test_log_s_integral_endpoint_closed_forms():
    # integral_0^1 -ln(1 - z) dz = 1; a beta-projector's L(beta) is
    # H(beta) in nats.
    assert MP.log_s_integral(1.0) == 1.0
    for beta in (0.25, 0.5, 0.9):
        fam = sp.BernoulliProjector(beta)
        assert abs(fam.log_s_integral(beta)
                   - sp.binary_entropy(beta) * math.log(2.0)) < 1e-15


def test_entropy_integral_matches_binary_entropy():
    for p in np.arange(0.1, 0.95, 0.1):
        assert abs(sp.entropy_integral_check(p) - sp.binary_entropy(p)) < 1e-8
    assert abs(sp.entropy_integral_check(1.0 / 3.0) - 0.9182958340544896) < 1e-8
    assert sp.entropy_integral_check(1e-6) < 3e-5
    with pytest.raises(DomainError):
        sp.entropy_integral_check(0.0)
