"""Spectral measures and their multiplicative free-probability transforms.

Two kinds of measure coexist here:

* ``EmpiricalSpectrum`` -- the eigenvalues of a finite Gram matrix X^H X,
  including its zero atoms.  All transforms are evaluated numerically from
  the eigenvalue list.
* ``SpectralFamily`` -- a parametric limiting spectral law described by its
  analytic S-transform.  Concrete variants cover the unit-scale square iid
  Gram law, Dirac masses, Bernoulli projector spectra, the law obtained by
  removing a fraction of rows (``ProjectorScaled``), and free multiplicative
  products.

Conventions.  For a measure P on [0, inf) with zero-atom mass 1 - alpha:

    Psi(z)   = integral of z x / (1 - z x) dP(x),        z < 0
    S(z)     = (z + 1)/z * Psi^{-1}(z),                  -alpha < z < 0
    eta(g)   = integral of 1 / (1 + g x) dP(x) = 1 + Psi(-g),   g > 0

S is positive and the natural companion of log-spectrum integrals: the mean
of log2 over a full-rank measure equals -integral_0^1 log2 S(-z) dz.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError
from .quadrature import integrate_log_singular_upper

LOG2E = math.log2(math.e)

# Relative rank threshold for floating-point Gram spectra.
ZERO_TOL_FACTOR = 2.0 ** -40

# Bisection targets: bracket to width 1e-14 (plus a few ulps for large |z|).
_BISECT_ABS = 1e-14
_BISECT_REL = 4e-16


def binary_entropy(p):
    """Binary entropy H(p) in bits, with the convention 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"binary_entropy requires p in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def default_zero_tolerance(eigenvalues, dim=None):
    """Rank threshold: max eigenvalue * dimension * 2^-40.

    ``dim`` is the nominal Gram dimension; it defaults to the number of
    eigenvalues.
    """
    if len(eigenvalues) == 0:
        return 0.0
    if dim is None:
        dim = len(eigenvalues)
    return float(np.max(eigenvalues)) * dim * ZERO_TOL_FACTOR


@dataclass(frozen=True)
class EmpiricalSpectrum:
    """Sorted eigenvalues of a Gram matrix, with zero-atom bookkeeping.

    ``total_dim`` is the Gram dimension (the column count of the underlying
    matrix) and must equal the number of eigenvalues; eigenvalues below
    ``zero_tolerance`` count as zero atoms.
    """

    eigenvalues: np.ndarray
    total_dim: int = 0
    zero_tolerance: float = field(default=-1.0)

    def __post_init__(self):
        vals = np.sort(np.asarray(self.eigenvalues, dtype=float))
        if vals.size == 0:
            raise ValueError("empty spectrum")
        if not np.all(np.isfinite(vals)):
            raise ValueError("spectrum contains non-finite eigenvalues")
        if vals[0] < 0.0:
            floor = -1e-8 * max(1.0, abs(vals[-1]))
            if vals[0] < floor:
                raise ValueError(f"negative eigenvalue {vals[0]} in Gram spectrum")
            vals = np.maximum(vals, 0.0)
        object.__setattr__(self, "eigenvalues", vals)
        dim = self.total_dim if self.total_dim else vals.size
        if dim != vals.size:
            raise ValueError(
                f"total_dim {dim} != number of eigenvalues {vals.size}")
        object.__setattr__(self, "total_dim", int(dim))
        tol = self.zero_tolerance
        if tol < 0.0:
            tol = default_zero_tolerance(vals)
        object.__setattr__(self, "zero_tolerance", float(tol))

    @property
    def alpha(self):
        """Normalized rank: fraction of eigenvalues above the zero tolerance."""
        return float(np.count_nonzero(self.eigenvalues > self.zero_tolerance)
                     / self.total_dim)

    @property
    def nonzero(self):
        return self.eigenvalues[self.eigenvalues > self.zero_tolerance]

    def restricted(self):
        """The spectrum of nonzero eigenvalues as a full-rank measure."""
        nz = self.nonzero
        if nz.size == self.total_dim:
            return self
        if nz.size == 0:
            raise DomainError("all-zero spectrum has no nonzero restriction")
        return EmpiricalSpectrum(nz, zero_tolerance=self.zero_tolerance)


class SpectralFamily:
    """A limiting spectral law on [0, inf) described by an analytic S-transform.

    Subclasses provide ``alpha`` and ``s_transform``; Psi and eta (and their
    inverses) derive from those through monotone bracketing, except where a
    closed form is overridden.
    """

    @property
    def alpha(self):
        raise NotImplementedError

    def s_transform(self, z):
        raise NotImplementedError

    def _check_s_domain(self, z):
        if not -self.alpha < z < 0.0:
            raise DomainError(
                f"S-transform argument {z} outside (-{self.alpha}, 0)")

    def psi_inverse(self, y):
        """Inverse of Psi: the unique z < 0 with Psi(z) = y, for y in (-alpha, 0)."""
        self._check_s_domain(y)
        return y * self.s_transform(y) / (y + 1.0)

    def psi(self, z):
        if z >= 0.0:
            raise DomainError(f"Psi requires z < 0, got {z}")
        return _invert_psi_inverse(self, z)

    def eta(self, gamma):
        if gamma <= 0.0:
            raise DomainError(f"eta requires gamma > 0, got {gamma}")
        return 1.0 + self.psi(-gamma)

    def eta_inverse(self, t):
        lo = 1.0 - self.alpha
        if not lo < t < 1.0:
            raise DomainError(f"eta_inverse requires t in ({lo}, 1), got {t}")
        return -self.psi_inverse(t - 1.0)

    @property
    def mean(self):
        """First moment; equals 1/S(0-)."""
        return 1.0 / self.s_transform(-1e-12 * self.alpha)

    def restricted(self):
        """The law of nonzero spectrum mass, renormalized to a probability."""
        if self.alpha >= 1.0:
            return self
        return Restricted(self)


@dataclass(frozen=True)
class Dirac(SpectralFamily):
    """Unit mass at a positive point (e.g. the Gram law of a scaled unitary)."""

    at: float

    def __post_init__(self):
        if self.at <= 0.0:
            raise ValueError(f"Dirac location must be positive, got {self.at}")

    @property
    def alpha(self):
        return 1.0

    def s_transform(self, z):
        self._check_s_domain(z)
        return 1.0 / self.at

    def psi(self, z):
        if z >= 0.0:
            raise DomainError(f"Psi requires z < 0, got {z}")
        return z * self.at / (1.0 - z * self.at)


@dataclass(frozen=True)
class BernoulliProjector(SpectralFamily):
    """Two-atom law (1-beta) delta_0 + beta delta_1: the spectrum of a projector."""

    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")

    @property
    def alpha(self):
        return self.beta

    def s_transform(self, z):
        self._check_s_domain(z)
        return (z + 1.0) / (z + self.beta)

    def psi(self, z):
        if z >= 0.0:
            raise DomainError(f"Psi requires z < 0, got {z}")
        return self.beta * z / (1.0 - z)


@dataclass(frozen=True)
class SquareIidGram(SpectralFamily):
    """Limiting Gram law of a square matrix with iid zero-mean entries.

    Entries of variance sigma^2/N give the unit-scale law with
    S(z) = 1 / (sigma^2 (1 + z)) and spectral support [0, 4 sigma^2].
    """

    variance: float = 1.0

    def __post_init__(self):
        if self.variance <= 0.0:
            raise ValueError(f"variance must be positive, got {self.variance}")

    @property
    def alpha(self):
        return 1.0

    def s_transform(self, z):
        self._check_s_domain(z)
        return 1.0 / (self.variance * (1.0 + z))

    def psi(self, z):
        if z >= 0.0:
            raise DomainError(f"Psi requires z < 0, got {z}")
        # Stable root of s z Psi^2 + (2 s z - 1) Psi + s z = 0 with s = variance.
        sz = self.variance * z
        return 2.0 * sz / ((1.0 - 2.0 * sz) + math.sqrt(1.0 - 4.0 * sz))


@dataclass(frozen=True)
class ProjectorScaled(SpectralFamily):
    """Law of the Gram matrix after keeping a beta-fraction of rows.

    Removing rows is free multiplication by a Bernoulli projector spectrum:
    alpha drops to min(alpha_inner, beta) and S picks up the projector factor
    (z + 1)/(z + beta).  The nonzero part of this law (``restricted()``) has
    S-transform S_inner(beta z), the column-removal scaling rule.
    """

    inner: SpectralFamily
    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")

    @property
    def alpha(self):
        return min(self.inner.alpha, self.beta)

    def s_transform(self, z):
        self._check_s_domain(z)
        return self.inner.s_transform(z) * (z + 1.0) / (z + self.beta)


@dataclass(frozen=True)
class FreeProduct(SpectralFamily):
    """Free multiplicative product: S-transforms multiply, ranks take the min."""

    factors: tuple

    def __init__(self, *factors):
        if len(factors) == 1 and isinstance(factors[0], (tuple, list)):
            factors = tuple(factors[0])
        if not factors:
            raise ValueError("FreeProduct requires at least one factor")
        object.__setattr__(self, "factors", tuple(factors))

    @property
    def alpha(self):
        return min(f.alpha for f in self.factors)

    def s_transform(self, z):
        self._check_s_domain(z)
        out = 1.0
        for f in self.factors:
            out *= f.s_transform(z)
        return out


@dataclass(frozen=True)
class Restricted(SpectralFamily):
    """Nonzero-eigenvalue law of a rank-deficient family, renormalized.

    With a = alpha of the base law, S_restricted(z) = (z+1)/(z+1/a) * S(a z)
    on (-1, 0).
    """

    base: SpectralFamily

    def __post_init__(self):
        if self.base.alpha >= 1.0:
            raise ValueError("base law is already full rank")

    @property
    def alpha(self):
        return 1.0

    def s_transform(self, z):
        self._check_s_domain(z)
        a = self.base.alpha
        return (z + 1.0) / (z + 1.0 / a) * self.base.s_transform(a * z)


# ---------------------------------------------------------------------------
# numeric inversion helpers
# ---------------------------------------------------------------------------

def _bisect(fn, target, lo, hi, increasing=True):
    """Bracketed bisection for a monotone fn; lo < hi must straddle target."""
    sign = 1.0 if increasing else -1.0
    for _ in range(400):
        width = hi - lo
        mid = -math.sqrt(lo * hi) if (lo < 0.0 and hi < 0.0 and lo / hi > 8.0) \
            else 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if width <= _BISECT_ABS + _BISECT_REL * abs(mid):
            break
        if sign * (fn(mid) - target) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _psi_empirical(eigenvalues, z):
    """Psi of a discrete spectrum: mean of z x / (1 - z x), safe for huge |z|."""
    w = -z * eigenvalues
    with np.errstate(invalid="ignore"):
        vals = -w / (1.0 + w)
    vals = np.where(np.isfinite(vals), vals, -1.0)
    return float(np.mean(vals))


def _invert_psi_empirical(spec, y):
    """Solve Psi(z) = y for z < 0 on an empirical spectrum."""
    psi = lambda z: _psi_empirical(spec.eigenvalues, z)
    lo = hi = -1.0
    if psi(-1.0) > y:
        while psi(lo) > y:
            lo *= 2.0
            if lo < -1e290:
                raise ConvergenceError(f"cannot bracket Psi = {y} from below")
    else:
        while psi(hi) < y:
            hi *= 0.5
            if hi > -1e-300:
                raise ConvergenceError(f"cannot bracket Psi = {y} from above")
    return _bisect(psi, y, lo, hi, increasing=True)


def _invert_psi_inverse(family, z):
    """Solve Psi^{-1}(y) = z for y in (-alpha, 0): evaluates Psi(z) of a family."""
    a = family.alpha
    pinv = family.psi_inverse
    hi = -0.5 * a
    if pinv(hi) < z:
        while pinv(hi) < z:
            hi *= 0.5
            if hi > -1e-290 * a:
                raise ConvergenceError(f"cannot bracket Psi at z = {z}")
        lo = 2.0 * hi
    else:
        delta = 0.5 * a
        lo = -a + delta
        while pinv(lo) > z:
            delta *= 0.5
            lo = -a + delta
            if delta < 1e-305:
                raise ConvergenceError(f"cannot bracket Psi at z = {z}")
        hi = -a + 2.0 * delta if -a + 2.0 * delta < 0.0 else -0.25 * a
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if hi - lo <= 1e-17 * a:
            break
        if pinv(mid) < z:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# measure-generic operations
# ---------------------------------------------------------------------------

def rank_measure(measure):
    """Normalized rank alpha in [0, 1] (fraction of nonzero spectrum)."""
    return measure.alpha


def psi_transform(measure, z):
    """Psi(z) = integral of z x / (1 - z x) dP(x), for z < 0."""
    if z >= 0.0:
        raise DomainError(f"Psi requires z < 0, got {z}")
    if isinstance(measure, SpectralFamily):
        return measure.psi(z)
    return _psi_empirical(measure.eigenvalues, z)


def psi_inverse(measure, y):
    """The unique z < 0 with Psi(z) = y, for y strictly inside (-alpha, 0)."""
    alpha = rank_measure(measure)
    if not -alpha < y < 0.0:
        raise DomainError(f"psi_inverse requires y in (-{alpha}, 0), got {y}")
    if isinstance(measure, SpectralFamily):
        return measure.psi_inverse(y)
    return _invert_psi_empirical(measure, y)


def s_transform(measure, z):
    """S(z) = (z + 1)/z * Psi^{-1}(z) on (-alpha, 0); positive there."""
    alpha = rank_measure(measure)
    if not -alpha < z < 0.0:
        raise DomainError(f"S-transform requires z in (-{alpha}, 0), got {z}")
    if isinstance(measure, SpectralFamily):
        return measure.s_transform(z)
    return (z + 1.0) / z * _invert_psi_empirical(measure, z)


def eta_transform(measure, gamma):
    """eta(gamma) = integral of 1/(1 + gamma x) dP(x); decreasing, eta(0+) = 1."""
    if gamma <= 0.0:
        raise DomainError(f"eta requires gamma > 0, got {gamma}")
    if isinstance(measure, SpectralFamily):
        return measure.eta(gamma)
    return float(np.mean(1.0 / (1.0 + gamma * measure.eigenvalues)))


def eta_inverse(measure, t):
    """gamma > 0 with eta(gamma) = t, for t in the open range (1 - alpha, 1)."""
    alpha = rank_measure(measure)
    if not 1.0 - alpha < t < 1.0:
        raise DomainError(
            f"eta_inverse requires t in ({1.0 - alpha}, 1), got {t}")
    if isinstance(measure, SpectralFamily):
        return measure.eta_inverse(t)
    return -_invert_psi_empirical(measure, t - 1.0)


def log_mean(measure):
    """Mean of log2 over the nonzero spectrum, in bits.

    Evaluated through the S-transform identity
    mean(log2) = -integral_0^1 log2 S(-z) dz applied to the restricted law;
    the integrand's endpoint log singularity is handled by substitution.
    """
    m = measure.restricted()
    span_clamp = 1e-18

    def integrand(z):
        z = max(z, span_clamp)
        return math.log2(s_transform(m, -z))

    return -integrate_log_singular_upper(integrand, 0.0, 1.0)


def entropy_integral_check(p):
    """Quadrature self-test: integral_0^p log2((1-z)/(p-z)) dz equals H(p)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"requires p in (0, 1), got {p}")

    def integrand(z):
        return math.log2((1.0 - z) / (p - z))

    return integrate_log_singular_upper(integrand, 0.0, p)
