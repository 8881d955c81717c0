"""Spectral measures and their multiplicative free-probability transforms.

Both kinds of measure answer one protocol -- ``alpha``, ``mean``, ``psi``,
``psi_inverse``, ``s_transform``, ``eta``, ``eta_inverse``,
``log_s_integral``, ``log_mean`` and ``restricted`` -- and the module-level
transforms are one method call each:

* ``SpectralFamily`` -- a parametric limiting spectral law described by its
  analytic S-transform.  Concrete variants cover the unit-scale square iid
  Gram law, Dirac masses, Bernoulli projector spectra and free
  multiplicative products, of which the law obtained by removing a
  fraction of rows (``ProjectorScaled``) is one with a Bernoulli projector.
* ``EmpiricalSpectrum`` -- a ``SpectralFamily`` subclass holding the
  eigenvalues of a finite Gram matrix X^H X, including its zero atoms.
  Zeros are exact: an r x t draw has t - min(r, t) structural zero
  eigenvalues, which ``montecarlo.empirical_spectrum`` appends to the
  smaller-side Gram spectrum, so no rank threshold is needed.  The nonzero
  eigenvalues are found once per spectrum; Psi and eta are direct sums over
  them (a zero atom adds 0 to Psi and 1 to eta), Psi^{-1} inverts Psi, and
  ``log_mean`` is the direct mean of log2.

Each public transform is defined once, on ``SpectralFamily``: it checks
its argument, NaN included, takes the limits Psi(-inf) = -alpha and
eta(inf) = 1 - alpha, and calls an unchecked kernel (``_s``, ``_psi``,
``_psi_inverse``, ``_eta``, ``_log_s_integral``), which a measure replaces
where it has a closed form.  Inside the library kernels call kernels (a
free product's factors, a restricted law's base, ``mean``, ``log_mean`` and
the quadrature nodes), so a nested law is checked once per public call.

Conventions.  For a measure P on [0, inf) with zero-atom mass 1 - alpha:

    Psi(z)   = integral of z x / (1 - z x) dP(x),        z < 0
    S(z)     = (z + 1)/z * Psi^{-1}(z),                  -alpha < z < 0
    eta(g)   = integral of 1 / (1 + g x) dP(x) = 1 + Psi(-g),   g > 0

S is positive and the natural companion of log-spectrum integrals: the mean
of log2 over a full-rank measure equals -integral_0^1 log2 S(-z) dz.  A
measure's ``log_s_integral(x)`` is L(x) = integral_0^x ln S(-z) dz; the base
class integrates it by quadrature, and a family may supply a closed form.
Every built-in family does, from integral_0^x ln(c - z) dz; a free
product's L is the sum of its factors' (S-transforms multiply).

The generic Psi inverts the closed-form Psi^{-1}, and an empirical Psi^{-1}
inverts Psi, through one root finder: a walk seeded by Jensen's bound
|Psi(z)| <= w/(1+w), w = -z * mean, brackets the root, and a secant step
with a bisection guard narrows the bracket.  Once the bracket's two
outputs are within 4 ulps, a step that lands on either one ends the
search, since the answer at that double is already known.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DomainError
from .quadrature import integrate_log_singular_upper

LOG2E = math.log2(math.e)

# Root finding: brackets close to 4 ulps; exp overflows above _MAX_LOG.
_XTOL = 2.0 ** -50
_MAX_LOG = 709.0


def binary_entropy(p):
    """Binary entropy H(p) in bits, with the convention 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"binary_entropy requires p in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _int_log(c, x):
    """integral_0^x ln(c - z) dz for 0 < x <= c; c ln c - c at x = c."""
    if x == c:
        return c * math.log(c) - c
    return x * math.log(c) - (c - x) * math.log1p(-x / c) - x


def _s_by_public(self, z):
    """The kernel of a subclass that overrides ``s_transform`` alone."""
    return self.s_transform(z)


class SpectralFamily:
    """A spectral measure on [0, inf) described by its S-transform.

    Each public transform checks its argument and takes its limits here,
    then calls an unchecked kernel; kernels call kernels, so every public
    transform but ``s_transform`` is final, and a subclass overrides the
    kernel.  Subclasses provide ``alpha`` and ``_s``; the generic kernels
    (``_psi`` inverts Psi^{-1}, ``_log_s_integral`` is the quadrature)
    give way to closed forms.  A direct subclass may override
    ``s_transform`` alone: its kernel is then that method.
    """

    @property
    def alpha(self):
        raise NotImplementedError

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "s_transform" not in vars(cls) or "_s" in vars(cls):
            return
        # A subclass written against the public method alone composes
        # through it: its kernel is its own s_transform, checks and all.
        if cls._s is SpectralFamily._s:
            cls._s = _s_by_public
        # Over a measure's kernel, the library's kernel calls would bypass
        # the override, and its super().s_transform would come back to it
        # through _s.
        elif cls._s is not _s_by_public:
            raise TypeError(
                f"{cls.__name__} overrides s_transform over the kernel "
                f"{cls._s.__qualname__}; override _s instead")

    def _s(self, z):
        """S(z) for z already known to lie in (-alpha, 0): the kernel."""
        raise NotImplementedError

    def _psi(self, z):
        return _psi_from_inverse(self, z)

    def _psi_inverse(self, y):
        return y * self._s(y) / (y + 1.0)

    def _eta(self, gamma):
        return 1.0 + self._psi(-gamma)

    def _log_s_integral(self, x):
        """Every node lies inside (0, x); ln S may diverge logarithmically
        at z = alpha."""
        return integrate_log_singular_upper(
            lambda z: math.log(self._s(-z)), 0.0, x)

    def s_transform(self, z):
        """S(z) on (-alpha, 0), where it is positive."""
        self._check_s_domain(z)
        return self._s(z)

    def _check_s_domain(self, z):
        if not -self.alpha < z < 0.0:
            raise DomainError(
                f"S-transform argument {z} outside (-{self.alpha}, 0)")

    def psi_inverse(self, y):
        """Inverse of Psi: the unique z < 0 with Psi(z) = y, for y in (-alpha, 0)."""
        self._check_s_domain(y)
        return self._psi_inverse(y)

    def psi(self, z):
        """Psi(z) for z < 0, and its limit Psi(-inf) = -alpha."""
        if not z < 0.0:
            raise DomainError(f"Psi requires z < 0, got {z}")
        return self._psi(z) if z > -math.inf else -self.alpha

    def eta(self, gamma):
        """eta(gamma) for gamma > 0, and its limit eta(inf) = 1 - alpha."""
        if not gamma > 0.0:
            raise DomainError(f"eta requires gamma > 0, got {gamma}")
        return self._eta(gamma) if gamma < math.inf else 1.0 - self.alpha

    def eta_inverse(self, t):
        """-Psi^{-1}(t - 1), the gamma with eta(gamma) = t in (1 - alpha, 1)."""
        if not -self.alpha < t - 1.0 < 0.0:
            raise DomainError(
                f"eta_inverse requires t in ({1.0 - self.alpha}, 1), got {t}")
        return -self._psi_inverse(t - 1.0)

    def log_s_integral(self, x):
        """L(x) = integral_0^x ln S(-z) dz in nats, for 0 <= x <= alpha."""
        if not 0.0 <= x <= self.alpha:
            raise DomainError(
                f"ln S integral bound {x} outside [0, {self.alpha}]")
        return self._log_s_integral(x)

    def log_mean(self):
        """Mean of log2 over the nonzero spectrum, in bits: the S-transform
        identity mean(log2) = -integral_0^1 log2 S(-z) dz applied to the
        restricted law, that is -L(1)/ln 2."""
        return -self.restricted()._log_s_integral(1.0) / math.log(2.0)

    @cached_property
    def mean(self):
        """First moment; equals 1/S(0-)."""
        return 1.0 / self._s(-1e-12 * self.alpha)

    def restricted(self):
        """The law of nonzero spectrum mass, renormalized to a probability."""
        if self.alpha >= 1.0:
            return self
        return Restricted(self)


@dataclass(frozen=True)
class EmpiricalSpectrum(SpectralFamily):
    """Sorted eigenvalues of a Gram matrix, zero atoms included.

    Zeros are exact: every method counts rank as the eigenvalues > 0, the
    ``nonzero`` array, which is computed once and cached like ``mean``;
    ``alpha``, Psi, eta and ``restricted`` all read it.
    """

    eigenvalues: np.ndarray
    zero_tolerance = 0.0  # a class constant, not a field; bench/ reads it

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

    @property
    def total_dim(self):
        """The Gram dimension (the column count of the underlying matrix)."""
        return self.eigenvalues.size

    @cached_property
    def nonzero(self):
        """The eigenvalues > 0, read-only: every method counts rank by it."""
        nz = self.eigenvalues[self.eigenvalues > 0.0]
        nz.flags.writeable = False
        return nz

    @cached_property
    def alpha(self):
        """Normalized rank: the fraction of eigenvalues > 0."""
        return self.nonzero.size / self.total_dim

    @cached_property
    def mean(self):
        return float(np.mean(self.eigenvalues))

    def _psi(self, z):
        """Mean of z x / (1 - z x) = 1 / (1/(z x) - 1), summed over the
        nonzero eigenvalues, since a zero one contributes 0.  Where z x
        rounds to -inf or -0 the term is -1 or -0."""
        with np.errstate(over="ignore", divide="ignore"):
            terms = 1.0 / (1.0 / (z * self.nonzero) - 1.0)
        return float(np.sum(terms)) / self.total_dim

    def _psi_inverse(self, y):
        return invert_psi(self._psi, y, self.mean)

    def _s(self, z):
        return (z + 1.0) / z * self._psi_inverse(z)

    def _eta(self, gamma):
        nz = self.nonzero
        # A zero eigenvalue contributes 1.
        zeros = self.total_dim - nz.size
        return float((zeros + np.sum(1.0 / (1.0 + gamma * nz)))
                     / self.total_dim)

    def log_mean(self):
        """The direct mean of log2 over the nonzero eigenvalues."""
        nz = self.nonzero
        if nz.size == 0:
            raise DomainError("all-zero spectrum has no nonzero restriction")
        return float(np.mean(np.log2(nz)))

    def restricted(self):
        """The spectrum of nonzero eigenvalues as a full-rank measure."""
        nz = self.nonzero
        if nz.size == self.total_dim:
            return self
        if nz.size == 0:
            raise DomainError("all-zero spectrum has no nonzero restriction")
        return EmpiricalSpectrum(nz)


@dataclass(frozen=True)
class Dirac(SpectralFamily):
    """Unit mass at a positive point (e.g. the Gram law of a scaled unitary)."""

    at: float

    def __post_init__(self):
        if not self.at > 0.0:
            raise ValueError(f"Dirac location must be positive, got {self.at}")

    @property
    def alpha(self):
        return 1.0

    def _s(self, z):
        return 1.0 / self.at

    def _log_s_integral(self, x):
        return -x * math.log(self.at)

    def _psi(self, z):
        # Psi >= -alpha; where z * at overflows the ratio is inf/inf = NaN.
        return max(-1.0, z * self.at / (1.0 - z * self.at))


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

    def _s(self, z):
        return (z + 1.0) / (z + self.beta)

    def _log_s_integral(self, x):
        return _int_log(1.0, x) - _int_log(self.beta, x)

    def _psi(self, z):
        return max(self.beta * z / (1.0 - z), -self.beta)  # Psi >= -alpha


@dataclass(frozen=True)
class SquareIidGram(SpectralFamily):
    """Limiting Gram law of a square matrix with iid zero-mean entries.

    Entries of variance sigma^2/N give the unit-scale law with
    S(z) = 1 / (sigma^2 (1 + z)) and spectral support [0, 4 sigma^2].
    """

    variance: float = 1.0

    def __post_init__(self):
        if not self.variance > 0.0:
            raise ValueError(f"variance must be positive, got {self.variance}")

    @property
    def alpha(self):
        return 1.0

    def _s(self, z):
        return 1.0 / (self.variance * (1.0 + z))

    def _log_s_integral(self, x):
        return -x * math.log(self.variance) - _int_log(1.0, x)

    def _psi(self, z):
        # Stable root of s z Psi^2 + (2 s z - 1) Psi + s z = 0, s = variance;
        # Psi is -alpha below s z = -1e32; s z >= -1e300 keeps 4 s z finite.
        sz = max(-1e300, self.variance * z)
        return 2.0 * sz / (1.0 - 2.0 * sz + math.sqrt(1.0 - 4.0 * sz))


@dataclass(frozen=True)
class FreeProduct(SpectralFamily):
    """Free multiplicative product: S-transforms multiply, ranks take the min."""

    factors: tuple

    def __init__(self, *factors):
        if not factors:
            raise ValueError("FreeProduct requires at least one factor")
        object.__setattr__(self, "factors", tuple(factors))

    @cached_property
    def alpha(self):
        return min(f.alpha for f in self.factors)

    def _s(self, z):
        out = 1.0
        for f in self.factors:
            out *= f._s(z)  # z is inside every factor's domain
        return out

    def _log_s_integral(self, x):
        return math.fsum(f._log_s_integral(x) for f in self.factors)


class ProjectorScaled(FreeProduct):
    """Law of the Gram matrix after keeping a beta-fraction of rows.

    Removing rows is free multiplication by a Bernoulli projector spectrum,
    ``FreeProduct(inner, BernoulliProjector(beta))``: alpha drops to
    min(alpha_inner, beta) and S picks up the projector factor
    (z + 1)/(z + beta).  The nonzero part of this law (``restricted()``) has
    S-transform S_inner(beta z), the column-removal scaling rule.
    """

    def __init__(self, inner, beta):
        super().__init__(inner, BernoulliProjector(beta))


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

    def _s(self, z):
        a = self.base.alpha
        # S at z' = w / a, w = a z kept inside (-a, 0): near -a, w + a is
        # exact and cancels the pole of the base's S, which z + 1 would not;
        # near 0, a z may round to -0.0, outside the base kernel's domain.
        w = min(max(a * z, math.nextafter(-a, 0.0)), -math.ulp(0.0))
        return (w + a) / (w + 1.0) * self.base._s(w)

    def _log_s_integral(self, x):
        a = self.base.alpha
        return (_int_log(1.0, x) - _int_log(1.0 / a, x)
                + self.base._log_s_integral(a * x) / a)


# ---------------------------------------------------------------------------
# numeric inversion
# ---------------------------------------------------------------------------

def _log_root(g, target, x_of, u, what):
    """The x = x_of(u) with g(x) = target < 0, where log(-g(x_of(u))) grows
    with u and x_of is NaN outside g's domain.  A walk from u, whose steps
    start at the unit-slope Newton step and double, brackets the root (or
    meets a non-finite value: ConvergenceError); Illinois false position
    narrows it to a few ulps, bisecting when the secant leaves the bracket.
    It also stops once the ends' outputs are within 4 ulps and a step lands
    on one of them, where g is already known.  The root is the end whose
    residual, before Illinois halving, is smaller.
    """
    log_t = math.log(-target)

    def f(x):
        p = 0.0 if math.isnan(x) else -g(x)
        return math.log(p) - log_t if p > 0.0 else math.nan

    a, xa = u, x_of(u)
    fa = f(xa)
    step = -fa
    for _ in range(200):
        b = a + math.copysign(max(abs(step), _XTOL * max(1.0, abs(a))), step)
        xb = x_of(b)
        fb = f(xb)
        if not (math.isfinite(fa) and math.isfinite(fb)):
            raise ConvergenceError(f"cannot bracket {what}")
        if fa == 0.0 or (fb > 0.0) != (fa > 0.0):
            break
        a, xa, fa, step = b, xb, fb, 2.0 * step
    else:
        raise ConvergenceError(f"cannot bracket {what}")
    if fa > 0.0:
        a, b, xa, xb, fa, fb = b, a, xb, xa, fb, fa
    ra, rb = fa, fb  # f at a and b, never halved
    side = 0  # f(a) <= 0 < f(b); Illinois halves f at a stale end
    for _ in range(200):
        if fa == 0.0 or abs(b - a) <= _XTOL * max(1.0, abs(a), abs(b)):
            break
        c = b - fb * (b - a) / (fb - fa)
        if not min(a, b) < c < max(a, b):
            c = 0.5 * (a + b)
        xc = x_of(c)
        if xc in (xa, xb) and abs(xa - xb) <= 4.0 * math.ulp(xa):
            break
        fc = f(xc)
        if fc > 0.0:
            b, xb, fb, rb, fa = c, xc, fc, fc, 0.5 * fa if side > 0 else fa
            side = 1
        else:
            a, xa, fa, ra, fb = c, xc, fc, fc, 0.5 * fb if side < 0 else fb
            side = -1
    return xa if abs(ra) <= abs(rb) else xb


def _psi_from_inverse(family, z):
    """Psi(z) of a family: the y in (-alpha, 0) with Psi^{-1}(y) = z, solved
    for t = log(-y / (alpha + y)), in which log(-Psi^{-1}) is about linear
    at both ends, from Jensen's y = -w/(1+w), w = -z * mean, if inside.

    The walk starts at t <= 30.  Past t of about 36.7, alpha + y is below
    one ulp of alpha, and y_of saturates at ``edge``, the double of
    (-alpha, 0) nearest -alpha.  Jensen's bound on the nonzero part puts
    the root at t <= log(w / alpha), so only past 30 can it lie beyond
    edge: then, Psi^{-1} diverging at -alpha, z is at or past
    Psi^{-1}(edge), and Psi(z) is edge, which moves the mutual information,
    stationary in y, by about an ulp.  Every law has -Psi^{-1}(y) >=
    -y alpha / (m (alpha + y)) by Jensen, tight for a Dirac nonzero part;
    a Psi^{-1}(edge) short of it by more than rounding is no law's, and
    raises ConvergenceError as the walk does."""
    a, m = family.alpha, family.mean
    edge = math.nextafter(-a, 0.0)
    log_w = math.log(-z) + math.log(m)
    if log_w - math.log(a) > 30.0:
        z_edge = family.psi_inverse(edge)
        if z_edge * (1.0 + 1e-9) > edge * a / (m * (a + edge)):
            raise ConvergenceError(
                f"cannot bracket Psi at z = {z}: Psi^-1({edge}) = {z_edge} "
                f"breaks Jensen's bound")
        if z <= z_edge:
            return edge

    def y_of(t):
        y = -a / (1.0 + math.exp(-t)) if t > -_MAX_LOG else 0.0
        return (y if y > edge else edge) if y < 0.0 else math.nan

    d = a + (1.0 - a) * z * m  # alpha (1 + w) - w: > 0 iff the bound is inside
    return _log_root(family.psi_inverse, z, y_of,
                     min(log_w - math.log(d) if d > 0.0 else log_w, 30.0),
                     f"Psi at z = {z}")


def invert_psi(psi, y, mean):
    """The z < 0 with psi(z) = y, for the Psi-transform psi of a measure
    with the given mean: solved for log(-z), from the z where Jensen's bound
    |Psi(z)| <= w/(1+w), w = -z * mean, equals |y|."""
    return _log_root(
        psi, y, lambda v: -math.exp(v) if abs(v) < _MAX_LOG else math.nan,
        math.log(-y) - math.log1p(y) - math.log(mean), f"Psi = {y}")


# ---------------------------------------------------------------------------
# measure-generic operations: one method call each
# ---------------------------------------------------------------------------

def psi_transform(measure, z):
    """Psi(z) = integral of z x / (1 - z x) dP(x), for z < 0."""
    return measure.psi(z)


def psi_inverse(measure, y):
    """The unique z < 0 with Psi(z) = y, for y strictly inside (-alpha, 0)."""
    return measure.psi_inverse(y)


def s_transform(measure, z):
    """S(z) = (z + 1)/z * Psi^{-1}(z) on (-alpha, 0); positive there."""
    return measure.s_transform(z)


def eta_transform(measure, gamma):
    """eta(gamma) = integral of 1/(1 + gamma x) dP(x); decreasing, eta(0+) = 1."""
    return measure.eta(gamma)


def eta_inverse(measure, t):
    """gamma > 0 with eta(gamma) = t, for t in the open range (1 - alpha, 1)."""
    return measure.eta_inverse(t)


def log_mean(measure):
    """Mean of log2 over the nonzero spectrum, in bits: the direct mean for
    an empirical spectrum, -L(1)/ln 2 of the restricted law for a family."""
    return measure.log_mean()


def entropy_integral_check(p):
    """Quadrature self-test: integral_0^p log2((1-z)/(p-z)) dz equals H(p)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"requires p in (0, 1), got {p}")

    def integrand(z):
        return math.log2((1.0 - z) / (p - z))

    return integrate_log_singular_upper(integrand, 0.0, p)
