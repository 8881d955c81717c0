"""Exact reference values that the benchmark checks job outputs against.

Two kinds of oracle, both written here independently of freemimo so that a
change to the library cannot move both sides of a check:

* finite-size Wishart moments.  For an iid complex Gaussian R x T channel
  (T <= R), log det(H^H H) is a sum of independent log-Gamma variables
  (Goodman 1963; Bartlett decomposition), so the high-SNR paired losses and
  deviations have exact means and variances in digamma / trigamma terms;
* closed forms of the large-system transforms of the square iid Gram law,
  its row-removed version and its free products.
"""

import functools
import math

LN2 = math.log(2.0)
_EULER_GAMMA = 0.57721566490153286


@functools.lru_cache(maxsize=None)
def digamma(x):
    """psi(x) for a positive integer or half-integer x."""
    twice = round(2.0 * x)
    if twice < 1 or abs(2.0 * x - twice) > 1e-9:
        raise ValueError(
            f"digamma oracle needs a positive (half-)integer, got {x}")
    n = twice // 2
    if twice % 2 == 0:
        return -_EULER_GAMMA + math.fsum(1.0 / k for k in range(1, n))
    return (-_EULER_GAMMA - 2.0 * LN2
            + math.fsum(2.0 / (2 * k - 1) for k in range(1, n + 1)))


@functools.lru_cache(maxsize=None)
def trigamma(n):
    """psi'(n) for a positive integer n."""
    return math.pi ** 2 / 6.0 - math.fsum(1.0 / (k * k) for k in range(1, n))


def kept_count(beta, dim):
    """Rows a beta-projector keeps: round half up, at least one."""
    return max(1, int(math.floor(beta * dim + 0.5)))


def paired_loss(rows, cols, kept, real=False):
    """Exact mean of the high-SNR paired loss per transmit antenna,
    (1/T) [log2 det(H^H H) - log2 det(H_k^H H_k)], where H_k keeps the first
    ``kept`` of ``rows`` rows.  Entry scale cancels.  Real entries give
    chi-square degrees of freedom at half the complex count."""
    half = 0.5 if real else 1.0
    return math.fsum(digamma(half * (rows - i)) - digamma(half * (kept - i))
                     for i in range(cols)) / (cols * LN2)


def deviation_moments(n, kept, factors=1):
    """Exact mean and per-trial variance of the paired high-SNR deviation
    estimate of an n x n iid complex channel (or a product of ``factors``
    independent ones) with ``kept`` rows kept:
    (1/n) [log2 det(G_kept) - (kept/n) log2 det(G_full)].
    With G = L L^H the log-Cholesky terms are independent, so both moments
    are digamma / trigamma sums; a product adds one independent copy per
    factor."""
    f = kept / n
    mean = (math.fsum(digamma(n - i) for i in range(kept))
            - f * math.fsum(digamma(n - i) for i in range(n))) / (n * LN2)
    var = ((1.0 - f) ** 2 * math.fsum(trigamma(n - i) for i in range(kept))
           + f ** 2 * math.fsum(trigamma(n - i) for i in range(kept, n))
           ) / (n * LN2) ** 2
    return factors * mean, factors * var


def binary_entropy(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def binary_entropy_loss(phi, beta):
    return (binary_entropy(phi) / phi
            - (beta / phi) * binary_entropy(phi / beta))


def deviation_iid(beta):
    return (beta - 1.0) * math.log2(1.0 - beta)


def multiplexing_rate_rows(beta, gamma):
    """Multiplexing rate of the unit square iid law after keeping a
    beta-fraction of rows, per original antenna:
    beta log2(gamma) + integral_0^beta log2(1 - t) dt."""
    return beta * math.log2(gamma) - ((1.0 - beta) * math.log1p(-beta)
                                      + beta) / LN2


def eta_free_product(gamma, m):
    """eta(gamma) of the free product of m unit square iid laws: the root in
    (0, 1) of gamma eta^(m+1) + eta - 1 = 0 (increasing in eta)."""
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if gamma * mid ** (m + 1) + mid - 1.0 > 0.0:
            hi = mid
        else:
            lo = mid


def mi_free_product(gamma, m):
    """Mutual information (bits) of the free product of m unit square iid
    laws: integrating (1 - eta)/gamma in the variable eta gives
    [-(m+1) ln eta - m (1 - eta)] / ln 2."""
    eta = eta_free_product(gamma, m)
    return (-(m + 1) * math.log(eta) - m * (1.0 - eta)) / LN2


def eta_projector_scaled(gamma, beta):
    """eta(gamma) of the unit square iid law with a beta-fraction of rows
    kept (S(z) = 1/(z + beta)): root of gamma eta (eta - c) = 1 - eta in
    (c, 1), c = 1 - beta, written without cancellation."""
    b = 1.0 - gamma * (1.0 - beta)
    root = math.sqrt(b * b + 4.0 * gamma)
    if b >= 0.0:
        return 2.0 / (root + b)
    return (root - b) / (2.0 * gamma)


def mi_projector_scaled(gamma, beta):
    """Mutual information (bits) of that law:
    [-ln eta - beta ln((eta - c)/beta) - (1 - eta)] / ln 2."""
    eta = eta_projector_scaled(gamma, beta)
    c = 1.0 - beta
    return (-math.log(eta) - beta * math.log((eta - c) / beta)
            - (1.0 - eta)) / LN2
