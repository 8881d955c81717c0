"""Mutual information, its high-SNR decomposition, and water-filling capacity.

All information quantities are in bits and, unless stated otherwise,
normalized per transmit antenna (per column of the channel matrix): the
Gram spectrum of an R x T channel H is the T eigenvalues of H^H H and

    I(gamma) = mean over that spectrum of log2(1 + gamma * lambda).

At high SNR this splits into the multiplexing rate plus a vanishing
remainder.  The rate of every measure, family or draw, is alpha times
log2(gamma) plus the mean of log2 over the nonzero spectrum; it never forms
gamma * lambda.  A finite channel H's rate is log2 det(gamma G) over its
smaller-side Gram G instead, -inf when H is singular.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spectra import EmpiricalSpectrum

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class InfoDecomposition:
    """Mutual information split I = I0 + delta at a given linear SNR."""

    mutual_info: float
    multiplexing_rate: float
    delta: float
    snr: float


def _check_gamma(gamma):
    """DomainError unless gamma is a finite SNR > 0 (NaN and inf fail)."""
    if not 0.0 < gamma < math.inf:
        raise DomainError(f"requires finite gamma > 0, got {gamma}")


def mutual_info_measure(measure, gamma):
    """Mean of log2(1 + gamma x) over a spectrum, in bits per transmit antenna.

    Empirical spectra are averaged directly.  An analytic family takes one
    Psi solve, y = Psi(-gamma), and one integral of ln S: substituting
    y = Psi(-x) in I ln 2 = integral_0^gamma -Psi(-x) dx/x, integrating by
    parts and using Psi^{-1}(y) = -gamma gives

        I(gamma) = -y log2(gamma) + H(-y) - integral_0^{-y} log2 S(-z) dz,

    which is stationary in y, so the rounding of y moves it only to second
    order, even where alpha + y is about alpha/gamma.
    """
    _check_gamma(gamma)
    if isinstance(measure, EmpiricalSpectrum):
        return float(np.mean(_log2_one_plus(gamma, measure.eigenvalues)))
    return _s_rate(measure, -measure.psi(-gamma), gamma)


def _s_rate(family, x, gamma):
    """x log2(gamma) + H(x) - integral_0^x log2 S(-z) dz at x = -Psi(-gamma),
    a family's mutual information: 0 where x underflows to 0.  (1 - x)
    ln(1 - x) is 0 at x = 1, and log1p keeps H(x) accurate for tiny x."""
    tail = (1.0 - x) * math.log1p(-x) if x < 1.0 else 0.0
    return (x * (math.log(gamma) - math.log(x)) - tail
            - family.log_s_integral(x)) / _LN2 if x != 0.0 else 0.0


def decompose(measure, gamma):
    """Split mutual information into I0 + delta, where I0 is the
    multiplexing rate and delta vanishes as gamma grows: I - I0 for a
    family; for a draw, log2(1 + 1/(gamma lambda)) summed over its nonzero
    eigenvalues, per antenna, which I - I0 would lose to cancellation."""
    mi = mutual_info_measure(measure, gamma)
    i0 = multiplexing_rate_s(measure, gamma)
    if not isinstance(measure, EmpiricalSpectrum):
        return InfoDecomposition(mi, i0, mi - i0, gamma)
    nz = measure.nonzero
    with np.errstate(over="ignore", divide="ignore"):
        x = gamma * nz
        rest = np.log2(1.0 + 1.0 / x)
    # Below the smallest normal double, 1/(gamma lam) is inf or overflows,
    # and log2(1 + 1/(gamma lam)) is -(log2 gamma + log2 lam).
    low = x < np.finfo(float).tiny
    rest[low] = -(np.log2(gamma) + np.log2(nz[low]))
    return InfoDecomposition(mi, i0, float(np.sum(rest) / measure.total_dim),
                             gamma)


# A complex draw (or stack of draws) over this many bytes has its Gram built
# in blocks, each taking the conjugate of at most about this many bytes of
# the draw, so the Gram never holds a second full copy of it: a 1024 x 512
# draw's Gram traced 12 MiB as one product and 6.1 MiB in four blocks, for
# about 1 ms more.  A real draw's conjugate is the draw itself, and numpy
# forms h^T h as a copy-free syrk, so it stays one product.
GRAM_BLOCK_BYTES = 2 * 2 ** 20


def _gram_smaller_side(h):
    """The Gram matrix on the smaller of the two orientations, of a matrix
    or of each matrix in a stack.

    A large complex h is conjugated one block of the Gram at a time: the
    rows I of a tall draw's conj(H)^T H, or the columns J of a wide draw's
    H conj(H)^T, so each entry has the operands, and the bytes, of the one
    product.  Blocks are multiples of 64 wide, so each starts at a multiple
    of 64, and never one wide: numpy forms a one-wide block as a
    matrix-vector product, which rounds differently, so a last block of one
    joins the block before it.  A wide draw's block starting off a multiple
    of 64 moved bytes too.
    """
    r, t = h.shape[-2:]
    if not np.iscomplexobj(h) or h.nbytes <= GRAM_BLOCK_BYTES:
        hh = h.conj().swapaxes(-1, -2)
        return h @ hh if r < t else hh @ h
    n, inner = min(r, t), max(r, t)
    gram = np.empty(h.shape[:-2] + (n, n), h.dtype)
    line_bytes = h.nbytes // (r * t) * inner
    width = max(1, GRAM_BLOCK_BYTES // line_bytes // 64) * 64
    starts = list(range(0, n, width))
    if n - starts[-1] == 1 and len(starts) > 1:
        starts.pop()
    for a, b in zip(starts, starts[1:] + [n]):
        if r < t:
            np.matmul(h, h[..., a:b, :].conj().swapaxes(-1, -2),
                      out=gram[..., a:b])
        else:
            np.matmul(h[..., a:b].conj().swapaxes(-1, -2), h,
                      out=gram[..., a:b, :])
    return gram


def _channel(h):
    """h as a 2-D array with finite entries, or ValueError."""
    h = np.asarray(h)
    if h.ndim != 2:
        raise ValueError("channel matrix must be 2-dimensional")
    if not np.all(np.isfinite(h)):
        raise ValueError("channel matrix has non-finite entries")
    return h


def _log2_one_plus(gam, lam):
    """log2(1 + gam lam), broadcast; where only gam lam overflows, it is
    log2 gam + log2 lam, equal to rounding, and every other entry is kept."""
    with np.errstate(over="ignore"):
        x = gam * lam
    out = np.log2(1.0 + x)
    big = np.isinf(x)
    if big.any():
        gam, lam = np.broadcast_arrays(gam, lam)
        out[big] = np.log2(gam[big]) + np.log2(lam[big])
    return out


def _mutual_info(gram, cols, gammas, out=None):
    """(len(gammas), k) mutual information, in bits per transmit antenna of
    systems with ``cols`` of them, from a (k, n, n) stack of their Grams.

    One gamma takes a Cholesky log-det of I + gamma G, formed in ``out``
    if given; a grid, or an I + gamma G whose factor fails or is not finite
    at extreme SNR, takes the eigenvalues of G once for every gamma.
    """
    if gammas.size == 1:
        with np.errstate(over="ignore"):
            a = np.multiply(gammas[0], gram, out=out)
        a += np.eye(gram.shape[-1])
        try:
            chol = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            pass
        else:
            diag = np.diagonal(chol, axis1=-2, axis2=-1).real
            if np.isfinite(diag).all():
                return 2.0 * np.sum(np.log2(diag), axis=1)[None, :] / cols
    w = np.maximum(np.linalg.eigvalsh(gram), 0.0)
    return np.stack([np.sum(_log2_one_plus(g, w), axis=1) for g in gammas]
                    ) / cols


def _multiplexing_rate(stack, gammas):
    """(len(gammas), k) multiplexing rate of a (k, r, t) stack of H:
    (min(r, t) log2 gamma + log2 det G) / t, G the smaller-side Gram, so an
    exactly singular H gives -inf.  log2 det G = 2 log2 |det H| is an LU
    (``slogdet``) log-det of a square H, and otherwise 2 sum log2 |R_ii| of
    a QR factorization of its tall orientation; neither squares H's
    condition number."""
    r, t = stack.shape[-2:]
    if r == t:
        logdet = 2.0 * np.linalg.slogdet(stack)[1] / _LN2
    else:
        tall = stack if r > t else stack.swapaxes(-1, -2)
        upper = np.linalg.qr(tall, mode="r")
        with np.errstate(divide="ignore"):
            logdet = 2.0 * np.sum(np.log2(np.abs(
                np.diagonal(upper, axis1=-2, axis2=-1))), axis=1)
    return (min(r, t) * np.log2(gammas)[:, None] + logdet) / t


def mutual_info_finite(h, gamma):
    """(1/T) log2 det(I + gamma H^H H), in bits per transmit antenna: the
    Monte Carlo engine's ``_mutual_info`` of H's smaller-side Gram, so it
    stays finite where I + gamma G rounds to singular or gamma G overflows.
    """
    h = _channel(h)
    _check_gamma(gamma)
    gram = _gram_smaller_side(h)[None]
    return float(_mutual_info(gram, h.shape[1], np.array([gamma]))[0, 0])


def multiplexing_rate_finite(h, gamma):
    """(1/T) log2 det(gamma G), G the min(R, T)-dimensional Gram of H: the
    Monte Carlo engine's ``_multiplexing_rate`` of H, -inf for a singular
    H.  ``multiplexing_rate_s`` takes the rate of a spectrum."""
    h = _channel(h)
    _check_gamma(gamma)
    return float(_multiplexing_rate(h[None], np.array([gamma]))[0, 0])


def multiplexing_rate_s(measure, gamma):
    """Multiplexing rate of any measure, alpha (log2(gamma) + log_mean): the
    gamma -> infinity limit of ``mutual_info_measure``.  gamma never
    multiplies an eigenvalue, so nothing overflows or underflows; an
    all-zero spectrum gives 0."""
    _check_gamma(gamma)
    a = measure.alpha
    return a * (math.log2(gamma) + measure.log_mean()) if a > 0.0 else 0.0


def harmonic_mean_measure(family, t):
    """m_hat(t) = 1 / S(-t): harmonic mean of the t-fraction row-removed law."""
    return 1.0 / family.s_transform(-t)


def multiplexing_rate_harmonic(family, beta, gamma):
    """Multiplexing rate after keeping a beta-fraction of rows, per original
    antenna: beta log2(gamma) + integral_0^beta log2 m_hat(t) dt.

    Requires a full-rank (alpha = 1) square Gram law.
    """
    _check_gamma(gamma)
    if not 0.0 < beta <= 1.0:
        raise DomainError(f"requires beta in (0, 1], got {beta}")
    if family.alpha < 1.0:
        raise DomainError("harmonic-mean route requires a full-rank law")
    return beta * math.log2(gamma) - family.log_s_integral(beta) / _LN2


def waterfilling_capacity(eigenvalues, gamma):
    """Water-filling over channel eigenmodes under (1/T) sum(q) = 1.

    Returns (capacity in bits per transmit antenna, allocation array).  The
    water level is exact: with the inverse gains sorted, filling the k
    strongest modes gives the level (T + sum of the k smallest)/k, and the
    water level is the last such level that still exceeds its own k-th
    inverse gain.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("eigenvalues must be a nonempty 1-d array")
    if not np.all((lam >= 0.0) & (lam < math.inf)):
        raise DomainError("eigenvalues must be finite and nonnegative")
    _check_gamma(gamma)
    pos = lam > 0.0
    if not np.any(pos):
        raise DomainError("water-filling needs at least one positive eigenvalue")

    t = lam.size
    with np.errstate(over="ignore"):  # 1 / inf = 0 where gamma lam overflows
        inv = 1.0 / (gamma * lam[pos])
    ranked = np.sort(inv)
    levels = (t + np.cumsum(ranked)) / np.arange(1, ranked.size + 1)
    level = levels[np.flatnonzero(levels > ranked)[-1]]

    allocation = np.zeros(t)
    allocation[pos] = np.maximum(0.0, level - inv)
    with np.errstate(over="ignore"):
        power = gamma * allocation
    rates = _log2_one_plus(power, lam)
    # gamma q is formed first, as it always was; where it overflows, the
    # rate is log2 gamma + log2 q + log2 lam.
    big = np.isinf(power)
    rates[big] = np.log2(gamma) + np.log2(allocation[big]) + np.log2(lam[big])
    return float(np.sum(rates) / t), allocation
