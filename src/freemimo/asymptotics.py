"""Closed-form large-system results: binary entropy loss and the deviation
of mutual information from linear growth in the number of antennas.

The receive-side loss formulas hold for any full-rank, unitarily invariant
channel with antenna ratio phi = T/R <= 1 when a fraction 1 - beta of
receive antennas is removed (beta >= phi keeps the projected system full
rank); the transmit-side variant covers phi >= 1.  The deviation from
linear growth is a property of a square full-rank Gram law, expressed as an
S-transform ratio integral, and is additive under free multiplication.
"""

import math

from .errors import DomainError, is_integer
from .spectra import FreeProduct, binary_entropy


def binary_entropy_loss(phi, beta):
    """High-SNR mutual information loss per transmit antenna from keeping a
    beta-fraction of receive antennas: H(phi)/phi - (beta/phi) H(phi/beta).

    Requires 0 < phi <= 1 and phi <= beta <= 1; zero exactly at beta = 1.
    """
    if not 0.0 < phi <= 1.0:
        raise DomainError(f"receive-side loss requires 0 < phi <= 1, got {phi}")
    if not phi <= beta <= 1.0:
        raise DomainError(
            f"receive-side loss requires phi <= beta <= 1, got beta={beta}")
    if beta == 1.0:
        return 0.0
    return binary_entropy(phi) / phi - (beta / phi) * binary_entropy(phi / beta)


def square_system_loss(phi):
    """Loss per receive antenna when trimming a phi < 1 system square: H(phi)."""
    if not 0.0 < phi < 1.0:
        raise DomainError(f"requires 0 < phi < 1, got {phi}")
    return binary_entropy(phi)


def transmit_side_loss(phi, beta):
    """High-SNR loss per reference transmit antenna from keeping a
    beta-fraction of transmit antennas: H(1/phi) - beta H(1/(phi beta)).

    Requires phi >= 1 and 1/phi <= beta <= 1; the receive-side formula with
    phi replaced by 1/phi, renormalized.
    """
    if phi < 1.0:
        raise DomainError(f"transmit-side loss requires phi >= 1, got {phi}")
    if not 1.0 / phi <= beta <= 1.0 + 1e-15:
        raise DomainError(
            f"transmit-side loss requires 1/phi <= beta <= 1, got beta={beta}")
    if beta >= 1.0:
        return 0.0
    return binary_entropy(1.0 / phi) - beta * binary_entropy(1.0 / (phi * beta))


def deviation_from_linear(family, beta):
    """Deviation of mutual information growth from linearity, in bits per
    antenna: -beta * integral_0^1 log2[ S(-beta z) / S(-z) ] dz, which is
    (beta L(1) - L(beta)) / ln 2 with L the family's ``log_s_integral``.

    ``family`` must be a square Gram law of full rank: L(1) raises
    DomainError where alpha < 1.  Zero at beta = 1 and for Dirac laws.
    """
    if not 0.0 < beta <= 1.0:
        raise DomainError(f"requires beta in (0, 1], got {beta}")
    return ((beta * family.log_s_integral(1.0) - family.log_s_integral(beta))
            / math.log(2.0))


def deviation_iid(beta):
    """Deviation for a square iid channel: (beta - 1) log2(1 - beta),
    equivalently H(beta) + beta log2(beta); 0 at both endpoints."""
    if not 0.0 < beta <= 1.0:
        raise DomainError(f"requires beta in (0, 1], got {beta}")
    if beta == 1.0:
        return 0.0
    return (beta - 1.0) * math.log2(1.0 - beta)


def deviation_product_iid(m, beta):
    """Deviation for a product of m independent square iid factors: the
    single-factor deviation scales linearly in m.  ``m`` is any integer
    but a bool."""
    if not is_integer(m) or m < 1:
        raise DomainError(f"requires integer m >= 1, got {m}")
    return int(m) * deviation_iid(beta)


def deviation_additivity_check(f, g, beta):
    """Both sides of the additivity law for free products.

    Returns (deviation of the free product, sum of factor deviations) so the
    caller can assert closeness.
    """
    lhs = deviation_from_linear(FreeProduct(f, g), beta)
    rhs = deviation_from_linear(f, beta) + deviation_from_linear(g, beta)
    return lhs, rhs
