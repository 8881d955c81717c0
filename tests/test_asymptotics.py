import math

import numpy as np
import pytest

from freemimo import asymptotics as asy
from freemimo import spectra as sp
from freemimo.errors import DomainError
from freemimo.quadrature import integrate_log_singular_upper

MP = sp.SquareIidGram(1.0)


# ---------------------------------------------------------------------------
# binary entropy loss (receive side)
# ---------------------------------------------------------------------------

def test_loss_examples():
    # 4 bits total for the 4x2 system trimmed square
    assert abs(asy.binary_entropy_loss(0.5, 0.5) - 2.0) < 1e-14
    assert asy.binary_entropy_loss(0.3, 1.0) == 0.0
    assert abs(asy.binary_entropy_loss(0.5, 0.75) - 0.6225562489182657) < 1e-12


def test_loss_against_s_integral_route():
    # The same loss as a universal projector S-transform integral:
    # integral_0^1 log2((1 - phi z)/(beta - phi z)) dz.
    for phi, beta in ((0.5, 0.75), (0.25, 0.5), (0.8, 0.9), (0.5, 0.5)):
        via_integral = integrate_log_singular_upper(
            lambda z: math.log2((1.0 - phi * z) / (beta - phi * z)), 0.0, 1.0)
        assert abs(via_integral - asy.binary_entropy_loss(phi, beta)) < 1e-8


def test_loss_domain():
    for phi, beta in ((0.0, 0.5), (1.5, 1.0), (0.5, 0.4), (0.5, 1.1)):
        with pytest.raises(DomainError):
            asy.binary_entropy_loss(phi, beta)


def test_loss_monotone_decreasing_in_beta():
    phi = 0.4
    betas = np.linspace(phi, 1.0, 20)
    vals = [asy.binary_entropy_loss(phi, b) for b in betas]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == 0.0
    assert all(v >= 0.0 for v in vals)


def test_square_system_loss():
    assert asy.square_system_loss(0.5) == 1.0
    assert abs(asy.square_system_loss(1.0 / 3.0) - sp.binary_entropy(1.0 / 3.0)) < 1e-15
    assert asy.square_system_loss(1e-9) < 1e-7
    # per-receive-antenna renormalization of the per-transmit formula
    for phi in (0.2, 0.5, 0.8):
        assert abs(asy.square_system_loss(phi)
                   - phi * asy.binary_entropy_loss(phi, phi)) < 1e-14
    with pytest.raises(DomainError):
        asy.square_system_loss(1.0)


def test_transmit_side_loss():
    assert abs(asy.transmit_side_loss(2.0, 0.5) - 1.0) < 1e-14
    assert asy.transmit_side_loss(3.0, 1.0) == 0.0
    assert asy.transmit_side_loss(1.0, 1.0) == 0.0
    with pytest.raises(DomainError):
        asy.transmit_side_loss(0.5, 1.0)
    with pytest.raises(DomainError):
        asy.transmit_side_loss(2.0, 0.25)


def test_transmit_side_is_reciprocal_substitution():
    # receive-side formula at phi' = 1/phi, rescaled by phi'
    for phi in (1.25, 2.0, 4.0):
        for beta in (1.0 / phi, 0.6, 0.9, 1.0):
            if beta < 1.0 / phi:
                continue
            recip = 1.0 / phi
            expected = recip * asy.binary_entropy_loss(recip, beta)
            assert abs(asy.transmit_side_loss(phi, beta) - expected) < 1e-12


# ---------------------------------------------------------------------------
# deviation from linear growth
# ---------------------------------------------------------------------------

def test_deviation_examples():
    for beta in (0.1, 0.5, 0.9):
        assert asy.deviation_from_linear(sp.Dirac(1.0), beta) == 0.0
    assert abs(asy.deviation_from_linear(MP, 0.5) - 0.5) < 1e-9
    assert abs(asy.deviation_from_linear(sp.FreeProduct(MP, MP), 0.5) - 1.0) < 1e-9


def test_deviation_beta_one_is_zero():
    assert asy.deviation_from_linear(MP, 1.0) == 0.0
    assert asy.deviation_iid(1.0) == 0.0


def test_deviation_matches_iid_closed_form():
    for beta in np.arange(0.1, 0.95, 0.1):
        assert abs(asy.deviation_from_linear(MP, beta)
                   - asy.deviation_iid(beta)) < 1e-9


def test_deviation_scale_invariance():
    for sigma2 in (0.25, 1.0, 7.0):
        fam = sp.SquareIidGram(sigma2)
        assert abs(asy.deviation_from_linear(fam, 0.4)
                   - asy.deviation_iid(0.4)) < 1e-9


def test_deviation_requires_full_rank():
    # A rank-deficient law fails the bound check of L(1): any alpha < 1,
    # however close to 1, and at beta = 1 too.
    for family, beta in [(sp.BernoulliProjector(0.5), 0.5),
                         (sp.ProjectorScaled(MP, 1.0 - 1e-13), 0.5),
                         (sp.BernoulliProjector(0.5), 1.0)]:
        with pytest.raises(DomainError, match=r"bound 1\.0 outside \[0, "):
            asy.deviation_from_linear(family, beta)
    with pytest.raises(DomainError, match="beta"):
        asy.deviation_from_linear(MP, 0.0)


def test_deviation_iid_values():
    assert asy.deviation_iid(0.5) == 0.5
    assert abs(asy.deviation_iid(0.9) - 0.33219280948873623) < 1e-12
    assert asy.deviation_iid(1e-12) < 1e-11
    # equivalent form H(beta) + beta log2 beta
    for beta in (0.2, 0.5, 0.8):
        alt = sp.binary_entropy(beta) + beta * math.log2(beta)
        assert abs(asy.deviation_iid(beta) - alt) < 1e-12


def test_deviation_product():
    assert asy.deviation_product_iid(1, 0.5) == 0.5
    assert asy.deviation_product_iid(3, 0.5) == 1.5
    assert abs(asy.deviation_product_iid(2, 0.9) - 0.6643856189774725) < 1e-12
    with pytest.raises(DomainError):
        asy.deviation_product_iid(0, 0.5)
    # Any integer counts factors, numpy's too; a bool is not a count.
    assert asy.deviation_product_iid(np.int64(2), 0.5) == 1.0
    for m in (True, False, 2.0):
        with pytest.raises(DomainError):
            asy.deviation_product_iid(m, 0.5)


def _quadrature_deviation(family, beta):
    """(beta L(1) - L(beta)) / ln 2 with L by the generic quadrature, which
    for a free product integrates the numeric product of S-transforms."""
    def quad_l(x):
        return sp.SpectralFamily._log_s_integral(family, x)
    return (beta * quad_l(1.0) - quad_l(beta)) / math.log(2.0)


def _additivity(f, g, beta):
    """The deviation of the free product and the sum of its factors'."""
    return (asy.deviation_from_linear(sp.FreeProduct(f, g), beta),
            asy.deviation_from_linear(f, beta)
            + asy.deviation_from_linear(g, beta))


def test_additivity_check():
    lhs, rhs = _additivity(sp.Dirac(1.0), sp.Dirac(1.0), 0.5)
    assert lhs == 0.0 and rhs == 0.0
    lhs, rhs = _additivity(MP, MP, 0.5)
    assert abs(lhs - 1.0) < 1e-9 and abs(lhs - rhs) < 1e-9
    lhs, rhs = _additivity(MP, sp.Dirac(2.0), 0.5)
    assert abs(lhs - 0.5) < 1e-9 and abs(lhs - rhs) < 1e-9
    # The closed-form product deviation sums its factors' ln S integrals,
    # so additivity above holds by construction; the quadrature route
    # does not sum.
    for f, g in ((MP, MP), (MP, sp.Dirac(2.0)),
                 (sp.SquareIidGram(3.0), sp.FreeProduct(MP, MP))):
        for beta in (0.25, 0.5, 0.9):
            lhs = asy.deviation_from_linear(sp.FreeProduct(f, g), beta)
            assert abs(lhs - _quadrature_deviation(sp.FreeProduct(f, g),
                                                   beta)) < 1e-9
