#!/usr/bin/env python3
"""A tour of the spectral transform calculus on analytic and sampled laws.

Shows Psi/S/eta round trips, the projector-scaling and free-product rules
verified against a sampled 1024-dim spectrum, and the two independent
multiplexing-rate routes (harmonic-mean integral vs S-transform integral)
agreeing to quadrature precision.
"""

import numpy as np

from freemimo import (
    EmpiricalSpectrum,
    EnsembleSpec,
    ProjectorScaled,
    ProjectorSpec,
    SquareIidGram,
    apply_projector,
    empirical_spectrum,
    multiplexing_rate_harmonic,
    multiplexing_rate_s,
    sample_matrix,
)

MP = SquareIidGram(1.0)


def main():
    print("S-transform of the square iid Gram law: S(z) = 1/(1+z)")
    for z in (-0.75, -0.5, -0.25):
        print(f"  S({z:+.2f}) = {MP.s_transform(z):.6f}   "
              f"m_hat({-z:.2f}) = {1.0 / MP.s_transform(z):.6f}")

    print("\nround trips on the negative axis")
    y = MP.psi(-2.0)
    print(f"  Psi(-2) = {y:.6f}; Psi^-1 back: {MP.psi_inverse(y):.6f}")
    t = MP.eta(5.0)
    print(f"  eta(5) = {t:.6f}; eta^-1 back: {MP.eta_inverse(t):.6f}")

    print("\nprojector scaling on a sampled 1024-dim spectrum")
    h = sample_matrix(EnsembleSpec("iid_complex_gaussian", 1024, 1024, 1.0), 9)
    hp = apply_projector(h, ProjectorSpec("receive", 0.5))
    nonzero = EmpiricalSpectrum(
        np.maximum(np.linalg.eigvalsh(hp @ hp.conj().T), 0.0))
    for z in (-0.5, -0.25):
        print(f"  sampled S({z:+.2f}) = {nonzero.s_transform(z):.4f}   "
              f"rule S(beta z) = {MP.s_transform(0.5 * z):.4f}")

    print("\nfree product rule on a sampled two-factor product")
    spec = empirical_spectrum(EnsembleSpec("product_iid", 1024, 1024, 1.0,
                                           factors=2), 10)
    print(f"  sampled S(-0.5) = {spec.s_transform(-0.5):.4f}   "
          f"analytic = {MP.s_transform(-0.5) ** 2:.4f}")

    print("\nlog-spectrum mean via the S-transform integral")
    print(f"  square iid law: {MP.log_mean():.9f}  (exactly -log2 e)")

    print("\ntwo routes to the multiplexing rate after keeping half the rows")
    for gamma in (1.0, 100.0):
        harmonic = multiplexing_rate_harmonic(MP, 0.5, gamma)
        s_route = multiplexing_rate_s(ProjectorScaled(MP, 0.5), gamma)
        print(f"  gamma={gamma:>6}: harmonic {harmonic:+.9f}   "
              f"S-integral {s_route:+.9f}")


if __name__ == "__main__":
    main()
