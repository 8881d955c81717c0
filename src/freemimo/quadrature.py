"""Adaptive Gauss-Kronrod quadrature with log-endpoint handling.

The integrals evaluated throughout this library are one-dimensional, smooth in
the interior, and at worst carry an integrable logarithmic singularity at one
endpoint.  A 7/15-point Gauss-Kronrod pair drives the adaptive refinement; for
a log-singular upper endpoint the substitution u = -log((b - z)/(b - a)) maps
the integral onto a decaying smooth integrand on [0, MAX_U].
"""

import math

from .errors import QuadratureError

# 15-point Kronrod abscissae (positive half) and weights; the 7 Gauss nodes
# are embedded at indices 1, 3, 5, 7.
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

# Truncation point for the exponential substitution.  A log-type endpoint
# singularity contributes at most ~(u + 1) e^(-u) beyond u, i.e. < 1e-13.
MAX_U = 34.0

_DEFAULT_ABS_TOL = 1e-10
_DEFAULT_REL_TOL = 1e-10
_MAX_LEVELS = 20
_MAX_PANELS = 2048


def kronrod_panel(f, a, b):
    """Single 15-point Kronrod panel on [a, b]; returns (value, error_estimate).

    The nodes are evaluated from the outermost pair inwards, the centre
    last, and each sum is added left to right from 0.0 with plain ``+``,
    so its rounding is that of a running total.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    s0, s1, s2, s3, s4, s5, s6 = [f(mid + half * x) + f(mid - half * x)
                                  for x in _XGK[:7]]
    fc = f(mid)
    k0, k1, k2, k3, k4, k5, k6, k7 = _WGK
    g0, g1, g2, g3 = _WG
    kronrod = (0.0 + k0 * s0 + k1 * s1 + k2 * s2 + k3 * s3 + k4 * s4
               + k5 * s5 + k6 * s6 + k7 * fc)
    gauss = 0.0 + g0 * s1 + g1 * s3 + g2 * s5 + g3 * fc
    value = kronrod * half
    delta = abs(kronrod - gauss) * abs(half)
    err = min(delta, (200.0 * delta) ** 1.5) if delta > 0.0 else 0.0
    return value, max(err, 5e-16 * abs(value))


def integrate(f, a, b, abs_tol=_DEFAULT_ABS_TOL, rel_tol=_DEFAULT_REL_TOL,
              max_levels=_MAX_LEVELS, initial_splits=1):
    """Adaptively integrate f on [a, b] by bisecting the worst panel.

    Raises QuadratureError if the tolerance cannot be met within the
    refinement budget (max_levels bisection depth per panel).
    """
    if b == a:
        return 0.0
    if b < a:
        return -integrate(f, b, a, abs_tol, rel_tol, max_levels, initial_splits)

    panels = []
    for i in range(initial_splits):
        lo = a + (b - a) * i / initial_splits
        hi = a + (b - a) * (i + 1) / initial_splits
        val, err = kronrod_panel(f, lo, hi)
        panels.append((lo, hi, val, err, 0))

    while True:
        total = math.fsum(p[2] for p in panels)
        total_err = math.fsum(p[3] for p in panels)
        if total_err <= max(abs_tol, rel_tol * abs(total)):
            return total

        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        lo, hi, _, _, depth = panels[worst]
        if depth >= max_levels or len(panels) >= _MAX_PANELS:
            raise QuadratureError(
                f"quadrature did not converge on [{a}, {b}]: "
                f"error {total_err:.3e} after {len(panels)} panels"
            )
        mid = 0.5 * (lo + hi)
        lval, lerr = kronrod_panel(f, lo, mid)
        rval, rerr = kronrod_panel(f, mid, hi)
        panels[worst] = (lo, mid, lval, lerr, depth + 1)
        panels.append((mid, hi, rval, rerr, depth + 1))


def integrate_log_singular_upper(f, a, b):
    """Integrate f on [a, b] where f may diverge logarithmically at z -> b.

    Substitutes u = -log((b - z)/(b - a)), so z = b - (b - a) e^(-u) and the
    singular endpoint is pushed to u = infinity; the transformed integrand
    decays like u e^(-u) and is truncated at MAX_U (tail below 1e-13).
    """
    if b <= a:
        if b == a:
            return 0.0
        raise ValueError("requires b > a")
    span = b - a

    def g(u):
        w = math.exp(-u)
        return f(b - span * w) * span * w

    return integrate(g, 0.0, MAX_U, initial_splits=4)
