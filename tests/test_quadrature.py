import math

import pytest

from freemimo import quadrature as quad
from freemimo.errors import QuadratureError
from freemimo.quadrature import (
    integrate,
    integrate_log_singular_upper,
    kronrod_panel,
)


def test_panel_exact_on_low_degree_polynomials():
    # 15-point Kronrod integrates polynomials up to degree 22 exactly.
    val, err = kronrod_panel(lambda x: 7 * x**6 - x**3 + 2, -1.0, 3.0)
    exact = (3.0**7 - (-1.0) ** 7) - (3.0**4 - 1.0) / 4 + 2 * 4.0
    assert abs(val - exact) < 1e-10 * abs(exact)
    assert err < 1e-8


def test_adaptive_matches_closed_forms():
    assert abs(integrate(math.sin, 0.0, math.pi) - 2.0) < 1e-12
    assert abs(integrate(lambda x: math.exp(-x), 0.0, 50.0) - 1.0) < 1e-10


def test_reversed_and_empty_intervals():
    assert integrate(lambda x: x, 1.0, 1.0) == 0.0
    assert abs(integrate(lambda x: x, 2.0, 0.0) + 2.0) < 1e-12


def test_log_endpoint_singularity():
    # integral_0^1 ln(1 - z) dz = -1
    val = integrate_log_singular_upper(lambda z: math.log(1.0 - z), 0.0, 1.0)
    assert abs(val + 1.0) < 1e-10


def test_log_endpoint_on_subinterval():
    # integral_0^p log2((1-z)/(p-z)) dz has its singularity at z = p.
    p = 0.37
    val = integrate_log_singular_upper(
        lambda z: math.log2((1.0 - z) / (p - z)), 0.0, p)
    h = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
    assert abs(val - h) < 1e-10


def test_scaling_of_singular_weight():
    # integral_0^b ln(b - z) dz = b (ln b - 1)
    for b in (0.2, 1.0, 3.0):
        val = integrate_log_singular_upper(lambda z: math.log(b - z), 0.0, b)
        assert abs(val - b * (math.log(b) - 1.0)) < 1e-9


def test_budget_exhaustion_raises():
    with pytest.raises(QuadratureError):
        integrate(lambda x: math.sin(1.0 / x), 1e-9, 1.0,
                  abs_tol=1e-14, rel_tol=1e-14, max_levels=3)


def test_oscillatory_integral():
    val = integrate(lambda x: math.cos(40.0 * x), 0.0, 1.0)
    assert abs(val - math.sin(40.0) / 40.0) < 1e-10


def test_vector_free_interface():
    # integrands are called with plain floats
    seen = []

    def f(x):
        seen.append(type(x))
        return x * x

    integrate(f, 0.0, 1.0)
    assert all(t is float for t in seen)
    assert abs(integrate(f, 0.0, 1.0) - 1.0 / 3.0) < 1e-12


def test_log_singular_requires_ordered_interval():
    assert integrate_log_singular_upper(lambda z: 1.0, 1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        integrate_log_singular_upper(lambda z: 1.0, 1.0, 0.0)


def _running_panel(f, a, b):
    """The Kronrod panel as a running loop over the abscissae: the
    reference order of evaluation and of addition."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    gauss = 0.0
    kronrod = 0.0
    for i, x in enumerate(quad._XGK):
        if x == 0.0:
            fx = f(mid)
            kronrod += quad._WGK[i] * fx
            gauss += quad._WG[3] * fx
            continue
        fp = f(mid + half * x)
        fm = f(mid - half * x)
        kronrod += quad._WGK[i] * (fp + fm)
        if i % 2 == 1:
            gauss += quad._WG[i // 2] * (fp + fm)
    value = kronrod * half
    delta = abs(kronrod - gauss) * abs(half)
    err = min(delta, (200.0 * delta) ** 1.5) if delta > 0.0 else 0.0
    return value, max(err, 5e-16 * abs(value))


def _log_singular_g(monkeypatch):
    """The integrand g(u) that integrate_log_singular_upper hands to
    integrate for the entropy integral at p = 0.3."""
    captured = []
    monkeypatch.setattr(quad, "integrate",
                        lambda g, *args, **kwargs: captured.append(g) or 0.0)
    p = 0.3
    quad.integrate_log_singular_upper(
        lambda z: math.log2((1.0 - z) / (p - z)), 0.0, p)
    monkeypatch.undo()
    return captured[0]


def test_panel_matches_the_running_loop_bit_for_bit(monkeypatch):
    g = _log_singular_g(monkeypatch)
    cases = [
        (math.sin, 0.0, math.pi),
        (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0),
        (lambda x: 7 * x**6 - x**3 + 2, 3.0, -1.0),  # reversed
        (math.exp, 0.5, -2.25),  # reversed
        (lambda x: -0.0, 0.0, 1.0),  # the sum starts at +0.0
        *[(g, lo, lo + 8.5) for lo in (0.0, 8.5, 17.0, 25.5)],
        (g, 0.0, 1e-3),
    ]
    for f, a, b in cases:
        nodes = [[], []]

        def recording(k):
            return lambda x: nodes[k].append(x) or f(x)

        got = quad.kronrod_panel(recording(0), a, b)
        want = _running_panel(recording(1), a, b)
        assert [v.hex() for v in got] == [v.hex() for v in want], (a, b)
        assert nodes[0] == nodes[1]
