"""Property tests: config validation, CLI flag parsing, the closed-form
statistics of two-antenna draws, and the multiplexing-rate identity.

The validation and flag tests run no experiment: each stops at
``validate()``.
"""

import contextlib
import io
import math
import re
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from freemimo import cli
from freemimo import infotheory as it
from freemimo import montecarlo as mc
from freemimo import spectra as sp
from freemimo.experiments import EXPERIMENTS, PARAMS, ExperimentConfig
from freemimo.infotheory import _gram_smaller_side

ANY_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)

# A valid value of each numeric field (one entry of a list field), so that
# many configs pass the per-field checks and reach the cross-field ones.
VALID_NUMBER = {
    "trials": st.integers(2, 10 ** 6),
    "n": st.integers(1, 2048),
    "rows": st.integers(1, 8),
    "cols": st.integers(1, 8),
    "m": st.integers(1, 4),
    "points": st.integers(1, 50),
    "sigma2": st.floats(0.1, 10.0),
    "at": st.floats(0.1, 10.0),
    "master_seed": st.integers(0, 2 ** 64 - 1),
    "phi": st.floats(0.01, 1.0),
    "beta": st.floats(0.01, 1.0),
    "beta_list": st.floats(0.01, 1.0),
    "gamma_db": st.floats(-10.0, 80.0),
    "n_list": st.integers(2, 64),
}


def _valid(name, param):
    if param.kind == "name":
        return st.sampled_from(param.domain)
    one = VALID_NUMBER[name]
    if param.kind in ("int", "float"):
        return one
    return one | st.lists(one, min_size=1, max_size=3, unique=True).map(sorted)


def _params(experiment):
    """Params of one experiment, drawn from its own table: all valid, or
    some replaced by any value, plus keys that are no parameter."""
    valid = {name: _valid(name, param)
             for name, param in PARAMS[experiment].items()}
    return st.fixed_dictionaries({}, optional=valid) | st.builds(
        lambda known, extra: {**extra, **known},
        st.fixed_dictionaries({}, optional={
            name: value | ANY_VALUE for name, value in valid.items()}),
        st.dictionaries(st.text(max_size=8), ANY_VALUE, max_size=2))


CONFIGS = st.one_of([st.tuples(st.just(e), _params(e)) for e in EXPERIMENTS]
                    + [st.tuples(st.just(""), _params("loss-curve"))])


@settings(deadline=None, max_examples=300)
@given(config=CONFIGS, out=st.none() | st.text(max_size=8) | st.integers(),
       fmt=st.sampled_from(("csv", "json")) | st.text(max_size=4))
def test_validate_never_raises(config, out, fmt):
    errors = ExperimentConfig(*config, out, fmt).validate()
    assert isinstance(errors, list)
    assert all(isinstance(e, str) for e in errors)


# (experiment, flag, field) of every numeric parameter's flag.
FLAGS = [(experiment, param.option(name), name)
         for experiment, table in PARAMS.items()
         for name, param in table.items() if param.kind != "name"]
NUMERIC_TEXT = st.text(alphabet="0123456789.,:-+eE infa_ ", max_size=16)


def _messages(argv):
    """Error messages for argv, stopping before any experiment runs."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            args = cli._build_parser().parse_args(argv)
            return cli._config_from_args(args).validate()
        except ValueError as exc:
            return [str(exc)]


@settings(deadline=None, max_examples=300)
@given(case=st.sampled_from(FLAGS), text=NUMERIC_TEXT | st.text(max_size=16))
def test_flag_text_is_valid_or_names_its_field(case, text):
    experiment, flag, field = case
    for message in _messages([experiment, f"{flag}={text}"]):
        assert re.search(rf"\b{field}\b", message), message


# Draws 0 and 1 of a stack are random, draw 2 has a rank-one pair of
# vectors, v = s u rounded, and draws 3 and 4 are exactly singular: a zero
# vector, and two equal vectors.
RANDOM = np.array([True, True, False, False, False])
SINGULAR = np.array([False, False, False, True, True])


@st.composite
def two_antenna_stacks(draw):
    """(5, r, t) stacks with min(r, t) = 2, real or complex, scaled by one
    factor in 1e-150..1e150.  The two vectors of a draw are H's columns,
    or its rows when H is wide."""
    rows, cols = draw(st.sampled_from([(4, 2), (3, 2), (2, 2), (2, 4)]))
    real = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stack = rng.standard_normal((len(SINGULAR), rows, cols))
    if not real:
        stack = stack + 1j * rng.standard_normal(stack.shape)
    stack *= 10.0 ** draw(st.floats(-150.0, 150.0))
    vectors = stack if rows >= cols else stack.swapaxes(1, 2)
    scale = draw(st.floats(-1e3, 1e3).filter(lambda x: x != 0.0))
    if not real:
        scale *= 1j ** draw(st.integers(0, 3))
    vectors[2, :, 1] = scale * vectors[2, :, 0]
    vectors[3, :, draw(st.integers(0, 1))] = 0.0
    vectors[4, :, 1] = vectors[4, :, 0]
    return stack


GAMMA_GRIDS = st.lists(st.floats(-300.0, 300.0), min_size=2, max_size=6,
                       unique=True).map(
    lambda exponents: np.array([10.0 ** e for e in sorted(exponents)]))


@settings(deadline=None, max_examples=300)
@given(stack=two_antenna_stacks(), gammas=GAMMA_GRIDS)
def test_two_antenna_stats_match_the_lapack_route(stack, gammas):
    # The LAPACK route is the engine's path for other shapes: eigvalsh of
    # the Gram over a grid, and the LU or QR log-det of H.  Both routes
    # overflow to +inf where gamma lam does, and give log2 0 = -inf.
    cols = stack.shape[-1]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        closed = mc._two_antenna_stats(stack, gammas, mc.STATS)
        lapack = {"mi": mc._mutual_info(_gram_smaller_side(stack), cols,
                                        gammas),
                  "mr": mc._multiplexing_rate(stack, gammas)}
        err = {stat: np.abs(closed[stat] - lapack[stat]) for stat in mc.STATS}
        tol = 1e-12 + np.finfo(float).eps * np.linalg.cond(stack) ** 2
    mi, mr = closed["mi"], closed["mr"]
    # Mutual information is >= 0 and overflows to +inf exactly where the
    # LAPACK route does.
    assert np.all(mi >= 0.0)
    assert np.array_equal(np.isfinite(mi), np.isfinite(lapack["mi"]))
    # The multiplexing rate is never NaN or +inf.  On the random draws it
    # is finite where the LAPACK route's is.  On the exactly singular draws
    # it is -inf, where LU and QR often leave a rounding residue that reads
    # as a finite rate far below zero; on the rank-one pair either route
    # may round det G to 0 or not.
    assert not np.any(np.isnan(mr) | np.isposinf(mr))
    assert np.all(np.isfinite(mr[:, RANDOM])
                  == np.isfinite(lapack["mr"][:, RANDOM]))
    assert np.all(np.isneginf(mr[:, SINGULAR]))
    # Agreement within the LAPACK route's own rounding, eps kappa^2.
    for stat in mc.STATS:
        both = np.isfinite(closed[stat]) & np.isfinite(lapack[stat])
        assert np.all((err[stat] < tol)[both])
    # Mutual information is nondecreasing in gamma, and one gamma gives
    # the bits of the grid's entry at that gamma.
    assert np.all(mi[1:] >= mi[:-1])
    for i in range(len(gammas)):
        with np.errstate(over="ignore", divide="ignore"):
            one = mc._two_antenna_stats(stack, gammas[i:i + 1], mc.STATS)
        for stat in mc.STATS:
            assert np.array_equal(one[stat][0], closed[stat][i])


# Spectral families from a small grammar: MP(sigma^2), Dirac and Bernoulli
# projector leaves, row removal, two-factor free products and the
# nonzero-part restriction (a Restricted law where alpha < 1).
SCALES = st.floats(0.1, 10.0)
FRACTIONS = st.floats(0.05, 1.0)
FAMILIES = st.recursive(
    st.builds(sp.SquareIidGram, SCALES) | st.builds(sp.Dirac, SCALES)
    | st.builds(sp.BernoulliProjector, FRACTIONS),
    lambda inner: st.builds(sp.ProjectorScaled, inner, FRACTIONS)
    | st.builds(sp.FreeProduct, inner, inner)
    | inner.map(lambda family: family.restricted()),
    max_leaves=4)
# Draws: up to 6 positive atoms across the double range, plus zeros.
DRAWS = st.builds(
    lambda atoms, zeros: sp.EmpiricalSpectrum(atoms + [0.0] * zeros),
    st.lists(st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
             min_size=1, max_size=6),
    st.integers(0, 3))


def _per_entry_rate(draw, gamma):
    """sum over nonzero eigenvalues of log2 gamma + log2 lambda, over T."""
    return math.fsum(math.log2(gamma) + math.log2(lam)
                     for lam in draw.nonzero) / draw.total_dim


@settings(deadline=None, max_examples=150)
@given(measure=FAMILIES | DRAWS,
       gamma=st.floats(-300.0, 300.0).map(lambda u: 10.0 ** u))
def test_multiplexing_rate_is_alpha_times_log_gamma_plus_log_mean(measure,
                                                                  gamma):
    # I0 = alpha (log2 gamma + log_mean) for every measure: the S-integral
    # at x = alpha for a family, the per-entry sum for a draw.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        i0 = it.multiplexing_rate_s(measure, gamma)
        d = it.decompose(measure, gamma)
        mi = it.mutual_info_measure(measure, gamma)
        if isinstance(measure, sp.EmpiricalSpectrum):
            reference = _per_entry_rate(measure, gamma)
        else:
            reference = it._s_rate(measure, measure.alpha, gamma)
    assert abs(i0 - reference) <= 1e-13 * max(1.0, abs(i0))
    assert d.multiplexing_rate == i0
    assert d.mutual_info == mi
