"""Property tests for config validation and CLI flag parsing.

Neither test runs an experiment: each stops at ``validate()``.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from freemimo import cli
from freemimo.experiments import (
    ENSEMBLE_KINDS,
    EXPERIMENTS,
    FAMILY_NAMES,
    ExperimentConfig,
)

ANY_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)

# A valid value for each field, so that many configs pass the per-field
# checks and reach the cross-field ones.
VALID_VALUE = {
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
    "beta_list": st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3),
    "gamma_db": st.floats(-10.0, 80.0)
    | st.lists(st.floats(-10.0, 80.0), min_size=1, max_size=3),
    "n_list": st.integers(2, 64)
    | st.lists(st.integers(2, 64), min_size=1, max_size=3),
    "ensemble": st.sampled_from(ENSEMBLE_KINDS),
    "family": st.sampled_from(FAMILY_NAMES),
}
PARAMS = st.fixed_dictionaries({}, optional=VALID_VALUE) | st.builds(
    lambda known, extra: {**extra, **known},
    st.fixed_dictionaries({}, optional={
        name: value | ANY_VALUE for name, value in VALID_VALUE.items()}),
    st.dictionaries(st.text(max_size=8), ANY_VALUE, max_size=2))


@settings(deadline=None, max_examples=300)
@given(experiment=st.sampled_from(EXPERIMENTS + ("",)), params=PARAMS,
       out=st.none() | st.text(max_size=8) | st.integers(),
       fmt=st.sampled_from(("csv", "json")) | st.text(max_size=4))
def test_validate_never_raises(experiment, params, out, fmt):
    errors = ExperimentConfig(experiment, params, out, fmt).validate()
    assert isinstance(errors, list)
    assert all(isinstance(e, str) for e in errors)


# flag -> (field it sets, experiments to try it on)
FLAGS = {
    "--beta": ("beta", ("loss-curve", "loss-convergence", "deviation-sweep")),
    "--n": ("n", ("deviation-sweep", "loss-convergence")),
    "--gamma-db": ("gamma_db", ("loss-curve", "loss-convergence")),
    "--trials": ("trials", ("loss-curve",)),
    "--seed": ("master_seed", ("loss-curve",)),
    "--phi": ("phi", ("loss-convergence",)),
    "--sigma2": ("sigma2", ("loss-curve",)),
    "--m": ("m", ("product-additivity",)),
    "--rows": ("rows", ("loss-curve",)),
    "--cols": ("cols", ("monotonicity",)),
    "--at": ("at", ("transforms",)),
    "--points": ("points", ("transforms",)),
}
LIST_FIELDS = {("deviation-sweep", "--beta"): "beta_list",
               ("loss-convergence", "--n"): "n_list"}
NUMERIC_TEXT = st.text(alphabet="0123456789.,:-+eE infa_ ", max_size=16)


def _messages(argv):
    """Error messages for argv, stopping before any experiment runs."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            args = cli._build_parser().parse_args(argv)
            return cli._config_from_args(args).validate()
        except cli._CliError as exc:
            return [str(exc)]


@settings(deadline=None, max_examples=300)
@given(flag=st.sampled_from(sorted(FLAGS)), data=st.data(),
       text=NUMERIC_TEXT | st.text(max_size=16))
def test_flag_text_is_valid_or_names_its_field(flag, data, text):
    field, experiments = FLAGS[flag]
    experiment = data.draw(st.sampled_from(experiments))
    field = LIST_FIELDS.get((experiment, flag), field)
    for message in _messages([experiment, f"{flag}={text}"]):
        # argparse-typed flags name the flag, the others the field.
        assert field in message or flag in message, message
