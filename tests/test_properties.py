"""Property tests for config validation and CLI flag parsing.

Neither test runs an experiment: each stops at ``validate()``.
"""

import contextlib
import io
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from freemimo import cli
from freemimo.experiments import EXPERIMENTS, PARAMS, ExperimentConfig

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
FLAGS = [(experiment, cli._flag(name, param), name)
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
