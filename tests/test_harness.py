import argparse
import json
import math
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from freemimo import acceptance, cli
from freemimo import montecarlo as mc
from freemimo.errors import ConvergenceError
from freemimo.experiments import (
    PARAMS,
    ExperimentConfig,
    ResultTable,
    emit,
    load_table,
    run_experiment,
)

FAST_LOSS = {"trials": 200, "gamma_db": [0.0, 20.0], "master_seed": 5}


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_validation_lists_every_offending_field():
    cfg = ExperimentConfig("loss-curve",
                           {"trials": -5, "beta": 2.0, "sigma2": 0.0})
    errors = cfg.validate()
    assert len(errors) == 3
    joined = " ".join(errors)
    for name in ("trials", "beta", "sigma2"):
        assert name in joined


def test_unknown_experiment_rejected():
    assert ExperimentConfig("nonsense").validate()
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig("nonsense"))


def test_trials_below_two_rejected():
    for trials in (1, 0):
        errors = ExperimentConfig("loss-curve", {"trials": trials}).validate()
        assert len(errors) == 1 and errors[0].startswith("trials:")
    assert not ExperimentConfig("loss-curve", {"trials": 2}).validate()


def test_gamma_grid_must_increase():
    cfg = ExperimentConfig("loss-curve", {"gamma_db": [10.0, 5.0]})
    assert any("gamma_db" in e for e in cfg.validate())


VALIDATED_FIELDS = ("trials", "n", "rows", "cols", "m", "points", "sigma2",
                    "at", "master_seed", "phi", "beta", "beta_list",
                    "gamma_db", "n_list", "ensemble", "family")
ODD_VALUES = ("10", None, True, [], [0, "10"], [3, 1], {"a": 1},
              float("nan"), float("inf"), 10 ** 400, -1, 0, 2.5, [2.5])


@pytest.mark.parametrize("experiment", ["loss-curve", "loss-convergence",
                                        "deviation-sweep", "transforms"])
def test_validation_never_raises(experiment):
    # Every field, given a value of the wrong type or out of range, yields
    # messages naming that field and no exception.
    for name in VALIDATED_FIELDS:
        for value in ODD_VALUES:
            errors = ExperimentConfig(experiment, {name: value}).validate()
            assert all(e.startswith(f"{name}:") for e in errors), (name, value)
        assert ExperimentConfig(experiment, {name: "10"}).validate()


@pytest.mark.parametrize("given, written", [
    ({"n": np.int64(16), "trials": np.int64(4)}, {"n": 16, "trials": 4}),
    ({"gamma_db": np.float32(10), "beta_list": (np.float64(0.5),),
      "n": 16, "trials": 4},
     {"gamma_db": 10.0, "beta_list": [0.5], "n": 16, "trials": 4}),
], ids=["int64", "float32"])
def test_numpy_scalars_are_numbers(given, written, tmp_path):
    # Any real number but a bool is a value, numpy's too; the report's
    # metadata holds the plain JSON number of the same value.
    cfg = ExperimentConfig("deviation-sweep", given)
    assert cfg.validate() == []
    plain = run_experiment(ExperimentConfig("deviation-sweep", written))
    table = run_experiment(cfg)
    assert table.rows == plain.rows
    path = tmp_path / "r.json"
    emit(table, path, "json")
    assert json.loads(path.read_text())["metadata"]["params"] == written
    for flag in (True, np.bool_(True)):
        assert ExperimentConfig("deviation-sweep",
                                {"n": flag}).validate() == [
            f"n: not an integer: {flag!r}"]


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "schema": "freemimo-config/1",
        "experiment": "deviation-sweep",
        "params": {"n": 32, "beta_list": [0.5], "trials": 10,
                   "master_seed": 3},
        "output": {"path": "out.csv", "format": "csv"},
    }))
    cfg = ExperimentConfig.from_file(str(path))
    assert cfg.experiment == "deviation-sweep"
    assert cfg.params["n"] == 32
    assert cfg.out == "out.csv"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "other/9", "experiment": "verify"}))
    with pytest.raises(ValueError):
        ExperimentConfig.from_file(str(bad))


# ---------------------------------------------------------------------------
# experiments and tables
# ---------------------------------------------------------------------------

def test_loss_curve_columns_and_metadata():
    table = run_experiment(ExperimentConfig("loss-curve", dict(FAST_LOSS)))
    assert table.columns == ["gamma_db", "mi_ref_bits", "mr_ref_bits",
                             "mi_proj_bits", "mr_proj_bits",
                             "loss_total_bits", "stderr_bits"]
    assert len(table.rows) == 2
    assert table.metadata["master_seed"] == 5
    assert table.metadata["wall_clock_s"] is not None


def test_deviation_sweep_discrepancy_recomputable():
    cfg = ExperimentConfig("deviation-sweep",
                           {"n": 32, "beta_list": [0.25, 0.5], "trials": 20,
                            "master_seed": 2})
    table = run_experiment(cfg)
    for row in table.rows:
        vals = dict(zip(table.columns, row))
        assert vals["discrepancy_bits"] == abs(
            vals["dev_mc_bits"] - vals["dev_asymptotic_bits"])


def test_loss_convergence_rows():
    cfg = ExperimentConfig("loss-convergence",
                           {"n_list": [16, 32], "phi": 0.5, "beta": 0.75,
                            "gamma_db": 40.0, "trials": 64, "master_seed": 4})
    table = run_experiment(cfg)
    assert [row[0] for row in table.rows] == [16, 32]
    for row in table.rows:
        vals = dict(zip(table.columns, row))
        assert vals["discrepancy_bits"] == abs(
            vals["loss_mc_bits"] - vals["loss_asymptotic_bits"])


def test_loss_convergence_keeps_half_up_column_count():
    # n=5, phi=0.5 gives T=3 (round half up), as kept_count does.
    cfg = ExperimentConfig("loss-convergence",
                           {"n_list": [5], "phi": 0.5, "beta": 0.75,
                            "gamma_db": 40.0, "trials": 50, "master_seed": 4})
    table = run_experiment(cfg)
    s = mc.trial_stats(mc.EnsembleSpec("iid_complex_gaussian", 5, 3, 1.0),
                       mc.ProjectorSpec("receive", 0.75), [1e4], 50, 4,
                       ("mi",))
    assert table.column("loss_mc_bits") == [
        float(np.mean(s.mi_ref[0] - s.mi_proj[0]))]


def test_product_additivity_row():
    cfg = ExperimentConfig("product-additivity",
                           {"n": 32, "m": 2, "beta": 0.5, "trials": 30,
                            "master_seed": 6})
    table = run_experiment(cfg)
    vals = dict(zip(table.columns, table.rows[0]))
    assert vals["dev_closed_form_bits"] == 1.0
    assert abs(vals["dev_product_bits"] - vals["dev_factor_sum_bits"]) < 0.2


def test_transforms_table():
    cfg = ExperimentConfig("transforms", {"family": "bernoulli", "beta": 0.5,
                                          "points": 7})
    table = run_experiment(cfg)
    assert len(table.rows) == 7
    zs = table.column("z")
    assert all(0.0 < z < 0.5 for z in zs)
    for row in table.rows:
        vals = dict(zip(table.columns, row))
        z = vals["z"]
        assert abs(vals["s_at_minus_z"] - (1.0 - z) / (0.5 - z)) < 1e-12


def test_monotonicity_flags():
    cfg = ExperimentConfig("monotonicity",
                           {"trials": 500, "gamma_db": [0.0, 10.0, 20.0],
                            "master_seed": 8})
    table = run_experiment(cfg)
    assert all(flag == 1 for flag in table.column("nondecreasing"))


@pytest.mark.parametrize("rows, cols", [(4, 2), (8, 4)],
                         ids=["4x2-closed-form", "8x4-lapack"])
def test_monotonicity_loss_is_loss_curve_loss_per_antenna(rows, cols):
    # On one grid and seed, monotonicity's loss and stderr per transmit
    # antenna are loss-curve's totals over T bit for bit: T is a power of
    # two, so the scaling is exact, and the mutual information does not
    # depend on whether the multiplexing rate was also computed.  3000
    # trials span two chunks of 4 x 2 draws and six of 8 x 4.
    params = {"rows": rows, "cols": cols, "trials": 3000, "master_seed": 11,
              "gamma_db": [-10.0, 0.0, 10.0, 40.0, 80.0]}
    curve = run_experiment(ExperimentConfig("loss-curve", dict(params)))
    mono = run_experiment(ExperimentConfig("monotonicity", dict(params)))
    for mono_column, curve_column in (("loss_bits", "loss_total_bits"),
                                      ("stderr_bits", "stderr_bits")):
        assert mono.column(mono_column) == [
            total / cols for total in curve.column(curve_column)]


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def test_emit_empty_table_is_header_only(tmp_path):
    table = ResultTable(columns=["a", "b"], rows=[], metadata={})
    path = tmp_path / "empty.csv"
    emit(table, str(path), "csv")
    assert path.read_text() == "a,b\n"


def test_csv_format_plain_decimal(tmp_path):
    table = ResultTable(columns=["x", "label"],
                        rows=[[1.5, "row"], [0.125, "other"]], metadata={})
    path = tmp_path / "t.csv"
    emit(table, str(path), "csv")
    text = path.read_text()
    assert text == "x,label\n1.5,row\n0.125,other\n"


def test_json_roundtrip_bit_exact(tmp_path):
    cfg = ExperimentConfig("deviation-sweep",
                           {"n": 16, "beta_list": [0.5], "trials": 8,
                            "master_seed": 1})
    table = run_experiment(cfg)
    path = tmp_path / "t.json"
    emit(table, str(path), "json")
    again = load_table(str(path))
    assert again.columns == table.columns
    assert again.rows == table.rows
    meta_a = dict(table.metadata)
    meta_b = dict(again.metadata)
    meta_a.pop("wall_clock_s")
    meta_b.pop("wall_clock_s")
    assert meta_a == meta_b


def test_rerun_reproduces_csv_bytes(tmp_path):
    cfg = ExperimentConfig("loss-curve", dict(FAST_LOSS))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(run_experiment(cfg), str(p1), "csv")
    emit(run_experiment(cfg), str(p2), "csv")
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_loss_curve(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    code = cli.main(["loss-curve", "--gamma-db", "0:10:20", "--trials", "100",
                     "--seed", "7", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("gamma_db,")
    assert len(lines) == 4  # header + 3 grid points


def test_cli_negative_grid_with_spaced_flag(tmp_path):
    # argparse alone would read the spaced "-10:5:10" as a flag.
    spaced, glued = tmp_path / "spaced.csv", tmp_path / "glued.csv"
    tail = ["--trials", "4", "--seed", "3", "--out"]
    assert cli.main(["loss-curve", "--gamma-db", "-10:5:10"]
                    + tail + [str(spaced)]) == 0
    assert cli.main(["loss-curve", "--gamma-db=-10:5:10"]
                    + tail + [str(glued)]) == 0
    assert spaced.read_bytes() == glued.read_bytes()
    assert len(spaced.read_text().splitlines()) == 6  # header + 5 points


def test_cli_grid_parsing():
    grid = PARAMS["loss-curve"]["gamma_db"]
    assert grid.parse("gamma_db", "0:2:40") == [
        float(v) for v in range(0, 41, 2)]
    assert grid.parse("gamma_db", "1,2.5,7") == [1.0, 2.5, 7.0]
    assert grid.parse("gamma_db", "30") == 30.0


def test_shown_default_is_a_flag_value():
    # The default that --help shows parses, passes validation and converts
    # to the default itself; sigma2 = "rows" names another field instead.
    named = []
    for experiment, table in PARAMS.items():
        for name, param in table.items():
            if param.default == "rows":
                named.append((experiment, name))
                continue
            value = param.parse(name, param.shown())
            assert param.error(name, value) is None, (experiment, name)
            assert param.convert(value) == param.convert(param.default)
    assert named == [("loss-curve", "sigma2"), ("monotonicity", "sigma2")]


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```bash\n(.*?)```", readme, re.S)
    lines = re.findall(r"^(?:\w+=\S+ )*freemimo (.+)$",
                       "".join(blocks).replace("\\\n", ""), re.M)
    assert len(lines) >= 7
    for line in lines:
        args = cli._build_parser().parse_args(shlex.split(line))
        assert not cli._config_from_args(args).validate(), line
    # The C1-C5 block runs what the gates run, param for param.
    (gates,) = [block for block in blocks if "# C1:" in block]
    runs, cid = {}, None
    for line in gates.replace("\\\n", "").splitlines():
        if line.startswith("# C"):
            cid = re.match(r"# (C\d):", line)[1]
        elif line.startswith("freemimo "):
            config = cli._config_from_args(
                cli._build_parser().parse_args(shlex.split(line)[1:]))
            runs.setdefault(cid, []).append((config.experiment, config.params))
    assert runs == {cid: gate_runs for cid, (_, gate_runs, _)
                    in acceptance.GATES.items()}
    for block in re.findall(r"```json\n(.*?)```", readme, re.S):
        raw = json.loads(block)
        assert not ExperimentConfig(raw["experiment"], raw["params"]).validate()


def test_cli_missing_out(capsys):
    code = cli.main(["loss-curve", "--trials", "10"])
    assert code == 1
    assert "--out" in capsys.readouterr().err


def test_cli_unknown_flag(capsys):
    code = cli.main(["loss-curve", "--frobnicate"])
    assert code == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_cli_validation_error(tmp_path, capsys):
    code = cli.main(["loss-curve", "--beta", "3", "--out",
                     str(tmp_path / "x.csv")])
    assert code == 1
    assert "beta" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["loss-curve", "monotonicity",
                                        "loss-convergence"])
def test_cli_single_trial_is_validation_error(experiment, tmp_path, capsys):
    code = cli.main([experiment, "--trials", "1", "--out",
                     str(tmp_path / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "trials:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("experiment, params, field", [
    ("loss-curve", {"gamma_db": [0, "10"]}, "gamma_db"),
    ("loss-convergence", {"gamma_db": [0, 10]}, "gamma_db"),
    ("loss-convergence", {"phi": "half"}, "phi"),
    ("loss-curve", {"beta": "0.5"}, "beta"),
    ("loss-curve", {"beta": [0.5]}, "beta"),
    ("deviation-sweep", {"beta_list": [0.5, None]}, "beta_list"),
    ("loss-convergence", {"n_list": [16, "32"]}, "n_list"),
    ("loss-curve", {"trials": 1e400}, "trials"),
    ("loss-curve", {"master_seed": -1}, "master_seed"),
    ("loss-curve", {"trials": 200, "frobnicate": 1}, "frobnicate"),
], ids=["mixed-gamma-grid", "one-snr-experiment-grid", "phi", "beta-string",
        "beta-list", "beta_list", "n_list", "trials-inf", "negative-seed",
        "unknown-key"])
def test_cli_bad_config_value_is_validation_error(experiment, params, field,
                                                  tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({
        "schema": "freemimo-config/1", "experiment": experiment,
        "params": params,
        "output": {"path": str(tmp_path / "x.csv"), "format": "csv"},
    }))
    code = cli.main([experiment, "--config", str(cfg_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {field}:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv, field", [
    (["loss-curve", "--ensemble", "haar_unitary"], "rows, cols"),
    (["monotonicity", "--ensemble", "haar_unitary"], "rows, cols"),
    (["loss-curve", "--ensemble", "product_iid"], "rows, cols"),
    (["loss-convergence", "--ensemble", "haar_unitary"], "ensemble"),
    (["loss-convergence", "--ensemble", "product_iid", "--phi", "1",
      "--beta", "1"], "ensemble"),
    (["loss-convergence", "--phi", "0.9"], "beta"),
    (["loss-curve", "--beta", "abc"], "beta"),
    (["deviation-sweep", "--beta", "0.5,x"], "beta_list"),
    (["deviation-sweep", "--n", "abc"], "n"),
    (["loss-convergence", "--n", "64,1e3"], "n_list"),
    (["loss-curve", "--gamma-db", "0:a:10"], "gamma_db"),
    (["loss-curve", "--gamma-db", "10:1:0"], "gamma_db"),
    (["loss-curve", "--gamma-db", "0:1e-300:10"], "gamma_db"),
    (["loss-curve", "--beta", "0.5,0.7"], "beta"),
    (["deviation-sweep", "--n", "3,4"], "n"),
    (["transforms", "--trials", "5"], "trials"),
    (["loss-curve", "--family", "dirac"], "family"),
    (["deviation-sweep", "--ensemble", "haar_unitary", "--sigma2", "2"],
     "sigma2"),
    (["loss-curve", "--trials", "x"], "trials"),
    (["deviation-sweep", "--ensemble", "haar_unitary", "--m", "2"], "m"),
    (["loss-curve", "--gamma-db=--"], "gamma_db"),
], ids=["haar-4x2", "monotonicity-haar-4x2", "product-4x2",
        "convergence-haar", "convergence-product",
        "convergence-beta-below-phi", "beta-abc",
        "beta_list", "n-abc", "n_list", "grid-step", "grid-backwards",
        "grid-too-long", "beta-two-values", "n-two-values",
        "transforms-trials", "loss-curve-family", "haar-sigma2",
        "trials-text", "m-haar", "grid-dashes"])
def test_cli_bad_flag_names_its_field(argv, field, tmp_path, capsys):
    out = tmp_path / "x.csv"
    # Few trials, in case a bad flag were accepted; the case's own flags
    # come after and win.
    few = ["--trials", "4"] if "trials" in PARAMS[argv[0]] else []
    assert cli.main(argv[:1] + few + argv[1:] + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {field}:" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["loss-curve", "--gamma-db", "4000"],
    ["loss-curve", "--gamma-db", "-4000"],
    ["monotonicity", "--gamma-db", "0:2000:4000"],
    ["loss-curve", "--gamma-db=-4000,0"],
    ["loss-curve", "--gamma-db", "-4000,0"],
    ["loss-convergence", "--gamma-db", "4000"],
    ["deviation-sweep", "--gamma-db", "-4000"],
    ["product-additivity", "--gamma-db", "3083"],
], ids=["grid-one-overflow", "grid-one-underflow", "grid-overflow",
        "grid-list-underflow", "grid-list-underflow-spaced",
        "scalar-overflow", "scalar-underflow", "scalar-edge"])
def test_cli_rejects_snr_outside_doubles(argv, tmp_path, capsys):
    # 10^(dB/10) must be a finite double > 0: 4000 dB overflows and -4000
    # dB underflows to 0, and neither may reach a traceback.
    out = tmp_path / "x.csv"
    assert cli.main(argv + ["--trials", "4", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: gamma_db: must be a dB value whose "
                          "10^(dB/10) is a finite number > 0")
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_accepts_snr_at_the_ends_of_doubles(tmp_path):
    out = tmp_path / "x.csv"
    assert cli.main(["loss-curve", "--gamma-db=-3000,3000", "--trials",
                     "4", "--out", str(out)]) == 0
    assert out.exists()


def test_cli_m_needs_product_iid(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert cli.main(["loss-curve", "--m", "3", "--trials", "4",
                     "--gamma-db", "10", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: m: only product_iid takes "
                                       "factors, got ensemble="
                                       "iid_complex_gaussian\n")
    assert not out.exists()
    assert not ExperimentConfig("loss-curve", {
        "ensemble": "product_iid", "rows": 4, "cols": 4, "m": 3}).validate()


@pytest.mark.parametrize("experiment", [None, *PARAMS])
def test_cli_help_same_with_one_subcommand_built(experiment, capsys):
    # main builds only the named subcommand's flags; its help, and the
    # top-level help, read as with every subcommand built.
    argv = [experiment, "--help"] if experiment else ["--help"]
    helps = []
    for parser in (cli._build_parser(), cli._build_parser(argv)):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert "--out" in helps[1] if experiment else "EXPERIMENT" in helps[1]


def _subcommands(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


def test_cli_builds_only_the_subcommand_it_runs(tmp_path, capsys):
    assert _subcommands(cli._build_parser(
        ["transforms", "--family", "verify"])) == ["transforms"]
    assert _subcommands(cli._build_parser(["--help"])) == list(PARAMS)
    assert len(PARAMS) == 7
    # A misspelt command is no subcommand, so every experiment is built
    # and the message lists them all, even with another's name later on.
    out = tmp_path / "x.csv"
    assert cli.main(["tranforms", "--family", "verify", "--out",
                     str(out)]) == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'tranforms'" in err
    for experiment in PARAMS:
        assert f"'{experiment}'" in err
    assert not out.exists()


def test_cli_one_value_flags(tmp_path):
    # loss-curve reads beta, deviation-sweep n; each flag gives one value.
    out = tmp_path / "x.json"
    for argv, field, value in ((["loss-curve", "--beta", "0.7"], "beta", 0.7),
                               (["deviation-sweep", "--n", "3"], "n", 3)):
        assert cli.main(argv + ["--gamma-db", "10", "--trials", "4",
                                "--format", "json", "--out", str(out)]) == 0
        params = json.loads(out.read_text())["metadata"]["params"]
        assert params[field] == value


def test_square_ensembles_validate_on_square_shapes():
    # loss-convergence takes iid channels only: a square one cut to
    # beta >= phi = 1 loses nothing.
    for kind in ("haar_unitary", "product_iid"):
        assert not ExperimentConfig("loss-curve", {
            "ensemble": kind, "rows": 4, "cols": 4}).validate()
        errors = ExperimentConfig("loss-convergence", {
            "ensemble": kind, "phi": 1.0, "beta": 1.0}).validate()
        assert [e.split(":")[0] for e in errors] == ["ensemble"]


@pytest.mark.parametrize("text", ["[1, 2]", '{"schema": "freemimo-config/1", '
                                  '"experiment": "loss-curve", "params": [1]}'])
def test_cli_config_that_is_not_an_object(text, tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(text)
    assert cli.main(["loss-curve", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "JSON object" in err and "Traceback" not in err


def test_cli_numeric_failure_exit_code(monkeypatch, tmp_path, capsys):
    def boom(config):
        raise ConvergenceError("synthetic")
    monkeypatch.setattr(cli, "run_experiment", boom)
    code = cli.main(["loss-curve", "--trials", "10", "--out",
                     str(tmp_path / "x.csv")])
    assert code == 2
    assert "numeric failure" in capsys.readouterr().err


def test_cli_out_of_memory_exit_code(monkeypatch, tmp_path, capsys):
    def boom(config):
        raise MemoryError("Unable to allocate 1.31 TiB")
    monkeypatch.setattr(cli, "run_experiment", boom)
    out = tmp_path / "x.csv"
    code = cli.main(["deviation-sweep", "--n", "300000", "--trials", "2",
                     "--beta", "0.5", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == ("out of memory: Unable to allocate "
                                       "1.31 TiB\n")
    assert not out.exists()


def test_cli_non_finite_result_is_numeric_failure(tmp_path, capsys):
    # At sigma^2 = 1e308 the Gram of H overflows a double whatever gamma is:
    # a JSON file would hold Infinity and NaN, which JSON has no numbers
    # for.  The one line on stderr is the failure, with no numpy warnings.
    out = tmp_path / "x.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["loss-curve", "--sigma2", "1e308", "--gamma-db",
                         "0", "--trials", "3", "--format", "json",
                         "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == ("numeric failure: mi_ref_bits: a "
                                       "value is not finite\n")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["loss-curve", "--sigma2", "1e300", "--gamma-db", "300"],
    ["loss-convergence", "--n", "8", "--sigma2", "1e300", "--gamma-db", "300"],
], ids=["loss-curve", "loss-convergence"])
def test_cli_overflowing_snr_times_eigenvalue_is_finite(args, tmp_path):
    # gamma lambda passes the largest double, but the mutual information,
    # about log2 gamma + log2 lambda per eigenvalue, is finite.
    out = tmp_path / "x.json"
    assert cli.main(args + ["--trials", "3", "--format", "json",
                            "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert rows and all(math.isfinite(v) for row in rows
                        for v in row.values())


def test_cli_verify_exit_codes(monkeypatch, tmp_path, capsys):
    def fake_run_all(only=None):
        res = acceptance.CriterionResult("C0", "stub", seconds=2.5)
        res.check("stub check", 0.5, 1.0)
        return [res]

    monkeypatch.setattr(acceptance, "run_all", fake_run_all)
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["rows"][0]["criterion"] == "C0"
    assert report["rows"][0]["passed"] == 1
    assert report["metadata"]["criterion_seconds"] == {"C0": 2.5}
    assert "PASS C0 (2.5 s)" in capsys.readouterr().out

    def fake_run_all_fail(only=None):
        res = acceptance.CriterionResult("C0", "stub")
        res.check("stub check", 2.0, 1.0)
        return [res]

    monkeypatch.setattr(acceptance, "run_all", fake_run_all_fail)
    assert cli.main(["verify"]) == 3


def test_cli_verify_rejects_csv(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(acceptance, "run_all", lambda only=None: [])
    out = tmp_path / "r.csv"
    assert cli.main(["verify", "--format", "csv", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: format: verify writes a JSON "
                                       "report\n")
    assert not out.exists()
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["rows"] == []


def test_cli_verify_config_rejects_csv(monkeypatch, tmp_path, capsys):
    # A config file's "format" follows the same rule as --format.
    monkeypatch.setattr(acceptance, "run_all", lambda only=None: [])
    out, cfg_path = tmp_path / "r.csv", tmp_path / "v.json"
    cfg_path.write_text(json.dumps({
        "schema": "freemimo-config/1", "experiment": "verify",
        "output": {"path": str(out), "format": "csv"}}))
    assert cli.main(["verify", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == ("error: format: verify writes a JSON "
                                       "report\n")
    assert not out.exists()
    assert ExperimentConfig("verify", fmt="csv").validate() == [
        "format: verify writes a JSON report"]
    assert not ExperimentConfig("verify").validate()


def test_cli_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "schema": "freemimo-config/1",
        "experiment": "transforms",
        "params": {"family": "dirac", "at": 2.0, "points": 3},
        "output": {"path": str(tmp_path / "t.json"), "format": "json"},
    }))
    code = cli.main(["transforms", "--config", str(cfg_path)])
    assert code == 0
    data = json.loads((tmp_path / "t.json").read_text())
    assert len(data["rows"]) == 3
    assert all(abs(r["s_at_minus_z"] - 0.5) < 1e-12 for r in data["rows"])
