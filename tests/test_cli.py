import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from expvar.cli import _COMMANDS, AnalysisConfig, _build_parser, _resolve_config, main
from expvar.data import Dataset, ModelSpec, write_csv
from expvar.simulate import TreeDesign, generate
from expvar.tails import t_quantile, t_sf


def _write_dataset(tmp_path, name="data.csv", generator_seed=6, **kwargs):
    base = dict(combos=(("m-net", "adam", 0.5), ("protonet", "sgd", 0.65)),
                n_seeds=4, n_configs=4, n_reruns=2, sigma_seed=0.01,
                sigma_hparam=0.04, sigma_eps=0.02, rerun_mode="noisy",
                generator_seed=generator_seed)
    base.update(kwargs)
    ds = generate(TreeDesign(**base))
    path = tmp_path / name
    write_csv(ds, path)
    return path, ds


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_fit_writes_variance_table(tmp_path, capsys):
    data, _ = _write_dataset(tmp_path)
    out = tmp_path / "out"
    code = main(["fit", "--input", str(data), "--output-dir", str(out)])
    assert code == 0
    rows = _read_csv(out / "variance_components.csv")
    assert rows[0] == ["Groups", "Name", "Variance", "Std.Dev."]
    assert [r[0] for r in rows[1:]] == ["seed", "hparams", "Residual"]
    obj = json.loads((out / "variance_components.json").read_text())
    for row in obj["rows"]:
        assert math.sqrt(row["Variance"]) == pytest.approx(row["Std.Dev."],
                                                           abs=1e-10)
    summary = json.loads((out / "fit_summary.json").read_text())
    assert summary["converged"] is True
    assert summary["criterion"] == "REML"


def test_fit_with_renamed_seed_column(tmp_path):
    # a table whose seed column is called "seeds" reproduces the
    # seeds/hparams/Residual row naming
    data, ds = _write_dataset(tmp_path)
    text = data.read_text().replace("model,optimizer,seed,", "model,optimizer,seeds,")
    data.write_text(text)
    out = tmp_path / "out"
    code = main(["fit", "--input", str(data), "--output-dir", str(out),
                 "--columns", "seed=seeds", "--random-factors", "seed,hparams"])
    assert code == 0
    rows = _read_csv(out / "variance_components.csv")
    assert [r[0] for r in rows[1:]] == ["seed", "hparams", "Residual"]


def test_missing_input_exits_2(tmp_path, capsys):
    code = main(["fit", "--input", str(tmp_path / "nope.csv")])
    assert code == 2
    assert "nope.csv" in capsys.readouterr().err


def test_ranova_table_layout(tmp_path):
    data, _ = _write_dataset(tmp_path)
    out = tmp_path / "out"
    code = main(["ranova", "--input", str(data), "--output-dir", str(out)])
    assert code == 0
    rows = _read_csv(out / "random_effects_anova.csv")
    assert rows[0] == ["", "npar", "logLik", "AIC", "LRT", "Df", "Pr(>Chisq)"]
    assert [r[0] for r in rows[1:]] == ["(1 | seed)", "(1 | hparams)"]
    for r in rows[1:]:
        npar, loglik, aic = float(r[1]), float(r[2]), float(r[3])
        assert aic == pytest.approx(2 * npar - 2 * loglik, rel=1e-4)


def test_anova_single_level_fixed_factor_exits_1(tmp_path, capsys):
    data, _ = _write_dataset(tmp_path, combos=(("m-net", "adam", 0.5),))
    code = main(["anova", "--input", str(data)])
    assert code == 1
    assert "no testable fixed term" in capsys.readouterr().err


def test_anova_layout(tmp_path):
    data, _ = _write_dataset(tmp_path)
    out = tmp_path / "out"
    code = main(["anova", "--input", str(data), "--output-dir", str(out)])
    assert code == 0
    rows = _read_csv(out / "fixed_effects_anova.csv")
    assert rows[0] == ["", "Sum Sq", "Mean Sq", "NumDF", "DenDF", "F value",
                       "Pr(>F)"]
    assert rows[1][0] == "model:optimizer"


def test_contrasts_row_count_and_layout(tmp_path):
    data, ds = _write_dataset(tmp_path)
    out = tmp_path / "out"
    code = main(["contrasts", "--input", str(data), "--output-dir", str(out)])
    assert code == 0
    rows = _read_csv(out / "means_comparisons.csv")
    assert rows[0] == ["", "Estimate", "Std. Error", "df", "lower", "upper", "Pr(>|t|)"]
    observed_combos = set(zip(ds.level_codes("model"), ds.level_codes("optimizer")))
    assert len(rows) - 1 == len(observed_combos)
    code = main(["contrasts", "--input", str(data), "--output-dir", str(out),
                 "--levels", "m-net:adam"])
    rows = _read_csv(out / "means_comparisons.csv")
    assert len(rows) - 1 == 1


def test_boundary_fit_gets_the_df_of_the_model_without_the_factor(tmp_path):
    # criterion 8's H1 design (no true seed effect); at generator seed 0 the
    # fit puts sigma^2_seed at 0, which is held fixed: the df is the
    # residual df of the model without seed, 120 - 2 - 5 + 1 = 114
    data, _ = _write_dataset(tmp_path, generator_seed=0, n_configs=5, n_reruns=3,
                             sigma_seed=0.0, sigma_hparam=0.042334, sigma_eps=0.020828,
                             combos=(("m-net", "adam", 0.45), ("protonet", "sgd", 0.62)))
    out = tmp_path / "out"
    assert main(["fit", "--input", str(data), "--output-dir", str(out)]) == 0
    variances = json.loads((out / "variance_components.json").read_text())["rows"]
    assert variances[0]["label"] == "seed" and variances[0]["Variance"] == 0.0
    assert main(["anova", "--input", str(data), "--output-dir", str(out)]) == 0
    row, = json.loads((out / "fixed_effects_anova.json").read_text())["rows"]
    assert row["DenDF"] == pytest.approx(114.0, abs=1e-6)
    assert main(["contrasts", "--input", str(data), "--output-dir", str(out)]) == 0
    rows = json.loads((out / "means_comparisons.json").read_text())["rows"]
    assert len(rows) == 2
    for r in rows:
        assert r["df"] == pytest.approx(114.0, abs=1e-6)
        t_stat = r["Estimate"] / r["Std. Error"]
        assert r["Pr(>|t|)"] == pytest.approx(2.0 * t_sf(abs(t_stat), r["df"]), rel=1e-12)
        half = (r["upper"] - r["lower"]) / 2.0
        assert half == pytest.approx(t_quantile(0.975, r["df"]) * r["Std. Error"],
                                     rel=1e-9)


def test_simulate_writes_dataset_and_truth(tmp_path):
    design = {"combos": [["m", "adam", 0.5], ["p", "sgd", 0.6]],
              "n_seeds": 3, "n_configs": 3, "n_reruns": 2,
              "sigma_seed": 0.01, "sigma_hparam": 0.03, "sigma_eps": 0.02,
              "rerun_mode": "noisy", "generator_seed": 5}
    design_path = tmp_path / "design.json"
    design_path.write_text(json.dumps(design))
    out = tmp_path / "sim"
    code = main(["simulate", "--design", str(design_path),
                 "--output-dir", str(out)])
    assert code == 0
    assert (out / "dataset.csv").exists()
    truth = json.loads((out / "truth.json").read_text())
    for key, value in design.items():
        assert truth[key] == value
    # --seed overrides the design file's generator seed
    out2 = tmp_path / "sim2"
    main(["simulate", "--design", str(design_path), "--output-dir", str(out2),
          "--seed", "99"])
    truth2 = json.loads((out2 / "truth.json").read_text())
    assert truth2["generator_seed"] == 99
    # repeated runs are byte-identical
    out3 = tmp_path / "sim3"
    main(["simulate", "--design", str(design_path), "--output-dir", str(out3)])
    assert (out / "dataset.csv").read_bytes() == (out3 / "dataset.csv").read_bytes()


def test_simulate_negative_design_seed_exits_1(tmp_path, capsys):
    design = tmp_path / "design.json"
    design.write_text(json.dumps(dict(_DESIGN, generator_seed=-1)))
    assert main(["simulate", "--design", str(design), "--output-dir",
                 str(tmp_path / "sim")]) == 1
    err = capsys.readouterr().err
    assert err == "error: generator_seed must be >= 0, got -1\n"


def test_sample_hparams(tmp_path):
    space = {"lr": {"kind": "log_uniform", "low": 0.0001, "high": 0.1},
             "batch": {"kind": "discrete_uniform", "values": [32, 64]}}
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(space))
    out = tmp_path / "hp"
    code = main(["sample-hparams", "--space", str(space_path), "--n", "15",
                 "--seed", "2", "--output-dir", str(out)])
    assert code == 0
    obj = json.loads((out / "hyperparameters.json").read_text())
    assert len(obj["rows"]) == 15
    assert set(obj["rows"][0]) == {"lr", "batch"}


def test_boxplot_single_record(tmp_path):
    ds = Dataset.from_labels({"model": ["m"], "optimizer": ["o"], "seed": ["s"],
                              "hparams": ["h"], "rerun": ["r"]}, [0.42])
    path = tmp_path / "one.csv"
    write_csv(ds, path)
    out = tmp_path / "box"
    code = main(["boxplot-data", "--input", str(path), "--output-dir", str(out)])
    assert code == 0
    obj = json.loads((out / "boxplot_data.json").read_text())
    row = obj["rows"][0]
    assert row["min"] == row["q1"] == row["median"] == row["q3"] == row["max"] == 0.42
    assert row["n"] == 1


def test_boxplot_quantiles_match_sort_oracle(tmp_path):
    rng = np.random.default_rng(8)
    values = rng.uniform(0.0, 1.0, 1000)
    n = len(values)
    ds = Dataset.from_labels({"model": ["m"] * n, "optimizer": ["o"] * n,
                              "seed": ["s"] * n, "hparams": ["h"] * n,
                              "rerun": [f"r{i:04d}" for i in range(n)]}, values)
    path = tmp_path / "many.csv"
    write_csv(ds, path)
    out = tmp_path / "box"
    assert main(["boxplot-data", "--input", str(path),
                 "--output-dir", str(out)]) == 0
    row = json.loads((out / "boxplot_data.json").read_text())["rows"][0]

    # independent type-7 quantile: linear interpolation of the sorted sample
    x = np.sort(values)
    def type7(p):
        h = (len(x) - 1) * p
        lo = int(math.floor(h))
        if lo == len(x) - 1:
            return x[-1]
        return x[lo] + (h - lo) * (x[lo + 1] - x[lo])

    assert row["min"] == pytest.approx(x[0], abs=1e-15)
    assert row["q1"] == pytest.approx(type7(0.25), abs=1e-12)
    assert row["median"] == pytest.approx(type7(0.5), abs=1e-12)
    assert row["q3"] == pytest.approx(type7(0.75), abs=1e-12)
    assert row["max"] == pytest.approx(x[-1], abs=1e-15)


def test_boxplot_group_count(tmp_path):
    data, ds = _write_dataset(tmp_path)
    out = tmp_path / "box"
    assert main(["boxplot-data", "--input", str(data),
                 "--output-dir", str(out)]) == 0
    obj = json.loads((out / "boxplot_data.json").read_text())
    distinct = set(zip(*(ds.level_codes(k) for k in ("model", "optimizer",
                                                      "hparams", "seed"))))
    assert len(obj["rows"]) == len(distinct)


def test_csv_and_json_values_agree(tmp_path):
    data, _ = _write_dataset(tmp_path)
    out = tmp_path / "out"
    main(["ranova", "--input", str(data), "--output-dir", str(out)])
    csv_rows = _read_csv(out / "random_effects_anova.csv")
    json_rows = json.loads((out / "random_effects_anova.json").read_text())["rows"]
    for crow, jrow in zip(csv_rows[1:], json_rows):
        assert crow[0] == jrow["label"]
        for name, cell in zip(csv_rows[0][1:], crow[1:]):
            jval = jrow[name]
            if jval is None:
                assert cell == ""
            else:
                assert float(cell) == pytest.approx(jval, rel=1e-5)


def test_config_file_overrides_flags(tmp_path):
    data, _ = _write_dataset(tmp_path)
    # each setting in its JSON form: lists, an object, a boolean, a string
    config = {"criterion": "ML", "format": ["json"], "random_factors": ["seed", "hparams"],
              "columns": {"seed": "seed"}, "intercept": True}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main(["fit", "--input", str(data), "--criterion", "reml", "--format", "csv",
                 "--config", str(config_path), "--output-dir", str(out)])
    assert code == 0
    summary = json.loads((out / "fit_summary.json").read_text())
    assert summary["criterion"] == "ML"
    assert not list(out.glob("*.csv"))


def test_config_file_overrides_confidence_flag(tmp_path):
    # the confidence key of the test above, on the command that reads it
    data, _ = _write_dataset(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"confidence": 0.9}))
    out = tmp_path / "out"
    assert main(["contrasts", "--input", str(data), "--confidence", "0.5",
                 "--config", str(config_path), "--output-dir", str(out)]) == 0
    for r in json.loads((out / "means_comparisons.json").read_text())["rows"]:
        half = (r["upper"] - r["lower"]) / 2.0
        assert half == pytest.approx(t_quantile(0.95, r["df"]) * r["Std. Error"], rel=1e-9)


def test_config_file_overrides_seed_flag(tmp_path):
    # the seed key of the test above, on the commands that read it
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"seed": 3}))
    design = tmp_path / "design.json"
    design.write_text(json.dumps(_DESIGN))
    out = tmp_path / "sim"
    assert main(["simulate", "--design", str(design), "--output-dir", str(out),
                 "--seed", "5", "--config", str(config_path)]) == 0
    assert json.loads((out / "truth.json").read_text())["generator_seed"] == 3
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"lr": {"kind": "uniform", "low": 0, "high": 1}}))
    draws = {}
    for name, extra in (("flag", ["--seed", "3"]), ("config", ["--seed", "5", "--config",
                                                                str(config_path)])):
        assert main(["sample-hparams", "--space", str(space), "--n", "4",
                     "--output-dir", str(tmp_path / name), *extra]) == 0
        draws[name] = (tmp_path / name / "hyperparameters.json").read_text()
    assert draws["flag"] == draws["config"]


def test_bad_config_key_exits_2(tmp_path, capsys):
    data, _ = _write_dataset(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"not_a_setting": 1}))
    assert main(["fit", "--input", str(data), "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == "error: unknown config key 'not_a_setting'\n"


_DESIGN = {"combos": [["m", "adam", 0.5]], "n_seeds": 2, "n_configs": 2,
           "n_reruns": 1, "sigma_seed": 0.01, "sigma_hparam": 0.02,
           "sigma_eps": 0.01}


def _base_argv(tmp_path, command):
    """A valid invocation of ``command`` that reads only files it writes."""
    if command == "simulate":
        design = tmp_path / "design.json"
        design.write_text(json.dumps(_DESIGN))
        return ["simulate", "--design", str(design), "--output-dir", str(tmp_path / "sim")]
    if command == "sample-hparams":
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"lr": {"kind": "uniform", "low": 0, "high": 1}}))
        return ["sample-hparams", "--space", str(space), "--n", "2"]
    data, _ = _write_dataset(tmp_path)
    return [command, "--input", str(data)]


#: Config-file values of the wrong type or value, each on a command that
#: reads the setting, and keys of fit settings that no longer exist: the
#: recipe of every fit is fixed.
_BAD_CONFIGS = {
    "config_confidence_not_a_number": ("contrasts", {"confidence": "x"}),
    "config_criterion_not_a_string": ("fit", {"criterion": 5}),
    "config_criterion_unknown": ("fit", {"criterion": "foo"}),
    "config_intercept_not_a_boolean": ("fit", {"intercept": "no"}),
    "config_random_factors_not_a_list": ("fit", {"random_factors": {"seed": 1}}),
    "config_seed_negative": ("simulate", {"seed": -1}),
    "config_n_zero": ("sample-hparams", {"n": 0}),
    "config_removed_tol": ("fit", {"tol": 1e-6}),
    "config_removed_max_evals": ("fit", {"max_evals": 1000}),
    "config_removed_multistart": ("fit", {"multistart": [0.1, 1.0, 10.0]}),
}
#: Flag values a command reads but cannot convert.
_BAD_FLAGS = {
    "seed_flag_not_an_integer": ("simulate", ["--seed", "abc"]),
    "seed_flag_negative": ("sample-hparams", ["--seed", "-1"]),
    "criterion_flag_unknown": ("fit", ["--criterion", "foo"]),
    "confidence_flag_out_of_range": ("contrasts", ["--confidence", "1.5"]),
    "n_flag_zero": ("sample-hparams", ["--n", "0"]),
    "n_flag_not_an_integer": ("sample-hparams", ["--n", "2.5"]),
}
#: Malformed design-file entries; a value of None drops the entry.
_BAD_DESIGNS = {
    "design_sd_not_a_number": {"sigma_seed": "abc"},
    "design_count_not_an_integer": {"n_seeds": 2.9},
    "design_count_a_boolean": {"n_configs": True},
    "design_generator_seed_not_an_integer": {"generator_seed": 7.9},
    "design_nested_configs_not_a_boolean": {"nested_configs": 1},
    "design_combo_not_a_triple": {"combos": [["m", "adam"]]},
    "design_combo_mean_not_a_number": {"combos": [["m", "adam", "high"]]},
    "design_missing_count": {"n_reruns": None},
    "design_unknown_key": {"nested_config": True},
}


@pytest.mark.parametrize("case", ["columns_without_equals", "space_not_object",
                                  "simulate_seed_negative", "sample_hparams_seed_negative",
                                  *_BAD_CONFIGS, *_BAD_FLAGS, *_BAD_DESIGNS])
def test_malformed_input_exits_2_with_error_line(tmp_path, capsys, case):
    if case == "columns_without_equals":
        argv = _base_argv(tmp_path, "fit") + ["--columns", "seed"]
    elif case in _BAD_CONFIGS:
        command, config = _BAD_CONFIGS[case]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        argv = _base_argv(tmp_path, command) + ["--config", str(config_path)]
    elif case in _BAD_FLAGS:
        command, flags = _BAD_FLAGS[case]
        argv = _base_argv(tmp_path, command) + flags
    elif case == "space_not_object":
        space = tmp_path / "space.json"
        space.write_text(json.dumps([{"kind": "uniform", "low": 0, "high": 1}]))
        argv = ["sample-hparams", "--space", str(space), "--n", "2"]
    elif case == "sample_hparams_seed_negative":
        argv = _base_argv(tmp_path, "sample-hparams") + ["--seed", "-1"]
    elif case == "simulate_seed_negative":
        argv = _base_argv(tmp_path, "simulate") + ["--seed", "-1"]
    else:
        argv = _base_argv(tmp_path, "simulate")
        design = dict(_DESIGN, **_BAD_DESIGNS[case])
        (tmp_path / "design.json").write_text(
            json.dumps({key: value for key, value in design.items() if value is not None}))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if "removed" in case:
        assert "unknown config key" in err
    if case.startswith("design_"):
        assert "malformed design file" in err
        assert not (tmp_path / "sim").exists()


def test_non_scalar_hparam_value_exits_1_before_any_output(tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"batch": {"kind": "discrete_uniform",
                                           "values": [[1, 2], [3]]}}))
    out = tmp_path / "hp"
    assert main(["sample-hparams", "--space", str(space), "--output-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: values must be JSON scalars, got [1, 2]\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--tol", "--max-evals", "--multistart"])
def test_removed_fit_flags_are_usage_errors(tmp_path, capsys, flag):
    data, _ = _write_dataset(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--input", str(data), flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["fit", "--n"], ["ranova", "--boundary"],
                                  ["fit", "--out", "o"], ["simulate", "--se", "3"]])
def test_abbreviated_flags_are_usage_errors(tmp_path, capsys, argv):
    # a prefix would otherwise select a flag: "--n" on fit is not --n of
    # sample-hparams but a silent --no-intercept
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


#: The settings each command reads, as documented in the README.
_MODEL_SETTINGS = {"input", "output_dir", "formats", "criterion", "response", "fixed_factor",
                   "random_factors", "coding", "intercept", "columns"}
_READS = {
    "fit": _MODEL_SETTINGS,
    "ranova": _MODEL_SETTINGS | {"boundary_correction"},
    "anova": _MODEL_SETTINGS,
    "contrasts": _MODEL_SETTINGS | {"confidence", "levels", "kind"},
    "simulate": {"design", "output_dir", "seed"},
    "sample-hparams": {"space", "n", "seed", "output_dir", "formats"},
    "boxplot-data": {"input", "output_dir", "formats", "response", "columns"},
}
#: Each setting as flags and as a config-file value, neither of them its default.
_GIVEN = {
    "input": (["--input", "d.csv"], "d.csv"),
    "output_dir": (["--output-dir", "out"], "out"),
    "formats": (["--format", "json"], ["json"]),
    "seed": (["--seed", "3"], 3),
    "criterion": (["--criterion", "ml"], "ML"),
    "boundary_correction": (["--boundary-correction"], True),
    "confidence": (["--confidence", "0.9"], 0.9),
    "response": (["--response", "loss"], "loss"),
    "fixed_factor": (["--fixed-factor", "model"], "model"),
    "random_factors": (["--random-factors", "seed"], ["seed"]),
    "coding": (["--coding", "sum_to_zero"], "sum_to_zero"),
    "intercept": (["--no-intercept"], False),
    "columns": (["--columns", "seed=rng"], {"seed": "rng"}),
    "levels": (["--levels", "a,b"], ["a", "b"]),
    "kind": (["--kind", "vs_reference"], "vs_reference"),
    "design": (["--design", "d.json"], "d.json"),
    "space": (["--space", "s.json"], "s.json"),
    "n": (["--n", "3"], 3),
}


def test_commands_read_the_documented_settings():
    assert set(_GIVEN) == {f.name for f in dataclasses.fields(AnalysisConfig)} - {"command"}
    assert {command: set(entry[2]) for command, entry in _COMMANDS.items()} == _READS
    assert sum(map(len, _READS.values())) == 57


@pytest.mark.parametrize("setting", sorted(_GIVEN))
@pytest.mark.parametrize("command", sorted(_READS))
def test_a_command_takes_exactly_the_settings_it_reads(tmp_path, capsys, command, setting):
    flags, value = _GIVEN[setting]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({setting: value}))
    if setting in _COMMANDS[command][2]:
        default = getattr(AnalysisConfig(command=command), setting)
        for argv in ([command, *flags], [command, "--config", str(config_path)]):
            config = _resolve_config(_build_parser().parse_args(argv))
            assert getattr(config, setting) != default, argv
        return
    with pytest.raises(SystemExit) as exc:
        main([command, *flags])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("expvar: error: ")
    assert main([command, "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == (f"error: config key {setting!r} does not "
                                       f"apply to {command}\n")


def test_config_defaults_come_from_library_defaults():
    assert AnalysisConfig(command="fit").model_spec() == ModelSpec()


def test_stdout_tables_printed(tmp_path, capsys):
    data, _ = _write_dataset(tmp_path)
    assert main(["fit", "--input", str(data)]) == 0
    captured = capsys.readouterr().out
    assert "variance_components" in captured
    assert "Std.Dev." in captured


_NO_SCIPY_SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

import expvar
from expvar.cli import main
assert not scipy_modules(), ("import expvar", scipy_modules())
design = {"combos": [["m-net", "adam", 0.45], ["protonet", "sgd", 0.62],
                     ["tadam", "adam", 0.70]],
          "n_seeds": 4, "n_configs": 5, "n_reruns": 3, "sigma_seed": 0.005559,
          "sigma_hparam": 0.042334, "sigma_eps": 0.020828, "rerun_mode": "noisy",
          "generator_seed": 4}
space = {"lr": {"kind": "log_uniform", "low": 0.0001, "high": 0.1}}
with open("design.json", "w") as fh:
    json.dump(design, fh)
with open("space.json", "w") as fh:
    json.dump(space, fh)
data = ["--input", "sim/dataset.csv"]
for argv in (["simulate", "--design", "design.json", "--output-dir", "sim"],
             ["fit", *data, "--output-dir", "fit"],
             ["ranova", *data, "--output-dir", "ranova"],
             ["anova", *data, "--output-dir", "anova"],
             ["contrasts", *data, "--output-dir", "contrasts"],
             ["boxplot-data", *data, "--output-dir", "box"],
             ["sample-hparams", "--space", "space.json", "--n", "3",
              "--output-dir", "hp"]):
    assert main(argv) == 0, argv
    assert not scipy_modules(), (argv[0], scipy_modules())
print("no scipy")
"""


def test_no_scipy_module_is_loaded(tmp_path):
    # the runtime needs numpy only: a fresh interpreter imports expvar and
    # runs every CLI command on a paper-size table without loading scipy
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().endswith("no scipy")
    assert (tmp_path / "contrasts").is_dir()
