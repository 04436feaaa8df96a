import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from expvar.cli import AnalysisConfig, main
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
    # each setting in its JSON form: lists, an object, a boolean, numbers
    config = {"criterion": "ML", "format": ["json"], "random_factors": ["seed", "hparams"],
              "columns": {"seed": "seed"}, "intercept": True, "confidence": 0.9, "seed": 3}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main(["fit", "--input", str(data), "--criterion", "reml", "--format", "csv",
                 "--config", str(config_path), "--output-dir", str(out)])
    assert code == 0
    summary = json.loads((out / "fit_summary.json").read_text())
    assert summary["criterion"] == "ML"
    assert not list(out.glob("*.csv"))


def test_bad_config_key_exits_2(tmp_path, capsys):
    data, _ = _write_dataset(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"not_a_setting": 1}))
    assert main(["fit", "--input", str(data), "--config", str(config_path)]) == 2


_DESIGN = {"combos": [["m", "adam", 0.5]], "n_seeds": 2, "n_configs": 2,
           "n_reruns": 1, "sigma_seed": 0.01, "sigma_hparam": 0.02,
           "sigma_eps": 0.01}


#: Config-file values of the wrong type or value, and keys of fit settings
#: that no longer exist: the recipe of every fit is fixed.
_BAD_CONFIGS = {
    "config_confidence_not_a_number": {"confidence": "x"},
    "config_criterion_not_a_string": {"criterion": 5},
    "config_criterion_unknown": {"criterion": "foo"},
    "config_intercept_not_a_boolean": {"intercept": "no"},
    "config_random_factors_not_a_list": {"random_factors": {"seed": 1}},
    "config_seed_negative": {"seed": -1},
    "config_removed_tol": {"tol": 1e-6},
    "config_removed_max_evals": {"max_evals": 1000},
    "config_removed_multistart": {"multistart": [0.1, 1.0, 10.0]},
}
_BAD_FLAGS = {
    "seed_flag_not_an_integer": ["--seed", "abc"],
    "seed_flag_negative": ["--seed", "-1"],
    "criterion_flag_unknown": ["--criterion", "foo"],
    "confidence_flag_out_of_range": ["--confidence", "1.5"],
}


@pytest.mark.parametrize("case", ["columns_without_equals", "space_not_object",
                                  "simulate_seed_negative", "sample_hparams_seed_negative",
                                  "design_sd_not_a_number", *_BAD_CONFIGS, *_BAD_FLAGS])
def test_malformed_input_exits_2_with_error_line(tmp_path, capsys, case):
    data, _ = _write_dataset(tmp_path)
    if case == "columns_without_equals":
        argv = ["fit", "--input", str(data), "--columns", "seed"]
    elif case in _BAD_CONFIGS:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(_BAD_CONFIGS[case]))
        argv = ["fit", "--input", str(data), "--config", str(config)]
    elif case in _BAD_FLAGS:
        argv = ["fit", "--input", str(data), *_BAD_FLAGS[case]]
    elif case == "space_not_object":
        space = tmp_path / "space.json"
        space.write_text(json.dumps([{"kind": "uniform", "low": 0, "high": 1}]))
        argv = ["sample-hparams", "--space", str(space), "--n", "2"]
    elif case == "sample_hparams_seed_negative":
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"lr": {"kind": "uniform", "low": 0, "high": 1}}))
        argv = ["sample-hparams", "--space", str(space), "--n", "2", "--seed", "-1"]
    elif case == "simulate_seed_negative":
        design = tmp_path / "design.json"
        design.write_text(json.dumps(_DESIGN))
        argv = ["simulate", "--design", str(design), "--output-dir",
                str(tmp_path / "sim"), "--seed", "-1"]
    else:
        design = tmp_path / "design.json"
        design.write_text(json.dumps(dict(_DESIGN, sigma_seed="abc")))
        argv = ["simulate", "--design", str(design), "--output-dir",
                str(tmp_path / "sim")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if "removed" in case:
        assert "unknown config key" in err


@pytest.mark.parametrize("flag", ["--tol", "--max-evals", "--multistart"])
def test_removed_fit_flags_are_usage_errors(tmp_path, capsys, flag):
    data, _ = _write_dataset(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--input", str(data), flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


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
