"""Command-line front end.

Subcommands cover the full analysis path: fit a mixed model to an
experiment-results CSV, run the random-effect LRTs, the fixed-effects
ANOVA and the means comparisons, simulate synthetic experiment trees, and
emit plot-ready grouped summaries. Every command is deterministic given
its configuration, including generator seeds.

Settings resolve in three layers: built-in defaults, then command-line
flags, then entries of the --config JSON file, which take precedence over
flags. Exit codes: 0 success, 1 statistical or convergence failure, 2 I/O
or schema error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .data import DataError, ModelSpec, ensure_factor, load_csv, write_csv
from .design import DesignError, build_design, contrast_rows, omnibus_rows
from .inference import InferenceError, anova_fixed, contrasts, ranova
from .lmm import FitError, fit_lmm
from .report import (Table, anova_table, boxplot_table, contrast_table,
                     fit_summary, fixed_effects_table, ranova_table,
                     variance_table)
from .simulate import (HyperparamDistribution, SimulationError, TreeDesign,
                       generate, sample_hyperparams)

EXIT_OK = 0
EXIT_STATISTICAL = 1
EXIT_IO = 2


class ConfigError(DataError):
    """Invalid analysis configuration (maps to the I/O exit code)."""


def _typed(kind: type, what: str):
    def convert(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {what}, got {value!r}")
        return value
    return convert


_text, _boolean = _typed(str, "a string"), _typed(bool, "true or false")


def _number(kind: type, what: str, ok=lambda value: True):
    """Converter to an int or float ``kind`` for which ``ok`` holds."""
    def convert(value):
        try:
            number = kind(value) if isinstance(value, str) else value
        except ValueError:
            number = None
        if isinstance(number, bool) or not isinstance(number, (int, kind)) or not ok(number):
            raise ValueError(f"expected {what}, got {value!r}")
        return kind(number)
    return convert


def _one_of(*choices: str, fold=str):
    """Converter to one of ``choices``, after ``fold`` of the text."""
    def convert(value) -> str:
        text = fold(_text(value))
        if text not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {value!r}")
        return text
    return convert


def _names(*choices: str):
    """Converter of a comma list in a string, or a JSON list of strings, to
    a tuple of names, each one of ``choices`` when there are any."""
    def convert(value) -> tuple[str, ...]:
        if isinstance(value, str):
            names = tuple(s.strip() for s in value.split(",") if s.strip())
        else:
            names = tuple(_text(item) for item in _typed(list, "a list")(value))
        bad = set(names) - set(choices or names)
        if bad:
            raise ValueError(f"expected names among {', '.join(choices)}, "
                             f"got {sorted(bad)}")
        return names
    return convert


def _column_renames(value) -> dict[str, str]:
    """``role=column`` pairs in a comma list, or a JSON object of them."""
    if isinstance(value, dict):
        return {_text(role): _text(column) for role, column in value.items()}
    renames = {}
    for pair in _names()(_text(value)):
        role, sep, column = pair.partition("=")
        if not sep:
            raise ValueError(f"entry {pair!r} is not of the form role=column")
        renames[role] = column
    return renames


def _setting(convert, default=None):
    return field(default=default, metadata={"convert": convert})


@dataclass
class AnalysisConfig:
    """Fully resolved settings of one CLI invocation.

    Each field but ``command`` is a setting. A flag gives it as text and a
    config file as a JSON value; both pass through the field's converter,
    which returns the typed value or raises ValueError or TypeError.
    """

    command: str
    input: str | None = _setting(_text)
    output_dir: str | None = _setting(_text)
    formats: tuple[str, ...] = _setting(_names("csv", "json"), ("csv", "json"))
    seed: int | None = _setting(_number(int, "a non-negative integer",
                                        lambda value: value >= 0))
    criterion: str = _setting(_one_of("REML", "ML", fold=str.upper), "REML")
    boundary_correction: bool = _setting(_boolean, False)
    confidence: float = _setting(
        _number(float, "a number in (0, 1)", lambda value: 0.0 < value < 1.0), 0.95)
    response: str = _setting(_text, ModelSpec.response)
    fixed_factor: str = _setting(_text, ModelSpec.fixed_factor)
    random_factors: tuple[str, ...] = _setting(_names(), ModelSpec.random_factors)
    coding: str = _setting(_one_of("treatment", "sum_to_zero"),
                           ModelSpec.contrast_coding)
    intercept: bool = _setting(_boolean, ModelSpec.include_intercept)
    columns: dict | None = _setting(_column_renames)
    levels: tuple[str, ...] | None = _setting(_names())
    kind: str = _setting(_one_of("vs_grand", "vs_reference"), "vs_grand")
    design: str | None = _setting(_text)
    space: str | None = _setting(_text)
    n: int = _setting(_number(int, "an integer"), 10)

    def model_spec(self) -> ModelSpec:
        return ModelSpec(response=self.response, fixed_factor=self.fixed_factor,
                         random_factors=tuple(self.random_factors),
                         contrast_coding=self.coding,
                         include_intercept=self.intercept)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expvar",
        description="Variance-component analysis of experiment results "
                    "with crossed random-effect mixed models.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; overrides flags")
    common.add_argument("--input", help="input CSV of experiment results")
    common.add_argument("--output-dir", help="directory for report files")
    common.add_argument("--format", dest="formats", metavar="FORMAT",
                        help="comma list of output formats (csv,json)")
    common.add_argument("--seed", help="generator seed")
    common.add_argument("--criterion", help="estimation criterion, reml or ml "
                                            "(default reml)")
    common.add_argument("--boundary-correction", action="store_true", default=None,
                        help="halve LRT p-values for the boundary null")
    common.add_argument("--confidence",
                        help="confidence level for intervals (default 0.95)")
    common.add_argument("--response", help="response column name (default accuracy)")
    common.add_argument("--fixed-factor",
                        help="fixed factor, may be composite like model:optimizer")
    common.add_argument("--random-factors",
                        help="comma list of grouping factors (default seed,hparams)")
    common.add_argument("--coding", help="fixed-factor contrast coding, "
                                         "treatment or sum_to_zero")
    common.add_argument("--no-intercept", dest="intercept", action="store_false",
                        default=None, help="drop the intercept column")
    common.add_argument("--columns",
                        help="role=column renames, e.g. model=arch,seed=rng")

    sub.add_parser("fit", parents=[common],
                   help="fit the mixed model, report variance components")
    sub.add_parser("ranova", parents=[common],
                   help="likelihood-ratio test per random factor")
    sub.add_parser("anova", parents=[common],
                   help="fixed-effects F test with Satterthwaite DenDF")
    pc = sub.add_parser("contrasts", parents=[common],
                        help="means comparisons with confidence intervals")
    pc.add_argument("--levels", help="comma list of fixed-factor levels "
                                     "(default: all levels)")
    pc.add_argument("--kind", help="comparison baseline, vs_grand or "
                                   "vs_reference (default vs_grand)")
    ps = sub.add_parser("simulate", parents=[common],
                        help="generate a synthetic experiment tree")
    ps.add_argument("--design", help="JSON file with the tree design")
    ph = sub.add_parser("sample-hparams", parents=[common],
                        help="draw hyper-parameter configurations")
    ph.add_argument("--space", help="JSON file with the search space")
    ph.add_argument("--n", help="number of configurations")
    sub.add_parser("boxplot-data", parents=[common],
                   help="five-number summaries per experiment group")
    return parser


def _read_json(path: Path, kind: str):
    """Parse the JSON file at ``path``; ``kind`` names it in errors."""
    if not path.exists():
        raise ConfigError(f"{kind} file does not exist: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None


def _resolve_config(args: argparse.Namespace) -> AnalysisConfig:
    config = AnalysisConfig(command=args.command)
    settings = {f.name: f.metadata["convert"] for f in dataclasses.fields(config)
                if f.metadata}
    # flags, then config-file entries, which take precedence
    given = [(key, getattr(args, key, None), key) for key in settings]
    if args.config:
        path = Path(args.config)
        overrides = _read_json(path, "config")
        if not isinstance(overrides, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        given += [("formats" if key == "format" else key, value, f"config key {key!r}")
                  for key, value in overrides.items()]
    for key, value, source in given:
        if key not in settings:
            raise ConfigError(f"unknown config key {key!r}")
        if value is None or value == "":
            continue  # an absent, null or empty value keeps the default
        try:
            setattr(config, key, settings[key](value))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{source}: {exc}") from None
    return config


def _write_tables(config: AnalysisConfig, tables: list[Table],
                  extra_json: dict | None = None) -> None:
    for table in tables:
        sys.stdout.write(f"## {table.name}\n")
        sys.stdout.write(table.to_text())
    if config.output_dir is None:
        return
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for table in tables:
        if "csv" in config.formats:
            (out / f"{table.name}.csv").write_text(table.to_csv(), encoding="utf-8")
        if "json" in config.formats:
            (out / f"{table.name}.json").write_text(table.to_json(), encoding="utf-8")
    if extra_json is not None and "json" in config.formats:
        (out / f"{config.command.replace('-', '_')}_summary.json").write_text(
            json.dumps(extra_json, indent=2) + "\n", encoding="utf-8")


def _load_and_prepare(config: AnalysisConfig):
    if not config.input:
        raise ConfigError("--input is required for this command")
    spec = config.model_spec()
    dataset = load_csv(config.input, spec, columns=config.columns or None)
    dataset = ensure_factor(dataset, spec.fixed_factor)
    dm = build_design(dataset, spec)
    return dataset, spec, dm


def cmd_fit(config: AnalysisConfig) -> int:
    dataset, spec, dm = _load_and_prepare(config)
    fit = fit_lmm(dm, dataset.response(), criterion=config.criterion)
    _write_tables(config, [variance_table(fit), fixed_effects_table(fit)],
                  extra_json=fit_summary(fit))
    return EXIT_OK if fit.converged else EXIT_STATISTICAL


def cmd_ranova(config: AnalysisConfig) -> int:
    dataset, spec, dm = _load_and_prepare(config)
    result = ranova(dm, dataset.response(), spec, criterion=config.criterion,
                    boundary_correction=config.boundary_correction)
    meta = {"full_npar": result.full_npar, "full_loglik": result.full_loglik,
            "full_aic": result.full_aic, "criterion": result.criterion,
            "converged": result.converged}
    _write_tables(config, [ranova_table(result)], extra_json=meta)
    ok = result.converged and all(r.converged for r in result.rows)
    return EXIT_OK if ok else EXIT_STATISTICAL


def cmd_anova(config: AnalysisConfig) -> int:
    dataset, spec, dm = _load_and_prepare(config)
    fit = fit_lmm(dm, dataset.response(), criterion=config.criterion)
    L = omnibus_rows(dm)
    row = anova_fixed(fit, L, term=spec.fixed_factor)
    _write_tables(config, [anova_table(row)])
    return EXIT_OK


def cmd_contrasts(config: AnalysisConfig) -> int:
    dataset, spec, dm = _load_and_prepare(config)
    fit = fit_lmm(dm, dataset.response(), criterion=config.criterion)
    levels = config.levels if config.levels else dm.fixed_levels
    L = contrast_rows(dm, levels, kind=config.kind)
    rows = contrasts(fit, L, level=config.confidence, labels=list(levels))
    _write_tables(config, [contrast_table(rows)])
    return EXIT_OK


def _tree_design(config: AnalysisConfig) -> TreeDesign:
    if not config.design:
        raise ConfigError("--design JSON file is required for simulate")
    path = Path(config.design)
    obj = _read_json(path, "design")
    try:
        design = TreeDesign(
            combos=tuple((c[0], c[1], float(c[2])) for c in obj["combos"]),
            n_seeds=int(obj["n_seeds"]), n_configs=int(obj["n_configs"]),
            n_reruns=int(obj["n_reruns"]),
            sigma_seed=float(obj["sigma_seed"]),
            sigma_hparam=float(obj["sigma_hparam"]),
            sigma_eps=float(obj["sigma_eps"]),
            rerun_mode=obj.get("rerun_mode", "deterministic"),
            generator_seed=int(obj.get("generator_seed", 0)),
            nested_configs=bool(obj.get("nested_configs", False)))
    except SimulationError:
        raise  # a ValueError too, but a statistical refusal (exit 1)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ConfigError(f"malformed design file {path}: {exc}") from None
    if config.seed is not None:
        design = dataclasses.replace(design, generator_seed=config.seed)
    return design


def cmd_simulate(config: AnalysisConfig) -> int:
    design = _tree_design(config)
    dataset = generate(design)
    out = Path(config.output_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "dataset.csv"
    write_csv(dataset, csv_path)
    truth = {
        "combos": [list(c) for c in design.combos],
        "n_seeds": design.n_seeds, "n_configs": design.n_configs,
        "n_reruns": design.n_reruns,
        "sigma_seed": design.sigma_seed, "sigma_hparam": design.sigma_hparam,
        "sigma_eps": design.sigma_eps, "rerun_mode": design.rerun_mode,
        "generator_seed": design.generator_seed,
        "nested_configs": design.nested_configs,
        "n_records": dataset.n,
    }
    (out / "truth.json").write_text(json.dumps(truth, indent=2) + "\n",
                                    encoding="utf-8")
    sys.stdout.write(f"wrote {csv_path} ({dataset.n} records) and "
                     f"{out / 'truth.json'}\n")
    return EXIT_OK


def cmd_sample_hparams(config: AnalysisConfig) -> int:
    if not config.space:
        raise ConfigError("--space JSON file is required for sample-hparams")
    path = Path(config.space)
    obj = _read_json(path, "space")
    if not isinstance(obj, dict):
        raise ConfigError(f"space file {path} must hold a JSON object")
    space = {name: HyperparamDistribution.from_json(d) for name, d in obj.items()}
    configs = sample_hyperparams(space, config.n, config.seed or 0)
    names = list(space)
    table = Table(name="hyperparameters", columns=tuple(names),
                  rows=tuple(tuple(c[name] for name in names) for c in configs))
    _write_tables(config, [table])
    return EXIT_OK


def cmd_boxplot_data(config: AnalysisConfig) -> int:
    if not config.input:
        raise ConfigError("--input is required for this command")
    dataset = load_csv(config.input, config.model_spec(),
                       columns=config.columns or None)
    _write_tables(config, [boxplot_table(dataset)])
    return EXIT_OK


_COMMANDS = {
    "fit": cmd_fit,
    "ranova": cmd_ranova,
    "anova": cmd_anova,
    "contrasts": cmd_contrasts,
    "simulate": cmd_simulate,
    "sample-hparams": cmd_sample_hparams,
    "boxplot-data": cmd_boxplot_data,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        return _COMMANDS[args.command](config)
    except (ConfigError, DataError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO
    except (FitError, InferenceError, SimulationError, DesignError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_STATISTICAL


if __name__ == "__main__":
    sys.exit(main())
