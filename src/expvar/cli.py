"""Command-line front end.

Subcommands cover the full analysis path: fit a mixed model to an
experiment-results CSV, run the random-effect LRTs, the fixed-effects
ANOVA and the means comparisons, simulate synthetic experiment trees, and
emit plot-ready grouped summaries. Every command is deterministic given
its configuration, including generator seeds.

``_COMMANDS`` is the one table of the settings (``AnalysisConfig``
fields) each command reads; the parser and the config-file reader are
built from it, so a command takes exactly those as flags and config keys.
Settings resolve in three layers: built-in defaults, then command-line
flags, then entries of the --config JSON file, which take precedence over
flags. Exit codes: 0 success, 1 statistical or convergence failure, 2 I/O,
schema or usage error (a flag or config key the command does not read).
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


def _setting(convert, default=None, flag=None, **argparse_kwargs):
    """A setting's field: its converter, and its flag (``--name`` unless
    ``flag`` is given) with the flag's argparse keywords, help included."""
    return field(default=default, metadata={"convert": convert, "flag": flag,
                                            "argparse": argparse_kwargs})


@dataclass
class AnalysisConfig:
    """Fully resolved settings of one CLI invocation.

    Each field but ``command`` is a setting. A flag gives it as text and a
    config file as a JSON value; both pass through the field's converter,
    which returns the typed value or raises ValueError or TypeError.
    """

    command: str
    input: str | None = _setting(_text, help="input CSV of experiment results")
    output_dir: str | None = _setting(_text, help="directory for report files")
    formats: tuple[str, ...] = _setting(
        _names("csv", "json"), ("csv", "json"), flag="--format", metavar="FORMAT",
        help="comma list of output formats (csv,json)")
    seed: int | None = _setting(_number(int, "a non-negative integer",
                                        lambda value: value >= 0), help="generator seed")
    criterion: str = _setting(_one_of("REML", "ML", fold=str.upper), "REML",
                              help="estimation criterion, reml or ml (default reml)")
    boundary_correction: bool = _setting(_boolean, False, action="store_true",
                                         help="halve LRT p-values for the boundary null")
    confidence: float = _setting(
        _number(float, "a number in (0, 1)", lambda value: 0.0 < value < 1.0), 0.95,
        help="confidence level for intervals (default 0.95)")
    response: str = _setting(_text, ModelSpec.response,
                             help="response column name (default accuracy)")
    fixed_factor: str = _setting(_text, ModelSpec.fixed_factor,
                                 help="fixed factor, may be composite like model:optimizer")
    random_factors: tuple[str, ...] = _setting(
        _names(), ModelSpec.random_factors,
        help="comma list of grouping factors (default seed,hparams)")
    coding: str = _setting(_one_of("treatment", "sum_to_zero"), ModelSpec.contrast_coding,
                           help="fixed-factor contrast coding, treatment or sum_to_zero")
    intercept: bool = _setting(_boolean, ModelSpec.include_intercept, flag="--no-intercept",
                               action="store_false", help="drop the intercept column")
    columns: dict | None = _setting(_column_renames,
                                    help="role=column renames, e.g. model=arch,seed=rng")
    levels: tuple[str, ...] | None = _setting(
        _names(), help="comma list of fixed-factor levels (default: all levels)")
    kind: str = _setting(_one_of("vs_grand", "vs_reference"), "vs_grand",
                         help="comparison baseline, vs_grand (default) or vs_reference")
    design: str | None = _setting(_text, help="JSON file with the tree design")
    space: str | None = _setting(_text, help="JSON file with the search space")
    n: int = _setting(_number(int, "an integer >= 1", lambda value: value >= 1), 10,
                      help="number of configurations (default 10)")

    def model_spec(self) -> ModelSpec:
        return ModelSpec(response=self.response, fixed_factor=self.fixed_factor,
                         random_factors=tuple(self.random_factors),
                         contrast_coding=self.coding,
                         include_intercept=self.intercept)


_SETTINGS = {f.name: f.metadata for f in dataclasses.fields(AnalysisConfig) if f.metadata}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expvar",
        description="Variance-component analysis of experiment results "
                    "with crossed random-effect mixed models.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, reads) in _COMMANDS.items():
        # no abbreviations: on fit, "--n" would otherwise mean --no-intercept
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; overrides flags")
        for name in reads:
            meta = _SETTINGS[name]
            p.add_argument(meta["flag"] or "--" + name.replace("_", "-"), dest=name,
                           default=None, **meta["argparse"])
    return parser


def _read_json(path: Path, kind: str) -> dict:
    """Parse the JSON object in the file at ``path``; ``kind`` names it in errors."""
    if not path.exists():
        raise ConfigError(f"{kind} file does not exist: {path}")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{kind} file {path} must hold a JSON object")
    return obj


def _resolve_config(args: argparse.Namespace) -> AnalysisConfig:
    config = AnalysisConfig(command=args.command)
    reads = _COMMANDS[args.command][2]
    # flags, then config-file entries, which take precedence
    given = [(key, getattr(args, key), key) for key in reads]
    if args.config:
        given += [("formats" if key == "format" else key, value, f"config key {key!r}")
                  for key, value in _read_json(Path(args.config), "config").items()]
    for key, value, source in given:
        if key not in _SETTINGS:
            raise ConfigError(f"unknown {source}")
        if key not in reads:
            raise ConfigError(f"{source} does not apply to {args.command}")
        if value is None or value == "":
            continue  # an absent, null or empty value keeps the default
        try:
            setattr(config, key, _SETTINGS[key]["convert"](value))
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


def _load(config: AnalysisConfig):
    if not config.input:
        raise ConfigError("--input is required for this command")
    return load_csv(config.input, config.model_spec(), columns=config.columns or None)


def _load_and_prepare(config: AnalysisConfig):
    spec = config.model_spec()
    dataset = ensure_factor(_load(config), spec.fixed_factor)
    return dataset, spec, build_design(dataset, spec)


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


_count, _real = _number(int, "an integer"), _number(float, "a number")


def _combo(value) -> tuple[str, str, float]:
    model, optimizer, mean = _typed(list, "a [model, optimizer, mean] list")(value)
    return _text(model), _text(optimizer), _real(mean)


#: The converter of each design-file entry, one per ``TreeDesign`` field.
_DESIGN_FIELDS = {"combos": lambda value: tuple(map(_combo, _typed(list, "a list")(value))),
                  "n_seeds": _count, "n_configs": _count, "n_reruns": _count,
                  "sigma_seed": _real, "sigma_hparam": _real, "sigma_eps": _real,
                  "rerun_mode": _text, "generator_seed": _count, "nested_configs": _boolean}


def _tree_design(config: AnalysisConfig) -> TreeDesign:
    if not config.design:
        raise ConfigError("--design JSON file is required for simulate")
    path = Path(config.design)
    obj = _read_json(path, "design")
    if unknown := sorted(set(obj) - set(_DESIGN_FIELDS)):
        raise ConfigError(f"malformed design file {path}: unknown keys {unknown}")
    kwargs = {}
    for f in dataclasses.fields(TreeDesign):
        if f.name not in obj and f.default is dataclasses.MISSING:
            raise ConfigError(f"malformed design file {path}: missing {f.name!r}")
        try:
            kwargs[f.name] = _DESIGN_FIELDS[f.name](obj.get(f.name, f.default))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed design file {path}: {f.name}: {exc}") from None
    if config.seed is not None:
        kwargs["generator_seed"] = config.seed
    return TreeDesign(**kwargs)


def cmd_simulate(config: AnalysisConfig) -> int:
    design = _tree_design(config)
    dataset = generate(design)
    out = Path(config.output_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "dataset.csv"
    write_csv(dataset, csv_path)
    truth = dict(dataclasses.asdict(design), n_records=dataset.n)
    (out / "truth.json").write_text(json.dumps(truth, indent=2) + "\n",
                                    encoding="utf-8")
    sys.stdout.write(f"wrote {csv_path} ({dataset.n} records) and "
                     f"{out / 'truth.json'}\n")
    return EXIT_OK


def cmd_sample_hparams(config: AnalysisConfig) -> int:
    if not config.space:
        raise ConfigError("--space JSON file is required for sample-hparams")
    obj = _read_json(Path(config.space), "space")
    space = {name: HyperparamDistribution.from_json(d) for name, d in obj.items()}
    configs = sample_hyperparams(space, config.n, config.seed or 0)
    names = list(space)
    table = Table(name="hyperparameters", columns=tuple(names),
                  rows=tuple(tuple(c[name] for name in names) for c in configs))
    _write_tables(config, [table])
    return EXIT_OK


def cmd_boxplot_data(config: AnalysisConfig) -> int:
    _write_tables(config, [boxplot_table(_load(config))])
    return EXIT_OK


#: The model settings: every command that fits a model reads them.
_MODEL = ("input", "output_dir", "formats", "criterion", "response", "fixed_factor",
          "random_factors", "coding", "intercept", "columns")

#: Per command: handler, help, and the settings it reads, its only flags and config keys.
_COMMANDS = {
    "fit": (cmd_fit, "fit the mixed model, report variance components", _MODEL),
    "ranova": (cmd_ranova, "likelihood-ratio test per random factor",
               (*_MODEL, "boundary_correction")),
    "anova": (cmd_anova, "fixed-effects F test with Satterthwaite DenDF", _MODEL),
    "contrasts": (cmd_contrasts, "means comparisons with confidence intervals",
                  (*_MODEL, "confidence", "levels", "kind")),
    "simulate": (cmd_simulate, "generate a synthetic experiment tree",
                 ("design", "output_dir", "seed")),
    "sample-hparams": (cmd_sample_hparams, "draw hyper-parameter configurations",
                       ("space", "n", "seed", "output_dir", "formats")),
    "boxplot-data": (cmd_boxplot_data, "five-number summaries per experiment group",
                     ("input", "output_dir", "formats", "response", "columns")),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        return _COMMANDS[args.command][0](config)
    except (ConfigError, DataError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO
    except (FitError, InferenceError, SimulationError, DesignError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_STATISTICAL


if __name__ == "__main__":
    sys.exit(main())
