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
from .lmm import FitError, FitOptions, fit_lmm
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


@dataclass
class AnalysisConfig:
    """Fully resolved settings of one CLI invocation."""

    command: str
    input: str | None = None
    output_dir: str | None = None
    formats: tuple[str, ...] = ("csv", "json")
    seed: int | None = None
    criterion: str = "REML"
    tol: float = FitOptions.tol
    max_evals: int = FitOptions.max_evals_per_dim
    multistart: tuple[float, ...] = FitOptions.multistart
    boundary_correction: bool = False
    confidence: float = 0.95
    response: str = ModelSpec.response
    fixed_factor: str = ModelSpec.fixed_factor
    random_factors: tuple[str, ...] = ModelSpec.random_factors
    coding: str = ModelSpec.contrast_coding
    intercept: bool = ModelSpec.include_intercept
    columns: dict = field(default_factory=dict)
    levels: tuple[str, ...] | None = None
    kind: str = "vs_grand"
    design: str | None = None
    space: str | None = None
    n: int = 10

    def model_spec(self) -> ModelSpec:
        return ModelSpec(response=self.response, fixed_factor=self.fixed_factor,
                         random_factors=tuple(self.random_factors),
                         contrast_coding=self.coding,
                         include_intercept=self.intercept)

    def fit_options(self) -> FitOptions:
        return FitOptions(tol=self.tol, max_evals_per_dim=self.max_evals,
                          multistart=tuple(self.multistart))

    def validate(self):
        if not 0.0 < self.confidence < 1.0:
            raise ConfigError(f"confidence must be in (0, 1), got {self.confidence}")
        bad = set(self.formats) - {"csv", "json"}
        if bad:
            raise ConfigError(f"unknown output formats: {sorted(bad)}")


def _csv_list(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _column_renames(text: str) -> dict[str, str]:
    """Parse ``role=column`` pairs of the --columns flag."""
    renames = {}
    for pair in _csv_list(text):
        role, sep, column = pair.partition("=")
        if not sep:
            raise ConfigError(f"--columns entry {pair!r} is not of the form role=column")
        renames[role] = column
    return renames


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
    common.add_argument("--format", help="comma list of output formats (csv,json)")
    common.add_argument("--seed", type=int, help="generator seed")
    common.add_argument("--criterion", choices=["reml", "ml"],
                        help="estimation criterion (default reml)")
    common.add_argument("--tol", type=float, help="deviance convergence tolerance")
    common.add_argument("--max-evals", type=int,
                        help="deviance evaluation budget per theta dimension")
    common.add_argument("--multistart", help="comma list of theta starting values")
    common.add_argument("--boundary-correction", action="store_true", default=None,
                        help="halve LRT p-values for the boundary null")
    common.add_argument("--confidence", type=float,
                        help="confidence level for intervals (default 0.95)")
    common.add_argument("--response", help="response column name (default accuracy)")
    common.add_argument("--fixed-factor",
                        help="fixed factor, may be composite like model:optimizer")
    common.add_argument("--random-factors",
                        help="comma list of grouping factors (default seed,hparams)")
    common.add_argument("--coding", choices=["treatment", "sum_to_zero"],
                        help="fixed-factor contrast coding")
    common.add_argument("--no-intercept", action="store_true", default=None,
                        help="drop the intercept column")
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
    pc.add_argument("--kind", choices=["vs_grand", "vs_reference"],
                    help="comparison baseline (default vs_grand)")
    ps = sub.add_parser("simulate", parents=[common],
                        help="generate a synthetic experiment tree")
    ps.add_argument("--design", help="JSON file with the tree design")
    ph = sub.add_parser("sample-hparams", parents=[common],
                        help="draw hyper-parameter configurations")
    ph.add_argument("--space", help="JSON file with the search space")
    ph.add_argument("--n", type=int, help="number of configurations")
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
    flags = {
        "input": args.input,
        "output_dir": args.output_dir,
        "formats": _csv_list(args.format) if args.format else None,
        "seed": args.seed,
        "criterion": args.criterion.upper() if args.criterion else None,
        "tol": args.tol,
        "max_evals": args.max_evals,
        "multistart": (tuple(float(x) for x in _csv_list(args.multistart))
                       if args.multistart else None),
        "boundary_correction": args.boundary_correction,
        "confidence": args.confidence,
        "response": args.response,
        "fixed_factor": args.fixed_factor,
        "random_factors": (_csv_list(args.random_factors)
                           if args.random_factors else None),
        "coding": args.coding,
        "intercept": False if args.no_intercept else None,
        "columns": _column_renames(args.columns) if args.columns else None,
        "levels": _csv_list(args.levels) if getattr(args, "levels", None) else None,
        "kind": getattr(args, "kind", None),
        "design": getattr(args, "design", None),
        "space": getattr(args, "space", None),
        "n": getattr(args, "n", None),
    }
    for key, value in flags.items():
        if value is not None:
            setattr(config, key, value)
    if args.config:
        path = Path(args.config)
        overrides = _read_json(path, "config")
        if not isinstance(overrides, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        renames = {"format": "formats"}
        for key, value in overrides.items():
            key = renames.get(key, key)
            if not hasattr(config, key) or key == "command":
                raise ConfigError(f"unknown config key {key!r}")
            if key in ("formats", "random_factors", "multistart", "levels"):
                value = tuple(value)
            setattr(config, key, value)
    config.validate()
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
    fit = fit_lmm(dm, dataset.response(), criterion=config.criterion,
                  opts=config.fit_options())
    _write_tables(config, [variance_table(fit), fixed_effects_table(fit)],
                  extra_json=fit_summary(fit))
    return EXIT_OK if fit.converged else EXIT_STATISTICAL


def cmd_ranova(config: AnalysisConfig) -> int:
    dataset, spec, dm = _load_and_prepare(config)
    result = ranova(dm, dataset.response(), spec, criterion=config.criterion,
                    opts=config.fit_options(),
                    boundary_correction=config.boundary_correction)
    meta = {"full_npar": result.full_npar, "full_loglik": result.full_loglik,
            "full_aic": result.full_aic, "criterion": result.criterion,
            "converged": result.converged}
    _write_tables(config, [ranova_table(result)], extra_json=meta)
    ok = result.converged and all(r.converged for r in result.rows)
    return EXIT_OK if ok else EXIT_STATISTICAL


def cmd_anova(config: AnalysisConfig) -> int:
    dataset, spec, dm = _load_and_prepare(config)
    fit = fit_lmm(dm, dataset.response(), criterion=config.criterion,
                  opts=config.fit_options())
    L = omnibus_rows(dm)
    row = anova_fixed(fit, L, term=spec.fixed_factor)
    _write_tables(config, [anova_table(row)])
    return EXIT_OK


def cmd_contrasts(config: AnalysisConfig) -> int:
    dataset, spec, dm = _load_and_prepare(config)
    fit = fit_lmm(dm, dataset.response(), criterion=config.criterion,
                  opts=config.fit_options())
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
