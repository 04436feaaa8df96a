"""Experiment result tables: ingestion, validation, categorical encoding.

An experiment result is one leaf of the combo -> seed -> hyper-parameter
config -> rerun tree: five categorical labels plus one metric value.
Labels (including seeds) are opaque identifiers, never numbers to compute
with. Datasets are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

#: Default CSV column names for the five grouping factors.
FACTOR_COLUMNS = ("model", "optimizer", "seed", "hparams", "rerun")
DEFAULT_RESPONSE = "accuracy"


class DataError(ValueError):
    """Base class for ingestion and validation failures."""


class SchemaError(DataError):
    """The input table is missing a required column."""


class RowError(DataError):
    """A single row failed validation.

    Attributes:
        row: 1-based data row index (header not counted).
    """

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class EmptyDataError(DataError):
    """The input contains no data rows."""


@dataclass(frozen=True)
class ExperimentRecord:
    """One observed experiment leaf: five labels and a metric value."""

    model: str
    optimizer: str
    seed: str
    hparams: str
    rerun: str
    metric: float

    def __post_init__(self):
        for name in FACTOR_COLUMNS:
            value = getattr(self, name)
            if not isinstance(value, str) or value == "":
                raise DataError(f"label {name!r} must be a non-empty string, got {value!r}")
        if not isinstance(self.metric, (int, float)) or not math.isfinite(self.metric):
            raise DataError(f"metric must be finite, got {self.metric!r}")
        object.__setattr__(self, "metric", float(self.metric))


@dataclass(frozen=True)
class Dataset:
    """Validated, analysis-ready collection of experiment records.

    Factor levels are the lexicographically sorted distinct labels, so the
    encoding (and the reference level of treatment contrasts) does not
    depend on input row order. Derived factors added by :func:`cross_factor`
    live alongside the five base factors.
    """

    records: tuple[ExperimentRecord, ...]
    response_name: str = DEFAULT_RESPONSE
    derived: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.records) == 0:
            raise EmptyDataError("dataset must contain at least one record")
        for name, values in self.derived.items():
            if len(values) != len(self.records):
                raise DataError(f"derived factor {name!r} has {len(values)} values for "
                                f"{len(self.records)} records")

    @property
    def n(self) -> int:
        return len(self.records)

    @property
    def factor_names(self) -> tuple[str, ...]:
        return FACTOR_COLUMNS + tuple(self.derived)

    def factor_values(self, name: str) -> tuple[str, ...]:
        """Per-record labels of a base or derived factor."""
        if name in FACTOR_COLUMNS:
            return tuple(getattr(r, name) for r in self.records)
        if name in self.derived:
            return tuple(self.derived[name])
        raise DataError(f"unknown factor {name!r}; have {sorted(self.factor_names)}")

    def levels(self, name: str) -> tuple[str, ...]:
        return tuple(sorted(set(self.factor_values(name))))

    def level_codes(self, name: str) -> np.ndarray:
        """Integer codes of a factor, indices into ``levels(name)``."""
        levels = self.levels(name)
        index = {level: i for i, level in enumerate(levels)}
        return np.array([index[v] for v in self.factor_values(name)], dtype=np.intp)

    def response(self) -> np.ndarray:
        return np.array([r.metric for r in self.records], dtype=float)

    def with_factor(self, name: str, values: Sequence[str]) -> "Dataset":
        """New dataset with an added derived factor; self is unchanged."""
        if name in self.factor_names:
            raise DataError(f"factor {name!r} already exists")
        derived = dict(self.derived)
        derived[name] = tuple(values)
        return replace(self, derived=derived)

    def take(self, indices: Sequence[int]) -> "Dataset":
        """Row-reordered dataset; derived factors stay aligned with records."""
        idx = list(indices)
        if sorted(idx) != list(range(self.n)):
            raise DataError("indices must be a permutation of all record positions")
        return replace(
            self,
            records=tuple(self.records[i] for i in idx),
            derived={name: tuple(values[i] for i in idx)
                     for name, values in self.derived.items()})


@dataclass(frozen=True)
class ModelSpec:
    """Declares the response column and the model's factor structure.

    The fixed factor defaults to the model x optimizer interaction (one
    level per observed combination); the random part defaults to crossed
    intercepts for seed and hyper-parameter configuration.
    """

    response: str = DEFAULT_RESPONSE
    fixed_factor: str = "model:optimizer"
    random_factors: tuple[str, ...] = ("seed", "hparams")
    contrast_coding: str = "treatment"  # or "sum_to_zero"
    include_intercept: bool = True

    def __post_init__(self):
        object.__setattr__(self, "random_factors", tuple(self.random_factors))
        if len(set(self.random_factors)) != len(self.random_factors):
            raise DataError("random_factors must be duplicate-free")
        if self.fixed_factor in self.random_factors:
            raise DataError(f"fixed factor {self.fixed_factor!r} cannot also be random")
        if self.contrast_coding not in ("treatment", "sum_to_zero"):
            raise DataError(f"unknown contrast coding {self.contrast_coding!r}")


def load_csv(path, spec: ModelSpec | None = None,
             columns: Mapping[str, str] | None = None) -> Dataset:
    """Read a UTF-8, RFC 4180 CSV of experiment results into a Dataset.

    ``columns`` maps the canonical factor roles (model, optimizer, seed,
    hparams, rerun) to the file's header names when they differ. The
    response column is ``spec.response``. A missing or non-finite metric in
    any row is a hard error, never a silent drop.
    """
    spec = spec or ModelSpec()
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file does not exist: {path}")
    colmap = {name: name for name in FACTOR_COLUMNS}
    if columns:
        unknown = set(columns) - set(FACTOR_COLUMNS)
        if unknown:
            raise SchemaError(f"unknown factor roles in column mapping: {sorted(unknown)}")
        colmap.update(columns)

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptyDataError(f"empty file: {path}")
        header = set(reader.fieldnames)
        required = list(colmap.values()) + [spec.response]
        for col in required:
            if col not in header:
                raise SchemaError(f"missing column {col!r} in {path} "
                                  f"(found {sorted(header)})")
        records = []
        for i, row in enumerate(reader, start=1):
            raw = row.get(spec.response)
            if raw is None or raw.strip() == "":
                raise RowError(i, f"missing {spec.response!r} value")
            try:
                metric = float(raw)
            except ValueError:
                raise RowError(i, f"non-numeric {spec.response!r} value {raw!r}") from None
            if not math.isfinite(metric):
                raise RowError(i, f"non-finite {spec.response!r} value {raw!r}")
            try:
                records.append(ExperimentRecord(
                    model=row[colmap["model"]],
                    optimizer=row[colmap["optimizer"]],
                    seed=row[colmap["seed"]],
                    hparams=row[colmap["hparams"]],
                    rerun=row[colmap["rerun"]],
                    metric=metric,
                ))
            except DataError as exc:
                raise RowError(i, str(exc)) from None
    if not records:
        raise EmptyDataError(f"no data rows in {path}")
    return Dataset(records=tuple(records), response_name=spec.response)


def write_csv(dataset: Dataset, path, columns: Mapping[str, str] | None = None) -> None:
    """Write a Dataset back to CSV; round-trips through :func:`load_csv`."""
    colmap = {name: name for name in FACTOR_COLUMNS}
    if columns:
        colmap.update(columns)
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([colmap[name] for name in FACTOR_COLUMNS] + [dataset.response_name])
        for r in dataset.records:
            writer.writerow([r.model, r.optimizer, r.seed, r.hparams, r.rerun,
                             repr(r.metric)])


def cross_factor(dataset: Dataset, a: str, b: str) -> Dataset:
    """Add the derived interaction factor "a:b" of observed (a, b) pairs.

    Levels are exactly the pairs that occur in the data; combinations never
    observed together contribute no level.
    """
    va = dataset.factor_values(a)
    vb = dataset.factor_values(b)
    return dataset.with_factor(f"{a}:{b}", tuple(f"{x}:{y}" for x, y in zip(va, vb)))


def ensure_factor(dataset: Dataset, name: str) -> Dataset:
    """Materialize a composite factor like "model:optimizer:rerun" on demand.

    Splits on ":" and left-folds :func:`cross_factor` over the parts; a
    no-op when the factor already exists.
    """
    if name in dataset.factor_names:
        return dataset
    parts = name.split(":")
    if len(parts) < 2:
        raise DataError(f"unknown factor {name!r}; have {sorted(dataset.factor_names)}")
    current = parts[0]
    for part in parts[1:]:
        combined = f"{current}:{part}"
        if combined not in dataset.factor_names:
            dataset = cross_factor(dataset, current, part)
        current = combined
    return dataset
