"""Experiment result tables: ingestion, validation, categorical encoding.

An experiment result is one leaf of the combo -> seed -> hyper-parameter
config -> rerun tree: five categorical labels plus one metric value. A
Dataset holds such results as columns: per factor its sorted levels and
one integer code per row, plus one float array of metric values. Labels
(including seeds) are opaque identifiers, never numbers to compute with.
Datasets are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from types import MappingProxyType
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


def encode_labels(name: str, values: Sequence) -> tuple[tuple[str, ...], np.ndarray]:
    """Sorted distinct labels of one factor and each value's index into them."""
    distinct = dict.fromkeys(values)
    for label in distinct:
        if not isinstance(label, str) or label == "":
            raise DataError(f"label {name!r} must be a non-empty string, got {label!r}")
    levels = tuple(sorted(distinct))
    index = {level: i for i, level in enumerate(levels)}
    codes = np.fromiter(map(index.__getitem__, values), dtype=np.intp,
                        count=len(values))
    return levels, codes


def _frozen(array: np.ndarray) -> np.ndarray:
    """A read-only array holding ``array``'s values (copied if writable)."""
    if array.flags.writeable:
        array = array.copy()
        array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class Dataset:
    """Validated, analysis-ready experiment results, stored as columns.

    ``factors`` maps each factor name to its levels, the lexicographically
    sorted distinct labels, and one ``intp`` code per row indexing into
    them, so the encoding (and the reference level of treatment contrasts)
    does not depend on input row order. The five base factors come first;
    derived factors added by :func:`cross_factor` follow. ``y`` is the
    read-only float64 response. Datasets compare by identity; compare
    their columns to compare contents. Build one from per-row labels with
    :meth:`from_labels`; the direct constructor checks that every factor's
    levels are sorted, distinct, non-empty strings and its codes index
    into them.
    """

    factors: Mapping[str, tuple[tuple[str, ...], np.ndarray]]
    y: np.ndarray
    response_name: str = DEFAULT_RESPONSE

    def __post_init__(self):
        y = _frozen(np.asarray(self.y, dtype=float))
        if y.size == 0:
            raise EmptyDataError("dataset must contain at least one record")
        bad = np.flatnonzero(~np.isfinite(y))
        if bad.size:
            i = int(bad[0])
            raise RowError(i + 1, f"metric must be finite, got {float(y[i])!r}")
        if tuple(self.factors)[:len(FACTOR_COLUMNS)] != FACTOR_COLUMNS:
            raise DataError(f"dataset needs the factors {FACTOR_COLUMNS} first, "
                            f"got {tuple(self.factors)}")
        factors = {}
        for name, (levels, codes) in self.factors.items():
            levels = tuple(levels)
            if not all(isinstance(level, str) and level for level in levels):
                raise DataError(f"factor {name!r} levels must be non-empty strings")
            if not all(a < b for a, b in zip(levels, levels[1:])):
                raise DataError(f"factor {name!r} levels must be sorted and distinct")
            codes = np.asarray(codes)
            if codes.shape != y.shape:
                raise DataError(f"factor {name!r} has {codes.size} codes for "
                                f"{y.size} records")
            if codes.dtype.kind not in "iu" or codes.min() < 0 or codes.max() >= len(levels):
                raise DataError(f"factor {name!r} codes must be integers in "
                                f"0..{len(levels) - 1}")
            factors[name] = (levels, _frozen(codes.astype(np.intp, copy=False)))
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "factors", MappingProxyType(factors))

    @classmethod
    def from_labels(cls, labels: Mapping[str, Sequence[str]], response: Sequence[float],
                    response_name: str = DEFAULT_RESPONSE) -> "Dataset":
        """Dataset from one label sequence per base factor and the response."""
        if set(labels) != set(FACTOR_COLUMNS):
            raise DataError(f"need labels for exactly {FACTOR_COLUMNS}, got {sorted(labels)}")
        return cls(factors={name: encode_labels(name, list(labels[name]))
                            for name in FACTOR_COLUMNS},
                   y=np.array(response, dtype=float), response_name=response_name)

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def factor_names(self) -> tuple[str, ...]:
        return tuple(self.factors)

    def _factor(self, name: str) -> tuple[tuple[str, ...], np.ndarray]:
        try:
            return self.factors[name]
        except KeyError:
            raise DataError(f"unknown factor {name!r}; "
                            f"have {sorted(self.factor_names)}") from None

    def levels(self, name: str) -> tuple[str, ...]:
        return self._factor(name)[0]

    def level_codes(self, name: str) -> np.ndarray:
        """Integer codes of a factor, indices into ``levels(name)``."""
        return self._factor(name)[1]

    def response(self) -> np.ndarray:
        """The read-only response array itself, not a copy."""
        return self.y

    def take(self, indices: Sequence[int]) -> "Dataset":
        """Row-reordered dataset: every column gathered by ``indices``."""
        idx = np.asarray(indices, dtype=np.intp)
        if idx.shape != (self.n,) or not np.array_equal(np.sort(idx), np.arange(self.n)):
            raise DataError("indices must be a permutation of all record positions")
        return replace(self, y=self.y[idx],
                       factors={name: (levels, codes[idx])
                                for name, (levels, codes) in self.factors.items()})


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
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyDataError(f"empty file: {path}")
        for col in list(colmap.values()) + [spec.response]:
            if col not in header:
                raise SchemaError(f"missing column {col!r} in {path} "
                                  f"(found {sorted(set(header))})")
        rows = [row for row in reader if row]  # blank lines are skipped, not counted
    if not rows:
        raise EmptyDataError(f"no data rows in {path}")

    # a repeated header name reads its last column; a short row reads None
    position = {name: j for j, name in enumerate(header)}

    def column(name: str) -> list:
        j = position[name]
        return [row[j] if len(row) > j else None for row in rows]

    raw = column(spec.response)
    labels = {role: column(colmap[role]) for role in FACTOR_COLUMNS}
    # the first bad row wins; within a row the metric is checked first
    problems = []
    try:
        y = np.array(list(map(float, raw)))
    except (TypeError, ValueError):
        y = None
    if y is None or not np.isfinite(y).all():
        problems.append(next((i, 0, message) for i, message in
                             enumerate(_metric_problem(v, spec.response) for v in raw)
                             if message))
    factors = {}
    for order, (role, values) in enumerate(labels.items(), start=1):
        try:
            factors[role] = encode_labels(role, values)
        except DataError as exc:  # names the column's first empty or missing label
            bad = next(i for i, v in enumerate(values) if v is None or v == "")
            problems.append((bad, order, str(exc)))
    if problems:
        i, _, message = min(problems)
        raise RowError(i + 1, message)
    return Dataset(factors=factors, y=y, response_name=spec.response)


def _metric_problem(raw: str | None, response: str) -> str | None:
    """Why a metric cell does not parse to a finite float, or None if it does."""
    if raw is None or raw.strip() == "":
        return f"missing {response!r} value"
    try:
        value = float(raw)
    except ValueError:
        return f"non-numeric {response!r} value {raw!r}"
    return None if math.isfinite(value) else f"non-finite {response!r} value {raw!r}"


def write_csv(dataset: Dataset, path, columns: Mapping[str, str] | None = None) -> None:
    """Write a Dataset back to CSV; round-trips through :func:`load_csv`."""
    colmap = {name: name for name in FACTOR_COLUMNS}
    if columns:
        colmap.update(columns)
    labels = []
    for name in FACTOR_COLUMNS:
        levels, codes = dataset.factors[name]
        labels.append(np.array(levels, dtype=object)[codes].tolist())
    metrics = map(repr, dataset.y.tolist())
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([colmap[name] for name in FACTOR_COLUMNS] + [dataset.response_name])
        writer.writerows(zip(*labels, metrics))


def cross_factor(dataset: Dataset, a: str, b: str) -> Dataset:
    """Add the derived interaction factor "a:b" of observed (a, b) pairs.

    Levels are exactly the joined "x:y" labels of the pairs that occur in
    the data, sorted as strings; combinations never observed together
    contribute no level. Two pairs that join to the same label are refused.
    """
    name = f"{a}:{b}"
    if name in dataset.factor_names:
        raise DataError(f"factor {name!r} already exists")
    levels_a, codes_a = dataset._factor(a)
    levels_b, codes_b = dataset._factor(b)
    width = len(levels_b)
    pairs, codes = np.unique(codes_a * width + codes_b, return_inverse=True)
    joined: dict[str, tuple[str, str]] = {}
    for p in pairs.tolist():
        pair = (levels_a[p // width], levels_b[p % width])
        label = f"{pair[0]}:{pair[1]}"
        if label in joined:
            raise DataError(f"pairs {joined[label]} and {pair} of {a!r} and {b!r} "
                            f"both give the level {label!r}")
        joined[label] = pair
    labels = list(joined)
    order = sorted(range(len(labels)), key=labels.__getitem__)
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    return replace(dataset, factors={**dataset.factors,
                                     name: (tuple(labels[k] for k in order), rank[codes])})


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
