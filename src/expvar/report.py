"""Report tables and their CSV/JSON renderings.

Column names follow the conventional mixed-model summary layouts
("npar logLik AIC LRT Df Pr(>Chisq)" and friends) so the outputs line up
with what practitioners expect from standard tooling. JSON carries full
float precision; CSV display columns are rounded to 6 significant digits.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii

import numpy as np

from .data import Dataset
from .inference import AnovaRow, ContrastRow, RanovaResult
from .lmm import FittedLMM

CSV_SIGNIFICANT_DIGITS = 6
BOXPLOT_QUANTILES = (0.0, 0.25, 0.5, 0.75, 1.0)
_FLOAT_FORMAT = f"{{:.{CSV_SIGNIFICANT_DIGITS}g}}".format


@dataclass(frozen=True)
class Table:
    """A rectangular report: column names plus mixed str/number rows."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    label_header: str = ""
    row_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(f"row has {len(row)} cells for "
                                 f"{len(self.columns)} columns")
        if self.row_labels is not None and len(self.row_labels) != len(self.rows):
            raise ValueError("row_labels length does not match rows")

    @cached_property
    def _grid(self) -> list[list[str]]:
        """Header and rendered cells, one list per column (row labels first).

        Built once, for both the text and the CSV rendering.
        """
        columns = list(zip(*self.rows)) or [()] * len(self.columns)
        grid = [[name, *_cells(column)] for name, column in zip(self.columns, columns)]
        if self.row_labels is not None:
            grid.insert(0, [self.label_header, *self.row_labels])
        return grid

    def to_csv(self) -> str:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(zip(*self._grid))
        return buf.getvalue()

    def _json_value(self, value):
        if value is None or isinstance(value, (bool, str)):
            return value
        if isinstance(value, (int, np.integer)):
            return int(value)
        value = float(value)
        if math.isnan(value):
            return None
        return value

    def to_json_obj(self) -> dict:
        rows = []
        for i, row in enumerate(self.rows):
            obj = {}
            if self.row_labels is not None:
                obj["label"] = self.row_labels[i]
            for col, value in zip(self.columns, row):
                obj[col] = self._json_value(value)
            rows.append(obj)
        return {"table": self.name, "columns": list(self.columns), "rows": rows}

    def to_json(self) -> str:
        """``json.dumps(self.to_json_obj(), indent=2)`` plus a newline.

        The cells are rendered a column at a time: json uses its C encoder
        only without ``indent``, and its Python one is slow on large
        tables. Names or labels that are not all strings, and repeated
        keys, which a dict merges, take json's path.
        """
        keys = ([] if self.row_labels is None else ["label"]) + list(self.columns)
        names = (self.name, *keys, *(self.row_labels or ()))
        if len(set(keys)) < len(keys) or not all(isinstance(s, str) for s in names):
            return json.dumps(self.to_json_obj(), indent=2) + "\n"
        texts = [_json_texts(self._json_value, column) for column in zip(*self.rows)]
        if self.row_labels is not None:
            texts.insert(0, map(encode_basestring_ascii, self.row_labels))
        if keys:
            # one %-template per row, so the keys' own % signs are escaped
            row = ",\n".join(f"      {encode_basestring_ascii(key).replace('%', '%%')}: %s"
                              for key in keys)
            row = f"    {{\n{row}\n    }}"
            rows = [row % values for values in zip(*texts)]
        else:
            rows = ["    {}"] * len(self.rows)
        columns = [f"    {encode_basestring_ascii(c)}" for c in self.columns]
        return (f'{{\n  "table": {encode_basestring_ascii(self.name)},\n'
                f'  "columns": {_json_list(columns)},\n'
                f'  "rows": {_json_list(rows)}\n}}\n')

    def to_text(self) -> str:
        """Fixed-width rendering for terminal output."""
        padded = []
        for column in self._grid:
            width = max(map(len, column))
            padded.append([cell.rjust(width) for cell in column])
        return "\n".join(map("  ".join, zip(*padded))) + "\n"


def _json_list(items: list[str]) -> str:
    """A list of already indented items, as json.dumps(indent=2) nests it."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _json_scalar(value) -> str:
    """JSON text of an already converted table value (NaN is None by then)."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


def _json_texts(convert, column) -> Iterator[str]:
    """JSON texts of one column's cells, as ``json.dumps(convert(cell))``.

    Columns of one plain type (the bulk of large tables) are mapped
    through a single formatter; anything else goes cell by cell. The
    texts are made as they are read, so a table's rows are built without
    holding every cell's text at once.
    """
    kinds = set(map(type, column))
    if kinds == {float} and all(map(math.isfinite, column)):
        return map(float.__repr__, column)
    if kinds == {str}:
        return map(encode_basestring_ascii, column)
    if kinds == {int}:
        return map(int.__repr__, column)
    return (_json_scalar(convert(value)) for value in column)


def _cells(column) -> Iterable[str]:
    """``_cell`` of each value of one column.

    Columns of one plain type (the bulk of large tables) are mapped
    through a single formatter; anything else goes cell by cell.
    """
    kinds = set(map(type, column))
    if kinds == {float}:
        return map(_FLOAT_FORMAT, column)
    if kinds == {str}:
        return column
    if kinds == {int}:
        return map(int.__repr__, column)
    return map(_cell, column)


def _cell(value) -> str:
    """CSV/text rendering of one value; floats keep 6 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.{CSV_SIGNIFICANT_DIGITS}g}"
    return str(value)


def variance_table(fit: FittedLMM) -> Table:
    """Variance-component summary in the Groups/Name/Variance/Std.Dev. layout."""
    rows = []
    labels = []
    for name, sigma2 in zip(fit.vc.names, fit.vc.sigma2):
        labels.append(name)
        rows.append(("(Intercept)", sigma2, math.sqrt(sigma2)))
    labels.append("Residual")
    rows.append(("", fit.vc.sigma2_eps, fit.vc.sd_eps))
    return Table(name="variance_components",
                 columns=("Name", "Variance", "Std.Dev."),
                 rows=tuple(rows), label_header="Groups",
                 row_labels=tuple(labels))


def fixed_effects_table(fit: FittedLMM) -> Table:
    rows = tuple((float(b), float(se)) for b, se in
                 zip(fit.beta, np.sqrt(np.diag(fit.vcov_beta))))
    return Table(name="fixed_effects", columns=("Estimate", "Std. Error"),
                 rows=rows, label_header="", row_labels=tuple(fit.column_map))


def fit_summary(fit: FittedLMM) -> dict:
    """Machine-readable fit summary (criterion, likelihood, convergence)."""
    return {
        "criterion": fit.criterion,
        "loglik": fit.loglik,
        "aic": fit.aic,
        "npar": fit.npar,
        "converged": fit.converged,
        "deviance_profile_evals": fit.deviance_profile_evals,
        "fixed_effects": {name: float(b) for name, b in zip(fit.column_map, fit.beta)},
        "variance_components": {
            **{name: s2 for name, s2 in zip(fit.vc.names, fit.vc.sigma2)},
            "Residual": fit.vc.sigma2_eps,
        },
    }


def ranova_table(result: RanovaResult) -> Table:
    rows = []
    labels = []
    for r in result.rows:
        labels.append(f"(1 | {r.factor})")
        rows.append((r.npar, r.loglik, r.aic, r.lrt, r.df, r.p_value))
    return Table(name="random_effects_anova",
                 columns=("npar", "logLik", "AIC", "LRT", "Df", "Pr(>Chisq)"),
                 rows=tuple(rows), label_header="", row_labels=tuple(labels))


def anova_table(rows: list[AnovaRow] | AnovaRow) -> Table:
    if isinstance(rows, AnovaRow):
        rows = [rows]
    labels = tuple(r.term for r in rows)
    body = tuple((r.sum_sq, r.mean_sq, r.num_df, r.den_df, r.f_value, r.p_value)
                 for r in rows)
    return Table(name="fixed_effects_anova",
                 columns=("Sum Sq", "Mean Sq", "NumDF", "DenDF", "F value", "Pr(>F)"),
                 rows=body, label_header="", row_labels=labels)


def contrast_table(rows: list[ContrastRow]) -> Table:
    labels = tuple(r.label for r in rows)
    body = tuple((r.estimate, r.std_error, r.lower, r.upper, r.p_value)
                 for r in rows)
    return Table(name="means_comparisons",
                 columns=("Estimate", "Std. Error", "lower", "upper", "Pr(>|t|)"),
                 rows=body, label_header="", row_labels=labels)


def boxplot_table(dataset: Dataset) -> Table:
    """Per-(model, optimizer, config, seed) five-number summaries.

    Quantiles use linear interpolation (the type-7 rule). Output rows are
    sorted by group key, so the table is deterministic.
    """
    keys = ("model", "optimizer", "hparams", "seed")
    # level codes are ranks of the sorted labels, so sorting the codes
    # sorts the label tuples
    order = np.lexsort([dataset.level_codes(k) for k in reversed(keys)])
    codes = [dataset.level_codes(k)[order] for k in keys]
    new_group = np.zeros(dataset.n, dtype=bool)
    new_group[0] = True
    for c in codes:
        new_group[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(new_group)
    sizes = np.diff(starts, append=dataset.n)
    y = dataset.response()[order]
    stats = np.empty((starts.size, len(BOXPLOT_QUANTILES)))
    for size in np.unique(sizes).tolist():
        groups = np.flatnonzero(sizes == size)
        block = y[starts[groups, None] + np.arange(size)]
        stats[groups] = np.quantile(block, BOXPLOT_QUANTILES, axis=1, method="linear").T
    labels = [np.array(dataset.levels(k), dtype=object)[c[starts]].tolist()
              for k, c in zip(keys, codes)]
    return Table(name="boxplot_data",
                 columns=("model", "optimizer", "hparams", "seed",
                          "min", "q1", "median", "q3", "max", "n"),
                 rows=tuple(zip(*labels, *stats.T.tolist(), sizes.tolist())))
