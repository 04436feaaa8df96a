"""Fixed-effect contrast matrix and random-effect level codes.

The fixed part X encodes one categorical factor (optionally with an
intercept) under treatment or sum-to-zero coding. The random part is one
column of level codes per grouping factor, each owning a block of
columns of the indicator matrix Z. Z is never formed: the mixed-model
cross-products are counts and sums over the codes, and ``DesignMatrices.Z``
builds the dense one-hot matrix on demand only for oracles and diagnostics.
Everything is a pure function of the dataset, so rebuilding gives
bit-identical matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .data import Dataset, ModelSpec, DataError


class DesignError(ValueError):
    """Raised when a design matrix cannot be built as requested."""


@dataclass(frozen=True, eq=False)
class DesignMatrices:
    """Model matrices plus the label bookkeeping needed for reports.

    ``z_blocks`` maps each random factor to its contiguous column range in
    Z; ``z_codes`` holds each factor's level code per row, an index into
    its block, and ``z_level_names`` the level labels in column order
    within each block. The three mappings are read-only views. A design
    compares and hashes by identity, which is what ``fit_lmm`` keys its
    stored fits on.
    """

    X: np.ndarray
    z_codes: Mapping[str, np.ndarray]
    column_map: tuple[str, ...]
    z_blocks: Mapping[str, slice]
    z_level_names: Mapping[str, tuple[str, ...]]
    fixed_factor: str
    fixed_levels: tuple[str, ...]
    coding: str
    include_intercept: bool

    def __post_init__(self):
        for name in ("z_codes", "z_blocks", "z_level_names"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def q(self) -> int:
        return sum(block.stop - block.start for block in self.z_blocks.values())

    @property
    def random_factors(self) -> tuple[str, ...]:
        return tuple(self.z_blocks)

    @property
    def Z(self) -> np.ndarray:
        """The dense one-hot n x q indicator matrix, built on each access."""
        Z = np.zeros((self.n, self.q))
        for factor, block in self.z_blocks.items():
            Z[np.arange(self.n), block.start + self.z_codes[factor]] = 1.0
        return Z


def _level_rows(levels: tuple[str, ...], coding: str,
                intercept: bool) -> tuple[np.ndarray, tuple[str, ...]]:
    """Coefficient row of each level's group mean, and the column names.

    Row j of the k x p matrix maps the coefficients to the mean of level
    j, so X is this matrix indexed by the level codes and every contrast
    is a difference of its rows. Treatment coding takes the first level
    as the reference; sum-to-zero coding gives each non-last level an
    effect column and the last level -1 in all of them.
    """
    k = len(levels)
    if not intercept:
        return np.eye(k), tuple(levels)
    R = np.zeros((k, k))
    R[:, 0] = 1.0
    if k == 1:
        return R, ("(Intercept)",)
    if coding == "treatment":
        R[np.arange(1, k), np.arange(1, k)] = 1.0
        return R, ("(Intercept)",) + tuple(levels[1:])
    R[np.arange(k - 1), np.arange(1, k)] = 1.0
    R[k - 1, 1:] = -1.0
    return R, ("(Intercept)",) + tuple(levels[:-1])


def build_design(dataset: Dataset, spec: ModelSpec) -> DesignMatrices:
    """Build X and the random factors' level codes for a dataset.

    Requires every random factor to have at least two observed levels
    (a single level makes its variance unidentifiable) and every fixed
    level to be observed. X is the level codes indexing an invertible
    k x k matrix of coefficient rows under every coding, so it has full
    column rank exactly when every level occurs.
    """
    if spec.fixed_factor not in dataset.factor_names:
        raise DataError(f"unknown fixed factor {spec.fixed_factor!r}; "
                        f"have {sorted(dataset.factor_names)}")
    levels = dataset.levels(spec.fixed_factor)
    codes = dataset.level_codes(spec.fixed_factor)
    unobserved = np.flatnonzero(np.bincount(codes, minlength=len(levels)) == 0)
    if unobserved.size:
        raise DesignError(f"level {levels[unobserved[0]]!r} of fixed factor "
                          f"{spec.fixed_factor!r} has no observations; the "
                          f"fixed-effect design is rank deficient")
    rows, column_map = _level_rows(levels, spec.contrast_coding,
                                   spec.include_intercept)
    X = rows[codes]

    blocks: dict[str, slice] = {}
    z_levels: dict[str, tuple[str, ...]] = {}
    z_codes: dict[str, np.ndarray] = {}
    start = 0
    for factor in spec.random_factors:
        if factor not in dataset.factor_names:
            raise DataError(f"unknown random factor {factor!r}; "
                            f"have {sorted(dataset.factor_names)}")
        f_levels = dataset.levels(factor)
        if len(f_levels) < 2:
            raise DesignError(f"random factor {factor!r} has a single level "
                              f"{f_levels[0]!r}; its variance is unidentifiable")
        z_codes[factor] = dataset.level_codes(factor)
        blocks[factor] = slice(start, start + len(f_levels))
        z_levels[factor] = f_levels
        start += len(f_levels)

    X.setflags(write=False)
    return DesignMatrices(X=X, z_codes=z_codes, column_map=column_map, z_blocks=blocks,
                          z_level_names=z_levels, fixed_factor=spec.fixed_factor,
                          fixed_levels=levels, coding=spec.contrast_coding,
                          include_intercept=spec.include_intercept)


def drop_random_factor_design(dm: DesignMatrices, factor: str) -> DesignMatrices:
    """Design with one random factor's codes and column block removed."""
    if factor not in dm.z_blocks:
        raise DataError(f"unknown random factor {factor!r}; have {list(dm.z_blocks)}")
    keep = [f for f in dm.z_blocks if f != factor]
    blocks: dict[str, slice] = {}
    start = 0
    for f in keep:
        width = dm.z_blocks[f].stop - dm.z_blocks[f].start
        blocks[f] = slice(start, start + width)
        start += width
    return replace(dm, z_codes={f: dm.z_codes[f] for f in keep}, z_blocks=blocks,
                   z_level_names={f: dm.z_level_names[f] for f in keep})


def _rows_of(dm: DesignMatrices, levels) -> np.ndarray:
    """Coefficient rows reproducing the given levels' group means."""
    index = []
    for level in levels:
        if level not in dm.fixed_levels:
            raise DesignError(f"unknown level {level!r} of factor {dm.fixed_factor!r}")
        index.append(dm.fixed_levels.index(level))
    rows, _ = _level_rows(dm.fixed_levels, dm.coding, dm.include_intercept)
    return rows[index]


def contrast_rows(dm: DesignMatrices, levels, kind: str = "auto") -> np.ndarray:
    """Per-level contrast rows mapping coefficients to group-mean differences.

    ``kind`` selects the comparison baseline: "vs_reference" compares each
    requested level to the lexicographically first level, "vs_grand" to the
    unweighted grand mean of all level means. "auto" follows the coding:
    treatment coding compares to the reference, sum-to-zero to the grand
    mean. Rows are ordered like ``levels``; a level contrasted with itself
    yields a zero row.
    """
    if kind == "auto":
        kind = "vs_reference" if dm.coding == "treatment" else "vs_grand"
    if kind not in ("vs_reference", "vs_grand"):
        raise DesignError(f"unknown contrast kind {kind!r}")
    all_rows = _rows_of(dm, dm.fixed_levels)
    if kind == "vs_reference":
        base = all_rows[0]
    else:
        base = all_rows.mean(axis=0)
    return _rows_of(dm, levels) - base


def difference_rows(dm: DesignMatrices, pairs) -> np.ndarray:
    """Contrast rows for level-vs-level differences, one per (a, b) pair."""
    rows = _rows_of(dm, [level for pair in pairs for level in pair])
    return rows[0::2] - rows[1::2]


def omnibus_rows(dm: DesignMatrices) -> np.ndarray:
    """Full-row-rank contrast matrix testing equality of all level means.

    Used as the default term for the fixed-effects ANOVA; k = (number of
    levels) - 1.
    """
    k = len(dm.fixed_levels)
    if k < 2:
        raise DesignError(f"fixed factor {dm.fixed_factor!r} has a single level; "
                          f"no testable fixed term")
    return difference_rows(dm, [(lv, dm.fixed_levels[0]) for lv in dm.fixed_levels[1:]])
