import numpy as np
import pytest

from expvar.data import Dataset, ModelSpec
from expvar.design import (DesignError, build_design,
                           contrast_rows, difference_rows,
                           drop_random_factor_design, omnibus_rows)

from conftest import crossed_dataset, dataset_from_rows, one_way_dataset, ONE_WAY_SPEC


def _six_level_dataset(per_level=2):
    keys = [(m, o, i) for m in ("a", "b", "c") for o in ("adam", "sgd")
            for i in range(per_level)]
    return dataset_from_rows((m, o, f"s{i}", f"h{i}", f"{m}{o}{i}", 0.1 * k)
                             for k, (m, o, i) in enumerate(keys))


def test_treatment_coding_shape():
    ds = _six_level_dataset()
    from expvar.data import cross_factor
    ds = cross_factor(ds, "model", "optimizer")
    dm = build_design(ds, ModelSpec())
    assert ds.n == 12
    assert dm.X.shape == (12, 6)
    assert dm.column_map[0] == "(Intercept)"
    assert dm.p == 1 + (6 - 1)


def test_two_random_factor_blocks():
    ds = crossed_dataset(n_seeds=10, n_configs=15, n_reruns=1,
                         combos=(("m", "adam", 0.5),), generator_seed=5)
    dm = build_design(ds, ModelSpec())
    assert dm.Z.shape == (ds.n, 25)
    assert dm.z_blocks["seed"] == slice(0, 10)
    assert dm.z_blocks["hparams"] == slice(10, 25)
    # exactly one indicator per factor per row
    for block in dm.z_blocks.values():
        assert np.all(dm.Z[:, block].sum(axis=1) == 1.0)


def test_single_fixed_level_intercept_only():
    ds = one_way_dataset(n_groups=3, per_group=2, seed=1)
    dm = build_design(ds, ONE_WAY_SPEC)
    assert dm.X.shape == (6, 1)
    assert np.all(dm.X == 1.0)


def test_rebuild_bit_identical():
    ds = crossed_dataset(generator_seed=8)
    dm1 = build_design(ds, ModelSpec())
    dm2 = build_design(ds, ModelSpec())
    assert np.array_equal(dm1.X, dm2.X)
    assert np.array_equal(dm1.Z, dm2.Z)
    assert dm1.column_map == dm2.column_map


def test_balanced_column_sums_match_level_counts():
    ds = _six_level_dataset(per_level=3)
    from expvar.data import cross_factor
    ds = cross_factor(ds, "model", "optimizer")
    dm = build_design(ds, ModelSpec())
    counts = dm.X[:, 1:].sum(axis=0)
    assert np.all(counts == 3.0)


def test_single_level_random_factor_rejected():
    ds = one_way_dataset(n_groups=4, per_group=2, seed=2)
    spec = ModelSpec(fixed_factor="model", random_factors=("hparams",))
    with pytest.raises(DesignError, match="hparams"):
        build_design(ds, spec)


def test_rank_refusal_names_unobserved_level():
    # the direct constructor allows levels that no row uses; X then loses
    # full column rank, whichever level is missing (the reference included)
    base = _six_level_dataset()
    levels = ("a", "b", "c")
    _, codes = base.factors["model"]
    for missing in range(3):
        kept = [j for j in range(3) if j != missing]
        factors = dict(base.factors)
        factors["model"] = (levels, np.array(kept, dtype=np.intp)[codes % 2])
        ds = Dataset(factors=factors, y=base.response())
        for coding in ("treatment", "sum_to_zero"):
            for intercept in (True, False):
                spec = ModelSpec(fixed_factor="model", contrast_coding=coding,
                                 include_intercept=intercept)
                with pytest.raises(DesignError, match=f"level {levels[missing]!r} of "
                                   f"fixed factor 'model' has no observations"):
                    build_design(ds, spec)
        # with every level observed the same table builds
        factors["model"] = (levels, codes)
        build_design(Dataset(factors=factors, y=base.response()),
                     ModelSpec(fixed_factor="model"))


def test_drop_random_factor_design():
    ds = crossed_dataset(generator_seed=4)
    dm = build_design(ds, ModelSpec())
    reduced = drop_random_factor_design(dm, "seed")
    assert reduced.random_factors == ("hparams",)
    assert reduced.Z.shape[1] == dm.Z.shape[1] - len(dm.z_level_names["seed"])
    assert np.array_equal(reduced.Z, dm.Z[:, dm.z_blocks["hparams"]])


def test_design_mappings_are_read_only_and_designs_hash_by_identity():
    ds = crossed_dataset(generator_seed=4)
    dm = build_design(ds, ModelSpec())
    with pytest.raises(TypeError):
        dm.z_codes["seed"] = np.zeros(dm.n, dtype=np.intp)
    with pytest.raises(TypeError):
        dm.z_blocks["seed"] = slice(0, 1)
    with pytest.raises(TypeError):
        dm.z_level_names["extra"] = ("a", "b")
    reduced = drop_random_factor_design(dm, "seed")
    with pytest.raises(TypeError):
        reduced.z_codes["seed"] = dm.z_codes["seed"]
    twin = build_design(ds, ModelSpec())
    assert dm == dm and dm != twin and len({dm, twin, dm}) == 2


def test_drop_random_factor_design_keeps_codes_and_reoffsets_blocks():
    ds = crossed_dataset(generator_seed=4)
    dm = build_design(ds, ModelSpec(random_factors=("seed", "hparams", "rerun")))
    reduced = drop_random_factor_design(dm, "hparams")
    n_seed, n_rerun = len(dm.z_level_names["seed"]), len(dm.z_level_names["rerun"])
    assert reduced.z_blocks == {"seed": slice(0, n_seed),
                                "rerun": slice(n_seed, n_seed + n_rerun)}
    assert list(reduced.z_codes) == ["seed", "rerun"]
    assert reduced.z_codes["rerun"] is dm.z_codes["rerun"]
    assert reduced.q == n_seed + n_rerun
    assert np.array_equal(reduced.Z, np.hstack([dm.Z[:, dm.z_blocks["seed"]],
                                                dm.Z[:, dm.z_blocks["rerun"]]]))


def test_contrast_rows_treatment_vs_reference():
    ds = _six_level_dataset()
    from expvar.data import cross_factor
    ds = cross_factor(ds, "model", "optimizer")
    dm = build_design(ds, ModelSpec())
    # second level vs the reference: a single 1 in its own column
    level = dm.fixed_levels[1]
    row = contrast_rows(dm, [level])[0]
    expected = np.zeros(dm.p)
    expected[dm.column_map.index(level)] = 1.0
    assert np.allclose(row, expected)
    # a level against itself contrasts to the zero row
    ref = dm.fixed_levels[0]
    assert np.all(contrast_rows(dm, [ref])[0] == 0.0)


def test_contrast_rows_unknown_level():
    ds = _six_level_dataset()
    from expvar.data import cross_factor
    ds = cross_factor(ds, "model", "optimizer")
    dm = build_design(ds, ModelSpec())
    with pytest.raises(DesignError, match="nope"):
        contrast_rows(dm, ["nope"])


@pytest.mark.parametrize("coding", ["treatment", "sum_to_zero"])
def test_contrast_rows_vs_grand_matches_group_means(coding):
    # balanced six-level layout with distinct group means: L beta-hat from the
    # least-squares fit must reproduce the direct group-mean deviations
    rng = np.random.default_rng(31)
    rows = []
    means = {}
    for m in ("a", "b", "c"):
        for o in ("adam", "sgd"):
            mu = float(rng.uniform(0.3, 0.9))
            means[f"{m}:{o}"] = mu
            for i in range(4):
                rows.append((m, o, f"s{i}", f"h{i}", f"{m}{o}{i}",
                             mu + float(rng.normal(0, 0.01))))
    ds = dataset_from_rows(rows)
    from expvar.data import cross_factor
    ds = cross_factor(ds, "model", "optimizer")
    dm = build_design(ds, ModelSpec(contrast_coding=coding))
    y = ds.response()
    beta, _, _, _ = np.linalg.lstsq(dm.X, y, rcond=None)
    L = contrast_rows(dm, dm.fixed_levels, kind="vs_grand")
    assert L.shape == (6, dm.p)

    codes = ds.level_codes("model:optimizer")
    group_means = np.array([y[codes == j].mean() for j in range(6)])
    direct = group_means - group_means.mean()
    assert np.allclose(L @ beta, direct, atol=1e-10)
    if coding == "sum_to_zero":
        # effect rows: identity on the effect columns, last row all -1
        assert np.allclose(L[:-1, 1:], np.eye(5))
        assert np.allclose(L[-1, 1:], -1.0)


def test_difference_rows_and_omnibus():
    ds = _six_level_dataset()
    from expvar.data import cross_factor
    ds = cross_factor(ds, "model", "optimizer")
    dm = build_design(ds, ModelSpec())
    pairs = [(dm.fixed_levels[1], dm.fixed_levels[2])]
    row = difference_rows(dm, pairs)[0]
    direct = contrast_rows(dm, [dm.fixed_levels[1]], kind="vs_reference")[0] - \
        contrast_rows(dm, [dm.fixed_levels[2]], kind="vs_reference")[0]
    assert np.allclose(row, direct)
    L = omnibus_rows(dm)
    assert L.shape == (5, dm.p)
    assert np.linalg.matrix_rank(L) == 5


def test_omnibus_single_level_error():
    ds = one_way_dataset(n_groups=3, per_group=2, seed=3)
    dm = build_design(ds, ONE_WAY_SPEC)
    with pytest.raises(DesignError, match="no testable fixed term"):
        omnibus_rows(dm)


# ---------------------------------------------------------------------------
# X and the contrast rows come from one level-row matrix; the per-row
# loop encodings below are the reference they must match bit for bit
# ---------------------------------------------------------------------------


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _loop_fixed_matrix(codes, levels, coding, intercept):
    n = codes.shape[0]
    k = len(levels)
    if not intercept:
        X = np.zeros((n, k))
        X[np.arange(n), codes] = 1.0
        return X, tuple(levels)
    if k == 1:
        return np.ones((n, 1)), ("(Intercept)",)
    if coding == "treatment":
        X = np.zeros((n, k))
        X[:, 0] = 1.0
        for j in range(1, k):
            X[codes == j, j] = 1.0
        return X, ("(Intercept)",) + tuple(levels[1:])
    X = np.zeros((n, k))
    X[:, 0] = 1.0
    last = k - 1
    for j in range(0, k - 1):
        X[codes == j, j + 1] = 1.0
    X[codes == last, 1:] = -1.0
    return X, ("(Intercept)",) + tuple(levels[:-1])


def _loop_level_row(dm, level):
    j = dm.fixed_levels.index(level)
    k = len(dm.fixed_levels)
    row = np.zeros(dm.p)
    if not dm.include_intercept:
        row[j] = 1.0
        return row
    row[0] = 1.0
    if k == 1:
        return row
    if dm.coding == "treatment":
        if j > 0:
            row[j] = 1.0
    else:
        if j < k - 1:
            row[1 + j] = 1.0
        else:
            row[1:] = -1.0
    return row


def _loop_contrast_rows(dm, levels, kind):
    all_rows = np.vstack([_loop_level_row(dm, lv) for lv in dm.fixed_levels])
    base = all_rows[0] if kind == "vs_reference" else all_rows.mean(axis=0)
    return np.vstack([_loop_level_row(dm, lv) - base for lv in levels])


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("intercept", [True, False])
@pytest.mark.parametrize("coding", ["treatment", "sum_to_zero"])
def test_level_rows_bit_identical_to_loop_encoding(coding, intercept, k):
    rng = np.random.default_rng(k)
    ds = dataset_from_rows((f"m{j}", "o", "s", "h", f"r{i}", float(i))
                           for i, j in enumerate(rng.permutation(np.repeat(np.arange(k), 3))))
    dm = build_design(ds, ModelSpec(fixed_factor="model", random_factors=(),
                                    contrast_coding=coding,
                                    include_intercept=intercept))
    X, names = _loop_fixed_matrix(ds.level_codes("model"), dm.fixed_levels,
                                  coding, intercept)
    assert _same_bits(dm.X, X)
    assert dm.column_map == names
    levels = list(dm.fixed_levels[::-1])
    for kind in ("vs_reference", "vs_grand"):
        assert _same_bits(contrast_rows(dm, levels, kind=kind),
                          _loop_contrast_rows(dm, levels, kind))
    pairs = [(a, b) for a in dm.fixed_levels for b in dm.fixed_levels]
    assert _same_bits(
        difference_rows(dm, pairs),
        np.vstack([_loop_level_row(dm, a) - _loop_level_row(dm, b) for a, b in pairs]))
