import math

import numpy as np
import pytest

from expvar.data import ensure_factor
from expvar.simulate import (HyperparamDistribution, SimulationError, TreeDesign,
                             generate, sample_hyperparams)

COMBOS = (("m-net", "adam", 0.45), ("protonet", "sgd", 0.62), ("tadam", "adam", 0.7))


def _design(**kwargs):
    base = dict(combos=COMBOS, n_seeds=4, n_configs=5, n_reruns=3,
                sigma_seed=0.005, sigma_hparam=0.04, sigma_eps=0.02,
                rerun_mode="deterministic", generator_seed=0)
    base.update(kwargs)
    return TreeDesign(**base)


def _columns(ds):
    """Every column of a dataset as plain values, for comparison by value."""
    return ({name: (levels, codes.tolist())
             for name, (levels, codes) in ds.factors.items()},
            ds.response().tobytes())


def _leaf_values(ds, *factors):
    """Distinct metric values per combination of the given factors."""
    keys = zip(*(ds.level_codes(name).tolist() for name in factors))
    leaves = {}
    for key, value in zip(keys, ds.response().tolist()):
        leaves.setdefault(key, set()).add(value)
    return leaves


def test_zero_sds_reproduce_means_exactly():
    ds = generate(_design(sigma_seed=0.0, sigma_hparam=0.0, sigma_eps=0.0))
    means = {f"{m}:{o}": mu for m, o, mu in COMBOS}
    combo = ensure_factor(ds, "model:optimizer")
    levels = combo.levels("model:optimizer")
    expected = [means[levels[c]] for c in combo.level_codes("model:optimizer")]
    assert ds.response().tolist() == expected


def test_generate_deterministic():
    a = generate(_design(generator_seed=77))
    b = generate(_design(generator_seed=77))
    assert _columns(a) == _columns(b)
    c = generate(_design(generator_seed=78))
    assert _columns(c)[0] == _columns(a)[0]
    assert _columns(c)[1] != _columns(a)[1]


def test_tree_shape_and_labels():
    ds = generate(_design())
    assert ds.n == 3 * 4 * 5 * 3
    assert len(ds.levels("seed")) == 4
    assert len(ds.levels("hparams")) == 5
    assert len(ds.levels("rerun")) == 3
    # zero-padded labels sort in generation order
    assert ds.levels("seed") == ("seed00", "seed01", "seed02", "seed03")


def test_deterministic_reruns_identical_noisy_not():
    det = generate(_design(rerun_mode="deterministic", generator_seed=5))
    leaves = _leaf_values(det, "model", "seed", "hparams")
    assert all(len(v) == 1 for v in leaves.values())

    noisy = generate(_design(rerun_mode="noisy", generator_seed=5))
    spread = _leaf_values(noisy, "model", "seed", "hparams")
    assert any(len(v) > 1 for v in spread.values())


def test_nested_configs_get_per_seed_labels():
    ds = generate(_design(nested_configs=True))
    assert len(ds.levels("hparams")) == 4 * 5
    crossed = generate(_design(nested_configs=False))
    assert len(crossed.levels("hparams")) == 5


def test_grand_mean_close_to_truth():
    design = _design(generator_seed=8, rerun_mode="noisy")
    ds = generate(design)
    y = ds.response()
    truth = np.mean([mu for _, _, mu in COMBOS])
    sigma_total = math.sqrt(design.sigma_seed ** 2 + design.sigma_hparam ** 2
                            + design.sigma_eps ** 2)
    assert abs(y.mean() - truth) < 4.0 * sigma_total / math.sqrt(ds.n)


def test_design_validation():
    with pytest.raises(SimulationError):
        _design(n_seeds=0)
    with pytest.raises(SimulationError):
        _design(sigma_eps=-0.1)
    with pytest.raises(SimulationError):
        _design(rerun_mode="sometimes")
    with pytest.raises(SimulationError):
        TreeDesign(combos=(), n_seeds=1, n_configs=1, n_reruns=1,
                   sigma_seed=0, sigma_hparam=0, sigma_eps=0)


# ---------------------------------------------------------------------------
# hyper-parameter samplers
# ---------------------------------------------------------------------------


def test_constant_sampler():
    configs = sample_hyperparams({"lr": HyperparamDistribution.constant(5)},
                                 n=10, seed=0)
    assert [c["lr"] for c in configs] == [5] * 10


def test_log_uniform_decades():
    dist = HyperparamDistribution.log_uniform(0.0001, 0.1)
    configs = sample_hyperparams({"lr": dist}, n=10000, seed=42)
    values = np.array([c["lr"] for c in configs])
    assert values.min() >= 0.0001 and values.max() <= 0.1
    for lo, hi in [(1e-4, 1e-3), (1e-3, 1e-2), (1e-2, 1e-1)]:
        frac = np.mean((values >= lo) & (values < hi))
        assert abs(frac - 1.0 / 3.0) < 0.02


def test_discrete_uniform_frequencies():
    dist = HyperparamDistribution.discrete_uniform((16, 64))
    configs = sample_hyperparams({"shots": dist}, n=1000, seed=3)
    values = [c["shots"] for c in configs]
    assert set(values) == {16, 64}
    assert abs(values.count(16) / 1000.0 - 0.5) < 0.05


def test_reversed_bounds_normalized():
    dist = HyperparamDistribution.uniform(0.1, 0.02)
    assert dist.low == 0.02 and dist.high == 0.1
    configs = sample_hyperparams({"lr": dist}, n=500, seed=1)
    values = np.array([c["lr"] for c in configs])
    assert values.min() >= 0.02 and values.max() <= 0.1


def test_log_uniform_rejects_nonpositive():
    with pytest.raises(SimulationError):
        HyperparamDistribution.log_uniform(0.0, 0.1)
    with pytest.raises(SimulationError):
        HyperparamDistribution.log_uniform(-0.1, 0.2)


def test_normal_takes_mean_and_sd():
    dist = HyperparamDistribution.normal(0.005, 0.0012)
    configs = sample_hyperparams({"lr": dist}, n=4000, seed=9)
    values = np.array([c["lr"] for c in configs])
    assert abs(values.mean() - 0.005) < 4 * 0.0012 / math.sqrt(4000)
    assert abs(values.std(ddof=1) - 0.0012) < 0.0002
    with pytest.raises(SimulationError):
        HyperparamDistribution.normal(0.0, 0.0)


def test_sampler_determinism_and_validation():
    space = {"a": HyperparamDistribution.uniform(0, 1),
             "b": HyperparamDistribution.discrete_uniform(("x", "y"))}
    assert sample_hyperparams(space, 5, seed=4) == sample_hyperparams(space, 5, seed=4)
    with pytest.raises(SimulationError):
        sample_hyperparams({}, 5, seed=4)
    with pytest.raises(SimulationError):
        sample_hyperparams(space, 0, seed=4)


def test_from_json_round_trip():
    dist = HyperparamDistribution.from_json(
        {"kind": "log_uniform", "low": 1e-5, "high": 0.01})
    assert dist.kind == "log_uniform"
    with pytest.raises(SimulationError):
        HyperparamDistribution.from_json({"kind": "triangular", "low": 0, "high": 1})
    with pytest.raises(SimulationError):
        HyperparamDistribution.from_json({"low": 0, "high": 1})
