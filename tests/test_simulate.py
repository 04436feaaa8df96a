import math

import numpy as np
import pytest

from expvar.data import ensure_factor
from expvar import simulate
from expvar.simulate import (HyperparamDistribution, SimulationError, TreeDesign,
                             _normal, _seed_words, generate, sample_hyperparams)

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
    with pytest.raises(SimulationError, match="generator_seed must be >= 0"):
        _design(generator_seed=-1)


# ---------------------------------------------------------------------------
# substream seeding: the vectorised pass against the per-draw definition
# ---------------------------------------------------------------------------


def _per_draw_response(design):
    """The response as the per-draw definition gives it: one
    ``_normal`` substream per draw, summed leaf by leaf in Python floats."""
    labels = generate(design)
    seeds = labels.levels("seed")
    configs = labels.levels("hparams")
    seed_effect = {s: _normal(design.generator_seed, design.sigma_seed, "seed", s)
                   for s in seeds}
    config_effect = {c: _normal(design.generator_seed, design.sigma_hparam, "config", c)
                     for c in configs}
    mu = {(m, o): value for m, o, value in design.combos}
    y = []
    for i in range(labels.n):
        m, o, s, c, r = (labels.levels(name)[labels.level_codes(name)[i]]
                         for name in ("model", "optimizer", "seed", "hparams", "rerun"))
        path = ("eps", f"{m}:{o}", s, c) + ((r,) if design.rerun_mode == "noisy" else ())
        base = mu[m, o] + seed_effect[s] + config_effect[c]
        y.append(base + _normal(design.generator_seed, design.sigma_eps, *path))
    return np.array(y)


def test_seed_words_match_seed_sequence():
    keys = np.random.default_rng(2024).integers(0, 2 ** 64, 5000, dtype=np.uint64)
    keys = np.concatenate([keys, np.array([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1],
                                          dtype=np.uint64)])
    for root in (0, 1, 2 ** 32 - 1):
        expected = np.array([np.random.SeedSequence([root, int(key)])
                             .generate_state(4, np.uint64) for key in keys])
        words = _seed_words(root, keys)
        assert words.dtype == np.uint64
        assert np.array_equal(words, expected), root


@pytest.mark.parametrize("root", [0, 7, 2 ** 32 - 1, 2 ** 32 + 5, 2 ** 64 + 1])
@pytest.mark.parametrize("shape", [dict(rerun_mode="noisy"),
                                   dict(rerun_mode="deterministic"),
                                   dict(rerun_mode="noisy", nested_configs=True)])
def test_generate_is_bit_identical_to_per_draw_substreams(root, shape):
    # roots from 2**32 up take more than one entropy word: the per-draw route
    design = _design(generator_seed=root, n_seeds=3, n_configs=4, n_reruns=2, **shape)
    assert generate(design).response().tobytes() == _per_draw_response(design).tobytes()


@pytest.mark.parametrize("root", [0, 2 ** 32 + 5])
def test_zero_sd_makes_no_draw(monkeypatch, root):
    def no_draw(*args):
        raise AssertionError("a draw was made for a zero sd")
    monkeypatch.setattr(simulate, "_digest", no_draw)
    monkeypatch.setattr(simulate, "_substream", no_draw)
    ds = generate(_design(generator_seed=root, sigma_seed=0.0, sigma_hparam=0.0,
                          sigma_eps=0.0, rerun_mode="noisy"))
    assert ds.n == 3 * 4 * 5 * 3


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
    with pytest.raises(SimulationError, match="seed must be >= 0"):
        sample_hyperparams(space, 5, seed=-1)


def test_from_json_round_trip():
    dist = HyperparamDistribution.from_json(
        {"kind": "log_uniform", "low": 1e-5, "high": 0.01})
    assert dist.kind == "log_uniform"
    with pytest.raises(SimulationError):
        HyperparamDistribution.from_json({"kind": "triangular", "low": 0, "high": 1})
    with pytest.raises(SimulationError):
        HyperparamDistribution.from_json({"low": 0, "high": 1})


@pytest.mark.parametrize("spec", [
    {"kind": "discrete_uniform", "values": [[1, 2], [3]]},
    {"kind": "discrete_uniform", "values": [16, {"a": 1}]},
    {"kind": "discrete_uniform", "values": 5},
    {"kind": "constant", "value": [1, 2]},
    {"kind": "constant", "value": {"a": 1}},
    {"kind": "uniform", "low": "abc", "high": 1},
    {"kind": "normal", "mean": 0.0, "sd": "x"},
    {"kind": "log_uniform", "low": True, "high": 2},
], ids=["nested_lists", "object_value", "values_not_a_list", "constant_list",
        "constant_object", "bound_not_a_number", "sd_not_a_number", "bound_a_boolean"])
def test_from_json_refuses_non_scalar_values_and_non_numeric_parameters(spec):
    # refused like an unknown kind, before a draw or a report sees the value
    with pytest.raises(SimulationError):
        HyperparamDistribution.from_json(spec)


def test_from_json_keeps_scalar_values():
    dist = HyperparamDistribution.from_json(
        {"kind": "discrete_uniform", "values": ["a", 2, 0.5, True, None]})
    assert dist.values == ("a", 2, 0.5, True, None)
    assert HyperparamDistribution.from_json({"kind": "constant", "value": "x"}).value == "x"
