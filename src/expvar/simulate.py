"""Synthetic experiment trees for estimator validation.

Generates datasets from the additive decomposition the estimator assumes:
every leaf of the combo -> seed -> config -> rerun tree observes its combo
mean plus a per-seed deviation, a per-config deviation and residual noise.
Each random draw comes from its own counter-derived substream, so
generation is reproducible from a single integer seed, order-independent,
and parallelizable per leaf.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, encode_labels


class SimulationError(ValueError):
    """Raised for invalid tree designs or sampling spaces."""


def _substream(root_seed: int, *path) -> np.random.Generator:
    """Independent generator for one node of the tree, derived from its path."""
    digest = hashlib.blake2b("/".join(str(p) for p in path).encode(),
                             digest_size=8).digest()
    key = int.from_bytes(digest, "big")
    return np.random.default_rng(np.random.SeedSequence([root_seed, key]))


def _normal(root_seed: int, sd: float, *path) -> float:
    if sd == 0.0:
        return 0.0
    return float(_substream(root_seed, *path).normal(0.0, sd))


@dataclass(frozen=True)
class TreeDesign:
    """Experiment-tree shape and true parameters of the generator.

    ``combos`` lists (model, optimizer, true mean) triples. In
    "deterministic" rerun mode reruns of one (combo, seed, config) leaf
    repeat the identical value; "noisy" mode redraws the residual per
    rerun. ``nested_configs`` samples a separate config effect per seed
    instead of crossing one pool of configs with every seed.
    """

    combos: tuple[tuple[str, str, float], ...]
    n_seeds: int
    n_configs: int
    n_reruns: int
    sigma_seed: float
    sigma_hparam: float
    sigma_eps: float
    rerun_mode: str = "deterministic"
    generator_seed: int = 0
    nested_configs: bool = False

    def __post_init__(self):
        object.__setattr__(self, "combos", tuple((str(m), str(o), float(mu))
                                                 for m, o, mu in self.combos))
        if not self.combos:
            raise SimulationError("need at least one (model, optimizer) combo")
        for count, name in ((self.n_seeds, "n_seeds"), (self.n_configs, "n_configs"),
                            (self.n_reruns, "n_reruns")):
            if count < 1:
                raise SimulationError(f"{name} must be >= 1, got {count}")
        for sd, name in ((self.sigma_seed, "sigma_seed"),
                         (self.sigma_hparam, "sigma_hparam"),
                         (self.sigma_eps, "sigma_eps")):
            if sd < 0 or not math.isfinite(sd):
                raise SimulationError(f"{name} must be a finite sd >= 0, got {sd}")
        if self.rerun_mode not in ("deterministic", "noisy"):
            raise SimulationError(f"unknown rerun_mode {self.rerun_mode!r}")


def _width(count: int) -> int:
    return max(2, len(str(count - 1)))


def generate(design: TreeDesign) -> Dataset:
    """Draw one dataset from the tree design; a pure function of the design.

    Seed effects are drawn once per seed label and config effects once per
    config label (or per seed-config pair when nested), then every leaf
    adds residual noise according to the rerun mode. Rows run over combos,
    then seeds, then configs, then reruns.
    """
    root = design.generator_seed
    n_combos, n_seeds = len(design.combos), design.n_seeds
    n_configs, n_reruns = design.n_configs, design.n_reruns
    sw, cw, rw = _width(n_seeds), _width(n_configs), _width(n_reruns)
    seed_labels = [f"seed{j:0{sw}d}" for j in range(n_seeds)]
    rerun_labels = [f"r{t:0{rw}d}" for t in range(n_reruns)]
    if design.nested_configs:
        config_labels = [f"{s}-hp{k:0{cw}d}" for s in seed_labels for k in range(n_configs)]
    else:
        config_labels = [f"hp{k:0{cw}d}" for k in range(n_configs)] * n_seeds
    seed_effects = [_normal(root, design.sigma_seed, "seed", s) for s in seed_labels]
    config_effects = {label: _normal(root, design.sigma_hparam, "config", label)
                      for label in dict.fromkeys(config_labels)}

    noisy = design.rerun_mode == "noisy"
    y = []
    for model, optimizer, mu in design.combos:
        combo = f"{model}:{optimizer}"
        for j, s in enumerate(seed_labels):
            for cfg in config_labels[j * n_configs:(j + 1) * n_configs]:
                base = mu + seed_effects[j] + config_effects[cfg]
                if noisy:
                    y.extend(base + _normal(root, design.sigma_eps, "eps", combo, s, cfg, r)
                             for r in rerun_labels)
                else:
                    y.extend([base + _normal(root, design.sigma_eps,
                                             "eps", combo, s, cfg)] * n_reruns)

    def column(name, labels, repeat, tile):
        levels, codes = encode_labels(name, labels)
        return levels, np.tile(np.repeat(codes, repeat), tile)

    per_combo = n_seeds * n_configs * n_reruns
    factors = {
        "model": column("model", [c[0] for c in design.combos], per_combo, 1),
        "optimizer": column("optimizer", [c[1] for c in design.combos], per_combo, 1),
        "seed": column("seed", seed_labels, n_configs * n_reruns, n_combos),
        "hparams": column("hparams", config_labels, n_reruns, n_combos),
        "rerun": column("rerun", rerun_labels, 1, n_combos * n_seeds * n_configs),
    }
    return Dataset(factors=factors, y=np.array(y))


@dataclass(frozen=True)
class HyperparamDistribution:
    """One search-space dimension: its family and parameters.

    Reversed bounds are normalized so (0.1, 0.02) means the interval
    [0.02, 0.1]. Normal families take (mean, standard deviation).
    """

    kind: str
    low: float | None = None
    high: float | None = None
    mean: float | None = None
    sd: float | None = None
    values: tuple | None = None
    value: object = None

    def __post_init__(self):
        if self.kind in ("uniform", "log_uniform"):
            if self.low is None or self.high is None:
                raise SimulationError(f"{self.kind} needs low and high bounds")
            lo, hi = sorted((float(self.low), float(self.high)))
            if lo == hi:
                raise SimulationError(f"{self.kind} bounds must differ, got {lo}")
            object.__setattr__(self, "low", lo)
            object.__setattr__(self, "high", hi)
            if self.kind == "log_uniform" and lo <= 0:
                raise SimulationError(f"log_uniform needs positive bounds, got {lo}")
        elif self.kind == "normal":
            if self.mean is None or self.sd is None:
                raise SimulationError("normal needs mean and sd")
            if self.sd <= 0:
                raise SimulationError(f"normal sd must be positive, got {self.sd}")
        elif self.kind == "discrete_uniform":
            if not self.values:
                raise SimulationError("discrete_uniform needs a non-empty value set")
            object.__setattr__(self, "values", tuple(self.values))
        elif self.kind == "constant":
            if self.value is None:
                raise SimulationError("constant needs a value")
        else:
            raise SimulationError(f"unknown distribution kind {self.kind!r}")

    @classmethod
    def uniform(cls, low, high):
        return cls(kind="uniform", low=low, high=high)

    @classmethod
    def log_uniform(cls, low, high):
        return cls(kind="log_uniform", low=low, high=high)

    @classmethod
    def normal(cls, mean, sd):
        return cls(kind="normal", mean=mean, sd=sd)

    @classmethod
    def discrete_uniform(cls, values):
        return cls(kind="discrete_uniform", values=tuple(values))

    @classmethod
    def constant(cls, value):
        return cls(kind="constant", value=value)

    @classmethod
    def from_json(cls, obj) -> "HyperparamDistribution":
        """Build from a {"kind": ..., ...} mapping (parsed JSON)."""
        if not isinstance(obj, dict) or "kind" not in obj:
            raise SimulationError(f"distribution spec must be a mapping with 'kind', "
                                  f"got {obj!r}")
        known = {"kind", "low", "high", "mean", "sd", "values", "value"}
        unknown = set(obj) - known
        if unknown:
            raise SimulationError(f"unknown distribution fields {sorted(unknown)}")
        kwargs = dict(obj)
        if "values" in kwargs and kwargs["values"] is not None:
            kwargs["values"] = tuple(kwargs["values"])
        return cls(**kwargs)

    def draw(self, rng: np.random.Generator):
        if self.kind == "uniform":
            return float(rng.uniform(self.low, self.high))
        if self.kind == "log_uniform":
            return float(math.exp(rng.uniform(math.log(self.low),
                                              math.log(self.high))))
        if self.kind == "normal":
            return float(rng.normal(self.mean, self.sd))
        if self.kind == "discrete_uniform":
            return self.values[int(rng.integers(len(self.values)))]
        return self.value


def sample_hyperparams(space: dict[str, HyperparamDistribution], n: int,
                       seed: int) -> list[dict]:
    """Draw n independent configurations from a named search space."""
    if not space:
        raise SimulationError("hyper-parameter space is empty")
    if n < 1:
        raise SimulationError(f"need n >= 1 configurations, got {n}")
    configs = []
    for i in range(n):
        config = {}
        for name in space:
            rng = _substream(seed, "hparam", i, name)
            config[name] = space[name].draw(rng)
        configs.append(config)
    return configs
