"""Synthetic experiment trees for estimator validation.

Generates datasets from the additive decomposition the estimator assumes:
every leaf of the combo -> seed -> config -> rerun tree observes its combo
mean plus a per-seed deviation, a per-config deviation and residual noise.
Each random draw comes from its own substream, keyed by the draw's path in
the tree: ``default_rng(SeedSequence([root, key]))`` with ``key`` the 64-bit
blake2b digest of the path, so generation is reproducible from a single
integer seed, order-independent, and parallelizable per leaf. ``generate``
derives all of a table's substreams in one vectorised pass (numpy's
SeedSequence mixing in ``uint32`` arithmetic, then PCG64's seeding step)
and is bit for bit identical to building each generator on its own.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, encode_labels


class SimulationError(ValueError):
    """Raised for invalid tree designs or sampling spaces."""


def _digest(path: str) -> bytes:
    """The 8-byte blake2b digest of a "/"-joined tree path; read big-endian,
    it is the path's key."""
    return hashlib.blake2b(path.encode(), digest_size=8).digest()


def _substream(root_seed: int, *path) -> np.random.Generator:
    """Independent generator for one node of the tree, derived from its path."""
    key = int.from_bytes(_digest("/".join(map(str, path))), "big")
    return np.random.default_rng(np.random.SeedSequence([root_seed, key]))


def _normal(root_seed: int, sd: float, *path) -> float:
    if sd == 0.0:
        return 0.0
    return float(_substream(root_seed, *path).normal(0.0, sd))


# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 seeding constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**k`` mod 2**32 for k < count, as a (count, 1) column."""
    consts = [init]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hash(rows: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of row i with ``consts[i]`` and ``consts[i + 1]``."""
    rows = (rows ^ consts[:-1]) * consts[1:]
    return rows ^ (rows >> np.uint32(16))


def _seed_words(root_seed: int, keys: np.ndarray) -> np.ndarray:
    """``SeedSequence([root_seed, key]).generate_state(4, np.uint64)`` per key.

    ``root_seed`` must lie in [0, 2**32), so it is one entropy word; each
    key (uint64) is one or two more, and the pool pads with zero words, so
    a key below 2**32 needs no special case. Every step runs on all keys at
    once; while one pool word mixes into the other three it does not
    change, so those three steps are one. Returns an (n, 4) uint64 array.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    hash_a = _hash_consts(_INIT_A, _MULT_A, 4 + 12 + 1)
    pool = np.zeros((4, keys.size), dtype=np.uint32)
    pool[0] = root_seed
    pool[1] = keys & np.uint64(_MASK32)
    pool[2] = keys >> np.uint64(32)
    pool = _hash(pool, hash_a[:5])
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        hashed = _hash(pool[[src] * 3], hash_a[4 + 3 * src:8 + 3 * src])
        mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * hashed
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    words = _hash(pool[[0, 1, 2, 3] * 2], _hash_consts(_INIT_B, _MULT_B, 9))
    words = words.astype(np.uint64)
    # little-endian pairs of uint32 words make the uint64 words
    return (words[0::2] | words[1::2] << np.uint64(32)).T


def _normals(root_seed: int, sd: float, paths: list[str]) -> np.ndarray:
    """``_normal(root_seed, sd, path)`` for every "/"-joined path, bit for bit.

    Each path's PCG64 state is set from its seed words in place of a new
    SeedSequence and generator per draw. A root seed outside [0, 2**32)
    changes SeedSequence's word layout and takes the per-draw route.
    """
    if sd == 0.0:
        return np.zeros(len(paths))
    if not 0 <= root_seed <= _MASK32:
        return np.array([_normal(root_seed, sd, path) for path in paths])
    keys = np.frombuffer(b"".join(map(_digest, paths)), dtype=">u8")
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    draws = np.empty(len(paths))
    for i, (state_hi, state_lo, seq_hi, seq_lo) in enumerate(
            _seed_words(root_seed, keys).tolist()):
        # PCG64's seeding: the stream sets the odd increment, then two LCG
        # steps from state 0 with the initial state added in between
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) & _MASK128
        bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        draws[i] = rng.standard_normal()
    return 0.0 + sd * draws  # as Generator.normal(0.0, sd) computes it


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
        if self.generator_seed < 0:
            raise SimulationError(f"generator_seed must be >= 0, got {self.generator_seed}")


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
    seed_effects = _normals(root, design.sigma_seed, [f"seed/{s}" for s in seed_labels])
    distinct = {label: i for i, label in enumerate(dict.fromkeys(config_labels))}
    config_effects = _normals(root, design.sigma_hparam,
                              [f"config/{label}" for label in distinct])
    config_effects = config_effects[[distinct[c] for c in config_labels]]

    # one (combo, seed, config) leaf per row of ``base``, in row order
    mu = np.array([c[2] for c in design.combos])
    base = ((mu[:, None, None] + seed_effects[None, :, None])
            + config_effects.reshape(1, n_seeds, n_configs)).ravel()
    leaves = [f"eps/{model}:{optimizer}/{s}/{cfg}" for model, optimizer, _ in design.combos
              for j, s in enumerate(seed_labels)
              for cfg in config_labels[j * n_configs:(j + 1) * n_configs]]
    if design.rerun_mode == "noisy":
        eps = _normals(root, design.sigma_eps,
                       [f"{leaf}/{r}" for leaf in leaves for r in rerun_labels])
        y = np.repeat(base, n_reruns) + eps
    else:
        eps = _normals(root, design.sigma_eps, leaves)
        y = np.repeat(base + eps, n_reruns)

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
    return Dataset(factors=factors, y=y)


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
        """Build from a {"kind": ..., ...} mapping (parsed JSON); bounds, mean
        and sd must be numbers, and values JSON scalars."""
        if not isinstance(obj, dict) or "kind" not in obj:
            raise SimulationError(f"distribution spec must be a mapping with 'kind', "
                                  f"got {obj!r}")
        known = {"kind", "low", "high", "mean", "sd", "values", "value"}
        unknown = set(obj) - known
        if unknown:
            raise SimulationError(f"unknown distribution fields {sorted(unknown)}")
        kwargs = dict(obj)
        for name in ("low", "high", "mean", "sd"):
            if isinstance(kwargs.get(name), (bool, str, list, dict)):
                raise SimulationError(f"{name} must be a number, got {kwargs[name]!r}")
        values = kwargs.get("values")
        if values is not None and not isinstance(values, list):
            raise SimulationError(f"values must be a list, got {values!r}")
        for value in (*(values or ()), kwargs.get("value")):
            if isinstance(value, (list, dict)):
                raise SimulationError(f"values must be JSON scalars, got {value!r}")
        kwargs["values"] = None if values is None else tuple(values)
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
    if seed < 0:
        raise SimulationError(f"seed must be >= 0, got {seed}")
    configs = []
    for i in range(n):
        config = {}
        for name in space:
            rng = _substream(seed, "hparam", i, name)
            config[name] = space[name].draw(rng)
        configs.append(config)
    return configs
