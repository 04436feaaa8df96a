"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's computation paths:
the dense-covariance REML deviance forms the full marginal covariance and
its determinants directly, and the Welch fixture implements the
two-group heteroscedastic means model from first principles.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads: the suite's timing gates must not
# depend on what else runs on the machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from expvar.data import FACTOR_COLUMNS, Dataset, ModelSpec, ensure_factor  # noqa: E402
from expvar.design import DesignMatrices, build_design  # noqa: E402
from expvar.simulate import TreeDesign, generate  # noqa: E402


def dense_reml_deviance(dm: DesignMatrices, y: np.ndarray, theta) -> float:
    """Textbook REML deviance via the explicit marginal covariance.

    Builds V0 = Z Gamma Z' + I with Gamma the block-diagonal squared
    relative sds, solves the GLS normal equations, and assembles
    log|V0| + log|X'V0^-1 X| + (n-p)(1 + log(2 pi sigma2)).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    n, p = dm.X.shape
    gamma = np.zeros(dm.q)
    for i, f in enumerate(dm.z_blocks):
        gamma[dm.z_blocks[f]] = theta[i] ** 2
    V0 = dm.Z @ np.diag(gamma) @ dm.Z.T + np.eye(n)
    Vi = np.linalg.inv(V0)
    XtViX = dm.X.T @ Vi @ dm.X
    beta = np.linalg.solve(XtViX, dm.X.T @ Vi @ y)
    r = y - dm.X @ beta
    sigma2 = float(r @ Vi @ r) / (n - p)
    _, logdet_v = np.linalg.slogdet(V0)
    _, logdet_x = np.linalg.slogdet(XtViX)
    return float(logdet_v + logdet_x + (n - p) * (1.0 + np.log(2.0 * np.pi * sigma2)))


def ols_restricted_deviance(X: np.ndarray, y: np.ndarray) -> float:
    """REML deviance of the fixed-effects-only model (V0 = I)."""
    n, p = X.shape
    beta, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    rss = float(np.sum((y - X @ beta) ** 2))
    sigma2 = rss / (n - p)
    _, logdet_x = np.linalg.slogdet(X.T @ X)
    return float(logdet_x + (n - p) * (1.0 + np.log(2.0 * np.pi * sigma2)))


class WelchFit:
    """Two-group unequal-variance means model exposing the fit protocol.

    The REML criterion per group is n log v + RSS/v + log(n/v); the REML
    variance estimates are the usual RSS/(n-1). At them its Hessian in
    (v1, v2) is diag((n_i - 1) / v_i^2), and V_beta = diag(v_i / n_i) has
    dV_beta/dv_i = e_i e_i' / n_i.
    """

    def __init__(self, x1, x2):
        x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
        self.ns = np.array([x1.size, x2.size])
        self.nobs = int(self.ns.sum())
        self.p = 2
        self.converged = True
        self.rss = np.array([np.sum((x1 - x1.mean()) ** 2),
                             np.sum((x2 - x2.mean()) ** 2)])
        self.omega_hat = self.rss / (self.ns - 1)
        self.vcov_beta = np.diag(self.omega_hat / self.ns)

    def variance_derivatives(self):
        H = np.diag((self.ns - 1) / self.omega_hat ** 2)
        dV = np.zeros((2, 2, 2))
        dV[[0, 1], [0, 1], [0, 1]] = 1.0 / self.ns
        return H, dV


def welch_satterthwaite_formula(x1, x2) -> float:
    v1, v2 = np.var(x1, ddof=1), np.var(x2, ddof=1)
    n1, n2 = len(x1), len(x2)
    q = v1 / n1 + v2 / n2
    return q * q / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))


def one_way_dataset(n_groups: int = 6, per_group: int = 5, group_sd: float = 0.5,
                    noise_sd: float = 0.1, seed: int = 42,
                    group_effects=None) -> Dataset:
    """Balanced one-way layout: one random factor, intercept-only fixed part."""
    rng = np.random.default_rng(seed)
    if group_effects is None:
        group_effects = rng.normal(0.0, group_sd, n_groups)
    rows = [("m", "o", f"g{j:02d}", "h", f"r{j:02d}_{i:02d}",
             float(0.5 + group_effects[j] + rng.normal(0.0, noise_sd)))
            for j in range(n_groups) for i in range(per_group)]
    return dataset_from_rows(rows)


def dataset_from_rows(rows) -> Dataset:
    """Dataset from (model, optimizer, seed, hparams, rerun, metric) tuples."""
    columns = list(zip(*rows))
    return Dataset.from_labels(dict(zip(FACTOR_COLUMNS, columns[:5])), columns[5])


ONE_WAY_SPEC = ModelSpec(fixed_factor="model", random_factors=("seed",))


def crossed_dataset(n_seeds=4, n_configs=5, n_reruns=3, sigma_seed=0.02,
                    sigma_hparam=0.04, sigma_eps=0.02, generator_seed=11,
                    combos=(("m1", "adam", 0.55), ("m2", "sgd", 0.65)),
                    rerun_mode="noisy") -> Dataset:
    design = TreeDesign(combos=tuple(combos), n_seeds=n_seeds, n_configs=n_configs,
                        n_reruns=n_reruns, sigma_seed=sigma_seed,
                        sigma_hparam=sigma_hparam, sigma_eps=sigma_eps,
                        rerun_mode=rerun_mode, generator_seed=generator_seed)
    return ensure_factor(generate(design), "model:optimizer")


@pytest.fixture
def fixture_a():
    """30 observations, one random factor with 5 levels, intercept fixed part."""
    ds = one_way_dataset(n_groups=5, per_group=6, group_sd=0.04, noise_sd=0.02,
                         seed=7)
    return build_design(ds, ONE_WAY_SPEC), ds.response()


@pytest.fixture
def fixture_b():
    """60 observations, two crossed random factors."""
    ds = crossed_dataset(n_seeds=5, n_configs=3, n_reruns=2, sigma_seed=0.03,
                         sigma_hparam=0.05, sigma_eps=0.025, generator_seed=23)
    assert ds.n == 60
    return build_design(ds, ModelSpec()), ds.response()


def random_crossed_case(seed: int):
    """Small randomized dataset + design for the invariance suite.

    Every third case uses a single random factor (fast golden-section
    path); the rest are crossed two-factor fits.
    """
    rng = np.random.default_rng(seed)
    if seed % 3 == 0:
        ds = one_way_dataset(n_groups=int(rng.integers(4, 7)),
                             per_group=int(rng.integers(3, 6)),
                             group_sd=float(rng.uniform(0.02, 0.3)),
                             noise_sd=float(rng.uniform(0.01, 0.1)),
                             seed=seed + 1000)
        spec = ONE_WAY_SPEC
    else:
        combos = (("m1", "adam", 0.5), ("m2", "sgd", float(rng.uniform(0.5, 0.9))))
        ds = crossed_dataset(n_seeds=int(rng.integers(4, 7)),
                             n_configs=int(rng.integers(3, 5)),
                             n_reruns=2,
                             sigma_seed=float(rng.uniform(0.02, 0.06)),
                             sigma_hparam=float(rng.uniform(0.02, 0.08)),
                             sigma_eps=float(rng.uniform(0.01, 0.03)),
                             generator_seed=seed + 2000, combos=combos)
        spec = ModelSpec()
    return ds, spec, build_design(ds, spec)
