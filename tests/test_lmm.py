import gc
import hashlib
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import expvar
from expvar import lmm
from expvar.data import FACTOR_COLUMNS, Dataset, ModelSpec
from expvar.design import build_design, drop_random_factor_design
from expvar.inference import ranova
from expvar.lmm import (DegenerateDataError, FitError, _nelder_mead, _Workspace, aic,
                        fit_lmm, reml_deviance)
from expvar.simulate import TreeDesign, generate

from conftest import (ONE_WAY_SPEC, crossed_dataset, dataset_from_rows,
                      dense_reml_deviance, one_way_dataset, ols_restricted_deviance)


class _BareDesign:
    """Minimal design stand-in with no random factors: fit_lmm is then OLS."""

    def __init__(self, X):
        self.X = np.asarray(X, dtype=float)
        self.z_codes = {}
        self.z_blocks = {}
        self.q = 0
        self.column_map = tuple(f"c{i}" for i in range(self.X.shape[1]))

    @property
    def n(self):
        return self.X.shape[0]


# ---------------------------------------------------------------------------
# No random factors: ordinary least squares
# ---------------------------------------------------------------------------


def test_public_names_resolve():
    for name in expvar.__all__:
        assert hasattr(expvar, name), name


def test_ols_mean():
    fit = fit_lmm(_BareDesign(np.ones((3, 1))), np.array([1.0, 2.0, 3.0]))
    assert fit.beta[0] == pytest.approx(2.0)
    assert fit.vc.sigma2_eps == pytest.approx(1.0)  # REML: RSS / (n - p)


def test_ols_matches_normal_equations():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    fit = fit_lmm(_BareDesign(X), y)
    beta_oracle = np.linalg.solve(X.T @ X, X.T @ y)
    assert np.allclose(fit.beta, beta_oracle, atol=1e-10)
    # residual orthogonality to the columns of X
    resid = y - X @ fit.beta
    assert np.max(np.abs(X.T @ resid)) < 1e-8 * np.abs(y).max()


def test_ols_insufficient_data():
    # n <= p leaves no residual degrees of freedom
    for X in (np.ones((2, 3)), np.eye(3)):
        with pytest.raises(FitError, match="more observations than fixed effects"):
            fit_lmm(_BareDesign(X), np.arange(X.shape[0], dtype=float))


# ---------------------------------------------------------------------------
# Profiled REML deviance
# ---------------------------------------------------------------------------


def test_reml_deviance_theta_zero_is_ols_restricted(fixture_a):
    dm, y = fixture_a
    assert reml_deviance(dm, y, [0.0]) == pytest.approx(
        ols_restricted_deviance(dm.X, y), abs=1e-10)


def test_reml_deviance_matches_dense_oracle(fixture_a):
    dm, y = fixture_a
    assert reml_deviance(dm, y, [1.0]) == pytest.approx(
        dense_reml_deviance(dm, y, [1.0]), abs=1e-8)
    rng = np.random.default_rng(5)
    for _ in range(5):
        theta = rng.uniform(0.0, 4.0, 1)
        assert reml_deviance(dm, y, theta) == pytest.approx(
            dense_reml_deviance(dm, y, theta), abs=1e-8)


def test_reml_deviance_grid_monotone_toward_optimum():
    # strong group spread: the deviance at theta=0 must exceed the minimum
    ds = one_way_dataset(n_groups=5, per_group=6, group_sd=0.5, noise_sd=0.05,
                         seed=13)
    dm = build_design(ds, ONE_WAY_SPEC)
    y = ds.response()
    grid = np.linspace(0.0, 30.0, 200)
    values = [reml_deviance(dm, y, [t]) for t in grid]
    assert values[0] > min(values)


def test_reml_deviance_rejects_negative_theta(fixture_a):
    dm, y = fixture_a
    with pytest.raises(FitError):
        reml_deviance(dm, y, [-0.5])


# ---------------------------------------------------------------------------
# fit_lmm
# ---------------------------------------------------------------------------


def test_balanced_one_way_matches_anova_moments():
    J, n = 6, 5
    ds = one_way_dataset(n_groups=J, per_group=n, group_sd=0.4, noise_sd=0.1,
                         seed=42)
    dm = build_design(ds, ONE_WAY_SPEC)
    y = ds.response()
    fit = fit_lmm(dm, y)
    gm = y.reshape(J, n).mean(axis=1)
    msb = n * np.var(gm, ddof=1)
    msw = float(np.mean(np.var(y.reshape(J, n), axis=1, ddof=1)))
    assert msb > msw
    assert fit.vc.sigma2[0] == pytest.approx((msb - msw) / n, rel=1e-6)
    assert fit.vc.sigma2_eps == pytest.approx(msw, rel=1e-6)
    assert fit.converged


def test_no_group_effect_hits_boundary():
    # identical mean structure across groups: repeat one noise pattern
    pattern = [0.48, 0.52, 0.5, 0.47, 0.53]
    ds = dataset_from_rows(("m", "o", f"g{j}", "h", f"{j}_{i}", v)
                           for j in range(4) for i, v in enumerate(pattern))
    dm = build_design(ds, ONE_WAY_SPEC)
    fit = fit_lmm(dm, ds.response())
    assert fit.vc.sigma2[0] == 0.0
    assert fit.converged


def test_fit_beats_grid_oracle(fixture_b):
    dm, y = fixture_b
    fit = fit_lmm(dm, y)
    grid = np.linspace(0.0, 5.0, 50)
    grid_min = min(reml_deviance(dm, y, (a, b)) for a in grid for b in grid)
    assert fit.deviance <= grid_min + 1e-6


def test_fit_deviance_consistent_with_reml_deviance(fixture_b):
    dm, y = fixture_b
    fit = fit_lmm(dm, y)
    assert fit.deviance == pytest.approx(
        reml_deviance(dm, y, fit.vc.theta), abs=1e-8)


def test_constant_response_rejected(fixture_a):
    dm, _ = fixture_a
    with pytest.raises(DegenerateDataError):
        fit_lmm(dm, np.full(dm.n, 0.5))


def test_exact_fit_rejected_with_and_without_random_factors():
    # a response lying exactly in the column span of X has no residual
    t = np.arange(4.0)
    X = np.column_stack([np.ones(4), t])
    with pytest.raises(DegenerateDataError, match="span of the fixed effects"):
        fit_lmm(_BareDesign(X), X @ np.array([0.3, -0.2]))
    # scale-free: a tiny response on a large offset still counts
    with pytest.raises(DegenerateDataError, match="span of the fixed effects"):
        fit_lmm(_BareDesign(X), X @ np.array([1e6, 1e-3]))
    ds = dataset_from_rows((m, "o", s, "h", f"{m}{s}", mu)
                           for m, mu in (("a", 0.3), ("b", 0.5))
                           for s in ("s1", "s2", "s3"))
    dm = build_design(ds, ModelSpec(fixed_factor="model", random_factors=("seed",)))
    with pytest.raises(DegenerateDataError, match="span of the fixed effects"):
        fit_lmm(dm, ds.response())
    # the constant-response check keeps its message and comes first
    with pytest.raises(DegenerateDataError, match="constant"):
        fit_lmm(_BareDesign(X), np.full(4, 0.5))


def test_fit_without_random_factors_equals_ols():
    ds = crossed_dataset(generator_seed=2)
    spec = ModelSpec(random_factors=())
    dm = build_design(ds, spec)
    y = ds.response()
    beta, _, _, _ = np.linalg.lstsq(dm.X, y, rcond=None)
    rss = float(np.sum((y - dm.X @ beta) ** 2))
    loglik = -0.5 * dm.n * (math.log(2.0 * math.pi * rss / dm.n) + 1.0)
    fit = fit_lmm(dm, y, criterion="ML")
    assert np.allclose(fit.beta, beta, atol=1e-8)
    assert fit.loglik == pytest.approx(loglik, abs=1e-8)
    assert fit.npar == dm.p + 1


def test_blups_balanced_sum_to_zero_and_shrink():
    J, n = 6, 5
    ds = one_way_dataset(n_groups=J, per_group=n, group_sd=0.3, noise_sd=0.1,
                         seed=17)
    dm = build_design(ds, ONE_WAY_SPEC)
    y = ds.response()
    fit = fit_lmm(dm, y)
    blups = fit.blups
    assert abs(blups.sum()) < 1e-8
    raw_dev = y.reshape(J, n).mean(axis=1) - y.mean()
    for b, raw in zip(blups, raw_dev):
        assert abs(b) <= abs(raw) + 1e-12
        if abs(raw) > 1e-8:
            assert np.sign(b) == np.sign(raw)


def test_blups_match_conditional_mean_formula(fixture_b):
    # BLUP = Gamma Z' V0^-1 (y - X beta), the dense conditional-mean oracle
    dm, y = fixture_b
    fit = fit_lmm(dm, y)
    gamma = np.zeros(dm.q)
    for i, f in enumerate(dm.z_blocks):
        gamma[dm.z_blocks[f]] = fit.vc.theta[i] ** 2
    V0 = dm.Z @ np.diag(gamma) @ dm.Z.T + np.eye(dm.n)
    expected = np.diag(gamma) @ dm.Z.T @ np.linalg.solve(V0, y - dm.X @ fit.beta)
    assert np.allclose(fit.blups, expected, atol=1e-8)


def test_vcov_beta_matches_dense_oracle(fixture_b):
    dm, y = fixture_b
    fit = fit_lmm(dm, y)
    gamma = np.zeros(dm.q)
    for i, f in enumerate(dm.z_blocks):
        gamma[dm.z_blocks[f]] = fit.vc.theta[i] ** 2
    V0 = dm.Z @ np.diag(gamma) @ dm.Z.T + np.eye(dm.n)
    oracle = fit.vc.sigma2_eps * np.linalg.inv(
        dm.X.T @ np.linalg.solve(V0, dm.X))
    assert np.allclose(fit.vcov_beta, oracle, atol=1e-10)
    eigvals = np.linalg.eigvalsh(fit.vcov_beta)
    assert np.all(eigvals > -1e-12)


def test_ml_criterion_deviance_below_reml_dof():
    ds = crossed_dataset(generator_seed=21)
    dm = build_design(ds, ModelSpec())
    y = ds.response()
    reml = fit_lmm(dm, y, criterion="REML")
    ml = fit_lmm(dm, y, criterion="ML")
    assert reml.criterion == "REML" and ml.criterion == "ML"
    assert reml.npar == ml.npar
    # same data, different criteria: estimates agree loosely but not exactly
    assert np.allclose(reml.beta, ml.beta, atol=0.05)


def test_aic_identity():
    # the first reference sits exactly at the tolerance in decimal; allow
    # float-representation slack on top of the stated 1e-3
    assert abs(aic(14, 2493.680) - (-4959.361)) <= 1e-3 + 1e-9
    assert abs(aic(14, 1854.749) - (-3681.498)) <= 1e-3 + 1e-9
    assert aic(0, 0.0) == 0.0


def test_fitted_aic_property(fixture_a):
    dm, y = fixture_a
    fit = fit_lmm(dm, y)
    assert fit.aic == pytest.approx(2 * fit.npar - 2 * fit.loglik)
    assert fit.npar == dm.p + 1 + 1


# ---------------------------------------------------------------------------
# Bordered-Cholesky kernel against the scipy.linalg wrapper solve
# ---------------------------------------------------------------------------


class _ScipyWorkspace:
    """The blockwise PLS solve written with scipy.linalg's wrappers.

    An independent reference for the bordered-Cholesky kernel: it forms
    its own cross-products from the workspace's (canonically ordered)
    rows and factors ZtZ and the Schur complement separately.
    """

    def __init__(self, ws):
        self.n, self.p, self.q = ws.n, ws.p, ws.q
        self.X, self.y = ws.X, ws.y
        # dense indicators from the workspace's level codes
        self.Z = np.zeros((self.n, self.q))
        for columns in ws.z_columns:
            self.Z[np.arange(self.n), columns] = 1.0
        self.col_factor, self.n_factors = ws.col_factor, ws.n_factors
        self.XtX, self.Xty = self.X.T @ self.X, self.X.T @ self.y
        self.ZtZ, self.ZtX = self.Z.T @ self.Z, self.Z.T @ self.X
        self.Zty, self.yty = self.Z.T @ self.y, float(self.y @ self.y)

    def solve(self, theta):
        lam = theta[self.col_factor] if self.q else np.zeros(0)
        if self.q:
            A = (lam[:, None] * self.ZtZ) * lam[None, :]
            A[np.diag_indices_from(A)] += 1.0
            L = scipy.linalg.cholesky(A, lower=True, check_finite=False)
            rzx = scipy.linalg.solve_triangular(L, lam[:, None] * self.ZtX,
                                                lower=True, check_finite=False)
            cu = scipy.linalg.solve_triangular(L, lam * self.Zty,
                                               lower=True, check_finite=False)
            S = self.XtX - rzx.T @ rzx
            logdet_lz = 2.0 * float(np.sum(np.log(np.diag(L))))
        else:
            rzx = np.zeros((0, self.p))
            cu = np.zeros(0)
            S = self.XtX
            logdet_lz = 0.0
        RX, low = scipy.linalg.cho_factor(S, lower=True, check_finite=False)
        logdet_rx = 2.0 * float(np.sum(np.log(np.diag(RX))))
        beta = scipy.linalg.cho_solve((RX, low), self.Xty - rzx.T @ cu,
                                      check_finite=False)
        if self.q:
            u = scipy.linalg.solve_triangular(L.T, cu - rzx @ beta,
                                              lower=False, check_finite=False)
            b = lam * u
        else:
            u = np.zeros(0)
            b = u
        pwrss = float(self.yty - (lam * self.Zty) @ u - self.Xty @ beta)
        if pwrss < 1e-8 * max(self.yty, 1.0):
            resid = self.y - self.X @ beta - self.Z @ b
            pwrss = float(resid @ resid + u @ u)
        return dict(beta=beta, u=u, b=b, pwrss=pwrss, logdet_lz=logdet_lz,
                    logdet_rx=logdet_rx, rx_factor=(RX, low))

    def deviance(self, theta, reml):
        s = self.solve(theta)
        n, p = self.n, self.p
        if reml:
            return s["logdet_lz"] + s["logdet_rx"] + \
                (n - p) * (1.0 + math.log(2.0 * math.pi) + math.log(s["pwrss"] / (n - p)))
        return s["logdet_lz"] + n * (1.0 + math.log(2.0 * math.pi) + math.log(s["pwrss"] / n))

    def deviance_at(self, theta, sigma2, reml):
        s = self.solve(theta)
        dof = (self.n - self.p) if reml else self.n
        dev = dof * (math.log(2.0 * math.pi) + math.log(sigma2)) + s["logdet_lz"] \
            + s["pwrss"] / sigma2
        return dev + s["logdet_rx"] if reml else dev

    def vcov_beta(self, theta, sigma2):
        s = self.solve(theta)
        return sigma2 * scipy.linalg.cho_solve(s["rx_factor"], np.eye(self.p),
                                               check_finite=False)


_THETA_AXIS = (0.0, 1e-8, 0.3, 1.0, 1e4)


def _solve_cases():
    one_ds = one_way_dataset(seed=3)
    one = build_design(one_ds, ONE_WAY_SPEC)
    paper_ds = crossed_dataset(
        combos=(("m-net", "adam", 0.45), ("protonet", "sgd", 0.62),
                ("tadam", "adam", 0.70)),
        sigma_seed=0.005559, sigma_hparam=0.042334, sigma_eps=0.020828,
        generator_seed=5)
    paper = build_design(paper_ds, ModelSpec())
    zero = build_design(paper_ds, ModelSpec(random_factors=()))
    y_paper = paper_ds.response()
    # 14 configs outnumber the other 3 + 2 + 2 + 1 rows: hparams, the middle
    # factor, is eliminated; unbalanced cells, so no sum of modes vanishes
    # by symmetry
    wide_ds = _random_labels(1, 150, {"model": 2, "seed": 3, "hparams": 14, "rerun": 2})
    wide = build_design(wide_ds, ModelSpec(fixed_factor="model",
                                           random_factors=("seed", "hparams", "rerun")))
    assert wide.q == 19 and wide.p == 2
    return {"one_factor": (one, one_ds.response()),
            "paper": (paper, y_paper),
            "zero_factor": (zero, y_paper),
            "crossed_eliminated": (wide, wide_ds.response())}


def _close(got, want, rel):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = max([1.0] + np.abs(want).ravel().tolist())
    return got.shape == want.shape and np.all(np.abs(got - want) <= rel * scale)


@pytest.mark.parametrize("case", ["one_factor", "paper", "zero_factor",
                                  "crossed_eliminated"])
def test_kernel_matches_scipy_wrapper_oracle(case):
    # the two solves factor the same system in different orders, so they
    # agree to rounding, scaled by max(1, |value|): 1e-12 relative while
    # theta <= 1; at theta = 1e4 the Z block's condition number is about
    # theta^2 = 1e8, and both solves lose that factor (1e4 * eps * theta^2)
    dm, y = _solve_cases()[case]
    ws = _Workspace(dm, y)
    oracle = _ScipyWorkspace(ws)
    for theta in itertools.product(_THETA_AXIS, repeat=ws.n_factors):
        theta = np.array(theta)
        rel = 1e-12 + 1e4 * np.finfo(float).eps * float(np.max(theta, initial=0.0)) ** 2
        got, want = ws.solve(theta), oracle.solve(theta)
        for key in ("logdet_lz", "logdet_rx", "pwrss", "beta", "u", "b"):
            assert _close(got[key], want[key], rel), (key, theta)
        for reml in (True, False):
            assert _close(ws.deviance(theta, reml=reml),
                          oracle.deviance(theta, reml=reml), rel), (reml, theta)
            assert _close(ws.deviance_at(theta, 0.7, reml=reml),
                          oracle.deviance_at(theta, 0.7, reml=reml), rel), (reml, theta)
        assert _close(ws.vcov_beta(theta, 0.7), oracle.vcov_beta(theta, 0.7), rel), theta


def _tree_design(combos, n_seeds, n_configs, n_reruns=3, fixed="model:optimizer"):
    design = TreeDesign(combos=combos, n_seeds=n_seeds, n_configs=n_configs,
                        n_reruns=n_reruns, sigma_seed=0.02, sigma_hparam=0.04,
                        sigma_eps=0.02, rerun_mode="noisy", generator_seed=1)
    ds = expvar.ensure_factor(generate(design), fixed)
    return build_design(ds, ModelSpec(fixed_factor=fixed))


_COMBOS = (("m-net", "adam", 0.45), ("protonet", "sgd", 0.62),
           ("tadam", "adam", 0.70), ("maml", "sgd", 0.55))


@pytest.mark.parametrize("make, eliminated", [
    # paper: 5 configs against 4 seeds + 3 fixed + 1 border rows
    (lambda: _tree_design(_COMBOS[:3], 4, 5), None),
    # criterion 8 H1 (5 against 7) and H3 (3 seeds tie 3 configs; 3 against 8)
    (lambda: _tree_design(_COMBOS[:2], 4, 5), None),
    (lambda: _tree_design(_COMBOS[:2], 3, 3, n_reruns=2,
                          fixed="model:optimizer:rerun"), None),
    # one factor: 6 seeds against 1 + 1; ranova's paper-size reduced models:
    # 5 configs against 3 + 1, 4 seeds tie 3 + 1 and are kept
    (lambda: build_design(one_way_dataset(), ONE_WAY_SPEC), "seed"),
    (lambda: drop_random_factor_design(_tree_design(_COMBOS[:3], 4, 5), "seed"),
     "hparams"),
    (lambda: drop_random_factor_design(_tree_design(_COMBOS[:3], 4, 5), "hparams"),
     None),
    # the large CLI table's shape: 12 configs against 5 seeds + 4 + 1
    (lambda: _tree_design(_COMBOS, 5, 12, n_reruns=1), "hparams"),
], ids=["paper", "h1", "h3", "one_way", "paper_minus_seed", "paper_minus_hparams",
        "cli_large_shape"])
def test_largest_factor_eliminated_when_it_outnumbers_the_other_rows(make, eliminated):
    dm = make()
    ws = _Workspace(dm, np.linspace(0.0, 1.0, dm.n) ** 2)
    assert ws.eliminated == eliminated
    q_e = dm.z_blocks[eliminated].stop - dm.z_blocks[eliminated].start if eliminated else 0
    assert ws.q_e == q_e and ws.M.shape == (dm.q + dm.p + 1,) * 2
    # the eliminated factor's columns lead M, the others keep their order
    if eliminated:
        assert np.array_equal(ws.z_order[:q_e], np.arange(dm.q)[dm.z_blocks[eliminated]])
    assert np.array_equal(np.sort(ws.z_order), np.arange(dm.q))
    assert np.all(np.diff(ws.z_order[q_e:]) > 0)


def test_paper_size_deviance_is_pinned_bit_for_bit():
    # no factor is eliminated at paper size: the first fit a fresh process
    # makes there keeps its arithmetic to the last bit
    dm, y = _solve_cases()["paper"]
    ws = _Workspace(dm, y)
    assert ws.eliminated is None
    assert repr(ws.deviance(np.array([0.3, 1.0]))) == "-846.2719550183378"
    assert repr(ws.deviance(np.array([0.0, 2.5]))) == "-822.5777217474906"
    assert repr(ws.deviance(np.array([0.27, 0.05]))) == "-634.2449499185925"


def test_kernel_pads_a_corner_lost_to_cancellation():
    # when rounding leaves the corner's Schur complement non-positive, the
    # corner is padded so the factorization completes, and the PWRSS then
    # comes from explicit residuals; forced here by spoiling the corner,
    # which the kernel reads from M at each evaluation, on both sides of
    # the elimination rule
    for case, eliminated in (("paper", None), ("crossed_eliminated", "hparams")):
        dm, y = _solve_cases()[case]
        ws = _Workspace(dm, y)
        assert ws.eliminated == eliminated
        theta = np.linspace(0.3, 1.0, ws.n_factors)
        want = ws.solve(theta)
        ws.M[-1, -1] = -1.0
        L, _, pad = ws._factor(theta)
        assert pad == max(ws.yty, 1.0) and np.isfinite(L).all()
        got = ws.solve(theta)
        assert got["pwrss"] == pytest.approx(want["pwrss"], rel=1e-12)
        assert np.allclose(got["beta"], want["beta"], rtol=1e-12, atol=0.0)


def test_exact_fit_has_zero_pwrss_at_theta_zero():
    # on both sides of the elimination rule: 12 configs outnumber 3 + 2 + 1
    for shape, eliminated in (({}, None), ({"n_seeds": 3, "n_configs": 12}, "hparams")):
        ds = crossed_dataset(generator_seed=3, **shape)
        dm = build_design(ds, ModelSpec())
        ws = _Workspace(dm, dm.X @ np.array([0.5, 0.1]))
        assert ws.eliminated == eliminated
        assert ws.solve(np.zeros(2))["pwrss"] < 1e-25
        assert np.allclose(ws.vcov_beta(np.zeros(2), 1.0), np.linalg.inv(dm.X.T @ dm.X),
                           rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# Exact derivatives in the variance parameters against dense n x n algebra
# ---------------------------------------------------------------------------


def _dense_variance_derivatives(dm, y, omega, reml):
    """Hessian of the deviance in omega and dV_beta/domega from explicit
    n x n matrices: V = sum_i omega_i V_i, V^-1, P and the textbook traces."""
    n = dm.n
    V_i = [dm.Z[:, b] @ dm.Z[:, b].T for b in dm.z_blocks.values()] + [np.eye(n)]
    V_inv = np.linalg.inv(sum(w * v for w, v in zip(omega, V_i)))
    V_beta = np.linalg.inv(dm.X.T @ V_inv @ dm.X)
    P = V_inv - V_inv @ dm.X @ V_beta @ dm.X.T @ V_inv
    T = P if reml else V_inv
    Py = P @ y
    H = np.array([[-np.trace(T @ a @ T @ b) + 2.0 * Py @ a @ P @ b @ Py for b in V_i]
                  for a in V_i])
    dV = np.array([V_beta @ dm.X.T @ V_inv @ a @ V_inv @ dm.X @ V_beta for a in V_i])
    return H, dV


@pytest.mark.parametrize("random_factors, sizes", [
    (("seed", "hparams"), {"model": 3, "seed": 4, "hparams": 5}),
    # hparams outnumbers the other rows and is eliminated
    (("seed", "hparams", "rerun"), {"model": 2, "seed": 3, "hparams": 14, "rerun": 2})])
@pytest.mark.parametrize("criterion", ["REML", "ML"])
def test_variance_derivatives_match_dense_oracle(random_factors, sizes, criterion):
    ds = _random_labels(len(random_factors), 60, sizes)
    dm = build_design(ds, ModelSpec(fixed_factor="model", random_factors=random_factors))
    y = ds.response()
    fit = fit_lmm(dm, y, criterion=criterion)
    k = len(random_factors)
    assert fit._ws.eliminated == (None if k == 2 else "hparams")
    off = fit.omega_hat * np.linspace(0.5, 2.0, k + 1) + np.r_[np.full(k, 1e-3), 0.0]
    for omega in (fit.omega_hat, off):
        H, dV = fit.variance_derivatives(omega)
        H_dense, dV_dense = _dense_variance_derivatives(dm, y, omega, criterion == "REML")
        assert np.max(np.abs(H - H_dense)) <= 1e-8 * np.max(np.abs(H_dense))
        assert np.max(np.abs(dV - dV_dense)) <= 1e-8 * np.max(np.abs(dV_dense))
    assert np.array_equal(fit.variance_derivatives()[0],
                          fit.variance_derivatives(fit.omega_hat)[0])


def test_variance_derivatives_match_differences_of_the_fit_protocol(fixture_b):
    # deviance_at_omega and vcov_beta_at_omega are the functions whose
    # derivatives these are: central differences agree to their noise
    dm, y = fixture_b
    fit = fit_lmm(dm, y)
    omega = fit.omega_hat
    H, dV = fit.variance_derivatives()
    steps = 1e-3 * omega
    m = omega.size

    def at(*moves):
        w = omega.copy()
        for i, s in moves:
            w[i] += s * steps[i]
        return w

    H_fd = np.empty((m, m))
    for i, j in itertools.product(range(m), repeat=2):
        f = [fit.deviance_at_omega(at((i, a), (j, b))) for a, b in
             ((1, 1), (1, -1), (-1, 1), (-1, -1))]
        H_fd[i, j] = (f[0] - f[1] - f[2] + f[3]) / (4.0 * steps[i] * steps[j])
    dV_fd = np.array([(fit.vcov_beta_at_omega(at((i, 1))) -
                       fit.vcov_beta_at_omega(at((i, -1)))) / (2.0 * steps[i])
                      for i in range(m)])
    assert np.max(np.abs(H - H_fd)) <= 1e-4 * np.max(np.abs(H))
    assert np.max(np.abs(dV - dV_fd)) <= 1e-4 * np.max(np.abs(dV))


# ---------------------------------------------------------------------------
# Cross-products from level codes against a dense indicator matrix
# ---------------------------------------------------------------------------


def _random_labels(seed: int, n: int, sizes: dict) -> Dataset:
    """Uniformly drawn labels, so cells are unbalanced and some cross pairs
    are never observed, and a response with an effect per random factor."""
    rng = np.random.default_rng(seed)
    labels, y = {}, rng.normal(0.0, 0.1, n)
    for name in FACTOR_COLUMNS:
        codes = rng.integers(0, sizes.get(name, 1), n)
        labels[name] = [f"{name[0]}{c:03d}" for c in codes]
        y += rng.normal(0.0, 0.2, sizes.get(name, 1))[codes]
    return Dataset.from_labels(labels, y)


def _one_hot(labels) -> np.ndarray:
    labels = np.asarray(labels)
    return (labels[:, None] == np.unique(labels)[None, :]).astype(float)


@pytest.mark.parametrize("random_factors", [("seed",), ("seed", "hparams"),
                                            ("hparams", "seed", "rerun")])
@pytest.mark.parametrize("coding, intercept", [("treatment", True),
                                               ("sum_to_zero", True),
                                               ("treatment", False)])
def test_cross_products_from_codes_match_dense_indicators(random_factors, coding,
                                                          intercept):
    ds = _random_labels(len(random_factors), 90,
                        {"model": 3, "seed": 7, "hparams": 11, "rerun": 4})
    spec = ModelSpec(fixed_factor="model", random_factors=random_factors,
                     contrast_coding=coding, include_intercept=intercept)
    dm = build_design(ds, spec)
    y = ds.response()
    ws = _Workspace(dm, y)
    # the oracle: indicators from the labels themselves, in input row order
    Z = np.hstack([_one_hot([ds.levels(f)[c] for c in ds.level_codes(f)])
                   for f in random_factors])
    r = y - dm.X @ np.linalg.lstsq(dm.X, y, rcond=None)[0]
    W = np.column_stack([Z, dm.X, r])
    dense, bound = W.T @ W, np.abs(W).T @ np.abs(W)
    if len(random_factors) > 1:
        assert (dense[:dm.q, :dm.q] == 0.0).sum() > dm.q  # unobserved pairs
    # counts and the X blocks are integers: exactly equal
    assert np.array_equal(ws.M[:-1, :-1], dense[:-1, :-1])
    # the r border is a sum of rounded terms: within 1e-12 of their size
    assert np.all(np.abs(ws.M[:, -1] - dense[:, -1]) <= 1e-12 * bound[:, -1])
    # permuted rows give the same matrix, bit for bit
    perm = np.random.default_rng(5).permutation(ds.n)
    shuffled = ds.take(perm)
    assert np.array_equal(_Workspace(build_design(shuffled, spec),
                                     shuffled.response()).M, ws.M)
    # Z gathered over the codes is the dense product
    b = np.linspace(-1.0, 1.0, dm.q)
    assert np.array_equal(np.sort(ws._z_times(b)), np.sort(Z @ b))


def test_fit_and_ranova_allocate_no_dense_indicator_matrix():
    # a dense n x q Z would take 20.8 MB here; building the design, one fit
    # and the three ranova fits must together stay below a quarter of it
    # (each live workspace holds a few n-vectors, under 1 MB in all)
    n, sizes = 20_000, {"model": 1, "seed": 30, "hparams": 100}
    ds = _random_labels(0, n, sizes)
    spec = ModelSpec(fixed_factor="model", random_factors=("seed", "hparams"))
    dense_bytes = n * (sizes["seed"] + sizes["hparams"]) * 8
    assert dense_bytes >= 20e6
    tracemalloc.start()
    try:
        dm = build_design(ds, spec)
        fit = fit_lmm(dm, ds.response())
        result = ranova(dm, ds.response(), spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.converged and result.converged
    assert peak < dense_bytes / 4, peak


# ---------------------------------------------------------------------------
# One workspace and one fit per design and response
# ---------------------------------------------------------------------------


def _count_workspaces(monkeypatch) -> list:
    """Patch _Workspace.__init__ to append 1 to the returned list per build."""
    built = []
    init = _Workspace.__init__

    def counted(self, dm, y):
        built.append(1)
        init(self, dm, y)

    monkeypatch.setattr(_Workspace, "__init__", counted)
    return built


def _crossed_design():
    ds = crossed_dataset(n_seeds=5, n_configs=3, n_reruns=2, generator_seed=23)
    return ds, build_design(ds, ModelSpec())


def test_reml_deviance_reuses_the_fits_workspace(fixture_b, monkeypatch):
    dm, y = fixture_b
    built = _count_workspaces(monkeypatch)
    fit = fit_lmm(dm, y)
    for theta in ([0.5, 1.0], [0.0, 2.0], [3.0, 0.0]):
        reml_deviance(dm, y.copy(), theta)
    assert reml_deviance(dm, y, fit.theta) == fit.deviance
    assert len(built) == 1


def test_refit_on_equal_bytes_returns_the_same_fit(fixture_b):
    dm, y = fixture_b
    fit = fit_lmm(dm, y)
    assert fit_lmm(dm, np.array(y)) is fit
    assert fit_lmm(dm, list(y), criterion="reml") is fit


def test_new_response_gets_a_new_fit_and_replaces_the_entry(fixture_b, monkeypatch):
    dm, y = fixture_b
    fit = fit_lmm(dm, y)
    other = y.copy()
    other[7] += 0.01
    refit = fit_lmm(dm, other)
    assert refit is not fit and refit.loglik != fit.loglik
    assert fit_lmm(dm, other) is refit
    # the first response's entry is gone: it is fitted again, to the same numbers
    built = _count_workspaces(monkeypatch)
    again = fit_lmm(dm, y)
    assert len(built) == 1 and again is not fit
    assert again.loglik == fit.loglik and again.vc == fit.vc
    assert np.array_equal(again.beta, fit.beta) and np.array_equal(again.blups, fit.blups)


def test_criteria_and_options_are_separate_entries(fixture_b):
    # every fit follows one recipe, so the criterion alone keys a design's fits
    dm, y = fixture_b
    reml, ml = fit_lmm(dm, y), fit_lmm(dm, y, criterion="ML")
    assert ml is not reml and ml.criterion == "ML" and ml.loglik != reml.loglik
    assert fit_lmm(dm, y, criterion="ml") is ml
    assert fit_lmm(dm, y, criterion="reml") is reml
    assert lmm._MEMO[dm][2] == {"REML": reml, "ML": ml}


def test_reduced_design_gets_its_own_empty_entry(fixture_b):
    dm, y = fixture_b
    fit = fit_lmm(dm, y)
    reduced = drop_random_factor_design(dm, "seed")
    assert reduced not in lmm._MEMO
    reduced_fit = fit_lmm(reduced, y)
    assert reduced_fit.vc.names == ("hparams",) and reduced_fit._ws is not fit._ws
    assert fit_lmm(dm, y) is fit


def test_memo_entry_dies_with_its_design():
    ds, dm = _crossed_design()
    fit = fit_lmm(dm, ds.response())
    alive = weakref.ref(dm)
    assert dm in lmm._MEMO
    entries = len(lmm._MEMO)
    del dm
    gc.collect()
    assert alive() is None and len(lmm._MEMO) == entries - 1
    # the fit keeps working without its design
    assert fit.deviance_at_omega(fit.omega_hat) == pytest.approx(fit.deviance, abs=1e-9)


def test_refusals_are_raised_on_every_call(fixture_b):
    dm, _ = fixture_b
    constant = np.full(dm.n, 0.5)
    for _ in range(2):
        with pytest.raises(DegenerateDataError, match="constant"):
            fit_lmm(dm, constant)


def test_ranova_after_fit_builds_only_the_reduced_workspaces(monkeypatch):
    ds, dm = _crossed_design()
    spec, y = ModelSpec(), ds.response()
    fit_lmm(dm, y)
    built = _count_workspaces(monkeypatch)
    result = ranova(dm, y, spec)
    assert len(built) == len(dm.random_factors)
    assert repr(result) == repr(ranova(build_design(ds, spec), y, spec))
    assert len(built) == 2 * len(dm.random_factors) + 1


def test_shared_fit_arrays_are_read_only(fixture_b):
    dm, y = fixture_b
    fit = fit_lmm(dm, y)
    for array in (fit.beta, fit.blups, fit.vcov_beta):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    assert fit_lmm(dm, y).beta[0] == fit.beta[0]


# ---------------------------------------------------------------------------
# Nelder-Mead port against scipy.optimize
# ---------------------------------------------------------------------------


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _walled(x):
    # inf outside x[0] >= 0.2, as the fit's objective is outside its domain
    if x[0] < 0.2:
        return math.inf
    return float((x[0] - 0.3) ** 2 + 3.0 * (x[1] + 0.5) ** 2 + (x[2] - x[0]) ** 2)


def _scipy_run(fn, x0, maxfev, xatol, adaptive, fatol=np.inf):
    res = scipy.optimize.minimize(fn, x0, method="Nelder-Mead",
                                  options=dict(maxfev=maxfev, xatol=xatol,
                                               fatol=fatol, adaptive=adaptive))
    return res.x, res.fun, res.nfev, bool(res.success)


@pytest.mark.parametrize("fn, x0, maxfev, xatol, adaptive, success", [
    (_rosenbrock, (-1.2, 1.0), 2000, 1e-9, False, True),
    (_rosenbrock, (-1.2, 1.0, 0.5), 3000, 1e-9, True, True),
    (_rosenbrock, (-1.2, 1.0), 80, 1e-3, False, False),
    (_rosenbrock, (0.1, 1.0, 10.0), 120, 1e-3, True, False),
    (_rosenbrock, (0.0, 0.0), 2, 1e-3, False, False),
    (_rosenbrock, (0.0, 0.0), 80, 1e-3, False, True),
    (_walled, (0.21, 1.0, 0.0), 3000, 1e-9, True, True),
    (_walled, (0.21, 1.0, 0.0), 3000, 1e-9, False, True),
], ids=["rosen2", "rosen3-adaptive", "rosen2-maxfev", "rosen3-adaptive-maxfev",
        "maxfev-in-first-simplex", "first-simplex-small", "inf-adaptive", "inf"])
def test_nelder_mead_port_equals_scipy(fn, x0, maxfev, xatol, adaptive, success):
    # with fatol = inf scipy stops on the simplex size alone, the port's rule
    x, f, nfev, ok = _nelder_mead(fn, np.array(x0), maxfev=maxfev, xatol=xatol,
                                  adaptive=adaptive)
    sx, sf, snfev, sok = _scipy_run(fn, np.array(x0), maxfev, xatol, adaptive)
    assert np.array_equal(x, sx) and f == sf and nfev == snfev and ok == sok
    assert ok == success


def test_nelder_mead_port_equals_scipy_on_the_fit_objective(fixture_b):
    # the clamped paper-size deviance: the scout and polish settings of the
    # fit; here scipy's fatol stop binds no later than the simplex size
    dm, y = fixture_b
    ws = _Workspace(dm, y)

    def fn(t):
        return ws.deviance(np.maximum(t, 0.0))

    for x0, maxfev, xatol, fatol in (((0.1, 1.0), 80, 1e-3, 1e-4),
                                     ((1.0, 1.0), 1000, 1e-9, 1e-8)):
        got = _nelder_mead(fn, np.array(x0), maxfev=maxfev, xatol=xatol, adaptive=False)
        want = _scipy_run(fn, np.array(x0), maxfev, xatol, False, fatol=fatol)
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]


def _noisy_bowl(x):
    # a smooth bowl plus deterministic noise of 1e-7, a hash of the point:
    # the vertex values of a collapsed simplex never agree within 1e-8
    digest = hashlib.blake2b(np.asarray(x, dtype=float).tobytes(), digest_size=4).digest()
    noise = 1e-7 * (int.from_bytes(digest, "little") / 2.0 ** 32 - 0.5)
    return float(np.sum((np.asarray(x) - 1.0) ** 2)) + noise


def test_collapsed_simplex_converges_despite_noise():
    x0 = np.array([0.3, 2.0])
    sx, _, snfev, sok = _scipy_run(_noisy_bowl, x0, 1000, 1e-9, False, fatol=1e-8)
    assert not sok and snfev == 1000
    assert np.max(np.abs(sx - 1.0)) < 1e-2
    x, _, nfev, ok = _nelder_mead(_noisy_bowl, x0, maxfev=1000, xatol=1e-9,
                                  adaptive=False)
    assert ok and nfev < 1000
    assert np.max(np.abs(x - 1.0)) < 1e-2


def test_large_fit_converges_on_float_noise_seed():
    # the 60k-row, q = 150 table the CLI benchmark simulates at seed 100:
    # its polish used to spend the whole budget on a simplex collapsed to
    # 6e-17 whose deviances (about -2.9e5) differed by float noise only
    design = TreeDesign(combos=(("m-net", "adam", 0.45), ("protonet", "sgd", 0.62),
                                ("tadam", "adam", 0.70), ("maml", "sgd", 0.55)),
                        n_seeds=50, n_configs=100, n_reruns=3, sigma_seed=0.005559,
                        sigma_hparam=0.042334, sigma_eps=0.020828,
                        rerun_mode="noisy", generator_seed=100)
    ds = expvar.ensure_factor(generate(design), "model:optimizer")
    dm = build_design(ds, ModelSpec())
    fit = fit_lmm(dm, ds.response())
    assert dm.n == 60000 and dm.q == 150
    assert fit.converged
    assert fit.deviance_profile_evals < 1500
