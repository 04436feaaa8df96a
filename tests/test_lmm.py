import itertools

import numpy as np
import pytest
import scipy.linalg

from expvar.data import Dataset, ExperimentRecord, ModelSpec
from expvar.design import build_design
from expvar.lmm import (DegenerateDataError, FitError, FitOptions, _Workspace,
                        _cholesky, aic, drop_random_factor, fit_lmm, fit_ols,
                        reml_deviance)

from conftest import (ONE_WAY_SPEC, crossed_dataset, dense_reml_deviance,
                      one_way_dataset, ols_restricted_deviance)


class _BareDesign:
    """Minimal design stand-in for direct matrix-level OLS tests."""

    def __init__(self, X):
        self.X = np.asarray(X, dtype=float)
        self.Z = np.zeros((self.X.shape[0], 0))
        self.z_blocks = {}
        self.column_map = tuple(f"c{i}" for i in range(self.X.shape[1]))

    @property
    def n(self):
        return self.X.shape[0]


# ---------------------------------------------------------------------------
# OLS baseline
# ---------------------------------------------------------------------------


def test_ols_mean():
    dm = _BareDesign(np.ones((3, 1)))
    fit = fit_ols(dm, np.array([1.0, 2.0, 3.0]))
    assert fit.beta[0] == pytest.approx(2.0)
    assert fit.rss == pytest.approx(2.0)
    assert fit.sigma2 == pytest.approx(1.0)


def test_ols_exact_fit_degenerate():
    X = np.column_stack([np.ones(4), np.arange(4.0)])
    y = X @ np.array([0.3, -0.2])
    fit = fit_ols(_BareDesign(X), y)
    assert fit.degenerate
    assert fit.sigma2 == pytest.approx(0.0, abs=1e-14)


def test_ols_matches_normal_equations():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    fit = fit_ols(_BareDesign(X), y)
    beta_oracle = np.linalg.solve(X.T @ X, X.T @ y)
    assert np.allclose(fit.beta, beta_oracle, atol=1e-10)
    # residual orthogonality to the columns of X
    resid = y - X @ fit.beta
    assert np.max(np.abs(X.T @ resid)) < 1e-8 * np.abs(y).max()


def test_ols_insufficient_data():
    with pytest.raises(FitError):
        fit_ols(_BareDesign(np.ones((2, 3))), np.array([1.0, 2.0]))


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
    records = []
    for j in range(4):
        for i, v in enumerate(pattern):
            records.append(ExperimentRecord(model="m", optimizer="o",
                                            seed=f"g{j}", hparams="h",
                                            rerun=f"{j}_{i}", metric=v))
    ds = Dataset(records=tuple(records))
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


def test_fit_without_random_factors_equals_ols():
    ds = crossed_dataset(generator_seed=2)
    spec = ModelSpec(random_factors=())
    dm = build_design(ds, spec)
    y = ds.response()
    ols = fit_ols(dm, y)
    fit = fit_lmm(dm, y, criterion="ML")
    assert np.allclose(fit.beta, ols.beta, atol=1e-8)
    assert fit.loglik == pytest.approx(ols.loglik, abs=1e-8)
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


def test_drop_random_factor_spec():
    spec = ModelSpec()
    dropped = drop_random_factor(spec, "seed")
    assert dropped.random_factors == ("hparams",)
    only = drop_random_factor(dropped, "hparams")
    assert only.random_factors == ()
    with pytest.raises(Exception):
        drop_random_factor(spec, "nope")
    # drop then re-add restores the original
    import dataclasses
    readded = dataclasses.replace(dropped, random_factors=("seed", "hparams"))
    assert readded == spec


def test_weights_interface_default_identity(fixture_a):
    dm, y = fixture_a
    base = fit_lmm(dm, y)
    weighted = fit_lmm(dm, y, opts=FitOptions(weights=np.ones(dm.n)))
    assert np.allclose(base.beta, weighted.beta, atol=1e-10)
    assert base.loglik == pytest.approx(weighted.loglik, abs=1e-8)


# ---------------------------------------------------------------------------
# LAPACK-direct PLS solve against the scipy.linalg wrappers, bit for bit
# ---------------------------------------------------------------------------


class _ScipyWorkspace(_Workspace):
    """The PLS solve written with scipy.linalg's wrappers: an exact oracle.

    The library calls the same LAPACK routines directly with the same
    arguments, so every float must match, not just agree to a tolerance.
    """

    def solve(self, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_factors,):
            raise FitError(f"theta has shape {theta.shape}")
        if np.any(theta < 0):
            raise FitError(f"theta must be non-negative, got {theta}")
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
                    logdet_rx=logdet_rx, S=S, rx_factor=(RX, low))

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
    w = np.random.default_rng(9).uniform(0.5, 2.0, paper.n)
    return {"one_factor": (one, one_ds.response(), None),
            "paper": (paper, y_paper, None),
            "zero_factor": (zero, y_paper, None),
            "weighted": (paper, y_paper, w)}


@pytest.mark.parametrize("case", ["one_factor", "paper", "zero_factor", "weighted"])
def test_lapack_solve_bit_identical_to_scipy_wrappers(case):
    dm, y, w = _solve_cases()[case]
    ws = _Workspace(dm, y, w)
    oracle = _ScipyWorkspace(dm, y, w)
    for theta in itertools.product(_THETA_AXIS, repeat=ws.n_factors):
        theta = np.array(theta)
        got, want = ws.solve(theta), oracle.solve(theta)
        for key in ("beta", "u", "b", "pwrss", "logdet_lz", "logdet_rx"):
            assert np.array_equal(got[key], want[key]), (key, theta)
        for reml in (True, False):
            assert ws.deviance(theta, reml=reml) == oracle.deviance(theta, reml=reml)
            assert ws.deviance_at(theta, 0.7, reml=reml) == \
                oracle.deviance_at(theta, 0.7, reml=reml)
        assert np.array_equal(ws.vcov_beta(theta, 0.7), oracle.vcov_beta(theta, 0.7))


def test_cholesky_helper_rejects_indefinite_matrix():
    with pytest.raises(np.linalg.LinAlgError):
        _cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
