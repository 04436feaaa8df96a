import dataclasses
import logging

import numpy as np
import pytest

from expvar import inference
from expvar.data import ModelSpec
from expvar.design import build_design, contrast_rows, difference_rows, omnibus_rows
from expvar.inference import (InferenceError, anova_fixed, contrasts, ranova,
                              satterthwaite_df)
from expvar.lmm import fit_lmm
from expvar.tails import chisq_sf, t_quantile, t_sf

from conftest import (ONE_WAY_SPEC, WelchFit, crossed_dataset, one_way_dataset,
                      welch_satterthwaite_formula)


# ---------------------------------------------------------------------------
# random-effect likelihood ratio tests
# ---------------------------------------------------------------------------


def test_ranova_rows_and_identities():
    ds = crossed_dataset(generator_seed=6)
    dm = build_design(ds, ModelSpec())
    result = ranova(dm, ds.response(), ModelSpec())
    assert [r.factor for r in result.rows] == ["seed", "hparams"]
    for row in result.rows:
        assert row.df == result.full_npar - row.npar == 1
        assert row.lrt >= 0.0
        assert row.lrt == pytest.approx(
            2.0 * (result.full_loglik - row.loglik), abs=1e-9)
        assert row.aic == pytest.approx(2 * row.npar - 2 * row.loglik, abs=1e-9)
        assert row.converged
        assert row.p_value == pytest.approx(chisq_sf(row.lrt, 1), abs=1e-12)


def test_ranova_zero_lrt_p_is_one():
    assert chisq_sf(0.0, 1) == 1.0


def test_ranova_boundary_correction_halves_p():
    ds = crossed_dataset(generator_seed=6)
    dm = build_design(ds, ModelSpec())
    plain = ranova(dm, ds.response(), ModelSpec())
    corrected = ranova(dm, ds.response(), ModelSpec(), boundary_correction=True)
    for a, b in zip(plain.rows, corrected.rows):
        if a.lrt > 0:
            assert b.p_value == pytest.approx(0.5 * a.p_value, rel=1e-12)


def test_ranova_requires_random_factor():
    ds = crossed_dataset(generator_seed=6)
    spec = ModelSpec(random_factors=())
    dm = build_design(ds, spec)
    with pytest.raises(InferenceError):
        ranova(dm, ds.response(), spec)


def test_ranova_flags_unconverged_rows():
    from expvar.lmm import FitOptions
    ds = crossed_dataset(generator_seed=6)
    dm = build_design(ds, ModelSpec())
    starved = FitOptions(max_evals_per_dim=1)
    result = ranova(dm, ds.response(), ModelSpec(), opts=starved)
    assert not result.converged
    for row in result.rows:
        assert not row.converged
        assert row.p_value is None


def _boundary_seed_case():
    """A sigma_seed = 0 table whose seed LRT dips to about -1e-11."""
    ds = crossed_dataset(
        combos=(("m-net", "adam", 0.45), ("protonet", "sgd", 0.62)),
        sigma_seed=0.0, sigma_hparam=0.042334, sigma_eps=0.020828,
        generator_seed=6)
    return build_design(ds, ModelSpec()), ds.response()


def test_ranova_float_noise_clamp_is_quiet(caplog):
    dm, y = _boundary_seed_case()
    with caplog.at_level(logging.WARNING, logger="expvar.inference"):
        result = ranova(dm, y, ModelSpec())
    seed_row = result.rows[0]
    assert seed_row.factor == "seed"
    assert 2.0 * (result.full_loglik - seed_row.loglik) < 0.0
    assert seed_row.lrt == 0.0 and seed_row.p_value == 1.0
    assert not [r for r in caplog.records if "clamped" in r.getMessage()]


def test_ranova_clamp_beyond_tolerance_warns(caplog, monkeypatch):
    # lift each reduced fit's loglik by 1e-6: the seed LRT then dips far
    # below the fits' 1e-8 deviance tolerance, which must still be reported
    dm, y = _boundary_seed_case()

    def lifted_fit(dm, y, **kwargs):
        fit = fit_lmm(dm, y, **kwargs)
        if len(dm.z_blocks) == 1:
            fit = dataclasses.replace(fit, loglik=fit.loglik + 1e-6)
        return fit

    monkeypatch.setattr(inference, "fit_lmm", lifted_fit)
    with caplog.at_level(logging.WARNING, logger="expvar.inference"):
        result = ranova(dm, y, ModelSpec())
    assert result.rows[0].lrt == 0.0
    assert [r.getMessage() for r in caplog.records] == [
        "LRT for 'seed' clamped to 0 (was -2.000e-06)"]


def test_ml_lrt_never_negative():
    # adding a random factor cannot lower the ML log-likelihood
    for seed in range(4):
        ds = crossed_dataset(generator_seed=100 + seed)
        dm = build_design(ds, ModelSpec())
        result = ranova(dm, ds.response(), ModelSpec(), criterion="ML")
        for row in result.rows:
            assert row.lrt >= 0.0


# ---------------------------------------------------------------------------
# Satterthwaite degrees of freedom
# ---------------------------------------------------------------------------


def test_balanced_one_way_intercept_df():
    J = 6
    ds = one_way_dataset(n_groups=J, per_group=5, group_sd=0.4, noise_sd=0.08,
                         seed=42)
    dm = build_design(ds, ONE_WAY_SPEC)
    fit = fit_lmm(dm, ds.response())
    c = np.zeros(dm.p)
    c[0] = 1.0
    assert satterthwaite_df(fit, c) == pytest.approx(J - 1, abs=1e-3)


@pytest.mark.parametrize("seed,n1,n2,sd2", [(7, 11, 23, 2.5), (1, 5, 40, 0.3),
                                            (2, 8, 8, 4.0)])
def test_welch_equivalence(seed, n1, n2, sd2):
    rng = np.random.default_rng(seed)
    x1 = rng.normal(0.0, 1.0, n1)
    x2 = rng.normal(0.5, sd2, n2)
    fit = WelchFit(x1, x2)
    df = satterthwaite_df(fit, np.array([1.0, -1.0]))
    assert df == pytest.approx(welch_satterthwaite_formula(x1, x2), abs=1e-3)


def test_zero_contrast_df_error():
    ds = one_way_dataset(seed=5)
    dm = build_design(ds, ONE_WAY_SPEC)
    fit = fit_lmm(dm, ds.response())
    with pytest.raises(InferenceError, match="zero contrast"):
        satterthwaite_df(fit, np.zeros(dm.p))


def test_flat_information_raises_boundary_error():
    # a deviance that ignores one variance parameter has a singular
    # information matrix; the error must point at the boundary situation
    class FlatFit:
        omega_hat = np.array([0.0, 1.0])
        converged = True
        nobs, p = 10, 1

        def vcov_beta_at_omega(self, w):
            return np.array([[w[1]]])

        def deviance_at_omega(self, w):
            return 9.0 * np.log(w[1]) + 4.5 / w[1]

    with pytest.raises(InferenceError, match="boundary"):
        satterthwaite_df(FlatFit(), np.array([1.0]))


def test_df_capped_at_residual_dof():
    ds = crossed_dataset(generator_seed=9)
    dm = build_design(ds, ModelSpec())
    fit = fit_lmm(dm, ds.response())
    c = np.zeros(dm.p)
    c[0] = 1.0
    assert satterthwaite_df(fit, c) <= fit.nobs - fit.p


# ---------------------------------------------------------------------------
# fixed-effects ANOVA
# ---------------------------------------------------------------------------


def test_anova_single_contrast_equals_squared_t():
    ds = crossed_dataset(generator_seed=12)
    dm = build_design(ds, ModelSpec())
    fit = fit_lmm(dm, ds.response())
    c = contrast_rows(dm, [dm.fixed_levels[1]], kind="vs_reference")[0]
    row = anova_fixed(fit, c[None, :])
    t_stat = float(c @ fit.beta) / float(np.sqrt(c @ fit.vcov_beta @ c))
    assert row.f_value == pytest.approx(t_stat ** 2, rel=1e-10)
    assert row.den_df == pytest.approx(satterthwaite_df(fit, c), abs=1e-8)
    # two-sided squared-t p equals the F p
    p_t = 2.0 * t_sf(abs(t_stat), row.den_df)
    assert row.p_value == pytest.approx(p_t, abs=1e-8)


def test_anova_zero_effect_gives_f_zero_p_one():
    import dataclasses
    ds = crossed_dataset(generator_seed=12)
    dm = build_design(ds, ModelSpec())
    fit = fit_lmm(dm, ds.response())
    # a fit whose coefficients are exactly null: F must be 0 and p exactly 1
    null_fit = dataclasses.replace(fit, beta=np.zeros_like(fit.beta))
    L = contrast_rows(dm, [dm.fixed_levels[1]], kind="vs_reference")
    row = anova_fixed(null_fit, L)
    assert row.f_value == 0.0
    assert row.p_value == 1.0


def test_anova_mean_square_identity():
    ds = crossed_dataset(generator_seed=14,
                         combos=(("m1", "adam", 0.5), ("m2", "sgd", 0.8),
                                 ("m3", "adam", 0.6)))
    dm = build_design(ds, ModelSpec())
    fit = fit_lmm(dm, ds.response())
    L = omnibus_rows(dm)
    row = anova_fixed(fit, L, term="experiments")
    assert row.num_df == L.shape[0]
    assert row.mean_sq == pytest.approx(row.sum_sq / row.num_df, rel=1e-12)
    assert row.sum_sq == pytest.approx(
        row.num_df * row.f_value * fit.vc.sigma2_eps, rel=1e-12)
    assert row.f_value > 0 and row.den_df > 0
    assert 0.0 <= row.p_value <= 1.0


def test_anova_rank_deficient_rejected():
    ds = crossed_dataset(generator_seed=12)
    dm = build_design(ds, ModelSpec())
    fit = fit_lmm(dm, ds.response())
    row = contrast_rows(dm, [dm.fixed_levels[1]], kind="vs_reference")
    L = np.vstack([row, 2.0 * row])
    with pytest.raises(InferenceError, match="row rank"):
        anova_fixed(fit, L)


# ---------------------------------------------------------------------------
# contrasts / means comparisons
# ---------------------------------------------------------------------------


def test_contrast_ci_identity():
    ds = crossed_dataset(generator_seed=15)
    dm = build_design(ds, ModelSpec())
    fit = fit_lmm(dm, ds.response())
    L = contrast_rows(dm, dm.fixed_levels, kind="vs_grand")
    rows = contrasts(fit, L, level=0.95, labels=list(dm.fixed_levels))
    for row in rows:
        if row.std_error == 0.0:
            continue
        t_crit = t_quantile(0.975, row.df)
        assert row.upper - row.lower == pytest.approx(
            2.0 * t_crit * row.std_error, rel=1e-12)
        assert row.lower <= row.estimate <= row.upper
        assert row.estimate == pytest.approx((row.lower + row.upper) / 2.0,
                                             abs=1e-12)


def test_zero_contrast_row_is_null_comparison():
    ds = crossed_dataset(generator_seed=15)
    dm = build_design(ds, ModelSpec())
    fit = fit_lmm(dm, ds.response())
    rows = contrasts(fit, np.zeros((1, dm.p)), labels=["self"])
    assert rows[0].estimate == 0.0
    assert rows[0].p_value == 1.0
    assert rows[0].lower == rows[0].upper == 0.0


def test_contrast_labels_and_level_validation():
    ds = crossed_dataset(generator_seed=15)
    dm = build_design(ds, ModelSpec())
    fit = fit_lmm(dm, ds.response())
    L = contrast_rows(dm, dm.fixed_levels)
    with pytest.raises(InferenceError):
        contrasts(fit, L, labels=["just-one"])
    with pytest.raises(InferenceError):
        contrasts(fit, L, level=1.2)


def test_rerun_difference_is_exact_zero_in_deterministic_mode():
    # deterministic reruns repeat identical leaves, so the rerun contrast
    # estimate collapses to zero before any noise is injected
    ds = crossed_dataset(generator_seed=33, rerun_mode="deterministic",
                         n_reruns=2)
    from expvar.data import ensure_factor
    ds = ensure_factor(ds, "model:optimizer:rerun")
    spec = ModelSpec(fixed_factor="model:optimizer:rerun")
    dm = build_design(ds, spec)
    fit = fit_lmm(dm, ds.response())
    levels = dm.fixed_levels
    pairs = []
    for combo in sorted({lv.rsplit(":", 1)[0] for lv in levels}):
        combo_levels = [lv for lv in levels if lv.rsplit(":", 1)[0] == combo]
        pairs.append((combo_levels[0], combo_levels[1]))
    L = difference_rows(dm, pairs)
    assert np.max(np.abs(L @ fit.beta)) < 1e-10
