"""Closed-form REML on balanced crossed tables, as an oracle for the fit.

When every random factor is crossed with every other factor and with the
fixed factor, with equal counts per cell, the eigenspaces of the marginal
covariance are the ANOVA strata: the contrasts among one random factor's
level means (df_j = L_j - 1, eigenvalue lambda_j = sigma^2 + (n / L_j)
sigma_j^2) and the residual stratum (eigenvalue sigma^2). The REML deviance
then splits into one term per stratum,

    d = log|X'X| + (n - p) log(2 pi) + sum_k df_k log lambda_k + SS_k / lambda_k,

each minimized at lambda_k = SS_k / df_k: the expected-mean-square
estimate. When that makes some sigma_j^2 negative, the minimum lies on a
face where sigma_j^2 = 0 and factor j's stratum pools into the residual;
every face is tried and the best feasible one kept (Searle, Casella &
McCulloch 1992, *Variance Components*, ch. 4 and 6). The same holds for
the reduced models of ``ranova``, whose dropped factor always pools.

On such a table a fixed-effect contrast lies in the residual stratum, so
its exact Satterthwaite df is the residual df, pooled with the strata of
the factors held at 0.

The oracle uses level means and sums of squares only; nothing here calls
the mixed-model code except to get the values it checks.
"""

import itertools
import math

import numpy as np
import pytest

from expvar.data import ModelSpec, ensure_factor
from expvar.design import build_design, contrast_rows, difference_rows
from expvar.inference import ranova, satterthwaite_df
from expvar.lmm import fit_lmm
from expvar.simulate import TreeDesign, generate

from test_acceptance import TRUE_SDS

COMBOS = (("m-net", "adam", 0.45), ("protonet", "sgd", 0.62), ("tadam", "adam", 0.70))


def _strata(ds, fixed: str, random: tuple[str, ...]):
    """(df, SS, obs per level) of each random factor's stratum, and
    (df, SS) of the residual stratum, of a balanced crossed table."""
    y = ds.response()
    n = y.size
    cells = np.unique(np.column_stack([ds.level_codes(f) for f in (fixed, *random)]),
                      axis=0, return_counts=True)[1]
    assert cells.size * cells[0] == n and np.all(cells == cells[0]), "not balanced"

    def means(factor):
        codes = ds.level_codes(factor)
        return (np.bincount(codes, weights=y) / np.bincount(codes))[codes]

    grand = math.fsum(y) / n
    resid = y - means(fixed) + len(random) * grand
    factors = []
    for factor in random:
        m = means(factor)
        resid -= m
        levels = len(ds.levels(factor))
        factors.append((levels - 1, math.fsum((m - grand) ** 2), n / levels))
    df_e = n - len(ds.levels(fixed)) - sum(df for df, _, _ in factors)
    return factors, (df_e, math.fsum(resid ** 2))


def _reml_minimum(factors, resid, constant, dropped=None):
    """Minimum REML deviance over sigma^2 >= 0, the factors it puts at 0
    and the residual df pooled with theirs.

    ``factors`` holds (df, SS, obs per level) per random factor; the
    ``dropped`` one is outside the model, so its stratum always pools.
    """
    best = None
    free = [j for j in range(len(factors)) if j != dropped]
    for zeros in itertools.product((False, True), repeat=len(free)):
        at_zero = {j for j, z in zip(free, zeros) if z}
        pooled = [f for j, f in enumerate(factors) if j == dropped or j in at_zero]
        df_e = resid[0] + sum(f[0] for f in pooled)
        ss_e = resid[1] + math.fsum(f[1] for f in pooled)
        terms = [(df_e, ss_e)] + [factors[j][:2] for j in free if j not in at_zero]
        # a free factor's stratum must not fall below the residual's
        if any(ss / df < ss_e / df_e for df, ss in terms[1:]):
            continue
        dev = constant + math.fsum(df * (math.log(ss / df) + 1.0) for df, ss in terms)
        if best is None or dev < best[0]:
            best = (dev, at_zero, df_e)
    return best


def _tables():
    """7 tables each of the criterion 7 design and criterion 8's H1 and H3
    designs: (design name, dataset, fixed factor)."""
    for rep in range(7):
        for kind, gen in (
                ("paper", TreeDesign(combos=COMBOS, n_seeds=4, n_configs=5, n_reruns=3,
                                     sigma_seed=TRUE_SDS["seed"],
                                     sigma_hparam=TRUE_SDS["hparams"],
                                     sigma_eps=TRUE_SDS["Residual"], rerun_mode="noisy",
                                     generator_seed=1000 + rep)),
                ("H1", TreeDesign(combos=COMBOS[:2], n_seeds=4, n_configs=5, n_reruns=3,
                                  sigma_seed=0.0, sigma_hparam=TRUE_SDS["hparams"],
                                  sigma_eps=TRUE_SDS["Residual"], rerun_mode="noisy",
                                  generator_seed=2000 + rep)),
                ("H3", TreeDesign(combos=COMBOS[:2], n_seeds=3, n_configs=3, n_reruns=2,
                                  sigma_seed=0.02, sigma_hparam=0.04, sigma_eps=1e-3,
                                  rerun_mode="noisy", generator_seed=3000 + rep))):
            fixed = "model:optimizer:rerun" if kind == "H3" else "model:optimizer"
            yield kind, ensure_factor(generate(gen), fixed), fixed


def test_fit_and_ranova_reach_the_closed_form_minimum():
    boundary = set()
    checked = 0
    for kind, ds, fixed in _tables():
        spec = ModelSpec(fixed_factor=fixed)
        dm = build_design(ds, spec)
        y = ds.response()
        factors, resid = _strata(ds, fixed, spec.random_factors)
        constant = np.linalg.slogdet(dm.X.T @ dm.X)[1] + \
            (dm.n - dm.p) * math.log(2.0 * math.pi)
        full_dev, at_zero, df_pooled = _reml_minimum(factors, resid, constant)
        fit = fit_lmm(dm, y)
        assert fit.deviance == pytest.approx(full_dev, rel=1e-9, abs=0.0), kind
        result = ranova(dm, y, spec)
        for j, row in enumerate(result.rows):
            reduced_dev = _reml_minimum(factors, resid, constant, dropped=j)[0]
            assert -2.0 * row.loglik == pytest.approx(reduced_dev, rel=1e-9, abs=0.0), \
                (kind, row.factor)
        # the exact df of every fixed-effect contrast is the residual df,
        # pooled with the strata of the components the fit holds at 0
        assert at_zero == {j for j, s in enumerate(fit.vc.sigma2) if s == 0.0}, kind
        boundary |= {kind} if at_zero else set()
        if kind == "H3":
            levels = dm.fixed_levels
            L = difference_rows(dm, list(zip(levels[0::2], levels[1::2])))
        else:
            L = contrast_rows(dm, dm.fixed_levels, kind="vs_grand")
        assert satterthwaite_df(fit, L) == pytest.approx(df_pooled, abs=1e-6, rel=0.0), kind
        checked += 1
    assert checked == 21
    # both interior and boundary fits were exercised
    assert "H1" in boundary
