"""Hypothesis-test battery for fitted mixed models.

Three families of tests: likelihood-ratio tests of each random effect
(is a grouping factor's variance zero?), an F test of the fixed factor
with Satterthwaite-corrected denominator degrees of freedom, and
contrast tables with standard errors, t-based p-values and confidence
intervals.

The Satterthwaite correction works on any fit object exposing
``omega_hat``, ``converged``, ``nobs``, ``p``, ``vcov_beta`` and
``variance_derivatives()`` (see :func:`satterthwaite_df`), so it is not
tied to one covariance structure.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import ModelSpec
from .design import DesignMatrices, drop_random_factor_design
from .lmm import DEVIANCE_SLACK, FittedLMM, _inverse_gram, fit_lmm
from .tails import chisq_sf, f_sf, t_sf, t_quantile

log = logging.getLogger(__name__)


class InferenceError(ValueError):
    """Raised when a test statistic is undefined for the given fit."""


@dataclass(frozen=True)
class LRTRow:
    """One random-effect likelihood-ratio test.

    ``npar``, ``loglik`` and ``aic`` describe the reduced model (the fit
    with this factor's intercept removed), matching the conventional
    random-effects ANOVA table layout; the shared full-model quantities
    live on :class:`RanovaResult`. ``p_value`` is None when either fit
    failed to converge.
    """

    factor: str
    npar: int
    loglik: float
    aic: float
    lrt: float
    df: int
    p_value: float | None
    converged: bool


@dataclass(frozen=True)
class RanovaResult:
    rows: tuple[LRTRow, ...]
    full_npar: int
    full_loglik: float
    full_aic: float
    criterion: str
    converged: bool


@dataclass(frozen=True)
class AnovaRow:
    """Fixed-effects F test with Satterthwaite denominator df."""

    term: str
    sum_sq: float
    mean_sq: float
    num_df: int
    den_df: float | None
    f_value: float
    p_value: float | None


@dataclass(frozen=True)
class ContrastRow:
    """One estimated contrast with its t-based interval."""

    label: str
    estimate: float
    std_error: float
    df: float | None
    lower: float
    upper: float
    p_value: float


def ranova(dm: DesignMatrices, y: np.ndarray, spec: ModelSpec,
           criterion: str = "REML", boundary_correction: bool = False) -> RanovaResult:
    """Likelihood-ratio test of each random factor against the full model.

    Each factor is dropped in turn and the refit compared to the full fit
    under the same criterion (REML by default; the fixed part is identical
    across the compared models, so restricted likelihoods are comparable).
    Every fit follows ``fit_lmm``'s one recipe. A negative LRT is clamped to
    0, with a warning when it lies below ``-lmm.DEVIANCE_SLACK``, beyond
    float noise. The reference distribution is the plain chi-square with 1 df;
    ``boundary_correction`` switches to the 50:50 point-mass/chi-square
    mixture that accounts for the variance sitting on the boundary.
    """
    if not dm.z_blocks:
        raise InferenceError("model has no random factors to test")
    full = fit_lmm(dm, y, criterion=criterion)
    rows = []
    for factor in dm.random_factors:
        reduced_dm = drop_random_factor_design(dm, factor)
        reduced = fit_lmm(reduced_dm, y, criterion=criterion)
        lrt = 2.0 * (full.loglik - reduced.loglik)
        if lrt < 0:
            if -lrt > DEVIANCE_SLACK:
                log.warning("LRT for %r clamped to 0 (was %.3e)", factor, lrt)
            lrt = 0.0
        df = full.npar - reduced.npar
        ok = full.converged and reduced.converged
        if not ok:
            p = None
        elif boundary_correction:
            p = 1.0 if lrt == 0.0 else 0.5 * chisq_sf(lrt, df)
        else:
            p = chisq_sf(lrt, df)
        rows.append(LRTRow(factor=factor, npar=reduced.npar, loglik=reduced.loglik,
                           aic=reduced.aic, lrt=lrt, df=df, p_value=p, converged=ok))
    return RanovaResult(rows=tuple(rows), full_npar=full.npar,
                        full_loglik=full.loglik, full_aic=full.aic,
                        criterion=full.criterion, converged=full.converged)


def _omega_covariance(H: np.ndarray) -> np.ndarray:
    """Asymptotic covariance of the variance parameters, 2 * H^-1.

    H is the Hessian of the fit's deviance in the free variance parameters
    at the estimate.
    """
    try:
        cho = np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        raise InferenceError(
            "variance-parameter information matrix is not positive definite; "
            "the free variance parameters are not at a well-determined "
            "minimum of the deviance, where the Satterthwaite correction is "
            "undefined") from None
    return 2.0 * _inverse_gram(cho)


def satterthwaite_df(fit, c: np.ndarray) -> float | np.ndarray:
    """Satterthwaite denominator degrees of freedom of contrasts.

    Computes df = 2 (c' V c)^2 / Var(c' V c), where V(omega) is the
    covariance of the fixed effects as a function of the variance
    parameters omega, its gradient is exact at the estimate, and
    Var(omega_hat) is 2 H^-1 with H the exact Hessian of the deviance.
    A variance component estimated at 0 is held fixed: its row and column
    leave H and its entry leaves the gradient, which gives the df of the
    model without that factor. The result is capped at the residual
    degrees of freedom n - p.

    ``c`` is one contrast vector, giving a float, or a matrix with one
    contrast per row, giving an array of dfs. All rows share one call of
    ``variance_derivatives``.

    ``fit`` may be any object with ``omega_hat``, ``converged``, ``nobs``,
    ``p``, ``vcov_beta`` and ``variance_derivatives()``, which returns the
    Hessian of the deviance in omega and dV/domega_i stacked along the
    first axis.
    """
    if not fit.converged:
        raise InferenceError("fit did not converge; degrees of freedom unavailable")
    single = np.ndim(c) < 2
    C = np.atleast_2d(np.asarray(c, dtype=float))
    if not np.all(np.any(C != 0.0, axis=1)):
        raise InferenceError("zero contrast vector has undefined degrees of freedom")
    H, dV = fit.variance_derivatives()
    free = np.asarray(fit.omega_hat) > 0.0
    omega_cov = _omega_covariance(H[np.ix_(free, free)])
    values = np.einsum("ri,ij,rj->r", C, fit.vcov_beta, C)
    grads = np.einsum("ri,kij,rj->rk", C, dV[free], C)
    denoms = np.einsum("rk,kl,rl->r", grads, omega_cov, grads)
    if np.any(denoms <= 0):
        raise InferenceError("non-positive variance of the contrast variance; "
                             "Satterthwaite df undefined")
    dfs = np.minimum(2.0 * values * values / denoms, float(fit.nobs - fit.p))
    return float(dfs[0]) if single else dfs


def anova_fixed(fit: FittedLMM, L: np.ndarray, term: str = "fixed") -> AnovaRow:
    """F test of L beta = 0 with multi-dimensional Satterthwaite DenDF.

    The denominator df combines per-eigendirection one-dimensional
    Satterthwaite dfs: E = sum nu_i / (nu_i - 2) over directions with
    nu_i > 2, DenDF = 2 E / (E - k). When no direction exceeds 2 df (or E
    <= k) the denominator df and p-value are reported as unavailable.
    """
    L = np.atleast_2d(np.asarray(L, dtype=float))
    k = L.shape[0]
    if L.shape[1] != fit.beta.size:
        raise InferenceError(f"contrast matrix has {L.shape[1]} columns for "
                             f"{fit.beta.size} coefficients")
    if np.linalg.matrix_rank(L) < k:
        raise InferenceError("contrast matrix does not have full row rank")
    M = L @ fit.vcov_beta @ L.T
    M = 0.5 * (M + M.T)
    eigval, eigvec = np.linalg.eigh(M)
    order = np.argsort(eigval)[::-1]
    eigval, eigvec = eigval[order], eigvec[:, order]
    if eigval[-1] <= 0:
        raise InferenceError("contrast covariance is singular")
    P = eigvec.T @ L
    t2 = (P @ fit.beta) ** 2 / eigval
    f_value = float(np.sum(t2) / k)

    sigma2_eps = fit.vc.sigma2_eps
    sum_sq = k * f_value * sigma2_eps
    nu = satterthwaite_df(fit, P)
    used = nu[nu > 2.0]
    den_df = None
    p_value = None
    if used.size:
        E = float(np.sum(used / (used - 2.0)))
        if E > k:
            den_df = 2.0 * E / (E - k)
            p_value = f_sf(f_value, k, den_df)
    return AnovaRow(term=term, sum_sq=sum_sq, mean_sq=sum_sq / k, num_df=k,
                    den_df=den_df, f_value=f_value, p_value=p_value)


def contrasts(fit: FittedLMM, L: np.ndarray, level: float = 0.95,
              labels=None) -> list[ContrastRow]:
    """Estimate each contrast row with its Satterthwaite-t interval.

    A zero row is reported as an exact null comparison (estimate 0,
    p = 1) rather than an error, since comparing a level with itself is a
    legitimate degenerate request.
    """
    if not 0.0 < level < 1.0:
        raise InferenceError(f"confidence level must be in (0, 1), got {level}")
    L = np.atleast_2d(np.asarray(L, dtype=float))
    if labels is None:
        labels = [f"c{i}" for i in range(L.shape[0])]
    if len(labels) != L.shape[0]:
        raise InferenceError(f"{len(labels)} labels for {L.shape[0]} contrast rows")
    nonzero = np.any(L != 0.0, axis=1)
    dfs = iter(satterthwaite_df(fit, L[nonzero]).tolist())
    rows = []
    for label, c, used in zip(labels, L, nonzero):
        if not used:
            rows.append(ContrastRow(label=label, estimate=0.0, std_error=0.0,
                                    df=None, lower=0.0, upper=0.0, p_value=1.0))
            continue
        estimate = float(c @ fit.beta)
        std_error = float(np.sqrt(c @ fit.vcov_beta @ c))
        df = next(dfs)
        t_stat = estimate / std_error
        p = 2.0 * t_sf(abs(t_stat), df)
        half = t_quantile(0.5 + level / 2.0, df) * std_error
        rows.append(ContrastRow(label=label, estimate=estimate, std_error=std_error,
                                df=df, lower=estimate - half, upper=estimate + half,
                                p_value=p))
    return rows
