"""Hypothesis-test battery for fitted mixed models.

Three families of tests: likelihood-ratio tests of each random effect
(is a grouping factor's variance zero?), an F test of the fixed factor
with Satterthwaite-corrected denominator degrees of freedom, and
contrast tables with standard errors, t-based p-values and confidence
intervals.

The Satterthwaite correction works on any fit object exposing
``omega_hat``, ``converged``, ``nobs``, ``p``, ``vcov_beta_at_omega`` and
``deviance_at_omega`` (see :func:`satterthwaite_df`), so it is not tied to
one covariance structure.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import ModelSpec
from .design import DesignMatrices, drop_random_factor_design
from .lmm import FitOptions, FittedLMM, _cho_solve, _cholesky, fit_lmm
from .tails import chisq_sf, f_sf, t_sf, t_quantile

log = logging.getLogger(__name__)

#: Relative step and absolute floor of the gradient stencils.
FD_RELATIVE_STEP = 1e-4
FD_STEP_FLOOR = 1e-8
#: The Hessian uses a wider relative step: second differences divide the
#: deviance's float noise by step^2, and at 1e-4 the noise would dominate
#: the curvature of well-determined variance parameters. 3e-3 keeps the
#: truncation bias below ~2e-5 relative while the noise stays below ~1e-6.
FD_HESSIAN_RELATIVE_STEP = 3e-3


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
           criterion: str = "REML", opts: FitOptions | None = None,
           boundary_correction: bool = False) -> RanovaResult:
    """Likelihood-ratio test of each random factor against the full model.

    Each factor is dropped in turn and the refit compared to the full fit
    under the same criterion (REML by default; the fixed part is identical
    across the compared models, so restricted likelihoods are comparable).
    The reference distribution is the plain chi-square with 1 df;
    ``boundary_correction`` switches to the 50:50 point-mass/chi-square
    mixture that accounts for the variance sitting on the boundary.
    """
    if not dm.z_blocks:
        raise InferenceError("model has no random factors to test")
    full = fit_lmm(dm, y, criterion=criterion, opts=opts)
    rows = []
    for factor in dm.random_factors:
        reduced_dm = drop_random_factor_design(dm, factor)
        reduced = fit_lmm(reduced_dm, y, criterion=criterion, opts=opts)
        lrt = 2.0 * (full.loglik - reduced.loglik)
        if lrt < 0:
            # a dip within the fits' own deviance tolerance is float noise
            if -lrt > (opts or FitOptions()).tol:
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


def _fd_steps(omega: np.ndarray) -> np.ndarray:
    return np.maximum(FD_RELATIVE_STEP * np.abs(omega), FD_STEP_FLOOR)


def _fd_hessian_steps(omega: np.ndarray) -> np.ndarray:
    return np.maximum(FD_HESSIAN_RELATIVE_STEP * np.abs(omega), FD_STEP_FLOOR)


def _fd_gradient(fn, x: np.ndarray, steps: np.ndarray, lower: float = 0.0) -> np.ndarray:
    """Central-difference gradient, one-sided at the domain boundary."""
    g = np.zeros_like(x)
    for i, h in enumerate(steps):
        up = x.copy()
        up[i] += h
        if x[i] - h >= lower:
            dn = x.copy()
            dn[i] -= h
            g[i] = (fn(up) - fn(dn)) / (2.0 * h)
        else:
            g[i] = (fn(up) - fn(x)) / h
    return g


def _axis_nodes(x: np.ndarray, i: int, h: float, lower: float) -> tuple[float, float]:
    if x[i] - h >= lower:
        return x[i] - h, x[i] + h
    return x[i], x[i] + 2.0 * h


def _fd_hessian(fn, x: np.ndarray, steps: np.ndarray, lower: float = 0.0) -> np.ndarray:
    """Finite-difference Hessian with stencils kept inside x >= lower."""
    m = x.size
    H = np.zeros((m, m))
    f0 = fn(x)
    for i in range(m):
        h = steps[i]
        if x[i] - h >= lower:
            up, dn = x.copy(), x.copy()
            up[i] += h
            dn[i] -= h
            H[i, i] = (fn(up) - 2.0 * f0 + fn(dn)) / (h * h)
        else:
            p1, p2 = x.copy(), x.copy()
            p1[i] += h
            p2[i] += 2.0 * h
            H[i, i] = (f0 - 2.0 * fn(p1) + fn(p2)) / (h * h)
    for i in range(m):
        for j in range(i + 1, m):
            ai = _axis_nodes(x, i, steps[i], lower)
            aj = _axis_nodes(x, j, steps[j], lower)
            total = 0.0
            for si, ui in ((1.0, ai[1]), (-1.0, ai[0])):
                for sj, uj in ((1.0, aj[1]), (-1.0, aj[0])):
                    z = x.copy()
                    z[i] = ui
                    z[j] = uj
                    total += si * sj * fn(z)
            H[i, j] = H[j, i] = total / ((ai[1] - ai[0]) * (aj[1] - aj[0]))
    return H


def _omega_covariance(fit) -> np.ndarray:
    """Asymptotic covariance of the variance parameters, 2 * H^-1.

    H is the finite-difference Hessian of the fit's deviance in the
    variance parameters at the estimate.
    """
    omega = fit.omega_hat
    steps = _fd_hessian_steps(omega)
    H = _fd_hessian(fit.deviance_at_omega, omega, steps)
    try:
        cho = _cholesky(H, clean=False)
    except np.linalg.LinAlgError:
        raise InferenceError(
            "variance-parameter information matrix is not positive definite; "
            "this usually means a variance estimate sits at the boundary "
            "(some sigma^2 = 0), where the Satterthwaite correction is "
            "undefined") from None
    return 2.0 * _cho_solve(cho, np.eye(omega.size))


def satterthwaite_df(fit, c: np.ndarray, omega_cov: np.ndarray | None = None) -> float:
    """Satterthwaite denominator degrees of freedom of one contrast.

    Computes df = 2 (c' V c)^2 / Var(c' V c), where V(omega) is the
    covariance of the fixed effects as a function of the variance
    parameters omega, the gradient is taken by finite differences at the
    estimate, and Var(omega_hat) is 2 H^-1 with H the finite-difference
    Hessian of the deviance. The result is capped at the residual degrees
    of freedom n - p.

    ``fit`` may be any object with ``omega_hat``, ``converged``, ``nobs``,
    ``p``, ``vcov_beta_at_omega(omega)`` and ``deviance_at_omega(omega)``.
    ``omega_cov`` lets callers reuse Var(omega_hat) across contrasts.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    if not np.any(c != 0.0):
        raise InferenceError("zero contrast vector has undefined degrees of freedom")
    if not fit.converged:
        raise InferenceError("fit did not converge; degrees of freedom unavailable")
    omega = fit.omega_hat

    def ctvc(w):
        return float(c @ fit.vcov_beta_at_omega(w) @ c)

    value = ctvc(omega)
    grad = _fd_gradient(ctvc, omega, _fd_steps(omega))
    if omega_cov is None:
        omega_cov = _omega_covariance(fit)
    denom = float(grad @ omega_cov @ grad)
    if denom <= 0:
        raise InferenceError("non-positive variance of the contrast variance; "
                             "Satterthwaite df undefined")
    df = 2.0 * value * value / denom
    return min(df, float(fit.nobs - fit.p))


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
    omega_cov = _omega_covariance(fit)
    nu = np.array([satterthwaite_df(fit, P[i], omega_cov=omega_cov)
                   for i in range(k)])
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
    omega_cov = _omega_covariance(fit)
    rows = []
    for label, c in zip(labels, L):
        if not np.any(c != 0.0):
            rows.append(ContrastRow(label=label, estimate=0.0, std_error=0.0,
                                    df=None, lower=0.0, upper=0.0, p_value=1.0))
            continue
        estimate = float(c @ fit.beta)
        std_error = float(np.sqrt(c @ fit.vcov_beta @ c))
        df = satterthwaite_df(fit, c, omega_cov=omega_cov)
        t_stat = estimate / std_error
        p = 2.0 * t_sf(abs(t_stat), df)
        half = t_quantile(0.5 + level / 2.0, df) * std_error
        rows.append(ContrastRow(label=label, estimate=estimate, std_error=std_error,
                                df=df, lower=estimate - half, upper=estimate + half,
                                p_value=p))
    return rows
