"""Linear mixed model estimation by profiled REML/ML deviance.

The model is y = X beta + Z b + eps with independent random intercepts per
grouping factor, b_q ~ N(0, sigma_q^2) and eps ~ N(0, sigma_eps^2 / w_i).
Estimation profiles beta and the residual variance out analytically and
minimizes the deviance over theta, the per-factor standard deviations
relative to the residual one. The inner solve is a Cholesky factorization
of the penalized least-squares system, so the marginal covariance is never
formed explicitly; the dense-covariance formula is kept as a test oracle
only. The solve calls LAPACK directly: at paper size the factorizations
take microseconds, and scipy.linalg's argument handling would cost more.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.optimize
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .data import ModelSpec, DataError
from .design import DesignMatrices

LOG_2PI = math.log(2.0 * math.pi)
#: theta above this bound is treated as a numerical failure, not a fit.
THETA_MAX = 1e8


class FitError(ValueError):
    """Raised when a model cannot be fit on the given data."""


class DegenerateDataError(FitError):
    """The response carries no usable variation."""


@dataclass(frozen=True)
class FitOptions:
    """Tuning knobs of the outer deviance minimization."""

    tol: float = 1e-8
    max_evals_per_dim: int = 500
    multistart: tuple[float, ...] = (0.1, 1.0, 10.0)
    weights: np.ndarray | None = None  # known per-observation weights, default 1


@dataclass(frozen=True)
class VarianceComponents:
    """Estimated variances per grouping factor plus the residual variance."""

    names: tuple[str, ...]
    sigma2: tuple[float, ...]
    sigma2_eps: float
    theta: tuple[float, ...]

    def __post_init__(self):
        if self.sigma2_eps <= 0:
            raise FitError(f"residual variance must be positive, got {self.sigma2_eps}")
        if any(v < 0 for v in self.sigma2):
            raise FitError(f"negative variance component in {self.sigma2}")

    def sd(self, name: str) -> float:
        return math.sqrt(self.sigma2[self.names.index(name)])

    @property
    def sd_eps(self) -> float:
        return math.sqrt(self.sigma2_eps)

    def as_dict(self) -> dict[str, float]:
        out = {name: v for name, v in zip(self.names, self.sigma2)}
        out["Residual"] = self.sigma2_eps
        return out


@dataclass(frozen=True, eq=False)
class OLSFit:
    """Ordinary least squares baseline (the i.i.d. model)."""

    beta: np.ndarray
    sigma2: float
    loglik: float
    vcov_beta: np.ndarray
    rss: float
    degenerate: bool


def fit_ols(dm: DesignMatrices, y: np.ndarray) -> OLSFit:
    """Least-squares fit of the fixed part only.

    ``sigma2`` is the unbiased RSS/(n-p); ``loglik`` is the Gaussian
    log-likelihood at the ML variance RSS/n. A response lying exactly in
    the column span is flagged degenerate.
    """
    y = np.asarray(y, dtype=float)
    n, p = dm.X.shape
    if n <= p:
        raise FitError(f"need more observations than fixed effects (n={n}, p={p})")
    beta, _, _, _ = np.linalg.lstsq(dm.X, y, rcond=None)
    resid = y - dm.X @ beta
    rss = float(resid @ resid)
    scale = float(y @ y)
    degenerate = rss <= 1e-12 * max(scale, 1.0)
    sigma2 = rss / (n - p)
    loglik = -0.5 * n * (LOG_2PI + math.log(rss / n) + 1.0) if rss > 0 else math.inf
    xtx_inv = np.linalg.inv(dm.X.T @ dm.X)
    return OLSFit(beta=beta, sigma2=sigma2, loglik=loglik,
                  vcov_beta=sigma2 * xtx_inv, rss=rss, degenerate=degenerate)


def _cholesky(a: np.ndarray, clean: bool = True) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    Reads the lower triangle of ``a`` only. With ``clean=False`` the upper
    triangle of the result keeps the input's entries, as in
    ``scipy.linalg.cho_factor``. Raises ``np.linalg.LinAlgError`` when
    ``a`` is not positive definite.
    """
    c, info = dpotrf(a, lower=True, clean=clean)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return c


def _cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` given the lower Cholesky factor ``c`` of A."""
    x, info = dpotrs(c, b, lower=True)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


def _solve_triangular(a: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """Solve ``a x = b`` for triangular ``a``.

    dtrtrs expects Fortran order, so a C-ordered ``a`` is passed as its
    transpose with the system transposed, as ``scipy.linalg`` does.
    """
    if a.flags.f_contiguous:
        x, info = dtrtrs(a, b, lower=lower)
    else:
        x, info = dtrtrs(a.T, b, lower=not lower, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: zero diagonal at {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtrtrs")
    return x


class _Workspace:
    """Cross-products of (X, Z, y) reused across deviance evaluations."""

    def __init__(self, dm: DesignMatrices, y: np.ndarray,
                 weights: np.ndarray | None = None):
        y = np.asarray(y, dtype=float)
        if y.shape != (dm.n,):
            raise FitError(f"response has shape {y.shape}, expected ({dm.n},)")
        X, Z = dm.X, dm.Z
        if weights is not None:
            w = np.asarray(weights, dtype=float)
            if w.shape != (dm.n,) or np.any(w <= 0):
                raise FitError("weights must be positive and match the sample size")
            sw = np.sqrt(w)
            X, Z, y = X * sw[:, None], Z * sw[:, None], y * sw
        # canonical row order: float sums then do not depend on the input
        # row order, so permuting observations reproduces estimates exactly
        order = self._canonical_order(dm, X, y)
        X, Z, y = X[order], Z[order], y[order]
        self.n, self.p = X.shape
        self.q = Z.shape[1]
        self.X, self.Z, self.y = X, Z, y
        self.XtX = X.T @ X
        self.Xty = X.T @ y
        self.ZtZ = Z.T @ Z
        self.ZtX = Z.T @ X
        self.Zty = Z.T @ y
        self.yty = float(y @ y)
        # column j of Z belongs to random factor col_factor[j]
        self.factors = tuple(dm.z_blocks)
        self.col_factor = np.zeros(self.q, dtype=np.intp)
        for i, f in enumerate(self.factors):
            self.col_factor[dm.z_blocks[f]] = i
        self.n_factors = len(self.factors)
        self._diag = np.diag_indices(self.q)

    @staticmethod
    def _canonical_order(dm: DesignMatrices, X: np.ndarray,
                         y: np.ndarray) -> np.ndarray:
        keys = [y]
        keys.extend(X.T[::-1])
        for factor in reversed(tuple(dm.z_blocks)):
            keys.append(dm.Z[:, dm.z_blocks[factor]].argmax(axis=1))
        return np.lexsort(tuple(keys))

    def solve(self, theta: np.ndarray) -> dict:
        """Penalized least-squares solve at fixed theta.

        Returns the profiled pieces: spherical modes u, BLUPs b = lambda*u,
        beta-hat, the penalized residual sum of squares, and the two log
        determinants of the profiled deviance.
        """
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_factors,):
            raise FitError(f"theta has shape {theta.shape}, expected ({self.n_factors},)")
        if (theta < 0).any():
            raise FitError(f"theta must be non-negative, got {theta}")
        lam = theta[self.col_factor] if self.q else np.zeros(0)
        if self.q:
            A = (lam[:, None] * self.ZtZ) * lam[None, :]
            A[self._diag] += 1.0
            L = _cholesky(A)
            rzx = _solve_triangular(L, lam[:, None] * self.ZtX, lower=True)
            cu = _solve_triangular(L, lam * self.Zty, lower=True)
            S = self.XtX - rzx.T @ rzx
            logdet_lz = 2.0 * float(np.log(L.diagonal()).sum())
        else:
            rzx = np.zeros((0, self.p))
            cu = np.zeros(0)
            S = self.XtX
            logdet_lz = 0.0
        RX = _cholesky(S, clean=False)
        logdet_rx = 2.0 * float(np.log(RX.diagonal()).sum())
        beta = _cho_solve(RX, self.Xty - rzx.T @ cu)
        if self.q:
            u = _solve_triangular(L.T, cu - rzx @ beta, lower=False)
            b = lam * u
        else:
            u = np.zeros(0)
            b = u
        # minimum of the penalized quadratic, via the cross products; fall
        # back to explicit residuals when cancellation eats the value
        pwrss = float(self.yty - (lam * self.Zty) @ u - self.Xty @ beta)
        if pwrss < 1e-8 * max(self.yty, 1.0):
            resid = self.y - self.X @ beta - self.Z @ b
            pwrss = float(resid @ resid + u @ u)
        return dict(beta=beta, u=u, b=b, pwrss=pwrss, logdet_lz=logdet_lz,
                    logdet_rx=logdet_rx, S=S, rx_factor=RX)

    def deviance(self, theta: np.ndarray, reml: bool = True) -> float:
        """Profiled deviance (-2 log-likelihood) at theta."""
        s = self.solve(theta)
        return self._deviance_from(s, reml)

    def _deviance_from(self, s: dict, reml: bool) -> float:
        n, p = self.n, self.p
        if s["pwrss"] <= 0:
            raise FitError("zero penalized residual sum of squares; "
                           "response is degenerate")
        if reml:
            return s["logdet_lz"] + s["logdet_rx"] + \
                (n - p) * (1.0 + LOG_2PI + math.log(s["pwrss"] / (n - p)))
        return s["logdet_lz"] + n * (1.0 + LOG_2PI + math.log(s["pwrss"] / n))

    def deviance_at(self, theta: np.ndarray, sigma2: float, reml: bool = True) -> float:
        """Deviance at explicit (theta, residual variance), not profiled."""
        if sigma2 <= 0:
            raise FitError(f"residual variance must be positive, got {sigma2}")
        s = self.solve(theta)
        n, p = self.n, self.p
        dof = (n - p) if reml else n
        dev = dof * (LOG_2PI + math.log(sigma2)) + s["logdet_lz"] + s["pwrss"] / sigma2
        if reml:
            dev += s["logdet_rx"]
        return dev

    def vcov_beta(self, theta: np.ndarray, sigma2: float) -> np.ndarray:
        s = self.solve(theta)
        return sigma2 * _cho_solve(s["rx_factor"], np.eye(self.p))


@dataclass(frozen=True, eq=False)
class FittedLMM:
    """A converged (or best-so-far) mixed-model fit.

    ``loglik`` is the restricted or full log-likelihood according to
    ``criterion``; ``npar`` counts fixed effects plus variance parameters.
    The private workspace handle supports evaluating the deviance and the
    beta covariance at off-estimate variance parameters, which downstream
    degrees-of-freedom corrections need.
    """

    beta: np.ndarray
    vc: VarianceComponents
    blups: np.ndarray
    loglik: float
    criterion: str
    vcov_beta: np.ndarray
    npar: int
    converged: bool
    deviance_profile_evals: int
    column_map: tuple[str, ...]
    _ws: _Workspace = field(repr=False)

    @property
    def deviance(self) -> float:
        return -2.0 * self.loglik

    @property
    def aic(self) -> float:
        return aic(self.npar, self.loglik)

    @property
    def nobs(self) -> int:
        return self._ws.n

    @property
    def p(self) -> int:
        return self._ws.p

    @property
    def theta(self) -> np.ndarray:
        return np.array(self.vc.theta)

    @property
    def omega_hat(self) -> np.ndarray:
        """Variance parameters (per-factor variances, residual variance)."""
        return np.array(list(self.vc.sigma2) + [self.vc.sigma2_eps])

    def _split_omega(self, omega: np.ndarray) -> tuple[np.ndarray, float]:
        omega = np.asarray(omega, dtype=float)
        k = len(self.vc.names)
        if omega.shape != (k + 1,):
            raise FitError(f"omega has shape {omega.shape}, expected ({k + 1},)")
        if np.any(omega[:k] < 0) or omega[k] <= 0:
            raise FitError(f"variance parameters out of range: {omega}")
        sigma2 = float(omega[k])
        theta = np.sqrt(omega[:k] / sigma2)
        return theta, sigma2

    def deviance_at_omega(self, omega: np.ndarray) -> float:
        """Criterion deviance as a function of the variance parameters."""
        theta, sigma2 = self._split_omega(omega)
        return self._ws.deviance_at(theta, sigma2, reml=self.criterion == "REML")

    def vcov_beta_at_omega(self, omega: np.ndarray) -> np.ndarray:
        theta, sigma2 = self._split_omega(omega)
        return self._ws.vcov_beta(theta, sigma2)


def aic(npar: int, loglik: float) -> float:
    """Akaike information criterion, 2*npar - 2*loglik."""
    return 2.0 * npar - 2.0 * loglik


def reml_deviance(dm: DesignMatrices, y: np.ndarray, theta,
                  weights: np.ndarray | None = None) -> float:
    """Restricted deviance profiled over beta and the residual variance.

    theta holds one relative standard deviation per random factor, in
    ``dm.z_blocks`` order. Raises on a non-finite result.
    """
    ws = _Workspace(dm, y, weights)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    dev = ws.deviance(theta, reml=True)
    if not math.isfinite(dev):
        raise FitError(f"non-finite deviance at theta={theta}")
    return dev


class _CountedObjective:
    """Objective wrapper tracking evaluation counts against a budget."""

    def __init__(self, fn):
        self.fn = fn
        self.count = 0

    def __call__(self, theta):
        self.count += 1
        return self.fn(theta)


def _golden_section(fn, lo: float, hi: float, tol: float, max_evals: int):
    """Golden-section minimum of a unimodal fn on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    evals = 2
    while evals < max_evals and (b - a) > tol * (1.0 + abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
        evals += 1
    x = c if fc < fd else d
    return x, min(fc, fd), evals


def _minimize_1d(fn: _CountedObjective, starts, budget):
    """Multi-start bracketed golden-section over theta >= 0."""
    best_x, best_f = 0.0, fn(np.array([0.0]))
    converged = False
    for start in starts:
        hi = max(8.0 * start, 1.0)
        f_hi = fn(np.array([hi]))
        while fn.count < budget and hi < THETA_MAX:
            f_next = fn(np.array([hi * 4.0]))
            if f_next >= f_hi:
                break
            hi *= 4.0
            f_hi = f_next
        x, f, _ = _golden_section(lambda t: fn(np.array([t])), 0.0, hi,
                                  tol=1e-10, max_evals=max(budget - fn.count, 8))
        converged = True
        if f < best_f:
            best_x, best_f = x, f
        if fn.count >= budget:
            converged = False
            break
    return np.array([best_x]), best_f, converged


def _minimize_nd(fn: _CountedObjective, n_dim, starts, tol, budget):
    """Multi-start Nelder-Mead with theta clamped at zero.

    Every start gets a cheap scouting run; only the best is polished at
    full tolerance, which keeps the evaluation count manageable without
    giving up the multi-start coverage.
    """

    def clamped(t):
        return fn(np.maximum(t, 0.0))

    scout = None
    for start in itertools.product(starts, repeat=n_dim):
        res = scipy.optimize.minimize(
            clamped, np.array(start), method="Nelder-Mead",
            options=dict(maxfev=40 * n_dim, xatol=1e-3, fatol=1e-4,
                         adaptive=n_dim > 2))
        if scout is None or res.fun < scout.fun:
            scout = res
    best = scipy.optimize.minimize(
        clamped, scout.x, method="Nelder-Mead",
        options=dict(maxfev=budget, xatol=1e-9, fatol=tol, adaptive=n_dim > 2))
    converged = bool(best.success)
    if scout.fun < best.fun:
        best = scout
    x = np.maximum(best.x, 0.0)
    x[x < 1e-10] = 0.0
    # deterministic coordinate-descent polish: NM endpoints scatter at the
    # 1e-6 level run to run, which would leak into the variance estimates;
    # repeated axis-wise golden sections pin the minimizer reproducibly
    f_best = fn(x)
    for _ in range(6):
        x_prev = x.copy()
        for j in range(n_dim):
            def axis(t, j=j):
                z = x.copy()
                z[j] = t
                return fn(z)

            hi = max(4.0 * x[j], 1.0)
            xj, fj, _ = _golden_section(axis, 0.0, hi, tol=1e-12, max_evals=80)
            if fj <= f_best:
                x = x.copy()
                x[j] = xj
                f_best = fj
        if np.max(np.abs(x - x_prev)) < 1e-9 * (1.0 + np.max(np.abs(x))):
            break
    return x, f_best, converged


def _quadratic_polish(fn, x: np.ndarray) -> np.ndarray:
    """Fixed-recipe vertex refinement of the minimizer, one axis at a time.

    Comparison-based search localizes the argmin only to where deviance
    differences drown in float noise; interpolating a parabola through
    well-separated points pins it far more tightly, and identically so for
    equivalent problems (shifted, scaled or permuted data). Two sweeps with
    a shrinking step: the first cancels the search scatter, the second
    shrinks the interpolation bias below 1e-7 relative. Acceptance is
    unconditional so the recipe stays a smooth function of the deviance.
    """
    x = x.copy()
    for rel_step, floor in ((1e-3, 1e-4), (1e-4, 2e-5)):
        for j in range(x.size):
            if x[j] == 0.0:
                continue  # exact boundary solution
            h = max(rel_step * x[j], floor)
            lo = x[j] - h if x[j] - h > 0 else x[j]
            mid, hi = lo + h, lo + 2.0 * h
            z = x.copy()
            z[j] = lo
            f_lo = fn(z)
            z[j] = mid
            f_mid = fn(z)
            z[j] = hi
            f_hi = fn(z)
            curvature = f_lo - 2.0 * f_mid + f_hi
            if not math.isfinite(curvature) or curvature <= 0.0:
                continue
            vertex = mid + 0.5 * h * (f_lo - f_hi) / curvature
            x[j] = min(max(vertex, lo), hi)
    return x


def fit_lmm(dm: DesignMatrices, y: np.ndarray, criterion: str = "REML",
            opts: FitOptions | None = None) -> FittedLMM:
    """Fit the mixed model by minimizing the profiled deviance over theta.

    Uses bounded golden-section search for a single random factor and
    multi-start Nelder-Mead (clamped at theta = 0) for several; boundary
    estimates theta_q = 0 are legitimate results, not failures. If the
    evaluation budget is exhausted the best point so far is returned with
    ``converged=False``.
    """
    opts = opts or FitOptions()
    criterion = criterion.upper()
    if criterion not in ("REML", "ML"):
        raise FitError(f"unknown criterion {criterion!r}")
    y = np.asarray(y, dtype=float)
    ws = _Workspace(dm, y, opts.weights)
    if ws.n <= ws.p:
        raise FitError(f"need more observations than fixed effects "
                       f"(n={ws.n}, p={ws.p})")
    if np.ptp(y) == 0.0:
        raise DegenerateDataError("response is constant; no variance to decompose")

    reml = criterion == "REML"
    n_factors = ws.n_factors

    def raw_objective(theta):
        try:
            return ws.deviance(theta, reml=reml)
        except (np.linalg.LinAlgError, FloatingPointError, FitError):
            return math.inf

    objective = _CountedObjective(raw_objective)
    budget = opts.max_evals_per_dim * max(n_factors, 1)
    if n_factors == 0:
        theta_hat = np.zeros(0)
        converged = True
    elif n_factors == 1:
        theta_hat, _, converged = _minimize_1d(objective, opts.multistart, budget)
    else:
        theta_hat, _, converged = _minimize_nd(
            objective, n_factors, opts.multistart, opts.tol, budget)
    # negligible coordinates are boundary solutions; snap when not worse
    snapped = theta_hat.copy()
    snapped[snapped < 1e-7] = 0.0
    if np.any(snapped != theta_hat) and \
            objective(snapped) <= objective(theta_hat) + opts.tol:
        theta_hat = snapped
    if n_factors:
        polished = _quadratic_polish(objective, theta_hat)
        if objective(polished) <= objective(theta_hat) + opts.tol:
            theta_hat = polished
    evals = max(objective.count, 1)

    sol = ws.solve(theta_hat)
    dev = ws._deviance_from(sol, reml)
    sigma2_eps = sol["pwrss"] / ((ws.n - ws.p) if reml else ws.n)
    if sigma2_eps <= 0 or not math.isfinite(dev):
        raise DegenerateDataError("degenerate variance estimate; response has no "
                                  "residual variation under the fitted model")
    vc = VarianceComponents(
        names=ws.factors,
        sigma2=tuple(float(t * t * sigma2_eps) for t in theta_hat),
        sigma2_eps=float(sigma2_eps),
        theta=tuple(float(t) for t in theta_hat),
    )
    vcov = sigma2_eps * _cho_solve(sol["rx_factor"], np.eye(ws.p))
    vcov = 0.5 * (vcov + vcov.T)
    return FittedLMM(
        beta=sol["beta"], vc=vc, blups=sol["b"], loglik=-0.5 * dev,
        criterion=criterion, vcov_beta=vcov, npar=ws.p + n_factors + 1,
        converged=converged, deviance_profile_evals=evals,
        column_map=dm.column_map, _ws=ws)


def drop_random_factor(spec: ModelSpec, factor: str) -> ModelSpec:
    """Model declaration with one random factor removed."""
    if factor not in spec.random_factors:
        raise DataError(f"factor {factor!r} is not in random_factors "
                        f"{spec.random_factors}")
    remaining = tuple(f for f in spec.random_factors if f != factor)
    return replace(spec, random_factors=remaining)
