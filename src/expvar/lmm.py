"""Linear mixed model estimation by profiled REML/ML deviance.

The model is y = X beta + Z b + eps with independent random intercepts per
grouping factor, b_q ~ N(0, sigma_q^2) and eps ~ N(0, sigma_eps^2).
Estimation profiles beta and the residual variance out analytically and
minimizes the deviance over theta, the per-factor standard deviations
relative to the residual one. Each evaluation is one Cholesky
factorization of the bordered cross-product matrix [Z X y]'[Z X y],
scaled by theta on the Z block (the penalized least-squares form of
Bates et al. 2015, JSS 67(1)): the factor's diagonal gives both log
determinants and its last pivot the penalized residual sum of squares,
so the marginal covariance is never formed; the dense-covariance formula
is kept as a test oracle only. Z is never formed either: its blocks of
that matrix are counts and sums over the random factors' level codes.

A random intercept's own block of Z'Z is diagonal. When the factor with
the most levels has more of them than the rest of the matrix has rows,
its block is eliminated in closed form (its pivots are 1 + theta^2 times
the level counts) and the Cholesky factorization runs on the Schur
complement of the remaining rows only; otherwise the whole matrix is
factored.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .design import DesignMatrices

LOG_2PI = math.log(2.0 * math.pi)
#: theta above this bound is treated as a numerical failure, not a fit.
THETA_MAX = 1e8
#: The recipe of every fit: the deviance slack within which the boundary
#: snap and the final polish are accepted, the deviance evaluation budget
#: per theta dimension, and the starting values of each theta.
DEVIANCE_SLACK = 1e-8
MAX_EVALS_PER_DIM = 500
THETA_STARTS = (0.1, 1.0, 10.0)


class FitError(ValueError):
    """Raised when a model cannot be fit on the given data."""


class DegenerateDataError(FitError):
    """The response carries no usable variation."""


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

    @property
    def sd_eps(self) -> float:
        return math.sqrt(self.sigma2_eps)


class _Workspace:
    """The bordered cross-product matrix of (Z, X, y), reused across
    deviance evaluations.

    ``eliminated`` names the random factor whose diagonal block of Z'Z is
    eliminated at each evaluation (see ``_factor``), or is None.
    """

    def __init__(self, dm: DesignMatrices, y: np.ndarray):
        y = np.asarray(y, dtype=float)
        if y.shape != (dm.n,):
            raise FitError(f"response has shape {y.shape}, expected ({dm.n},)")
        X = dm.X
        # canonical row order: float sums then do not depend on the input
        # row order, so permuting observations reproduces estimates exactly
        order = self._canonical_order(dm, X, y)
        X, y = X[order], y[order]
        self.n, self.p = X.shape
        self.factors = tuple(dm.z_blocks)
        self.n_factors = len(self.factors)
        self.q = q = dm.q
        self.X, self.y = X, y
        blocks = [dm.z_blocks[f] for f in self.factors]
        # Z column of each row, per random factor, in canonical order
        self.z_columns = [b.start + dm.z_codes[f][order]
                          for f, b in zip(self.factors, blocks)]
        # the border holds the least-squares residual r = y - X beta0 in
        # place of y: the deviance is the same, and the corner's Schur
        # complement, the PWRSS, then cancels against r'r instead of y'y
        self.beta0 = np.linalg.lstsq(X, y, rcond=None)[0]
        self.r = r = y - X @ self.beta0
        # M = [Z X r]'[Z X r], filled block by block; the Z blocks are
        # counts and sums over the level codes, so Z itself is never formed
        M = np.zeros((q + self.p + 1,) * 2)
        Xr = np.column_stack([X, r])
        stride = Xr.shape[1]
        for i, (f, bi) in enumerate(zip(self.factors, blocks)):
            codes, width = dm.z_codes[f], bi.stop - bi.start
            M[bi, bi] = np.diag(np.bincount(codes, minlength=width))
            for g, bj in zip(self.factors[i + 1:], blocks[i + 1:]):
                # contingency table of the two factors' level pairs
                other = bj.stop - bj.start
                pairs = np.bincount(codes * other + dm.z_codes[g], minlength=width * other)
                M[bi, bj] = pairs.reshape(width, other)
                M[bj, bi] = M[bi, bj].T
            # Z'[X r]: each row of [X r] summed into its level's row, in
            # canonical row order
            cells = (self.z_columns[i][:, None] * stride + np.arange(stride)).ravel()
            sums = np.bincount(cells, weights=Xr.ravel(), minlength=bi.stop * stride)
            M[bi, q:] = sums.reshape(bi.stop, stride)[bi]
            M[q:, bi] = M[bi, q:].T
        M[q:-1, q:-1] = X.T @ X
        M[q:-1, -1] = M[-1, q:-1] = X.T @ r
        M[-1, -1] = r @ r
        # eliminate the largest factor's block when it outnumbers the other
        # rows: the factorization work saved then outweighs the fixed cost
        # of the update's extra array calls, which dominates on small blocks
        self.eliminated, self.q_e, self._e = None, 0, 0
        # row k < q of M holds Z column z_order[k]: the eliminated ones first
        self.z_order = np.arange(q)
        sizes = [b.stop - b.start for b in blocks]
        if sizes and 2 * max(sizes) > len(M):
            self._e = e = sizes.index(max(sizes))
            self.eliminated, self.q_e = self.factors[e], sizes[e]
            self.z_order = np.r_[self.z_order[blocks[e]], np.delete(self.z_order, blocks[e])]
            rows = np.r_[self.z_order, q:len(M)]
            M = M[np.ix_(rows, rows)]
        self.M = M
        # views of M: the rows left to factor, and their block against the
        # eliminated columns
        self._M_rest, self._M_ke = M[self.q_e:, self.q_e:], M[self.q_e:, :self.q_e]
        self.n_e = M.diagonal()[:self.q_e].copy()
        self.yty = float(y @ y)
        # column j of Z belongs to random factor col_factor[j]
        self.col_factor = np.zeros(q, dtype=np.intp)
        for i, block in enumerate(blocks):
            self.col_factor[block] = i
        # the Z rows that are factored densely, and their random factors
        self.q_rest = q - self.q_e
        self._rest_factor = self.col_factor[self.z_order[self.q_e:]]
        self._zdiag = np.diag_indices(self.q_rest)

    @staticmethod
    def _canonical_order(dm: DesignMatrices, X: np.ndarray,
                         y: np.ndarray) -> np.ndarray:
        keys = [y]
        keys.extend(X.T[::-1])
        for factor in reversed(tuple(dm.z_blocks)):
            keys.append(dm.z_codes[factor])
        return np.lexsort(tuple(keys))

    def _z_times(self, b: np.ndarray) -> np.ndarray:
        """Z @ b, as a gather of b over each factor's columns."""
        out = np.zeros(self.n)
        for columns in self.z_columns:
            out += b[columns]
        return out

    def _factor(self, theta: np.ndarray):
        """Lower Cholesky factor of the scaled bordered matrix at theta,
        less the eliminated rows.

        The eliminated factor's scaled block is diagonal, 1 + theta_e^2 n_e,
        so those pivots d are closed-form and the other rows are left with
        their Schur complement, M_KK - M_KE (theta_e^2 / d) M_KE', before
        scaling. Returns the factor of the other rows, d (None when nothing
        is eliminated) and the amount added to the corner. The corner's
        Schur complement is the PWRSS; when cancellation makes it
        non-positive the corner is padded so the last pivot stays real, and
        the pad is subtracted again.
        """
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_factors,):
            raise FitError(f"theta has shape {theta.shape}, expected ({self.n_factors},)")
        if (theta < 0).any():
            raise FitError(f"theta must be non-negative, got {theta}")
        scale = np.ones(len(self._M_rest))
        scale[:self.q_rest] = theta[self._rest_factor]
        A, d = self._M_rest, None
        if self.q_e:
            t = float(theta[self._e])
            d = 1.0 + t * t * self.n_e
            G = self._M_ke * (t / np.sqrt(d))
            A = A - G @ G.T
        A = A * scale[:, None] * scale
        A[self._zdiag] += 1.0
        try:
            return np.linalg.cholesky(A), d, 0.0
        except np.linalg.LinAlgError:
            pad = max(self.yty, 1.0)
            A[-1, -1] += pad
            return np.linalg.cholesky(A), d, pad

    def _modes(self, theta: np.ndarray, L: np.ndarray, d) -> tuple[np.ndarray, np.ndarray]:
        """Spherical modes u and beta-hat - beta0, by back-substitution:
        first through the factored rows, then the eliminated ones,
        u_E = theta_e (M_Er - M_EK (scale * x_K)) / d."""
        e, k = self.q_e, len(L) - 1
        x = np.linalg.solve(L[:k, :k].T, L[k, :k])
        u = np.empty(self.q)
        u[self.z_order[e:]] = x[:self.q_rest]
        if e:
            scaled = x.copy()
            scaled[:self.q_rest] *= theta[self._rest_factor]
            u[self.z_order[:e]] = theta[self._e] * \
                (self._M_ke[-1] - scaled @ self._M_ke[:-1]) / d
        return u, x[self.q_rest:]

    def _profiled(self, theta: np.ndarray):
        """Factor, eliminated pivots, both log determinants and the PWRSS."""
        L, d, pad = self._factor(theta)
        q = self.q_rest
        diag = L.diagonal()
        log_diag = np.log(diag[:-1])
        logdet_lz = 2.0 * float(log_diag[:q].sum())
        if d is not None:
            logdet_lz += float(np.log(d).sum())
        logdet_rx = 2.0 * float(log_diag[q:].sum())
        pwrss = float(diag[-1]) ** 2 - pad
        if pwrss < 1e-8 * max(self.yty, 1.0):
            # cancellation eats the value: use explicit residuals
            theta = np.asarray(theta, dtype=float)
            u, shift = self._modes(theta, L, d)
            resid = self.r - self.X @ shift - self._z_times(theta[self.col_factor] * u)
            pwrss = float(resid @ resid + u @ u)
        return L, d, logdet_lz, logdet_rx, pwrss

    def solve(self, theta: np.ndarray) -> dict:
        """Penalized least-squares solve at fixed theta.

        Returns the profiled pieces: spherical modes u, BLUPs b = lambda*u,
        beta-hat, the penalized residual sum of squares, the two log
        determinants of the profiled deviance and the fixed-effect block
        of the factor.
        """
        theta = np.asarray(theta, dtype=float)
        L, d, logdet_lz, logdet_rx, pwrss = self._profiled(theta)
        u, shift = self._modes(theta, L, d)
        q = self.q_rest
        return dict(beta=self.beta0 + shift, u=u, b=theta[self.col_factor] * u,
                    pwrss=pwrss, logdet_lz=logdet_lz, logdet_rx=logdet_rx,
                    rx_factor=L[q:-1, q:-1])

    def deviance(self, theta: np.ndarray, reml: bool = True) -> float:
        """Profiled deviance (-2 log-likelihood) at theta."""
        return self._deviance_from(*self._profiled(theta)[2:], reml)

    def _deviance_from(self, logdet_lz: float, logdet_rx: float, pwrss: float,
                       reml: bool) -> float:
        n, p = self.n, self.p
        if pwrss <= 0:
            raise FitError("zero penalized residual sum of squares; "
                           "response is degenerate")
        if reml:
            return logdet_lz + logdet_rx + \
                (n - p) * (1.0 + LOG_2PI + math.log(pwrss / (n - p)))
        return logdet_lz + n * (1.0 + LOG_2PI + math.log(pwrss / n))

    def deviance_at(self, theta: np.ndarray, sigma2: float, reml: bool = True) -> float:
        """Deviance at explicit (theta, residual variance), not profiled."""
        if sigma2 <= 0:
            raise FitError(f"residual variance must be positive, got {sigma2}")
        _, _, logdet_lz, logdet_rx, pwrss = self._profiled(theta)
        n, p = self.n, self.p
        dof = (n - p) if reml else n
        dev = dof * (LOG_2PI + math.log(sigma2)) + logdet_lz + pwrss / sigma2
        if reml:
            dev += logdet_rx
        return dev

    def vcov_beta(self, theta: np.ndarray, sigma2: float) -> np.ndarray:
        L = self._factor(theta)[0]
        q = self.q_rest
        return sigma2 * _inverse_gram(L[q:-1, q:-1])

    def variance_derivatives(self, theta: np.ndarray, sigma2: float,
                             reml: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Exact Hessian of the deviance in omega = (sigma2_1..sigma2_k,
        sigma2), and dV_beta/domega_i stacked along the first axis.

        With V = sigma2 V0, V_i = dV/domega_i and T = P for REML, V^-1 for
        ML, the Hessian is -tr(T V_i T V_j) + 2 y'P V_i P V_j P y, and
        dV_beta/domega_i = V_beta X'V^-1 V_i V^-1 X V_beta. For the random
        factors every term is a block of W = [Z X r]'V0^-1[Z X r], one
        solve on M by Woodbury. The residual row and column follow from
        the scaling identity d(c omega) = d(omega) + dof log c +
        y'Py (1/c - 1) and V_beta(c omega) = c V_beta(omega), differentiated
        once and twice in c.
        """
        theta = np.asarray(theta, dtype=float)
        q, p, k, M = self.q, self.p, self.n_factors, self.M
        # random factor of each Z row of M, and as an indicator matrix
        factor = self.col_factor[self.z_order]
        member = factor[:, None] == np.arange(k)
        scaled = M[:q] * theta[factor][:, None]
        B = scaled[:, :q] * theta[factor]
        B[np.diag_indices(q)] += 1.0
        W = M - scaled.T @ np.linalg.solve(B, scaled)
        Wxx_inv = np.linalg.inv(W[q:-1, q:-1])
        F = W[:q, q:-1] @ Wxx_inv
        # [Z r]'P0[Z r]: the Schur complement of W's fixed-effect block
        keep = np.r_[:q, q + p]
        schur = W[np.ix_(keep, keep)] - W[keep, q:-1] @ Wxx_inv @ W[q:-1, keep]
        S_zz, s = schur[:q, :q], schur[:q, -1]
        T = S_zz if reml else W[:q, :q]
        H = np.empty((k + 1, k + 1))
        H[:k, :k] = (member.T @ (2.0 / sigma2 * S_zz * np.outer(s, s) - T * T)
                     @ member) / sigma2 ** 2
        omega = theta ** 2 * sigma2
        # sum_j omega_j H_ij = 2 y'P V_i P y - tr(T V_i)
        trace = member.T @ T.diagonal() / sigma2
        quad = member.T @ (s * s) / sigma2 ** 2
        H[:k, k] = H[k, :k] = (2.0 * quad - trace - H[:k, :k] @ omega) / sigma2
        # omega'H omega = 2 y'Py - dof
        dof = (self.n - p) if reml else self.n
        H[k, k] = (2.0 * schur[-1, -1] / sigma2 - dof - omega @ H[:k, :k] @ omega
                   - 2.0 * sigma2 * omega @ H[:k, k]) / sigma2 ** 2
        dV = np.empty((k + 1, p, p))
        for i in range(k):
            Fi = F[member[:, i]]
            dV[i] = Fi.T @ Fi
        # sum_i omega_i dV_i = V_beta
        dV[k] = Wxx_inv - np.tensordot(theta ** 2, dV[:k], axes=1)
        return H, dV


def _inverse_gram(R: np.ndarray) -> np.ndarray:
    """(R R')^-1 for a lower-triangular R."""
    Ri = np.linalg.inv(R)
    return Ri.T @ Ri


@dataclass(frozen=True, eq=False)
class FittedLMM:
    """A converged (or best-so-far) mixed-model fit.

    ``loglik`` is the restricted or full log-likelihood according to
    ``criterion``; ``npar`` counts fixed effects plus variance parameters.
    The private workspace handle evaluates the deviance and the beta
    covariance at any variance parameters, and their exact derivatives
    (``variance_derivatives``), which the Satterthwaite degrees of freedom
    are built from. The arrays are read-only, since
    ``fit_lmm`` hands the same fit to every caller on the same design and
    response.
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

    def variance_derivatives(self, omega=None) -> tuple[np.ndarray, np.ndarray]:
        """Hessian of ``deviance_at_omega`` and the derivatives of
        ``vcov_beta_at_omega``, one p x p matrix per omega_i, at omega
        (by default the estimate)."""
        theta, sigma2 = self._split_omega(self.omega_hat if omega is None else omega)
        return self._ws.variance_derivatives(theta, sigma2,
                                             reml=self.criterion == "REML")


def aic(npar: int, loglik: float) -> float:
    """Akaike information criterion, 2*npar - 2*loglik."""
    return 2.0 * npar - 2.0 * loglik


#: Per design: the workspace of the response it was last used with, that
#: response's bytes, and the fits made on it by criterion. A weak key, so
#: an entry dies with its design; nothing stored refers to the design.
_MEMO: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _shared_workspace(dm: DesignMatrices, y: np.ndarray) -> tuple[_Workspace, dict]:
    """The workspace of (dm, y) and the fits made on it so far.

    A design keeps one response: another response replaces the entry.
    """
    key = (y.shape, y.tobytes())
    entry = _MEMO.get(dm)
    if entry is None or entry[0] != key:
        entry = _MEMO[dm] = (key, _Workspace(dm, y), {})
    return entry[1], entry[2]


def reml_deviance(dm: DesignMatrices, y: np.ndarray, theta) -> float:
    """Restricted deviance profiled over beta and the residual variance.

    theta holds one relative standard deviation per random factor, in
    ``dm.z_blocks`` order. Raises on a non-finite result. Calls on the
    same design and response share one workspace with ``fit_lmm``.
    """
    ws = _shared_workspace(dm, np.asarray(y, dtype=float))[0]
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


class _BudgetSpent(Exception):
    """A Nelder-Mead run has used its evaluation budget."""


def _nelder_mead(fn, x0: np.ndarray, maxfev: int, xatol: float, adaptive: bool):
    """Nelder-Mead simplex minimization; returns (x, f, nfev, success).

    A port of scipy.optimize's ``minimize(method="Nelder-Mead")`` (scipy
    1.17) for the options used here: the same initial simplex, step
    sequence, vertex ordering and evaluation accounting. The stopping
    rule differs: the run ends, converged, once every vertex lies within
    ``xatol`` of the best one, whatever the spread of the vertex values.
    scipy also waits for that spread to fall below ``fatol``, and float
    noise in the objective can keep it above any fixed ``fatol`` on a
    simplex that has collapsed to a point, until the budget runs out.
    ``success`` is False when the budget ran out first.
    """
    x0 = np.array(x0, dtype=float).ravel()
    N = x0.size
    if adaptive:
        rho, chi, psi, sigma = 1, 1 + 2 / N, 0.75 - 1 / (2 * N), 1 - 1 / N
    else:
        rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    sim = np.empty((N + 1, N))
    sim[0] = x0
    for k in range(N):
        vertex = x0.copy()
        vertex[k] = (1 + nonzdelt) * vertex[k] if vertex[k] != 0 else zdelt
        sim[k + 1] = vertex

    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return fn(x)

    fsim = np.full(N + 1, np.inf)
    try:
        for k in range(N + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    ind = np.argsort(fsim)
    sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)

    while nfev < maxfev:
        try:
            if np.max(np.abs(sim[1:] - sim[0])) <= xatol:
                break
            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = f(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = f(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = f(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, N + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], float(np.min(fsim)), nfev, nfev < maxfev


def _minimize_nd(fn: _CountedObjective, n_dim, starts, budget):
    """Multi-start Nelder-Mead with theta clamped at zero.

    Every start gets a cheap scouting run; only the best is polished at
    full tolerance, which keeps the evaluation count manageable without
    giving up the multi-start coverage.
    """

    def clamped(t):
        return fn(np.maximum(t, 0.0))

    scout = None
    for start in itertools.product(starts, repeat=n_dim):
        run = _nelder_mead(clamped, np.array(start), maxfev=40 * n_dim,
                           xatol=1e-3, adaptive=n_dim > 2)
        if scout is None or run[1] < scout[1]:
            scout = run
    best = _nelder_mead(clamped, scout[0], maxfev=budget, xatol=1e-9,
                        adaptive=n_dim > 2)
    converged = best[3]
    if scout[1] < best[1]:
        best = scout
    x = np.maximum(best[0], 0.0)
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


def fit_lmm(dm: DesignMatrices, y: np.ndarray, criterion: str = "REML") -> FittedLMM:
    """Fit the mixed model by minimizing the profiled deviance over theta.

    Uses bounded golden-section search for a single random factor and
    multi-start Nelder-Mead (clamped at theta = 0) for several; boundary
    estimates theta_q = 0 are legitimate results, not failures. The recipe
    is fixed by the module constants ``THETA_STARTS``, ``MAX_EVALS_PER_DIM``
    and ``DEVIANCE_SLACK``, so the answer depends on the data alone. If the
    evaluation budget is exhausted the best point so far is returned with
    ``converged=False``.

    Fitting the same design object to a bit-identical response under the
    same criterion again returns the same fit object, whose
    arrays are read-only: a fit is deterministic, so a refit would give
    the same numbers. ``ranova`` after ``fit_lmm`` on the same design and
    response therefore pays only for its reduced fits. Refusals are not
    stored and are raised again on every call.
    """
    criterion = criterion.upper()
    if criterion not in ("REML", "ML"):
        raise FitError(f"unknown criterion {criterion!r}")
    ws, fits = _shared_workspace(dm, np.asarray(y, dtype=float))
    if criterion in fits:
        return fits[criterion]
    if ws.n <= ws.p:
        raise FitError(f"need more observations than fixed effects "
                       f"(n={ws.n}, p={ws.p})")
    if np.ptp(ws.y) == 0.0:
        raise DegenerateDataError("response is constant; no variance to decompose")
    # scale-free test, as matrix_rank's default tolerance: a response in the
    # column span of X leaves no residual whose variance could be split
    if np.linalg.norm(ws.r) <= \
            max(ws.n, ws.p) * np.finfo(float).eps * np.linalg.norm(ws.y):
        raise DegenerateDataError("response lies exactly in the span of the fixed "
                                  "effects; no residual variation to decompose")

    reml = criterion == "REML"
    n_factors = ws.n_factors

    def raw_objective(theta):
        try:
            return ws.deviance(theta, reml=reml)
        except (np.linalg.LinAlgError, FloatingPointError, FitError):
            return math.inf

    objective = _CountedObjective(raw_objective)
    budget = MAX_EVALS_PER_DIM * max(n_factors, 1)
    if n_factors == 0:
        theta_hat = np.zeros(0)
        converged = True
    elif n_factors == 1:
        theta_hat, _, converged = _minimize_1d(objective, THETA_STARTS, budget)
    else:
        theta_hat, _, converged = _minimize_nd(
            objective, n_factors, THETA_STARTS, budget)
    # negligible coordinates are boundary solutions; snap when not worse
    snapped = theta_hat.copy()
    snapped[snapped < 1e-7] = 0.0
    if np.any(snapped != theta_hat) and \
            objective(snapped) <= objective(theta_hat) + DEVIANCE_SLACK:
        theta_hat = snapped
    if n_factors:
        polished = _quadratic_polish(objective, theta_hat)
        if objective(polished) <= objective(theta_hat) + DEVIANCE_SLACK:
            theta_hat = polished
    evals = max(objective.count, 1)

    sol = ws.solve(theta_hat)
    dev = ws._deviance_from(sol["logdet_lz"], sol["logdet_rx"], sol["pwrss"], reml)
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
    vcov = sigma2_eps * _inverse_gram(sol["rx_factor"])
    vcov = 0.5 * (vcov + vcov.T)
    for array in (sol["beta"], sol["b"], vcov):
        array.setflags(write=False)
    fits[criterion] = fit = FittedLMM(
        beta=sol["beta"], vc=vc, blups=sol["b"], loglik=-0.5 * dev,
        criterion=criterion, vcov_beta=vcov, npar=ws.p + n_factors + 1,
        converged=converged, deviance_profile_evals=evals,
        column_map=dm.column_map, _ws=ws)
    return fit

