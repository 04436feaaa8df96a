"""Output checks: recorded reference deviances, and an oracle fallback.

A fit passes when its REML deviance is at most the deviance recorded for
the same table at the benchmark's seed commit plus ``TOL`` (a lower
deviance is a better optimum and passes). Tables without a recorded
value (an unrecorded workload seed, or a table index past the recorded
range) are checked against a dense marginal-covariance REML deviance
that shares no code with the library: the full fit must reproduce it at
its own estimate, and no fit may lose to a few probe points.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

TOL = 1e-6
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ref")


def load_refs(workload: str) -> dict:
    path = os.path.join(REF_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["seeds"]


def reference(refs: dict, seed: int, index: int) -> dict | None:
    """Recorded deviances of one table ("full" and "-<factor>"), if any."""
    tables = refs.get(str(seed))
    if tables is None or index >= len(tables):
        return None
    return tables[index]


def dense_reml_deviance(X, Z_blocks, y, theta) -> float:
    """REML deviance from the explicit marginal covariance V0 = I + sum t^2 ZZ'."""
    n, p = X.shape
    V0 = np.eye(n)
    for Z, t in zip(Z_blocks, theta):
        V0 += (t * t) * (Z @ Z.T)
    C = np.linalg.cholesky(V0)
    Xs = np.linalg.solve(C, X)
    ys = np.linalg.solve(C, y)
    XtViX = Xs.T @ Xs
    beta = np.linalg.solve(XtViX, Xs.T @ ys)
    r = ys - Xs @ beta
    sigma2 = float(r @ r) / (n - p)
    logdet_v = 2.0 * float(np.sum(np.log(np.diag(C))))
    _, logdet_x = np.linalg.slogdet(XtViX)
    return float(logdet_v + logdet_x + (n - p) * (1.0 + math.log(2.0 * math.pi * sigma2)))


def fit_deviances(fit) -> dict[str, list[float]]:
    return {"full": [fit.deviance]}


def ranova_deviances(result) -> dict[str, list[float]]:
    out = {"full": [-2.0 * result.full_loglik]}
    for row in result.rows:
        out[f"-{row.factor}"] = [-2.0 * row.loglik]
    return out


def check_against_reference(devs: dict, ref: dict) -> list[str]:
    problems = []
    for model, values in devs.items():
        for value in values:
            if not value <= ref[model] + TOL:
                problems.append(f"{model} deviance {value!r} > reference "
                                f"{ref[model]!r} + {TOL}")
    return problems


def check_with_oracle(devs: dict, dm, y, theta_true, fit=None) -> list[str]:
    """Fallback check of one table from the dense oracle alone.

    With ``fit`` the dense deviance at its estimate must reproduce its
    deviance; every model's deviance must not exceed the oracle's value at
    the generating theta or at that theta with one component set to 0.
    """
    problems = []
    factors = list(dm.z_blocks)
    X = np.asarray(dm.X)
    blocks = {f: np.asarray(dm.Z[:, dm.z_blocks[f]]) for f in factors}
    truth = dict(zip(factors, theta_true))

    def dense(model_factors, theta):
        return dense_reml_deviance(X, [blocks[f] for f in model_factors], y, theta)

    if fit is not None:
        theta_fit = np.asarray(fit.theta, dtype=float)
        at_fit = dense(factors, theta_fit)
        if abs(at_fit - fit.deviance) > TOL + 1e-9 * abs(at_fit):
            problems.append(f"full deviance {fit.deviance!r} differs from the dense "
                            f"oracle {at_fit!r} at the fitted theta")
    for model, values in devs.items():
        kept = factors if model == "full" else [f for f in factors if f != model[1:]]
        probes = [np.array([truth[f] for f in kept])]
        for j in range(len(kept)):
            zeroed = probes[0].copy()
            zeroed[j] = 0.0
            probes.append(zeroed)
        best = min(dense(kept, t) for t in probes)
        worst_value = max(values)
        if not worst_value <= best + TOL:
            problems.append(f"{model} deviance {worst_value!r} is above the dense "
                            f"oracle's probe value {best!r}")
    return problems


def check_anova(row, n_levels: int) -> list[str]:
    problems = []
    if row.num_df != n_levels - 1:
        problems.append(f"anova NumDF {row.num_df} for {n_levels} levels")
    if not (math.isfinite(row.f_value) and row.f_value >= 0.0):
        problems.append(f"anova F value {row.f_value!r}")
    if row.den_df is not None and not row.den_df > 0.0:
        problems.append(f"anova DenDF {row.den_df!r}")
    if row.p_value is not None and not 0.0 <= row.p_value <= 1.0:
        problems.append(f"anova p value {row.p_value!r}")
    return problems


def check_contrasts(rows, expected: int) -> list[str]:
    problems = []
    if len(rows) != expected:
        problems.append(f"{len(rows)} contrast rows, expected {expected}")
    for r in rows:
        if not (math.isfinite(r.estimate) and r.lower <= r.estimate <= r.upper
                and 0.0 <= r.p_value <= 1.0):
            problems.append(f"contrast {r.label}: estimate {r.estimate!r}, "
                            f"interval [{r.lower!r}, {r.upper!r}], p {r.p_value!r}")
    return problems
