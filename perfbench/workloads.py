"""Workload inputs and the in-process test battery.

Every input is a pure function of the workload seed and a table index, so
the same seed gives the same tables in every run and in the reference
file. Imported only by benchmark child processes, never by ``run.py``.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

import expvar
from expvar import data as ev_data
from expvar import design as ev_design
from expvar import inference as ev_inference
from expvar import lmm as ev_lmm
from expvar import simulate as ev_simulate

#: The paper's standard deviations (seed, hyper-parameter config, residual).
PAPER_SDS = {"seed": 0.005559, "hparams": 0.042334, "Residual": 0.020828}
PAPER_COMBOS = (("m-net", "adam", 0.45), ("protonet", "sgd", 0.62),
                ("tadam", "adam", 0.70))
#: design.json of the cli_large session (60k rows, q = 150); the session
#: passes the workload seed to ``simulate --seed``.
CLI_DESIGN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "cli_large_design.json")
#: Table i of workload seed s is generated with generator_seed s*STRIDE + i.
STRIDE = 1_000_000

MC_WORKLOADS = ("mc_paper", "mc_boundary")


def check_checkout(src_dir: str) -> None:
    """Refuse to measure an ``expvar`` that is not the checkout's own."""
    here = os.path.realpath(os.path.dirname(expvar.__file__))
    want = os.path.realpath(os.path.join(src_dir, "expvar"))
    if here != want:
        sys.exit(f"perfbench: imported expvar from {here}, expected {want}")


def table_seed(seed: int, index: int) -> int:
    return seed * STRIDE + index


def paper_design(generator_seed: int) -> ev_simulate.TreeDesign:
    """Criterion 7 design: 3 combos x 4 seeds x 5 configs x 3 noisy reruns."""
    return ev_simulate.TreeDesign(
        combos=PAPER_COMBOS, n_seeds=4, n_configs=5, n_reruns=3,
        sigma_seed=PAPER_SDS["seed"], sigma_hparam=PAPER_SDS["hparams"],
        sigma_eps=PAPER_SDS["Residual"], rerun_mode="noisy",
        generator_seed=generator_seed)


def h1_design(generator_seed: int) -> ev_simulate.TreeDesign:
    """Criterion 8 H1 design: no true seed effect."""
    return ev_simulate.TreeDesign(
        combos=PAPER_COMBOS[:2], n_seeds=4, n_configs=5, n_reruns=3,
        sigma_seed=0.0, sigma_hparam=PAPER_SDS["hparams"],
        sigma_eps=PAPER_SDS["Residual"], rerun_mode="noisy",
        generator_seed=generator_seed)


def h3_design(generator_seed: int) -> ev_simulate.TreeDesign:
    """Criterion 8 H3 design: near-deterministic reruns as a fixed factor."""
    return ev_simulate.TreeDesign(
        combos=PAPER_COMBOS[:2], n_seeds=3, n_configs=3, n_reruns=2,
        sigma_seed=0.02, sigma_hparam=0.04, sigma_eps=1e-3,
        rerun_mode="noisy", generator_seed=generator_seed)


def cli_design(seed: int) -> ev_simulate.TreeDesign:
    """The table ``expvar simulate`` writes in a cli_large session."""
    with open(CLI_DESIGN, encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["combos"] = tuple(tuple(c) for c in obj["combos"])
    obj["generator_seed"] = seed
    return ev_simulate.TreeDesign(**obj)


def mc_table(workload: str, seed: int, index: int):
    """(design, fixed factor, contrast kind) of one Monte-Carlo table.

    mc_boundary alternates the H1 design (even indices) and the H3 design
    (odd indices); H3 compares the two reruns within each combo, as
    criterion 8 does.
    """
    gs = table_seed(seed, index)
    if workload == "mc_paper":
        return paper_design(gs), "model:optimizer", "vs_grand"
    if workload == "mc_boundary":
        if index % 2 == 0:
            return h1_design(gs), "model:optimizer", "vs_grand"
        return h3_design(gs), "model:optimizer:rerun", "rerun_pairs"
    raise ValueError(f"unknown Monte-Carlo workload {workload!r}")


def true_theta(design: ev_simulate.TreeDesign, factors) -> np.ndarray:
    """Generating sd ratios sigma_q / sigma_eps, in ``factors`` order."""
    sds = {"seed": design.sigma_seed, "hparams": design.sigma_hparam}
    return np.array([sds[f] / design.sigma_eps for f in factors])


def contrast_matrix(dm, kind: str):
    """Contrast rows and labels the battery's ``contrasts`` call tests."""
    if kind == "vs_grand":
        return (ev_design.contrast_rows(dm, dm.fixed_levels, kind="vs_grand"),
                list(dm.fixed_levels))
    combos = sorted({lv.rsplit(":", 1)[0] for lv in dm.fixed_levels})
    pairs = []
    for combo in combos:
        levels = [lv for lv in dm.fixed_levels if lv.rsplit(":", 1)[0] == combo]
        pairs.append((levels[0], levels[1]))
    return (ev_design.difference_rows(dm, pairs),
            [f"{a}-{b}" for a, b in pairs])


#: Calls of one battery, in order; each counts as one attempted operation.
BATTERY_OPS = ("generate", "ensure_factor", "build_design", "fit_lmm",
               "ranova", "anova_fixed", "contrasts")
#: Errors the library raises on purpose to refuse a request it cannot answer.
REFUSALS = (ev_inference.InferenceError, ev_lmm.FitError,
            ev_design.DesignError, ev_data.DataError,
            ev_simulate.SimulationError)


def run_battery(workload: str, seed: int, index: int) -> dict:
    """Run one table's battery through the library's module attributes.

    Calls go through ``expvar.<module>.<name>`` so wrappers installed on
    those attributes see them. Returns each call's outcome ("ok",
    "refused" or "error") and the values the checks need; timing is the
    caller's job.
    """
    design, fixed_factor, kind = mc_table(workload, seed, index)
    spec = ev_data.ModelSpec(fixed_factor=fixed_factor)
    out = {"index": index, "ops": {}, "fixed_factor": fixed_factor}

    def call(op, fn, *args, **kwargs):
        try:
            value = fn(*args, **kwargs)
        except REFUSALS as exc:
            out["ops"][op] = "refused"
            out.setdefault("messages", {})[op] = f"{type(exc).__name__}: {exc}"
            return None
        except Exception as exc:  # any other exception is a program fault
            out["ops"][op] = "error"
            out.setdefault("messages", {})[op] = f"{type(exc).__name__}: {exc}"
            return None
        out["ops"][op] = "ok"
        return value

    ds = dm = y = fit = rv = an = cs = None
    labels = []
    ds = call("generate", ev_simulate.generate, design)
    if ds is not None:
        ds = call("ensure_factor", ev_data.ensure_factor, ds, fixed_factor)
    if ds is not None:
        dm = call("build_design", ev_design.build_design, ds, spec)
    if dm is not None:
        y = ds.response()
        fit = call("fit_lmm", ev_lmm.fit_lmm, dm, y)
        rv = call("ranova", ev_inference.ranova, dm, y, spec)
    if fit is not None:
        an = call("anova_fixed", ev_inference.anova_fixed, fit,
                  ev_design.omnibus_rows(dm), term=fixed_factor)
        L, labels = contrast_matrix(dm, kind)
        cs = call("contrasts", ev_inference.contrasts, fit, L, labels=labels)
    for op in BATTERY_OPS:
        out["ops"].setdefault(op, "skipped")
    out["objects"] = {"design": design, "dm": dm, "y": y, "fit": fit,
                      "ranova": rv, "anova": an, "contrasts": cs,
                      "n_contrasts": len(labels)}
    return out
