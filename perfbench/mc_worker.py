"""Child process of the Monte-Carlo workloads (mc_paper, mc_boundary).

One closed-loop client runs table batteries back to back, in process,
until the time is up, checking each table's outputs outside its timed
battery, and writes a JSON record to ``--out``. Each table's wall time is
scaled by the host speed sampled while it ran (see ``calib.py``). With
``--trace 1`` it first runs untraced for half the time, then installs
the span wrappers and runs the same tables again for the other half, at
least ``--count-tables`` of them so that counts over that fixed prefix
repeat exactly.

    python perfbench/mc_worker.py --workload mc_paper --seed 0 \
        --seconds 30 --trace 0 --count-tables 16 --out result.json
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
sys.path[:0] = [HERE, SRC]

import calib  # noqa: E402
import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from expvar import lmm as ev_lmm  # noqa: E402


def check_table(result: dict, refs: dict, seed: int) -> tuple[str, dict]:
    """Check one battery's outputs; returns (how, problems by operation)."""
    obj = result["objects"]
    ref = checks.reference(refs, seed, result["index"])
    how = "reference" if ref is not None else "oracle"
    problems = {}

    def deviance_check(devs, fit=None):
        if ref is not None:
            return checks.check_against_reference(devs, ref)
        theta_true = workloads.true_theta(obj["design"], obj["dm"].z_blocks)
        return checks.check_with_oracle(devs, obj["dm"], obj["y"], theta_true, fit)

    if obj["fit"] is not None:
        problems["fit_lmm"] = deviance_check(checks.fit_deviances(obj["fit"]), obj["fit"])
    if obj["ranova"] is not None:
        problems["ranova"] = deviance_check(checks.ranova_deviances(obj["ranova"]))
    if obj["anova"] is not None:
        problems["anova_fixed"] = checks.check_anova(obj["anova"],
                                                     len(obj["dm"].fixed_levels))
    if obj["contrasts"] is not None:
        problems["contrasts"] = checks.check_contrasts(obj["contrasts"],
                                                       obj["n_contrasts"])
    return how, {op: p for op, p in problems.items() if p}


def outcomes(result: dict, problems: dict) -> dict:
    """Final outcome per operation, folding in convergence and checks."""
    obj = result["objects"]
    ops = dict(result["ops"])
    if obj["fit"] is not None and not obj["fit"].converged:
        ops["fit_lmm"] = "nonconverged"
    rv = obj["ranova"]
    if rv is not None and not (rv.converged and all(r.converged for r in rv.rows)):
        ops["ranova"] = "nonconverged"
    for op in problems:
        ops[op] = "check_failed"
    return ops


def run_phase(args, refs, sampler, seconds: float, min_tables: int,
              tr=None) -> list[dict]:
    tables = []
    start = time.perf_counter()
    index = 0
    while index < min_tables or time.perf_counter() - start < seconds:
        if tr is not None:
            tr.unit = index
        t0 = time.perf_counter()
        result = workloads.run_battery(args.workload, args.seed, index)
        t1 = time.perf_counter()
        wall = t1 - t0 - sampler.spent(t0, t1)
        scale = sampler.scale(t0, t1)
        obj = result["objects"]
        if tr is not None and obj["fit"] is not None:
            # one public reml_deviance call (workspace build plus one eval),
            # outside the table's timed battery
            ev_lmm.reml_deviance(obj["dm"], obj["y"], obj["fit"].theta)
        how, problems = check_table(result, refs, args.seed)
        tables.append({"unit": index, "latency_s": wall * scale, "wall_s": wall,
                       "scale": scale,
                       "ops": outcomes(result, problems),
                       "messages": result.get("messages", {}),
                       "checked_by": how, "problems": problems})
        index += 1
    return tables


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.MC_WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--count-tables", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    workloads.check_checkout(SRC)
    refs = checks.load_refs(args.workload)

    # lazy SciPy/BLAS set-up is paid once per process (setup_s measures
    # it); two tables outside the measured sequence take it out of the loop
    for index in (workloads.STRIDE - 2, workloads.STRIDE - 1):
        workloads.run_battery(args.workload, args.seed, index)
    sampler = calib.Sampler().start()
    record = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        record["untraced"] = run_phase(args, refs, sampler, args.seconds / 2.0, 1)
        tr = tracing.Tracer()
        tracing.install(tr)
        record["tables"] = run_phase(args, refs, sampler, args.seconds / 2.0,
                                     args.count_tables, tr)
        record["spans"] = tr.spans
        record["missing_wrappers"] = tr.missing
        record["count_tables"] = args.count_tables
    else:
        record["tables"] = run_phase(args, refs, sampler, args.seconds, 1)
    sampler.stop()
    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
