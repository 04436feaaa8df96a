"""Run the benchmark over several seeds and record medians and quartiles.

From the root of a checkout:

    python3 perfbench/collect.py --seeds 0-9 --trace-seed 0 \
        --out perfbench/results/baseline.json

For every workload in BENCHMARK.json it runs ``run.py --trace 0`` once
per seed, one run at a time, and records each end-to-end metric's values,
median, quartiles (``statistics.quantiles(n=4)``) and spread (quartile
distance over the median, next to the metric's bound). It then runs
``--trace 1`` twice on ``--trace-seed`` and records the per-layer
numbers of both runs, checking that the exact counts agree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
#: Per-layer counts that must repeat bit for bit for one seed.
EXACT = ("lmm.deviance_evals", "inference.omega_evals", "lmm.fit_calls",
         "inference.refusals")


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"run.py {workload} seed {seed} trace {trace} exited {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(values: list[float], bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    out = {"values": values, "median": median, "q1": q1, "q3": q3,
           "spread": (q3 - q1) / median if median else None}
    if bound is not None:
        out["bound"] = bound
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-9")
    ap.add_argument("--trace-seed", type=int, default=0)
    ap.add_argument("--workloads", help="comma list (default: all)")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in names}
    env = None
    for seed in seeds:
        for w in names:
            detail, result = run(w, seed, seconds, 0)
            env = env or {k: detail[k] for k in ("git_sha", "versions", "nproc", "env")}
            runs[w].append({"seed": seed, "result": result, "detail": {
                k: detail[k] for k in ("tables", "table_s_tail_percentile",
                                       "table_s_tail_samples_beyond", "op_fail_share",
                                       "ops") if k in detail}})
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    out = {"run_seconds": seconds, "seeds": seeds, "environment": env, "workloads": {}}
    for w in names:
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs[w]]
            metrics[m["name"]] = dict(summary(values, bounds[m["name"]]), unit=m["unit"])
        traced = [run(w, args.trace_seed, seconds, 1)[1] for _ in range(2)]
        exact = {k: [t["metrics"][k]["value"] for t in traced] for k in EXACT}
        out["workloads"][w] = {
            "end_to_end": metrics,
            "all_correct": all(r["result"]["correct"] for r in runs[w]),
            "runs": runs[w],
            "traced": {"seed": args.trace_seed, "runs": [t["metrics"] for t in traced],
                       "exact_counts": exact,
                       "exact_counts_repeat": all(len(set(v)) == 1 for v in exact.values())},
        }
        for name, s in metrics.items():
            print(f"{w} {name}: median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"(bound {s['bound']})", flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
