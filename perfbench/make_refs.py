"""Record the reference REML deviances the output checks compare against.

Run at the commit whose results the references pin, from the checkout
root; it rewrites ``perfbench/ref/<workload>.json``:

    python perfbench/make_refs.py --workload mc_paper --seeds 0-19 --tables 80
    python perfbench/make_refs.py --workload cli_large --seeds 0-19

Each table stores the deviance of the full model and of each model with
one random factor dropped ("-seed", "-hparams"), as ``ranova`` fits them.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
sys.path[:0] = [HERE, SRC]

import expvar  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def table_deviances(design, fixed_factor: str) -> dict:
    spec = expvar.ModelSpec(fixed_factor=fixed_factor)
    ds = expvar.ensure_factor(expvar.generate(design), fixed_factor)
    result = expvar.ranova(expvar.build_design(ds, spec), ds.response(), spec)
    devs = {"full": -2.0 * result.full_loglik}
    for row in result.rows:
        devs[f"-{row.factor}"] = -2.0 * row.loglik
    return devs


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=workloads.MC_WORKLOADS + ("cli_large",))
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-19")
    ap.add_argument("--tables", type=int, default=1)
    args = ap.parse_args()
    workloads.check_checkout(SRC)
    seeds = {}
    for seed in seed_range(args.seeds):
        if args.workload == "cli_large":
            seeds[str(seed)] = [table_deviances(workloads.cli_design(seed),
                                                "model:optimizer")]
        else:
            seeds[str(seed)] = [
                table_deviances(*workloads.mc_table(args.workload, seed, i)[:2])
                for i in range(args.tables)]
        print(f"{args.workload} seed {seed} done", flush=True)
    os.makedirs(checks.REF_DIR, exist_ok=True)
    path = os.path.join(checks.REF_DIR, f"{args.workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "tolerance": checks.TOL,
                   "seeds": seeds}, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
