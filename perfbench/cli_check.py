"""Child process that checks a cli_large session's fit from its outputs.

Times one public ``reml_deviance`` call (a workspace build plus one
evaluation) at the variance components ``fit`` reported, scaled by the
host speed sampled during it (``calib.py``), and checks that
it reproduces the reported deviance. With ``--probe`` (used when no
reference deviance is recorded for the seed) it also checks that neither
the full nor a reduced model loses to the generating theta. At 60k rows
the dense oracle of the Monte-Carlo checks does not fit in memory, so
these probes use the library's own ``reml_deviance``.

    python perfbench/cli_check.py --csv sim/dataset.csv \
        --out-dir out --seed 0 [--probe]
"""

import argparse
import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
sys.path[:0] = [HERE, SRC]

import expvar  # noqa: E402
from expvar import design as ev_design  # noqa: E402

import calib  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--csv", required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()
    workloads.check_checkout(SRC)
    with open(os.path.join(args.out_dir, "fit_summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    with open(os.path.join(args.out_dir, "random_effects_anova.json"),
              encoding="utf-8") as fh:
        reduced = {row["label"][5:-1]: -2.0 * row["logLik"]
                   for row in json.load(fh)["rows"]}  # "(1 | seed)" -> seed
    spec = expvar.ModelSpec()
    ds = expvar.ensure_factor(expvar.load_csv(args.csv, spec), spec.fixed_factor)
    dm = expvar.build_design(ds, spec)
    y = ds.response()
    vc = summary["variance_components"]
    theta = [math.sqrt(vc[f] / vc["Residual"]) for f in dm.z_blocks]
    fit_dev = -2.0 * summary["loglik"]

    sampler = calib.Sampler().start()
    t0 = time.perf_counter()
    at_fit = expvar.reml_deviance(dm, y, theta)
    t1 = time.perf_counter()
    sampler.stop()
    reml_s = (t1 - t0 - sampler.spent(t0, t1)) * sampler.scale(t0, t1)
    problems = []
    if abs(at_fit - fit_dev) > checks.TOL + 1e-9 * abs(at_fit):
        problems.append(f"reml_deviance {at_fit!r} at the reported components "
                        f"differs from the reported deviance {fit_dev!r}")
    if args.probe:
        truth = workloads.true_theta(workloads.cli_design(args.seed), dm.z_blocks)
        probe = expvar.reml_deviance(dm, y, truth)
        if not fit_dev <= probe + checks.TOL:
            problems.append(f"full deviance {fit_dev!r} above its value "
                            f"{probe!r} at the generating theta")
        for i, factor in enumerate(dm.z_blocks):
            kept = [t for j, t in enumerate(truth) if j != i]
            probe = expvar.reml_deviance(
                ev_design.drop_random_factor_design(dm, factor), y, kept)
            if not reduced[factor] <= probe + checks.TOL:
                problems.append(f"-{factor} deviance {reduced[factor]!r} above "
                                f"its value {probe!r} at the generating theta")
    print(json.dumps({"reml_deviance_s": reml_s, "problems": problems}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
