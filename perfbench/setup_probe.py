"""Fresh-interpreter set-up probe: import, then one paper-sized fit.

Prints one JSON line as soon as the first ``fit_lmm`` returns; the parent
times from launching this process to reading that line, which covers
interpreter start, ``import expvar.cli`` and the lazy SciPy/BLAS warm-up
of the first fit. The line also gives the host speed sampled during the
fit (``calib.py``), which scales the whole interval, and the seconds the
sampling took, which the parent leaves out.

    python perfbench/setup_probe.py --seed 0
"""

import argparse
import json
import os
import sys
import time

t0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
sys.path[:0] = [HERE, SRC]
import expvar.cli  # noqa: E402,F401

import_s = time.perf_counter() - t0

import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    workloads.check_checkout(SRC)
    design = workloads.paper_design(workloads.table_seed(args.seed, 0))
    t_prep = time.perf_counter()
    import calib

    sampler = calib.Sampler().start()
    t1 = time.perf_counter()
    ds = expvar.ensure_factor(expvar.generate(design), "model:optimizer")
    expvar.fit_lmm(expvar.build_design(ds, expvar.ModelSpec()), ds.response())
    t2 = time.perf_counter()
    sampler.stop()
    excluded_s = t1 - t_prep + sampler.spent()
    fit_s = t2 - t1 - sampler.spent()
    print(json.dumps({"import_s": import_s, "first_fit_s": fit_s,
                      "excluded_s": excluded_s, "scale": sampler.scale(),
                      "versions": {"python": sys.version.split()[0],
                                   "numpy": numpy.__version__,
                                   "scipy": scipy.__version__}}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
