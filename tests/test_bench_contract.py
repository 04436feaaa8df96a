"""The library names the benchmark under ``perfbench/`` calls.

The benchmark wraps and calls expvar's module attributes by name, in fresh
processes. A renamed or removed name would fail only there, so this test
makes the same calls in a fresh interpreter with ``src`` and ``perfbench``
on the path.
"""

import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import math

import tracer
import workloads
from expvar import data, design, lmm, simulate

# every name the tracer wraps, the CLI's own imports included, still exists
tr = tracer.Tracer()
tracer.install(tr, cli=True)
assert tr.missing == [], tr.missing

# one mc_paper table's battery, through the wrapped names
out = workloads.run_battery("mc_paper", 0, 0)
assert out["ops"] and set(out["ops"].values()) == {"ok"}, out

# the reduced-model probe of cli_check.py --probe
spec = data.ModelSpec()
gen = workloads.paper_design(0)
ds = data.ensure_factor(simulate.generate(gen), spec.fixed_factor)
dm = design.build_design(ds, spec)
truth = workloads.true_theta(gen, dm.z_blocks)
for i, factor in enumerate(dm.z_blocks):
    kept = [t for j, t in enumerate(truth) if j != i]
    dev = lmm.reml_deviance(design.drop_random_factor_design(dm, factor),
                            ds.response(), kept)
    assert math.isfinite(dev), (factor, dev)
print("contract ok")
"""


def test_benchmark_entry_points_resolve_and_run():
    path = os.pathsep.join([str(_ROOT / "src"), str(_ROOT / "perfbench")])
    # no bytecode cache: the run leaves perfbench/ as it found it
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([sys.executable, "-c", _SCRIPT], cwd=_ROOT, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().endswith("contract ok")
