"""expvar benchmark: Monte-Carlo batteries and a large-table CLI session.

Run from the root of a checkout (the directory holding ``src/expvar``):

    python3 perfbench/run.py --workload mc_paper --seed 0 --seconds 30 --trace 0

Workloads, each a closed loop of one client, with BLAS pinned to one
thread and at most one child process running at a time:

* ``mc_paper``: Monte-Carlo tables of the paper's size (180 rows, q = 9),
  each run through generate -> ensure_factor -> build_design -> fit_lmm
  -> ranova -> anova_fixed -> contrasts in one process.
* ``mc_boundary``: the same battery on the criterion 8 designs, H1
  (sigma_seed = 0) and H3 (fixed factor model:optimizer:rerun), in turn.
* ``cli_large``: sessions of fresh ``expvar.cli`` processes (started
  through ``cli_shim.py``, which adds the speed sampling) on a 60k-row,
  q = 150 table: simulate, fit, ranova, anova, contrasts, boxplot-data.

A unit of work is one table's battery: on cli_large the battery of the
one large table is a whole CLI session. Every run first times
``SETUP_PROBES`` fresh interpreters from launch to the end of their first
paper-sized fit. The process doing each timed interval (a probe, a
table, a CLI command) samples its core's speed (``calib.py``), and the
interval's wall time is reported scaled to the nominal speed; the detail
line keeps the unscaled wall times. ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` runs untraced for half the time and traced
for the other half, and prints the per-layer metrics. The last stdout
line is the JSON result; the line before it is a JSON detail record, and
the full record goes to ``.perfbench/out/``.

Exit status: 0 when every output check passed; 1 when a check failed or a
call raised an error the library does not document (the result line is
still printed); 2 when the checkout holds no expvar source or a child
process failed (no result line).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
os.environ.update(PINNED_ENV)  # before NumPy loads, here and in every child

import checks  # noqa: E402
import tracer as tracing  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench", "tmp")
OUT = os.path.join(ROOT, ".perfbench", "out")
WORKLOADS = ("mc_paper", "mc_boundary", "cli_large")
SETUP_PROBES = 5
#: Traced Monte-Carlo runs count layer work over this many first tables,
#: so the counts repeat exactly whatever the machine's speed.
COUNT_TABLES = 16
#: No child may outlive this many seconds after the run started.
RUN_DEADLINE_S = 170.0
CLI_COMMANDS = ("simulate", "fit", "ranova", "anova", "contrasts", "boxplot-data")
LARGE_DESIGN = os.path.join(HERE, "cli_large_design.json")
#: Traced Monte-Carlo runs also trace one CLI session of this paper-sized
#: design, so the CLI-side layers (data I/O, report, cli) are measured at
#: paper size on those workloads instead of reading an identical 0.
PAPER_DESIGN = os.path.join(HERE, "cli_paper_design.json")


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def run_child(argv, deadline: float, capture: bool = False,
              on_first_line=None) -> dict:
    """Run one child to completion; returns its exit code, wall time, peak RSS.

    With ``capture`` the child's stdout is returned as ``stdout``;
    ``on_first_line``, if given, is called with its first line and the
    time that line arrived. A child still running at ``deadline`` is
    killed.
    """
    capture = capture or on_first_line is not None
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                            text=True)
    timer = threading.Timer(max(deadline - time.perf_counter(), 0.0),
                            lambda: proc.send_signal(signal.SIGKILL))
    timer.start()
    text = ""
    try:
        if capture:
            text = proc.stdout.readline()
            if on_first_line is not None:
                on_first_line(text, time.perf_counter())
            text += proc.stdout.read()
            proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    except BaseException:  # interrupted or terminated: leave no child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall,
            "maxrss_kb": usage.ru_maxrss, "stdout": text}


def python(script: str, *args) -> list[str]:
    return [sys.executable, os.path.join(HERE, script), *map(str, args)]


def measure_setup(seed: int, deadline: float) -> list[dict]:
    """Launch-to-first-fit seconds of SETUP_PROBES fresh interpreters."""
    probes = []
    for _ in range(SETUP_PROBES):
        marks = {}

        def first_line(line, when, marks=marks):
            marks["line"], marks["at"] = line, when

        start = time.perf_counter()
        res = run_child(python("setup_probe.py", "--seed", seed), deadline,
                        on_first_line=first_line)
        if res["code"] != 0 or not marks.get("line", "").strip():
            raise ChildFailed(f"setup probe exited {res['code']}")
        info = json.loads(marks["line"])
        info["setup_wall_s"] = marks["at"] - start - info["excluded_s"]
        info["setup_s"] = info["setup_wall_s"] * info["scale"]
        probes.append(info)
    return probes


# --- Monte-Carlo workloads -------------------------------------------------


def run_mc(args, deadline: float) -> dict:
    out = os.path.join(WORK, "mc_worker.json")
    res = run_child(python("mc_worker.py", "--workload", args.workload,
                           "--seed", args.seed, "--seconds", args.seconds,
                           "--trace", args.trace, "--count-tables", COUNT_TABLES,
                           "--out", out), deadline)
    if res["code"] != 0:
        raise ChildFailed(f"mc_worker exited {res['code']}")
    with open(out, encoding="utf-8") as fh:
        rec = json.load(fh)
    rec["peak_rss_mb"] = rec.pop("peak_rss_kb") / 1024.0
    if args.trace:
        rec["window"] = list(range(COUNT_TABLES))
        session = cli_session(args, "paper", True, None, deadline, PAPER_DESIGN)
        rec["cli"] = {"tables": [session], "spans": session.pop("spans"),
                      "window": ["paper"]}
    return rec


# --- cli_large -------------------------------------------------------------


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_session(sim: str, out: str, ref: dict | None, design: str) -> dict:
    """Problems found in one session's outputs, by command."""
    d = read_json(design)
    n_rows = len(d["combos"]) * d["n_seeds"] * d["n_configs"] * d["n_reruns"]
    n_groups = len(d["combos"]) * d["n_seeds"] * d["n_configs"]
    expected_rows = {
        "fit": {"variance_components": 3, "fixed_effects": len(d["combos"])},
        "ranova": {"random_effects_anova": 2},
        "anova": {"fixed_effects_anova": 1},
        "contrasts": {"means_comparisons": len(d["combos"])},
        "boxplot-data": {"boxplot_data": n_groups},
    }
    problems: dict[str, list[str]] = {c: [] for c in CLI_COMMANDS}

    def load(command, path):
        try:
            return read_json(path)
        except (OSError, ValueError) as exc:
            problems[command].append(f"{os.path.basename(path)}: {exc}")
            return None

    truth = load("simulate", os.path.join(sim, "truth.json"))
    if truth is not None and truth.get("n_records") != n_rows:
        problems["simulate"].append(f"n_records {truth.get('n_records')} != {n_rows}")
    for command, tables in expected_rows.items():
        for name, rows in tables.items():
            obj = load(command, os.path.join(out, f"{name}.json"))
            if obj is not None and len(obj.get("rows", ())) != rows:
                problems[command].append(f"{name}.json has {len(obj['rows'])} rows, "
                                         f"expected {rows}")
    devs = {}
    fit = load("fit", os.path.join(out, "fit_summary.json"))
    if fit is not None:
        devs["fit"] = {"full": [-2.0 * fit["loglik"]]}
        if not fit.get("converged"):
            problems["fit"].append("fit did not converge")
    summary = load("ranova", os.path.join(out, "ranova_summary.json"))
    lrt = load("ranova", os.path.join(out, "random_effects_anova.json"))
    if summary is not None and lrt is not None:
        devs["ranova"] = {"full": [-2.0 * summary["full_loglik"]]}
        for row in lrt["rows"]:
            devs["ranova"]["-" + row["label"][5:-1]] = [-2.0 * row["logLik"]]
    if ref is not None:
        for command, values in devs.items():
            problems[command] += checks.check_against_reference(values, ref)
    boxes = load("boxplot-data", os.path.join(out, "boxplot_data.json"))
    if boxes is not None and any(r["n"] != d["n_reruns"] for r in boxes["rows"]):
        problems["boxplot-data"].append("a group's count differs from n_reruns")
    return {c: p for c, p in problems.items() if p}


def cli_session(args, index, traced: bool, ref, deadline: float,
                design: str = LARGE_DESIGN) -> dict:
    """One simulate -> fit -> ranova -> anova -> contrasts -> boxplot-data session."""
    base = os.path.join(WORK, f"session{index}")
    shutil.rmtree(base, ignore_errors=True)
    sim, out = os.path.join(base, "sim"), os.path.join(base, "out")
    argvs = {"simulate": ["simulate", "--design", design, "--output-dir", sim,
                          "--seed", str(args.seed)]}
    for command in CLI_COMMANDS[1:]:
        argvs[command] = [command, "--input", os.path.join(sim, "dataset.csv"),
                          "--output-dir", out]
    ops, walls, rss, spans, missing = {}, {}, 0.0, [], set()
    latency = 0.0
    for command in CLI_COMMANDS:
        rec_file = os.path.join(base, f"shim_{command}.json")
        res = run_child(python("cli_shim.py", rec_file, int(traced), *argvs[command]),
                        deadline)
        rss = max(rss, res["maxrss_kb"] / 1024.0)
        ops[command] = {0: "ok", 1: "refused"}.get(res["code"], "error")
        if not os.path.exists(rec_file):
            raise ChildFailed(f"cli_shim {command} exited {res['code']} without a record")
        trace = read_json(rec_file)
        walls[command] = res["wall_s"] - trace["cal_s"]
        latency += walls[command] * trace["scale"]
        if traced:
            offset = len(spans)
            missing.update(trace["missing_wrappers"])
            for name, s0, s1, parent, _, info in trace["spans"]:
                spans.append([name, s0, s1, parent + offset if parent >= 0 else -1,
                              index, info])
    wall = sum(walls.values())
    problems = check_session(sim, out, ref, design)
    for command in problems:
        ops[command] = "check_failed"
    out_bytes = sum(e.stat().st_size for e in os.scandir(out)) if os.path.isdir(out) else 0
    return {"unit": index, "latency_s": latency, "wall_s": wall,
            "scale": latency / wall, "ops": ops, "walls": walls,
            "peak_rss_mb": rss, "problems": problems, "spans": spans,
            "report_bytes": out_bytes, "dir": base, "missing_wrappers": sorted(missing)}


def run_cli(args, deadline: float) -> dict:
    ref = checks.reference(checks.load_refs("cli_large"), args.seed, 0)

    def phase(seconds, traced, first_index):
        sessions = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            sessions.append(cli_session(args, first_index + len(sessions), traced,
                                        ref, deadline))
            if len(sessions) > 1:  # only the newest session's files are kept
                shutil.rmtree(sessions[-2]["dir"], ignore_errors=True)
        return sessions

    rec = {"workload": "cli_large", "seed": args.seed}
    if args.trace:
        rec["untraced"] = phase(args.seconds / 2.0, False, 0)
        rec["tables"] = phase(args.seconds / 2.0, True, len(rec["untraced"]))
        rec["window"] = [rec["tables"][0]["unit"]]
    else:
        rec["tables"] = phase(args.seconds, False, 0)
    last = rec["tables"][-1]
    if args.trace or ref is None:
        # reml_deviance timing (trace) and the fallback check (no reference)
        argv = python("cli_check.py", "--csv", os.path.join(last["dir"], "sim", "dataset.csv"),
                      "--out-dir", os.path.join(last["dir"], "out"), "--seed", args.seed)
        if ref is None:
            argv.append("--probe")
        res = run_child(argv, deadline, capture=True)
        if res["code"] != 0:
            raise ChildFailed(f"cli_check exited {res['code']}")
        rec["cli_check"] = json.loads(res["stdout"].strip().splitlines()[-1])
        if rec["cli_check"]["problems"]:
            last["ops"]["fit"] = "check_failed"
            last["problems"]["fit"] = rec["cli_check"]["problems"]
    rec["spans"] = [s for t in rec["tables"] for s in t.pop("spans")]
    for t in rec.get("untraced", []):
        t.pop("spans")
    rec["peak_rss_mb"] = max(t["peak_rss_mb"] for t in rec["tables"])
    if args.trace:
        rec["cli"] = {k: rec[k] for k in ("tables", "spans", "window")}
    return rec


# --- metrics ----------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond) of the highest whole percentile
    that has at least ten samples above it (nearest rank); the maximum when
    there are too few samples for any."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct * n / 100.0)
        if n - rank >= 10:
            return ordered[rank - 1], pct, n - rank
    return ordered[-1], 100, 0


def end_to_end(rec: dict, setup: list[dict]) -> tuple[dict, dict]:
    """Metrics in nominal-speed seconds; wall-clock medians go in the detail."""
    lat = [t["latency_s"] for t in rec["tables"]]
    value, pct, beyond = tail(lat)
    ops = [o for t in rec["tables"] for o in t["ops"].values()]
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in setup),
        "table_s_p50": statistics.median(lat),
        "table_s_tail": value,
        "tables_per_s": len(lat) / sum(lat),
        "peak_rss_mb": rec["peak_rss_mb"],
        "op_ok_share": ops.count("ok") / len(ops),
    }
    detail = {"tables": len(lat), "table_s_tail_percentile": pct,
              "table_s_tail_samples_beyond": beyond,
              "op_fail_share": 1.0 - metrics["op_ok_share"],
              "table_wall_s_p50": statistics.median(t["wall_s"] for t in rec["tables"]),
              "setup_wall_s": statistics.median(p["setup_wall_s"] for p in setup),
              "speed_scale_p50": statistics.median(t["scale"] for t in rec["tables"]),
              "ops": {o: ops.count(o) for o in sorted(set(ops))}}
    if rec["workload"] == "cli_large":
        detail["cli_session_s"] = metrics["table_s_p50"]
    return metrics, detail


class Layers:
    """Span totals of one traced part of a run: its units and count window."""

    def __init__(self, part: dict):
        self.spans = part["spans"]
        self.agg = tracing.per_unit(self.spans)
        self.units = [t["unit"] for t in part["tables"]]
        #: span seconds are scaled by their unit's speed factor, like its latency
        self.scale = {t["unit"]: t["scale"] for t in part["tables"]}
        window = set(part["window"])
        self.in_window = [s for s in self.spans if s[4] in window]

    def total(self, *names, kind="total") -> float:
        """Median over units of the seconds spent in spans called ``names``."""
        return statistics.median(
            self.scale[u] * sum(self.agg[kind].get(u, {}).get(n, 0.0) for n in names)
            for u in self.units)

    def named(self, *names) -> list:
        """Spans in the count window called ``names``."""
        return [s for s in self.in_window if s[0] in names]

    def info_sum(self, key: str, *names) -> int:
        return sum(s[5][key] for s in self.named(*names) if s[5] and key in s[5])


def per_layer(rec: dict, setup: list[dict]) -> dict:
    run, cli = Layers(rec), Layers(rec["cli"])
    fits = run.named("lmm.fit_lmm")
    fit_info = [s[5] for s in fits if s[5] and "evals" in s[5]]
    all_fits = [s for s in run.spans if s[0] == "lmm.fit_lmm" and s[5] and "evals" in s[5]]
    refusals = [s for s in run.named("inference.ranova", "inference.anova_fixed",
                                     "inference.contrasts")
                if s[5] and s[5].get("raised") == "InferenceError"]
    large = rec["workload"] == "cli_large"
    untraced, traced = rec["untraced"], rec["tables"]
    if not large:  # both phases run the same tables: compare the common prefix
        k = min(len(untraced), len(traced))
        untraced, traced = untraced[:k], traced[:k]
    untraced = statistics.median(t["latency_s"] for t in untraced)
    traced = statistics.median(t["latency_s"] for t in traced)
    m = {
        "lmm.deviance_evals": sum(i["evals"] for i in fit_info),
        "lmm.evals_per_fit_p50": statistics.median(i["evals"] for i in fit_info),
        "lmm.s_per_eval": sum((s[2] - s[1]) * run.scale[s[4]] for s in all_fits)
        / sum(s[5]["evals"] for s in all_fits),
        "lmm.fit_s": run.total("lmm.fit_lmm"),
        "lmm.nonconverged": sum(not i["converged"] for i in fit_info),
        "lmm.boundary_fits": sum(i["boundary"] for i in fit_info),
        "lmm.fit_calls": len(fits),
        "lmm.distinct_fit_share": len({(s[4], s[5]["key"]) for s in fits}) / len(fits),
        "lmm.reml_deviance_s": (rec["cli_check"]["reml_deviance_s"] if large
                                else run.total("lmm.reml_deviance")),
        "inference.ranova_s": run.total("inference.ranova"),
        "inference.ranova_self_s": run.total("inference.ranova", kind="self"),
        "inference.anova_s": run.total("inference.anova_fixed"),
        "inference.contrasts_s": run.total("inference.contrasts"),
        "inference.satterthwaite_calls": len(run.named("inference.satterthwaite_df")),
        "inference.satterthwaite_s": run.total("inference.satterthwaite_df",
                                               "inference.omega_covariance"),
        "inference.omega_evals": len(run.named("lmm.deviance_at_omega",
                                               "lmm.vcov_beta_at_omega")),
        "inference.refusals": len(refusals),
        "data.load_csv_s": cli.total("data.load_csv"),
        "data.write_csv_s": cli.total("data.write_csv"),
        "data.ensure_factor_s": run.total("data.ensure_factor"),
        "data.rows_read": cli.info_sum("rows", "data.load_csv"),
        "design.build_design_s": run.total("design.build_design"),
        "design.z_bytes_computed": run.info_sum("z_bytes", "design.build_design",
                                                "design.drop_random_factor_design"),
        "report.boxplot_table_s": cli.total("report.boxplot_table"),
        "report.render_s": cli.total("report.render"),
        "report.bytes_written": rec["cli"]["tables"][0]["report_bytes"],
        "cli.self_s": cli.total(*(f"cli.{c.replace('-', '_')}" for c in CLI_COMMANDS),
                                kind="self"),
        "cli.import_s": statistics.median(p["import_s"] * p["setup_s"] / p["setup_wall_s"]
                                          for p in setup),
        "simulate.generate_s": run.total("simulate.generate"),
        "simulate.rows": run.info_sum("rows", "simulate.generate"),
        "tails.s": run.total("tails"),
        "trace.overhead_s": traced - untraced,
        "trace.overhead_share": (traced - untraced) / untraced,
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command.replace('-', '_')}_s"] = statistics.median(
            t["walls"][command] * t["scale"] for t in rec["cli"]["tables"])
    return m


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    try:
        head = open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8").read().strip()
        if head.startswith("ref: "):
            return open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8").read().strip()
        return head
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "expvar", "__init__.py")):
        sys.stderr.write(f"perfbench: no expvar source under {SRC}; run from the "
                         f"root of an expvar checkout\n")
        return 2
    spec = read_json(os.path.join(ROOT, "BENCHMARK.json"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.perf_counter() + RUN_DEADLINE_S
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    os.makedirs(OUT, exist_ok=True)
    try:
        setup = measure_setup(args.seed, deadline)
        rec = run_cli(args, deadline) if args.workload == "cli_large" else run_mc(args, deadline)
    except (ChildFailed, OSError, ValueError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    metrics, detail = end_to_end(rec, setup)
    if args.trace:
        metrics = per_layer(rec, setup)
    units = rec["tables"] + rec.get("untraced", [])
    if args.trace and args.workload != "cli_large":
        units += rec["cli"]["tables"]
    ops = [o for t in units for o in t["ops"].values()]
    failed = ops.count("error") + ops.count("check_failed")
    problems = {t["unit"]: t["problems"] for t in units if t["problems"]}
    detail.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "versions": setup[0]["versions"],
        "nproc": os.cpu_count(), "env": PINNED_ENV, "setup_s_runs": [p["setup_s"] for p in setup],
        "setup_wall_s_runs": [p["setup_wall_s"] for p in setup],
        "problems": problems,
        "missing_wrappers": sorted(set(rec.get("missing_wrappers", [])).union(
            *(t.get("missing_wrappers", []) for t in units))),
    })
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    full = dict(detail, latencies_s=[t["latency_s"] for t in rec["tables"]], result=result)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
