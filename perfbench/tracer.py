"""In-memory spans around calls into expvar, and their per-layer totals.

A span is ``[name, start, end, parent, unit, info]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``unit`` names the unit of
work it belongs to (a table index or a CLI command) and ``info`` holds
counts read from the call's result. Spans stay in memory until the run
ends. Wrappers replace the module-level names that callers look up at
call time, so the library itself is not changed. This module imports
expvar only inside :func:`install`, so the parent process can aggregate
spans without importing the library.
"""

from __future__ import annotations

import hashlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.unit = None
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, fn, name: str, on_result=None):
        """Wrap ``fn`` so each call records a span called ``name``."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.unit, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = {"raised": type(exc).__name__}
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                rec[5] = on_result(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` with a traced version, if it exists."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.wrap(fn, name, on_result))


def _fit_info(fit, args):
    dm, y = args[0], args[1]
    key = hashlib.blake2b(digest_size=12)  # same data and random part, same key
    for part in (dm.X.tobytes(), repr((tuple(dm.z_blocks), dm.Z.shape)).encode(),
                 y.tobytes()):
        key.update(part)
    return {"evals": int(fit.deviance_profile_evals),
            "converged": bool(fit.converged),
            "boundary": any(s == 0.0 for s in fit.vc.sigma2),
            "key": key.hexdigest()}


def _z_bytes(dm, args):
    return {"z_bytes": int(dm.Z.nbytes)}


def _rows(dataset, args):
    return {"rows": int(dataset.n)}


def install(tracer: Tracer, cli: bool = False) -> None:
    """Wrap the layer entry points of expvar that the workloads reach.

    Battery calls go through ``expvar.<module>.<name>``; calls made inside
    the library go through the importing module's own global (for example
    ``expvar.inference.fit_lmm``), so both names are wrapped. With ``cli``
    the names ``expvar.cli`` imported are wrapped as well.
    """
    from expvar import cli as ev_cli
    from expvar import data, design, inference, lmm, report, simulate

    p = tracer.patch
    for owner in (simulate,) + ((ev_cli,) if cli else ()):
        p(owner, "generate", "simulate.generate", _rows)
    for owner in (data,) + ((ev_cli,) if cli else ()):
        p(owner, "ensure_factor", "data.ensure_factor")
    for owner in (design,) + ((ev_cli,) if cli else ()):
        p(owner, "build_design", "design.build_design", _z_bytes)
    for owner in (lmm, inference) + ((ev_cli,) if cli else ()):
        p(owner, "fit_lmm", "lmm.fit_lmm", _fit_info)
    for owner in (inference,) + ((ev_cli,) if cli else ()):
        p(owner, "ranova", "inference.ranova")
        p(owner, "anova_fixed", "inference.anova_fixed")
        p(owner, "contrasts", "inference.contrasts")
    p(lmm, "reml_deviance", "lmm.reml_deviance")
    p(inference, "drop_random_factor_design", "design.drop_random_factor_design",
      _z_bytes)
    p(inference, "satterthwaite_df", "inference.satterthwaite_df")
    p(inference, "_omega_covariance", "inference.omega_covariance")
    for fn in ("chisq_sf", "f_sf", "t_sf", "t_quantile"):
        p(inference, fn, "tails")
    p(lmm.FittedLMM, "deviance_at_omega", "lmm.deviance_at_omega")
    p(lmm.FittedLMM, "vcov_beta_at_omega", "lmm.vcov_beta_at_omega")
    if cli:
        p(ev_cli, "load_csv", "data.load_csv", _rows)
        p(ev_cli, "write_csv", "data.write_csv")
        p(ev_cli, "boxplot_table", "report.boxplot_table")
        for method in ("to_csv", "to_json", "to_text"):
            p(report.Table, method, "report.render")


# --- aggregation (no expvar import) ---------------------------------------


def per_unit(spans) -> dict:
    """Per unit of work: seconds per span name and self seconds per name.

    Self time is a span's duration minus the durations of its direct
    children; spans nest and never overlap in these single-threaded runs.
    """
    total = defaultdict(lambda: defaultdict(float))
    child = defaultdict(float)
    for name, start, end, parent, unit, info in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, unit, info) in enumerate(spans):
        total[unit][name] += end - start
        self_s[unit][name] += (end - start) - child.get(i, 0.0)
    return {"total": total, "self": self_s}

