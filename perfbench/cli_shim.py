"""Stand-in for ``python -m expvar.cli`` that samples host speed.

Imports ``expvar.cli``, starts the speed sampler of ``calib.py``, calls
``expvar.cli.main`` with the argv ``python -m expvar.cli`` would get, and
writes a JSON record to the file named first on the command line: the
speed scale sampled while ``main`` ran and the seconds spent on sampling,
which the parent takes out of the command's wall time. With a second
argument of 1 it installs the span wrappers first and adds the spans.

    python perfbench/cli_shim.py record.json 0 fit --input data.csv
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
sys.path[:0] = [HERE, SRC]
import expvar.cli  # noqa: E402


def main() -> int:
    out, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    run = expvar.cli.main
    if traced:
        import tracer as tracing

        tr = tracing.Tracer()
        tracing.install(tr, cli=True)
        tr.unit = argv[0]
        run = tr.wrap(expvar.cli.main, f"cli.{argv[0].replace('-', '_')}")
    t0 = time.perf_counter()
    import calib
    import workloads

    workloads.check_checkout(SRC)
    sampler = calib.Sampler().start()
    record = {"cal_s": time.perf_counter() - t0}
    try:
        return run(argv)
    finally:
        sampler.stop()
        record["cal_s"] += sampler.spent()
        record["samples"] = len(sampler.samples)
        # a command too short to be sampled is reported unscaled
        record["scale"] = sampler.scale() if sampler.samples else 1.0
        if traced:
            record.update(spans=tr.spans, missing_wrappers=tr.missing)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
