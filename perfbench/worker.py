"""One invocation of a benchmark workload, in a fresh process.

Usage: ``python3 perfbench/worker.py JOB.json SPAWN_TIME``

``SPAWN_TIME`` is the parent's ``time.monotonic()`` reading just before it
started this process (the same clock in every process on Linux), so
``setup_s`` covers interpreter start, imports and parsing the configs,
which builds each model.  The workload commands then
run in-process through ``gapextremes.cli.main`` with their console output
captured.  The result, and the spans when tracing, are written as JSON to
the paths named in the job file.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    job_path, spawn_time = sys.argv[1], float(sys.argv[2])
    with open(job_path) as fh:
        job = json.load(fh)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import numpy
    import scipy

    import gapextremes
    from gapextremes import cli, harness

    if not os.path.abspath(gapextremes.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"gapextremes imported from {gapextremes.__file__}, not {src}", file=sys.stderr)
        return 3

    for path in job["setup_configs"]:
        with open(path) as fh:
            harness.parse_config(json.load(fh))
    setup_s = time.monotonic() - spawn_time

    # installed after set-up, so every span lies inside a timed command
    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    out_dir = job["out_dir"]
    commands = []
    console = io.StringIO()
    start = time.perf_counter()
    for argv in job["commands"]:
        err = io.StringIO()
        crash = None
        code = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(console), contextlib.redirect_stderr(err):
                code = cli.main([*argv, "--out", out_dir])
        except Exception:  # recorded and counted as a failed operation
            crash = traceback.format_exc()
        commands.append({"code": code, "stderr": err.getvalue(), "crash": crash,
                         "seconds": time.perf_counter() - t0})
    wall_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands": commands,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        result["counters"] = tracer.counters
        tracer.dump(job["spans_path"])
    with open(job["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
