"""Benchmark of the gapextremes toolkit.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's program inputs are made from ``--seed``.  The run then
starts fresh worker processes (``worker.py``) one after another, each
invoking the workload once through ``gapextremes.cli.main`` with
``workers = 1``, until ``--seconds`` are used up.  Every invocation's
reports are checked and hashed; identical inputs must give identical bytes.

``--trace 0`` prints the end-to-end metrics, medians over the invocations.
``--trace 1`` runs the same untraced invocations followed by one traced
invocation, and prints the per-layer metrics of that traced invocation
plus ``trace.overhead_s`` (traced wall minus the untraced median).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts invocations; ``failed`` counts invocations that crashed or did not
finish.  Failed *operations* of the program (FAIL rows, rows that are not
strict JSON, exit-2 configs) are printed as ``failed_frac`` above it.
"""
from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads, here and in every worker.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
RUNS_DIR = ".perfbench_runs"
WORKER_TIMEOUT_S = 120
#: set-up samples per run; when invocations are long, set-up-only probes
#: between them make up the number, spread over the run
SETUP_SAMPLES = 9

#: end-to-end metric -> unit
END_TO_END = {"setup_s": "s", "wall_s": "s", "checks_per_s": "1/s", "peak_rss_mb": "MB"}

#: span name -> statistics reported for it (see spans.Tracer.summary)
LAYER_STATS = (
    ("streams.substream", ("calls", "self_s")),
    ("gaussian.sample_path", ("calls", "self_s")),
    ("gaussian.build_model", ("total_s",)),
    ("harness.parse_config", ("total_s",)),
    ("missingness.sample_indicators", ("calls", "self_s")),
    ("lambdalaw.LambdaLaw.sample", ("calls", "self_s")),
    ("events.CompiledEvents.call", ("calls", "self_s")),
    ("events.theory_limit", ("calls", "total_s", "self_s")),
    ("events.theory_finite_n", ("calls", "total_s")),
    ("harness.simulate_event_counts", ("total_s", "self_s")),
    ("harness.run_experiment", ("self_s",)),
    ("harness.evaluate_theory", ("total_s",)),
    ("harness.write_report", ("self_s",)),
    ("cli.main", ("self_s",)),
    ("limit_laws.order_stats_obs_missed_cdf", ("calls", "total_s")),
    ("limit_laws.order_stats_vs_all_cdf", ("calls", "total_s")),
    ("limit_laws.joint_counts_pmf", ("calls", "total_s")),
    ("limit_laws.void_probability_intervals", ("calls", "total_s")),
    ("limit_laws.finite_n_one_factor_prob", ("calls", "total_s")),
    ("limit_laws.locations_heights_cdf", ("calls", "total_s")),
    ("limit_laws.integrand", ("self_s",)),
    ("quadrature.converge", ("calls", "self_s")),
    ("limit_oracle.sample_limit_counts", ("calls", "self_s")),
    ("limit_oracle.sample_limit_maxima_locations", ("calls", "self_s")),
    ("oracle_suite.counts_suite", ("self_s",)),
    ("oracle_suite.maxima_suite", ("self_s",)),
)
CONVERGE_COUNTERS = ("rules", "points", "failures")


def layer_metric_units() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for span, stats in LAYER_STATS:
        out += [(f"{span}.{stat}", "count" if stat == "calls" else "s") for stat in stats]
        if span == "quadrature.converge":
            out += [(f"{span}.{c}", "count") for c in CONVERGE_COUNTERS]
    return out + [("trace.overhead_s", "s")]


# ---------------------------------------------------------------------------
# environment


def git_commit(root: str) -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# invocations


def invoke(job: workloads.Job, root: str, run_dir: str, name: str, trace: bool,
           probe: bool = False) -> dict:
    """Run one fresh worker process; return its checked result.  A probe
    runs no command: it only measures set-up."""
    inv_dir = os.path.join(run_dir, name)
    out_dir = os.path.join(inv_dir, "reports")
    os.makedirs(out_dir)
    spec = {
        "root": root,
        "trace": trace,
        "setup_configs": job.setup_configs,
        "commands": [] if probe else job.commands,
        "out_dir": out_dir,
        "result_path": os.path.join(inv_dir, "result.json"),
        "spans_path": os.path.join(run_dir, "spans.json"),
    }
    job_path = os.path.join(inv_dir, "job.json")
    with open(job_path, "w") as fh:
        json.dump(spec, fh)
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, job_path, repr(spawn)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S, cwd=root,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"worker timed out after {WORKER_TIMEOUT_S} s"}
    elapsed = time.monotonic() - spawn
    if proc.returncode != 0 or not os.path.exists(spec["result_path"]):
        return {"ok": False, "error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    with open(spec["result_path"]) as fh:
        result = json.load(fh)
    if probe:
        return {"ok": True, "setup_s": result["setup_s"]}
    outcome, reports = workloads.check_invocation(job, out_dir, result["commands"])
    digest = hashlib.sha256()
    for name, text in reports.items():
        digest.update(name.encode() + b"\0" + text.encode() + b"\0")
    shutil.rmtree(out_dir)  # keep the run directory small; the digest stays
    crashes = [c["crash"] for c in result["commands"] if c["crash"]]
    result.update(
        ok=not crashes,
        error=crashes[0] if crashes else None,
        trace=trace,
        elapsed_s=elapsed,
        attempted=outcome.attempted,
        failed_ops=outcome.failed,
        causes=outcome.causes,
        unquoted_csv_rows=outcome.unquoted_csv_rows,
        check_errors=outcome.errors,
        digest=digest.hexdigest(),
    )
    return result


def run_invocations(job, root, run_dir, seconds, trace) -> tuple[list[dict], list[float]]:
    """Untraced invocations until the time budget would be exceeded (at
    least two without tracing, one with), then one traced invocation.
    Returns the invocations and the set-up times of the probes."""
    runs: list[dict] = []
    probes: list[float] = []
    start = time.monotonic()
    minimum = 1 if trace else 2

    def top_up(target: float) -> None:
        while len(runs) + len(probes) < target:
            probe = invoke(job, root, run_dir, f"probe{len(probes)}", False, probe=True)
            if not probe["ok"]:
                return
            probes.append(probe["setup_s"])

    while True:
        durations = [r["elapsed_s"] for r in runs if "elapsed_s" in r]
        predicted = statistics.median(durations) if durations else 0.0
        still_needed = (2 if trace else 1) * predicted
        if len(runs) >= minimum and time.monotonic() - start + still_needed > seconds:
            break
        runs.append(invoke(job, root, run_dir, f"inv{len(runs)}", False))
        if not runs[-1]["ok"] and "elapsed_s" not in runs[-1]:
            break  # the worker itself failed; more attempts would fail too
        share = min(1.0, (time.monotonic() - start) / seconds) if seconds > 0 else 1.0
        top_up(SETUP_SAMPLES * share)
    top_up(SETUP_SAMPLES)
    if trace:
        runs.append(invoke(job, root, run_dir, f"inv{len(runs)}", True))
    return runs, probes


# ---------------------------------------------------------------------------
# metrics


def end_to_end(untraced: list[dict], probe_setups: list[float]) -> dict[str, float]:
    med = statistics.median
    return {
        "setup_s": med([r["setup_s"] for r in untraced] + probe_setups),
        "wall_s": med(r["wall_s"] for r in untraced),
        "checks_per_s": med(r["attempted"] / r["wall_s"] for r in untraced),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in untraced),
    }


def per_layer(traced: dict, untraced_wall: float) -> dict[str, float]:
    layers = traced["layers"]
    out = {}
    for span, stats in LAYER_STATS:
        row = layers.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for stat in stats:
            out[f"{span}.{stat}"] = row[stat]
        if span == "quadrature.converge":
            for counter in CONVERGE_COUNTERS:
                out[f"{span}.{counter}"] = traced["counters"][counter]
    out["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every size (self-test)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gapextremes", "cli.py")):
        print("perfbench: run from the root of a gapextremes checkout (no src/gapextremes)",
              file=sys.stderr)
        return 2
    run_dir = os.path.join(root, RUNS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    config_dir = os.path.join(run_dir, "configs")
    os.makedirs(config_dir)
    job = workloads.make_job(args.workload, args.seed, config_dir, args.tiny)

    runs, probe_setups = run_invocations(job, root, run_dir, args.seconds, bool(args.trace))
    ok = [r for r in runs if r["ok"]]
    untraced = [r for r in ok if not r["trace"]]
    traced = [r for r in ok if r["trace"]]
    if not untraced or (args.trace and not traced):
        for r in runs:
            print(f"perfbench: {r['error']}", file=sys.stderr)
        return 1

    digests = sorted({r["digest"] for r in ok})
    errors = sorted({e for r in ok for e in r["check_errors"]})
    correct = len(ok) == len(runs) and len(digests) == 1 and not errors
    attempted_ops = sum(r["attempted"] for r in untraced)
    failed_ops = sum(r["failed_ops"] for r in untraced)
    e2e = end_to_end(untraced, probe_setups)
    samples = {"setup_s": len(untraced) + len(probe_setups)}
    metrics = per_layer(traced[0], e2e["wall_s"]) if args.trace else e2e
    units = dict(layer_metric_units()) if args.trace else END_TO_END

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        **untraced[0]["versions"],
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(root),
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(untraced)} untraced and {len(traced)} traced invocations")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {END_TO_END[name]} "
              f"(median of {samples.get(name, len(untraced))})")
    if job.kind == "verify":
        reps_per_s = statistics.median(job.reps / r["wall_s"] for r in untraced)
        print(f"reps_per_s = {reps_per_s:.6g} 1/s (median of {len(untraced)})")
    causes = ", ".join(f"{k} {v}" for k, v in sorted(untraced[0]["causes"].items()))
    print(f"failed_frac = {failed_ops / attempted_ops:.6g} ratio "
          f"({failed_ops} of {attempted_ops} operations; per invocation: {causes or 'none'})")
    print(f"unquoted_csv_rows = {untraced[0]['unquoted_csv_rows']} count (per invocation; "
          "fields holding a comma are written unquoted)")
    if args.trace:
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
    print(f"determinism: {len(ok)} report sets, {len(digests)} distinct digest(s) "
          f"{' '.join(d[:16] for d in digests)}")
    for error in errors:
        print(f"check failed: {error}")

    record = {"env": env, "correct": correct, "failed_frac": failed_ops / attempted_ops,
              "metrics": metrics, "digests": digests, "check_errors": errors,
              "invocations": runs, "setup_probes_s": probe_setups}
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": len(runs) - len(ok),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
