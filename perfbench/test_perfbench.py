"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench

Each workload runs at a tiny size, with and without tracing.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 3
#: share of the traced wall that the self times of all spans must cover;
#: the rest is the worker's own loop around ``cli.main``
COVERAGE = 0.9


def _bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, declared):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert result["correct"] and result["failed"] == 0, proc.stdout
    metrics = declared["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in metrics} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    printed = {line.split()[0]: line.split()[3] for line in lines if " = " in line}
    for m in declared["end_to_end"] + (metrics if trace else []):
        assert printed.get(m["name"]) == m["unit"], m["name"]
    if trace:
        record_path = os.path.join(ROOT, run.RUNS_DIR, f"{workload}-seed{SEED}-trace1",
                                   "result.json")
        with open(record_path) as fh:
            (traced,) = [r for r in json.load(fh)["invocations"] if r["trace"]]
        covered = sum(row["self_s"] for row in traced["layers"].values())
        assert COVERAGE * traced["wall_s"] <= covered <= traced["wall_s"]


def _bindings(modules, classes):
    out = {(mod.__name__, attr): value for mod in modules
           for attr, value in vars(mod).items() if callable(value)}
    out.update({(cls.__name__, attr): value for cls in classes
                for attr, value in vars(cls).items() if callable(value)})
    return out


def test_wrappers_restore_the_original_functions():
    from gapextremes import events, harness, lambdalaw, limit_laws

    modules = spans.package_modules()
    classes = (lambdalaw.LambdaLaw, events.CompiledEvents)
    before = _bindings(modules, classes)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert harness.sample_path is not before[("gapextremes.gaussian", "sample_path")]
        assert limit_laws.converge is not before[("gapextremes.quadrature", "converge")]
        params = limit_laws.LimitLawParams(0.5, lambdalaw.LambdaLaw.point(0.5))
        limit_laws.joint_maxima_cdf(params, 0.0, 0.0)
    finally:
        tracer.uninstall()
    after = _bindings(modules, classes)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    summary = tracer.summary()
    assert summary["limit_laws.order_stats_obs_missed_cdf"]["calls"] == 1
    assert tracer.counters["rules"] == summary["limit_laws.integrand"]["calls"] >= 2


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("oracle", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
