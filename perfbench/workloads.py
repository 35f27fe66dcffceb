"""The four benchmark workloads: program inputs made from the benchmark
seed, and the checks applied to the reports the program writes.

Why each workload exists, and which layer metrics it is meant to move, is
recorded in ``README.md`` next to this file.
"""
from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# inputs


def _order(which: str, k: int, x: float) -> dict:
    return {"type": "order_stat", "class": which, "k": k, "x": x}


def _count(which: str, intervals, x: float, value: int) -> dict:
    return {"type": "count", "class": which, "intervals": intervals, "x": x,
            "op": "eq", "value": value}


#: Event shapes shared by both verify workloads.  ``tail_repro`` is the
#: collapsed-standard-error case: theory 0.999994, p_hat = 1, z = inf.
VERIFY_EVENTS = (
    {"id": "joint_max", "terms": [_order("observed", 1, 0.0), _order("missed", 1, 0.5)]},
    {"id": "kth_vs_all", "terms": [_order("observed", 2, 0.5), _order("all", 3, 0.0)]},
    {"id": "location_pair", "terms": [
        {"type": "location", "class": "observed", "s": 0.5},
        {"type": "location", "class": "missed", "s": 0.5}]},
    {"id": "count_pmf", "terms": [
        _count("observed", [[0, 1]], 0.0, 1), _count("missed", [[0, 1]], 0.0, 0)]},
    {"id": "void_two_cells", "terms": [
        _count("all", [[0, 0.5]], 0.0, 0), _count("all", [[0.5, 1]], 1.0, 0)]},
    {"id": "tail_repro", "terms": [_order("all", 1, 12.0)]},
)

VERIFY_MODELS = {
    "verify-short": (
        {"family": "one_factor", "n": 1000, "gamma": 1.0},
        {"kind": "exchangeable", "lambda_law": {"kind": "uniform", "a": 0.0, "b": 1.0}},
        4000,
    ),
    "verify-logdecay": (
        {"family": "log_decay", "n": 16384, "gamma": 0.5},
        {"kind": "iid_bernoulli", "p": 0.5},
        300,
    ),
}

ORACLE_SAMPLES = 1_000_000

GRID_N = 100_000
GRID_GAMMAS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
GRID_XS = (-2.0, 0.0, 2.0)
GRID_MISSINGNESS = (
    ("periodic10", {"kind": "periodic", "pattern": "10"}),
    ("beta22", {"kind": "exchangeable", "lambda_law": {"kind": "beta", "alpha": 2.0, "beta": 2.0}}),
)


def _grid_events(x: float) -> list[tuple[str, dict]]:
    return [
        ("joint_max", {"id": "joint_max", "terms": [_order("observed", 1, x), _order("missed", 1, x)]}),
        ("kth_vs_all", {"id": "kth_vs_all", "terms": [_order("observed", 3, x), _order("all", 5, x)]}),
        ("count_pmf2", {"id": "count_pmf2", "terms": [
            _count("observed", [[0, 1]], x + 1.0, 0), _count("missed", [[0, 1]], x + 1.0, 1),
            _count("observed", [[0, 1]], x, 1), _count("missed", [[0, 1]], x, 1)]}),
        ("void_cells", {"id": "void_cells", "terms": [
            _count("all", [[0, 0.25]], x, 0), _count("all", [[0.5, 1]], x + 1.0, 0)]}),
        ("location_heights", {"id": "location_heights", "terms": [
            {"type": "location", "class": "observed", "s": 0.5},
            {"type": "location", "class": "all", "s": 0.75},
            _order("observed", 1, x), _order("all", 1, x)]}),
    ]


@dataclass
class Job:
    """What one invocation of the program runs, plus what the checks need."""

    workload: str
    kind: str  # "verify", "oracle" or "evaluate"
    setup_configs: list[str]
    commands: list[list[str]]
    reps: int = 0
    grid: list[dict] = field(default_factory=list)  # evaluate: one entry per command


def _write(path: str, doc: dict) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return path


def make_job(workload: str, seed: int, config_dir: str, tiny: bool) -> Job:
    """Write the configs of ``workload`` for ``seed`` under ``config_dir``.
    ``tiny`` shrinks every size for the self-test."""
    if workload in VERIFY_MODELS:
        model, missingness, reps = VERIFY_MODELS[workload]
        reps = max(2, reps // 200) if tiny else reps
        doc = {"model": model, "missingness": missingness, "targets": list(VERIFY_EVENTS),
               "reps": reps, "master_seed": seed, "workers": 1, "report_name": workload}
        path = _write(os.path.join(config_dir, f"{workload}.json"), doc)
        return Job(workload, "verify", [path], [["verify", "--config", path]], reps=reps)
    if workload == "oracle":
        samples = 20_000 if tiny else ORACLE_SAMPLES
        return Job(workload, "oracle", [],
                   [["oracle", "--samples", str(samples), "--seed", str(seed)]], reps=samples)
    if workload == "evaluate-grid":
        job = Job(workload, "evaluate", [], [])
        gammas = GRID_GAMMAS[::5] if tiny else GRID_GAMMAS
        for miss_name, missingness in GRID_MISSINGNESS:
            for gamma in gammas:
                for x in GRID_XS:
                    for shape, event in _grid_events(x):
                        name = f"{shape}-{miss_name}-g{gamma:g}-x{x:g}"
                        doc = {"model": {"family": "one_factor", "n": GRID_N, "gamma": gamma},
                               "missingness": missingness, "targets": [event], "reps": 1,
                               "master_seed": seed, "workers": 1, "report_name": name}
                        path = _write(os.path.join(config_dir, name + ".json"), doc)
                        job.setup_configs.append(path)
                        job.commands.append(["evaluate", "--config", path])
                        job.grid.append({"name": name, "shape": shape, "gamma": gamma, "x": x,
                                         "periodic": missingness["kind"] == "periodic"})
        return job
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify-short", "verify-logdecay", "oracle", "evaluate-grid")

# ---------------------------------------------------------------------------
# independent reference values (scipy.integrate.quad, no gapextremes code)


def _g(gamma: float, x: float, z: float) -> float:
    return math.exp(min(-x - gamma + math.sqrt(2.0 * gamma) * z, 700.0))


def _expect_xi(gamma: float, x_star: float, fn) -> float:
    """E fn(xi) for xi ~ N(0,1), splitting at the exceedance step."""
    from scipy import integrate

    def dens(z):
        return fn(z) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    if gamma == 0.0:
        return integrate.quad(dens, -12.0, 12.0, epsabs=1e-13, limit=200)[0]
    z_star = min(max((x_star + gamma) / math.sqrt(2.0 * gamma), -11.0), 11.0)
    left = integrate.quad(dens, -12.0, z_star, epsabs=1e-13, limit=200)[0]
    right = integrate.quad(dens, z_star, 12.0, epsabs=1e-13, limit=200)[0]
    return left + right


def _expect_lambda(law: dict, fn) -> float:
    from scipy import integrate, special

    kind = law["kind"]
    if kind == "point":
        return fn(law["p"])
    if kind == "uniform":
        a, b = law["a"], law["b"]
        return integrate.quad(fn, a, b, epsabs=1e-13)[0] / (b - a)
    if kind == "beta":
        al, be = law["alpha"], law["beta"]
        norm = special.beta(al, be)
        return integrate.quad(lambda t: fn(t) * t ** (al - 1) * (1 - t) ** (be - 1) / norm,
                              0.0, 1.0, epsabs=1e-13)[0]
    raise ValueError(f"no reference for lambda law {kind!r}")


def ref_joint_max(gamma: float, law: dict, x: float, y: float) -> float:
    """Limit of P(observed max <= u_n(x), missed max <= u_n(y))."""
    def given_xi(z):
        gx, gy = _g(gamma, x, z), _g(gamma, y, z)
        return _expect_lambda(law, lambda lam: math.exp(-lam * gx - (1.0 - lam) * gy))

    return _expect_xi(gamma, min(x, y), given_xi)


def ref_void(gamma: float, cells) -> float:
    """Limit probability that every (measure, level) cell of the overall
    class is free of exceedances."""
    def given_xi(z):
        return math.exp(-sum(w * _g(gamma, x, z) for w, x in cells))

    return _expect_xi(gamma, min(x for _, x in cells), given_xi)


def ref_finite_n_all_max(n: int, gamma: float, x: float) -> float:
    """Exact one-factor P(max of all n coordinates <= u_n(x))."""
    from scipy import special

    a = math.sqrt(2.0 * math.log(n))
    u = x / a + a - (math.log(math.log(n)) + math.log(4.0 * math.pi)) / (2.0 * a)
    rho = gamma / math.log(n)

    def given_xi(z):
        return math.exp(n * special.log_ndtr((u - math.sqrt(rho) * z) / math.sqrt(1.0 - rho)))

    return _expect_xi(gamma, x, given_xi)


REF_TOL = 1e-7

# ---------------------------------------------------------------------------
# report parsing and checks


class _NonFinite:
    """Marks a NaN or Infinity literal, which strict JSON does not allow."""


def strict_rows(text: str) -> tuple[list[dict], list[bool]]:
    """Rows of a JSON report and, per row, whether it holds a NaN or
    Infinity literal."""
    doc = json.loads(text, parse_constant=lambda _: _NonFinite())
    rows = doc["rows"]
    return rows, [any(isinstance(v, _NonFinite) for v in row.values()) for row in rows]


def csv_rows(text: str, free: int) -> tuple[list[dict], int]:
    """Rows of a CSV report, and how many of them have more fields than the
    header.  The program writes fields unquoted, so a comma inside column
    ``free`` (a lambda law such as ``uniform(0,1)``, an oracle check id)
    splits it; that column is re-joined so the other columns still parse."""
    lines = text.splitlines()
    header = lines[0].split(",")
    rows, unquoted = [], 0
    for line in lines[1:]:
        fields = line.split(",")
        extra = len(fields) - len(header)
        if extra:
            unquoted += 1
            fields[free:free + extra + 1] = [",".join(fields[free:free + extra + 1])]
        rows.append(dict(zip(header, fields)))
    return rows, unquoted


def _prob(value: str) -> bool:
    try:
        return 0.0 <= float(value) <= 1.0
    except ValueError:
        return False


def _finite(row: dict, keys) -> bool:
    try:
        return all(math.isfinite(float(row[k])) for k in keys)
    except ValueError:
        return False


@dataclass
class Outcome:
    """Checked result of one invocation.  An operation is a report row for
    verify, a check row for oracle and a config for evaluate-grid; it fails
    for each cause in ``causes`` that applies to it."""

    attempted: int = 0
    failed: int = 0
    causes: dict[str, int] = field(default_factory=dict)
    unquoted_csv_rows: int = 0
    errors: list[str] = field(default_factory=list)

    def add(self, *causes: str) -> None:
        self.attempted += 1
        self.failed += bool(causes)
        for cause in causes:
            self.causes[cause] = self.causes.get(cause, 0) + 1


def _reports(out_dir: str) -> dict[str, str]:
    texts = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), newline="") as fh:
            texts[name] = fh.read()
    return texts


def check_invocation(job: Job, out_dir: str, results: list[dict]) -> tuple[Outcome, dict[str, str]]:
    """Check the reports and exit codes of one invocation.  Returns the
    outcome and the report texts by file name."""
    reports = _reports(out_dir)
    outcome = Outcome()
    if job.kind == "verify":
        _check_verify(job, reports, results[0], outcome)
    elif job.kind == "oracle":
        _check_oracle(job, reports, results[0], outcome)
    else:
        _check_grid(job, reports, results, outcome)
    return outcome, reports


def _verify_reference(job: Job, event_id: str) -> float | None:
    model, missingness, _ = VERIFY_MODELS[job.workload]
    law = missingness.get("lambda_law") or {"kind": "point", "p": missingness["p"]}
    if event_id == "joint_max":
        return ref_joint_max(model["gamma"], law, 0.0, 0.5)
    if event_id == "tail_repro":
        return ref_joint_max(model["gamma"], law, 12.0, 12.0)
    return None


def _check_verify(job: Job, reports: dict, result: dict, out: Outcome) -> None:
    err = out.errors
    csv_text = next((t for n, t in reports.items() if n.endswith(".csv")), None)
    json_text = next((t for n, t in reports.items() if n.endswith(".json")), None)
    if result["crash"] or csv_text is None or json_text is None:
        for _ in VERIFY_EVENTS:
            out.add("no_report")
        return
    rows, out.unquoted_csv_rows = csv_rows(csv_text, free=3)
    jrows, nonfinite = strict_rows(json_text)
    if [r["event_id"] for r in rows] != [e["id"] for e in VERIFY_EVENTS] or len(jrows) != len(rows):
        err.append("report rows do not match the configured events")
        return
    for row, jrow, bad in zip(rows, jrows, nonfinite):
        out.add(*(["fail_row"] if row["pass"] != "true" else []) + (["nonfinite"] if bad else []))
        if int(row["reps"]) != job.reps or not _prob(row["p_hat"]) or not _prob(row["theory_limit"]):
            err.append(f"{row['event_id']}: reps, p_hat or theory out of range")
        if (row["pass"] == "true") != jrow["pass"]:
            err.append(f"{row['event_id']}: CSV and JSON pass flags differ")
        ref = _verify_reference(job, row["event_id"])
        if ref is not None and abs(float(row["theory_limit"]) - ref) > REF_TOL:
            err.append(f"{row['event_id']}: theory {row['theory_limit']} != reference {ref!r}")
    if result["code"] != (1 if "fail_row" in out.causes else 0):
        err.append(f"exit code {result['code']} disagrees with the pass column")


#: the maxima suite's limit regime (oracle_suite.MAXIMA_PARAMS)
ORACLE_MAXIMA = (0.5, {"kind": "beta", "alpha": 2.0, "beta": 3.0})


def _check_oracle(job: Job, reports: dict, result: dict, out: Outcome) -> None:
    err = out.errors
    texts = [t for n, t in reports.items() if n.endswith(".csv")]
    if result["crash"] or len(texts) != 1:
        out.add("no_report")
        return
    rows, out.unquoted_csv_rows = csv_rows(texts[0], free=0)
    if not rows:
        err.append("oracle report has no rows")
    gamma, law = ORACLE_MAXIMA
    joint = {}
    for row in rows:
        failed = row["pass"] != "true"
        bad = not _finite(row, ("empirical", "theory", "z"))
        out.add(*(["fail_row"] if failed else []) + (["nonfinite"] if bad else []))
        if int(row["samples"]) != job.reps or not (_prob(row["empirical"]) and _prob(row["theory"])):
            err.append(f"{row['check_id']}: samples, empirical or theory out of range")
            continue
        check, _, args = row["check_id"].partition("(")
        if check not in ("heights", "locations[obs_missed]"):
            continue
        s, t, *xy = (float(v) for v in args.rstrip(")").split(","))
        if xy:
            key = tuple(xy)
            if key not in joint:
                joint[key] = ref_joint_max(gamma, law, *key)
            ref = s * t * joint[key]
        else:
            ref = s * t
        if abs(float(row["theory"]) - ref) > REF_TOL:
            err.append(f"{row['check_id']}: theory {row['theory']} != reference {ref!r}")
    if result["code"] != (1 if "fail_row" in out.causes else 0):
        err.append(f"exit code {result['code']} disagrees with the pass column")


@functools.lru_cache(maxsize=None)  # every invocation of a run checks the same grid
def _grid_reference(shape: str, gamma: float, x: float, periodic: bool):
    """(limit, exact finite-n) references for a grid config, where known."""
    if shape == "joint_max":  # at x = y the fraction law drops out; a point law stands in
        finite = ref_finite_n_all_max(GRID_N, gamma, x) if periodic else None
        return ref_joint_max(gamma, {"kind": "point", "p": 0.5}, x, x), finite
    if shape == "void_cells":
        return ref_void(gamma, [(0.25, x), (0.5, x + 1.0)]), None
    return None, None


def _check_grid(job: Job, reports: dict, results: list[dict], out: Outcome) -> None:
    err = out.errors
    by_config: dict[str, dict[str, str]] = {}
    for name, text in reports.items():
        stem, ext = name.rsplit(".", 1)
        by_config.setdefault(stem.rsplit("-", 1)[0], {})[ext] = text
    for entry, result in zip(job.grid, results):
        name, code = entry["name"], result["code"]
        files = by_config.get(name, {})
        if code == 2 and not files and result["stderr"].startswith("error:"):
            out.add("exit2")  # a defined outcome of the program, but a failed operation
            continue
        if code != 0 or set(files) != {"csv", "json"}:
            out.add("no_report")
            err.append(f"{name}: exit {code}, reports {sorted(files)}")
            continue
        (row,), unquoted = csv_rows(files["csv"], free=3)
        out.unquoted_csv_rows += unquoted
        _, (bad,) = strict_rows(files["json"])
        out.add(*(["nonfinite"] if bad else []))
        finite_ok = row["theory_finite_n"] == "" or _prob(row["theory_finite_n"])
        if not _prob(row["theory_limit"]) or not finite_ok:
            err.append(f"{name}: theory out of range")
            continue
        limit, finite = _grid_reference(entry["shape"], entry["gamma"], entry["x"],
                                        entry["periodic"])
        if limit is not None and abs(float(row["theory_limit"]) - limit) > REF_TOL:
            err.append(f"{name}: theory_limit {row['theory_limit']} != reference {limit!r}")
        if finite is not None and abs(float(row["theory_finite_n"]) - finite) > REF_TOL:
            err.append(f"{name}: theory_finite_n {row['theory_finite_n']} != reference {finite!r}")
