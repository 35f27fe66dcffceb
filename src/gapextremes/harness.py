"""Experiment driver: configuration, replication engine, reports.

A configuration fixes a Gaussian model, a missingness model, a list of
events and a replication budget.  Paths come in draws of
``paths_per_draw`` (k) paths: draw j uses the substream
(master_seed, j, "path") and supplies replications j*k .. j*k+k-1, and
replication r draws its indicators from (master_seed, r, "indicators").
No stream depends on how replications are split into chunks, so results
are bit-identical for any worker count and any scheduling.  Event hits
are aggregated as integer counts, compared against the limit laws (and
the exact one-factor value when available), and written as CSV plus a
JSON mirror, both carrying the configuration hash so distinct
configurations can never silently share a report file.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import ConfigError, GapExtremesError
from .events import CompiledEvents, Event, parse_event, theory_finite_n, theory_limit
from .events import _integer, _require_keys
from .gaussian import FAMILIES, CovarianceSpec, GaussianModel, build_model, sample_path
from .lambdalaw import LambdaLaw
from .limit_laws import LimitLawParams
from .missingness import MissingnessModel, fixed_pattern, sample_indicators
from .streams import substream

__all__ = [
    "ExperimentConfig",
    "EstimateRecord",
    "ReportRow",
    "ComparisonReport",
    "parse_config",
    "config_hash",
    "compare_estimates",
    "run_experiment",
    "evaluate_theory",
    "write_report",
]

CI99_Z = 2.5758293035489004  # two-sided 99% normal quantile

CSV_COLUMNS = (
    "event_id",
    "n",
    "gamma",
    "lambda_law",
    "reps",
    "p_hat",
    "se",
    "theory_limit",
    "theory_finite_n",
    "z_limit",
    "z_finite_n",
    "pass",
    "config_hash",
)


# ---------------------------------------------------------------------------
# configuration


def parse_lambda_law(doc: dict) -> LambdaLaw:
    _require_keys(doc, {"kind"}, {"p", "values", "weights", "a", "b", "alpha", "beta"}, "lambda_law")
    kind = doc["kind"]
    try:
        if kind == "point":
            _require_keys(doc, {"kind", "p"}, set(), "lambda_law")
            return LambdaLaw.point(doc["p"])
        if kind == "discrete":
            _require_keys(doc, {"kind", "values", "weights"}, set(), "lambda_law")
            return LambdaLaw.discrete(doc["values"], doc["weights"])
        if kind == "uniform":
            _require_keys(doc, {"kind", "a", "b"}, set(), "lambda_law")
            return LambdaLaw.uniform(doc["a"], doc["b"])
        if kind == "beta":
            _require_keys(doc, {"kind", "alpha", "beta"}, set(), "lambda_law")
            return LambdaLaw.beta(doc["alpha"], doc["beta"])
    except GapExtremesError as exc:
        raise ConfigError(f"lambda_law: {exc}") from exc
    raise ConfigError(f"lambda_law: unknown kind {kind!r}")


def _parse_missingness(doc: dict) -> MissingnessModel:
    _require_keys(doc, {"kind"}, {"p", "lambda_law", "pattern"}, "missingness")
    kind = doc["kind"]
    try:
        if kind == "iid_bernoulli":
            _require_keys(doc, {"kind", "p"}, set(), "missingness")
            return MissingnessModel.iid_bernoulli(doc["p"])
        if kind == "exchangeable":
            _require_keys(doc, {"kind", "lambda_law"}, set(), "missingness")
            return MissingnessModel.exchangeable(parse_lambda_law(doc["lambda_law"]))
        if kind == "periodic":
            _require_keys(doc, {"kind", "pattern"}, set(), "missingness")
            return MissingnessModel.periodic(str(doc["pattern"]))
    except GapExtremesError as exc:
        raise ConfigError(f"missingness: {exc}") from exc
    raise ConfigError(f"missingness: unknown kind {kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    spec: CovarianceSpec
    n: int
    missingness: MissingnessModel
    events: tuple[Event, ...]
    reps: int
    master_seed: int
    workers: int = 1
    sigma: float = 4.0
    report_name: str = "report"
    out_dir: str = "reports"

    def build_model(self) -> GaussianModel:
        return build_model(self.n, self.spec)

    def limit_params(self) -> LimitLawParams:
        return LimitLawParams(self.spec.gamma, self.missingness.limit_law())

    def hash(self) -> str:
        """Hash of the experiment identity: every parsed field except the
        execution-only ones.

        Hashing parsed values makes equal numbers spelled differently
        (``1`` and ``1.0``) and defaults left implicit hash alike.  The
        worker count, report basename and output directory cannot change
        row content, and reports must be byte-identical across worker
        counts, so they are left out.
        """
        identity = tuple(
            (f.name, getattr(self, f.name)) for f in fields(self) if f.name not in _EXECUTION_ONLY
        )
        return hashlib.sha256(repr(identity).encode()).hexdigest()[:12]


#: ExperimentConfig fields outside the experiment identity
_EXECUTION_ONLY = ("workers", "report_name", "out_dir")


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a configuration document.  Unknown keys are errors, and so
    are values of the wrong JSON type or that do not convert."""
    try:
        return _parse_config(doc)
    except GapExtremesError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed value: {exc}") from exc


def _parse_config(doc: dict) -> ExperimentConfig:
    _require_keys(
        doc,
        {"model", "missingness", "targets", "reps", "master_seed"},
        {"workers", "sigma", "report_name", "out_dir"},
        "config",
    )
    model_doc = doc["model"]
    _require_keys(model_doc, {"family", "n"}, {"gamma", "shift"}, "model")
    family = model_doc["family"]
    if family not in FAMILIES:
        raise ConfigError(f"model: unknown family {family!r}")
    try:
        spec_kwargs = {"family": family, "gamma": float(model_doc.get("gamma", 0.0))}
        if "shift" in model_doc:
            if family != "log_decay":
                raise ConfigError("'shift' applies to the log_decay family only")
            spec_kwargs["shift"] = float(model_doc["shift"])
        spec = CovarianceSpec(**spec_kwargs)
        n = _integer(model_doc["n"], "n")
        build_model(n, spec)  # fail fast on bad (n, spec)
    except GapExtremesError as exc:
        raise ConfigError(f"model: {exc}") from exc

    missing = _parse_missingness(doc["missingness"])
    if not isinstance(doc["targets"], list) or not doc["targets"]:
        raise ConfigError("targets must be a nonempty list")
    events = tuple(parse_event(e) for e in doc["targets"])
    seen = set()
    for event in events:
        if event.event_id in seen:
            raise ConfigError(f"duplicate event id {event.event_id!r}")
        seen.add(event.event_id)

    reps = _integer(doc["reps"], "reps")
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {doc['reps']}")
    workers = _integer(doc.get("workers", 1), "workers")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    master_seed = _integer(doc["master_seed"], "master_seed")
    if master_seed < 0:
        raise ConfigError(f"master_seed must be >= 0, got {master_seed}")
    sigma = float(doc.get("sigma", 4.0))
    if not 0 < sigma < math.inf:  # NaN too
        raise ConfigError(f"sigma must be positive and finite, got {sigma}")
    return ExperimentConfig(
        spec=spec,
        n=n,
        missingness=missing,
        events=events,
        reps=reps,
        master_seed=master_seed,
        workers=workers,
        sigma=sigma,
        report_name=str(doc.get("report_name", "report")),
        out_dir=str(doc.get("out_dir", "reports")),
    )


def config_hash(doc: dict) -> str:
    """Hash of the experiment identity of a configuration document (see
    ``ExperimentConfig.hash``)."""
    return parse_config(doc).hash()


# ---------------------------------------------------------------------------
# estimates and comparisons


@dataclass(frozen=True)
class EstimateRecord:
    event_id: str
    p_hat: float
    reps: int
    se: float
    ci_low: float
    ci_high: float


def estimate_from_count(event_id: str, hits: int, reps: int) -> EstimateRecord:
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    p = hits / reps
    se = math.sqrt(p * (1.0 - p) / reps)
    return EstimateRecord(
        event_id=event_id,
        p_hat=p,
        reps=reps,
        se=se,
        ci_low=max(0.0, p - CI99_Z * se),
        ci_high=min(1.0, p + CI99_Z * se),
    )


def compare_estimates(
    est: EstimateRecord, theory: float, sigma_threshold: float = 4.0
) -> tuple[float, bool]:
    """z-score of the estimate against a theoretical probability and the
    pass flag at the sigma threshold.

    The z-score uses the standard error under the tested value,
    sqrt(theory (1 - theory) / reps), which stays positive when the
    estimate sits at 0 or 1; it is infinite only when the theory is 0 or 1
    and the estimate differs from it.
    """
    if not 0.0 <= theory <= 1.0:
        raise ConfigError(f"theory value must lie in [0,1], got {theory}")
    se = math.sqrt(theory * (1.0 - theory) / est.reps)
    if se > 0.0:
        z = (est.p_hat - theory) / se
    else:
        z = 0.0 if est.p_hat == theory else math.inf
    return z, bool(abs(z) <= sigma_threshold)


# ---------------------------------------------------------------------------
# the replication engine


def _simulate_range(config: ExperimentConfig, lo: int, hi: int) -> np.ndarray:
    """Event hit counts of replications lo..hi-1.

    Draw j yields the paths of replications j*k .. j*k+k-1, k paths per
    draw; a draw that straddles lo or hi is recomputed and only its rows
    in range are kept, so any split of the replications sums to the same
    counts.
    """
    model = config.build_model()
    compiled = CompiledEvents(config.events, config.n)
    counts = np.zeros(len(config.events), dtype=np.int64)
    seed = config.master_seed
    k = model.paths_per_draw
    for j in range(lo // k, -(-hi // k)):
        paths = sample_path(model, substream(seed, j, "path"))
        for r in range(max(lo, j * k), min(hi, j * k + k)):
            eps = sample_indicators(config.missingness, config.n, substream(seed, r, "indicators"))
            counts += compiled(paths[r - j * k], eps)
    return counts


def simulate_event_counts(config: ExperimentConfig) -> np.ndarray:
    """Total event hit counts over all replications.

    Counts are integers summed in chunk order, so the result does not
    depend on the worker count or on scheduling.  Chunks are whole draws
    (a multiple of the paths per draw), so no draw is computed twice.
    """
    if config.workers == 1:
        return _simulate_range(config, 0, config.reps)
    k = config.spec.paths_per_draw
    chunk = k * max(1, -(-config.reps // (config.workers * 4 * k)))
    los = range(0, config.reps, chunk)
    his = [min(lo + chunk, config.reps) for lo in los]
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        partials = list(pool.map(_simulate_range, [config] * len(los), los, his))
    total = np.zeros(len(config.events), dtype=np.int64)
    for part in partials:
        total += part
    return total


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ReportRow:
    """One report row; the fields follow ``CSV_COLUMNS`` (``passed`` is the
    ``pass`` column, and the report adds ``config_hash``)."""

    event_id: str
    n: int
    gamma: float
    lambda_law: str
    reps: int
    p_hat: float | None
    se: float | None
    theory_limit: float | None
    theory_finite_n: float | None
    z_limit: float | None
    z_finite_n: float | None
    passed: bool


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[ReportRow, ...]
    config_hash: str
    sigma: float

    def all_pass(self) -> bool:
        return all(row.passed for row in self.rows)

    def _records(self) -> list[dict]:
        """One mapping per row, keyed by ``CSV_COLUMNS`` in order."""
        return [dict(zip(CSV_COLUMNS, (*astuple(row), self.config_hash))) for row in self.rows]

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(map(_csv_field, rec.values())) for rec in self._records()]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """Strict JSON: non-finite numbers are written as null."""
        payload = {
            "config_hash": self.config_hash,
            "sigma": _json_number(self.sigma),
            "rows": [
                {key: _json_number(value) for key, value in rec.items()} for rec in self._records()
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _json_number(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _csv_field(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (str, int)):
        return str(value)
    if value is None:
        return ""
    if value != value:  # NaN
        return "nan"
    return format(value, ".17g")


def _event_theory(config: ExperimentConfig, event: Event) -> tuple[float | None, float | None]:
    params = config.limit_params()
    limit = theory_limit(event, params)
    finite = None
    if config.spec.family == "one_factor" and config.missingness.is_deterministic():
        pattern = fixed_pattern(config.missingness, config.n)
        finite = theory_finite_n(event, config.n, config.spec.gamma, pattern)
    return limit, finite


def evaluate_theory(config: ExperimentConfig) -> ComparisonReport:
    """Theory-only report: no simulation columns filled in."""
    return _report(config, None)


def run_experiment(config: ExperimentConfig) -> ComparisonReport:
    """Simulate, estimate, attach theory, and compare.

    The pass flag tests the estimate against the exact finite-n value when
    one exists, otherwise against the limit value; events with no theory
    pass vacuously (they still report their estimates).
    """
    return _report(config, simulate_event_counts(config))


def _report(config: ExperimentConfig, counts: np.ndarray | None) -> ComparisonReport:
    """Report rows of the config's events, with estimates and z-scores when
    hit ``counts`` are given."""
    law = config.missingness.limit_law().describe()
    rows = []
    for i, event in enumerate(config.events):
        limit, finite = _event_theory(config, event)
        est = z_limit = z_finite = None
        passed = True
        if counts is not None:
            est = estimate_from_count(event.event_id, int(counts[i]), config.reps)
            if limit is not None:
                z_limit, passed = compare_estimates(est, limit, config.sigma)
            if finite is not None:
                # exact theory takes precedence over the limit
                z_finite, passed = compare_estimates(est, finite, config.sigma)
        rows.append(
            ReportRow(
                event_id=event.event_id,
                n=config.n,
                gamma=config.spec.gamma,
                lambda_law=law,
                reps=0 if est is None else config.reps,
                p_hat=None if est is None else est.p_hat,
                se=None if est is None else est.se,
                theory_limit=limit,
                theory_finite_n=finite,
                z_limit=z_limit,
                z_finite_n=z_finite,
                passed=passed,
            )
        )
    return ComparisonReport(rows=tuple(rows), config_hash=config.hash(), sigma=config.sigma)


def write_report(report: ComparisonReport, out_dir: str, name: str) -> tuple[str, str]:
    """Write CSV and JSON mirrors named by the config hash; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    base = f"{name}-{report.config_hash}"
    csv_path = os.path.join(out_dir, base + ".csv")
    json_path = os.path.join(out_dir, base + ".json")
    with open(csv_path, "w", newline="") as fh:
        fh.write(report.to_csv())
    with open(json_path, "w", newline="") as fh:
        fh.write(report.to_json())
    return csv_path, json_path
