"""Experiment driver: configuration, replication engine, reports.

A configuration fixes a Gaussian model, a missingness model, a list of
events and a replication budget.  Paths come in draws of
``paths_per_draw`` (k) paths: draw j uses the substream
(master_seed, j, "path") and supplies replications j*k .. j*k+k-1, and
replication r draws its indicators from (master_seed, r, "indicators").
The engine evaluates the events on blocks of replications, but no stream
depends on the block size or on how replications are split into chunks,
so results are bit-identical for any worker count and any scheduling.
Event hits are aggregated as integer counts, compared against the limit
laws (and the exact one-factor value when available), and written as CSV
plus a JSON mirror, both carrying the configuration hash so distinct
configurations can never silently share a report file.

The JSON configuration format is read here and nowhere else.  A tagged
section, one whose ``kind`` (missingness, lambda law) or ``type`` (event
term) key picks its shape, is built from a table that maps each kind to
its constructor and the keys it takes, and each field is read by its JSON
type (a number, an integer, a string, a list of numbers or of interval
pairs), so a value of another type is an error that names the field.
Every error names its location once, and a nested section's location is
composed outside in (``missingness: lambda_law: a must be a number, got
'x'``).
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import ConfigError, GapExtremesError, QuadratureConvergenceError
from .events import CompiledEvents, CountTerm, Event, LocationTerm, order_stat
from .events import theory_finite_n, theory_limit
from .extremes import IntervalFamily
from .gaussian import CovarianceSpec, GaussianModel, build_model, sample_path
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
    "parse_event",
    "compare_estimates",
    "run_experiment",
    "evaluate_theory",
    "write_report",
]

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


def _require_keys(doc: dict, required: set[str], optional: set[str], where: str) -> None:
    """Check that ``doc`` is a JSON object with exactly the allowed keys and
    no boolean value.  No config field is boolean, and Python would read
    ``true`` as the number 1."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, got {type(doc).__name__}")
    keys = set(doc)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    for key, value in doc.items():
        if _has_boolean(value):
            raise ConfigError(f"{where}: {key} must not be a boolean")


def _has_boolean(value) -> bool:
    """A boolean, or a (nested) list holding one; objects are checked by
    their own ``_require_keys``."""
    if isinstance(value, list):
        return any(map(_has_boolean, value))
    return isinstance(value, bool)


def _integer(value, where: str) -> int:
    """An integer config value: a JSON integer, or an integral float such
    as ``3000.0``.  A fractional or non-finite float is an error (``int``
    would truncate it or overflow), and so is any other JSON type."""
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ConfigError(f"{where} must be an integer, got {value!r}")


def _number(value, where: str) -> float:
    """A real config value: a JSON integer or float, NaN and +-Infinity
    included (ranges are checked where the value is used)."""
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:  # an integer literal beyond the float range
            pass
    raise ConfigError(f"{where} must be a number, got {value!r}")


def _string(value, where: str) -> str:
    if isinstance(value, str):
        return value
    raise ConfigError(f"{where} must be a string, got {value!r}")


def _numbers(value, where: str) -> list[float]:
    if not isinstance(value, list) or not all(isinstance(v, (int, float)) for v in value):
        raise ConfigError(f"{where} must be a list of numbers, got {value!r}")
    return [_number(v, where) for v in value]


def _family(value, where: str) -> IntervalFamily:
    """A list of [c, d] pairs of numbers, read as an interval family."""
    if not isinstance(value, list) or any(not isinstance(p, list) or len(p) != 2 for p in value):
        raise ConfigError(f"{where} must be a list of [c, d] pairs, got {value!r}")
    return IntervalFamily.of(*(_numbers(pair, where) for pair in value))


#: How a tagged section reads each of its fields; a field missing here is
#: handed on as parsed (a class, an op, a nested section).
_READERS = {
    "p": _number, "a": _number, "b": _number, "alpha": _number, "beta": _number,
    "values": _numbers, "weights": _numbers, "pattern": _string,
    "k": _integer, "x": _number, "intervals": _family, "value": _integer, "s": _number,
}


def _at(where: str, make, *args):
    """``make(*args)``, with a range or conversion error prefixed by the
    location ``where``.  A nested section's error already carries its own
    location, so locations compose outside in."""
    try:
        return make(*args)
    except (GapExtremesError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _section(doc: dict, where: str, tag: str, table: dict):
    """Build a tagged section: ``doc[tag]`` picks the entry
    (constructor, keys) of ``table``, the section must hold exactly those
    keys besides its tag, and their values, each read by its entry in
    ``_READERS``, go to the constructor in order."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, got {type(doc).__name__}")
    if tag not in doc:
        raise ConfigError(f"{where}: missing keys {[tag]}")
    kind = doc[tag]
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"{where}: unknown {tag} {kind!r}")
    make, keys = table[kind]
    _require_keys(doc, {tag, *keys}, set(), where)
    read = {key: _READERS.get(key, lambda value, _: value) for key in keys}
    return _at(where, lambda: make(*(read[key](doc[key], key) for key in keys)))


#: The tagged sections: kind -> (constructor, the keys it takes in order).
_LAMBDA_LAWS = {
    "point": (LambdaLaw.point, ("p",)),
    "discrete": (LambdaLaw.discrete, ("values", "weights")),
    "uniform": (LambdaLaw.uniform, ("a", "b")),
    "beta": (LambdaLaw.beta, ("alpha", "beta")),
}
_MISSINGNESS = {
    "iid_bernoulli": (MissingnessModel.iid_bernoulli, ("p",)),
    "exchangeable": (
        lambda law: MissingnessModel.exchangeable(
            _section(law, "lambda_law", "kind", _LAMBDA_LAWS)
        ),
        ("lambda_law",),
    ),
    "periodic": (MissingnessModel.periodic, ("pattern",)),
}
_TERMS = {
    "order_stat": (order_stat, ("class", "k", "x")),
    "count": (CountTerm, ("class", "intervals", "x", "op", "value")),
    "location": (LocationTerm, ("class", "s")),
}


def parse_event(doc: dict) -> Event:
    """Build an Event from its JSON document form.  Unknown keys error, and
    every term error names its event and 0-based term index."""
    _require_keys(doc, {"id", "terms"}, set(), "event")
    event_id, terms = _string(doc["id"], "event: id"), doc["terms"]
    where = f"event {event_id!r}"
    if not isinstance(terms, list):
        raise ConfigError(f"{where}: terms must be a list, got {type(terms).__name__}")
    terms = [_section(term, f"{where} term {i}", "type", _TERMS) for i, term in enumerate(terms)]
    return Event(event_id=event_id, terms=tuple(terms))


def _model(doc: dict) -> tuple[CovarianceSpec, int]:
    """Covariance spec and path length of the model section, built once to
    fail fast on a bad (n, spec)."""
    spec_kwargs = {"family": doc["family"], "gamma": _number(doc.get("gamma", 0.0), "gamma")}
    if "shift" in doc:
        if doc["family"] != "log_decay":
            raise ConfigError("'shift' applies to the log_decay family only")
        spec_kwargs["shift"] = _number(doc["shift"], "shift")
    spec, n = CovarianceSpec(**spec_kwargs), _integer(doc["n"], "n")
    build_model(n, spec)
    return spec, n


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


def _at_least(doc: dict, key: str, low: int, default=None) -> int:
    """The integer top-level field ``key``, which must be at least ``low``."""
    value = _integer(doc.get(key, default), f"config: {key}")
    if value < low:
        raise ConfigError(f"config: {key} must be >= {low}, got {value}")
    return value


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a configuration document.  Unknown keys are errors, and so
    are values of the wrong JSON type or that do not convert.  Every error
    names its location once: ``config``, ``model``, ``missingness``,
    ``missingness: lambda_law``, ``event`` or ``event 'id' term i``."""
    _require_keys(
        doc,
        {"model", "missingness", "targets", "reps", "master_seed"},
        {"workers", "sigma", "report_name", "out_dir"},
        "config",
    )
    _require_keys(doc["model"], {"family", "n"}, {"gamma", "shift"}, "model")
    spec, n = _at("model", _model, doc["model"])
    missingness = _section(doc["missingness"], "missingness", "kind", _MISSINGNESS)
    if not isinstance(doc["targets"], list) or not doc["targets"]:
        raise ConfigError("config: targets must be a nonempty list")
    events = tuple(parse_event(e) for e in doc["targets"])
    seen = set()
    for event in events:
        if event.event_id in seen:
            raise ConfigError(f"config: duplicate event id {event.event_id!r}")
        seen.add(event.event_id)
    sigma = _number(doc.get("sigma", 4.0), "config: sigma")
    if not 0 < sigma < math.inf:  # NaN too
        raise ConfigError(f"config: sigma must be positive and finite, got {sigma}")
    return ExperimentConfig(
        spec=spec,
        n=n,
        missingness=missingness,
        events=events,
        reps=_at_least(doc, "reps", 1),
        master_seed=_at_least(doc, "master_seed", 0),
        workers=_at_least(doc, "workers", 1, 1),
        sigma=sigma,
        report_name=_string(doc.get("report_name", "report"), "config: report_name"),
        out_dir=_string(doc.get("out_dir", "reports"), "config: out_dir"),
    )


# ---------------------------------------------------------------------------
# estimates and comparisons


@dataclass(frozen=True)
class EstimateRecord:
    event_id: str
    p_hat: float
    reps: int
    se: float


def estimate_from_count(event_id: str, hits: int, reps: int) -> EstimateRecord:
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    p = hits / reps
    return EstimateRecord(event_id, p, reps, math.sqrt(p * (1.0 - p) / reps))


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


#: Elements (paths times n) of one block of replications that the engine
#: hands ``CompiledEvents`` at once, about 0.5 MB of float64 values.
BLOCK_ELEMENTS = 1 << 16


def _simulate_range(config: ExperimentConfig, lo: int, hi: int) -> np.ndarray:
    """Event hit counts of replications lo..hi-1.

    Draw j yields the paths of replications j*k .. j*k+k-1, k paths per
    draw; a draw that straddles lo or hi is recomputed and only its rows
    in range are kept, so any split of the replications sums to the same
    counts.  Replications are evaluated in blocks of
    max(1, BLOCK_ELEMENTS // n) rows, each row filled from the same
    streams as alone; counts are integers, so every block size gives the
    same totals.
    """
    model = config.build_model()
    n, seed, k = config.n, config.master_seed, model.spec.paths_per_draw
    compiled = CompiledEvents(config.events, n)
    counts = np.zeros(len(config.events), dtype=np.int64)
    size = max(1, min(hi - lo, BLOCK_ELEMENTS // n))
    values, eps = np.empty((size, n)), np.empty((size, n), dtype=bool)
    filled = 0
    for j in range(lo // k, -(-hi // k)):
        paths = sample_path(model, substream(seed, j, "path"))
        for r in range(max(lo, j * k), min(hi, j * k + k)):
            values[filled] = paths[r - j * k]
            eps[filled] = sample_indicators(config.missingness, n, substream(seed, r, "indicators"))
            filled += 1
            if filled == size:
                counts += compiled(values, eps).sum(axis=0)
                filled = 0
    if filled:
        counts += compiled(values[:filled], eps[:filled]).sum(axis=0)
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
        lines += [",".join(map(csv_field, rec.values())) for rec in self._records()]
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


def csv_field(value) -> str:
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
    finite = None
    try:
        limit = theory_limit(event, params)
        if config.spec.family == "one_factor" and config.missingness.kind == "periodic":
            pattern = fixed_pattern(config.missingness, config.n)
            finite = theory_finite_n(event, config.n, config.spec.gamma, pattern)
    except QuadratureConvergenceError as exc:
        raise QuadratureConvergenceError(f"event {event.event_id!r}: {exc}") from exc
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
