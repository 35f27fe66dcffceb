"""Outside-in tracing of the gapextremes layers.

The tracer replaces the public functions of each module at every binding
site inside the ``gapextremes`` package (``harness.sample_path``,
``cli.parse_config``, ``limit_laws.converge`` ...) with wrappers that record
one span per call: name, start, end and the index of the enclosing span.
Spans stay in memory; ``summary`` folds them into per-layer calls, inclusive
time and self time, and ``dump`` writes them out once the run is over.
Nothing inside the package is edited, and ``uninstall`` puts every original
back.
"""
from __future__ import annotations

import importlib
import json
import sys
import time

#: ``module.attribute[.attribute]`` of every traced function; the span is
#: named the same, with ``__call__`` shown as ``call``.  Functions are
#: rebound wherever a ``gapextremes`` module holds them; methods are
#: rebound on their class.
TARGETS = (
    "streams.substream",
    "gaussian.sample_path",
    "gaussian.build_model",
    "harness.parse_config",
    "missingness.sample_indicators",
    "lambdalaw.LambdaLaw.sample",
    "events.CompiledEvents.__call__",
    "events.theory_limit",
    "events.theory_finite_n",
    "harness.simulate_event_counts",
    "harness.run_experiment",
    "harness.evaluate_theory",
    "harness.write_report",
    "cli.main",
    "limit_laws.order_stats_obs_missed_cdf",
    "limit_laws.order_stats_vs_all_cdf",
    "limit_laws.joint_counts_pmf",
    "limit_laws.void_probability_intervals",
    "limit_laws.finite_n_one_factor_prob",
    "limit_laws.locations_heights_cdf",
    "limit_oracle.sample_limit_counts",
    "limit_oracle.sample_limit_maxima_locations",
    "oracle_suite.counts_suite",
    "oracle_suite.maxima_suite",
)

PACKAGE = "gapextremes"
CONVERGE = "quadrature.converge"
INTEGRAND = "limit_laws.integrand"


def package_modules():
    """Every imported module of the package, the package itself included."""
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Span recorder for one process.  Single-threaded by design: the
    benchmark runs the program with ``workers = 1``."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index); parent -1 = root
        self.counters = {"rules": 0, "points": 0, "failures": 0}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def _wrap_converge(self, fn):
        counters = self.counters
        failure_type = sys.modules[PACKAGE + ".errors"].QuadratureConvergenceError

        def converge(law, evaluate, **kwargs):
            traced_evaluate = self.wrap(INTEGRAND, evaluate)

            def counted(rule):
                counters["rules"] += 1
                counters["points"] += rule.z.size * rule.lam.size
                return traced_evaluate(rule)

            try:
                return fn(law, counted, **kwargs)
            except failure_type:
                counters["failures"] += 1
                raise

        return self.wrap(CONVERGE, converge)

    # -- installation ------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for mod in package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        """Wrap every target, importing its module if needed."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for target in TARGETS:
            name = target.replace(".__call__", ".call")
            module, *outer, attr = target.split(".")
            owner = importlib.import_module(f"{PACKAGE}.{module}")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if outer:  # a method: its binding site is the class
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            else:
                self._rebind(original, self.wrap(name, original))
        quadrature = sys.modules[f"{PACKAGE}.quadrature"]
        self._rebind(quadrature.converge, self._wrap_converge(quadrature.converge))

    def uninstall(self) -> None:
        """Put back every original binding, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ``total_s`` and ``self_s``
        (duration minus the time covered by direct child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON: a name table plus
        [name index, start, end, parent] rows."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[n], s, e, p] for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows, "counters": self.counters}, fh)
