"""Command-line driver.

Subcommands:

* ``evaluate`` — theory-only table for the events of a configuration.
* ``simulate`` — Monte Carlo estimates plus theory columns.
* ``verify``  — simulate, compare, exit 0 when every check passes.
* ``oracle``  — limit-sampler vs closed-form equivalence suites.

Exit codes: 0 all pass, 1 a comparison failed, 2 configuration or
runtime error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .errors import ConfigError, GapExtremesError
from .harness import evaluate_theory, parse_config, report_csv, run_experiment, write_report
from .oracle_suite import CheckRow, counts_suite, maxima_suite


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    as it was, and a process that calls ``main`` many times would
    otherwise pay about a millisecond per call to build it."""
    parser = argparse.ArgumentParser(
        prog="gapextremes",
        description="Monte Carlo and limit-law verification for extremes of "
        "partially observed Gaussian sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, experiment: bool) -> None:
        if experiment:
            p.add_argument("--config", required=True, help="experiment config (JSON)")
            p.add_argument("--workers", type=int, default=None, help="override worker count")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--out", default=None, help="report output directory (overrides config out_dir)")
        p.add_argument("--sigma", type=float, default=None, help="pass/fail z threshold")

    for name, help_text in (
        ("evaluate", "evaluate limit laws without simulating"),
        ("simulate", "run the Monte Carlo experiment"),
        ("verify", "simulate and compare against theory"),
    ):
        p_exp = sub.add_parser(name, help=help_text)
        add_common(p_exp, experiment=True)
        p_exp.set_defaults(func=_cmd_experiment)

    p_orc = sub.add_parser("oracle", help="limit-sampler equivalence suites")
    add_common(p_orc, experiment=False)
    p_orc.add_argument("--samples", type=int, default=1_000_000, help="oracle sample count")
    p_orc.set_defaults(func=_cmd_oracle)
    return parser


def _load_config(args) -> "ExperimentConfig":
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if args.seed is not None:
        doc["master_seed"] = args.seed
    if args.workers is not None:
        doc["workers"] = args.workers
    if args.sigma is not None:
        doc["sigma"] = args.sigma
    return parse_config(doc)


def _report_and_print(report, args, config) -> None:
    out_dir = args.out if args.out is not None else config.out_dir
    csv_path, json_path = write_report(report, out_dir, config.report_name)
    for row in report.rows:
        status = "pass" if row.passed else "FAIL"
        theory = row.theory_finite_n if row.theory_finite_n is not None else row.theory_limit
        theory_s = f"{theory:.6g}" if theory is not None else "n/a"
        p_s = f"{row.p_hat:.6g}" if row.p_hat is not None else "n/a"
        print(f"[{status}] {row.event_id}: p_hat={p_s} theory={theory_s}")
    print(f"report: {csv_path}")
    print(f"report: {json_path}")


def _cmd_experiment(args) -> int:
    """evaluate, simulate or verify; only verify exits 1 on a failed check."""
    config = _load_config(args)
    report = evaluate_theory(config) if args.command == "evaluate" else run_experiment(config)
    _report_and_print(report, args, config)
    return 1 if args.command == "verify" and not report.all_pass() else 0


def _cmd_oracle(args) -> int:
    seed = args.seed if args.seed is not None else 0
    sigma = args.sigma if args.sigma is not None else 4.0
    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    if not 0 < sigma < math.inf:  # NaN too
        raise ConfigError(f"--sigma must be positive and finite, got {sigma}")
    rows = counts_suite(samples=args.samples, seed=seed, sigma=sigma)
    rows += maxima_suite(samples=args.samples, seed=seed, sigma=sigma)
    out_dir = args.out if args.out is not None else "reports"
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"oracle-{seed}-{args.samples}.csv")
    with open(out_path, "w", newline="") as fh:
        fh.write(report_csv(CheckRow, rows))
    failures = [row for row in rows if not row.passed]
    print(f"oracle checks: {len(rows)} total, {len(failures)} failed")
    for row in failures:
        print(f"[FAIL] {row.check_id}: empirical={row.empirical:.6g} "
              f"theory={row.theory:.6g} z={row.z:.2f}")
    print(f"report: {out_path}")
    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (GapExtremesError, MemoryError) as exc:
        # an allocation refused at once; the OOM killer cannot be caught
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
