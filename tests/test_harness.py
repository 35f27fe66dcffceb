import copy
import json
import math

import numpy as np
import pytest

from gapextremes.errors import ConfigError
from gapextremes.harness import (
    ComparisonReport,
    ReportRow,
    compare_estimates,
    config_hash,
    estimate_event_probability,
    estimate_from_count,
    evaluate_theory,
    parse_config,
    run_experiment,
    simulate_event_counts,
    write_report,
)

BASE_CONFIG = {
    "model": {"family": "one_factor", "n": 300, "gamma": 1.0},
    "missingness": {"kind": "iid_bernoulli", "p": 0.5},
    "targets": [
        {
            "id": "joint_max",
            "terms": [
                {"type": "order_stat", "class": "observed", "k": 1, "x": 0.0},
                {"type": "order_stat", "class": "missed", "k": 1, "x": 0.5},
            ],
        },
        {
            "id": "locations",
            "terms": [
                {"type": "location", "class": "observed", "s": 0.5},
                {"type": "location", "class": "missed", "s": 0.5},
            ],
        },
    ],
    "reps": 3000,
    "master_seed": 777,
    "workers": 1,
    "sigma": 5.0,
}


def _config(**overrides):
    doc = copy.deepcopy(BASE_CONFIG)
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# config validation


def test_parse_config_accepts_base():
    config = parse_config(_config())
    assert config.n == 300
    assert config.spec.gamma == 1.0
    assert len(config.events) == 2


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(reps=0),
        lambda d: d.update(unknown_key=1),
        lambda d: d.pop("targets"),
        lambda d: d.update(targets=[]),
        lambda d: d["model"].update(family="phantom"),
        lambda d: d["model"].update(extra=2),
        lambda d: d["model"].update(shift=3.0),  # shift is log_decay-only
        lambda d: d["missingness"].update(kind="sometimes"),
        lambda d: d.update(workers=0),
        lambda d: d.update(sigma=-1.0),
        lambda d: d.update(sigma=math.nan),
    ],
)
def test_parse_config_rejects(mutate):
    doc = _config()
    mutate(doc)
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_parse_config_rejects_duplicate_event_ids():
    doc = _config()
    doc["targets"] = [doc["targets"][0], copy.deepcopy(doc["targets"][0])]
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_parse_config_rejects_bad_model_parameters():
    with pytest.raises(ConfigError):
        parse_config(_config(model={"family": "one_factor", "n": 300, "gamma": 7.0}))


def test_config_hash_sensitivity():
    a = config_hash(_config())
    b = config_hash(_config(master_seed=778))
    assert a != b
    assert a == config_hash(_config())


def test_config_hash_normalizes_numbers():
    doc = _config()
    doc["model"]["gamma"] = 1
    assert config_hash(doc) == config_hash(_config())
    doc["reps"] = 3000.0
    doc["sigma"] = 5
    assert config_hash(doc) == config_hash(_config())
    # integral floats in the other integer fields are accepted alike
    doc["model"]["n"] = 300.0
    doc["master_seed"] = 777.0
    doc["workers"] = 1.0
    doc["targets"][0]["terms"][0]["k"] = 1.0
    assert config_hash(doc) == config_hash(_config())


def test_config_hash_ignores_execution_only_keys():
    base = config_hash(_config())
    assert config_hash(_config(out_dir="elsewhere")) == base
    assert config_hash(_config(workers=3, report_name="other")) == base
    assert config_hash(_config(master_seed=778)) != base
    assert config_hash(_config(sigma=4.5)) != base
    assert parse_config(_config(out_dir="elsewhere")).hash() == base


# ---------------------------------------------------------------------------
# estimates


def test_estimate_examples():
    rec = estimate_event_probability([True] * 100)
    assert rec.p_hat == 1.0 and rec.se == 0.0 and rec.ci_high == 1.0
    rec = estimate_event_probability([False] * 100)
    assert rec.p_hat == 0.0 and rec.ci_low == 0.0
    rec = estimate_from_count("e", 500, 1000)
    assert rec.p_hat == 0.5
    assert rec.se == pytest.approx(0.015811, abs=1e-6)
    assert rec.ci_low == pytest.approx(0.5 - 2.5758293 * rec.se, abs=1e-9)


def test_compare_examples():
    rec = estimate_from_count("e", 500, 1000)
    z, ok = compare_estimates(rec, rec.p_hat, 4.0)
    assert z == 0.0 and ok
    # just inside the threshold passes, just outside fails; the z unit is
    # the standard error under the tested value, sqrt(0.25 / 40000) = 0.0025
    rec = estimate_from_count("e", 20399, 40000)  # 0.5 + 3.99 * 0.0025
    z, ok = compare_estimates(rec, 0.5, 4.0)
    assert z == pytest.approx(3.99) and ok
    rec = estimate_from_count("e", 20401, 40000)  # 0.5 + 4.01 * 0.0025
    z, ok = compare_estimates(rec, 0.5, 4.0)
    assert z == pytest.approx(4.01) and not ok
    # the estimate's own standard error collapses here; the tested value's does not
    degenerate = estimate_from_count("e", 1000, 1000)
    z, ok = compare_estimates(degenerate, 0.5, 4.0)
    assert z == pytest.approx(math.sqrt(1000.0)) and not ok


def test_collapsed_standard_error_does_not_fail():
    # every replication hits an event of probability 0.999994: the Wald
    # standard error is 0, yet the estimate agrees with the theory
    doc = _config(
        model={"family": "iid", "n": 100},
        targets=[
            {"id": "tail", "terms": [{"type": "order_stat", "class": "all", "k": 1, "x": 12.0}]}
        ],
        reps=200,
    )
    (row,) = run_experiment(parse_config(doc)).rows
    assert row.p_hat == 1.0 and row.se == 0.0
    assert math.isfinite(row.z_limit) and row.passed


def test_compare_validates_theory():
    rec = estimate_from_count("e", 5, 10)
    with pytest.raises(ConfigError):
        compare_estimates(rec, 1.5, 4.0)


# ---------------------------------------------------------------------------
# engine determinism


def test_counts_invariant_to_worker_count():
    single = simulate_event_counts(parse_config(_config(reps=600)))
    multi = simulate_event_counts(parse_config(_config(reps=600, workers=2)))
    triple = simulate_event_counts(parse_config(_config(reps=600, workers=3)))
    assert np.array_equal(single, multi)
    assert np.array_equal(single, triple)


def test_reports_byte_identical_across_runs(tmp_path):
    config = parse_config(_config(reps=500))
    rep_a = run_experiment(config)
    rep_b = run_experiment(config)
    assert rep_a.to_csv() == rep_b.to_csv()
    assert rep_a.to_json() == rep_b.to_json()
    csv_a, json_a = write_report(rep_a, str(tmp_path), "r")
    csv_b, json_b = write_report(rep_b, str(tmp_path), "r")
    assert csv_a == csv_b  # same config, same filename
    assert open(csv_a, "rb").read() == open(json_a.replace(".json", ".csv"), "rb").read()


def test_seed_changes_results():
    a = simulate_event_counts(parse_config(_config(reps=400)))
    b = simulate_event_counts(parse_config(_config(reps=400, master_seed=778)))
    assert not np.array_equal(a, b)


def test_distinct_configs_write_distinct_files(tmp_path):
    rep_a = run_experiment(parse_config(_config(reps=200)))
    rep_b = run_experiment(parse_config(_config(reps=201)))
    csv_a, _ = write_report(rep_a, str(tmp_path), "r")
    csv_b, _ = write_report(rep_b, str(tmp_path), "r")
    assert csv_a != csv_b


# ---------------------------------------------------------------------------
# reports


def test_report_shape_and_theory_columns(tmp_path):
    config = parse_config(_config(reps=400))
    report = run_experiment(config)
    csv = report.to_csv()
    header, *rows = csv.strip().split("\n")
    assert header.split(",")[:5] == ["event_id", "n", "gamma", "lambda_law", "reps"]
    assert len(rows) == 2
    first = rows[0].split(",")
    assert first[0] == "joint_max"
    assert first[3] == "point(0.5)"
    assert first[-1] == report.config_hash
    # limit theory attached; no finite-n theory under random missingness
    row = report.rows[0]
    assert row.theory_limit is not None and row.theory_finite_n is None
    payload = json.loads(report.to_json())
    assert payload["config_hash"] == report.config_hash
    assert payload["rows"][0]["pass"] in (True, False)


def test_json_report_writes_nonfinite_as_null():
    # z is still infinite when the theory is 0 or 1 and the estimate differs
    rec = estimate_from_count("e", 3, 10)
    z_hi, _ = compare_estimates(rec, 0.0)
    z_lo = -z_hi
    rows = tuple(
        ReportRow("e", 10, 0.0, "point(1)", 10, rec.p_hat, rec.se, 0.0, None, z, None, False)
        for z in (z_hi, z_lo)
    )
    text = ComparisonReport(rows=rows, config_hash="abc", sigma=4.0).to_json()

    def reject(literal):
        raise AssertionError(f"non-strict JSON literal {literal}")

    payload = json.loads(text, parse_constant=reject)
    assert math.isinf(z_hi) and [row["z_limit"] for row in payload["rows"]] == [None, None]
    assert payload["rows"][0]["p_hat"] == rec.p_hat


def test_periodic_one_factor_gets_finite_n_theory():
    doc = _config(missingness={"kind": "periodic", "pattern": "10"}, reps=400)
    report = run_experiment(parse_config(doc))
    row = report.rows[0]
    assert row.theory_finite_n is not None
    assert row.z_finite_n is not None


def test_evaluate_theory_has_no_estimates():
    report = evaluate_theory(parse_config(_config()))
    assert all(row.p_hat is None and row.reps == 0 for row in report.rows)
    assert report.rows[0].theory_limit is not None


def test_float_format_17_digits():
    config = parse_config(_config(reps=300))
    report = run_experiment(config)
    line = report.to_csv().strip().split("\n")[1]
    p_hat_field = line.split(",")[5]
    assert float(p_hat_field) == report.rows[0].p_hat


def test_estimates_match_theory_at_modest_n():
    # one_factor n=300 is already close to the limit; 5 sigma at 3000 reps
    # comfortably covers the O(1/ln n) bias for these events
    report = run_experiment(parse_config(_config()))
    assert report.all_pass(), report.to_csv()
