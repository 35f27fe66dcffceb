import copy
import json
import math

import numpy as np
import pytest

from gapextremes import harness
from gapextremes.errors import ConfigError
from gapextremes.events import CompiledEvents
from gapextremes.gaussian import sample_path
from gapextremes.harness import (
    ComparisonReport,
    ReportRow,
    compare_estimates,
    estimate_from_count,
    evaluate_theory,
    parse_config,
    run_experiment,
    _simulate_range,
    simulate_event_counts,
    write_report,
)
from gapextremes.missingness import sample_indicators
from gapextremes.streams import substream

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
    a = parse_config(_config()).hash()
    b = parse_config(_config(master_seed=778)).hash()
    assert a != b
    assert a == parse_config(_config()).hash()


def test_config_hash_normalizes_numbers():
    doc = _config()
    doc["model"]["gamma"] = 1
    assert parse_config(doc).hash() == parse_config(_config()).hash()
    doc["reps"] = 3000.0
    doc["sigma"] = 5
    assert parse_config(doc).hash() == parse_config(_config()).hash()
    # integral floats in the other integer fields are accepted alike
    doc["model"]["n"] = 300.0
    doc["master_seed"] = 777.0
    doc["workers"] = 1.0
    doc["targets"][0]["terms"][0]["k"] = 1.0
    assert parse_config(doc).hash() == parse_config(_config()).hash()


def test_config_hash_ignores_execution_only_keys():
    base = parse_config(_config()).hash()
    assert parse_config(_config(out_dir="elsewhere")).hash() == base
    assert parse_config(_config(workers=3, report_name="other")).hash() == base
    assert parse_config(_config(master_seed=778)).hash() != base
    assert parse_config(_config(sigma=4.5)).hash() != base


# ---------------------------------------------------------------------------
# estimates


def test_estimate_examples():
    rec = estimate_from_count("e", 100, 100)
    assert rec.p_hat == 1.0 and rec.se == 0.0
    rec = estimate_from_count("e", 0, 100)
    assert rec.p_hat == 0.0
    rec = estimate_from_count("e", 500, 1000)
    assert rec.p_hat == 0.5
    assert rec.se == pytest.approx(0.015811, abs=1e-6)


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


# ---------------------------------------------------------------------------
# log_decay draws: two paths per circulant transform


def _order(which, k, x):
    return {"type": "order_stat", "class": which, "k": k, "x": x}


def _count(which, intervals, x, value):
    return {"type": "count", "class": which, "intervals": intervals, "x": x, "op": "eq",
            "value": value}


#: six event shapes: order statistics, locations, counts, voids and a tail
LOG_DECAY_EVENTS = [
    {"id": "joint_max", "terms": [_order("observed", 1, 0.0), _order("missed", 1, 0.5)]},
    {"id": "kth_vs_all", "terms": [_order("observed", 2, 0.5), _order("all", 3, 0.0)]},
    {"id": "location_pair", "terms": [
        {"type": "location", "class": "observed", "s": 0.5},
        {"type": "location", "class": "missed", "s": 0.5}]},
    {"id": "count_pmf", "terms": [
        _count("observed", [[0, 1]], 0.0, 1), _count("missed", [[0, 1]], 0.0, 0)]},
    {"id": "void_two_cells", "terms": [
        _count("all", [[0, 0.5]], 0.0, 0), _count("all", [[0.5, 1]], 1.0, 0)]},
    {"id": "tail", "terms": [_order("all", 1, 12.0)]},
]


def _log_decay_config(n, reps, master_seed, workers=1):
    return parse_config({
        "model": {"family": "log_decay", "n": n, "gamma": 0.5},
        "missingness": {"kind": "iid_bernoulli", "p": 0.5},
        "targets": LOG_DECAY_EVENTS,
        "reps": reps,
        "master_seed": master_seed,
        "workers": workers,
    })


def _real_part_path(model, stream):
    """The single-path log_decay draw: m normals for the real parts of the
    circulant noise, m for the imaginary parts, and the real part of the
    transform."""
    m = len(model.scale)  # scale = sqrt(spectrum / m)
    noise = stream.standard_normal(m) + 1j * stream.standard_normal(m)
    return np.fft.fft(model.scale * noise).real[: model.n]


def test_log_decay_two_path_draws_match_real_part_sampler_in_law():
    n, reps = 1024, 4000
    config = _log_decay_config(n, reps, master_seed=41)
    hits = simulate_event_counts(config)

    ref_seed = 42  # an independent sample for the reference side
    model = config.build_model()
    compiled = CompiledEvents(config.events, n)
    ref = np.zeros(len(config.events), dtype=np.int64)
    for r in range(reps):
        path = _real_part_path(model, substream(ref_seed, r, "path"))
        eps = sample_indicators(config.missingness, n, substream(ref_seed, r, "indicators"))
        ref += compiled(path, eps)

    for event, a, b in zip(config.events, hits, ref):
        pooled = (a + b) / (2 * reps)
        se = math.sqrt(pooled * (1.0 - pooled) * 2.0 / reps)
        if se == 0.0:
            assert a == b, event.event_id
        else:
            assert abs(a - b) / reps / se <= 4.0, (event.event_id, a, b)


def test_log_decay_counts_invariant_to_worker_count_and_split():
    # odd reps: the last draw's second path is never used, and splits at odd
    # replications cut a draw in two
    config = _log_decay_config(256, 7, master_seed=5)
    single = simulate_event_counts(config)
    for workers in (2, 3):
        multi = simulate_event_counts(_log_decay_config(256, 7, master_seed=5, workers=workers))
        assert np.array_equal(single, multi)
    whole = _simulate_range(config, 0, 7)
    assert np.array_equal(whole, single)
    assert np.array_equal(_simulate_range(config, 0, 3) + _simulate_range(config, 3, 7), whole)
    assert np.array_equal(sum(_simulate_range(config, r, r + 1) for r in range(7)), whole)


def test_log_decay_replication_takes_its_row_of_its_draw():
    # draw j = r // 2 comes from the (seed, j, "path") stream; replication r
    # takes row r - 2j of it and its own (seed, r, "indicators") stream
    config = _log_decay_config(256, 7, master_seed=5)
    model = config.build_model()
    compiled = CompiledEvents(config.events, config.n)
    for r in range(7):
        path = sample_path(model, substream(5, r // 2, "path"))[r % 2]
        eps = sample_indicators(config.missingness, config.n, substream(5, r, "indicators"))
        assert np.array_equal(_simulate_range(config, r, r + 1), compiled(path, eps).astype(np.int64))


def _per_replication(config, lo, hi):
    """Event hit counts of replications lo..hi-1, one replication at a time:
    row r % k of draw r // k and the indicators of replication r."""
    model = config.build_model()
    k = model.spec.paths_per_draw
    compiled = CompiledEvents(config.events, config.n)
    counts = np.zeros(len(config.events), dtype=np.int64)
    for r in range(lo, hi):
        path = sample_path(model, substream(config.master_seed, r // k, "path"))[r % k]
        eps = sample_indicators(config.missingness, config.n,
                                substream(config.master_seed, r, "indicators"))
        counts += compiled(path, eps)
    return counts


@pytest.mark.parametrize("model, missingness", [
    ({"family": "one_factor", "n": 64, "gamma": 1.0},
     {"kind": "exchangeable", "lambda_law": {"kind": "uniform", "a": 0.0, "b": 1.0}}),
    ({"family": "iid", "n": 50}, {"kind": "iid_bernoulli", "p": 0.3}),
    ({"family": "one_factor", "n": 64, "gamma": 0.5}, {"kind": "periodic", "pattern": "110"}),
    ({"family": "log_decay", "n": 64, "gamma": 0.5}, {"kind": "iid_bernoulli", "p": 0.5}),
], ids=["one_factor-exchangeable", "iid-bernoulli", "periodic", "log_decay"])
def test_block_size_does_not_change_counts(monkeypatch, model, missingness):
    # low levels, so that most replications have exceedances
    events = LOG_DECAY_EVENTS + [
        {"id": "low", "terms": [{"type": "count", "class": "all", "intervals": [[0.1, 0.3], [0.6, 1]],
                                 "x": -6.0, "op": "le", "value": 14}]},
        {"id": "low_location", "terms": [{"type": "location", "class": "all", "s": 0.4},
                                         _order("all", 1, 1.0)]},
    ]
    config = parse_config({"model": model, "missingness": missingness, "targets": events,
                           "reps": 11, "master_seed": 3})
    splits = [(0, 11), (0, 4), (4, 11), (3, 8), (5, 6)]
    expected = {span: _per_replication(config, *span) for span in splits}
    assert np.array_equal(expected[0, 4] + expected[4, 11], expected[0, 11])
    assert all(0 < hits < 11 for hits in expected[0, 11][-2:])
    n = config.n
    for elements in (n, 3 * n, harness.BLOCK_ELEMENTS):  # B = 1, 3 and the default
        monkeypatch.setattr(harness, "BLOCK_ELEMENTS", elements)
        for span in splits:
            assert np.array_equal(_simulate_range(config, *span), expected[span]), (elements, span)
