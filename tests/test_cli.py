import copy
import json
import math
import os

import pytest

from gapextremes.cli import main

CONFIG = {
    "model": {"family": "one_factor", "n": 200, "gamma": 0.5},
    "missingness": {"kind": "periodic", "pattern": "10"},
    "targets": [
        {
            "id": "joint_max",
            "terms": [
                {"type": "order_stat", "class": "observed", "k": 1, "x": 0.0},
                {"type": "order_stat", "class": "missed", "k": 1, "x": 0.5},
            ],
        }
    ],
    "reps": 2000,
    "master_seed": 99,
    "workers": 1,
    "sigma": 5.0,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    return str(path)


def _reports_in(out_dir):
    return sorted(f for f in os.listdir(out_dir) if f.endswith((".csv", ".json")))


def test_verify_passes_and_writes_reports(config_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(["verify", "--config", config_path, "--out", out])
    assert code == 0
    files = _reports_in(out)
    assert len(files) == 2
    stdout = capsys.readouterr().out
    assert "[pass] joint_max" in stdout


def test_verify_reruns_byte_identical(config_path, tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["verify", "--config", config_path, "--out", out_a]) == 0
    assert main(["verify", "--config", config_path, "--out", out_b]) == 0
    for name in _reports_in(out_a):
        with open(os.path.join(out_a, name), "rb") as fa, open(
            os.path.join(out_b, name), "rb"
        ) as fb:
            assert fa.read() == fb.read()


def test_simulate_and_evaluate(config_path, tmp_path):
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", config_path, "--out", out]) == 0
    assert main(["evaluate", "--config", config_path, "--out", out]) == 0


def test_flag_overrides_change_hash(config_path, tmp_path):
    out = str(tmp_path / "out")
    assert main(["verify", "--config", config_path, "--out", out]) == 0
    assert main(["verify", "--config", config_path, "--out", out, "--seed", "123"]) == 0
    # different master seed -> different config hash -> distinct files
    assert len(_reports_in(out)) == 4


def test_config_errors_exit_2(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["verify", "--config", missing, "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--config", str(bad), "--out", str(tmp_path)]) == 2
    unknown = tmp_path / "unknown.json"
    doc = dict(CONFIG)
    doc["mystery"] = True
    unknown.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(unknown), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(model=5),
        lambda d: d.update(missingness={"kind": "exchangeable", "lambda_law": 3}),
        lambda d: d["targets"][0].update(terms=5),
        lambda d: d["targets"][0]["terms"][0].update(k="a"),
        lambda d: d["model"].update(gamma="a"),
        lambda d: d.update(reps="x"),
        lambda d: d.update(master_seed=-1),
        # fractional values of integer fields are rejected, not truncated
        lambda d: d.update(master_seed=1.5),
        lambda d: d.update(reps=10.9),
        lambda d: d.update(reps=float("inf")),  # JSON Infinity; int() overflows
        lambda d: d.update(workers=1.9),
        lambda d: d["model"].update(n=1000.7),
        lambda d: d["targets"][0]["terms"][0].update(k=2.7),
        lambda d: d["targets"][0]["terms"].append(
            {"type": "count", "class": "observed", "intervals": [[0, 1]], "x": 0.0,
             "op": "le", "value": 1.4}
        ),
        # NaN and infinite values fail the range checks (JSON NaN and Infinity)
        lambda d: d["targets"][0]["terms"][0].update(x=math.nan),
        lambda d: d["targets"][0]["terms"].append(
            {"type": "count", "class": "observed", "intervals": [[0, 0.5]], "x": math.nan,
             "op": "eq", "value": 0}
        ),
        lambda d: d.update(missingness={"kind": "exchangeable", "lambda_law": {
            "kind": "beta", "alpha": math.nan, "beta": 2.0}}),
        lambda d: d.update(missingness={"kind": "exchangeable", "lambda_law": {
            "kind": "beta", "alpha": math.inf, "beta": 2.0}}),
        lambda d: d.update(missingness={"kind": "exchangeable", "lambda_law": {
            "kind": "discrete", "values": [0.2, 0.5], "weights": [math.nan, 1.0]}}),
        lambda d: d["model"].update(family="log_decay", shift=math.nan),
        lambda d: d["model"].update(family="log_decay", shift=math.inf),
        lambda d: d.update(sigma=math.inf),
        # JSON booleans are not numbers: no config field is boolean
        lambda d: d.update(reps=True),
        lambda d: d["targets"][0]["terms"][0].update(k=True),
        lambda d: d["targets"][0]["terms"][0].update(x=False),
        lambda d: d.update(sigma=True),
        lambda d: d.update(missingness={"kind": "iid_bernoulli", "p": True}),
        lambda d: d["model"].update(gamma=False),
    ],
    ids=[
        "model", "lambda_law", "terms", "k", "gamma", "reps", "master_seed",
        "master_seed_fraction", "reps_fraction", "reps_inf", "workers_fraction", "n_fraction",
        "k_fraction", "value_fraction", "x_nan", "count_x_nan", "beta_alpha_nan",
        "beta_alpha_inf", "discrete_weight_nan", "shift_nan", "shift_inf", "sigma_inf",
        "reps_bool", "k_bool", "x_bool", "sigma_bool", "p_bool", "gamma_bool",
    ],
)
def test_malformed_config_values_exit_2(tmp_path, capsys, mutate):
    doc = copy.deepcopy(CONFIG)
    mutate(doc)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    assert main(["evaluate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_model_error_has_one_prefix(tmp_path, capsys):
    doc = copy.deepcopy(CONFIG)
    doc["model"]["shift"] = 2.0
    path = tmp_path / "shift.json"
    path.write_text(json.dumps(doc))
    assert main(["evaluate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "config error: model: 'shift' applies to the log_decay family only\n"
    )


@pytest.mark.parametrize(
    "bad_term, message",
    [
        ({"type": "order_stat", "class": "missed", "k": 0, "x": 0.5},
         "order statistic rank must be >= 1, got 0"),
        ({"type": "count", "class": "missed", "intervals": [[0, 1]], "x": 0.0, "op": "eq",
          "value": -1},
         "count value must be >= 0, got -1"),
        ({"type": "location", "class": "missed", "s": 2.0},
         "location threshold must lie in (0,1], got 2.0"),
        ({"type": "count", "class": "missed", "intervals": [[0.5, 0.2]], "x": 0.0, "op": "eq",
          "value": 0},
         "bad interval (0.5, 0.2]"),
        ({"type": "count", "class": "missed", "intervals": [], "x": 0.0, "op": "eq", "value": 0},
         "interval family must be nonempty"),
        ({"type": "count", "class": "missed", "intervals": [[0.2, 0.6], [0.1, 0.3]], "x": 0.0,
          "op": "eq", "value": 0},
         "intervals must be disjoint and sorted"),
    ],
    ids=["order", "count", "location", "interval_reversed", "intervals_empty",
         "intervals_unsorted"],
)
def test_term_range_error_names_event_and_term(tmp_path, capsys, bad_term, message):
    doc = copy.deepcopy(CONFIG)
    doc["targets"].append({
        "id": "b",
        "terms": [{"type": "order_stat", "class": "observed", "k": 1, "x": 0.0}, bad_term],
    })
    path = tmp_path / "term.json"
    path.write_text(json.dumps(doc))
    assert main(["evaluate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: event 'b' term 1: {message}\n"


def test_verify_fails_with_exit_1(tmp_path):
    # impossible theory tolerance: sigma tiny makes a statistical miss certain
    doc = dict(CONFIG)
    doc["sigma"] = 1e-6
    doc["reps"] = 5000
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [["--samples", "0"], ["--samples", "-3"], ["--seed", "-2"], ["--sigma", "-1"], ["--sigma", "nan"],
     ["--sigma", "inf"]],
    ids=["samples0", "samples-3", "seed-2", "sigma-1", "sigma-nan", "sigma-inf"],
)
def test_oracle_bad_arguments_exit_2(tmp_path, capsys, argv):
    out = str(tmp_path / "oracle")
    assert main(["oracle", "--samples", "2000", *argv, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not os.path.exists(out)


def test_oracle_rejects_workers(tmp_path, capsys):
    out = str(tmp_path / "oracle")
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--samples", "2000", "--workers", "2", "--out", out])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_oracle_subcommand_small(tmp_path, capsys):
    out = str(tmp_path / "oracle")
    code = main(["oracle", "--samples", "30000", "--seed", "1", "--out", out])
    assert code == 0
    files = os.listdir(out)
    assert any(f.startswith("oracle-") for f in files)
    with open(os.path.join(out, "oracle-1-30000.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "check_id,samples,empirical,theory,z,pass"
    assert {line.rsplit(",", 1)[1] for line in lines[1:]} == {"true"}
    stdout = capsys.readouterr().out
    assert "0 failed" in stdout
