import copy
import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

import gapextremes
from gapextremes.cli import build_parser, main
from gapextremes.oracle_suite import CheckRow

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


def test_cached_parser_parses_like_a_fresh_one(config_path):
    assert build_parser() is build_parser()
    argvs = [["verify", "--config", config_path, "--seed", "5", "--sigma", "3"],
             ["oracle", "--samples", "100", "--out", "x"],
             ["evaluate", "--config", config_path, "--workers", "2"],
             ["simulate", "--config", config_path],
             ["oracle"]]
    for argv in argvs + argvs[::-1]:
        fresh = build_parser.__wrapped__().parse_args(argv)
        assert vars(build_parser().parse_args(argv)) == vars(fresh)


def test_consecutive_main_calls_do_not_share_flags(config_path, tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["verify", "--config", config_path, "--out", out_a]) == 0
    assert main(["evaluate", "--config", config_path, "--seed", "7", "--sigma", "0.5",
                 "--workers", "2", "--out", str(tmp_path / "x")]) == 0
    assert main(["oracle", "--samples", "20000", "--seed", "3", "--out", str(tmp_path / "y")]) == 0
    assert main(["verify", "--config", config_path, "--out", out_b]) == 0
    assert _reports_in(out_a) == _reports_in(out_b)
    for name in _reports_in(out_a):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_help_and_usage_errors_exit_as_argparse_does(config_path, capsys):
    for _ in range(2):  # the second call sees the cached parser
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: gapextremes ") and "{evaluate,simulate,verify,oracle}" in out
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: gapextremes verify ")
        assert "the following arguments are required: --config" in err
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--config", config_path, "--bogus"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err


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
        # string fields must be JSON strings
        lambda d: d.update(report_name=None),
        lambda d: d.update(report_name={"a": 1}),
        lambda d: d.update(out_dir=None),
        lambda d: d.update(out_dir=7),
        lambda d: d["targets"][0].update(id=None),
        lambda d: d["targets"][0].update(id=3),
        lambda d: d.update(missingness={"kind": "periodic", "pattern": 10}),
        # numeric fields must be JSON numbers, not numeric strings
        lambda d: d.update(reps="3"),
        lambda d: d["targets"][0]["terms"][0].update(k="2"),
        lambda d: d["targets"][0]["terms"][0].update(x="0.5"),
        lambda d: d["model"].update(gamma="0.5"),
        lambda d: d.update(sigma="5"),
        lambda d: d["targets"][0]["terms"].append(
            {"type": "count", "class": "observed", "intervals": [["0", "0.5"]], "x": 0.0,
             "op": "eq", "value": 0}
        ),
        lambda d: d.update(missingness={"kind": "exchangeable", "lambda_law": {
            "kind": "discrete", "values": ["0.2", 0.5], "weights": [0.5, 0.5]}}),
    ],
    ids=[
        "model", "lambda_law", "terms", "k", "gamma", "reps", "master_seed",
        "master_seed_fraction", "reps_fraction", "reps_inf", "workers_fraction", "n_fraction",
        "k_fraction", "value_fraction", "x_nan", "count_x_nan", "beta_alpha_nan",
        "beta_alpha_inf", "discrete_weight_nan", "shift_nan", "shift_inf", "sigma_inf",
        "reps_bool", "k_bool", "x_bool", "sigma_bool", "p_bool", "gamma_bool",
        "report_name_null", "report_name_object", "out_dir_null", "out_dir_number", "id_null",
        "id_number", "pattern_number", "reps_string", "k_string", "x_string", "gamma_string",
        "sigma_string", "intervals_strings", "discrete_values_string",
    ],
)
def test_malformed_config_values_exit_2(tmp_path, capsys, mutate):
    doc = copy.deepcopy(CONFIG)
    mutate(doc)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    assert main(["evaluate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_log_decay_shift_below_minus_one_exits_2(tmp_path, capsys):
    # ln(1 + shift) is undefined at lag 1: no NaN path is sampled and no
    # report is written
    doc = copy.deepcopy(CONFIG)
    doc["model"] = {"family": "log_decay", "n": 100, "gamma": 0.01, "shift": -1.5}
    path, out = tmp_path / "shift.json", tmp_path / "out"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: model: log_decay shift must be finite and exceed -1 so ln(k + shift) "
        "is defined at every lag k >= 1, got -1.5\n"
    )
    assert not out.exists()


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
    "missingness, message",
    [
        ({"kind": "iid_bernoulli"}, "missingness: missing keys ['p']"),
        ({"kind": "iid_bernoulli", "p": 0.5, "pattern": "10"},
         "missingness: unknown keys ['pattern']"),
        ({"kind": "exchangeable", "lambda_law": {"kind": "point"}},
         "missingness: lambda_law: missing keys ['p']"),
    ],
    ids=["missing", "unknown", "nested"],
)
def test_section_key_error_has_one_prefix(tmp_path, capsys, missingness, message):
    doc = copy.deepcopy(CONFIG)
    doc["missingness"] = missingness
    path = tmp_path / "keys.json"
    path.write_text(json.dumps(doc))
    assert main(["evaluate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize(
    "put, message",
    [
        ({("missingness",): {"kind": "exchangeable",
                             "lambda_law": {"kind": "uniform", "a": "x", "b": 0.9}}},
         "missingness: lambda_law: a must be a number, got 'x'"),
        ({("missingness",): {"kind": "exchangeable",
                             "lambda_law": {"kind": "uniform", "a": 0.1, "b": "x"}}},
         "missingness: lambda_law: b must be a number, got 'x'"),
        ({("targets", 0, "terms", 0, "x"): "0.5"},
         "event 'joint_max' term 0: x must be a number, got '0.5'"),
        ({("targets", 0, "terms", 0): {"type": "location", "class": "missed", "s": "x"}},
         "event 'joint_max' term 0: s must be a number, got 'x'"),
        ({("targets", 0, "terms", 0, "k"): "2"},
         "event 'joint_max' term 0: k must be an integer, got '2'"),
        ({("reps",): "3"}, "config: reps must be an integer, got '3'"),
        ({("model", "gamma"): "0.5"}, "model: gamma must be a number, got '0.5'"),
        ({("out_dir",): None}, "config: out_dir must be a string, got None"),
        ({("report_name",): {"a": 1}}, "config: report_name must be a string, got {'a': 1}"),
        ({("targets", 0, "id"): None}, "event: id must be a string, got None"),
        ({("missingness",): {"kind": "periodic", "pattern": 10}},
         "missingness: pattern must be a string, got 10"),
    ],
    ids=["uniform.a", "uniform.b", "order_stat.x", "location.s", "order_stat.k", "reps",
         "gamma", "out_dir", "report_name", "id", "pattern"],
)
def test_field_type_error_names_the_field(tmp_path, capsys, put, message):
    doc = copy.deepcopy(CONFIG)
    for path, value in put.items():
        _put(doc, path, value)
    path = tmp_path / "field.json"
    path.write_text(json.dumps(doc))
    assert main(["evaluate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def _field_cases():
    """(location, sections put in place first, path of the field) for every
    numeric and list field of a config, with the field's section kind and
    name as id."""
    law, term = ("missingness", "lambda_law"), ("targets", 0, "terms", 0)
    laws = [{"kind": "point", "p": 0.5},
            {"kind": "discrete", "values": [0.2, 0.5], "weights": [0.5, 0.5]},
            {"kind": "uniform", "a": 0.1, "b": 0.9},
            {"kind": "beta", "alpha": 2.0, "beta": 2.0}]
    terms = [{"type": "order_stat", "class": "observed", "k": 1, "x": 0.0},
             {"type": "count", "class": "missed", "intervals": [[0, 1]], "x": 0.0, "op": "eq",
              "value": 0},
             {"type": "location", "class": "missed", "s": 0.5}]
    cases = [pytest.param("config", {}, (key,), id=key)
             for key in ("reps", "workers", "master_seed", "sigma", "targets")]
    cases += [
        pytest.param("model", {}, ("model", "n"), id="n"),
        pytest.param("model", {}, ("model", "gamma"), id="gamma"),
        pytest.param("model", {("model", "family"): "log_decay", ("model", "shift"): 3.0},
                     ("model", "shift"), id="shift"),
        pytest.param("missingness", {("missingness",): {"kind": "iid_bernoulli", "p": 0.5}},
                     ("missingness", "p"), id="iid_bernoulli.p"),
        pytest.param("event 'joint_max'", {}, ("targets", 0, "terms"), id="terms"),
    ]
    cases += [pytest.param("missingness: lambda_law",
                           {("missingness",): {"kind": "exchangeable", "lambda_law": doc}},
                           (*law, key), id=f"{doc['kind']}.{key}")
              for doc in laws for key in doc if key != "kind"]
    cases += [pytest.param("event 'joint_max' term 0", {term: doc}, (*term, key),
                           id=f"{doc['type']}.{key}")
              for doc in terms for key in doc if key not in ("type", "class", "op")]
    return cases


def _put(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize("bad", [{"a": 1}, "ab"], ids=["object", "string"])
@pytest.mark.parametrize("location, setup, field", _field_cases())
def test_wrong_type_error_names_its_section(tmp_path, capsys, location, setup, field, bad):
    doc = copy.deepcopy(CONFIG)
    for path, value in setup.items():
        _put(doc, path, copy.deepcopy(value))
    _put(doc, field, bad)
    path = tmp_path / "field.json"
    path.write_text(json.dumps(doc))
    assert main(["evaluate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {location}:")


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
    columns = ["pass" if f.name == "passed" else f.name for f in dataclasses.fields(CheckRow)]
    assert lines[0].split(",") == columns
    assert {line.rsplit(",", 1)[1] for line in lines[1:]} == {"true"}
    stdout = capsys.readouterr().out
    assert "0 failed" in stdout


def test_wide_count_search_gives_no_theory_at_once(tmp_path):
    # a shared count ranging over 0..1e9 is past the assignment cap: the
    # search stops before it pushes the range, and the row has no theory
    doc = copy.deepcopy(CONFIG)
    doc["targets"] = [{"id": "wide", "terms": [
        {"type": "order_stat", "class": "observed", "k": 10**9 + 1, "x": 0.0},
        {"type": "count", "class": "observed", "intervals": [[0, 0.5]], "x": 0.0,
         "op": "le", "value": 10**9},
    ]}]
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(doc))
    assert main(["evaluate", "--config", str(path), "--out", str(out)]) == 0
    (csv_name,) = [f for f in _reports_in(out) if f.endswith(".csv")]
    header, row = (out / csv_name).read_text().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["theory_limit"] == fields["theory_finite_n"] == ""


def test_quadrature_failure_names_the_event(tmp_path, capsys, monkeypatch):
    # with the node budget cut to the first rule nothing can settle
    monkeypatch.setattr("gapextremes.quadrature.MAX_NODES", 64)
    doc = copy.deepcopy(CONFIG)
    doc["model"] = {"family": "one_factor", "n": 100000, "gamma": 8.0}
    doc["targets"] = [
        {"id": "os_obs", "terms": [{"type": "order_stat", "class": "observed", "k": 2, "x": -2.0}]},
        {"id": "os_pair", "terms": [
            {"type": "order_stat", "class": "observed", "k": 1, "x": -2.0},
            {"type": "order_stat", "class": "missed", "k": 2, "x": -2.0},
        ]},
    ]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["evaluate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "error: event 'os_obs': integral did not stabilize to 1e-10 by the rule of ")
    assert err.count("event ") == 1
    assert "Gauss-Legendre z panels of 8 nodes x 1 fraction nodes, 1 of 1 elements unsettled" in err


def test_simulation_beyond_the_address_space_exits_2(tmp_path, capsys):
    # one path of 1e17 float64 values is 8e17 bytes, more than any x86-64
    # user address space (2^57 bytes with five-level paging), so the block
    # buffer's allocation fails at once under any overcommit setting; a
    # size that fits would be left to the OOM killer, which cannot be caught
    doc = copy.deepcopy(CONFIG)
    doc["model"] = {"family": "one_factor", "n": 10**17, "gamma": 0.5}
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_oracle_beyond_the_address_space_exits_2(tmp_path, capsys):
    # the first setting's fraction draws, 1e17 float64 values, exceed any
    # x86-64 address space and are refused at once, before any report
    # directory is made
    out = tmp_path / "oracle"
    assert main(["oracle", "--samples", str(10**17), "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_commands_leave_scipy_special_unimported(tmp_path):
    # importing scipy.special costs a process 0.2 s or more, most of a short
    # verify run; only a Poisson cdf factor of a rank above 32 may import it
    pmf = {"type": "count", "class": "observed", "intervals": [[0, 1]], "x": 0.0,
           "op": "eq", "value": 2}
    docs = {"periodic": CONFIG}
    for name, law in (("beta22", {"kind": "beta", "alpha": 2.0, "beta": 2.0}),
                      ("uniform", {"kind": "uniform", "a": 0.0, "b": 1.0})):
        docs[name] = copy.deepcopy(CONFIG)
        docs[name]["missingness"] = {"kind": "exchangeable", "lambda_law": law}
        docs[name]["targets"].append({"id": "pmf", "terms": [pmf]})
    docs["uniform"]["reps"] = 500
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    out = str(tmp_path / "out")
    commands = [["evaluate", "--config", paths["beta22"], "--out", out],
                ["evaluate", "--config", paths["periodic"], "--out", out],
                ["verify", "--config", paths["uniform"], "--out", out],
                ["oracle", "--samples", "20000", "--seed", "1", "--out", out]]
    script = ("import sys\n"
              "from gapextremes.cli import main\n"
              f"for argv in {commands!r}:\n"
              "    assert main(argv) == 0, argv\n"
              "assert 'scipy.special' not in sys.modules, 'scipy.special imported'\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(gapextremes.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("report: ") == 7


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize("n", [2 * 10**18, 10**20])
@pytest.mark.parametrize("family", ["one_factor", "log_decay"])
def test_simulation_past_the_largest_array_exits_2(tmp_path, capsys, command, n, family):
    # past numpy's largest array (or int64) a path cannot even be shaped:
    # the size is refused before the model is built or anything allocated
    doc = copy.deepcopy(CONFIG)
    doc["model"] = {"family": family, "n": n, "gamma": 0.5}
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: n = {n} exceeds ")
    assert not out.exists()


def test_oracle_past_the_largest_array_exits_2(tmp_path, capsys):
    out = tmp_path / "oracle"
    assert main(["oracle", "--samples", str(2 * 10**18), "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: --samples {2 * 10**18} exceeds ")
    assert not out.exists()


NON_EMBEDDABLE = {"family": "log_decay", "n": 256, "gamma": 1.3}


def test_evaluate_reports_the_limit_of_a_non_embeddable_covariance(tmp_path):
    # the limit never uses the circulant embedding
    doc = copy.deepcopy(CONFIG)
    doc["model"] = NON_EMBEDDABLE
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(doc))
    assert main(["evaluate", "--config", str(path), "--out", str(out)]) == 0
    (json_path,) = [f for f in _reports_in(out) if f.endswith(".json")]
    (row,) = json.loads((out / json_path).read_text())["rows"]
    assert 0.0 < row["theory_limit"] < 1.0


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_non_embeddable_covariance_exits_2_where_paths_are_drawn(tmp_path, capsys, command,
                                                                 workers):
    doc = copy.deepcopy(CONFIG)
    doc["model"] = NON_EMBEDDABLE
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path), "--out", str(out), "--workers", workers]) == 2
    assert capsys.readouterr().err.startswith("error: embedding spectrum reaches ")
    assert not out.exists()


def _literal_config(tmp_path, field: str, literal: str) -> str:
    """A config file whose ``field`` is the JSON text ``literal``, which
    json.dumps could not write for an integer of more than 4300 digits."""
    doc = copy.deepcopy(CONFIG)
    doc["targets"].append({"id": "count", "terms": [
        {"type": "count", "class": "observed", "intervals": [[0, 1]], "x": 0.0, "op": "le",
         "value": 0}]})
    placeholder = "__literal__"
    if field == "n":
        doc["model"]["n"] = placeholder
    elif field == "k":
        doc["targets"][0]["terms"][0]["k"] = placeholder
    elif field == "value":
        doc["targets"][1]["terms"][0]["value"] = placeholder
    else:
        doc[field] = placeholder
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc).replace(f'"{placeholder}"', literal))
    return str(path)


@pytest.mark.parametrize("command", ["evaluate", "verify"])
@pytest.mark.parametrize("field", ["n", "k", "value", "master_seed"])
def test_an_integer_past_the_float_range_is_a_config_error(tmp_path, capsys, command, field):
    # 1e400 overflowed 1.0 / n in the finite-n law and the event bounds
    path = _literal_config(tmp_path, field, str(10**400))
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "must fit a float" in err, err
    assert "1329 bits" in err
    assert not out.exists()


def test_a_master_seed_below_the_float_limit_is_accepted(tmp_path):
    path = _literal_config(tmp_path, "master_seed", str(2**1023))
    assert main(["evaluate", "--config", path, "--out", str(tmp_path / "out")]) == 0


def test_an_integer_literal_of_5000_digits_is_a_config_error(tmp_path, capsys):
    # json.load refuses more than 4300 digits with a plain ValueError (or
    # reads it, on a Python without the limit, and the float check refuses it)
    path = _literal_config(tmp_path, "n", "9" * 5000)
    out = tmp_path / "out"
    assert main(["evaluate", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"model": "\xff"}')
    assert main(["evaluate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: config is not valid JSON: ")
