"""A config fuzzer: every config ``evaluate`` or ``verify`` is given ends in a
report or a clear exit 2, never in a traceback.

The strategy spans every family, missingness kind, fraction law and term
type, with values slightly outside their domains as well (those must end
in ``config error:``).  Path lengths run over [3, 1e12] plus edges: 2, 1e17,
2e18 (past numpy's largest array), 1e20 (past int64), 1e400 (past the float
range) and a 5000-digit literal (past Python's integer-string limit).
``verify`` gets only small n or the edges it refuses at once: an n between
1e5 and 1e17 could allocate paths that fit the address space but not the
machine's memory.

``evaluate`` may also exit 2 on a named quadrature failure (the
boundary-layer fraction laws of ROADMAP item 7, and Beta shapes so near 0
that their Gauss rule overflows); such exits are counted and reported as a
warning, not filtered out of the strategy.
"""
import contextlib
import io
import json
import math
import os
import re
import tempfile
import warnings
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gapextremes.cli import main

#: stands in for a 5000-digit literal, which json.dumps cannot write
HUGE_LITERAL = "__5000_digits__"

#: path lengths that verify refuses at once: 1e17 by an allocation past any
#: address space, the larger ones before anything is built
REFUSED_N = (10**17, 2 * 10**18, 10**20, 10**400, HUGE_LITERAL)

CLASSES = ("observed", "missed", "all")


def _mostly(common, rare):
    """Draws of ``common``, and of ``rare`` for one of eight selector values
    (a middle one: hypothesis favours the ends of a range)."""
    return st.integers(0, 7).flatmap(lambda i: rare if i == 3 else common)


def _count(low):
    """A count or rank, at times below its domain or past the float range."""
    return _mostly(st.integers(low, low + 3), st.sampled_from([low - 1, 10**400]))


_LEVEL = _mostly(st.floats(-3.0, 4.0), st.sampled_from([-math.inf, math.inf]))
_FRACTION = _mostly(st.floats(0.0, 1.0), st.floats(-0.1, 1.1))


@st.composite
def _intervals(draw):
    """Sorted disjoint (c, d] pairs in [0, 1]."""
    points = sorted(draw(st.sets(st.floats(0.0, 1.0), min_size=2, max_size=6)))
    return [[c, d] for c, d in zip(points[::2], points[1::2])]


@st.composite
def _uniform(draw):
    a, b = sorted(draw(st.lists(_FRACTION, min_size=2, max_size=2)))
    return {"kind": "uniform", "a": a, "b": b}


_TERMS = st.one_of(
    st.fixed_dictionaries({"type": st.just("order_stat"), "class": st.sampled_from(CLASSES),
                           "k": _count(1), "x": _LEVEL}),
    st.fixed_dictionaries({"type": st.just("count"), "class": st.sampled_from(CLASSES),
                           "intervals": _intervals(), "x": _LEVEL,
                           "op": st.sampled_from(["eq", "le"]), "value": _count(0)}),
    st.fixed_dictionaries({"type": st.just("location"), "class": st.sampled_from(CLASSES),
                           "s": _mostly(st.floats(0.0, 1.0, exclude_min=True),
                                        st.floats(-0.1, 1.1))}),
)

_LAMBDA_LAWS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("point"), "p": _FRACTION}),
    _uniform(),
    st.fixed_dictionaries({"kind": st.just("beta"), "alpha": st.floats(0.0, 5.0),
                           "beta": st.floats(0.0, 5.0)}),
    st.integers(1, 3).flatmap(lambda size: st.fixed_dictionaries({
        "kind": st.just("discrete"),
        "values": st.lists(_FRACTION, min_size=size, max_size=size),
        "weights": st.just([1.0 / size] * size)})),
)
_MISSINGNESS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("iid_bernoulli"), "p": _FRACTION}),
    st.fixed_dictionaries({"kind": st.just("exchangeable"), "lambda_law": _LAMBDA_LAWS}),
    st.fixed_dictionaries({"kind": st.just("periodic"),
                           "pattern": st.text("01", min_size=1, max_size=8)}),
)


@st.composite
def _model(draw, n):
    model = {"family": draw(st.sampled_from(["iid", "one_factor", "log_decay"])),
             "n": draw(n)}
    if model["family"] != "iid":
        model["gamma"] = draw(_mostly(st.floats(0.0, 1.5), st.floats(0.0, 4.0)))
    if model["family"] == "log_decay" and draw(st.booleans()):
        model["shift"] = draw(_mostly(st.floats(0.5, 6.0), st.floats(-1.2, 6.0)))
    return model


def _config(n):
    return st.fixed_dictionaries({
        "model": _model(n),
        "missingness": _MISSINGNESS,
        "targets": st.lists(st.lists(_TERMS, min_size=1, max_size=3), min_size=1,
                            max_size=2).map(
            lambda events: [{"id": f"e{i}", "terms": t} for i, t in enumerate(events)]),
        "reps": st.integers(1, 50),
        "master_seed": st.integers(0, 2**64),
    })


EVALUATE_N = _mostly(st.integers(3, 10**12), st.sampled_from((2, *REFUSED_N)))
VERIFY_N = _mostly(st.integers(2, 2048), st.sampled_from(REFUSED_N))


def _run(command: str, doc: dict, tmp: str):
    """Exit code, last stderr line and report paths of one in-process CLI
    run."""
    config = os.path.join(tmp, "config.json")
    with open(config, "w") as fh:
        fh.write(json.dumps(doc).replace(f'"{HUGE_LITERAL}"', "9" * 5000))
    out, stdout, stderr = os.path.join(tmp, "out"), io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([command, "--config", config, "--out", out])
    reports = sorted(os.listdir(out)) if os.path.exists(out) else []
    # the last line: numpy's RuntimeWarnings may come before it
    err = (stderr.getvalue().splitlines() or [""])[-1]
    return code, err, [os.path.join(out, name) for name in reports]


def _strict_json(path: str) -> dict:
    def refuse(constant):
        raise AssertionError(f"{path}: non-strict JSON constant {constant}")

    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


QUADRATURE_EXIT = re.compile(r"error: event '[^']*': (integral did not stabilize|no Gauss rule)")
#: what else ``verify`` may refuse after parsing: a covariance that cannot be
#: embedded, and a path length past numpy's largest array or past memory
VERIFY_REFUSAL = re.compile(
    r"error: (embedding spectrum reaches|n = \d+ exceeds|Unable to allocate)")


def _fuzz_evaluate(max_examples: int) -> Counter:
    exits = Counter()

    @settings(max_examples=max_examples, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(_config(EVALUATE_N))
    def run(doc):
        with tempfile.TemporaryDirectory() as tmp:
            code, err, reports = _run("evaluate", doc, tmp)
            assert code in (0, 2), (code, err)
            if code == 2:
                assert not reports, reports
                if QUADRATURE_EXIT.match(err):
                    exits["quadrature"] += 1
                else:
                    assert err.startswith("config error: "), err
                    exits["config error"] += 1
                return
            exits["report"] += 1
            rows = _strict_json(reports[1])["rows"]
        for row in rows:
            for column in ("theory_limit", "theory_finite_n"):
                assert row[column] is None or 0.0 <= row[column] <= 1.0, row

    run()
    return exits


def _fuzz_verify(max_examples: int) -> Counter:
    exits = Counter()

    @settings(max_examples=max_examples, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(_config(VERIFY_N))
    def run(doc):
        with tempfile.TemporaryDirectory() as tmp:
            code, err, reports = _run("verify", doc, tmp)
            exits[code] += 1
            assert code in (0, 1, 2), (code, err)
            if code == 2:
                assert (err.startswith("config error: ") or VERIFY_REFUSAL.match(err)
                        or QUADRATURE_EXIT.match(err)), err
                assert not reports, reports
                return
            csv_path, json_path = reports
            with open(csv_path) as fh:
                header, *lines = fh.read().splitlines()
            # counted from the right: a fraction law such as uniform(0,1) is
            # written with its comma unquoted
            columns = header.split(",")
            column = columns.index("pass") - len(columns)
            csv_pass = [line.split(",")[column] == "true" for line in lines]
            json_pass = [row["pass"] for row in _strict_json(json_path)["rows"]]
        assert csv_pass == json_pass
        assert all(json_pass) == (code == 0), (code, json_pass)

    run()
    return exits


def _report(command: str, exits: Counter) -> None:
    """Name the quadrature exits in the test output, and print the rest."""
    print(f"{command} fuzz exits: {dict(exits)}")
    if exits["quadrature"]:
        warnings.warn(f"{command} fuzz: {exits['quadrature']} of {sum(exits.values())} "
                      "configs exit 2 on a named quadrature failure")


def test_evaluate_fuzz():
    _report("evaluate", _fuzz_evaluate(1000))


def test_verify_fuzz():
    _report("verify", _fuzz_verify(300))


@pytest.mark.slow
def test_evaluate_fuzz_large():
    _report("evaluate", _fuzz_evaluate(10000))


@pytest.mark.slow
def test_verify_fuzz_large():
    _report("verify", _fuzz_verify(3000))
