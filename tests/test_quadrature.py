import math

import numpy as np
import pytest

from gapextremes.errors import QuadratureConvergenceError
from gapextremes.lambdalaw import LambdaLaw
from gapextremes.limit_laws import g_step
from gapextremes.quadrature import converge, rule_for


@pytest.mark.parametrize("law", [LambdaLaw.point(0.5), LambdaLaw.uniform(0, 1), LambdaLaw.beta(2, 2)])
def test_weights_normalized(law):
    rule = rule_for(law, 64, 64, steps=())
    assert rule.lam_weights.sum() == pytest.approx(1.0, abs=1e-15)
    # doubling the node count moves the integral of 1 by < 1e-14
    bigger = rule_for(law, 128, 128, steps=())
    assert abs(rule.expect(np.ones((rule.lam.size, rule.z.size))) - 1.0) < 1e-14
    assert abs(bigger.expect(np.ones((bigger.lam.size, bigger.z.size))) - 1.0) < 1e-14


def test_gaussian_moments_exact():
    rule = rule_for(LambdaLaw.point(1.0), 64, 1, steps=((0.0, 1.0),))
    assert rule.expect(rule.z) == pytest.approx(0.0, abs=1e-13)
    assert rule.expect(rule.z**2) == pytest.approx(1.0, abs=1e-12)
    assert rule.expect(rule.z**4) == pytest.approx(3.0, abs=1e-11)
    # lognormal mean: E exp(a Z) = exp(a^2 / 2)
    for a in (0.5, 1.0, 2.0):
        assert rule.expect(np.exp(a * rule.z)) == pytest.approx(math.exp(a * a / 2), rel=1e-12)


def test_converge_returns_stable_value():
    law = LambdaLaw.uniform(0, 1)

    def evaluate(rule):
        lam = rule.lam_col
        return rule.expect(np.exp(-lam * np.exp(-1.0 + math.sqrt(2.0) * rule.z)))

    step = (g_step(1.0, 0.0),)
    value = converge(law, evaluate, steps=step, shape=(1,))[0]
    finer = evaluate(rule_for(law, 512, 512, steps=step))
    assert value == pytest.approx(finer, abs=1e-9)


def test_converge_escalates_then_errors():
    calls = []

    def never_stable(rule):
        calls.append(rule.n_z)
        return float(len(calls))  # changes every time

    with pytest.raises(QuadratureConvergenceError):
        converge(LambdaLaw.point(0.5), never_stable, steps=(), shape=(1,))
    assert calls == [64, 128, 256, 512]


def test_rules_are_cached_and_immutable():
    a = rule_for(LambdaLaw.beta(2, 2), 64, 64, steps=())
    b = rule_for(LambdaLaw.beta(2, 2), 64, 64, steps=())
    assert a.lam is b.lam
    with pytest.raises(ValueError):
        a.z[0] = 0.0


def test_converge_elementwise_keeps_each_first_stable_value():
    # element 0 settles at 128 nodes, element 1 at 256, element 2 at 512
    seen = []
    answers = {
        64: [1.0, 2.0, 3.0],
        128: [1.0, 2.5, 3.5],
        256: [7.0, 2.5, 3.7],
        512: [9.0, 8.0, 3.7],
    }

    def evaluate(rule):
        seen.append(rule.n_z)
        return np.array(answers[rule.n_z])[rule.rows]

    value = converge(LambdaLaw.point(0.5), evaluate, steps=(), shape=(3,))
    assert isinstance(value, np.ndarray) and value.dtype == float
    assert value.tolist() == [1.0, 2.5, 3.7]
    assert seen == [64, 128, 256, 512]


def test_converge_elementwise_stops_once_all_settled():
    seen = []

    def evaluate(rule):
        seen.append(rule.n_z)
        return np.array([0.5, 0.25] if rule.n_z > 64 else [0.0, 0.25])[rule.rows]

    value = converge(LambdaLaw.uniform(0, 1), evaluate, steps=(), shape=(1, 2))
    assert value.shape == (1, 2) and value.tolist() == [[0.5, 0.25]]
    assert seen == [64, 128, 256]


def test_converge_one_unsettled_element_raises():
    calls = []

    def evaluate(rule):
        calls.append(rule.n_z)
        return np.array([1.0, float(len(calls))])[rule.rows]

    with pytest.raises(QuadratureConvergenceError, match="1 of 2"):
        converge(LambdaLaw.point(0.5), evaluate, steps=(), shape=(2,))
    assert calls == [64, 128, 256, 512]


def test_stepped_rule_cuts_panels_at_each_step():
    # 8 uniform panels on [-10, 10] plus c + j w, j = -6..3: 18 panels
    rule = rule_for(LambdaLaw.point(1.0), 64, 1, steps=((0.3, 0.2),))
    assert rule.z.size == 18 * 8 and rule.steps == ((0.3, 0.2),)
    assert abs(rule.z_weights.sum() - 1.0) < 1e-11
    finer = rule_for(LambdaLaw.point(1.0), 128, 1, steps=((0.3, 0.2),))
    assert finer.z.size == 18 * 16 and abs(finer.z_weights.sum() - 1.0) < 1e-15
    # breakpoints outside [-10, 10] are clipped, and shared ones count once
    rule = rule_for(LambdaLaw.point(1.0), 64, 1, steps=((20.0, 0.2), (0.0, 2.5)))
    assert rule.z.size == 8 * 8


def test_stepped_rule_without_steps_has_one_node():
    rule = rule_for(LambdaLaw.uniform(0, 1), 128, 128, steps=())
    assert rule.z.tolist() == [0.0] and rule.z_weights.tolist() == [1.0]
    assert rule.lam.size == 128


def test_converge_hands_later_rules_only_pending_rows():
    # element 0 settles at 128 nodes, element 1 at 256, element 2 at 512
    answers = {
        64: [1.0, 2.0, 3.0],
        128: [1.0, 2.5, 3.5],
        256: [7.0, 2.5, 3.7],
        512: [9.0, 8.0, 3.7],
    }
    seen = []

    def evaluate(rule):
        seen.append(rule.rows.tolist())
        return np.array([answers[rule.n_z][i] for i in rule.rows])

    value = converge(LambdaLaw.point(0.5), evaluate, steps=(), shape=(3,))
    assert value.tolist() == [1.0, 2.5, 3.7]
    assert seen == [[0, 1, 2], [0, 1, 2], [1, 2], [2]]


def test_converge_rows_are_flat_indices_of_the_shape():
    seen = []

    def evaluate(rule):
        seen.append(rule.rows.tolist())
        answers = [0.0, 0.25, 0.5, 0.0] if len(seen) == 1 else [0.0, 0.25, 0.5, 1.0]
        return np.array([answers[i] for i in rule.rows])

    value = converge(LambdaLaw.point(0.5), evaluate, steps=(), shape=(2, 2))
    assert value.shape == (2, 2) and value.tolist() == [[0.0, 0.25], [0.5, 1.0]]
    assert seen == [[0, 1, 2, 3], [0, 1, 2, 3], [3]]


def test_converge_passes_steps_to_every_rule():
    seen = []

    def evaluate(rule):
        seen.append((rule.n_z, rule.steps, rule.z.size))
        return float(len(seen) > 1)

    converge(LambdaLaw.point(0.5), evaluate, steps=((0.3, 0.2),), shape=(1,))
    assert seen == [(64, ((0.3, 0.2),), 144), (128, ((0.3, 0.2),), 288), (256, ((0.3, 0.2),), 576)]


def test_converge_rejects_a_return_of_other_rows():
    # an evaluation returns just the pending rows, a one-element batch one value
    with pytest.raises(ValueError):
        converge(LambdaLaw.point(0.5), lambda rule: np.zeros(3), steps=(), shape=(2,))
    with pytest.raises(ValueError):
        converge(LambdaLaw.point(0.5), lambda rule: np.zeros(2), steps=(), shape=(1,))
