import math

import pytest

from tabounds.optimize import EvaluationError, maximize_scalar, maximize_unimodal

SCAN_POINTS = 129


def test_quadratic_argmax():
    res = maximize_scalar(lambda x: -((x - 0.3) ** 2))
    assert abs(res.argmax - 0.3) < 1e-8
    assert res.value == pytest.approx(0.0, abs=1e-16)


def test_plateau_constant():
    res = maximize_scalar(lambda x: 2.5)
    assert res.value == 2.5
    assert 0.0 <= res.argmax <= 1.0


def test_value_equals_objective_at_argmax():
    f = lambda x: math.sin(10.0 * x)
    res = maximize_scalar(f)
    assert res.value == f(res.argmax)


def test_value_at_least_scan_max():
    f = lambda x: math.sin(51.0 * x) + 0.9 * x
    res = maximize_scalar(f)
    scan = max(f(k / (SCAN_POINTS - 1)) for k in range(SCAN_POINTS))
    assert res.value >= scan


def test_boundary_maximum():
    res = maximize_scalar(lambda x: x)
    assert res.argmax == 1.0
    assert res.value == 1.0


def test_evaluation_count_reported():
    calls = []
    res = maximize_scalar(lambda x: calls.append(x) or -((2.0 * x - 1.0) ** 2))
    assert res.evaluations == len(calls)


def test_non_finite_objective_carries_abscissa():
    def f(x):
        return float("nan") if x > 0.75 else x

    with pytest.raises(EvaluationError) as err:
        maximize_scalar(f)
    assert err.value.x > 0.75


def test_deterministic_bit_for_bit():
    f = lambda x: -((x - 1.0 / 3.0) ** 2) + 0.1 * math.cos(9.0 * x)
    a = maximize_scalar(f)
    b = maximize_scalar(f)
    assert (a.argmax, a.value, a.evaluations) == (b.argmax, b.value, b.evaluations)


def test_concave_argmax_within_tol():
    for target in (0.1234567, 0.5, 0.987):
        res = maximize_scalar(lambda x, t=target: -abs(x - t) ** 1.5)
        assert abs(res.argmax - target) < 1e-9


def _plateau_below_the_top(x):
    # -1 at 0, rising to a flat 0 on [0.1, 0.55], peak 1 at 0.75, -1 at 1.
    if x <= 0.55:
        return min(10.0 * x - 1.0, 0.0)
    return min(5.0 * (x - 0.55), 1.0 - 8.0 * (x - 0.75))


# maximize_unimodal against its oracle, maximize_scalar: the same
# argmax and value bits, with the evaluations it spends.
UNIMODAL_CASES = {
    "quadratic": (lambda x: -((x - 0.3) ** 2), False),
    "maximum-at-an-endpoint": (lambda x: x, True),
    "constant": (lambda x: 2.5, True),
    # The first pair the search compares lies on the plateau [0.4, 0.6].
    "plateau-at-the-top": (lambda x: -max(abs(x - 0.5) - 0.1, 0.0), True),
    # The search meets the plateau [0.1, 0.55], whose left end is above both
    # endpoints: without the full scan it would stop there, at 0.
    "plateau-below-the-top": (_plateau_below_the_top, True),
    # Flat at 0 on [0.1, 0.3], peak 0.4 at 0.7: the search never meets the plateau.
    "plateau-off-the-search-path": (lambda x: max(min(x - 0.1, 0.0), 0.4 - abs(x - 0.7)), False),
    "zero-at-both-endpoints-negative-inside": (lambda x: -x * (1.0 - x), True),
    # The search ends on the peak at 0.25 after seeing the larger value at 0.5.
    "larger-value-off-the-search-path": (lambda x: 2.0 if x == 0.5 else -abs(x - 0.25), True),
}


@pytest.mark.parametrize("name", list(UNIMODAL_CASES))
def test_unimodal_matches_the_full_scan_bit_for_bit(name):
    f, falls_back = UNIMODAL_CASES[name]
    calls = []
    fast = maximize_unimodal(lambda x: calls.append(x) or f(x))
    full = maximize_scalar(f)
    assert (repr(fast.argmax), repr(fast.value)) == (repr(full.argmax), repr(full.value))
    assert fast.evaluations == len(calls)
    # Every grid point is evaluated at most once; the fallback evaluates all.
    grid = [k / (SCAN_POINTS - 1) for k in range(SCAN_POINTS)]
    scanned = [x for x in calls if x in grid]
    assert len(scanned) == len(set(scanned))
    assert (len(scanned) == SCAN_POINTS) == falls_back
    assert fast.evaluations <= full.evaluations
    assert falls_back or fast.evaluations < full.evaluations


def test_unimodal_raises_on_a_nan_objective():
    with pytest.raises(EvaluationError) as fast:
        maximize_unimodal(lambda x: math.nan)
    with pytest.raises(EvaluationError) as full:
        maximize_scalar(lambda x: math.nan)
    assert fast.value.x == full.value.x == 0.0


@pytest.mark.parametrize("maximize", [maximize_scalar, maximize_unimodal])
def test_non_finite_value_inside_the_golden_section_loop(maximize):
    # nan only on an open interval around the peak that holds no grid point
    # k/128, so only the golden-section refinement can meet it.
    hole = (0.2999, 0.3001)
    assert not any(hole[0] < k / (SCAN_POINTS - 1) < hole[1] for k in range(SCAN_POINTS))

    def peak(x):
        return -abs(x - 0.3)

    with pytest.raises(EvaluationError) as err:
        maximize(lambda x: math.nan if hole[0] < x < hole[1] else peak(x))
    assert hole[0] < err.value.x < hole[1]
    assert math.isnan(err.value.value)
    calls = []
    res = maximize(lambda x: calls.append(x) or peak(x))
    assert res.evaluations == len(calls)
    assert hole[0] < res.argmax < hole[1]
