"""Hypothesis property tests of report() over the whole parameter domain."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tabounds import bounds  # noqa: E402


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(eta=st.floats(0.0, 1.0), noise=st.floats(0.0, 0.5))
def test_qubit_report_over_the_domain(eta, noise):
    r = bounds.report("qubit", eta, noise)
    entries = [r.lower, r.best_upper, r.gap, *r.uppers.values()]
    assert all(math.isfinite(v) and v >= 0.0 for v in entries)
    assert r.lower <= r.best_upper + 1e-7
    assert r.gap >= 0.0
    assert bounds.report("qubit", eta, noise) == r
