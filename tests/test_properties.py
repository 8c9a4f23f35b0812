"""Hypothesis property tests of report() over the whole parameter domain,
of reports() and gaps() against it, and of the one number format of the CLI."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tabounds import bounds, cli  # noqa: E402


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(eta=st.floats(0.0, 1.0), noise=st.floats(0.0, 0.5))
def test_qubit_report_over_the_domain(eta, noise):
    r = bounds.report("qubit", eta, noise)
    entries = [r.lower, r.best_upper, r.gap, *r.uppers.values()]
    assert all(math.isfinite(v) and v >= 0.0 for v in entries)
    assert r.lower <= r.best_upper + 1e-7
    assert r.gap >= 0.0
    assert bounds.report("qubit", eta, noise) == r


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(eta=st.floats(0.0, 1.0), noise=st.floats(0.0, 1e6))
def test_gaussian_report_over_the_domain(eta, noise):
    r = bounds.report("gaussian", eta, noise)
    entries = [r.lower, r.best_upper, *r.uppers.values()]
    if eta == 1.0:  # documented: the bounds diverge and the gap is pinned to 0
        assert all(v == math.inf for v in entries)
    else:
        assert all(math.isfinite(v) and v >= 0.0 for v in entries)
    # At N = 0 the lower, twist and swat bounds coincide; their routes differ by roundoff.
    assert r.lower <= r.best_upper + 1e-9
    assert r.gap >= 0.0
    assert bounds.report("gaussian", eta, noise) == r


# Small product grids mixing rows at eta = 1, rows pinned throughout or in
# part by the entanglement-breaking rule, and open rows.
_GRID_ETAS = st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=4)
_GRID_NOISES = st.lists(st.one_of(st.just(math.inf), st.floats(0.0, 1e6)), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(etas=_GRID_ETAS, noises=_GRID_NOISES, as_arrays=st.booleans())
def test_gaussian_grids_are_report_at_each_point(etas, noises, as_arrays):
    want = [bounds.report("gaussian", eta, noise) for eta in etas for noise in noises]
    axes = (np.array(etas), np.array(noises)) if as_arrays else (etas, noises)
    assert [repr(r) for r in bounds.reports("gaussian", *axes)] == [repr(r) for r in want]
    rows = list(bounds.gaps("gaussian", *axes))
    assert len(rows) == len(etas) and all(len(row) == len(noises) for row in rows)
    assert [repr(gap) for row in rows for gap in row] == [repr(r.gap) for r in want]


def _columns(r):
    return [r.lower, r.best_upper, *r.uppers.values()]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(etas=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2), noise=st.floats(0.0, 0.5))
def test_qubit_bounds_nondecreasing_in_eta(etas, noise):
    lo, hi = (bounds.report("qubit", eta, noise) for eta in sorted(etas))
    assert all(a <= b + 1e-7 for a, b in zip(_columns(lo), _columns(hi)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(etas=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2), noise=st.floats(0.0, 1e6))
def test_gaussian_bounds_nondecreasing_in_eta(etas, noise):
    lo, hi = (bounds.report("gaussian", eta, noise) for eta in sorted(etas))
    assert all(a <= b + 1e-12 for a, b in zip(_columns(lo), _columns(hi)))


# Reals whose 12-digit rendering sits at an edge: signed zeros and
# infinities, nan, the subnormal and normal extremes, the switch between
# fixed and exponent notation, and ties at the twelfth digit.
_FORMAT_EDGES = (
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, 1e-5, 1e-4, 999999999999.5, 1e12, 123456789012.5, 0.1234567890125,
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(xs=st.lists(
    st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), st.sampled_from(_FORMAT_EDGES)),
    min_size=1,
    max_size=8,
))
def test_one_number_format_renders_as_format_12g(xs):
    want = [format(float(x), ".12g") for x in xs]
    assert [cli._fmt(x) for x in xs] == want
    assert cli._row_template(len(xs)) % tuple(xs) == ",".join(want)
