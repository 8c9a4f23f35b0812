"""Deterministic one-dimensional maximization over [0, 1].

Both entry points pick an index ``i`` of a 129-point grid on [0, 1] whose
neighbours bracket the maximum, then refine that bracket by golden section
to a width of 1e-9; they share the grid and the refinement, so the same
``i`` gives the same bits.  Every evaluation follows one rule: it is
counted, its value is ``float(f(x))``, and a non-finite value raises
``EvaluationError`` carrying ``x``.  The grid evaluations call
``_evaluate``; the golden-section loop, which makes most of a
maximization's evaluations, applies the rule inline.  The count is the
number of grid points evaluated plus the refinement's own evaluations.

- ``maximize_scalar`` evaluates the whole grid and takes the first index of
  its largest value.  The scan guards against objectives that sit on a flat
  zero plateau over part of the interval, which the capacity curves do
  whenever they are clamped at zero, and against several local maxima.
- ``maximize_unimodal`` finds the same index by binary search on the grid,
  comparing neighbouring values.  For an objective that is non-decreasing up
  to its first largest grid value and non-increasing after it, it gives
  ``maximize_scalar``'s result bit for bit from fewer evaluations; a flat
  pair of neighbours, and some objectives that are not of that shape, send
  it to the full scan.  The qubit bounds use it, and ``verify`` checks it
  against ``maximize_scalar``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

SCAN_POINTS = 129
_TOL = 1e-9  # bracket width at which the golden-section refinement stops
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class EvaluationError(ValueError):
    """Objective returned a non-finite value; carries the offending abscissa."""

    def __init__(self, x: float, value):
        super().__init__(f"objective returned non-finite value {value!r} at x = {x!r}")
        self.x = x
        self.value = value


@dataclass(frozen=True)
class ScalarMaxResult:
    argmax: float
    value: float
    evaluations: int


def _evaluate(f: Callable[[float], float], x: float) -> float:
    """``float(f(x))``, raising ``EvaluationError`` on a non-finite value."""
    y = float(f(x))
    if not math.isfinite(y):
        raise EvaluationError(x, y)
    return y


_UNIT_GRID = tuple(k / (SCAN_POINTS - 1) for k in range(SCAN_POINTS))


def _refine(f: Callable[[float], float], i: int, y_i: float, count: int) -> ScalarMaxResult:
    """Golden section on the neighbours of grid point ``i`` (clipped to
    [0, 1]), starting from the grid's best point (x_i, y_i) whatever order
    the grid was evaluated in; the best point is the first one evaluated on
    ties.  ``count`` grid points were evaluated before; the bracket loop
    evaluates ``f`` inline, by ``_evaluate``'s rule."""
    best_x, best_f = _UNIT_GRID[i], y_i
    a = _UNIT_GRID[i - 1] if i > 0 else 0.0
    b = _UNIT_GRID[i + 1] if i < SCAN_POINTS - 1 else 1.0
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = _evaluate(f, c)
    fd = _evaluate(f, d)
    count += 2
    if fc > best_f:
        best_x, best_f = c, fc
    if fd > best_f:
        best_x, best_f = d, fd
    while (b - a) > _TOL:
        left = fc >= fd
        if left:
            b, d, fd = d, c, fc
            x = c = b - _INV_PHI * (b - a)
        else:
            a, c, fc = c, d, fd
            x = d = a + _INV_PHI * (b - a)
        count += 1
        y = float(f(x))
        if not math.isfinite(y):
            raise EvaluationError(x, y)
        if y > best_f:
            best_x, best_f = x, y
        if left:
            fc = y
        else:
            fd = y
    return ScalarMaxResult(argmax=best_x, value=best_f, evaluations=count)


def maximize_scalar(f: Callable[[float], float]) -> ScalarMaxResult:
    """Maximize ``f`` over [0, 1]; exact for the best point ever evaluated.

    For a strictly concave objective the returned argmax is within 1e-9 of
    the true maximizer.  The result never falls below the best value of the
    initial scan, and identical inputs give bit-identical results.
    """
    ys = [_evaluate(f, x) for x in _UNIT_GRID]
    i = max(range(SCAN_POINTS), key=ys.__getitem__)  # first index on ties
    return _refine(f, i, ys[i], SCAN_POINTS)


def maximize_unimodal(f: Callable[[float], float]) -> ScalarMaxResult:
    """``maximize_scalar(f)`` for a unimodal ``f``, bit for bit,
    from fewer evaluations.

    Unimodal here means non-decreasing up to the first largest grid value
    and non-increasing after it.  The grid index is found by binary search,
    each grid value evaluated at most once; while the neighbours it compares
    differ, that first largest value stays inside its bracket.  A flat pair
    of neighbours, which may lie on a plateau below the maximum, sends it to
    the full scan, as does an index that is not the first largest value seen
    or not strictly above both endpoints; the full scan's rule then picks
    the index.  Other objectives can end on a local maximum.
    """
    xs = _UNIT_GRID
    last = SCAN_POINTS - 1
    ys: dict[int, float] = {0: _evaluate(f, xs[0]), last: _evaluate(f, xs[last])}

    def y(k: int) -> float:
        if k not in ys:
            ys[k] = _evaluate(f, xs[k])
        return ys[k]

    left, right = 0, last
    while left < right:
        m = (left + right) // 2
        a, b = y(m), y(m + 1)
        if a == b:
            break  # left < right marks the flat pair
        if a < b:
            left = m + 1
        else:
            right = m
    # The full scan's rule, first index of the largest value, on the values seen.
    i = max(sorted(ys), key=ys.__getitem__)
    if left < right or i != left or not ys[i] > max(ys[0], ys[last]):
        for k in range(SCAN_POINTS):
            y(k)
        i = max(range(SCAN_POINTS), key=ys.__getitem__)
    return _refine(f, i, ys[i], len(ys))
