"""Every closed form of the package: the capacity bounds and the report.

This module needs only ``math``: it holds the thermal entropy ``g_function``,
the qubit channel's domain (``QubitAttenuatorParams``), the two coherent
informations of a dilation (``VARIANT_FACTORS``), the qubit coherent
information of diagonal inputs from closed-form output spectra, the bosonic
bound formulas, and ``report``.  The oracle modules ``qubit`` and
``gaussian`` import these names and check them against brute-force
dilations; nothing here imports them, so a report never loads numpy.  The
qubit bounds maximize ``diagonal_objective``, the diagonal closed form (one
closure for both variants, whose spectra share one shape) built once per
maximization, with ``optimize.maximize_unimodal``: the extended
objective is concave (the extended channel is degradable), and where the
direct one has been seen not to be unimodal (points of zero capacity), its
maximum sat at an endpoint, which the search's fallback to the full scan
handles; ``verify`` checks the result against ``maximize_scalar``.  The
bosonic bounds are explicit, each written once as a function of per-axis
terms (``_eta_terms``: 1 - eta, log2(eta/(1-eta)), -log2(1-eta) and
log2(eta); ``_noise_terms``: g(N) and log2(N+1)).  One row evaluator,
``_rows``, calls them on their terms over a product grid, one list per eta
row, taking each axis value's terms once, and it is the one loop that
applies report()'s gaussian regime rule; its docstring states the row
protocol (one callable per point, a pinned point given as five equal
bounds) and the gap-only exit.  ``validate`` is the one place an input
becomes a float.  report() is a one-point grid, ``reports(kind, etas,
noises)`` gives report() at each point of a product grid, row by row, and
``gaps(kind, etas, noises)`` those reports' gaps alone, one list per eta
row, with no report built for the gaussian kind; both validate each
gaussian axis value once and compute on its float (``_check_axes``).
Every report is an immutable ``BoundsReport`` (a ``typing.NamedTuple``)
built by ``_record``.  Each public gauss_* function reads its bound from
the five that ``_rows`` gives a one-point grid without its breaking pin
(pinned at eta = 1 only), and ``verify``'s two product grids read its rows
with their own callables.  Everything is a pure function of (eta, noise),
so grids of report() calls can run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

from .optimize import maximize_unimodal

QUBIT = "qubit"
GAUSSIAN = "gaussian"
_LN2 = math.log(2.0)


def g_function(n: float) -> float:
    """Entropy in bits of a thermal mode of mean photon number n, g(0) = 0
    and g(inf) = inf.  A float, as a numpy float32 or an int argument is
    computed with in float64."""
    if not 0.0 < n < math.inf:  # an endpoint, or invalid (negative or nan)
        if n == 0.0:
            return 0.0
        if n == math.inf:
            return math.inf
        raise ValueError(f"mean photon number n must be nonnegative, got {n!r}")
    if type(n) is not float:  # a float, the usual case, as given
        n = float(n)
    # g(n) = (log1p(n) + n log1p(1/n)) / ln 2: both terms are positive, so
    # nothing cancels at either end of the range.  Below n ~ 5.6e-309 the
    # reciprocal overflows; there n log1p(1/n) equals -n log(n) to roundoff.
    inv = 1.0 / n
    tail = n * math.log1p(inv) if inv < math.inf else -n * math.log(n)
    return (math.log1p(n) + tail) / _LN2


@dataclass(frozen=True)
class QubitAttenuatorParams:
    """Transmissivity eta in [0, 1] and environment mean energy noise in [0, 1/2].

    The one definition of the qubit channel's domain: ``validate`` and the
    dilation's ``qubit.purified_environment`` and ``qubit.beamsplitter_unitary``
    delegate to it.  nan fails both range checks.  A valid value is stored
    as a float, so a numpy float32 or an int is computed with in float64.
    """

    eta: float
    noise: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta!r}")
        if not 0.0 <= self.noise <= 0.5:
            raise ValueError(f"noise must lie in [0, 1/2] for the qubit channel, got {self.noise!r}")
        if type(self.eta) is not float or type(self.noise) is not float:  # floats, the usual case, as given
            object.__setattr__(self, "eta", float(self.eta))
            object.__setattr__(self, "noise", float(self.noise))


# For each coherent information S(output) - S(complement) of a dilation on
# (B, F, E'), the indices of the output and complement factors (qubit) or
# modes (Gaussian): direct is S(B) - S(F, E'), extended is S(B, E') - S(F).
VARIANT_FACTORS = {"direct": ((0,), (1, 2)), "extended": ((0, 2), (1,))}


def variant_factors(variant: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (output, complement) indices of ``variant``; the one check of a variant name."""
    factors = VARIANT_FACTORS.get(variant)
    if factors is None:
        raise ValueError(f"variant must be 'direct' or 'extended', got {variant!r}")
    return factors


class BoundsReport(NamedTuple):
    """Lower bound, named upper bounds, their minimum, and the gap.

    An immutable record (setting a field raises AttributeError) and a tuple
    of its seven fields, whose ``repr`` names each field as a dataclass's
    does; a NamedTuple is about three times cheaper to build than a frozen
    dataclass, and sweeps build one per point.
    """

    channel_kind: str
    eta: float
    noise: float
    lower: float
    uppers: dict[str, float]
    best_upper: float
    gap: float


def _record(*fields) -> BoundsReport:
    """The BoundsReport of its seven ``fields``, built as the generated ``__new__``
    builds it, ``tuple.__new__(BoundsReport, fields)``, without that call's cost."""
    return tuple.__new__(BoundsReport, fields)


def validate(channel_kind: str, eta: float, noise: float) -> tuple[float, float]:
    """The point (eta, noise) as floats; ValueError unless it is a point of the channel family.

    eta must lie in [0, 1]; noise must be nonnegative for the gaussian
    channel (+inf included) and is checked by ``QubitAttenuatorParams`` for
    the qubit channel, whose floats are returned.  nan is rejected for both.
    Each message starts with the offending parameter's name.  The one place
    a ``bounds`` input becomes a float, after its checks, so a numpy float32
    or an int is computed with in float64 and a string stays a TypeError.
    """
    if channel_kind == QUBIT:
        c = QubitAttenuatorParams(eta, noise)
        return c.eta, c.noise
    if channel_kind != GAUSSIAN:
        raise ValueError(f"channel_kind must be 'qubit' or 'gaussian', got {channel_kind!r}")
    if not 0.0 <= eta <= 1.0:  # also rejects nan
        raise ValueError(f"eta must lie in [0, 1], got {eta!r}")
    if not noise >= 0.0:  # also rejects nan
        raise ValueError(f"noise must be nonnegative, got {noise!r}")
    return float(eta), float(noise)


def entanglement_breaking(eta: float, noise: float) -> bool:
    """True at the points report() pins at 0 by its gaussian regime rule: the attenuator
    breaks entanglement, and the amplifier-then-attenuator factorization does not exist."""
    return eta < 1.0 and noise >= _breaking_noise(eta)


def _breaking_noise(eta: float) -> float:
    """eta/(1-eta) for 0 <= eta < 1: the one place the threshold of report()'s
    gaussian regime rule is computed, which ``entanglement_breaking`` reads at
    each point and ``_rows`` once per eta row (a report() is a one-row grid)."""
    return eta / (1.0 - eta)


_GRID_SLACK = 1e-9


def grid_count(start: float, stop: float, step: float) -> int:
    """The number of points of ``grid(start, stop, step)``, without building them.

    ValueError naming ``step`` unless it is positive and finite, ``start``
    unless it is finite, and ``stop`` unless stop >= start (each check
    rejects nan); OverflowError where stop - start overflows to inf.  The
    count is computed in float64, whatever the arguments' type.
    """
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step!r}")
    if not math.isfinite(start):
        raise ValueError(f"start must be finite, got {start!r}")
    if not stop >= start:
        raise ValueError(f"stop must be at least start = {start!r}, got {stop!r}")
    return int(math.floor((float(stop) - float(start)) / float(step) + _GRID_SLACK)) + 1


def grid(start: float, stop: float, step: float) -> list[float]:
    """start, start + step, ... up to the inclusive stop (with 1e-9 steps of slack):
    the one grid rule of ``sweep``, the ``bounds/*`` checks of ``verify`` and the demos.
    The points are floats, computed in float64 whatever the arguments' type.
    A bad range raises as ``grid_count`` does."""
    count = grid_count(start, stop, step)
    start, stop, step = float(start), float(stop), float(step)
    xs = [start + k * step for k in range(count)]
    # start + k*step can land an ulp past the inclusive stop; emit stop itself.
    if abs(xs[-1] - stop) <= _GRID_SLACK * step:
        xs[-1] = stop
    return xs


def diagonal_objective(c: QubitAttenuatorParams, variant: str) -> Callable[[float], float]:
    """``p -> qubit.coherent_information_qubit(QubitState(p), c, variant)``, built once per (c, variant).

    On a diagonal input every marginal of the dilation splits into at most
    one 2x2 block on {|00>, |11>} plus diagonal entries, so the entropies
    come from closed-form eigenvalues.  With a = 1-N, b = N, u = 1-eta and
    (t, s) = (u, eta) for direct, (eta, u) for extended, both variants have
    one shape, S(B) - S(F,E') and S(B,E') - S(F) of the spectra of

    - the qubit B (direct) or F (extended): diag(1-r, r), r = s p + b t;
    - the pair (F,E') (direct) or (B,E'): [[a(1-p t), w sqrt(ab s)],
      [., b(1-(1-p) t)]] (+) diag(b t (1-p), a t p), w = 1 (direct) or 2p-1,
      of determinant ab p(1-p) k^2, k = u (direct) or 2-eta.

    Only the terms that depend on p are left to the returned function, written
    out as straight-line code: the larger block eigenvalue comes from the
    quadratic formula and the smaller is det / larger, as their difference
    cancels for a nearly rank-one block; each entropy is -sum x log2 x over
    its spectrum, with 0 log 0 = 0, summed left to right from its first
    present term.  At N = 0 the two variants are one function, bit for bit:
    with b = 0 each term of one is the same float operation on the same
    operands as a term of the other, in the same order.
    """
    variant_factors(variant)  # rejects an unknown variant
    direct = variant == "direct"
    eta, a, b = c.eta, 1.0 - c.noise, c.noise
    ab, u = a * b, 1.0 - eta
    t, s = (u, eta) if direct else (eta, u)
    # k^2 as two factors: direct multiplies by u twice and never forms u*u.
    k1, k2 = (u, u) if direct else ((2.0 - eta) ** 2, 1.0)
    root, bt, at = math.sqrt(ab * s), b * t, a * t
    log2, hypot = math.log2, math.hypot

    def objective(p: float) -> float:
        q = 1.0 - p
        r, x, z = s * p + bt, a * (1.0 - p * t), b * (1.0 - q * t)
        off = root if direct else (2.0 * p - 1.0) * root
        big = 0.5 * (x + z) + hypot(0.5 * (x - z), off)
        d0, d1, r_c = bt * q, at * p, 1.0 - r
        # -S of the one-qubit output, then of the two-qubit output over its four
        # eigenvalues; each starts at its first present term.  Every eigenvalue
        # lies in [0, 1] and log2(1.0) is +0.0, so no term x log2 x is -0.0 (at
        # the smallest subnormal it is about -5e-321): the sums are those taken
        # from 0.0, bit for bit.
        one = r_c * log2(r_c) if r_c > 0.0 else 0.0
        if r > 0.0:
            one += r * log2(r)
        if big > 0.0:
            four = big * log2(big)
            small = ab * p * q * k1 * k2 / big
            if small > 0.0:
                four += small * log2(small)
        else:
            four = 0.0
        if d0 > 0.0:
            four += d0 * log2(d0)
        if d1 > 0.0:
            four += d1 * log2(d1)
        return four - one if direct else one - four
    return objective


def coherent_information_diagonal(p: float, c: QubitAttenuatorParams, variant: str) -> float:
    """The coherent information of the input diag(1-p, p); see ``diagonal_objective``.

    p must lie in [0, 1], as for ``qubit.QubitState``; the objective itself,
    which the optimizer calls on [0, 1] only, does not check it.
    """
    if not 0.0 <= p <= 1.0:  # also rejects nan
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    return diagonal_objective(c, variant)(float(p))


def _qubit_max(eta: float, noise: float, variant: str) -> float:
    params = QubitAttenuatorParams(eta, noise)
    if eta <= 0.5:  # antidegradable: zero capacity
        return 0.0
    if eta == 1.0:  # identity channel: one qubit per use
        return 1.0
    res = maximize_unimodal(diagonal_objective(params, variant))
    return max(0.0, res.value)


def qubit_lower(eta: float, noise: float) -> float:
    """Single-letter coherent information of the qubit attenuator.

    Maximized over diagonal inputs (gamma = 0), which are numerically
    optimal for this channel; exactly 0 for eta <= 1/2 and 1 at eta = 1.
    """
    return _qubit_max(eta, noise, "direct")


def qubit_upper_extended(eta: float, noise: float) -> float:
    """Capacity of the extended qubit channel: max over p of the extended
    coherent information at gamma = 0; exactly 0 for eta <= 1/2 and 1 at
    eta = 1."""
    return _qubit_max(eta, noise, "extended")


# The bosonic bound formulas.  Each is a sum of eta-only and noise-only
# terms, so it takes those terms as arguments: ``_eta_terms`` and
# ``_noise_terms``, which ``_rows`` takes once per axis value of its grid (a
# report() is a one-point grid).  ``_rows`` is the one place the formulas are
# called on their terms, and the one loop that applies report()'s regime rule
# (see its docstring): report(), reports(), gaps(), each public gauss_*
# function (through ``_unpinned``) and the two product grids of ``verify``
# all read its rows.  The terms are those of validated values, the eta terms
# of eta < 1 only.
# Each formula clamps with ``x if x > 0.0 else 0.0``, the float that
# ``max(0.0, x)`` gives for every x, nan and -0.0 included, without its call.


def _eta_terms(eta: float) -> tuple[float, float, float, float]:
    """(1 - eta, log2(eta/(1-eta)), -log2(1 - eta), log2(eta)) for 0 <= eta < 1, log2(0) as -inf."""
    u = 1.0 - eta
    if eta <= 0.0:
        return u, -math.inf, -math.log2(u), -math.inf
    return u, math.log2(eta / u), -math.log2(u), math.log2(eta)


def _noise_terms(noise: float) -> tuple[float, float]:
    """(g(N), log2(N + 1)): every noise-only term."""
    return g_function(noise), math.log2(noise + 1.0)


def _lower(log_ratio: float, g: float) -> float:
    x = log_ratio - g
    return x if x > 0.0 else 0.0


def _extended(log_ratio: float, g: float) -> float:
    # At eta = 0, log_ratio = -inf and the bound is 0: for N = +inf the sum
    # is nan, which the clamp takes to 0 as well.
    x = log_ratio + g
    return x if x > 0.0 else 0.0


def _twist(eta: float, u: float, noise: float) -> float:
    # eta' = eta - N(1-eta) and 1 - eta' = (1+N)(1-eta): neither subtracts
    # from 1 after rounding, so the bound keeps its precision as eta -> 1.
    # Entanglement-breaking points (N >= eta/(1-eta)) have eta' <= 0.
    eta_p, one_minus = eta - noise * u, (1.0 + noise) * u
    return math.log2(eta_p / one_minus) if eta_p > one_minus else 0.0


def _plob(eta: float, u: float, neg_log2_u: float, log2_eta: float, noise: float, g: float) -> float:
    if noise == math.inf:
        return math.inf
    if eta <= 0.0:
        return 0.0 if noise == 0.0 else math.inf
    # With x = (1-eta)(1+N), plob = [-ln x - N log1p((1-x)/N)] / ln 2 exactly.
    # Near x = 1, where plob touches zero, this form has no large terms to
    # cancel; 1 - x is exact for x in [1/2, 2].  It needs 1 + (1-x)/N, which
    # is eta(1+N)/N, away from zero: for small eta the rounded (1-x)/N can
    # reach -1 and lose every digit of eta.  At a subnormal N, (1-x)/N can
    # overflow to inf, which this form turns into -inf; the direct form
    # below is exact there.
    x = u * (1.0 + noise)
    if 0.5 <= x <= 2.0 and noise > 0.0:
        r = (1.0 - x) / noise
        if -0.5 <= r < math.inf:
            y = (-math.log(x) - noise * math.log1p(r)) / _LN2
            return y if y > 0.0 else 0.0
    y = neg_log2_u - noise * log2_eta - g
    return y if y > 0.0 else 0.0


def _swat(log_ratio: float, log2_n1: float) -> float:
    x = log_ratio - log2_n1
    return x if x > 0.0 else 0.0


def _open_report(eta: float, noise: float, lower: float, extended: float, twist: float, plob: float,
                 swat: float) -> BoundsReport:
    """The report of a point from its five bounds: the tightest upper is the minimum
    of the four in ``uppers`` order, and the gap is clamped as the formulas are."""
    best_upper = min(extended, twist, plob, swat)
    gap = best_upper - lower
    uppers = {"extended": extended, "twist": twist, "plob": plob, "swat": swat}
    return _record(GAUSSIAN, eta, noise, lower, uppers, best_upper, gap if gap > 0.0 else 0.0)


def _rows(etas: Sequence[float], noises: Sequence[float], point: Callable, pin_breaking: bool = True,
          gap_only: bool = False) -> Iterator[list]:
    """One list per eta of the validated gaussian float grid etas x noises, with one entry per noise.

    The one loop that applies report()'s regime rule, and the one place the
    five formulas are called on their terms.  Each point gives ``point(eta,
    noise, lower, extended, twist, plob, swat)``.  A point the rule pins has
    all five bounds equal to its pin: +inf at eta = 1, and 0.0 where noise >=
    ``_breaking_noise(eta)``, compared per noise, so the noise axis need not
    be sorted.  Every other point is open and gets the formulas' values.
    With ``pin_breaking`` false only eta = 1 is pinned, and the formulas give
    their own values at the breaking points, N = +inf included.  So every row
    has one shape, each point pinned or open.  Terms are taken once per axis
    value: every noise's before the first row, then each eta < 1's at its
    row, pinned points or not.  An empty eta axis gives no rows, and an
    empty noise axis one empty row per eta (``_check_axes`` empties both).

    With ``gap_only`` set, the caller wants the gap alone: each point whose
    gap is 0 gives 0.0 and calls nothing, and only the others call ``point``.
    These are the pinned points, tested first, and the open points whose
    twist bound, taken first, is 0.0 (eta' = eta - N(1-eta) <= 1/2, where the
    capacity is 0); there the other four formulas are not called.  This is
    the clamped gap bit for bit.  Every formula gives +0.0 or more, never
    -0.0 or nan, so min(extended, twist, plob, swat) - lower is at most 0
    when the twist bound is 0.0.  At a pinned point the minimum is the pin,
    and the difference pin - pin is +0.0, or nan at +inf.  The clamp ``gap if
    gap > 0.0 else 0.0`` of ``_open_gap`` and ``_open_report`` takes each of
    these to +0.0.
    """
    noise_terms = [_noise_terms(noise) for noise in noises]
    for eta in etas:
        if eta == 1.0:  # the identity channel: every noise, +inf included, is at or above -inf
            pin, breaking = math.inf, -math.inf
        else:  # without the breaking pin the threshold is nan, which no noise, +inf included, is at or above
            pin, breaking = 0.0, _breaking_noise(eta) if pin_breaking else math.nan
            u, log_ratio, neg_log2_u, log2_eta = _eta_terms(eta)
        yield [
            (0.0 if gap_only else point(eta, noise, pin, pin, pin, pin, pin)) if noise >= breaking
            else 0.0 if (twist := _twist(eta, u, noise)) == 0.0 and gap_only
            else point(
                eta, noise, _lower(log_ratio, g), _extended(log_ratio, g), twist,
                _plob(eta, u, neg_log2_u, log2_eta, noise, g), _swat(log_ratio, log2_n1),
            )
            for noise, (g, log2_n1) in zip(noises, noise_terms)
        ]


def _unpinned(eta: float, noise: float) -> tuple[float, float, float, float, float]:
    """(lower, extended, twist, plob, swat), validated, that each public gauss_* function
    reads: all +inf at eta = 1, else the formulas' own values, as ``_rows`` gives them
    without its breaking pin."""
    eta, noise = validate(GAUSSIAN, eta, noise)
    return next(_rows((eta,), (noise,), lambda eta, noise, *bounds: bounds, pin_breaking=False))[0]


def gauss_lower(eta: float, noise: float) -> float:
    """max{0, log2(eta/(1-eta)) - g(N)}; +inf at eta = 1."""
    return _unpinned(eta, noise)[0]


def gauss_upper_extended(eta: float, noise: float) -> float:
    """max{0, log2(eta/(1-eta)) + g(N)}: capacity of the extended channel.

    Exceeds gauss_lower by exactly 2 g(N) whenever both are positive; +inf
    for N = +inf at 0 < eta.
    """
    return _unpinned(eta, noise)[1]


def gauss_upper_twist(eta: float, noise: float) -> float:
    """Bottleneck bound through the amplifier-then-attenuator factorization.

    max{0, log2(eta'/(1-eta'))} with eta' = eta - N(1-eta) and 1 - eta' =
    (1+N)(1-eta): 0 for entanglement-breaking channels (N >= eta/(1-eta)),
    +inf at eta = 1.  ``gaussian.twisted_decompose`` is its oracle.
    """
    return _unpinned(eta, noise)[2]


def gauss_upper_plob(eta: float, noise: float) -> float:
    """max{0, -log2[(1-eta) eta^N] - g(N)}: two-way-assisted benchmark bound.

    +inf for N = +inf, where -N log2(eta) outgrows g(N).
    """
    return _unpinned(eta, noise)[3]


def gauss_upper_swat(eta: float, noise: float) -> float:
    """max{0, log2(eta/(1-eta)) - log2(N+1)}: unassisted benchmark bound."""
    return _unpinned(eta, noise)[4]


def _check_axes(etas: Sequence[float], noises: Sequence[float]) -> tuple[list[float], list[float]]:
    """The gaussian grid etas x noises as two float lists, each value validated once.

    The gaussian domain is a product of an eta and a noise range, so each
    value is checked once, by ``validate``, in an order that raises the
    message report() raises at the grid's first failing point in row-major
    order: the first eta with every noise, then every other eta with the
    first noise.  Any sequence will do, a numpy array included.  An empty
    axis makes a grid of no points: nothing is checked, and both lists are
    empty.
    """
    if len(etas) == 0 or len(noises) == 0:
        return [], []
    first = [validate(GAUSSIAN, etas[0], noise) for noise in noises]
    rest = [validate(GAUSSIAN, eta, noises[0])[0] for eta in etas[1:]]
    return [first[0][0], *rest], [noise for _, noise in first]


def report(channel_kind: str, eta: float, noise: float) -> BoundsReport:
    """All bounds for one channel, the tightest upper, and the gap.

    The gaussian regime rule: at eta = 1 (the identity channel) every bound
    is +inf; where noise >= ``_breaking_noise(eta)`` (the
    entanglement-breaking regime, noise = +inf included for every eta < 1)
    every bound is 0; the gap is 0 in both.  Every other point is open: its
    bounds are the formulas', the tightest upper is their minimum, and the
    gap is clamped as the formulas are.  A gaussian report is the one point
    of a one-point ``_rows`` grid, the loop that applies this rule (its
    docstring says why a pinned report has these values).  A qubit
    report has the one upper bound ``extended``, and its gap is clamped as
    the formulas are; at noise = 0 (-0.0 included) the channel is amplitude
    damping, whose direct and extended objectives are one function bit for
    bit (``diagonal_objective``), so ``qubit_lower``'s maximum is taken once
    and is also ``extended``.
    Parameters that ``validate`` rejects raise ValueError naming the
    parameter; valid ones are computed with as the floats it returns, so a
    numpy float32 is computed with in float64.
    """
    eta, noise = validate(channel_kind, eta, noise)
    if channel_kind == QUBIT:
        lower = qubit_lower(eta, noise)
        extended = lower if noise == 0.0 else qubit_upper_extended(eta, noise)
        gap = extended - lower
        return _record(QUBIT, eta, noise, lower, {"extended": extended}, extended, gap if gap > 0.0 else 0.0)
    return next(_rows((eta,), (noise,), _open_report))[0]


def reports(channel_kind: str, etas: Sequence[float], noises: Sequence[float]) -> Iterator[BoundsReport]:
    """``report(channel_kind, eta, noise)`` at each point of etas x noises, in row-major order.

    The reports are ``repr``-equal to report()'s, for axes given as any
    sequence (a numpy array included) of any values report() takes.  For the
    gaussian kind each axis value is validated and taken as a float once,
    before the first report (``_check_axes``), so an invalid value raises
    report()'s message at the grid's first failing point, and the reports
    are the entries of ``_rows`` on those floats, which takes each axis
    value's terms once; the qubit kind calls report() at each point.
    """
    if channel_kind != GAUSSIAN:  # the qubit kind, or one that report() rejects
        for eta in etas:
            for noise in noises:
                yield report(channel_kind, eta, noise)
        return
    etas, noises = _check_axes(etas, noises)
    for row in _rows(etas, noises, _open_report):
        yield from row


def _open_gap(eta: float, noise: float, lower: float, extended: float, twist: float, plob: float,
              swat: float) -> float:
    """``_open_report``'s gap alone, without the report."""
    gap = min(extended, twist, plob, swat) - lower
    return gap if gap > 0.0 else 0.0


def gaps(channel_kind: str, etas: Sequence[float], noises: Sequence[float]) -> Iterator[list[float]]:
    """One list per eta row: the gap of ``reports(channel_kind, etas, noises)`` at each noise.

    Chained together, the rows are the reports' gaps in row-major order,
    each ``repr``-equal to its report's gap, and the first error is the
    same; a row is yielded whole, so the row of a failing point is not.
    An empty axis makes a grid of no points, which has no rows: nothing is
    yielded and nothing is checked, as in reports().  The gaussian kind
    builds no report: it takes the axes as floats as reports() does and
    yields the rows of ``_rows`` on them in its ``gap_only`` mode: 0.0 at
    each point whose gap is 0 (pinned, or of twist bound 0.0), where at
    most the twist bound is taken, and ``_open_gap`` at every other
    (``_rows``' docstring says why this is the gap bit for bit); the qubit
    kind collects each row's gaps from reports()' reports.  The axes
    may be any sequences, numpy arrays included.
    """
    if channel_kind != GAUSSIAN:  # the qubit kind, or one that report() rejects
        if len(noises):
            for eta in etas:
                yield [r.gap for r in reports(channel_kind, (eta,), noises)]
        return
    etas, noises = _check_axes(etas, noises)
    yield from _rows(etas, noises, _open_gap, gap_only=True)
