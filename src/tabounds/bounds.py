"""Every closed form of the package: the capacity bounds and the report.

This module needs only ``math``: it holds the thermal entropy ``g_function``,
the qubit channel's domain (``QubitAttenuatorParams``), the two coherent
informations of a dilation (``VARIANT_FACTORS``), the qubit coherent
information of diagonal inputs from closed-form output spectra, the bosonic
bound formulas, and ``report``.  The oracle modules ``qubit`` and
``gaussian`` import these names and check them against brute-force
dilations; nothing here imports them, so a report never loads numpy.  The
qubit bounds maximize ``diagonal_objective``, the diagonal closed form built
once per maximization, with ``optimize.maximize_unimodal``: the extended
objective is concave (the extended channel is degradable), and where the
direct one has been seen not to be unimodal (points of zero capacity), its
maximum sat at an endpoint, which the search's fallback to the full scan
handles; ``verify`` checks the result against ``maximize_scalar``.  The
bosonic bounds are explicit.  Everything is a pure function of (eta, noise),
so grids of report() calls can run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .optimize import maximize_unimodal

QUBIT = "qubit"
GAUSSIAN = "gaussian"
GAUSSIAN_UPPER_NAMES = ("extended", "twist", "plob", "swat")
_LN2 = math.log(2.0)


def g_function(n: float) -> float:
    """Entropy in bits of a thermal mode of mean photon number n, g(0) = 0
    and g(inf) = inf."""
    if not 0.0 < n < math.inf:  # an endpoint, or invalid (negative or nan)
        if n == 0.0:
            return 0.0
        if n == math.inf:
            return math.inf
        raise ValueError(f"mean photon number n must be nonnegative, got {n!r}")
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
    delegate to it.  nan fails both range checks.
    """

    eta: float
    noise: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta!r}")
        if not 0.0 <= self.noise <= 0.5:
            raise ValueError(f"noise must lie in [0, 1/2] for the qubit channel, got {self.noise!r}")


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


@dataclass(frozen=True)
class BoundsReport:
    """Lower bound, named upper bounds, their minimum, and the gap."""

    channel_kind: str
    eta: float
    noise: float
    lower: float
    uppers: dict[str, float]
    best_upper: float
    gap: float


def validate(channel_kind: str, eta: float, noise: float) -> None:
    """Raise ValueError unless (eta, noise) is a point of the channel family.

    eta must lie in [0, 1]; noise must be nonnegative for the gaussian
    channel (+inf included) and is checked by ``QubitAttenuatorParams`` for
    the qubit channel.  nan is rejected for both.  Each message starts with
    the offending parameter's name.
    """
    if channel_kind == QUBIT:
        QubitAttenuatorParams(eta, noise)
        return
    if channel_kind != GAUSSIAN:
        raise ValueError(f"channel_kind must be 'qubit' or 'gaussian', got {channel_kind!r}")
    if not 0.0 <= eta <= 1.0:  # also rejects nan
        raise ValueError(f"eta must lie in [0, 1], got {eta!r}")
    if not noise >= 0.0:  # also rejects nan
        raise ValueError(f"noise must be nonnegative, got {noise!r}")


def entanglement_breaking(eta: float, noise: float) -> bool:
    """True where the gaussian attenuator breaks entanglement, N >= eta/(1-eta).

    There the amplifier-then-attenuator factorization does not exist and the
    capacity is zero; noise = +inf counts for every eta < 1, and eta = 1 never.
    """
    return eta < 1.0 and noise >= eta / (1.0 - eta)


def grid(start: float, stop: float, step: float) -> list[float]:
    """start, start + step, ... up to the inclusive stop (with 1e-9 steps of slack):
    the one grid rule of ``sweep``, the ``bounds/*`` checks of ``verify`` and the demos."""
    slack = 1e-9
    count = int(math.floor((stop - start) / step + slack)) + 1
    xs = [start + k * step for k in range(count)]
    # start + k*step can land an ulp past the inclusive stop; emit stop itself.
    if abs(xs[-1] - stop) <= slack * step:
        xs[-1] = stop
    return xs


def _log_ratio(eta: float) -> float:
    """log2(eta / (1 - eta)) as an extended real."""
    if eta >= 1.0:
        return math.inf
    if eta <= 0.0:
        return -math.inf
    return math.log2(eta / (1.0 - eta))


def _entropy_bits(eigenvalues: tuple[float, ...], log2=math.log2) -> float:
    """-sum x log2 x over the given eigenvalues, with 0 log 0 = 0, added left to right."""
    total = 0.0
    for x in eigenvalues:
        if x > 0.0:
            total += x * log2(x)
    return -total


def _block_eigenvalues(x: float, z: float, off: float, det: float, hypot=math.hypot) -> tuple[float, float]:
    """Eigenvalues of the PSD block [[x, off], [off, z]] with determinant det; the smaller
    is det / larger, as the quadratic-formula difference cancels for a nearly rank-one block."""
    larger = 0.5 * (x + z) + hypot(0.5 * (x - z), off)
    return larger, (det / larger if larger > 0.0 else 0.0)


def diagonal_objective(c: QubitAttenuatorParams, variant: str) -> Callable[[float], float]:
    """``p -> qubit.coherent_information_qubit(QubitState(p), c, variant)``, built once per (c, variant).

    On a diagonal input every marginal of the dilation splits into at most
    one 2x2 block on {|00>, |11>} plus diagonal entries, so the entropies
    come from closed-form eigenvalues (a = 1-N, b = N):

    - B:      diag(1-pB, pB), pB = eta p + (1-eta) N;
    - F:      diag(1-pF, pF), pF = (1-eta) p + eta N;
    - (B,E'): [[a(1-p eta), (2p-1) sqrt(ab(1-eta))], [., b(1-eta(1-p))]]
              (+) diag(b eta (1-p), a eta p), determinant ab p(1-p)(2-eta)^2;
    - (F,E'): [[a(1-p(1-eta)), sqrt(ab eta)], [., b(1-(1-p)(1-eta))]]
              (+) diag(b(1-eta)(1-p), a(1-eta) p), determinant
              ab p(1-p)(1-eta)^2.

    Only the terms that depend on p are left to the returned function.
    """
    variant_factors(variant)  # rejects an unknown variant
    eta, a, b = c.eta, 1.0 - c.noise, c.noise
    ab, u = a * b, 1.0 - eta
    if variant == "direct":
        off, bu, au = math.sqrt(ab * eta), b * u, a * u

        def direct(p: float) -> float:
            q = 1.0 - p
            p_out = eta * p + bu
            big, small = _block_eigenvalues(a * (1.0 - p * u), b * (1.0 - q * u), off, ab * p * q * u * u)
            return _entropy_bits((1.0 - p_out, p_out)) - _entropy_bits((big, small, bu * q, au * p))
        return direct
    root, det_scale, be, ae = math.sqrt(ab * u), (2.0 - eta) ** 2, b * eta, a * eta

    def extended(p: float) -> float:
        q = 1.0 - p
        p_out = u * p + be
        big, small = _block_eigenvalues(
            a * (1.0 - p * eta), b * (1.0 - eta * q), (2.0 * p - 1.0) * root, ab * p * q * det_scale
        )
        return _entropy_bits((big, small, be * q, ae * p)) - _entropy_bits((1.0 - p_out, p_out))
    return extended


def coherent_information_diagonal(p: float, c: QubitAttenuatorParams, variant: str) -> float:
    """The coherent information of the input diag(1-p, p); see ``diagonal_objective``."""
    return diagonal_objective(c, variant)(p)


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


# The bosonic bound formulas.  They take (eta, noise) as already validated:
# report() validates once per point, each public gauss_* function per call.


def _lower(eta: float, noise: float) -> float:
    if eta >= 1.0:
        return math.inf
    return max(0.0, _log_ratio(eta) - g_function(noise))


def _extended(eta: float, noise: float) -> float:
    if eta >= 1.0:
        return math.inf
    if eta <= 0.0:
        return 0.0
    return max(0.0, _log_ratio(eta) + g_function(noise))


def _twist(eta: float, noise: float) -> float:
    if eta >= 1.0:
        return math.inf
    # eta' = eta - N(1-eta) and 1 - eta' = (1+N)(1-eta): neither subtracts
    # from 1 after rounding, so the bound keeps its precision as eta -> 1.
    # Entanglement-breaking points (N >= eta/(1-eta)) have eta' <= 0.
    u = 1.0 - eta
    eta_p, one_minus = eta - noise * u, (1.0 + noise) * u
    return math.log2(eta_p / one_minus) if eta_p > one_minus else 0.0


def _plob(eta: float, noise: float) -> float:
    if eta >= 1.0 or noise == math.inf:
        return math.inf
    if eta <= 0.0:
        return 0.0 if noise == 0.0 else math.inf
    # With x = (1-eta)(1+N), plob = [-ln x - N log1p((1-x)/N)] / ln 2 exactly.
    # Near x = 1, where plob touches zero, this form has no large terms to
    # cancel; 1 - x is exact for x in [1/2, 2].  It needs 1 + (1-x)/N, which
    # is eta(1+N)/N, away from zero: for small eta the rounded (1-x)/N can
    # reach -1 and lose every digit of eta.
    x = (1.0 - eta) * (1.0 + noise)
    if 0.5 <= x <= 2.0 and noise > 0.0:
        r = (1.0 - x) / noise
        if r >= -0.5:
            return max(0.0, (-math.log(x) - noise * math.log1p(r)) / _LN2)
    term = -math.log2(1.0 - eta) - noise * math.log2(eta)
    return max(0.0, term - g_function(noise))


def _swat(eta: float, noise: float) -> float:
    if eta >= 1.0:
        return math.inf
    return max(0.0, _log_ratio(eta) - math.log2(noise + 1.0))


def gauss_lower(eta: float, noise: float) -> float:
    """max{0, log2(eta/(1-eta)) - g(N)}; +inf at eta = 1."""
    validate(GAUSSIAN, eta, noise)
    return _lower(eta, noise)


def gauss_upper_extended(eta: float, noise: float) -> float:
    """max{0, log2(eta/(1-eta)) + g(N)}: capacity of the extended channel.

    Exceeds gauss_lower by exactly 2 g(N) whenever both are positive; +inf
    for N = +inf at 0 < eta.
    """
    validate(GAUSSIAN, eta, noise)
    return _extended(eta, noise)


def gauss_upper_twist(eta: float, noise: float) -> float:
    """Bottleneck bound through the amplifier-then-attenuator factorization.

    max{0, log2(eta'/(1-eta'))} with eta' = eta - N(1-eta) and 1 - eta' =
    (1+N)(1-eta): 0 for entanglement-breaking channels (N >= eta/(1-eta)),
    +inf at eta = 1.  ``gaussian.twisted_decompose`` is its oracle.
    """
    validate(GAUSSIAN, eta, noise)
    return _twist(eta, noise)


def gauss_upper_plob(eta: float, noise: float) -> float:
    """max{0, -log2[(1-eta) eta^N] - g(N)}: two-way-assisted benchmark bound.

    +inf for N = +inf, where -N log2(eta) outgrows g(N).
    """
    validate(GAUSSIAN, eta, noise)
    return _plob(eta, noise)


def gauss_upper_swat(eta: float, noise: float) -> float:
    """max{0, log2(eta/(1-eta)) - log2(N+1)}: unassisted benchmark bound."""
    validate(GAUSSIAN, eta, noise)
    return _swat(eta, noise)


def report(channel_kind: str, eta: float, noise: float) -> BoundsReport:
    """All bounds for one channel, the tightest upper, and the gap.

    Gaussian channels in the entanglement-breaking regime have exactly zero
    capacity, so every entry is reported as 0 there; noise = +inf is accepted
    as the limit of that regime and gives the same all-zero report for
    eta < 1.  At eta = 1 the bosonic formulas genuinely diverge; both bounds
    are +inf and the gap is reported as 0 since the capacity is pinned
    (infinite) rather than uncertain.  Parameters that ``validate`` rejects
    raise ValueError naming the parameter.
    """
    validate(channel_kind, eta, noise)
    if channel_kind == QUBIT:
        lower = qubit_lower(eta, noise)
        uppers = {"extended": qubit_upper_extended(eta, noise)}
    elif entanglement_breaking(eta, noise):
        lower = 0.0
        uppers = {name: 0.0 for name in GAUSSIAN_UPPER_NAMES}
    else:
        lower = _lower(eta, noise)
        uppers = {
            "extended": _extended(eta, noise),
            "twist": _twist(eta, noise),
            "plob": _plob(eta, noise),
            "swat": _swat(eta, noise),
        }

    best_upper = min(uppers.values())
    if math.isinf(best_upper) and math.isinf(lower):
        gap = 0.0
    else:
        gap = max(0.0, best_upper - lower)
    return BoundsReport(
        channel_kind=channel_kind,
        eta=eta,
        noise=noise,
        lower=lower,
        uppers=uppers,
        best_upper=best_upper,
        gap=gap,
    )
