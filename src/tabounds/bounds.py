"""Capacity bounds for qubit and bosonic thermal attenuators, plus the report.

Qubit bounds come from numerical maximization of coherent information over
diagonal inputs, evaluated from closed-form output spectra (the dilation in
``qubit`` stays as their oracle); the bosonic bounds are closed forms.
Everything is a pure function of (eta, noise), so grids of report() calls can
run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gaussian import g_function
from .optimize import maximize_scalar
from .qubit import (
    QubitAttenuatorParams,
    QubitState,
    coherent_information_diagonal,
    coherent_information_qubit,
)

QUBIT = "qubit"
GAUSSIAN = "gaussian"
GAUSSIAN_UPPER_NAMES = ("extended", "twist", "plob", "swat")


@dataclass(frozen=True)
class BoundsReport:
    """Lower bound, named upper bounds, their finite minimum, and the gap."""

    channel_kind: str
    eta: float
    noise: float
    lower: float
    uppers: dict[str, float]
    best_upper: float
    gap: float


def validate(channel_kind: str, eta: float, noise: float) -> None:
    """Raise ValueError unless (eta, noise) is a point of the channel family.

    eta must lie in [0, 1] and noise must be nonnegative, at most 1/2 for the
    qubit channel; +inf noise is accepted for the gaussian channel and nan
    is rejected for both.  Each message starts with the offending
    parameter's name.
    """
    if channel_kind not in (QUBIT, GAUSSIAN):
        raise ValueError(f"channel_kind must be 'qubit' or 'gaussian', got {channel_kind!r}")
    if not 0.0 <= eta <= 1.0:  # also rejects nan
        raise ValueError(f"eta must lie in [0, 1], got {eta!r}")
    if not noise >= 0.0:  # also rejects nan
        raise ValueError(f"noise must be nonnegative, got {noise!r}")
    if channel_kind == QUBIT and noise > 0.5:
        raise ValueError(f"noise must lie in [0, 1/2] for the qubit channel, got {noise!r}")


def _log_ratio(eta: float) -> float:
    """log2(eta / (1 - eta)) as an extended real."""
    if eta >= 1.0:
        return math.inf
    if eta <= 0.0:
        return -math.inf
    return math.log2(eta / (1.0 - eta))


def _qubit_max(eta: float, noise: float, variant: str, tol: float) -> float:
    params = QubitAttenuatorParams(eta, noise)
    if eta <= 0.5:  # antidegradable: zero capacity
        return 0.0
    if eta == 1.0:  # identity channel: one qubit per use
        return 1.0
    res = maximize_scalar(lambda p: coherent_information_diagonal(p, params, variant), 0.0, 1.0, tol)
    return max(0.0, res.value)


def qubit_lower(eta: float, noise: float, tol: float = 1e-9) -> float:
    """Single-letter coherent information of the qubit attenuator.

    Maximized over diagonal inputs (gamma = 0), which are numerically
    optimal for this channel; exactly 0 for eta <= 1/2 and 1 at eta = 1.
    """
    return _qubit_max(eta, noise, "direct", tol)


def qubit_upper_extended(eta: float, noise: float, tol: float = 1e-9) -> float:
    """Capacity of the extended qubit channel: max over p of the extended
    coherent information at gamma = 0; exactly 0 for eta <= 1/2 and 1 at
    eta = 1."""
    return _qubit_max(eta, noise, "extended", tol)


def qubit_lower_audit_2d(
    eta: float, noise: float, p_points: int = 41, gamma_points: int = 21
) -> float:
    """Slow audit of the diagonal-input restriction: maximize the direct
    coherent information over a full (p, |gamma|) grid instead of gamma = 0."""
    params = QubitAttenuatorParams(eta, noise)
    best = -math.inf
    for i in range(p_points):
        p = i / (p_points - 1)
        r_max = math.sqrt(p * (1.0 - p))
        for j in range(gamma_points):
            r = r_max * j / (gamma_points - 1)
            val = coherent_information_qubit(QubitState(p, r), params, "direct")
            if val > best:
                best = val
    return max(0.0, best)


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
    """All bounds for one channel, the tightest finite upper, and the gap.

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
    elif eta >= 1.0:
        lower = math.inf
        uppers = {name: math.inf for name in GAUSSIAN_UPPER_NAMES}
    elif noise >= eta / (1.0 - eta):
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

    finite = [v for v in uppers.values() if math.isfinite(v)]
    best_upper = min(finite) if finite else math.inf
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
