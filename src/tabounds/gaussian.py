"""Single- and few-mode Gaussian states and phase-insensitive channels.

States are (mean, covariance) pairs in dimensionless quadrature units with
the vacuum covariance equal to the identity, so a thermal mode of mean
photon number N has covariance (2N+1) I.  This is the convention in which
the attenuator acts as V -> eta V + (1-eta)(2N+1) I; mind the factor of two
when interfacing with hbar = 1 code.  The symplectic form is
[[0, 1], [-1, 0]] per mode.  Entropies are in bits.

This is the oracle layer behind the bosonic closed forms: the thermal
entropy ``g_function``, the attenuator's (eta, N) domain (``validate``) and
the modes each coherent information keeps (``VARIANT_FACTORS``) live in
``bounds``, which this module imports.  ``GaussianState`` is the one
validator of a covariance (shape, finiteness, symmetry); the functions that
take a state compute from it without checking it again.

A ``GaussianState`` holds one state or a stack, means ``(..., 2m)`` and
covariances ``(..., 2m, 2m)``, validated once, and an error names the first
failing member of a stack.  The dilation, the channel actions, the
marginals, the symplectic spectrum, the entropy, the coherent information
and the two-mode squeezed state broadcast: a stack of states, or arrays of
``n, eta, N`` (or of ``tau, y`` in a ``PhaseInsensitiveParams``), costs a
few numpy calls.  Each member of a stack has the bits of the one-state
call.  The scalar domain checks run on each point of an array, and
``g_function`` stays scalar, its terms over each state's spectrum summed
by ``math.fsum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import GAUSSIAN, g_function, validate, variant_factors
from .linalg import InvalidStateError, _first, _integers

SYMMETRY_ATOL = 1e-12      # admissible asymmetry of covariance matrices
SYMPLECTIC_FLOOR = 1e-6    # eigenvalues below 1 - this raise, the rest below 1 become 1
NOISE_SLACK = 1e-12        # tolerated dip of y below |1 - tau| from roundoff


@dataclass(frozen=True, eq=False)  # == compares identity, not arrays
class GaussianState:
    """Mean vector (length 2m) and 2m x 2m symmetric covariance matrix, or a stack.

    A stack has means ``(..., 2m)`` and covariances ``(..., 2m, 2m)`` of one
    leading shape.  Finiteness and symmetry are checked for every member at
    once, without a numpy warning, and an error names the first failing
    member of a stack.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        if mean.ndim == 0 or mean.shape[-1] % 2 != 0 or mean.shape[-1] == 0:
            raise ValueError(f"mean must have even positive length, got shape {mean.shape}")
        if cov.shape != mean.shape + mean.shape[-1:]:
            raise ValueError(f"cov shape {cov.shape} does not match mean shape {mean.shape}")
        # Each check runs on the whole stack; only a failure looks for its member.
        for name, value in (("mean", mean), ("cov", cov)):
            finite = np.isfinite(value)
            if not finite.all():
                bad = ~finite.all(axis=tuple(range(mean.ndim - 1, value.ndim)))
                raise ValueError(f"{name} must be finite, got a non-finite entry{_first(bad)}")
        asymmetry = np.abs(cov - cov.swapaxes(-1, -2))
        if asymmetry.max(initial=0.0) > SYMMETRY_ATOL:
            bad = asymmetry.max(axis=(-2, -1)) > SYMMETRY_ATOL
            raise ValueError(f"cov is not symmetric within 1e-12{_first(bad)}")
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def modes(self) -> int:
        return self.mean.shape[-1] // 2


@dataclass(frozen=True)
class PhaseInsensitiveParams:
    """Finite generalized transmissivity tau >= 0 and additive noise y >= |1 - tau|.

    ``tau`` and ``y`` may also be arrays of broadcastable shapes, a stack of
    channels; each pair is checked.
    """

    tau: float
    y: float

    def __post_init__(self):
        for tau, y in _points(self.tau, self.y):
            if not 0.0 <= tau < math.inf:  # also rejects nan
                raise ValueError(f"tau must be finite and nonnegative, got {tau!r}")
            if not abs(1.0 - tau) - NOISE_SLACK <= y < math.inf:
                raise ValueError(f"noise y must be finite and at least |1 - tau| = {abs(1 - tau)!r}, got {y!r}")


@dataclass(frozen=True)
class TwistedFactors:
    """Gain and attenuation of the amplifier-then-attenuator factorization."""

    eta_prime: float
    kappa_prime: float

    def __post_init__(self):
        if not 0.0 < self.eta_prime <= 1.0:
            raise ValueError(f"eta_prime must lie in (0, 1], got {self.eta_prime!r}")
        if not self.kappa_prime >= 1.0:
            raise ValueError(f"kappa_prime must be >= 1, got {self.kappa_prime!r}")


def omega(modes: int) -> np.ndarray:
    """Symplectic form: block diagonal [[0, 1], [-1, 0]] per mode."""
    o = np.zeros((2 * modes, 2 * modes))
    for k in range(modes):
        o[2 * k, 2 * k + 1] = 1.0
        o[2 * k + 1, 2 * k] = -1.0
    return o


def _stacked(*params) -> bool:
    """Whether any of the parameters is an array with axes, not a scalar."""
    return any(getattr(p, "ndim", 0) for p in params)


def _points(*params):
    """Each point of scalar parameters, or of arrays of broadcastable shapes,
    as a tuple of scalars for the scalar domain checks; scalars pass as given."""
    if not _stacked(*params):
        return (params,)
    return zip(*(a.ravel().tolist() for a in np.broadcast_arrays(*params)))


def _validate_energy(n) -> None:
    if not 0.0 <= n < math.inf:  # also rejects nan
        raise ValueError(f"mean photon number n must be finite and nonnegative, got {n!r}")
    if 2.0 * float(n) + 1.0 == math.inf:  # a Python float overflows without a warning
        raise ValueError(f"mean photon number n must have a finite 2n+1, got {n!r}")


def thermal_state(n: float) -> GaussianState:
    """Single thermal mode of mean photon number n: zero mean, (2n+1) I."""
    _validate_energy(n)
    return GaussianState(np.zeros(2), _thermal_cov(n))


def _validate_finite_noise(eta, noise) -> None:
    """``validate`` for the gaussian kind, plus a finite noise, at each point: no covariance holds N = inf."""
    for eta, noise in _points(eta, noise):
        validate(GAUSSIAN, eta, noise)
        if noise == math.inf:
            raise ValueError(f"noise must be finite for a covariance matrix, got {noise!r}")
        if 2.0 * float(noise) + 1.0 == math.inf:
            raise ValueError(f"noise must have a finite 2N+1 for a covariance matrix, got {noise!r}")


def _validate_pair_noise(eta, noise) -> None:
    """``_validate_finite_noise``, plus a finite (2N+1)^2 at each point, which the
    two-mode squeezed pair's off-diagonal entry sqrt((2N+1)^2 - 1) takes."""
    _validate_finite_noise(eta, noise)
    for (noise,) in _points(noise):
        nu = 2.0 * float(noise) + 1.0
        if nu * nu == math.inf:
            raise ValueError(f"noise must have a finite (2N+1)^2 for a two-mode squeezed state, got {noise!r}")


def _require_single_mode(s: GaussianState) -> None:
    if s.modes != 1:
        raise ValueError(f"expected a single-mode state, got {s.modes} modes")


def apply_phase_insensitive(s: GaussianState, params: PhaseInsensitiveParams) -> GaussianState:
    """m -> sqrt(tau) m, V -> tau V + y I.

    A stack of states, of channels (array ``tau, y``) or both gives the
    broadcast stack of outputs.
    """
    _require_single_mode(s)
    tau = np.asarray(params.tau, dtype=float)[..., None, None]
    y = np.asarray(params.y, dtype=float)[..., None, None]
    return GaussianState(np.sqrt(tau)[..., 0] * s.mean, tau * s.cov + y * np.eye(2))


def apply_attenuator_gaussian(s: GaussianState, eta: float, noise: float) -> GaussianState:
    """m -> sqrt(eta) m, V -> eta V + (1-eta)(2N+1) I."""
    return apply_phase_insensitive(s, attenuator_as_phase_insensitive(eta, noise))


def apply_amplifier_gaussian(s: GaussianState, kappa: float, noise: float) -> GaussianState:
    """m -> sqrt(kappa) m, V -> kappa V + (kappa-1)(2N+1) I, for gain kappa >= 1."""
    return apply_phase_insensitive(s, amplifier_as_phase_insensitive(kappa, noise))


def attenuator_as_phase_insensitive(eta: float, noise: float) -> PhaseInsensitiveParams:
    """Attenuator of transmissivity eta and noise N as (tau, y) = (eta, (1-eta)(2N+1))."""
    _validate_finite_noise(eta, noise)
    return PhaseInsensitiveParams(tau=eta, y=(1.0 - eta) * (2.0 * noise + 1.0))


def amplifier_as_phase_insensitive(kappa: float, noise: float) -> PhaseInsensitiveParams:
    """Amplifier of gain kappa and noise N as (tau, y) = (kappa, (kappa-1)(2N+1))."""
    for (k,) in _points(kappa):
        if not 1.0 <= k < math.inf:  # also rejects nan
            raise ValueError(f"gain kappa must be finite and >= 1, got {k!r}")
    _validate_finite_noise(1.0, noise)
    return PhaseInsensitiveParams(tau=kappa, y=(kappa - 1.0) * (2.0 * noise + 1.0))


def two_mode_squeezed_cov(noise: float) -> GaussianState:
    """Pure two-mode state whose single-mode marginals are thermal with energy N.

    Diagonal blocks (2N+1) I, off-diagonal blocks sigma_z sqrt((2N+1)^2 - 1).
    An array of N gives the stack of states.
    """
    _validate_pair_noise(1.0, noise)
    cov = _two_mode_squeezed_cov(noise)
    return GaussianState(np.zeros(cov.shape[:-1]), cov)


def _thermal_cov(n) -> np.ndarray:
    """(2n+1) I for each n of a scalar or an array: ``(..., 2, 2)``."""
    return (2.0 * np.asarray(n, dtype=float) + 1.0)[..., None, None] * np.eye(2)


def _two_mode_squeezed_cov(noise) -> np.ndarray:
    """The covariance of ``two_mode_squeezed_cov`` for each N: ``(..., 4, 4)``."""
    nu = 2.0 * np.asarray(noise, dtype=float) + 1.0
    c = np.sqrt(nu * nu - 1.0)
    v = nu[..., None, None] * np.eye(4)
    v[..., 0, 2] = v[..., 2, 0] = c
    v[..., 1, 3] = v[..., 3, 1] = -c
    return v


def symplectic_eigenvalues(s: GaussianState) -> np.ndarray:
    """Symplectic spectrum of a state's covariance matrix V, descending.

    Computed as square roots of the (doubly degenerate) eigenvalues of
    -(Omega V)^2, which is similar to a positive symmetric matrix, so no
    complex arithmetic is needed.  A stack ``(..., 2m, 2m)`` gives
    ``(..., m)``, one ``eigvals`` call for all.  Values below 1 - 1e-6 raise
    InvalidStateError as unphysical; the rest below 1 are roundoff and
    returned as 1, so every returned value is at least 1.  A covariance so
    large that (Omega V)^2 overflows raises InvalidStateError too.
    """
    ov = omega(s.modes) @ s.cov
    with np.errstate(over="ignore", invalid="ignore"):
        square = -ov @ ov
    finite = np.isfinite(square)
    if not finite.all():
        bad = ~finite.all(axis=(-2, -1))
        raise InvalidStateError(
            "cov must be small enough that (Omega V)^2 is finite, got an entry of magnitude "
            f"{np.abs(s.cov[bad][0]).max():.3e}{_first(bad)}"
        )
    w = np.linalg.eigvals(square).real
    nus = np.sqrt(np.clip(w, 0.0, None))
    nus = np.sort(nus, axis=-1)[..., ::-1][..., ::2]  # spectrum comes doubled; keep one of each pair
    if nus.min(initial=np.inf) < 1.0 - SYMPLECTIC_FLOOR:
        bad = nus[..., -1] < 1.0 - SYMPLECTIC_FLOOR
        raise InvalidStateError(
            f"unphysical covariance: symplectic eigenvalue {nus[bad][0, -1]:.9f} < 1{_first(bad)}"
        )
    return np.maximum(nus, 1.0)


def gaussian_entropy(s: GaussianState):
    """Entropy in bits: sum of g((nu - 1)/2) over the symplectic spectrum.

    A numpy float for one state, an array of the stack's shape for a stack.
    Each state's terms are summed by ``math.fsum``, correctly rounded, so a
    state has the bits it has alone in any stack, and one or two terms the
    bits of their plain sum.
    """
    halves = (symplectic_eigenvalues(s) - 1.0) / 2.0
    rows = halves.reshape(-1, halves.shape[-1]).tolist()
    entropies = np.array([math.fsum(map(g_function, row)) for row in rows])
    return entropies[0] if halves.ndim == 1 else entropies.reshape(halves.shape[:-1])


def attenuator_dilation_output(n: float, eta: float, noise: float) -> GaussianState:
    """Three-mode output (B, F, E') of the beamsplitter dilation.

    Input: thermal mode of mean photon number n on A, the purifying
    two-mode squeezed pair on (E, E').  The beamsplitter symplectic map
    [[sqrt(eta) I, sqrt(1-eta) I], [-sqrt(1-eta) I, sqrt(eta) I]] acts on
    (A, E), extended by the identity on E'.  Arrays ``n, eta, noise`` of
    broadcastable shapes give the stack of outputs.
    """
    _validate_pair_noise(eta, noise)
    for (n_,) in _points(n):
        _validate_energy(n_)
    thermal, pair = _thermal_cov(n), _two_mode_squeezed_cov(noise)
    v_in = np.zeros(np.broadcast_shapes(thermal.shape[:-2], pair.shape[:-2]) + (6, 6))
    v_in[..., :2, :2] = thermal
    v_in[..., 2:, 2:] = pair
    eta = np.asarray(eta, dtype=float)
    r = np.sqrt(eta)
    t = np.sqrt(1.0 - eta)
    s_bs = np.zeros(eta.shape + (6, 6))
    s_bs[..., 4, 4] = s_bs[..., 5, 5] = 1.0
    s_bs[..., 0, 0] = s_bs[..., 1, 1] = s_bs[..., 2, 2] = s_bs[..., 3, 3] = r
    s_bs[..., 0, 2] = s_bs[..., 1, 3] = t
    s_bs[..., 2, 0] = s_bs[..., 3, 1] = -t
    s_bs[..., 2, 1] = s_bs[..., 3, 0] = -0.0  # as in the block form's (-t) * I, so the product keeps its bytes
    v_out = s_bs @ v_in @ s_bs.swapaxes(-1, -2)
    return GaussianState(np.zeros(v_out.shape[:-1]), (v_out + v_out.swapaxes(-1, -2)) / 2.0)


def mode_marginal(s: GaussianState, modes) -> GaussianState:
    """Restriction of a Gaussian state, or of each of a stack, to the given
    distinct integer mode indices, in their order."""
    modes = _integers(modes, "mode index", ValueError)
    if not modes:
        raise ValueError("modes must name at least one mode")
    idx = []
    for m in modes:
        if not 0 <= m < s.modes:
            raise ValueError(f"mode index {m} out of range for {s.modes} modes")
        if 2 * m in idx:
            raise ValueError(f"mode index {m} given twice")
        idx.extend((2 * m, 2 * m + 1))
    idx = np.array(idx, dtype=int)
    return GaussianState(s.mean[..., idx], s.cov[..., idx[:, None], idx])


def coherent_information_gaussian(n: float, eta: float, noise: float, variant: str) -> float:
    """Coherent information in bits for thermal input n, from the three-mode dilation.

    ``variant`` as in ``qubit.coherent_information_qubit``: ``direct`` is
    S(B) - S(F, E'), ``extended`` is S(B, E') - S(F).  Arrays ``n, eta,
    noise`` of broadcastable shapes give an array of rates.
    """
    out_modes, comp_modes = variant_factors(variant)
    out = attenuator_dilation_output(n, eta, noise)
    return gaussian_entropy(mode_marginal(out, out_modes)) - gaussian_entropy(mode_marginal(out, comp_modes))


def is_entanglement_breaking(params: PhaseInsensitiveParams) -> bool:
    """True iff y >= 1 + tau; the boundary counts as breaking.

    For attenuator parameters (tau, y) = (eta, (1-eta)(2N+1)) this reduces
    exactly to N >= eta / (1 - eta).
    """
    return params.y >= 1.0 + params.tau


def twisted_decompose(params: PhaseInsensitiveParams) -> TwistedFactors:
    """Factor a non-entanglement-breaking phase-insensitive channel.

    Returns (eta', kappa') with eta' = (1 + tau - y)/2 and kappa' = tau/eta'
    such that a quantum-limited amplifier of gain kappa' followed by a
    quantum-limited attenuator of transmissivity eta' reproduces the channel
    on moments.  Entanglement-breaking inputs (y >= 1 + tau) are rejected:
    there the factors degenerate and the decomposition does not exist.  A
    stack of channels (array ``tau`` or ``y``) is rejected too: the factors
    are one channel's.
    """
    if _stacked(params.tau, params.y):
        raise ValueError("params must be one channel, with scalar tau and y, to be factored")
    if is_entanglement_breaking(params):
        raise ValueError(
            f"channel (tau={params.tau!r}, y={params.y!r}) is entanglement-breaking; "
            "the amplifier-attenuator factorization requires y < 1 + tau"
        )
    eta_prime = (1.0 + params.tau - params.y) / 2.0
    kappa_prime = params.tau / eta_prime
    # Quantum-limited endpoints land a rounding error away from 1; snap them.
    return TwistedFactors(eta_prime=min(eta_prime, 1.0), kappa_prime=max(kappa_prime, 1.0))
