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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import GAUSSIAN, g_function, validate, variant_factors
from .linalg import InvalidStateError

SYMMETRY_ATOL = 1e-12      # admissible asymmetry of covariance matrices
SYMPLECTIC_CLIP = 1e-9     # eigenvalues this far below 1 are clipped to 1
SYMPLECTIC_FLOOR = 1e-6    # eigenvalues below 1 - this raise InvalidStateError
NOISE_SLACK = 1e-12        # tolerated dip of y below |1 - tau| from roundoff


@dataclass(frozen=True)
class GaussianState:
    """Mean vector (length 2m) and 2m x 2m symmetric covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0 or mean.size == 0:
            raise ValueError(f"mean must have even positive length, got shape {mean.shape}")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} does not match mean length {mean.size}")
        for name, value in (("mean", mean), ("cov", cov)):
            # Faster than np.isfinite(value).all() at these sizes (<= 6 x 6).
            if not all(map(math.isfinite, value.ravel().tolist())):
                raise ValueError(f"{name} has a non-finite entry")
        if np.abs(cov - cov.T).max(initial=0.0) > SYMMETRY_ATOL:
            raise ValueError("cov is not symmetric within 1e-12")
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def modes(self) -> int:
        return self.mean.size // 2


@dataclass(frozen=True)
class PhaseInsensitiveParams:
    """Finite generalized transmissivity tau >= 0 and additive noise y >= |1 - tau|."""

    tau: float
    y: float

    def __post_init__(self):
        if not 0.0 <= self.tau < math.inf:  # also rejects nan
            raise ValueError(f"tau must be finite and nonnegative, got {self.tau!r}")
        if not abs(1.0 - self.tau) - NOISE_SLACK <= self.y < math.inf:
            raise ValueError(f"noise y must be finite and at least |1 - tau| = {abs(1 - self.tau)!r}, got {self.y!r}")


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


def thermal_state(n: float) -> GaussianState:
    """Single thermal mode of mean photon number n: zero mean, (2n+1) I."""
    if not 0.0 <= n < math.inf:  # also rejects nan
        raise ValueError(f"mean photon number n must be finite and nonnegative, got {n!r}")
    return GaussianState(np.zeros(2), (2.0 * n + 1.0) * np.eye(2))


def _validate_finite_noise(eta: float, noise: float) -> None:
    """``validate`` for the gaussian kind, plus a finite noise: no covariance holds N = inf."""
    validate(GAUSSIAN, eta, noise)
    if noise == math.inf:
        raise ValueError(f"noise must be finite for a covariance matrix, got {noise!r}")


def _require_single_mode(s: GaussianState) -> None:
    if s.modes != 1:
        raise ValueError(f"expected a single-mode state, got {s.modes} modes")


def apply_phase_insensitive(s: GaussianState, params: PhaseInsensitiveParams) -> GaussianState:
    """m -> sqrt(tau) m, V -> tau V + y I."""
    _require_single_mode(s)
    return GaussianState(
        math.sqrt(params.tau) * s.mean, params.tau * s.cov + params.y * np.eye(2)
    )


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
    if not 1.0 <= kappa < math.inf:  # also rejects nan
        raise ValueError(f"gain kappa must be finite and >= 1, got {kappa!r}")
    _validate_finite_noise(1.0, noise)
    return PhaseInsensitiveParams(tau=kappa, y=(kappa - 1.0) * (2.0 * noise + 1.0))


def two_mode_squeezed_cov(noise: float) -> GaussianState:
    """Pure two-mode state whose single-mode marginals are thermal with energy N.

    Diagonal blocks (2N+1) I, off-diagonal blocks sigma_z sqrt((2N+1)^2 - 1).
    """
    _validate_finite_noise(1.0, noise)
    nu = 2.0 * noise + 1.0
    c = math.sqrt(nu * nu - 1.0)
    v = nu * np.eye(4)
    v[0, 2] = v[2, 0] = c
    v[1, 3] = v[3, 1] = -c
    return GaussianState(np.zeros(4), v)


def symplectic_eigenvalues(s: GaussianState) -> np.ndarray:
    """Symplectic spectrum of a state's covariance matrix V, descending.

    Computed as square roots of the (doubly degenerate) eigenvalues of
    -(Omega V)^2, which is similar to a positive symmetric matrix, so no
    complex arithmetic is needed.  Values within 1e-9 below 1 are clipped
    to 1; values below 1 - 1e-6 raise InvalidStateError as unphysical.
    """
    ov = omega(s.modes) @ s.cov
    w = np.linalg.eigvals(-ov @ ov).real
    nus = np.sqrt(np.clip(w, 0.0, None))
    nus = np.sort(nus)[::-1][::2].copy()  # spectrum comes doubled; keep one of each pair
    if nus.min(initial=np.inf) < 1.0 - SYMPLECTIC_FLOOR:
        raise InvalidStateError(
            f"unphysical covariance: symplectic eigenvalue {nus.min():.9f} < 1"
        )
    return np.where((nus < 1.0) & (nus >= 1.0 - SYMPLECTIC_CLIP), 1.0, nus)


def gaussian_entropy(s: GaussianState) -> float:
    """Entropy in bits: sum of g((nu - 1)/2) over the symplectic spectrum."""
    nus = symplectic_eigenvalues(s)
    return sum(g_function(max(0.0, (nu - 1.0) / 2.0)) for nu in nus)


def attenuator_dilation_output(n: float, eta: float, noise: float) -> GaussianState:
    """Three-mode output (B, F, E') of the beamsplitter dilation.

    Input: thermal mode of mean photon number n on A, the purifying
    two-mode squeezed pair on (E, E').  The beamsplitter symplectic map
    [[sqrt(eta) I, sqrt(1-eta) I], [-sqrt(1-eta) I, sqrt(eta) I]] acts on
    (A, E), extended by the identity on E'.
    """
    validate(GAUSSIAN, eta, noise)
    v_in = np.zeros((6, 6))
    v_in[:2, :2] = thermal_state(n).cov
    v_in[2:, 2:] = two_mode_squeezed_cov(noise).cov
    r = math.sqrt(eta)
    t = math.sqrt(1.0 - eta)
    s_bs = np.eye(6)
    s_bs[0, 0] = s_bs[1, 1] = s_bs[2, 2] = s_bs[3, 3] = r
    s_bs[0, 2] = s_bs[1, 3] = t
    s_bs[2, 0] = s_bs[3, 1] = -t
    s_bs[2, 1] = s_bs[3, 0] = -0.0  # as in the block form's (-t) * I, so the product keeps its bytes
    v_out = s_bs @ v_in @ s_bs.T
    return GaussianState(np.zeros(6), (v_out + v_out.T) / 2.0)


def mode_marginal(s: GaussianState, modes) -> GaussianState:
    """Restriction of a Gaussian state to the given distinct mode indices, in their order."""
    idx = []
    for m in modes:
        if not 0 <= m < s.modes:
            raise ValueError(f"mode index {m} out of range for {s.modes} modes")
        if 2 * m in idx:
            raise ValueError(f"mode index {m} given twice")
        idx.extend((2 * m, 2 * m + 1))
    idx = np.array(idx, dtype=int)
    return GaussianState(s.mean[idx], s.cov[np.ix_(idx, idx)])


def coherent_information_gaussian(n: float, eta: float, noise: float, variant: str) -> float:
    """Coherent information in bits for thermal input n, from the three-mode dilation.

    ``variant`` as in ``qubit.coherent_information_qubit``: ``direct`` is
    S(B) - S(F, E'), ``extended`` is S(B, E') - S(F).
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
    there the factors degenerate and the decomposition does not exist.
    """
    if is_entanglement_breaking(params):
        raise ValueError(
            f"channel (tau={params.tau!r}, y={params.y!r}) is entanglement-breaking; "
            "the amplifier-attenuator factorization requires y < 1 + tau"
        )
    eta_prime = (1.0 + params.tau - params.y) / 2.0
    kappa_prime = params.tau / eta_prime
    # Quantum-limited endpoints land a rounding error away from 1; snap them.
    return TwistedFactors(eta_prime=min(eta_prime, 1.0), kappa_prime=max(kappa_prime, 1.0))
