"""Single- and few-mode Gaussian states and phase-insensitive channels.

States are (mean, covariance) pairs in dimensionless quadrature units with
the vacuum covariance equal to the identity, so a thermal mode of mean
photon number N has covariance (2N+1) I.  This is the convention in which
the attenuator acts as V -> eta V + (1-eta)(2N+1) I; mind the factor of two
when interfacing with hbar = 1 code.  The symplectic form is
[[0, 1], [-1, 0]] per mode.  Entropies are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import InvalidStateError

SYMMETRY_ATOL = 1e-12      # admissible asymmetry of covariance matrices
SYMPLECTIC_CLIP = 1e-9     # eigenvalues this far below 1 are clipped to 1
SYMPLECTIC_FLOOR = 1e-6    # eigenvalues below 1 - this raise InvalidStateError
NOISE_SLACK = 1e-12        # tolerated dip of y below |1 - tau| from roundoff
_LN2 = math.log(2.0)


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
    """Generalized transmissivity tau >= 0 and additive noise y >= |1 - tau|."""

    tau: float
    y: float

    def __post_init__(self):
        if not self.tau >= 0.0:  # also rejects nan
            raise ValueError(f"tau must be nonnegative, got {self.tau!r}")
        if not self.y >= abs(1.0 - self.tau) - NOISE_SLACK:
            raise ValueError(f"noise y must be at least |1 - tau| = {abs(1 - self.tau)!r}, got {self.y!r}")


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


def thermal_state(n: float) -> GaussianState:
    """Single thermal mode of mean photon number n: zero mean, (2n+1) I."""
    if not n >= 0.0:
        raise ValueError(f"mean photon number n must be nonnegative, got {n!r}")
    return GaussianState(np.zeros(2), (2.0 * n + 1.0) * np.eye(2))


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
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta!r}")
    if not noise >= 0.0:
        raise ValueError(f"noise must be nonnegative, got {noise!r}")
    return PhaseInsensitiveParams(tau=eta, y=(1.0 - eta) * (2.0 * noise + 1.0))


def amplifier_as_phase_insensitive(kappa: float, noise: float) -> PhaseInsensitiveParams:
    """Amplifier of gain kappa and noise N as (tau, y) = (kappa, (kappa-1)(2N+1))."""
    if not kappa >= 1.0:
        raise ValueError(f"gain kappa must be >= 1, got {kappa!r}")
    if not noise >= 0.0:
        raise ValueError(f"noise must be nonnegative, got {noise!r}")
    return PhaseInsensitiveParams(tau=kappa, y=(kappa - 1.0) * (2.0 * noise + 1.0))


def two_mode_squeezed_cov(noise: float) -> GaussianState:
    """Pure two-mode state whose single-mode marginals are thermal with energy N.

    Diagonal blocks (2N+1) I, off-diagonal blocks sigma_z sqrt((2N+1)^2 - 1).
    """
    if not noise >= 0.0:
        raise ValueError(f"noise must be nonnegative, got {noise!r}")
    nu = 2.0 * noise + 1.0
    c = math.sqrt(nu * nu - 1.0)
    sz = np.diag([1.0, -1.0])
    v = np.block([[nu * np.eye(2), c * sz], [c * sz, nu * np.eye(2)]])
    return GaussianState(np.zeros(4), v)


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, descending.

    Computed as square roots of the (doubly degenerate) eigenvalues of
    -(Omega V)^2, which is similar to a positive symmetric matrix, so no
    complex arithmetic is needed.  Values within 1e-9 below 1 are clipped
    to 1; values below 1 - 1e-6 raise InvalidStateError as unphysical.
    """
    v = np.asarray(cov, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] % 2 != 0:
        raise ValueError(f"covariance must be square with even dimension, got shape {v.shape}")
    if np.abs(v - v.T).max(initial=0.0) > SYMMETRY_ATOL:
        raise ValueError("covariance matrix is not symmetric within 1e-12")
    m = v.shape[0] // 2
    ov = omega(m) @ v
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
    nus = symplectic_eigenvalues(s.cov)
    return sum(g_function(max(0.0, (nu - 1.0) / 2.0)) for nu in nus)


def attenuator_dilation_output(n: float, eta: float, noise: float) -> GaussianState:
    """Three-mode output (B, F, E') of the beamsplitter dilation.

    Input: thermal mode of mean photon number n on A, the purifying
    two-mode squeezed pair on (E, E').  The beamsplitter symplectic map
    [[sqrt(eta) I, sqrt(1-eta) I], [-sqrt(1-eta) I, sqrt(eta) I]] acts on
    (A, E), extended by the identity on E'.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta!r}")
    v_in = np.zeros((6, 6))
    v_in[:2, :2] = thermal_state(n).cov
    v_in[2:, 2:] = two_mode_squeezed_cov(noise).cov
    i2 = np.eye(2)
    z2 = np.zeros((2, 2))
    r = math.sqrt(eta)
    t = math.sqrt(1.0 - eta)
    s_bs = np.block([[r * i2, t * i2, z2], [-t * i2, r * i2, z2], [z2, z2, i2]])
    v_out = s_bs @ v_in @ s_bs.T
    return GaussianState(np.zeros(6), (v_out + v_out.T) / 2.0)


def mode_marginal(s: GaussianState, modes) -> GaussianState:
    """Restriction of a Gaussian state to the given mode indices."""
    idx = []
    for m in modes:
        if not 0 <= m < s.modes:
            raise ValueError(f"mode index {m} out of range for {s.modes} modes")
        idx.extend((2 * m, 2 * m + 1))
    idx = np.array(idx, dtype=int)
    return GaussianState(s.mean[idx], s.cov[np.ix_(idx, idx)])


def extended_attenuator_moments(
    n: float, eta: float, noise: float
) -> tuple[GaussianState, GaussianState]:
    """(B, E') two-mode marginal and F one-mode marginal of the dilation."""
    out = attenuator_dilation_output(n, eta, noise)
    return mode_marginal(out, (0, 2)), mode_marginal(out, (1,))


def coherent_info_extended_gaussian(n: float, eta: float, noise: float) -> float:
    """Extended-channel coherent information S(B, E') - S(F) for thermal input n."""
    be, f = extended_attenuator_moments(n, eta, noise)
    return gaussian_entropy(be) - gaussian_entropy(f)


def coherent_info_attenuator_gaussian(n: float, eta: float, noise: float) -> float:
    """Direct-channel coherent information S(B) - S(F, E') for thermal input n."""
    out = attenuator_dilation_output(n, eta, noise)
    b = mode_marginal(out, (0,))
    fe = mode_marginal(out, (1, 2))
    return gaussian_entropy(b) - gaussian_entropy(fe)


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
