"""The qubit thermal attenuator (generalized amplitude damping) family.

Direct channel action on (p, gamma), the full beamsplitter dilation with a
purified two-qubit environment, extended / complementary / weakly
complementary outputs, phase damping, and coherent information: from the
dilation for any input, and from closed-form spectra for diagonal inputs.

Conventions, fixed once here: two-qubit basis order {|00>, |01>, |10>, |11>}
with the system as the first (slowest-varying) factor; the dilated state
carries factors (B, F, E') = (system output, interacted environment,
purifying ancilla) at indices (0, 1, 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, kron, partial_trace, von_neumann_entropy

COHERENCE_SLACK = 1e-12  # tolerated overshoot of |gamma|^2 over p(1-p)


@dataclass(frozen=True)
class QubitAttenuatorParams:
    """Transmissivity eta in [0, 1] and environment mean energy noise in [0, 1/2]."""

    eta: float
    noise: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta!r}")
        if not 0.0 <= self.noise <= 0.5:
            raise ValueError(f"noise must lie in [0, 1/2], got {self.noise!r}")


@dataclass(frozen=True)
class QubitState:
    """Qubit state as excited-state population p and coherence gamma."""

    p: float
    gamma: complex = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"population must lie in [0, 1], got {self.p!r}")
        if abs(self.gamma) ** 2 > self.p * (1.0 - self.p) + COHERENCE_SLACK:
            raise ValueError(
                f"coherence too large: |gamma|^2 = {abs(self.gamma)**2:.3e} "
                f"exceeds p(1-p) = {self.p * (1 - self.p):.3e}"
            )

    def to_density_matrix(self) -> DensityMatrix:
        g = complex(self.gamma)
        m = np.array([[1.0 - self.p, g], [g.conjugate(), self.p]], dtype=complex)
        return DensityMatrix(m, (2,))

    @classmethod
    def from_density_matrix(cls, rho: DensityMatrix) -> "QubitState":
        if rho.dim != 2:
            raise ValueError(f"expected a single-qubit state, got dimension {rho.dim}")
        return cls(p=float(rho.matrix[1, 1].real), gamma=complex(rho.matrix[0, 1]))


def apply_attenuator(s: QubitState, c: QubitAttenuatorParams) -> QubitState:
    """Channel action: p -> eta p + (1-eta) N, gamma -> sqrt(eta) gamma."""
    return QubitState(
        p=c.eta * s.p + (1.0 - c.eta) * c.noise,
        gamma=math.sqrt(c.eta) * s.gamma,
    )


def phase_damping(s: QubitState, mu: float) -> QubitState:
    """Dephasing of parameter mu: population kept, gamma -> mu gamma."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu!r}")
    return QubitState(p=s.p, gamma=mu * s.gamma)


def thermal_qubit(noise: float) -> DensityMatrix:
    """Thermal two-level environment diag(1-N, N)."""
    if not 0.0 <= noise <= 0.5:
        raise ValueError(f"noise must lie in [0, 1/2], got {noise!r}")
    return DensityMatrix(np.diag([1.0 - noise, noise]).astype(complex), (2,))


def beamsplitter_unitary(eta: float) -> np.ndarray:
    """Energy-preserving rotation on the {|01>, |10>} subspace.

    Identity on |00> and |11>; the single-excitation block is
    [[sqrt(eta), sqrt(1-eta)], [-sqrt(1-eta), sqrt(eta)]].
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta!r}")
    r = math.sqrt(eta)
    t = math.sqrt(1.0 - eta)
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, r, t, 0.0],
            [0.0, -t, r, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ],
        dtype=complex,
    )


def purified_environment(noise: float) -> DensityMatrix:
    """Rank-one projector onto sqrt(1-N)|00> + sqrt(N)|11> on factors (E, E')."""
    if not 0.0 <= noise <= 0.5:
        raise ValueError(f"noise must lie in [0, 1/2], got {noise!r}")
    ket = np.array([math.sqrt(1.0 - noise), 0.0, 0.0, math.sqrt(noise)], dtype=complex)
    return DensityMatrix(np.outer(ket, ket), (2, 2))


def dilated_state(s: QubitState, c: QubitAttenuatorParams) -> DensityMatrix:
    """8x8 joint output on factors (B, F, E').

    The beamsplitter acts on (A, E) tensored with identity on E', applied to
    rho_A (x) |tau><tau|_EE'.
    """
    rho_in = kron(s.to_density_matrix().matrix, purified_environment(c.noise).matrix)
    u = kron(beamsplitter_unitary(c.eta), np.eye(2))
    return DensityMatrix(u @ rho_in @ u.conj().T, (2, 2, 2))


def extended_output(s: QubitState, c: QubitAttenuatorParams) -> DensityMatrix:
    """4x4 output on (B, E'): the dilation with F traced out."""
    return partial_trace(dilated_state(s, c), {0, 2})


def weak_complementary_output(s: QubitState, c: QubitAttenuatorParams) -> DensityMatrix:
    """2x2 output on F: the dilation with B and E' traced out."""
    return partial_trace(dilated_state(s, c), {1})


def complementary_output(s: QubitState, c: QubitAttenuatorParams) -> DensityMatrix:
    """4x4 output on (F, E'): the dilation with B traced out."""
    return partial_trace(dilated_state(s, c), {1, 2})


def extended_output_closed_form(s: QubitState, c: QubitAttenuatorParams) -> np.ndarray:
    """Explicit 4x4 matrix of the extended-channel output on (B, E')."""
    p = s.p
    g = complex(s.gamma)
    gc = g.conjugate()
    a = 1.0 - c.noise
    b = c.noise
    e = c.eta
    re = math.sqrt(e)
    w = math.sqrt(a * b * (1.0 - e))       # couples |00> and |11> of (B, E')
    we = math.sqrt(a * b * (1.0 - e) * e)  # multiplies the surviving coherences
    return np.array(
        [
            [a * (1.0 - p * e), we * gc, a * re * g, (2.0 * p - 1.0) * w],
            [we * g, b * (1.0 - p) * e, 0.0, b * re * g],
            [a * re * gc, 0.0, a * p * e, -we * gc],
            [(2.0 * p - 1.0) * w, b * re * gc, -we * g, b * (1.0 - e * (1.0 - p))],
        ],
        dtype=complex,
    )


def weak_complementary_closed_form(s: QubitState, c: QubitAttenuatorParams) -> np.ndarray:
    """Explicit 2x2 matrix of the weakly-complementary output on F."""
    p = s.p
    g = complex(s.gamma)
    t = math.sqrt(1.0 - c.eta)
    pop = p * (1.0 - c.eta) + c.noise * c.eta
    off = (1.0 - 2.0 * c.noise) * g * t
    return np.array([[1.0 - pop, off], [off.conjugate(), pop]], dtype=complex)


def coherent_information_qubit(
    s: QubitState, c: QubitAttenuatorParams, variant: str = "direct"
) -> float:
    """Coherent information in bits, from the brute-force dilation.

    ``direct``:   S(B) - S(F, E'), the original channel against its
                  Stinespring complement.
    ``extended``: S(B, E') - S(F), the extended channel against its
                  complement; equals minus the weakly-complementary coherent
                  information.
    """
    rho = dilated_state(s, c)
    if variant == "direct":
        out = partial_trace(rho, {0})
        comp = partial_trace(rho, {1, 2})
    elif variant == "extended":
        out = partial_trace(rho, {0, 2})
        comp = partial_trace(rho, {1})
    else:
        raise ValueError(f"variant must be 'direct' or 'extended', got {variant!r}")
    return von_neumann_entropy(out) - von_neumann_entropy(comp)


def _entropy_bits(*eigenvalues: float) -> float:
    """-sum x log2 x over the given eigenvalues, with 0 log 0 = 0."""
    return -sum(x * math.log2(x) for x in eigenvalues if x > 0.0)


def _block_eigenvalues(x: float, z: float, off: float, det: float) -> tuple[float, float]:
    """Eigenvalues of the PSD block [[x, off], [off, z]] with determinant det.

    The smaller one is det / larger: the quadratic-formula difference would
    cancel when the block is nearly rank one.
    """
    larger = 0.5 * (x + z) + math.hypot(0.5 * (x - z), off)
    return larger, (det / larger if larger > 0.0 else 0.0)


def coherent_information_diagonal(
    p: float, c: QubitAttenuatorParams, variant: str = "direct"
) -> float:
    """coherent_information_qubit(QubitState(p), c, variant) from explicit spectra.

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
    """
    eta, a, b = c.eta, 1.0 - c.noise, c.noise
    ab = a * b
    q = 1.0 - p
    if variant == "direct":
        p_out = eta * p + (1.0 - eta) * b
        u = 1.0 - eta
        big, small = _block_eigenvalues(
            a * (1.0 - p * u), b * (1.0 - q * u), math.sqrt(ab * eta), ab * p * q * u * u
        )
        return _entropy_bits(1.0 - p_out, p_out) - _entropy_bits(big, small, b * u * q, a * u * p)
    if variant == "extended":
        p_out = (1.0 - eta) * p + eta * b
        big, small = _block_eigenvalues(
            a * (1.0 - p * eta),
            b * (1.0 - eta * q),
            (2.0 * p - 1.0) * math.sqrt(ab * (1.0 - eta)),
            ab * p * q * (2.0 - eta) ** 2,
        )
        return _entropy_bits(big, small, b * eta * q, a * eta * p) - _entropy_bits(1.0 - p_out, p_out)
    raise ValueError(f"variant must be 'direct' or 'extended', got {variant!r}")
