"""The qubit thermal attenuator (generalized amplitude damping) family.

The oracle layer behind the qubit closed forms: direct channel action on
(p, gamma), the full beamsplitter dilation with a purified two-qubit
environment, extended and weakly complementary outputs, phase damping,
and coherent information from the dilation for any input.  The channel's
domain (``QubitAttenuatorParams``), the factors each coherent information
keeps (``VARIANT_FACTORS``) and the closed-form coherent information of
diagonal inputs live in ``bounds``, which this module imports.

One array core builds the dilation and the closed-form marginals from
``p, gamma, eta, noise`` by broadcasting: the one-pair functions pass
scalars, and ``QubitStack`` passes the columns of a stack of validated
pairs, so a stack costs a few numpy calls and each of its members has the
bits of the one-pair call.

Conventions, fixed once here: two-qubit basis order {|00>, |01>, |10>, |11>}
with the system as the first (slowest-varying) factor; the dilated state
carries factors (B, F, E') = (system output, interacted environment,
purifying ancilla) at indices (0, 1, 2).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bounds import QubitAttenuatorParams, variant_factors
from .linalg import DensityMatrix, partial_trace, von_neumann_entropy

COHERENCE_SLACK = 1e-12  # tolerated overshoot of |gamma|^2 over p(1-p)


@dataclass(frozen=True)
class QubitState:
    """Qubit state as excited-state population p and coherence gamma."""

    p: float
    gamma: complex = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:  # also rejects nan
            raise ValueError(f"p must lie in [0, 1], got {self.p!r}")
        if not abs(self.gamma) ** 2 <= self.p * (1.0 - self.p) + COHERENCE_SLACK:
            raise ValueError(
                f"gamma must satisfy |gamma|^2 <= p(1-p) = {self.p * (1 - self.p):.3e}, "
                f"got |gamma|^2 = {abs(self.gamma)**2:.3e}"
            )

    def to_density_matrix(self) -> DensityMatrix:
        return DensityMatrix(_input(self.p, complex(self.gamma)), (2,))


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


def beamsplitter_unitary(eta: float) -> np.ndarray:
    """Energy-preserving rotation on the {|01>, |10>} subspace.

    Identity on |00> and |11>; the single-excitation block is
    [[sqrt(eta), sqrt(1-eta)], [-sqrt(1-eta), sqrt(eta)]].
    """
    QubitAttenuatorParams(eta, 0.0)  # the domain's owner checks eta
    return _beamsplitter(eta)


def purified_environment(noise: float) -> DensityMatrix:
    """Rank-one projector onto sqrt(1-N)|00> + sqrt(N)|11> on factors (E, E').

    Either factor's marginal is the thermal qubit diag(1-N, N).
    """
    QubitAttenuatorParams(1.0, noise)  # the domain's owner checks noise
    return DensityMatrix(_environment(noise), (2, 2))


def dilated_state(s: QubitState, c: QubitAttenuatorParams) -> DensityMatrix:
    """8x8 joint output on factors (B, F, E').

    The beamsplitter acts on (A, E) tensored with identity on E', applied to
    rho_A (x) |tau><tau|_EE'.
    """
    return _dilation(s.p, complex(s.gamma), c.eta, c.noise)


# The factors of the dilated state that each marginal keeps.
KEEP_B = frozenset({0})      # channel output
KEEP_BE = frozenset({0, 2})  # extended-channel output, on (B, E')
KEEP_F = frozenset({1})      # weakly-complementary output
KEEP_FE = frozenset({1, 2})  # complementary output, on (F, E')


def extended_output(s: QubitState, c: QubitAttenuatorParams) -> DensityMatrix:
    """4x4 output on (B, E'): the dilation with F traced out."""
    return partial_trace(dilated_state(s, c), KEEP_BE)


def weak_complementary_output(s: QubitState, c: QubitAttenuatorParams) -> DensityMatrix:
    """2x2 output on F: the dilation with B and E' traced out."""
    return partial_trace(dilated_state(s, c), KEEP_F)


def extended_output_closed_form(s: QubitState, c: QubitAttenuatorParams) -> np.ndarray:
    """Explicit 4x4 matrix of the extended-channel output on (B, E')."""
    return _extended_closed_form(s.p, complex(s.gamma), c.eta, c.noise)


def weak_complementary_closed_form(s: QubitState, c: QubitAttenuatorParams) -> np.ndarray:
    """Explicit 2x2 matrix of the weakly-complementary output on F."""
    return _weak_complementary_closed_form(s.p, complex(s.gamma), c.eta, c.noise)


def dilation_coherent_information(rho: DensityMatrix, variant: str):
    """Coherent information in bits of a dilated state on (B, F, E').

    A float for one dilated state, an array for a stack of them (as from
    ``QubitStack.dilated_state``); ``variant`` as in
    ``coherent_information_qubit``.
    """
    out, comp = variant_factors(variant)
    return von_neumann_entropy(partial_trace(rho, out)) - von_neumann_entropy(partial_trace(rho, comp))


def coherent_information_qubit(s: QubitState, c: QubitAttenuatorParams, variant: str) -> float:
    """Coherent information in bits, from the brute-force dilation.

    ``direct``:   S(B) - S(F, E'), the original channel against its
                  Stinespring complement.
    ``extended``: S(B, E') - S(F), the extended channel against its
                  complement; equals minus the weakly-complementary coherent
                  information.
    """
    return dilation_coherent_information(dilated_state(s, c), variant)


class QubitStack:
    """The dilation oracle on a stack of (state, channel) pairs.

    ``states`` and ``params`` are zipped sequences of already-validated
    ``QubitState`` and ``QubitAttenuatorParams``, so the domain checks stay
    with those types.  Along one leading axis, ``input_state`` gives each
    state's ``to_density_matrix`` and each other method what the one-pair
    function of its name gives, bit for bit.
    """

    def __init__(self, states: Sequence[QubitState], params: Sequence[QubitAttenuatorParams]):
        if len(states) != len(params):
            raise ValueError(f"got {len(states)} states for {len(params)} channels")
        self._columns = (
            np.array([s.p for s in states], dtype=float),
            np.array([s.gamma for s in states], dtype=complex),
            np.array([c.eta for c in params], dtype=float),
            np.array([c.noise for c in params], dtype=float),
        )

    def input_state(self) -> DensityMatrix:
        """The states as a stack of 2x2 density matrices."""
        p, gamma, _, _ = self._columns
        return DensityMatrix(_input(p, gamma), (2,))

    def dilated_state(self) -> DensityMatrix:
        return _dilation(*self._columns)

    def extended_output_closed_form(self) -> np.ndarray:
        return _extended_closed_form(*self._columns)

    def weak_complementary_closed_form(self) -> np.ndarray:
        return _weak_complementary_closed_form(*self._columns)


# ---------------------------------------------------------------------------
# the array core: p, eta, noise real and gamma complex, scalars or arrays of
# one shape; each matrix gains two trailing axes.


def _matrix(rows) -> np.ndarray:
    """Complex array ``(..., len(rows), len(rows[0]))`` of the entries ``rows[i][j]``."""
    shape = np.broadcast_shapes(*(np.shape(x) for row in rows for x in row))
    out = np.zeros(shape + (len(rows), len(rows[0])), dtype=complex)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            out[..., i, j] = x
    return out


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of each pair of matrices of two stacks, byte for byte.

    The same elementwise products that np.kron broadcasts, without its
    generic shape handling, which costs several times the arithmetic at
    these sizes.
    """
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (m * p, n * q))


def _input(p, gamma) -> np.ndarray:
    return _matrix([[1.0 - p, gamma], [np.conj(gamma), p]])


def _environment(noise) -> np.ndarray:
    ket = _matrix([[np.sqrt(1.0 - noise), 0.0, 0.0, np.sqrt(noise)]])[..., 0, :]
    return ket[..., :, None] * ket[..., None, :]


def _beamsplitter(eta) -> np.ndarray:
    r = np.sqrt(eta)
    t = np.sqrt(1.0 - eta)
    return _matrix(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, r, t, 0.0],
            [0.0, -t, r, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def _dilation(p, gamma, eta, noise) -> DensityMatrix:
    rho_in = _kron(_input(p, gamma), _environment(noise))
    u = _kron(_beamsplitter(eta), np.eye(2))
    return DensityMatrix(u @ rho_in @ u.conj().swapaxes(-1, -2), (2, 2, 2))


def _extended_closed_form(p, g, eta, noise) -> np.ndarray:
    gc = np.conj(g)
    a = 1.0 - noise
    b = noise
    e = eta
    re = np.sqrt(e)
    w = np.sqrt(a * b * (1.0 - e))       # couples |00> and |11> of (B, E')
    we = np.sqrt(a * b * (1.0 - e) * e)  # multiplies the surviving coherences
    return _matrix(
        [
            [a * (1.0 - p * e), we * gc, a * re * g, (2.0 * p - 1.0) * w],
            [we * g, b * (1.0 - p) * e, 0.0, b * re * g],
            [a * re * gc, 0.0, a * p * e, -we * gc],
            [(2.0 * p - 1.0) * w, b * re * gc, -we * g, b * (1.0 - e * (1.0 - p))],
        ]
    )


def _weak_complementary_closed_form(p, g, eta, noise) -> np.ndarray:
    t = np.sqrt(1.0 - eta)
    pop = p * (1.0 - eta) + noise * eta
    off = (1.0 - 2.0 * noise) * g * t
    return _matrix([[1.0 - pop, off], [np.conj(off), pop]])
