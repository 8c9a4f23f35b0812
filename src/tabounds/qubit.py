"""The qubit thermal attenuator (generalized amplitude damping) family.

The oracle layer behind the qubit closed forms: direct channel action on
(p, gamma), the full beamsplitter dilation with a purified two-qubit
environment, extended and weakly complementary outputs, phase damping,
and coherent information from the dilation for any input.  The channel's
domain (``QubitAttenuatorParams``), the factors each coherent information
keeps (``VARIANT_FACTORS``) and the closed-form coherent information of
diagonal inputs live in ``bounds``, which this module imports.

One array core builds the channel's action and the dilation from
``p, gamma, eta, noise`` by broadcasting: the one-pair functions pass
scalars, and ``QubitStack`` passes the columns of a stack of (state,
channel) pairs, which it checks against the rules of ``QubitState`` and
``QubitAttenuatorParams`` once for the whole stack.  So a stack costs a few
numpy calls and each of its members has the bits of the one-pair call.  The
dilation forms one tensor product, rho_A (x) tau, and applies the
beamsplitter as a rotation of its single-excitation rows and columns, with
the bytes of the dense ``np.kron`` and matmul construction.  The
closed-form extended and weakly complementary outputs exist only as
``QubitStack`` methods; one pair is a one-member stack.

Conventions, fixed once here: two-qubit basis order {|00>, |01>, |10>, |11>}
with the system as the first (slowest-varying) factor; the dilated state
carries factors (B, F, E') = (system output, interacted environment,
purifying ancilla) at indices (0, 1, 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import VARIANT_FACTORS, QubitAttenuatorParams, variant_factors
from .linalg import DensityMatrix, _first, _kron, partial_trace, von_neumann_entropy

COHERENCE_SLACK = 1e-12  # tolerated overshoot of |gamma|^2 over p(1-p)


@dataclass(frozen=True)
class QubitState:
    """Qubit state as excited-state population p and coherence gamma.

    A valid ``p`` is stored as a float and a numpy ``gamma`` as its Python
    number, so a numpy float32 or an int is computed with in float64.
    """

    p: float
    gamma: complex = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:  # also rejects nan
            raise ValueError(f"p must lie in [0, 1], got {self.p!r}")
        if type(self.p) is not float:  # a float, the usual case, as given
            object.__setattr__(self, "p", float(self.p))
        if isinstance(self.gamma, np.generic):
            object.__setattr__(self, "gamma", self.gamma.item())
        r = abs(self.gamma)
        if not r * r <= self.p * (1.0 - self.p) + COHERENCE_SLACK:  # r * r overflows to inf, not an error
            raise ValueError(
                f"gamma must satisfy |gamma|^2 <= p(1-p) = {self.p * (1 - self.p):.3e}, got |gamma|^2 = {r * r:.3e}"
            )

    def to_density_matrix(self) -> DensityMatrix:
        return DensityMatrix(_input(self.p, complex(self.gamma)), (2,))


def apply_attenuator(s: QubitState, c: QubitAttenuatorParams) -> QubitState:
    """Channel action: p -> eta p + (1-eta) N, gamma -> sqrt(eta) gamma."""
    p, gamma = _attenuate(s.p, s.gamma, c.eta, c.noise)
    return QubitState(p, gamma.item())


def phase_damping(s: QubitState, mu: float) -> QubitState:
    """Dephasing of parameter mu: population kept, gamma -> mu gamma."""
    _check_mu(mu)
    return QubitState(p=s.p, gamma=mu * s.gamma)


def _check_mu(mu: float) -> None:
    if not 0.0 <= mu <= 1.0:  # also rejects nan
        raise ValueError(f"mu must lie in [0, 1], got {mu!r}")


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


# The factors of the dilated state that each marginal keeps, read off
# ``VARIANT_FACTORS``: the channel output B and the complementary output
# (F, E'), then the extended-channel output (B, E') and the weakly
# complementary output F.
KEEP_B, KEEP_FE = map(frozenset, VARIANT_FACTORS["direct"])
KEEP_BE, KEEP_F = map(frozenset, VARIANT_FACTORS["extended"])


def extended_output(s: QubitState, c: QubitAttenuatorParams) -> DensityMatrix:
    """4x4 output on (B, E'): the dilation with F traced out."""
    return partial_trace(dilated_state(s, c), KEEP_BE)


def weak_complementary_output(s: QubitState, c: QubitAttenuatorParams) -> DensityMatrix:
    """2x2 output on F: the dilation with B and E' traced out."""
    return partial_trace(dilated_state(s, c), KEEP_F)


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


@dataclass(frozen=True, eq=False)  # == compares identity, not arrays
class QubitStack:
    """The dilation oracle on a stack of (state, channel) pairs, given as columns.

    ``p`` and ``gamma`` are the states' fields and ``eta`` and ``noise`` the
    channels', as arrays of one length or scalars that stand for a constant
    column.  The rules of ``QubitState`` and ``QubitAttenuatorParams`` are
    checked for every member at once, nan failing each; an error is the one
    those types give for the first member that breaks a rule, followed by its
    stack index.  Along the leading axis, ``input_state`` gives each state's
    ``to_density_matrix``, the two ``*_closed_form`` methods each pair's
    explicit output matrix, and each other method what the one-pair function
    of its name gives, bit for bit.
    """

    p: np.ndarray
    gamma: np.ndarray
    eta: np.ndarray
    noise: np.ndarray

    def __post_init__(self):
        p, gamma, eta, noise = np.broadcast_arrays(
            np.array(self.p, dtype=float),
            np.array(self.gamma, dtype=complex),
            np.array(self.eta, dtype=float),
            np.array(self.noise, dtype=float),
        )
        # The rules of the two scalar types, as written there; an overflow of
        # |gamma|^2 to inf fails the second without a warning.
        with np.errstate(over="ignore"):
            r = abs(gamma)
            ok = (0.0 <= p) & (p <= 1.0) & (r * r <= p * (1.0 - p) + COHERENCE_SLACK)
        ok &= (0.0 <= eta) & (eta <= 1.0) & (0.0 <= noise) & (noise <= 0.5)
        _check_members(ok, _check_pair, p, gamma, eta, noise)
        for name, column in zip(("p", "gamma", "eta", "noise"), (p, gamma, eta, noise)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def input_state(self) -> DensityMatrix:
        """The states as a stack of 2x2 density matrices."""
        return DensityMatrix(_input(self.p, self.gamma), (2,))

    def apply_attenuator(self) -> QubitStack:
        """Each channel's output state, paired with the same channel."""
        return QubitStack(*_attenuate(self.p, self.gamma, self.eta, self.noise), self.eta, self.noise)

    def phase_damping(self, mu) -> QubitStack:
        """Each state dephased by ``mu``, a scalar or one entry per member, with the same channels."""
        mu = np.asarray(mu, dtype=float)
        _check_members((0.0 <= mu) & (mu <= 1.0), _check_mu, mu)
        return QubitStack(self.p, mu * self.gamma, self.eta, self.noise)

    def dilated_state(self) -> DensityMatrix:
        return _dilation(self.p, self.gamma, self.eta, self.noise)

    def extended_output_closed_form(self) -> np.ndarray:
        """Explicit 4x4 matrices of the extended-channel outputs on (B, E')."""
        p, g, gc = self.p, self.gamma, np.conj(self.gamma)
        a = 1.0 - self.noise
        b = self.noise
        e = self.eta
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

    def weak_complementary_closed_form(self) -> np.ndarray:
        """Explicit 2x2 matrices of the weakly complementary outputs on F."""
        t = np.sqrt(1.0 - self.eta)
        pop = self.p * (1.0 - self.eta) + self.noise * self.eta
        off = (1.0 - 2.0 * self.noise) * self.gamma * t
        return _matrix([[1.0 - pop, off], [np.conj(off), pop]])


def _check_pair(p: float, gamma: complex, eta: float, noise: float) -> None:
    QubitState(p, gamma)
    QubitAttenuatorParams(eta, noise)


def _check_members(ok: np.ndarray, check: Callable[..., None], *columns: np.ndarray) -> None:
    """Raise what the scalar rule ``check`` raises on the first member of a
    stack where ``ok``, the same rule on whole columns, fails, followed by the
    member's stack index; ``check`` takes that member's entries of the
    columns, which have the shape of ``ok``, as Python scalars."""
    if not ok.all():
        bad = ~ok
        at = np.unravel_index(np.argmax(bad), bad.shape)
        try:
            check(*(c[at].item() for c in columns))
        except ValueError as exc:
            raise ValueError(f"{exc}{_first(bad)}") from None


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


def _attenuate(p, gamma, eta, noise) -> tuple:
    """The attenuator's action on (p, gamma): the new (p, gamma), gamma a numpy scalar or array."""
    return eta * p + (1.0 - eta) * noise, np.sqrt(eta) * gamma


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
    """U (rho_A (x) tau) U^H with U = ``_beamsplitter(eta)`` (x) I on E'.

    U moves only |01> and |10> of (A, E), the rows and columns 2:4 and 4:6
    on (A, E, E'), so it is applied as a real rotation of those rows, then
    of those columns.  Each moved entry is the same two rounded products and
    one rounded sum as in the product with the dense U, so the result has
    the bytes of ``np.kron`` and two matmuls.
    """
    rho = _kron(_input(p, gamma), _environment(noise))
    r = np.sqrt(eta)[..., None, None]
    t = np.sqrt(1.0 - eta)[..., None, None]
    for one, two in ((np.s_[..., 2:4, :], np.s_[..., 4:6, :]), (np.s_[..., 2:4], np.s_[..., 4:6])):
        a, b = rho[one], rho[two]
        rho[one], rho[two] = r * a + t * b, r * b - t * a
    rho += 0.0  # a -0.0 of the rotation is the +0.0 that the matmuls give
    return DensityMatrix(rho, (2, 2, 2))
