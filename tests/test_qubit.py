import math
import re

import numpy as np
import pytest

from tabounds.bounds import QubitAttenuatorParams, coherent_information_diagonal
from tabounds.gaussian import coherent_information_gaussian
from tabounds.linalg import DensityMatrix, hermitian_eigenvalues, partial_trace, von_neumann_entropy
from tabounds.qubit import (
    KEEP_B,
    KEEP_BE,
    KEEP_F,
    KEEP_FE,
    QubitStack,
    QubitState,
    apply_attenuator,
    beamsplitter_unitary,
    coherent_information_qubit,
    dilated_state,
    dilation_coherent_information,
    extended_output,
    phase_damping,
    purified_environment,
    weak_complementary_output,
)
from tabounds.verify import random_qubit_params, random_qubit_state


class TestTypes:
    def test_params_ranges(self):
        with pytest.raises(ValueError):
            QubitAttenuatorParams(1.2, 0.1)
        with pytest.raises(ValueError):
            QubitAttenuatorParams(0.5, 0.6)
        QubitAttenuatorParams(0.0, 0.0)
        QubitAttenuatorParams(1.0, 0.5)

    def test_state_coherence_bound(self):
        with pytest.raises(ValueError):
            QubitState(0.5, 0.6)
        with pytest.raises(ValueError):
            QubitState(1.0, 0.1)
        with pytest.raises(ValueError, match=r"^gamma must .* got \|gamma\|\^2 = inf$"):
            QubitState(0.5, 1e200j)  # |gamma|^2 overflows
        QubitState(0.5, 0.5)  # saturating a pure state is allowed


class TestChannelAction:
    def test_identity_at_full_transmissivity(self):
        out = apply_attenuator(QubitState(0.3, 0.1), QubitAttenuatorParams(1.0, 0.2))
        assert (out.p, out.gamma) == (0.3, 0.1)

    def test_full_replacement(self):
        out = apply_attenuator(QubitState(0.8, 0.3), QubitAttenuatorParams(0.0, 0.2))
        assert out.p == pytest.approx(0.2, abs=1e-15)
        assert out.gamma == 0.0

    def test_direct_evaluation(self):
        out = apply_attenuator(QubitState(0.5, 0.2), QubitAttenuatorParams(0.64, 0.25))
        assert out.p == pytest.approx(0.41, abs=1e-15)
        assert out.gamma == pytest.approx(0.16, abs=1e-15)

    def test_phase_damping(self):
        assert phase_damping(QubitState(0.3, 0.2), 1.0).gamma == 0.2
        assert phase_damping(QubitState(0.3, 0.2), 0.0).gamma == 0.0
        out = phase_damping(QubitState(0.3, 0.2), 0.8)
        assert (out.p, out.gamma) == (0.3, pytest.approx(0.16, abs=1e-15))
        with pytest.raises(ValueError):
            phase_damping(QubitState(0.3, 0.0), 1.5)


class TestEnvironment:
    def test_purified_environment_structure(self):
        ground = purified_environment(0.0).matrix
        assert ground[0, 0] == 1.0 and np.abs(ground).sum() == 1.0
        bell = purified_environment(0.5).matrix
        assert bell[0, 0] == pytest.approx(0.5) and bell[0, 3] == pytest.approx(0.5)
        assert purified_environment(0.1).matrix[0, 3] == pytest.approx(0.3, abs=1e-15)

    def test_purification_marginal_is_thermal(self):
        for noise in (0.0, 0.1, 0.37, 0.5):
            env = purified_environment(noise)
            marginal = partial_trace(env, {0})
            assert np.abs(marginal.matrix - np.diag([1.0 - noise, noise])).max() < 1e-12


class TestBeamsplitter:
    def test_identity_at_eta_one(self):
        assert np.abs(beamsplitter_unitary(1.0) - np.eye(4)).max() == 0.0

    def test_full_swap_rotation(self):
        u = beamsplitter_unitary(0.0)
        assert u[1, 2] == 1.0 and u[2, 1] == -1.0
        assert u[1, 1] == 0.0 and u[2, 2] == 0.0

    def test_balanced(self):
        u = beamsplitter_unitary(0.5)
        r = 1.0 / math.sqrt(2.0)
        want = np.array([[1, 0, 0, 0], [0, r, r, 0], [0, -r, r, 0], [0, 0, 0, 1]])
        assert np.abs(u - want).max() < 1e-15

    def test_unitarity(self):
        for eta in (0.0, 0.17, 0.5, 0.83, 1.0):
            u = beamsplitter_unitary(eta)
            assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12


class TestDilation:
    def test_eta_one_leaves_state_unchanged(self):
        s = QubitState(0.3, 0.1 + 0.2j)
        c = QubitAttenuatorParams(1.0, 0.2)
        rho = dilated_state(s, c)
        want = np.kron(s.to_density_matrix().matrix, purified_environment(0.2).matrix)
        assert np.abs(rho.matrix - want).max() < 1e-12

    def test_pure_environment_keeps_ancilla_pure(self):
        s = QubitState(0.3, 0.2)
        c = QubitAttenuatorParams(0.6, 0.0)
        rho = dilated_state(s, c)
        ancilla = partial_trace(rho, {2})
        assert np.abs(ancilla.matrix - np.diag([1.0, 0.0])).max() < 1e-12
        bf = partial_trace(rho, {0, 1})
        assert np.abs(rho.matrix - np.kron(bf.matrix, ancilla.matrix)).max() < 1e-12

def _dilation_corpus():
    """Seeded (state, channel) pairs, led by every edge p in {0, 1/2, 1},
    eta in {0, 1/2, 1} and N in {0, 1/2}."""
    states = [QubitState(0.0), QubitState(1.0), QubitState(0.5), QubitState(0.5, 0.3 - 0.4j)]
    pairs = [(s, QubitAttenuatorParams(e, n)) for s in states for e in (0.0, 0.5, 1.0) for n in (0.0, 0.5)]
    rng = np.random.default_rng(41)
    return pairs + [(random_qubit_state(rng), random_qubit_params(rng)) for _ in range(500)]


class TestDilationBytes:
    """``dilated_state`` gives the bytes of U (rho_A (x) tau) U^H built with np.kron."""

    def test_matches_the_kron_construction(self):
        for s, c in _dilation_corpus():
            rho_in = np.kron(s.to_density_matrix().matrix, purified_environment(c.noise).matrix)
            u = np.kron(beamsplitter_unitary(c.eta), np.eye(2))
            want = u @ rho_in @ u.conj().T
            assert dilated_state(s, c).matrix.tobytes() == want.tobytes(), (s, c)


def _stack(pairs) -> QubitStack:
    """The columns of (state, channel) pairs as one stack."""
    return QubitStack(
        [s.p for s, _ in pairs], [s.gamma for s, _ in pairs], [c.eta for _, c in pairs], [c.noise for _, c in pairs]
    )


def _bits(states):
    """Each (p, gamma) by repr, for a bitwise comparison."""
    return [(repr(float(p)), repr(complex(gamma))) for p, gamma in states]


class TestStackMatchesPoints:
    """A ``QubitStack`` gives each pair of the corpus the values of the one-pair calls, bit for bit."""

    pairs = _dilation_corpus()
    stack = _stack(pairs)

    def test_inputs_and_dilations(self):
        assert np.array_equal(self.stack.input_state().matrix, [s.to_density_matrix().matrix for s, _ in self.pairs])
        # The whole stack's bytes against U (rho_A (x) tau) U^H of each pair, built with np.kron.
        want = []
        for s, c in self.pairs:
            rho_in = np.kron(s.to_density_matrix().matrix, purified_environment(c.noise).matrix)
            u = np.kron(beamsplitter_unitary(c.eta), np.eye(2))
            want.append(u @ rho_in @ u.conj().T)
        assert self.stack.dilated_state().matrix.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("keep", [KEEP_B, KEEP_BE, KEEP_F, KEEP_FE], ids=["B", "BE", "F", "FE"])
    def test_marginals_and_their_entropies(self, keep):
        got = partial_trace(self.stack.dilated_state(), keep)
        points = [partial_trace(dilated_state(s, c), keep) for s, c in self.pairs]
        assert np.array_equal(got.matrix, [rho.matrix for rho in points])
        assert np.array_equal(von_neumann_entropy(got), [von_neumann_entropy(rho) for rho in points])

    def test_closed_forms(self):
        # The closed forms exist only on stacks: each member's matrix is the
        # one-member stack's.
        for method in ("extended_output_closed_form", "weak_complementary_closed_form"):
            points = [getattr(_stack([pair]), method)()[0] for pair in self.pairs]
            assert getattr(self.stack, method)().tobytes() == np.array(points).tobytes(), method

    @pytest.mark.parametrize("variant", ["direct", "extended"])
    def test_coherent_information(self, variant):
        got = dilation_coherent_information(self.stack.dilated_state(), variant)
        assert np.array_equal(got, [coherent_information_qubit(s, c, variant) for s, c in self.pairs])

    def test_channel_actions(self):
        out = self.stack.apply_attenuator()
        want = [apply_attenuator(s, c) for s, c in self.pairs]
        assert _bits(zip(out.p, out.gamma)) == _bits((s.p, s.gamma) for s in want)
        assert np.array_equal(out.eta, self.stack.eta) and np.array_equal(out.noise, self.stack.noise)
        mu = np.linspace(0.0, 1.0, len(self.pairs))
        damped = self.stack.phase_damping(mu)
        want = [phase_damping(s, m) for (s, _), m in zip(self.pairs, mu.tolist())]
        assert _bits(zip(damped.p, damped.gamma)) == _bits((s.p, s.gamma) for s in want)

    def test_one_pair_actions_return_python_numbers(self):
        for gamma in (0.1, 0.1 - 0.2j):
            out = apply_attenuator(QubitState(0.3, gamma), QubitAttenuatorParams(0.64, 0.25))
            assert type(out.p) is float and type(out.gamma) is type(gamma)
            assert type(phase_damping(QubitState(0.3, gamma), 0.5).gamma) is type(gamma)

    def test_scalars_stand_for_constant_columns(self):
        ps = [0.0, 0.25, 1.0]
        stack = QubitStack(ps, 0.0, 0.7, 0.1)
        points = [dilated_state(QubitState(p), QubitAttenuatorParams(0.7, 0.1)).matrix for p in ps]
        assert np.array_equal(stack.dilated_state().matrix, points)

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="broadcast"):
            QubitStack([0.5, 0.5], 0.0, [0.8, 0.8, 0.8], 0.1)


# One bad member of a three-member stack per case: the column it sits in, its
# value, and the start of the scalar type's message for it.
_BAD_MEMBERS = [
    ("p", 1.5, "p must lie in [0, 1]"),
    ("p", -0.1, "p must lie in [0, 1]"),
    ("p", math.nan, "p must lie in [0, 1]"),
    ("gamma", 0.6, "gamma must satisfy"),
    ("gamma", complex(math.nan, 0.0), "gamma must satisfy"),
    ("gamma", 1e200, "gamma must satisfy"),  # |gamma|^2 overflows
    ("eta", 1.2, "eta must lie in [0, 1]"),
    ("eta", math.nan, "eta must lie in [0, 1]"),
    ("noise", 0.6, "noise must lie in [0, 1/2]"),
    ("noise", -1e-3, "noise must lie in [0, 1/2]"),
]


class TestStackValidation:
    """Every rule of ``QubitState`` and ``QubitAttenuatorParams`` holds for each member of a stack."""

    @pytest.mark.parametrize("index", [0, 1, 2])
    @pytest.mark.parametrize("column,value,message", _BAD_MEMBERS)
    def test_names_the_rule_and_the_member(self, column, value, message, index):
        columns = {"p": [0.5] * 3, "gamma": [0.1j] * 3, "eta": [0.8] * 3, "noise": [0.1] * 3}
        columns[column][index] = value
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}.* at stack index \({index},\)$"):
            QubitStack(**columns)

    def test_first_bad_member_is_named(self):
        with pytest.raises(ValueError, match=r"^eta .* at stack index \(1,\)$"):
            QubitStack([0.5, 0.5, 2.0], 0.0, [0.8, -1.0, 0.8], 0.1)

    def test_accepts_the_edges(self):
        stack = QubitStack([0.0, 1.0, 0.5], [0.0, 0.0, 0.5], [0.0, 1.0, 0.5], [0.0, 0.5, 0.25])
        assert not stack.p.flags.writeable

    def test_dephasing_checks_each_mu(self):
        stack = QubitStack([0.5] * 3, 0.1, 0.8, 0.1)
        with pytest.raises(ValueError, match=r"^mu must lie in \[0, 1\], got 1\.5 at stack index \(1,\)$"):
            stack.phase_damping([0.5, 1.5, 0.5])
        with pytest.raises(ValueError, match=r"^mu must lie in \[0, 1\], got nan$"):  # one mu for all
            stack.phase_damping(math.nan)


class TestMarginals:
    def test_extended_at_eta_one(self):
        s = QubitState(0.3, 0.1)
        out = extended_output(s, QubitAttenuatorParams(1.0, 0.2))
        want = np.kron(s.to_density_matrix().matrix, np.diag([0.8, 0.2]))
        assert np.abs(out.matrix - want).max() < 1e-12

    def test_extended_corner_entries(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            s = random_qubit_state(rng)
            c = random_qubit_params(rng)
            m = extended_output(s, c).matrix
            assert m[0, 0].real == pytest.approx((1 - c.noise) * (1 - s.p * c.eta), abs=1e-12)
            corner = (2 * s.p - 1) * math.sqrt((1 - c.noise) * c.noise * (1 - c.eta))
            assert m[0, 3].real == pytest.approx(corner, abs=1e-12)
            assert abs(m[0, 3].imag) < 1e-12

    def test_weak_complementary_at_eta_one(self):
        out = weak_complementary_output(QubitState(0.3, 0.1), QubitAttenuatorParams(1.0, 0.2))
        assert np.abs(out.matrix - np.diag([0.8, 0.2])).max() < 1e-12

    def test_weak_complementary_full_swap(self):
        out = weak_complementary_output(QubitState(0.3), QubitAttenuatorParams(0.0, 0.2))
        assert np.abs(out.matrix - np.diag([0.7, 0.3])).max() < 1e-12

    def test_weak_complementary_off_diagonal_value(self):
        out = weak_complementary_output(QubitState(0.5, 0.2), QubitAttenuatorParams(0.5, 0.1))
        assert out.matrix[0, 1].real == pytest.approx(0.1131370849898476, abs=1e-12)

    def test_complementary_with_pure_environment(self):
        s = QubitState(0.4, 0.15)
        c = QubitAttenuatorParams(0.7, 0.0)
        comp = partial_trace(dilated_state(s, c), KEEP_FE)
        ancilla = partial_trace(comp, {1})
        assert np.abs(ancilla.matrix - np.diag([1.0, 0.0])).max() < 1e-12
        f_part = partial_trace(comp, {0})
        assert np.abs(f_part.matrix - weak_complementary_output(s, c).matrix).max() < 1e-12

    def test_complementary_at_eta_one_f_thermal(self):
        comp = partial_trace(dilated_state(QubitState(0.4, 0.1), QubitAttenuatorParams(1.0, 0.2)), KEEP_FE)
        f_part = partial_trace(comp, {0})
        assert np.abs(f_part.matrix - np.diag([0.8, 0.2])).max() < 1e-12

    def test_pure_input_entropy_balance(self):
        # Global output is pure for pure inputs, so the extended output and
        # the complement have identical spectra.
        rng = np.random.default_rng(15)
        for _ in range(25):
            p = rng.uniform(0, 1)
            phi = rng.uniform(0, 2 * math.pi)
            s = QubitState(p, math.sqrt(p * (1 - p)) * complex(math.cos(phi), math.sin(phi)))
            c = random_qubit_params(rng)
            s_ext = von_neumann_entropy(extended_output(s, c))
            s_comp = von_neumann_entropy(weak_complementary_output(s, c))
            assert abs(s_ext - s_comp) < 1e-9


class TestCoherentInformation:
    def test_noiseless_channel_on_pure_input(self):
        s = QubitState(0.5, 0.5)
        c = QubitAttenuatorParams(1.0, 0.0)
        assert coherent_information_qubit(s, c, "direct") == pytest.approx(0.0, abs=1e-10)
        assert coherent_information_qubit(s, c, "extended") == pytest.approx(0.0, abs=1e-10)

    def test_identity_channel_recovers_input_entropy(self):
        s = QubitState(0.2)
        c = QubitAttenuatorParams(1.0, 0.3)
        want = von_neumann_entropy(s.to_density_matrix())
        assert coherent_information_qubit(s, c, "direct") == pytest.approx(want, abs=1e-10)
        assert coherent_information_qubit(s, c, "extended") == pytest.approx(want, abs=1e-10)

    def test_extended_is_minus_weak(self):
        # The extended channel and the weakly-complementary channel swap the
        # roles of output and complement, so their rates are opposite.
        rng = np.random.default_rng(16)
        for _ in range(50):
            s = random_qubit_state(rng)
            c = random_qubit_params(rng)
            rho = dilated_state(s, c)
            j_ext = coherent_information_qubit(s, c, "extended")
            j_weak = von_neumann_entropy(partial_trace(rho, {1})) - von_neumann_entropy(
                partial_trace(rho, {0, 2})
            )
            assert abs(j_ext + j_weak) < 1e-10


# One pytest id per fixed point, so a regression names its (p, eta, N) and
# variant. The registered check `qubit/diagonal-closed-form-vs-dilation`
# covers the same edges plus its own seeded draws, not these 40 points.
_EDGE_POINTS = [(p, e, n) for p in (0.0, 1.0) for e in (0.0, 0.5, 1.0) for n in (0.0, 0.5)]
_RANDOM_POINTS = [
    tuple(map(float, x)) for x in np.random.default_rng(23).uniform(0.0, 1.0, size=(40, 3)) * (1.0, 1.0, 0.5)
]


class TestDiagonalClosedForm:
    @pytest.mark.parametrize("variant", ["direct", "extended"])
    @pytest.mark.parametrize("p,eta,noise", _EDGE_POINTS + _RANDOM_POINTS)
    def test_matches_dilation(self, p, eta, noise, variant):
        c = QubitAttenuatorParams(eta, noise)
        want = coherent_information_qubit(QubitState(p), c, variant)
        assert abs(coherent_information_diagonal(p, c, variant) - want) < 1e-12


@pytest.mark.parametrize("p", [math.nan, -0.1, 1.5])
@pytest.mark.parametrize("build", ["state", "diagonal"])
def test_rejects_a_population_outside_the_unit_interval(build, p):
    # The diagonal closed form refuses the populations the state type refuses.
    c = QubitAttenuatorParams(0.9, 0.1)
    with pytest.raises(ValueError, match="^p must"):
        QubitState(p) if build == "state" else coherent_information_diagonal(p, c, "direct")


# Every coherent information, qubit or Gaussian, checks its variant name in one place.
_UNKNOWN_VARIANT_CALLS = {
    "qubit": lambda: coherent_information_qubit(QubitState(0.5), QubitAttenuatorParams(0.8, 0.1), "weird"),
    "diagonal": lambda: coherent_information_diagonal(0.5, QubitAttenuatorParams(0.8, 0.1), "weird"),
    "gaussian": lambda: coherent_information_gaussian(1.0, 0.8, 0.1, "weird"),
}


@pytest.mark.parametrize("call", list(_UNKNOWN_VARIANT_CALLS))
def test_rejects_unknown_variant(call):
    with pytest.raises(ValueError, match="^variant must"):
        _UNKNOWN_VARIANT_CALLS[call]()


class TestStructuralProperties:
    def test_interaction_sign_convention_is_immaterial(self):
        # Flipping the sign of sqrt(1-eta) in the rotation block changes the
        # dilated state only by local phases: the channel output is entrywise
        # identical and every marginal spectrum (hence both rates) agrees.
        rng = np.random.default_rng(20)
        for _ in range(25):
            s = random_qubit_state(rng)
            c = random_qubit_params(rng)
            r, t = math.sqrt(c.eta), math.sqrt(1 - c.eta)
            flipped = np.array(
                [[1, 0, 0, 0], [0, r, -t, 0], [0, t, r, 0], [0, 0, 0, 1]], dtype=complex
            )
            u = np.kron(flipped, np.eye(2))
            rho_in = np.kron(s.to_density_matrix().matrix, purified_environment(c.noise).matrix)
            rho = DensityMatrix(u @ rho_in @ u.conj().T, (2, 2, 2))

            b = partial_trace(rho, {0})
            assert np.abs(b.matrix - partial_trace(dilated_state(s, c), {0}).matrix).max() < 1e-12

            for keep, reference in (({0, 2}, extended_output), ({1}, weak_complementary_output)):
                got = hermitian_eigenvalues(partial_trace(rho, keep).matrix)
                want = hermitian_eigenvalues(reference(s, c).matrix)
                assert np.abs(got - want).max() < 1e-10

            j_ext_flipped = von_neumann_entropy(partial_trace(rho, {0, 2})) - von_neumann_entropy(
                partial_trace(rho, {1})
            )
            assert abs(j_ext_flipped - coherent_information_qubit(s, c, "extended")) < 1e-10
