import math
import re
import sys
import warnings

import numpy as np
import pytest

from support import G_01
from tabounds.gaussian import (
    GaussianState,
    PhaseInsensitiveParams,
    TwistedFactors,
    amplifier_as_phase_insensitive,
    apply_amplifier_gaussian,
    apply_attenuator_gaussian,
    apply_phase_insensitive,
    attenuator_as_phase_insensitive,
    attenuator_dilation_output,
    coherent_information_gaussian,
    gaussian_entropy,
    is_entanglement_breaking,
    mode_marginal,
    omega,
    symplectic_eigenvalues,
    thermal_state,
    twisted_decompose,
    two_mode_squeezed_cov,
)
from tabounds.bounds import entanglement_breaking, g_function
from tabounds.linalg import InvalidStateError
from tabounds.verify import G_05, random_gaussian_state


def symplectic_oracle(cov):
    """Independent route: positive spectrum of the Hermitian i V^(1/2) Omega V^(1/2)."""
    w, u = np.linalg.eigh(cov)
    root = (u * np.sqrt(w)) @ u.T
    m = cov.shape[0] // 2
    herm = 1j * root @ omega(m) @ root
    nus = np.linalg.eigvalsh(herm)
    return np.sort(nus[nus > 0])[::-1]


class TestStatesAndParams:
    def test_state_validation(self):
        with pytest.raises(ValueError):
            GaussianState(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError):
            GaussianState(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]))
        with pytest.raises(ValueError, match=re.escape("cov shape (4, 4) does not match mean shape (2,)")):
            GaussianState(np.zeros(2), np.eye(4))

    def test_a_channel_of_one_mode_refuses_two(self):
        with pytest.raises(ValueError, match="^expected a single-mode state, got 2 modes$"):
            apply_attenuator_gaussian(two_mode_squeezed_cov(0.5), 0.5, 0.1)

    def test_phase_insensitive_params_floor(self):
        with pytest.raises(ValueError):
            PhaseInsensitiveParams(0.5, 0.1)  # below |1 - tau|
        with pytest.raises(ValueError):
            PhaseInsensitiveParams(-0.1, 1.0)
        PhaseInsensitiveParams(0.5, 0.5)

    def test_twisted_factor_ranges(self):
        with pytest.raises(ValueError):
            TwistedFactors(0.0, 2.0)
        with pytest.raises(ValueError):
            TwistedFactors(0.5, 0.9)

    NAN_CASES = {
        "thermal_state": (lambda: thermal_state(math.nan), "mean photon number n"),
        "attenuator-noise": (lambda: apply_attenuator_gaussian(thermal_state(0.0), 0.5, math.nan), "noise"),
        "amplifier-gain": (lambda: apply_amplifier_gaussian(thermal_state(0.0), math.nan, 0.1), "gain kappa"),
        "amplifier-noise": (lambda: apply_amplifier_gaussian(thermal_state(0.0), 2.0, math.nan), "noise"),
        "attenuator-params": (lambda: attenuator_as_phase_insensitive(0.5, math.nan), "noise"),
        "amplifier-params": (lambda: amplifier_as_phase_insensitive(math.nan, 0.1), "gain kappa"),
        "two_mode_squeezed_cov": (lambda: two_mode_squeezed_cov(math.nan), "noise"),
        "dilation-energy": (lambda: attenuator_dilation_output(math.nan, 0.5, 0.1), "mean photon number n"),
        "params-tau": (lambda: PhaseInsensitiveParams(math.nan, 1.0), "tau"),
        "params-y": (lambda: PhaseInsensitiveParams(0.5, math.nan), "noise y"),
        "factors-kappa": (lambda: TwistedFactors(0.5, math.nan), "kappa_prime"),
        # Infinite energies, which report() accepts as N = inf, fit in no covariance matrix.
        "thermal_state-inf": (lambda: thermal_state(math.inf), "mean photon number n"),
        "two_mode_squeezed_cov-inf": (lambda: two_mode_squeezed_cov(math.inf), "noise"),
        "attenuator-noise-inf": (lambda: apply_attenuator_gaussian(thermal_state(0.0), 0.5, math.inf), "noise"),
        "amplifier-noise-inf": (lambda: apply_amplifier_gaussian(thermal_state(0.0), 2.0, math.inf), "noise"),
        "amplifier-gain-inf": (lambda: apply_amplifier_gaussian(thermal_state(0.0), math.inf, 0.1), "gain kappa"),
        "extended-noise-inf": (lambda: coherent_information_gaussian(1.0, 0.9, math.inf, "extended"), "noise"),
        "dilation-energy-inf": (lambda: attenuator_dilation_output(math.inf, 0.5, 0.1), "mean photon number n"),
        "params-tau-inf": (lambda: PhaseInsensitiveParams(math.inf, math.inf), "tau"),
        "params-y-inf": (lambda: PhaseInsensitiveParams(0.5, math.inf), "noise y"),
        # Finite energies whose covariance entry 2x + 1 overflows, refused without a numpy warning.
        "thermal_state-overflow": (lambda: thermal_state(1e308), "mean photon number n"),
        "two_mode_squeezed_cov-overflow": (lambda: two_mode_squeezed_cov(1e308), "noise"),
        "dilation-energy-overflow": (lambda: attenuator_dilation_output(1e308, 0.5, 0.1), "mean photon number n"),
        "dilation-energy-stack-overflow": (
            lambda: attenuator_dilation_output(np.array([1.0, 1e308]), 0.5, 0.1), "mean photon number n"
        ),
        "extended-noise-overflow": (lambda: coherent_information_gaussian(1.0, 0.5, 1e308, "direct"), "noise"),
        "attenuator-noise-overflow": (
            lambda: apply_attenuator_gaussian(thermal_state(0.0), 0.5, np.float64(1e308)), "noise"
        ),
        # Finite noises whose (2N+1)^2, in the two-mode squeezed pair's off-diagonal entry, overflows.
        "two_mode_squeezed_cov-square-overflow": (lambda: two_mode_squeezed_cov(1e200), "noise"),
        "extended-noise-square-overflow": (lambda: coherent_information_gaussian(1.0, 0.5, 1e200, "extended"), "noise"),
        "dilation-noise-stack-square-overflow": (
            lambda: attenuator_dilation_output(1.0, 0.5, np.array([0.1, 1e200])), "noise"
        ),
        # The state type is the one validator of a covariance; the spectrum relies on it.
        "state-cov-nan": (lambda: GaussianState(np.zeros(2), [[math.nan, 0.0], [0.0, 1.0]]), "cov"),
        "state-cov-inf": (lambda: GaussianState(np.zeros(2), [[math.inf, 0.0], [0.0, 1.0]]), "cov"),
    }

    @pytest.mark.parametrize("case", list(NAN_CASES))
    def test_nan_is_rejected_naming_the_parameter(self, case):
        build, name = self.NAN_CASES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} must"):
                build()

    def test_the_largest_energy_with_a_finite_covariance_is_accepted(self):
        n = sys.float_info.max / 2.0  # 2n + 1 rounds to sys.float_info.max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert thermal_state(n).cov[0, 0] == sys.float_info.max
            assert apply_attenuator_gaussian(thermal_state(0.0), 0.0, n).cov[0, 0] == sys.float_info.max

    def test_the_largest_noise_with_a_finite_squared_2n_plus_1_is_accepted(self):
        noise = 6.703903964971298e153  # (2N+1)^2 is finite here and overflows at the next double
        over = math.nextafter(noise, math.inf)
        assert (2.0 * noise + 1.0) * (2.0 * noise + 1.0) < math.inf == (2.0 * over + 1.0) * (2.0 * over + 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cov = two_mode_squeezed_cov(noise).cov
            assert cov[0, 0] == 2.0 * noise + 1.0 and cov[0, 2] == math.sqrt(cov[0, 0] * cov[0, 0] - 1.0)
            assert attenuator_dilation_output(1.0, 0.5, noise).cov[5, 5] == cov[0, 0]
            for build in (two_mode_squeezed_cov, lambda x: attenuator_dilation_output(1.0, 0.5, x)):
                with pytest.raises(ValueError, match=r"^noise must have a finite \(2N\+1\)\^2"):
                    build(over)

    NAN = [[math.nan, 0.0], [0.0, 1.0]]
    ASYMMETRIC = [[1.0, 0.5], [0.2, 1.0]]
    UNPHYSICAL = (1.0 - 2e-6) * np.eye(2)  # symplectic eigenvalue below 1 - 1e-6

    @pytest.mark.parametrize(
        "members, message",
        [
            ((np.eye(2), NAN, ASYMMETRIC), r"^cov must be finite, got a non-finite entry at stack index \(1,\)$"),
            ((ASYMMETRIC, np.eye(2), NAN), r"^cov must be finite, got a non-finite entry at stack index \(2,\)$"),
            ((np.eye(2), np.eye(2), ASYMMETRIC), r"^cov is not symmetric within 1e-12 at stack index \(2,\)$"),
            ((np.eye(2), UNPHYSICAL, np.eye(2)), r"^unphysical covariance: .* at stack index \(1,\)$"),
        ],
        ids=["nan", "nan-after-asymmetric", "asymmetric", "unphysical"],
    )
    def test_a_stack_names_its_first_failing_member(self, members, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                symplectic_eigenvalues(GaussianState(np.zeros((3, 2)), np.array(members, dtype=float)))

    def test_a_stack_mean_names_its_first_failing_member(self):
        mean = np.zeros((2, 3, 2))
        mean[1, 2, 0] = math.inf
        with pytest.raises(ValueError, match=r"^mean must be finite, got a non-finite entry at stack index \(1, 2\)$"):
            GaussianState(mean, np.broadcast_to(np.eye(2), (2, 3, 2, 2)))

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["one-state", "stack"])
    def test_equality_is_identity(self, lead):
        # The generated __eq__ compared the array fields as a tuple, which
        # raised for any two distinct states with equal arrays.
        def make():
            return GaussianState(np.zeros(lead + (2,)), np.broadcast_to(np.eye(2), lead + (2, 2)))

        a, b = make(), make()
        assert a == a and not a == b and a != b


class TestGFunction:
    def test_anchors(self):
        assert g_function(0.0) == 0.0
        assert g_function(1.0) == pytest.approx(2.0, abs=1e-14)
        assert g_function(0.5) == pytest.approx(G_05, abs=1e-14)

    def test_rejects_negative_and_nan_naming_n(self):
        for n in (-0.1, math.nan):
            with pytest.raises(ValueError, match="number n must"):
                g_function(n)

    def test_infinite_energy_has_infinite_entropy(self):
        assert g_function(math.inf) == math.inf

    def test_matches_mpmath_over_thirty_decades(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            # 1e-310 is below n ~ 5.6e-309, where 1/n overflows and g takes
            # its -n log(n) tail; g(1e-310) is a normal double.
            for n in [*np.logspace(-15, 15, 301), 1e-310]:
                x = mpmath.mpf(float(n))
                want = (mpmath.log1p(x) + x * mpmath.log1p(1 / x)) / mpmath.log(2)
                assert g_function(float(n)) == pytest.approx(float(want), rel=1e-13, abs=0.0)

    def test_finite_at_the_ends_of_the_float_range(self):
        # Leading terms: g(n) ~ n (1 - ln n) / ln 2 as n -> 0 and
        # g(n) ~ (ln n + 1) / ln 2 as n -> inf.
        assert 0.0 < g_function(5e-324) < 1e-320  # smallest subnormal: 1/n overflows
        for n in (1e-300, 2.2250738585072014e-308):
            assert g_function(n) == pytest.approx(n * (1.0 - math.log(n)) / math.log(2.0), rel=1e-13)
        for n in (1e308, 1.7976931348623157e308):
            assert g_function(n) == pytest.approx((math.log(n) + 1.0) / math.log(2.0), rel=1e-15)


class TestChannelActions:
    def test_attenuator_identity(self):
        s = random_gaussian_state(np.random.default_rng(21))
        out = apply_attenuator_gaussian(s, 1.0, 0.7)
        assert np.abs(out.cov - s.cov).max() < 1e-15
        assert np.abs(out.mean - s.mean).max() < 1e-15

    def test_attenuator_full_replacement(self):
        s = random_gaussian_state(np.random.default_rng(22))
        out = apply_attenuator_gaussian(s, 0.0, 0.3)
        assert np.abs(out.mean).max() == 0.0
        assert np.abs(out.cov - 1.6 * np.eye(2)).max() < 1e-15

    def test_attenuator_direct_values(self):
        s = GaussianState([1.0, 0.0], np.eye(2))
        out = apply_attenuator_gaussian(s, 0.64, 0.5)
        assert np.abs(out.mean - [0.8, 0.0]).max() < 1e-15
        assert np.abs(out.cov - 1.36 * np.eye(2)).max() < 1e-15

    def test_amplifier_values(self):
        vac = thermal_state(0.0)
        out = apply_amplifier_gaussian(vac, 2.0, 0.0)
        assert np.abs(out.cov - 3.0 * np.eye(2)).max() < 1e-15
        s = GaussianState([1.0, 1.0], np.eye(2))
        out = apply_amplifier_gaussian(s, 4.0, 0.0)
        assert np.abs(out.mean - [2.0, 2.0]).max() < 1e-15
        assert np.abs(out.cov - 7.0 * np.eye(2)).max() < 1e-15

    def test_amplifier_rejects_gain_below_one(self):
        with pytest.raises(ValueError):
            apply_amplifier_gaussian(thermal_state(0.0), 0.9, 0.0)

    def test_identity_params(self):
        s = random_gaussian_state(np.random.default_rng(24))
        out = apply_phase_insensitive(s, PhaseInsensitiveParams(1.0, 0.0))
        assert np.abs(out.cov - s.cov).max() == 0.0

class TestPurification:
    def test_vacuum_case(self):
        assert np.array_equal(two_mode_squeezed_cov(0.0).cov, np.eye(4))

    def test_off_diagonal_magnitudes(self):
        assert two_mode_squeezed_cov(0.5).cov[0, 2] == pytest.approx(math.sqrt(3), abs=1e-15)
        assert two_mode_squeezed_cov(1.0).cov[0, 2] == pytest.approx(math.sqrt(8), abs=1e-15)
        assert two_mode_squeezed_cov(0.5).cov[1, 3] == pytest.approx(-math.sqrt(3), abs=1e-15)

    def test_marginals_are_thermal(self):
        for noise in (0.0, 0.2, 1.0, 4.0):
            tms = two_mode_squeezed_cov(noise)
            for mode in (0, 1):
                marg = mode_marginal(tms, (mode,))
                assert np.abs(marg.cov - (2 * noise + 1) * np.eye(2)).max() < 1e-12

    def test_marginal_rejects_bad_mode_indices(self):
        tms = two_mode_squeezed_cov(0.3)
        for modes in ((2,), (-1,), (0, 0), (1, 0, 1), (0.5,), (1.0,)):
            with pytest.raises(ValueError, match="^mode index"):
                mode_marginal(tms, modes)

    def test_marginal_of_no_mode_names_the_modes(self):
        with pytest.raises(ValueError, match="^modes must name at least one mode"):
            mode_marginal(two_mode_squeezed_cov(0.3), ())


def _block_tms_cov(noise):
    nu = 2.0 * noise + 1.0
    c = math.sqrt(nu * nu - 1.0)
    sz = np.diag([1.0, -1.0])
    return np.block([[nu * np.eye(2), c * sz], [c * sz, nu * np.eye(2)]])


def _block_dilation_cov(n, eta, noise):
    v_in = np.zeros((6, 6))
    v_in[:2, :2] = thermal_state(n).cov
    v_in[2:, 2:] = _block_tms_cov(noise)
    i2, z2 = np.eye(2), np.zeros((2, 2))
    r, t = math.sqrt(eta), math.sqrt(1.0 - eta)
    s_bs = np.block([[r * i2, t * i2, z2], [-t * i2, r * i2, z2], [z2, z2, i2]])
    v_out = s_bs @ v_in @ s_bs.T
    return (v_out + v_out.T) / 2.0


class TestCovarianceBytes:
    """The covariances give the bytes of their np.block constructions, on
    seeded points led by every edge n in {0, 1/2}, eta in {0, 1/2, 1} and
    N in {0, 1/2}."""

    def test_two_mode_squeezed_cov(self):
        rng = np.random.default_rng(42)
        for noise in [0.0, 0.5] + rng.uniform(0.0, 5.0, size=500).tolist():
            assert two_mode_squeezed_cov(noise).cov.tobytes() == _block_tms_cov(noise).tobytes(), noise

    def test_attenuator_dilation_output(self):
        rng = np.random.default_rng(43)
        edges = [(n, e, x) for n in (0.0, 0.5) for e in (0.0, 0.5, 1.0) for x in (0.0, 0.5)]
        draws = zip(rng.uniform(0, 20, 500), rng.uniform(0, 1, 500), rng.uniform(0, 2, 500))
        for n, eta, noise in edges + [tuple(map(float, d)) for d in draws]:
            out = attenuator_dilation_output(n, eta, noise)
            assert out.cov.tobytes() == _block_dilation_cov(n, eta, noise).tobytes(), (n, eta, noise)
            assert out.mean.tobytes() == np.zeros(6).tobytes()


def _state(cov):
    cov = np.asarray(cov, dtype=float)
    return GaussianState(np.zeros(cov.shape[:-1]), cov)


class TestSymplecticSpectrum:
    def test_vacuum(self):
        assert np.array_equal(symplectic_eigenvalues(_state(np.eye(4))), [1.0, 1.0])

    def test_thermal(self):
        nus = symplectic_eigenvalues(thermal_state(1.0))
        assert np.abs(nus - [3.0]).max() < 1e-12

    def test_matches_hermitian_oracle(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            a = random_gaussian_state(rng)
            b = random_gaussian_state(rng)
            v = np.zeros((4, 4))
            v[:2, :2] = a.cov
            v[2:, 2:] = b.cov
            got = symplectic_eigenvalues(_state(v))
            want = symplectic_oracle(v)
            assert np.abs(got - want).max() < 1e-9

    def test_dilation_output_matches_oracle(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            out = attenuator_dilation_output(rng.uniform(0, 20), rng.uniform(0, 1), rng.uniform(0, 2))
            got = symplectic_eigenvalues(out)
            want = symplectic_oracle(out.cov)
            assert np.abs(got - want).max() < 1e-8

    def test_rejects_unphysical(self):
        with pytest.raises(InvalidStateError):
            symplectic_eigenvalues(_state(0.5 * np.eye(2)))

    def test_an_overflowing_square_names_cov_without_a_warning(self):
        # Entries above about 1e154 make (Omega V)^2 overflow; numpy then warns
        # and eigvals raises its own LinAlgError.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidStateError, match="^cov must"):
                coherent_information_gaussian(1e160, 0.7, 0.3, "extended")
            with pytest.raises(InvalidStateError, match=r"^cov must.*at stack index \(1,\)$"):
                symplectic_eigenvalues(_state(np.array([np.eye(2), 1e160 * np.eye(2), np.eye(2)])))

    def test_clips_near_one(self):
        v = (1.0 - 1e-10) * np.eye(2)
        assert symplectic_eigenvalues(_state(v))[0] == 1.0
        # Every value from 1 - 1e-6 up to 1 is returned as 1, so no entropy
        # term sees a spectrum below 1.
        near = _state((1.0 - 1e-7) * np.eye(2))
        assert symplectic_eigenvalues(near).tolist() == [1.0]
        assert gaussian_entropy(near) == 0.0
        with pytest.raises(InvalidStateError):
            symplectic_eigenvalues(_state((1.0 - 2e-6) * np.eye(2)))


class TestEntropy:
    def test_vacuum_zero(self):
        assert gaussian_entropy(thermal_state(0.0)) == 0.0

    def test_thermal_values(self):
        assert gaussian_entropy(thermal_state(1.0)) == pytest.approx(2.0, abs=1e-12)
        assert gaussian_entropy(thermal_state(0.1)) == pytest.approx(G_01, abs=1e-12)

    def test_additive_over_product(self):
        v = np.zeros((4, 4))
        v[:2, :2] = 3.0 * np.eye(2)
        v[2:, 2:] = 5.0 * np.eye(2)
        s = _state(v)
        assert gaussian_entropy(s) == pytest.approx(g_function(1.0) + g_function(2.0), abs=1e-12)

    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_each_state_is_the_fsum_of_its_terms_alone_or_in_a_stack(self, modes):
        # Direct sums of thermal modes: for three, 18 of these 100 states have
        # a left-to-right sum of their terms that is not the correctly rounded one.
        n = np.random.default_rng(0).uniform(0.0, 5.0, (100, modes))
        cov = np.zeros((100, 2 * modes, 2 * modes))
        diagonal = np.arange(2 * modes)
        cov[:, diagonal, diagonal] = np.repeat(2.0 * n + 1.0, 2, axis=1)
        states = [_state(v) for v in cov]
        terms = [[g_function(x) for x in ((symplectic_eigenvalues(s) - 1.0) / 2.0).tolist()] for s in states]
        alone = [gaussian_entropy(s) for s in states]
        assert all(type(x) is np.float64 for x in alone)
        assert [repr(float(x)) for x in alone] == [repr(math.fsum(t)) for t in terms]
        _repr_equal(gaussian_entropy(_state(cov)), alone)
        if modes == 3:
            assert sum(math.fsum(t) != (t[0] + t[1]) + t[2] for t in terms) == 18


class TestExtendedChannel:
    def test_no_interaction_marginals(self):
        out = attenuator_dilation_output(2.0, 1.0, 0.3)
        be, f = mode_marginal(out, (0, 2)), mode_marginal(out, (1,))
        assert np.abs(be.cov[:2, :2] - 5.0 * np.eye(2)).max() < 1e-12
        assert np.abs(be.cov[2:, 2:] - 1.6 * np.eye(2)).max() < 1e-12
        assert np.abs(be.cov[:2, 2:]).max() < 1e-12
        assert np.abs(f.cov - 1.6 * np.eye(2)).max() < 1e-12

    def test_pure_environment_leaves_ancilla_vacuum(self):
        be = mode_marginal(attenuator_dilation_output(2.0, 0.6, 0.0), (0, 2))
        assert np.abs(be.cov[2:, 2:] - np.eye(2)).max() < 1e-12
        assert np.abs(be.cov[:2, 2:]).max() < 1e-12

    def test_all_vacuum_input(self):
        out = attenuator_dilation_output(0.0, 0.5, 0.0)
        be, f = mode_marginal(out, (0, 2)), mode_marginal(out, (1,))
        assert np.abs(be.cov - np.eye(4)).max() < 1e-12
        assert np.abs(f.cov - np.eye(2)).max() < 1e-12

    def test_balanced_splitter_is_positive_off_the_zero_slices(self):
        # The zero slices (n = 0 or N = 0) are gaussian/balanced-splitter-zero-slices.
        assert coherent_information_gaussian(5.0, 0.5, 0.3, "extended") > 0.5

    @pytest.mark.parametrize("variant", ["direct", "extended"])
    def test_pure_environment_reduces_to_entropy_difference(self, variant):
        # At N = 0 the ancilla E' is vacuum and uncorrelated, so both
        # variants are S(B) - S(F) = g(eta n) - g((1 - eta) n).
        rng = np.random.default_rng(29)
        for _ in range(25):
            n, eta = rng.uniform(0, 50), rng.uniform(0, 1)
            got = coherent_information_gaussian(n, eta, 0.0, variant)
            want = g_function(eta * n) - g_function((1 - eta) * n)
            assert got == pytest.approx(want, abs=1e-9)

class TestEntanglementBreaking:
    def test_boundary_counts_as_breaking(self):
        assert is_entanglement_breaking(PhaseInsensitiveParams(1.0, 2.0))

    def test_attenuator_reduction(self):
        assert not is_entanglement_breaking(attenuator_as_phase_insensitive(0.9, 0.1))
        assert is_entanglement_breaking(attenuator_as_phase_insensitive(0.4, 1.0))
        # N >= eta/(1-eta) is exactly the breaking condition
        rng = np.random.default_rng(31)
        for _ in range(200):
            eta = rng.uniform(0.05, 0.95)
            noise = rng.uniform(0, 3)
            want = entanglement_breaking(eta, noise)
            assert is_entanglement_breaking(attenuator_as_phase_insensitive(eta, noise)) == want


class TestTwistedDecomposition:
    def test_attenuator_factors(self):
        factors = twisted_decompose(attenuator_as_phase_insensitive(0.9, 0.1))
        assert factors.eta_prime == pytest.approx(0.89, abs=1e-12)
        assert factors.kappa_prime == pytest.approx(1.0112359550561798, abs=1e-12)

    def test_quantum_limited_attenuator_is_fixed_point(self):
        factors = twisted_decompose(PhaseInsensitiveParams(0.7, 0.3))
        assert factors.eta_prime == pytest.approx(0.7, abs=1e-15)
        assert factors.kappa_prime == 1.0

    def test_additive_noise_channel(self):
        factors = twisted_decompose(PhaseInsensitiveParams(1.0, 0.5))
        assert factors.eta_prime == pytest.approx(0.75, abs=1e-15)
        assert factors.kappa_prime == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_rejects_entanglement_breaking(self):
        with pytest.raises(ValueError):
            twisted_decompose(PhaseInsensitiveParams(1.0, 2.0))
        with pytest.raises(ValueError):
            twisted_decompose(attenuator_as_phase_insensitive(0.4, 1.0))


def _repr_equal(stack, points):
    """Each member of a stack of scalar results has the bits of its point's result."""
    assert np.shape(stack) == np.shape(points)
    assert [repr(float(x)) for x in np.ravel(stack)] == [repr(float(x)) for x in np.ravel(points)]


def _states_equal(stack: GaussianState, points):
    assert np.array_equal(stack.mean, np.array([s.mean for s in points]).reshape(stack.mean.shape))
    assert np.array_equal(stack.cov, np.array([s.cov for s in points]).reshape(stack.cov.shape))


def _stack_draws():
    rng = np.random.default_rng(44)
    edges = [(n, e, x) for n in (0.0, 2.0) for e in (0.0, 0.3, 1.0) for x in (0.0, 0.7)]
    draws = zip(rng.uniform(0, 50, 88), rng.uniform(0, 1, 88), rng.uniform(0, 2, 88))
    return edges + [tuple(map(float, d)) for d in draws], [random_gaussian_state(rng) for _ in range(100)]


class TestStacksMatchPoints:
    """Every broadcasting function gives each member of a stack the bits of
    its one-point call, on seeded draws led by the edges n = 0, eta in
    {0, 1} and N = 0."""

    POINTS, STATES = _stack_draws()
    N, ETA, NOISE = (np.array(col).reshape(4, 25) for col in zip(*POINTS))  # two leading axes
    MODES = [(0,), (1,), (2,), (0, 2), (2, 0), (1, 2), (0, 1, 2)]

    def _outputs(self):
        stack = attenuator_dilation_output(self.N, self.ETA, self.NOISE)
        return stack, [attenuator_dilation_output(*p) for p in self.POINTS]

    def _states(self, shape=(100,)):
        means, covs = np.array([s.mean for s in self.STATES]), np.array([s.cov for s in self.STATES])
        return GaussianState(means.reshape(shape + (2,)), covs.reshape(shape + (2, 2)))

    def test_gaussian_state(self):
        _states_equal(self._states((4, 25)), self.STATES)

    def test_attenuator_dilation_output(self):
        stack, points = self._outputs()
        assert stack.cov.shape == (4, 25, 6, 6)
        _states_equal(stack, points)

    def test_two_mode_squeezed_cov(self):
        want = [two_mode_squeezed_cov(x) for x in self.NOISE.ravel().tolist()]
        _states_equal(two_mode_squeezed_cov(self.NOISE), want)

    def test_dilation_broadcasts_scalars_against_arrays(self):
        stack = attenuator_dilation_output(self.N[0], 0.3, 0.7)
        _states_equal(stack, [attenuator_dilation_output(n, 0.3, 0.7) for n in self.N[0].tolist()])

    @pytest.mark.parametrize("modes", MODES)
    def test_mode_marginal(self, modes):
        stack, points = self._outputs()
        _states_equal(mode_marginal(stack, modes), [mode_marginal(p, modes) for p in points])

    @pytest.mark.parametrize("modes", MODES)
    def test_symplectic_eigenvalues_and_entropy(self, modes):
        stack, points = self._outputs()
        marginals = mode_marginal(stack, modes)
        want = np.array([symplectic_eigenvalues(mode_marginal(p, modes)) for p in points])
        assert np.array_equal(symplectic_eigenvalues(marginals), want.reshape(4, 25, len(modes)))
        want = np.array([gaussian_entropy(mode_marginal(p, modes)) for p in points])
        _repr_equal(gaussian_entropy(marginals), want.reshape(4, 25))

    def test_symplectic_eigenvalues_of_random_states(self):
        stack = self._states()
        want = np.array([symplectic_eigenvalues(s) for s in self.STATES])
        assert np.array_equal(symplectic_eigenvalues(stack), want)
        _repr_equal(gaussian_entropy(stack), [gaussian_entropy(s) for s in self.STATES])

    @pytest.mark.parametrize("variant", ["direct", "extended"])
    def test_coherent_information_gaussian(self, variant):
        got = coherent_information_gaussian(self.N, self.ETA, self.NOISE, variant)
        want = np.array([coherent_information_gaussian(*p, variant) for p in self.POINTS]).reshape(4, 25)
        _repr_equal(got, want)

    def test_phase_insensitive_channels(self):
        stack = self._states()
        eta, noise = self.ETA.ravel(), self.NOISE.ravel()
        kappa = 1.0 + 3.0 * eta
        tau, y = kappa, kappa + 0.5 * noise
        cases = [
            (apply_attenuator_gaussian(stack, eta, noise),
             [apply_attenuator_gaussian(s, e, x) for s, e, x in zip(self.STATES, eta.tolist(), noise.tolist())]),
            (apply_amplifier_gaussian(stack, kappa, noise),
             [apply_amplifier_gaussian(s, k, x) for s, k, x in zip(self.STATES, kappa.tolist(), noise.tolist())]),
            (apply_phase_insensitive(stack, PhaseInsensitiveParams(tau, y)),
             [apply_phase_insensitive(s, PhaseInsensitiveParams(t, v))
              for s, t, v in zip(self.STATES, tau.tolist(), y.tolist())]),
            # A stack of states through one channel, and one state through a stack of channels.
            (apply_attenuator_gaussian(stack, 0.3, 0.7), [apply_attenuator_gaussian(s, 0.3, 0.7) for s in self.STATES]),
            (apply_attenuator_gaussian(self.STATES[0], eta, noise),
             [apply_attenuator_gaussian(self.STATES[0], e, x) for e, x in zip(eta.tolist(), noise.tolist())]),
        ]
        for got, want in cases:
            _states_equal(got, want)

    def test_an_empty_stack_gives_empty_results(self):
        empty = np.zeros(0)
        assert coherent_information_gaussian(empty, 0.5, 0.1, "direct").shape == (0,)
        assert symplectic_eigenvalues(attenuator_dilation_output(empty, 0.5, 0.1)).shape == (0, 3)

    def test_a_stack_of_channels_checks_each_point(self):
        with pytest.raises(ValueError, match="^eta must"):
            apply_attenuator_gaussian(thermal_state(1.0), np.array([0.5, 1.5]), 0.1)
        with pytest.raises(ValueError, match="^gain kappa must"):
            apply_amplifier_gaussian(thermal_state(1.0), np.array([2.0, 0.5]), 0.1)
        with pytest.raises(ValueError, match="^noise y must"):
            PhaseInsensitiveParams(np.array([0.5, 0.5]), np.array([0.5, 0.1]))
        with pytest.raises(ValueError, match="^mean photon number n must"):
            attenuator_dilation_output(np.array([1.0, -1.0]), 0.5, 0.1)
        with pytest.raises(ValueError, match="^noise must be finite"):
            coherent_information_gaussian(1.0, 0.5, np.array([0.1, math.inf]), "direct")
        with pytest.raises(ValueError, match="^params must be one channel"):
            twisted_decompose(PhaseInsensitiveParams(np.array([0.9, 0.8]), np.array([0.3, 0.4])))
