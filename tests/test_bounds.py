import math
import random
import re

import numpy as np
import pytest

from support import BOSONIC_BOUNDS, G_01, PLOB_07_01, TWIST_07_01, mp_amplitude_damping_capacity, mp_bosonic_bounds
from tabounds import bounds, cli, gaussian, qubit, verify
from tabounds.bounds import QubitAttenuatorParams
from tabounds.optimize import maximize_scalar
from tabounds.qubit import QubitState, coherent_information_qubit

# The five bounds at (0.9, 0.1); test_acceptance pins them against mpmath.
ANCHORS_09_01 = verify.GAUSS_ANCHORS_09_01
# 50-digit evaluations of the closed forms (mpmath, dps=50).
GAP_09_01 = 0.16720340278955498
PLOB_08_00 = 2.3219280948873623
EXT_08_02 = 2.7800269059780251


def mp_coherent_information_diagonal(p, eta, noise, variant):
    """The diagonal-input coherent information in 50-digit mpmath, each 2x2
    block's eigenvalues from the quadratic formula."""
    import mpmath

    def h(*xs):
        return -sum(x * mpmath.log(x, 2) for x in xs if x > 0)

    def block(x, z, off):
        mid, rad = (x + z) / 2, mpmath.sqrt(((x - z) / 2) ** 2 + off**2)
        return mid + rad, mid - rad

    with mpmath.workdps(50):
        p, e, b = mpmath.mpf(p), mpmath.mpf(eta), mpmath.mpf(noise)
        a, q, u = 1 - b, 1 - p, 1 - e
        if variant == "direct":
            pb = e * p + u * b
            fe = block(a * (1 - p * u), b * (1 - q * u), mpmath.sqrt(a * b * e))
            return float(h(1 - pb, pb) - h(*fe, b * u * q, a * u * p))
        pf = u * p + e * b
        be = block(a * (1 - p * e), b * (1 - e * q), (2 * p - 1) * mpmath.sqrt(a * b * u))
        return float(h(*be, b * e * q, a * e * p) - h(1 - pf, pf))


def edge_weighted_draws(count, seed):
    """Seeded (p, eta, N_gauss, N_qubit) tuples plus every corner, each
    coordinate drawn uniformly, log-uniformly toward 0, or toward its top
    end: eta in [1e-300, 1 - 1e-16], N_gauss in [1e-300, 1e15], N_qubit in
    [1e-300, 1/2 - 1e-16], and p within 1e-16 of 0 and of 1."""
    rng = np.random.default_rng(seed)

    def pick(*samplers):
        return float(samplers[rng.integers(len(samplers))]())

    half = math.log10(0.5)
    corners = [
        (p, eta, n_g, n_q)
        for p in (1e-16, 1.0 - 1e-16)
        for eta in (1e-300, 1.0 - 1e-16)
        for n_g, n_q in ((1e-300, 1e-300), (1e15, 0.5 - 1e-16))
    ]
    draws = [
        (
            pick(lambda: rng.uniform(0, 1), lambda: 10 ** rng.uniform(-16, 0), lambda: 1 - 10 ** rng.uniform(-16, 0)),
            pick(lambda: rng.uniform(0, 1), lambda: 10 ** rng.uniform(-300, 0), lambda: 1 - 10 ** rng.uniform(-16, 0)),
            pick(lambda: rng.uniform(0, 5), lambda: 10 ** rng.uniform(-300, 0), lambda: 10 ** rng.uniform(0, 15)),
            pick(lambda: rng.uniform(0, 0.5), lambda: 10 ** rng.uniform(-300, half), lambda: 0.5 - 10 ** rng.uniform(-16, half)),
        )
        for _ in range(count)
    ]
    return corners + draws


DOMAIN_DRAWS = edge_weighted_draws(2000, seed=1)


def extended_rate_closed_form(p, eta, noise):
    """Vectorized extended-channel rate at gamma = 0, via the explicit output
    matrices and quadratic-formula eigenvalues (independent of the dilation
    and eigensolver code paths)."""
    p = np.asarray(p, dtype=float)
    a, b = 1.0 - noise, noise
    lam2 = b * eta * (1.0 - p)
    lam3 = a * eta * p
    x = a * (1.0 - p * eta)
    z = b * (1.0 - eta * (1.0 - p))
    off = (2.0 * p - 1.0) * math.sqrt(a * b * (1.0 - eta))
    half = np.sqrt(0.25 * (x - z) ** 2 + off**2)
    lam_plus = 0.5 * (x + z) + half
    lam_minus = 0.5 * (x + z) - half

    mu1 = 1.0 - p * (1.0 - eta) - b * eta
    mu2 = p * (1.0 - eta) + b * eta

    def h(*vals):
        total = np.zeros_like(p)
        for v in vals:
            v = np.clip(v, 0.0, None)
            total -= np.where(v > 0.0, v * np.log2(np.maximum(v, 1e-300)), 0.0)
        return total

    return h(lam_plus, lam_minus, lam2, lam3) - h(mu1, mu2)


def qubit_lower_audit_2d(eta, noise):
    """Slow audit of the diagonal-input restriction: maximize the direct
    coherent information from the dilation over a 21 x 9 (p, |gamma|) grid
    instead of gamma = 0."""
    params = QubitAttenuatorParams(eta, noise)
    best = -math.inf
    for i in range(21):
        p = i / 20
        r_max = math.sqrt(p * (1.0 - p))
        for j in range(9):
            best = max(best, coherent_information_qubit(QubitState(p, r_max * j / 8), params, "direct"))
    return max(0.0, best)


class TestQubitBounds:
    def test_zero_below_half_transmissivity(self):
        for noise in (0.0, 0.1, 0.5):
            assert bounds.qubit_lower(0.5, noise) == 0.0
            assert bounds.qubit_upper_extended(0.5, noise) == 0.0
            assert bounds.qubit_lower(0.3, noise) == 0.0

    @pytest.mark.parametrize("noise", [0.0, 0.2, 0.5])
    def test_identity_channel_is_pinned_to_one_qubit(self, noise):
        assert bounds.qubit_lower(1.0, noise) == bounds.qubit_upper_extended(1.0, noise) == 1.0
        r = bounds.report("qubit", 1.0, noise)
        assert (r.lower, r.best_upper, r.gap) == (1.0, 1.0, 0.0)

    def test_short_circuit_anchors_match_mpmath(self):
        # verify's bounds/qubit-short-circuit-anchors holds both bounds to these values.
        pytest.importorskip("mpmath")
        anchors = verify.QUBIT_SHORT_CIRCUIT_ANCHORS
        assert anchors == {(0.5, 0.01): 0.0, (0.51, 0.0): mp_amplitude_damping_capacity(0.51)}
        for eta in (0.6, 0.9, 0.99):
            want = mp_amplitude_damping_capacity(eta)
            assert abs(bounds.qubit_lower(eta, 0.0) - want) < 1e-13
            assert abs(bounds.qubit_upper_extended(eta, 0.0) - want) < 1e-13

    def test_strict_gap_at_finite_noise(self):
        lo = bounds.qubit_lower(0.9, 0.1)
        hi = bounds.qubit_upper_extended(0.9, 0.1)
        assert hi > lo + 1e-3

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bounds.qubit_lower(1.2, 0.1)
        with pytest.raises(ValueError):
            bounds.qubit_upper_extended(0.9, 0.7)

    def test_report_builds_one_objective_per_maximization(self, monkeypatch):
        built, evaluations = [], []
        make, maximize = bounds.diagonal_objective, bounds.maximize_unimodal

        def counting_objective(c, variant):
            built.append((c, variant))
            return make(c, variant)

        def counting_maximize(*args):
            res = maximize(*args)
            evaluations.append(res.evaluations)
            return res

        monkeypatch.setattr(bounds, "diagonal_objective", counting_objective)
        monkeypatch.setattr(bounds, "maximize_unimodal", counting_maximize)
        bounds.report("qubit", 0.9, 0.1)
        c = QubitAttenuatorParams(0.9, 0.1)
        assert built == [(c, "direct"), (c, "extended")]
        assert evaluations == [51, 51]
        # At N = 0 the two objectives are one function, so one maximization serves both bounds.
        built.clear()
        evaluations.clear()
        r = bounds.report("qubit", 0.9, 0.0)
        assert built == [(QubitAttenuatorParams(0.9, 0.0), "direct")]
        assert evaluations == [51]
        assert r.lower == r.uppers["extended"] == r.best_upper and repr(r.gap) == "0.0"

    @pytest.mark.parametrize("noise", [0.0, -0.0])
    def test_direct_and_extended_are_one_function_at_zero_noise(self, noise):
        # report() reuses the lower bound as the extended bound at N = 0 on this identity.
        ps = [k / 128 for k in range(129)] + [0.0, 5e-324, math.nextafter(1.0, 0.0), 1.0]
        for eta in (math.nextafter(0.5, 1.0), 0.51, 0.75, 0.9, math.nextafter(1.0, 0.0)):
            c = QubitAttenuatorParams(eta, noise)
            direct, extended = bounds.diagonal_objective(c, "direct"), bounds.diagonal_objective(c, "extended")
            golden = []  # the abscissae of a maximization, its golden-section points among them
            bounds.maximize_unimodal(lambda p: golden.append(p) or direct(p))
            assert len(golden) > 40
            for p in ps + golden:
                assert repr(direct(p)) == repr(extended(p)), (eta, noise, p)

    def test_diagonal_inputs_are_optimal(self):
        # 2-D audit over (p, |gamma|) never beats the gamma = 0 line.
        for eta, noise in ((0.8, 0.1), (0.95, 0.3), (0.6, 0.05)):
            audit = qubit_lower_audit_2d(eta, noise)
            assert audit <= bounds.qubit_lower(eta, noise) + 1e-9

    @pytest.mark.parametrize("variant", ["direct", "extended"])
    def test_diagonal_closed_form_matches_mpmath_over_the_domain(self, variant):
        pytest.importorskip("mpmath")
        for p, eta, _, noise in DOMAIN_DRAWS:
            got = bounds.coherent_information_diagonal(p, QubitAttenuatorParams(eta, noise), variant)
            want = mp_coherent_information_diagonal(p, eta, noise, variant)
            assert abs(got - want) <= 1e-13, (p, eta, noise, got, want)

    def test_maximizer_matches_dense_grid_oracle(self):
        eta, noise = 0.9, 0.01
        params = QubitAttenuatorParams(eta, noise)
        res = maximize_scalar(lambda p: coherent_information_qubit(QubitState(p), params, "extended"))
        assert 0.0 < res.argmax < 1.0

        ps = np.linspace(0.0, 1.0, 1_000_001)
        rates = extended_rate_closed_form(ps, eta, noise)
        assert abs(res.value - rates.max()) < 1e-7

        # Cross-check the oracle's quadratic eigenvalues against LAPACK on a
        # subsample of the same closed-form matrices.
        from tabounds.qubit import QubitStack

        for p in ps[:: 200_000]:
            m = QubitStack([float(p)], [0.0], [eta], [noise]).extended_output_closed_form()[0]
            w = np.clip(np.linalg.eigvalsh(m).real, 1e-300, None)
            s4 = float(-(w * np.log2(w)).sum())
            mu = np.array([1 - p * (1 - eta) - noise * eta, p * (1 - eta) + noise * eta])
            s2 = float(-(mu * np.log2(mu)).sum())
            assert abs((s4 - s2) - extended_rate_closed_form(float(p), eta, noise)) < 1e-10


class TestGaussianClosedForms:
    def test_lower(self):
        assert bounds.gauss_lower(0.8, 0.0) == pytest.approx(2.0, abs=1e-12)
        assert bounds.gauss_lower(0.5, 0.7) == 0.0
        assert bounds.gauss_lower(0.9, 0.1) == pytest.approx(ANCHORS_09_01["lower"], abs=1e-12)
        assert bounds.gauss_lower(1.0, 0.3) == math.inf

    def test_extended(self):
        assert bounds.gauss_upper_extended(0.7, 0.0) == pytest.approx(
            bounds.gauss_lower(0.7, 0.0), abs=1e-12
        )
        assert bounds.gauss_upper_extended(0.9, 0.1) == pytest.approx(ANCHORS_09_01["extended"], abs=1e-12)
        assert bounds.gauss_upper_extended(0.8, 0.2) == pytest.approx(EXT_08_02, abs=1e-12)

    def test_extended_exceeds_lower_by_twice_thermal_entropy(self):
        for eta in (0.75, 0.9, 0.99):
            lo = bounds.gauss_lower(eta, 0.1)
            hi = bounds.gauss_upper_extended(eta, 0.1)
            if lo > 0.0:
                assert hi - lo == pytest.approx(2.0 * G_01, abs=1e-12)

    def test_twist(self):
        assert bounds.gauss_upper_twist(0.8, 0.0) == pytest.approx(
            bounds.gauss_lower(0.8, 0.0), abs=1e-12
        )
        assert bounds.gauss_upper_twist(0.9, 0.1) == pytest.approx(ANCHORS_09_01["twist"], abs=1e-12)
        assert bounds.gauss_upper_twist(0.4, 1.0) == 0.0  # entanglement-breaking

    def test_plob(self):
        assert bounds.gauss_upper_plob(0.8, 0.0) == pytest.approx(PLOB_08_00, abs=1e-12)
        assert bounds.gauss_upper_plob(0.9, 0.1) == pytest.approx(ANCHORS_09_01["plob"], abs=1e-12)
        assert bounds.gauss_upper_plob(0.7, 0.1) == pytest.approx(PLOB_07_01, abs=1e-12)

    def test_plob_near_its_zero(self):
        # plob touches zero at x = (1-eta)(1+N) = 1, as (1-x)^2 (1 + 1/N) / (2 ln 2).
        # Seeded points with 1e-2 <= |1-x| <= 10^-0.5, so values from about
        # 7e-5, over 1 - eta from 1e-15 to 1/2: N is set from the double
        # 1 - eta, so the inputs keep the drawn 1 - x.
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(4)
        for _ in range(400):
            eta = 1.0 - 10 ** float(rng.uniform(-15, math.log10(0.5)))
            one_minus_x = float(rng.choice((-1.0, 1.0))) * 10 ** float(rng.uniform(-2, -0.5))
            noise = (1.0 - one_minus_x) / (1.0 - eta) - 1.0
            if not noise > 0.0:
                continue
            exact = mp_bosonic_bounds(eta, noise)["gauss_upper_plob"]
            got = bounds.gauss_upper_plob(eta, noise)
            assert abs(got - exact) <= 1e-12 * exact, (eta, noise, got, exact)

    def test_plob_guard_anchor_matches_mpmath(self):
        # verify's bounds/gaussian-closed-form-anchors holds gauss_upper_plob to this value.
        pytest.importorskip("mpmath")
        want = mp_bosonic_bounds(7.6e-296, 2.7e-3)["gauss_upper_plob"]
        assert verify.GAUSS_ANCHORS_PLOB_GUARD == {"plob": want}
        assert abs(bounds.gauss_upper_plob(7.6e-296, 2.7e-3) - want) < 1e-15

    @pytest.mark.parametrize("eta,noise", [(0.3, 5e-324), (0.3, 1e-310), (0.45, 1e-320), (0.5, 5e-324)])
    def test_plob_at_subnormal_noise(self, eta, noise):
        # x = (1-eta)(1+N) lies in [1/2, 1), but (1-x)/N overflows to inf.
        pytest.importorskip("mpmath")
        exact = mp_bosonic_bounds(eta, noise)["gauss_upper_plob"]
        assert bounds.gauss_upper_plob(eta, noise) == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_swat(self):
        assert bounds.gauss_upper_swat(0.8, 0.0) == pytest.approx(2.0, abs=1e-12)
        assert bounds.gauss_upper_swat(0.9, 0.1) == pytest.approx(ANCHORS_09_01["swat"], abs=1e-12)
        assert bounds.gauss_upper_swat(0.5, 1.7) == 0.0

    @pytest.mark.parametrize("eta", [1.0 - 10.0**-k for k in range(1, 16)] + [1.0 - 2.0**-53])
    def test_twist_near_unit_transmissivity(self, eta):
        # 50-digit twist bound at the exact doubles, below the breaking threshold.
        mpmath = pytest.importorskip("mpmath")
        for noise in (0.0, 1e-6, 0.3, 5.0, 1e3):
            with mpmath.workdps(50):
                e, n = mpmath.mpf(eta), mpmath.mpf(noise)
                if n >= e / (1 - e):
                    continue
            exact = mp_bosonic_bounds(eta, noise)["gauss_upper_twist"]
            tw = bounds.gauss_upper_twist(eta, noise)
            assert abs(tw - exact) <= 1e-12 * max(1.0, exact), (eta, noise, tw, exact)
            assert tw <= bounds.gauss_upper_swat(eta, noise) * (1.0 + 1e-12), (eta, noise)
            assert tw <= bounds.gauss_upper_extended(eta, noise), (eta, noise)

    def test_match_mpmath_over_the_domain(self):
        pytest.importorskip("mpmath")
        for _, eta, noise, _ in DOMAIN_DRAWS:
            want = mp_bosonic_bounds(eta, noise)
            for name in BOSONIC_BOUNDS:
                got = getattr(bounds, name)(eta, noise)
                assert abs(got - want[name]) <= 1e-13 * max(1.0, want[name]), (name, eta, noise, got, want[name])


class TestGaussianEdgeInputs:
    # Infinite noise: each formula's limit (the extended and plob bounds grow
    # without limit in N, the rest vanish).
    @pytest.mark.parametrize("name,want", [
        ("gauss_lower", 0.0), ("gauss_upper_extended", math.inf), ("gauss_upper_twist", 0.0),
        ("gauss_upper_plob", math.inf), ("gauss_upper_swat", 0.0),
    ])
    def test_infinite_noise_and_nan(self, name, want):
        fn = getattr(bounds, name)
        assert fn(0.9, math.inf) == want
        with pytest.raises(ValueError, match="^eta "):
            fn(math.nan, 0.1)
        with pytest.raises(ValueError, match="^noise "):
            fn(0.9, math.nan)

    # At eta = 0 each bound is 0, but plob, which is +inf for N > 0; at
    # eta = 1 each is pinned at +inf, for every N.
    EDGE_NOISES = (0.0, 0.4, math.inf)
    AT_ETA_ZERO = {
        "gauss_lower": (0.0, 0.0, 0.0),
        "gauss_upper_extended": (0.0, 0.0, 0.0),
        "gauss_upper_twist": (0.0, 0.0, 0.0),
        "gauss_upper_plob": (0.0, math.inf, math.inf),
        "gauss_upper_swat": (0.0, 0.0, 0.0),
    }

    @pytest.mark.parametrize("name", BOSONIC_BOUNDS)
    def test_values_at_eta_zero_and_one(self, name):
        fn = getattr(bounds, name)
        assert tuple(fn(0.0, n) for n in self.EDGE_NOISES) == self.AT_ETA_ZERO[name]
        assert tuple(fn(1.0, n) for n in self.EDGE_NOISES) == (math.inf,) * 3


# Each oracle-layer helper and the owner of the domain rule it must apply,
# as functions of the one parameter varied, with that parameter's bad values.
OWNED_DOMAINS = {
    "purified_environment": (
        qubit.purified_environment, lambda x: QubitAttenuatorParams(1.0, x), (-0.1, 0.7)),
    "beamsplitter_unitary": (
        qubit.beamsplitter_unitary, lambda x: QubitAttenuatorParams(x, 0.0), (-0.1, 1.2)),
    "attenuator_as_phase_insensitive-eta": (
        lambda x: gaussian.attenuator_as_phase_insensitive(x, 0.1),
        lambda x: bounds.validate("gaussian", x, 0.1), (-0.1, 1.2)),
    "attenuator_as_phase_insensitive-noise": (
        lambda x: gaussian.attenuator_as_phase_insensitive(0.9, x),
        lambda x: bounds.validate("gaussian", 0.9, x), (-0.1,)),
    "attenuator_dilation_output-eta": (
        lambda x: gaussian.attenuator_dilation_output(1.0, x, 0.1),
        lambda x: bounds.validate("gaussian", x, 0.1), (-0.1, 1.2)),
    "attenuator_dilation_output-noise": (
        lambda x: gaussian.attenuator_dilation_output(1.0, 0.9, x),
        lambda x: bounds.validate("gaussian", 0.9, x), (-0.1,)),
    "amplifier_as_phase_insensitive": (
        lambda x: gaussian.amplifier_as_phase_insensitive(1.5, x),
        lambda x: bounds.validate("gaussian", 1.0, x), (-0.1,)),
    "two_mode_squeezed_cov": (
        gaussian.two_mode_squeezed_cov, lambda x: bounds.validate("gaussian", 1.0, x), (-0.1,)),
}


@pytest.mark.parametrize("case,bad", [
    (case, bad) for case, (_, _, bads) in OWNED_DOMAINS.items() for bad in (*bads, math.nan)
])
def test_oracle_helpers_raise_the_domain_owners_message(case, bad):
    helper, owner, _ = OWNED_DOMAINS[case]
    with pytest.raises(ValueError) as want:
        owner(bad)
    with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
        helper(bad)


class TestReport:
    def test_gaussian_report_best_upper_is_plob(self):
        r = bounds.report("gaussian", 0.9, 0.1)
        assert set(r.uppers) == {"extended", "twist", "plob", "swat"}
        assert r.best_upper == pytest.approx(ANCHORS_09_01["plob"], abs=1e-12)
        assert r.gap == pytest.approx(GAP_09_01, abs=1e-12)
        assert r.lower <= r.best_upper

    def test_gaussian_report_matches_the_public_functions_bit_for_bit(self):
        # Each gauss_* function reads its field of the evaluation report()
        # runs; off the entanglement-breaking regime, which report() pins,
        # both must give the same floats.
        edges = [(5e-324, 0.0), (math.nextafter(1.0, 0.0), 1e-310), (0.5, math.nextafter(1.0, 0.0))]
        draws = [(eta, noise) for _, eta, noise, _ in DOMAIN_DRAWS]
        points = [p for p in edges + draws if not bounds.entanglement_breaking(*p)]
        assert len(points) > 900
        for eta, noise in points:
            r = bounds.report("gaussian", eta, noise)
            assert repr(r.lower) == repr(bounds.gauss_lower(eta, noise)), (eta, noise)
            for name, value in r.uppers.items():
                assert repr(value) == repr(getattr(bounds, f"gauss_upper_{name}")(eta, noise)), (name, eta, noise)

    def test_gaussian_report_best_upper_is_twist(self):
        r = bounds.report("gaussian", 0.7, 0.1)
        assert r.best_upper == pytest.approx(TWIST_07_01, abs=1e-12)
        assert r.uppers["twist"] < r.uppers["plob"]

    def test_zero_noise_gap_vanishes(self):
        for eta in (0.6, 0.8, 0.95):
            r = bounds.report("gaussian", eta, 0.0)
            assert r.gap == pytest.approx(0.0, abs=1e-12)

    def test_entanglement_breaking_reports_all_zero(self):
        # (0.5, 1.0) is on the boundary N = eta/(1-eta), which breaks
        # entanglement, though the extended formula alone gives 2.0 there.
        for eta, noise in ((0.4, 1.0), (0.5, 1.0)):
            r = bounds.report("gaussian", eta, noise)
            assert r.lower == 0.0 and r.best_upper == 0.0 and r.gap == 0.0
            assert r.uppers == dict.fromkeys(("extended", "twist", "plob", "swat"), 0.0)

    def test_eta_one_is_infinite_with_zero_gap(self):
        for noise in (0.4, math.inf):
            r = bounds.report("gaussian", 1.0, noise)
            assert r.lower == math.inf and r.best_upper == math.inf
            assert r.uppers == dict.fromkeys(("extended", "twist", "plob", "swat"), math.inf)
            assert r.gap == 0.0

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            bounds.report("qutrit", 0.9, 0.1)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            bounds.report("gaussian", 1.3, 0.1)
        with pytest.raises(ValueError):
            bounds.report("gaussian", 0.9, -0.1)
        with pytest.raises(ValueError):
            bounds.report("qubit", 0.9, 0.8)

    @pytest.mark.parametrize("kind", ["gaussian", "qubit"])
    @pytest.mark.parametrize("fn", [bounds.report, bounds.validate])
    def test_rejects_nan_naming_the_parameter(self, fn, kind):
        with pytest.raises(ValueError, match="^noise "):
            fn(kind, 0.9, math.nan)
        with pytest.raises(ValueError, match="^eta "):
            fn(kind, math.nan, 0.1)

    def test_validate_domain(self):
        bounds.validate("gaussian", 0.0, math.inf)
        bounds.validate("qubit", 1.0, 0.5)
        with pytest.raises(ValueError, match="^noise .* qubit"):
            bounds.validate("qubit", 0.9, math.inf)
        with pytest.raises(ValueError, match="^channel_kind "):
            bounds.validate("qutrit", 0.9, 0.1)

    def test_infinite_gaussian_noise_is_entanglement_breaking(self):
        r = bounds.report("gaussian", 0.9, math.inf)
        assert (r.lower, r.best_upper, r.gap) == (0.0, 0.0, 0.0)
        assert set(r.uppers.values()) == {0.0}

    @staticmethod
    def _entry_point(name, eta, noise, p):
        """The public scalar entry point ``name`` at (eta, noise), and at p where it takes one."""
        if name == "report":
            return [bounds.report(kind, eta, noise) for kind in ("qubit", "gaussian")]
        if name == "coherent_information_diagonal":
            c = QubitAttenuatorParams(eta, noise)
            return [bounds.coherent_information_diagonal(p, c, v) for v in ("direct", "extended")]
        if name == "g_function":
            return [bounds.g_function(x) for x in (eta, noise, p)]
        if name == "QubitState":  # the dilation oracle's state, its coherence of p's type
            s, c = QubitState(p, p * 0.25j if p < 1 else 0j), QubitAttenuatorParams(eta, noise)
            actions = [s, qubit.apply_attenuator(s, c), qubit.phase_damping(s, 0.5)]
            return actions + [coherent_information_qubit(s, c, v) for v in ("direct", "extended")]
        return getattr(bounds, name)(eta, noise)

    @pytest.mark.parametrize(
        "name",
        [
            "report", "gauss_lower", "gauss_upper_extended", "gauss_upper_twist", "gauss_upper_plob",
            "gauss_upper_swat", "qubit_lower", "qubit_upper_extended", "coherent_information_diagonal",
            "g_function", "QubitState",
        ],
    )
    @pytest.mark.parametrize(
        "to,point",
        [(np.float32, (0.9, 0.1, 0.3)), (np.float16, (0.9, 0.1, 0.3)), (int, (1, 0, 1)), (int, (0, 0, 0))],
        ids=["float32", "float16", "int-one", "int-zero"],
    )
    def test_a_numpy_scalar_or_int_is_computed_as_its_float(self, name, to, point):
        args = [to(x) for x in point]
        assert repr(self._entry_point(name, *args)) == repr(self._entry_point(name, *map(float, args)))

    @pytest.mark.parametrize("kind", ["gaussian", "qubit"])
    def test_a_string_is_still_a_type_error(self, kind):
        for eta, noise in (("0.9", 0.1), (0.9, "0.1")):
            with pytest.raises(TypeError):
                bounds.report(kind, eta, noise)
        with pytest.raises(TypeError):
            QubitAttenuatorParams("0.9", 0.1)
        with pytest.raises(TypeError):
            QubitState("0.3")
        with pytest.raises(TypeError):
            QubitState(0.3, "0.1")
        with pytest.raises(TypeError):
            bounds.g_function("0.1")

    def test_qubit_report_clamps_a_negative_gap(self, monkeypatch):
        # The qubit bounds never cross at a valid point, so only stand-ins reach the clamp.
        monkeypatch.setattr(bounds, "qubit_lower", lambda eta, noise: 0.9)
        monkeypatch.setattr(bounds, "qubit_upper_extended", lambda eta, noise: 0.5)
        r = bounds.report("qubit", 0.9, 0.1)
        assert r.gap == 0.0 and repr(r.gap) == "0.0"
        assert r.best_upper == r.uppers["extended"] == 0.5
        assert list(r.uppers) == ["extended"]


class TestBoundsReport:
    REPORT = bounds.BoundsReport("gaussian", 0.9, 0.1, 1.5, {"extended": 3.0, "plob": 2.0}, 2.0, 0.5)

    @pytest.mark.parametrize("name", [*bounds.BoundsReport._fields, "extra"])
    def test_no_field_can_be_set(self, name):
        with pytest.raises(AttributeError):
            setattr(self.REPORT, name, 0.0)
        with pytest.raises(AttributeError):
            setattr(bounds.report("qubit", 0.9, 0.1), name, 0.0)

    def test_fields_are_in_repr_and_json_order(self):
        fields = bounds.BoundsReport._fields
        assert fields == ("channel_kind", "eta", "noise", "lower", "uppers", "best_upper", "gap")
        for r in (self.REPORT, bounds.report("gaussian", 0.9, 0.1), bounds.report("qubit", 0.9, 0.1)):
            assert tuple(re.findall(r"(\w+)=", repr(r))) == fields
            d = cli._report_dict(r)
            assert list(d) == ["kind", *fields[1:]]  # the one renamed key
            assert tuple(d.values()) == tuple(r)


def _gaussian_edge_axes():
    etas = [0.0, 5e-324, 0.5, math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0), 1.0]
    noises = [0.0, 5e-324, 1e-310, 1e300, math.inf]
    for eta in etas[:-1]:  # N one ulp on each side of the entanglement-breaking line
        line = eta / (1.0 - eta)
        noises += [n for n in (math.nextafter(line, 0.0), line, math.nextafter(line, math.inf)) if n >= 0.0]
    return etas, noises


def _breaking_line_axes():
    """Etas around the breaking line and an unsorted noise axis holding each
    row's float threshold eta/(1-eta) and both of its neighbours: 0.8's is
    4.000000000000001, so N = 4.0 is open, and 0.9's is 9.000000000000002."""
    etas = [0.0, 5e-324, 0.5, 0.6, 0.75, 0.8, 0.9, math.nextafter(1.0, 0.0), 1.0]
    noises = [0.0, 5e-324, math.inf]
    for eta in etas[:-1]:
        line = bounds._breaking_noise(eta)
        noises += [math.nextafter(line, 0.0), line, math.nextafter(line, math.inf)]
    random.Random(27).shuffle(noises)
    return etas, noises


def _all_zero(r):
    return (r.lower, r.uppers, r.best_upper, r.gap) == (0.0, dict.fromkeys(r.uppers, 0.0), 0.0, 0.0)


def _seeded_axes(seed, count, noise_range):
    rng = random.Random(seed)
    etas = [rng.random() for _ in range(count)]
    noises = [rng.uniform(*noise_range) for _ in range(count)]
    return etas, noises


def _first_report_error(kind, etas, noises):
    """report()'s message at the first failing point of etas x noises, in row-major order."""
    for eta in etas:
        for noise in noises:
            try:
                bounds.report(kind, eta, noise)
            except ValueError as exc:
                return str(exc)
    raise AssertionError("no point fails")


class TestReports:
    @pytest.mark.parametrize(
        "kind,etas,noises",
        [
            ("gaussian", *_gaussian_edge_axes()),
            ("gaussian", *_seeded_axes(23, 40, (0.0, 5.0))),
            ("gaussian", [0.5, 0.75, 0.9, 1.0], [10.0 ** random.Random(24).uniform(-320.0, 300.0) for _ in range(40)]),
            ("gaussian", *_breaking_line_axes()),
            ("qubit", [0.0, 5e-324, 0.5, math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0), 1.0],
             [0.0, 5e-324, 1e-310, 0.25, math.nextafter(0.5, 0.0), 0.5]),
            ("qubit", *_seeded_axes(25, 6, (0.0, 0.5))),
        ],
        ids=["gaussian-edges", "gaussian-seeded", "gaussian-log-noise", "gaussian-breaking-line", "qubit-edges",
             "qubit-seeded"],
    )
    def test_each_report_is_report_bit_for_bit(self, kind, etas, noises):
        got = [repr(r) for r in bounds.reports(kind, etas, noises)]
        assert got == [repr(bounds.report(kind, eta, noise)) for eta in etas for noise in noises]

    def test_the_pinned_points_of_an_unsorted_axis_are_the_breaking_points(self):
        etas, noises = _breaking_line_axes()
        zero = [(r.eta, r.noise) for r in bounds.reports("gaussian", etas, noises) if _all_zero(r)]
        breaking = [(eta, noise) for eta in etas for noise in noises if bounds.entanglement_breaking(eta, noise)]
        # The one open all-zero point: at eta = 5e-324 and N = 0 every formula gives 0
        # (the threshold is 5e-324 there); noise 0.0 is on the axis four times.
        open_zero = [(5e-324, 0.0)] * 4
        assert len(zero) == len(breaking) + len(open_zero)
        assert sorted(zero) == sorted(breaking + open_zero)

    def test_each_report_owns_its_uppers(self):
        # The 0.5 row breaks entanglement at N >= 1, so its last four points are
        # pinned at 0 in a run; the eta = 1 row is pinned at +inf throughout.
        etas, noises = [0.5, 1.0], [0.0, 0.5, 1.0, 2.0, 3.0, math.inf]
        want = [repr(r) for r in bounds.reports("gaussian", etas, noises)]
        for i in range(len(want)):
            got = list(bounds.reports("gaussian", etas, noises))
            got[i].uppers["plob"] = -1.0
            assert [repr(r) for j, r in enumerate(got) if j != i] == want[:i] + want[i + 1:]
            assert [repr(r) for r in bounds.reports("gaussian", etas, noises)] == want
            assert repr(bounds.report("gaussian", got[i].eta, got[i].noise)) == want[i]
        # report() pins each point itself, at eta = 1 and at breaking points,
        # and builds a fresh dict for each: mutating one leaves the next
        # report() and the gauss_* values at that point as they were.
        for eta, noise in ((1.0, 0.5), (1.0, math.inf), (0.5, 2.0), (0.9, math.inf)):
            want = repr(bounds.report("gaussian", eta, noise))
            gauss = [repr(getattr(bounds, name)(eta, noise)) for name in BOSONIC_BOUNDS]
            mutated = bounds.report("gaussian", eta, noise)
            mutated.uppers["plob"] = -1.0
            assert repr(bounds.report("gaussian", eta, noise)) == want, (eta, noise)
            assert [repr(getattr(bounds, name)(eta, noise)) for name in BOSONIC_BOUNDS] == gauss, (eta, noise)

    def test_one_owner_of_the_breaking_threshold(self, monkeypatch):
        etas, noises = [0.6, 0.75, 0.9], [k / 2 for k in range(21)]

        def pinned():
            """The pinned points by entanglement_breaking, report() and reports()."""
            points = [(eta, noise) for eta in etas for noise in noises]
            return (
                [p for p in points if bounds.entanglement_breaking(*p)],
                [p for p in points if _all_zero(bounds.report("gaussian", *p))],
                [(r.eta, r.noise) for r in bounds.reports("gaussian", etas, noises) if _all_zero(r)],
            )

        before = pinned()
        assert before[0] == before[1] == before[2]
        threshold = bounds._breaking_noise
        monkeypatch.setattr(bounds, "_breaking_noise", lambda eta: threshold(eta) / 2.0)
        after = pinned()
        assert after[0] == after[1] == after[2]
        assert set(after[0]) > set(before[0])

    def test_gaussian_terms_are_taken_once_per_axis_value(self, monkeypatch):
        calls = []
        for name in ("_eta_terms", "_noise_terms"):
            fn = getattr(bounds, name)
            monkeypatch.setattr(bounds, name, lambda x, fn=fn, name=name: calls.append((name, x)) or fn(x))
        etas, noises = [0.6, 1.0, 0.9], [0.0, 0.5, math.inf]
        assert len(list(bounds.reports("gaussian", etas, noises))) == 9
        # eta = 1 is pinned, so it gets no terms, as in report() at either pinned regime.
        assert calls == [("_eta_terms", 0.6), ("_eta_terms", 0.9), *(("_noise_terms", n) for n in noises)]
        calls.clear()
        bounds.report("gaussian", 1.0, 0.5)
        bounds.report("gaussian", 0.5, 1.0)
        assert calls == []

    @pytest.mark.parametrize(
        "kind,etas,noises",
        [
            ("gaussian", [0.9, math.nan], [0.1, 0.2]),
            ("gaussian", [math.nan, 0.9], [-1.0]),
            ("gaussian", [0.9, 1.5], [0.1, -0.5]),
            ("gaussian", [0.5, 0.7], [0.1, math.nan, -1.0]),
            ("gaussian", [1.0, -1e-300], [math.inf, 0.0]),
            ("qubit", [0.9], [0.2, 0.7]),
            ("qubit", [0.6, math.nextafter(1.0, 2.0)], [0.1]),
            ("qutrit", [0.9], [0.1]),
        ],
    )
    def test_a_bad_axis_value_raises_reports_first_message(self, kind, etas, noises):
        want = _first_report_error(kind, etas, noises)
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            list(bounds.reports(kind, etas, noises))

    @pytest.mark.parametrize("kind", ["gaussian", "qubit"])
    def test_an_empty_axis_yields_no_report(self, kind):
        for etas, noises in (([], [0.1]), ([0.9], []), ([math.nan], []), ([], [-1.0])):
            assert list(bounds.reports(kind, etas, noises)) == []
