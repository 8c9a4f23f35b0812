import math

import numpy as np
import pytest

from tabounds import bounds
from tabounds.optimize import maximize_scalar
from tabounds.qubit import QubitAttenuatorParams, QubitState, coherent_information_qubit

# 50-digit evaluations of the closed forms (mpmath, dps=50).
LOWER_09_01 = 2.6864783158286477
EXT_09_01 = 3.653371687055977
TWIST_09_01 = 3.0163018123291005
PLOB_09_01 = 2.8536817186182027
SWAT_09_01 = 3.0324214776923775
GAP_09_01 = 0.16720340278955498
TWIST_07_01 = 1.021695071099319
PLOB_07_01 = 1.3049762258355174
PLOB_08_00 = 2.3219280948873623
EXT_08_02 = 2.7800269059780251
G_01 = 0.48344668561366463


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

    def test_strict_gap_at_finite_noise(self):
        lo = bounds.qubit_lower(0.9, 0.1)
        hi = bounds.qubit_upper_extended(0.9, 0.1)
        assert hi > lo + 1e-3

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bounds.qubit_lower(1.2, 0.1)
        with pytest.raises(ValueError):
            bounds.qubit_upper_extended(0.9, 0.7)

    def test_diagonal_inputs_are_optimal(self):
        # 2-D audit over (p, |gamma|) never beats the gamma = 0 line.
        for eta, noise in ((0.8, 0.1), (0.95, 0.3), (0.6, 0.05)):
            audit = bounds.qubit_lower_audit_2d(eta, noise)
            assert audit <= bounds.qubit_lower(eta, noise) + 1e-9

    def test_maximizer_matches_dense_grid_oracle(self):
        eta, noise = 0.9, 0.01
        params = QubitAttenuatorParams(eta, noise)
        res = maximize_scalar(
            lambda p: coherent_information_qubit(QubitState(p), params, "extended"),
            0.0,
            1.0,
            tol=1e-9,
        )
        assert 0.0 < res.argmax < 1.0

        ps = np.linspace(0.0, 1.0, 1_000_001)
        rates = extended_rate_closed_form(ps, eta, noise)
        assert abs(res.value - rates.max()) < 1e-7

        # Cross-check the oracle's quadratic eigenvalues against LAPACK on a
        # subsample of the same closed-form matrices.
        from tabounds.qubit import extended_output_closed_form

        for p in ps[:: 200_000]:
            m = extended_output_closed_form(QubitState(float(p)), params)
            w = np.clip(np.linalg.eigvalsh(m).real, 1e-300, None)
            s4 = float(-(w * np.log2(w)).sum())
            mu = np.array([1 - p * (1 - eta) - noise * eta, p * (1 - eta) + noise * eta])
            s2 = float(-(mu * np.log2(mu)).sum())
            assert abs((s4 - s2) - extended_rate_closed_form(float(p), eta, noise)) < 1e-10


class TestGaussianClosedForms:
    def test_lower(self):
        assert bounds.gauss_lower(0.8, 0.0) == pytest.approx(2.0, abs=1e-12)
        assert bounds.gauss_lower(0.5, 0.7) == 0.0
        assert bounds.gauss_lower(0.9, 0.1) == pytest.approx(LOWER_09_01, abs=1e-12)
        assert bounds.gauss_lower(1.0, 0.3) == math.inf

    def test_extended(self):
        assert bounds.gauss_upper_extended(0.7, 0.0) == pytest.approx(
            bounds.gauss_lower(0.7, 0.0), abs=1e-12
        )
        assert bounds.gauss_upper_extended(0.9, 0.1) == pytest.approx(EXT_09_01, abs=1e-12)
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
        assert bounds.gauss_upper_twist(0.9, 0.1) == pytest.approx(TWIST_09_01, abs=1e-12)
        assert bounds.gauss_upper_twist(0.4, 1.0) == 0.0  # entanglement-breaking

    def test_plob(self):
        assert bounds.gauss_upper_plob(0.8, 0.0) == pytest.approx(PLOB_08_00, abs=1e-12)
        assert bounds.gauss_upper_plob(0.9, 0.1) == pytest.approx(PLOB_09_01, abs=1e-12)
        assert bounds.gauss_upper_plob(0.7, 0.1) == pytest.approx(PLOB_07_01, abs=1e-12)

    def test_swat(self):
        assert bounds.gauss_upper_swat(0.8, 0.0) == pytest.approx(2.0, abs=1e-12)
        assert bounds.gauss_upper_swat(0.9, 0.1) == pytest.approx(SWAT_09_01, abs=1e-12)
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
                exact = float(max(0, mpmath.log((e - n * (1 - e)) / ((1 + n) * (1 - e)), 2)))
            tw = bounds.gauss_upper_twist(eta, noise)
            assert abs(tw - exact) <= 1e-12 * max(1.0, exact), (eta, noise, tw, exact)
            assert tw <= bounds.gauss_upper_swat(eta, noise) * (1.0 + 1e-12), (eta, noise)
            assert tw <= bounds.gauss_upper_extended(eta, noise), (eta, noise)


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


class TestReport:
    def test_gaussian_report_best_upper_is_plob(self):
        r = bounds.report("gaussian", 0.9, 0.1)
        assert set(r.uppers) == {"extended", "twist", "plob", "swat"}
        assert r.best_upper == pytest.approx(PLOB_09_01, abs=1e-12)
        assert r.gap == pytest.approx(GAP_09_01, abs=1e-12)
        assert r.lower <= r.best_upper

    def test_gaussian_report_best_upper_is_twist(self):
        r = bounds.report("gaussian", 0.7, 0.1)
        assert r.best_upper == pytest.approx(TWIST_07_01, abs=1e-12)
        assert r.uppers["twist"] < r.uppers["plob"]

    def test_zero_noise_gap_vanishes(self):
        for eta in (0.6, 0.8, 0.95):
            r = bounds.report("gaussian", eta, 0.0)
            assert r.gap == pytest.approx(0.0, abs=1e-12)

    def test_entanglement_breaking_reports_all_zero(self):
        r = bounds.report("gaussian", 0.4, 1.0)
        assert r.lower == 0.0 and r.best_upper == 0.0 and r.gap == 0.0
        assert all(v == 0.0 for v in r.uppers.values())

    def test_eta_one_is_infinite_with_zero_gap(self):
        r = bounds.report("gaussian", 1.0, 0.4)
        assert r.lower == math.inf and r.best_upper == math.inf
        assert all(v == math.inf for v in r.uppers.values())
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
