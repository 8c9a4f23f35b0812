"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected number is pinned to an independent oracle: high-precision
(50-digit) evaluations of the closed forms, explicit output matrices for the
dilation routes, and brute-force grid scans for the optimizer.  The checks
themselves are the registered ``verify`` checks; runtime budgets are asserted
alongside their numerical tolerances.
"""

import time

import pytest

from support import mp_bosonic_bounds
from tabounds import bounds, cli, verify


def _report(num, label, elapsed, budget):
    print(f"[criterion {num:2d}] PASS {label} ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget


def _checks(*names):
    """Run registered checks, assert each passed, return their worst values."""
    results = [verify.CHECKS[name]() for name in names]
    for r in results:
        assert r.passed, f"{r.name}: worst {r.worst:.3e} > tol {r.tolerance:g} {r.detail}"
    return [r.worst for r in results]


def test_01_dilation_marginals_match_closed_forms():
    start = time.perf_counter()
    (worst,) = _checks("qubit/closed-form-marginals")
    _report(1, f"1000 dilation marginals match closed forms (worst {worst:.2e})",
            time.perf_counter() - start, 5.0)


def test_02_qubit_gap_closes_at_zero_noise():
    start = time.perf_counter()
    (worst,) = _checks("bounds/zero-noise-gap-closure")
    _report(2, f"zero-noise qubit bounds coincide (worst gap {worst:.2e})",
            time.perf_counter() - start, 10.0)


def test_03_gaussian_closed_form_values():
    start = time.perf_counter()
    oracle = dict(zip(verify.GAUSS_ANCHORS_09_01, mp_bosonic_bounds(0.9, 0.1).values()))
    # The check compares the bounds against these anchors.
    assert verify.GAUSS_ANCHORS_09_01 == pytest.approx(oracle, abs=1e-15)
    (worst,) = _checks("bounds/gaussian-closed-form-anchors")
    _report(3, f"five closed-form bounds at (0.9, 0.1) match 50-digit oracle (worst {worst:.2e})",
            time.perf_counter() - start, 1.0)


def test_04_twist_dominates_extended_and_swat():
    start = time.perf_counter()
    (worst,) = _checks("bounds/twist-dominance-grid")
    _report(4, f"twist <= extended and twist <= swat on the grid (worst excess {worst:.2e})",
            time.perf_counter() - start, 1.0)


def test_05_crossover_direction_with_plob():
    start = time.perf_counter()
    _checks("bounds/plob-twist-crossover")
    _report(5, "twist beats plob at eta=0.7 and loses at eta=0.9 (N=0.1)",
            time.perf_counter() - start, 1.0)


def test_06_extended_channel_convergence_oracle():
    start = time.perf_counter()
    _, dev = _checks("gaussian/energy-monotonicity", "gaussian/energy-limit-agreement")
    _report(6, f"finite-energy rates rise to the closed form (|dev| {dev:.2e})",
            time.perf_counter() - start, 1.0)


def test_07_sign_identity_via_dilation_entropies():
    start = time.perf_counter()
    (worst,) = _checks("gaussian/extended-sign-identity")
    _report(7, f"extended rate cancels the complement-transmissivity rate (worst {worst:.2e})",
            time.perf_counter() - start, 2.0)


def test_08_twisted_decomposition_reconstruction():
    start = time.perf_counter()
    (worst,) = _checks("gaussian/twisted-reconstruction")
    _report(8, f"amplifier-then-attenuator rebuilds 100 random channels (worst {worst:.2e})",
            time.perf_counter() - start, 1.0)


def test_09_weak_degradability_identities():
    start = time.perf_counter()
    worst_qubit, worst_gauss = _checks("qubit/weak-degradability", "gaussian/weak-degradability")
    _report(9, f"degrading maps reach the weak complement (qubit {worst_qubit:.2e}, gaussian {worst_gauss:.2e})",
            time.perf_counter() - start, 2.0)


def test_10_figure_sweeps_qualitative(tmp_path):
    start = time.perf_counter()

    def read_csv(path):
        lines = path.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        return header, rows

    # Every bound column of the figure sweeps is nondecreasing in eta.
    _checks("bounds/eta-monotonicity-sweeps")

    # Gap grid over (eta, noise): identically zero on the zero-capacity region.
    grid_path = tmp_path / "gap_grid.csv"
    code = cli.main(
        ["sweep", "gaussian", "--sweep", "eta=0.5:0.99:0.01", "--sweep", "noise=0:5:0.1",
         "--out", str(grid_path)]
    )
    assert code == 0
    header, rows = read_csv(grid_path)
    assert header == ["eta", "noise", "gap"]
    checked = 0
    for eta, noise, gap in rows:
        if eta <= 0.5 or bounds.entanglement_breaking(eta, noise):
            assert gap == 0.0
            checked += 1
    assert checked > 100
    _report(10, f"figure sweeps monotone in eta; gap grid zero on {checked} zero-capacity points",
            time.perf_counter() - start, 30.0)
