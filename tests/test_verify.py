"""Every registered property check runs as its own test; the registry's own
rules are tested on fake checks."""

import math

import numpy as np
import pytest

from tabounds import bounds, verify


@pytest.mark.parametrize("name", list(verify.CHECKS))
def test_registered_check(name):
    r = verify.CHECKS[name]()
    assert r.name == name
    assert r.passed, f"worst {r.worst:.3e} > tol {r.tolerance:g} {r.detail}"


@pytest.mark.parametrize("suite", ["linalg", "qubit", "gaussian"])
def test_a_check_gives_the_same_result_alone_or_in_its_suite(suite):
    alone = [verify.CHECKS[name]() for name in verify.CHECKS if name.startswith(f"{suite}/")]
    assert verify.run_suite(suite) == alone


@pytest.fixture
def fake_registry(monkeypatch):
    """Register checks into an empty copy of the registry for one test."""
    monkeypatch.setattr(verify, "CHECKS", {})
    return verify._register


def test_a_check_of_only_nans_fails_at_the_first(fake_registry):
    @fake_registry("fake/nan-only", 1e-12)
    def _():
        yield math.nan, "first"
        yield math.nan, "second"

    r = verify.CHECKS["fake/nan-only"]()
    assert not r.passed
    assert math.isnan(r.worst) and r.detail == "first"


def test_a_nan_after_a_finite_deviation_becomes_the_worst(fake_registry):
    @fake_registry("fake/nan-after-finite", 1e-12)
    def _():
        yield 1e-15, "finite"
        yield math.nan, "nan"
        yield 1.0, "larger"

    r = verify.CHECKS["fake/nan-after-finite"]()
    assert not r.passed
    assert math.isnan(r.worst) and r.detail == "nan"


def test_the_registry_seeds_a_drawing_check_with_its_position(fake_registry):
    drawn = []

    @fake_registry("fake/first", 1.0)
    def _(rng):
        drawn.append(rng.uniform(size=3).tolist())
        yield 0.0

    @fake_registry("fake/second", 1.0)
    def _(rng):
        drawn.append(rng.uniform(size=3).tolist())
        yield 0.0

    @fake_registry("fake/no-draws", 1.0)
    def _():
        yield 0.0

    for _ in range(2):  # each run draws from a fresh generator
        assert all(run().passed for run in verify.CHECKS.values())
    want = [np.random.default_rng(seed).uniform(size=3).tolist() for seed in (1, 2)]
    assert drawn == want + want


def test_timings_are_kept_out_of_the_results():
    timings = {}
    timed = verify.run_suite("linalg", timings)
    assert list(timings) == [r.name for r in timed]
    assert all(t >= 0.0 for t in timings.values())
    assert verify.run_suite("linalg") == timed


@pytest.mark.parametrize(
    "devs",
    [[1e-15, 3e-16, 1e-15], [0.5, math.nan, 1.0, math.nan], [0.0, 0.0], [-3.0, -1.0, -1.0, -2.0]],
    ids=["tie", "nans", "zeros", "negative"],
)
def test_a_stack_keeps_what_the_registry_keeps_of_its_draws(fake_registry, devs):
    where = [f"draw {i}" for i in range(len(devs))]

    @fake_registry("fake/one-by-one", 1e-12, floor=-math.inf)
    def _():
        yield from zip(devs, where)

    @fake_registry("fake/stacked", 1e-12, floor=-math.inf)
    def _():
        yield np.array(devs), where.__getitem__

    one, stacked = verify.CHECKS["fake/one-by-one"](), verify.CHECKS["fake/stacked"]()
    assert repr(stacked.worst) == repr(one.worst) and stacked.detail == one.detail


@pytest.mark.parametrize(
    "name",
    [
        "linalg/partial-trace-composition",
        "linalg/entropy-unitary-invariance",
        "linalg/eigenvalue-sum-to-one",
        "linalg/eigenvalues-vs-quadratic-roots",
        "qubit/dilation-marginal-consistency",
        "qubit/closed-form-marginals",
        "qubit/weak-degradability",
        "qubit/phase-flip-symmetry",
        "qubit/zero-noise-variant-agreement",
        "qubit/diagonal-closed-form-vs-dilation",
        "qubit/coherent-inputs-below-diagonal-max",
        "gaussian/extended-sign-identity",
        "gaussian/twisted-reconstruction",
    ],
)
def test_a_check_gives_the_same_result_in_any_stack_size(monkeypatch, name):
    whole = verify.CHECKS[name]()
    monkeypatch.setattr(verify, "_CHUNK", 7)
    assert verify.CHECKS[name]() == whole


def test_a_failing_closed_form_anchor_is_named(monkeypatch):
    monkeypatch.setitem(verify.GAUSS_ANCHORS_09_01, "twist", verify.GAUSS_ANCHORS_09_01["twist"] + 1e-6)
    r = verify.CHECKS["bounds/gaussian-closed-form-anchors"]()
    assert not r.passed
    assert r.detail == "twist eta=0.9 N=0.1"


@pytest.mark.parametrize("name", list(verify.GAUSS_ANCHORS_09_01))
def test_the_closed_form_anchors_check_the_evaluator_of_report(monkeypatch, name):
    # Shift one field of the gaussian report() evaluates at (0.9, 0.1): the
    # anchors, which call the public gauss_* functions, must see it.
    evaluate = bounds._gaussian_open

    def shifted(eta, *rest):
        r = evaluate(eta, *rest)
        if eta != 0.9:  # the plob guard point stays put, so only one deviation is large
            return r
        if name == "lower":
            return r._replace(lower=r.lower + 1e-6)
        return r._replace(uppers={**r.uppers, name: r.uppers[name] + 1e-6})

    monkeypatch.setattr(bounds, "_gaussian_open", shifted)
    r = verify.CHECKS["bounds/gaussian-closed-form-anchors"]()
    assert not r.passed
    assert r.detail == f"{name} eta=0.9 N=0.1"


# A stack of draws takes its random numbers from one generator call and has
# the bits of the same draws made one at a time by the public functions.


@pytest.mark.parametrize("eta_min", [0.0, 0.5])
@pytest.mark.parametrize("n", [1, 99, 100, 101, 250])
@pytest.mark.parametrize("seed", [0, 7])
def test_stacked_qubit_draws_are_the_one_draw_calls(seed, n, eta_min):
    rng = np.random.default_rng(seed)
    stacks = list(verify._qubit_draws(rng, n, eta_min))
    assert [len(s.p) for s in stacks] == verify._stack_sizes(n)
    one = np.random.default_rng(seed)
    draws = [(verify.random_qubit_state(one), verify.random_qubit_params(one, eta_min)) for _ in range(n)]
    columns = [zip(*(c.tolist() for c in (s.p, s.gamma, s.eta, s.noise))) for s in stacks]
    got = [(p, repr(g), e, x) for stack in columns for p, g, e, x in stack]
    assert got == [(s.p, repr(s.gamma), c.eta, c.noise) for s, c in draws]
    assert rng.uniform() == one.uniform()  # both streams at the same place


def test_a_qubit_draw_is_five_scalar_uniforms():
    # The stream order that the stacks follow: p, u, phi, then eta and noise.
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    s, c = verify.random_qubit_state(rng), verify.random_qubit_params(rng, 0.5)
    p, u, phi = ref.uniform(0.0, 1.0), ref.uniform(0.0, 1.0), ref.uniform(0.0, 2.0 * math.pi)
    assert (s.p, c.eta, c.noise) == (p, ref.uniform(0.5, 1.0), ref.uniform(0.0, 0.5))
    assert s.gamma == math.sqrt(u * p * (1.0 - p)) * complex(math.cos(phi), math.sin(phi))


@pytest.mark.parametrize("d", [2, 4, 8])
def test_stacked_density_draws_are_the_one_draw_calls(d):
    stacked = verify._density_draw(np.random.default_rng(3), d, (100,))
    one = np.random.default_rng(3)
    assert np.array_equal(stacked, [verify._density_draw(one, d) for _ in range(100)])


def test_stacked_unitaries_are_the_one_draw_calls():
    stacked = verify._unitary2(np.random.default_rng(3).normal(size=(100, 2, 2, 2)))
    one = np.random.default_rng(3)
    assert np.array_equal(stacked, [verify.random_unitary2(one) for _ in range(100)])
