"""Seeded, reproducible property checks behind the ``verify`` command and pytest.

Each check exercises one invariant of the package against an independent
route (closed form, alternative decomposition, brute-force dilation) and
reports its worst observed deviation.  ``CHECKS`` maps every check name to a
zero-argument function returning its ``CheckResult``; the suites, the CLI and
the test suite all run these same functions.  A check that draws random
inputs seeds its own generator with its 1-based position in ``CHECKS``, so it
gives the same result alone or inside a suite.  A suite run records each
check's wall time only into a dict its caller passes, never into the result.

The ``linalg/*`` and ``qubit/*`` checks draw their inputs one at a time, as
scalars, and evaluate them in stacks of at most ``_CHUNK`` draws: each stack
yields its array of deviations, of which the registry keeps what it would
keep of the draws one by one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

from . import bounds, gaussian, linalg, qubit
from .optimize import maximize_scalar, maximize_unimodal

# High-precision anchors, evaluated with 50-digit arithmetic: the thermal
# entropy g(0.5), and the gaussian closed forms at (eta, N) = (0.9, 0.1).
G_05 = 1.3774437510817343
GAUSS_ANCHORS_09_01 = {
    "lower": 2.6864783158286477,
    "extended": 3.653371687055977,
    "twist": 3.0163018123291005,
    "plob": 2.8536817186182027,
    "swat": 3.0324214776923775,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""


CHECKS: dict[str, Callable[[], CheckResult]] = {}


def _register(name: str, tol: float, floor: float = 0.0):
    """Register a generator of deviations as the check ``name``.

    The generator yields each deviation, or a (deviation, where) pair; the
    check's worst value is the first nan, else the first largest one, and
    ``floor`` if none exceeds it.  The check passes when the worst value is
    at most ``tol``, so a nan deviation fails it.  A stack of draws yields a
    1-D array, alone or with ``where(i)`` of the index, under the same rule.
    """

    def decorate(deviations):
        def run() -> CheckResult:
            worst, where = floor, ""
            for dev in deviations():
                dev, at = dev if isinstance(dev, tuple) else (dev, "")
                if isinstance(dev, np.ndarray):
                    i = int(np.argmax(dev))  # argmax stops at the first nan
                    dev, at = float(dev[i]), at(i) if at else ""
                if dev > worst or (math.isnan(dev) and not math.isnan(worst)):
                    worst, where = dev, at
            return CheckResult(name, bool(worst <= tol), float(worst), tol, where)

        CHECKS[name] = run
        return run

    return decorate


def _max_abs(a, b) -> float:
    return float(np.abs(a - b).max())


T = TypeVar("T")

# Draws evaluated per stack.  A few numpy calls per stack replace a few per
# draw, and larger stacks save little more time but cost memory: against the
# per-draw loops, the peak RSS of a process running ``verify all`` (38 MB)
# rose by 0.9 MB with stacks of 10, 1.2 MB with 100, 2.7 MB with 250 and
# 7.9 MB with 1000.
_CHUNK = 100


def _batches(draws: Iterable[T]) -> Iterator[list[T]]:
    """``draws`` in consecutive lists of at most ``_CHUNK``, one stack each.

    A generator of draws is drawn one stack at a time, in its own order.
    """
    it = iter(draws)
    while batch := list(itertools.islice(it, _CHUNK)):
        yield batch


def _stack_max_abs(a, b) -> np.ndarray:
    """Largest entrywise deviation of each pair of matrices of two stacks."""
    return np.abs(a - b).max(axis=(-2, -1))


def _qubit_draws(rng: np.random.Generator, n: int, eta_min: float = 0.0) -> Iterator[tuple]:
    """``n`` (state, channel) pairs, each drawn state first."""
    return ((random_qubit_state(rng), random_qubit_params(rng, eta_min)) for _ in range(n))


def _dilations(pairs) -> linalg.DensityMatrix:
    """The stacked dilated states of (state, channel) pairs."""
    return qubit.QubitStack(*zip(*pairs)).dilated_state()


def _gaussian_dev(a: gaussian.GaussianState, b: gaussian.GaussianState) -> float:
    return max(_max_abs(a.mean, b.mean), _max_abs(a.cov, b.cov))


def _qubit_where(s: qubit.QubitState, c: bounds.QubitAttenuatorParams) -> str:
    return f"p={s.p:.6f} |g|={abs(s.gamma):.6f} eta={c.eta:.6f} N={c.noise:.6f}"


# ---------------------------------------------------------------------------
# random inputs (shared with the test suite)


def random_density(rng: np.random.Generator, dims: tuple[int, ...]) -> linalg.DensityMatrix:
    return linalg.DensityMatrix(_density_draw(rng, math.prod(dims)), dims)


def _density_draw(rng: np.random.Generator, d: int) -> np.ndarray:
    """The matrix of ``random_density``, unvalidated, for a stack."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / rho.trace()


def random_unitary2(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_qubit_state(rng: np.random.Generator) -> qubit.QubitState:
    return _qubit_state(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0 * math.pi))


def _qubit_state(p: float, u: float, phi: float) -> qubit.QubitState:
    """The state of population ``p`` whose coherence has |gamma|^2 = u p(1-p) and phase ``phi``."""
    r = math.sqrt(u * p * (1.0 - p))
    return qubit.QubitState(p, r * complex(math.cos(phi), math.sin(phi)))


def random_qubit_params(rng: np.random.Generator, eta_min: float = 0.0) -> bounds.QubitAttenuatorParams:
    return bounds.QubitAttenuatorParams(rng.uniform(eta_min, 1), rng.uniform(0, 0.5))


def random_gaussian_state(rng: np.random.Generator) -> gaussian.GaussianState:
    # Random rotation * squeezing * rotation on a random thermal mode.
    theta1, theta2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    r = rng.uniform(0.0, 1.0)
    nbar = rng.uniform(0.0, 3.0)

    def rot(t):
        return np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])

    s = rot(theta1) @ np.diag([math.exp(r), math.exp(-r)]) @ rot(theta2)
    v = (2.0 * nbar + 1.0) * s @ s.T
    mean = rng.normal(scale=2.0, size=2)
    return gaussian.GaussianState(mean, (v + v.T) / 2.0)


def random_non_breaking_params(rng: np.random.Generator) -> gaussian.PhaseInsensitiveParams:
    tau = rng.uniform(0.05, 3.0)
    floor = abs(1.0 - tau)
    ceil = 1.0 + tau
    y = floor + rng.uniform(0.0, 0.999) * (ceil - floor)
    return gaussian.PhaseInsensitiveParams(tau, y)


def charpoly_roots_descending(m: np.ndarray) -> np.ndarray:
    """Eigenvalues via Faddeev-LeVerrier coefficients and companion-matrix roots."""
    n = m.shape[0]
    coeffs = [1.0 + 0.0j]
    mk = np.zeros_like(m)
    for k in range(1, n + 1):
        mk = m @ (mk + coeffs[-1] * np.eye(n))
        coeffs.append(-mk.trace() / k)
    roots = np.roots(np.array(coeffs))
    return np.sort(roots.real)[::-1]


# ---------------------------------------------------------------------------
# linalg


@_register("linalg/kron-products", 1e-15)
def _kron_products():
    # np.kron's left factor is the slowest-varying index, which qubit's
    # basis order and partial_trace's factor 0 both assume.
    sz = np.diag([1.0, -1.0]).astype(complex)
    yield _max_abs(np.kron(sz, sz), np.diag([1.0, -1.0, -1.0, 1.0]))
    yield _max_abs(np.kron(np.eye(2), np.eye(2)), np.eye(4))
    a, b = np.diag([0.875, 0.125]), np.diag([0.75, 0.25])
    yield _max_abs(np.kron(a, b), np.diag([0.65625, 0.21875, 0.09375, 0.03125]))
    ab = linalg.DensityMatrix(np.kron(a, b), (2, 2))
    yield _max_abs(linalg.partial_trace(ab, {0}).matrix, a)
    yield _max_abs(linalg.partial_trace(ab, {1}).matrix, b)


@_register("linalg/partial-trace-composition", 1e-12)
def _partial_trace_composition():
    rng = np.random.default_rng(2)
    for batch in _batches(_density_draw(rng, 8) for _ in range(200)):
        rho = linalg.DensityMatrix(np.array(batch), (2, 2, 2))
        joint = linalg.partial_trace(rho, {1}).matrix
        yield np.maximum(
            _stack_max_abs(joint, linalg.partial_trace(linalg.partial_trace(rho, {0, 1}), {1}).matrix),
            _stack_max_abs(joint, linalg.partial_trace(linalg.partial_trace(rho, {1, 2}), {0}).matrix),
        )


@_register("linalg/entropy-unitary-invariance", 1e-9)
def _entropy_unitary_invariance():
    rng = np.random.default_rng(3)
    draws = (
        (_density_draw(rng, 8), np.kron(np.kron(random_unitary2(rng), random_unitary2(rng)), random_unitary2(rng)))
        for _ in range(100)
    )
    for batch in _batches(draws):
        m, u = (np.array(x) for x in zip(*batch))
        rho = linalg.DensityMatrix(m, (2, 2, 2))
        rotated = linalg.DensityMatrix(u @ rho.matrix @ u.conj().swapaxes(-1, -2), rho.dims)
        yield abs(linalg.von_neumann_entropy(rotated) - linalg.von_neumann_entropy(rho))


@_register("linalg/eigenvalue-sum-to-one", 1e-10)
def _eigenvalue_sum_to_one():
    rng = np.random.default_rng(4)
    for batch in _batches(_density_draw(rng, 4) for _ in range(200)):
        rho = linalg.DensityMatrix(np.array(batch), (4,))
        yield abs(linalg.hermitian_eigenvalues(rho.matrix).sum(axis=-1) - 1.0)


@_register("linalg/eigenvalues-vs-quadratic-roots", 1e-12)
def _eigenvalues_vs_quadratic_roots():
    rng = np.random.default_rng(5)

    def draws():
        for _ in range(300):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = (g + g.conj().T) / 2.0
            mean = (h[0, 0].real + h[1, 1].real) / 2.0
            radius = math.hypot((h[0, 0].real - h[1, 1].real) / 2.0, abs(h[0, 1]))
            yield h, (mean + radius, mean - radius)

    for batch in _batches(draws()):
        h, roots = (np.array(x) for x in zip(*batch))
        yield np.abs(linalg.hermitian_eigenvalues(h) - roots).max(axis=-1)


@_register("linalg/eigenvalues-vs-charpoly-roots", 1e-10)
def _eigenvalues_vs_charpoly_roots():
    m = qubit.extended_output(qubit.QubitState(0.5), bounds.QubitAttenuatorParams(0.8, 0.1)).matrix
    yield _max_abs(linalg.hermitian_eigenvalues(m), charpoly_roots_descending(m))


# ---------------------------------------------------------------------------
# qubit


@_register("qubit/dilation-marginal-consistency", 1e-12)
def _dilation_marginal_consistency():
    rng = np.random.default_rng(7)
    for batch in _batches(_qubit_draws(rng, 1000)):
        b = linalg.partial_trace(_dilations(batch), qubit.KEEP_B)
        params = [c for _, c in batch]
        expected = qubit.QubitStack([qubit.apply_attenuator(s, c) for s, c in batch], params).input_state()
        yield _stack_max_abs(b.matrix, expected.matrix), lambda i: _qubit_where(*batch[i])


@_register("qubit/closed-form-marginals", 1e-12)
def _closed_form_marginals():
    rng = np.random.default_rng(8)
    for batch in _batches(_qubit_draws(rng, 1000)):
        stack = qubit.QubitStack(*zip(*batch))
        rho = stack.dilated_state()
        dev = np.maximum(
            _stack_max_abs(linalg.partial_trace(rho, qubit.KEEP_BE).matrix, stack.extended_output_closed_form()),
            _stack_max_abs(linalg.partial_trace(rho, qubit.KEEP_F).matrix, stack.weak_complementary_closed_form()),
        )
        yield dev, lambda i: _qubit_where(*batch[i])


@_register("qubit/weak-degradability", 1e-12)
def _qubit_weak_degradability():
    rng = np.random.default_rng(9)
    for batch in _batches(_qubit_draws(rng, 500, eta_min=0.5)):
        degraded = [
            qubit.phase_damping(
                qubit.apply_attenuator(
                    qubit.apply_attenuator(s, c),
                    bounds.QubitAttenuatorParams((1.0 - c.eta) / c.eta, c.noise),
                ),
                1.0 - 2.0 * c.noise,
            )
            for s, c in batch
        ]
        expected = qubit.QubitStack(degraded, [c for _, c in batch]).input_state()
        weak = linalg.partial_trace(_dilations(batch), qubit.KEEP_F)
        yield _stack_max_abs(expected.matrix, weak.matrix), lambda i: _qubit_where(*batch[i])


@_register("qubit/phase-flip-symmetry", 1e-10)
def _phase_flip_symmetry():
    rng = np.random.default_rng(10)
    for batch in _batches(_qubit_draws(rng, 100)):
        flipped = [(qubit.QubitState(s.p, -s.gamma), c) for s, c in batch]
        yield abs(
            qubit.dilation_coherent_information(_dilations(batch), "extended")
            - qubit.dilation_coherent_information(_dilations(flipped), "extended")
        )


@_register("qubit/population-concavity", 1e-8)
def _population_concavity():
    ps = np.linspace(0.0, 1.0, 41)
    for eta, noise in ((0.7, 0.1), (0.9, 0.25), (0.6, 0.4), (0.55, 0.4)):
        c = bounds.QubitAttenuatorParams(eta, noise)
        js = qubit.dilation_coherent_information(_dilations([(qubit.QubitState(p), c) for p in ps]), "extended")
        yield float(np.diff(js, 2).max(initial=-math.inf))


@_register("qubit/zero-noise-variant-agreement", 1e-10)
def _zero_noise_variant_agreement():
    rng = np.random.default_rng(12)
    draws = ((random_qubit_state(rng), bounds.QubitAttenuatorParams(rng.uniform(0, 1), 0.0)) for _ in range(100))
    for batch in _batches(draws):
        rho = _dilations(batch)
        yield abs(
            qubit.dilation_coherent_information(rho, "direct")
            - qubit.dilation_coherent_information(rho, "extended")
        )


_VARIANTS = tuple(bounds.VARIANT_FACTORS)


@_register("qubit/diagonal-closed-form-vs-dilation", 1e-12)
def _diagonal_closed_form_vs_dilation():
    rng = np.random.default_rng(13)
    edges = [(p, e, n) for p in (0.0, 1.0) for e in (0.0, 0.5, 1.0) for n in (0.0, 0.5)]
    draws = [(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 0.5)) for _ in range(120)]
    for batch in _batches(edges + draws):
        pairs = [(qubit.QubitState(p), bounds.QubitAttenuatorParams(eta, noise)) for p, eta, noise in batch]
        rho = _dilations(pairs)
        # One column per variant, read row by row: each point's direct, then extended.
        devs = np.stack([
            abs(
                np.array([bounds.coherent_information_diagonal(s.p, c, variant) for s, c in pairs])
                - qubit.dilation_coherent_information(rho, variant)
            )
            for variant in _VARIANTS
        ], axis=-1)

        def where(i):
            p, eta, noise = batch[i // 2]
            return f"{_VARIANTS[i % 2]} p={p:.6f} eta={eta:.6f} N={noise:.6f}"

        yield devs.ravel(), where


# ---------------------------------------------------------------------------
# gaussian


@_register("gaussian/attenuator-composition", 1e-12)
def _attenuator_composition():
    rng = np.random.default_rng(14)
    for _ in range(100):
        s = random_gaussian_state(rng)
        e1, e2 = rng.uniform(0, 1, size=2)
        noise = rng.uniform(0, 2)
        two = gaussian.apply_attenuator_gaussian(gaussian.apply_attenuator_gaussian(s, e1, noise), e2, noise)
        yield _gaussian_dev(two, gaussian.apply_attenuator_gaussian(s, e1 * e2, noise))


@_register("gaussian/weak-degradability", 1e-12)
def _gaussian_weak_degradability():
    rng = np.random.default_rng(15)
    for _ in range(100):
        s = random_gaussian_state(rng)
        eta = rng.uniform(0.5, 1)
        noise = rng.uniform(0, 2)
        degraded = gaussian.apply_attenuator_gaussian(
            gaussian.apply_attenuator_gaussian(s, eta, noise), (1.0 - eta) / eta, noise
        )
        yield _gaussian_dev(degraded, gaussian.apply_attenuator_gaussian(s, 1.0 - eta, noise))


@_register("gaussian/extended-sign-identity", 1e-9)
def _extended_sign_identity():
    rng = np.random.default_rng(16)
    for _ in range(100):
        n = rng.uniform(0, 100)
        eta = rng.uniform(0, 1)
        noise = rng.uniform(0, 2)
        dev = abs(
            gaussian.coherent_information_gaussian(n, eta, noise, "extended")
            + gaussian.coherent_information_gaussian(n, 1.0 - eta, noise, "direct")
        )
        yield dev, f"n={n:.4f} eta={eta:.6f} N={noise:.6f}"


_ENERGY_POINTS = ((0.8, 0.2), (0.7, 0.5), (0.95, 1.0))


def _energy_rates(eta: float, noise: float) -> list[float]:
    """Extended-channel rates at input energies 1, 10, ..., 1e5."""
    return [gaussian.coherent_information_gaussian(10.0**k, eta, noise, "extended") for k in range(6)]


@_register("gaussian/energy-monotonicity", 1e-12, floor=-math.inf)
def _energy_monotonicity():
    for eta, noise in _ENERGY_POINTS:
        values = _energy_rates(eta, noise)
        yield from (values[i] - values[i + 1] for i in range(5))


@_register("gaussian/energy-limit-agreement", 1e-3)
def _energy_limit_agreement():
    for eta, noise in _ENERGY_POINTS:
        yield abs(_energy_rates(eta, noise)[-1] - bounds.gauss_upper_extended(eta, noise))


@_register("gaussian/purification-purity-and-marginals", 1e-9)
def _purification_purity_and_marginals():
    for noise in (0.0, 0.1, 0.3, 0.5, 1.0, 2.0, 3.0):
        tms = gaussian.two_mode_squeezed_cov(noise)
        yield float(np.abs(gaussian.symplectic_eigenvalues(tms) - 1.0).max())
        yield _max_abs(gaussian.mode_marginal(tms, (1,)).cov, (2 * noise + 1) * np.eye(2))


@_register("gaussian/twisted-reconstruction", 1e-12)
def _twisted_reconstruction():
    rng = np.random.default_rng(20)
    for _ in range(100):
        params = random_non_breaking_params(rng)
        s = random_gaussian_state(rng)
        factors = gaussian.twisted_decompose(params)
        rebuilt = gaussian.apply_attenuator_gaussian(
            gaussian.apply_amplifier_gaussian(s, factors.kappa_prime, 0.0),
            factors.eta_prime,
            0.0,
        )
        where = f"tau={params.tau:.6f} y={params.y:.6f}"
        yield _gaussian_dev(rebuilt, gaussian.apply_phase_insensitive(s, params)), where
        # The factors themselves: eta' = (1 + tau - y)/2 and kappa' = tau/eta'.
        yield abs(factors.eta_prime - (1.0 + params.tau - params.y) / 2.0), where
        yield abs(factors.kappa_prime - params.tau / factors.eta_prime) / max(1.0, params.tau), where


@_register("gaussian/balanced-splitter-zero-slices", 1e-9)
def _balanced_splitter_zero_slices():
    for noise in (0.0, 0.3, 1.5, 1.7):
        yield abs(gaussian.coherent_information_gaussian(0.0, 0.5, noise, "extended"))
    for n in (0.5, 3.0, 4.0, 40.0, 50.0):
        yield abs(gaussian.coherent_information_gaussian(n, 0.5, 0.0, "extended"))


@_register("gaussian/thermal-entropy-anchors", 1e-12)
def _thermal_entropy_anchors():
    yield abs(gaussian.g_function(0.0))
    yield abs(gaussian.g_function(1.0) - 2.0)
    yield abs(gaussian.g_function(0.5) - G_05)


# ---------------------------------------------------------------------------
# bounds (part of the "all" suite)

_ETAS = bounds.grid(0.51, 0.99, 0.01)


@_register("bounds/gaussian-closed-form-anchors", 1e-13)
def _gaussian_closed_form_anchors():
    for name, anchor in GAUSS_ANCHORS_09_01.items():
        fn = bounds.gauss_lower if name == "lower" else getattr(bounds, f"gauss_upper_{name}")
        yield abs(fn(0.9, 0.1) - anchor)


@_register("bounds/gaussian-sandwich-grid", 1e-9)
def _gaussian_sandwich_grid():
    for eta in _ETAS:
        for noise in bounds.grid(0.0, 5.0, 0.01):
            lo = bounds.gauss_lower(eta, noise)
            up = min(
                bounds.gauss_upper_extended(eta, noise),
                bounds.gauss_upper_twist(eta, noise),
                bounds.gauss_upper_plob(eta, noise),
                bounds.gauss_upper_swat(eta, noise),
            )
            yield lo - up, f"eta={eta:.2f} N={noise:.2f}"


@_register("bounds/twist-dominance-grid", 1e-9)
def _twist_dominance_grid():
    for eta in _ETAS:
        for noise in bounds.grid(0.0, 5.0, 0.1):
            if bounds.entanglement_breaking(eta, noise):
                continue
            tw = bounds.gauss_upper_twist(eta, noise)
            where = f"eta={eta:.2f} N={noise:.2f}"
            yield tw - bounds.gauss_upper_extended(eta, noise), where
            yield tw - bounds.gauss_upper_swat(eta, noise), where


@_register("bounds/plob-twist-crossover", 0.0, floor=-math.inf)
def _plob_twist_crossover():
    margin = 1e-5
    yield max(
        bounds.gauss_upper_twist(0.7, 0.1) - bounds.gauss_upper_plob(0.7, 0.1) + margin,
        bounds.gauss_upper_plob(0.9, 0.1) - bounds.gauss_upper_twist(0.9, 0.1) + margin,
    )


_QUBIT_POINTS = [(eta, noise) for eta in (0.55, 0.65, 0.75, 0.85, 0.95) for noise in (0.0, 0.01, 0.1, 0.25)]


@_register("bounds/qubit-sandwich-grid", 1e-7)
def _qubit_sandwich_grid():
    for eta, noise in _QUBIT_POINTS:
        dev = bounds.qubit_lower(eta, noise) - bounds.qubit_upper_extended(eta, noise)
        yield dev, f"eta={eta} N={noise}"


@_register("bounds/zero-noise-gap-closure", 1e-6)
def _zero_noise_gap_closure():
    for eta in (0.55, 0.65, 0.75, 0.8, 0.85, 0.9, 0.95):
        yield abs(bounds.qubit_upper_extended(eta, 0.0) - bounds.qubit_lower(eta, 0.0))


@_register("bounds/bottleneck-consistency", 1e-12)
def _bottleneck_consistency():
    # The closed-form twist bound against the route through the factorization:
    # eta' from twisted_decompose, then the quantum-limited-attenuator capacity.
    grids = (
        (bounds.grid(0.51, 0.99, 0.02), (0.0, 0.05, 0.2, 1.0)),
        (_ETAS, (0.0, 0.05, 0.3, 2.0)),
    )
    for etas, noises in grids:
        for eta in etas:
            for noise in noises:
                if bounds.entanglement_breaking(eta, noise):
                    continue
                params = gaussian.attenuator_as_phase_insensitive(eta, noise)
                eta_p = gaussian.twisted_decompose(params).eta_prime
                route = max(0.0, math.log2(eta_p / (1.0 - eta_p)))
                where = f"eta={eta:.2f} N={noise}"
                yield abs(route - bounds.gauss_upper_twist(eta, noise)), where
                yield abs(eta_p - (eta - noise * (1.0 - eta))), where


@_register("bounds/optimizer-quadratic-anchor", 1e-8)
def _optimizer_quadratic_anchor():
    yield abs(maximize_scalar(lambda x: -((x - 0.3) ** 2)).argmax - 0.3)


@_register("bounds/eta-monotonicity-sweeps", 0.0)
def _eta_monotonicity_sweeps():
    for kind, noise in ((bounds.QUBIT, 0.01), (bounds.QUBIT, 0.1), (bounds.GAUSSIAN, 0.1), (bounds.GAUSSIAN, 0.5)):
        stop = 0.95 if kind == bounds.QUBIT else 0.99
        slack = 1e-7 if kind == bounds.QUBIT else 1e-12
        grid = bounds.grid(0.5, stop, 0.01)
        reports = [bounds.report(kind, eta, noise) for eta in grid]
        columns = {"lower": [r.lower for r in reports], "best_upper": [r.best_upper for r in reports]}
        for name in reports[0].uppers:
            columns[f"upper_{name}"] = [r.uppers[name] for r in reports]
        for name, col in columns.items():
            for i in range(1, len(col)):
                yield col[i - 1] - col[i] - slack, f"{kind} N={noise} column={name} eta={grid[i]:.2f}"


@_register("bounds/zero-capacity-region-gap", 1e-15)
def _zero_capacity_region_gap():
    for eta in bounds.grid(0.5, 0.98, 0.02):
        for noise in bounds.grid(0.0, 5.0, 0.25):
            if eta <= 0.5 or bounds.entanglement_breaking(eta, noise):
                r = bounds.report(bounds.GAUSSIAN, eta, noise)
                yield max(abs(r.gap), abs(r.lower), abs(r.best_upper))


@_register("bounds/qubit-bracket-vs-full-scan", 0.0)
def _qubit_bracket_vs_full_scan():
    # The qubit bounds' grid search against the full scan, both variants; the
    # direct objective at (0.55, 0.1) and (0.55, 0.25) takes the fallback.
    for eta, noise in _QUBIT_POINTS:
        for variant in ("direct", "extended"):
            f = bounds.diagonal_objective(bounds.QubitAttenuatorParams(eta, noise), variant)
            fast, full = maximize_unimodal(f), maximize_scalar(f)
            yield max(abs(fast.value - full.value), abs(fast.argmax - full.argmax)), f"eta={eta} N={noise} {variant}"


@_register("qubit/coherent-inputs-below-diagonal-max", 1e-12, floor=-math.inf)
def _coherent_inputs_below_diagonal_max():
    # The paper's claim that diagonal inputs are optimal (qubit_lower's
    # docstring): the dilation's coherent information of inputs with
    # gamma != 0 against the report's maximum over diagonal inputs, for each
    # variant.  Registered after the 33 checks above; the qubit suite runs it.
    rng = np.random.default_rng(34)

    def draws():
        for eta, noise in _QUBIT_POINTS:
            c = bounds.QubitAttenuatorParams(eta, noise)
            r = bounds.report(bounds.QUBIT, eta, noise)
            # The values of 50 random_qubit_state calls, from one generator call.
            for x in rng.uniform((0.0, 0.0, 0.0), (1.0, 1.0, 2.0 * math.pi), (50, 3)).tolist():
                s = _qubit_state(*x)
                if s.gamma != 0:
                    yield s, c, (r.lower, r.uppers["extended"])

    for batch in _batches(draws()):
        rho = _dilations([(s, c) for s, c, _ in batch])
        diagonal_max = np.array([m for _, _, m in batch])
        devs = np.stack([qubit.dilation_coherent_information(rho, v) for v in _VARIANTS], axis=-1) - diagonal_max

        def where(i):
            s, c, _ = batch[i // 2]
            return f"{_VARIANTS[i % 2]} {_qubit_where(s, c)}"

        yield devs.ravel(), where


# ---------------------------------------------------------------------------
# suites


Timings = dict[str, float]  # check name -> wall time of its run, in seconds


def _suite(prefix: str, timings: Timings | None) -> list[CheckResult]:
    results = []
    for name, run in CHECKS.items():
        if name.startswith(prefix + "/"):
            start = perf_counter()
            results.append(run())
            if timings is not None:
                timings[name] = perf_counter() - start
    return results


def linalg_suite(timings: Timings | None = None) -> list[CheckResult]:
    return _suite("linalg", timings)


def qubit_suite(timings: Timings | None = None) -> list[CheckResult]:
    return _suite("qubit", timings)


def gaussian_suite(timings: Timings | None = None) -> list[CheckResult]:
    return _suite("gaussian", timings)


def bounds_suite(timings: Timings | None = None) -> list[CheckResult]:
    return _suite("bounds", timings)


SUITES = {
    "linalg": (linalg_suite,),
    "qubit": (qubit_suite,),
    "gaussian": (gaussian_suite,),
    "all": (linalg_suite, qubit_suite, gaussian_suite, bounds_suite),
}


def run_suite(name: str, timings: Timings | None = None) -> list[CheckResult]:
    """Run one named suite ('linalg', 'qubit', 'gaussian', or 'all').

    When ``timings`` is given, the wall time of each check is stored in it
    under the check's name.  The results carry no timing, so a check gives
    equal results on every run.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    results = []
    for fn in SUITES[name]:
        results.extend(fn(timings))
    if name == "all":  # registry order, which puts an appended qubit check last
        order = list(CHECKS)
        results.sort(key=lambda r: order.index(r.name))
    return results
