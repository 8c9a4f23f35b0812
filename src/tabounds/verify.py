"""Seeded, reproducible property checks behind the ``verify`` command and pytest.

Each check exercises one invariant of the package against an independent
route (closed form, alternative decomposition, brute-force dilation) and
reports its worst observed deviation.  ``CHECKS`` maps every check name to a
zero-argument function returning its ``CheckResult``; a suite is the checks
whose names share the prefix before ``/``, and the suites, the CLI and the
test suite all run these same functions.  The registry hands a check that
draws random inputs its generator, seeded with the check's 1-based position
in ``CHECKS``, so it gives the same result alone or inside a suite.  A suite run records each
check's wall time only into a dict its caller passes, never into the result.

The ``linalg/*``, ``qubit/*`` and ``gaussian/*`` checks evaluate their
draws in stacks of at most ``_CHUNK``: each stack yields its array of
deviations, several per draw interleaved draw by draw, of which the registry
keeps what it would keep of the draws one by one.  A ``linalg/*`` or
``qubit/*`` stack takes its random numbers from one generator call, in the
order of the one-draw functions (``random_density``, ``random_unitary2``,
``random_qubit_state`` then ``random_qubit_params``), so a stack has the
bits of its draws made one at a time; only values that those functions
compute with ``math`` (a coherence's phase) are computed per draw.
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
# And gauss_upper_plob at (eta, N) = (7.6e-296, 2.7e-3), in 50-digit
# arithmetic: there the rounded (1-x)/N of its log1p form lies within 3e-14
# of -1 and has lost every digit of eta, so only its direct form is right.
GAUSS_ANCHORS_PLOB_GUARD = {"plob": 2.620045577327494}
# Both qubit bounds on each side of the eta <= 1/2 short-circuit: exactly 0
# at eta = 1/2 (the channel is antidegradable), and at (0.51, 0), where the
# channel is amplitude damping, its 50-digit capacity.
QUBIT_SHORT_CIRCUIT_ANCHORS = {(0.5, 0.01): 0.0, (0.51, 0.0): 0.016070349689747448}


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

    The generator takes no parameter, or one: a ``np.random.Generator``
    seeded with the check's 1-based position, made afresh on each run.  It
    yields each deviation, or a (deviation, where) pair; the check's worst
    value is the first nan, else the first largest one, and ``floor`` if
    none exceeds it.  The check passes when the worst value is at most
    ``tol``, so a nan deviation fails it.  A stack of draws yields a 1-D
    array, alone or with ``where(i)`` of the index, under the same rule.
    """

    def decorate(deviations):
        seed = (len(CHECKS) + 1,) if deviations.__code__.co_argcount else ()

        def run() -> CheckResult:
            worst, where = floor, ""
            for dev in deviations(*map(np.random.default_rng, seed)):
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


def _stack_sizes(n: int) -> list[int]:
    """The sizes of the stacks of ``n`` draws, in order: ``_CHUNK`` but the last."""
    return [min(_CHUNK, n - start) for start in range(0, n, _CHUNK)]


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


def _qubit_draws(rng: np.random.Generator, n: int, eta_min: float = 0.0) -> Iterator[qubit.QubitStack]:
    """``n`` draws of ``random_qubit_state`` then ``random_qubit_params(rng, eta_min)``,
    in stacks of at most ``_CHUNK``, each from one generator call."""
    low, high = _qubit_ranges(eta_min)
    for k in _stack_sizes(n):
        p, u, phi, eta, noise = rng.uniform(low, high, (k, 5)).T
        yield qubit.QubitStack(p, _coherences(p, u, phi), eta, noise)


def _gaussian_dev(a: gaussian.GaussianState, b: gaussian.GaussianState) -> np.ndarray:
    """Largest entrywise deviation of the means and covariances of each pair of states of two stacks."""
    return np.maximum(np.abs(a.mean - b.mean).max(axis=-1), _stack_max_abs(a.cov, b.cov))


def _columns(batch, first: int = 0) -> list[np.ndarray]:
    """The scalar fields of a batch of draw tuples from position ``first`` on, one array each."""
    return [np.array(col) for col in list(zip(*batch))[first:]]


def _interleave(columns: list[np.ndarray], label: Callable[[int, int], str]):
    """A stack's deviations, several per draw (one column each), read draw by
    draw, with their labeller: ``label`` of the draw's index in the stack and
    the column's."""
    return np.stack(columns, axis=-1).ravel(), lambda i: label(*divmod(i, len(columns)))


def _qubit_where(stack: qubit.QubitStack, i: int) -> str:
    return f"p={stack.p[i]:.6f} |g|={abs(stack.gamma[i]):.6f} eta={stack.eta[i]:.6f} N={stack.noise[i]:.6f}"


# ---------------------------------------------------------------------------
# random inputs (shared with the test suite)


def random_density(rng: np.random.Generator, dims: tuple[int, ...]) -> linalg.DensityMatrix:
    return linalg.DensityMatrix(_density_draw(rng, math.prod(dims)), dims)


def _density_draw(rng: np.random.Generator, d: int, size: tuple[int, ...] = ()) -> np.ndarray:
    """The matrix of ``random_density``, or a stack of ``size`` of them, unvalidated."""
    return _density(rng.normal(size=size + (2, d, d)))


def _density(x: np.ndarray) -> np.ndarray:
    """g g^H / tr(g g^H) for g = x[..., 0, :, :] + i x[..., 1, :, :], from standard normals."""
    g = x[..., 0, :, :] + 1j * x[..., 1, :, :]
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1)[..., None, None]


def random_unitary2(rng: np.random.Generator) -> np.ndarray:
    return _unitary2(rng.normal(size=(2, 2, 2)))


def _unitary2(x: np.ndarray) -> np.ndarray:
    """The Haar-random 2x2 unitary, or stack of them, of the standard normals ``x``,
    shaped ``(..., 2, 2, 2)`` as in ``_density``: Q of g = QR, its columns
    rephased so that R has a positive diagonal."""
    q, r = np.linalg.qr(x[..., 0, :, :] + 1j * x[..., 1, :, :])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _qubit_ranges(eta_min: float = 0.0) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The lows and highs of the uniform numbers of a qubit draw, in draw order:
    random_qubit_state's population p, coherence fraction u and phase phi,
    then random_qubit_params's eta and noise."""
    return (0.0, 0.0, 0.0, eta_min, 0.0), (1.0, 1.0, 2.0 * math.pi, 1.0, 0.5)


def random_qubit_state(rng: np.random.Generator) -> qubit.QubitState:
    low, high = _qubit_ranges()
    p, u, phi = rng.uniform(low[:3], high[:3]).tolist()
    return qubit.QubitState(p, _coherence(p, u, phi))


def _coherence(p: float, u: float, phi: float) -> complex:
    """The coherence gamma with |gamma|^2 = u p(1-p) and phase ``phi``."""
    r = math.sqrt(u * p * (1.0 - p))
    return r * complex(math.cos(phi), math.sin(phi))


def _coherences(p: np.ndarray, u: np.ndarray, phi: np.ndarray) -> list[complex]:
    """``_coherence`` of each draw of three columns."""
    return [_coherence(*x) for x in zip(p.tolist(), u.tolist(), phi.tolist())]


def random_qubit_params(rng: np.random.Generator, eta_min: float = 0.0) -> bounds.QubitAttenuatorParams:
    low, high = _qubit_ranges(eta_min)
    return bounds.QubitAttenuatorParams(*rng.uniform(low[3:], high[3:]).tolist())


def random_gaussian_state(rng: np.random.Generator) -> gaussian.GaussianState:
    mean, cov = _gaussian_moments([_gaussian_draw(rng)])
    return gaussian.GaussianState(mean[0], cov[0])


def _gaussian_draw(rng: np.random.Generator) -> tuple:
    """The random numbers of one ``random_gaussian_state``, in draw order:
    two angles, a squeezing, a thermal energy and the mean."""
    theta1, theta2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    r = rng.uniform(0.0, 1.0)
    nbar = rng.uniform(0.0, 3.0)
    return theta1, theta2, r, nbar, rng.normal(scale=2.0, size=2)


def _gaussian_moments(draws: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """The means and covariances of ``_gaussian_draw`` tuples, stacked and
    unvalidated: rotation * squeezing * rotation on a thermal mode."""
    entries = [
        (math.cos(a), math.sin(a), -math.sin(a), math.cos(b), math.sin(b), -math.sin(b), math.exp(r), math.exp(-r))
        for a, b, r, _, _ in draws
    ]
    ca, sa, ma, cb, sb, mb, up, down = np.array(entries).T
    zero = np.zeros_like(up)
    s = _matrices2(ca, sa, ma, ca) @ _matrices2(up, zero, zero, down) @ _matrices2(cb, sb, mb, cb)
    v = (2.0 * np.array([d[3] for d in draws]) + 1.0)[:, None, None] * s @ s.swapaxes(-1, -2)
    return np.array([d[4] for d in draws]), (v + v.swapaxes(-1, -2)) / 2.0


def _matrices2(*entries: np.ndarray) -> np.ndarray:
    """The 2x2 matrices [[a, b], [c, d]] of the columns ``a, b, c, d``."""
    return np.stack(entries, axis=-1).reshape(-1, 2, 2)


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
def _partial_trace_composition(rng):
    for k in _stack_sizes(200):
        rho = linalg.DensityMatrix(_density_draw(rng, 8, (k,)), (2, 2, 2))
        joint = linalg.partial_trace(rho, {1}).matrix
        yield np.maximum(
            _stack_max_abs(joint, linalg.partial_trace(linalg.partial_trace(rho, {0, 1}), {1}).matrix),
            _stack_max_abs(joint, linalg.partial_trace(linalg.partial_trace(rho, {1, 2}), {0}).matrix),
        )


@_register("linalg/entropy-unitary-invariance", 1e-9)
def _entropy_unitary_invariance(rng):
    for k in _stack_sizes(100):
        # Each draw's density matrix, then its three unitaries, as _density_draw
        # and random_unitary2 draw them: 2 * 8 * 8 and then 3 * 2 * 2 * 2 normals.
        x = rng.normal(size=(k, 128 + 24))
        rho = linalg.DensityMatrix(_density(x[:, :128].reshape(k, 2, 8, 8)), (2, 2, 2))
        u1, u2, u3 = _unitary2(x[:, 128:].reshape(k, 3, 2, 2, 2)).swapaxes(0, 1)
        u = qubit._kron(qubit._kron(u1, u2), u3)
        rotated = linalg.DensityMatrix(u @ rho.matrix @ u.conj().swapaxes(-1, -2), rho.dims)
        yield abs(linalg.von_neumann_entropy(rotated) - linalg.von_neumann_entropy(rho))


@_register("linalg/eigenvalue-sum-to-one", 1e-10)
def _eigenvalue_sum_to_one(rng):
    for k in _stack_sizes(200):
        rho = linalg.DensityMatrix(_density_draw(rng, 4, (k,)), (4,))
        yield abs(linalg.hermitian_eigenvalues(rho.matrix).sum(axis=-1) - 1.0)


@_register("linalg/eigenvalues-vs-quadratic-roots", 1e-12)
def _eigenvalues_vs_quadratic_roots(rng):
    def roots(h):
        mean = (h[0][0].real + h[1][1].real) / 2.0
        radius = math.hypot((h[0][0].real - h[1][1].real) / 2.0, abs(h[0][1]))
        return mean + radius, mean - radius

    for k in _stack_sizes(300):
        x = rng.normal(size=(k, 2, 2, 2))
        g = x[:, 0] + 1j * x[:, 1]
        h = (g + g.conj().swapaxes(-1, -2)) / 2.0
        yield np.abs(linalg.hermitian_eigenvalues(h) - [roots(m) for m in h.tolist()]).max(axis=-1)


@_register("linalg/eigenvalues-vs-charpoly-roots", 1e-10)
def _eigenvalues_vs_charpoly_roots():
    m = qubit.extended_output(qubit.QubitState(0.5), bounds.QubitAttenuatorParams(0.8, 0.1)).matrix
    yield _max_abs(linalg.hermitian_eigenvalues(m), charpoly_roots_descending(m))


# ---------------------------------------------------------------------------
# qubit


@_register("qubit/dilation-marginal-consistency", 1e-12)
def _dilation_marginal_consistency(rng):
    for stack in _qubit_draws(rng, 1000):
        b = linalg.partial_trace(stack.dilated_state(), qubit.KEEP_B)
        expected = stack.apply_attenuator().input_state()
        yield _stack_max_abs(b.matrix, expected.matrix), lambda i: _qubit_where(stack, i)


@_register("qubit/closed-form-marginals", 1e-12)
def _closed_form_marginals(rng):
    for stack in _qubit_draws(rng, 1000):
        rho = stack.dilated_state()
        dev = np.maximum(
            _stack_max_abs(linalg.partial_trace(rho, qubit.KEEP_BE).matrix, stack.extended_output_closed_form()),
            _stack_max_abs(linalg.partial_trace(rho, qubit.KEEP_F).matrix, stack.weak_complementary_closed_form()),
        )
        yield dev, lambda i: _qubit_where(stack, i)


@_register("qubit/weak-degradability", 1e-12)
def _qubit_weak_degradability(rng):
    # The weakly complementary output is the channel's output degraded by the
    # attenuator of transmissivity (1-eta)/eta, then dephased by 1 - 2N.
    for stack in _qubit_draws(rng, 500, eta_min=0.5):
        out = stack.apply_attenuator()
        eta, noise = stack.eta, stack.noise
        degraded = qubit.QubitStack(out.p, out.gamma, (1.0 - eta) / eta, noise).apply_attenuator()
        expected = degraded.phase_damping(1.0 - 2.0 * noise).input_state()
        weak = linalg.partial_trace(stack.dilated_state(), qubit.KEEP_F)
        yield _stack_max_abs(expected.matrix, weak.matrix), lambda i: _qubit_where(stack, i)


@_register("qubit/phase-flip-symmetry", 1e-10)
def _phase_flip_symmetry(rng):
    for stack in _qubit_draws(rng, 100):
        flipped = qubit.QubitStack(stack.p, -stack.gamma, stack.eta, stack.noise)
        yield abs(
            qubit.dilation_coherent_information(stack.dilated_state(), "extended")
            - qubit.dilation_coherent_information(flipped.dilated_state(), "extended")
        )


@_register("qubit/population-concavity", 1e-8)
def _population_concavity():
    ps = np.linspace(0.0, 1.0, 41)
    for eta, noise in ((0.7, 0.1), (0.9, 0.25), (0.6, 0.4), (0.55, 0.4)):
        js = qubit.dilation_coherent_information(qubit.QubitStack(ps, 0.0, eta, noise).dilated_state(), "extended")
        yield float(np.diff(js, 2).max(initial=-math.inf))


@_register("qubit/zero-noise-variant-agreement", 1e-10)
def _zero_noise_variant_agreement(rng):
    low, high = _qubit_ranges()
    for k in _stack_sizes(100):
        # A random_qubit_state, then random_qubit_params's eta alone.
        p, u, phi, eta = rng.uniform(low[:4], high[:4], (k, 4)).T
        rho = qubit.QubitStack(p, _coherences(p, u, phi), eta, 0.0).dilated_state()
        yield abs(
            qubit.dilation_coherent_information(rho, "direct")
            - qubit.dilation_coherent_information(rho, "extended")
        )


_VARIANTS = tuple(bounds.VARIANT_FACTORS)


def _per_variant(columns: list[np.ndarray], label: Callable[[int], str]):
    """A stack's deviations, one column per variant of ``_VARIANTS`` (each
    point's direct, then extended), labelled by the variant, then ``label``
    of the point's index in the stack."""
    return _interleave(columns, lambda i, v: f"{_VARIANTS[v]} {label(i)}")


@_register("qubit/diagonal-closed-form-vs-dilation", 1e-12)
def _diagonal_closed_form_vs_dilation(rng):
    edges = [(p, e, n) for p in (0.0, 1.0) for e in (0.0, 0.5, 1.0) for n in (0.0, 0.5)]
    draws = rng.uniform((0.0, 0.0, 0.0), (1.0, 1.0, 0.5), (120, 3)).tolist()
    for batch in _batches(edges + draws):
        p, eta, noise = _columns(batch)
        params = [bounds.QubitAttenuatorParams(e, n) for _, e, n in batch]
        rho = qubit.QubitStack(p, 0.0, eta, noise).dilated_state()
        devs = [
            abs(
                np.array([bounds.coherent_information_diagonal(x, c, variant) for x, c in zip(p.tolist(), params)])
                - qubit.dilation_coherent_information(rho, variant)
            )
            for variant in _VARIANTS
        ]
        yield _per_variant(devs, lambda i: "p={:.6f} eta={:.6f} N={:.6f}".format(*batch[i]))


# ---------------------------------------------------------------------------
# gaussian


@_register("gaussian/attenuator-composition", 1e-12)
def _attenuator_composition(rng):
    draws = ((_gaussian_draw(rng), *rng.uniform(0, 1, size=2), rng.uniform(0, 2)) for _ in range(100))
    for batch in _batches(draws):
        s = gaussian.GaussianState(*_gaussian_moments([d[0] for d in batch]))
        e1, e2, noise = _columns(batch, 1)
        two = gaussian.apply_attenuator_gaussian(gaussian.apply_attenuator_gaussian(s, e1, noise), e2, noise)
        yield _gaussian_dev(two, gaussian.apply_attenuator_gaussian(s, e1 * e2, noise))


@_register("gaussian/weak-degradability", 1e-12)
def _gaussian_weak_degradability(rng):
    draws = ((_gaussian_draw(rng), rng.uniform(0.5, 1), rng.uniform(0, 2)) for _ in range(100))
    for batch in _batches(draws):
        s = gaussian.GaussianState(*_gaussian_moments([d[0] for d in batch]))
        eta, noise = _columns(batch, 1)
        degraded = gaussian.apply_attenuator_gaussian(
            gaussian.apply_attenuator_gaussian(s, eta, noise), (1.0 - eta) / eta, noise
        )
        yield _gaussian_dev(degraded, gaussian.apply_attenuator_gaussian(s, 1.0 - eta, noise))


@_register("gaussian/extended-sign-identity", 1e-9)
def _extended_sign_identity(rng):
    draws = ((rng.uniform(0, 100), rng.uniform(0, 1), rng.uniform(0, 2)) for _ in range(100))
    for batch in _batches(draws):
        n, eta, noise = _columns(batch)
        dev = abs(
            gaussian.coherent_information_gaussian(n, eta, noise, "extended")
            + gaussian.coherent_information_gaussian(n, 1.0 - eta, noise, "direct")
        )
        yield dev, lambda i: "n={:.4f} eta={:.6f} N={:.6f}".format(*batch[i])


_ENERGY_POINTS = ((0.8, 0.2), (0.7, 0.5), (0.95, 1.0))


def _energy_rates(eta: float, noise: float) -> np.ndarray:
    """Extended-channel rates at input energies 1, 10, ..., 1e5."""
    return gaussian.coherent_information_gaussian(np.array([10.0**k for k in range(6)]), eta, noise, "extended")


@_register("gaussian/energy-monotonicity", 1e-12, floor=-math.inf)
def _energy_monotonicity():
    for eta, noise in _ENERGY_POINTS:
        values = _energy_rates(eta, noise)
        yield values[:-1] - values[1:]


@_register("gaussian/energy-limit-agreement", 1e-3)
def _energy_limit_agreement():
    for eta, noise in _ENERGY_POINTS:
        yield abs(_energy_rates(eta, noise)[-1] - bounds.gauss_upper_extended(eta, noise))


@_register("gaussian/purification-purity-and-marginals", 1e-9)
def _purification_purity_and_marginals():
    noise = np.array([0.0, 0.1, 0.3, 0.5, 1.0, 2.0, 3.0])
    tms = gaussian.two_mode_squeezed_cov(noise)
    purity = np.abs(gaussian.symplectic_eigenvalues(tms) - 1.0).max(axis=-1)
    marginal = _stack_max_abs(gaussian.mode_marginal(tms, (1,)).cov, (2 * noise + 1)[:, None, None] * np.eye(2))
    yield np.stack([purity, marginal], axis=-1).ravel()  # each noise's purity, then its marginal


@_register("gaussian/twisted-reconstruction", 1e-12)
def _twisted_reconstruction(rng):
    draws = ((random_non_breaking_params(rng), _gaussian_draw(rng)) for _ in range(100))
    for batch in _batches(draws):
        s = gaussian.GaussianState(*_gaussian_moments([d for _, d in batch]))
        params = gaussian.PhaseInsensitiveParams(*_columns([(p.tau, p.y) for p, _ in batch]))
        factors = [gaussian.twisted_decompose(p) for p, _ in batch]
        eta_p, kappa_p = _columns([(f.eta_prime, f.kappa_prime) for f in factors])
        rebuilt = gaussian.apply_attenuator_gaussian(gaussian.apply_amplifier_gaussian(s, kappa_p, 0.0), eta_p, 0.0)
        tau, y = params.tau, params.y
        # The factors themselves: eta' = (1 + tau - y)/2 and kappa' = tau/eta'.
        columns = [
            _gaussian_dev(rebuilt, gaussian.apply_phase_insensitive(s, params)),
            abs(eta_p - (1.0 + tau - y) / 2.0),
            abs(kappa_p - tau / eta_p) / np.maximum(1.0, tau),
        ]
        yield _interleave(columns, lambda i, _: f"tau={tau[i]:.6f} y={y[i]:.6f}")


@_register("gaussian/balanced-splitter-zero-slices", 1e-9)
def _balanced_splitter_zero_slices():
    yield abs(gaussian.coherent_information_gaussian(0.0, 0.5, np.array([0.0, 0.3, 1.5, 1.7]), "extended"))
    yield abs(gaussian.coherent_information_gaussian(np.array([0.5, 3.0, 4.0, 40.0, 50.0]), 0.5, 0.0, "extended"))


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
    for point, anchors in (((0.9, 0.1), GAUSS_ANCHORS_09_01), ((7.6e-296, 2.7e-3), GAUSS_ANCHORS_PLOB_GUARD)):
        for name, anchor in anchors.items():
            fn = bounds.gauss_lower if name == "lower" else getattr(bounds, f"gauss_upper_{name}")
            yield abs(fn(*point) - anchor), "{} eta={} N={}".format(name, *point)


@_register("bounds/gaussian-sandwich-grid", 1e-9)
def _gaussian_sandwich_grid():
    # One row of deviations per eta, labelled only where the registry keeps one.
    noises = bounds.grid(0.0, 5.0, 0.01)
    eta_terms, noise_terms = bounds._axis_terms(_ETAS, noises)
    lower, extended, twist, plob, swat = bounds._lower, bounds._extended, bounds._twist, bounds._plob, bounds._swat
    for eta, (u, log_ratio, neg_log2_u, log2_eta) in zip(_ETAS, eta_terms):
        devs = [
            lower(log_ratio, g) - min(
                extended(log_ratio, g),
                twist(eta, u, noise),
                plob(eta, u, neg_log2_u, log2_eta, noise, g),
                swat(log_ratio, log2_n1),
            )
            for noise, (g, log2_n1) in zip(noises, noise_terms)
        ]
        yield np.array(devs), lambda i: f"eta={eta:.2f} N={noises[i]:.2f}"


@_register("bounds/twist-dominance-grid", 1e-9)
def _twist_dominance_grid():
    noises = bounds.grid(0.0, 5.0, 0.1)
    eta_terms, noise_terms = bounds._axis_terms(_ETAS, noises)
    for eta, (u, log_ratio, _, _) in zip(_ETAS, eta_terms):
        for noise, (g, log2_n1) in zip(noises, noise_terms):
            if bounds.entanglement_breaking(eta, noise):
                continue
            tw = bounds._twist(eta, u, noise)
            where = f"eta={eta:.2f} N={noise:.2f}"
            yield tw - bounds._extended(log_ratio, g), where
            yield tw - bounds._swat(log_ratio, log2_n1), where


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
        reports = list(bounds.reports(kind, grid, [noise]))
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
    # On the boundary N = eta/(1-eta), exact at these points, which breaks
    # entanglement: every entry is 0, though the extended formula alone
    # gives 2.0 and 4.83 there.
    for eta, noise in ((0.5, 1.0), (0.75, 3.0)):
        r = bounds.report(bounds.GAUSSIAN, eta, noise)
        yield max(abs(r.gap), abs(r.lower), abs(r.best_upper), *map(abs, r.uppers.values())), f"eta={eta} N={noise}"


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
def _coherent_inputs_below_diagonal_max(rng):
    # The paper's claim that diagonal inputs are optimal (qubit_lower's
    # docstring): the dilation's coherent information of inputs with
    # gamma != 0 against the report's maximum over diagonal inputs, for each
    # variant.  Registered after the 33 checks above; the qubit suite runs it.
    low, high = _qubit_ranges()

    def draws():
        for eta, noise in _QUBIT_POINTS:
            r = bounds.report(bounds.QUBIT, eta, noise)
            # The values of 50 random_qubit_state calls, from one generator call.
            p, u, phi = rng.uniform(low[:3], high[:3], (50, 3)).T
            for x, gamma in zip(p.tolist(), _coherences(p, u, phi)):
                if gamma != 0:
                    yield x, gamma, eta, noise, r.lower, r.uppers["extended"]

    for batch in _batches(draws()):
        p, gamma, eta, noise, *diagonal_max = _columns(batch)  # one maximum per variant
        stack = qubit.QubitStack(p, gamma, eta, noise)
        rho = stack.dilated_state()
        devs = [qubit.dilation_coherent_information(rho, v) - m for v, m in zip(_VARIANTS, diagonal_max)]
        yield _per_variant(devs, lambda i: _qubit_where(stack, i))


@_register("bounds/qubit-short-circuit-anchors", 1e-14)
def _qubit_short_circuit_anchors():
    # Registered after the 34 checks above.
    for (eta, noise), anchor in QUBIT_SHORT_CIRCUIT_ANCHORS.items():
        for name, bound in (("lower", bounds.qubit_lower), ("extended", bounds.qubit_upper_extended)):
            yield abs(bound(eta, noise) - anchor), f"eta={eta} N={noise} {name}"


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
    "bounds": (bounds_suite,),
    "all": (linalg_suite, qubit_suite, gaussian_suite, bounds_suite),
}


def run_suite(name: str, timings: Timings | None = None) -> list[CheckResult]:
    """Run one named suite ('linalg', 'qubit', 'gaussian', 'bounds', or 'all').

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
