"""Seeded, reproducible property suites behind the ``verify`` command.

Each check exercises one invariant of the package against an independent
route (closed form, alternative decomposition, brute-force dilation) and
reports its worst observed deviation.  Seeds are fixed so repeated runs are
identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, gaussian, linalg, qubit
from .optimize import maximize_scalar

# High-precision anchors for the gaussian closed forms at (eta, N) = (0.9, 0.1),
# evaluated with 50-digit arithmetic.
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


def _check(name: str, worst: float, tol: float, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(worst <= tol), float(worst), tol, detail)


def _random_density(rng: np.random.Generator, dims: tuple[int, ...]) -> linalg.DensityMatrix:
    d = math.prod(dims)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return linalg.DensityMatrix(rho / rho.trace(), dims)


def _random_unitary2(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_qubit_state(rng: np.random.Generator) -> qubit.QubitState:
    p = rng.uniform(0.0, 1.0)
    r = math.sqrt(rng.uniform(0.0, 1.0) * p * (1.0 - p))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return qubit.QubitState(p, r * complex(math.cos(phi), math.sin(phi)))


def _random_gaussian_state(rng: np.random.Generator) -> gaussian.GaussianState:
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


def _random_non_breaking_params(rng: np.random.Generator) -> gaussian.PhaseInsensitiveParams:
    tau = rng.uniform(0.05, 3.0)
    floor = abs(1.0 - tau)
    ceil = 1.0 + tau
    y = floor + rng.uniform(0.0, 0.999) * (ceil - floor)
    return gaussian.PhaseInsensitiveParams(tau, y)


# ---------------------------------------------------------------------------
# linalg


def linalg_suite() -> list[CheckResult]:
    rng = np.random.default_rng(20240401)
    out = []

    sz = np.diag([1.0, -1.0]).astype(complex)
    dev = np.abs(linalg.kron(sz, sz) - np.diag([1.0, -1.0, -1.0, 1.0])).max()
    dev = max(dev, np.abs(linalg.kron(np.eye(2), np.eye(2)) - np.eye(4)).max())
    out.append(_check("linalg/kron-products", dev, 1e-15))

    worst = 0.0
    for _ in range(200):
        rho = _random_density(rng, (2, 2, 2))
        joint = linalg.partial_trace(rho, {1})
        step = linalg.partial_trace(linalg.partial_trace(rho, {0, 1}), {1})
        alt = linalg.partial_trace(linalg.partial_trace(rho, {1, 2}), {0})
        dev = max(
            np.abs(joint.matrix - step.matrix).max(),
            np.abs(joint.matrix - alt.matrix).max(),
        )
        if dev > worst:
            worst = dev
    out.append(_check("linalg/partial-trace-composition", worst, 1e-12))

    worst = 0.0
    for _ in range(100):
        rho = _random_density(rng, (2, 2, 2))
        u = linalg.kron(linalg.kron(_random_unitary2(rng), _random_unitary2(rng)), _random_unitary2(rng))
        rotated = linalg.DensityMatrix(u @ rho.matrix @ u.conj().T, rho.dims)
        dev = abs(linalg.von_neumann_entropy(rotated) - linalg.von_neumann_entropy(rho))
        worst = max(worst, dev)
    out.append(_check("linalg/entropy-unitary-invariance", worst, 1e-9))

    worst = 0.0
    for _ in range(200):
        rho = _random_density(rng, (4,))
        worst = max(worst, abs(linalg.hermitian_eigenvalues(rho.matrix).sum() - 1.0))
    out.append(_check("linalg/eigenvalue-sum-to-one", worst, 1e-10))

    worst = 0.0
    for _ in range(300):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = (g + g.conj().T) / 2.0
        mean = (h[0, 0].real + h[1, 1].real) / 2.0
        radius = math.hypot((h[0, 0].real - h[1, 1].real) / 2.0, abs(h[0, 1]))
        roots = np.array([mean + radius, mean - radius])
        worst = max(worst, np.abs(linalg.hermitian_eigenvalues(h) - roots).max())
    out.append(_check("linalg/jacobi-vs-quadratic-roots", worst, 1e-12))

    m = qubit.extended_output(
        qubit.QubitState(0.5), qubit.QubitAttenuatorParams(0.8, 0.1)
    ).matrix
    dev = np.abs(
        linalg.hermitian_eigenvalues(m) - _charpoly_roots_descending(m)
    ).max()
    out.append(_check("linalg/jacobi-vs-charpoly-roots", dev, 1e-10))

    return out


def _charpoly_roots_descending(m: np.ndarray) -> np.ndarray:
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
# qubit


def qubit_suite() -> list[CheckResult]:
    rng = np.random.default_rng(20240402)
    out = []

    worst, where = 0.0, ""
    for _ in range(1000):
        s = _random_qubit_state(rng)
        c = qubit.QubitAttenuatorParams(rng.uniform(0, 1), rng.uniform(0, 0.5))
        b = linalg.partial_trace(qubit.dilated_state(s, c), {0})
        expected = qubit.apply_attenuator(s, c).to_density_matrix()
        dev = np.abs(b.matrix - expected.matrix).max()
        if dev > worst:
            worst, where = dev, f"p={s.p:.6f} |g|={abs(s.gamma):.6f} eta={c.eta:.6f} N={c.noise:.6f}"
    out.append(_check("qubit/dilation-marginal-consistency", worst, 1e-12, where))

    worst, where = 0.0, ""
    for _ in range(1000):
        s = _random_qubit_state(rng)
        c = qubit.QubitAttenuatorParams(rng.uniform(0, 1), rng.uniform(0, 0.5))
        dev = max(
            np.abs(qubit.extended_output(s, c).matrix - qubit.extended_output_closed_form(s, c)).max(),
            np.abs(
                qubit.weak_complementary_output(s, c).matrix
                - qubit.weak_complementary_closed_form(s, c)
            ).max(),
        )
        if dev > worst:
            worst, where = dev, f"p={s.p:.6f} |g|={abs(s.gamma):.6f} eta={c.eta:.6f} N={c.noise:.6f}"
    out.append(_check("qubit/closed-form-marginals", worst, 1e-12, where))

    worst, where = 0.0, ""
    for _ in range(500):
        s = _random_qubit_state(rng)
        c = qubit.QubitAttenuatorParams(rng.uniform(0.5, 1), rng.uniform(0, 0.5))
        degraded = qubit.phase_damping(
            qubit.apply_attenuator(
                qubit.apply_attenuator(s, c),
                qubit.QubitAttenuatorParams((1.0 - c.eta) / c.eta, c.noise),
            ),
            1.0 - 2.0 * c.noise,
        )
        dev = np.abs(
            degraded.to_density_matrix().matrix - qubit.weak_complementary_output(s, c).matrix
        ).max()
        if dev > worst:
            worst, where = dev, f"p={s.p:.6f} |g|={abs(s.gamma):.6f} eta={c.eta:.6f} N={c.noise:.6f}"
    out.append(_check("qubit/weak-degradability", worst, 1e-12, where))

    worst = 0.0
    for _ in range(100):
        s = _random_qubit_state(rng)
        c = qubit.QubitAttenuatorParams(rng.uniform(0, 1), rng.uniform(0, 0.5))
        flipped = qubit.QubitState(s.p, -s.gamma)
        dev = abs(
            qubit.coherent_information_qubit(s, c, "extended")
            - qubit.coherent_information_qubit(flipped, c, "extended")
        )
        worst = max(worst, dev)
    out.append(_check("qubit/phase-flip-symmetry", worst, 1e-10))

    worst = 0.0
    for eta, noise in ((0.7, 0.1), (0.9, 0.25), (0.6, 0.4)):
        c = qubit.QubitAttenuatorParams(eta, noise)
        ps = np.linspace(0.0, 1.0, 41)
        js = [qubit.coherent_information_qubit(qubit.QubitState(p), c, "extended") for p in ps]
        second = np.diff(js, 2)
        worst = max(worst, float(second.max(initial=-math.inf)))
    out.append(_check("qubit/population-concavity", worst, 1e-8))

    worst = 0.0
    for _ in range(100):
        s = _random_qubit_state(rng)
        c = qubit.QubitAttenuatorParams(rng.uniform(0, 1), 0.0)
        dev = abs(
            qubit.coherent_information_qubit(s, c, "direct")
            - qubit.coherent_information_qubit(s, c, "extended")
        )
        worst = max(worst, dev)
    out.append(_check("qubit/zero-noise-variant-agreement", worst, 1e-10))

    worst, where = 0.0, ""
    edges = [(p, e, n) for p in (0.0, 1.0) for e in (0.0, 0.5, 1.0) for n in (0.0, 0.5)]
    draws = [(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 0.5)) for _ in range(120)]
    for p, eta, noise in edges + draws:
        c = qubit.QubitAttenuatorParams(eta, noise)
        for variant in ("direct", "extended"):
            dev = abs(
                qubit.coherent_information_diagonal(p, c, variant)
                - qubit.coherent_information_qubit(qubit.QubitState(p), c, variant)
            )
            if dev > worst:
                worst, where = dev, f"{variant} p={p:.6f} eta={eta:.6f} N={noise:.6f}"
    out.append(_check("qubit/diagonal-closed-form-vs-dilation", worst, 1e-12, where))

    return out


# ---------------------------------------------------------------------------
# gaussian


def gaussian_suite() -> list[CheckResult]:
    rng = np.random.default_rng(20240403)
    out = []

    worst = 0.0
    for _ in range(100):
        s = _random_gaussian_state(rng)
        e1, e2 = rng.uniform(0, 1, size=2)
        noise = rng.uniform(0, 2)
        two = gaussian.apply_attenuator_gaussian(
            gaussian.apply_attenuator_gaussian(s, e1, noise), e2, noise
        )
        one = gaussian.apply_attenuator_gaussian(s, e1 * e2, noise)
        dev = max(np.abs(two.mean - one.mean).max(), np.abs(two.cov - one.cov).max())
        worst = max(worst, dev)
    out.append(_check("gaussian/attenuator-composition", worst, 1e-12))

    worst = 0.0
    for _ in range(100):
        s = _random_gaussian_state(rng)
        eta = rng.uniform(0.5, 1)
        noise = rng.uniform(0, 2)
        degraded = gaussian.apply_attenuator_gaussian(
            gaussian.apply_attenuator_gaussian(s, eta, noise), (1.0 - eta) / eta, noise
        )
        target = gaussian.apply_attenuator_gaussian(s, 1.0 - eta, noise)
        dev = max(np.abs(degraded.mean - target.mean).max(), np.abs(degraded.cov - target.cov).max())
        worst = max(worst, dev)
    out.append(_check("gaussian/weak-degradability", worst, 1e-12))

    worst, where = 0.0, ""
    for _ in range(100):
        n = rng.uniform(0, 100)
        eta = rng.uniform(0, 1)
        noise = rng.uniform(0, 2)
        dev = abs(
            gaussian.coherent_info_extended_gaussian(n, eta, noise)
            + gaussian.coherent_info_attenuator_gaussian(n, 1.0 - eta, noise)
        )
        if dev > worst:
            worst, where = dev, f"n={n:.4f} eta={eta:.6f} N={noise:.6f}"
    out.append(_check("gaussian/extended-sign-identity", worst, 1e-9, where))

    worst_drop = -math.inf
    worst_limit = 0.0
    for eta, noise in ((0.8, 0.2), (0.7, 0.5), (0.95, 1.0)):
        values = [gaussian.coherent_info_extended_gaussian(10.0**k, eta, noise) for k in range(6)]
        worst_drop = max(worst_drop, max(values[i] - values[i + 1] for i in range(5)))
        limit = math.log2(eta / (1 - eta)) + gaussian.g_function(noise)
        worst_limit = max(worst_limit, abs(values[-1] - limit))
    out.append(_check("gaussian/energy-monotonicity", worst_drop, 1e-12))
    out.append(_check("gaussian/energy-limit-agreement", worst_limit, 1e-3))

    worst = 0.0
    for noise in (0.0, 0.1, 0.5, 1.0, 3.0):
        tms = gaussian.two_mode_squeezed_cov(noise)
        nus = gaussian.symplectic_eigenvalues(tms.cov)
        worst = max(worst, float(np.abs(nus - 1.0).max()))
        marg = gaussian.mode_marginal(tms, (1,))
        worst = max(worst, float(np.abs(marg.cov - (2 * noise + 1) * np.eye(2)).max()))
    out.append(_check("gaussian/purification-purity-and-marginals", worst, 1e-9))

    worst, where = 0.0, ""
    for _ in range(100):
        params = _random_non_breaking_params(rng)
        s = _random_gaussian_state(rng)
        factors = gaussian.twisted_decompose(params)
        rebuilt = gaussian.apply_attenuator_gaussian(
            gaussian.apply_amplifier_gaussian(s, factors.kappa_prime, 0.0),
            factors.eta_prime,
            0.0,
        )
        direct = gaussian.apply_phase_insensitive(s, params)
        dev = max(np.abs(rebuilt.mean - direct.mean).max(), np.abs(rebuilt.cov - direct.cov).max())
        if dev > worst:
            worst, where = dev, f"tau={params.tau:.6f} y={params.y:.6f}"
    out.append(_check("gaussian/twisted-reconstruction", worst, 1e-12, where))

    worst = 0.0
    for noise in (0.0, 0.3, 1.5):
        worst = max(worst, abs(gaussian.coherent_info_extended_gaussian(0.0, 0.5, noise)))
    for n in (0.5, 4.0, 50.0):
        worst = max(worst, abs(gaussian.coherent_info_extended_gaussian(n, 0.5, 0.0)))
    out.append(_check("gaussian/balanced-splitter-zero-slices", worst, 1e-9))

    dev = max(
        abs(gaussian.g_function(0.0)),
        abs(gaussian.g_function(1.0) - 2.0),
        abs(gaussian.g_function(0.5) - 1.3774437510817343),
    )
    out.append(_check("gaussian/thermal-entropy-anchors", dev, 1e-12))

    return out


# ---------------------------------------------------------------------------
# bounds (part of the "all" suite)


def bounds_suite() -> list[CheckResult]:
    out = []

    worst = 0.0
    for name, anchor in GAUSS_ANCHORS_09_01.items():
        fn = bounds.gauss_lower if name == "lower" else getattr(bounds, f"gauss_upper_{name}")
        worst = max(worst, abs(fn(0.9, 0.1) - anchor))
    out.append(_check("bounds/gaussian-closed-form-anchors", worst, 1e-5))

    worst, where = 0.0, ""
    etas = np.arange(0.51, 0.9951, 0.01)
    noises = np.arange(0.0, 5.001, 0.01)
    for eta in etas:
        for noise in noises:
            lo = bounds.gauss_lower(eta, noise)
            for up in (
                bounds.gauss_upper_extended(eta, noise),
                bounds.gauss_upper_twist(eta, noise),
                bounds.gauss_upper_plob(eta, noise),
                bounds.gauss_upper_swat(eta, noise),
            ):
                dev = lo - up
                if dev > worst:
                    worst, where = dev, f"eta={eta:.2f} N={noise:.2f}"
    out.append(_check("bounds/gaussian-sandwich-grid", worst, 1e-9, where))

    worst, where = 0.0, ""
    for eta in etas:
        for noise in np.arange(0.0, 5.001, 0.1):
            if noise >= eta / (1.0 - eta):
                continue
            tw = bounds.gauss_upper_twist(eta, noise)
            dev = max(
                tw - bounds.gauss_upper_extended(eta, noise),
                tw - bounds.gauss_upper_swat(eta, noise),
            )
            if dev > worst:
                worst, where = dev, f"eta={eta:.2f} N={noise:.2f}"
    out.append(_check("bounds/twist-dominance-grid", worst, 1e-9, where))

    margin = 1e-5
    crossover = max(
        bounds.gauss_upper_twist(0.7, 0.1) - bounds.gauss_upper_plob(0.7, 0.1) + margin,
        bounds.gauss_upper_plob(0.9, 0.1) - bounds.gauss_upper_twist(0.9, 0.1) + margin,
    )
    out.append(_check("bounds/plob-twist-crossover", crossover, 0.0))

    worst, where = 0.0, ""
    for eta in (0.55, 0.65, 0.75, 0.85, 0.95):
        for noise in (0.0, 0.01, 0.1, 0.25):
            dev = bounds.qubit_lower(eta, noise) - bounds.qubit_upper_extended(eta, noise)
            if dev > worst:
                worst, where = dev, f"eta={eta} N={noise}"
    out.append(_check("bounds/qubit-sandwich-grid", worst, 1e-7, where))

    worst = 0.0
    for eta in (0.55, 0.65, 0.75, 0.85, 0.95):
        worst = max(worst, abs(bounds.qubit_upper_extended(eta, 0.0) - bounds.qubit_lower(eta, 0.0)))
    out.append(_check("bounds/zero-noise-gap-closure", worst, 1e-6))

    worst = 0.0
    for eta in np.arange(0.51, 0.9951, 0.02):
        for noise in (0.0, 0.05, 0.2, 1.0):
            if noise >= eta / (1.0 - eta):
                continue
            eta_p = eta - noise * (1.0 - eta)
            direct = max(0.0, math.log2((eta - noise * (1 - eta)) / ((1 + noise) * (1 - eta))))
            via_factors = bounds.gauss_upper_twist(eta, noise)
            worst = max(worst, abs(direct - via_factors), abs(eta_p - (1 + eta - (1 - eta) * (2 * noise + 1)) / 2))
    out.append(_check("bounds/bottleneck-consistency", worst, 1e-12))

    res = maximize_scalar(lambda x: -((x - 0.3) ** 2), 0.0, 1.0, 1e-9)
    out.append(_check("bounds/optimizer-quadratic-anchor", abs(res.argmax - 0.3), 1e-8))

    worst, where = 0.0, ""
    for kind, noise in ((bounds.QUBIT, 0.01), (bounds.QUBIT, 0.1), (bounds.GAUSSIAN, 0.1), (bounds.GAUSSIAN, 0.5)):
        stop = 0.95 if kind == bounds.QUBIT else 0.99
        slack = 1e-7 if kind == bounds.QUBIT else 1e-12
        grid = [0.5 + 0.01 * k for k in range(int(round((stop - 0.5) / 0.01)) + 1)]
        reports = [bounds.report(kind, eta, noise) for eta in grid]
        columns = {"lower": [r.lower for r in reports], "best_upper": [r.best_upper for r in reports]}
        for name in reports[0].uppers:
            columns[f"upper_{name}"] = [r.uppers[name] for r in reports]
        for name, col in columns.items():
            for i in range(1, len(col)):
                dev = col[i - 1] - col[i] - slack
                if dev > worst:
                    worst, where = dev, f"{kind} N={noise} column={name} eta={grid[i]:.2f}"
    out.append(_check("bounds/eta-monotonicity-sweeps", worst, 0.0, where))

    worst = 0.0
    for eta in np.arange(0.5, 1.0, 0.02):
        for noise in np.arange(0.0, 5.001, 0.25):
            zero_capacity = eta <= 0.5 or (eta < 1.0 and noise >= eta / (1.0 - eta))
            if zero_capacity:
                r = bounds.report(bounds.GAUSSIAN, eta, noise)
                worst = max(worst, abs(r.gap), abs(r.lower), abs(r.best_upper))
    out.append(_check("bounds/zero-capacity-region-gap", worst, 1e-15))

    return out


SUITES = {
    "linalg": (linalg_suite,),
    "qubit": (qubit_suite,),
    "gaussian": (gaussian_suite,),
    "all": (linalg_suite, qubit_suite, gaussian_suite, bounds_suite),
}


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite ('linalg', 'qubit', 'gaussian', or 'all')."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    results = []
    for fn in SUITES[name]:
        results.extend(fn())
    return results
