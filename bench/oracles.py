"""Reference values the benchmark checks the program's outputs against.

Each oracle is computed here from first principles, independently of the
tabounds code paths it checks:

* the qubit bounds come from a brute-force beamsplitter dilation built in
  numpy and maximized over a dense, twice-refined population grid;
* the zero-noise qubit capacity is the amplitude-damping capacity
  max_p h2(eta p) - h2((1 - eta) p), maximized the same way;
* the bosonic rows come from the closed forms evaluated with 50-digit mpmath.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

GRID_POINTS = 1025
GRID_LEVELS = 3


def grid_max(f, lo: float = 0.0, hi: float = 1.0) -> float:
    """Maximum of a vectorised ``f`` on [lo, hi] by repeated dense grids.

    Each level evaluates GRID_POINTS equally spaced points and narrows the
    interval to two grid steps either side of the best one.
    """
    best = -math.inf
    for _ in range(GRID_LEVELS):
        xs = np.linspace(lo, hi, GRID_POINTS)
        ys = f(xs)
        i = int(np.argmax(ys))
        best = max(best, float(ys[i]))
        step = (hi - lo) / (GRID_POINTS - 1)
        lo, hi = max(lo, xs[i] - 2 * step), min(hi, xs[i] + 2 * step)
    return best


def _entropy_bits(mats: np.ndarray) -> np.ndarray:
    w = np.clip(np.linalg.eigvalsh(mats), 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0.0, -w * np.log2(w), 0.0)
    return terms.sum(axis=-1)


def _dilation_branches(eta: float, noise: float) -> tuple[np.ndarray, np.ndarray]:
    """Output projectors on (B, F, E') for the input basis states |0> and |1>.

    The environment starts in sqrt(1-N)|00> + sqrt(N)|11> on (E, E'); the
    beamsplitter mixes the one-excitation subspace of (A, E) with amplitude
    sqrt(eta) and leaves |00> and |11> alone.
    """
    r, t = math.sqrt(eta), math.sqrt(1.0 - eta)
    u_ae = np.array([[1, 0, 0, 0], [0, r, t, 0], [0, -t, r, 0], [0, 0, 0, 1]], dtype=float)
    u = np.kron(u_ae, np.eye(2))
    env = np.zeros(4)
    env[0], env[3] = math.sqrt(1.0 - noise), math.sqrt(noise)
    out = []
    for a in (0, 1):
        ket = u @ np.kron(np.eye(2)[a], env)
        out.append(np.outer(ket, ket))
    return out[0], out[1]


def qubit_rates(eta: float, noise: float, ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direct S(B) - S(F,E') and extended S(B,E') - S(F) rates for diagonal inputs."""
    p0, p1 = _dilation_branches(eta, noise)
    ps = np.asarray(ps, dtype=float)[:, None, None]
    rho = ((1.0 - ps) * p0 + ps * p1).reshape(-1, 2, 2, 2, 2, 2, 2)
    k = rho.shape[0]
    s_b = _entropy_bits(np.einsum("kbfeBfe->kbB", rho))
    s_fe = _entropy_bits(np.einsum("kbfebFE->kfeFE", rho).reshape(k, 4, 4))
    s_be = _entropy_bits(np.einsum("kbfeBfE->kbeBE", rho).reshape(k, 4, 4))
    s_f = _entropy_bits(np.einsum("kbfebFe->kfF", rho))
    return s_b - s_fe, s_be - s_f


def qubit_bounds(eta: float, noise: float) -> tuple[float, float]:
    """(lower, extended upper) of the qubit attenuator, clamped at zero."""
    lower = grid_max(lambda ps: qubit_rates(eta, noise, ps)[0])
    upper = grid_max(lambda ps: qubit_rates(eta, noise, ps)[1])
    return max(0.0, lower), max(0.0, upper)


def _h2(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.where((x > 0.0) & (x < 1.0), terms, 0.0)


def amplitude_damping_capacity(eta: float) -> float:
    """Exact quantum capacity of the qubit attenuator at zero noise."""
    if eta <= 0.5:
        return 0.0
    return max(0.0, grid_max(lambda ps: _h2(eta * ps) - _h2((1.0 - eta) * ps)))


GAUSS_COLUMNS = ("lower", "extended", "twist", "plob", "swat", "best_upper", "gap")


def gaussian_row(eta: Fraction, noise: Fraction) -> list[dict[str, float]]:
    """Exact bosonic report values at (eta, N), as 50-digit mpmath rounded to float.

    Returns one dict per regime the point may fall in.  The report zeroes every
    bound at and beyond the entanglement-breaking threshold N >= eta/(1-eta),
    where the extended bound jumps; a point within 1e-12 of the threshold may
    be classified either way by double arithmetic, so both readings are given.
    """
    import mpmath

    inf = math.inf
    if eta == 1:
        return [dict.fromkeys(GAUSS_COLUMNS[:-1], inf) | {"gap": 0.0}]
    zero = dict.fromkeys(GAUSS_COLUMNS, 0.0)
    threshold = eta / (1 - eta)
    margin = Fraction(1, 10**12) * max(1, threshold)
    if eta == 0 or noise >= threshold + margin:
        return [zero]
    with mpmath.workdps(50):
        e = mpmath.mpf(eta.numerator) / eta.denominator
        n = mpmath.mpf(noise.numerator) / noise.denominator
        g = (n + 1) * mpmath.log(n + 1, 2) - (n * mpmath.log(n, 2) if n > 0 else 0)
        ratio = mpmath.log(e / (1 - e), 2)
        eta_p = e - n * (1 - e)
        twist = mpmath.log(eta_p / (1 - eta_p), 2) if eta_p > 0 else mpmath.mpf(0)
        vals = {
            "lower": max(0, ratio - g),
            "extended": max(0, ratio + g),
            "twist": max(0, twist),
            "plob": max(0, -mpmath.log(1 - e, 2) - n * mpmath.log(e, 2) - g),
            "swat": max(0, ratio - mpmath.log(n + 1, 2)),
        }
        vals["best_upper"] = min(vals[k] for k in ("extended", "twist", "plob", "swat"))
        vals["gap"] = max(0, vals["best_upper"] - vals["lower"])
        open_regime = {k: float(v) for k, v in vals.items()}
    if noise <= threshold - margin:
        return [open_regime]
    return [open_regime, zero]
