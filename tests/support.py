"""Reference values and helpers shared by several test modules.

Not a test module itself: pytest collects only ``test_*.py``, and its
default import mode puts this directory on ``sys.path``, so a test module
imports these names with ``from support import ...``.
"""

import os
import pathlib

import tabounds

# 50-digit evaluations of the closed forms (mpmath, dps=50).
TWIST_07_01 = 1.021695071099319
PLOB_07_01 = 1.3049762258355174
G_01 = 0.48344668561366463  # g(0.1), the thermal entropy

BOSONIC_BOUNDS = ("gauss_lower", "gauss_upper_extended", "gauss_upper_twist", "gauss_upper_plob", "gauss_upper_swat")


def mp_bosonic_bounds(eta, noise):
    """The five bosonic bounds at the exact doubles (eta, noise), in 50-digit
    mpmath and before any entanglement-breaking short-circuit."""
    import mpmath

    with mpmath.workdps(50):
        e, n = mpmath.mpf(eta), mpmath.mpf(noise)
        u = 1 - e
        g = ((n + 1) * mpmath.log1p(n) - n * mpmath.log(n)) / mpmath.log(2) if n > 0 else 0
        ratio = mpmath.log(e / u, 2)
        twist = (e - n * u) / ((1 + n) * u)
        values = (
            ratio - g,
            ratio + g,
            mpmath.log(twist, 2) if twist > 1 else 0,
            -mpmath.log(u, 2) - n * mpmath.log(e, 2) - g,
            ratio - mpmath.log(n + 1, 2),
        )
        return {name: float(max(0, v)) for name, v in zip(BOSONIC_BOUNDS, values)}


def mp_entropy(m):
    """The von Neumann entropy in bits of the exact double matrix ``m``, in
    50-digit mpmath, its nonpositive eigenvalues dropped."""
    import mpmath

    with mpmath.workdps(50):
        w = mpmath.eighe(mpmath.matrix(m.tolist()), eigvals_only=True)
        return float(-sum(x * mpmath.log(x, 2) for x in w if x > 0))


def mp_amplitude_damping_capacity(eta):
    """The qubit attenuator's capacity at zero noise (the amplitude-damping
    channel) for 1/2 < eta < 1, in 50-digit mpmath: the maximum over p of
    h(eta p) - h((1-eta) p), with h the binary entropy in bits, at the root
    of its derivative, which is positive near p = 0 and negative at p = 1."""
    import mpmath

    with mpmath.workdps(50):
        e = mpmath.mpf(eta)

        def h(x):
            return -(x * mpmath.log(x, 2) + (1 - x) * mpmath.log(1 - x, 2))

        def slope(p):
            return e * mpmath.log((1 - e * p) / (e * p)) - (1 - e) * mpmath.log((1 - (1 - e) * p) / ((1 - e) * p))

        p = mpmath.findroot(slope, (mpmath.mpf("1e-9"), mpmath.mpf(1)), solver="illinois")
        return float(h(e * p) - h((1 - e) * p))


def child_env():
    """The environment for a child interpreter that must import the same
    tabounds as this process, installed or not."""
    src = str(pathlib.Path(tabounds.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
