"""Dense complex linear algebra for small quantum systems, one matrix or a stack.

Partial traces over labelled tensor factors, validated Hermitian
eigenvalues, and von Neumann entropies.  Each function takes one matrix
``(d, d)`` or a stack ``(..., d, d)`` of matrices of the same factors, and
checks a stack once, against the same per-matrix tolerances; a single
matrix is the stack with no leading axes.  Every matrix of a stack gets the
bits it gets alone.  The matrices are small (the package's largest is the
8x8 qubit dilation): the cost is numpy's per-call overhead, which a stack
pays once.  Tensor products follow ``np.kron``, whose left factor is the
slowest-varying index: factor 0 of a ``DensityMatrix``.  ``_kron`` forms
them for stacks by broadcasting, which gives np.kron's bytes without its
per-call overhead; the qubit dilation and ``verify`` use it.  All entropies
throughout the package are in bits (base-2 logarithms).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from string import ascii_lowercase

import numpy as np

# Tolerances shared by the whole package.
HERMITIAN_ATOL = 1e-10      # admissible Hermiticity defect of eigensolver inputs
STATE_ATOL = 1e-12          # Hermiticity / unit-trace defect of density matrices
EIGENVALUE_FLOOR = -1e-10   # most negative eigenvalue tolerated before erroring


class InvalidStateError(ValueError):
    """Raised when a matrix violates the density-matrix requirements."""


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _first(bad: np.ndarray) -> str:
    """Where the first flagged matrix of a stack sits; empty for one matrix."""
    return f" at stack index {tuple(map(int, np.unravel_index(np.argmax(bad), bad.shape)))}" if bad.ndim else ""


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of each pair of matrices of two stacks, byte for byte.

    The same elementwise products that np.kron broadcasts, without its
    generic shape handling, which costs several times the arithmetic at
    these sizes.
    """
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (m * p, n * q))


def _hermiticity_defect(a: np.ndarray, axis=None) -> np.ndarray:
    """Largest entry of |a - a^H|, over a whole stack or along ``axis``."""
    return abs(a - _adjoint(a)).max(axis=axis, initial=0.0)


def _integers(values, what: str, error: type[Exception]) -> tuple[int, ...]:
    """``values`` as ints; a float (``2.0`` too) or string raises ``error`` naming ``what``."""
    values = tuple(values)
    for v in values:
        if not isinstance(v, numbers.Integral):
            raise error(f"{what} {v!r} is not an integer")
    return tuple(map(int, values))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian unit-trace matrix, or stack of them, with tensor-factor dimensions.

    ``matrix`` has shape ``(d, d)`` or ``(..., d, d)``.  ``dims`` lists the
    dimension of each tensor factor of one matrix, slowest-varying first, as
    integers (numpy integers included); their product must equal ``d``.
    Hermiticity and unit trace are checked on construction, for every matrix
    of a stack at once, and a non-finite entry fails them without a numpy
    warning.  An error names the first failing matrix of a stack.  Positive
    semidefiniteness is enforced where eigenvalues are actually computed
    (see :func:`von_neumann_entropy`), keeping construction cheap in inner
    loops.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        dims = _integers(self.dims, "dims entry", InvalidStateError)
        if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
            raise InvalidStateError(f"matrix must be square, got shape {m.shape}")
        if any(d < 1 for d in dims) or math.prod(dims) != m.shape[-1]:
            raise InvalidStateError(
                f"dims {dims} do not multiply to matrix dimension {m.shape[-1]}"
            )
        # Written as not (defect <= tol), so a nan entry fails too.  An infinite
        # diagonal fails the trace; an infinite off-diagonal pair forms inf - inf,
        # a nan defect, and errstate keeps numpy from warning about it.  The
        # largest defect of a stack is within tolerance exactly when each is.
        with np.errstate(invalid="ignore"):
            trace = m.trace(axis1=-2, axis2=-1)
            bad = ~(abs(trace - 1.0) <= STATE_ATOL)
            if bad.any():
                raise InvalidStateError(
                    f"matrix trace is {trace[bad][0]:.15g}, expected 1 within 1e-12{_first(bad)}"
                )
            if not _hermiticity_defect(m) <= STATE_ATOL:
                bad = ~(_hermiticity_defect(m, axis=(-2, -1)) <= STATE_ATOL)
                raise InvalidStateError(f"matrix is not Hermitian within 1e-12{_first(bad)}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out all tensor factors except ``keep`` (a set of integer factor indices).

    The kept factors appear in the output in their original order.  A stack
    gives the stack of the marginals.
    """
    dims = rho.dims
    n_factors = len(dims)
    kept = sorted(set(_integers(keep, "factor index", ValueError)))
    if not kept:
        raise ValueError("keep must name at least one tensor factor")
    if kept[0] < 0 or kept[-1] >= n_factors:
        raise ValueError(f"factor index out of range for {n_factors} factors: {kept}")

    # One einsum: traced factors share a row/column index, kept factors keep both.
    row = [ascii_lowercase[2 * i] for i in range(n_factors)]
    col = [ascii_lowercase[2 * i + 1] if i in kept else row[i] for i in range(n_factors)]
    out = [row[i] for i in kept] + [col[i] for i in kept]
    sub = "..." + "".join(row + col) + "->..." + "".join(out)
    batch = rho.matrix.shape[:-2]
    reduced = np.einsum(sub, rho.matrix.reshape(batch + dims + dims))

    kept_dims = tuple(dims[i] for i in kept)
    d = math.prod(kept_dims)
    return DensityMatrix(reduced.reshape(batch + (d, d)), kept_dims)


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, descending, from ``np.linalg.eigvalsh``.

    The input is averaged with its adjoint first, so the solver sees an
    exactly Hermitian matrix.  A stack ``(..., d, d)`` gives ``(..., d)``.
    Raises ValueError when the input is not square, has a non-finite entry
    (where eigvalsh returns no error), or is not Hermitian within 1e-10.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix must be finite, got a non-finite entry")
    if _hermiticity_defect(a) > HERMITIAN_ATOL:
        raise ValueError("matrix is not Hermitian within 1e-10")
    return _eigenvalues(a)


def _eigenvalues(a: np.ndarray) -> np.ndarray:
    """``hermitian_eigenvalues`` of a complex array already known to pass its checks."""
    return np.linalg.eigvalsh((a + _adjoint(a)) / 2.0)[..., ::-1].copy()


def von_neumann_entropy(rho: DensityMatrix):
    """S(rho) = -sum_i lambda_i log2 lambda_i in bits, with 0 log 0 = 0.

    A float for one matrix, an array of the stack's shape for a stack.
    Eigenvalues in [-1e-10, 0) are treated as roundoff and clipped to zero;
    anything more negative raises InvalidStateError.  Each matrix's d terms
    are one numpy sum along its row, a clipped eigenvalue adding -0.0, so a
    matrix of a stack has the bits it has alone.
    """
    w = _eigenvalues(rho.matrix)  # finite, square and Hermitian within 1e-12 since construction
    bad = w[..., -1] < EIGENVALUE_FLOOR
    if bad.any():
        raise InvalidStateError(f"state has negative eigenvalue {w[..., -1][bad][0]:.3e}{_first(bad)}")
    x = np.where(w > 0.0, w, 1.0)  # a clipped eigenvalue enters as 1: no log of 0 runs
    s = -(x * np.log2(x)).sum(axis=-1)
    return float(s) if s.ndim == 0 else s
