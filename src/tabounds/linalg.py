"""Dense complex linear algebra for small quantum systems (dimension <= 8).

Partial traces over labelled tensor factors, validated Hermitian
eigenvalues, and von Neumann entropies.  Tensor products follow
``np.kron``, whose left factor is the slowest-varying index: factor 0 of a
``DensityMatrix``.  The qubit dilation forms its two products by
broadcasting, which gives np.kron's bytes without its per-call overhead.
All entropies throughout the package are in bits (base-2 logarithms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from string import ascii_lowercase

import numpy as np

# Tolerances shared by the whole package.
HERMITIAN_ATOL = 1e-10      # admissible Hermiticity defect of eigensolver inputs
STATE_ATOL = 1e-12          # Hermiticity / unit-trace defect of density matrices
EIGENVALUE_FLOOR = -1e-10   # most negative eigenvalue tolerated before erroring


class InvalidStateError(ValueError):
    """Raised when a matrix violates the density-matrix requirements."""


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian unit-trace matrix together with its tensor-factor dimensions.

    ``dims`` lists the dimension of each tensor factor, slowest-varying
    first; their product must equal the matrix dimension.  Hermiticity and
    unit trace are checked on construction, and a non-finite entry fails
    them.  Positive semidefiniteness is
    enforced where eigenvalues are actually computed (see
    :func:`von_neumann_entropy`), keeping construction cheap in inner loops.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        dims = tuple(int(d) for d in self.dims)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidStateError(f"matrix must be square, got shape {m.shape}")
        if any(d < 1 for d in dims) or math.prod(dims) != m.shape[0]:
            raise InvalidStateError(
                f"dims {dims} do not multiply to matrix dimension {m.shape[0]}"
            )
        # Written as not (defect <= tol), so a nan entry fails too.  An infinite
        # diagonal fails the trace; an infinite off-diagonal pair forms inf - inf,
        # and numpy's warning about it, an exception under -W error, is a nan defect.
        if not abs(m.trace() - 1.0) <= STATE_ATOL:
            raise InvalidStateError(f"matrix trace is {m.trace():.15g}, expected 1 within 1e-12")
        try:
            defect = np.abs(m - m.conj().T).max(initial=0.0)
        except RuntimeWarning:
            defect = math.nan
        if not defect <= STATE_ATOL:
            raise InvalidStateError("matrix is not Hermitian within 1e-12")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out all tensor factors except ``keep`` (a set of factor indices).

    The kept factors appear in the output in their original order.
    """
    dims = rho.dims
    n_factors = len(dims)
    kept = sorted({int(i) for i in keep})
    if not kept:
        raise ValueError("keep must name at least one tensor factor")
    if kept[0] < 0 or kept[-1] >= n_factors:
        raise ValueError(f"factor index out of range for {n_factors} factors: {kept}")

    # One einsum: traced factors share a row/column index, kept factors keep both.
    row = [ascii_lowercase[2 * i] for i in range(n_factors)]
    col = [ascii_lowercase[2 * i + 1] if i in kept else row[i] for i in range(n_factors)]
    out = [row[i] for i in kept] + [col[i] for i in kept]
    sub = "".join(row + col) + "->" + "".join(out)
    reduced = np.einsum(sub, rho.matrix.reshape(dims + dims))

    kept_dims = tuple(dims[i] for i in kept)
    d = math.prod(kept_dims)
    return DensityMatrix(reduced.reshape(d, d), kept_dims)


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, descending, from ``np.linalg.eigvalsh``.

    The input is averaged with its adjoint first, so the solver sees an
    exactly Hermitian matrix.  Raises ValueError when the input is not
    square, has a non-finite entry (where eigvalsh returns no error), or is
    not Hermitian within 1e-10.
    """
    a = np.array(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry")
    if np.abs(a - a.conj().T).max(initial=0.0) > HERMITIAN_ATOL:
        raise ValueError("matrix is not Hermitian within 1e-10")
    return np.linalg.eigvalsh((a + a.conj().T) / 2.0)[::-1].copy()


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum_i lambda_i log2 lambda_i in bits, with 0 log 0 = 0.

    Eigenvalues in [-1e-10, 0) are treated as roundoff and clipped to zero;
    anything more negative raises InvalidStateError.
    """
    w = hermitian_eigenvalues(rho.matrix)
    if w[-1] < EIGENVALUE_FLOOR:
        raise InvalidStateError(f"state has negative eigenvalue {w[-1]:.3e}")
    w = w[w > 0.0]
    if w.size == 0:
        return 0.0
    return float(-(w * np.log2(w)).sum())
