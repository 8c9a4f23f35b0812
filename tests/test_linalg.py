import math
import warnings

import numpy as np
import pytest

from tabounds import linalg
from tabounds.linalg import (
    DensityMatrix,
    InvalidStateError,
    hermitian_eigenvalues,
    partial_trace,
    von_neumann_entropy,
)
from tabounds.gaussian import GaussianState
from tabounds.qubit import QubitState, dilated_state
from tabounds.verify import (
    charpoly_roots_descending,
    random_density,
    random_qubit_params,
    random_qubit_state,
)

# Binary entropy h(0.1), 50-digit evaluation.
H_01 = 0.46899559358928122
INF_PAIR = np.array([[0.5, math.inf], [math.inf, 0.5]])


def stack_with(bad: np.ndarray, at: int = 37, n: int = 100) -> np.ndarray:
    """``n`` maximally mixed matrices of ``bad``'s size, with ``bad`` at index ``at``."""
    d = bad.shape[-1]
    stack = np.broadcast_to(np.eye(d) / d, (n, d, d)).astype(complex)
    stack[at] = bad
    return stack


def naive_partial_trace(matrix, dims, keep):
    """Index-by-index summation oracle for partial_trace."""
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    kept_dims = [dims[i] for i in keep]
    d_out = math.prod(kept_dims)
    t = matrix.reshape(tuple(dims) * 2)
    out = np.zeros((d_out, d_out), dtype=complex)
    for row_out in np.ndindex(*kept_dims):
        for col_out in np.ndindex(*kept_dims):
            total = 0.0 + 0.0j
            for shared in np.ndindex(*[dims[i] for i in traced]):
                row = [0] * len(dims)
                col = [0] * len(dims)
                for i, f in enumerate(keep):
                    row[f] = row_out[i]
                    col[f] = col_out[i]
                for i, f in enumerate(traced):
                    row[f] = shared[i]
                    col[f] = shared[i]
                total += t[tuple(row) + tuple(col)]
            r = int(np.ravel_multi_index(row_out, kept_dims)) if kept_dims else 0
            c = int(np.ravel_multi_index(col_out, kept_dims)) if kept_dims else 0
            out[r, c] = total
    return out


NON_FINITE_VALUES = {
    "density-diagonal-nan": (lambda: DensityMatrix(np.diag([math.nan, math.nan]), (2,)), "matrix"),
    "density-coherence-nan": (lambda: DensityMatrix(np.array([[0.5, math.nan], [math.nan, 0.5]]), (2,)), "matrix"),
    "density-diagonal-inf": (lambda: DensityMatrix(np.diag([math.inf, 0.0]), (2,)), "matrix"),
    "density-coherence-inf": (lambda: DensityMatrix(INF_PAIR, (2,)), "matrix"),
    "density-stack-coherence-nan": (
        lambda: DensityMatrix(stack_with(np.array([[0.5, math.nan], [math.nan, 0.5]])), (2,)), "matrix"
    ),
    "qubit-gamma-nan": (lambda: QubitState(0.5, math.nan), "gamma"),
    "qubit-gamma-complex-nan": (lambda: QubitState(0.5, complex(0.1, math.nan)), "gamma"),
    "qubit-p-nan": (lambda: QubitState(math.nan), "p"),
    "gaussian-cov-nan": (lambda: GaussianState(np.zeros(2), np.diag([math.nan, 1.0])), "cov"),
    "gaussian-cov-inf": (lambda: GaussianState(np.zeros(2), np.diag([math.inf, 1.0])), "cov"),
    "gaussian-mean-nan": (lambda: GaussianState([math.nan, 0.0], np.eye(2)), "mean"),
    "gaussian-mean-inf": (lambda: GaussianState([0.0, -math.inf], np.eye(2)), "mean"),
}


@pytest.mark.parametrize("case", list(NON_FINITE_VALUES))
def test_value_types_reject_non_finite_entries_naming_the_field(case):
    build, field = NON_FINITE_VALUES[case]
    with pytest.raises(ValueError, match=f"^{field} "):
        build()


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(InvalidStateError):
            DensityMatrix(m, (2,))

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.diag([0.7, 0.7]).astype(complex), (2,))

    def test_rejects_a_non_square_matrix(self):
        with pytest.raises(InvalidStateError, match=r"^matrix must be square, got shape \(2, 3\)$"):
            DensityMatrix(np.ones((2, 3)) / 2, (2,))

    def test_rejects_mismatched_dims(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.eye(4, dtype=complex) / 4, (2, 3))

    @pytest.mark.parametrize("dims", [(2.9, 2.0), (2.0, 2.0), ("2", "2"), (math.inf,)])
    def test_rejects_non_integer_dims(self, dims):
        with pytest.raises(InvalidStateError, match="^dims "):
            DensityMatrix(np.eye(4) / 4, dims)

    def test_numpy_integer_dims_become_int(self):
        rho = DensityMatrix(np.eye(4) / 4, (np.int64(2), np.int32(2)))
        assert rho.dims == (2, 2) and all(type(d) is int for d in rho.dims)

    @pytest.mark.parametrize("matrix", [INF_PAIR, stack_with(INF_PAIR)], ids=["one", "stack"])
    def test_an_infinite_pair_fails_without_a_numpy_warning(self, matrix):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InvalidStateError, match="^matrix "):
                DensityMatrix(matrix, (2,))
        assert caught == []

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.diag([0.7, 0.7]), "^matrix trace is 1.4"),
            (np.array([[0.5, 0.1], [0.3, 0.5]]), "^matrix is not Hermitian"),
            (np.diag([math.nan, 0.5]), "^matrix trace is nan"),
            (np.array([[0.5, math.nan], [0.1, 0.5]]), "^matrix is not Hermitian"),
        ],
        ids=["trace", "hermiticity", "nan-trace", "nan-coherence"],
    )
    def test_a_stack_with_one_bad_member_fails_naming_it(self, bad, message):
        with pytest.raises(InvalidStateError, match=message) as err:
            DensityMatrix(stack_with(bad, at=37), (2,))
        assert str(err.value).endswith("at stack index (37,)")
        DensityMatrix(stack_with(np.eye(2) / 2), (2,))

    def test_matrix_is_read_only(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2, (2,))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 5.0


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(1)
        a = random_density(rng, (2,))
        b = random_density(rng, (2,))
        rho = DensityMatrix(np.kron(a.matrix, b.matrix), (2, 2))
        out = partial_trace(rho, {0})
        assert np.abs(out.matrix - a.matrix).max() < 1e-12

    def test_bell_marginal_is_maximally_mixed(self):
        ket = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2)
        rho = DensityMatrix(np.outer(ket, ket.conj()), (2, 2))
        out = partial_trace(rho, {0})
        assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-12

    def test_full_keep_is_identity(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng, (2, 2))
        out = partial_trace(rho, {0, 1})
        assert np.abs(out.matrix - rho.matrix).max() == 0.0

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, (2, 2, 2))
        for keep in ({0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}):
            got = partial_trace(rho, keep).matrix
            want = naive_partial_trace(rho.matrix, rho.dims, keep)
            assert np.abs(got - want).max() < 1e-12

    def test_environment_trace_recovers_input(self):
        # rho_A (x) |tau><tau| traced over the two environment factors is rho_A.
        rng = np.random.default_rng(4)
        rho_a = random_density(rng, (2,))
        noise = 0.2
        ket = np.array([math.sqrt(1 - noise), 0.0, 0.0, math.sqrt(noise)], dtype=complex)
        joint = DensityMatrix(np.kron(rho_a.matrix, np.outer(ket, ket)), (2, 2, 2))
        out = partial_trace(joint, {0})
        want = naive_partial_trace(joint.matrix, joint.dims, {0})
        assert np.abs(out.matrix - rho_a.matrix).max() < 1e-12
        assert np.abs(out.matrix - want).max() < 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng, (2, 2, 2))
        out = partial_trace(rho, {2})
        assert abs(out.matrix.trace() - 1.0) < 1e-12

    def test_a_stack_gives_the_marginal_of_each_member_bit_for_bit(self):
        rng = np.random.default_rng(11)
        rhos = [random_density(rng, (2, 2, 2)) for _ in range(60)]
        stack = DensityMatrix(np.array([r.matrix for r in rhos]).reshape(3, 20, 8, 8), (2, 2, 2))
        for keep in ({0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}):
            got = partial_trace(stack, keep)
            want = np.array([partial_trace(r, keep).matrix for r in rhos]).reshape(got.matrix.shape)
            assert np.array_equal(got.matrix, want) and got.dims == partial_trace(rhos[0], keep).dims

    def test_rejects_empty_and_out_of_range(self):
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4, (2, 2))
        with pytest.raises(ValueError):
            partial_trace(rho, set())
        with pytest.raises(ValueError):
            partial_trace(rho, {2})

    @pytest.mark.parametrize("keep", [{0.7}, {1.9}, {"1"}, {1.0}, {0, 1.0}])
    def test_rejects_non_integer_factor_indices(self, keep):
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4, (2, 2))
        with pytest.raises(ValueError, match="^factor index "):
            partial_trace(rho, keep)

    def test_numpy_integer_and_generator_indices(self):
        rho = DensityMatrix(np.kron(np.diag([0.9, 0.1]), np.eye(2) / 2), (2, 2))
        want = partial_trace(rho, {0})
        for keep in ({np.int64(0)}, (i for i in [0])):
            got = partial_trace(rho, keep)
            assert np.array_equal(got.matrix, want.matrix) and got.dims == (2,)


class TestHermitianEigenvalues:
    def test_diagonal(self):
        w = hermitian_eigenvalues(np.diag([0.3, 0.7]).astype(complex))
        assert np.abs(w - [0.7, 0.3]).max() < 1e-15

    def test_pauli_x(self):
        w = hermitian_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        assert np.abs(w - [1.0, -1.0]).max() < 1e-14

    def test_matches_charpoly_roots_random_8x8(self):
        rng = np.random.default_rng(8)
        rho = random_density(rng, (2, 2, 2))
        got = hermitian_eigenvalues(rho.matrix)
        assert np.abs(got - charpoly_roots_descending(rho.matrix)).max() < 1e-9

    def test_rank_deficient(self):
        ket = np.array([0.6, 0.0, 0.0, 0.8], dtype=complex)
        w = hermitian_eigenvalues(np.outer(ket, ket))
        assert np.abs(w - [1.0, 0.0, 0.0, 0.0]).max() < 1e-13

    def test_zero_matrix(self):
        assert np.array_equal(hermitian_eigenvalues(np.zeros((3, 3))), np.zeros(3))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="^matrix must be square"):
            hermitian_eigenvalues(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entries(self, bad):
        pair = np.array([[1.0, bad], [bad, 1.0]])
        for m in (np.diag([bad, 1.0]), pair, stack_with(pair)):
            with pytest.raises(ValueError, match="^matrix must be finite"):
                hermitian_eigenvalues(m)

    def test_random_8x8_spectrum_sums_to_one(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng, (2, 2, 2))
        w = hermitian_eigenvalues(rho.matrix)
        assert abs(w.sum() - 1.0) < 1e-10


    def test_a_stack_gives_the_eigenvalues_of_each_member_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for dims in ((2,), (4,), (2, 2, 2)):
            ms = np.array([random_density(rng, dims).matrix for _ in range(50)])
            got = hermitian_eigenvalues(ms)
            assert np.array_equal(got, np.array([hermitian_eigenvalues(m) for m in ms]))


class TestEntropy:
    def test_maximally_mixed_qubit(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2, (2,))
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state(self):
        ket = np.array([0.6, 0.8j], dtype=complex)
        rho = DensityMatrix(np.outer(ket, ket.conj()), (2,))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_binary_entropy_value(self):
        rho = DensityMatrix(np.diag([0.9, 0.1]).astype(complex), (2,))
        assert von_neumann_entropy(rho) == pytest.approx(H_01, abs=1e-12)

    def test_rejects_negative_eigenvalue(self):
        rho = DensityMatrix(np.diag([1.001, -0.001]).astype(complex), (2,))
        with pytest.raises(InvalidStateError):
            von_neumann_entropy(rho)

    def test_clips_roundoff_negatives(self):
        rho = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]).astype(complex), (2,))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-9)

    def test_a_stack_gives_the_entropy_of_each_member_bit_for_bit(self):
        # Every rank of 8x8 matrices: numpy sums eight terms pairwise and fewer
        # left to right, so each matrix's positive terms must be summed alone,
        # as this loop does, for its entropy to keep its bits in a stack.
        rng = np.random.default_rng(13)
        rhos = []
        for rank in range(1, 9):
            for _ in range(20):
                g = rng.normal(size=(8, rank)) + 1j * rng.normal(size=(8, rank))
                m = g @ g.conj().T
                rhos.append(DensityMatrix(m / m.trace(), (2, 2, 2)))
        want = []
        for rho in rhos:
            w = hermitian_eigenvalues(rho.matrix)
            w = w[w > 0.0]
            want.append(float(-(w * np.log2(w)).sum()))
        assert [von_neumann_entropy(rho) for rho in rhos] == want
        stack = DensityMatrix(np.array([rho.matrix for rho in rhos]).reshape(8, 20, 8, 8), (2, 2, 2))
        got = von_neumann_entropy(stack)
        assert got.shape == (8, 20) and np.array_equal(got.ravel(), want)

    def test_a_density_matrix_is_not_validated_again(self, monkeypatch):
        # Construction already checked the matrix: finite, square and Hermitian
        # within 1e-12, so the entropy skips hermitian_eigenvalues' checks.
        rng = np.random.default_rng(17)
        rhos = [random_density(rng, (2, 2)) for _ in range(10)]
        stack = DensityMatrix(np.array([rho.matrix for rho in rhos]), (2, 2))
        want = [von_neumann_entropy(rho) for rho in rhos], von_neumann_entropy(stack)

        def validates_again(m):
            raise AssertionError("von_neumann_entropy called hermitian_eigenvalues")

        monkeypatch.setattr(linalg, "hermitian_eigenvalues", validates_again)
        got = [von_neumann_entropy(rho) for rho in rhos], von_neumann_entropy(stack)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])

    def test_matches_mpmath_on_dilation_marginals_and_near_pure_states(self):
        # The 50-digit entropy of the exact double matrix: the accuracy that
        # numpy's eigvalsh has to keep for the tightest tolerance (1e-12).
        mpmath = pytest.importorskip("mpmath")

        def exact_entropy(m):
            with mpmath.workdps(50):
                w = mpmath.eighe(mpmath.matrix(m.tolist()), eigvals_only=True)
                return float(-sum(x * mpmath.log(x, 2) for x in w if x > 0))

        rng = np.random.default_rng(10)
        states = []
        for _ in range(25):
            rho = dilated_state(random_qubit_state(rng), random_qubit_params(rng))
            states += [partial_trace(rho, keep) for keep in ({0}, {1}, {0, 2}, {1, 2})]
        for _ in range(50):
            g = rng.normal(size=4) + 1j * rng.normal(size=4)
            ket = g / np.linalg.norm(g)
            eps = 10.0 ** rng.uniform(-12.0, -2.0)
            mixed = (1.0 - eps) * np.outer(ket, ket.conj()) + eps * random_density(rng, (4,)).matrix
            states.append(DensityMatrix(mixed, (4,)))
        for rho in states:
            assert abs(von_neumann_entropy(rho) - exact_entropy(rho.matrix)) < 1e-12
