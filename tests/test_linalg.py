import numpy as np
import pytest
from conftest import (
    haar_unitary,
    is_hermitian,
    is_unitary,
    random_hermitian,
    random_state,
    taylor_propagator,
)

from mptrotter import (
    HamiltonianDecomposition,
    apply_lcu,
    apply_oaa,
    build_lcu,
    build_spin_hamiltonian,
    hermitian_propagator,
    total,
)
from mptrotter.circuit import complete_unitary, loading_gates
from mptrotter.experiments import classical_fidelity
from mptrotter import linalg
from mptrotter.linalg import (ATOL_ALGEBRAIC, as_state, dyadic_row, is_diagonal, kron,
                              spectral_norm, xor_index)

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def eigvalsh_calls(monkeypatch) -> list:
    """Record the shape of each np.linalg.eigvalsh argument."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    return calls


class TestHermitianPropagator:
    def test_zero_generator(self):
        u = hermitian_propagator(np.zeros((4, 4)), 5.0)
        assert np.allclose(u, np.eye(4), atol=1e-12)

    def test_diagonal_generator(self):
        u = hermitian_propagator(SIGMA_Z, np.pi / 2)
        assert np.allclose(u, np.diag([-1j, 1j]), atol=1e-12)

    def test_matches_taylor_oracle_on_spin_model(self):
        h = total(build_spin_hamiltonian())
        u = hermitian_propagator(h, 1.0)
        assert spectral_norm(u - taylor_propagator(h, 1.0)) < 1e-10

    def test_rejects_non_hermitian_with_diagnostic(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_propagator(m, 1.0)

    def test_rejects_non_finite_time(self):
        with pytest.raises(ValueError, match="finite"):
            hermitian_propagator(np.eye(2), float("inf"))

    def test_result_unitary(self):
        rng = np.random.default_rng(3)
        for dim in (2, 5, 16):
            h = random_hermitian(dim, rng)
            u = hermitian_propagator(h, 0.7)
            assert is_unitary(u)

    def test_group_property(self):
        rng = np.random.default_rng(4)
        for dim in (2, 8, 16):
            h = random_hermitian(dim, rng)
            lhs = hermitian_propagator(h, 1.3)
            rhs = hermitian_propagator(h, 0.9) @ hermitian_propagator(h, 0.4)
            assert spectral_norm(lhs - rhs) < 1e-10

    def test_inverse_at_negative_time(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(6, rng)
        prod = hermitian_propagator(h, 2.1) @ hermitian_propagator(h, -2.1)
        assert spectral_norm(prod - np.eye(6)) < 1e-10

    def test_energy_conservation(self):
        rng = np.random.default_rng(6)
        h = random_hermitian(4, rng)
        psi = random_state(4, rng)
        e0 = np.vdot(psi, h @ psi).real
        for t in (0.5, 2.0, 17.0):
            phi = hermitian_propagator(h, t) @ psi
            assert abs(np.vdot(phi, h @ phi).real - e0) < 1e-9


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert spectral_norm(np.diag([1.0, 2.0])) == pytest.approx(2.0, abs=1e-12)

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert spectral_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0],
                                                     abs=1e-9)

    def test_submultiplicative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) + 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            spectral_norm(np.ones((2, 3)))

    @pytest.mark.parametrize("diag", [[-3.0, 1.0], [1j, -2.0 + 0.5j, 0.0], [0.0, -0.5],
                                      [3.0 + 4.0j, -5.0, 1e-300], [0.0] * 4],
                             ids=["negative", "complex", "zero-entry", "tie", "zero-matrix"])
    def test_diagonal_matrix_needs_no_eigenproblem(self, monkeypatch, diag):
        # the singular values of a diagonal matrix are the absolute values of
        # its entries, so max |m_ii| is exact
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        m = np.diag(diag)
        assert spectral_norm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-15, abs=0.0)
        assert calls == []

    @pytest.mark.parametrize("d", [2 ** n for n in range(1, 9)])
    @pytest.mark.parametrize("row", ["real", "complex"])
    def test_dyadic_matrix_needs_no_eigenproblem(self, monkeypatch, d, row):
        # m[i, j] = g[i ^ j] is W diag(W g) W / d with W / sqrt(d) orthogonal,
        # so its singular values are |W g|
        rng = np.random.default_rng(d)
        g = rng.standard_normal(d) + (1j * rng.standard_normal(d) if row == "complex" else 0.0)
        m = g[xor_index(d)]
        calls = eigvalsh_calls(monkeypatch)
        want = np.linalg.svd(m, compute_uv=False)[0]
        assert spectral_norm(m) == pytest.approx(want, rel=1e-12, abs=0.0)
        assert calls == []

    def test_nan_on_the_diagonal_gives_nan(self):
        # so every `not dev < ATOL_ALGEBRAIC` check still rejects it
        dev = spectral_norm(np.diag([1.0, np.nan, -2.0]))
        assert np.isnan(dev) and not dev < ATOL_ALGEBRAIC


class TestHermiticityRule:
    """`hermitian_propagator` and `HamiltonianDecomposition` judge a matrix by
    one rule, spectral_norm(H - H^dag) < ATOL_ALGEBRAIC."""

    @staticmethod
    def dense_hermitian(d: int) -> np.ndarray:
        a = np.random.default_rng(d).standard_normal((d, d, 2)).view(complex)[..., 0]
        h = (a + a.conj().T) / 2.0  # exactly Hermitian, neither diagonal nor dyadic
        assert not is_diagonal(h) and dyadic_row(h) is None
        return h

    def test_first_propagator_of_a_dense_hermitian_matrix_needs_no_eigenvalues(
            self, monkeypatch):
        # its skew part is the zero matrix, whose norm is read off the diagonal
        monkeypatch.setattr(linalg, "_last", (None, None))
        h = self.dense_hermitian(64)
        calls = eigvalsh_calls(monkeypatch)
        hermitian_propagator(h, 0.7)
        assert calls == []

    def test_both_checks_accept_a_skew_part_within_the_tolerance(self, monkeypatch):
        monkeypatch.setattr(linalg, "_last", (None, None))
        h = self.dense_hermitian(6)
        h[1, 4] += 1e-12  # H - H^dag is 1e-12 at (1, 4) and -1e-12 at (4, 1)
        HamiltonianDecomposition((h,))
        hermitian_propagator(h, 0.3)

    def test_both_checks_report_the_same_norm(self, monkeypatch):
        monkeypatch.setattr(linalg, "_last", (None, None))
        h = self.dense_hermitian(6)
        h[1, 4] += 1e-3
        norm = r"\|\|H - H\^dag\|\| = 1\.000e-03$"
        with pytest.raises(ValueError, match=f"^term 0 is not Hermitian: {norm}"):
            HamiltonianDecomposition((h,))
        with pytest.raises(ValueError, match=f"^matrix is not Hermitian: {norm}"):
            hermitian_propagator(h, 0.3)


class TestCompleteUnitary:
    def test_basis_vector_gives_identity(self):
        u = complete_unitary(np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.array_equal(u, np.eye(4, dtype=complex))

    def test_real_superposition(self):
        v = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
        u = complete_unitary(v)
        assert np.array_equal(u[:, 0], v.astype(complex))
        assert is_unitary(u)

    def test_random_columns_reproduced_exactly(self):
        rng = np.random.default_rng(9)
        for dim in (2, 3, 4, 8):
            v = random_state(dim, rng)
            u = complete_unitary(v)
            assert np.array_equal(u[:, 0], v)
            assert is_unitary(u)

    def test_row_orientation(self):
        # the circuit's C' is a completion's transpose: its first row is m', and a
        # symmetric split m = m' gives C' = C^T
        for split in (None, (np.array([0.6, 0.8]), np.array([0.8, 0.6]))):
            circ = build_lcu([1.0, 1.0], [np.eye(2)] * 2, split=split)
            c, c_prime = loading_gates(circ)
            assert np.array_equal(c_prime[0], circ.m_prime)
            assert is_unitary(c_prime)
            assert np.array_equal(c_prime, c.T) == (split is None)

    def test_pure_phase_first_entry(self):
        u = complete_unitary(np.array([1j, 0.0, 0.0, 0.0]))
        assert np.array_equal(u[:, 0], np.array([1j, 0, 0, 0], dtype=complex))
        assert is_unitary(u)

    def test_near_basis_vector_still_exact(self):
        # the branch that short-circuits to the identity must still reproduce
        # the requested column verbatim
        v = np.array([1.0, 1e-13, 0.0, 0.0], dtype=complex)
        v = v / np.linalg.norm(v)
        u = complete_unitary(v)
        assert np.array_equal(u[:, 0], v)
        assert is_unitary(u)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        v = random_state(6, rng)
        assert np.array_equal(complete_unitary(v), complete_unitary(v.copy()))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="first column is not normalized"):
            complete_unitary(np.array([1.0, 1.0]))


class TestKron:
    def test_identity_blocks(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4, dtype=complex))

    def test_sigma_z_with_identity(self):
        assert np.allclose(kron(SIGMA_Z, np.eye(2)), np.diag([1, 1, -1, -1]), atol=0)

    def test_mixed_product_identity(self):
        rng = np.random.default_rng(12)
        a = haar_unitary(2, rng)
        b = haar_unitary(3, rng)
        x = random_state(2, rng)
        y = random_state(3, rng)
        lhs = kron(a, b) @ np.kron(x, y)
        rhs = np.kron(a @ x, b @ y)
        assert np.linalg.norm(lhs - rhs) < 1e-12


# the conftest assertions are the oracle of many tests: each must also say no
def test_hermiticity_predicate():
    assert is_hermitian(np.diag([1.0, 2.0]))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_unitarity_predicate():
    assert is_unitary(np.array([[0.0, 1j], [1j, 0.0]]))
    assert not is_unitary(np.diag([1.0, 1.0 + 1e-6]))


NAN = float("nan")
# a branch operator with a NaN entry passes `build_lcu`: the kept branch rejects it
NAN_BRANCHES = build_lcu([0.5, 0.5], [np.eye(2), [[1.0, NAN], [0.0, 1.0]]])


@pytest.mark.parametrize("call, message", [
    (lambda: as_state([NAN, 1.0]), "state vector is not normalized"),
    (lambda: complete_unitary(np.array([NAN, 1.0])), "first column is not normalized"),
    (lambda: build_lcu([0.5, 0.5], [np.eye(2)] * 2,
                       split=(np.array([NAN, 1.0]), np.array([0.6, 0.8]))),
     "split vector m is not normalized"),
    (lambda: build_lcu([NAN, 1.0], [np.eye(2)] * 2), "finite"),
    (lambda: classical_fidelity([NAN, 1.0], [0.5, 0.5]), "not normalized"),
    (lambda: hermitian_propagator(np.diag([NAN, 1.0]), 1.0), "finite"),
    (lambda: HamiltonianDecomposition(terms=(np.diag([NAN, 1.0]),)), "finite"),
    (lambda: apply_lcu(NAN_BRANCHES, [1.0, 0.0]), "kept branch norm must be finite, got nan"),
    (lambda: apply_oaa(NAN_BRANCHES, [1.0, 0.0], 1), "kept branch norm must be finite, got nan"),
], ids=["as_state", "complete_unitary", "build_lcu-split", "build_lcu-coeff",
        "classical_fidelity", "hermitian_propagator", "HamiltonianDecomposition",
        "apply_lcu-branch", "apply_oaa-branch"])
def test_nan_fails_norm_and_sum_checks(call, message):
    # each check is a finiteness test or a comparison with a tolerance, which
    # NaN must fail, not pass
    with pytest.raises(ValueError, match=message):
        call()


EMPTY = np.zeros((0, 0))


@pytest.mark.parametrize("call", [
    lambda: spectral_norm(EMPTY),
    lambda: HamiltonianDecomposition(terms=(EMPTY,)),
    lambda: build_lcu([1.0], [EMPTY]),
], ids=["spectral_norm", "HamiltonianDecomposition", "build_lcu"])
def test_empty_operator_is_rejected(call):
    # a 0x0 matrix has no top eigenvalue and no data register
    with pytest.raises(ValueError, match=r"nonempty square matrix, got shape \(0, 0\)"):
        call()
