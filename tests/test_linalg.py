import numpy as np
import pytest
from conftest import haar_unitary, random_hermitian, random_state, taylor_propagator

from mptrotter import (
    HamiltonianDecomposition,
    build_lcu,
    build_spin_hamiltonian,
    classical_fidelity,
    complete_unitary,
    hermitian_propagator,
    is_hermitian,
    is_unitary,
    kron,
    spectral_norm,
    total,
)
from mptrotter.linalg import as_state

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


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
        rng = np.random.default_rng(10)
        v = random_state(4, rng)
        u = complete_unitary(v, "row")
        assert np.array_equal(u[0, :], v)
        assert is_unitary(u)

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
        with pytest.raises(ValueError, match="unit norm"):
            complete_unitary(np.array([1.0, 1.0]))

    def test_rejects_bad_orientation(self):
        with pytest.raises(ValueError, match="orientation"):
            complete_unitary(np.array([1.0, 0.0]), "diagonal")


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


def test_hermiticity_predicate():
    assert is_hermitian(np.diag([1.0, 2.0]))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


NAN = float("nan")


@pytest.mark.parametrize("call, message", [
    (lambda: as_state([NAN, 1.0], normalized=True), "not normalized"),
    (lambda: complete_unitary(np.array([NAN, 1.0])), "unit norm"),
    (lambda: build_lcu([0.5, 0.5], [np.eye(2)] * 2,
                       split=(np.array([NAN, 1.0]), np.array([0.6, 0.8]))), "unit norm"),
    (lambda: build_lcu([NAN, 1.0], [np.eye(2)] * 2), "finite"),
    (lambda: classical_fidelity([NAN, 1.0], [0.5, 0.5]), "not normalized"),
    (lambda: hermitian_propagator(np.diag([NAN, 1.0]), 1.0), "finite"),
    (lambda: HamiltonianDecomposition(terms=(np.diag([NAN, 1.0]),)), "finite"),
], ids=["as_state", "complete_unitary", "build_lcu-split", "build_lcu-coeff",
        "classical_fidelity", "hermitian_propagator", "HamiltonianDecomposition"])
def test_nan_fails_norm_and_sum_checks(call, message):
    # each check is a finiteness test or a comparison with a tolerance, which
    # NaN must fail, not pass
    with pytest.raises(ValueError, match=message):
        call()
