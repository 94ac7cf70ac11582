import numpy as np
import pytest
from conftest import is_hermitian, ising_split, random_hermitian

from mptrotter import (
    HamiltonianDecomposition,
    SpinModelParams,
    build_spin_hamiltonian,
    hermitian_propagator,
    total,
)
from mptrotter.linalg import spectral_norm

# hand-expanded matrix for omega=0.2, delta=0.5, e1=0.3, e2=0.7 in the
# electron (x) nuclear basis |00>, |01>, |10>, |11>
H_REFERENCE = np.array([
    [0.25, 0.0, 0.1, 0.0],
    [0.0, 0.25, 0.0, 0.1],
    [0.1, 0.0, 0.05, 0.0],
    [0.0, 0.1, 0.0, 0.45],
])


def test_default_model_matches_hand_expansion():
    h = total(build_spin_hamiltonian())
    assert np.allclose(h, H_REFERENCE, atol=1e-12)


def test_decompositions_compare_by_identity_and_params_by_value():
    a, b = build_spin_hamiltonian(), build_spin_hamiltonian()
    assert a == a and a != b
    assert {a: 1, b: 2}[a] == 1
    # the parameters key the model cache, so equal values are one key
    assert SpinModelParams() == SpinModelParams(0.2, 0.5, 0.3, 0.7)
    assert len({SpinModelParams(), SpinModelParams()}) == 1


def test_all_zero_params_give_zero_hamiltonian():
    h = total(build_spin_hamiltonian(SpinModelParams(0.0, 0.0, 0.0, 0.0)))
    assert np.allclose(h, np.zeros((4, 4)), atol=0)


def test_terms_are_hermitian_and_sum_to_total():
    decomp = build_spin_hamiltonian(SpinModelParams(1.3, -0.4, 0.2, 2.0))
    assert len(decomp) == 2
    for term in decomp.terms:
        assert is_hermitian(term)
    assert np.allclose(decomp.terms[0] + decomp.terms[1], total(decomp), atol=0)


def test_terms_do_not_commute_for_default_params():
    h1, h2 = build_spin_hamiltonian().terms
    comm = h1 @ h2 - h2 @ h1
    assert spectral_norm(comm) > 0.01


def test_coupling_term_supported_on_excited_electron_only():
    params = SpinModelParams(0.2, 0.5, 0.3, 0.7)
    h2 = build_spin_hamiltonian(params).terms[1]
    assert np.allclose(h2[:2, :], 0.0, atol=0)
    assert np.allclose(h2[:, :2], 0.0, atol=0)
    # |10> is electron excited, nuclear ground; |11> nuclear excited
    assert h2[2, 2] == pytest.approx(params.e1)
    assert h2[3, 3] == pytest.approx(params.e2)


def test_drive_term_acts_trivially_on_nucleus():
    h1 = build_spin_hamiltonian().terms[0]
    # electron (x) identity structure: no coupling between nuclear levels
    assert h1[0, 1] == 0 and h1[2, 3] == 0 and h1[0, 3] == 0 and h1[1, 2] == 0


class TestDecompositionValidation:
    def test_accepts_random_hermitian_terms(self):
        rng = np.random.default_rng(21)
        terms = tuple(random_hermitian(6, rng) for _ in range(4))
        decomp = HamiltonianDecomposition(terms)
        assert decomp.dim == 6
        assert is_hermitian(total(decomp))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one term"):
            HamiltonianDecomposition(())

    def test_rejects_non_hermitian_term(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            HamiltonianDecomposition((np.eye(2), bad))

    def test_dyadic_term_is_checked_without_an_eigenproblem(self, monkeypatch):
        # X (x) I + 0.3 X (x) X is dyadic, h[i, j] = g[i ^ j]: its H - H^dag is
        # the dyadic matrix of the row 2i Im g, whose spectral norm is read off
        # a Walsh transform; the diagonal term's off its diagonal
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        xs = np.kron(x, np.eye(2)) + 0.3 * np.kron(x, x)
        HamiltonianDecomposition((xs, np.diag([1.0, 2.0, 3.0, 4.0])))
        # roundoff in Im g is within the tolerance, as for the spectral norm
        HamiltonianDecomposition((xs + 1e-14j * np.kron(x, x),))
        g = np.array([0.0, 0.2, 1e-3j, 0.0])
        bad = g[np.bitwise_xor.outer(np.arange(4), np.arange(4))]
        # the norm reported is ||H - H^dag|| = 2 |Im g[2]|
        with pytest.raises(ValueError, match=r"not Hermitian: .* = 2\.000e-03"):
            HamiltonianDecomposition((bad,))
        assert calls == []

    def test_exactly_hermitian_terms_need_no_eigenproblem(self, monkeypatch):
        # their H - H^dag is the zero matrix, whose spectral norm is read off
        # its diagonal: neither the Ising split's diagonal ZZ term nor a dense
        # real symmetric term costs an eigenvalue problem
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        ising_split(8)
        a = np.random.default_rng(22).standard_normal((64, 64))
        HamiltonianDecomposition(((a + a.T) / 2.0,))
        assert calls == []
        # a skew part that is not diagonal still takes the eigenvalue problem
        with pytest.raises(ValueError, match="not Hermitian"):
            HamiltonianDecomposition((a,))
        assert calls == [(64, 64)]

    def test_diagonal_term_with_an_imaginary_entry_is_rejected(self):
        # H - H^dag = diag(0, 2e-3 i, 0): its norm is read off the diagonal
        bad = np.diag([1.0, 1.0 + 1e-3j, 2.0])
        with pytest.raises(ValueError, match=r"term 0 is not Hermitian: .* = 2\.000e-03"):
            HamiltonianDecomposition((bad,))
        with pytest.raises(ValueError, match=r"not Hermitian: .* = 2\.000e-03"):
            hermitian_propagator(bad, 1.0)

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="dimension"):
            HamiltonianDecomposition((np.eye(2), np.eye(3)))


def test_params_reject_non_finite():
    with pytest.raises(ValueError, match="finite"):
        SpinModelParams(omega=float("nan"))
