"""Shared test helpers: random ensembles, hermiticity and unitarity assertions,
and an exponential oracle that does not go through the eigendecomposition used
by the library."""
from __future__ import annotations

import numpy as np
import pytest

from mptrotter import HamiltonianDecomposition, build_spin_hamiltonian, linalg

# a 400-digit integer: JSON and Python read it exactly, and no float holds it
HUGE = 10 ** 400 - 1
# tolerance of the algebraic assertions below
ATOL = 1e-10


def is_hermitian(m) -> bool:
    """||m - m^dag|| < ATOL, with the spectral norm from numpy's SVD rather than
    the library's `spectral_norm`."""
    a = np.asarray(m, dtype=complex)
    return np.linalg.norm(a - a.conj().T, 2) < ATOL


def is_unitary(m) -> bool:
    """||m m^dag - I|| < ATOL, with the spectral norm from numpy's SVD."""
    a = np.asarray(m, dtype=complex)
    return np.linalg.norm(a @ a.conj().T - np.eye(a.shape[0]), 2) < ATOL


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with phase-fixed diagonal."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2.0


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def ising_split(n: int, fields=None, couplings=None) -> HamiltonianDecomposition:
    """sum h_i X_i and sum J_i Z_i Z_{i+1} on an open chain of n qubits, site 0
    on the most significant bit, with h_i = J_i = 1 by default."""
    fields = np.ones(n) if fields is None else fields
    couplings = np.ones(n - 1) if couplings is None else couplings
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    hx = sum(f * np.kron(np.kron(np.eye(2 ** i), x), np.eye(2 ** (n - 1 - i)))
             for i, f in enumerate(fields))
    z = 1 - 2 * ((np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1)  # z[:, i] = Z_i
    return HamiltonianDecomposition(terms=(hx, np.diag(z[:, :-1] * z[:, 1:] @ couplings)))


def taylor_propagator(h: np.ndarray, t: float, pieces: int = 16, terms: int = 40) -> np.ndarray:
    """exp(-i h t) by Taylor series with scaling and squaring; independent of
    the library's eigendecomposition path."""
    a = -1j * (t / pieces) * np.asarray(h, dtype=complex)
    out = np.eye(h.shape[0], dtype=complex)
    term = np.eye(h.shape[0], dtype=complex)
    for n in range(1, terms):
        term = term @ a / n
        out = out + term
    return np.linalg.matrix_power(out, pieces)


@pytest.fixture(autouse=True)
def forget_last_hamiltonian(monkeypatch):
    """Start every test with an empty `hermitian_propagator` memo, so a count of
    diagonalizations does not depend on which tests ran before."""
    monkeypatch.setattr(linalg, "_last", (None, None))


@pytest.fixture
def spin_decomp():
    return build_spin_hamiltonian()


@pytest.fixture
def psi0():
    return np.array([np.sqrt(0.3), np.sqrt(0.7), 0.0, 0.0], dtype=complex)
