"""A free-fermion oracle for the transverse-field Ising chain, independent of
the library's dense and sector paths.

On an open chain of n qubits, the Jordan-Wigner Majoranas
g_{2j} = X_0 ... X_{j-1} Z_j and g_{2j+1} = X_0 ... X_{j-1} Y_j (j = 0 .. n-1)
give X_j = i g_{2j} g_{2j+1} and Z_j Z_{j+1} = i g_{2j+1} g_{2j+2}. So
H = sum_j h X_j + J sum_j Z_j Z_{j+1} = (i/4) sum_ab A_ab g_a g_b, with A real
antisymmetric, A_{2j, 2j+1} = 2h and A_{2j+1, 2j+2} = 2J. Then
exp(iHt) g_a exp(-iHt) = sum_b R_ab g_b with R = exp(A t), and a product of
such unitaries maps to the product of their R's in the same order, so the
exact evolution and every Trotter product cost O(n^3) (Lieb, Schultz and
Mattis 1961; Terhal and DiVincenzo 2002).

An X-basis product state with X_j = s_j is Gaussian, with covariance
Gamma_ab = i <g_a g_b> (a != b) equal to s_j at (2j, 2j+1) and -s_j at
(2j+1, 2j). Evolved by a unitary with map R, Gamma = R Gamma_0 R^T, and
<X_j> = Gamma_{2j, 2j+1}, <Z_j Z_{j+1}> = Gamma_{2j+1, 2j+2}.

|+...+> lies in one sector, flip-even and reflection-even. The state with
site 0 in |-> and the rest in |+> is not palindromic, so it spans both
reflection sectors of its flip parity.
"""
import numpy as np
import pytest
from conftest import ising_split

from mptrotter import hermitian_propagator, total, trotterize

FIELD, COUPLING = 0.7, 1.0
T = 1.3
COUNTS = (1, 4, 16)
TOL = 1e-13


def majorana_generator(n: int) -> np.ndarray:
    """A with H = (i/4) sum_ab A_ab g_a g_b, as (field A, coupling A)."""
    ax, azz = np.zeros((2 * n, 2 * n)), np.zeros((2 * n, 2 * n))
    j = np.arange(n)
    ax[2 * j, 2 * j + 1] = 2.0 * FIELD
    azz[2 * j[:-1] + 1, 2 * j[:-1] + 2] = 2.0 * COUPLING
    return ax - ax.T, azz - azz.T


def rotation(a: np.ndarray, t: float) -> np.ndarray:
    """exp(a t) for real antisymmetric a, from the eigenpairs of the Hermitian i a."""
    w, v = np.linalg.eigh(1j * a)
    return ((v * np.exp(-1j * w * t)) @ v.conj().T).real


def oracle(signs, r: np.ndarray) -> np.ndarray:
    """(<X_j>, <Z_j Z_{j+1}>) after the unitary with map r, from X_j = signs[j]."""
    n = len(signs)
    gamma0 = np.zeros((2 * n, 2 * n))
    gamma0[np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2)] = signs
    gamma0 -= gamma0.T
    gamma = r @ gamma0 @ r.T
    return np.concatenate([np.diagonal(gamma, 1)[0::2], np.diagonal(gamma, 1)[1::2]])


def x_product_state(signs) -> np.ndarray:
    """The product of |+> (sign 1) and |-> (sign -1), site 0 most significant."""
    out = np.ones(1, dtype=complex)
    for s in signs:
        out = np.kron(out, np.array([1.0, s]) / np.sqrt(2.0))
    return out


def observables(psi: np.ndarray, n: int) -> np.ndarray:
    """(<X_j>, <Z_j Z_{j+1}>) of a dense state."""
    amps = psi.reshape((2,) * n)
    xs = [np.vdot(amps, np.flip(amps, axis=j)).real for j in range(n)]
    z = 1 - 2 * ((np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1)
    zz = (np.abs(psi) ** 2) @ (z[:, :-1] * z[:, 1:])
    return np.concatenate([xs, zz])


@pytest.mark.parametrize("n", [8, 10])
def test_ising_sector_path_matches_the_free_fermion_oracle(n):
    decomp = ising_split(n, fields=np.full(n, FIELD))
    assert decomp.sectors[0].g == 4  # the flip and the reflection: four sectors
    states = [np.ones(n), np.r_[-1.0, np.ones(n - 1)]]
    ax, azz = majorana_generator(n)
    # exact evolution, whose map is exp((A_x + A_zz) t)
    u = hermitian_propagator(total(decomp), T)
    r = rotation(ax + azz, T)
    for signs in states:
        got = observables(u @ x_product_state(signs), n)
        assert np.abs(got - oracle(signs, r)).max() <= TOL
    # S(t/L)^L with S(s) = exp(-i s/2 H_x) exp(-i s H_zz) exp(-i s/2 H_x)
    for count in COUNTS:
        s = T / count
        step = rotation(ax, s / 2.0) @ rotation(azz, s) @ rotation(ax, s / 2.0)
        r = np.linalg.matrix_power(step, count)
        p = trotterize(decomp, T, count)
        for signs in states:
            got = observables(p @ x_product_state(signs), n)
            assert np.abs(got - oracle(signs, r)).max() <= TOL, count
