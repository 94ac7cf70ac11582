"""Reference computations for checking benchmark outputs.

Nothing here imports mptrotter, so no oracle shares code with the timed path.
Every product formula is applied to vectors through this module's own
eigendecompositions; no propagator matrix, matrix power or circuit matrix W is
ever formed. States may be 1-d vectors or (d, m) blocks of column vectors.
"""
from __future__ import annotations

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class OracleMismatch(Exception):
    """An output of the program disagrees with its reference value."""


def require_close(what: str, got, want, atol: float) -> None:
    """Raise OracleMismatch unless got and want agree entrywise within atol."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        raise OracleMismatch(f"{what}: shape {got.shape} != expected {want.shape}")
    dev = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not dev <= atol:  # also rejects NaN
        raise OracleMismatch(f"{what}: deviation {dev:.3e} exceeds {atol:.0e}")


class Eigen:
    """exp(-i h s) applied to states through one numpy.linalg.eigh of h."""

    def __init__(self, h: np.ndarray) -> None:
        self.w, self.v = np.linalg.eigh(h)
        self.vh = self.v.conj().T

    def apply(self, s: float, psi: np.ndarray) -> np.ndarray:
        return (self.v * np.exp(-1j * self.w * s)) @ (self.vh @ psi)


class ProductFormula:
    """Second-order palindromic product S(tau) applied to states.

    S(tau) = U_1 ... U_n U_n ... U_1 with U_j = exp(-i H_j tau/2), each from
    the half-step eigenpairs of its term. S(tau)^dag = S(-tau).
    """

    def __init__(self, terms) -> None:
        halves = [Eigen(np.asarray(h, dtype=complex)) for h in terms]
        self.order = halves + halves[::-1]

    def power(self, t: float, l: int, psi: np.ndarray) -> np.ndarray:
        """S(t/l)^l psi."""
        tau = t / l
        for _ in range(l):
            for u in self.order:
                psi = u.apply(tau / 2.0, psi)
        return psi


def mp_coefficients(iterations) -> np.ndarray:
    """Solve the defining conditions sum c = 1, sum c L^(-2j) = 0 (j < k)."""
    ell = np.asarray(iterations, dtype=float)
    k = ell.size
    a = np.vstack([ell ** (-2.0 * j) for j in range(k)])
    b = np.zeros(k)
    b[0] = 1.0
    return np.linalg.solve(a, b)


def amplified(apply_m, apply_m_dag, psi: np.ndarray, rounds: int) -> np.ndarray:
    """(-1)^n T_{2n+1}(M) psi by the Chebyshev recurrence, with no W.

    u_{j+1} = 2 (2 M M^dag - I) u_j - u_{j-1}, u_0 = u_{-1} = M psi gives
    u_n = T_{2n+1}(M) psi; n = 1 is 3 M psi - 4 M M^dag M psi up to sign.
    """
    u = apply_m(psi)
    prev = u
    for _ in range(rounds):
        u, prev = 2.0 * (2.0 * apply_m(apply_m_dag(u)) - u) - prev, u
    return (-1) ** rounds * u


def fidelity(p: np.ndarray, q: np.ndarray) -> float:
    """(sum_i sqrt(p_i q_i))^2 of two population vectors, capped at 1."""
    root = float(np.sum(np.sqrt(np.clip(p, 0.0, None) * np.clip(q, 0.0, None))))
    return min(root * root, 1.0)


def spin_terms(omega: float, delta: float, e1: float, e2: float):
    """The two-spin split written out from its definition.

    H1 = (omega/2 X + delta/2 Z) (x) I on the electron, H2 = |1><1| (x)
    diag(e1, e2) coupling the excited electron to the nuclear levels.
    """
    drive = omega / 2.0 * SIGMA_X + delta / 2.0 * SIGMA_Z
    h1 = np.kron(drive, np.eye(2, dtype=complex))
    h2 = np.kron(np.diag([0.0, 1.0]).astype(complex), np.diag([e1, e2]).astype(complex))
    return h1, h2
