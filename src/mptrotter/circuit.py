"""The dense LCU circuit of `mptrotter.lcu`, kept as the reference oracle.

Builds the circuit's objects as explicit matrices on the ancilla (x) data
register, the loading gates by unitary completion of a first column. Each
costs (ancilla_dim * data_dim)^2 memory, so nothing on the simulation path
imports this module; tests check the d x d block path against it.
"""
from __future__ import annotations

import numpy as np

from .lcu import LcuCircuit
from .linalg import as_state, kron


def complete_unitary(first) -> np.ndarray:
    """Deterministic unitary whose first column equals the unit vector `first` exactly.

    Built from a single Householder reflection mapping e_1 onto the target, with
    the reflector phase chosen opposite to the first entry so the subtraction
    v - alpha*e_1 never cancels. The first column is then overwritten with the
    input verbatim, which keeps the prescribed entries exact instead of
    exact-to-roundoff.
    """
    v = as_state(first, "first column")
    n = v.size
    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0
    if np.linalg.norm(v - e1) <= 1e-12:
        u = np.eye(n, dtype=complex)
    else:
        phi = float(np.angle(v[0])) if abs(v[0]) > 0.0 else 0.0
        alpha = -np.exp(1j * phi)
        w = v - alpha * e1
        refl = np.eye(n, dtype=complex) - 2.0 * np.outer(w, w.conj()) / np.vdot(w, w)
        u = alpha * refl
    u[:, 0] = v
    return u


def loading_gates(circuit: LcuCircuit) -> tuple[np.ndarray, np.ndarray]:
    """Ancilla unitaries C (first column m) and C' (first row m'), zero-padded."""
    pad = (0, circuit.ancilla_dim - circuit.k)
    return (complete_unitary(np.pad(circuit.m, pad)),
            complete_unitary(np.pad(circuit.m_prime, pad)).T)


def circuit_matrix(circuit: LcuCircuit) -> np.ndarray:
    """W = (C' (x) I) SELECT (C (x) I); padded ancilla states select the identity."""
    d = circuit.data_dim
    eye = np.eye(d, dtype=complex)
    select = np.zeros((circuit.ancilla_dim * d, circuit.ancilla_dim * d), dtype=complex)
    for i in range(circuit.ancilla_dim):
        select[i * d:(i + 1) * d, i * d:(i + 1) * d] = \
            circuit.branch_ops[i] if i < circuit.k else eye
    c, c_prime = loading_gates(circuit)
    return kron(c_prime, eye) @ select @ kron(c, eye)


def ancilla_projector(circuit: LcuCircuit) -> np.ndarray:
    """P = |0><0| (x) I, the projector onto the kept (ancilla-|0>) subspace."""
    p = np.zeros((circuit.ancilla_dim, circuit.ancilla_dim), dtype=complex)
    p[0, 0] = 1.0
    return kron(p, np.eye(circuit.data_dim, dtype=complex))


def oaa_iterate(circuit: LcuCircuit) -> np.ndarray:
    """One amplification round -W R W^dag R, with R = I - 2P."""
    w = circuit_matrix(circuit)
    r = np.eye(w.shape[0], dtype=complex) - 2.0 * ancilla_projector(circuit)
    return -(w @ r @ w.conj().T @ r)
