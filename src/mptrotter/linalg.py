"""Dense complex matrix kernel: Hermitian propagators, norms, unitary completion.

Operators are plain square complex ndarrays and state vectors are 1-d complex
ndarrays; nothing here mutates its inputs. Matrix exponentials go through an
eigendecomposition, which is exact to roundoff for Hermitian generators at any
dimension, so no scaling-and-squaring is needed. Callers that exponentiate one
generator at many times keep its eigenpairs and call `eigen_propagator`, which
takes one time or an array of times.

`eigenpairs` is the one place a matrix is diagonalized, and it picks the
cheapest basis the matrix allows: the eigenvectors are None for a diagonal
matrix (its propagators are phases on the diagonal), a real array for a real
symmetric one (diagonalized and multiplied in real arithmetic), and a complex
array otherwise.
"""
from __future__ import annotations

import numpy as np

# Tolerance for algebraic identities (unitarity, hermiticity, reconstruction).
ATOL_ALGEBRAIC = 1e-10
# Tolerance for spectral quantities (norms, eigenvalue-derived checks).
ATOL_SPECTRAL = 1e-9


def as_operator(m) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting anything else."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {a.shape}")
    return a


def as_state(v, *, normalized: bool = False) -> np.ndarray:
    """Coerce to a 1-d complex vector; optionally require unit norm."""
    a = np.asarray(v, dtype=complex).reshape(-1)
    if a.size == 0:
        raise ValueError("state vector must be nonempty")
    if normalized:
        n = float(np.linalg.norm(a))
        if not abs(n - 1.0) <= ATOL_ALGEBRAIC:  # NaN fails
            raise ValueError(f"state vector is not normalized: ||v|| = {n!r}")
    return a


def spectral_norm(m) -> float:
    """Largest singular value of m.

    Computed as sqrt of the top eigenvalue of M^dag M rather than by SVD, so
    tests can use an independent SVD oracle. The eigenvalue is clamped at zero
    before the square root; roundoff can push it slightly negative.
    """
    a = as_operator(m)
    w = np.linalg.eigvalsh(a.conj().T @ a)
    return float(np.sqrt(max(float(w[-1]), 0.0)))


def is_hermitian(m, tol: float = ATOL_ALGEBRAIC) -> bool:
    a = as_operator(m)
    return spectral_norm(a - a.conj().T) < tol


def is_unitary(m, tol: float = ATOL_ALGEBRAIC) -> bool:
    a = as_operator(m)
    return spectral_norm(a @ a.conj().T - np.eye(a.shape[0])) < tol


def hermitian_propagator(h, t) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via eigendecomposition.

    Rejects non-finite or non-Hermitian input and non-finite times; the result
    is unitary to roundoff, and negative t gives the inverse. t is one time or
    an array of times, as for `eigen_propagator`.
    """
    a = as_operator(h)
    if not np.isfinite(t).all():
        raise ValueError(f"time must be finite, got {t!r}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    skew = a - a.conj().T
    # The Frobenius norm bounds the spectral norm from above, so a small one
    # accepts without the eigenvalue problem the spectral norm costs.
    if not np.linalg.norm(skew) < ATOL_ALGEBRAIC:  # NaN fails
        dev = spectral_norm(skew)
        if not dev < ATOL_ALGEBRAIC:
            raise ValueError(f"matrix is not Hermitian: ||H - H^dag|| = {dev:.3e}")
    return eigen_propagator(*eigenpairs(a), t)


def eigenpairs(h: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(w, vecs): eigenvalues and eigenvector columns of a Hermitian matrix h.

    vecs is None when h is diagonal, and w is then its real diagonal in place
    (not sorted); vecs is real when h is real; otherwise both come from the
    complex eigendecomposition. h must be a square ndarray already checked to
    be Hermitian.
    """
    if np.count_nonzero(h) == np.count_nonzero(np.diagonal(h)):
        return np.diagonal(h).real.copy(), None
    if not h.imag.any():
        return np.linalg.eigh(h.real)
    return np.linalg.eigh(h)


def phases(w: np.ndarray, t) -> np.ndarray:
    """exp(-i w t), with the time axes of t in front of the axis of w."""
    return np.exp(-1j * np.multiply.outer(t, w))


def diagonal_matrices(diag: np.ndarray) -> np.ndarray:
    """The matrices with the given diagonals, along the last axis of diag."""
    d = diag.shape[-1]
    out = np.zeros(diag.shape + (d,), dtype=complex)
    out.reshape(diag.shape[:-1] + (d * d,))[..., ::d + 1] = diag
    return out


def eigen_propagator(w: np.ndarray, vecs: np.ndarray | None, t) -> np.ndarray:
    """exp(-i h t) from the eigenpairs (w, vecs) of h, as `eigenpairs` gives them.

    A scalar t gives one (d, d) matrix; an array of times gives the stack of
    propagators with the time axes in front, (T, d, d) for T times.
    """
    p = phases(w, t)
    if vecs is None:
        return diagonal_matrices(p)
    if np.isrealobj(vecs):
        # with V real, the transpose of V diag(p) V^T is one real product: V
        # times diag(p) V^T read as a real array of (re, im) column pairs. The
        # product is then formed entry by entry as the split real and imaginary
        # parts (V diag(Re p)) V^T and (V diag(Im p)) V^T would form it.
        scaled = np.multiply(p[..., :, None], vecs.T, order="C")
        return (vecs @ scaled.view(float)).view(complex).swapaxes(-1, -2)
    return (vecs * p[..., None, :]) @ vecs.conj().T


def weighted_sum(weights, operators) -> np.ndarray:
    """sum_i w_i A_i over a nonempty sequence of operators, left to right.

    The operators may be stacks with the same leading axes; the sum is then
    taken entrywise over the stacks.
    """
    out = np.zeros_like(operators[0], dtype=complex)
    for w, a in zip(weights, operators):
        out = out + w * a
    return out


def kron(a, b) -> np.ndarray:
    """Kronecker product, first factor on the slow (most significant) index."""
    return np.kron(as_operator(a), as_operator(b))


def complete_unitary(first: np.ndarray, orientation: str = "column") -> np.ndarray:
    """Deterministic unitary whose first column (or row) equals `first` exactly.

    Built from a single Householder reflection mapping e_1 onto the target, with
    the reflector phase chosen opposite to the first entry so the subtraction
    v - alpha*e_1 never cancels. The first column is then overwritten with the
    input verbatim, which keeps the prescribed entries exact instead of
    exact-to-roundoff. Row orientation returns the transpose of the column
    construction, so a symmetric split m = m' yields C' = C^T.
    """
    v = as_state(first)
    n = v.size
    nrm = float(np.linalg.norm(v))
    if not abs(nrm - 1.0) <= ATOL_ALGEBRAIC:  # NaN fails
        raise ValueError(f"first column must have unit norm, got ||v|| = {nrm!r}")
    if orientation not in ("column", "row"):
        raise ValueError(f"orientation must be 'column' or 'row', got {orientation!r}")

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
    return u.T.copy() if orientation == "row" else u
