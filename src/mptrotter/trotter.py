"""Second-order symmetric product formulas and their iterated powers.

`second_order_step` and `products` take one time or an array of times; an
array gives a stack of operators with the time axes in front. `trotterize` is
the one-time form.

A real split, whose every term is diagonal or has a real eigenbasis, has
complex symmetric half-step exponentials A_i(t/2), so its step is
S_1(t) = Y Y^T with Y = A_1(t/2) ... A_m(t/2), and the step and all its powers
are complex symmetric. From d = SYMMETRIC_MIN_DIM up such a split forms the
step as Y Y^T and squares its powers as z z^T, products that numpy hands to
BLAS syrk, which forms one triangle and mirrors it: the results are exactly
symmetric. Smaller or complex splits take the palindrome and
`numpy.linalg.matrix_power`.
"""
from __future__ import annotations

import numpy as np

from .hamiltonian import HamiltonianDecomposition
from .linalg import diagonal_matrices, eigen_propagator, phases

# Smallest dimension whose real splits take the symmetric products. Time of
# z @ z.swapaxes(-1, -2) (syrk) over z @ z (gemm) for complex z, one BLAS
# thread:
#   (d, d):  d = 8: 1.08, 16: 1.41, 32: 1.24, 64: 0.88, 128: 0.73, 256: 0.69,
#            512: 0.60;
#   stacks:  (61, 4, 4): 1.17, (61, 16, 16): 2.2, (61, 32, 32): 1.30,
#            (61, 64, 64): 0.99, (8, 128, 128): 0.80, (4, 256, 256): 0.68.
SYMMETRIC_MIN_DIM = 64


def _symmetric(decomp: HamiltonianDecomposition) -> bool:
    """Whether decomp is a real split at or above SYMMETRIC_MIN_DIM."""
    return decomp.dim >= SYMMETRIC_MIN_DIM and all(
        vecs is None or np.isrealobj(vecs) for _, vecs in decomp.eigenpairs)


def second_order_step(decomp: HamiltonianDecomposition, t) -> np.ndarray:
    """Palindromic second-order product S_1(t), for one time or a time array.

    Half-step exponentials of the terms are applied left to right and then
    right to left, so the product is symmetric under t -> -t up to conjugation
    and its error per step is O(t^3). Exact when all terms commute. The two
    half steps of the last term meet in the middle and are taken as one full
    step; every exponential is a phase scaling of the term's cached
    eigenbasis. A diagonal term stays a vector of phases that scales the rows
    and columns of the product, so a product of diagonal terms is a diagonal
    until the end. A real split with a dense term at d >= SYMMETRIC_MIN_DIM
    is formed as Y Y^T instead (see the module docstring). Every time must be
    finite.
    """
    ts = np.asarray(t, dtype=float)
    if not np.isfinite(ts).all():
        raise ValueError(f"time must be finite, got {t!r}")
    pairs = decomp.eigenpairs
    if _symmetric(decomp) and any(vecs is not None for _, vecs in pairs):
        return _symmetric_step(pairs, ts / 2.0)
    *outer, (w, vecs) = pairs
    # out holds the diagonal of the product while `diagonal` is set
    diagonal = vecs is None
    out = phases(w, ts) if diagonal else eigen_propagator(w, vecs, ts)
    for w, vecs in reversed(outer):
        if vecs is None:
            half = phases(w, ts / 2.0)
            out = half * out * half if diagonal else half[..., :, None] * out * half[..., None, :]
        else:
            half = eigen_propagator(w, vecs, ts / 2.0)
            out = (half * out[..., None, :]) @ half if diagonal else half @ out @ half
            diagonal = False
    return diagonal_matrices(out) if diagonal else out


def _symmetric_step(pairs, half_ts: np.ndarray) -> np.ndarray:
    """Y Y^T for Y = A_1 ... A_m, the half-step exponentials of a real split.

    Diagonal terms scale the columns of Y in place, or its rows while no
    dense term has come; Y Y^T is one syrk product.
    """
    y = diag = None
    for w, vecs in pairs:
        if vecs is None:
            p = phases(w, half_ts)
            if y is not None:
                y *= p[..., None, :]
            else:
                diag = p if diag is None else diag * p
        else:
            half = eigen_propagator(w, vecs, half_ts)
            if y is not None:
                y = y @ half
            else:
                y = half
                if diag is not None:
                    y *= diag[..., :, None]
    return y @ y.swapaxes(-1, -2)


def products(decomp: HamiltonianDecomposition, ts, l: int) -> np.ndarray:
    """S_1(t/l)^l for every time in ts: a (T, d, d) stack for T times.

    A real split at d >= SYMMETRIC_MIN_DIM squares its powers as z z^T (syrk);
    any other split is raised by `numpy.linalg.matrix_power`.
    """
    if int(l) != l or l < 1:
        raise ValueError(f"iteration count must be a positive integer, got {l!r}")
    n = int(l)
    z = second_order_step(decomp, np.asarray(ts, dtype=float) / n)
    # binary powering (repeated squaring), O(log l) products, raising each
    # matrix of the stack: faster than a plain product loop at every l, l <= 32
    # included, and within 1e-12 of it for the unitary steps used here
    if not _symmetric(decomp):
        return np.linalg.matrix_power(z, n)
    # matrix_power's order: bits of l from the lowest, result @ z for each set
    # bit; every z is a power of the step, exactly symmetric, and squared by syrk
    result = None
    while True:
        n, bit = divmod(n, 2)
        if bit:
            result = z if result is None else result @ z
        if not n:
            return result
        z = z @ z.swapaxes(-1, -2)


def trotterize(decomp: HamiltonianDecomposition, t: float, l: int) -> np.ndarray:
    """S_1(t/l) raised to the l-th power, at one time t."""
    if np.ndim(t) != 0:
        raise ValueError("trotterize takes one time; use products for a time array")
    return products(decomp, t, l)
