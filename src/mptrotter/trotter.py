"""Second-order symmetric product formulas and their iterated powers.

`second_order_step` and `products` take one time or an array of times; an
array gives a stack of operators with the time axes in front. `trotterize` is
the one-time form.
"""
from __future__ import annotations

import numpy as np

from .hamiltonian import HamiltonianDecomposition
from .linalg import diagonal_matrices, eigen_propagator, phases


def second_order_step(decomp: HamiltonianDecomposition, t) -> np.ndarray:
    """Palindromic second-order product S_1(t), for one time or a time array.

    Half-step exponentials of the terms are applied left to right and then
    right to left, so the product is symmetric under t -> -t up to conjugation
    and its error per step is O(t^3). Exact when all terms commute. The two
    half steps of the last term meet in the middle and are taken as one full
    step; every exponential is a phase scaling of the term's cached
    eigenbasis. A diagonal term stays a vector of phases that scales the rows
    and columns of the product, so a product of diagonal terms is a diagonal
    until the end. Every time must be finite.
    """
    ts = np.asarray(t, dtype=float)
    if not np.isfinite(ts).all():
        raise ValueError(f"time must be finite, got {t!r}")
    *outer, (w, vecs) = decomp.eigenpairs
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


def products(decomp: HamiltonianDecomposition, ts, l: int) -> np.ndarray:
    """S_1(t/l)^l for every time in ts: a (T, d, d) stack for T times."""
    if int(l) != l or l < 1:
        raise ValueError(f"iteration count must be a positive integer, got {l!r}")
    # binary powering (repeated squaring), O(log l) products, raising each
    # matrix of the stack: faster than a plain product loop at every l, l <= 32
    # included, and within 1e-12 of it for the unitary steps used here
    return np.linalg.matrix_power(
        second_order_step(decomp, np.asarray(ts, dtype=float) / int(l)), int(l))


def trotterize(decomp: HamiltonianDecomposition, t: float, l: int) -> np.ndarray:
    """S_1(t/l) raised to the l-th power, at one time t."""
    if np.ndim(t) != 0:
        raise ValueError("trotterize takes one time; use products for a time array")
    return products(decomp, t, l)
