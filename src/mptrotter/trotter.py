"""Second-order symmetric product formulas and their iterated powers.

`second_order_step` and `trotterize` take one time or an array of times; an
array gives a stack of operators with the time axes in front.
`product_stacks` forms the products of several iteration counts from one
stacked step, and `trotterize` is its one-count case.

The step is S_1(t) = Y(t/2) Y(-t/2)^dag with Y(s) = A_1(s) ... A_m(s), the
product of the terms' exponentials. A real split, whose every term is
diagonal, dyadic or has a real eigenbasis, has complex symmetric A_i(s), so
Y(-s)^dag = Y(s)^T and its step and all its powers are complex symmetric.
From d = SYMMETRIC_MIN_DIM up such a split squares its powers as z z^T, a
product that numpy hands to BLAS syrk, which forms one triangle and mirrors
it: the results are exactly symmetric. Up to d = _REAL_FORM_MAX_DIM the steps
are raised in the real form R(z) = [[Re z, -Im z], [Im z, Re z]], and z^l is
read from the left block column of R(z)^l = R(z^l): BLAS multiplies a stack of
small real matrices in one call but a complex stack one call per matrix. Other
splits are raised by `numpy.linalg.matrix_power`.

A split with `sectors` (d >= SYMMETRIC_MIN_DIM and every term invariant under
the spin flip or the chain reflection, as both terms of a transverse-field
Ising split are) is stepped and raised in each sector by these same rules,
a real one squared as z z^T at every sector size, and each count's stacks are
joined once by `linalg.SectorMap.join`. The 8-qubit Ising chain's four sectors
(72, 64, 56 and 64 states) cost a quarter of the flops of its two spin-flip
halves in every matrix product, and the join keeps the exact symmetry of a
real split's powers.
"""
from __future__ import annotations

import numpy as np

from .hamiltonian import HamiltonianDecomposition
from .linalg import (
    SYMMETRIC_MIN_DIM,
    WALSH,
    check_count,
    diagonal_matrices,
    eigen_propagator,
    phases,
)

# Largest dimension raised in the real form; its timings are in CHANGES.md.
_REAL_FORM_MAX_DIM = 8


def _real(decomp: HamiltonianDecomposition) -> bool:
    """Whether every term of decomp is diagonal, dyadic or has a real eigenbasis."""
    return all(vecs is None or vecs is WALSH or np.isrealobj(vecs)
               for _, vecs in decomp.eigenpairs)


def second_order_step(decomp: HamiltonianDecomposition, t) -> np.ndarray:
    """Symmetric second-order product S_1(t), for one time or a time array.

    S_1(t) = A_1(t/2) ... A_m(t/2) A_m(t/2) ... A_1(t/2), formed as
    Y(t/2) Y(-t/2)^dag: one product Y Y^T for a real split, and Y built a
    second time at -t/2 for a complex one. The step is symmetric under
    t -> -t up to conjugation, its error per step is O(t^3), and it is exact
    when all terms commute. Every time must be finite.
    """
    ts = np.asarray(t, dtype=float)
    if not np.isfinite(ts).all():
        raise ValueError(f"time must be finite, got {t!r}")
    y = _half_product(decomp, ts / 2.0)
    if y.ndim == ts.ndim + 1:  # every term diagonal: Y is a diagonal, S_1 = Y^2
        return diagonal_matrices(y * y)
    if _real(decomp):
        return y @ y.swapaxes(-1, -2)
    return y @ _half_product(decomp, -ts / 2.0).conj().swapaxes(-1, -2)


def _half_product(decomp: HamiltonianDecomposition, s: np.ndarray) -> np.ndarray:
    """Y(s) = A_1(s) ... A_m(s), or the diagonal of Y when every term is diagonal.

    Each A_i is a phase scaling of the term's cached eigenbasis, or for a
    dyadic term a gather from the transform of its phases. A diagonal
    term is never made a matrix: it scales the columns of Y, or its rows while
    no dense term has come.
    """
    y = diag = None
    for w, vecs in decomp.eigenpairs:
        if vecs is None:
            p = phases(w, s)
            if y is not None:
                y *= p[..., None, :]
            else:
                diag = p if diag is None else diag * p
        else:
            a = eigen_propagator(w, vecs, s)
            if y is not None:
                y = y @ a
            else:
                y = a
                if diag is not None:
                    y *= diag[..., :, None]
    return diag if y is None else y


def product_stacks(decomp: HamiltonianDecomposition, ts, counts) -> dict:
    """{l: S_1(t/l)^l for every time in ts} for each iteration count l in counts.

    The steps of all counts come from one `second_order_step` call on the
    stacked times ts / l (one per sector when the split has them), and are
    raised (in the real form up to d = _REAL_FORM_MAX_DIM) by the rules of
    the module docstring. counts is a sequence of integers >= 1, every one
    checked by `linalg.check_count` first.
    """
    counts = [check_count(l, "iteration count", 1) for l in counts]
    if not counts:
        return {}
    ts = np.asarray(ts, dtype=float)
    if decomp.sectors is None:
        return _products(decomp, ts, counts, decomp.dim)
    sectors, parts = decomp.sectors
    stacks = [_products(part, ts, counts, decomp.dim) for part in parts]
    return {l: sectors.join([s[l] for s in stacks]) for l in counts}


def _products(decomp: HamiltonianDecomposition, ts: np.ndarray, counts: list, dim: int) -> dict:
    """`product_stacks` of decomp, a whole split of dimension dim or one of its sectors."""
    # every count's times in one division: (len(counts),) + ts.shape
    steps = second_order_step(decomp, ts / np.asarray(counts, dtype=float).reshape(
        (-1,) + (1,) * ts.ndim))
    if (d := decomp.dim) <= _REAL_FORM_MAX_DIM:  # one real form for the steps of all counts
        real = np.empty(steps.shape[:-2] + (2 * d, 2 * d))
        real[..., :d, :d] = real[..., d:, d:] = steps.real
        real[..., d:, :d] = steps.imag
        np.negative(steps.imag, out=real[..., :d, d:])
        del steps  # the complex steps are as large as half the real form
        out = {}
        for l, r in zip(counts, real):
            e = np.linalg.matrix_power(r, l)  # R(z^l), z^l in its left block column
            out[l] = e[..., :d, :d].astype(complex)
            out[l].imag = e[..., d:, :d]
        return out
    return {l: _power(decomp, z, l, dim) for l, z in zip(counts, steps)}


def _power(decomp: HamiltonianDecomposition, z: np.ndarray, n: int, dim: int) -> np.ndarray:
    """z^n for a step z of decomp, or for each step of a stack; dim is the
    dimension of the whole split, of which decomp may be a sector."""
    # binary powering (repeated squaring), O(log l) products, raising each
    # matrix of the stack: faster than a plain product loop at every l, l <= 32
    # included, and within 1e-12 of it for the unitary steps used here
    if dim < SYMMETRIC_MIN_DIM or not _real(decomp):
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


def trotterize(decomp: HamiltonianDecomposition, t, l: int) -> np.ndarray:
    """S_1(t/l)^l: a (d, d) matrix for one time t, a (T, d, d) stack for T times."""
    return product_stacks(decomp, t, (l,))[l]
