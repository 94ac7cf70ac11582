"""Dense complex matrix kernel: Hermitian propagators, norms, unitary completion.

Operators are plain square complex ndarrays and state vectors are 1-d complex
ndarrays; nothing here mutates its inputs. Matrix exponentials go through an
eigendecomposition, which is exact to roundoff for Hermitian generators at any
dimension, so no scaling-and-squaring is needed. Callers that exponentiate one
generator at many times keep its eigenpairs and call `eigen_propagator`, which
takes one time or an array of times. `hermitian_propagator` keeps them itself
for the matrix that comes back: it remembers the last matrix it validated by a
SHA-256 digest of its entries, keeps that matrix's spectra once it comes a
second time in a row, and from then on neither validates nor diagonalizes it
again. So the total H of a model is diagonalized twice per process, not once
per call, while a matrix used once leaves only its 32-byte digest behind.

`eigenpairs` is the one place a matrix is diagonalized, and it picks the
cheapest basis the matrix allows: the eigenvectors are None for a diagonal
matrix (its propagators are phases on the diagonal), the marker WALSH for a
dyadic one, a real array for a real symmetric one (diagonalized and multiplied
in real arithmetic), and a complex array otherwise.

A matrix h of dimension d = 2^n is dyadic when h[i, j] = g[i ^ j] for every
i, j, with g = h[0]; every combination of X-strings (tensor products of Pauli
X and identities) is one. The Walsh-Hadamard matrix W[i, k] = (-1)^|i & k|,
with |m| the number of 1 bits of m, diagonalizes it: h = W diag(W g) W / d.
So its spectrum is the transform W g, its propagator is
exp(-i h t)[i, j] = f[i ^ j] with f = W exp(-i t W g) / d, and W is never
formed: the transform takes O(d log d) and the gather O(d^2).

A matrix h of even dimension d = 2n is centrosymmetric when
h[i, j] = h[d-1-i, d-1-j] for every i, j; for spin systems this is the
symmetry under the global flip X^{(x)n}. With J the n x n reversal, such an h is
[[A, C], [J C J, J A J]], and the orthogonal butterfly Q = [[I, I], [J, -J]]/sqrt 2
block-diagonalizes it: Q^T h Q = diag(A + C J, A - C J) (Cantoni and Butler,
Linear Algebra Appl. 13, 1976). `centro_blocks` gives the two sector blocks in
O(d^2), and `centro_join` maps a function of them back, Q diag(U+, U-) Q^T, in
O(d^2). It is the one sector rule: from d = SYMMETRIC_MIN_DIM up, a
centrosymmetric matrix, or a split of them, runs in its two sectors, and
`hermitian_propagator` diagonalizes it as two n x n blocks, 1/8 the flops each.
The split keeps structure: a diagonal h gives the diagonal blocks diag(D[:n]),
and a dyadic row g gives the dyadic rows g[:n] +- g[::-1][:n].
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

# Tolerance for algebraic identities (unitarity, hermiticity, reconstruction).
ATOL_ALGEBRAIC = 1e-10

# Smallest dimension that takes the paths whose fixed cost only pays off on
# larger matrices: a real split squares its powers as z z^T (`trotter`), and a
# centrosymmetric matrix or split runs in its two sectors (`centro_blocks`).
# Its timings are in CHANGES.md.
SYMMETRIC_MIN_DIM = 64

# The eigenvector slot of a dyadic matrix's eigenpairs: its eigenvectors are
# the columns of the Walsh-Hadamard matrix, which is never formed.
WALSH = "walsh"


def is_integer(x) -> bool:
    """Whether x is a number with an integer value; False for inf, NaN and text.

    Plain Python, so per-call checks of counts cost no numpy call.
    """
    try:
        return int(x) == x
    except (TypeError, ValueError, OverflowError):
        return False


def check_count(x, what: str, least: int) -> int:
    """int(x) for a count x that is an integer >= least; a ValueError naming it otherwise."""
    if not is_integer(x) or x < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {x!r}")
    return int(x)


def as_operator(m) -> np.ndarray:
    """Coerce to a nonempty square complex matrix, rejecting anything else."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"operator must be a nonempty square matrix, got shape {a.shape}")
    return a


def as_state(v, what: str = "state vector") -> np.ndarray:
    """Coerce to a nonempty 1-d complex vector of unit norm within 1e-9, or
    raise a ValueError naming what.

    The one unit-norm rule: `math.hypot` forms the norm without squaring, so
    no entry overflows it or warns, and NaN fails the comparison.
    """
    a = np.asarray(v, dtype=complex).reshape(-1)
    if a.size == 0:
        raise ValueError(f"{what} must be nonempty")
    n = math.hypot(*np.ascontiguousarray(a).view(float).tolist())
    if not abs(n - 1.0) <= 1e-9:  # NaN fails
        raise ValueError(f"{what} is not normalized: ||psi|| = {n!r}")
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


def is_hermitian(m) -> bool:
    a = as_operator(m)
    return spectral_norm(a - a.conj().T) < ATOL_ALGEBRAIC


def is_unitary(m) -> bool:
    a = as_operator(m)
    return spectral_norm(a @ a.conj().T - np.eye(a.shape[0])) < ATOL_ALGEBRAIC


# (key, spectra) of the last matrix `hermitian_propagator` validated; spectra
# is None until that matrix comes a second time in a row.
_last: tuple = (None, None)


def hermitian_propagator(h, t) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via eigendecomposition.

    Rejects non-finite or non-Hermitian input and non-finite times; the result
    is unitary to roundoff, and negative t gives the inverse. t is one time or
    an array of times, as for `eigen_propagator`.

    The last matrix that passed validation is remembered by its shape and the
    SHA-256 digest of its complex entries, so any changed bit is another
    matrix. Its spectra are kept only when it comes a second time in a row
    (a matrix used once would otherwise hold O(d^2) memory for nothing); while
    it keeps coming back it is neither validated nor diagonalized again, and
    the result is bit for bit that of a fresh call.
    """
    global _last
    a = as_operator(h)
    if not np.isfinite(t).all():
        raise ValueError(f"time must be finite, got {t!r}")
    key = (a.shape, hashlib.sha256(np.ascontiguousarray(a)).digest())
    # one read and one write of the memo: a concurrent caller can cost a
    # diagonalization, but never pair a key with another matrix's spectra
    last_key, spectra = _last
    if key != last_key:
        _check_hermitian(a)
    if key != last_key or spectra is None:
        spectra = tuple(eigenpairs(b) for b in centro_blocks(a) or (a,))
        _last = (key, spectra if key == last_key else None)
    props = [eigen_propagator(w, vecs, t) for w, vecs in spectra]
    return centro_join(*props) if len(props) == 2 else props[0]


def _check_hermitian(a: np.ndarray) -> None:
    """Reject a matrix with a non-finite entry or a skew part of norm >= ATOL_ALGEBRAIC."""
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    skew = a - a.conj().T
    # The Frobenius norm bounds the spectral norm from above, so a small one
    # accepts without the eigenvalue problem the spectral norm costs.
    if not np.linalg.norm(skew) < ATOL_ALGEBRAIC:  # NaN fails
        dev = spectral_norm(skew)
        if not dev < ATOL_ALGEBRAIC:
            raise ValueError(f"matrix is not Hermitian: ||H - H^dag|| = {dev:.3e}")


def is_diagonal(h: np.ndarray) -> bool:
    """Whether every nonzero entry of the square matrix h is on its diagonal."""
    return np.count_nonzero(h) == np.count_nonzero(np.diagonal(h))


def centro_blocks(h: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(A + C J, A - C J) when h = [[A, C], [J C J, J A J]] exactly; None otherwise.

    These are the sector blocks of Q^T h Q for a centrosymmetric h of even
    dimension d = 2n >= SYMMETRIC_MIN_DIM (a smaller h has none), as real
    arrays when h has no imaginary part; when C = 0 both are the view A of h.
    Most other matrices are rejected in O(d) on a diagonal that is not a
    palindrome, before the O(d^2) comparison.
    """
    d = h.shape[0]
    diag = np.diagonal(h)
    if d < SYMMETRIC_MIN_DIM or d % 2 or not np.array_equal(diag, diag[::-1]) \
            or not np.array_equal(h, h[::-1, ::-1]):
        return None
    n = d // 2
    if np.iscomplexobj(h) and not h.imag.any():
        h = h.real  # a decomposition keeps its sectors' terms: keep them small
    a, cj = h[:n, :n], h[:n, n:][:, ::-1]
    if not cj.any():
        return a, a
    return a + cj, a - cj


def centro_join(plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """Q diag(plus, minus) Q^T, the (d, d) matrix of a pair of sector matrices.

    It is [[S, D J], [J D, J S J]] with S = (plus + minus)/2 and
    D = (plus - minus)/2, for one pair of (n, n) matrices or for stacks with
    the same leading axes. Symmetric sector matrices give an exactly
    symmetric result.
    """
    n = plus.shape[-1]
    out = np.empty(plus.shape[:-2] + (2 * n, 2 * n), dtype=np.result_type(plus, minus))
    # the top half [S, D J] is formed in place, and the bottom half
    # [J D, J S J] is that half reversed along both axes
    top = out[..., :n, :]
    np.add(plus, minus, out=top[..., :n])
    np.subtract(plus, minus, out=top[..., n:][..., ::-1])
    top *= 0.5
    out[..., n:, :] = top[..., ::-1, ::-1]
    return out


def xor_index(d: int) -> np.ndarray:
    """The (d, d) array of i ^ j."""
    i = np.arange(d)
    return np.bitwise_xor.outer(i, i)


def walsh_transform(a: np.ndarray) -> np.ndarray:
    """W a along the last axis of a, whose length d is a power of two.

    W[i, k] = (-1)^|i & k| is the unnormalized Walsh-Hadamard matrix (W W = d I);
    the transform is log2(d) butterfly passes of sums and differences.
    """
    shape = a.shape
    d = shape[-1]
    h = d // 2
    while h:
        x = a.reshape(shape[:-1] + (d // (2 * h), 2, h))
        a = np.empty_like(x)
        np.add(x[..., 0, :], x[..., 1, :], out=a[..., 0, :])
        np.subtract(x[..., 0, :], x[..., 1, :], out=a[..., 1, :])
        h //= 2
    return a.reshape(shape)


def dyadic_row(h: np.ndarray) -> np.ndarray | None:
    """g = h[0] when h[i, j] = g[i ^ j] exactly for every i, j; None otherwise.

    Such an h is dyadic, and its dimension is a power of two above 1. Its
    diagonal is g[0] throughout, so most other matrices are rejected in O(d)
    before the O(d^2) comparison.
    """
    d = h.shape[0]
    if d < 2 or d & (d - 1) or not (np.diagonal(h) == h[0, 0]).all():
        return None
    g = h[0]
    return g if np.array_equal(h, g[xor_index(d)]) else None


def eigenpairs(h: np.ndarray) -> tuple[np.ndarray, np.ndarray | str | None]:
    """(w, vecs): eigenvalues and eigenvector columns of a Hermitian matrix h.

    vecs is None when h is diagonal, and w is then its real diagonal in place
    (not sorted); vecs is WALSH when h is dyadic with a real row g, and w is
    then the Walsh spectrum W g (not sorted); vecs is real when h is real;
    otherwise both come from the complex eigendecomposition. h must be a
    square ndarray already checked to be Hermitian.
    """
    if is_diagonal(h):
        return np.diagonal(h).real.copy(), None
    g = dyadic_row(h)
    if g is not None and not g.imag.any():
        return walsh_transform(g.real), WALSH
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


def eigen_propagator(w: np.ndarray, vecs: np.ndarray | str | None, t) -> np.ndarray:
    """exp(-i h t) from the eigenpairs (w, vecs) of h, as `eigenpairs` gives them.

    A scalar t gives one (d, d) matrix; an array of times gives the stack of
    propagators with the time axes in front, (T, d, d) for T times.
    """
    p = phases(w, t)
    if vecs is None:
        return diagonal_matrices(p)
    if vecs is WALSH:
        # W diag(p) W / d is dyadic: entry (i, j) is f[i ^ j] with f = W p / d,
        # so the propagator is exactly complex symmetric
        d = p.shape[-1]
        return (walsh_transform(p) / d)[..., xor_index(d)]
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
        out += w * a
    return out


def kron(a, b) -> np.ndarray:
    """Kronecker product, first factor on the slow (most significant) index."""
    return np.kron(as_operator(a), as_operator(b))


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
