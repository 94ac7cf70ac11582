"""Dense complex matrix kernel: Hermitian propagators, norms, sectors and sums.

Operators are plain square complex ndarrays and state vectors are 1-d complex
ndarrays; nothing here mutates its inputs. Matrix exponentials go through an
eigendecomposition, which is exact to roundoff for Hermitian generators at any
dimension, so no scaling-and-squaring is needed. Callers that exponentiate one
generator at many times keep its eigenpairs and call `eigen_propagator`, which
takes one time or an array of times. `hermitian_propagator` keeps them itself
for the matrix that comes back: it remembers the last matrix it validated by a
SHA-256 digest, and from its second call in a row keeps a copy of its bits
(16 d^2 bytes: 1 MiB at d = 256, 16 MiB at d = 1024) with its spectra; a call
whose bits equal the copy is neither hashed, validated nor diagonalized. So the
total H of a model is diagonalized twice per process, not once per call, while
a matrix used once leaves only its 32-byte digest behind.

A matrix h is Hermitian when spectral_norm(h - h^dag) < ATOL_ALGEBRAIC, in
`hermitian_propagator` and `hamiltonian.HamiltonianDecomposition` alike. That
costs O(d^2) when h is exactly Hermitian or dyadic: `spectral_norm` reads its
zero or dyadic skew part off the diagonal or the first row, with no eigenproblem.

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

From d = SYMMETRIC_MIN_DIM up, `sector_map` picks from a fixed list the
index involutions p that leave a matrix, or every term of a split, exactly
invariant, h[p[i], p[j]] = h[i, j]: the complement i -> d-1-i (the global spin
flip X^{(x)n}) and, for d = 2^n, the reversal of the n bits (the reflection of
a chain). They generate g = 2^k index maps g_b. Each orbit {g_b(r)}, named by
its least index r, adds to sector c the unit vector with entry chi_c(b)/sqrt|O_r|
at g_b(r), chi_c(b) = (-1)^|c & b|, when chi_c is 1 on the maps that fix r.
These vectors form an orthogonal V with V^T h V = diag(h_c), and
`SectorMap.blocks` gives h_c[r, r'] = sqrt(|O_r| |O_r'|)/g sum_b chi_c(b)
h[r, g_b(r')], a gather and a Walsh transform over b. `SectorMap.join` maps
functions u_c of the blocks back, V diag(u_c) V^T, in four passes: the u_c
copied end to end, each entry divided by sqrt(|O_r| |O_r'|) on the way; a take
into a zero-padded (g, n, n) array; the Walsh transform over c, as one real
product of the g x g character matrix with that array; and a gather at (i, j)
from map b(i) ^ b(j). Both are O(d^2). Orbit members share their diagonal
entry, so a diagonal h gives diagonal blocks, and symmetric u_c join to an
exactly symmetric matrix.
With the complement alone the blocks are A +- C J for
h = [[A, C], [J C J, J A J]] (Cantoni and Butler, 1976), so a dyadic row
g gives the dyadic rows g[:n] +- g[::-1][:n]; the 8-qubit Ising chain has both
involutions and sectors of 72, 64, 56 and 64 states, a quarter of the flops of
its two spin-flip halves in each matrix product or diagonalization.
"""
from __future__ import annotations

import hashlib
import math
import reprlib

import numpy as np

# Tolerance of the hermiticity rule on ||H - H^dag||.
ATOL_ALGEBRAIC = 1e-10

# Smallest dimension that takes the paths whose fixed cost only pays off on
# larger matrices: a real split squares its powers as z z^T (`trotter`), and a
# symmetric matrix or split runs in its sectors (`sector_map`), by both
# involutions. Its timings are in CHANGES.md.
SYMMETRIC_MIN_DIM = 64

# The eigenvector slot of a dyadic matrix's eigenpairs: its eigenvectors are
# the columns of the Walsh-Hadamard matrix, which is never formed.
WALSH = "walsh"


def brief(x) -> str:
    """repr(x) for an error message: at most 2 levels, 6 entries, 60 characters each."""
    r = reprlib.Repr()
    r.maxlevel, r.maxstring, r.maxlong, r.maxother = 2, 60, 60, 60
    return r.repr(x)


# The largest integer float() converts: from 2^1024 - 2^970 on, it rounds to inf.
_FLOAT_COUNT_MAX = 2 ** 1024 - 2 ** 970 - 1


def check_count(x, what: str, least: int, most: int = _FLOAT_COUNT_MAX) -> int:
    """int(x) for a count x by the one count rule: an integer with least <= x <= most.

    Otherwise a ValueError names what and quotes x through `brief`. most
    defaults to 2^1024 - 2^970 - 1, the largest integer float() converts, so
    every count that passes converts to a float; a count above it "overflows
    a float", and one above a lower most "must be at most" it. Plain Python,
    so a check costs no numpy call.
    """
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):  # text, inf, NaN
        n = None
    if n is None or n != x or n < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {brief(x)}")
    if n > most:
        raise ValueError(f"{what} {brief(n)} overflows a float" if most == _FLOAT_COUNT_MAX
                         else f"{what} must be at most {most}, got {brief(n)}")
    return n


def as_operator(m) -> np.ndarray:
    """Coerce to a nonempty square complex matrix, rejecting anything else."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"operator must be a nonempty square matrix, got shape {a.shape}")
    return a


def as_state(v, what: str = "state vector") -> np.ndarray:
    """Coerce a 1-d array to a nonempty complex vector of unit norm within
    1e-9, or raise a ValueError naming what; a matrix is no vector.

    The one unit-norm rule: `math.hypot` forms the norm without squaring, so
    no entry overflows it or warns, and NaN fails the comparison.
    """
    a = np.asarray(v, dtype=complex)
    if a.ndim != 1:
        raise ValueError(f"{what} must be a 1-d vector, got shape {a.shape}")
    if a.size == 0:
        raise ValueError(f"{what} must be nonempty")
    n = math.hypot(*np.ascontiguousarray(a).view(float).tolist())
    if not abs(n - 1.0) <= 1e-9:  # NaN fails
        raise ValueError(f"{what} is not normalized: ||psi|| = {n!r}")
    return a


def spectral_norm(m) -> float:
    """Largest singular value of m.

    A diagonal m, the zero matrix included, gives max |m_ii| exactly, after
    one O(d^2) `is_diagonal` pass; a NaN on its diagonal gives NaN. A dyadic m
    of row g, real or complex, is W diag(W g) W / d, so it gives max |W g| in
    O(d^2). Any other m costs an O(d^3) eigenproblem: sqrt of the top
    eigenvalue of M^dag M rather than an SVD, so tests can use an independent
    SVD oracle. The eigenvalue is clamped at zero; roundoff can push it below.
    """
    a = as_operator(m)
    if is_diagonal(a):
        return float(np.abs(np.diagonal(a)).max())
    g = dyadic_row(a)
    if g is not None:
        return float(np.abs(walsh_transform(g)).max())
    w = np.linalg.eigvalsh(a.conj().T @ a)
    return float(np.sqrt(max(float(w[-1]), 0.0)))


# (key, spectra) of the last matrix `hermitian_propagator` validated: its
# digest and None, then from its second call in a row its bits and spectra.
_last: tuple = (None, None)


def hermitian_propagator(h, t) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via eigendecomposition.

    Rejects non-finite or non-Hermitian input and non-finite times; the result
    is unitary to roundoff, and negative t gives the inverse. t is one time or
    an array of times, as for `eigen_propagator`.

    The last matrix that passed validation is remembered by the SHA-256
    digest of its entries, so a matrix used once leaves only 32 bytes. When it
    comes a second time in a row, a copy of its bits (16 d^2 bytes: 1 MiB at
    d = 256, 16 MiB at d = 1024) is kept with its sector map and spectra, and
    a later call is a hit when its int64 view equals that copy: any changed
    bit, a zero's sign included, is another matrix. A hit is neither hashed,
    validated nor diagonalized, and gives the fresh result bit for bit.
    """
    global _last
    a = as_operator(h)
    if not np.isfinite(t).all():
        raise ValueError(f"time must be finite, got {t!r}")
    bits = np.ascontiguousarray(a).view(np.int64)
    # one read and one write of the memo: a concurrent caller can cost a
    # diagonalization, but never pair a key with another matrix's spectra
    last_key, kept = _last
    if kept is None or not np.array_equal(last_key, bits):
        key = hashlib.sha256(bits).digest()
        again = kept is None and key == last_key
        if not again:
            _check_hermitian(a)
        sectors = sector_map((a,))
        kept = sectors, [eigenpairs(b) for b in (sectors.blocks(a) if sectors else (a,))]
        _last = (bits.copy(), kept) if again else (key, None)
    sectors, spectra = kept
    props = [eigen_propagator(w, vecs, t) for w, vecs in spectra]
    return sectors.join(props) if sectors else props[0]


def _check_hermitian(a: np.ndarray) -> None:
    """Reject a matrix with a non-finite entry or a skew part of norm >= ATOL_ALGEBRAIC."""
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    dev = spectral_norm(a - a.conj().T)
    if not dev < ATOL_ALGEBRAIC:
        raise ValueError(f"matrix is not Hermitian: ||H - H^dag|| = {dev:.3e}")


def is_diagonal(h: np.ndarray) -> bool:
    """Whether every nonzero entry of the square matrix h is on its diagonal."""
    return np.count_nonzero(h) == np.count_nonzero(np.diagonal(h))


def sector_map(matrices) -> SectorMap | None:
    """The `SectorMap` of the listed involutions that leave every matrix
    exactly invariant; None when none does, for an odd d or below
    SYMMETRIC_MIN_DIM. A diagonal that an involution changes rejects it in O(d),
    and a diagonal matrix whose diagonal it keeps is invariant with no d^2 copy.
    """
    d = matrices[0].shape[0]
    if d < SYMMETRIC_MIN_DIM or d % 2:
        return None
    i = np.arange(d)
    candidates = [d - 1 - i]
    if not d & (d - 1):
        bits = np.arange(d.bit_length() - 1)
        candidates.append(((i[:, None] >> bits) & 1) @ (1 << bits[::-1]))
    perms = [p for p in candidates if all(
        np.array_equal(np.diagonal(h)[p], np.diagonal(h))
        and (is_diagonal(h) or np.array_equal(h[np.ix_(p, p)], h))
        for h in matrices)]
    return SectorMap(perms) if perms else None


class SectorMap:
    """The sectors of the group of commuting index involutions perms, as the
    module docstring sets them out: `blocks` splits an invariant matrix, and
    `join` is the transpose map."""

    def __init__(self, perms: list[np.ndarray]) -> None:
        group = np.arange(perms[0].size)[None]
        for p in perms:  # map b + 2^j applies perms[j] after map b
            group = np.concatenate([group, p[group]])
        self.reps, pos = np.unique(group.min(0), return_inverse=True)
        self.orbits = group[:, self.reps]  # orbits[b, r] = g_b(rep r)
        fixed = self.orbits == self.reps
        self.g, n = fixed.shape
        self.chars = walsh_transform(np.eye(self.g))  # chars[c, b] = chi_c(b) = chars[b, c]
        self.index = [np.flatnonzero(~(fixed & (chi[:, None] < 0)).any(0)) for chi in self.chars]
        size = self.g / fixed.sum(0)
        self.unscale = 1.0 / np.sqrt(np.multiply.outer(size, size))  # 1 / sqrt(|O_r| |O_r'|)
        self.scales = [self.unscale[i[:, None], i] for i in self.index]  # at block c's entries
        # source[s]: where entry s of the (g, n, n) pad sits in the scaled blocks
        # laid end to end, or the position of one zero appended after them
        spots = np.concatenate([((c * n + i[:, None]) * n + i).ravel()
                                for c, i in enumerate(self.index)])
        self.source = np.full(self.g * n * n, spots.size, dtype=np.intp)
        self.source[spots] = np.arange(spots.size)
        elem = np.empty(group.shape[1], dtype=np.intp)
        elem[self.orbits] = np.arange(self.g)[:, None]
        self.gather = (elem[:, None] ^ elem) * n * n + pos[:, None] * n + pos

    def blocks(self, h: np.ndarray) -> list[np.ndarray]:
        """The sector blocks V_c^T h V_c of an invariant h, real when h has no imaginary part."""
        if np.iscomplexobj(h) and not h.imag.any():
            h = h.real  # a decomposition keeps its sectors' terms: keep them small
        w = walsh_transform(h[self.reps[:, None], self.orbits[:, None, :]], axis=0)
        w /= self.g * self.unscale
        return [w[c, i[:, None], i] for c, i in enumerate(self.index)]

    def join(self, blocks) -> np.ndarray:
        """V diag(blocks) V^T, for one matrix per sector or stacks with the
        same leading axes, in the four passes of the module docstring."""
        lead = blocks[0].shape[:-2]
        width = sum(u.size for u in self.scales) + 1  # the blocks and one zero
        # at least float64, so a complex pad views as (re, im) pairs of the characters' dtype
        flat = np.empty(lead + (width,), dtype=np.result_type(self.chars, *blocks))
        start = 0
        for b, u in zip(blocks, self.scales):
            np.multiply(b, u, out=flat[..., start:start + u.size].reshape(b.shape))
            start += u.size
        flat[..., start] = 0.0
        pad = np.take(flat, self.source, axis=-1).reshape(lead + (self.g, -1))
        pad = (self.chars @ pad.view(self.chars.dtype)).view(pad.dtype)
        return np.take(pad.reshape(lead + (-1,)), self.gather, axis=-1)


def xor_index(d: int) -> np.ndarray:
    """The (d, d) array of i ^ j."""
    i = np.arange(d)
    return np.bitwise_xor.outer(i, i)


def walsh_transform(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """W a along an axis of a (the last by default), whose length d is a power of two.

    W[i, k] = (-1)^|i & k| is the unnormalized Walsh-Hadamard matrix (W W = d I);
    the transform is log2(d) butterfly passes of sums and differences.
    """
    shape = a.shape
    axis %= a.ndim
    d, inner = shape[axis], math.prod(shape[axis + 1:])
    h = d // 2
    while h:  # entries i and i + h of the axis, each with the axes after it
        x = a.reshape(shape[:axis] + (d // (2 * h), 2, h * inner))
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
    propagators with the time axes in front, (T, d, d) for T times. Times are
    not validated here: an infinite t gives NaN entries with numpy warnings,
    where `hermitian_propagator` and `second_order_step` reject it.
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
    taken entrywise over the stacks. Above 2^14 entries it is formed a band of
    rows at a time, so each band of the result stays in cache while every
    term is added to it, and the one temporary is a band rather than another
    array of the result's size. Either way each entry is that of the loop
    out = w_0 A_0; out += w_i A_i, bit for bit.
    """
    band = 1 << 14
    if operators[0].size <= band:
        out = (weights[0] * operators[0]).astype(complex, copy=False)
        for w, a in zip(weights[1:], operators[1:]):
            out += w * a
        return out
    out = np.empty(operators[0].shape, dtype=complex)
    rows = out.reshape(-1, out.shape[-1])
    ops = [a.reshape(rows.shape) for a in operators]
    step = max(1, band // rows.shape[1])
    term = np.empty((step, rows.shape[1]), dtype=complex)
    for start in range(0, len(rows), step):
        part = rows[start:start + step]
        np.multiply(weights[0], ops[0][start:start + step], out=part)
        for w, a in zip(weights[1:], ops[1:]):
            part += np.multiply(w, a[start:start + step], out=term[:len(part)])
    return out


def kron(a, b) -> np.ndarray:
    """Kronecker product, first factor on the slow (most significant) index."""
    return np.kron(as_operator(a), as_operator(b))
