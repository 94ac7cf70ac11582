"""Extended-precision oracle: the spin model's exact propagator and
second-order step, the propagator of a dyadic sum of X-strings, the
second-order step of a 6-qubit transverse-field Ising split and its square,
and the step of a complex split with a diagonal term, against 50-digit mpmath
exponentials; the spin model's long products S(1/L)^L against 50-digit
squaring of the 50-digit step; and the multi-product coefficients against
their 50-digit closed forms."""
from functools import reduce

import mpmath
import numpy as np
import pytest

from mptrotter import (
    HamiltonianDecomposition,
    build_spin_hamiltonian,
    hermitian_propagator,
    mp_coefficients,
    second_order_step,
    total,
    trotterize,
)
from mptrotter.linalg import WALSH, eigen_propagator, eigenpairs
from mptrotter.trotter import SYMMETRIC_MIN_DIM
from tests.conftest import random_hermitian

TOL = 1e-14


def mp_expm(h, t) -> mpmath.matrix:
    """exp(-i h t) at 50 significant digits."""
    with mpmath.workdps(50):
        return mpmath.expm(-1j * mpmath.mpf(t) * mpmath.matrix(h.tolist()))


def to_complex(m: mpmath.matrix) -> np.ndarray:
    return np.array(m.tolist(), dtype=complex)


@pytest.mark.parametrize("t", [0.5, 3.0, 17.0, 60.0])
def test_spin_model_against_50_digit_exponentials(t):
    decomp = build_spin_hamiltonian()
    h1, h2 = decomp.terms
    exact = to_complex(mp_expm(total(decomp), t))
    with mpmath.workdps(50):
        half = mp_expm(h1, t / 2.0)
        step = to_complex(half * mp_expm(h2, t) * half)
    assert np.max(np.abs(hermitian_propagator(total(decomp), t) - exact)) <= TOL
    assert np.max(np.abs(second_order_step(decomp, t) - step)) <= TOL


@pytest.mark.parametrize("t", [0.9, np.array([-2.5, 0.3, 4.0])], ids=["scalar", "stacked"])
def test_dyadic_propagator_against_50_digit_exponentials(t):
    # X_1 + 0.3 X_1 X_2 + 0.7 X_3 on 3 qubits: h[i, j] = g[i ^ j], exponentiated
    # from its Walsh spectrum with no basis matrix
    x, i2 = np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)
    h = (reduce(np.kron, [x, i2, i2]) + 0.3 * reduce(np.kron, [x, x, i2])
         + 0.7 * reduce(np.kron, [i2, i2, x]))
    w, vecs = eigenpairs(h.astype(complex))
    assert vecs is WALSH
    for got in (eigen_propagator(w, vecs, t), hermitian_propagator(h, t)):
        assert got.shape == np.shape(t) + (8, 8)
        for tk, u in zip(np.atleast_1d(t), got.reshape(-1, 8, 8)):
            assert np.max(np.abs(u - to_complex(mp_expm(h, tk)))) <= TOL


def test_ising_step_against_50_digit_exponentials():
    # h sum X_i and J sum Z_i Z_{i+1} on an open chain of 6 qubits (d = 64): a
    # real split of a dyadic and a diagonal term, so the library forms the step
    # as Y Y^T with no basis matrix at all, and its products in the two
    # sectors of the global spin flip. The oracle's half
    # step is the Kronecker product of one 2x2 exponential per qubit, and the
    # ZZ step is a diagonal of phases.
    n, h, j, t = 6, 0.8, 1.1, 0.7
    d = 2 ** n
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = 1 - 2 * ((np.arange(d)[:, None] >> np.arange(n - 1, -1, -1)) & 1)  # z[m, q] = +-1
    hx = sum(h * reduce(np.kron, [sx if q == i else np.eye(2) for q in range(n)])
             for i in range(n))
    zz = j * np.sum(z[:, :-1] * z[:, 1:], axis=1)
    decomp = HamiltonianDecomposition(terms=(hx, np.diag(zz)))
    assert d >= SYMMETRIC_MIN_DIM
    assert decomp.eigenpairs[0][1] is WALSH and decomp.eigenpairs[1][1] is None
    with mpmath.workdps(50):
        a = mp_expm(h * sx, t / 2.0)
        bits = (z < 0).astype(int).tolist()
        # half[r][c] = prod_q a[r_q, c_q], symmetric like a, so its rows are its columns
        half = [[mpmath.fprod(a[x, y] for x, y in zip(row, col)) for col in bits]
                for row in bits]
        phase = [mpmath.expj(-mpmath.mpf(t) * mpmath.mpf(e)) for e in zz.tolist()]
        scaled = [[x * p for x, p in zip(row, phase)] for row in half]
        step = [[mpmath.fdot(row, col) for col in half] for row in scaled]
        # the step is symmetric too, so its rows are its columns, and so is
        # its square: one triangle is formed and mirrored
        squared = np.zeros((d, d), dtype=complex)
        for r in range(d):
            for c in range(r, d):
                squared[r, c] = squared[c, r] = complex(mpmath.fdot(step[r], step[c]))
        step = np.array([[complex(x) for x in row] for row in step])
    assert np.max(np.abs(second_order_step(decomp, t) - step)) <= TOL
    # two steps of t, formed in the two 32 x 32 symmetry sectors and joined
    assert decomp.sectors is not None
    assert np.max(np.abs(trotterize(decomp, 2.0 * t, 2) - squared)) <= TOL


@pytest.mark.parametrize("t", [0.5, 1.0, 3.0, -2.2])
def test_complex_split_step_against_50_digit_exponentials(t):
    # a diagonal, a complex and a real term at d = 4: the library builds
    # Y = A_1 A_2 A_3 at t/2 and at -t/2 and forms Y(t/2) Y(-t/2)^dag. The
    # terms' norms are about 3, so the phase roundoff of the eigenbasis
    # exponentials alone passes TOL near |t| = 17
    rng = np.random.default_rng(23)
    a = rng.standard_normal((4, 4))
    terms = (np.diag(rng.standard_normal(4)), random_hermitian(4, rng), (a + a.T) / 2.0)
    decomp = HamiltonianDecomposition(terms=terms)
    assert [vecs is None for _, vecs in decomp.eigenpairs] == [True, False, False]
    assert np.iscomplexobj(decomp.eigenpairs[1][1])
    with mpmath.workdps(50):
        halves = [mp_expm(h, t / 2.0) for h in terms]
        step = reduce(lambda x, y: x * y, halves + halves[::-1])
    assert np.max(np.abs(second_order_step(decomp, t) - to_complex(step))) <= TOL


@pytest.mark.parametrize("bits, bound", [(10, 1.3e-12), (20, 1.2e-9), (30, 9.6e-7)])
def test_long_spin_products_against_50_digit_squaring(bits, bound):
    # S(1/L)^L for L = 2^bits is the 50-digit step squared bits times. The
    # float64 error is roundoff that grows with L; each bound is twice the
    # error of matrix_power on the complex steps (6.4e-13, 5.6e-10, 4.8e-7)
    decomp = build_spin_hamiltonian()
    h1, h2 = decomp.terms
    with mpmath.workdps(50):
        tau = mpmath.mpf(1) / 2 ** bits
        half = mp_expm(h1, tau / 2)
        product = half * mp_expm(h2, tau) * half
        for _ in range(bits):
            product = product * product
        want = to_complex(product)
    assert np.max(np.abs(trotterize(decomp, 1.0, 2 ** bits) - want)) <= bound


def product_coefficients_50(its) -> list:
    """prod_{p != q} L(q)^2 / (L(q)^2 - L(p)^2) at 50 digits, O(k^2)."""
    with mpmath.workdps(50):
        sq = [mpmath.mpf(int(x)) ** 2 for x in its]
        return [mpmath.fprod(s / (s - r) for r in sq[:q] + sq[q + 1:])
                for q, s in enumerate(sq)]


def geometric_coefficients_50(k) -> list:
    """The coefficients of L(q) = a 2^q at 50 digits, O(k): the factor for p is
    1 / (1 - 4^(p - q)), so c_q = prod_{j < q} 1 / (1 - 4^-j)
    * prod_{j <= k - q} 1 / (1 - 4^j) for q = 1..k."""
    with mpmath.workdps(50):
        lower, upper = [mpmath.mpf(1)], [mpmath.mpf(1)]
        for j in range(1, k):
            lower.append(lower[-1] / (1 - mpmath.mpf(4) ** -j))
            upper.append(upper[-1] / (1 - mpmath.mpf(4) ** j))
        return [lower[q - 1] * upper[k - q] for q in range(1, k + 1)]


def ramp_coefficients_50(n, tail) -> list:
    """The coefficients of (1, ..., n, tail) at 50 digits, O(n): for q <= n,
    prod_{p <= n, p != q} (q^2 - p^2) = (-1)^(n - q) (n - q)! (n + q)! / (2 q^2)."""
    with mpmath.workdps(50):
        t2 = mpmath.mpf(tail) ** 2
        ramp = [(-1) ** (n - q) * 2 * mpmath.mpf(q) ** (2 * n + 2)
                / (mpmath.factorial(n - q) * mpmath.factorial(n + q) * (q * q - t2))
                for q in range(1, n + 1)]
        return ramp + [mpmath.fprod(t2 / (t2 - p * p) for p in range(1, n + 1))]


RAMP_873_TAIL = int(round(np.exp(np.log(873e6) / 873 * 873)))


@pytest.mark.parametrize("its, reference", [
    ((4, 8, 16, 32), lambda: geometric_coefficients_50(4)),
    (tuple(2 ** q for q in range(1, 8)), lambda: geometric_coefficients_50(7)),
    ((1, 2, 3, 96), lambda: product_coefficients_50((1, 2, 3, 96))),
    (tuple(2 ** q for q in range(1, 601)), lambda: geometric_coefficients_50(600)),
    (tuple(range(1, 873)) + (RAMP_873_TAIL,), lambda: ramp_coefficients_50(872, RAMP_873_TAIL)),
    ((1, 3, 2 ** 600), lambda: product_coefficients_50((1, 3, 2 ** 600))),
], ids=["modified:2,4", "modified:1,7", "1,2,3,96", "modified:1,600", "ramp-873",
        "squares-overflow"])
def test_coefficients_against_50_digit_closed_forms(its, reference):
    # the coefficients depend only on ratios, so the geometric forms hold for
    # any prefactor a. Entries below the smallest normal float may round to
    # subnormals or to 0; the others keep a relative error of 2e-14
    got = mp_coefficients(its)
    want = reference()
    assert len(want) == len(got)
    tiny = np.finfo(float).tiny
    errors = [abs(mpmath.mpf(float(g)) - w) / max(abs(w), tiny) for g, w in zip(got, want)]
    assert max(errors) <= 2e-14
