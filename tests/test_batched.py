"""Time-array forms of the propagator, product and amplification layers, and
the structured eigenbases of the propagator and product layers.

Each stacked result must equal the scalar result at every time within 1e-13,
and a non-finite time anywhere in an array must be rejected. Amplification is
also checked against the singular-value form of its Chebyshev polynomial.
Propagators and products of diagonal, dyadic, real and complex terms must
agree with the complex eigendecomposition written out here within 1e-12, and
a propagator from remembered spectra must equal a fresh one bit for bit.
"""
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Chebyshev

from mptrotter import (
    HamiltonianDecomposition,
    build_spin_hamiltonian,
    hermitian_propagator,
    make_schedule,
    mp_operator,
    second_order_step,
    state_errors,
    total,
    trotterize,
)
from mptrotter import linalg
from mptrotter.lcu import amplify
from mptrotter.linalg import (WALSH, diagonal_matrices, eigen_propagator, eigenpairs, phases,
                              sector_map, walsh_transform, weighted_sum, xor_index)
from mptrotter.trotter import _REAL_FORM_MAX_DIM, SYMMETRIC_MIN_DIM, _real, product_stacks
from tests.conftest import (haar_unitary, ising_split, random_hermitian, random_state,
                            taylor_propagator)

TOL = 1e-13
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)

times = st.lists(st.floats(-20.0, 20.0, allow_nan=False), min_size=1, max_size=6)
seeds = st.integers(0, 2 ** 32 - 1)


def random_decomp(rng, d: int, terms: int) -> HamiltonianDecomposition:
    return HamiltonianDecomposition(terms=tuple(random_hermitian(d, rng) for _ in range(terms)))


def max_dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


@PROPERTY
@given(ts=times, seed=seeds, d=st.integers(1, 6))
def test_eigen_propagator_stack_matches_scalar(ts, seed, d):
    h = random_hermitian(d, np.random.default_rng(seed))
    w, vecs = np.linalg.eigh(h)
    stack = eigen_propagator(w, vecs, np.array(ts))
    herm = hermitian_propagator(h, np.array(ts))
    assert stack.shape == herm.shape == (len(ts), d, d)
    for t, u, v in zip(ts, stack, herm):
        assert max_dev(u, eigen_propagator(w, vecs, t)) <= TOL
        assert max_dev(v, hermitian_propagator(h, t)) <= TOL


@PROPERTY
@given(ts=times, seed=seeds, d=st.integers(2, 5), terms=st.integers(1, 3))
def test_second_order_step_stack_matches_scalar(ts, seed, d, terms):
    decomp = random_decomp(np.random.default_rng(seed), d, terms)
    stack = second_order_step(decomp, np.array(ts) / 8.0)
    assert stack.shape == (len(ts), d, d)
    for t, s in zip(ts, stack):
        assert max_dev(s, second_order_step(decomp, t / 8.0)) <= TOL


@PROPERTY
@given(ts=times, seed=seeds, a=st.integers(1, 3), k=st.integers(1, 4))
def test_mp_operator_stack_matches_scalar(ts, seed, a, k):
    decomp = random_decomp(np.random.default_rng(seed), 4, 2)
    sched = make_schedule("modified", a=a, k=k)
    stack = mp_operator(decomp, np.array(ts), sched)
    assert stack.shape == (len(ts), 4, 4)
    for t, m in zip(ts, stack):
        assert max_dev(m, mp_operator(decomp, t, sched)) <= TOL


@PROPERTY
@given(seed=seeds, batch=st.integers(1, 5), d=st.integers(1, 6), n=st.integers(0, 4))
def test_amplify_stack_matches_single_blocks(seed, batch, d, n):
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((batch, d, d)) + 1j * rng.standard_normal((batch, d, d))
    # contractions, like every post-selected block ||M|| <= 1
    blocks /= np.linalg.norm(blocks, ord=2, axis=(-2, -1))[:, None, None]
    psi = random_state(d, rng)
    stack = amplify(blocks, psi, n)
    assert stack.shape == (batch, d)
    for block, u in zip(blocks, stack):
        assert max_dev(u, amplify(block, psi, n)) <= TOL


@PROPERTY
@given(seed=seeds, batch=st.integers(0, 4), d=st.integers(1, 5), ancilla=st.integers(2, 4),
       n=st.integers(0, 4))
def test_amplify_is_odd_chebyshev_of_singular_values(seed, batch, d, ancilla, n):
    # qubitization: n rounds keep (-1)^n T_{2n+1}(M) psi = U (-1)^n T_{2n+1}(Sigma) V^dag psi;
    # corners of Haar unitaries are blocks of unitary circuits, ||M|| <= 1.
    # batch = 0 is one 2-d block, otherwise a stack of batch blocks
    rng = np.random.default_rng(seed)
    blocks = np.stack([haar_unitary(ancilla * d, rng)[:d, :d] for _ in range(max(batch, 1))])
    if not batch:
        blocks = blocks[0]
    psi = random_state(d, rng)
    u, sigma, vh = np.linalg.svd(blocks)
    poly = (-1) ** n * Chebyshev.basis(2 * n + 1)(sigma)
    expected = np.einsum("...ij,...j->...i", u * poly[..., None, :], vh @ psi)
    got = amplify(blocks, psi, n)
    assert got.shape == expected.shape == blocks.shape[:-1]
    assert max_dev(got, expected) <= 1e-12


def conjugate_copy_amplify(block, psi, n):
    """The recurrence of `amplify` with M^dag formed as a conjugate copy of M."""
    stacked = block.ndim > 2
    u = block @ (psi[:, None] if stacked else psi)
    block_dag = block.conj().swapaxes(-1, -2)
    prev = -u
    for _ in range(n):
        x = block @ (block_dag @ u)
        x *= -4.0
        x += 2.0 * u
        x -= prev
        u, prev = x, u
    return u[..., 0] if stacked else u


@pytest.mark.parametrize("shape", [(2, 2), (8, 8), (256, 256), (61, 4, 4)])
@pytest.mark.parametrize("n", range(4))
def test_amplify_equals_the_conjugate_copy_recurrence_bit_for_bit(shape, n):
    rng = np.random.default_rng(shape[-1] + n)
    blocks = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    blocks /= np.linalg.norm(blocks, ord=2, axis=(-2, -1))[..., None, None]
    psi = random_state(shape[-1], rng)
    want = conjugate_copy_amplify(blocks, psi, n)
    assert amplify(blocks, psi, n).tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_non_finite_time_anywhere_is_rejected(spin_decomp, bad, where):
    ts = np.linspace(0.0, 2.0, 5)
    ts[where] = bad
    sched = make_schedule("modified", a=1, k=2)
    for call in (lambda: hermitian_propagator(total(spin_decomp), ts),
                 lambda: second_order_step(spin_decomp, ts),
                 lambda: trotterize(spin_decomp, ts, 4),
                 lambda: mp_operator(spin_decomp, ts, sched),
                 lambda: mp_operator(spin_decomp, ts.reshape(5, 1), sched)):
        with pytest.raises(ValueError, match="finite"):
            call()


def test_state_errors_flag_only_vanishing_rows():
    rng = np.random.default_rng(3)
    exact = np.stack([random_state(4, rng) for _ in range(4)])
    outputs = 2.5 * exact
    outputs[1] = 0.0
    outputs[2] = -outputs[2]
    outputs[3] = 1e-13 * exact[3]
    errors, degenerate = state_errors(exact, outputs)
    assert degenerate.tolist() == [False, True, False, True]
    assert errors[0] == pytest.approx(0.0, abs=1e-15)
    assert np.isnan(errors[1]) and np.isnan(errors[3])
    assert errors[2] == pytest.approx(2.0, abs=1e-15)
    one, flag = state_errors(exact[0], outputs[0])
    assert one.shape == () and not flag


# --- structured eigenbases -------------------------------------------------

STRUCTURE_TOL = 1e-12
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def complex_eigh_propagator(h, t):
    """exp(-i h t) through the complex eigendecomposition: (V * phases) @ V^dag."""
    w, vecs = np.linalg.eigh(np.asarray(h, dtype=complex))
    phases = np.exp(-1j * np.multiply.outer(t, w))
    return (vecs * phases[..., None, :]) @ vecs.conj().T


def complex_eigh_step(terms, t):
    """The palindrome H_1/2 ... H_n ... H_1/2 from complex-eigh half steps."""
    halves = [complex_eigh_propagator(h, np.asarray(t) / 2.0) for h in terms]
    out = halves[-1] @ halves[-1]
    for half in reversed(halves[:-1]):
        out = half @ out @ half
    return out


def structured_hermitian(kind: str, d: int, rng) -> np.ndarray:
    if kind == "diagonal":
        return np.diag(rng.standard_normal(d)).astype(complex)
    if kind == "dyadic":  # h[i, j] = g[i ^ j] with g real; d a power of two
        return rng.standard_normal(d)[xor_index(d)].astype(complex)
    if kind == "real":
        a = rng.standard_normal((d, d))
        return ((a + a.T) / 2.0).astype(complex)
    return random_hermitian(d, rng)


kinds = st.sampled_from(["diagonal", "dyadic", "real", "complex"])


@PROPERTY
@given(kind=kinds, seed=seeds, d=st.integers(1, 16), ts=times, stacked=st.booleans())
def test_structured_propagator_matches_complex_eigh(kind, seed, d, ts, stacked):
    if kind == "dyadic":
        d = 1 << (d.bit_length() - 1)  # the power of two at or below d
    h = structured_hermitian(kind, d, np.random.default_rng(seed))
    w, vecs = eigenpairs(h)
    if kind == "diagonal" or d == 1:
        assert vecs is None
    elif kind == "dyadic":
        assert vecs is WALSH
    elif kind == "real":
        assert vecs.dtype == np.float64
    t = np.array(ts) if stacked else ts[0]
    assert max_dev(eigen_propagator(w, vecs, t), complex_eigh_propagator(h, t)) \
        <= STRUCTURE_TOL
    assert max_dev(hermitian_propagator(h, t), complex_eigh_propagator(h, t)) \
        <= STRUCTURE_TOL


@pytest.mark.parametrize("layout", ["first", "last", "middle", "all"])
@pytest.mark.parametrize("t", [0.37, np.linspace(-2.0, 3.0, 6)])
def test_step_with_diagonal_terms_matches_dense_palindrome(layout, t):
    rng = np.random.default_rng(11)
    dense = [structured_hermitian("complex", 6, rng), structured_hermitian("real", 6, rng)]
    diag = [structured_hermitian("diagonal", 6, rng) for _ in range(3)]
    terms = {"first": [diag[0], *dense],
             "last": [*dense, diag[0]],
             "middle": [dense[0], diag[0], dense[1]],
             "all": diag}[layout]
    decomp = HamiltonianDecomposition(terms=tuple(terms))
    step = second_order_step(decomp, t)
    assert step.shape == np.shape(t) + (6, 6)
    assert max_dev(step, complex_eigh_step(terms, t)) <= STRUCTURE_TOL
    if layout == "all":
        assert max_dev(step, hermitian_propagator(total(decomp), t)) <= STRUCTURE_TOL


def test_ising_split_matches_complex_eigh():
    # transverse-field Ising chain on 8 qubits: h sum X_i and J sum Z_i Z_{i+1}
    def site(op, i):
        out = np.eye(1, dtype=complex)
        for q in range(8):
            out = np.kron(out, op if q == i else np.eye(2))
        return out

    hx = sum(site(SIGMA_X, i) for i in range(8))
    hzz = sum(site(SIGMA_Z, i) @ site(SIGMA_Z, i + 1) for i in range(7))
    decomp = HamiltonianDecomposition(terms=(hx, hzz))
    (_, x_vecs), (_, zz_vecs) = decomp.eigenpairs
    assert x_vecs is WALSH and zz_vecs is None
    t = 1.3
    for l in (4, 8, 16, 32):
        want = np.linalg.matrix_power(complex_eigh_step((hx, hzz), t / l), l)
        assert max_dev(trotterize(decomp, t, l), want) <= STRUCTURE_TOL, l
    h = total(decomp)
    assert max_dev(hermitian_propagator(h, t), complex_eigh_propagator(h, t)) <= STRUCTURE_TOL


def test_diagonal_term_is_not_diagonalized(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a):
        calls.append(a.dtype)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    decomp = build_spin_hamiltonian()  # H1 real, H2 diagonal
    second_order_step(decomp, 0.5)
    hermitian_propagator(decomp.terms[1], 0.5)
    assert calls == [np.float64]
    hermitian_propagator(total(decomp), 0.5)
    assert calls == [np.float64, np.float64]
    hermitian_propagator(random_hermitian(3, np.random.default_rng(0)), 0.5)
    assert calls == [np.float64, np.float64, np.complex128]


def test_ising_split_is_not_diagonalized(monkeypatch):
    # the field term is dyadic and the ZZ term diagonal: neither calls eigh
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.dtype) or eigh(a))
    decomp = ising_split(6)
    assert [vecs for _, vecs in decomp.eigenpairs] == [WALSH, None]
    second_order_step(decomp, np.linspace(-1.0, 2.0, 3))
    assert calls == []


def test_near_dyadic_matrices_take_the_dense_path():
    rng = np.random.default_rng(17)
    h = structured_hermitian("dyadic", 8, rng)
    # symmetric with a constant diagonal, but h[1, 2] != h[0, 3]
    h[1, 2] = h[2, 1] = h[1, 2] + 0.5
    w, vecs = eigenpairs(h)
    assert vecs.dtype == np.float64
    assert max_dev(eigen_propagator(w, vecs, 0.8), complex_eigh_propagator(h, 0.8)) \
        <= STRUCTURE_TOL
    # a constant diagonal at a dimension that is not a power of two
    h = np.full((6, 6), 0.25) + np.diag(np.full(6, 0.75))
    assert eigenpairs(h.astype(complex))[1].dtype == np.float64


def test_dyadic_pattern_with_a_roundoff_imaginary_row_takes_the_complex_path():
    # h[i, j] = g[i ^ j] with Im g[3] = 1e-12 passes the hermiticity check, but
    # the Walsh path would drop Im g: the complex eigh, which reads the lower
    # triangle, must give exp(-i h' t) for the Hermitian h' of that triangle
    g = np.random.default_rng(5).standard_normal(8) + 0j
    g[3] += 1e-12j
    h = g[xor_index(8)]
    w, vecs = eigenpairs(h)
    assert isinstance(vecs, np.ndarray) and vecs.dtype == complex
    lower = np.tril(h) + np.tril(h, -1).conj().T
    for t in (0.7, 1.3, 3.0):
        assert max_dev(eigen_propagator(w, vecs, t), taylor_propagator(lower, t)) <= 1e-14
        assert max_dev(hermitian_propagator(h, t), taylor_propagator(lower, t)) <= 1e-14


def test_dyadic_pattern_with_complex_row_is_rejected():
    g = np.array([1.0, 0.5j, 0.2, 0.0])
    h = g[xor_index(4)]  # h[0, 1] = h[1, 0] = 0.5j: not Hermitian
    with pytest.raises(ValueError, match="not Hermitian"):
        HamiltonianDecomposition(terms=(h,))
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_propagator(h, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_diagonal_is_rejected(bad):
    # rejected by name before H - H^dag is formed, at every size
    for d in (2, 3):
        h = np.diag([1.0, bad, 2.0][:d]).astype(complex)
        with pytest.raises(ValueError, match="finite"):
            hermitian_propagator(h, 1.0)
        with pytest.raises(ValueError, match="finite"):
            HamiltonianDecomposition(terms=(h,))


# --- symmetric products of real splits -------------------------------------
# Every split forms its step as Y(t/2) Y(-t/2)^dag, a real split as Y Y^T. A
# split at d <= _REAL_FORM_MAX_DIM is raised as the real matrix
# R(z) = [[Re z, -Im z], [Im z, Re z]], within roundoff of the complex powers;
# a real split at d >= SYMMETRIC_MIN_DIM squares its powers as z z^T (BLAS
# syrk); every other split must be raised by numpy's matrix_power bit for bit.


def real_split(d: int, real_terms: int, diagonal_at: int, rng) -> HamiltonianDecomposition:
    terms = [structured_hermitian("real", d, rng) for _ in range(real_terms)]
    terms.insert(diagonal_at, structured_hermitian("diagonal", d, rng))
    return HamiltonianDecomposition(terms=tuple(terms))


@settings(max_examples=24, deadline=None, derandomize=True)
@given(seed=seeds, d=st.sampled_from([64, 96, 128]), l=st.sampled_from([1, 2, 3, 5, 8, 96]),
       real_terms=st.integers(1, 2), diagonal_at=st.integers(0, 2), ts=times,
       stacked=st.booleans())
def test_real_split_products_match_complex_eigh(seed, d, l, real_terms, diagonal_at, ts,
                                                stacked):
    decomp = real_split(d, real_terms, min(diagonal_at, real_terms),
                        np.random.default_rng(seed))
    assert d >= SYMMETRIC_MIN_DIM
    t = np.array(ts) if stacked else ts[0]
    want = np.linalg.matrix_power(complex_eigh_step(decomp.terms, np.asarray(t) / l), l)
    got = trotterize(decomp, t, l)
    assert got.shape == np.shape(t) + (d, d)
    assert max_dev(got, want) <= STRUCTURE_TOL


@pytest.mark.parametrize("diagonal_at", [0, 1])
@pytest.mark.parametrize("t", [0.9, np.linspace(-3.0, 4.0, 5)])
def test_real_split_powers_of_two_are_exactly_symmetric(diagonal_at, t):
    decomp = real_split(SYMMETRIC_MIN_DIM, 1, diagonal_at, np.random.default_rng(5))
    for l in (1, 2, 4, 8, 16, 32):
        p = trotterize(decomp, t, l)
        assert np.array_equal(p, p.swapaxes(-1, -2)), l


@pytest.mark.parametrize("d", [16, 32])
def test_real_split_below_crossover_is_plain_matrix_power(d):
    assert _REAL_FORM_MAX_DIM < d < SYMMETRIC_MIN_DIM
    decomp = real_split(d, 1, 1, np.random.default_rng(d))
    ts = np.linspace(-2.0, 5.0, 4)
    stacks = product_stacks(decomp, ts, range(1, 101))
    for l in range(1, 101):
        want = np.linalg.matrix_power(second_order_step(decomp, ts / l), l)
        assert np.array_equal(trotterize(decomp, ts, l), want), l
        assert np.array_equal(stacks[l], want), l


@pytest.mark.parametrize("d", [2, 4, 8])
@pytest.mark.parametrize("split", ["real", "complex"])
@pytest.mark.parametrize("t", [0.7, np.linspace(-2.0, 5.0, 4)], ids=["scalar", "stacked"])
def test_small_products_match_complex_matrix_power(t, split, d):
    assert d <= _REAL_FORM_MAX_DIM
    rng = np.random.default_rng(d)
    decomp = real_split(d, 1, 1, rng) if split == "real" else HamiltonianDecomposition(
        terms=(structured_hermitian("complex", d, rng), structured_hermitian("diagonal", d, rng)))
    assert _real(decomp) == (split == "real")
    stacks = product_stacks(decomp, t, range(1, 101))
    for l in range(1, 101):
        want = np.linalg.matrix_power(second_order_step(decomp, np.asarray(t) / l), l)
        got = trotterize(decomp, t, l)
        assert got.shape == want.shape == np.shape(t) + (d, d)
        assert max_dev(got, want) <= TOL, l
        assert np.array_equal(stacks[l], got), l


def test_complex_split_keeps_plain_matrix_power():
    rng = np.random.default_rng(9)
    d = SYMMETRIC_MIN_DIM
    decomp = HamiltonianDecomposition(terms=(structured_hermitian("real", d, rng),
                                             structured_hermitian("complex", d, rng),
                                             structured_hermitian("diagonal", d, rng)))
    assert np.iscomplexobj(decomp.eigenpairs[1][1])
    ts = np.linspace(-2.0, 5.0, 3)
    counts = (1, 2, 3, 4, 7, 16, 96)
    stacks = product_stacks(decomp, ts, counts)
    for l in counts:
        want = np.linalg.matrix_power(second_order_step(decomp, ts / l), l)
        assert np.array_equal(trotterize(decomp, ts, l), want), l
        assert np.array_equal(stacks[l], want), l
    assert max_dev(second_order_step(decomp, ts), complex_eigh_step(decomp.terms, ts)) \
        <= STRUCTURE_TOL


def single_count_product(decomp, t, l):
    """S_1(t/l)^l from the step at t/l alone, raised one count at a time:
    matrix_power of the real form R(z) at d <= _REAL_FORM_MAX_DIM, the syrk
    squaring z z^T for a real split at d >= SYMMETRIC_MIN_DIM, and
    matrix_power otherwise."""
    z = second_order_step(decomp, np.asarray(t, dtype=float) / l)
    d = decomp.dim
    if d <= _REAL_FORM_MAX_DIM:
        e = np.linalg.matrix_power(np.block([[z.real, -z.imag], [z.imag, z.real]]), l)
        return e[..., :d, :d] + 1j * e[..., d:, :d]
    if d < SYMMETRIC_MIN_DIM or any(np.iscomplexobj(v) for _, v in decomp.eigenpairs):
        return np.linalg.matrix_power(z, l)
    result = None
    while True:
        l, bit = divmod(l, 2)
        if bit:
            result = z if result is None else result @ z
        if not l:
            return result
        z = z @ z.swapaxes(-1, -2)


@pytest.mark.parametrize("t", [0.7, np.linspace(-2.0, 5.0, 4)], ids=["scalar", "array"])
@pytest.mark.parametrize("split", ["spin", "real", "complex"])
def test_product_stacks_equal_single_count_products(split, t):
    # one stacked step for every count gives each count's products bit for bit
    rng = np.random.default_rng(13)
    d = SYMMETRIC_MIN_DIM
    decomp = {
        "spin": lambda: build_spin_hamiltonian(),
        "real": lambda: real_split(d, 1, 1, rng),
        "complex": lambda: HamiltonianDecomposition(terms=(
            structured_hermitian("complex", d, rng), structured_hermitian("diagonal", d, rng))),
    }[split]()
    counts = (1, 2, 3, 5, 96)
    stacks = product_stacks(decomp, t, counts)
    assert list(stacks) == list(counts)
    for l in counts:
        want = single_count_product(decomp, t, l)
        assert want.shape == np.shape(t) + (decomp.dim, decomp.dim)
        assert np.array_equal(stacks[l], want), l
        assert np.array_equal(trotterize(decomp, t, l), want), l


@pytest.mark.parametrize("split", ["spin", "real", "complex", "ising"])
def test_trotterize_of_a_time_array_stacks_the_one_time_calls(split):
    rng = np.random.default_rng(17)
    d = SYMMETRIC_MIN_DIM
    decomp = {
        "spin": lambda: build_spin_hamiltonian(),
        "real": lambda: real_split(d, 1, 1, rng),
        "complex": lambda: HamiltonianDecomposition(terms=(
            structured_hermitian("complex", d, rng), structured_hermitian("diagonal", d, rng))),
        "ising": lambda: ising_split(8),
    }[split]()
    ts = np.linspace(-2.0, 5.0, 4)
    for l in (1, 2, 3, 96):
        want = np.stack([trotterize(decomp, t, l) for t in ts])
        assert np.array_equal(trotterize(decomp, ts, l), want), l
    assert trotterize(decomp, np.float64(0.5), 4).shape == (decomp.dim, decomp.dim)


def test_product_stacks_check_every_count_first(spin_decomp):
    assert product_stacks(spin_decomp, 0.5, ()) == {}
    for bad in (0, -2, 2.5, np.nan):
        with pytest.raises(ValueError, match="iteration count must be an integer >= 1"):
            product_stacks(spin_decomp, np.array([0.5, np.inf]), (4, bad))


# --- symmetry sectors of centrosymmetric splits ----------------------------
# From d = SYMMETRIC_MIN_DIM up, a centrosymmetric matrix, h[i, j] =
# h[d-1-i, d-1-j], is exponentiated in its two half-size sectors, and a split
# whose every term is one is stepped and raised there. Each sector keeps its
# terms' structure.


def centrosymmetric(kind: str, d: int, rng) -> np.ndarray:
    h = structured_hermitian(kind, d, rng)
    return (h + h[::-1, ::-1]) / 2.0


SECTOR_BASIS = {"diagonal": lambda v: v is None, "dyadic": lambda v: v is WALSH,
                "real": lambda v: v.dtype == np.float64,
                "complex": lambda v: v.dtype == np.complex128}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(term_kinds=st.lists(kinds, min_size=1, max_size=3), seed=seeds,
       d=st.sampled_from([8, 64, 128]), l=st.sampled_from([1, 2, 3, 8]), ts=times,
       stacked=st.booleans())
def test_centrosymmetric_split_matches_complex_eigh(term_kinds, seed, d, l, ts, stacked):
    rng = np.random.default_rng(seed)
    decomp = HamiltonianDecomposition(
        terms=tuple(centrosymmetric(kind, d, rng) for kind in term_kinds))
    if d < SYMMETRIC_MIN_DIM:
        assert decomp.sectors is None
    else:
        for sector in decomp.sectors[1]:
            assert sector.dim == d // 2
            for kind, (_, vecs) in zip(term_kinds, sector.eigenpairs):
                assert SECTOR_BASIS[kind](vecs), kind
    t = np.array(ts) if stacked else ts[0]
    want = np.linalg.matrix_power(complex_eigh_step(decomp.terms, np.asarray(t) / l), l)
    got = trotterize(decomp, t, l)
    assert got.shape == np.shape(t) + (d, d)
    assert max_dev(got, want) <= STRUCTURE_TOL
    h = total(decomp)
    assert max_dev(hermitian_propagator(h, t), complex_eigh_propagator(h, t)) \
        <= STRUCTURE_TOL


def test_ising_sectors_call_no_eigh_after_first_use_and_the_exact_propagator_four_blocks(
        monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: calls.append((a.dtype, a.shape)) or eigh(a))
    decomp = ising_split(8)
    # the spin flip and the chain reflection: four sectors, in which the ZZ
    # term stays diagonal and the field term is a dense real block
    blocks = [(np.float64, (n, n)) for n in (72, 64, 56, 64)]
    assert [[vecs is None for _, vecs in sector.eigenpairs] for sector in decomp.sectors[1]] \
        == [[False, True]] * 4
    assert calls == blocks
    trotterize(decomp, 1.3, 8)
    product_stacks(decomp, np.linspace(0.0, 3.0, 4), (4, 8, 16, 32))
    assert calls == blocks
    hermitian_propagator(total(decomp), np.array([0.4, 1.3]))
    assert calls == blocks * 2


@pytest.mark.parametrize("t", [1.3, np.linspace(-3.0, 4.0, 5)])
def test_ising_powers_of_two_are_exactly_symmetric(t):
    decomp = ising_split(8)
    assert decomp.sectors is not None
    for l in (1, 2, 4, 8, 16, 32):
        p = trotterize(decomp, t, l)
        assert np.array_equal(p, p.swapaxes(-1, -2)), l


def test_sectors_need_every_term_centrosymmetric():
    rng = np.random.default_rng(21)
    d = SYMMETRIC_MIN_DIM
    centro, other = centrosymmetric("real", d, rng), structured_hermitian("real", d, rng)
    assert HamiltonianDecomposition(terms=(centro, other)).sectors is None
    assert HamiltonianDecomposition(terms=(centro,)).sectors is not None
    assert HamiltonianDecomposition(
        terms=(centrosymmetric("diagonal", d, rng),)).sectors is not None
    # below SYMMETRIC_MIN_DIM no split has sectors
    assert HamiltonianDecomposition(
        terms=(centrosymmetric("real", d // 2, rng),)).sectors is None
    assert build_spin_hamiltonian().sectors is None
    # an odd dimension has no sectors
    assert HamiltonianDecomposition(terms=(np.ones((65, 65)),)).sectors is None


def bit_reversal(d: int) -> np.ndarray:
    n = d.bit_length() - 1
    return np.array([int(f"{i:0{n}b}"[::-1], 2) for i in range(d)])


# (symmetry, d) -> the sector dimensions: the complement halves d; the reversal
# keeps the 2^ceil(n/2) palindromes in its even sector; both give the orbits of
# the group {1, F, P, FP}, 4 or 2 indices each
SECTOR_DIMS = {("complement", 64): [32, 32], ("complement", 256): [128, 128],
               ("reversal", 64): [36, 28], ("reversal", 256): [136, 120],
               ("both", 64): [20, 16, 12, 16], ("both", 256): [72, 64, 56, 64]}


@pytest.mark.parametrize("symmetry, d", SECTOR_DIMS)
def test_sector_blocks_join_back_to_the_matrix(symmetry, d):
    i = np.arange(d)
    perms = {"complement": [d - 1 - i], "reversal": [bit_reversal(d)],
             "both": [d - 1 - i, bit_reversal(d)]}[symmetry]
    rng = np.random.default_rng(d)
    h = rng.uniform(-1.0, 1.0, (d, d)) + 1j * rng.uniform(-1.0, 1.0, (d, d))
    for p in perms:  # the average over the group the involutions generate
        h = (h + h[np.ix_(p, p)]) / 2.0
    sectors = sector_map((h,))
    blocks = sectors.blocks(h)
    assert [len(b) for b in blocks] == SECTOR_DIMS[symmetry, d]
    assert max_dev(sectors.join(blocks), h) <= 1e-15
    # one stack of two matrices per sector joins to the two matrices
    stacked = sectors.join([np.stack([b, 2.0 * b]) for b in blocks])
    assert max_dev(stacked, np.stack([h, 2.0 * h])) <= 2e-15


def scatter_join(sectors, blocks) -> np.ndarray:
    """V diag(blocks) V^T with each block scattered into a zero pad, the pad
    Walsh-transformed over the sectors, scaled and gathered."""
    lead = blocks[0].shape[:-2]
    n = len(sectors.reps)
    pad = np.zeros(lead + (sectors.g, n, n), dtype=np.result_type(*blocks))
    for c, (i, b) in enumerate(zip(sectors.index, blocks)):
        pad[..., c, i[:, None], i] = b
    pad = walsh_transform(pad, axis=-3) * sectors.unscale
    return np.take(pad.reshape(lead + (-1,)), sectors.gather, axis=-1)


# a field that varies along the chain breaks the reflection and keeps the flip
SPLITS = pytest.mark.parametrize("fields", [None, np.linspace(0.5, 1.5, 8)], ids=["both", "flip"])


@SPLITS
def test_sector_join_is_the_scatter_join_to_roundoff(fields):
    # the join divides by sqrt(|O_r| |O_r'|) before its transform and the
    # scatter join after it; with the flip alone every orbit has 2 members, the
    # division is by 2, exact either way, and the two agree bit for bit
    decomp = ising_split(8, fields)
    sectors, _ = decomp.sectors
    assert sectors.g == (4 if fields is None else 2)
    blocks = sectors.blocks(total(decomp))
    props = [eigen_propagator(*eigenpairs(b), np.array([0.3, -1.1])) for b in blocks]
    for case in (blocks, [p[0] for p in props], props):
        joined, want = sectors.join(case), scatter_join(sectors, case)
        assert joined.dtype == want.dtype and joined.shape == want.shape
        assert max_dev(joined, want) <= 1e-15
        if sectors.g == 2:
            assert joined.tobytes() == want.tobytes()


@SPLITS
def test_symmetric_blocks_join_to_an_exactly_symmetric_matrix(fields):
    decomp = ising_split(8, fields)
    sectors, parts = decomp.sectors
    rng = np.random.default_rng(17)
    for lead in ((), (3,)):
        blocks = []
        for part in parts:
            a = (rng.standard_normal(lead + (part.dim,) * 2)
                 + 1j * rng.standard_normal(lead + (part.dim,) * 2))
            blocks.append(a + a.swapaxes(-1, -2))
        joined = sectors.join(blocks)
        assert np.array_equal(joined, joined.swapaxes(-1, -2))
    # a real split's step is squared as z z^T, and a power of two of it is
    # exactly symmetric in every sector and so once joined
    got = trotterize(decomp, np.array([0.4, 1.3]), 8)
    assert np.array_equal(got, got.swapaxes(-1, -2))


def test_a_sector_join_makes_no_walsh_transform(monkeypatch):
    # its transform over the sectors is one real product with the characters
    sectors, parts = ising_split(8).sectors
    calls = []
    walsh = linalg.walsh_transform
    monkeypatch.setattr(linalg, "walsh_transform",
                        lambda *args, **kwargs: calls.append(1) or walsh(*args, **kwargs))
    eyes = [np.eye(part.dim) for part in parts]
    assert np.array_equal(sectors.join(eyes), np.eye(256))
    assert np.array_equal(sectors.join([np.stack([e, 2.0 * e]) for e in eyes]),
                          np.stack([np.eye(256), 2.0 * np.eye(256)]))
    assert calls == []


def eigh_products(terms, t, counts) -> dict:
    """{l: S_1(t/l)^l} from one complex eigendecomposition of each term."""
    pairs = [np.linalg.eigh(h) for h in terms]

    def half(s):
        out = [(v * np.exp(-0.5j * np.multiply.outer(s, w))[..., None, :]) @ v.conj().T
               for w, v in pairs]
        step = out[-1] @ out[-1]
        for a in reversed(out[:-1]):
            step = a @ step @ a
        return step
    return {l: np.linalg.matrix_power(half(np.asarray(t) / l), l) for l in counts}


@pytest.mark.parametrize("n", [6, 8])  # n = 10 takes seconds in the reference
@pytest.mark.parametrize("t", [0.7, np.array([-1.5, 0.4, 2.0])], ids=["scalar", "array"])
def test_ising_sector_products_match_complex_eigh(n, t):
    decomp = ising_split(n)
    assert decomp.sectors[0].g == 4
    counts = range(1, 33) if n == 6 else (1, 2, 3, 5, 8, 13, 21, 32)
    want = eigh_products(decomp.terms, t, counts)
    got = product_stacks(decomp, t, counts)
    for l in counts:
        assert max_dev(got[l], want[l]) <= TOL, l
    h = total(decomp)
    assert max_dev(hermitian_propagator(h, t), complex_eigh_propagator(h, t)) <= TOL


def test_a_non_uniform_field_keeps_the_two_flip_sectors():
    # fields h_i = 1 + i/10 break the chain reflection but not the spin flip,
    # and each flip sector keeps its terms dyadic and diagonal
    decomp = ising_split(8, fields=1.0 + 0.1 * np.arange(8))
    sectors, parts = decomp.sectors
    assert sectors.g == 2 and [part.dim for part in parts] == [128, 128]
    assert [[vecs for _, vecs in part.eigenpairs] for part in parts] == [[WALSH, None]] * 2
    t = np.array([0.4, 1.3])
    assert max_dev(trotterize(decomp, t, 8), eigh_products(decomp.terms, t, (8,))[8]) <= TOL
    h = total(decomp)
    assert sector_map((h,)).g == 2
    assert max_dev(hermitian_propagator(h, t), complex_eigh_propagator(h, t)) <= TOL


def test_non_palindromic_couplings_keep_the_two_flip_sectors():
    # couplings J_i = 1 + i/10 break the chain reflection of the diagonal ZZ
    # term, which its diagonal alone decides, but not the spin flip
    decomp = ising_split(8, couplings=1.0 + 0.1 * np.arange(7))
    sectors, parts = decomp.sectors
    assert sectors.g == 2 and [part.dim for part in parts] == [128, 128]
    assert [[vecs for _, vecs in part.eigenpairs] for part in parts] == [[WALSH, None]] * 2
    t = np.array([0.4, 1.3])
    assert max_dev(trotterize(decomp, t, 8), eigh_products(decomp.terms, t, (8,))[8]) <= TOL
    # the uniform split keeps both involutions
    assert ising_split(8).sectors[0].g == 4


def test_sums_keep_the_dtype_of_their_terms():
    # total keeps the result type of its terms: a sector part holds real blocks
    decomp = ising_split(6)
    parts = decomp.sectors[1]
    assert total(decomp).dtype == complex
    assert [total(part).dtype for part in parts] == [np.float64] * 4
    hx, zz = parts[0].terms
    assert np.array_equal(total(parts[0]), hx + zz)
    # weighted_sum is complex whatever its weights and operators
    for weights in ([0.5, -2.0], np.array([3, 1])):
        got = weighted_sum(weights, [hx, zz])
        assert got.dtype == complex
        assert np.array_equal(got, weights[0] * hx + weights[1] * zz)
    assert weighted_sum([2.0], [hx]).dtype == complex


def loop_sum(weights, operators) -> np.ndarray:
    """sum_i w_i A_i as the plain left-to-right loop forms it."""
    out = (weights[0] * operators[0]).astype(complex, copy=False)
    for w, a in zip(weights[1:], operators[1:]):
        out += w * a
    return out


# up to 2^14 entries the sum is the loop itself; above, it goes a band of rows
# at a time, the last band short for 600 rows of 300
@pytest.mark.parametrize("shape", [(4, 4), (61, 4, 4), (256, 256), (3, 100, 100), (2, 300, 300)])
def test_weighted_sum_is_the_loop_bit_for_bit(shape):
    rng = np.random.default_rng(shape[-1])
    ops = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(4)]
    ops[1][..., 0, :] = -0.0  # signed zeros keep their sign through both
    for weights in (rng.standard_normal(4) + 1j * rng.standard_normal(4), [1, -0.5, 2.0, 3],
                    np.array([3, 1, -2, 5])):
        for operators in (ops, [a.real for a in ops], [ops[0].swapaxes(-1, -2)] + ops[1:],
                          ops[:1]):
            got, want = weighted_sum(weights, operators), loop_sum(weights, operators)
            assert got.dtype == want.dtype == complex and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def loop_total(terms) -> np.ndarray:
    """The sum of terms as a copy of the first in their result dtype, the others added."""
    out = np.array(terms[0], dtype=np.result_type(*terms))
    for h in terms[1:]:
        out += h
    return out


def test_total_is_the_loop_bit_for_bit():
    rng = np.random.default_rng(23)
    dense = [random_hermitian(8, rng) for _ in range(3)]
    diag = [np.diag(rng.standard_normal(8)) for _ in range(2)]
    diag[1][0, 0] = -0.0
    part = ising_split(6).sectors[1][0]  # a sector's terms are real
    for terms in ((dense[0],), tuple(dense), tuple(diag), (diag[0], dense[1]),
                  (dense[2], diag[1], diag[0]), part.terms):
        got, want = total(SimpleNamespace(terms=terms)), loop_total(terms)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # one term gives a copy, not the term itself
    assert not np.shares_memory(total(SimpleNamespace(terms=(dense[0],))), dense[0])


# --- the spectrum memo of hermitian_propagator -------------------------------
# The last matrix validated is remembered by its SHA-256 digest. From its
# second call in a row a copy of its bits (16 d^2 bytes: 1 MiB at d = 256,
# 16 MiB at d = 1024) is kept with its spectra, and a hit is a compare of those
# bits, with no digest. Every hit must give the fresh result bit for bit, and
# no input may skip a check it would fail.

MEMO_MATRICES = {
    "complex": lambda d, rng: structured_hermitian("complex", d, rng),
    "real": lambda d, rng: structured_hermitian("real", d, rng),
    "diagonal": lambda d, rng: structured_hermitian("diagonal", d, rng),
    "dyadic": lambda d, rng: structured_hermitian("dyadic", d, rng),
    "centro-real": lambda d, rng: centrosymmetric("real", d, rng),
    "centro-complex": lambda d, rng: centrosymmetric("complex", d, rng),
    "centro-diagonal": lambda d, rng: centrosymmetric("diagonal", d, rng),
}
MEMO_TIMES = (0.7, np.linspace(-2.0, 3.0, 5))


def fresh_propagator(monkeypatch, h, t):
    """hermitian_propagator(h, t) with nothing remembered; the memo is left empty."""
    monkeypatch.setattr(linalg, "_last", (None, None))
    out = hermitian_propagator(h, t)
    monkeypatch.setattr(linalg, "_last", (None, None))
    return out


def counted(monkeypatch, owner, name: str) -> list:
    """Record the first argument's shape on each call of owner.name."""
    calls = []
    call = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda a: calls.append(np.shape(a)) or call(a))
    return calls


@pytest.mark.parametrize("kind, d", [(kind, d) for kind in MEMO_MATRICES
                                     for d in (3, 4, 64, 256)
                                     if not (kind == "dyadic" and d == 3)])
def test_remembered_spectra_give_the_fresh_propagator_bit_for_bit(monkeypatch, kind, d):
    h = MEMO_MATRICES[kind](d, np.random.default_rng(d))
    want = [fresh_propagator(monkeypatch, h, t) for t in MEMO_TIMES]
    hermitian_propagator(h, 0.1)
    hermitian_propagator(h, 0.2)
    assert linalg._last[1] is not None
    for t, u in zip(MEMO_TIMES, want):
        got = hermitian_propagator(h.copy(), t)
        assert got.shape == u.shape and got.tobytes() == u.tobytes()


def test_centrosymmetric_diagonal_propagator_is_its_phases_bit_for_bit():
    # it runs in two sectors, and joining their two equal halves is exact
    h = centrosymmetric("diagonal", SYMMETRIC_MIN_DIM, np.random.default_rng(3))
    assert sector_map((h,)) is not None
    for t in MEMO_TIMES:
        want = diagonal_matrices(phases(np.diagonal(h).real, t))
        assert hermitian_propagator(h, t).tobytes() == want.tobytes()


def test_spectra_are_kept_from_the_second_call_in_a_row(monkeypatch):
    calls = counted(monkeypatch, np.linalg, "eigh")
    h = total(ising_split(8))  # four sectors
    for _ in range(2):
        hermitian_propagator(h, 1.3)
    assert calls == [(72, 72), (64, 64), (56, 56), (64, 64)] * 2
    # the same entries in another layout or dtype are the same matrix
    hermitian_propagator(np.asfortranarray(h.real), 1.3)
    hermitian_propagator(total(ising_split(8)), np.array([0.4, 1.3]))
    assert len(calls) == 8


def test_alternating_matrices_keep_no_spectra(monkeypatch):
    calls = counted(monkeypatch, np.linalg, "eigh")
    rng = np.random.default_rng(31)
    a, b = random_hermitian(5, rng), random_hermitian(5, rng)
    for h in (a, b, a, b, a):
        hermitian_propagator(h, 0.5)
        assert linalg._last[1] is None
    assert len(calls) == 5
    hermitian_propagator(a, 0.5)
    hermitian_propagator(a, 0.5)
    assert len(calls) == 6


@pytest.mark.parametrize("entry, message", [
    (np.nan, "matrix entries must be finite"),
    (np.inf, "matrix entries must be finite"),
    (0.5, "matrix is not Hermitian: "),
    (1e-9, "matrix is not Hermitian: "),
])
@pytest.mark.parametrize("d", [4, 64])
def test_bad_matrix_is_rejected_after_a_good_one_is_remembered(entry, message, d):
    h = centrosymmetric("real", d, np.random.default_rng(7))
    want = hermitian_propagator(h, 0.5)
    for _ in range(2):
        hermitian_propagator(h, 0.5)
    bad = h.copy()
    bad[0, 1] += entry
    with pytest.raises(ValueError, match=message):
        hermitian_propagator(bad, 0.5)
    with pytest.raises(ValueError, match="time must be finite"):
        hermitian_propagator(h, np.inf)
    # a rejected matrix leaves the memo as it was
    assert linalg._last[1] is not None
    assert hermitian_propagator(h, 0.5).tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["complex", "diagonal", "dyadic", "centro-real"])
def test_mutating_a_matrix_or_a_result_changes_no_later_result(monkeypatch, kind):
    h = MEMO_MATRICES[kind](64, np.random.default_rng(5))
    original = h.copy()
    want = fresh_propagator(monkeypatch, h, 0.9)
    for _ in range(4):
        u = hermitian_propagator(h, 0.9)
        assert u.tobytes() == want.tobytes()
        u[...] = 0.0
    h[0, 0] += 1.0
    changed = fresh_propagator(monkeypatch, h.copy(), 0.9)
    for _ in range(3):
        assert hermitian_propagator(h, 0.9).tobytes() == changed.tobytes()
    h[...] = original
    assert hermitian_propagator(h, 0.9).tobytes() == want.tobytes()


def test_kept_spectra_are_found_without_a_digest(monkeypatch):
    digests = counted(monkeypatch, linalg.hashlib, "sha256")
    h = total(ising_split(8))
    for _ in range(2):
        hermitian_propagator(h, 1.3)
    assert len(digests) == 2 and linalg._last[1] is not None
    # the same entries as the same array, a copy or a Fortran-ordered real copy
    for same in (h, h.copy(), np.asfortranarray(h.real)):
        hermitian_propagator(same, 0.4)
    assert len(digests) == 2
    changed = h.copy()
    changed[0, 0] += 1.0
    hermitian_propagator(changed, 0.4)
    assert len(digests) == 3 and linalg._last[1] is None


def test_a_zero_of_another_sign_is_another_matrix(monkeypatch):
    h = total(ising_split(6))  # four sectors
    i, j = np.argwhere(h == 0)[0]
    flipped = h.copy()
    flipped[i, j] = -0.0
    # equal as floats, but one sign bit apart
    assert np.array_equal(flipped, h) and flipped.tobytes() != h.tobytes()
    want = fresh_propagator(monkeypatch, flipped, 0.9)
    for _ in range(2):
        hermitian_propagator(h, 0.9)
    checks = counted(monkeypatch, linalg, "_check_hermitian")
    calls = counted(monkeypatch, np.linalg, "eigh")
    assert hermitian_propagator(flipped, 0.9).tobytes() == want.tobytes()
    assert len(checks) == 1 and len(calls) == 4
