"""Time-array forms of the propagator, product and amplification layers, and
the structured eigenbases of the propagator and product layers.

Each stacked result must equal the scalar result at every time within 1e-13,
and a non-finite time anywhere in an array must be rejected. Amplification is
also checked against the singular-value form of its Chebyshev polynomial.
Propagators and products of diagonal, real and complex terms must agree with
the complex eigendecomposition written out here within 1e-12.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Chebyshev

from mptrotter import (
    HamiltonianDecomposition,
    build_spin_hamiltonian,
    amplify,
    eigen_propagator,
    hermitian_propagator,
    make_schedule,
    mp_operator,
    products,
    second_order_step,
    state_errors,
    total,
    trotterize,
)
from mptrotter.linalg import eigenpairs
from tests.conftest import haar_unitary, random_hermitian, random_state

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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_non_finite_time_anywhere_is_rejected(spin_decomp, bad, where):
    ts = np.linspace(0.0, 2.0, 5)
    ts[where] = bad
    sched = make_schedule("modified", a=1, k=2)
    for call in (lambda: hermitian_propagator(total(spin_decomp), ts),
                 lambda: second_order_step(spin_decomp, ts),
                 lambda: products(spin_decomp, ts, 4),
                 lambda: mp_operator(spin_decomp, ts, sched),
                 lambda: mp_operator(spin_decomp, ts.reshape(5, 1), sched)):
        with pytest.raises(ValueError, match="finite"):
            call()


def test_trotterize_takes_one_time(spin_decomp):
    with pytest.raises(ValueError, match="one time"):
        trotterize(spin_decomp, np.array([0.5, 1.0]), 4)
    assert trotterize(spin_decomp, np.float64(0.5), 4).shape == (4, 4)


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
    if kind == "real":
        a = rng.standard_normal((d, d))
        return ((a + a.T) / 2.0).astype(complex)
    return random_hermitian(d, rng)


kinds = st.sampled_from(["diagonal", "real", "complex"])


@PROPERTY
@given(kind=kinds, seed=seeds, d=st.integers(1, 16), ts=times, stacked=st.booleans())
def test_structured_propagator_matches_complex_eigh(kind, seed, d, ts, stacked):
    h = structured_hermitian(kind, d, np.random.default_rng(seed))
    w, vecs = eigenpairs(h)
    if kind == "diagonal" or d == 1:
        assert vecs is None
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
    assert x_vecs.dtype == np.float64 and zz_vecs is None
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_diagonal_is_rejected(bad):
    # rejected by name before H - H^dag is formed, at every size
    for d in (2, 3):
        h = np.diag([1.0, bad, 2.0][:d]).astype(complex)
        with pytest.raises(ValueError, match="finite"):
            hermitian_propagator(h, 1.0)
        with pytest.raises(ValueError, match="finite"):
            HamiltonianDecomposition(terms=(h,))
