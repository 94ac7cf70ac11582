import numpy as np
import pytest

from mptrotter import (
    HamiltonianDecomposition,
    build_spin_hamiltonian,
    fit_order,
    hermitian_propagator,
    second_order_step,
    total,
    trotterize,
)
from mptrotter.linalg import spectral_norm
from tests.conftest import is_unitary, random_hermitian


def test_single_iteration_is_one_step(spin_decomp):
    assert np.allclose(trotterize(spin_decomp, 0.7, 1),
                       second_order_step(spin_decomp, 0.7), atol=0)


def test_exact_for_commuting_terms():
    decomp = HamiltonianDecomposition((np.diag([1.0, 2.0, 3.0]).astype(complex),
                                       np.diag([-0.5, 0.1, 0.4]).astype(complex)))
    s = second_order_step(decomp, 1.7)
    exact = hermitian_propagator(total(decomp), 1.7)
    assert spectral_norm(s - exact) < 1e-10


def test_step_is_unitary(spin_decomp):
    s = second_order_step(spin_decomp, 3.2)
    assert is_unitary(s)


def test_time_reversal_symmetry(spin_decomp):
    s = second_order_step(spin_decomp, 1.1)
    assert spectral_norm(second_order_step(spin_decomp, -1.1) - s.conj().T) < 1e-12


def test_step_error_is_third_order(spin_decomp):
    exact = total(spin_decomp)
    ts = np.geomspace(1e-3, 1e-1, 9)
    errs = [spectral_norm(second_order_step(spin_decomp, t)
                          - hermitian_propagator(exact, t)) for t in ts]
    slope = fit_order(ts, errs)
    assert slope == pytest.approx(3.0, abs=0.2)


def test_step_error_prefactor_stabilizes(spin_decomp):
    # ||S_1(t) - exp(-iHt)|| / t^3 should be roughly constant at small t
    h = total(spin_decomp)
    r = [spectral_norm(second_order_step(spin_decomp, t) - hermitian_propagator(h, t)) / t ** 3
         for t in (1e-2, 1e-3)]
    assert abs(r[0] - r[1]) / r[1] < 0.10


def test_iteration_error_scales_inverse_square(spin_decomp, psi0):
    t = 10.0
    h = total(spin_decomp)
    target = hermitian_propagator(h, t) @ psi0
    ls = [12, 24, 48, 96]
    errs = []
    for l in ls:
        out = trotterize(spin_decomp, t, l) @ psi0
        errs.append(np.linalg.norm(target - out / np.linalg.norm(out)))
    slope = fit_order(ls, errs)
    assert slope == pytest.approx(-2.0, abs=0.2)


def test_composition_identity(spin_decomp):
    # iterating the full window equals iterating a sub-window and powering up
    whole = trotterize(spin_decomp, 6.0, 12)
    for a in (2, 3, 4, 6):
        part = trotterize(spin_decomp, 6.0 / a, 12 // a)
        assert spectral_norm(whole - np.linalg.matrix_power(part, a)) < 1e-10


def test_power_paths_agree(spin_decomp):
    # trotterize powers by repeated squaring; a plain product loop is the reference
    m = second_order_step(spin_decomp, 0.3)
    for l in (32, 33, 50, 96):
        loop = np.eye(4, dtype=complex)
        for _ in range(l):
            loop = loop @ m
        assert spectral_norm(trotterize(spin_decomp, 0.3 * l, l) - loop) < 1e-12


def test_rejects_zero_iterations(spin_decomp):
    with pytest.raises(ValueError, match="integer >= 1"):
        trotterize(spin_decomp, 1.0, 0)
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="iteration count must be an integer >= 1"):
            trotterize(spin_decomp, 1.0, bad)
        with pytest.raises(ValueError, match="iteration count must be an integer >= 1"):
            trotterize(spin_decomp, [0.5, 1.0], bad)


def test_cached_eigenpairs_match_propagator_product():
    # d = 16: four random Hermitian terms, reference product built from
    # independent hermitian_propagator calls in the palindromic order
    rng = np.random.default_rng(17)
    terms = tuple(random_hermitian(16, rng) for _ in range(4))
    decomp = HamiltonianDecomposition(terms)
    for t, l in ((0.9, 1), (2.5, 7), (-1.3, 32)):
        halves = [hermitian_propagator(h, t / l / 2.0) for h in terms]
        step = np.eye(16, dtype=complex)
        for u in halves + halves[::-1]:
            step = step @ u
        ref = np.eye(16, dtype=complex)
        for _ in range(l):
            ref = ref @ step
        assert spectral_norm(trotterize(decomp, t, l) - ref) < 1e-12, (t, l)


def test_step_rejects_non_finite_time(spin_decomp):
    with pytest.raises(ValueError, match="finite"):
        second_order_step(spin_decomp, float("nan"))
