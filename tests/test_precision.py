"""Extended-precision oracle: the spin model's exact propagator and
second-order step against 50-digit mpmath matrix exponentials."""
import mpmath
import numpy as np
import pytest

from mptrotter import build_spin_hamiltonian, hermitian_propagator, second_order_step, total

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
