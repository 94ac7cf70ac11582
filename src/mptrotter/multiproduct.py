"""Multi-product combinations of second-order Trotter products.

A k-term multi-product evolves with several iteration counts L(1) < ... < L(k)
and combines the results linearly, M(t) = sum_q c_q S_1^{L(q)}(t/L(q)). The
coefficients are fixed by requiring the t^3, t^5, ..., t^{2k-1} error terms of
the second-order product to cancel, which gives the closed form

    c_q = prod_{p != q} L(q)^2 / (L(q)^2 - L(p)^2)

and leaves the combination accurate to O(t^{2k+1}). The coefficients always
sum to 1 and depend only on the ratios of the L(q). Geometric schedules
L(q) = a * 2^q keep sum|c_q| below 2, which is what makes the circuit
realization practical; schedules with near-equal iteration counts blow the
coefficients up and are numerically ill-conditioned. `mp_coefficients` forms
the product in one pass that overflows only where a coefficient does.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from math import exp, inf

import numpy as np

from .hamiltonian import HamiltonianDecomposition, total
from .linalg import (as_state, brief, check_count, hermitian_propagator, spectral_norm,
                     weighted_sum)
from .trotter import product_stacks

COEFF_SUM_TOL = 1e-9
# Output states with norm at or below this are treated as a degenerate
# (failed) branch rather than renormalized noise.
DEGENERATE_AMPLITUDE = 1e-12
# From this n on, (1, ..., n, tail) overflows for every float tail (see CHANGES.md)
_RAMP_OVERFLOW_LEN = 2580


def mp_coefficients(iterations) -> np.ndarray:
    """Cancellation coefficients for the given iteration counts.

    Accepts any strictly increasing positive reals (the closed form only uses
    ratios, so scaled copies of a schedule give identical coefficients).
    A singleton gives c = (1,).
    """
    try:
        ell = np.asarray(iterations, dtype=float).reshape(-1)
    except OverflowError:
        raise ValueError(f"iteration count {brief(max(iterations))} overflows a float") from None
    if ell.size == 0:
        raise ValueError("schedule must contain at least one iteration count")
    if not np.all(ell > 0):  # NaN fails
        raise ValueError(f"iteration counts must be positive, got {brief(ell.tolist())}")
    if np.any(np.diff(ell) <= 0):
        raise ValueError(
            f"iteration counts must be strictly increasing, got {brief(ell.tolist())}"
        )
    # L(q)^2 / (L(q)^2 - L(p)^2) for all q and 16 p at a time, both squares
    # scaled exactly so the larger is its mantissa: f * 2^shift, 0.25 <= |f| <= 2^55.
    # The product runs in increasing p as written, its exponent held apart and
    # renormalized every 16 factors (within 2^-33 and 2^880): nothing overflows
    # part-way, and finite, normal results are bit for bit the plain product's.
    m, e = np.frexp(ell)
    ms, es = m * m, 2 * e
    mant, expo = 1.0, 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for start in range(0, ell.size, 16):
            d = es - es[start:start + 16, None]
            shift = np.minimum(d, 0)
            factors = ms / (np.ldexp(ms, shift) - np.ldexp(ms[start:start + 16, None], shift - d))
            factors.flat[start::ell.size + 1] = 1.0  # the p = q factors
            for factor in factors:
                mant = mant * factor
            mant, step = np.frexp(mant)
            expo = expo + step + shift.sum(axis=0)
        coeffs = np.ldexp(mant, expo)
    if not np.isfinite(coeffs).all():
        raise ValueError(
            f"coefficients overflow a float for iteration counts up to {ell[-1]:.6g}")
    return coeffs


@dataclass(frozen=True)
class MpSchedule:
    """Iteration counts plus the cancellation coefficients they fix.

    A schedule is its counts: coefficients are derived from them by
    `mp_coefficients` and must sum to 1 within COEFF_SUM_TOL, which
    ill-conditioned schedules fail.
    """

    iterations: tuple[int, ...]
    coefficients: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        its = tuple(check_count(x, "iteration count", 1) for x in self.iterations)
        coeffs = tuple(mp_coefficients(its).tolist())
        dev = abs(sum(coeffs) - 1.0)
        if not dev <= COEFF_SUM_TOL:  # NaN fails
            raise ValueError(f"coefficients must sum to 1, deviation {dev:.3e}")
        object.__setattr__(self, "iterations", its)
        object.__setattr__(self, "coefficients", coeffs)

    def abs_coefficient_sum(self) -> float:
        return float(np.sum(np.abs(self.coefficients)))

    def ideal_success_probability(self) -> float:
        """Post-selection probability 1/(sum|c|)^2 when the combination is unitary."""
        s = self.abs_coefficient_sum()
        return 1.0 / (s * s)

    def roundoff_floor(self) -> float:
        """eps * sum_q |c_q| L_q: each product S(t/L_q)^{L_q} carries roundoff of about
        L_q eps, weighted by |c_q| (in Python floats, so any count up to 2^1023 fits)."""
        weights = sum(abs(c) * l for c, l in zip(self.coefficients, self.iterations))
        return sys.float_info.epsilon * weights


def make_schedule(kind: str, *, a: int | None = None, k: int | None = None,
                  gamma: float | None = None) -> MpSchedule:
    """Build a generated schedule; any other counts are `MpSchedule(iterations)`.

    modified: L(q) = a * 2^q for q = 1..k, a >= 1.
    original: L(q) = q for q < k and round(e^{gamma k}) for q = k; the rounded
        tail must exceed k - 1 or the schedule would not be increasing.
    """
    if kind == "modified":
        if a is None or k is None:
            raise ValueError("modified schedule needs a and k")
        a, k = check_count(a, "prefactor a", 1), check_count(k, "k", 1)
        if a.bit_length() + k > 1024:  # a * 2^k >= 2^1024 overflows a float
            raise ValueError(f"largest iteration count {brief(a)} * 2^{brief(k)} overflows a float")
        return MpSchedule(tuple(a * 2 ** q for q in range(1, k + 1)))
    if kind == "original":
        if gamma is None or k is None:
            raise ValueError("original schedule needs gamma and k")
        if not 0 < gamma < inf:
            raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
        k = check_count(k, "k", 2)
        try:
            tail = int(round(exp(gamma * k)))
        except OverflowError:
            raise ValueError(f"tail e^(gamma k) = e^{gamma * k:g} overflows a float") from None
        if tail <= k - 1:
            raise ValueError(
                f"rounded tail {tail} collides with the leading ramp 1..{brief(k - 1)}; "
                f"increase gamma"
            )
        if k - 1 >= _RAMP_OVERFLOW_LEN:
            raise ValueError(f"coefficients overflow a float for iteration counts up to {tail:.6g}")
        return MpSchedule(tuple(range(1, k)) + (tail,))
    raise ValueError(f"unknown schedule kind {kind!r}")


def mp_operator(decomp: HamiltonianDecomposition, t,
                schedule: MpSchedule) -> np.ndarray:
    """The combined operator M(t); generally non-unitary, equals a plain
    iterated product when k = 1. A time array gives a (T, d, d) stack."""
    stacks = product_stacks(decomp, t, schedule.iterations)
    return weighted_sum(schedule.coefficients, [stacks[l] for l in schedule.iterations])


@dataclass(frozen=True)
class ErrorReport:
    """Error metrics of an approximate propagator at one time.

    state_error is ||psi_exact - psi'|| with psi' the renormalized output
    state and no global-phase alignment, so antipodal phases score 2, not 0.
    degenerate flags a vanishing output norm, in which case state_error is NaN
    rather than silently renormalized garbage.
    """

    t: float
    state_error: float
    operator_error: float
    nonunitarity: float
    degenerate: bool = False

    def __post_init__(self) -> None:
        if not self.degenerate and self.state_error < 0:
            raise ValueError("state_error must be nonnegative")
        if self.operator_error < 0 or self.nonunitarity < 0:
            raise ValueError("error metrics must be nonnegative")


def state_errors(exact, outputs):
    """State errors of outputs against exact states, along the last axis.

    Each output is renormalized and compared with its exact state without
    global-phase alignment, so antipodal phases score 2. An output whose norm
    is at or below DEGENERATE_AMPLITUDE has no direction: its error is NaN and
    its degenerate flag is set. Returns (errors, degenerate) with the leading
    shape of the inputs, as 0-d arrays for single states.
    """
    out = np.asarray(outputs, dtype=complex)
    norms = np.linalg.norm(out, axis=-1)
    degenerate = norms <= DEGENERATE_AMPLITUDE
    safe = np.where(degenerate, 1.0, norms)
    errors = np.linalg.norm(exact - out / safe[..., None], axis=-1)
    return np.where(degenerate, np.nan, errors), degenerate


def error_report(decomp: HamiltonianDecomposition, t: float, m,
                 psi0) -> ErrorReport:
    """Compare an approximate propagator m against exact evolution at time t."""
    psi = as_state(psi0)
    exact = hermitian_propagator(total(decomp), t)
    m = np.asarray(m, dtype=complex)
    err, degenerate = state_errors(exact @ psi, m @ psi)
    return ErrorReport(t=t, state_error=float(err),
                       operator_error=spectral_norm(m - exact),
                       nonunitarity=spectral_norm(m @ m.conj().T - np.eye(decomp.dim)),
                       degenerate=bool(degenerate))
