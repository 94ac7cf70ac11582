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
coefficients up and are numerically ill-conditioned.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from math import exp, inf, lgamma, log

import numpy as np

from .hamiltonian import HamiltonianDecomposition, total
from .linalg import as_state, hermitian_propagator, spectral_norm, weighted_sum
from .trotter import products

COEFF_SUM_TOL = 1e-9
# Output states with norm at or below this are treated as a degenerate
# (failed) branch rather than renormalized noise.
DEGENERATE_AMPLITUDE = 1e-12
_LOG_FLOAT_MAX = log(sys.float_info.max)


def mp_coefficients(iterations) -> np.ndarray:
    """Cancellation coefficients for the given iteration counts.

    Accepts any strictly increasing positive reals (the closed form only uses
    ratios, so scaled copies of a schedule give identical coefficients).
    A singleton gives c = (1,).
    """
    try:
        ell = np.asarray(iterations, dtype=float).reshape(-1)
    except OverflowError:
        raise ValueError(f"iteration count {max(iterations)} overflows a float") from None
    if ell.size == 0:
        raise ValueError("schedule must contain at least one iteration count")
    if np.any(ell <= 0):
        raise ValueError(f"iteration counts must be positive, got {ell.tolist()}")
    if np.any(np.diff(ell) <= 0):
        raise ValueError(
            f"iteration counts must be strictly increasing, got {ell.tolist()}"
        )
    coeffs = np.ones(ell.size, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sq = ell * ell
        # one factor L(q)^2 / (L(q)^2 - L(p)^2) per p for every q at once, in
        # increasing p as the product is written; the p = q factor is 1
        for p in range(ell.size):
            factor = sq / (sq - sq[p])
            factor[p] = 1.0
            coeffs *= factor
    if not np.isfinite(coeffs).all():
        raise ValueError(f"coefficients overflow a float for iteration counts up to {ell[-1]:.6g}")
    return coeffs


def _ramp_overflows(n: int, tail: int) -> bool:
    """Whether a ramp coefficient of the schedule (1, ..., n, tail) overflows.

    For the ramp, prod_{p != q} |q^2 - p^2| = (n - q)! (n + q)! / (2 q^2), so
    log|c_q| = 2 (n + 1) log q + log 2 - log (n - q)! - log (n + q)!
    - log (tail^2 - q^2) costs O(1) per q. The scan starts at the top of the
    ramp and stops at the first overflow: past n of a few thousand, c_n
    overflows for every tail that fits in a float, so a long ramp is rejected
    at its first step.
    """
    def log_c(q: int) -> float:
        return (2 * (n + 1) * log(q) + log(2.0) - lgamma(n - q + 1) - lgamma(n + q + 1)
                - log(tail - q) - log(tail + q))
    return any(log_c(q) > _LOG_FLOAT_MAX for q in range(n, 0, -1))


@dataclass(frozen=True)
class MpSchedule:
    """Iteration counts plus the cancellation coefficients they fix.

    kind records how the schedule was built: "modified" for geometric
    a * 2^q, "original" for (1, ..., k-1, round(e^{gamma k})), "explicit"
    for a user-supplied list. param holds a or gamma where applicable.
    coefficients are derived from the iteration counts by `mp_coefficients`
    and must sum to 1 within COEFF_SUM_TOL, which ill-conditioned schedules
    fail.
    """

    iterations: tuple[int, ...]
    kind: str = "explicit"
    param: float | None = None
    coefficients: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        its = tuple(int(x) for x in self.iterations)
        if its != tuple(self.iterations):
            raise ValueError(f"iteration counts must be integers, got {self.iterations!r}")
        coeffs = tuple(mp_coefficients(its).tolist())
        dev = abs(sum(coeffs) - 1.0)
        if not dev <= COEFF_SUM_TOL:  # NaN fails
            raise ValueError(f"coefficients must sum to 1, deviation {dev:.3e}")
        object.__setattr__(self, "iterations", its)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def k(self) -> int:
        return len(self.iterations)

    def abs_coefficient_sum(self) -> float:
        return float(np.sum(np.abs(self.coefficients)))

    def ideal_success_probability(self) -> float:
        """Post-selection probability 1/(sum|c|)^2 when the combination is unitary."""
        s = self.abs_coefficient_sum()
        return 1.0 / (s * s)


def make_schedule(kind: str, *, a: int | None = None, k: int | None = None,
                  gamma: float | None = None,
                  iterations=None) -> MpSchedule:
    """Build a schedule of one of the three supported kinds.

    modified: L(q) = a * 2^q for q = 1..k, a >= 1.
    original: L(q) = q for q < k and round(e^{gamma k}) for q = k; the rounded
        tail must exceed k - 1 or the schedule would not be increasing.
    explicit: any strictly increasing positive integers.
    """
    if kind == "modified":
        if a is None or k is None:
            raise ValueError("modified schedule needs a and k")
        if int(a) != a or a < 1:
            raise ValueError(f"prefactor a must be an integer >= 1, got {a!r}")
        if int(k) != k or k < 1:
            raise ValueError(f"k must be an integer >= 1, got {k!r}")
        if int(a).bit_length() + int(k) > 1024:  # a * 2^k >= 2^1024 overflows a float
            raise ValueError(f"largest iteration count {a} * 2^{int(k)} overflows a float")
        its = tuple(int(a) * 2 ** q for q in range(1, int(k) + 1))
        return MpSchedule(its, kind="modified", param=float(a))
    if kind == "original":
        if gamma is None or k is None:
            raise ValueError("original schedule needs gamma and k")
        if not 0 < gamma < inf:
            raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
        if int(k) != k or k < 2:
            raise ValueError(f"k must be an integer >= 2, got {k!r}")
        try:
            tail = int(round(exp(gamma * int(k))))
        except OverflowError:
            raise ValueError(f"tail e^(gamma k) = e^{gamma * int(k):g} overflows a float") from None
        if tail <= int(k) - 1:
            raise ValueError(
                f"rounded tail {tail} collides with the leading ramp 1..{int(k) - 1}; "
                f"increase gamma"
            )
        if _ramp_overflows(int(k) - 1, tail):
            raise ValueError(f"coefficients overflow a float for iteration counts up to {tail:.6g}")
        its = tuple(range(1, int(k))) + (tail,)
        return MpSchedule(its, kind="original", param=float(gamma))
    if kind == "explicit":
        if iterations is None:
            raise ValueError("explicit schedule needs the iteration list")
        return MpSchedule(tuple(iterations), kind="explicit")
    raise ValueError(f"unknown schedule kind {kind!r}")


def mp_operator(decomp: HamiltonianDecomposition, t,
                schedule: MpSchedule) -> np.ndarray:
    """The combined operator M(t); generally non-unitary, equals a plain
    iterated product when k = 1. A time array gives a (T, d, d) stack."""
    return weighted_sum(schedule.coefficients,
                        [products(decomp, t, l) for l in schedule.iterations])


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
    psi = as_state(psi0, normalized=True)
    exact = hermitian_propagator(total(decomp), t)
    m = np.asarray(m, dtype=complex)
    err, degenerate = state_errors(exact @ psi, m @ psi)
    return ErrorReport(t=t, state_error=float(err),
                       operator_error=spectral_norm(m - exact),
                       nonunitarity=spectral_norm(m @ m.conj().T - np.eye(decomp.dim)),
                       degenerate=bool(degenerate))
