"""Linear-combination-of-unitaries circuits, simulated on the data register.

The circuit realizes T = sum_i c_i A_i on a data register by loading amplitudes
m_i on an ancilla register (gate C, first column m), applying A_i conditioned
on ancilla state i-1 (SELECT), unloading with a gate C' whose first row is m',
and post-selecting the ancilla on |0>. The kept branch is

    (<0| (x) I) W (|0> (x) |psi>) = M |psi>,    M = sum_i m_i m'_i A_i,

with W = (C' (x) I) SELECT (C (x) I), so choosing m_i m'_i proportional to c_i
realizes T up to normalization. The squared norm of the kept branch is the
success probability; the best possible split puts it at 1/(sum|c_i|)^2 when T
is unitary.

A Grover-like iterate (-W R W^dag R)^N W, with R the reflection about the
ancilla-|0> subspace, rotates the kept amplitude from sin(theta) to
sin((2N+1) theta) without touching the data state (oblivious amplitude
amplification; Berry et al., arXiv:1312.1414). With one round and success
probability near 1/4 this lands the probability near 1. By qubitization
(Gilyen, Su, Low, Wiebe, arXiv:1806.01838) the kept branch after N rounds is
(-1)^N T_{2N+1}(M) |psi>, the odd Chebyshev polynomial applied to the singular
values of M, which needs only the d x d block.

This module works on M alone and forms nothing larger than d x d: `build_lcu`
validates the circuit and stores M, and `apply_lcu` and `apply_oaa` run the
one recurrence in `amplify`. The dense W, C, C' and iterate are the reference
in `mptrotter.circuit`. `amplify` also takes a stack of blocks, which is how a
sweep runs every time of its grid at once; the circuit API (`build_lcu`,
`apply_lcu`, `apply_oaa`) handles one circuit and one state.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import asin, isfinite, sin

import numpy as np

from .linalg import (
    ATOL_ALGEBRAIC,
    as_operator,
    as_state,
    spectral_norm,
    weighted_sum,
)
from .multiproduct import DEGENERATE_AMPLITUDE, state_errors


@dataclass(frozen=True)
class LcuCircuit:
    """Validated circuit data; all arrays are frozen by convention.

    block is the d x d kept-branch operator M = sum_i m_i m'_i A_i.
    """

    coeffs: np.ndarray          # real c_i, length k
    m: np.ndarray               # complex, length k, first column of C
    m_prime: np.ndarray         # complex, length k, first row of C'
    branch_ops: tuple[np.ndarray, ...]
    block: np.ndarray           # data_dim x data_dim, <0|W|0>
    ancilla_dim: int
    data_dim: int

    @property
    def k(self) -> int:
        return len(self.coeffs)

    def combined_operator(self) -> np.ndarray:
        """sum_i c_i A_i, the operator the post-selected branch implements."""
        return weighted_sum(self.coeffs, self.branch_ops)


@dataclass(frozen=True)
class LcuOutcome:
    """Post-selected branch of one circuit application.

    projected_state is the unnormalized kept branch; its squared norm is the
    success probability. renormalized_state is None when the branch vanished.
    """

    projected_state: np.ndarray
    success_probability: float
    renormalized_state: np.ndarray | None
    degenerate: bool = False


@dataclass(frozen=True)
class OaaErrorReport:
    """Amplification-error accounting for one circuit and input state.

    s is the measured post-selection amplitude (s = 0.5 + Delta is the regime
    one round of amplification is designed for), delta the non-unitarity
    ||TT^dag - I|| of the combined operator, and bound = (1/2 + 3 Delta) delta
    the first-order residual estimate, clamped at zero since the expansion is
    only meaningful near s = 1/2. identity_residual is the data-register
    self-check || amplify(M, psi, 1) - U (3 Sigma - 4 Sigma^3) V^dag psi ||,
    with U Sigma V^dag the SVD of the block M; observed_error compares the
    amplified state against the renormalized target sum c_i A_i |psi>.
    """

    s: float
    delta: float
    bound: float
    identity_residual: float
    observed_error: float

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise ValueError("bound must be nonnegative")


def optimal_split(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude split maximizing the post-selection probability.

    m_i = m'_i = sqrt(c_i / sum|c|) with the principal branch of the square
    root, so a negative coefficient gives a purely imaginary amplitude and the
    product m_i m'_i stays real with the sign of c_i. Both vectors come out
    unit-norm; probability under this split is ||sum c_i A_i psi||^2/(sum|c|)^2,
    and no feasible split does better.
    """
    return _optimal_split(_as_real_coeffs(coeffs))


def _optimal_split(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`optimal_split` of coefficients already checked by `_as_real_coeffs`."""
    tot = float(np.sum(np.abs(c)))
    if tot == 0.0:
        raise ValueError("all coefficients are zero")
    m = np.sqrt(c.astype(complex) / tot)
    return m, m.copy()


def _as_real_coeffs(coeffs) -> np.ndarray:
    a = np.asarray(coeffs)
    if np.iscomplexobj(a):
        if not np.all(a.imag == 0):
            raise ValueError("coefficients must be real")
        a = a.real
    a = np.asarray(a, dtype=float).reshape(-1)
    if a.size == 0:
        raise ValueError("need at least one coefficient")
    if not all(map(isfinite, a.tolist())):  # faster than np.isfinite for a few entries
        raise ValueError(f"coefficients must be finite, got {a.tolist()}")
    return a


def _validate_split(c: np.ndarray, m: np.ndarray, m_prime: np.ndarray) -> None:
    for name, v in (("m", m), ("m_prime", m_prime)):
        n = float(np.linalg.norm(v))
        if not abs(n - 1.0) <= ATOL_ALGEBRAIC:  # NaN fails
            raise ValueError(f"split vector {name} must be unit norm, got {n!r}")
    prod = m * m_prime
    # the products must be proportional to the coefficients with one common
    # (complex) factor; anchor the factor on the largest coefficient
    j = int(np.argmax(np.abs(c)))
    if abs(c[j]) == 0.0:
        raise ValueError("all coefficients are zero")
    z = prod[j] / c[j]
    if abs(z) < 1e-300:
        raise ValueError("split vectors give a vanishing amplitude on every branch")
    dev = float(np.max(np.abs(prod - z * c)))
    if not dev <= 1e-9:
        raise ValueError(
            f"split products m_i * m'_i are not proportional to the coefficients "
            f"(max deviation {dev:.3e})"
        )


def build_lcu(coeffs, branch_ops, split: tuple[np.ndarray, np.ndarray] | None = None) -> LcuCircuit:
    """Validate the circuit for sum_i c_i A_i and store its kept-branch block.

    branch_ops must share one dimension and match coeffs in count. When the
    branch count is not a power of two the ancilla is padded with zero
    coefficients and identity branches; padded branches carry m = 0 and so add
    nothing to the block. split overrides the optimal amplitude split; it must
    be two unit-norm vectors whose products track c_i.
    """
    c = _as_real_coeffs(coeffs)
    ops = tuple(as_operator(a) for a in branch_ops)
    if len(ops) != c.size:
        raise ValueError(f"{c.size} coefficients but {len(ops)} branch operators")
    d = ops[0].shape[0]
    for i, a in enumerate(ops):
        if a.shape[0] != d:
            raise ValueError(f"branch operator {i} has dimension {a.shape[0]}, expected {d}")
    if split is None:
        m, m_prime = _optimal_split(c)
    else:
        m = as_state(split[0])
        m_prime = as_state(split[1])
        if m.size != c.size or m_prime.size != c.size:
            raise ValueError("split vectors must match the coefficient count")
        _validate_split(c, m, m_prime)

    ancilla = 1
    while ancilla < c.size:
        ancilla *= 2
    return LcuCircuit(coeffs=c, m=m, m_prime=m_prime, branch_ops=ops,
                      block=weighted_sum(m * m_prime, ops),
                      ancilla_dim=ancilla, data_dim=d)


def _data_state(circuit: LcuCircuit, psi) -> np.ndarray:
    v = as_state(psi, normalized=True)
    if v.size != circuit.data_dim:
        raise ValueError(f"state dimension {v.size} != data register {circuit.data_dim}")
    return v


def _project(kept: np.ndarray) -> LcuOutcome:
    nrm = float(np.linalg.norm(kept))
    prob = nrm * nrm
    if nrm <= DEGENERATE_AMPLITUDE:
        return LcuOutcome(projected_state=kept, success_probability=prob,
                          renormalized_state=None, degenerate=True)
    return LcuOutcome(projected_state=kept, success_probability=prob,
                      renormalized_state=kept / nrm)


def amplify(block, psi, n: int) -> np.ndarray:
    """Kept branch (-1)^n T_{2n+1}(M) psi of n amplification rounds.

    With M the kept-branch block, u_0 = M psi, u_{-1} = -u_0 and
    u_{j+1} = -2 (2 M M^dag - I) u_j - u_{j-1} give u_n at 2n + 1 products with
    M or M^dag; n = 0 is M psi. block is an ndarray that may carry leading
    batch axes, (..., d, d), and psi is one d-vector ndarray; the result has
    shape (..., d). Inputs are not validated here.
    """
    # a stack of blocks multiplies a column per block; one block keeps the
    # vector, since a matrix-vector product is faster than a one-column matmul
    stacked = block.ndim > 2
    u = block @ (psi[:, None] if stacked else psi)
    if n:
        block_dag = block.conj().swapaxes(-1, -2)
        prev = -u
        for _ in range(n):
            u, prev = -2.0 * (2.0 * (block @ (block_dag @ u)) - u) - prev, u
    return u[..., 0] if stacked else u


def apply_lcu(circuit: LcuCircuit, psi) -> LcuOutcome:
    """Run the circuit on |0> (x) |psi> and post-select the ancilla on |0>."""
    return _project(amplify(circuit.block, _data_state(circuit, psi), 0))


def apply_oaa(circuit: LcuCircuit, psi, n: int) -> LcuOutcome:
    """Apply (-W R W^dag R)^n W to |0> (x) |psi> and post-select.

    Runs on the data register through `amplify`, which gives the kept branch
    (-1)^n T_{2n+1}(M) psi from the circuit block M alone.

    n = 0 reduces exactly to apply_lcu. For a unitary combined operator with
    post-selection amplitude sin(theta), n rounds move the success probability
    to sin^2((2n+1) theta).
    """
    if int(n) != n or n < 0:
        raise ValueError(f"round count must be a nonnegative integer, got {n!r}")
    return _project(amplify(circuit.block, _data_state(circuit, psi), int(n)))


def predicted_probability(p: float, n: int) -> float:
    """sin^2((2n+1) arcsin sqrt(p)): success probability after n rounds.

    Exact for unitary combined operators; zero rounds is the identity map on
    probabilities, and p = 1/4 with one round gives exactly 1.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability must lie in [0, 1], got {p!r}")
    if int(n) != n or n < 0:
        raise ValueError(f"round count must be a nonnegative integer, got {n!r}")
    return sin((2 * int(n) + 1) * asin(p ** 0.5)) ** 2


def oaa_error_report(circuit: LcuCircuit, psi) -> OaaErrorReport:
    """Measure amplification-error quantities for one round on this input.

    The non-unitarity of the combined operator is what limits amplification:
    for the exactly unitary case the report is all zeros. The self-check
    compares the recurrence with the qubitization identity on the data
    register: one round keeps -T_3(M) psi = U (3 Sigma - 4 Sigma^3) V^dag psi,
    the odd Chebyshev polynomial applied to the singular values of M
    (Gilyen et al., arXiv:1806.01838). Nothing larger than d x d is formed.
    """
    v = as_state(psi, normalized=True)
    base = apply_lcu(circuit, v)
    s = base.success_probability ** 0.5
    delta_mat = circuit.combined_operator()
    delta = spectral_norm(delta_mat @ delta_mat.conj().T - np.eye(circuit.data_dim))
    bound = max(0.0, (0.5 + 3.0 * (s - 0.5)) * delta)

    amplified = apply_oaa(circuit, v, 1)
    u, sigma, vh = np.linalg.svd(circuit.block)
    cubic = (u * (3.0 * sigma - 4.0 * sigma ** 3)) @ (vh @ v)
    residual = np.linalg.norm(amplified.projected_state - cubic)

    target = delta_mat @ v
    tnorm = float(np.linalg.norm(target))
    # a degenerate amplified branch scores NaN through state_errors
    if tnorm <= DEGENERATE_AMPLITUDE:
        observed = float("nan")
    else:
        observed = float(state_errors(target / tnorm, amplified.projected_state)[0])
    return OaaErrorReport(s=float(s), delta=float(delta), bound=float(bound),
                          identity_residual=float(residual), observed_error=observed)
