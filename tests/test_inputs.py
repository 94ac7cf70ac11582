"""Input checks that each have one owner, and rejection branches no other test takes.

Every count (iteration counts, round counts, a schedule's a and k) is checked
by `linalg.check_count`, so every entry point rejects a bad one with the same
wording. Every message that quotes outside input quotes it through
`linalg.brief`, so a short value reads as its repr and a huge one stays short.
"""
import math
import re
import warnings

import numpy as np
import pytest

from mptrotter import (
    SweepConfig,
    apply_lcu,
    apply_oaa,
    build_lcu,
    build_spin_hamiltonian,
    error_report,
    make_schedule,
    mp_coefficients,
    oaa_error_report,
    predicted_probability,
    trotterize,
)
from mptrotter.circuit import complete_unitary
from mptrotter.cli import main
from mptrotter.experiments import _MAX_ROUNDS
from mptrotter.lcu import optimal_split
from mptrotter.linalg import brief

# entry point -> (call with a count n, the count's name, its least value, the bad
# counts the entry point takes: a spec's text reads 1.5 as no integer at all)
COUNT_ENTRIES = {
    "trotterize": (lambda n: trotterize(build_spin_hamiltonian(), 1.0, n),
                   "iteration count", 1, (0, -1, 1.5)),
    "apply_oaa": (lambda n: apply_oaa(build_lcu([1.0], [np.eye(2)]), [1.0, 0.0], n),
                  "round count", 0, (-1, 1.5)),
    "predicted_probability": (lambda n: predicted_probability(0.5, n), "round count", 0,
                              (-1, 1.5)),
    "make_schedule-modified-a": (lambda n: make_schedule("modified", a=n, k=2),
                                 "prefactor a", 1, (0, -1, 1.5)),
    "make_schedule-modified-k": (lambda n: make_schedule("modified", a=2, k=n), "k", 1,
                                 (0, -1, 1.5)),
    "make_schedule-original-k": (lambda n: make_schedule("original", gamma=1.0, k=n), "k", 2,
                                 (1, 0, -1, 1.5)),
    "SweepConfig-trotter": (lambda n: SweepConfig(algorithms=(f"trotter:{n}",)),
                            "iteration count", 1, (0, -1)),
    "SweepConfig-mp_oaa": (lambda n: SweepConfig(algorithms=(f"mp_oaa:1,2:{n}",)),
                           "round count", 0, (-1,)),
}


@pytest.mark.parametrize("entry, bad", [(entry, bad) for entry, (*_, bads)
                                        in COUNT_ENTRIES.items() for bad in bads])
def test_every_count_is_rejected_in_one_wording(entry, bad):
    call, what, least, _ = COUNT_ENTRIES[entry]
    message = f"{what} must be an integer >= {least}, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_every_count_is_bounded_in_one_wording(entry):
    call, what, _, _ = COUNT_ENTRIES[entry]
    n = 2 ** 1024 - 2 ** 970  # the first integer float() rounds to inf
    message = (f"{what} must be at most {_MAX_ROUNDS}, got {brief(n)}"
               if entry == "SweepConfig-mp_oaa" else f"{what} {brief(n)} overflows a float")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(n)


def _usage_exit(argv) -> bool:
    with pytest.raises(SystemExit) as info:
        main(argv)
    return info.value.code == 2


def _real_coefficients_of_complex_type() -> bool:
    circuit = build_lcu(np.array([0.5, 0.5], dtype=complex), [np.eye(2), np.eye(2)])
    return circuit.coeffs.dtype == float and circuit.coeffs.tolist() == [0.5, 0.5]


def _degenerate_target_scores_nan() -> bool:
    # c = (1/2, -1/2) on equal branches: the target sum c_i A_i psi vanishes
    report = oaa_error_report(build_lcu([0.5, -0.5], [np.eye(2), np.eye(2)]), [1.0, 0.0])
    return math.isnan(report.observed_error)


UNIT = np.array([1.0, 0.0])

# (call, the exact ValueError message it raises, or None for a call that returns True)
RARE_BRANCHES = {
    "initial-state-length": (lambda: SweepConfig(initial_state=(1, 0, 0)),
                             "initial state needs 4 amplitudes, got 3"),
    "non-finite-time": (lambda: SweepConfig(t_grid=(0.0, math.inf)),
                        "time grid entries must be finite"),
    "complex-type-real-coefficients": (_real_coefficients_of_complex_type, None),
    "no-coefficients": (lambda: optimal_split([]), "need at least one coefficient"),
    "split-of-zero-coefficients": (
        lambda: build_lcu([0.0, 0.0], [np.eye(2)] * 2, split=(UNIT, UNIT)),
        "all coefficients are zero"),
    "split-vanishing-on-every-branch": (
        lambda: build_lcu([1.0, 1.0], [np.eye(2)] * 2, split=(UNIT, UNIT[::-1])),
        "split vectors give a vanishing amplitude on every branch"),
    "split-length": (lambda: build_lcu([1.0, 1.0], [np.eye(2)] * 2, split=([1.0], [1.0])),
                     "split vectors must match the coefficient count"),
    "degenerate-oaa-target": (_degenerate_target_scores_nan, None),
    "empty-state": (lambda: complete_unitary([]), "first column must be nonempty"),
    "count-beyond-a-float": (lambda: mp_coefficients([1, 10 ** 400]),
                             f"iteration count {brief(10 ** 400)} overflows a float"),
    "original-without-gamma": (lambda: make_schedule("original", k=3),
                               "original schedule needs gamma and k"),
    "dash-value-that-is-no-number": (
        lambda: _usage_exit(["evolve", "--algo", "exact", "--t", "-x"]), None),
}


@pytest.mark.parametrize("branch", RARE_BRANCHES)
def test_rarely_taken_branches(branch):
    call, message = RARE_BRANCHES[branch]
    if message is None:
        assert call() is True
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


QUARTERS = [0.25] * 4
HALVES = np.full(4, 0.5)

# entry point -> (the name its unit-norm check gives the vector, a call on a 4-vector v)
STATE_ENTRIES = {
    "apply_lcu": ("state vector", lambda v: apply_lcu(build_lcu([1.0], [np.eye(4)]), v)),
    "apply_oaa": ("state vector", lambda v: apply_oaa(build_lcu([1.0], [np.eye(4)]), v, 1)),
    "build_lcu-m": ("split vector m",
                    lambda v: build_lcu(QUARTERS, [np.eye(2)] * 4, split=(v, HALVES))),
    "build_lcu-m_prime": ("split vector m_prime",
                          lambda v: build_lcu(QUARTERS, [np.eye(2)] * 4, split=(HALVES, v))),
    "complete_unitary": ("first column", complete_unitary),
    "error_report": ("state vector",
                     lambda v: error_report(build_spin_hamiltonian(), 1.0, np.eye(4), v)),
    "oaa_error_report": ("state vector",
                         lambda v: oaa_error_report(build_lcu([1.0], [np.eye(4)]), v)),
    "SweepConfig": ("initial state", lambda v: SweepConfig(initial_state=tuple(v))),
}

# case -> (a 4-vector, whether it is accepted); the strided one is a column of a
# complex matrix, so the vector is a view whose entries are not adjacent
STATE_CASES = {
    "huge": (np.array([1e308, 1e308, 0.0, 0.0]), False),
    "strided-column": (np.full((4, 3), 0.5 + 0j)[:, 0], True),
    "norm-1+5e-10": (HALVES * (1 + 5e-10), True),
    "norm-1+2e-9": (HALVES * (1 + 2e-9), False),
}


@pytest.mark.parametrize("entry", STATE_ENTRIES)
@pytest.mark.parametrize("case", STATE_CASES)
def test_every_state_is_checked_by_one_unit_norm_rule(entry, case):
    what, call = STATE_ENTRIES[entry]
    v, accepted = STATE_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the norm is formed without squares: no overflow
        if accepted:
            call(v)
            return
        norm = "1.4142135623730951e+308" if case == "huge" else ""
        with pytest.raises(ValueError,
                           match=f"^{re.escape(f'{what} is not normalized: ||psi|| = {norm}')}"):
            call(v)


@pytest.mark.parametrize("entry", [e for e in STATE_ENTRIES if e != "SweepConfig"])
def test_a_matrix_is_no_state(entry):
    # a (2, 2) array of Frobenius norm 1 once passed as a 4-vector
    what, call = STATE_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{what} must be a 1-d vector, got shape \\(2, 2\\)$"):
        call(np.eye(2) / np.sqrt(2.0))


@pytest.mark.parametrize("value", [
    "warp", "", "x" * 58, -1, 1.5, -0.0, math.nan, None, True, 10 ** 59, np.int64(3),
    ["exact", 5], [[0.6, 0.0], 0, 0.8, 0], {"t_grid": [0, "x"]}, (1,),
], ids=repr)
def test_a_short_value_is_quoted_as_its_repr(value):
    assert brief(value) == repr(value)


@pytest.mark.parametrize("value", [
    "x" * 100_000, "9" * 5_000, 10 ** 400, [[[[1]]]], ["exact"] * 20_002,
    [["x" * 1_000] * 100] * 100, {f"key{i}" * 50: [1] * 100 for i in range(1_000)},
], ids=["long-string", "long-digits", "long-int", "deep-list", "long-list", "wide-and-long",
        "many-keys"])
def test_a_huge_value_is_quoted_short(value):
    assert len(brief(value)) < 2_500
