import dataclasses
import re
import sys
import time
from fractions import Fraction
from math import lgamma, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptrotter import (
    ErrorReport,
    MpSchedule,
    error_report,
    fit_order,
    hermitian_propagator,
    make_schedule,
    mp_coefficients,
    mp_operator,
    total,
    trotterize,
)
from mptrotter.linalg import spectral_norm
from mptrotter.multiproduct import _RAMP_OVERFLOW_LEN
from tests.conftest import taylor_propagator


def written_product(its) -> list:
    """prod_{p != q} L(q)^2 / (L(q)^2 - L(p)^2), one q at a time in increasing p."""
    sq = np.asarray(its, dtype=float) ** 2
    want = np.ones(len(its))
    for q in range(len(its)):
        for p in range(len(its)):
            if p != q:
                want[q] *= sq[q] / (sq[q] - sq[p])
    return want.tolist()


class TestCoefficients:
    def test_two_term_closed_form(self):
        c = mp_coefficients([1, 2])
        assert c == pytest.approx([-1.0 / 3.0, 4.0 / 3.0], abs=1e-15)

    def test_singleton(self):
        assert mp_coefficients([5]) == pytest.approx([1.0])

    def test_sum_is_one_random_schedules(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            k = int(rng.integers(1, 11))
            start = int(rng.integers(1, 5))
            its = [start]
            for _ in range(k - 1):
                its.append(max(its[-1] + 1, int(round(its[-1] * rng.uniform(1.6, 3.0)))))
            c = mp_coefficients(its)
            assert abs(c.sum() - 1.0) < 1e-9, its

    def test_scale_invariance(self):
        its = [1, 2, 4, 8]
        a = mp_coefficients(its)
        b = mp_coefficients([2.5 * x for x in its])
        assert np.max(np.abs(a - b)) < 1e-9

    def test_signs_alternate_for_geometric(self):
        for k in (2, 3, 5, 7):
            c = mp_coefficients([2 ** q for q in range(1, k + 1)])
            for q, v in enumerate(c):
                assert np.sign(v) == (-1.0) ** (k - 1 - q)

    @pytest.mark.parametrize("its", [
        (4, 8, 16, 32),
        (2, 4), (2, 4, 8), (2, 4, 8, 16), (2, 4, 8, 16, 32), (2, 4, 8, 16, 32, 64),
        (1, 2, 20),
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 1000),
    ])
    def test_bit_identical_to_the_written_product(self, its):
        assert mp_coefficients(its).tolist() == written_product(its)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(its=st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=12, unique=True))
    def test_bit_identical_to_the_written_product_on_drawn_schedules(self, its):
        its = sorted(its)
        assert mp_coefficients(its).tolist() == written_product(its)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(its=st.lists(st.integers(1, 10 ** 4), min_size=1, max_size=8, unique=True))
    def test_moment_conditions_random_schedules(self, its):
        # the combination cancels the error terms t^(2j) / L_q^(2j) for
        # j = 1..k-1: sum_q c_q L_q^(-2j) = 0 up to roundoff of its terms
        its = sorted(its)
        c = mp_coefficients(its)
        inv_sq = np.asarray(its, dtype=float) ** -2.0
        for j in range(1, len(its)):
            terms = c * inv_sq ** j
            assert abs(terms.sum()) <= 1e-12 * np.abs(terms).sum(), (its, j)

    def test_rejections(self):
        with pytest.raises(ValueError, match="at least one"):
            mp_coefficients([])
        with pytest.raises(ValueError, match="positive"):
            mp_coefficients([0, 2])
        with pytest.raises(ValueError, match="positive"):
            mp_coefficients([float("nan")])
        with pytest.raises(ValueError, match="strictly increasing"):
            mp_coefficients([2, 2, 4])
        with pytest.raises(ValueError, match="strictly increasing"):
            mp_coefficients([4, 2])


class TestMakeSchedule:
    def test_modified(self):
        s = make_schedule("modified", a=2, k=4)
        assert s.iterations == (4, 8, 16, 32)

    def test_modified_seven_terms_coefficient_mass(self):
        s = make_schedule("modified", a=1, k=7)
        assert s.iterations == (2, 4, 8, 16, 32, 64, 128)
        assert s.abs_coefficient_sum() == pytest.approx(1.9689398621146545, abs=1e-12)

    def test_success_probability(self):
        s = make_schedule("modified", a=2, k=4)
        tot = s.abs_coefficient_sum()
        assert s.ideal_success_probability() == pytest.approx(1.0 / tot ** 2, abs=1e-15)
        assert s.ideal_success_probability() == pytest.approx(0.2632943633, abs=1e-9)

    def test_original(self):
        s = make_schedule("original", gamma=np.log(96.0) / 4.0, k=4)
        assert s.iterations == (1, 2, 3, 96)

    def test_original_rejects_exactly_the_overflowing_ramps(self):
        # the closed-form bound on the ramp may only reject what the full
        # product rejects too (some of the others fail the coefficient sum).
        # At k = 872 and tail 1308 the largest coefficient is e^708.5, just
        # below the float maximum e^709.8.
        def overflows(call):
            try:
                call()
            except ValueError as exc:
                return "overflow" in str(exc)
            return False

        for k in (2, 5, 40, 300, 872, 873, 1300, 3000):
            for tail_over_k in (1.5, 10.0, 1e6, 1e100, 1e300):
                gamma = np.log(k * tail_over_k) / k
                tail = int(round(np.exp(gamma * k)))
                its = list(range(1, k)) + [tail]
                assert overflows(lambda: make_schedule("original", gamma=gamma, k=k)) \
                    == overflows(lambda: mp_coefficients(its)), (k, tail_over_k)

    @staticmethod
    def log_abs_coefficients(its) -> np.ndarray:
        # log|c_q| = sum_{p != q} log L(q)^2 - log|L(q)^2 - L(p)^2|, all pairs at once
        sq = np.asarray(its, dtype=float) ** 2
        diff = np.abs(sq[:, None] - sq[None, :])
        np.fill_diagonal(diff, 1.0)
        terms = np.log(sq)[:, None] - np.log(diff)
        np.fill_diagonal(terms, 0.0)
        return terms.sum(axis=1)

    def test_ramp_whose_coefficients_fit_is_not_called_an_overflow(self):
        # from k = 873 the running product overflows on the way, yet every
        # coefficient of this ramp fits: the schedule fails the sum instead
        k = 873
        gamma = np.log(873e6) / k
        its = list(range(1, k)) + [int(round(np.exp(gamma * k)))]
        log_c = self.log_abs_coefficients(its)
        assert 600 < log_c.max() < np.log(np.finfo(float).max)
        coeffs = mp_coefficients(its)
        normal = log_c > np.log(np.finfo(float).tiny)  # the rest underflow toward 0
        # an absolute error in log|c| is a relative error in c
        np.testing.assert_allclose(np.log(np.abs(coeffs[normal])), log_c[normal],
                                   rtol=0, atol=1e-10)
        signs = (-1.0) ** np.arange(k - 1, -1, -1)
        assert np.all(np.sign(coeffs[normal]) == signs[normal])
        with pytest.raises(ValueError, match="must sum to 1"):
            make_schedule("original", gamma=gamma, k=k)

    def test_ramp_constant_is_the_first_ramp_that_overflows_every_tail(self):
        # for the ramp, prod_{p != q} |q^2 - p^2| = (n - q)! (n + q)! / (2 q^2), so
        # log|c_q| = 2 (n + 1) log q + log 2 - log (n - q)! (n + q)! - log (tail^2 - q^2);
        # a larger tail only shrinks it, so the largest float tail decides
        tail = int(sys.float_info.max)

        def max_log_c(n):
            return max(2 * (n + 1) * log(q) + log(2.0) - lgamma(n - q + 1) - lgamma(n + q + 1)
                       - log(tail - q) - log(tail + q) for q in range(1, n + 1))

        n = _RAMP_OVERFLOW_LEN
        assert max_log_c(n - 1) < log(sys.float_info.max) < max_log_c(n)
        coeffs = mp_coefficients(list(range(1, n)) + [tail])
        assert log(np.abs(coeffs).max()) == pytest.approx(max_log_c(n - 1), abs=1e-9)
        with pytest.raises(ValueError, match="overflow"):
            mp_coefficients(list(range(1, n + 1)) + [tail])
        # past the constant a ramp is rejected unbuilt: 999,999 steps, tail e^100
        start = time.perf_counter()
        with pytest.raises(ValueError, match="coefficients overflow a float"):
            make_schedule("original", gamma=1e-4, k=10 ** 6)
        assert time.perf_counter() - start < 0.01

    def test_explicit_schedule_that_overflows_says_so(self):
        its = list(range(1, 1500))
        assert self.log_abs_coefficients(its).max() > np.log(np.finfo(float).max)
        with pytest.raises(ValueError, match="overflow"):
            MpSchedule(its)

    def test_original_tail_collision(self):
        # round(e^{0.1 * 2}) = 1 does not exceed the ramp (1,)
        with pytest.raises(ValueError, match="collides"):
            make_schedule("original", gamma=0.1, k=2)

    def test_explicit(self):
        s = MpSchedule([1, 3, 9])
        assert s.iterations == (1, 3, 9)

    def test_rejections(self):
        with pytest.raises(ValueError, match="unknown schedule kind"):
            make_schedule("geometric", a=1, k=2)
        with pytest.raises(ValueError, match="needs a and k"):
            make_schedule("modified", k=3)
        with pytest.raises(ValueError, match="integer >= 1"):
            make_schedule("modified", a=0, k=3)
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="prefactor a must be an integer >= 1"):
                make_schedule("modified", a=bad, k=3)
            with pytest.raises(ValueError, match="k must be an integer >= 1"):
                make_schedule("modified", a=1, k=bad)
            with pytest.raises(ValueError, match="k must be an integer >= 2"):
                make_schedule("original", gamma=1.0, k=bad)
        with pytest.raises(ValueError, match="gamma must be positive"):
            make_schedule("original", gamma=-1.0, k=3)
        # counts that are not generated are a schedule of their own: MpSchedule(counts)
        with pytest.raises(ValueError, match="unknown schedule kind 'explicit'"):
            make_schedule("explicit")


class TestMpScheduleValidation:
    def test_schedule_is_its_counts(self):
        # the counts are the one input; nothing else is stored
        assert [f.name for f in dataclasses.fields(MpSchedule)] == ["iterations", "coefficients"]

    def test_rejects_non_integer_iterations(self):
        message = "^iteration count must be an integer >= 1, got 1\\.5$"
        with pytest.raises(ValueError, match=message):
            MpSchedule((1.5, 2.0))
        # explicit counts reach the check unconverted, not truncated to (1, 2)
        with pytest.raises(ValueError, match=message):
            MpSchedule([1.5, 2.7])

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), np.inf,
                                     "abc", None, 1 + 2j])
    def test_rejects_non_finite_and_non_numeric_iterations(self, bad):
        # one message for every entry that is not an integer, whatever int() raises
        message = f"iteration count must be an integer >= 1, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MpSchedule([1, bad])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MpSchedule((bad,))

    def test_many_non_integer_counts_give_a_short_message(self):
        # the first bad count is quoted, not the whole schedule
        with pytest.raises(ValueError) as info:
            MpSchedule([0.5] * 20_000)
        assert str(info.value) == "iteration count must be an integer >= 1, got 0.5"
        assert len(str(info.value)) < 200

    def test_accepts_integral_counts(self):
        for its in ([1, 2], [1.0, 2.0], [np.int64(1), np.float64(2.0)], (np.int32(2), 4)):
            s = MpSchedule(its)
            assert s.iterations == (its[0], its[1]) and all(type(x) is int for x in s.iterations)

    def test_rejects_bad_coefficient_sum(self):
        # near-equal counts: the closed form loses the sum to cancellation
        with pytest.raises(ValueError, match="sum to 1"):
            MpSchedule(tuple(range(100, 112)))

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MpSchedule((2, 1))

    def test_coefficients_follow_from_iterations(self):
        s = MpSchedule((1, 2))
        assert s.coefficients == tuple(mp_coefficients([1, 2]).tolist())
        with pytest.raises(TypeError):
            MpSchedule((1, 2), coefficients=(-1.0 / 3.0, 4.0 / 3.0))


class TestRoundoffFloor:
    @pytest.mark.parametrize("its", [(1, 2), (4, 8, 16, 32), (1, 2, 3, 96), (3, 4, 6, 15)])
    def test_is_eps_times_weighted_counts(self, its):
        # exact coefficients from rationals, independent of mp_coefficients
        weights = 0
        for q in its:
            c = Fraction(1)
            for p in its:
                if p != q:
                    c *= Fraction(q * q, q * q - p * p)
            weights += abs(c) * q
        want = sys.float_info.epsilon * float(weights)
        assert MpSchedule(its).roundoff_floor() == pytest.approx(want, rel=1e-13)

    def test_geometric_floors(self):
        assert make_schedule("modified", a=2, k=4).roundoff_floor() == pytest.approx(
            1.20e-14, abs=5e-17)
        # modified:1,k reaches 2, the largest state error, at k = 53
        assert make_schedule("modified", a=1, k=52).roundoff_floor() < 2
        assert make_schedule("modified", a=1, k=53).roundoff_floor() == pytest.approx(
            3.41, abs=5e-3)
        assert make_schedule("modified", a=1, k=60).roundoff_floor() == pytest.approx(
            436, abs=0.5)

    def test_counts_up_to_the_float_limit(self):
        # 2^1023 is no numpy integer; the floor is finite and far above 2
        assert 2 < make_schedule("modified", a=1, k=1023).roundoff_floor() < np.inf


class TestMpOperator:
    def test_single_term_is_plain_product(self, spin_decomp):
        s = MpSchedule([6])
        assert np.allclose(mp_operator(spin_decomp, 2.0, s),
                           trotterize(spin_decomp, 2.0, 6), atol=0)

    def test_two_term_error_is_fifth_order(self, spin_decomp):
        s = MpSchedule([1, 2])
        h = total(spin_decomp)
        ts = np.geomspace(0.05, 0.4, 9)
        errs = [spectral_norm(mp_operator(spin_decomp, t, s) - hermitian_propagator(h, t))
                for t in ts]
        slope = fit_order(ts, errs)
        assert slope == pytest.approx(5.0, abs=0.5)

    def test_nonunitarity_shrinks_with_order(self, spin_decomp, psi0):
        # k = 2 residual ||MM^dag - I|| comes from the surviving t^5 term
        s = MpSchedule([1, 2])
        ts = np.geomspace(0.1, 0.5, 7)
        resid = [error_report(spin_decomp, t, mp_operator(spin_decomp, t, s), psi0).nonunitarity
                 for t in ts]
        slope = fit_order(ts, resid)
        assert slope >= 4.5


class TestErrorReport:
    def test_exact_propagator_scores_zero(self, spin_decomp, psi0):
        m = hermitian_propagator(total(spin_decomp), 3.0)
        rep = error_report(spin_decomp, 3.0, m, psi0)
        assert rep.state_error < 1e-12
        assert rep.operator_error < 1e-12
        assert rep.nonunitarity < 1e-12
        assert not rep.degenerate

    def test_phase_flip_scores_two(self, spin_decomp, psi0):
        m = -hermitian_propagator(total(spin_decomp), 1.0)
        rep = error_report(spin_decomp, 1.0, m, psi0)
        assert rep.state_error == pytest.approx(2.0, abs=1e-10)

    def test_degenerate_output(self, spin_decomp, psi0):
        # a vanishing output, and one below DEGENERATE_AMPLITUDE
        for m in (np.zeros((4, 4)), 1e-13 * np.eye(4)):
            rep = error_report(spin_decomp, 1.0, m, psi0)
            assert rep.degenerate
            assert np.isnan(rep.state_error)

    def test_against_series_oracle(self, spin_decomp, psi0):
        # recompute the state error with an independently built propagator
        s = make_schedule("modified", a=2, k=4)
        t = 10.0
        m = mp_operator(spin_decomp, t, s)
        rep = error_report(spin_decomp, t, m, psi0)
        target = taylor_propagator(total(spin_decomp), t) @ psi0
        raw = m @ psi0
        independent = np.linalg.norm(target - raw / np.linalg.norm(raw))
        assert abs(rep.state_error - independent) < 1e-8

    def test_rejects_negative_metrics(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ErrorReport(t=1.0, state_error=-0.1, operator_error=0.0, nonunitarity=0.0)


class TestDepthMatched:
    """At equal total iteration count, geometric schedules beat clustered ones."""

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_three_terms(self, spin_decomp, psi0, t):
        geo = MpSchedule([2, 4, 8])
        clu = MpSchedule([1, 2, 11])
        assert sum(geo.iterations) == sum(clu.iterations)
        e_geo = error_report(spin_decomp, t, mp_operator(spin_decomp, t, geo), psi0)
        e_clu = error_report(spin_decomp, t, mp_operator(spin_decomp, t, clu), psi0)
        assert e_geo.state_error < e_clu.state_error

    @pytest.mark.parametrize("t", [1.0, 2.0])
    def test_four_terms(self, spin_decomp, psi0, t):
        geo = MpSchedule([2, 4, 8, 16])
        clu = MpSchedule([1, 2, 3, 24])
        assert sum(geo.iterations) == sum(clu.iterations)
        e_geo = error_report(spin_decomp, t, mp_operator(spin_decomp, t, geo), psi0)
        e_clu = error_report(spin_decomp, t, mp_operator(spin_decomp, t, clu), psi0)
        assert e_geo.state_error < e_clu.state_error
