import numpy as np
import pytest

from mptrotter import (
    ErrorReport,
    MpSchedule,
    error_report,
    fit_order,
    hermitian_propagator,
    make_schedule,
    mp_coefficients,
    mp_operator,
    spectral_norm,
    total,
    trotterize,
)
from tests.conftest import taylor_propagator


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
        # prod_{p != q} L(q)^2 / (L(q)^2 - L(p)^2), one q at a time in increasing p
        sq = np.asarray(its, dtype=float) ** 2
        want = np.ones(len(its))
        for q in range(len(its)):
            for p in range(len(its)):
                if p != q:
                    want[q] *= sq[q] / (sq[q] - sq[p])
        assert mp_coefficients(its).tolist() == want.tolist()

    def test_rejections(self):
        with pytest.raises(ValueError, match="at least one"):
            mp_coefficients([])
        with pytest.raises(ValueError, match="positive"):
            mp_coefficients([0, 2])
        with pytest.raises(ValueError, match="strictly increasing"):
            mp_coefficients([2, 2, 4])
        with pytest.raises(ValueError, match="strictly increasing"):
            mp_coefficients([4, 2])


class TestMakeSchedule:
    def test_modified(self):
        s = make_schedule("modified", a=2, k=4)
        assert s.iterations == (4, 8, 16, 32)
        assert s.kind == "modified"
        assert s.param == 2.0
        assert s.k == 4

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
        assert s.kind == "original"

    def test_original_rejects_exactly_the_overflowing_ramps(self):
        # the closed-form bound on the ramp may only reject what the full
        # product rejects too (some of the others fail the coefficient sum).
        # At k = 872 and tail 1308 the largest coefficient is e^708.5, just
        # below the float maximum e^709.8; from k = 873 on the running
        # product overflows for every tail.
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

    def test_original_tail_collision(self):
        # round(e^{0.1 * 2}) = 1 does not exceed the ramp (1,)
        with pytest.raises(ValueError, match="collides"):
            make_schedule("original", gamma=0.1, k=2)

    def test_explicit(self):
        s = make_schedule("explicit", iterations=[1, 3, 9])
        assert s.iterations == (1, 3, 9)
        assert s.kind == "explicit"

    def test_rejections(self):
        with pytest.raises(ValueError, match="unknown schedule kind"):
            make_schedule("geometric", a=1, k=2)
        with pytest.raises(ValueError, match="needs a and k"):
            make_schedule("modified", k=3)
        with pytest.raises(ValueError, match="integer >= 1"):
            make_schedule("modified", a=0, k=3)
        with pytest.raises(ValueError, match="gamma must be positive"):
            make_schedule("original", gamma=-1.0, k=3)
        with pytest.raises(ValueError, match="needs the iteration list"):
            make_schedule("explicit")


class TestMpScheduleValidation:
    def test_rejects_non_integer_iterations(self):
        with pytest.raises(ValueError, match="integers"):
            MpSchedule((1.5, 2.0))
        # explicit counts reach the check unconverted, not truncated to (1, 2)
        with pytest.raises(ValueError, match="integers"):
            make_schedule("explicit", iterations=[1.5, 2.7])

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


class TestMpOperator:
    def test_single_term_is_plain_product(self, spin_decomp):
        s = make_schedule("explicit", iterations=[6])
        assert np.allclose(mp_operator(spin_decomp, 2.0, s),
                           trotterize(spin_decomp, 2.0, 6), atol=0)

    def test_two_term_error_is_fifth_order(self, spin_decomp):
        s = make_schedule("explicit", iterations=[1, 2])
        h = total(spin_decomp)
        ts = np.geomspace(0.05, 0.4, 9)
        errs = [spectral_norm(mp_operator(spin_decomp, t, s) - hermitian_propagator(h, t))
                for t in ts]
        slope = fit_order(ts, errs)
        assert slope == pytest.approx(5.0, abs=0.5)

    def test_nonunitarity_shrinks_with_order(self, spin_decomp, psi0):
        # k = 2 residual ||MM^dag - I|| comes from the surviving t^5 term
        s = make_schedule("explicit", iterations=[1, 2])
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
        geo = make_schedule("explicit", iterations=[2, 4, 8])
        clu = make_schedule("explicit", iterations=[1, 2, 11])
        assert sum(geo.iterations) == sum(clu.iterations)
        e_geo = error_report(spin_decomp, t, mp_operator(spin_decomp, t, geo), psi0)
        e_clu = error_report(spin_decomp, t, mp_operator(spin_decomp, t, clu), psi0)
        assert e_geo.state_error < e_clu.state_error

    @pytest.mark.parametrize("t", [1.0, 2.0])
    def test_four_terms(self, spin_decomp, psi0, t):
        geo = make_schedule("explicit", iterations=[2, 4, 8, 16])
        clu = make_schedule("explicit", iterations=[1, 2, 3, 24])
        assert sum(geo.iterations) == sum(clu.iterations)
        e_geo = error_report(spin_decomp, t, mp_operator(spin_decomp, t, geo), psi0)
        e_clu = error_report(spin_decomp, t, mp_operator(spin_decomp, t, clu), psi0)
        assert e_geo.state_error < e_clu.state_error
