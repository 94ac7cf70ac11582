import subprocess
import sys
from inspect import isfunction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptrotter import (
    apply_lcu,
    apply_oaa,
    build_lcu,
    build_spin_hamiltonian,
    hermitian_propagator,
    make_schedule,
    mp_operator,
    oaa_error_report,
    predicted_probability,
    total,
    trotterize,
)
from mptrotter import circuit
from mptrotter.circuit import circuit_matrix, oaa_iterate
from mptrotter.lcu import _project, optimal_split
from mptrotter.linalg import spectral_norm
from tests.conftest import haar_unitary, is_unitary, random_state


def lcu_from_schedule(decomp, t, schedule):
    ops = [trotterize(decomp, t, l) for l in schedule.iterations]
    return build_lcu(np.array(schedule.coefficients), ops)


class TestOptimalSplit:
    def test_two_term_products_track_coefficients(self):
        m, mp = optimal_split([-1.0 / 3.0, 4.0 / 3.0])
        prod = m * mp
        assert prod == pytest.approx([-0.2, 0.8], abs=1e-15)
        assert np.linalg.norm(m) == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.norm(mp) == pytest.approx(1.0, abs=1e-15)

    def test_negative_coefficient_gives_imaginary_amplitude(self):
        m, _ = optimal_split([-1.0, 1.0])
        assert m[0].real == pytest.approx(0.0, abs=1e-15)
        assert m[0].imag > 0

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError, match="all coefficients are zero"):
            optimal_split([0.0, 0.0])

    def test_rejects_complex(self):
        with pytest.raises(ValueError, match="must be real"):
            optimal_split([1.0 + 0.5j])


    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 8), d=st.integers(2, 8))
    def test_no_random_feasible_split_beats_optimal(self, seed, k, d):
        rng = np.random.default_rng(seed)
        c = rng.uniform(-1.0, 1.5, size=k)
        if np.max(np.abs(c)) < 1e-3:
            c[0] = 1.0
        ops = [haar_unitary(d, rng) for _ in range(k)]
        psi = random_state(d, rng)
        best = apply_lcu(build_lcu(c, ops), psi).success_probability
        for _ in range(20):
            # unit-norm m, m' with m_i m'_i = c_i / z for a random weight vector r
            r = rng.dirichlet(np.ones(k))
            r = (r + 1e-4) / (1.0 + k * 1e-4)
            m = np.sqrt(r) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=k))
            z = np.sqrt(np.sum(c ** 2 / r))
            split = (m, c / (z * m))
            prob = apply_lcu(build_lcu(c, ops, split=split), psi).success_probability
            assert prob <= best + 1e-12


class TestBuildLcu:
    def test_single_branch_is_the_operator(self):
        rng = np.random.default_rng(0)
        u = haar_unitary(3, rng)
        circ = build_lcu([1.0], [u])
        assert circ.ancilla_dim == 1
        assert np.allclose(circuit_matrix(circ), u, atol=1e-14)
        out = apply_lcu(circ, random_state(3, rng))
        assert out.success_probability == pytest.approx(1.0, abs=1e-12)

    def test_pads_to_power_of_two(self):
        rng = np.random.default_rng(1)
        ops = [haar_unitary(2, rng) for _ in range(3)]
        circ = build_lcu([0.5, 0.3, 0.2], ops)
        assert circ.ancilla_dim == 4
        w = circuit_matrix(circ)
        assert w.shape == (8, 8)
        assert is_unitary(w)

    def test_w_is_unitary_random(self):
        rng = np.random.default_rng(2)
        for k in (2, 4, 5, 8):
            c = rng.uniform(-1.0, 1.5, size=k)
            c[np.argmax(np.abs(c))] += 1.0  # keep at least one away from zero
            ops = [haar_unitary(2, rng) for _ in range(k)]
            circ = build_lcu(c, ops)
            assert is_unitary(circuit_matrix(circ)), k

    def test_rejects_count_mismatch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="coefficients but"):
            build_lcu([1.0, 2.0], [haar_unitary(2, rng)])

    def test_rejects_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="dimension"):
            build_lcu([0.5, 0.5], [haar_unitary(2, rng), haar_unitary(3, rng)])

    def test_rejects_unnormalized_split(self):
        rng = np.random.default_rng(5)
        ops = [haar_unitary(2, rng), haar_unitary(2, rng)]
        bad = (np.array([1.0, 1.0]), np.array([0.6, 0.8]))
        with pytest.raises(ValueError, match="split vector m is not normalized"):
            build_lcu([0.5, 0.5], ops, split=bad)

    def test_rejects_nonproportional_split(self):
        rng = np.random.default_rng(6)
        ops = [haar_unitary(2, rng), haar_unitary(2, rng)]
        bad = (np.array([0.6, 0.8]), np.array([0.6, 0.8]))
        with pytest.raises(ValueError, match="not proportional"):
            build_lcu([0.5, 0.5], ops, split=bad)


class TestApplyLcu:
    def test_projected_branch_matches_direct_sum(self):
        # oracle: the kept branch must be (sum_i c_i A_i psi) / sum|c|
        rng = np.random.default_rng(7)
        for trial in range(20):
            k = int(rng.integers(1, 9))
            c = rng.uniform(-1.0, 1.5, size=k)
            if np.max(np.abs(c)) < 1e-3:
                c[0] = 1.0
            d = int(rng.integers(2, 5))
            ops = [haar_unitary(d, rng) for _ in range(k)]
            psi = random_state(d, rng)
            circ = build_lcu(c, ops)
            direct = sum(ci * (a @ psi) for ci, a in zip(c, ops)) / np.sum(np.abs(c))
            out = apply_lcu(circ, psi)
            assert np.linalg.norm(out.projected_state - direct) < 1e-10, trial
            assert out.success_probability == pytest.approx(
                float(np.linalg.norm(direct)) ** 2, abs=1e-12)

    def test_unitary_combination_probability(self):
        # c = (1.5, -0.5) with equal branches loads exactly one unitary
        rng = np.random.default_rng(8)
        u = haar_unitary(4, rng)
        psi = random_state(4, rng)
        circ = build_lcu([1.5, -0.5], [u, u])
        out = apply_lcu(circ, psi)
        assert out.success_probability == pytest.approx(0.25, abs=1e-12)
        assert np.linalg.norm(out.renormalized_state - u @ psi) < 1e-12

    def test_degenerate_branch(self):
        eye = np.eye(2)
        circ = build_lcu([0.5, -0.5], [eye, eye])
        out = apply_lcu(circ, np.array([1.0, 0.0]))
        assert out.degenerate
        assert out.renormalized_state is None
        assert out.success_probability < 1e-24

    def test_rejects_dimension_mismatch(self):
        circ = build_lcu([1.0], [np.eye(3)])
        with pytest.raises(ValueError, match="data register"):
            apply_lcu(circ, np.array([1.0, 0.0]))


class TestProject:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 256])
    def test_norm_is_numpy_norm_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        kept = 0.3 * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
        nrm = np.linalg.norm(kept)
        out = _project(kept)
        assert out.success_probability == float(nrm) * float(nrm)
        assert out.renormalized_state.tobytes() == (kept / nrm).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_branch_is_rejected(self, bad):
        with pytest.raises(ValueError, match="kept branch norm must be finite"):
            _project(np.array([0.5, complex(0.0, bad)]))


class TestIdentity:
    """Records holding arrays compare and hash by identity."""

    def test_circuits_and_outcomes(self):
        a, b = (build_lcu([0.5, 0.5], [np.eye(2), np.eye(2)]) for _ in range(2))
        assert a == a and a != b
        assert len({a, b}) == 2
        x, y = (apply_lcu(a, np.array([1.0, 0.0])) for _ in range(2))
        assert x == x and x != y
        assert {x: 1, y: 2}[y] == 2


class TestOaa:
    def test_zero_rounds_is_plain_lcu(self):
        rng = np.random.default_rng(9)
        ops = [haar_unitary(2, rng) for _ in range(2)]
        circ = build_lcu([0.8, 0.2], ops)
        psi = random_state(2, rng)
        a = apply_lcu(circ, psi)
        b = apply_oaa(circ, psi, 0)
        assert np.allclose(a.projected_state, b.projected_state, atol=0)

    def test_quarter_probability_amplifies_to_one(self):
        rng = np.random.default_rng(10)
        u = haar_unitary(4, rng)
        psi = random_state(4, rng)
        circ = build_lcu([1.5, -0.5], [u, u])
        out = apply_oaa(circ, psi, 1)
        assert out.success_probability == pytest.approx(1.0, abs=1e-12)
        # the signed iterate lands on the target with the right phase
        assert np.linalg.norm(out.renormalized_state - u @ psi) < 1e-10

    def test_probability_follows_cubic_law(self):
        # unitary loaded operator: n rounds take p to sin^2((2n+1) asin sqrt p)
        rng = np.random.default_rng(11)
        u = haar_unitary(3, rng)
        psi = random_state(3, rng)
        for w in (0.55, 0.7, 0.9):
            circ = build_lcu([1.0 + w, -w], [u, u])
            p0 = apply_lcu(circ, psi).success_probability
            for n in range(4):
                got = apply_oaa(circ, psi, n).success_probability
                assert got == pytest.approx(predicted_probability(p0, n), abs=1e-9)

    def test_iterate_is_unitary(self):
        rng = np.random.default_rng(13)
        ops = [haar_unitary(2, rng) for _ in range(4)]
        circ = build_lcu([0.4, 0.3, -0.2, 0.5], ops)
        assert is_unitary(oaa_iterate(circuit=circ))

    def test_rejects_negative_rounds(self):
        circ = build_lcu([1.0], [np.eye(2)])
        with pytest.raises(ValueError, match="integer >= 0"):
            apply_oaa(circ, np.array([1.0, 0.0]), -1)
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="round count must be an integer >= 0"):
                apply_oaa(circ, np.array([1.0, 0.0]), bad)


class TestPredictedProbability:
    def test_quarter_one_round_is_certain(self):
        assert predicted_probability(0.25, 1) == pytest.approx(1.0, abs=1e-15)

    def test_zero_rounds_identity(self):
        for p in (0.0, 0.3, 1.0):
            assert predicted_probability(p, 0) == pytest.approx(p, abs=1e-15)

    def test_seven_term_schedule_value(self):
        # the one-round value for the k = 7 geometric schedule's probability;
        # sin^2 of triple the half-angle, not the amplitude sin(3 theta)
        s = make_schedule("modified", a=1, k=7)
        p = s.ideal_success_probability()
        assert p == pytest.approx(0.25794974143324795, abs=1e-12)
        assert predicted_probability(p, 1) == pytest.approx(0.999249657907, abs=1e-9)

    def test_domain_rejections(self):
        with pytest.raises(ValueError, match="lie in"):
            predicted_probability(1.2, 1)
        with pytest.raises(ValueError, match="lie in"):
            predicted_probability(-0.1, 1)
        with pytest.raises(ValueError, match="integer >= 0"):
            predicted_probability(0.5, -1)
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="round count must be an integer >= 0"):
                predicted_probability(0.5, bad)


class TestOaaErrorReport:
    def test_unitary_case_all_zero(self):
        rng = np.random.default_rng(14)
        u = haar_unitary(4, rng)
        psi = random_state(4, rng)
        circ = build_lcu([1.5, -0.5], [u, u])
        rep = oaa_error_report(circ, psi)
        assert rep.s == pytest.approx(0.5, abs=1e-12)
        assert rep.delta < 1e-12
        assert rep.bound < 1e-12
        assert rep.identity_residual < 1e-10
        assert rep.observed_error < 1e-10

    def test_identity_residual_random_circuits(self):
        rng = np.random.default_rng(15)
        for trial in range(10):
            k = int(rng.integers(2, 6))
            c = rng.uniform(-1.0, 1.5, size=k)
            if np.max(np.abs(c)) < 1e-3:
                c[0] = 1.0
            ops = [haar_unitary(3, rng) for _ in range(k)]
            circ = build_lcu(c, ops)
            rep = oaa_error_report(circ, random_state(3, rng))
            assert rep.identity_residual < 1e-10, trial

    @pytest.mark.parametrize("t", [10.0, 40.0])
    def test_spin_model_error_within_bound(self, psi0, t):
        decomp = build_spin_hamiltonian()
        sched = make_schedule("modified", a=2, k=4)
        circ = lcu_from_schedule(decomp, t, sched)
        rep = oaa_error_report(circ, psi0)
        assert rep.delta > 0
        assert rep.observed_error <= 1.5 * rep.bound

    def test_loaded_operator_matches_mp(self, spin_decomp):
        sched = make_schedule("modified", a=2, k=4)
        circ = lcu_from_schedule(spin_decomp, 5.0, sched)
        tot = float(np.sum(np.abs(circ.coeffs)))
        assert spectral_norm(tot * circ.block - mp_operator(spin_decomp, 5.0, sched)) < 1e-12

    def test_projected_cubic_matches_data_register_polynomial(self, spin_decomp, psi0):
        # the ancilla-0 block of one round equals 3 sT' - 4 s^3 T'T'^dag T'
        # with T' the loaded operator over sum|c|
        sched = make_schedule("modified", a=2, k=4)
        circ = lcu_from_schedule(spin_decomp, 8.0, sched)
        tot = float(np.sum(np.abs(circ.coeffs)))
        tp = mp_operator(spin_decomp, 8.0, sched) / tot
        d = circ.data_dim
        one_round = oaa_iterate(circ) @ circuit_matrix(circ)
        block = one_round[:d, :d]
        poly = 3.0 * tp - 4.0 * tp @ tp.conj().T @ tp
        assert spectral_norm(block - poly) < 1e-10


def random_split(c, rng):
    """A random feasible split: unit-norm m, m' with m_i m'_i proportional to c_i."""
    r = rng.dirichlet(np.ones(c.size))
    r = (r + 1e-4) / (1.0 + c.size * 1e-4)
    m = np.sqrt(r) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=c.size))
    z = np.sqrt(np.sum(c ** 2 / r))
    return m, c / (z * m)


class TestBlockPath:
    def test_oaa_matches_dense_reference(self):
        # oracle: (-W R W^dag R)^n W on |0> (x) |psi>, ancilla-0 block kept,
        # from the dense circuit matrix
        rng = np.random.default_rng(16)
        ks = set()
        for trial in range(48):
            k = int(rng.integers(1, 9))
            ks.add(k)
            c = rng.uniform(-1.0, 1.5, size=k)
            if np.max(np.abs(c)) < 1e-3:
                c[0] = 1.0
            d = int(rng.integers(2, 6))
            ops = [haar_unitary(d, rng) for _ in range(k)]
            psi = random_state(d, rng)
            split = random_split(c, rng) if trial % 2 else None
            circ = build_lcu(c, ops, split=split)
            g = oaa_iterate(circ)
            y = circuit_matrix(circ)[:, :d] @ psi
            for n in range(5):
                got = apply_oaa(circ, psi, n)
                assert np.linalg.norm(got.projected_state - y[:d]) < 1e-12, (trial, n)
                assert got.success_probability == pytest.approx(
                    float(np.linalg.norm(y[:d])) ** 2, abs=1e-12)
                y = g @ y
        assert ks & {3, 5, 6, 7}  # padded ancillas are covered

    def test_block_is_kept_corner_of_w(self):
        rng = np.random.default_rng(18)
        c = np.array([0.7, -0.4, 0.9])
        ops = [haar_unitary(3, rng) for _ in range(3)]
        for split in (None, random_split(c, rng)):
            circ = build_lcu(c, ops, split=split)
            assert spectral_norm(circuit_matrix(circ)[:3, :3] - circ.block) < 1e-12

    def test_fast_path_does_not_build_w(self, monkeypatch):
        # every public function of the dense reference raises, at every
        # binding in the package; the block path and the report never need one
        dense = {name: f for name, f in vars(circuit).items()
                 if isfunction(f) and f.__module__ == circuit.__name__
                 and not name.startswith("_")}
        assert {"circuit_matrix", "oaa_iterate", "ancilla_projector"} <= set(dense)

        def forbidden(*args, **kwargs):
            raise AssertionError("the block path called the dense circuit")

        for name, module in list(sys.modules.items()):
            if module is not None and name.split(".")[0] == "mptrotter":
                for attr, value in list(vars(module).items()):
                    if any(value is f for f in dense.values()):
                        monkeypatch.setattr(module, attr, forbidden)
        rng = np.random.default_rng(19)
        ops = [haar_unitary(4, rng) for _ in range(5)]
        circ = build_lcu([0.5, -0.2, 0.3, 0.1, 0.3], ops)
        psi = random_state(4, rng)
        apply_lcu(circ, psi)
        apply_oaa(circ, psi, 3)
        assert oaa_error_report(circ, psi).identity_residual < 1e-10
        with pytest.raises(AssertionError, match="dense circuit"):
            circuit.circuit_matrix(circ)

    def test_package_import_leaves_dense_circuit_unloaded(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import mptrotter, mptrotter.cli; "
                "print('mptrotter.circuit' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "False"
