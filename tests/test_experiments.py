import csv
import json

import numpy as np
import pytest

from mptrotter import (
    SweepConfig,
    SweepRow,
    apply_lcu,
    apply_oaa,
    build_lcu,
    build_spin_hamiltonian,
    classical_fidelity,
    default_t_grid,
    drop_floor,
    emit,
    fit_order,
    hermitian_propagator,
    load_config,
    parse_algorithm,
    parse_schedule_spec,
    products,
    run_sweep,
    total,
    trotterize,
)
from mptrotter import cli, experiments
from mptrotter.experiments import CSV_HEADER, DEFAULT_ALGORITHMS


class TestClassicalFidelity:
    def test_identical_distributions(self):
        p = [0.3, 0.7, 0.0, 0.0]
        assert classical_fidelity(p, p) == pytest.approx(1.0, abs=1e-15)

    def test_disjoint_support(self):
        assert classical_fidelity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_known_value(self):
        # (sqrt(1/8) + sqrt(3/8))^2 = (2 + sqrt 3)/4
        got = classical_fidelity([0.5, 0.5], [0.25, 0.75])
        assert got == pytest.approx((2.0 + np.sqrt(3.0)) / 4.0, abs=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(20)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        assert classical_fidelity(p, q) == pytest.approx(classical_fidelity(q, p), abs=1e-15)

    def test_rejections(self):
        with pytest.raises(ValueError, match="differ in length"):
            classical_fidelity([1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="negative"):
            classical_fidelity([-0.2, 1.2], [0.5, 0.5])
        with pytest.raises(ValueError, match="not normalized"):
            classical_fidelity([0.5, 0.4], [0.5, 0.5])

    def test_batch_equals_scalar_calls(self):
        rng = np.random.default_rng(22)
        p = rng.dirichlet(np.ones(4), size=7)
        q = rng.dirichlet(np.ones(4), size=7)
        got = classical_fidelity(p, q)
        assert got.shape == (7,)
        assert got.tolist() == [classical_fidelity(a, b) for a, b in zip(p, q)]
        assert isinstance(classical_fidelity(p[0], q[0]), float)

    def test_one_bad_row_rejects_the_batch(self):
        good = np.full((5, 4), 0.25)
        negative = good.copy()
        negative[3] = [-0.2, 0.6, 0.3, 0.3]
        with pytest.raises(ValueError, match="q has negative"):
            classical_fidelity(good, negative)
        unnormalized = good.copy()
        unnormalized[1, 2] = 0.3
        with pytest.raises(ValueError, match=r"p is not normalized: sum = 1\.05"):
            classical_fidelity(unnormalized, good)
        with pytest.raises(ValueError, match="differ in length: 4 vs 3"):
            classical_fidelity(good, np.full((5, 3), 1.0 / 3.0))


class TestFitOrder:
    def test_exact_cubic(self):
        ts = np.geomspace(0.01, 0.1, 8)
        assert fit_order(ts, 2.7 * ts ** 3) == pytest.approx(3.0, abs=1e-6)

    def test_noisy_quintic(self):
        rng = np.random.default_rng(21)
        ts = np.geomspace(0.05, 0.5, 12)
        errs = 0.4 * ts ** 5 * np.exp(rng.normal(0.0, 0.02, size=ts.size))
        assert fit_order(ts, errs) == pytest.approx(5.0, abs=0.1)

    def test_rejections(self):
        with pytest.raises(ValueError, match="at least 4"):
            fit_order([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="ascending"):
            fit_order([1.0, 3.0, 2.0, 4.0], [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="strictly positive"):
            fit_order([1.0, 2.0, 3.0, 4.0], [1.0, 0.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="differ in length"):
            fit_order([1.0, 2.0, 3.0, 4.0], [1.0, 2.0])

    def test_drop_floor(self):
        ts, es = drop_floor([1.0, 2.0, 3.0], [1e-15, 1e-3, 1e-2], floor=1e-13)
        assert ts.tolist() == [2.0, 3.0]
        assert es.tolist() == [1e-3, 1e-2]


class TestParsing:
    def test_schedule_modified(self):
        s = parse_schedule_spec("modified:2,4")
        assert s.iterations == (4, 8, 16, 32)
        assert s.kind == "modified"

    def test_schedule_original(self):
        s = parse_schedule_spec(f"original:{np.log(96.0) / 4.0},4")
        assert s.iterations == (1, 2, 3, 96)

    def test_schedule_explicit(self):
        assert parse_schedule_spec("1,2,3,96").iterations == (1, 2, 3, 96)

    def test_schedule_rejections(self):
        with pytest.raises(ValueError, match="modified:a,k"):
            parse_schedule_spec("modified:2")
        with pytest.raises(ValueError, match="original:gamma,k"):
            parse_schedule_spec("original:1.0")
        with pytest.raises(ValueError, match="integer"):
            parse_schedule_spec("1,x,4")

    def test_algorithm_exact(self):
        a = parse_algorithm("exact")
        assert a.kind == "exact"

    def test_algorithm_trotter(self):
        a = parse_algorithm("trotter:96")
        assert a.kind == "trotter"
        assert a.l == 96

    def test_algorithm_mp(self):
        a = parse_algorithm("mp:modified:2,4")
        assert a.kind == "mp"
        assert a.schedule.iterations == (4, 8, 16, 32)

    def test_algorithm_mp_oaa_default_rounds(self):
        # the trailing field is part of the schedule, not a round count
        a = parse_algorithm("mp_oaa:modified:2,4")
        assert a.kind == "mp_oaa"
        assert a.schedule.iterations == (4, 8, 16, 32)
        assert a.rounds == 1

    def test_algorithm_mp_oaa_explicit_rounds(self):
        a = parse_algorithm("mp_oaa:modified:2,4:3")
        assert a.schedule.iterations == (4, 8, 16, 32)
        assert a.rounds == 3
        b = parse_algorithm("mp_oaa:1,2,4:2")
        assert b.schedule.iterations == (1, 2, 4)
        assert b.rounds == 2

    def test_algorithm_rejections(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            parse_algorithm("magic")
        with pytest.raises(ValueError, match="integer"):
            parse_algorithm("trotter:fast")
        for spec in ("trotter:0", "trotter:-3"):
            with pytest.raises(ValueError, match="positive"):
                SweepConfig(algorithms=(spec,))


class TestSweepConfig:
    def test_defaults(self):
        cfg = SweepConfig()
        assert cfg.initial_state[0] == pytest.approx(np.sqrt(0.3))
        assert cfg.initial_state[1] == pytest.approx(np.sqrt(0.7))
        assert len(cfg.t_grid) == 61
        assert cfg.t_grid[0] == 0.0
        assert cfg.t_grid[-1] == 60.0
        assert cfg.algorithms == DEFAULT_ALGORITHMS

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError, match="not normalized"):
            SweepConfig(initial_state=(1.0, 1.0, 0.0, 0.0))

    def test_rejects_bad_format(self):
        with pytest.raises(ValueError, match="csv or json"):
            SweepConfig(format="xml")

    def test_rejects_bad_algorithm_early(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            SweepConfig(algorithms=("exact", "nope"))

    def test_parses_each_spec_once(self, monkeypatch, capsys):
        calls = []
        real = experiments.make_schedule

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "make_schedule", counting)
        config = SweepConfig()
        assert len(calls) == 2  # the two multi-product defaults
        run_sweep(config)
        assert len(calls) == 2
        assert cli.main(["evolve", "--algo", "mp:modified:2,4", "--t", "1"]) == 0
        assert len(calls) == 5  # 2 for the default config, 1 for the cell
        assert "fidelity = " in capsys.readouterr().out

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "omega": 0.4,
            "initial_state": [[0.6, 0.0], 0.8, 0, 0],
            "t_grid": [0.0, 1.0, 2.0],
            "algorithms": ["exact", "mp:1,2"],
            "format": "json",
        }))
        cfg = load_config(path)
        assert cfg.model.omega == 0.4
        assert cfg.model.delta == 0.5  # default preserved
        assert cfg.initial_state == (0.6 + 0j, 0.8 + 0j, 0j, 0j)
        assert cfg.t_grid == (0.0, 1.0, 2.0)
        assert cfg.format == "json"

    def test_load_config_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"omegaa": 0.4}))
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(path)

    def test_load_config_rejects_non_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_config(path)

    def test_load_config_rejects_bad_amplitude(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"initial_state": ["big", 0, 0, 0]}))
        with pytest.raises(ValueError, match="re, im"):
            load_config(path)


class TestRunSweep:
    def test_row_layout_and_zero_time(self):
        cfg = SweepConfig(t_grid=(0.0, 7.0))
        rows = run_sweep(cfg)
        assert len(rows) == 2 * len(DEFAULT_ALGORITHMS)
        assert [r.algo for r in rows[:4]] == list(DEFAULT_ALGORITHMS)
        for r in rows[:4]:
            # populations of the initial state, whatever the algorithm
            assert r.p00 == pytest.approx(0.3, abs=1e-12)
            assert r.p01 == pytest.approx(0.7, abs=1e-12)
            assert r.state_error < 1e-12
            assert r.fidelity == pytest.approx(1.0, abs=1e-12)
        by_algo = {r.algo: r for r in rows[:4]}
        assert by_algo["exact"].success_prob == 1.0
        assert by_algo["trotter:96"].success_prob == 1.0
        # post-selection keeps its honest odds even at t = 0
        assert by_algo["mp:modified:2,4"].success_prob == pytest.approx(
            0.263294363342274, abs=1e-12)
        assert by_algo["mp_oaa:modified:2,4:1"].success_prob == pytest.approx(
            0.997916713193, abs=1e-9)

    def test_populations_normalized(self):
        cfg = SweepConfig(t_grid=(3.0, 11.0, 27.0))
        for r in run_sweep(cfg):
            assert not r.degenerate
            assert r.p00 + r.p01 + r.p10 + r.p11 == pytest.approx(1.0, abs=1e-9)
            assert 0.0 <= r.success_prob <= 1.0 + 1e-12
            assert r.fidelity <= 1.0

    def test_mp_success_against_direct_sum(self, psi0):
        # oracle: ||sum c_i S^{L_i}(t/L_i) psi||^2 / (sum|c|)^2
        t = 7.0
        cfg = SweepConfig(t_grid=(t,), algorithms=("mp:modified:2,4",))
        row = run_sweep(cfg)[0]
        decomp = build_spin_hamiltonian()
        sched = parse_schedule_spec("modified:2,4")
        acc = np.zeros(4, dtype=complex)
        for c, l in zip(sched.coefficients, sched.iterations):
            acc = acc + c * (trotterize(decomp, t, l) @ psi0)
        expected = float(np.linalg.norm(acc) ** 2) / sched.abs_coefficient_sum() ** 2
        assert row.success_prob == pytest.approx(expected, abs=1e-12)

    def test_trotter_state_is_renormalized(self):
        cfg = SweepConfig(t_grid=(9.0,), algorithms=("trotter:12",))
        row = run_sweep(cfg)[0]
        assert row.p00 + row.p01 + row.p10 + row.p11 == pytest.approx(1.0, abs=1e-12)
        assert row.success_prob == 1.0


def reference_rows(config):
    """Per-cell sweep rows from the scalar public API only: one trotterize
    per product, one build_lcu and apply_lcu/apply_oaa per cell, one scalar
    classical_fidelity per row."""
    decomp = build_spin_hamiltonian(config.model)
    h = total(decomp)
    psi0 = np.asarray(config.initial_state, dtype=complex)
    psi0 = psi0 / np.linalg.norm(psi0)
    rows = []
    for t in config.t_grid:
        exact = hermitian_propagator(h, t) @ psi0
        p_exact = np.abs(exact) ** 2 / np.sum(np.abs(exact) ** 2)
        for spec in config.algorithms:
            algo = parse_algorithm(spec, config.oaa_rounds)
            prob = 1.0
            if algo.kind == "exact":
                state = exact
            elif algo.kind == "trotter":
                out = trotterize(decomp, t, algo.l) @ psi0
                state = out / np.linalg.norm(out)
            else:
                circuit = build_lcu(algo.schedule.coefficients,
                                    [trotterize(decomp, t, l) for l in algo.iterations])
                outcome = (apply_lcu(circuit, psi0) if algo.kind == "mp"
                           else apply_oaa(circuit, psi0, algo.rounds))
                assert not outcome.degenerate
                state, prob = outcome.renormalized_state, outcome.success_probability
            pops = np.abs(state) ** 2 / np.sum(np.abs(state) ** 2)
            rows.append((t, spec, *pops, prob, np.linalg.norm(exact - state),
                         classical_fidelity(p_exact, pops)))
    return rows


MIXED_ALGORITHMS = ("exact", "trotter:1", "mp:original:1.0,3", "mp:1,2,3,96",
                    "mp_oaa:modified:1,3:0", "mp_oaa:1,2,3,96:2",
                    "mp_oaa:original:1.0,3:3")
MIXED_STATE = (0.5, 0.5j, -0.5, complex(0.3, 0.4))


class TestSweepOracle:
    @pytest.mark.parametrize("config", [
        SweepConfig(),
        SweepConfig(initial_state=MIXED_STATE, algorithms=MIXED_ALGORITHMS,
                    t_grid=(-2.5, 0.0, 0.7, 3.0, 12.0)),
        SweepConfig(initial_state=MIXED_STATE, algorithms=MIXED_ALGORITHMS,
                    t_grid=(1.3,)),
    ], ids=["default", "mixed-grid", "single-time"])
    def test_matches_scalar_reference(self, config):
        rows = run_sweep(config)
        want = reference_rows(config)
        assert [(r.t, r.algo) for r in rows] == [w[:2] for w in want]
        for r, w in zip(rows, want):
            got = (r.p00, r.p01, r.p10, r.p11, r.success_prob, r.state_error, r.fidelity)
            assert not r.degenerate
            assert np.max(np.abs(np.array(got) - np.array(w[2:]))) <= 1e-12, r

    def test_vanishing_block_gives_one_degenerate_row(self, monkeypatch):
        config = SweepConfig(t_grid=(0.5, 1.0, 1.5),
                             algorithms=("exact", "mp_oaa:modified:2,4:1"))
        ordinary = run_sweep(config)

        def vanishing_at_second_time(decomp, ts, l):
            out = products(decomp, ts, l).copy()
            out[1] = 0.0
            return out

        monkeypatch.setattr(experiments, "products", vanishing_at_second_time)
        rows = run_sweep(config)
        bad = [r for r in rows if r.degenerate]
        assert len(bad) == 1
        (row,) = bad
        assert (row.t, row.algo) == (1.0, "mp_oaa:modified:2,4:1")
        assert (row.p00, row.p01, row.p10, row.p11, row.fidelity) == (None,) * 5
        assert np.isnan(row.state_error)
        assert row.success_prob == 0.0
        assert [r for r in rows if r is not row] == [r for r in ordinary if r.t != 1.0
                                                    or r.algo == "exact"]


class TestEmit:
    def make_rows(self):
        cfg = SweepConfig(t_grid=(0.0, 5.0))
        return run_sweep(cfg)

    def test_csv_shape_and_round_trip(self, tmp_path):
        rows = self.make_rows()
        path = tmp_path / "out.csv"
        emit(rows, "csv", path)
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        parsed = list(csv.DictReader(text.splitlines()))
        assert len(parsed) == len(rows)
        for rec, row in zip(parsed, rows):
            assert rec["algo"] == row.algo
            assert float(rec["t"]) == row.t
            assert float(rec["success_prob"]) == pytest.approx(row.success_prob, rel=1e-11)
            assert float(rec["p00"]) == pytest.approx(row.p00, rel=1e-11)

    def test_csv_quotes_algo_commas(self, tmp_path):
        rows = self.make_rows()
        path = tmp_path / "out.csv"
        emit(rows, "csv", path)
        assert '"mp:modified:2,4"' in path.read_text()

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit([], "csv", path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_json_valid_and_complete(self, tmp_path):
        rows = self.make_rows()
        path = tmp_path / "out.json"
        emit(rows, "json", path)
        payload = json.loads(path.read_text())
        assert len(payload) == len(rows)
        assert all(list(rec) == CSV_HEADER.split(",") for rec in payload)
        assert payload[0]["algo"] == rows[0].algo
        assert payload[0]["success_prob"] == rows[0].success_prob

    def test_degenerate_row_fields(self, tmp_path):
        row = SweepRow(t=1.0, algo="mp:1,2", p00=None, p01=None, p10=None,
                       p11=None, success_prob=0.0, state_error=float("nan"),
                       fidelity=None, degenerate=True)
        cpath = tmp_path / "d.csv"
        emit([row], "csv", cpath)
        assert cpath.read_text().splitlines()[1] == '1,"mp:1,2",,,,,0,,'
        jpath = tmp_path / "d.json"
        emit([row], "json", jpath)
        rec = json.loads(jpath.read_text())[0]
        assert (rec["p00"], rec["p01"], rec["p10"], rec["p11"]) == (None,) * 4
        assert rec["state_error"] is None
        assert rec["fidelity"] is None

    def test_deterministic_bytes(self, tmp_path):
        rows = self.make_rows()
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        emit(rows, "csv", a)
        emit(self.make_rows(), "csv", b)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="csv or json"):
            emit([], "yaml", tmp_path / "x")
