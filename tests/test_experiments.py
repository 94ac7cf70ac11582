import csv
import dataclasses
import inspect
import io
import json
import math
import re
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptrotter import (
    SweepConfig,
    SweepTable,
    apply_lcu,
    apply_oaa,
    build_lcu,
    build_spin_hamiltonian,
    drop_floor,
    emit,
    fit_order,
    hermitian_propagator,
    load_config,
    run_sweep,
    total,
    trotterize,
)
from mptrotter import cli, experiments
from mptrotter.experiments import (CSV_HEADER, DEFAULT_ALGORITHMS, classical_fidelity,
                                   default_t_grid, parse_algorithm, parse_schedule_spec,
                                   read_number, sweep_states)
from mptrotter.multiproduct import state_errors
from mptrotter.trotter import product_stacks
from tests.conftest import HUGE


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

    def test_drop_floor_stops_at_the_first_saturated_error(self):
        # from the first error >= 1 the error oscillates, so a later small one
        # is saturation, not truncation error
        ts, es = drop_floor(range(1, 8), [1e-15, 1e-3, 0.5, 1.0, 0.3, 1.9, 1e-2], floor=1e-13)
        assert ts.tolist() == [2.0, 3.0]
        assert es.tolist() == [1e-3, 0.5]

    def test_drop_floor_names_its_floor(self):
        # scaling reads the schedule's floor and criterion 3 the fixed one, so a
        # default would let the two disagree without a caller saying which
        floor = inspect.signature(drop_floor).parameters["floor"]
        assert floor.default is inspect.Parameter.empty
        with pytest.raises(TypeError):
            drop_floor([1.0], [1.0])


class TestParsing:
    def test_schedule_modified(self):
        s = parse_schedule_spec("modified:2,4")
        assert s.iterations == (4, 8, 16, 32)

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
        assert a.kind == "mp"
        assert a.schedule.iterations == (4, 8, 16, 32)
        assert a.rounds == 1

    @pytest.mark.parametrize("schedule", ["modified:2,4", "original:0.5,3", "1,2,3,96"])
    def test_algorithm_mp_is_mp_oaa_with_zero_rounds(self, schedule):
        a, b = parse_algorithm(f"mp:{schedule}"), parse_algorithm(f"mp_oaa:{schedule}:0")
        assert a.spec != b.spec
        assert a == dataclasses.replace(b, spec=a.spec)
        assert (a.kind, a.rounds) == ("mp", 0)

    @pytest.mark.parametrize("text, kind, value", [
        (" 12 ", int, 12), ("+3", int, 3), ("1_000", int, 1000), ("\t-2\n", int, -2),
        (" 2.5 ", float, 2.5), ("+1e-3", float, 1e-3), ("1_0.5", float, 10.5),
        ("-inf", float, -math.inf)])
    def test_read_number_strips_and_converts(self, text, kind, value):
        got = read_number(text, "x", kind)
        assert type(got) is kind and got == value

    @pytest.mark.parametrize("text, kind, message", [
        (" 1.5 ", int, "x must be an integer, got '1.5'"),
        ("0x10", int, "x must be an integer, got '0x10'"),
        ("", int, "x must be an integer, got ''"),
        (" abc ", float, "x must be a number, got 'abc'"),
        ("1,5", float, "x must be a number, got '1,5'")])
    def test_read_number_names_what_it_reads(self, text, kind, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_number(text, "x", kind)

    def test_algorithm_mp_oaa_explicit_rounds(self):
        a = parse_algorithm("mp_oaa:modified:2,4:3")
        assert a.schedule.iterations == (4, 8, 16, 32)
        assert a.rounds == 3
        b = parse_algorithm("mp_oaa:1,2,4:2")
        assert b.schedule.iterations == (1, 2, 4)
        assert b.rounds == 2

    @pytest.mark.parametrize("spec, iterations, rounds", [
        ("mp_oaa:modified:2,4:1", (4, 8, 16, 32), 1), ("mp_oaa:modified:2,4", (4, 8, 16, 32), 1),
        ("mp_oaa:1,2:3", (1, 2), 3)])
    def test_algorithm_round_count_follows_a_whole_schedule(self, spec, iterations, rounds):
        a = parse_algorithm(spec)
        assert (a.schedule.iterations, a.rounds) == (iterations, rounds)

    def test_algorithm_rejections(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            parse_algorithm("magic")
        with pytest.raises(ValueError, match="integer"):
            parse_algorithm("trotter:fast")
        for spec in ("trotter:0", "trotter:-3"):
            with pytest.raises(ValueError, match="integer >= 1"):
                SweepConfig(algorithms=(spec,))
        # the round count of an mp_oaa spec is its only spelling, and a last
        # field with a comma belongs to the schedule, which reports its own error
        for spec, message in [
            ("mp_oaa:modified:2,4:-1", "round count must be an integer >= 0, got -1"),
            ("mp_oaa:modified:2,4:1.5", "round count must be an integer, got '1.5'"),
            ("mp_oaa:1,2:inf", "round count must be an integer, got 'inf'"),
            ("mp_oaa:1,2:nan", "round count must be an integer, got 'nan'"),
            ("mp_oaa:1,2:10001", "round count must be at most 10000, got 10001"),
            ("mp_oaa:modified:2,x", "k must be an integer, got 'x'"),
            ("mp_oaa:original:abc,3", "gamma must be a number, got 'abc'"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                SweepConfig(algorithms=(spec,))
        assert parse_algorithm("mp_oaa:1,2:10000").rounds == 10000


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

    def test_rejects_bad_algorithm_early(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            SweepConfig(algorithms=("exact", "nope"))

    def test_parses_each_spec_once(self, monkeypatch, capsys):
        # specs are parsed through a per-process memo: a spec text parsed
        # once is never parsed again, whichever config or command lists it
        experiments._parse_algorithm.cache_clear()
        calls = []
        real = experiments.make_schedule

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "make_schedule", counting)
        config = SweepConfig()
        assert len(calls) == 2  # the two multi-product defaults
        assert SweepConfig().specs == config.specs
        run_sweep(config)
        assert cli.main(["evolve", "--algo", "mp:modified:2,4", "--t", "1"]) == 0
        assert "fidelity = " in capsys.readouterr().out
        assert len(calls) == 2
        for _ in range(2):
            assert cli.main(["scaling", "--k", "3", "--tmin", "1", "--tmax", "3"]) == 0
            assert "fitted order = " in capsys.readouterr().out
        assert len(calls) == 3

    @pytest.mark.parametrize("spec", [5, ["exact"], None])
    def test_rejects_a_spec_that_is_no_string(self, spec):
        with pytest.raises(ValueError, match=f"^algorithm spec must be a string, got "
                                             f"{re.escape(repr(spec))}$"):
            SweepConfig(algorithms=(spec,))
        with pytest.raises(ValueError, match="must be a string"):
            parse_algorithm(spec)

    def test_default_grid_is_formed_once(self, monkeypatch):
        calls = []
        linspace = np.linspace
        monkeypatch.setattr(np, "linspace", lambda *a, **k: calls.append(a) or linspace(*a, **k))
        assert SweepConfig().t_grid == default_t_grid()
        assert calls == []

    def test_cold_and_warm_memos_write_the_same_bytes(self, tmp_path, capsys):
        written = []
        for cold in (True, True, False):
            if cold:
                experiments._parse_algorithm.cache_clear()
                experiments._spin_model.cache_clear()
            path = tmp_path / "sweep.csv"
            assert cli.main(["sweep", "--out", str(path)]) == 0
            assert cli.main(["scaling", "--k", "4", "--tmin", "2", "--tmax", "32"]) == 0
            written.append((path.read_bytes(), capsys.readouterr().out))
        assert written[0] == written[1] == written[2]

    def test_schedules_sharing_a_sweep_keep_their_own_blocks(self):
        # mp and mp_oaa on one schedule share its block; another schedule
        # gets its own, so every cell equals the one-algorithm sweep's
        grid = (0.0, 0.7, 3.0, 11.0, 40.0)
        specs = ("mp:modified:2,4", "mp_oaa:modified:2,4:1", "mp:modified:1,3")
        together = run_sweep(SweepConfig(t_grid=grid, algorithms=specs))
        for i, spec in enumerate(specs):
            alone = run_sweep(SweepConfig(t_grid=grid, algorithms=(spec,)))
            assert together.algo[i::len(specs)] == alone.algo
            for name in ("populations", "success_prob", "state_error", "fidelity"):
                ours = np.ascontiguousarray(getattr(together, name)[i::len(specs)])
                assert ours.tobytes() == getattr(alone, name).tobytes(), (spec, name)

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "omega": 0.4,
            "initial_state": [[0.6, 0.0], 0.8, 0, 0],
            "t_grid": [0.0, 1.0, 2.0],
            "algorithms": ["exact", "mp:1,2"],
        }))
        cfg = load_config(path)
        assert cfg.model.omega == 0.4
        assert cfg.model.delta == 0.5  # default preserved
        assert cfg.initial_state == (0.6 + 0j, 0.8 + 0j, 0j, 0j)
        assert cfg.t_grid == (0.0, 1.0, 2.0)
        assert cfg.algorithms == ("exact", "mp:1,2")

    def test_readme_config_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        path = tmp_path / "cfg.json"
        path.write_text(block)
        cfg = load_config(path)
        assert cfg.initial_state == (0.6 + 0j, 0.8 + 0j, 0j, 0j)
        assert cfg.algorithms == ("exact", "mp:modified:2,4", "mp_oaa:modified:2,4:2")
        assert cfg.specs[2].rounds == 2

    def test_readme_code_runs(self, capsys):
        # the two python blocks run in order in one namespace, and each
        # printed value matches its "# ~x" comment to x's last digit
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
        assert len(blocks) == 2
        namespace = {}
        for block in blocks:
            exec(block, namespace)
        printed = [float(x) for x in capsys.readouterr().out.split()]
        promised = re.findall(r"print\(.*\)\s*# ~(\S+)", "".join(blocks))
        assert promised == ["9e-9", "0.9979"]
        assert len(printed) == len(promised)
        for got, text in zip(printed, promised):
            half_unit = 0.5 * 10.0 ** Decimal(text).as_tuple().exponent
            assert abs(got - float(text)) <= half_unit, (got, text)

    def test_readme_commands_run(self, capsys, tmp_path, monkeypatch):
        # each line of the command-line block runs in a directory holding the
        # JSON config block as cfg.json, and exits 0 with nothing on stderr
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (config,) = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        (tmp_path / "cfg.json").write_text(config)
        monkeypatch.chdir(tmp_path)
        commands = re.findall(r"^mptrotter (.*)$", readme, flags=re.M)
        assert len(commands) == 5
        for command in commands:
            argv = command.split()
            assert cli.main(argv) == 0, argv
            assert capsys.readouterr().err == "", argv

    @pytest.mark.parametrize("raw, key", [
        ({"omega": HUGE}, "'omega'"),
        ({"t_grid": [0, HUGE]}, "t_grid"),
        ({"initial_state": [HUGE, 0, 0, 0]}, "initial_state"),
        ({"initial_state": [[0, HUGE], 0, 0, 0]}, "initial_state"),
    ], ids=["omega", "t_grid", "amplitude", "pair"])
    def test_load_config_rejects_numbers_too_large_for_a_float(self, tmp_path, raw, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=f"{key}.* must fit in a float, got a "
                                             "400-digit integer"):
            load_config(path)

    @pytest.mark.parametrize("key, inner", [
        ("initial_state", "1"), ("t_grid", "1"), ("algorithms", '"exact"'), ("omega", "1")])
    def test_load_config_rejects_nesting_near_the_recursion_limit(self, tmp_path, key, inner):
        # whether the JSON parser or an error message's repr meets the limit
        # first, the file fails with a ValueError, never a RecursionError
        path = tmp_path / "cfg.json"
        limit = sys.getrecursionlimit()
        for depth in range(limit - 60, limit + 10):
            path.write_text(f'{{"{key}": {"[" * depth}{inner}{"]" * depth}}}')
            with pytest.raises(ValueError):
                load_config(path)

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

    @pytest.mark.parametrize("amplitude", [True, [True, 0]], ids=["bare", "pair"])
    def test_load_config_rejects_boolean_amplitude(self, tmp_path, amplitude):
        # JSON true is no number, as for every other numeric key
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"initial_state": [amplitude, 0, 0, 0]}))
        with pytest.raises(ValueError, match="re, im"):
            load_config(path)


class TestRunSweep:
    def test_row_layout_and_zero_time(self):
        cfg = SweepConfig(t_grid=(0.0, 7.0))
        table = run_sweep(cfg)
        assert len(table) == 2 * len(DEFAULT_ALGORITHMS)
        assert table.algo[:4] == DEFAULT_ALGORITHMS
        zero = table.t == 0.0
        assert zero.tolist() == [True] * 4 + [False] * 4
        # populations of the initial state, whatever the algorithm
        assert np.abs(table.populations[zero, 0] - 0.3).max() <= 1e-12
        assert np.abs(table.populations[zero, 1] - 0.7).max() <= 1e-12
        assert table.state_error[zero].max() < 1e-12
        assert np.abs(table.fidelity[zero] - 1.0).max() <= 1e-12
        prob = dict(zip(table.algo[:4], table.success_prob[zero].tolist()))
        assert prob["exact"] == 1.0
        assert prob["trotter:96"] == 1.0
        # post-selection keeps its honest odds even at t = 0
        assert prob["mp:modified:2,4"] == pytest.approx(0.263294363342274, abs=1e-12)
        assert prob["mp_oaa:modified:2,4:1"] == pytest.approx(0.997916713193, abs=1e-9)

    def test_populations_normalized(self):
        cfg = SweepConfig(t_grid=(3.0, 11.0, 27.0))
        table = run_sweep(cfg)
        assert not table.degenerate.any()
        assert np.abs(table.populations.sum(axis=1) - 1.0).max() <= 1e-9
        assert (0.0 <= table.success_prob).all()
        assert (table.success_prob <= 1.0 + 1e-12).all()
        assert (table.fidelity <= 1.0).all()

    def test_mp_success_against_direct_sum(self, psi0):
        # oracle: ||sum c_i S^{L_i}(t/L_i) psi||^2 / (sum|c|)^2
        t = 7.0
        cfg = SweepConfig(t_grid=(t,), algorithms=("mp:modified:2,4",))
        (prob,) = run_sweep(cfg).success_prob
        decomp = build_spin_hamiltonian()
        sched = parse_schedule_spec("modified:2,4")
        acc = np.zeros(4, dtype=complex)
        for c, l in zip(sched.coefficients, sched.iterations):
            acc = acc + c * (trotterize(decomp, t, l) @ psi0)
        expected = float(np.linalg.norm(acc) ** 2) / sched.abs_coefficient_sum() ** 2
        assert prob == pytest.approx(expected, abs=1e-12)

    def test_repeated_model_is_built_and_diagonalized_once(self, monkeypatch):
        # a second sweep on one model diagonalizes only the total H, for its
        # exact states: the model and its term eigenpairs come from the memo;
        # from the third on, `hermitian_propagator` keeps the spectrum of H too
        experiments._spin_model.cache_clear()
        builds, eighs = [], []
        build, eigh = experiments.build_spin_hamiltonian, np.linalg.eigh
        monkeypatch.setattr(experiments, "build_spin_hamiltonian",
                            lambda params: builds.append(params) or build(params))
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a) or eigh(a))
        config = SweepConfig(t_grid=(0.5, 2.0))
        first = run_sweep(config)
        assert builds == [config.model]
        assert len(eighs) == 2  # the real term H1 and the total H
        del eighs[:]
        assert_same_cells(run_sweep(config), first)
        assert builds == [config.model]
        (h,) = eighs
        assert np.array_equal(h, total(build(config.model)).real)
        del eighs[:]
        assert_same_cells(run_sweep(config), first)
        assert eighs == []

    def test_trotter_state_is_renormalized(self):
        cfg = SweepConfig(t_grid=(9.0,), algorithms=("trotter:12",))
        table = run_sweep(cfg)
        assert table.populations.sum() == pytest.approx(1.0, abs=1e-12)
        assert table.success_prob.tolist() == [1.0]

    def test_bare_mp_oaa_is_one_round(self, tmp_path):
        # the same CSV bytes once the spec names are made equal
        written = []
        for spec in ("mp_oaa:modified:2,4", "mp_oaa:modified:2,4:1"):
            path = tmp_path / "rows.csv"
            emit(run_sweep(SweepConfig(t_grid=(0.0, 2.5, 10.0), algorithms=(spec,))),
                 "csv", path)
            written.append(path.read_bytes().replace(b'2,4:1"', b'2,4"'))
        assert written[0] == written[1]
        assert written[0].count(b'"mp_oaa:modified:2,4"') == 3


def assert_same_cells(table, other, keep=slice(None)):
    """The cells `keep` of two sweep tables are equal, NaN equal to NaN."""
    assert np.asarray(table.algo)[keep].tolist() == np.asarray(other.algo)[keep].tolist()
    for name in ("t", "populations", "success_prob", "state_error", "fidelity",
                 "degenerate"):
        assert np.array_equal(getattr(table, name)[keep], getattr(other, name)[keep],
                              equal_nan=True), name


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
            algo = parse_algorithm(spec)
            prob = 1.0
            if algo.kind == "exact":
                state = exact
            elif algo.kind == "trotter":
                out = trotterize(decomp, t, algo.l) @ psi0
                state = out / np.linalg.norm(out)
            else:
                circuit = build_lcu(algo.schedule.coefficients,
                                    [trotterize(decomp, t, l) for l in algo.iterations])
                outcome = (apply_lcu(circuit, psi0) if algo.rounds == 0
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


# With `vanishing_at_time_one` in place of `product_stacks`, the one
# multi-product cell at t = 1.0 is degenerate.
DEGENERATE_CONFIG = SweepConfig(t_grid=(0.5, 1.0, 1.5),
                                algorithms=("exact", "mp_oaa:modified:2,4:1"))


def vanishing_at_time_one(decomp, ts, counts):
    """product_stacks with every product zeroed at t = 1.0."""
    stacks = {l: out.copy() for l, out in product_stacks(decomp, ts, counts).items()}
    for out in stacks.values():
        out[np.asarray(ts) == 1.0] = 0.0
    return stacks


class TestSweepOracle:
    @pytest.mark.parametrize("config", [
        SweepConfig(),
        SweepConfig(initial_state=MIXED_STATE, algorithms=MIXED_ALGORITHMS,
                    t_grid=(-2.5, 0.0, 0.7, 3.0, 12.0)),
        SweepConfig(initial_state=MIXED_STATE, algorithms=MIXED_ALGORITHMS,
                    t_grid=(1.3,)),
    ], ids=["default", "mixed-grid", "single-time"])
    def test_matches_scalar_reference(self, config):
        table = run_sweep(config)
        want = reference_rows(config)
        assert list(zip(table.t.tolist(), table.algo)) == [w[:2] for w in want]
        assert not table.degenerate.any()
        got = np.column_stack([table.populations, table.success_prob, table.state_error,
                               table.fidelity])
        gap = np.max(np.abs(got - np.array([w[2:] for w in want])), axis=1)
        assert (gap <= 1e-12).all(), gap

    def test_vanishing_block_gives_one_degenerate_row(self, monkeypatch):
        config = DEGENERATE_CONFIG
        ordinary = run_sweep(config)
        monkeypatch.setattr(experiments, "product_stacks", vanishing_at_time_one)
        table = run_sweep(config)
        (i,) = np.flatnonzero(table.degenerate)
        assert (table.t[i], table.algo[i]) == (1.0, "mp_oaa:modified:2,4:1")
        assert np.isnan(table.populations[i]).all() and np.isnan(table.fidelity[i])
        assert np.isnan(table.state_error[i])
        assert table.success_prob[i] == 0.0
        assert_same_cells(table, ordinary, np.arange(len(table)) != i)

    def test_evolve_prints_degenerate_cell(self, monkeypatch, capsys):
        monkeypatch.setattr(experiments, "product_stacks", vanishing_at_time_one)
        assert cli.main(["evolve", "--algo", "mp_oaa:modified:2,4:1", "--t", "1"]) == 0
        # no population, error or fidelity line
        assert capsys.readouterr().out.splitlines() == [
            "t = 1  algo = mp_oaa:modified:2,4:1",
            "success_prob = 0",
            "degenerate post-selection: populations undefined",
        ]


def scored_one_algorithm_at_a_time(config):
    """(populations, success_prob, state_error, fidelity, degenerate) of each
    algorithm, from its `sweep_states` output alone: the per-algorithm
    reference for `run_sweep`'s stacked scoring. Degenerate cells are NaN."""
    exact, outputs = sweep_states(config)
    p_exact = np.abs(exact) ** 2
    p_exact = p_exact / p_exact.sum(axis=-1, keepdims=True)
    for algo, kept in zip(config.specs, outputs):
        errors, degenerate = state_errors(exact, kept)
        if algo.kind == "exact":
            errors = np.zeros_like(errors)
        norms = np.linalg.norm(kept, axis=-1)
        prob = norms * norms if algo.schedule else np.ones_like(norms)
        ok = ~degenerate
        pops = np.full(kept.shape, np.nan)
        fid = np.full(len(kept), np.nan)
        kept_pops = np.abs(kept[ok]) ** 2
        pops[ok] = kept_pops / kept_pops.sum(axis=-1, keepdims=True)
        fid[ok] = classical_fidelity(p_exact[ok], pops[ok])
        yield pops, prob, errors, fid, degenerate


def assert_scored_as_reference(config):
    table = run_sweep(config)
    times, algos = len(config.t_grid), len(config.specs)
    assert len(table) == times * algos
    assert table.algo == tuple(config.algorithms) * times
    assert np.array_equal(table.t, np.repeat(config.t_grid, algos))
    got = (table.populations.reshape(times, algos, len(config.initial_state)),
           *(col.reshape(times, algos) for col in (table.success_prob, table.state_error,
                                                   table.fidelity, table.degenerate)))
    for a, want in enumerate(scored_one_algorithm_at_a_time(config)):
        for column, expected in zip(got, want):
            assert np.array_equal(column[:, a], expected, equal_nan=True)


grids = st.lists(st.just(0.0) | st.floats(-60.0, 60.0, allow_nan=False), max_size=20)


class TestStackedScoring:
    def test_default_sweep(self):
        assert_scored_as_reference(SweepConfig())

    def test_degenerate_cell(self, monkeypatch):
        monkeypatch.setattr(experiments, "product_stacks", vanishing_at_time_one)
        assert_scored_as_reference(DEGENERATE_CONFIG)
        flags = run_sweep(DEGENERATE_CONFIG).degenerate.tolist()
        assert flags == [False, False, False, True, False, False]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(ts=grids, chosen=st.sets(st.sampled_from(DEFAULT_ALGORITHMS)))
    def test_drawn_grid_and_algorithms(self, ts, chosen):
        # an empty grid is the default one
        assert_scored_as_reference(SweepConfig(
            t_grid=tuple(ts), algorithms=tuple(a for a in DEFAULT_ALGORITHMS if a in chosen)))


def table_of(cells):
    """A SweepTable of hand-made (t, algo, p00, p01, p10, p11, success_prob,
    state_error, fidelity) cells; a cell with a NaN state error is degenerate."""
    t, algo, *numbers = zip(*cells)
    p00, p01, p10, p11, prob, error, fid = np.array(numbers, dtype=float)
    return SweepTable(np.array(t, dtype=float), algo, np.column_stack([p00, p01, p10, p11]),
                      prob, error, fid, np.isnan(error))


def reference_text(table, fmt):
    """What emit writes, built cell by cell with csv.writer or json.dumps; a
    NaN cell is None."""
    cells = [[None if c != c else c for c in row] for row in zip(*table.columns())]
    if fmt == "json":
        records = [dict(zip(experiments.COLUMNS, row)) for row in cells]
        return json.dumps(records, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(experiments.COLUMNS)
    writer.writerows([experiments.cell_text(c) for c in row] for row in cells)
    return buf.getvalue()


class TestEmit:
    def make_table(self):
        cfg = SweepConfig(t_grid=(0.0, 5.0))
        return run_sweep(cfg)

    def test_csv_shape_and_round_trip(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "out.csv"
        emit(table, "csv", path)
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        parsed = list(csv.DictReader(text.splitlines()))
        assert len(parsed) == len(table)
        for rec, t, algo, prob, p00 in zip(parsed, table.t, table.algo, table.success_prob,
                                           table.populations[:, 0]):
            assert rec["algo"] == algo
            assert float(rec["t"]) == t
            assert float(rec["success_prob"]) == pytest.approx(prob, rel=1e-11)
            assert float(rec["p00"]) == pytest.approx(p00, rel=1e-11)

    def test_csv_quotes_algo_commas(self, tmp_path):
        path = tmp_path / "out.csv"
        emit(self.make_table(), "csv", path)
        assert '"mp:modified:2,4"' in path.read_text()

    def test_empty_rows_header_only(self, tmp_path):
        table = run_sweep(SweepConfig(algorithms=()))
        assert len(table) == 0
        emit(table, "csv", tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_text() == CSV_HEADER + "\n"
        emit(table, "json", tmp_path / "empty.json")
        assert (tmp_path / "empty.json").read_text() == "[]\n"

    def test_json_valid_and_complete(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "out.json"
        emit(table, "json", path)
        payload = json.loads(path.read_text())
        assert len(payload) == len(table)
        assert all(list(rec) == CSV_HEADER.split(",") for rec in payload)
        assert payload[0]["algo"] == table.algo[0]
        assert payload[0]["success_prob"] == table.success_prob[0]

    def test_degenerate_row_fields(self, tmp_path):
        nan = float("nan")
        table = table_of([(1.0, "mp:1,2", nan, nan, nan, nan, 0.0, nan, nan)])
        cpath = tmp_path / "d.csv"
        emit(table, "csv", cpath)
        assert cpath.read_text().splitlines()[1] == '1,"mp:1,2",,,,,0,,'
        jpath = tmp_path / "d.json"
        emit(table, "json", jpath)
        rec = json.loads(jpath.read_text())[0]
        assert (rec["p00"], rec["p01"], rec["p10"], rec["p11"]) == (None,) * 4
        assert rec["state_error"] is None
        assert rec["fidelity"] is None

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        emit(self.make_table(), "csv", a)
        emit(self.make_table(), "csv", b)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="csv or json"):
            emit(self.make_table(), "yaml", tmp_path / "x")

    def edge_table(self):
        nan = float("nan")
        return table_of(list(zip(*self.make_table().columns())) + [
            (2.0, "mp:1,2", nan, nan, nan, nan, 0.0, nan, nan),
            (-0.0, "mp:1,2", 0.25, 0.25, 0.25, 0.25, 1e-300, 5e-324, 1e16),
            (1e16, "mp_oaa:1,2,3,96:2", 1.0, 0.0, -0.0, 0.0, 0.5, float("inf"), 1.0 / 3.0),
            (3, 'say "hi"', 1, 0, 0, 0, 1, 0, 1),
        ])

    def test_csv_matches_csv_writer_cell_by_cell(self, tmp_path):
        # complete rows take the one-step format, the degenerate row the
        # cell-by-cell path; both must give csv.writer's bytes
        table = self.edge_table()
        path = tmp_path / "fast.csv"
        emit(table, "csv", path)
        assert path.read_text() == reference_text(table, "csv")
        assert '\n-0,"mp:1,2",0.25,0.25,0.25,0.25,1e-300,4.94065645841e-324,1e+16\n' \
            in path.read_text()

    def test_json_matches_json_dumps_cell_by_cell(self, tmp_path):
        # the same rows as JSON: an infinite cell is json's Infinity, a quote
        # in a name is escaped
        table = self.edge_table()
        path = tmp_path / "fast.json"
        emit(table, "json", path)
        assert path.read_text() == reference_text(table, "json")
        assert '"state_error": Infinity,' in path.read_text()
        assert '"algo": "say \\"hi\\"",' in path.read_text()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("config", [
        SweepConfig(),
        SweepConfig(t_grid=(0.0, 1.0, 2.0, 5.0),
                    algorithms=("exact", "mp:1,2", "mp_oaa:1,2,3,96:2", "trotter:3",
                                "mp_oaa:original:1.0,3")),
        SweepConfig(algorithms=()),
    ], ids=["default", "mixed", "no-algorithms"])
    def test_writes_reference_bytes(self, tmp_path, config, fmt):
        table = run_sweep(config)
        emit(table, fmt, tmp_path / "out")
        assert (tmp_path / "out").read_text() == reference_text(table, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_degenerate_sweep_bytes(self, tmp_path, monkeypatch, fmt):
        monkeypatch.setattr(experiments, "product_stacks", vanishing_at_time_one)
        table = run_sweep(DEGENERATE_CONFIG)
        emit(table, fmt, tmp_path / "out")
        written = (tmp_path / "out").read_text()
        assert written == reference_text(table, fmt)
        if fmt == "csv":
            assert written.splitlines()[4] == '1,"mp_oaa:modified:2,4:1",,,,,0,,'
