import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mptrotter
from mptrotter import SweepConfig, drop_floor, fit_order, make_schedule, run_sweep
from mptrotter.cli import main
from mptrotter.experiments import _MAX_ROUNDS
from tests.conftest import HUGE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grab(pattern, text):
    m = re.search(pattern, text)
    assert m, f"{pattern!r} not found in:\n{text}"
    return float(m.group(1))


NUM = r"([-+0-9.eE]+)"


class TestCoeffs:
    def test_seven_term_geometric(self, capsys):
        code, out, err = run_cli(capsys, "coeffs", "--schedule", "modified:1,7")
        assert code == 0
        assert err == ""
        assert "L = 2, 4, 8, 16, 32, 64, 128" in out
        assert grab(rf"sum c_q = {NUM}", out) == pytest.approx(1.0, abs=1e-9)
        assert grab(rf"sum \|c_q\| = {NUM}", out) == pytest.approx(
            1.9689398621146545, abs=1e-10)
        assert grab(rf"success probability 1/\(sum\|c_q\|\)\^2 = {NUM}", out) \
            == pytest.approx(0.25794974143324795, abs=1e-10)
        assert grab(rf"one-round amplified probability = {NUM}", out) \
            == pytest.approx(0.999249657907, abs=1e-9)

    def test_two_term_explicit(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--schedule", "1,2")
        assert code == 0
        rows = re.findall(rf"^\s*\d+\s+\d+\s+{NUM}$", out, flags=re.M)
        assert len(rows) == 2
        assert float(rows[0]) == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert float(rows[1]) == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_first_line_is_the_spec_given(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--schedule", " modified:2,4 ")
        assert code == 0
        assert out.splitlines()[0] == "schedule: modified:2,4  L = 4, 8, 16, 32"

    def test_underflowed_coefficients_are_flagged(self, capsys):
        # the true coefficients are products of nonzero factors: none is 0,
        # but 29 of these lie below the smallest normal float
        code, out, err = run_cli(capsys, "coeffs", "--schedule", "modified:1,61")
        assert (code, err) == (0, "")
        assert "0.000000000000e+00" not in out
        flagged = re.findall(r"^\s*\d+\s+\d+\s+underflowed, below 2.2e-308$", out, flags=re.M)
        assert len(flagged) == 29
        assert len(re.findall(rf"^\s*\d+\s+\d+\s+{NUM}$", out, flags=re.M)) == 61 - 29
        # rows of coefficients that fit are values, as before
        code, out, _ = run_cli(capsys, "coeffs", "--schedule", "modified:2,4")
        assert code == 0
        sched = make_schedule("modified", a=2, k=4)
        rows = [f"{q:2d}  {l:4d}  {c: .12e}" for q, (l, c)
                in enumerate(zip(sched.iterations, sched.coefficients), start=1)]
        assert out.splitlines()[2:6] == rows

    def test_bad_schedule(self, capsys):
        code, out, err = run_cli(capsys, "coeffs", "--schedule", "3,2,1")
        assert code == 1
        assert err.startswith("error:")
        assert "increasing" in err

    @pytest.mark.parametrize("spec, value", [
        ("original:inf,3", "inf"),
        ("original:1000,3", "e^3000"),
        ("modified:1,2000", "2^2000"),
    ])
    def test_overflowing_schedule(self, capsys, spec, value):
        code, out, err = run_cli(capsys, "coeffs", "--schedule", spec)
        assert code == 1
        assert out == ""
        assert one_error_line(err)
        assert value in err

    def test_long_original_ramp_fails_before_it_is_built(self, capsys):
        # the tail e^20 clears the ramp 1..999999, whose coefficients overflow;
        # the schedule must be rejected without building or combining it
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "coeffs", "--schedule", "original:0.00002,1000000")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert one_error_line(err)
        assert "overflow" in err


class TestEvolve:
    def test_exact_at_zero(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "--algo", "exact", "--t", "0")
        assert code == 0
        assert grab(rf"p00 = {NUM}", out) == pytest.approx(0.3, abs=1e-12)
        assert grab(rf"p01 = {NUM}", out) == pytest.approx(0.7, abs=1e-12)
        assert grab(rf"success_prob = {NUM}", out) == 1.0
        assert grab(rf"fidelity = {NUM}", out) == pytest.approx(1.0, abs=1e-12)

    def test_mp_keeps_honest_probability(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "--algo", "mp:modified:2,4",
                               "--t", "0")
        assert code == 0
        assert grab(rf"success_prob = {NUM}", out) == pytest.approx(
            0.263294363342274, abs=1e-12)

    def test_amplified_probability(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "--algo", "mp_oaa:modified:2,4:1",
                               "--t", "10")
        assert code == 0
        assert grab(rf"success_prob = {NUM}", out) > 0.99

    @pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-1.0e-3"])
    def test_negative_time_in_exponent_notation(self, capsys, value):
        # argparse before Python 3.13 takes -1e-3 for an option, not a value
        want = run_cli(capsys, "evolve", "--t", "-0.001", "--algo", "exact")
        assert want[0] == 0 and want[2] == ""
        assert run_cli(capsys, "evolve", "--t", value, "--algo", "exact") == want
        assert run_cli(capsys, "evolve", "--algo", "exact", "--t", value) == want

    def test_bad_algo(self, capsys):
        code, _, err = run_cli(capsys, "evolve", "--algo", "warp", "--t", "1")
        assert code == 1
        assert err.startswith("error:")
        assert "unknown algorithm" in err

    @pytest.mark.parametrize("algo", ["mp:1,2:3", "mp:modified:2,4:3"])
    def test_mp_with_a_round_count_names_it(self, capsys, algo):
        code, out, err = run_cli(capsys, "evolve", "--algo", algo, "--t", "1")
        assert (code, out) == (1, "")
        assert err == "error: mp takes no round count; use mp_oaa:<schedule>:<n>\n"

    @pytest.mark.parametrize("algo, form", [("mp_oaa:modified:2", "modified:a,k"),
                                            ("mp_oaa:original:0.5", "original:gamma,k"),
                                            ("mp:modified:2", "modified:a,k")])
    def test_malformed_generated_schedule_is_named(self, capsys, algo, form):
        # a last field after a bare schedule kind is no round count
        code, out, err = run_cli(capsys, "evolve", "--algo", algo, "--t", "1")
        assert (code, out) == (1, "")
        schedule = algo.partition(":")[2]
        kind = schedule.partition(":")[0]
        assert err == f"error: {kind} schedule spec needs '{form}', got '{schedule}'\n"


class TestSweep:
    def write_config(self, tmp_path, **extra):
        cfg = {"t_grid": [0.0, 1.0, 2.0], "algorithms": ["exact", "mp:1,2"]}
        cfg.update(extra)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_writes_csv(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        out_path = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                               "--out", str(out_path))
        assert code == 0
        assert "wrote 6 rows" in out
        lines = out_path.read_text().splitlines()
        assert lines[0] == "t,algo,p00,p01,p10,p11,success_prob,state_error,fidelity"
        assert len(lines) == 7

    def test_byte_determinism(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(a))[0] == 0
        assert run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format_flag(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        out_path = tmp_path / "rows.json"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                             "--out", str(out_path), "--format", "json")
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload) == 6
        assert payload[0]["algo"] == "exact"

    def test_missing_output_path(self, capsys, tmp_path):
        # the path comes from --out only
        cfg = self.write_config(tmp_path)
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert one_error_line(err)
        assert "no output path" in err

    def test_unknown_format(self, capsys, tmp_path, monkeypatch):
        # the format is checked before the sweep runs, so nothing is computed or written
        calls = []
        monkeypatch.setattr(mptrotter.cli, "run_sweep", lambda *args: calls.append(args))
        out_path = tmp_path / "rows.xml"
        code, out, err = run_cli(capsys, "sweep", "--config", str(self.write_config(tmp_path)),
                                 "--out", str(out_path), "--format", "xml")
        assert (code, out) == (1, "")
        assert err == "error: format must be csv or json, got 'xml'\n"
        assert calls == []
        assert not out_path.exists()

    def test_output_in_missing_directory(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg),
                               "--out", str(tmp_path / "absent" / "rows.csv"))
        assert code == 1
        assert one_error_line(err)
        assert "No such file or directory" in err


def one_error_line(err: str) -> bool:
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error:")


class TestConfigErrors:
    """Malformed configs exit 1 with a single error: line, never a traceback."""

    def run_with(self, capsys, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        return run_cli(capsys, "evolve", "--config", str(path), "--algo", "exact",
                       "--t", "1")

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "evolve", "--config", str(tmp_path / "nope.json"),
                               "--algo", "exact", "--t", "1")
        assert code == 1
        assert one_error_line(err)
        assert "nope.json" in err

    def test_null_model_parameter(self, capsys, tmp_path):
        code, _, err = self.run_with(capsys, tmp_path, '{"omega": null}')
        assert code == 1
        assert one_error_line(err)
        assert "'omega' must be a number" in err

    def test_algorithms_must_be_a_list(self, capsys, tmp_path):
        code, _, err = self.run_with(capsys, tmp_path, '{"algorithms": "exact"}')
        assert code == 1
        assert one_error_line(err)
        assert "'algorithms' must be a list" in err
        assert "unknown algorithm" not in err

    def test_nan_initial_state(self, capsys, tmp_path):
        # Python's json reads NaN; the sweep must refuse it, not write blank rows
        path = tmp_path / "cfg.json"
        path.write_text('{"initial_state": [NaN, 1, 0, 0]}')
        code, _, err = run_cli(capsys, "sweep", "--config", str(path),
                               "--out", str(tmp_path / "out.csv"))
        assert code == 1
        assert one_error_line(err)
        assert "not normalized" in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("text, key", [
        ('{"t_grid": [0, null]}', "t_grid"),
        ('{"t_grid": 3}', "t_grid"),
        ('{"initial_state": 1}', "initial_state"),
        ('{"algorithms": ["exact", 4]}', "algorithms"),
        # no longer config keys, so rejected as unknown, by name
        ('{"oaa_rounds": "2"}', "oaa_rounds"),
        ('{"output": 5}', "output"),
        ('{"delta": true}', "delta"),
    ])
    def test_mistyped_values(self, capsys, tmp_path, text, key):
        code, _, err = self.run_with(capsys, tmp_path, text)
        assert code == 1
        assert one_error_line(err)
        assert key in err

    @pytest.mark.parametrize("key, value", [
        ("oaa_rounds", 1), ("output", "rows.csv"), ("format", "csv")])
    def test_removed_keys_are_unknown(self, capsys, tmp_path, key, value):
        # rounds belong to the mp_oaa spec, the path and format to --out and --format
        code, out, err = self.run_with(capsys, tmp_path, json.dumps({key: value}))
        assert (code, out) == (1, "")
        assert one_error_line(err)
        assert err.startswith(f"error: unknown config keys [{key!r}]; allowed: ")

    def test_huge_amplitudes_are_one_error_line(self, capsys, tmp_path):
        # the norm is formed without squaring, so it neither overflows nor warns
        code, out, err = self.run_with(capsys, tmp_path,
                                       '{"initial_state": [1e308, 1e308, 0, 0]}')
        assert (code, out) == (1, "")
        assert err == ("error: initial state is not normalized: "
                       "||psi|| = 1.4142135623730951e+308\n")

    @pytest.mark.parametrize("raw, named", [
        ({"omega": HUGE}, "config key 'omega'"),
        ({"t_grid": [0, HUGE]}, "every t_grid entry"),
        ({"initial_state": [HUGE, 0, 0, 0]}, "every initial_state amplitude"),
        ({"initial_state": [[HUGE, 0], 0, 0, 0]}, "every initial_state amplitude"),
    ], ids=["omega", "t_grid", "amplitude", "pair"])
    def test_numbers_too_large_for_a_float(self, capsys, tmp_path, raw, named):
        code, out, err = self.run_with(capsys, tmp_path, json.dumps(raw))
        assert (code, out) == (1, "")
        assert err == f"error: {named} must fit in a float, got a 400-digit integer\n"

    @pytest.mark.parametrize("text", [
        "[" * 100_000,
        '{"initial_state": ' + "[" * 5000 + "1" + "]" * 5000 + "}",
    ], ids=["brackets", "initial_state"])
    @pytest.mark.parametrize("command", [
        ["sweep", "--out", "rows.csv"],
        ["evolve", "--algo", "exact", "--t", "1"],
        ["scaling", "--k", "2"],
    ], ids=["sweep", "evolve", "scaling"])
    def test_deep_nesting_is_one_error_line(self, capsys, tmp_path, text, command):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, *command, "--config", str(path))
        assert (code, out) == (1, "")
        assert err == "error: config nests too deeply to parse\n"

    @pytest.mark.parametrize("text, start", [
        (json.dumps({"t_grid": [0, "x" * 100_000]}),
         "error: every t_grid entry must be a number, got 'xxx"),
        ('{"initial_state": ' + "[" * 900 + "1" + "]" * 900 + "}",
         "error: amplitudes must be numbers or [re, im] pairs, got [[[...]]]\n"),
        (json.dumps({"algorithms": ["exact"] * 20_001 + [5]}),
         "error: config key 'algorithms' must list strings, got ['exact', 'exact', "),
        (json.dumps({f"key{i}" * 50: 1 for i in range(2_000)}),
         "error: unknown config keys ['key0key0"),
    ], ids=["long-string", "deep-list", "long-list", "many-keys"])
    @pytest.mark.parametrize("command", [
        ["sweep", "--out", "rows.csv"],
        ["evolve", "--algo", "exact", "--t", "1"],
        ["scaling", "--k", "2"],
    ], ids=["sweep", "evolve", "scaling"])
    def test_quoted_input_is_cut_short(self, capsys, tmp_path, text, start, command):
        # the message names the offending value by a shortened repr, not in full
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, *command, "--config", str(path))
        assert (code, out) == (1, "")
        assert one_error_line(err) and err.startswith(start) and len(err) < 600

    @pytest.mark.parametrize("algo, start", [
        ("trotter:" + "9" * 5_000, "error: iteration count must be an integer, got '999"),
        ("mp:2,1," + ",".join(map(str, range(3, 20_000))),
         "error: iteration counts must be strictly increasing, got [2.0, 1.0, 3.0, "),
    ], ids=["long-count", "long-schedule"])
    def test_a_long_spec_is_cut_short(self, capsys, algo, start):
        code, out, err = run_cli(capsys, "evolve", "--algo", algo, "--t", "1")
        assert (code, out) == (1, "")
        assert one_error_line(err) and err.startswith(start) and len(err) < 200


class TestConfigReader:
    """sweep, evolve and scaling read a config file through one reader."""

    def write(self, tmp_path, name, **cfg):
        path = tmp_path / name
        path.write_text(json.dumps({"omega": 0.3, "initial_state": [[0.6, 0.0], 0, 0.8, 0],
                                    **cfg}))
        return str(path)

    def test_no_algorithms_is_a_sweep_of_no_rows(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "sweep", "--config",
                               self.write(tmp_path, "cfg.json", algorithms=[]),
                               "--out", str(out_path))
        assert (code, out) == (0, f"wrote 0 rows to {out_path} (csv)\n")
        assert out_path.read_text() == "t,algo,p00,p01,p10,p11,success_prob,state_error,fidelity\n"

    @pytest.mark.parametrize("argv", [
        ["evolve", "--algo", "mp_oaa:modified:2,4:1", "--t", "10"],
        ["scaling", "--k", "2"],
    ], ids=["evolve", "scaling"])
    def test_listed_algorithms_change_no_output(self, capsys, tmp_path, argv):
        bare = self.write(tmp_path, "bare.json")
        listed = self.write(tmp_path, "listed.json", t_grid=[1.0, 2.0],
                            algorithms=["exact", "trotter:3", "mp:modified:1,5"])
        code, want, err = run_cli(capsys, *argv, "--config", bare)
        assert (code, err) == (0, "")
        assert run_cli(capsys, *argv, "--config", listed) == (0, want, "")

    def test_a_bad_listed_algorithm_fails_evolve_as_it_fails_sweep(self, capsys, tmp_path):
        cfg = self.write(tmp_path, "cfg.json", algorithms=["exact", "warp"])
        code, out, err = run_cli(capsys, "sweep", "--config", cfg, "--out",
                                 str(tmp_path / "rows.csv"))
        assert (code, out) == (1, "") and err.startswith("error: unknown algorithm 'warp'")
        # the file fails before the malformed --t is read
        assert run_cli(capsys, "evolve", "--config", cfg, "--algo", "exact",
                       "--t", "abc") == (1, "", err)


@pytest.mark.parametrize("argv, named", [
    (["evolve", "--algo", f"trotter:{HUGE}", "--t", "1"], f"iteration count {HUGE}"),
    (["scaling", "--k", "2", "--points", str(HUGE)], f"points {HUGE}"),
], ids=["trotter", "points"])
def test_counts_too_large_for_a_float(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {named} overflows a float\n"


def test_huge_round_count_fails_at_once(capsys):
    # one amplification round is one Python loop pass, so an unbounded count
    # would run for hours; it is rejected before anything is built
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "evolve", "--algo", f"mp_oaa:1,2:{HUGE}", "--t", "1")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert one_error_line(err)
    assert err.startswith(f"error: round count must be at most {_MAX_ROUNDS}, got ")


def test_unallocatable_grid_is_one_error_line(capsys):
    # 10^16 float64 times need 80 PB, more than a 47-bit address space holds,
    # so the allocation fails at once whatever the overcommit setting
    code, out, err = run_cli(capsys, "scaling", "--k", "2", "--points", str(10 ** 16))
    assert (code, out) == (1, "")
    assert one_error_line(err)
    assert "allocate" in err


class TestScaling:
    def test_two_term_order(self, capsys):
        code, out, _ = run_cli(capsys, "scaling", "--k", "2")
        assert code == 0
        assert grab(rf"fitted order = {NUM}", out) == pytest.approx(5.0, abs=0.5)

    def test_single_term_order(self, capsys):
        code, out, _ = run_cli(capsys, "scaling", "--k", "1")
        assert code == 0
        assert grab(rf"fitted order = {NUM}", out) == pytest.approx(3.0, abs=0.3)

    def test_four_terms_sit_below_floor(self, capsys):
        # on the default window the k = 4 error never clears roundoff, and the
        # command says so instead of fitting noise
        code, out, err = run_cli(capsys, "scaling", "--k", "4")
        assert code == 1
        assert "0/13 points above floor" in out
        assert "fewer than 4 points above the numerical floor" in err

    @pytest.mark.parametrize("k", ["14", "41"])
    def test_roundoff_fit_is_one_error_line(self, capsys, k):
        # a truncation error grows with t, so a fit that falls is roundoff;
        # under the fixed floor 1e-13 these roundoff errors clear the floor
        code, out, err = run_cli(capsys, "scaling", "--k", k, "--floor", "1e-13")
        assert code == 1
        assert out.startswith("schedule L = ") and "fitted order" not in out
        assert one_error_line(err)
        assert grab(rf"fitted order {NUM} is not positive", err) <= 0

    def test_four_terms_on_wider_window(self, capsys):
        # the same schedule shows its genuine order once t is large enough
        # for the leading error term to clear the floor
        code, out, _ = run_cli(capsys, "scaling", "--k", "4",
                               "--tmin", "1.0", "--tmax", "3.0")
        assert code == 0
        assert grab(rf"fitted order = {NUM}", out) >= 8.0
        # the order and kept count are those of the sweep's state_error
        # column for the same schedule on the same grid
        ts = tuple(np.geomspace(1.0, 3.0, 13))
        table = run_sweep(SweepConfig(t_grid=ts, algorithms=("mp:modified:1,4",)))
        floor = make_schedule("modified", a=1, k=4).roundoff_floor()
        kept_t, kept_e = drop_floor(ts, table.state_error, floor)
        assert f"{len(kept_t)}/13 points above floor {floor:g}" in out
        assert f"fitted order = {fit_order(kept_t, kept_e):.6g}" in out

    @pytest.mark.parametrize("window, kept, order", [
        (("--tmin", "1", "--tmax", "1000", "--points", "40"), "19/40", 4.680),
        (("--tmax", "1e308", "--points", "1000"), "9/1000", 4.908),
        (("--tmin", "2", "--tmax", "32"), "12/13", 4.566),
    ], ids=["1-1e3", "0.05-1e308", "2-32"])
    def test_saturated_errors_are_not_fitted(self, capsys, window, kept, order):
        # past the first error >= 1 the error oscillates between 0 and 2, and a
        # fit that took it in read 2.10, 0.00117 and 4.41 on these windows
        code, out, _ = run_cli(capsys, "scaling", "--k", "2", *window)
        assert code == 0
        assert f", {kept} points above floor " in out
        assert " before the first error >= 1\n" in out
        assert grab(rf"fitted order = {NUM}", out) == pytest.approx(order, abs=1e-3)

    def test_saturated_window_is_one_error_line(self, capsys):
        code, out, err = run_cli(capsys, "scaling", "--k", "2", "--tmin", "100",
                                 "--tmax", "1e308", "--points", "50")
        assert code == 1
        assert "0/50 points above floor" in out and "fitted order" not in out
        assert one_error_line(err)
        assert "saturates" in err and "smaller times" in err

    @pytest.mark.parametrize("k", ["13", "17", "21"])
    def test_roundoff_under_the_schedule_floor_is_not_fitted(self, capsys, k):
        # the errors here are L-dependent roundoff; they clear a fixed 1e-13
        # floor but not the schedule's own, so no order is printed
        code, out, err = run_cli(capsys, "scaling", "--k", k)
        assert code == 1
        assert out.startswith("schedule L = ") and "fitted order" not in out
        assert one_error_line(err)

    @pytest.mark.parametrize("argv", [["--k", "60", "--points", "100000"],
                                      ["--k", "2", "--floor", "2"]], ids=["k60", "given"])
    def test_floor_of_two_fails_before_any_product(self, capsys, argv):
        # from k = 53 the schedule floor is at least 2, the largest state
        # error; 10^5 points of 60 products would take a minute and gigabytes
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "scaling", *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert one_error_line(err)
        assert "is at least 2, the largest state error" in err

    def test_bad_bounds(self, capsys):
        code, _, err = run_cli(capsys, "scaling", "--k", "2",
                               "--tmin", "0.4", "--tmax", "0.1")
        assert code == 1
        assert "tmin < tmax" in err

    @pytest.mark.parametrize("flag, value", [("--tmin", "nan"), ("--tmax", "inf"),
                                             ("--tmax", "nan"), ("--tmin", "-inf")])
    def test_non_finite_bound_is_named(self, flag, value):
        # rejected before the grid is built, so numpy warns about nothing
        proc = subprocess.run([sys.executable, "-m", "mptrotter", "scaling", "--k", "2",
                               f"{flag}={value}"], capture_output=True, text=True,
                              env=package_env())
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert one_error_line(proc.stderr)
        assert f"{flag[2:]} must be finite" in proc.stderr

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-13"])
    def test_bad_floor(self, capsys, value):
        code, out, err = run_cli(capsys, "scaling", "--k", "2", f"--floor={value}")
        assert code == 1
        assert out == ""
        assert one_error_line(err)
        assert "floor must be a finite nonnegative number" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--floor", "-1e-13", "floor must be a finite nonnegative number, got -1e-13"),
        ("--tmin", "-1e-3", "need 0 < tmin < tmax, got -0.001, 0.4"),
        ("--tmax", "-1e-3", "need 0 < tmin < tmax, got 0.05, -0.001"),
        ("--tmin", "-inf", "tmin must be finite, got -inf"),
    ])
    def test_negative_value_as_separate_token(self, capsys, flag, value, message):
        # the domain check's one error line, not an argparse usage message
        code, out, err = run_cli(capsys, "scaling", "--k", "2", flag, value)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_too_few_points(self, capsys):
        code, _, err = run_cli(capsys, "scaling", "--k", "2", "--points", "3")
        assert code == 1
        assert "at least 4 points" in err

    @pytest.mark.parametrize("text, message", [
        ('{"omega": null}', "'omega' must be a number"),
        ('{"initial_state": [1, 1, 0, 0]}', "not normalized"),
        ('{"algorithms": ["warp"]}', "unknown algorithm 'warp'"),
    ])
    def test_config_error_comes_before_bad_points(self, capsys, tmp_path, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "scaling", "--config", str(path), "--k", "2",
                                 "--points", "2")
        assert code == 1
        assert out == ""
        assert one_error_line(err)
        assert message in err


@pytest.mark.parametrize("argv, message", [
    (["evolve", "--algo", "exact", "--t", "abc"], "t must be a number, got 'abc'"),
    (["scaling", "--k", "2.5"], "k must be an integer, got '2.5'"),
    (["scaling", "--k", "-1e3"], "k must be an integer, got '-1e3'"),
    (["scaling", "--k", "2", "--points", "3.5"], "points must be an integer, got '3.5'"),
    (["scaling", "--k", "2", "--tmin", "x"], "tmin must be a number, got 'x'"),
    (["scaling", "--k", "2", "--floor="], "floor must be a number, got ''"),
])
def test_malformed_number_is_one_error_line(capsys, argv, message):
    # options are read as text and converted by the command, so a malformed
    # number is the command's one error line, not argparse's usage message
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["evolve", "--algo", "exact"], ["scaling"]])
def test_missing_required_number_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "required" in capsys.readouterr().err


def package_env() -> dict:
    """The environment with this package first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(mptrotter.__file__).parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_console_entry_point():
    # the installed console script when present, else `python -m mptrotter`
    script = shutil.which("mptrotter")
    command = [script] if script else [sys.executable, "-m", "mptrotter"]
    proc = subprocess.run(command + ["coeffs", "--schedule", "1,2"],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0
    assert "sum c_q = 1" in proc.stdout


def test_calls_in_one_process_match_fresh_processes(capsys, tmp_path):
    # main builds its parser once per process; no call may see another's
    # options, so each must behave as it does in a process of its own
    out = str(tmp_path / "rows")
    calls = [
        ["sweep", "--out", out, "--format", "json"],
        ["sweep", "--out", out],  # no --format: csv
        ["scaling"],  # usage error: --k missing
        ["evolve", "--algo", "mp_oaa:modified:2,4", "--t", "3"],
        ["scaling", "--k", "3", "--tmin", "1", "--tmax", "3"],
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        written = Path(out).read_bytes() if argv[0] == "sweep" else None
        proc = subprocess.run([sys.executable, "-m", "mptrotter", *argv], capture_output=True,
                              text=True, env=package_env(), cwd=tmp_path)
        assert (code, captured.out, captured.err) \
            == (proc.returncode, proc.stdout, proc.stderr), argv
        if written is not None:
            assert Path(out).read_bytes() == written, argv
    assert Path(out).read_text().startswith("t,algo,")


@pytest.mark.parametrize("argv, count", [
    (["evolve", "--algo", "mp:modified:1,60", "--t", "1"], 2 ** 60),
    (["evolve", "--algo", f"trotter:{2 ** 62}", "--t", "1"], 2 ** 62),
    (["scaling", "--k", "60", "--floor", "1e-13"], 2 ** 60),
    (["scaling", "--k", "100", "--floor", "1e-13"], 2 ** 100),
], ids=["mp-k60", "trotter-2e62", "scaling-k60", "scaling-k100"])
def test_overflowing_products_are_one_error_line(capsys, argv, count):
    # in-process, the warnings filter of the test run raises a leaked numpy
    # RuntimeWarning; the subprocess shows what a user sees
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert one_error_line(err)
    assert "overflows double precision" in err
    assert f"largest iteration count {count})" in err
    proc = subprocess.run([sys.executable, "-m", "mptrotter", *argv], capture_output=True,
                          text=True, env=package_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


# --- the one-error-line contract on generated commands ------------------------
# Every command ends in one of three ways: exit 0 with nothing on stderr, exit 1
# with one error: line, or an argparse usage error (exit 2). Values come from
# pools of edge spellings, numbers padded with whitespace, signed with + or
# grouped with _ among them. --points stays at 10^3 or below: the product stacks
# of a scaling run grow with points times k, and k = 60 with 10^5 points needs
# gigabytes before it fails.

EDGE_NUMBERS = ["0", "-0", "0.7", "-2.5", "1e-320", "1e308", "-1e308", "1e309", "inf",
                "-inf", "nan", "0x10", "1_0", "", "abc", " 0.7 ", "+2.5", "1_0.5", "\t3\n"]
EDGE_SCHEDULES = ["modified:2,4", "modified:1,7", "modified:1,60", "modified:0,3",
                  "modified:2", "original:0.5,3", "original:1e308,3", "original:nan,3",
                  "original:0.00002,1000000", "1,2,3,96", "3,2,1", "1_0,2_0", "0x10", "",
                  " modified: 2 , 4 ", "modified:+1,+3", "original: 0.5 ,+3", "+1, 2 ,1_6",
                  ",".join(str(l) for l in range(1, 2001))]
EDGE_ROUNDS = ["0", "1", "3", str(_MAX_ROUNDS + 1), str(HUGE), " 2 ", "+1", "1_0"]
EDGE_JSON = [0, -0.0, 0.3, 1e-320, 1e308, -1e308, HUGE, float("nan"), float("inf"), True,
             None, "1", [], {}]

edge_number = st.sampled_from(EDGE_NUMBERS)
edge_schedule = st.sampled_from(EDGE_SCHEDULES)
edge_algorithm = st.one_of(
    st.sampled_from(["exact", "warp", "", "trotter:96", "trotter:0", f"trotter:{2 ** 62}",
                     "mp:1,2:3", "mp:modified:2,4:3"]),
    st.builds("trotter:{}".format, edge_number),
    st.builds("mp:{}".format, edge_schedule),
    st.builds("mp_oaa:{}".format, edge_schedule),
    st.builds("mp_oaa:{}:{}".format, edge_schedule, st.sampled_from(EDGE_ROUNDS)),
)
edge_json = st.sampled_from(EDGE_JSON)
edge_config = st.one_of(
    st.fixed_dictionaries({}, optional={
        "omega": edge_json, "delta": edge_json, "e1": edge_json, "e2": edge_json,
        "initial_state": st.one_of(
            edge_json,
            st.sampled_from([[0.6, 0.8, 0, 0], [[0, 1], 0, 0, 0], [1e308, 1e308, 0, 0],
                             [1e-320, 1, 0, 0], [[1e308, 1e308], 0, 0, 0]]),
            st.lists(st.one_of(edge_json, st.lists(edge_json, min_size=2, max_size=2)),
                     max_size=5)),
        "t_grid": st.one_of(edge_json, st.lists(edge_json, max_size=4)),
        "algorithms": st.one_of(edge_json,
                                st.lists(st.one_of(edge_algorithm, edge_json), max_size=3)),
        "oaa_rounds": edge_json, "T_GRID": edge_json,
    }).map(json.dumps),
    st.sampled_from(['{"omega": 1e309}', '{"t_grid": [0x10]}', '{"e1": 1_0}', "[]",
                     '"exact"', "{", ""]),
)


def edge_option(name, values, required=False):
    """--name with a value as its own token or after '=', or when optional, no --name."""
    given = st.one_of(values.map(lambda v: [f"--{name}", v]),
                      values.map(lambda v: [f"--{name}={v}"]))
    return given if required else st.one_of(st.just([]), given)


def edge_command(name, *options):
    return st.tuples(st.just([name]), *options).map(lambda parts: sum(parts, []))


config_option = st.one_of(st.just([]), st.just(["--config", "{config}"]),
                          st.just(["--config", "{missing}"]))
edge_argv = st.one_of(
    edge_command("coeffs", edge_option("schedule", edge_schedule, True)),
    edge_command("evolve", config_option, edge_option("algo", edge_algorithm, True),
                 edge_option("t", edge_number, True)),
    edge_command("sweep", config_option, edge_option("out", st.sampled_from(["{out}", ""])),
                 edge_option("format", st.sampled_from(["csv", "json", "xml", "", "CSV"]))),
    edge_command("scaling", config_option,
                 edge_option("k", st.sampled_from(["0", "1", "2", "-1", "2.5", "", "1_0",
                                                   "60", "0x2", "1e3", " 3 ", "+2"]), True),
                 edge_option("tmin", st.one_of(st.just("0.05"), edge_number)),
                 edge_option("tmax", st.one_of(st.just("2"), edge_number)),
                 edge_option("points", st.sampled_from(["3", "4", "13", "1_3", "1000", "-4",
                                                        "", "nan", "1e3", " 13 ", "+5"])),
                 edge_option("floor", edge_number)),
    st.sampled_from([[], ["warp"], ["coeffs", "--bogus", "1"], ["evolve", "--algo", "exact"],
                     ["scaling", "--k", "2", "--points"]]),
)


@settings(max_examples=200, deadline=timedelta(seconds=5), derandomize=True)
@given(argv=edge_argv, config=edge_config)
def test_generated_commands_end_in_one_of_three_ways(argv, config):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"config": Path(tmp, "cfg.json"), "missing": Path(tmp, "nope.json"),
                 "out": Path(tmp, "rows")}
        paths["config"].write_text(config)
        argv = [arg.format(**paths) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    err = err.getvalue()
    if code == 2:
        assert err.startswith("usage: mptrotter"), (argv, err)
    elif code == 0:
        assert err == "", argv
    else:
        assert code == 1 and one_error_line(err), (argv, code, err)
