import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mptrotter
from mptrotter import SweepConfig, drop_floor, fit_order, run_sweep
from mptrotter.cli import main


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

    def test_bad_algo(self, capsys):
        code, _, err = run_cli(capsys, "evolve", "--algo", "warp", "--t", "1")
        assert code == 1
        assert err.startswith("error:")
        assert "unknown algorithm" in err


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

    def test_output_path_from_config(self, capsys, tmp_path):
        out_path = tmp_path / "from_config.csv"
        cfg = self.write_config(tmp_path, output=str(out_path))
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        assert out_path.exists()

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
        cfg = self.write_config(tmp_path)
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 1
        assert "no output path" in err

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
        ('{"oaa_rounds": "2"}', "oaa_rounds"),
        ('{"output": 5}', "output"),
        ('{"delta": true}', "delta"),
    ])
    def test_mistyped_values(self, capsys, tmp_path, text, key):
        code, _, err = self.run_with(capsys, tmp_path, text)
        assert code == 1
        assert one_error_line(err)
        assert key in err


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
        rows = run_sweep(SweepConfig(t_grid=ts, algorithms=("mp:modified:1,4",)))
        kept_t, kept_e = drop_floor(ts, [r.state_error for r in rows])
        assert f"{len(kept_t)}/13 points above floor" in out
        assert f"fitted order = {fit_order(kept_t, kept_e):.6g}" in out

    def test_bad_bounds(self, capsys):
        code, _, err = run_cli(capsys, "scaling", "--k", "2",
                               "--tmin", "0.4", "--tmax", "0.1")
        assert code == 1
        assert "tmin < tmax" in err

    def test_too_few_points(self, capsys):
        code, _, err = run_cli(capsys, "scaling", "--k", "2", "--points", "3")
        assert code == 1
        assert "at least 4 points" in err


def test_console_entry_point():
    # the installed console script when present, else `python -m mptrotter`
    # with this package first on the import path
    script = shutil.which("mptrotter")
    command = [script] if script else [sys.executable, "-m", "mptrotter"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(mptrotter.__file__).parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(command + ["coeffs", "--schedule", "1,2"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "sum c_q = 1" in proc.stdout
