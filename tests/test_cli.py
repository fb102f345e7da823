"""Command line interface: argument handling, formats, exit codes."""

import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import fracbvp
from fracbvp.cli import main
from fracbvp.experiments import Verdict


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_csv(text):
    comments = [line[2:] for line in text.splitlines() if line.startswith("# ")]
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    rows = list(csv.reader(io.StringIO(body)))
    return comments, rows[0], rows[1:]


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        code, _, err = _run(capsys, [])
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = _run(capsys, ["frobnicate", "--hurst", "0.25"])
        assert code == 1

    def test_missing_required_argument(self, capsys):
        code, _, _ = _run(capsys, ["sample-noise", "--hurst", "0.25"])
        assert code == 1

    def test_hurst_out_of_range(self, capsys):
        code, _, err = _run(capsys, ["sample-noise", "--hurst", "0.7", "--n", "4"])
        assert code == 1
        assert "invalid request" in err

    def test_unknown_reaction_listed(self, capsys):
        code, _, err = _run(capsys, ["solve", "--hurst", "0.25", "--n", "8",
                                     "--f", "bogus", "--zero-noise"])
        assert code == 1
        assert "sin" in err  # the error names the valid choices

    def test_malformed_ladder(self, capsys):
        code, _, _ = _run(capsys, ["converge", "--hurst", "0.25", "--ladder", "16"])
        assert code == 1


class TestSampleNoise:
    def test_csv_shape_and_metadata(self, capsys):
        code, out, _ = _run(capsys, ["sample-noise", "--hurst", "0.25",
                                     "--n", "4", "--seed", "7"])
        assert code == 0
        comments, header, rows = _parse_csv(out)
        assert header == ["cell_index", "x_left", "x_right", "increment", "density"]
        assert len(rows) == 4
        assert any(c.startswith("hurst=0.25") for c in comments)
        assert float(rows[0][1]) == 0.0 and float(rows[-1][2]) == 1.0
        # density is increment / h
        for row in rows:
            assert float(row[4]) == pytest.approx(float(row[3]) * 4, rel=1e-15)

    def test_deterministic_rerun(self, capsys):
        argv = ["sample-noise", "--hurst", "0.25", "--n", "8", "--seed", "3"]
        _, first, _ = _run(capsys, argv)
        _, second, _ = _run(capsys, argv)
        assert first == second

    def test_json_output_to_file(self, capsys, tmp_path):
        target = tmp_path / "noise.json"
        code, out, _ = _run(capsys, ["sample-noise", "--hurst", "0.3", "--n", "6",
                                     "--seed", "1", "--format", "json",
                                     "--out", str(target)])
        assert code == 0 and out == ""
        payload = json.loads(target.read_text())
        assert payload["n"] == 6 and payload["hurst"] == 0.3
        assert len(payload["increments"]) == 6
        assert payload["density"] == pytest.approx(
            [v * 6 for v in payload["increments"]])
        # atomic write leaves no temp files behind
        assert os.listdir(tmp_path) == ["noise.json"]

    def test_self_check_white_noise(self, capsys):
        code, _, err = _run(capsys, ["sample-noise", "--hurst", "0.5", "--n", "4",
                                     "--seed", "0", "--self-check"])
        assert code == 0
        assert "self-check" in err and "PASS" in err

    def test_methods_agree_on_seed_determinism(self, capsys):
        for method in ("cholesky", "davies-harte"):
            argv = ["sample-noise", "--hurst", "0.25", "--n", "8", "--seed", "5",
                    "--method", method]
            _, first, _ = _run(capsys, argv)
            _, second, _ = _run(capsys, argv)
            assert first == second


class TestSolve:
    def test_deterministic_poisson_values(self, capsys):
        code, out, _ = _run(capsys, ["solve", "--hurst", "0.25", "--n", "8",
                                     "--g", "one", "--zero-noise"])
        assert code == 0
        _, header, rows = _parse_csv(out)
        assert header == ["x", "u_fem"]
        for row in rows:
            x, u = float(row[0]), float(row[1])
            assert u == pytest.approx(x * (1 - x) / 2, abs=1e-13)
        assert float(rows[0][1]) == 0.0 and float(rows[-1][1]) == 0.0

    def test_both_solvers_and_sidecar_metadata(self, capsys):
        code, out, _ = _run(capsys, ["solve", "--hurst", "0.25", "--n", "8",
                                     "--f", "sin", "--g", "one", "--seed", "2",
                                     "--solver", "both"])
        assert code == 0
        comments, header, rows = _parse_csv(out)
        assert header == ["x", "u_fem", "u_greens"]
        assert len(rows) == 9
        assert any(c.startswith("residual_fem=") for c in comments)
        assert any(c.startswith("iterations_greens=") for c in comments)
        # nodal equivalence of the two schemes
        for row in rows:
            assert float(row[1]) == pytest.approx(float(row[2]), abs=1e-8)

    def test_json_format(self, capsys):
        code, out, _ = _run(capsys, ["solve", "--hurst", "0.25", "--n", "4",
                                     "--g", "sinpi", "--zero-noise",
                                     "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["x"]) == 5 and len(payload["u_fem"]) == 5
        assert "residual_fem" in payload

    def test_greens_grid_8192_solves_in_bounded_memory(self, tmp_path):
        # a dense Gauss-weight matrix on this grid would alone take
        # 16 * 8193 * 8192 bytes (1.07 GB); the child reports its own peak
        script = ("import resource, sys\n"
                  "from fracbvp.cli import main\n"
                  "code = main(sys.argv[1:])\n"
                  "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        argv = ["solve", "--hurst", "0.25", "--n", "8192", "--solver", "greens",
                "--method", "davies-harte", "--f", "sin", "--g", "one",
                "--out", str(tmp_path / "solution.csv")]
        src = str(pathlib.Path(fracbvp.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        child = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                               capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        code, maxrss = map(int, child.stdout.split())
        peak_bytes = maxrss if sys.platform == "darwin" else 1024 * maxrss
        assert code == 0
        assert peak_bytes <= 256 * 2**20, peak_bytes

    def test_fem_grid_4096_converges(self, capsys, tmp_path):
        # the FEM stopping rule does not depend on h: the stiffness solve of
        # the final defect stays far below the default tolerance
        code, _, err = _run(capsys, ["solve", "--hurst", "0.25", "--n", "4096",
                                     "--f", "zero", "--out", str(tmp_path / "u.csv")])
        assert code == 0, err

    def test_cholesky_over_budget_exits_usage(self, capsys):
        code, _, err = _run(capsys, ["solve", "--hurst", "0.25", "--n", "8192"])
        assert code == 1
        assert "invalid request" in err and "n=8192" in err and "davies-harte" in err

    def test_unreachable_tolerance_exits_numerical(self, capsys):
        code, _, err = _run(capsys, ["solve", "--hurst", "0.25", "--n", "8",
                                     "--f", "sin", "--g", "one", "--seed", "2",
                                     "--tol", "1e-30"])
        assert code == 2
        assert "numerical failure" in err

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_invalid_tolerance_exits_usage(self, capsys, tol):
        code, _, err = _run(capsys, ["solve", "--hurst", "0.25", "--n", "64",
                                     "--f", "sin", "--tol", tol])
        assert code == 1
        assert "invalid request" in err


class TestConverge:
    def test_csv_report(self, capsys):
        code, out, err = _run(capsys, ["converge", "--hurst", "0.25",
                                       "--ladder", "8:3", "--samples", "8",
                                       "--g", "one", "--seed", "4"])
        assert code == 0
        comments, header, rows = _parse_csv(out)
        assert header == ["solver", "n", "h", "rms_error", "stderr"]
        level_rows = [r for r in rows if r[1] != "rate"]
        rate_rows = [r for r in rows if r[1] == "rate"]
        assert [r[1] for r in level_rows] == ["8", "16", "32"]
        assert len(rate_rows) == 1
        assert "fitted rate" in err
        assert any(c.startswith("samples=8") for c in comments)

    def test_json_report_reproducible_modulo_timing(self, capsys, tmp_path):
        argv = ["converge", "--hurst", "0.25", "--ladder", "8:2", "--samples",
                "6", "--f", "sin", "--g", "one", "--seed", "11",
                "--format", "json"]
        _, first, _ = _run(capsys, argv)
        _, second, _ = _run(capsys, argv)
        a, b = json.loads(first), json.loads(second)
        a.pop("wall_time"), b.pop("wall_time")
        assert a == b
        assert a["config"]["n0"] == 8
        assert "fem" in a["results"]

    def test_thread_flag_does_not_change_results(self, capsys):
        base = ["converge", "--hurst", "0.25", "--ladder", "8:2", "--samples",
                "6", "--seed", "11", "--format", "json"]
        _, serial, _ = _run(capsys, base + ["--threads", "1"])
        _, pooled, _ = _run(capsys, base + ["--threads", "3"])
        a, b = json.loads(serial), json.loads(pooled)
        a.pop("wall_time"), b.pop("wall_time")
        assert a == b


class TestVerify:
    def test_small_battery_passes(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--hurst", "0.25",
                                     "--samples-scale", "0.02"])
        assert code == 0
        _, header, rows = _parse_csv(out)
        assert header == ["check", "target", "estimate", "statistic", "verdict"]
        assert rows and all(r[-1] == "PASS" for r in rows)

    def test_json_format_and_file_output(self, capsys, tmp_path):
        target = tmp_path / "verify.json"
        code, _, err = _run(capsys, ["verify", "--hurst", "0.5",
                                     "--samples-scale", "0.02",
                                     "--format", "json", "--out", str(target)])
        assert code == 0
        payload = json.loads(target.read_text())
        assert all(entry["verdict"] == "PASS" for entry in payload)
        assert "PASS" in err  # stderr mirror when writing to a file

    def test_failures_exit_three(self, capsys, monkeypatch):
        fake = [Verdict(check="stub", target=1.0, estimate=2.0,
                        statistic=9.0, passed=False)]
        monkeypatch.setattr("fracbvp.cli.run_verification_suite",
                            lambda *a, **k: fake)
        code, out, _ = _run(capsys, ["verify", "--hurst", "0.25"])
        assert code == 3
        assert "FAIL" in out
