import json

import numpy as np
import pytest

from kronproj import cli, kronlinalg


def wrong_axis_correction(AiU, c, VAiU, R):
    """The Woodbury kernel with the rows of V A^{-1}U scaled by c, not its columns."""
    Y = np.linalg.solve(np.eye(len(c)) + VAiU * c[:, None], R)
    return AiU @ (c * Y.T).T


def run_cli(args):
    return cli.main(args)


class TestVerifyOracle:
    def test_passes(self, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        code = run_cli(["verify-oracle", "--seed", "3", "--out", str(out),
                        "--config", str(write_cfg(tmp_path, {"reps": 25}))])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True


    @pytest.mark.parametrize("mutant", ["offset", "wrong_axis"])
    def test_violated_threshold_exits_two(self, tmp_path, capsys, monkeypatch, mutant):
        exact = kronlinalg.woodbury_correction
        kernels = {"offset": lambda *a: exact(*a) + 1e-6, "wrong_axis": wrong_axis_correction}
        monkeypatch.setattr(kronlinalg, "woodbury_correction", kernels[mutant])
        code = run_cli(["verify-oracle", "--seed", "3", "--out", str(tmp_path / "o.json"),
                        "--config", str(write_cfg(tmp_path, {"reps": 25}))])
        assert code == 2
        err = capsys.readouterr().err
        assert "[FAIL] woodbury vs direct inverse" in err
        assert "[PASS] kron identity mixed" in err

    def test_csv_without_records_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "oracle.csv"
        code = run_cli(["verify-oracle", "--seed", "3", "--out", str(out), "--format", "csv",
                        "--config", str(write_cfg(tmp_path, {"reps": 5}))])
        assert code == 1
        assert "error: verify-oracle: --format csv" in capsys.readouterr().err
        assert not out.exists()


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


class TestRunMaint:
    def test_oracle_checked_run_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, {"n": 4, "m": 5, "T": 15, "C1": 0.3})
        out = tmp_path / "maint.json"
        code = run_cli(["run-maint", "--config", str(cfg), "--seed", "1",
                        "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "maintenance"
        assert len(payload["records"]) == 15

    def test_reports_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, {"n": 4, "m": 5, "T": 8})
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["run-maint", "--config", str(cfg), "--seed", "7", "--out", str(out1)])
        run_cli(["run-maint", "--config", str(cfg), "--seed", "7", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_format(self, tmp_path):
        cfg = write_cfg(tmp_path, {"n": 4, "m": 5, "T": 5})
        out = tmp_path / "maint.csv"
        code = run_cli(["run-maint", "--config", str(cfg), "--seed", "2",
                        "--out", str(out), "--format", "csv"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 6  # header + 5 records
        assert "core_rel_err" in lines[0]


class TestCEBench:
    def test_small_bench(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {"b": 32, "n": 128, "trials": 400, "families": ["gaussian", "countsketch"]},
        )
        out = tmp_path / "ce.json"
        code = run_cli(["ce-bench", "--config", str(cfg), "--seed", "4",
                        "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["reports"]) == 2


class TestDPBench:
    def test_small_battery(self, tmp_path):
        cfg = write_cfg(tmp_path, {"size": 400, "trials": 60})
        out = tmp_path / "dp.json"
        code = run_cli(["dp-bench", "--config", str(cfg), "--seed", "5",
                        "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["results"]) == 5


class TestAdaptiveSim:
    def test_norm_battery(self, tmp_path):
        cfg = write_cfg(tmp_path, {"runs": 3, "T": 8, "n": 16, "L": 12, "q": 5})
        out = tmp_path / "ad.json"
        code = run_cli(["adaptive-sim", "--config", str(cfg), "--seed", "6",
                        "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ok_fraction"] == 1.0

    def test_setquery_battery(self, tmp_path):
        cfg = write_cfg(tmp_path, {"runs": 2, "T": 6, "n": 16, "k": 4,
                                   "L": 10, "q": 5})
        code = run_cli(["setquery-sim", "--config", str(cfg), "--seed", "7",
                        "--out", str(tmp_path / "sq.json")])
        assert code == 0

    @pytest.mark.parametrize("runs", [0, -2])
    def test_battery_without_runs_exits_one(self, tmp_path, capsys, runs):
        cfg = write_cfg(tmp_path, {"runs": runs})
        code = run_cli(["adaptive-sim", "--config", str(cfg)])
        assert code == 1
        assert f"error: an adaptive battery needs runs >= 1, got {runs}" in capsys.readouterr().err

    def test_battery_rejects_csv(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"runs": 1, "T": 2, "n": 8, "L": 6, "q": 3})
        code = run_cli(["adaptive-sim", "--config", str(cfg), "--format", "csv"])
        assert code == 1
        assert "error: adaptive-sim: --format csv" in capsys.readouterr().err

    def test_flat_u_bound_reaches_report(self, tmp_path):
        cfg = write_cfg(tmp_path, {"runs": 1, "T": 3, "L": 6, "q": 3, "u_bound": 6.0})
        out = tmp_path / "ad.json"
        code = run_cli(["adaptive-sim", "--config", str(cfg), "--seed", "9", "--out", str(out)])
        assert code == 0
        params = json.loads(out.read_text())["params"]
        assert params["u_bound"] == params["wrapper"]["u_bound"] == 6.0

    def test_sketch_without_b_exits_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"runs": 1, "T": 2, "estimator": "sketch"})
        code = run_cli(["adaptive-sim", "--config", str(cfg)])
        assert code == 1
        assert "error: estimator 'sketch' needs a sketch dimension b" in capsys.readouterr().err

    def test_check_oracle_off_single_run(self, tmp_path):
        cfg = write_cfg(tmp_path, {"T": 5, "n": 8, "L": 6, "q": 3})
        out = tmp_path / "raw.json"
        code = run_cli(["adaptive-sim", "--config", str(cfg), "--seed", "8",
                        "--out", str(out), "--check-oracle", "off"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "adaptive-norm"


class TestComplexity:
    def test_f_ac_value(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"a": 0.31, "c": 0.0, "omega": 2.0, "theta": 4.0})
        code = run_cli(["complexity", "--config", str(cfg)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["f_ac"] - 4.0) <= 1e-12


class TestErrors:
    def test_bad_config_path(self):
        assert run_cli(["run-maint", "--config", "/does/not/exist.json"]) == 1

    def test_invalid_parameter_exits_one(self, tmp_path):
        cfg = write_cfg(tmp_path, {"a": 1.0})
        assert run_cli(["complexity", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("argv", [
        ["run-maint", "--bogus", "1"],
        ["no-such-command"],
        [],
        ["ce-bench", "--seed", "x"],
    ])
    def test_usage_error_exits_one(self, argv, capsys):
        # exit code 2 is reserved for a violated acceptance threshold
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify-oracle", "ce-bench", "dp-bench", "complexity"])
    def test_check_oracle_refused_where_unread(self, command):
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "--check-oracle", "off"])
        assert exc.value.code == 1
