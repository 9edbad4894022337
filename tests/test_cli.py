import json
import math
import subprocess
import sys

import pytest

from torusflow.cli import main
from torusflow.output import read_report_json, read_trace_csv


def write_config(path, **overrides):
    cfg = {
        "model": "epitaxial",
        "n": 4,
        "params": {"K0": 0.0, "K1": 0.25, "K2": 1.0, "K3": 0.25},
        "initial_data": {"kind": "random_decay", "amplitude": 0.05, "sigma": 3.0,
                         "normalize": {"norm": "a2", "value": 0.3}},
        "stepper": {"dt": 0.005, "t_end": 0.2},
        "outputs": {"directory": str(path.parent / "out")},
        "seed": 11,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


class TestSimulateCommand:
    def test_successful_run_writes_outputs(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp)
        code = main(["simulate", str(cfgp)])
        assert code == 0
        out = capsys.readouterr().out
        assert "status: completed" in out
        trace = read_trace_csv(tmp_path / "out" / "trace.csv")
        assert len(trace) > 1
        report = read_report_json(tmp_path / "out" / "report.json")
        assert report["theorems"][0]["satisfied"] is True
        assert report["envelope"]["passed"] is True
        assert report["run"]["status"] == "completed"
        assert report["config"]["seed"] == 11

    def test_outdir_override(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp)
        assert main(["simulate", str(cfgp), "--outdir", str(tmp_path / "other")]) == 0
        assert (tmp_path / "other" / "trace.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp, params={"K2": 0.0})
        assert main(["simulate", str(cfgp)]) == 2
        assert "K2 > 0" in capsys.readouterr().err

    def test_blowup_exit_code(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp,
                     params={"K0": 0.0, "K1": 5.0, "K2": 0.05, "K3": 0.0},
                     initial_data={"kind": "random_decay", "amplitude": 0.5, "sigma": 2.0,
                                   "normalize": {"norm": "a0", "value": 4.0}},
                     stepper={"dt": 0.001, "t_end": 2.0, "blowup_threshold": 40.0})
        assert main(["simulate", str(cfgp)]) == 4

    def test_overflowing_initial_norm_is_a_config_error(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp, params={"K0": 0.0, "K1": 0.0, "K2": 1.0, "K3": 0.0},
                     initial_data={"kind": "modes",
                                   "modes": [[3, 3, 1e306, 0], [-3, -3, 1e306, 0]]})
        assert main(["simulate", str(cfgp)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: initial_data: the Wiener norm a4 ")
        assert not (tmp_path / "out").exists()

    def test_bit_reproducible_trace(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp)
        main(["simulate", str(cfgp), "--outdir", str(tmp_path / "a")])
        main(["simulate", str(cfgp), "--outdir", str(tmp_path / "b")])
        assert ((tmp_path / "a" / "trace.csv").read_bytes()
                == (tmp_path / "b" / "trace.csv").read_bytes())

    def test_snapshot_cadence(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp, outputs={"directory": str(tmp_path / "out"),
                                    "snapshot_every": 20})
        assert main(["simulate", str(cfgp)]) == 0
        snaps = sorted((tmp_path / "out").glob("snapshot_*.txt"))
        assert len(snaps) == 3  # steps 0, 20, 40


class TestCheckCommand:
    def test_report_to_stdout(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp)
        assert main(["check", str(cfgp)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["run"] is None
        assert report["theorems"][0]["theorem_id"] == "EpitaxialA2_K0zero"
        assert report["theorems"][0]["lambda"] == pytest.approx(0.7)

    def test_oversized_integer_is_a_config_error(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp, n=10**31)
        assert main(["check", str(cfgp)]) == 2
        assert capsys.readouterr().err.startswith("config error: n:")

    def test_factorial_overflow_p_is_a_config_error(self, tmp_path, capsys):
        # 200! is not a finite double; the thin-film checker needs p!
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp, model="thinfilm", params={"chi": 0.1, "p": 200})
        assert main(["check", str(cfgp)]) == 2
        assert capsys.readouterr().err.startswith("config error: params.p:")

    @pytest.mark.parametrize("modes, names", [
        # |k|^4 |uhat| overflows a double; the A^0 and A^2 sums stay finite
        ([[3, 3, 1e306, 0], [-3, -3, 1e306, 0]], ["a4", "a6"]),
        # every term is finite, but their sum overflows inside math.fsum
        ([[1, 0, 5e307, 0], [-1, 0, 5e307, 0], [0, 1, 5e307, 0], [0, -1, 5e307, 0]],
         ["a0", "a2", "a4", "a6"]),
    ])
    def test_overflowing_initial_norm_is_a_config_error(self, tmp_path, capsys, modes, names):
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp, params={"K0": 0.0, "K1": 0.0, "K2": 1.0, "K3": 0.0},
                     initial_data={"kind": "modes", "modes": modes})
        assert main(["check", str(cfgp)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == len(names)
        for line, name in zip(lines, names):
            assert line.startswith(f"config error: initial_data: the Wiener norm {name} ")

    def test_report_to_file(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp)
        out = tmp_path / "report.json"
        assert main(["check", str(cfgp), "--output", str(out)]) == 0
        assert read_report_json(out)["envelope"] is None


class TestVerifyCommand:
    def _write_trace(self, path, lam, rows=30, inflate=None):
        lines = ["t,a0,a2,a4,a6,mean,dt"]
        for i in range(rows):
            t = 0.1 * i
            v = math.exp(-lam * t)
            if inflate == i:
                v *= 1.5
            lines.append(f"{t},{v},{v},{v},{v},0,0.1")
        path.write_text("\n".join(lines) + "\n")

    def test_pass(self, tmp_path, capsys):
        p = tmp_path / "trace.csv"
        self._write_trace(p, lam=0.5)
        assert main(["verify", str(p), "--lambda", "0.5", "--norm", "a0"]) == 0
        assert "passed=True" in capsys.readouterr().out

    def test_violation_exit_code(self, tmp_path, capsys):
        p = tmp_path / "trace.csv"
        self._write_trace(p, lam=0.5, inflate=7)
        assert main(["verify", str(p), "--lambda", "0.5", "--norm", "a0"]) == 5
        assert "first_violation_t" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_runs_and_summarizes(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp)
        axes = {"axes": [{"path": "initial_data.normalize.value",
                          "values": [0.25, 1.75]}], "workers": 2}
        axesp = tmp_path / "axes.json"
        axesp.write_text(json.dumps(axes))
        assert main(["sweep", str(cfgp), str(axesp),
                     "--outdir", str(tmp_path / "sw")]) == 0
        assert (tmp_path / "sw" / "summary.csv").exists()
        assert "2 runs" in capsys.readouterr().out

    def test_bad_axes_file(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp)
        axesp = tmp_path / "axes.json"
        axesp.write_text(json.dumps({"axes": "nope"}))
        assert main(["sweep", str(cfgp), str(axesp)]) == 2

    @pytest.mark.parametrize("extra", [
        '"max_runs": Infinity',
        '"max_runs": 1e400',
        '"workers": 1e400',
        '"max_runs": true',
        '"workers": 0',
    ])
    def test_bad_axes_number_is_a_config_error(self, tmp_path, capsys, extra):
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp)
        axesp = tmp_path / "axes.json"
        axesp.write_text('{"axes": [{"path": "seed", "values": [1]}], ' + extra + "}")
        assert main(["sweep", str(cfgp), str(axesp), "--outdir", str(tmp_path / "sw")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "sw").exists()

    def test_axes_errors_reported_at_once(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp)
        axesp = tmp_path / "axes.json"
        axesp.write_text(json.dumps({"axes": [{"path": "seed"}], "max_runs": 0,
                                     "workers": 1.5, "extra": 1}))
        assert main(["sweep", str(cfgp), str(axesp)]) == 2
        err = capsys.readouterr().err
        for frag in ("extra: unknown key", "axes[0]", "max_runs:", "workers:"):
            assert frag in err
        assert err.count("config error: ") == 4


class TestConvergenceCommand:
    def test_prints_ratio_table(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp, model="thinfilm", params={"chi": 0.1, "p": 2},
                     initial_data={"kind": "random_decay", "amplitude": 0.03,
                                   "sigma": 3.0},
                     stepper={"dt": 0.02, "t_end": 0.4})
        assert main(["convergence", str(cfgp), "--levels", "2"]) == 0
        out = capsys.readouterr().out
        assert "err_a0_vs_half" in out
        assert len(out.strip().splitlines()) >= 3

    @pytest.mark.parametrize("levels", [40, 10**9])
    def test_step_count_cap(self, tmp_path, capsys, levels):
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp)  # 40 steps at the coarsest dt
        assert main(["convergence", str(cfgp), "--levels", str(levels)]) == 2
        assert capsys.readouterr().err.startswith("config error: --levels:")


class TestEntryPoint:
    def test_console_script_runs(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp)
        proc = subprocess.run(
            [sys.executable, "-m", "torusflow.cli", "check", str(cfgp)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["theorems"]
