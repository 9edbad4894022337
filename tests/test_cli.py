import csv
import errno
import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from torusflow import cli, driver, integrate
from torusflow.cli import main
from torusflow.output import read_trace_csv
from contracts import CORPUS, corpus
from test_contracts import with_rows


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


def _with_conjugates(modes):
    return modes + [[-k1, -k2, re, -im] for k1, k2, re, im in modes]


# Initial data past the float range, and the norms its config errors name.
ALL_NORMS = ["a0", "a2", "a4", "a6"]
OVERFLOWING_DATA = {
    "weighted_term": ({"kind": "modes", "modes": _with_conjugates([[3, 3, 1e306, 0]])},
                      ["a4", "a6"]),
    "finite_terms": ({"kind": "modes",
                      "modes": _with_conjugates([[1, 0, 5e307, 0], [2, 0, 5e307, 0]])},
                     ALL_NORMS),
    "normalize": ({"kind": "modes", "modes": _with_conjugates([[3, 3, 1e306, 0]]),
                   "normalize": {"norm": "a4", "value": 1}}, ["a4"]),
    "symmetrize": ({"kind": "modes", "modes": _with_conjugates([[1, 0, 1e308, 0]])},
                   ALL_NORMS),
    "modulus": ({"kind": "modes", "modes": _with_conjugates([[1, 0, 1.5e308, 1.5e308]])},
                ALL_NORMS),
}


def _assert_overflow_is_a_config_error(tmp_path, capsys, argv, shape):
    initial_data, names = OVERFLOWING_DATA[shape]
    cfgp = tmp_path / "cfg.json"
    write_config(cfgp, params={"K0": 0.0, "K1": 0.0, "K2": 1.0, "K3": 0.0},
                 initial_data=initial_data)
    assert main([*argv, str(cfgp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert [line.split("Wiener norm ")[1][:2] for line in lines] == names
    assert all(line.startswith("config error: initial_data") for line in lines)
    assert not (tmp_path / "out").exists()


class TestOverflowingInitialData:
    @pytest.mark.parametrize("shape", ["normalize", "symmetrize", "modulus"])
    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_check_and_simulate(self, tmp_path, capsys, command, shape):
        _assert_overflow_is_a_config_error(tmp_path, capsys, [command], shape)

    @pytest.mark.parametrize("shape", list(OVERFLOWING_DATA))
    def test_convergence(self, tmp_path, capsys, shape):
        _assert_overflow_is_a_config_error(tmp_path, capsys, ["convergence", "--levels", "1"],
                                           shape)


class TestThresholdAtInitialNorm:
    """A blowup_threshold the initial A^0 already meets is a config error in
    every command."""

    def _config(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp, initial_data={"kind": "modes",
                                         "modes": [[1, 0, 0.5, 0], [-1, 0, 0.5, 0]]},
                     stepper={"dt": 0.005, "t_end": 0.02, "blowup_threshold": 0.5})
        return cfgp

    @pytest.mark.parametrize("argv", [["check"], ["simulate"], ["convergence", "--levels", "1"]])
    def test_commands(self, tmp_path, capsys, argv):
        assert main([*argv, str(self._config(tmp_path))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: stepper.blowup_threshold: ")
        assert "initial A^0 norm (1.0)" in captured.err
        assert not (tmp_path / "out").exists()

    def test_sweep_row(self, tmp_path, capsys):
        axesp = tmp_path / "axes.json"
        axesp.write_text(json.dumps({"axes": [{"path": "stepper.blowup_threshold",
                                               "values": [0.5, 2.0]}]}))
        assert main(["sweep", str(self._config(tmp_path)), str(axesp),
                     "--outdir", str(tmp_path / "sw")]) == 0
        with open(tmp_path / "sw" / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == ["config_error", "completed"]
        assert rows[0]["error"].startswith("stepper.blowup_threshold: ")


class TestInitialDataRescaling:
    @pytest.mark.parametrize("initial_data, message", [
        # the factor 1e10 / 2e-300 passes the float range, and so does the
        # mean 1, which |k|^2 does not weigh, rescaled part by part
        ({"kind": "modes", "zero_mean": False,
          "modes": [[0, 0, 1.0, 0], *_with_conjugates([[1, 0, 1e-300, 0]])],
          "normalize": {"norm": "a2", "value": 1e10}}, "overflows the float range"),
        # the mean is not weighted by |k|^2, so only it overflows
        ({"kind": "modes", "zero_mean": False,
          "modes": [[0, 0, 1e300, 0], *_with_conjugates([[1, 0, 1e-290, 0]])],
          "normalize": {"norm": "a2", "value": 1e10}}, "overflows the float range"),
        # the mean alone: |k|^2 weighs none of it
        ({"kind": "modes", "zero_mean": False, "modes": [[0, 0, 1.0, 0]],
          "normalize": {"norm": "a2", "value": 1.0}}, "zero a2 norm"),
    ])
    def test_is_a_config_error(self, tmp_path, capsys, initial_data, message):
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp, initial_data=initial_data)
        assert main(["check", str(cfgp)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: initial_data.normalize: ")
        assert message in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("initial_data, a0, rel", [
        ({"kind": "modes", "modes": _with_conjugates([[1, 0, 1e-300, 0]]),
          "normalize": {"norm": "a0", "value": 1e10}}, 1e10, 1e-15),
        # subnormal data: its norm is taken of the data scaled by 2^1000, so
        # the factor is finite and the rescaled A^0 as close as for normal data
        ({"kind": "random_decay", "amplitude": 1e-318, "sigma": 3.0,
          "normalize": {"norm": "a0", "value": 0.5}}, 0.5, 1e-15),
    ])
    def test_a_factor_past_the_float_range_alone_rescales(self, tmp_path, capsys,
                                                          initial_data, a0, rel):
        # value / A^0 overflows, though the rescaled field is well inside the range
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp, initial_data=initial_data)
        assert main(["check", str(cfgp)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["initial_norms"]["a0"] == pytest.approx(a0, rel=rel, abs=0)

    def test_smallest_subnormal_data_is_kept(self, tmp_path, capsys):
        # each drawn part is 0 or +-5e-324, the smallest subnormal; the
        # nonzero ones stay as drawn, so A^2 is not zero and rescales.  A
        # modulus of such a part pair rounds down by up to sqrt 2; the norm
        # taken of the data scaled by 2^1000 has not lost those bits, so the
        # rescaled A^2 misses 1 only by the rounding of the rescale
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp, initial_data={"kind": "random_decay", "amplitude": 5e-324, "sigma": 2.0,
                                         "normalize": {"norm": "a2", "value": 1.0}})
        assert main(["check", str(cfgp)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["initial_norms"]["a2"] - 1.0) <= 2 * math.ulp(1.0)


class TestOverflowingRun:
    @pytest.mark.parametrize("model, params, normalize", [
        ("thinfilm", {"chi": 0.3, "p": 170}, {"norm": "a0", "value": 1e10}),
        ("epitaxial", {"K1": 1.0, "K2": 1.0, "K3": 1.0}, {"norm": "a2", "value": 1e300}),
    ])
    def test_exits_numerical_failure_without_a_warning(self, tmp_path, capsys, model, params,
                                                       normalize):
        # no errstate here: pytest turns a RuntimeWarning into an error
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp, model=model, params=params,
                     initial_data={"kind": "random_decay", "amplitude": 0.1, "sigma": 2.0,
                                   "normalize": normalize},
                     stepper={"dt": 1e-3, "t_end": 0.01})
        assert main(["simulate", str(cfgp)]) == 3
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["run"]["status"] == "numerical_failure"


class TestSymbolsPastTheFloatRange:
    @pytest.mark.parametrize("params, scheme, code", [
        # z^2 of the ETD2 weights overflows
        ({"K2": 1e160}, "ETD2", 0),
        # (K3/2)|k|^2 overflows: the K3 term of the first step is not finite
        ({"K2": 1.0, "K3": 1e308}, "ETD2", 3),
        # K0|k|^2 + K2|k|^4 overflows: the rate is -inf and e^z, phi1 and phi2 are 0
        ({"K0": 1e308, "K2": 1e308}, "ETD2", 0),
        ({"K0": 1e308, "K2": 1e308}, "IMEX1", 0),
    ], ids=["K2_1e160", "K3_1e308", "K0_K2_1e308", "K0_K2_1e308_imex1"])
    def test_no_warning(self, tmp_path, capsys, params, scheme, code):
        # no errstate here: pytest turns a RuntimeWarning into an error
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp, n=4, params={"K1": 0.25, **params},
                     initial_data={"kind": "random_decay", "amplitude": 0.05, "sigma": 3.0},
                     stepper={"dt": 0.01, "t_end": 0.05, "scheme": scheme})
        assert main(["simulate", str(cfgp)]) == code
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["run"]["final_time"] == (0.05 if code == 0 else 0.0)


@with_rows
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
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["theorems"][0]["satisfied"] is True
        assert report["envelope"]["passed"] is True
        assert report["run"]["status"] == "completed"
        assert report["config"]["seed"] == 11

    def test_thinfilm_claim_reported_satisfied_fails_its_envelope(self, tmp_path, capsys):
        # the claimed rate 1 - chi - 2x - c chi p! S(x) tends to 1 - chi as
        # x = A^0 -> 0, above the Galerkin rate 1 - chi p of the |k| = 1
        # shell when p >= 2: the claim is reported satisfied, the run exits
        # 0, and once that shell dominates the envelope fails
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp, model="thinfilm", n=8, params={"chi": 0.3, "p": 2}, seed=0,
                     initial_data={"kind": "random_decay", "amplitude": 0.1, "sigma": 3.0,
                                   "normalize": {"norm": "a0", "value": 0.01}},
                     stepper={"dt": 1e-3, "t_end": 4.0})
        assert main(["simulate", str(cfgp)]) == 0
        assert "envelope: passed=False worst_ratio=1.36326335" in capsys.readouterr().out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        (theorem,) = report["theorems"]
        assert theorem["satisfied"] is True
        assert theorem["lambda"] == pytest.approx(0.662)
        assert report["envelope"]["passed"] is False
        assert report["envelope"]["first_violation_t"] == pytest.approx(2.82)
        trace = read_trace_csv(tmp_path / "out" / "trace.csv")
        late = trace.data[trace.data[:, 0] >= 3.0 - 1e-9]  # t = 3 ... 4
        rate = math.log(late[0, 1] / late[-1, 1]) / (late[-1, 0] - late[0, 0])
        assert rate == pytest.approx(1.0 - 0.3 * 2, abs=1e-3)  # 0.40020

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

    def test_overflowing_initial_norm_is_a_config_error(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp, params={"K0": 0.0, "K1": 0.0, "K2": 1.0, "K3": 0.0},
                     initial_data={"kind": "modes",
                                   "modes": [[3, 3, 1e306, 0], [-3, -3, 1e306, 0]]})
        assert main(["simulate", str(cfgp)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: initial_data: the Wiener norm a4 ")
        assert not (tmp_path / "out").exists()

    def test_subnormal_final_norms_are_the_last_trace_row(self, tmp_path, capsys):
        write_config(tmp_path / "cfg.json", **SUBNORMAL_RUN)
        assert main(["simulate", str(tmp_path / "cfg.json"), "--outdir", str(tmp_path / "o")]) == 0
        final = json.loads((tmp_path / "o" / "report.json").read_text())["run"]["final_norms"]
        last = read_trace_csv(tmp_path / "o" / "trace.csv").data[-1, 1:5]
        assert [final[k] for k in ("a0", "a2", "a4", "a6")] == last.tolist()
        assert 0.0 < last[0] < 2.0**-1022

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


# An epitaxial run whose data are subnormal: every coefficient is a few
# units of 2^-1074, so a pass that halved and added them would move bits.
SUBNORMAL_RUN = corpus("subnormal")


class TestSnapshotRestart:
    """A run restarted from its own snapshot at step k, with t_end cut by
    k dt, continues it bit for bit."""

    @pytest.mark.parametrize("cfg, k", [
        ({"model": "thinfilm", "n": 6, "params": {"chi": 0.3, "p": 3},
          "initial_data": {"kind": "random_decay", "amplitude": 0.05, "sigma": 3.0,
                           "normalize": {"norm": "a0", "value": 0.05}},
          "stepper": {"dt": 0.001, "t_end": 0.02}, "outputs": {"snapshot_every": 5}}, 10),
        ({**SUBNORMAL_RUN, "outputs": {"snapshot_every": 3}}, 3),
    ], ids=["thinfilm", "epitaxial_subnormal"])
    def test_restart_reproduces_the_rest_of_the_run(self, tmp_path, cfg, k):
        dt, steps = cfg["stepper"]["dt"], round(cfg["stepper"]["t_end"] / cfg["stepper"]["dt"])
        stepper = {"dt": dt, "t_end": steps * dt, "record_every": 1}
        first, again = tmp_path / "first", tmp_path / "again"
        write_config(tmp_path / "a.json", **{**cfg, "stepper": stepper})
        assert main(["simulate", str(tmp_path / "a.json"), "--outdir", str(first)]) == 0
        write_config(tmp_path / "b.json", **{
            **cfg, "stepper": {**stepper, "t_end": (steps - k) * dt},
            "initial_data": {"kind": "snapshot", "path": str(first / f"snapshot_{k:08d}.txt")}})
        assert main(["simulate", str(tmp_path / "b.json"), "--outdir", str(again)]) == 0
        rows = read_trace_csv(first / "trace.csv").data[k:, 1:5]
        assert read_trace_csv(again / "trace.csv").data[:, 1:5].tobytes() == rows.tobytes()
        last = (first / f"snapshot_{steps:08d}.txt").read_bytes()
        assert (again / f"snapshot_{steps - k:08d}.txt").read_bytes() == last


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

    @pytest.mark.parametrize("modes, message", [
        ([[1, 0, 1.0, 0]], "coefficients are not Hermitian-symmetric (max deviation 1.000e+00); "
                           "the field must represent a real function"),
        # repeated modes accumulate past the float range
        (_with_conjugates([[1, 0, 1e308, 0]]) * 2, "non-finite Fourier coefficient"),
    ], ids=["no_mirror", "sum_past_the_float_range"])
    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_modes_the_field_refuses_are_a_config_error(self, tmp_path, capsys, command, modes,
                                                        message):
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp, initial_data={"kind": "modes", "modes": modes})
        assert main([command, str(cfgp)]) == 2
        assert capsys.readouterr() == ("", f"config error: initial_data.modes: {message}\n")
        assert not (tmp_path / "out").exists()

    def test_report_to_file(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp)
        out = tmp_path / "report.json"
        assert main(["check", str(cfgp), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["envelope"] is None

    def test_stdout_and_output_file_get_the_same_bytes(self, tmp_path, capsys):
        cfgp, out = tmp_path / "cfg.json", tmp_path / "report.json"
        write_config(cfgp)
        assert main(["check", str(cfgp), "--output", str(out)]) == 0
        assert main(["check", str(cfgp)]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()


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

    @pytest.mark.parametrize("lam, tol, bad", [
        ("nan", "1e-6", ["--lambda"]),
        ("inf", "1e-6", ["--lambda"]),
        ("-inf", "1e-6", ["--lambda"]),
        ("1e9", "nan", ["--tol"]),
        ("1e9", "inf", ["--tol"]),
        ("0.5", "-5", ["--tol"]),
        ("nan", "-inf", ["--lambda", "--tol"]),
    ])
    def test_non_finite_lambda_or_bad_tol_is_a_config_error(self, tmp_path, capsys,
                                                             lam, tol, bad):
        p = tmp_path / "trace.csv"
        self._write_trace(p, lam=0.5)
        assert main(["verify", str(p), f"--lambda={lam}", f"--tol={tol}", "--norm", "a0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert [line.split()[2] for line in lines] == bad
        assert all(line.startswith("config error: ") for line in lines)

    @pytest.mark.parametrize("lam, code", [("-inf", 2), ("-1e-3", 5), ("-0.5", 0)])
    def test_negative_lambda_is_a_value_not_a_flag(self, tmp_path, capsys, lam, code):
        p = tmp_path / "trace.csv"
        self._write_trace(p, lam=0.5, inflate=7)
        assert main(["verify", str(p), "--lambda", lam, "--norm", "a0"]) == code
        err = capsys.readouterr().err
        assert err == ("config error: --lambda must be finite, got -inf\n" if code == 2 else "")

    @pytest.mark.parametrize("content", [
        None,
        "t,a0\n",
        "t,a0,a2,a4,a6,mean,dt\n0,1,1,1\n",
        "t,a0,a2,a4,a6,mean,dt\n0,1,1,1,1,0,x\n",
        "t,a0,a2,a4,a6,mean,dt\n0,1,1,1,1,0,0.1\n0,1,1,1,1,0,0.1\n",
        "t,a0,a2,a4,a6,mean,dt\n0,1,1,1,inf,0,0.1\n",
        "t,a0,a2,a4,a6,mean,dt\n",
    ], ids=["missing", "header", "short_row", "not_a_number", "repeated_time", "non_finite",
            "header_only"])
    def test_unreadable_or_malformed_trace_is_a_config_error(self, tmp_path, capsys, content):
        p = tmp_path / "trace.csv"
        if content is not None:
            p.write_text(content)
        assert main(["verify", str(p), "--lambda", "0.5"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"config error: {p}: ")
        if content and "inf" in content:
            assert lines[0] == f"config error: {p}: trace column a6 contains non-finite entries"
        if content == "t,a0,a2,a4,a6,mean,dt\n":
            assert lines[0] == f"config error: {p}: empty trace"
        assert main(["verify", str(tmp_path), "--lambda", "0.5"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {tmp_path}: ")


class TestOutputWriteFailure:
    """A write that fails after make_run_dir's checks passed (a full disk)."""

    @pytest.mark.parametrize("module, writer, name", [
        ("driver", "write_trace_csv", "trace.csv"),
        ("driver", "write_report_json", "report.json"),
        ("driver", "_write_snapshot", "snapshot_00000000.txt"),
        ("sweep", "write_sweep_summary", "summary.csv"),
    ])
    def test_is_a_config_error_that_names_the_file(self, tmp_path, capsys, monkeypatch,
                                                   module, writer, name):
        def full(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(importlib.import_module(f"torusflow.{module}"), writer, full)
        cfgp, out = tmp_path / "cfg.json", tmp_path / "out"
        write_config(cfgp, outputs={"directory": str(out), "snapshot_every": 10})
        if module == "sweep":
            axes = tmp_path / "axes.json"
            axes.write_text(json.dumps({"axes": [{"path": "seed", "values": [1, 2]}]}))
            argv = ["sweep", str(cfgp), str(axes), "--outdir", str(out)]
        else:
            argv = ["simulate", str(cfgp)]
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"config error: output file {out / name}: {os.strerror(errno.ENOSPC)}"]
        if module == "driver":  # the run removed what it wrote; its directory stays
            assert list(out.iterdir()) == []
        else:  # the sweep removed every file it wrote; its run directories stay
            assert [p for p in out.rglob("*") if not p.is_dir()] == []

    def test_keeps_the_files_that_were_there_before(self, tmp_path, capsys, monkeypatch):
        cfgp, out = tmp_path / "cfg.json", tmp_path / "out"
        write_config(cfgp, outputs={"directory": str(out), "snapshot_every": 10})
        assert main(["simulate", str(cfgp)]) == 0
        (out / "report.json").unlink()
        (out / "trace.csv").unlink()
        (out / "trace.csv").symlink_to(tmp_path / "elsewhere.csv")  # dangling
        kept = {p.name: p.read_bytes() for p in out.iterdir() if not p.is_symlink()}

        def full(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(importlib.import_module("torusflow.driver"), "write_report_json", full)
        assert main(["simulate", str(cfgp)]) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir() if not p.is_symlink()} == kept
        assert (out / "trace.csv").is_symlink()  # the run wrote through it; it was there before
        assert capsys.readouterr().err.startswith("config error: output file ")


@with_rows
class TestFallbackInputs:
    """Inputs that reached cli.main's `except (OSError, ValueError)` fallback
    before it was deleted; those a console script can run too are rows of
    tests/contracts.py."""

    def test_an_unreadable_output_directory(self, tmp_path, capsys, monkeypatch):
        cfgp, out = tmp_path / "cfg.json", tmp_path / "out"
        write_config(cfgp, outputs={"directory": str(out), "snapshot_every": 10})

        def denied(path):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

        with monkeypatch.context() as m:
            m.setattr(os, "listdir", denied)
            assert main(["simulate", str(cfgp)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"config error: output directory {out}: {os.strerror(errno.EACCES)}"]
        assert not out.exists()  # a refused run leaves no directory it made

    def test_a_convergence_level_past_the_step_cap(self, tmp_path, capsys, monkeypatch):
        # t_end / dt = 50.4 rounds to 50 steps, within a cap of 100; halved,
        # 100.8 rounds to 101, past it
        monkeypatch.setattr(integrate, "MAX_STEPS", 100)
        monkeypatch.setattr(cli, "MAX_STEPS", 100)
        monkeypatch.setattr(cli, "simulate", lambda *a: pytest.fail("a level marched"))
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp, stepper={"dt": 0.001, "t_end": 0.0504})
        assert main(["convergence", str(cfgp), "--levels", "1"]) == 2
        assert capsys.readouterr().err == ("config error: --levels: 1 halvings of dt need more "
                                           "than 100 steps\n")

    def test_a_convergence_dt_halved_to_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "simulate", lambda *a: pytest.fail("a level marched"))
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp, stepper={"dt": 5e-324, "t_end": 5e-324})
        assert main(["convergence", str(cfgp), "--levels", "1"]) == 2
        assert capsys.readouterr().err == ("config error: --levels: 1 halvings of dt break "
                                           "dt: must satisfy dt > 0, got 0.0\n")

    @pytest.mark.parametrize("command", ["check", "simulate", "sweep", "convergence"])
    def test_a_step_schedule_past_the_float_range(self, tmp_path, capsys, monkeypatch, command):
        # round(1.7e308 / 1.1e308) = 2 steps end at 2.2e308; at 1.2e308 the
        # coarsest level takes 1 step and the next 3 steps of 6e307
        def marched(*args):
            pytest.fail("a run marched")

        monkeypatch.setattr(integrate, "simulate_batch", marched)
        monkeypatch.setattr(driver, "simulate_batch", marched)
        cfgp, axes, sw = tmp_path / "cfg.json", tmp_path / "axes.json", tmp_path / "sw"
        cfg = corpus("overflow")
        cfg["stepper"]["dt"] = 1.2e308 if command == "convergence" else 1.1e308
        write_config(cfgp, **cfg)
        axes.write_text(json.dumps({"axes": [{"path": "seed", "values": [1, 2]}]}))
        argv = {"check": ["check", str(cfgp)], "simulate": ["simulate", str(cfgp)],
                "sweep": ["sweep", str(cfgp), str(axes), "--outdir", str(sw)],
                "convergence": ["convergence", str(cfgp), "--levels", "1"]}[command]
        rule = "the time of the last step, 2 x dt, passes the float range"
        if command == "sweep":
            assert main(argv) == 0
            with open(sw / "summary.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert [(r["status"], r["error"]) for r in rows] == [("config_error", f"stepper.t_end: {rule}")] * 2
            return
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [{
            "convergence": "config error: --levels: 1 halvings of dt break t_end: "
                           "the time of the last step, 3 x dt, passes the float range, got 1.7e+308",
        }.get(command, f"config error: stepper.t_end: {rule}")]
        assert not (tmp_path / "out").exists()


@with_rows
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

    def test_an_outdir_standard_output_cannot_encode(self, tmp_path, monkeypatch):
        # a name from the command line that is not UTF-8 (as os.fsdecode gives it)
        # on a strict standard output: a config error, and the files it wrote go
        cfgp, axesp, sw = tmp_path / "cfg.json", tmp_path / "axes.json", tmp_path / "sw\udcff"
        write_config(cfgp)
        axesp.write_text(json.dumps({"axes": [{"path": "seed", "values": [1, 2]}]}))
        out, err = io.TextIOWrapper(io.BytesIO(), "utf-8", "strict"), io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        assert main(["sweep", str(cfgp), str(axesp), "--outdir", str(sw)]) == 2
        assert err.getvalue().startswith("config error: standard output: 'utf-8' codec can't encode")
        assert [p for p in sw.rglob("*") if not p.is_dir()] == []

    def test_member_with_modes_the_field_refuses_is_a_config_error_row(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp, initial_data={"kind": "modes", "modes": [[1, 0, 0.1, 0]]})
        axesp = tmp_path / "axes.json"
        axesp.write_text(json.dumps({"axes": [{"path": "initial_data.modes", "values": [
            [[1, 0, 0.1, 0]], [[1, 0, 0.1, 0], [-1, 0, 0.1, 0]]]}]}))
        assert main(["sweep", str(cfgp), str(axesp), "--outdir", str(tmp_path / "sw")]) == 0
        with open(tmp_path / "sw" / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == ["config_error", "completed"]
        assert rows[0]["error"].startswith("initial_data.modes: coefficients are not Hermitian-symmetric")

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


@with_rows
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

    def test_no_level_completes(self, tmp_path, capsys):
        # quadratic growth far past the smallness condition: every level
        # crosses the threshold, so no error row can be formed
        assert main(["convergence", str(CORPUS / "blowup.json"), "--levels", "2"]) == 4
        assert capsys.readouterr().out.splitlines() == [
            "dt=0.001: blowup_detected", "dt=0.0005: blowup_detected",
            "dt=0.00025: blowup_detected", f"{'dt':>12} {'err_a0_vs_half':>16} {'ratio':>8}"]

@with_rows
class TestFileErrors:
    """A file that cannot be read or parsed on the way to a config is a
    config error that names it, exit 2, from every command that reads it;
    most of these contracts are rows of tests/contracts.py."""

    def test_sweep_files_are_directories(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp)
        for argv in (["sweep", str(tmp_path), str(cfgp)], ["sweep", str(cfgp), str(tmp_path)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"config error: {tmp_path}: Is a directory\n"

    def test_sweep_member_with_a_missing_snapshot(self, tmp_path, capsys):
        from torusflow import SpectralField, write_snapshot

        good = tmp_path / "good.txt"
        write_snapshot(SpectralField.from_modes(4, [((1, 0), 0.01), ((-1, 0), 0.01)]), good)
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp, initial_data={"kind": "snapshot", "path": str(good)})
        axesp = tmp_path / "axes.json"
        axesp.write_text(json.dumps({"axes": [{"path": "initial_data.path",
                                               "values": [str(tmp_path / "nope.txt"),
                                                          str(good)]}]}))
        assert main(["sweep", str(cfgp), str(axesp), "--outdir", str(tmp_path / "sw")]) == 0
        with open(tmp_path / "sw" / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == ["config_error", "completed"]
        assert rows[0]["error"] == f"initial_data.path: {tmp_path / 'nope.txt'}: no such file"


class TestEntryPoint:
    def test_console_script_runs(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp)
        proc = subprocess.run(
            [sys.executable, "-m", "torusflow.cli", "check", str(cfgp)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["theorems"]

    def test_check_leaves_numpy_fft_unloaded(self, tmp_path):
        # the transform plans bind numpy's pocketfft gufuncs when the first is
        # built, so starting up and checking a config import no numpy.fft
        cfgp = tmp_path / "cfg.json"
        write_config(cfgp)
        code = ("import sys, torusflow\n"
                f"torusflow.check_only(torusflow.load_config({str(cfgp)!r}))\n"
                "print('numpy.fft' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_readme_library_use_runs(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        scope = {}
        exec(readme.split("```python\n", 1)[1].split("```", 1)[0], scope)
        assert scope["report"].satisfied
        assert scope["out"].status == "completed"
        assert scope["verdict"].passed

    def test_runtime_imports_no_scipy(self, tmp_path):
        code = (
            "import sys, torusflow\n"
            "from torusflow.cli import main\n"
            f"torusflow.check_only(torusflow.load_config({str(CORPUS / 'readme.json')!r}))\n"
            f"assert main(['simulate', {str(CORPUS / 'tf.json')!r}, '--outdir', {str(tmp_path)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
