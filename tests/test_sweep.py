import csv

import pytest

from torusflow import ConfigError, run_sweep
from torusflow.sweep import expand_axes, set_by_path


def base_config(outdir="."):
    return {
        "model": "epitaxial",
        "n": 4,
        "params": {"K0": 0.0, "K1": 0.25, "K2": 1.0, "K3": 0.25},
        "initial_data": {"kind": "random_decay", "amplitude": 0.05, "sigma": 3.0,
                         "normalize": {"norm": "a2", "value": 0.3}},
        "stepper": {"dt": 0.01, "t_end": 0.2},
        "outputs": {"directory": outdir},
        "seed": 3,
    }


class TestPaths:
    def test_set_by_path_nested(self):
        d = {"a": {"b": 1}}
        set_by_path(d, "a.b", 2)
        set_by_path(d, "a.c.d", 3)
        assert d == {"a": {"b": 2, "c": {"d": 3}}}

    def test_set_by_path_through_scalar_fails(self):
        with pytest.raises(ValueError):
            set_by_path({"a": 5}, "a.b", 1)

    def test_expand_axes_row_major(self):
        paths, combos = expand_axes([("x", [1, 2]), ("y", ["a", "b"])])
        assert paths == ["x", "y"]
        assert combos == [{"x": 1, "y": "a"}, {"x": 1, "y": "b"},
                          {"x": 2, "y": "a"}, {"x": 2, "y": "b"}]

    def test_empty_axes_single_run(self):
        paths, combos = expand_axes([])
        assert paths == []
        assert combos == [{}]


class TestRunSweep:
    def test_empty_axes_gives_one_row(self, tmp_path):
        rows = run_sweep(base_config(), [], str(tmp_path))
        assert len(rows) == 1
        assert rows[0]["status"] == "completed"
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "run_0000" / "trace.csv").exists()
        assert (tmp_path / "run_0000" / "report.json").exists()

    def test_two_by_two_with_one_failing_run(self, tmp_path):
        axes = [("params.K2", [1.0, 0.0]),  # K2 = 0 violates the domain
                ("stepper.dt", [0.01, 0.02])]
        rows = run_sweep(base_config(), axes, str(tmp_path))
        assert len(rows) == 4
        statuses = [r["status"] for r in rows]
        assert statuses.count("config_error") == 2
        assert statuses.count("completed") == 2
        failing = [r for r in rows if r["status"] == "config_error"]
        assert all("K2 > 0" in r["error"] for r in failing)

    def test_oversized_integer_is_a_config_error_row(self, tmp_path):
        rows = run_sweep(base_config(), [("seed", [3, 10**31])], str(tmp_path))
        assert [r["status"] for r in rows] == ["completed", "config_error"]

    def test_overflowing_initial_norm_is_a_config_error_row(self, tmp_path):
        axes = [("initial_data", [{"kind": "modes", "modes": [[3, 3, 1e-3, 0], [-3, -3, 1e-3, 0]]},
                                  {"kind": "modes", "modes": [[3, 3, 1e306, 0], [-3, -3, 1e306, 0]]}])]
        rows = run_sweep(base_config(), axes, str(tmp_path))
        assert [r["status"] for r in rows] == ["completed", "config_error"]
        assert "Wiener norm a4" in rows[1]["error"]

    def test_threshold_flip_matches_checker(self, tmp_path):
        # margin = K2 - 2 (K1 + K3) a2 = 1 - a2: flips at a2 = 1
        values = [0.25, 0.75, 1.25, 1.75]
        rows = run_sweep(base_config(), [("initial_data.normalize.value", values)],
                         str(tmp_path))
        for v, row in zip(values, rows):
            assert row["satisfied"] == (1.0 - v > 0)
            assert row["margin"] == pytest.approx(1.0 - v, abs=1e-12)

    def test_summary_csv_shape(self, tmp_path):
        values = [0.2, 0.4]
        run_sweep(base_config(), [("initial_data.normalize.value", values)], str(tmp_path))
        with open(tmp_path / "summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["run_id", "initial_data.normalize.value"]
        assert len(rows) == 3

    def test_cap_enforced(self, tmp_path):
        with pytest.raises(ConfigError, match="cap"):
            run_sweep(base_config(), [("seed", list(range(10)))], str(tmp_path),
                      max_runs=5)

    def test_deterministic_across_worker_counts(self, tmp_path):
        axes = [("seed", [1, 2, 3, 4])]
        r1 = run_sweep(base_config(), axes, str(tmp_path / "w1"))
        r4 = run_sweep(base_config(), axes, str(tmp_path / "w4"))
        for a, b in zip(r1, r4):
            assert a == b
        assert ((tmp_path / "w1" / "summary.csv").read_text()
                == (tmp_path / "w4" / "summary.csv").read_text())
