import copy
import csv
import gc
import inspect
import json
import tracemalloc

import numpy as np
import pytest

from torusflow import ConfigError, parse_config, read_trace_csv, run_sweep, simulate
from torusflow import EpitaxialParams, config, driver, execute_run, sweep
from torusflow.models import make_rhs
from torusflow.driver import _prepare
from torusflow.sweep import SUMMARY_FIXED_FIELDS, expand_axes, set_by_path
from oracles import per_line_snapshot


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
    def test_an_object_axis_value_is_copied_into_each_member(self, tmp_path):
        # a later axis path writes into each member's copy of the object:
        # the summary shows the object as the axes give it in every row, the
        # caller's dicts are not written into, and each member's report is
        # its solo run's
        base = base_config()
        obj = base.pop("initial_data")
        values = [0.02, 0.05]
        axes = [("initial_data", [obj]), ("initial_data.normalize.value", values)]
        given = copy.deepcopy((base, axes))
        rows = run_sweep(base, axes, str(tmp_path / "sweep"))
        assert (base, axes) == given
        assert [row["initial_data"] for row in rows] == [given[1][0][1][0]] * 2
        with open(tmp_path / "sweep" / "summary.csv", newline="") as fh:
            assert [r["initial_data"] for r in csv.DictReader(fh)] == [str(given[1][0][1][0])] * 2
        for i, value in enumerate(values):
            run_dir = str(tmp_path / "sweep" / f"run_{i:04d}")
            member = {**given[0], "initial_data": copy.deepcopy(obj), "outputs": {"directory": run_dir}}
            member["initial_data"]["normalize"]["value"] = value
            execute_run(parse_config(member), str(tmp_path / f"solo{i}"))
            report, solo = (json.loads((d / "report.json").read_text())
                            for d in (tmp_path / "sweep" / f"run_{i:04d}", tmp_path / f"solo{i}"))
            assert report["config"]["initial_data"]["normalize"]["value"] == value
            for key in ("config", "initial_norms", "theorems", "envelope"):
                assert report[key] == solo[key], key
            assert report["run"]["final_norms"] == solo["run"]["final_norms"]

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

    def test_float_max_initial_data_is_a_config_error_row(self, tmp_path):
        axes = [("initial_data", [
            {"kind": "modes", "modes": [[3, 3, 1e306, 0], [-3, -3, 1e306, 0]],
             "normalize": {"norm": "a4", "value": 1.0}},
            {"kind": "modes", "modes": [[1, 0, 1e308, 0], [-1, 0, 1e308, 0]]},
            {"kind": "modes", "modes": [[1, 0, 1.5e308, 1.5e308], [-1, 0, 1.5e308, -1.5e308]]},
        ])]
        rows = run_sweep(base_config(), axes, str(tmp_path))
        assert [r["status"] for r in rows] == ["config_error"] * 3

    def test_axis_errors_reported_at_once(self, tmp_path):
        with pytest.raises(ConfigError) as e:
            run_sweep(base_config(), [(5, [1]), ("seed", [])], str(tmp_path))
        assert e.value.errors == ["axes[0].path: must be a nonempty string, got 5",
                                  "axes[1].values: must be a nonempty list"]

    def test_axis_path_through_a_scalar_fails_before_any_member(self, tmp_path):
        axes = [("params.K1.x", [1]), ("params..K2", [1]), ("seed", [1])]
        with pytest.raises(ConfigError) as e:
            run_sweep(base_config(), axes, str(tmp_path / "sw"))
        assert e.value.errors == [
            "axes[0].path: parameter path 'params.K1.x' descends into non-object 'K1'",
            "axes[1].path: invalid parameter path 'params..K2'",
        ]
        assert not (tmp_path / "sw").exists()

    def test_axis_value_that_is_not_an_object_is_a_config_error_row(self, tmp_path):
        axes = [("params", [{"K0": 0.0, "K1": 0.25, "K2": 1.0}, 5]), ("params.K3", [0.25])]
        rows = run_sweep(base_config(), axes, str(tmp_path))
        assert [r["status"] for r in rows] == ["completed", "config_error"]
        assert "descends into non-object 'params'" in rows[1]["error"]

    def test_non_object_base_config_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError) as e:
            run_sweep([1], [("seed", [1])], str(tmp_path / "sw"))
        assert e.value.errors == ["config: must be a JSON object"]

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


MIXED = {
    # (params, blow-up threshold, A^0 of each member): completes, blows up
    # early, blows up late, threshold below A^0, snapshot write fails
    "epitaxial": ({"K0": 0.0, "K1": 5.0, "K2": 0.05, "K3": 0.0}, 20.0, [0.1, 3.0, 0.5, 25.0, 0.2]),
    "thinfilm": ({"chi": 0.9, "p": 5}, 10.0, [0.3, 2.5, 1.0, 12.0, 0.2]),
}
MIXED_STATUSES = ["completed", "blowup_detected", "blowup_detected", "config_error", "config_error"]
AXIS = "initial_data.normalize.value"


def mixed_base(model):
    params, threshold, _ = MIXED[model]
    return {
        "model": model, "n": 6, "params": params, "seed": 5,
        "initial_data": {"kind": "random_decay", "amplitude": 0.1, "sigma": 2.0,
                         "normalize": {"norm": "a0", "value": 1.0}},
        "stepper": {"dt": 1e-3, "t_end": 0.1, "record_every": 3, "blowup_threshold": threshold},
        "outputs": {"snapshot_every": 10},
    }


def block_snapshot(run_dir):
    # a directory where the step-10 snapshot goes is a config error before the march
    (run_dir / "snapshot_00000010.txt").mkdir(parents=True)


class TestBatchIsolation:
    @pytest.mark.parametrize("model", ["epitaxial", "thinfilm"])
    @pytest.mark.parametrize("blocked", [False, True])
    def test_members_get_their_solo_rows_and_traces(self, tmp_path, monkeypatch, model, blocked):
        # unblocked, the four valid members march as one batch; blocked,
        # member 4's snapshot path is a directory, and the other three march
        values = MIXED[model][2]
        statuses = MIXED_STATUSES if blocked else MIXED_STATUSES[:4] + ["completed"]
        batches = []
        march = driver.simulate_batch
        monkeypatch.setattr(driver, "simulate_batch",
                            lambda u0s, *a: batches.append(len(u0s)) or march(u0s, *a))
        if blocked:
            block_snapshot(tmp_path / "batch" / "run_0004")
        rows = run_sweep(mixed_base(model), [(AXIS, values)], str(tmp_path / "batch"))
        assert batches[0] == (3 if blocked else 4)
        assert [r["status"] for r in rows] == statuses
        if blocked:
            snapshot = tmp_path / "batch" / "run_0004" / "snapshot_00000010.txt"
            assert rows[4]["error"] == f"output file {snapshot}: Is a directory"
            assert not [p for p in snapshot.parent.iterdir() if p.is_file()]  # nothing written

        times = []
        for i, (value, row) in enumerate(zip(values, rows)):
            batch_dir = tmp_path / "batch" / f"run_{i:04d}"
            solo_dir = tmp_path / f"solo{i}"
            if blocked and i == 4:
                block_snapshot(solo_dir / "run_0000")
            base = mixed_base(model)
            set_by_path(base, AXIS, value)
            (solo,) = run_sweep(base, [], str(solo_dir))
            want = {k: solo[k] for k in SUMMARY_FIXED_FIELDS}
            got = {k: row[k] for k in SUMMARY_FIXED_FIELDS}
            if got["error"] is not None:
                got["error"] = got["error"].replace(str(batch_dir), "RUN")
                want["error"] = want["error"].replace(str(solo_dir / "run_0000"), "RUN")
            assert got == want, i
            if row["status"] not in ("completed", "blowup_detected"):
                continue

            # the member's outputs against its own simulate
            cfg = parse_config(base)
            out = simulate(_prepare([cfg])[0][0], cfg.params, cfg.stepper, cfg.model)
            assert out.status == row["status"]
            final_time = json.loads((batch_dir / "report.json").read_text())["run"]["final_time"]
            assert final_time == out.final_time
            times.append(final_time)
            trace = read_trace_csv(batch_dir / "trace.csv")
            for name in ("t", "a0", "a2", "a4", "a6", "mean", "dt_used"):
                np.testing.assert_allclose(getattr(trace, name), getattr(out.trace, name),
                                           rtol=1e-14, atol=0)
        assert times[1] < times[2] < times[0]

    def test_a_write_failing_in_the_march_is_that_members_error_row(self, tmp_path, monkeypatch):
        # the batch raises in member 4's step-10 snapshot; every member reruns alone
        base, values = mixed_base("epitaxial"), MIXED["epitaxial"][2]
        want = run_sweep(base, [(AXIS, values)], str(tmp_path / "ok"))
        write, batches, march = driver._write_snapshot, [], driver.simulate_batch

        def failing(field, path, layout):
            if path.endswith("run_0004/snapshot_00000010.txt"):
                raise OSError(28, "No space left on device")
            write(field, path, layout)

        monkeypatch.setattr(driver, "_write_snapshot", failing)
        monkeypatch.setattr(driver, "simulate_batch",
                            lambda u0s, *a: batches.append(len(u0s)) or march(u0s, *a))
        rows = run_sweep(base, [(AXIS, values)], str(tmp_path / "failing"))
        assert batches == [4, 1, 1, 1, 1]
        assert rows[4]["status"] == "config_error"
        snapshot = tmp_path / "failing" / "run_0004" / "snapshot_00000010.txt"
        assert rows[4]["error"] == f"output file {snapshot}: No space left on device"
        assert rows[:4] == want[:4]
        # the failed batch removed what it wrote; the solo reruns rewrote runs 0-3
        assert not list(snapshot.parent.glob("snapshot_*"))

        def snapshots(sweep_dir, i):
            return {p.name: p.read_bytes() for p in (tmp_path / sweep_dir / f"run_{i:04d}").glob("snapshot_*")}

        assert snapshots("failing", 0)
        assert all(snapshots("failing", i) == snapshots("ok", i) for i in range(4))

    def test_a_batch_failing_otherwise_leaves_no_stale_snapshot(self, tmp_path, monkeypatch):
        # the batch writes every member's snapshots, then raises a RuntimeError;
        # in the solo reruns member 4's step-10 snapshot write fails, and none
        # of the batch's snapshots of member 4 may outlive that
        base, values = mixed_base("epitaxial"), MIXED["epitaxial"][2]
        want = run_sweep(base, [(AXIS, values)], str(tmp_path / "ok"))
        write, march, solo = driver._write_snapshot, driver.simulate_batch, []

        def failing(field, path, layout):
            if solo and path.endswith("run_0004/snapshot_00000010.txt"):
                raise OSError(28, "No space left on device")
            write(field, path, layout)

        def batch_then_raise(u0s, *a):
            outcomes = march(u0s, *a)
            if len(u0s) > 1:
                raise RuntimeError("after the march")
            solo.append(1)
            return outcomes

        monkeypatch.setattr(driver, "_write_snapshot", failing)
        monkeypatch.setattr(driver, "simulate_batch", batch_then_raise)
        rows = run_sweep(base, [(AXIS, values)], str(tmp_path / "failing"))
        assert rows[4]["status"] == "config_error" and rows[:4] == want[:4]
        assert not list((tmp_path / "failing" / "run_0004").glob("snapshot_*"))

        def snapshots(sweep_dir, i):
            return {p.name: p.read_bytes() for p in (tmp_path / sweep_dir / f"run_{i:04d}").glob("snapshot_*")}

        assert snapshots("failing", 0)
        assert all(snapshots("failing", i) == snapshots("ok", i) for i in range(4))

    def test_a_failed_batch_reruns_each_member_from_its_prepared_state(self, tmp_path,
                                                                        monkeypatch):
        base, values = mixed_base("epitaxial"), MIXED["epitaxial"][2]
        want = run_sweep(base, [(AXIS, values)], str(tmp_path / "batched"))
        march, prepare, prepared = driver.simulate_batch, driver._prepare, []

        def solo_only(u0s, *a):
            if len(u0s) > 1:
                raise RuntimeError("no batches")
            return march(u0s, *a)

        def counted(cfgs, *args):
            prepared.extend(cfg.initial_data.normalize.value for cfg in cfgs)
            return prepare(cfgs, *args)

        monkeypatch.setattr(driver, "simulate_batch", solo_only)
        monkeypatch.setattr(driver, "_prepare", counted)
        monkeypatch.setattr(sweep, "_prepare", counted)
        got = run_sweep(base, [(AXIS, values)], str(tmp_path / "solo"))
        assert prepared == values  # once each, the initial data generated once
        assert got == want
        for i in (0, 1, 2, 4):
            trace = f"run_{i:04d}/trace.csv"
            assert (tmp_path / "solo" / trace).read_bytes() == (tmp_path / "batched" / trace).read_bytes()

    def test_thin_film_batch_writes_the_solo_bytes(self, tmp_path, monkeypatch):
        # every norm is correctly rounded, so a batched member's trace and
        # snapshots are its solo run's, byte for byte
        base = {
            "model": "thinfilm", "n": 8, "params": {"chi": 0.3, "p": 3}, "seed": 5,
            "initial_data": {"kind": "random_decay", "amplitude": 0.05, "sigma": 2.0,
                             "normalize": {"norm": "a0", "value": 0.05}},
            "stepper": {"dt": 1e-3, "t_end": 0.02, "record_every": 1},
            "outputs": {"snapshot_every": 3},
        }
        values = [0.02, 0.05, 0.08]
        batches = []
        march = driver.simulate_batch
        monkeypatch.setattr(driver, "simulate_batch",
                            lambda u0s, *a: batches.append(len(u0s)) or march(u0s, *a))
        run_sweep(base, [(AXIS, values)], str(tmp_path / "batch"))
        assert batches == [3]
        for i, value in enumerate(values):
            solo_base = json.loads(json.dumps(base))
            set_by_path(solo_base, AXIS, value)
            run_sweep(solo_base, [], str(tmp_path / f"solo{i}"))
            batch_dir, solo_dir = tmp_path / "batch" / f"run_{i:04d}", tmp_path / f"solo{i}" / "run_0000"
            names = sorted(p.name for p in solo_dir.iterdir() if p.suffix in (".csv", ".txt"))
            assert len(names) == 9  # the trace and snapshots at steps 0, 3, ..., 18 and 20
            assert sorted(p.name for p in batch_dir.iterdir() if p.suffix in (".csv", ".txt")) == names
            for name in names:
                assert (batch_dir / name).read_bytes() == (solo_dir / name).read_bytes(), (i, name)

    def test_snapshots_are_the_per_line_writers_bytes(self, tmp_path, monkeypatch):
        # two members at n = 3, then two at n = 5, each pair one batch whose
        # writers share one snapshot layout, built for that batch
        base = {
            "model": "thinfilm", "n": 3, "params": {"chi": 0.3, "p": 3}, "seed": 4,
            "initial_data": {"kind": "random_decay", "amplitude": 0.05, "sigma": 3.0,
                             "normalize": {"norm": "a0", "value": 0.05}},
            "stepper": {"dt": 1e-3, "t_end": 5e-3}, "outputs": {"snapshot_every": 1},
        }
        want, batches = {}, []
        write, march = driver._write_snapshot, driver.simulate_batch

        def oracle(field, path, layout):
            per_line_snapshot(field, tmp_path / "oracle.txt")
            want[path] = (tmp_path / "oracle.txt").read_bytes()
            write(field, path, layout)

        monkeypatch.setattr(driver, "_write_snapshot", oracle)
        monkeypatch.setattr(driver, "simulate_batch",
                            lambda u0s, *a: batches.append(len(u0s)) or march(u0s, *a))
        rows = run_sweep(base, [("n", [3, 5]), (AXIS, [0.02, 0.05])], str(tmp_path / "sweep"))
        assert [r["status"] for r in rows] == ["completed"] * 4
        assert batches == [2, 2]
        written = sorted(str(p) for p in (tmp_path / "sweep").glob("run_*/snapshot_*.txt"))
        assert len(written) == 4 * 6 and written == sorted(want)
        for path in written:
            with open(path, "rb") as fh:
                assert fh.read() == want[path], path

    def test_members_share_one_generation_and_write_their_solo_bytes(self, tmp_path, monkeypatch):
        # one batch: two seeds of one random datum at two A^2 values each, a
        # modes member, a member whose rescale overflows and a snapshot member
        # whose file is missing
        base = {
            "model": "epitaxial", "n": 5, "params": {"K0": 0.0, "K1": 0.25, "K2": 1.0, "K3": 0.25},
            "initial_data": {"kind": "modes", "modes": [[1, 0, 0.1, 0]]},
            "stepper": {"dt": 1e-3, "t_end": 0.02, "record_every": 3},
            "outputs": {"snapshot_every": 4},
        }
        data = [
            {"kind": "random_decay", "amplitude": 0.1, "sigma": 3.0,
             "normalize": {"norm": "a2", "value": 0.3}},
            {"kind": "random_decay", "amplitude": 0.1, "sigma": 3.0,
             "normalize": {"norm": "a2", "value": 0.6}},
            {"kind": "modes", "modes": [[1, 2, 0.1, 0.05], [-1, -2, 0.1, -0.05]],
             "normalize": {"norm": "a0", "value": 0.4}},
            {"kind": "modes", "zero_mean": False,
             "modes": [[0, 0, 1e300, 0], [1, 0, 1e-290, 0], [-1, 0, 1e-290, 0]],
             "normalize": {"norm": "a2", "value": 1e10}},
            {"kind": "snapshot", "path": "no_such_snapshot.txt"},
        ]
        axes = [("seed", [3, 4]), ("initial_data", data)]
        made, batches = [], []
        generate, march = config._generate, driver.simulate_batch
        monkeypatch.setattr(config, "_generate",
                            lambda spec, n, seed: made.append((spec.kind, seed)) or generate(spec, n, seed))
        monkeypatch.setattr(driver, "simulate_batch",
                            lambda u0s, *a: batches.append(len(u0s)) or march(u0s, *a))
        (tmp_path / "batch").mkdir()
        monkeypatch.chdir(tmp_path / "batch")
        run_sweep(base, axes, "warm")  # the modules generation imports stay loaded
        made.clear()
        batches.clear()
        lines, first = inspect.getsourcelines(generate)
        gc.disable()  # freed by reference counts, not by a cycle collection that may come later
        tracemalloc.start(32)
        try:
            rows = run_sweep(base, axes, "sweep")
            arrays = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        finally:
            tracemalloc.stop()
            gc.enable()
        # no array of a generated field outlives the sweep
        assert not [t for t in arrays.traces
                    if any(f.filename == config.__file__ and first <= f.lineno < first + len(lines)
                           for f in t.traceback)]
        assert batches == [6]
        # one generation per distinct datum: the two random_decay members of a seed share one
        assert sorted(made) == sorted((kind, seed) for seed in (3, 4)
                                      for kind in ("random_decay", "modes", "modes", "snapshot"))
        assert [r["status"] for r in rows] == (["completed"] * 3 + ["config_error"] * 2) * 2

        (tmp_path / "solo").mkdir()
        monkeypatch.chdir(tmp_path / "solo")
        _, combos = expand_axes(axes)
        for i, (row, combo) in enumerate(zip(rows, combos)):
            run_dir = f"sweep/run_{i:04d}"
            cfg = parse_config(sweep._member_config(base, combo, run_dir))
            want = {"run_id": i, **combo, **dict.fromkeys(SUMMARY_FIXED_FIELDS)}
            try:
                sweep._fill(want, execute_run(cfg))
            except ConfigError as e:
                want.update(status="config_error", error="; ".join(e.errors))
            assert row == want, i
            batch_dir, solo_dir = tmp_path / "batch" / run_dir, tmp_path / "solo" / run_dir
            listing = lambda d: sorted(p.name for p in d.iterdir()) if d.exists() else []
            names = listing(solo_dir)
            assert len(names) == (0 if row["error"] else 8)  # trace, report, snapshots 0, 4, ..., 20
            assert listing(batch_dir) == names
            for name in names:
                assert (batch_dir / name).read_bytes() == (solo_dir / name).read_bytes(), (i, name)
        assert rows[3]["error"] == ("initial_data.normalize: a2 = 10000000000.0: "
                                    "rescaling the generated field overflows the float range")
        assert rows[4]["error"] == "initial_data.path: no_such_snapshot.txt: no such file"

    def test_batches_follow_the_cap(self, tmp_path, monkeypatch):
        base, values = mixed_base("epitaxial"), MIXED["epitaxial"][2]
        want = run_sweep(base, [(AXIS, values)], str(tmp_path / "uncapped"))
        batches = []
        march = driver.simulate_batch
        monkeypatch.setattr(driver, "simulate_batch",
                            lambda u0s, *a: batches.append(len(u0s)) or march(u0s, *a))
        monkeypatch.setattr(sweep, "BATCH_POINTS", 2 * make_rhs("epitaxial", 6, EpitaxialParams(
            **base["params"])).points)
        got = run_sweep(base, [(AXIS, values)], str(tmp_path / "capped"))
        assert batches == [2, 1, 1]  # member 3 is a config error
        assert got == want

    def test_each_member_checks_its_outputs_once(self, tmp_path, monkeypatch):
        # _run_batch checks them, so that a refused member is a config_error
        # row; the march does not check them again
        checked, check = [], driver.make_run_dir

        def counting(cfg, outdir):
            checked.append(outdir)
            return check(cfg, outdir)

        monkeypatch.setattr(driver, "make_run_dir", counting)
        monkeypatch.setattr(sweep, "make_run_dir", counting)
        rows = run_sweep(mixed_base("epitaxial"), [(AXIS, MIXED["epitaxial"][2])], str(tmp_path))
        ran = [str(tmp_path / f"run_{r['run_id']:04d}") for r in rows if r["status"] != "config_error"]
        assert len(ran) == 4 and checked == ran

    def test_a_member_whose_march_raises_otherwise_is_an_error_row(self, tmp_path, monkeypatch):
        # the sweep's own catch-all: any batch that holds member 1 raises a
        # RuntimeError, alone too; the other members write a sweep's bytes
        # without it
        axis, march = "stepper.blowup_threshold", driver.simulate_batch
        base = base_config()
        base["outputs"]["snapshot_every"] = 5

        def failing(u0s, params, steppers, *args):
            if any(s.blowup_threshold == 2e3 for s in steppers):
                raise RuntimeError("injected fault")
            return march(u0s, params, steppers, *args)

        run_sweep(base, [(axis, [1e3, 3e3])], str(tmp_path / "without"))
        monkeypatch.setattr(driver, "simulate_batch", failing)
        rows = run_sweep(base, [(axis, [1e3, 2e3, 3e3])], str(tmp_path / "with"))
        assert [(r["status"], r["error"]) for r in rows] == [
            ("completed", None), ("error", "RuntimeError: injected fault"), ("completed", None)]
        lines = {d: (tmp_path / d / "summary.csv").read_text().splitlines() for d in ("with", "without")}
        for got, want in ((0, 0), (2, 1)):
            assert lines["with"][got + 1].split(",")[1:] == lines["without"][want + 1].split(",")[1:]
            got_dir = tmp_path / "with" / f"run_{got:04d}"
            want_dir = tmp_path / "without" / f"run_{want:04d}"
            files = sorted(p.name for p in want_dir.iterdir())
            assert sorted(p.name for p in got_dir.iterdir()) == files and "snapshot_00000020.txt" in files
            for name in files:
                assert (got_dir / name).read_bytes() == (want_dir / name).read_bytes().replace(
                    str(want_dir).encode(), str(got_dir).encode()), name
