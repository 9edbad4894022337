"""The command-line contracts: one table of rows, and its runner.

    python tests/contracts.py COMMAND

runs every row through COMMAND (split like a shell line: `torusflow` for the
installed console script, or "python -m torusflow.cli"), each row in a new
temporary directory, prints each row's id and wall time, and exits 1 if any
row fails, else 0.  tests/test_contracts.py runs the same rows in-process
through cli.main.  Standard library only.

A row names its command over the config corpus, tests/configs/: an argv token
that names a corpus file is copied into the row's directory first.  Its setup
writes configs derived from corpus configs by dotted-path overrides, writes
files (a name ending in "/" is a directory), runs commands before it (each
must exit 0), and sets standard output (the null device, a full device, or a
pipe with no reader).  Then it checks the exit code, standard error (empty,
CONFIG: every line a config error, or these exact lines) and the files left.
A row named Class::test[case] keeps the id of the test it replaced.
"""

from __future__ import annotations

import argparse
import csv
import errno
import glob
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

CORPUS = Path(__file__).resolve().parent / "configs"
CONFIG = "every line a config error"
TIMEOUT = 60  # seconds per command through a console script
FULL = [f"config error: standard output: {os.strerror(errno.ENOSPC)}"]


class Row(NamedTuple):
    id: str
    argv: str
    exit: int
    err: object = ()  # CONFIG, or the exact lines
    configs: dict = {}  # name -> (corpus name, {dotted path: value})
    files: dict = {}  # name -> text or bytes; a name ending in "/" is a directory
    before: tuple = ()  # argv lines
    stdout: str = os.devnull  # or "/dev/full", or "pipe": a pipe with no reader
    left: tuple = ()  # rules on the files left, below


def corpus(name: str) -> dict:
    return json.loads((CORPUS / f"{name}.json").read_text())


def derive(name: str, overrides: dict) -> dict:
    cfg = corpus(name)
    for path, value in overrides.items():
        *keys, last = path.split(".")
        obj = cfg
        for key in keys:
            obj = obj[key]
        obj[last] = value
    return cfg


# Rules on the files left: each gives a false value, or what is wrong.
def absent(path):
    return lambda: os.path.lexists(path) and f"{path} exists"


def listing(path, *names):
    def rule():
        got = sorted(os.listdir(path)) if os.path.isdir(path) else None
        return got != sorted(names) and f"{path} holds {got}, not {sorted(names)}"
    return rule


def no_files(path):
    def rule():
        found = [os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs]
        return (found or not os.path.isdir(path)) and f"{path}: no directory, or files {found}"
    return rule


def same(a, b, rows=(slice(None), slice(None)), cols=None):
    """a and b (globs that match the same names) hold the same bytes; or, with
    cols, the CSV cells in rows (one slice per side) and cols are equal."""
    def content(path, sl):
        if cols is None:
            return Path(path).read_bytes()
        return [line.split(",")[cols] for line in Path(path).read_text().splitlines()[sl]]

    def rule():
        pa, pb = sorted(glob.glob(a)), sorted(glob.glob(b))
        names = [[os.path.basename(p) for p in ps] for ps in (pa, pb)]
        if not pa or len(pa) != len(pb) or ("*" in a and names[0] != names[1]):
            return f"{a} and {b} match {pa} and {pb}"
        return next((f"{x} and {y} differ" for x, y in zip(pa, pb)
                     if content(x, rows[0]) != content(y, rows[1])), None)
    return rule


def column(path, name, values):
    def rule():
        with open(path, newline="") as fh:
            got = [r[name] for r in csv.DictReader(fh)]
        return got != values and f"{path} column {name} is {got}, not {values}"
    return rule


def json_at(path, key, value):
    """path is strict JSON (no NaN or Infinity) and holds value at the dotted key."""
    def rule():
        def refuse(token):
            raise ValueError(f"{path} is not strict JSON: {token}")
        try:
            got = json.loads(Path(path).read_text(), parse_constant=refuse)
        except ValueError as e:
            return str(e)
        for k in key.split("."):
            got = got[int(k) if isinstance(got, list) else k]
        return got != value and f"{path} {key} is {got!r}, not {value!r}"
    return rule


def _snapshot(header, first=None):
    """A cutoff-1 snapshot of zeros under header, its first mode line replaced by first."""
    lines = [f"{k1} {k2} 0 0" for k1 in (-1, 0, 1) for k2 in (-1, 0, 1)]
    lines[0] = first or lines[0]
    return "\n".join([f"torusflow-spectral v1 {header}", *lines]) + "\n"


MALFORMED_SNAPSHOTS = (
    ("empty", "", "empty snapshot file"),
    ("header", "not a snapshot\n", "bad snapshot header 'not a snapshot'"),
    ("short", "torusflow-spectral v1 n=1\n0 0 1 0\n", "expected 9 mode lines, found 1"),
    ("binary", b"\xff\xfe\x00", "not a text snapshot file"),
    ("cutoff_text", _snapshot("n=one"), "bad cutoff in header 'torusflow-spectral v1 n=one'"),
    ("cutoff_below_one", _snapshot("n=0"), "cutoff must be >= 1, got 0"),
    ("field_count", _snapshot("n=1", "-1 -1 0"), "malformed mode line '-1 -1 0'"),
    ("non_numeric", _snapshot("n=1", "-1 -1 zero 0"), "malformed mode line '-1 -1 zero 0'"),
    ("outside_cutoff", _snapshot("n=1", "2 -1 0 0"), "mode (2, -1) outside cutoff 1"),
    ("non_finite", _snapshot("n=1", "-1 -1 nan 0"), "non-finite coefficient"),
)
UNWRITABLE_OUTPUTS = (  # a missing parent, a parent that is a file, a file two outputs name
    ("missing-trace-parent", {"trace_csv": "sub/t.csv"}, "sub/t.csv: No such file or directory"),
    ("missing-snapshot-parent", {"snapshot_prefix": "snaps/s"},
     "snaps/s_00000000.txt: No such file or directory"),
    ("report-parent-is-a-file", {"report_json": "../afile/r.json"}, "../afile/r.json: Not a directory"),
    ("trace-is-report", {"trace_csv": "report.json"},
     "report.json: named by both outputs.trace_csv and outputs.report_json"),
    ("trace-is-snapshot", {"trace_csv": "snapshot_00000020.txt"},
     "snapshot_00000020.txt: outputs.trace_csv names the snapshot of step 20"),
    ("report-is-snapshot", {"report_json": "./snapshot_00000040.txt"},
     "./snapshot_00000040.txt: outputs.report_json names the snapshot of step 40"),
)
SIMULATE_TF = "simulate tf.json --outdir tf_out"
UNNAMEABLE = [("nul", "trace_csv", "a\0b.csv"), ("nul", "directory", "d\0"), ("nul", "snapshot_prefix", "s\0"),
              ("surrogate", "report_json", "r\ud800.json")]
PATH_RULE = "must be a nonempty string the file system can name"
DEEP = "[" * 100000 + "]" * 100000
DEEP_KEY = json.dumps(corpus("tf"))[:-1] + ', "deep": ' + '{"k": ' * 600 + "1" + "}" * 600 + "}"
OVERFLOW = "the time of the last step, 2 x dt, passes the float range"
SNAPSHOT_AT = {"snap.json": ("nosnap", {"initial_data.path": "snap.txt"})}
FILE_ERRORS = "TestFileErrors::"
FALLBACK = "TestFallbackInputs::"

ROWS = [
    # the thin-film run of the CI: check, simulate, verify, restart, sweep
    Row("check-tf", "check tf.json", 0),
    Row("simulate-tf", SIMULATE_TF, 0),
    # a large negative rate overflows the envelope: verify still gives its verdict
    Row("verify-overflowing-envelope", "verify tf_out/trace.csv --lambda -99890", 0,
        before=(SIMULATE_TF,)),
    # restarted from its own snapshot at step 10, with t_end cut by 10 dt, the
    # run reads the snapshot back and ends with the same norms and final snapshot
    Row("restart-from-snapshot", "simulate restart.json --outdir restart_out", 0,
        configs={"restart.json": ("tf", {"initial_data": {"kind": "snapshot",
                                                          "path": "tf_out/snapshot_00000010.txt"},
                                         "stepper.t_end": 0.01})},
        before=(SIMULATE_TF,),
        left=(same("tf_out/snapshot_00000020.txt", "restart_out/snapshot_00000010.txt"),
              same("tf_out/trace.csv", "restart_out/trace.csv",
                   rows=(slice(-3, None), slice(1, None)), cols=slice(1, 5)))),
    Row("sweep-tf", "sweep tf.json axes.json --outdir sweep_out", 0,
        left=(column("sweep_out/summary.csv", "status", ["completed"] * 2),)),
    # each member alone writes the bytes the batched sweep wrote for it
    *(Row(f"sweep-member-{i}-alone", f"simulate member.json --outdir solo{i}", 0,
          configs={"member.json": ("tf", {"initial_data.normalize.value": value})},
          before=("sweep tf.json axes.json --outdir sweep_out",),
          left=(same(f"solo{i}/trace.csv", f"sweep_out/run_000{i}/trace.csv"),
                same(f"solo{i}/snapshot_*.txt", f"sweep_out/run_000{i}/snapshot_*.txt")))
      for i, value in enumerate(corpus("axes")["axes"][0]["values"])),
    # the verdict paths: a blow-up with snapshots, an IMEX1 numerical failure,
    # and ETD2 weights whose z^2 overflows
    Row("TestSimulateCommand::test_blowup_exit_code", "simulate blowup.json --outdir blowup_out", 4),
    Row("imex1-numerical-failure", "simulate failure.json --outdir failure_out", 3),
    Row("etd2-weights-overflow", "simulate bigk2.json --outdir bigk2_out", 0),
    # a zero norm times an overflowing coefficient is 0: the margin is K2
    Row("zero-data-overflowing-coefficient", "check zero_data.json --output report.json", 0,
        left=(json_at("report.json", "theorems.0.margin", 1.0),
              json_at("report.json", "theorems.1.lambda", 1.0))),
    # past a resource cap
    Row("p-past-the-factorial-cap", "check p171.json", 2, CONFIG),
    Row("step-count-cap", "check steps.json", 2, CONFIG),
    # a step schedule whose last step ends past the float range, before any
    # march; for convergence 1 step of 1.2e308 at the coarsest level, 3 of 6e307 next
    Row("overflowing-schedule-check", "check overflow.json", 2, [f"config error: stepper.t_end: {OVERFLOW}"]),
    Row("overflowing-schedule-simulate", "simulate overflow.json --outdir o8", 2,
        [f"config error: stepper.t_end: {OVERFLOW}"], left=(absent("o8"),)),
    Row("overflowing-schedule-convergence", "convergence levels.json --levels 1", 2,
        ["config error: --levels: 1 halvings of dt break t_end: the time of the last step, "
         "3 x dt, passes the float range, got 1.7e+308"],
        configs={"levels.json": ("overflow", {"stepper.dt": 1.2e308})}),
    # convergence builds every level's stepper before the first march
    Row("convergence-level-past-the-step-cap", "convergence cap.json --levels 1", 2,
        ["config error: --levels: 1 halvings of dt need more than 10000000 steps"],
        configs={"cap.json": ("tf", {"stepper": {"dt": 1e-3, "t_end": 5000.0004}})}),
    Row("convergence-dt-halved-to-zero", "convergence tiny.json --levels 1", 2,
        ["config error: --levels: 1 halvings of dt break dt: must satisfy dt > 0, got 0.0"],
        configs={"tiny.json": ("tf", {"stepper": {"dt": 5e-324, "t_end": 5e-324}})}),
    # a trace with a header and no rows, and an output write that fails after
    # the output checks: the failed run removes the snapshots it had written
    Row("verify-header-only-trace", "verify header_only.csv --lambda 0.5", 2,
        ["config error: header_only.csv: empty trace"], files={"header_only.csv": "t,a0,a2,a4,a6,mean,dt\n"}),
    Row("simulate-trace-on-full-device", "simulate full.json --outdir o5", 2,
        [f"config error: output file /dev/full: {os.strerror(errno.ENOSPC)}"],
        configs={"full.json": ("tf", {"outputs.trace_csv": "/dev/full"})}, left=(no_files("o5"),)),
    # a write to standard output that fails is a config error; its descriptor
    # then goes to the null device, so the flush at exit succeeds
    *(Row(f"{FALLBACK}test_a_failed_write_to_standard_output[{cmd.split()[0]}]", cmd, 2, FULL,
          before=(SIMULATE_TF,) if "tf_out" in cmd else (), stdout="/dev/full")
      for cmd in ("check tf.json", "simulate tf.json --outdir out", "verify tf_out/trace.csv --lambda 0.5",
                  "sweep tf.json axes.json --outdir sw", "convergence tf.json --levels 1")),
    # the bytes a failed write leaves in the buffer of a real standard output
    # must not fail again when the interpreter flushes it at exit
    *(Row(f"{FALLBACK}test_a_buffered_standard_output_that_fails_exits_2[{cmd.split()[0]}]", cmd, 2,
          [f"config error: standard output: {os.strerror(errno.EPIPE)}"],
          before=(SIMULATE_TF,) if "tf_out" in cmd else (), stdout="pipe")
      for cmd in ("check tf.json", "verify tf_out/trace.csv --lambda 0.5")),
    # and a simulate or sweep whose standard output fails leaves no file it
    # created; its directories stay
    Row(f"{FALLBACK}test_a_failed_write_to_standard_output_leaves_no_file_it_created[simulate]",
        "simulate tf.json --outdir o6", 2, FULL, stdout="/dev/full", left=(listing("o6"),)),
    Row(f"{FALLBACK}test_a_failed_write_to_standard_output_leaves_no_file_it_created[sweep]",
        "sweep tf.json axes.json --outdir o7", 2, FULL, stdout="/dev/full",
        left=(no_files("o7"), listing("o7", "run_0000", "run_0001"))),
    # a file that cannot be read on the way to a config is a config error that names it
    *(Row(f"{FILE_ERRORS}test_config_is_a_directory[{cmd}]", f"{cmd} a_dir", 2,
          ["config error: a_dir: Is a directory"], files={"a_dir/": ""})
      for cmd in ("check", "simulate", "convergence")),
    *(Row(f"{FILE_ERRORS}test_missing_snapshot[{cmd}]", f"{cmd} nosnap.json", 2,
          ["config error: initial_data.path: no_such_snapshot.txt: no such file"])
      for cmd in ("check", "simulate")),
    Row(f"{FILE_ERRORS}test_snapshot_is_a_directory", "check snap.json", 2,
        ["config error: initial_data.path: snap.txt: Is a directory"],
        configs=SNAPSHOT_AT, files={"snap.txt/": ""}),
    *(Row(f"{FILE_ERRORS}test_malformed_snapshot[{case}]", "check snap.json", 2,
          [f"config error: initial_data.path: snap.txt: {message}"],
          configs=SNAPSHOT_AT, files={"snap.txt": content})
      for case, content, message in MALFORMED_SNAPSHOTS),
    # an output path that cannot be created or opened is a config error
    # before the first step, so no file is written
    Row(f"{FILE_ERRORS}test_check_output_is_a_directory", "check tf.json --output a_dir", 2,
        ["config error: --output a_dir: Is a directory"], files={"a_dir/": ""}),
    *(Row(f"{FILE_ERRORS}test_outdir_is_a_file[{cmd.split()[0]}]", f"{cmd} --outdir a_file", 2,
          ["config error: output directory a_file: File exists"], files={"a_file": ""})
      for cmd in ("simulate tf.json", "sweep tf.json axes.json")),
    *(Row(f"{FILE_ERRORS}test_output_file_is_a_directory[{name}]", "simulate tf.json --outdir out", 2,
          [f"config error: output file out/{name}: Is a directory"], files={f"out/{name}/": ""},
          left=(listing("out", name),))
      for name in ("trace.csv", "report.json", "snapshot_00000020.txt")),
    *(Row(f"{FILE_ERRORS}test_output_file_that_cannot_be_written[{case}]", "simulate cfg.json --outdir out", 2,
          [f"config error: output file out/{why}"], files={"afile": ""}, left=(absent("out"),),
          configs={"cfg.json": ("tf", {"stepper.t_end": 0.04,
                                       "outputs": {"snapshot_every": 20, **outputs}})})
      for case, outputs, why in UNWRITABLE_OUTPUTS),
    *(Row(f"{FILE_ERRORS}test_a_refused_run_leaves_none_of_the_directories_it_made[{outdir}-{made}]",
          f"simulate cfg.json --outdir {outdir}", 2,
          [f"config error: output file {os.path.join(outdir, 'sub/t.csv')}: No such file or directory"],
          configs={"cfg.json": ("tf", {"outputs": {"trace_csv": "sub/t.csv"}})},
          files={"kept/": ""},  # there before the run, so it stays
          left=(absent(made), listing(".", "cfg.json", "kept")))
      for outdir, made in (("o_x", "o_x"), ("a/b", "a"), ("kept/c/", "kept/c"))),
    # in a sweep, each such member is a config_error row, and leaves no directory
    Row(f"{FILE_ERRORS}test_sweep_member_with_an_output_that_cannot_be_written",
        "sweep tf.json traces.json --outdir sw", 0,
        files={"traces.json": json.dumps({"axes": [{"path": "outputs.trace_csv",
                                                    "values": ["sub/t.csv", "report.json", "t.csv"]}]})},
        left=(column("sw/summary.csv", "status", ["config_error", "config_error", "completed"]),
              column("sw/summary.csv", "error", [
                  "output file sw/run_0000/sub/t.csv: No such file or directory",
                  "output file sw/run_0001/report.json: named by both outputs.trace_csv and "
                  "outputs.report_json", ""]),
              listing("sw", "run_0002", "summary.csv"))),
    Row(f"{FILE_ERRORS}test_sweep_member_directory_that_cannot_be_made",
        "sweep tf.json axes.json --outdir sw", 0, files={"sw/run_0000": ""},
        left=(column("sw/summary.csv", "status", ["config_error", "completed"]),
              column("sw/summary.csv", "error", ["output directory sw/run_0000: File exists", ""]))),
    # an axes file that breaks its rules is a config error, each rule on its own line
    Row("TestSweepCommand::test_bad_axes_file", "sweep tf.json bad.json", 2, CONFIG,
        files={"bad.json": '{"axes": "nope"}'}),
    *(Row(f"TestSweepCommand::test_bad_axes_number_is_a_config_error[{extra}]",
          "sweep tf.json bad.json --outdir sw", 2, CONFIG, left=(absent("sw"),),
          files={"bad.json": '{"axes": [{"path": "seed", "values": [1]}], ' + extra + "}"})
      for extra in ('"max_runs": Infinity', '"max_runs": 1e400', '"workers": 1e400', '"max_runs": true',
                    '"workers": 0')),
    Row("TestSweepCommand::test_axis_rules_reported_with_the_other_errors", "sweep tf.json bad.json", 2,
        ["config error: bad.json: axes[0].path: must be a nonempty string, got 5",
         "config error: bad.json: axes[1].values: must be a nonempty list",
         "config error: bad.json: max_runs: must be an integer >= 1"],
        files={"bad.json": json.dumps({"axes": [{"path": 5, "values": [1]}, {"path": "seed", "values": []}],
                                       "max_runs": 0})}),
    Row("TestSweepCommand::test_axis_path_through_a_scalar_is_a_config_error",
        "sweep tf.json bad.json --outdir sw", 2,
        ["config error: bad.json: axes[1].path: parameter path 'params.chi.x' descends into non-object 'chi'"],
        files={"bad.json": json.dumps({"axes": [{"path": "seed", "values": [1]},
                                                {"path": "params.chi.x", "values": [1]}]})},
        left=(absent("sw"),)),
    *(Row(f"TestConvergenceCommand::test_step_count_cap[{levels}]", f"convergence tf.json --levels {levels}", 2,
          [f"config error: --levels: {levels} halvings of dt need more than 10000000 steps"])
      for levels in (40, 10**9, 10**23 - 1)),  # the last past any machine integer
    *(Row(f"TestConvergenceCommand::test_levels_below_one[{levels}]", f"convergence tf.json --levels {levels}",
          2, ["config error: --levels must be >= 1"])
      for levels in (0, -3)),
    # outside data is refused where it enters, before any directory is made:
    # an output name with a NUL or a lone surrogate (check and simulate alike),
    # and a sweep member's
    *(Row(f"{case}-in-outputs-{field}-{argv.split()[0]}", argv, 2,
          [f"config error: outputs.{field}: {PATH_RULE}, got {value!r}"],
          configs={"cfg.json": ("tf", {f"outputs.{field}": value})}, left=(listing(".", "cfg.json"),))
      for case, field, value in UNNAMEABLE for argv in ("check cfg.json", "simulate cfg.json --outdir o9")),
    Row("nul-in-a-sweep-member-output", "sweep tf.json nul.json --outdir sw", 0,
        files={"nul.json": json.dumps({"axes": [{"path": "outputs.trace_csv", "values": ["a\0b.csv", "t.csv"]}]})},
        left=(column("sw/summary.csv", "status", ["config_error", "completed"]),
              column("sw/summary.csv", "error", [f"outputs.trace_csv: {PATH_RULE}, got 'a\\x00b.csv'", ""]),
              listing("sw", "run_0001", "summary.csv"))),
    # a sweep sets each member's outputs.directory, so an axis may not: at that
    # path, under it, or by an outputs value
    *(Row(f"sweep-axis-sets-the-member-directory-{case}", "sweep tf.json dir.json --outdir sw", 2,
          [f"config error: dir.json: axes[0].{where}the sweep sets outputs.directory to each "
           "member's run directory"],
          files={"dir.json": json.dumps({"axes": [{"path": path, "values": values}]})},
          left=(absent("sw"), absent("mine_a")))
      for case, path, values, where in (
          ("path", "outputs.directory", ["mine_a", "mine_b"], "path: 'outputs.directory': "),
          ("under-it", "outputs.directory.x", [1], "path: 'outputs.directory.x': "),
          ("outputs-value", "outputs", [{"snapshot_every": 5}, {"directory": "mine_a"}],
           "values[1]: sets directory; "))),
    # a config or an axes file is read with a bound: a device that never ends
    *(Row(f"{kind}-from-dev-zero", argv, 2, ["config error: /dev/zero: longer than 16777216 characters"],
          left=(absent("sw"),))
      for kind, argv in (("config", "check /dev/zero"), ("axes", "sweep tf.json /dev/zero --outdir sw"))),
    # JSON nested past the bound: a config, an axes file, a key of a sweep's base
    Row("config-nested-100000-deep", "check deep.json", 2,
        ["config error: deep.json: JSON nested deeper than 32 levels"], files={"deep.json": DEEP}),
    Row("axes-nested-100000-deep", "sweep tf.json deep.json --outdir sw", 2,
        ["config error: deep.json: JSON nested deeper than 32 levels"], files={"deep.json": DEEP},
        left=(absent("sw"),)),
    Row("sweep-base-with-a-600-deep-key", "sweep base.json axes.json --outdir sw", 2,
        ["config error: base.json: JSON nested deeper than 32 levels"], files={"base.json": DEEP_KEY},
        left=(absent("sw"),)),
    # a device read as a snapshot or a trace: each line is read with a bound
    Row("snapshot-from-dev-full", "check full.json", 2,
        ["config error: initial_data.path: /dev/full: line 1 is longer than 4096 characters"],
        configs={"full.json": ("nosnap", {"initial_data.path": "/dev/full"})}),
    Row("trace-from-dev-zero", "verify /dev/zero --lambda 1", 2,
        ["config error: /dev/zero: line 1 is longer than 4096 characters"]),
    # the sweep cap is checked before the product is built (10^8 members)
    Row("sweep-size-past-the-cap", "sweep tf.json big.json --outdir sw", 2,
        ["config error: sweep size 100000000 exceeds the cap of 256 runs"],
        files={"big.json": json.dumps({"axes": [{"path": path, "values": list(range(1, 101))} for path in
                                                ("seed", "stepper.record_every", "outputs.snapshot_every", "n")]})},
        left=(absent("sw"),)),
    # an output file name past the file system's limit is refused before the march
    Row("trace-name-too-long", "simulate cfg.json --outdir o9", 2,
        [f"config error: output file o9/{'t' * 300}: {os.strerror(errno.ENAMETOOLONG)}"],
        configs={"cfg.json": ("tf", {"outputs.trace_csv": "t" * 300})}, left=(absent("o9"),)),
    # an output directory that cannot be made leaves none of the directories made for it
    *(Row(f"output-directory-name-too-long-{cmd.split()[0]}", f"{cmd} --outdir {top}/{name}", 2,
          [f"config error: output directory {top}/{name}: {os.strerror(errno.ENAMETOOLONG)}"],
          left=(absent(top),))
      for cmd, top, name in (("simulate tf.json", "out7", "x" * 300), ("sweep tf.json axes.json", "s4", "y" * 300))),
]


def _call(invoke, line: str, stdout: str):
    """invoke(line's argv, a descriptor open on stdout: a path, or "pipe")."""
    if stdout == "pipe":
        r, fd = os.pipe()
        os.close(r)  # a pipe with no reader: every write fails with EPIPE
    else:
        fd = os.open(stdout, os.O_WRONLY)
    try:
        return invoke(line.split(), fd)
    finally:
        os.close(fd)


def _run_here(row: Row, invoke) -> list[str]:
    for token in {t for line in (row.argv, *row.before) for t in line.split()}:
        if (CORPUS / token).is_file():
            shutil.copy(CORPUS / token, token)
    for name, (base, overrides) in row.configs.items():
        Path(name).write_text(json.dumps(derive(base, overrides)))
    for name, content in row.files.items():
        Path(name).parent.mkdir(parents=True, exist_ok=True)
        if name.endswith("/"):
            Path(name).mkdir()
        else:
            (Path.write_bytes if isinstance(content, bytes) else Path.write_text)(Path(name), content)
    for line in row.before:
        code, err = _call(invoke, line, os.devnull)
        if code != 0:
            return [f"before: {line!r} exited {code}: {err}"]
    code, err = _call(invoke, row.argv, row.stdout)
    lines = err.splitlines()
    if row.err == CONFIG:
        lines_ok = lines and all(line.startswith("config error:") for line in lines)
    else:
        lines_ok = lines == list(row.err)
    problems = [code != row.exit and f"exit {code}, want {row.exit}",
                not lines_ok and f"stderr {lines}, want {row.err}", *(rule() for rule in row.left)]
    return [p for p in problems if p]


def run(row: Row, invoke, workdir) -> list[str]:
    """Set up and run row in workdir, a new directory, through invoke(argv,
    stdout_fd) -> (exit code, stderr text); returns what is wrong, if anything."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return _run_here(row, invoke)
    finally:
        os.chdir(cwd)


def console(command: list[str]):
    """invoke for rows through command, with Python's standard output buffered."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}

    def invoke(argv, stdout):
        try:
            proc = subprocess.run(command + argv, stdout=stdout, stderr=subprocess.PIPE, text=True,
                                  env=env, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return None, f"no exit within {TIMEOUT} s"
        return proc.returncode, proc.stderr
    return invoke


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("command", help='the command to run, for example torusflow or "python -m torusflow.cli"')
    invoke = console(shlex.split(ap.parse_args(argv).command))
    failed = 0
    for row in ROWS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="torusflow-contract-") as tmp:
            problems = run(row, invoke, tmp)
        print(f"{'FAIL' if problems else 'ok  '} {row.id} ({time.perf_counter() - start:.2f} s)")
        for problem in problems:
            print(f"     {problem}")
        failed += bool(problems)
    print(f"{len(ROWS)} rows, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
