"""A derandomized fuzzer of the command-line contract.

Each example mutates a corpus config (tests/configs/) and the corpus axes:
extreme numbers, wrong types and nested values at existing keys, and hostile
strings in the optional string fields (outputs.*, initial_data.path): a NUL,
a lone surrogate, 300 characters, or a device.  It always runs `check`; it
runs `simulate`, and `sweep` over the mutated axes, when n <= 16 and
t_end / dt <= 2000 (or the parser refuses those values).  Every run writes
under its own temporary directory, through --outdir.

The contract: the exit code is 0, 2, 3 or 4; on exit 2 every line of
standard error is a config error; no exception escapes cli.main, and no
RuntimeWarning is raised.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import contracts
from torusflow.cli import main

EXAMPLES = 50  # about 3 s on a 2-vCPU host

CONFIGS = sorted(p.stem for p in contracts.CORPUS.glob("*.json") if p.stem != "axes")
NESTED = [[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]  # 40 deep
VALUES = [0, -1, 1, 2**63, 2**64, -(2**64), 10**400, 1e308, -1e308, 5e-324, 1e-300,
          math.inf, -math.inf, math.nan, True, None, "x", "", [], {}, [1, 2, 3, 4],
          [[[1]]], {"a": {"b": 1}}, NESTED]
# relative names the file system refuses or cannot hold, and devices; a
# device is never a directory or a snapshot prefix, which would write beside it
NAMES = ["a\0b", "s\ud800", "\udcff", "x" * 300]
DEVICES = ["/dev/full", "/dev/zero"]
STRING_FIELDS = {"outputs.directory": NAMES, "outputs.snapshot_prefix": NAMES,
                 "outputs.trace_csv": NAMES + DEVICES, "outputs.report_json": NAMES + DEVICES,
                 "initial_data.path": NAMES + DEVICES}
AXIS_PATHS = ["initial_data.normalize.value", "seed", "stepper.blowup_threshold", *STRING_FIELDS,
              "", "a..b", "params.chi.x", "s\ud800", "x" * 300]


def _leaves(d, prefix=""):
    """The dotted paths of the entries of the nested objects of d."""
    for key, value in d.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")


def _set(d, path, value):
    """Set d at the dotted path, making missing objects; skipped past a non-object."""
    *keys, last = path.split(".")
    for key in keys:
        d = d.setdefault(key, {})
        if not isinstance(d, dict):
            return
    d[last] = value


def _values(path):
    return st.sampled_from(STRING_FIELDS.get(path, VALUES))


@st.composite
def _config(draw):
    cfg = contracts.corpus(draw(st.sampled_from(CONFIGS)))
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(sorted(set(_leaves(cfg)) | set(STRING_FIELDS))))
        value = draw(_values(path))
        if path == "initial_data.path":  # a snapshot read from it
            path, value = "initial_data", {"kind": "snapshot", "path": value}
        _set(cfg, path, value)
    return cfg


@st.composite
def _axes(draw):
    axes = contracts.corpus("axes")
    if draw(st.booleans()):
        path = draw(st.sampled_from(AXIS_PATHS))
        axes["axes"][0] = {"path": path, "values": draw(st.lists(_values(path), min_size=1, max_size=3))}
    for key in draw(st.sets(st.sampled_from(["values", "max_runs", "workers"]), max_size=2)):
        (axes["axes"][0] if key == "values" else axes)[key] = draw(st.sampled_from(VALUES))
    return axes


def _small(cfg) -> bool:
    """n <= 16 and t_end / dt <= 2000, unless a value is of a type the parser refuses."""
    def num(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    stepper = cfg.get("stepper")
    stepper = stepper if isinstance(stepper, dict) else {}
    n, dt, t_end = cfg.get("n"), stepper.get("dt", 1e-3), stepper.get("t_end", 1.0)
    return not (num(n) and n > 16 or num(dt) and num(t_end) and dt > 0 and t_end > 2000 * dt)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3, 4), (argv, code, lines)
    if code == 2:
        assert lines and all(line.startswith("config error:") for line in lines), (argv, lines)


@settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(cfg=_config(), axes=_axes())
def test_cli_contract(tmp_path, cfg, axes):
    cwd = os.getcwd()
    os.chdir(tempfile.mkdtemp(dir=tmp_path))  # relative names resolve here
    try:
        with open("cfg.json", "w") as fh:
            json.dump(cfg, fh)
        with open("axes.json", "w") as fh:
            json.dump(axes, fh)
        _run(["check", "cfg.json"])
        if _small(cfg):
            _run(["simulate", "cfg.json", "--outdir", "out"])
            _run(["sweep", "cfg.json", "axes.json", "--outdir", "sw"])
    finally:
        os.chdir(cwd)
