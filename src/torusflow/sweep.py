"""Parameter sweeps: Cartesian products of config overrides.

Every combination has its own output directory and summary row, in product
order; a failure (config violation, numerical failure, blow-up) becomes a
row rather than aborting the sweep.  Members that share model, n, params,
stepper (but for blowup_threshold) and snapshot cadence are prepared,
stepped and finished as one batch; if a prepared batch raises, its members
rerun alone, for their solo rows.
"""

from __future__ import annotations

import copy
import csv
import itertools
import os

from .config import ConfigError, parse_config
from .driver import _prepare, _write_output, execute_batch, make_output_dir, make_run_dir
from .integrate import _march_key
from .models import make_rhs

__all__ = ["set_by_path", "expand_axes", "run_sweep", "write_sweep_summary"]

DEFAULT_MAX_RUNS = 256

# Samples per batched transform (members x 3 fields x N^2, larger grid).  One
# batched ETD2 step over as many solo steps (2-vCPU host; CHANGES.md has the
# scan at n = 8, 16, 32): below the cap every batch won, e.g. epitaxial n=16
# 0.73 at 9 members; past it some lost, e.g. 1.05 at 16.
BATCH_POINTS = 65536

SUMMARY_FIXED_FIELDS = ("status", "margin", "lambda", "satisfied",
                        "envelope_passed", "worst_ratio", "final_a0", "final_a2", "error")


def set_by_path(d: dict, path: str, value) -> None:
    """Assign into a nested dict by dotted path, creating missing objects;
    ConfigError for an empty segment or a descent through a non-object."""
    keys = path.split(".")
    if not all(keys):
        raise ConfigError([f"invalid parameter path {path!r}"])
    cur = d
    for key in keys[:-1]:
        nxt = cur.get(key)
        if nxt is None:
            nxt = {}
            cur[key] = nxt
        elif not isinstance(nxt, dict):
            raise ConfigError([f"parameter path {path!r} descends into non-object {key!r}"])
        cur = nxt
    cur[keys[-1]] = value


def axis_errors(path, values, where: str, base) -> list[str]:
    """Violations of the rules for one (path, values) axis, each message
    prefixed by where, a path that cannot be set in the base config dict
    among them."""
    errors = []
    if not isinstance(path, str) or not path:
        errors.append(f"{where}path: must be a nonempty string, got {path!r}")
    elif isinstance(base, dict):
        try:
            set_by_path(copy.deepcopy(base), path, None)
        except ConfigError as e:
            errors += [f"{where}path: {msg}" for msg in e.errors]
    if not isinstance(values, (list, tuple)) or not values:
        errors.append(f"{where}values: must be a nonempty list")
    return errors


def expand_axes(axes):
    """Cartesian product of (path, values) axes as override dicts, row-major."""
    paths = [path for path, _ in axes]
    combos = itertools.product(*(values for _, values in axes)) if axes else [()]
    return paths, [dict(zip(paths, combo)) for combo in combos]


def _refused(row: dict, e: Exception) -> None:
    """Set the row's status and error from e, which refused its run."""
    if isinstance(e, ConfigError):
        row.update(status="config_error", error="; ".join(e.errors))
    else:
        row.update(status="error", error=f"{type(e).__name__}: {e}")


def _guarded(row: dict, fn):
    """fn(), or None with the row's status and error set from what it raised."""
    try:
        return fn()
    except Exception as e:  # per-run isolation: never abort the sweep
        _refused(row, e)
    return None


def _fill(row: dict, result) -> None:
    primary = result.reports[0]
    fnv = result.report["run"]["final_norms"]
    row.update({
        "status": result.outcome.status,
        "margin": primary.margin,
        "lambda": primary.lam,
        "satisfied": primary.satisfied,
        "envelope_passed": None if result.envelope is None else result.envelope.passed,
        "worst_ratio": None if result.envelope is None else result.envelope.worst_ratio,
        "final_a0": fnv["a0"],
        "final_a2": fnv["a2"],
        "error": None,
    })


def _run_batch(members, created: list) -> None:
    """Prepare (then make_run_dir), march and finish (row, cfg, run_dir)
    members of one batch key, into created, filling each row as a solo run would."""
    runs = []
    batch = _prepare([cfg for _, cfg, _ in members], lambda i, e: _refused(members[i][0], e))
    for (row, cfg, run_dir), prepared in zip(members, batch):
        if prepared is not None and _guarded(row, lambda: make_run_dir(cfg, run_dir) or True):
            runs.append((row, (cfg, run_dir, prepared)))
    if not runs:
        return
    try:
        results = execute_batch([run for _, run in runs], created)
    except Exception:  # each member on its own, as the row of a solo run
        results = [_guarded(row, lambda: execute_batch([run], created)[0]) for row, run in runs]
    for (row, _), result in zip(runs, results):
        if result is not None:
            _fill(row, result)


def _member_config(base: dict, combo: dict, run_dir: str) -> dict:
    """The base config with copies of a combo's overrides and the member's
    directory, so that a later path writes into this member's copy of an
    object value, not into the axis; ConfigError when an earlier axis value
    leaves no object to descend into."""
    raw = copy.deepcopy(base)
    for path, value in [*combo.items(), ("outputs.directory", run_dir)]:
        set_by_path(raw, path, copy.deepcopy(value))
    return raw


def run_sweep(base: dict, axes, outdir: str, max_runs: int = DEFAULT_MAX_RUNS, created=None) -> list[dict]:
    """Execute the Cartesian product of axes over a base config dict.

    axes: list of (parameter path, list of values).  Returns summary rows in
    product order and writes summary.csv under outdir (created: as in execute_batch).
    """
    created = [] if created is None else created
    errors = [] if isinstance(base, dict) else ["config: must be a JSON object"]
    errors += [e for i, (path, values) in enumerate(axes)
               for e in axis_errors(path, values, f"axes[{i}].", base)]
    if errors:
        raise ConfigError(errors)
    paths, combos = expand_axes(axes)
    if len(combos) > max_runs:
        raise ConfigError([
            f"sweep size {len(combos)} exceeds the cap of {max_runs} runs"
        ])
    make_output_dir(outdir)
    rows, groups = [], {}
    for i, combo in enumerate(combos):
        rows.append({"run_id": i, **combo, **dict.fromkeys(SUMMARY_FIXED_FIELDS)})
        run_dir = os.path.join(outdir, f"run_{i:04d}")
        cfg = _guarded(rows[-1], lambda: parse_config(_member_config(base, combo, run_dir)))
        if cfg is not None:
            key = (cfg.model, cfg.n, cfg.params, _march_key(cfg.stepper),
                   cfg.outputs.snapshot_every)  # what one batched march must share
            groups.setdefault(key, []).append((rows[-1], cfg, run_dir))
    for group in groups.values():
        cfg = group[0][1]
        size = max(1, BATCH_POINTS // make_rhs(cfg.model, cfg.n, cfg.params).points)
        for k in range(0, len(group), size):  # prepared batch by batch: memory follows the cap
            _run_batch(group[k : k + size], created)
    summary = os.path.join(outdir, "summary.csv")
    _write_output(created, summary, lambda: write_sweep_summary(rows, paths, summary))
    return rows


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_sweep_summary(rows, axis_paths, path) -> None:
    fields = ["run_id", *axis_paths, *SUMMARY_FIXED_FIELDS]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_cell(row.get(f)) for f in fields])
