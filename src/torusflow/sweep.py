"""Parameter sweeps: Cartesian products of config overrides.

Every combination has its own output directory and summary row, in product
order; a failure (config violation, numerical failure, blow-up) becomes a
row rather than aborting the sweep.  The members run through one call of
driver.execute_batch, which marches those that share a system as batches.
"""

from __future__ import annotations

import copy
import csv
import itertools
import math
import os

from .config import ConfigError, parse_config
from .driver import _write_output, execute_batch, make_output_dir

__all__ = ["set_by_path", "expand_axes", "run_sweep", "write_sweep_summary"]

DEFAULT_MAX_RUNS = 256

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
    among them.  The sweep sets each member's outputs.directory, so an axis
    may not: not at that path or under it, nor by an outputs value."""
    errors, own = [], "the sweep sets outputs.directory to each member's run directory"
    if not isinstance(path, str) or not path:
        errors.append(f"{where}path: must be a nonempty string, got {path!r}")
    elif path == "outputs.directory" or path.startswith("outputs.directory."):
        errors.append(f"{where}path: {path!r}: {own}")
    elif isinstance(base, dict):
        try:
            set_by_path(copy.deepcopy(base), path, None)
        except ConfigError as e:
            errors += [f"{where}path: {msg}" for msg in e.errors]
    if not isinstance(values, (list, tuple)) or not values:
        errors.append(f"{where}values: must be a nonempty list")
    elif path == "outputs":
        errors += [f"{where}values[{j}]: sets directory; {own}" for j, value in enumerate(values)
                   if isinstance(value, dict) and "directory" in value]
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
    size = math.prod(len(values) for _, values in axes)  # before any member is built
    if size > max_runs:
        raise ConfigError([f"sweep size {size} exceeds the cap of {max_runs} runs"])
    paths, combos = expand_axes(axes)
    make_output_dir(outdir)
    rows, cfgs, ids = [], [], []  # ids[j]: the row of cfgs[j]
    for i, combo in enumerate(combos):
        rows.append({"run_id": i, **combo, **dict.fromkeys(SUMMARY_FIXED_FIELDS)})
        try:
            cfgs.append(parse_config(_member_config(base, combo, os.path.join(outdir, f"run_{i:04d}"))))
            ids.append(i)
        except Exception as e:  # per-run isolation: never abort the sweep
            _refused(rows[i], e)
    for j, result in execute_batch(cfgs, [cfg.outputs.directory for cfg in cfgs], created,
                                   lambda k, e: _refused(rows[ids[k]], e)):
        _fill(rows[ids[j]], result)
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
    """One row per run; a lone surrogate in an axis or a message (a file
    name the file system takes) is written as its backslash escape."""
    fields = ["run_id", *axis_paths, *SUMMARY_FIXED_FIELDS]
    with open(path, "w", newline="", errors="backslashreplace") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_cell(row.get(f)) for f in fields])
