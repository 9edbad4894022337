"""Parameter sweeps: Cartesian products of config overrides, run in turn.

Every combination executes in isolation with its own output directory; a
failure (config violation, numerical failure, blow-up) becomes a summary row
rather than aborting the sweep.  Members run one after another in product
order, which is also the summary order.
"""

from __future__ import annotations

import copy
import csv
import itertools
import os

from .config import ConfigError, parse_config
from .driver import execute_run

__all__ = ["set_by_path", "expand_axes", "run_sweep", "write_sweep_summary"]

DEFAULT_MAX_RUNS = 256

SUMMARY_FIXED_FIELDS = ("status", "margin", "lambda", "satisfied",
                        "envelope_passed", "worst_ratio", "final_a0", "final_a2", "error")


def set_by_path(d: dict, path: str, value) -> None:
    """Assign into a nested dict by dotted path, creating missing objects."""
    keys = path.split(".")
    if not all(keys):
        raise ValueError(f"invalid parameter path {path!r}")
    cur = d
    for key in keys[:-1]:
        nxt = cur.get(key)
        if nxt is None:
            nxt = {}
            cur[key] = nxt
        elif not isinstance(nxt, dict):
            raise ValueError(f"parameter path {path!r} descends into non-object {key!r}")
        cur = nxt
    cur[keys[-1]] = value


def axis_errors(path, values, where: str) -> list[str]:
    """Violations of the rules for one (path, values) axis, each message
    prefixed by where."""
    errors = []
    if not isinstance(path, str) or not path:
        errors.append(f"{where}path: must be a nonempty string, got {path!r}")
    if not isinstance(values, (list, tuple)) or not values:
        errors.append(f"{where}values: must be a nonempty list")
    return errors


def expand_axes(axes):
    """Cartesian product of (path, values) axes as override dicts, row-major."""
    paths = [path for path, _ in axes]
    combos = itertools.product(*(values for _, values in axes)) if axes else [()]
    return paths, [dict(zip(paths, combo)) for combo in combos]


def _run_one(run_id: int, base: dict, overrides: dict, outdir: str) -> dict:
    row: dict = {"run_id": run_id, **overrides}
    for key in SUMMARY_FIXED_FIELDS:
        row[key] = None
    run_dir = os.path.join(outdir, f"run_{run_id:04d}")
    raw = copy.deepcopy(base)
    for path, value in overrides.items():
        set_by_path(raw, path, value)
    set_by_path(raw, "outputs.directory", run_dir)
    try:
        cfg = parse_config(raw)
        result = execute_run(cfg, outdir=run_dir)
    except ConfigError as e:
        row["status"] = "config_error"
        row["error"] = "; ".join(e.errors)
        return row
    except Exception as e:  # per-run isolation: never abort the sweep
        row["status"] = "error"
        row["error"] = f"{type(e).__name__}: {e}"
        return row
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
    return row


def run_sweep(base: dict, axes, outdir: str, max_runs: int = DEFAULT_MAX_RUNS) -> list[dict]:
    """Execute the Cartesian product of axes over a base config dict.

    axes: list of (parameter path, list of values).  Returns summary rows in
    product order and writes summary.csv under outdir.
    """
    errors = [e for i, (path, values) in enumerate(axes)
              for e in axis_errors(path, values, f"axes[{i}].")]
    if errors:
        raise ConfigError(errors)
    paths, combos = expand_axes(axes)
    if len(combos) > max_runs:
        raise ConfigError([
            f"sweep size {len(combos)} exceeds the cap of {max_runs} runs"
        ])
    os.makedirs(outdir, exist_ok=True)
    rows = [_run_one(i, base, combo, outdir) for i, combo in enumerate(combos)]
    write_sweep_summary(rows, paths, os.path.join(outdir, "summary.csv"))
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
