"""One place that turns a validated config into a finished run.

Used by the CLI subcommands and by parameter sweeps: generate the initial
field, evaluate the applicable smallness conditions, integrate, check the
decay envelope when a condition holds, and write trace/report/snapshots.
"""

from __future__ import annotations

import contextlib
import os
import re
import stat
from dataclasses import asdict, dataclass, replace

import numpy as np

from .config import ConfigError, RunConfig, config_to_dict, file_errors, prepare_initial
from .integrate import RunOutcome, _blowup_threshold, _overflowing, simulate_batch
from .models import make_rhs
from .output import write_report_json, write_trace_csv
from .spectral import NormVector, _norms, _snapshot_layout, _write_snapshot
from .theory import (
    ENVELOPE_TOL,
    EnvelopeVerdict,
    TheoremReport,
    check_epitaxial_A0,
    check_epitaxial_A2,
    check_thinfilm_A0,
    verify_decay_envelope,
)

__all__ = ["ExecutionResult", "theorem_reports", "check_only", "execute_run"]

THINFILM_NOTES = [
    "norms refer to the zero-mean variable v = u - 1; the mean of u is 1 + mean(v)",
    "the simulator evolves the exact equation (linearization carries chi*p*|k|^2); "
    "theorem margins use the stated constants, whose linear coefficient is chi*|k|^2",
    "the claimed decay exponent carries c*chi*p! while the smallness margin carries "
    "c*chi*p!/2; both are reported without reconciliation",
]

# Samples per batched transform (members x 3 fields x N^2, larger grid).  One
# batched ETD2 step over as many solo steps (2-vCPU host; CHANGES.md has the
# scan at n = 8, 16, 32): below the cap every batch won, e.g. epitaxial n=16
# 0.73 at 9 members; past it some lost, e.g. 1.05 at 16.
BATCH_POINTS = 65536


@dataclass(frozen=True)
class ExecutionResult:
    outcome: RunOutcome | None
    reports: list
    envelope: EnvelopeVerdict | None
    initial_norms: NormVector
    report: dict


def theorem_reports(cfg: RunConfig, nv: NormVector) -> list:
    """Applicable smallness checks for this model, evaluated on the initial
    norms; the first is primary."""
    if cfg.model == "epitaxial":
        reports = [check_epitaxial_A2(cfg.params, nv.a2)]
        if cfg.params.K3 == 0 and cfg.params.K0 == 0:
            reports.append(check_epitaxial_A0(cfg.params, nv.a0))
        return reports
    return [check_thinfilm_A0(cfg.params, nv.a0)]


def _envelope_norm(report: TheoremReport) -> str:
    return "a2" if report.theorem_id.startswith("EpitaxialA2") else "a0"


def _attempt(refuse, i, make):
    """make(); if it raises, that is raised, or, given refuse, None once
    refuse(i, e) has been given what refused config i."""
    try:
        return make()
    except Exception as e:  # handled in place: a kept exception keeps its frames alive
        if refuse is None:
            raise
        refuse(i, e)
        return None


def _prepare(cfgs, refuse=None) -> list:
    """For each config of a batch, which shares n: the initial field, its
    norms, the theorem reports and the report skeleton, as the config alone
    would get them; or None for a config refused (_attempt).  Each distinct
    initial datum is generated once, and held only while the batch is
    prepared; the initial norms of the batch come from one stacked pass."""
    generated = {}
    fields = [_attempt(refuse, i, lambda: prepare_initial(cfg, generated)) for i, cfg in enumerate(cfgs)]
    made = [field[0] for field in fields if field is not None]
    norms = iter(_norms(np.stack([f.half for f in made]), made[0].modes) if made else ())
    return [None if field is None else _attempt(refuse, i, lambda: _prepared(cfg, *field, next(norms)))
            for i, (cfg, field) in enumerate(zip(cfgs, fields))]


def _prepared(cfg: RunConfig, initial, meta: dict, norms: list):
    """_prepare's entry for one config whose initial field has the norms
    norms.  A norm past the float range would make the reports and the
    trace non-finite, so it is a config error naming each such norm; so is
    a blow-up threshold the initial field already meets."""
    nv, bad = NormVector(*norms), _overflowing(norms)
    if bad:
        raise ConfigError([f"initial_data: {message}" for message in bad])
    try:
        _blowup_threshold(cfg.stepper, nv.a0)
    except ValueError as e:
        raise ConfigError([f"stepper.blowup_threshold: {e}"]) from None
    reports = theorem_reports(cfg, nv)
    return initial, nv, reports, {
        "config": config_to_dict(cfg),
        "variable": meta["variable"],
        "initial_norms": asdict(nv),
        "theorems": [r.to_dict() for r in reports],
        "envelope": None,
        "run": None,
        "notes": THINFILM_NOTES if cfg.model == "thinfilm" else [],
    }


def check_only(cfg: RunConfig) -> ExecutionResult:
    """Theorem reports without time stepping."""
    _, nv, reports, report = _prepare([cfg])[0]
    return ExecutionResult(outcome=None, reports=reports, envelope=None,
                           initial_norms=nv, report=report)


@contextlib.contextmanager
def _removing(created=None, remove=os.remove):
    """Run the block with the list created (a new one if None); if it
    raises (a write, a config error, or anything else), first remove (with
    remove) the paths that the block added to it."""
    created = [] if created is None else created
    start = len(created)
    try:
        yield created
    except Exception:
        for path in created[start:]:
            with contextlib.suppress(OSError):
                remove(path)
        del created[start:]
        raise


def make_output_dir(path) -> list:
    """Create directory path; return those made, deepest first.  If it
    cannot be, that is a config error, and those made are removed first."""
    made, head = [], os.fspath(path).rstrip(os.sep) or os.sep
    while not os.path.exists(head):  # what os.makedirs makes; rmdir refuses . and ..
        made, head = made + [head], os.path.dirname(head) or os.curdir
    with _removing(remove=os.rmdir) as created, file_errors(path, "output directory "):
        created += made
        os.makedirs(path, exist_ok=True)
    return made


def _open_error(path) -> str | None:
    """Why opening path to write would fail, when it is a directory, cannot
    be looked up (a name too long), or its parent is missing or is not a
    directory; else None."""
    try:
        if stat.S_ISDIR(os.stat(path).st_mode):
            return "Is a directory"
    except FileNotFoundError:  # its parent is checked below
        pass
    except OSError as e:
        return e.strerror
    try:
        parent = os.stat(os.path.dirname(path) or ".")
    except OSError as e:
        return e.strerror
    return None if stat.S_ISDIR(parent.st_mode) else "Not a directory"


def make_run_dir(cfg: RunConfig, outdir) -> None:
    """make_output_dir(outdir), then a config error of the _output_errors of
    the run, or of a snapshot folder that cannot be listed; a refused run
    leaves no directory it made, but one that something else wrote into."""
    with _removing(remove=os.rmdir) as made:
        made += make_output_dir(outdir)
        errors = _output_errors(cfg, outdir)
        if errors:
            raise ConfigError(errors)


def _output_errors(cfg: RunConfig, outdir) -> list:
    """A message for each file the run writes under outdir that _open_error
    refuses (the trace, the report, a snapshot of a step up to t_end / dt)
    and for two of them that os.path.normpath makes one."""
    out = cfg.outputs
    last = cfg.stepper.steps
    folder, base = os.path.split(os.path.join(outdir, out.snapshot_prefix))

    def step(path):
        """The step up to last whose snapshot is written to path, or None."""
        head, name = os.path.split(os.path.normpath(path))
        m = re.fullmatch(re.escape(base) + r"_(\d{8})\.txt", name)
        same = os.path.normpath(head or ".") == os.path.normpath(folder)
        return int(m[1]) if out.snapshot_every > 0 and m and same and int(m[1]) <= last else None

    trace, report = os.path.join(outdir, out.trace_csv), os.path.join(outdir, out.report_json)
    paths = [trace, report]
    if out.snapshot_every > 0:  # the snapshots already there, or the first one
        with file_errors(folder, "output directory "):
            names = sorted(os.listdir(folder)) if os.path.isdir(folder) else [f"{base}_00000000.txt"]
        paths += [p for name in names if step(p := os.path.join(folder, name)) is not None]
    errors = [f"output file {path}: {why}" for path in paths if (why := _open_error(path))]
    if os.path.normpath(trace) == os.path.normpath(report):
        errors.append(f"output file {trace}: named by both outputs.trace_csv and outputs.report_json")
    for field, path in (("trace_csv", trace), ("report_json", report)):
        if (i := step(path)) is not None:
            errors.append(f"output file {path}: outputs.{field} names the snapshot of step {i}")
    return errors


def _write_output(created: list, path, write) -> None:
    """write(), which writes the file at path, under file_errors; path joins
    created if nothing was there before (not even a dangling symlink)."""
    if not os.path.lexists(path):
        created.append(path)
    with file_errors(path, "output file "):
        write()


def _snapshot_writers(runs, created: list) -> list:
    """For each (cfg, outdir, _) of runs, which share n and snapshot_every,
    the on_record that writes the config's snapshots under outdir (through
    _write_output into created), or None.  The writers share one snapshot
    layout, freed with them."""
    cfg = runs[0][0]
    if cfg.outputs.snapshot_every <= 0:
        return [None] * len(runs)
    layout = _snapshot_layout(cfg.n)

    def writer(prefix):
        def write(step, t, field):
            path = f"{prefix}_{step:08d}.txt"
            _write_output(created, path, lambda: _write_snapshot(field, path, layout))
        return write

    return [writer(os.path.join(d, c.outputs.snapshot_prefix)) for c, d, _ in runs]


def _finish(cfg: RunConfig, outdir, prepared, outcome: RunOutcome,
            final: NormVector, created: list) -> ExecutionResult:
    """Decay envelope, report and trace of a finished march, whose final
    field has the norms final; the files go through _write_output into
    created."""
    _, nv, reports, report = prepared
    envelope = None
    primary = reports[0]
    if primary.satisfied and outcome.status == "completed":
        envelope = verify_decay_envelope(outcome.trace, _envelope_norm(primary),
                                         primary.lam, ENVELOPE_TOL)

    report["envelope"] = envelope.to_dict() if envelope is not None else None
    mean_final = float(outcome.trace.mean[-1])
    report["run"] = {
        "status": outcome.status,
        "final_time": outcome.final_time,
        "final_norms": asdict(final),
        "mean_final": mean_final,
        "mean_u_final": mean_final + (1.0 if cfg.model == "thinfilm" else 0.0),
    }

    for write, data, name in ((write_trace_csv, outcome.trace, cfg.outputs.trace_csv),
                              (write_report_json, report, cfg.outputs.report_json)):
        path = os.path.join(outdir, name)
        _write_output(created, path, lambda: write(data, path))

    return ExecutionResult(outcome=outcome, reports=reports, envelope=envelope,
                           initial_norms=nv, report=report)


def execute_run(cfg: RunConfig, outdir=None, created=None) -> ExecutionResult:
    """Full pipeline; writes trace CSV, report JSON and optional snapshots under
    outdir (default: the config's output directory); created: as in _march."""
    ((_, result),) = execute_batch([cfg], [cfg.outputs.directory if outdir is None else outdir], created)
    return result


def _batch_key(cfg: RunConfig) -> tuple:
    """What the configs marched as one batch share: all but initial data,
    seed, blow-up threshold and the outputs other than snapshot_every."""
    return (cfg.model, cfg.n, cfg.params, replace(cfg.stepper, blowup_threshold=None),
            cfg.outputs.snapshot_every)


def execute_batch(cfgs, outdirs, created=None, refuse=None):
    """Run each config cfgs[i] under outdirs[i] as execute_run would, and
    yield (i, its ExecutionResult) once its chunk is finished: the configs
    of one _batch_key are prepared, checked (make_run_dir), marched and
    finished together, in chunks of at most BATCH_POINTS samples per
    transform.  A config refused by _prepare, by make_run_dir, or by its
    solo rerun after its chunk's march raised is not yielded, but given to
    refuse(i, e); without refuse, the error is raised.  The files the runs
    create join created: as in _march."""
    groups = {}
    for i, cfg in enumerate(cfgs):
        groups.setdefault(_batch_key(cfg), []).append(i)
    for group in groups.values():
        cfg = cfgs[group[0]]
        size = max(1, BATCH_POINTS // make_rhs(cfg.model, cfg.n, cfg.params).points)
        for k in range(0, len(group), size):
            yield from _run_chunk(group[k : k + size], cfgs, outdirs, created, refuse)


def _run_chunk(chunk, cfgs, outdirs, created, refuse) -> list:
    """execute_batch's (i, result) pairs of the configs i of chunk; what the
    chunk prepared goes when it returns, so memory follows the cap."""
    prepared = _prepare([cfgs[i] for i in chunk], refuse and (lambda j, e: refuse(chunk[j], e)))
    runs = {i: (cfgs[i], outdirs[i], p) for i, p in zip(chunk, prepared)
            if p is not None and _attempt(refuse, i, lambda: make_run_dir(cfgs[i], outdirs[i]) or True)}
    try:
        return list(zip(runs, _march(list(runs.values()), created) if runs else ()))
    except Exception:  # each config on its own, as its solo run
        if refuse is None:
            raise
        return [(i, result) for i, run in runs.items()
                if (result := _attempt(refuse, i, lambda: _march([run], created)[0])) is not None]


def _march(runs, created) -> list:
    """The ExecutionResult of each (cfg, outdir, prepared) of runs, which
    share a _batch_key, prepared an entry of _prepare and outdir passed
    make_run_dir, stepped together in one march.  The final norms come from
    one stacked pass.  The paths of the files the march creates join the
    list created, if given; a march that fails removes them first
    (_removing), and files that existed before stay."""
    cfg = runs[0][0]
    with _removing(created) as created:
        outcomes = simulate_batch([p[0] for _, _, p in runs], cfg.params,
                                  [c.stepper for c, _, _ in runs], cfg.model,
                                  _snapshot_writers(runs, created),
                                  cfg.outputs.snapshot_every or None)
        finals = _norms(np.stack([o.final_field.half for o in outcomes]),
                        outcomes[0].final_field.modes)
        return [_finish(*run, outcome, NormVector(*final), created)
                for run, outcome, final in zip(runs, outcomes, finals)]
