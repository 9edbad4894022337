"""One place that turns a validated config into a finished run.

Used by the CLI subcommands and by parameter sweeps: generate the initial
field, evaluate the applicable smallness conditions, integrate, check the
decay envelope when a condition holds, and write trace/report/snapshots.
"""

from __future__ import annotations

import math
import os
from dataclasses import astuple, dataclass

import numpy as np

from .config import NORM_EXPONENTS, ConfigError, RunConfig, config_to_dict, prepare_initial
from .integrate import RunOutcome, simulate
from .output import write_report_json, write_trace_csv
from .spectral import NormVector, norm_vector, wiener_norm, write_snapshot
from .theory import (
    EnvelopeVerdict,
    TheoremReport,
    check_epitaxial_A0,
    check_epitaxial_A2,
    check_thinfilm_A0,
    verify_decay_envelope,
)

__all__ = ["ExecutionResult", "theorem_reports", "check_only", "execute_run"]

ENVELOPE_TOL = 1e-6

THINFILM_NOTES = [
    "norms refer to the zero-mean variable v = u - 1; the mean of u is 1 + mean(v)",
    "the simulator evolves the exact equation (linearization carries chi*p*|k|^2); "
    "theorem margins use the stated constants, whose linear coefficient is chi*|k|^2",
    "the claimed decay exponent carries c*chi*p! while the smallness margin carries "
    "c*chi*p!/2; both are reported without reconciliation",
]


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


def _finite_norm(f, s: float) -> bool:
    try:
        return math.isfinite(wiener_norm(f, s))
    except OverflowError:  # math.fsum of finite terms beyond the float range
        return False


def _initial_norms(initial) -> NormVector:
    """Norms of the initial field.  A norm beyond the float range would make
    the reports and the trace non-finite, so it is a config error naming
    each such norm."""
    with np.errstate(over="ignore"):
        try:
            nv = norm_vector(initial)
            if all(math.isfinite(x) for x in astuple(nv)):
                return nv
        except OverflowError:
            pass
        bad = [name for name, s in NORM_EXPONENTS.items() if not _finite_norm(initial, s)]
    raise ConfigError([f"initial_data: the Wiener norm {name} of the initial field "
                       "overflows the float range" for name in bad])


def _prepare(cfg: RunConfig):
    """Initial field, its norms, the theorem reports and the report skeleton."""
    initial, meta = prepare_initial(cfg)
    nv = _initial_norms(initial)
    reports = theorem_reports(cfg, nv)
    return initial, nv, reports, {
        "config": config_to_dict(cfg),
        "variable": meta["variable"],
        "initial_norms": {"a0": nv.a0, "a2": nv.a2, "a4": nv.a4, "a6": nv.a6},
        "theorems": [r.to_dict() for r in reports],
        "envelope": None,
        "run": None,
        "notes": THINFILM_NOTES if cfg.model == "thinfilm" else [],
    }


def check_only(cfg: RunConfig) -> ExecutionResult:
    """Theorem reports without time stepping."""
    _, nv, reports, report = _prepare(cfg)
    return ExecutionResult(outcome=None, reports=reports, envelope=None,
                           initial_norms=nv, report=report)


def execute_run(cfg: RunConfig, outdir=None) -> ExecutionResult:
    """Full pipeline; writes trace CSV, report JSON and optional snapshots
    under outdir (default: the config's output directory)."""
    initial, nv, reports, report = _prepare(cfg)

    outdir = cfg.outputs.directory if outdir is None else outdir
    on_record = None
    fields_every = None
    if cfg.outputs.snapshot_every > 0:
        os.makedirs(outdir, exist_ok=True)
        prefix = os.path.join(outdir, cfg.outputs.snapshot_prefix)
        fields_every = cfg.outputs.snapshot_every

        def on_record(step, t, field):
            write_snapshot(field, f"{prefix}_{step:08d}.txt")

    outcome = simulate(initial, cfg.params, cfg.stepper, cfg.model,
                       on_record=on_record, record_fields_every=fields_every)

    envelope = None
    primary = reports[0]
    if primary.satisfied and outcome.status == "completed":
        envelope = verify_decay_envelope(outcome.trace, _envelope_norm(primary),
                                         primary.lam, ENVELOPE_TOL)

    fnv = norm_vector(outcome.final_field)
    report["envelope"] = envelope.to_dict() if envelope is not None else None
    mean_final = float(outcome.trace.mean[-1])
    report["run"] = {
        "status": outcome.status,
        "final_time": outcome.final_time,
        "final_norms": {"a0": fnv.a0, "a2": fnv.a2, "a4": fnv.a4, "a6": fnv.a6},
        "mean_final": mean_final,
        "mean_u_final": mean_final + (1.0 if cfg.model == "thinfilm" else 0.0),
    }

    os.makedirs(outdir, exist_ok=True)
    write_trace_csv(outcome.trace, os.path.join(outdir, cfg.outputs.trace_csv))
    write_report_json(report, os.path.join(outdir, cfg.outputs.report_json))

    return ExecutionResult(outcome=outcome, reports=reports, envelope=envelope,
                           initial_norms=nv, report=report)
