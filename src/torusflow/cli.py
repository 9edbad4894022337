"""Command-line entry points.

Subcommands: simulate, check, sweep, verify, convergence.  Exit codes:
0 success, 2 config error, 3 numerical failure, 4 blow-up detected,
5 envelope violation (verify).  Outside data is checked where it enters,
so main maps only a ConfigError to exit 2; any other error is a bug, and
ends in a traceback with exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys

from .config import MAX_STEPS, ConfigError, file_errors, load_config, read_json
from .driver import _prepare, _removing, check_only, execute_run
from .integrate import StepperConfig, _steps, simulate
from .models import config_lines, unknown_keys, violations
from .output import read_trace_csv, report_text, write_report_json
from .spectral import SpectralField, wiener_norm
from .sweep import DEFAULT_MAX_RUNS, axis_errors, run_sweep
from .theory import ENVELOPE_TOL, envelope_arg_errors, verify_decay_envelope

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_BLOWUP = 4
EXIT_ENVELOPE = 5

_SWEEP_RULES = [(key, True, lambda v: v >= 1, "must be an integer >= 1")
                for key in ("max_runs", "workers")]

_STATUS_EXIT = {
    "completed": EXIT_OK,
    "numerical_failure": EXIT_NUMERICAL,
    "blowup_detected": EXIT_BLOWUP,
}


class _Parser(argparse.ArgumentParser):
    """Reads a token that parses as a float ("-inf", "-1e-3") as a value."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _print(text: str, end: str = "\n") -> None:
    """print to standard output, flushed: a write that fails, or a name
    from the command line that its encoding cannot take, is a config error
    that names it.  The unwritten bytes stay in the stream's buffer, so its
    descriptor then goes to os.devnull: the flush at exit would fail again
    (exit status 120 and an "Exception ignored" on stderr)."""
    with file_errors("standard output"):
        try:
            print(text, end=end, flush=True)
        except UnicodeEncodeError as e:  # raised before the text is buffered
            raise ConfigError([f"standard output: {e}"]) from None
        except OSError:
            with contextlib.suppress(AttributeError, OSError):  # a stream without one
                fd, null = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, fd)
                os.close(null)
            raise


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="torusflow",
                 description="Spectral simulation and decay verification on the 2-torus")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one configuration and write trace + report")
    p.add_argument("config")
    p.add_argument("--outdir", default=None, help="override the config output directory")

    p = sub.add_parser("check", help="evaluate the smallness conditions only, no time stepping")
    p.add_argument("config")
    p.add_argument("--output", default=None, help="write the report JSON here instead of stdout")

    p = sub.add_parser("sweep", help="Cartesian parameter sweep")
    p.add_argument("config")
    p.add_argument("axes", help="JSON file: {\"axes\": [{\"path\": ..., \"values\": [...]}], ...}")
    p.add_argument("--outdir", default="sweep_out")

    p = sub.add_parser("verify", help="check a trace CSV against exp(-lambda t) decay")
    p.add_argument("trace")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--norm", choices=("a0", "a2"), default="a2")
    p.add_argument("--tol", type=float, default=ENVELOPE_TOL)

    p = sub.add_parser("convergence", help="fixed-step self-convergence study")
    p.add_argument("config")
    p.add_argument("--levels", type=int, default=3, help="number of dt halvings")
    return ap


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    with _removing() as created:  # a failed write to standard output leaves no file the run made
        result = execute_run(cfg, outdir=args.outdir, created=created)
        run = result.report["run"]
        primary = result.reports[0]
        _print(f"status: {run['status']}  final_time: {run['final_time']:g}")
        _print(f"theorem {primary.theorem_id}: margin={primary.margin:.6g} "
               f"lambda={primary.lam:.6g} satisfied={primary.satisfied}")
        if result.envelope is not None:
            _print(f"envelope: passed={result.envelope.passed} "
                   f"worst_ratio={result.envelope.worst_ratio:.9g}")
    return _STATUS_EXIT[run["status"]]


def _cmd_check(args) -> int:
    cfg = load_config(args.config)
    result = check_only(cfg)
    if args.output:
        with file_errors(args.output, "--output "):
            write_report_json(result.report, args.output)
    else:
        _print(report_text(result.report), end="")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    base = read_json(args.config)
    axes_raw = read_json(args.axes)
    where = f"{args.axes}: "
    if not isinstance(axes_raw, dict) or not isinstance(axes_raw.get("axes"), list):
        raise ConfigError([f"{where}expected an object with an 'axes' list"])
    errors = unknown_keys(axes_raw, where, {"axes", "max_runs", "workers"})
    axes = []
    for i, ax in enumerate(axes_raw["axes"]):
        if not isinstance(ax, dict) or set(ax) != {"path", "values"}:
            errors.append(f"{where}axes[{i}] must be {{'path', 'values'}}")
        else:
            axes.append((ax["path"], ax["values"]))
            errors += axis_errors(ax["path"], ax["values"], f"{where}axes[{i}].", base)
    # workers is accepted but has no effect: members that share a system are
    # stepped as batches, one batch at a time, on one thread
    errors += config_lines(violations(_SWEEP_RULES, axes_raw), where)
    if errors:
        raise ConfigError(errors)
    with _removing() as created:  # as in simulate
        rows = run_sweep(base, axes, args.outdir, axes_raw.get("max_runs", DEFAULT_MAX_RUNS), created)
        n_ok = sum(1 for r in rows if r["status"] == "completed")
        _print(f"sweep finished: {len(rows)} runs, {n_ok} completed; summary in "
               f"{args.outdir}/summary.csv")
    return EXIT_OK


def _cmd_verify(args) -> int:
    errors = envelope_arg_errors(args.lam, args.tol, ("--lambda", "--tol"))
    if errors:
        raise ConfigError(errors)
    trace = read_trace_csv(args.trace)
    verdict = verify_decay_envelope(trace, args.norm, args.lam, args.tol)
    _print(f"envelope {args.norm} lambda={args.lam:g}: passed={verdict.passed} "
           f"worst_ratio={verdict.worst_ratio:.9g}"
           + ("" if verdict.first_violation_t is None
              else f" first_violation_t={verdict.first_violation_t:g}"))
    return EXIT_OK if verdict.passed else EXIT_ENVELOPE


def _cmd_convergence(args) -> int:
    cfg = load_config(args.config)
    if args.levels < 1:
        raise ConfigError(["--levels must be >= 1"])
    # every level's stepper before the first march; the step cap refuses a
    # level by the 24th halving, so a huge --levels stops there
    steppers = []
    for i in range(args.levels + 1):
        level = {"dt": cfg.stepper.dt / 2**i, "t_end": cfg.stepper.t_end}
        try:
            steppers.append(dataclasses.replace(cfg.stepper, **level))
        except ValueError as e:  # the step cap, unless a field rule breaks first
            capped = not violations(StepperConfig.RULES, level) and _steps(level) is None
            raise ConfigError([f"--levels: {args.levels} halvings of dt " + (
                f"need more than {MAX_STEPS} steps" if capped else f"break {e}")]) from None
    initial = _prepare([cfg])[0][0]
    finals = []
    worst = EXIT_OK
    for stepper in steppers:
        out = simulate(initial, cfg.params, stepper, cfg.model)
        if out.status != "completed":
            _print(f"dt={stepper.dt:g}: {out.status}")
            worst = max(worst, _STATUS_EXIT[out.status])
            finals.append(None)
            continue
        finals.append(out.final_field)
    _print(f"{'dt':>12} {'err_a0_vs_half':>16} {'ratio':>8}")
    prev_err = None
    for i in range(len(steppers) - 1):
        if finals[i] is None or finals[i + 1] is None:
            continue
        err = wiener_norm(SpectralField._from_half(finals[i].modes, finals[i].half - finals[i + 1].half), 0)
        ratio = "" if prev_err is None or err == 0 else f"{prev_err / err:8.3f}"
        _print(f"{steppers[i].dt:12.6g} {err:16.6e} {ratio:>8}")
        prev_err = err
    return worst


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "check": _cmd_check,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
        "convergence": _cmd_convergence,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as e:
        for msg in e.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
