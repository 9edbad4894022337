"""Command-line entry points.

Subcommands: simulate, check, sweep, verify, convergence.  Exit codes:
0 success, 2 config error, 3 numerical failure, 4 blow-up detected,
5 envelope violation (verify).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .config import MAX_STEPS, ConfigError, _Ctx, load_config, prepare_initial, read_json
from .driver import check_only, execute_run
from .integrate import simulate
from .output import read_trace_csv, write_report_json
from .spectral import SpectralField, wiener_norm
from .sweep import DEFAULT_MAX_RUNS, run_sweep
from .theory import verify_decay_envelope

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_BLOWUP = 4
EXIT_ENVELOPE = 5

_STATUS_EXIT = {
    "completed": EXIT_OK,
    "numerical_failure": EXIT_NUMERICAL,
    "blowup_detected": EXIT_BLOWUP,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="torusflow",
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
    p.add_argument("--tol", type=float, default=1e-6)

    p = sub.add_parser("convergence", help="fixed-step self-convergence study")
    p.add_argument("config")
    p.add_argument("--levels", type=int, default=3, help="number of dt halvings")
    return ap


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    result = execute_run(cfg, outdir=args.outdir)
    run = result.report["run"]
    primary = result.reports[0]
    print(f"status: {run['status']}  final_time: {run['final_time']:g}")
    print(f"theorem {primary.theorem_id}: margin={primary.margin:.6g} "
          f"lambda={primary.lam:.6g} satisfied={primary.satisfied}")
    if result.envelope is not None:
        print(f"envelope: passed={result.envelope.passed} "
              f"worst_ratio={result.envelope.worst_ratio:.9g}")
    return _STATUS_EXIT[run["status"]]


def _cmd_check(args) -> int:
    cfg = load_config(args.config)
    result = check_only(cfg)
    if args.output:
        write_report_json(result.report, args.output)
    else:
        json.dump(result.report, sys.stdout, indent=2, sort_keys=True)
        print()
    return EXIT_OK


def _cmd_sweep(args) -> int:
    base = read_json(args.config)
    axes_raw = read_json(args.axes)
    where = f"{args.axes}: "
    if not isinstance(axes_raw, dict) or not isinstance(axes_raw.get("axes"), list):
        raise ConfigError([f"{where}expected an object with an 'axes' list"])
    ctx = _Ctx()
    ctx.known(axes_raw, where, {"axes", "max_runs", "workers"})
    axes = []
    for i, ax in enumerate(axes_raw["axes"]):
        if not isinstance(ax, dict) or set(ax) != {"path", "values"}:
            ctx.fail(f"{where}axes[{i}] must be {{'path', 'values'}}")
        else:
            axes.append((ax["path"], ax["values"]))
    positive = {"integer": True, "cond": lambda v: v >= 1, "msg": "must be an integer >= 1"}
    max_runs = ctx.number(axes_raw, where, "max_runs", DEFAULT_MAX_RUNS, **positive)
    ctx.number(axes_raw, where, "workers", **positive)  # accepted; members run one at a time
    if ctx.errors:
        raise ConfigError(ctx.errors)
    rows = run_sweep(base, axes, args.outdir, max_runs=max_runs)
    n_ok = sum(1 for r in rows if r["status"] == "completed")
    print(f"sweep finished: {len(rows)} runs, {n_ok} completed; summary in "
          f"{args.outdir}/summary.csv")
    return EXIT_OK


def _cmd_verify(args) -> int:
    trace = read_trace_csv(args.trace)
    verdict = verify_decay_envelope(trace, args.norm, args.lam, args.tol)
    print(f"envelope {args.norm} lambda={args.lam:g}: passed={verdict.passed} "
          f"worst_ratio={verdict.worst_ratio:.9g}"
          + ("" if verdict.first_violation_t is None
             else f" first_violation_t={verdict.first_violation_t:g}"))
    return EXIT_OK if verdict.passed else EXIT_ENVELOPE


def _cmd_convergence(args) -> int:
    cfg = load_config(args.config)
    if args.levels < 1:
        raise ConfigError(["--levels must be >= 1"])
    if round(cfg.stepper.t_end / cfg.stepper.dt) > MAX_STEPS >> args.levels:
        raise ConfigError([f"--levels: {args.levels} halvings of dt need more than "
                           f"{MAX_STEPS} steps"])
    initial, _ = prepare_initial(cfg)
    finals = []
    dts = [cfg.stepper.dt / 2**i for i in range(args.levels + 1)]
    worst = EXIT_OK
    for dt in dts:
        stepper = dataclasses.replace(cfg.stepper, dt=dt)
        out = simulate(initial, cfg.params, stepper, cfg.model)
        if out.status != "completed":
            print(f"dt={dt:g}: {out.status}")
            worst = max(worst, _STATUS_EXIT[out.status])
            finals.append(None)
            continue
        finals.append(out.final_field)
    print(f"{'dt':>12} {'err_a0_vs_half':>16} {'ratio':>8}")
    prev_err = None
    for i in range(len(dts) - 1):
        if finals[i] is None or finals[i + 1] is None:
            continue
        err = wiener_norm(SpectralField(finals[i].modes, finals[i].coeff - finals[i + 1].coeff), 0)
        ratio = "" if prev_err is None or err == 0 else f"{prev_err / err:8.3f}"
        print(f"{dts[i]:12.6g} {err:16.6e} {ratio:>8}")
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
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
