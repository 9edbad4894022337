"""torusflow benchmark: time to solution through the public CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --write-reference

Run from the repository root.  Workloads, metrics and units are listed in
BENCHMARK.json; what each layer metric is predicted to move is in
perfbench/PREDICTIONS.md.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      median over 8 cold child processes of `import torusflow`,
               load_config and check_only, half before and half after the
               bodies (one extra first start is dropped, it compiles bytecode);
  solve_s      median wall time of one workload body, `torusflow.cli.main`
               with the workload's simulate or sweep arguments, repeated in a
               fresh child process for --seconds;
  solve_rel    median over bodies of body time / time of a fixed calibration
               kernel run just before and after it (child.Calibration); this
               is the gated time to solution, because the host's speed drifts;
  peak_rss_mb  that child's ru_maxrss.
--trace 1 runs the bodies untraced for half of --seconds, then with per-layer
hooks (perfbench/tracer.py) in a second child for the other half, and reports
the median of each layer metric over the traced bodies.

Every run is checked (perfbench/workloads.py): invariants for any seed, and
the committed reference outputs for the reference seed.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

REFERENCE_SEED = 0
REFERENCE_PATH = os.path.join(HERE, "reference.json")
SETUP_COLD_STARTS = 8
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Counts that must repeat exactly from one traced body to the next.
EXACT_COUNTS = ("spectral.fft_calls", "spectral.norm_calls", "spectral.snapshot_calls",
                "models.nonlinear_calls", "integrate.steps", "output.bytes_written",
                "sweep.members")


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child(args: list, timeout: float) -> dict:
    env = {**os.environ, **CHILD_ENV}
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), *args],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"child {args[0]} exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"child {args[0]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def load_metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {"end_to_end": bench["end_to_end"], "per_layer": bench["per_layer"]}


def load_reference(name: str, seed: int, corrupt: bool) -> dict | None:
    """Reference outputs of the workload at the reference seed, else None.
    corrupt scales every reference final A^2 by 1 + 1e-6 (self-test)."""
    if seed != REFERENCE_SEED:
        return None
    with open(REFERENCE_PATH) as fh:
        ref = json.load(fh)["workloads"][name]
    if corrupt:
        for run in ref["runs"]:
            run["final_norms"]["a2"] *= 1.0 + 1e-6
    return ref


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 cold_starts: int = SETUP_COLD_STARTS, corrupt: bool = False) -> dict:
    wl = WORKLOADS[name]
    workdir = os.path.join(HERE, "_work", f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        paths = wl.write_inputs(workdir, seed)
        spec = {"src": SRC, "workload": name, "paths": paths, "workdir": workdir,
                "reference": load_reference(name, seed, corrupt)}

        def solve(traced: bool, secs: float) -> dict:
            spec_path = os.path.join(workdir, f"spec_{int(traced)}.json")
            with open(spec_path, "w") as fh:
                json.dump({**spec, "traced": traced, "seconds": secs}, fh)
            return _child(["solve", spec_path], timeout=secs + 120)

        out = {"workload": name, "seed": seed}
        if trace:
            plain = solve(False, seconds / 2)
            traced = solve(True, seconds / 2)
            runs = [plain, traced]
            out["layers"] = traced["layers"]
            out["absent_hooks"] = traced["absent_hooks"]
            out["overhead_frac"] = (statistics.median(traced["solve_rel"])
                                    / statistics.median(plain["solve_rel"]) - 1.0)
        else:
            def cold_start() -> float:
                return _child(["setup", SRC, paths["config"]], timeout=60)["setup_s"]

            # The first start compiles bytecode and is dropped.  The others
            # straddle the bodies, so they see the host as the bodies did.
            cold_start()
            setups = [cold_start() for _ in range(cold_starts // 2)]
            plain = solve(False, seconds)
            setups += [cold_start() for _ in range(cold_starts - cold_starts // 2)]
            runs = [plain]
            out["setup_samples"] = setups
            out["solve_rel_samples"] = plain["solve_rel"]
            out["calibration_s"] = plain["calibration_s"]
            out["peak_rss_mb"] = plain["peak_rss_mb"]
        out["solve_samples"] = plain["solve_s"]
        out["attempted"] = sum(r["attempted"] for r in runs)
        out["failed"] = sum(r["failed"] for r in runs)
        out["messages"] = [m for r in runs for m in r["messages"]]
        out["versions"] = plain["versions"]
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def layer_metrics(res: dict) -> tuple:
    """Median of each layer metric over the traced bodies, and whether every
    exact count repeated."""
    bodies = res["layers"]
    metrics = {k: statistics.median(b[k] for b in bodies) for k in bodies[0]}
    metrics["trace.overhead_frac"] = res["overhead_frac"]
    repeated = all(len({b[k] for b in bodies}) == 1 for k in EXACT_COUNTS)
    return metrics, repeated


def _read_git_sha() -> str:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "torusflow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _cache_sizes() -> dict:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            d = os.path.join(base, idx)
            with open(os.path.join(d, "level")) as f1, open(os.path.join(d, "size")) as f2, \
                    open(os.path.join(d, "type")) as f3:
                level, size, kind = f1.read().strip(), f2.read().strip(), f3.read().strip()
            if level in ("2", "3") and kind != "Instruction":
                out[f"L{level}"] = size
    except OSError:
        pass
    return out or {"L2": "unknown", "L3": "unknown"}


def provenance(res: dict, seconds: float, trace: int) -> dict:
    return {
        "git_sha": _read_git_sha(),
        "src_sha256": _source_digest(),
        "workload": res["workload"],
        "seed": res["seed"],
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        **res["versions"],
        "cache": _cache_sizes(),
    }


def _spread(label: str, values: list, unit: str) -> dict:
    q1, med, q3 = _quartiles(values)
    print(f"    {label}: median {med:.6g} {unit}, quartiles {q1:.6g} .. {q3:.6g} "
          f"over n={len(values)}, spread (q3-q1)/median {(q3 - q1) / med:.3f}")
    return {"n": len(values), "q1": q1, "median": med, "q3": q3,
            "spread": (q3 - q1) / med}


def report(res: dict, seconds: float, trace: int, specs: dict) -> dict:
    """Print every metric by name and unit, the spread over repeats and the
    provenance; return the contract's result object."""
    print(f"perfbench {res['workload']} seed={res['seed']} seconds={seconds:g} trace={trace}")
    spreads = {}
    if trace:
        metrics, repeated = layer_metrics(res)
        wanted = specs["per_layer"]
        if res["absent_hooks"]:
            print(f"  hooks absent: {', '.join(res['absent_hooks'])}")
        spreads["traced_bodies"] = len(res["layers"])
    else:
        repeated = True
        metrics = {"setup_s": statistics.median(res["setup_samples"]),
                   "solve_rel": statistics.median(res["solve_rel_samples"]),
                   "peak_rss_mb": res["peak_rss_mb"]}
        wanted = specs["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise HarnessError(f"metrics not produced: {missing}")
    for m in wanted:
        print(f"  {m['name']:<34} = {metrics[m['name']]:.6g} {m['unit']}")
    if not trace:
        solve_s = statistics.median(res["solve_samples"])
        print(f"  {'solve_s':<34} = {solve_s:.6g} s   (wall; not gated, see solve_rel)")
        spreads["setup_s"] = _spread("setup_s", res["setup_samples"], "s")
        spreads["solve_s"] = _spread("solve_s", res["solve_samples"], "s")
        spreads["solve_rel"] = _spread("solve_rel", res["solve_rel_samples"], "ratio")
        spreads["calibration_s"] = _spread("calibration_s", res["calibration_s"], "s")
    failed, attempted = res["failed"], res["attempted"]
    print(f"  {'failed_frac':<34} = {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} runs failed)")
    if not repeated:
        print("  exact counts did not repeat between traced bodies")
    for msg in res["messages"]:
        print(f"  FAILED {msg}")
    print("  provenance " + json.dumps({**provenance(res, seconds, trace),
                                        "spread": spreads}, sort_keys=True))
    return {
        "correct": failed == 0 and repeated,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def selftest() -> int:
    """Each workload runs in both modes and prints every metric with its
    unit; a corrupted reference value drives failed_frac to 1."""
    specs = load_metric_specs()
    ok = True

    def expect(cond: bool, what: str) -> None:
        nonlocal ok
        ok &= cond
        print(f"selftest {'PASS' if cond else 'FAIL'}: {what}", flush=True)

    for name in WORKLOADS:
        for trace in (0, 1):
            res = run_workload(name, REFERENCE_SEED, 1.0, trace, cold_starts=2)
            out = report(res, 1.0, trace, specs)
            kind = "per_layer" if trace else "end_to_end"
            units = {m["name"]: m["unit"] for m in specs[kind]}
            expect(out["correct"] and out["failed"] == 0,
                   f"{name} trace={trace} runs correctly ({out['attempted']} runs)")
            expect({k: v["unit"] for k, v in out["metrics"].items()} == units,
                   f"{name} trace={trace} prints all {len(units)} {kind} metrics with units")
        res = run_workload(name, REFERENCE_SEED, 1.0, 0, cold_starts=1, corrupt=True)
        out = report(res, 1.0, 0, specs)
        expect(out["failed"] == out["attempted"] and not out["correct"],
               f"{name} corrupted reference gives failed_frac "
               f"{out['failed']}/{out['attempted']}")
    print(f"selftest {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def write_reference() -> int:
    """Record the reference outputs of every workload at the reference seed."""
    workdir = os.path.join(HERE, "_work", f"reference-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        out = _child(["reference", SRC, workdir, str(REFERENCE_SEED)], timeout=600)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"seed": REFERENCE_SEED, "workloads": out}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "torusflow", "__init__.py")):
        print(f"perfbench: no torusflow package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.selftest:
            return selftest()
        if args.write_reference:
            return write_reference()
        if args.workload is None:
            ap.error("--workload is required")
        if not 0 <= args.seed < 2**64 or args.seconds <= 0:
            ap.error("--seed must be in [0, 2^64) and --seconds > 0")
        specs = load_metric_specs()
        res = run_workload(args.workload, args.seed, args.seconds, args.trace)
        out = report(res, args.seconds, args.trace, specs)
    except HarnessError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
