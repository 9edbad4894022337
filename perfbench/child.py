"""Child processes of the benchmark; run.py starts them one at a time.

    python3 perfbench/child.py setup SRC CONFIG   cold start: import torusflow,
                                                  load_config, check_only
    python3 perfbench/child.py solve SPEC         verify once, then run timed
                                                  bodies through torusflow.cli.main
    python3 perfbench/child.py reference SRC WORKDIR SEED
                                                  reference outputs of every workload

Each prints one JSON object as its last line of standard output.  numpy,
scipy, torusflow and the benchmark's own modules are imported inside the
functions, so that the setup probe measures the import of torusflow cold.
"""

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time


def _import_torusflow(src: str):
    sys.path.insert(0, src)
    import torusflow

    where = os.path.dirname(os.path.abspath(torusflow.__file__))
    if os.path.dirname(where) != os.path.abspath(src):
        raise RuntimeError(f"imported torusflow from {where}, not from {src}")
    return torusflow


def setup(src: str, config_path: str) -> dict:
    t0 = time.perf_counter()
    torusflow = _import_torusflow(src)
    cfg = torusflow.load_config(config_path)
    torusflow.check_only(cfg)
    return {"setup_s": time.perf_counter() - t0}


class Calibration:
    """Fixed work that uses numpy, scipy.fft and the interpreter but no
    torusflow code, in roughly the proportions of a solver step: complex 2-D
    FFTs, elementwise products, math.fsum over a list, a Python loop.

    Bodies are timed between two calibration runs; body time divided by the
    mean of the two tracks the machine's speed at that moment, which on a
    shared host drifts by tens of percent over tens of seconds.
    """

    def __init__(self):
        import numpy as np
        import scipy.fft

        rng = np.random.Generator(np.random.Philox(key=0))
        # Bound now, so that tracer hooks installed later do not slow it.
        self.ifft2, self.fft2 = scipy.fft.ifft2, scipy.fft.fft2
        self.a = rng.standard_normal((100, 100)) + 1j * rng.standard_normal((100, 100))
        self.ints = list(range(20000))

    def run(self) -> float:
        import math

        t0 = time.perf_counter()
        for _ in range(600):
            b = self.ifft2(self.a)
            self.fft2(b * b)
        for _ in range(20):
            math.fsum(abs(self.a).ravel().tolist())
            sum(x * x for x in self.ints)
        return time.perf_counter() - t0


def _hermitian_errors(field) -> list:
    import numpy as np

    c = field.coeff
    if not np.array_equal(c, np.conj(c[::-1, ::-1])):
        return ["final field is not exactly Hermitian"]
    return []


class _Checker:
    """Counts attempted and failed runs and keeps the first messages."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def book(self, where: str, errs: list) -> None:
        self.attempted += 1
        if errs:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{where}: {'; '.join(errs)}")

    def run_errors(self, i: int, rec: dict) -> list:
        from workloads import invariant_errors, reference_errors

        errs = invariant_errors(rec)
        if self.reference is not None:
            errs += reference_errors(rec, self.reference["runs"][i])
        return errs

    def expected_exit(self) -> int:
        return 0 if self.reference is None else self.reference["exit_code"]


def _verify(torusflow, wl, paths, workdir, chk: _Checker) -> list:
    """Run every member once through driver.execute_run (no timing) and check
    what only the in-memory result shows: the final field is Hermitian."""
    from workloads import read_run

    records = []
    for i, raw in enumerate(wl.member_configs(paths)):
        vdir = os.path.join(workdir, f"verify_{i:04d}")
        try:
            result = torusflow.execute_run(torusflow.parse_config(raw), outdir=vdir)
            rec = read_run(vdir)
            errs = _hermitian_errors(result.outcome.final_field) + chk.run_errors(i, rec)
        except Exception as e:  # a crash is a failed run, not a harness error
            rec, errs = None, [f"{type(e).__name__}: {e}"]
        records.append(rec)
        chk.book(f"verify run {i}", errs)
        shutil.rmtree(vdir, ignore_errors=True)
    return records


def _check_body(wl, outdir: str, rc: int, verified: list, chk: _Checker, body: int) -> None:
    """Check one timed body's outputs; each run (sweep member) counts once."""
    from workloads import read_run, summary_errors

    body_errs = [] if rc == chk.expected_exit() else [f"exit code {rc}"]
    records, run_errs = [], []
    for i, run_dir in enumerate(wl.run_dirs(outdir)):
        try:
            rec = read_run(run_dir)
            errs = chk.run_errors(i, rec)
            if rec != verified[i]:
                errs.append("outputs differ from the verification run of the same config")
        except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
            rec, errs = None, [f"unreadable outputs: {type(e).__name__}: {e}"]
        records.append(rec)
        run_errs.append(errs)
    if wl.kind == "sweep":
        try:
            summary_body, summary_runs = summary_errors(wl, outdir, records)
        except (OSError, ValueError, IndexError) as e:
            summary_body, summary_runs = [f"summary.csv: {type(e).__name__}: {e}"], []
        body_errs += summary_body
        for errs, extra in zip(run_errs, summary_runs):
            errs += extra
    for i, errs in enumerate(run_errs):
        chk.book(f"body {body} run {i}", body_errs + errs)


def solve(spec: dict) -> dict:
    torusflow = _import_torusflow(spec["src"])
    import numpy
    import scipy
    from torusflow import cli

    from workloads import WORKLOADS

    calibration = Calibration()
    tracer = None
    if spec["traced"]:
        from tracer import Tracer, tree_bytes

        tracer = Tracer()
        tracer.install()

    wl = WORKLOADS[spec["workload"]]
    paths, workdir = spec["paths"], spec["workdir"]
    chk = _Checker(spec["reference"])
    verified = _verify(torusflow, wl, paths, workdir, chk)

    outdir = os.path.join(workdir, "body")
    args = wl.cli_args(paths, outdir)
    times, layers = [], []
    cal = [calibration.run()]
    loop_start = time.perf_counter()
    while not times or time.perf_counter() - loop_start < spec["seconds"]:
        if tracer is not None:
            tracer.reset()
        cpu0 = os.times()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(args)
        t1 = time.perf_counter()
        cpu1 = os.times()
        times.append(t1 - t0)
        if tracer is not None:
            cpu_s = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
            layers.append(tracer.body_metrics(t0, t1 - t0, cpu_s, tree_bytes(outdir)))
        _check_body(wl, outdir, rc, verified, chk, len(times) - 1)
        shutil.rmtree(outdir, ignore_errors=True)
        cal.append(calibration.run())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    return {
        "solve_s": times,
        "solve_rel": [t / (0.5 * (c0 + c1)) for t, c0, c1 in zip(times, cal, cal[1:])],
        "calibration_s": cal,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "messages": chk.messages,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "absent_hooks": [] if tracer is None else tracer.absent,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }


def reference(src: str, workdir: str, seed: int) -> dict:
    _import_torusflow(src)
    from torusflow import cli

    from workloads import WORKLOADS, read_run, reference_record

    out = {}
    for name, wl in WORKLOADS.items():
        paths = wl.write_inputs(workdir, seed)
        outdir = os.path.join(workdir, name)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(wl.cli_args(paths, outdir))
        out[name] = {"exit_code": rc,
                     "runs": [reference_record(read_run(d)) for d in wl.run_dirs(outdir)]}
    return out


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "setup":
        out = setup(argv[1], argv[2])
    elif len(argv) == 4 and argv[0] == "reference":
        out = reference(argv[1], argv[2], int(argv[3]))
    elif len(argv) == 2 and argv[0] == "solve":
        with open(argv[1]) as fh:
            out = solve(json.load(fh))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
