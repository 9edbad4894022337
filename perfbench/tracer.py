"""Per-layer spans and counts for the traced child process.

Hooks replace functions on the imported torusflow, scipy.fft and numpy.fft
modules with wrappers that record a span per call: the layer it belongs to,
its duration, and the time its direct child spans covered (so self time is
duration minus children).  Nothing inside the program changes, and the
untraced child never installs them.  A hook whose target does not exist is
reported as absent instead of failing the run.

Spans are kept per thread (sweep members run on a thread pool) and summed
when a body finishes.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import sys
import threading
import types
from time import perf_counter

TRANSFORMS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
              "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

# (module, attribute, layer).  "*Suffix.method" hooks the method on every
# class defined in the module whose name ends with Suffix.
HOOKS = (
    ("torusflow.spectral", "_embed", "layout"),
    ("torusflow.spectral", "_extract", "layout"),
    ("torusflow.spectral", "norm_vector", "norm"),
    ("torusflow.integrate", "_trace_row", "norm"),
    ("torusflow.spectral", "write_snapshot", "snapshot"),
    ("torusflow.models", "*Rhs.nonlinear", "nonlinear"),
    ("torusflow.integrate", "*.advance", "advance"),
    ("torusflow.integrate", "simulate", "simulate"),
    ("torusflow.output", "write_trace_csv", "trace_csv"),
    ("torusflow.output", "write_report_json", "report_json"),
    ("torusflow.sweep", "write_sweep_summary", "summary_csv"),
    ("torusflow.driver", "execute_run", "member"),
    ("torusflow.sweep", "run_sweep", "sweep"),
    ("torusflow.cli", "main", "cli"),
    ("torusflow.config", "load_config", "config"),
    ("torusflow.config", "parse_config", "config"),
    ("torusflow.config", "prepare_initial", "prepare_initial"),
    ("torusflow.driver", "theorem_reports", "reports"),
    ("torusflow.theory", "check_epitaxial_A2", "reports"),
    ("torusflow.theory", "check_epitaxial_A0", "reports"),
    ("torusflow.theory", "check_thinfilm_A0", "reports"),
    ("torusflow.theory", "verify_decay_envelope", "envelope"),
)

WRITERS = ("trace_csv", "report_json", "snapshot", "summary_csv")


class _Frame:
    __slots__ = ("layer", "start", "child")

    def __init__(self, layer: str, start: float):
        self.layer = layer
        self.start = start
        self.child = 0.0


class _ThreadState:
    def __init__(self):
        self.stack: list = []
        self.clear()

    def clear(self):
        self.calls: dict = {}
        self.total: dict = {}
        self.self_s: dict = {}
        self.under: dict = {}          # (layer, parent layer) -> seconds
        self.members: list = []        # (start, end) of each execute_run
        self.fft_flop = 0.0
        self.fft_bytes = 0
        self.blowup_s = 0.0
        self.advance_end = None


def _fft_work(name: str, args, kwargs, result):
    """Computed flops (5 M log2 M for a complex transform of M points, half
    that for a real one) and bytes in + out of one transform call."""
    x, y = args[0], result
    if not (hasattr(x, "shape") and hasattr(y, "shape")):
        return 0.0, 0
    axes = kwargs.get("axes", kwargs.get("axis", args[2] if len(args) > 2 else None))
    if axes is None:
        axes = {"2": (-2, -1), "n": tuple(range(x.ndim))}.get(name[-1], (-1,))
    elif isinstance(axes, int):
        axes = (axes,)
    m = math.prod(max(x.shape[a], y.shape[a]) for a in axes)
    batch = x.size // max(1, math.prod(x.shape[a] for a in axes))
    per = 2.5 if name.startswith(("r", "ir", "h", "ih")) else 5.0
    flop = batch * per * m * math.log2(m) if m > 1 else 0.0
    return flop, x.nbytes + y.nbytes


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: list = []
        self.absent: list = []

    # -- recording --------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, layer: str, fn, on_exit=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            if stack and stack[-1].layer == layer:      # re-entry into the same layer
                return fn(*args, **kwargs)
            frame = _Frame(layer, perf_counter())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame.start
                st.calls[layer] = st.calls.get(layer, 0) + 1
                st.total[layer] = st.total.get(layer, 0.0) + dur
                st.self_s[layer] = st.self_s.get(layer, 0.0) + dur - frame.child
                parent = stack[-1].layer if stack else None
                if stack:
                    stack[-1].child += dur
                key = (layer, parent)
                st.under[key] = st.under.get(key, 0.0) + dur
            if on_exit is not None:
                on_exit(st, frame.start, end, args, kwargs, result)
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def _rebind(self, orig, wrapped, extra_modules=()) -> None:
        """Replace every reference to orig held by a torusflow module."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "torusflow" or n.startswith("torusflow."))]
        for mod in [*mods, *extra_modules]:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)

    def install(self) -> None:
        import numpy.fft
        import scipy.fft

        def fft_exit(name):
            def on_exit(st, start, end, args, kwargs, result):
                flop, nbytes = _fft_work(name, args, kwargs, result)
                st.fft_flop += flop
                st.fft_bytes += nbytes
            return on_exit

        for fftmod in (scipy.fft, numpy.fft):
            for name in TRANSFORMS:
                orig = getattr(fftmod, name, None)
                if orig is None:
                    self.absent.append(f"{fftmod.__name__}.{name}")
                    continue
                self._rebind(orig, self._wrap("fft", orig, fft_exit(name)), [fftmod])

        exits = {"member": self._member_exit, "advance": self._advance_exit}
        for modname, attr, layer in HOOKS:
            mod = sys.modules.get(modname)
            targets = self._resolve(mod, attr) if mod is not None else []
            if not targets:
                self.absent.append(f"{modname}.{attr}")
                continue
            for owner, name, orig in targets:
                wrapped = self._wrap(layer, orig, exits.get(layer))
                if isinstance(owner, type):
                    setattr(owner, name, wrapped)
                else:
                    self._rebind(orig, wrapped)
        self._install_blowup_probe()

    @staticmethod
    def _resolve(mod, attr: str) -> list:
        if "." not in attr:
            fn = getattr(mod, attr, None)
            return [(mod, attr, fn)] if callable(fn) else []
        cls_pat, meth = attr.split(".")
        suffix = cls_pat.lstrip("*")
        out = []
        for cname, cls in vars(mod).items():
            if isinstance(cls, type) and cls.__module__ == mod.__name__ \
                    and cname.endswith(suffix) and meth in vars(cls):
                out.append((cls, meth, vars(cls)[meth]))
        return out

    def _install_blowup_probe(self) -> None:
        """The per-step A^0 check is inline in the run loop: a non-finite test
        and math.fsum of |c|.  integrate's `math` is replaced by a namespace
        whose fsum, when called directly from the loop, books the time since
        the step's advance returned as blow-up-check time."""
        integrate = sys.modules.get("torusflow.integrate")
        if integrate is None or getattr(integrate, "math", None) is not math:
            self.absent.append("torusflow.integrate.math.fsum")
            return
        tracer = self
        fsum = math.fsum

        def probed_fsum(values):
            result = fsum(values)
            st = tracer._state()
            if st.stack and st.stack[-1].layer == "simulate" and st.advance_end is not None:
                st.blowup_s += perf_counter() - st.advance_end
                st.advance_end = None
                st.calls["blowup_check"] = st.calls.get("blowup_check", 0) + 1
            return result

        proxy = types.SimpleNamespace(**{k: getattr(math, k) for k in dir(math)
                                         if not k.startswith("__")})
        proxy.fsum = probed_fsum
        integrate.math = proxy

    @staticmethod
    def _member_exit(st, start, end, args, kwargs, result):
        st.members.append((start, end))

    @staticmethod
    def _advance_exit(st, start, end, args, kwargs, result):
        st.advance_end = end

    # -- per-body results -------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            for st in self._states:
                st.clear()

    def body_metrics(self, body_start: float, body_s: float, cpu_s: float,
                     bytes_written: int) -> dict:
        """Per-layer metrics of the body that just finished."""
        with self._lock:
            states = list(self._states)
        calls, total, self_s, under = {}, {}, {}, {}
        members, flop, nbytes, blowup_s = [], 0.0, 0, 0.0
        for st in states:
            for src, dst in ((st.calls, calls), (st.total, total), (st.self_s, self_s),
                             (st.under, under)):
                for k, v in src.items():
                    dst[k] = dst.get(k, 0) + v
            members.extend(st.members)
            flop += st.fft_flop
            nbytes += st.fft_bytes
            blowup_s += st.blowup_s

        def c(layer):
            return calls.get(layer, 0)

        def t(layer):
            return total.get(layer, 0.0)

        def s(layer):
            return self_s.get(layer, 0.0)

        steps = c("advance")
        nl = c("nonlinear")
        member_s = [e - b for b, e in members]
        covered = _union_length(members)
        return {
            "spectral.fft_calls": c("fft"),
            "spectral.fft_s": t("fft"),
            "spectral.fft_gflop_computed": flop / 1e9,
            "spectral.fft_mb_moved_computed": nbytes / 1e6,
            "spectral.fft_gflops": flop / 1e9 / t("fft") if t("fft") > 0 else 0.0,
            "spectral.layout_s": t("layout"),
            "spectral.norm_calls": c("norm"),
            "spectral.norm_s": t("norm"),
            "spectral.snapshot_calls": c("snapshot"),
            "models.nonlinear_calls": nl,
            "models.nonlinear_s": t("nonlinear"),
            "models.nonlinear_self_s": s("nonlinear"),
            "models.nonlinear_ms_per_call": 1e3 * t("nonlinear") / nl if nl else 0.0,
            "integrate.steps": steps,
            "integrate.step_ms": 1e3 * t("simulate") / steps if steps else 0.0,
            "integrate.advance_s": t("advance"),
            "integrate.combine_self_s": s("advance"),
            "integrate.record_s": under.get(("norm", "simulate"), 0.0),
            "integrate.blowup_check_s": blowup_s,
            "integrate.loop_self_s": s("simulate") - blowup_s,
            "output.trace_csv_s": t("trace_csv"),
            "output.report_json_s": t("report_json"),
            "output.write_s": sum(t(w) for w in WRITERS),
            "output.bytes_written": bytes_written,
            "config.load_s": t("config"),
            "config.prepare_initial_s": t("prepare_initial"),
            "theory.reports_s": t("reports"),
            "theory.envelope_s": t("envelope"),
            "driver.self_s": s("member"),
            "cli.self_s": s("cli"),
            "sweep.members": len(members),
            "sweep.member_s_p50": statistics.median(member_s) if member_s else 0.0,
            "sweep.wait_s": statistics.fmean(b - body_start for b, _ in members)
            if members else 0.0,
            "sweep.self_s": body_s - covered,
            "sweep.overlap": sum(member_s) / body_s,
            "sweep.cpu_util": cpu_s / body_s,
        }


def _union_length(intervals) -> float:
    total, cur_b, cur_e = 0.0, None, None
    for b, e in sorted(intervals):
        if cur_e is None or b > cur_e:
            if cur_e is not None:
                total += cur_e - cur_b
            cur_b, cur_e = b, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_b
    return total


def tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)
