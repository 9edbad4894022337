"""Time integration of the spectral systems.

The diagonal linear symbol (epitaxial: -K0|k|^2 - K2|k|^4; thin film:
-|k|^4) is handled exactly by the two-stage exponential scheme ETD2 and
implicitly by IMEX1; nonlinear terms are explicit in both.  The k = 0 mode
is frozen rather than integrated, so the mean is conserved exactly.  The run
state is a (B, 2n+1, n+1) stack of k2 >= 0 half blocks, one per member; full
fields are built only at the edges.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .models import MAX_STEPS, RHS, Checked, _require_zero_mean, make_rhs
from .spectral import ModeSet, SpectralField, _moduli, _norms

__all__ = [
    "SCHEMES",
    "MODELS",
    "StepperConfig",
    "NormTrace",
    "RunOutcome",
    "step",
    "simulate",
    "simulate_batch",
]

MODELS = tuple(RHS)
SCHEMES = ("ETD2", "IMEX1")

STATUS_COMPLETED = "completed"
STATUS_BLOWUP = "blowup_detected"
STATUS_FAILURE = "numerical_failure"


def _steps(s) -> int | None:
    """round(t_end / dt), at least 1: the steps of a march with the stepper
    values s (dt > 0); None past the cap of MAX_STEPS."""
    q = s["t_end"] / s["dt"]
    return max(1, round(q)) if math.isfinite(q) and round(q) <= MAX_STEPS else None


@dataclass(frozen=True)
class StepperConfig(Checked):
    """Fixed-step march to t_end; no adaptivity, for reproducibility.

    blowup_threshold of None means 10^6 times the initial A^0 norm (or 1.0
    for zero initial data).
    """

    dt: float
    t_end: float
    scheme: str = "ETD2"
    record_every: int = 10
    blowup_threshold: float | None = None

    RULES = (
        ("scheme", None, lambda v: v in SCHEMES, f"must be one of {SCHEMES}"),
        ("dt", False, lambda v: v > 0, "must satisfy dt > 0"),
        ("t_end", False, lambda v: v > 0, "must satisfy t_end > 0"),
        ("record_every", True, lambda v: v >= 1, "must be an integer >= 1"),
        ("blowup_threshold", False, lambda v: v > 0, "must be > 0"),
    )
    CROSS = (
        ("t_end", lambda s: s["t_end"] >= s["dt"], lambda s: f"must be >= dt ({s['dt']})"),
        ("t_end", lambda s: _steps(s) is not None,
         lambda s: f"t_end / dt = {s['t_end'] / s['dt']:.6g} exceeds the cap of {MAX_STEPS} steps"),
        ("t_end", lambda s: _steps(s) is None or math.isfinite(_steps(s) * s["dt"]),  # None: the cap's row
         lambda s: f"the time of the last step, {_steps(s)} x dt, passes the float range"),
    )

    @property
    def steps(self) -> int:
        """The steps of the march to t_end: round(t_end / dt), at least 1."""
        return _steps(vars(self))


@dataclass(frozen=True)
class NormTrace:
    """Rows of (t, A^0, A^2, A^4, A^6, mean, dt) sampled along a run: one
    read-only (m, 7) float64 array, whose columns t, a0, a2, a4, a6, mean
    and dt_used are views of it."""

    data: np.ndarray
    COLUMNS = ("t", "a0", "a2", "a4", "a6", "mean", "dt_used")

    def __post_init__(self):
        a = np.asarray(self.data, dtype=np.float64).view()
        if a.ndim != 2 or a.shape[1] != 7:
            raise ValueError(f"trace rows have shape {a.shape}, expected (m, 7)")
        a.setflags(write=False)
        object.__setattr__(self, "data", a)
        for i, name in enumerate(self.COLUMNS):  # column by column: 1 B a row of temporaries
            object.__setattr__(self, name, a[:, i])
            if not np.isfinite(a[:, i]).all():
                raise ValueError(f"trace column {name} contains non-finite entries")
        if not (self.t[1:] > self.t[:-1]).all():
            raise ValueError("trace times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.data)

    @classmethod
    def from_rows(cls, rows) -> "NormTrace":
        return cls(rows if len(rows) else np.empty((0, 7)))


@dataclass(frozen=True)
class RunOutcome:
    status: str
    final_time: float
    trace: NormTrace
    final_field: SpectralField


def _phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z, series near zero to avoid cancellation."""
    z = np.asarray(z, dtype=np.float64)
    small = np.abs(z) < 1e-5
    out = np.empty_like(z)
    out[~small] = np.expm1(z[~small]) / z[~small]
    t = z[small]
    out[small] = 1.0 + t / 2.0 + t**2 / 6.0 + t**3 / 24.0
    return out


def _phi2(z: np.ndarray) -> np.ndarray:
    """(e^z - 1 - z)/z^2, series for |z| < 0.1; divided by z twice where z^2
    overflows; 0 at z = -inf, its limit."""
    z = np.asarray(z, dtype=np.float64)
    small = np.abs(z) < 0.1
    out = np.empty_like(z)
    zb = z[~small]
    with np.errstate(over="ignore", invalid="ignore"):  # z^2 past the float range, or inf / inf
        num, sq = np.expm1(zb) - zb, zb * zb
        out[~small] = np.where(zb == -np.inf, 0.0, np.where(np.isinf(sq), num / zb / zb, num / sq))
    t = z[small]
    # sum_{j>=0} t^j / (j+2)!, eight terms: truncation about 6e-15 relative
    # at |t| = 0.1, the size of the first omitted term t^8 / 10!
    acc = np.full_like(t, 1.0 / math.factorial(9))
    for j in range(8, 1, -1):
        acc = acc * t + 1.0 / math.factorial(j)
    out[small] = acc
    return out


class _Etd2:
    """Two-stage exponential time differencing (exact linear propagation):

    a      = e^(hL) u + h phi1(hL) N(u)
    u_next = a + h phi2(hL) (N(a) - N(u))
    """

    def __init__(self, rhs, dt: float):
        self.rhs = rhs
        z = dt * rhs.linear
        self.exp_l = np.exp(z)
        self.w1 = dt * _phi1(z)
        self.w2 = dt * _phi2(z)

    def advance(self, c: np.ndarray) -> np.ndarray:
        n0 = self.rhs.nonlinear(c)
        a = self.exp_l * c + self.w1 * n0
        n1 = self.rhs.nonlinear(a)
        return a + self.w2 * (n1 - n0)


class _Imex1:
    """Backward Euler on the linear part, forward Euler on the nonlinearity:
    u_next = (u + h N(u)) / (1 - h L)."""

    def __init__(self, rhs, dt: float):
        self.rhs = rhs
        self.dt = dt
        self.denom = 1.0 - dt * rhs.linear

    def advance(self, c: np.ndarray) -> np.ndarray:
        return (c + self.dt * self.rhs.nonlinear(c)) / self.denom


_STEPPERS = dict(zip(SCHEMES, (_Etd2, _Imex1)))


def step(state: SpectralField, dt: float, params, model: str,
         scheme: str = "ETD2") -> SpectralField:
    """Advance one step as a one-step simulate; FloatingPointError if a
    coefficient or a norm leaves the float range."""
    out = simulate(state, params, StepperConfig(dt=dt, t_end=dt, scheme=scheme), model)
    if out.status == STATUS_FAILURE:
        raise FloatingPointError("time step produced non-finite coefficients or norms")
    return out.final_field


def _march_key(stepper: StepperConfig) -> tuple:
    """The fields of stepper that members marched together share: all but
    blowup_threshold."""
    return tuple(v for k, v in vars(stepper).items() if k != "blowup_threshold")


def _blowup_threshold(stepper: StepperConfig, a0_init: float) -> float:
    """The A^0 level past which a run from data of norm a0_init is a
    blow-up; ValueError unless it exceeds a0_init."""
    threshold = stepper.blowup_threshold
    if threshold is None:
        threshold = 1e6 * a0_init if a0_init > 0 else 1.0
    if threshold <= a0_init:
        raise ValueError(
            f"blowup_threshold ({threshold}) must exceed the initial A^0 norm ({a0_init})"
        )
    return threshold


def _overflowing(norms) -> list:
    """The message for each initial Wiener norm a0, a2, a4, a6 past the float range."""
    return [f"the Wiener norm {name} of the initial field overflows the float range"
            for name, x in zip(("a0", "a2", "a4", "a6"), norms) if not math.isfinite(x)]


def _trace_row(t: float, c: np.ndarray, a: np.ndarray, modes: ModeSet, dt: float) -> list:
    """The trace rows at time t of the stacked half blocks c (B, 2n+1, n+1)
    over modes, whose moduli are a."""
    return [(t, *nv, mean, dt) for nv, mean in zip(_norms(c, modes, a), c[:, modes.n, 0].real.tolist())]


def _quiet_levels(thresholds: np.ndarray, n: int) -> np.ndarray:
    """For members with these blow-up thresholds at cutoff n, the plain A^0
    sum below which one comparison in _verdict clears them (an exact row
    decides the rest): 4e-12 below the threshold and a factor 4 below the
    float maximum over (2n^2)^3, so that A^0 is under the threshold and
    A^6 <= (2n^2)^3 A^0 is finite whatever the roundings."""
    return np.minimum(thresholds * (1.0 - 4e-12), sys.float_info.max / 4.0 / float(2 * n * n) ** 3)


def _verdict(c: np.ndarray, a0: np.ndarray, thresholds: np.ndarray, quiet: np.ndarray) -> dict:
    """{j: STATUS_FAILURE or STATUS_BLOWUP} for each member j of the stack
    of half blocks c (B, 2n+1, n+1) that ends after a step, whose plain sums
    of |c| are a0: it fails when a coefficient or a norm passes the float
    range, and blows up when its A^0 exceeds its threshold.  One rule: one
    comparison clears the members whose sums lie below their _quiet_levels
    quiet, and an exact norm row decides each of the others; a non-finite
    sum over a nan or inf coefficient fails without one."""
    below = a0 < quiet
    if np.count_nonzero(below) == len(below):
        return {}
    modes = ModeSet(c.shape[-1] - 1)
    ended = {}
    for j in np.flatnonzero(~below).tolist():
        if not math.isfinite(a0[j]) and not np.isfinite(c[j]).all():
            ended[j] = STATUS_FAILURE  # without a norm or a warning
        elif not all(map(math.isfinite, nv := _norms(c[j], modes))):
            ended[j] = STATUS_FAILURE
        elif nv[0] > thresholds[j]:
            ended[j] = STATUS_BLOWUP
    return ended


def simulate(u0: SpectralField, params, stepper: StepperConfig, model: str,
             on_record=None, record_fields_every: int | None = None) -> RunOutcome:
    """March the Galerkin system to t_end, recording norms along the way.

    Deterministic for a fixed configuration.  Terminates early with status
    "blowup_detected" when the A^0 norm exceeds the threshold and with
    "numerical_failure" when a coefficient or a norm leaves the float range
    (final_field is then the last state before it).  on_record(step_index,
    t, field), when given, is called at step 0, every record_fields_every
    steps (default: the trace cadence) and at the last step, including the
    step that detects blow-up.  The trace gets a row at the same last step.
    Initial data with a norm past the float range is a ValueError.
    """
    return simulate_batch([u0], params, [stepper], model, [on_record], record_fields_every)[0]


def simulate_batch(u0s, params, steppers, model: str, on_record=None,
                   record_fields_every: int | None = None) -> list:
    """simulate for several initial fields of one system, stepped together
    as one stacked (B, 2n+1, n+1) state; returns one RunOutcome per member,
    each what simulate gives for that member alone.  steppers[b] and
    on_record[b] (a list, or None) belong to member b; the steppers may
    differ only in blowup_threshold.  A member that blows up or fails leaves
    the stack.  Each member's trace rows go into its own (rows, 7) array,
    made for the most rows a run records (its pages fill as rows arrive)
    and cut to the rows written when the march ends."""
    on_record = on_record or [None] * len(u0s)
    rhs = make_rhs(model, u0s[0].n, params)
    if len({u.n for u in u0s}) > 1 or len(set(map(_march_key, steppers))) > 1:
        raise ValueError("batched members must share n and the stepper apart from blowup_threshold")
    if model == "thinfilm":
        for u0 in u0s:
            _require_zero_mean(u0, "thin-film initial state")

    stepper, modes = steppers[0], u0s[0].modes
    dt = stepper.dt
    c = np.stack([u0.half for u0 in u0s])
    first = _trace_row(0.0, c, _moduli(c), modes, dt)
    for row in first:
        for message in _overflowing(row[1:5]):
            raise ValueError(message)
    thresholds = np.array([_blowup_threshold(s, row[1]) for s, row in zip(steppers, first)])
    quiet = _quiet_levels(thresholds, modes.n)
    n_steps = stepper.steps
    fields_every = record_fields_every if record_fields_every is not None else stepper.record_every
    if fields_every < 1:
        raise ValueError(f"record_fields_every must be >= 1, got {fields_every}")
    # rows at step 0, at each multiple of record_every and at the last step
    traces = [np.empty((n_steps // stepper.record_every + 2, 7)) for _ in u0s]
    for trace, row in zip(traces, first):
        trace[0] = row
    counts = [1] * len(u0s)
    for u0, record in zip(u0s, on_record):
        if record is not None:
            record(0, 0.0, u0)

    with np.errstate(over="ignore"):  # a rate dt L past the float range is -inf
        impl = _STEPPERS[stepper.scheme](rhs, dt)

    live = list(range(len(u0s)))
    callbacks = any(r is not None for r in on_record)  # a live member has an on_record
    ends = [None] * len(u0s)  # (status, final_time, final half block) of each member
    for i in range(1, n_steps + 1):
        # overflow in a step is judged by _verdict, not by warnings
        with np.errstate(over="ignore", invalid="ignore"):
            c_prev, c = c, impl.advance(c)
            a = np.abs(c)
            a0 = a[:, :, 0].sum(axis=1) + 2.0 * a[:, :, 1:].sum(axis=(1, 2))
            ended = _verdict(c, a0, thresholds, quiet)
        if not ended and i < n_steps and i % stepper.record_every and (not callbacks or i % fields_every):
            continue  # no member records, has a field due, fails or crosses
        t = i * dt
        keep, recorded = [], []
        for j, b in enumerate(live):
            status = ended.get(j)
            if status == STATUS_FAILURE:
                ends[b] = (STATUS_FAILURE, (i - 1) * dt, c_prev[j])
                continue
            last = status is not None or i == n_steps
            if last or i % stepper.record_every == 0:
                recorded.append(j)
            if on_record[b] is not None and (last or i % fields_every == 0):
                on_record[b](i, t, SpectralField._from_half(modes, c[j]))
            if last:
                ends[b] = (status or STATUS_COMPLETED, t, c[j])
            else:
                keep.append(j)
        if recorded:
            some = recorded if len(recorded) < len(live) else slice(None)
            for j, row in zip(recorded, _trace_row(t, c[some], a[some], modes, dt)):
                b = live[j]
                traces[b][counts[b]] = row
                counts[b] += 1
        if len(keep) < len(live):
            live, c = [live[j] for j in keep], c[keep]
            thresholds, quiet = thresholds[keep], quiet[keep]
            callbacks = any(on_record[b] is not None for b in live)
            if not live:
                break

    for trace, m in zip(traces, counts):  # in place: no view of a trace array exists
        trace.resize((m, 7), refcheck=False)
    return [RunOutcome(status=s, final_time=ft, trace=NormTrace(trace),
                       final_field=SpectralField._from_half(modes, f))
            for (s, ft, f), trace in zip(ends, traces)]
