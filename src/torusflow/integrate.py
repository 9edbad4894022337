"""Time integration of the spectral systems.

The diagonal linear symbol (epitaxial: -K0|k|^2 - K2|k|^4; thin film:
-|k|^4) is handled exactly by the two-stage exponential scheme ETD2 and
implicitly by IMEX1; nonlinear terms are explicit in both.  The k = 0 mode
is frozen rather than integrated, so the mean is conserved exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import RHS, _require_zero_mean, make_rhs
from .spectral import ModeSet, SpectralField, _norms, wiener_norm

__all__ = [
    "SCHEMES",
    "MODELS",
    "StepperConfig",
    "NormTrace",
    "RunOutcome",
    "step",
    "simulate",
    "detect_blowup",
]

SCHEMES = ("ETD2", "IMEX1")
MODELS = tuple(RHS)

STATUS_COMPLETED = "completed"
STATUS_BLOWUP = "blowup_detected"
STATUS_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class StepperConfig:
    """Fixed-step march to t_end; no adaptivity, for reproducibility.

    blowup_threshold of None means 10^6 times the initial A^0 norm (or 1.0
    for zero initial data).
    """

    dt: float
    t_end: float
    scheme: str = "ETD2"
    record_every: int = 10
    blowup_threshold: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt > 0 required, got {self.dt!r}")
        if not (np.isfinite(self.t_end) and self.t_end >= self.dt):
            raise ValueError(f"t_end >= dt required, got t_end={self.t_end!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if isinstance(self.record_every, bool) or not isinstance(self.record_every, (int, np.integer)) \
                or self.record_every < 1:
            raise ValueError(f"record_every must be an integer >= 1, got {self.record_every!r}")
        object.__setattr__(self, "record_every", int(self.record_every))
        if self.blowup_threshold is not None and not (np.isfinite(self.blowup_threshold)
                                                      and self.blowup_threshold > 0):
            raise ValueError(f"blowup_threshold must be positive, got {self.blowup_threshold!r}")


@dataclass(frozen=True)
class NormTrace:
    """Columns of (t, A^0, A^2, A^4, A^6, mean, dt) sampled along a run."""

    t: np.ndarray
    a0: np.ndarray
    a2: np.ndarray
    a4: np.ndarray
    a6: np.ndarray
    mean: np.ndarray
    dt_used: np.ndarray

    def __post_init__(self):
        cols = {}
        for name in ("t", "a0", "a2", "a4", "a6", "mean", "dt_used"):
            a = np.asarray(getattr(self, name), dtype=np.float64)
            a.setflags(write=False)
            cols[name] = a
            object.__setattr__(self, name, a)
        m = len(cols["t"])
        for name, a in cols.items():
            if a.shape != (m,):
                raise ValueError(f"trace column {name} has shape {a.shape}, expected ({m},)")
            if not np.isfinite(a).all():
                raise ValueError(f"trace column {name} contains non-finite entries")
        if m > 1 and not np.all(np.diff(cols["t"]) > 0):
            raise ValueError("trace times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.t)

    @classmethod
    def from_rows(cls, rows) -> "NormTrace":
        if rows:
            arr = np.asarray(rows, dtype=np.float64)
        else:
            arr = np.empty((0, 7), dtype=np.float64)
        return cls(*(arr[:, i] for i in range(7)))

    def rows(self):
        for i in range(len(self)):
            yield (self.t[i], self.a0[i], self.a2[i], self.a4[i],
                   self.a6[i], self.mean[i], self.dt_used[i])


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
    """(e^z - 1 - z)/z^2, series for |z| < 0.1."""
    z = np.asarray(z, dtype=np.float64)
    small = np.abs(z) < 0.1
    out = np.empty_like(z)
    zb = z[~small]
    out[~small] = (np.expm1(zb) - zb) / (zb * zb)
    t = z[small]
    # sum_{j>=0} t^j / (j+2)!, eight terms: truncation < 1e-15 at |t| = 0.1
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


def _make_stepper(rhs, scheme: str, dt: float):
    if scheme == "ETD2":
        return _Etd2(rhs, dt)
    if scheme == "IMEX1":
        return _Imex1(rhs, dt)
    raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")


def step(state: SpectralField, dt: float, params, model: str,
         scheme: str = "ETD2") -> SpectralField:
    """Advance one step; convenience wrapper over the run loop's stepper."""
    if dt <= 0:
        raise ValueError(f"dt > 0 required, got {dt}")
    rhs = make_rhs(model, state.n, params)
    stepper = _make_stepper(rhs, scheme, dt)
    c = stepper.advance(state.coeff.copy())
    if not np.isfinite(c).all():
        raise FloatingPointError("time step produced non-finite coefficients")
    return SpectralField(state.modes, c)


def _trace_row(t: float, c: np.ndarray, modes: ModeSet, dt: float):
    n = modes.n
    return (t, *_norms(c, modes.abs2), float(c[n, n].real), dt)


def _a0_exceeds(c: np.ndarray, threshold: float) -> bool:
    """A^0(c) > threshold, decided as the correctly rounded math.fsum decides
    it.  A plain pairwise sum of |c| is within far less than 1e-12 relative
    of that sum, so fsum runs only when the plain sum lands that close to
    the threshold."""
    a0 = float(np.abs(c).sum())
    if abs(a0 - threshold) <= 1e-12 * threshold:
        a0 = math.fsum(np.abs(c).ravel().tolist())
    return a0 > threshold


def simulate(u0: SpectralField, params, stepper: StepperConfig, model: str,
             on_record=None, record_fields_every: int | None = None) -> RunOutcome:
    """March the Galerkin system to t_end, recording norms along the way.

    Deterministic for a fixed configuration.  Terminates early with status
    "blowup_detected" when the A^0 norm exceeds the threshold and with
    "numerical_failure" on NaN/Inf (final_field is then the last finite
    state).  on_record(step_index, t, field), when given, is called at step
    0, every record_fields_every steps (default: the trace cadence) and at
    the last step, including the step that detects blow-up.  The trace gets
    a row at the same last step.
    """
    rhs = make_rhs(model, u0.n, params)
    if model == "thinfilm":
        _require_zero_mean(u0, "thin-film initial state")

    a0_init = wiener_norm(u0, 0)
    threshold = stepper.blowup_threshold
    if threshold is None:
        threshold = 1e6 * a0_init if a0_init > 0 else 1.0
    if threshold <= a0_init:
        raise ValueError(
            f"blowup_threshold ({threshold}) must exceed the initial A^0 norm ({a0_init})"
        )

    dt = stepper.dt
    n_steps = max(1, round(stepper.t_end / dt))
    fields_every = record_fields_every if record_fields_every is not None else stepper.record_every
    if fields_every < 1:
        raise ValueError(f"record_fields_every must be >= 1, got {fields_every}")

    impl = _make_stepper(rhs, stepper.scheme, dt)
    modes = u0.modes
    c = u0.coeff.copy()

    rows = [_trace_row(0.0, c, modes, dt)]
    if on_record is not None:
        on_record(0, 0.0, SpectralField(modes, c))

    status = STATUS_COMPLETED
    final_time = n_steps * dt
    for i in range(1, n_steps + 1):
        c_prev = c
        c = impl.advance(c)
        t = i * dt
        if not np.isfinite(c).all():
            status = STATUS_FAILURE
            c = c_prev
            final_time = (i - 1) * dt
            break
        blowup = _a0_exceeds(c, threshold)
        last = blowup or i == n_steps
        if last or i % stepper.record_every == 0:
            rows.append(_trace_row(t, c, modes, dt))
        if on_record is not None and (last or i % fields_every == 0):
            on_record(i, t, SpectralField(modes, c))
        if blowup:
            status = STATUS_BLOWUP
            final_time = t
            break

    return RunOutcome(
        status=status,
        final_time=final_time,
        trace=NormTrace.from_rows(rows),
        final_field=SpectralField(modes, c),
    )


def detect_blowup(trace: NormTrace, threshold: float):
    """First recorded (t, a0) with a0 > threshold, or None."""
    idx = np.nonzero(trace.a0 > threshold)[0]
    if idx.size == 0:
        return None
    i = int(idx[0])
    return (float(trace.t[i]), float(trace.a0[i]))
