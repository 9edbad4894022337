"""Smallness conditions, decay envelopes, and a priori monitoring.

The checkers evaluate the global-existence margins and the exponential
decay rates implied by the initial Wiener norms; verify_decay_envelope then
confronts a simulated trace with exp(-lambda t) * norm(0).  The residual of
the weak (distributional) formulation is assembled from spectral inner
products in space and trapezoidal quadrature in time.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .models import EpitaxialParams, ThinFilmParams, _evaluate, epitaxial_rhs, make_rhs
from .spectral import SpectralField, inner, norm_vector
from .integrate import NormTrace

__all__ = [
    "THEOREM_IDS",
    "TheoremReport",
    "EnvelopeVerdict",
    "check_epitaxial_A2",
    "check_epitaxial_A0",
    "check_thinfilm_A0",
    "verify_decay_envelope",
    "monitor_apriori_A2",
    "TimeProfile",
    "weak_residual",
]

EPITAXIAL_A2_K0ZERO = "EpitaxialA2_K0zero"
EPITAXIAL_A2_K0POS = "EpitaxialA2_K0pos"
EPITAXIAL_A0 = "EpitaxialA0"
THINFILM_A0 = "ThinFilmA0"
THEOREM_IDS = (EPITAXIAL_A2_K0ZERO, EPITAXIAL_A2_K0POS, EPITAXIAL_A0, THINFILM_A0)
ENVELOPE_TOL = 1e-6


@dataclass(frozen=True)
class TheoremReport:
    """Evaluated smallness condition: satisfied iff the margin is strictly
    positive; lam is the decay exponent claimed under that condition."""

    theorem_id: str
    inputs: dict
    margin: float
    lam: float
    satisfied: bool

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        return d


@dataclass(frozen=True)
class EnvelopeVerdict:
    """Pointwise comparison of a trace against exp(-lambda t) * norm(0)."""

    passed: bool
    worst_ratio: float
    first_violation_t: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def _check_norm_arg(x: float, name: str) -> float:
    x = float(x)
    if not (np.isfinite(x) and x >= 0):
        raise ValueError(f"{name} must be a finite nonnegative real, got {x!r}")
    return x


def _times(c: float, x: float) -> float:
    """c * x for a coefficient c and a norm x: 0 at a zero norm, even where c
    is inf (inf * 0 is nan), so each margin and rate is its constant part there."""
    return 0.0 if x == 0 else c * x


def check_epitaxial_A2(params: EpitaxialParams, u0_a2: float) -> TheoremReport:
    """A^2 smallness margin for the epitaxial equation.

    K0 = 0 branch: margin = rate = K2 - 2 (K3 + K1) * a2(0).
    K0 > 0 branch: margin = rate = min(K2 - 2 K3 a2(0), K0 - 2 K1 a2(0)).
    """
    x = _check_norm_arg(u0_a2, "u0_a2")
    inputs = {**asdict(params), "u0_a2": x}
    if params.K0 == 0:
        margin = params.K2 - _times(2.0 * (params.K3 + params.K1), x)
        tid = EPITAXIAL_A2_K0ZERO
    else:
        margin = min(params.K2 - _times(2.0 * params.K3, x), params.K0 - _times(2.0 * params.K1, x))
        tid = EPITAXIAL_A2_K0POS
    return TheoremReport(tid, inputs, margin, margin, margin > 0)


def check_epitaxial_A0(params: EpitaxialParams, u0_a0: float) -> TheoremReport:
    """A^0 smallness margin, margin = rate = K2 - 2 K1 * a0(0).

    Stated for K3 = 0; the K0 > 0 variant has no displayed constant, so both
    K3 != 0 and K0 != 0 are rejected rather than extrapolated.
    """
    if params.K3 != 0:
        raise ValueError(f"the A^0 result requires K3 = 0, got K3 = {params.K3}")
    if params.K0 != 0:
        raise ValueError(
            f"the A^0 margin is only stated for K0 = 0 (got K0 = {params.K0}); refusing to guess"
        )
    x = _check_norm_arg(u0_a0, "u0_a0")
    margin = params.K2 - _times(2.0 * params.K1, x)
    inputs = {**asdict(params), "u0_a0": x}
    return TheoremReport(EPITAXIAL_A0, inputs, margin, margin, margin > 0)


def check_thinfilm_A0(params: ThinFilmParams, v0_a0: float) -> TheoremReport:
    """A^0 smallness margin for the thin-film equation.

    With S = x + 2 sum_{q=1}^{p-1} x^q and x = a0(v0):
      margin = 1 - chi - 2x - (c chi p!/2) S,
      rate   = 1 - chi - 2x -  c chi p!    S.
    The margin carries the factor 1/2, the claimed decay exponent does not;
    both are reported without reconciliation.
    """
    x = _check_norm_arg(v0_a0, "v0_a0")
    try:
        geom = math.fsum(x**q for q in range(1, params.p))
    except OverflowError:  # S passes the float range: margin and rate are -inf
        geom = math.inf
    s = x + 2.0 * geom
    base = 1.0 - params.chi - 2.0 * x
    cpfac = params.c_estimate * params.chi * math.factorial(params.p)
    margin = base - _times(0.5 * cpfac, s)
    lam = base - _times(cpfac, s)
    inputs = {**asdict(params), "v0_a0": x}
    return TheoremReport(THINFILM_A0, inputs, margin, lam, margin > 0)


def envelope_arg_errors(lam, tol, names=("lambda", "tol")) -> list[str]:
    """Breaches, under names, of the envelope's rule: lam finite, tol finite and >= 0."""
    errors = [] if math.isfinite(lam) else [f"{names[0]} must be finite, got {lam!r}"]
    if not (math.isfinite(tol) and tol >= 0):
        errors.append(f"{names[1]} must be finite and >= 0, got {tol!r}")
    return errors


def verify_decay_envelope(trace: NormTrace, norm_index: str, lam: float,
                          tol: float = ENVELOPE_TOL) -> EnvelopeVerdict:
    """Check norm(t) <= exp(-lam (t - t0)) * norm(t0) * (1 + tol) row by row;
    lam must be finite and tol finite and >= 0."""
    if norm_index not in ("a0", "a2"):
        raise ValueError(f"norm_index must be 'a0' or 'a2', got {norm_index!r}")
    for msg in envelope_arg_errors(lam, tol)[:1]:
        raise ValueError(msg)
    if len(trace) == 0:
        raise ValueError("empty trace")
    norms = getattr(trace, norm_index)
    t = trace.t - trace.t[0]
    # a large negative rate overflows the envelope to inf (0 * inf is nan,
    # which the zero rule below takes)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        env = norms[0] * np.exp(-float(lam) * t)
        ratio = norms / env
    ratio = np.where(env > 0, ratio, np.where(norms == 0, 1.0, np.inf))
    worst = float(np.max(ratio))
    bad = np.nonzero(ratio > 1.0 + tol)[0]
    first_t = float(trace.t[bad[0]]) if bad.size else None
    return EnvelopeVerdict(passed=bad.size == 0, worst_ratio=worst, first_violation_t=first_t)


def monitor_apriori_A2(u: SpectralField, params: EpitaxialParams):
    """Instantaneous check of the A^2 differential inequality (K0 = 0 branch).

    lhs  = sum over modes with uhat(k) != 0 of
           |k|^2 Re(conj(uhat) rhs_hat) / |uhat|   (= d/dt of the A^2 norm)
    rhs  = -(K2 - 2 K3 a2) a6 + 2 K1 a2 a4.
    Modes with uhat(k) = 0 contribute nothing to the norm derivative and are
    excluded (the modulus is not differentiable there).
    """
    if params.K0 != 0:
        raise ValueError(f"the monitored inequality is the K0 = 0 branch, got K0 = {params.K0}")
    r = epitaxial_rhs(u, params)
    c, w2 = u.half.ravel(), u.modes.norm_weights[1]
    mag = np.abs(c)
    mask = mag > 0
    # a k2 > 0 term stands for k and -k, whose terms are the same bits
    contrib = w2[mask] * np.real(np.conj(c[mask]) * r.half.ravel()[mask]) / mag[mask] * u.modes.twice[mask]
    lhs = math.fsum(contrib.tolist())
    nv = norm_vector(u)
    rhs_bound = -(params.K2 - 2.0 * params.K3 * nv.a2) * nv.a6 + 2.0 * params.K1 * nv.a2 * nv.a4
    return lhs, rhs_bound


@dataclass(frozen=True)
class TimeProfile:
    """Polynomial-in-time factor g(t) of a test function g(t) * phi(x)."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("profile needs at least one coefficient")

    def value(self, t: float) -> float:
        return float(np.polynomial.polynomial.polyval(t, self.coeffs))

    def slope(self, t: float) -> float:
        d = np.polynomial.polynomial.polyder(self.coeffs)
        return float(np.polynomial.polynomial.polyval(t, d))

    @classmethod
    def vanishing_at(cls, T: float, power: int = 2) -> "TimeProfile":
        """(1 - t/T)^power, the simplest profile with g(T) = 0."""
        base = np.array([1.0, -1.0 / T])
        c = np.polynomial.polynomial.polypow(base, int(power))
        return cls(tuple(c))


def weak_residual(times, states, phi_space: SpectralField, profile: TimeProfile,
                  model: str, params) -> float:
    """|weak-form integral| of a trajectory against phi(t,x) = g(t) phi(x).

    The integrand is g'(t) <u, phi> + g(t) <rhs(u), phi>, with rhs the
    model's full right-hand side; the boundary term is g(0) <u(0), phi>.
    Because phi lies in the mode set, <rhs(u), phi> equals, by Parseval,
    the weak form with every derivative moved onto phi, and the truncation
    of the products loses nothing.  Spatial integrals are exact spectral
    inner products; the time integral is the trapezoid rule on the sample
    times.  A trajectory of the Galerkin system therefore leaves a residual
    of order dt^2 plus the quadrature error.  Requires times[0] = 0 and
    g(times[-1]) = 0.
    """
    times = np.asarray(times, dtype=np.float64)
    if len(times) != len(states) or len(times) < 2:
        raise ValueError("need matching times/states with at least two samples")
    if times[0] != 0.0:
        raise ValueError(f"trajectory must start at t = 0, got {times[0]}")
    if not np.all(np.diff(times) > 0):
        raise ValueError("sample times must be strictly increasing")
    g_scale = max(1.0, max(abs(c) for c in profile.coeffs))
    if abs(profile.value(times[-1])) > 1e-9 * g_scale:
        raise ValueError(
            f"profile must vanish at the final time, g({times[-1]}) = {profile.value(times[-1])!r}"
        )
    for s in states:
        if s.modes != phi_space.modes:
            raise ValueError("test function and states must share one mode set")

    rhs = make_rhs(model, phi_space.n, params)
    vals = [profile.slope(t) * inner(u, phi_space)
            + profile.value(t) * inner(_evaluate(rhs, u), phi_space)
            for t, u in zip(times, states)]
    boundary = profile.value(0.0) * inner(states[0], phi_space)
    return abs(boundary + float(np.trapezoid(vals, times)))
