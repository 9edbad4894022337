"""Spectral right-hand sides of the two evolution equations.

Epitaxial growth:  du/dt = K0 lap u + 2 K1 det D^2 u - K2 lap^2 u
                           - (K3/2) lap (lap u)^2
Thin film (zero-mean variable v = u - 1):
                   dv/dt = -lap^2 v - grad v . grad lap v - v lap^2 v
                           - chi lap (1 + v)^p

Nonlinear terms are formed in physical space: one batched inverse real FFT
(spectral's half-plane layout) samples the derivative fields, they are
multiplied pointwise, and one batched forward real FFT brings the products
back.  Quadratic products use the 3n+1 grid, alias-free for |k| <= n, so the
result is the Galerkin truncation up to roundoff; the thin-film quadratics
use the divergence form grad v . grad lap v + v lap^2 v = div (v grad lap v),
and (1 + v)^p has its own (p+1)n+1 grid.  The independent pointwise
oracles the tests pin these against (complex numpy.fft on a 4n+3 grid)
live in tests/oracles.py.  Derivative multipliers carry the analytic signs:
d_j <-> i k_j, lap <-> -|k|^2, lap^2 <-> |k|^4.

Each equation is written once, in the terms() of its *Rhs evaluator: the
stepper, the public right-hand sides, the epitaxial per-term functions, the
a priori monitor and the weak residual all evaluate through it, on k2 >= 0
half blocks (2n+1, n+1).

Each config domain and cap rule is stated once, as a row (field, integer,
ok, message): an integer (integer=True), a real number (False) or any value
(None) for which ok holds; a cross row (field, ok(values), message(values))
relates fields that each hold; a check (values -> violations) names entries.
The parser reports every violation (config_lines), the dataclasses and
make_rhs the first (raise_first).  The checks are plain Python, not numpy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .spectral import SpectralField, _fast_len, _grids, _pad_size, _TransformPlan

__all__ = [
    "EpitaxialParams",
    "ThinFilmParams",
    "EpitaxialRhs",
    "ThinFilmRhs",
    "make_rhs",
    "hessian_det2",
    "delta_of_delta_sq",
    "epitaxial_rhs",
    "power_term",
    "thinfilm_rhs",
]

ZERO_MEAN_TOL = 1e-12

# Resource caps, checked before any allocation.  MAX_GRID bounds the points
# per axis of the 3n+1 quadratic grid and the (p+1)n+1 thin-film power grid;
# MAX_P keeps p! a finite double; MAX_STEPS bounds round(t_end / dt).
MAX_GRID = 4096
MAX_N = (MAX_GRID - 1) // 3
MAX_P = 170
MAX_STEPS = 10**7

_INT = (int, np.integer)
_KIND = {True: "an integer below 2**64 in magnitude", False: "a finite number"}


def is_number(v, integer=False) -> bool:
    """A number (an integer when asked for), not a bool, that fits its field;
    an integer's magnitude is checked before a conversion can overflow."""
    if isinstance(v, bool) or not isinstance(v, _INT if integer else (*_INT, float, np.floating)):
        return False
    if isinstance(v, _INT):
        return abs(int(v)) < 2**64 if integer else abs(int(v)) <= sys.float_info.max
    return math.isfinite(v)


def violations(rules, values: dict, required=(), cross=()) -> list:
    """(field, message, value, echo) per rule values break, in table order; an
    absent field is skipped, or reported if required (an untyped rule judges
    it as None).  If all rules hold, the cross rows follow.  echo: the line
    shows the value (of the wrong type, or for an untyped rule)."""
    found = []
    for row in rules:
        if callable(row):
            found += row(values)
            continue
        field, integer, ok, message = row
        v = values.get(field)
        if field not in values and (integer is not None or field not in required):
            if field in required:
                found.append((field, "required", None, False))
        elif integer is not None and not is_number(v, integer):
            found.append((field, f"must be {_KIND[integer]}", v, True))
        elif not ok(v):
            found.append((field, message, v, integer is None))
    for row in () if found else cross:
        found += row(values) if callable(row) else (
            [] if row[1](values) else [(row[0], row[2](values), values.get(row[0]), False)])
    return found


def config_lines(found, prefix: str = "") -> list[str]:
    return [f"{prefix}{field}: {message}" + (f", got {v!r}" if echo else "")
            for field, message, v, echo in found]


def raise_first(found) -> None:
    for field, message, v, _ in found[:1]:
        raise ValueError(f"{field}: {message}, got {v!r}")


def unknown_keys(d: dict, prefix: str, allowed) -> list[str]:
    return [f"{prefix}{key}: unknown key" for key in d if key not in allowed]


class Checked:
    """Base of the frozen config dataclasses: construction raises the first
    violation of RULES, then CROSS, and stores number fields as plain ints and
    floats; a field at a default of None is unset.  SECTIONS: config._section."""

    SECTIONS = CROSS = ()

    def __post_init__(self):
        values = {f.name: getattr(self, f.name) for f in fields(self)
                  if not (f.default is None and getattr(self, f.name) is None)}
        raise_first(violations(self.RULES, values, cross=self.CROSS))
        for field, integer, *_ in (row for row in self.RULES if not callable(row)):
            if field in values and integer is not None:
                object.__setattr__(self, field, (int if integer else float)(values[field]))


@dataclass(frozen=True)
class EpitaxialParams(Checked):
    """Diffusion/coupling coefficients; K0, K1, K3 >= 0 and K2 > 0."""

    K0: float = 0.0
    K1: float = 0.0
    K2: float = 1.0
    K3: float = 0.0

    RULES = (("K0", False, lambda v: v >= 0, "must satisfy K0 >= 0"),
             ("K1", False, lambda v: v >= 0, "must satisfy K1 >= 0"),
             ("K2", False, lambda v: v > 0, "must satisfy K2 > 0"),
             ("K3", False, lambda v: v >= 0, "must satisfy K3 >= 0"))


@dataclass(frozen=True)
class ThinFilmParams(Checked):
    """Porous-medium coupling chi in (0, 1), integer exponent 2 <= p <= MAX_P
    and the estimate constant c (not fixed by the theory; reports echo it)."""

    chi: float
    p: int
    c_estimate: float = 1.0

    RULES = (("chi", False, lambda v: 0 < v < 1, "must satisfy 0 < chi < 1"),
             ("p", True, lambda v: 2 <= v <= MAX_P, f"must be an integer 2 <= p <= {MAX_P}"),
             ("c_estimate", False, lambda v: v > 0, "must satisfy c_estimate > 0"))


N_RULE = ("n", True, lambda v: 1 <= v <= MAX_N,
          f"must be an integer 1 <= n <= {MAX_N} (3n+1 <= {MAX_GRID} grid points)")


def grid_violations(model: str, n, params) -> list:
    """Violations of the grid caps by model at cutoff n: 3n+1 <= MAX_GRID
    points per axis for the quadratic products and, for the thin film,
    (p+1)n+1 <= MAX_GRID for the power term."""
    power = ("p", lambda s: (s["p"] + 1) * s["n"] + 1 <= MAX_GRID,
             lambda s: f"the power grid (p+1)n+1 = {(s['p'] + 1) * s['n'] + 1} exceeds "
                       f"{MAX_GRID} points")
    return violations((N_RULE,), {"n": n, **vars(params)},
                      cross=(power,) if model == "thinfilm" else ())


def _require_zero_mean(v: SpectralField, what: str) -> None:
    m = abs(v.half[v.n, 0])
    if m > ZERO_MEAN_TOL:
        raise ValueError(f"{what} must have zero mean, |vhat(0)| = {m:.3e}")


def _galerkin(c: np.ndarray, plan: _TransformPlan, form, *args) -> np.ndarray:
    """Galerkin coefficients of the products form(fields, *args) returns, a
    slice of the fields, where fields[i] samples the plan's mult[i] * u (u
    itself, without mult) on the plan's grid; the 3n+1 grid is alias-free
    for quadratic forms.  One batched inverse and one batched forward real
    transform; a form writes its products over the fields."""
    return plan.from_grid(form(plan.to_grid(c), *args))


def _det2_and_lap_sq(fields):
    """(2 det D^2 u, (lap u)^2) over the samples of u,11 u,22 u,12."""
    u11, u22, u12 = fields
    det = np.multiply(u11, u22)
    np.subtract(det, np.multiply(u12, u12, out=u12), out=det)
    np.add(u11, u22, out=u22)
    np.multiply(u22, u22, out=u22)
    np.multiply(2.0, det, out=u11)
    return fields[:2]


def _flux(fields):
    v, g1, g2 = fields
    np.multiply(v, g1, out=g1)
    np.multiply(v, g2, out=g2)
    return fields[1:]


def _power(v, p: int):
    """(1 + v)^p over the samples of v, in place; on a grid of N >= (p+1) n + 1
    points its Galerkin coefficients are exact."""
    np.add(1.0, v, out=v)
    v **= p  # ** keeps numpy's p = 2 fast path
    return v


class _Rhs:
    """Stepper-facing evaluator of one model at cutoff n: the diagonal linear
    symbol plus the explicit nonlinearity, k = 0 output pinned to zero.  It
    owns its grids (largest last) and a transform plan per product, each
    built with its multipliers the first time a term runs it; they go when
    it does.
    k1, k2, abs2: the k2 >= 0 halves of the wavenumber grids."""

    points = property(lambda self: 3 * self.grids[-1] ** 2)  # samples per member, largest grid

    def __init__(self, n: int, params):
        self.n = int(n)
        self.params = params
        self.k1, self.k2, self.abs2 = (k[:, self.n :] for k in _grids(self.n))

    def nonlinear(self, c: np.ndarray) -> np.ndarray:
        terms = self.terms(c)
        if not terms:
            return np.zeros_like(c)
        out = terms[0][1]
        for _, t in terms[1:]:
            out += t
        out[..., self.n, 0] = 0.0
        return out


class EpitaxialRhs(_Rhs):
    """The epitaxial evaluator; both nonlinearities integrate to zero over
    the torus, and the mean is frozen structurally."""

    params_type = EpitaxialParams
    linear_label = "K0*lap(u) - K2*lap^2(u)"

    def __init__(self, n: int, params: EpitaxialParams):
        super().__init__(n, params)
        with np.errstate(over="ignore"):  # a symbol past the float range is inf
            self.linear = -params.K0 * self.abs2 - params.K2 * self.abs2**2
            # -(K3/2) lap (lap u)^2 has coefficient +(K3/2) |k|^2 d(k)
            self.lap_k3 = (0.5 * params.K3) * self.abs2
        self.linear.setflags(write=False)
        self.grids = (_pad_size(self.n),)

    @cached_property
    def plan(self) -> _TransformPlan:
        # u,11 u,22 u,12; real, but stored complex as the product with a
        # complex block casts it: the same values, without a cast per call
        k1, k2 = self.k1, self.k2
        return _TransformPlan(self.n, self.grids[0],
                              -np.stack([k1 * k1, k2 * k2, k1 * k2]).astype(np.complex128))

    def terms(self, c: np.ndarray) -> list:
        """Explicit terms as (label, coefficients); zero constants omitted."""
        p = self.params
        if p.K1 == 0.0 and p.K3 == 0.0:
            return []
        h, d = _galerkin(c, self.plan, _det2_and_lap_sq)
        out = []
        if p.K1 != 0.0:
            out.append(("K1 * 2 det D^2 u", np.multiply(p.K1, h, out=h)))
        if p.K3 != 0.0:
            out.append(("-(K3/2) lap (lap u)^2", np.multiply(self.lap_k3, d, out=d)))
        return out


class ThinFilmRhs(_Rhs):
    """The zero-mean thin-film evaluator: linear symbol -|k|^4, the
    quadratic flux divergence and -chi lap (1+v)^p explicit.  k = 0 output
    vanishes by the divergence structure."""

    params_type = ThinFilmParams
    linear_label = "-lap^2 v"

    def __init__(self, n: int, params: ThinFilmParams):
        super().__init__(n, params)
        self.linear = -(self.abs2**2)
        self.linear.setflags(write=False)
        # -chi lap (1+v)^p has coefficient +chi |k|^2 power_hat(k)
        self.lap_chi = params.chi * self.abs2
        self.grids = (_pad_size(self.n), _fast_len((params.p + 1) * self.n + 1))

    grad = cached_property(lambda self: np.stack([1j * self.k1, 1j * self.k2]))
    power_plan = cached_property(lambda self: _TransformPlan(self.n, self.grids[1]))

    @cached_property
    def flux_plan(self) -> _TransformPlan:
        # v, d1 lap v, d2 lap v
        k1, k2, abs2 = self.k1, self.k2, self.abs2
        return _TransformPlan(self.n, self.grids[0],
                              np.stack([np.ones_like(abs2), -1j * k1 * abs2, -1j * k2 * abs2]))

    def terms(self, c: np.ndarray) -> list:
        """Explicit terms as (label, coefficients)."""
        # div (v grad lap v) = grad v . grad lap v + v lap^2 v is i k . F,
        # with F the Galerkin coefficients of v grad lap v
        flux = _galerkin(c, self.flux_plan, _flux)
        grad = self.grad.reshape((2,) + (1,) * (c.ndim - 2) + c.shape[-2:])
        div = np.multiply(grad, flux, out=flux)[0]
        np.negative(np.add(div, flux[1], out=div), out=div)
        power = _galerkin(c, self.power_plan, _power, self.params.p)
        return [
            ("-grad v . grad lap v - v lap^2 v", div),
            ("-chi lap (1+v)^p", np.multiply(self.lap_chi, power, out=power)),
        ]


RHS = {"epitaxial": EpitaxialRhs, "thinfilm": ThinFilmRhs}


def make_rhs(model: str, n: int, params):
    """The evaluator of one model; rejects unknown models, params of the
    wrong type and grids past the caps."""
    if model not in RHS:
        raise ValueError(f"model must be one of {tuple(RHS)}, got {model!r}")
    cls = RHS[model]
    if not isinstance(params, cls.params_type):
        raise TypeError(f"{model} model needs {cls.params_type.__name__}, "
                        f"got {type(params).__name__}")
    raise_first(grid_violations(model, n, params))
    return cls(n, params)


def _check_finite_term(arr: np.ndarray, term: str) -> None:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite values in term {term}")


def _evaluate(rhs, u: SpectralField) -> SpectralField:
    """Full right-hand side linear * u + terms through an evaluator; each
    term is checked finite under its label, and k = 0 is pinned.  Overflow
    inside a term is left to that check, so it raises no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = rhs.linear * u.half
        _check_finite_term(out, rhs.linear_label)
        for label, t in rhs.terms(u.half):
            _check_finite_term(t, label)
            out += t
    out[u.n, 0] = 0.0
    return SpectralField._from_half(u.modes, out)


def hessian_det2(u: SpectralField) -> SpectralField:
    """Spectral 2 det D^2 u = u,11 u,22 - (u,12)^2, doubled: the one term of
    the epitaxial evaluator with K1 = 1 alone.

    The k = 0 coefficient vanishes to roundoff: det D^2 u is a null
    Lagrangian, so its torus integral is zero.
    """
    ((_, h),) = make_rhs("epitaxial", u.n, EpitaxialParams(K1=1.0)).terms(u.half)
    return SpectralField._from_half(u.modes, h)


def delta_of_delta_sq(u: SpectralField) -> SpectralField:
    """Spectral lap (lap u)^2: minus the one term of the epitaxial evaluator
    with K3 = 2 alone, whose multiplier (K3/2)|k|^2 is then exactly |k|^2."""
    ((_, d),) = make_rhs("epitaxial", u.n, EpitaxialParams(K3=2.0)).terms(u.half)
    return SpectralField._from_half(u.modes, -d)


def epitaxial_rhs(u: SpectralField, params: EpitaxialParams) -> SpectralField:
    """Full epitaxial right-hand side in spectral form; conserves the mean."""
    return _evaluate(make_rhs("epitaxial", u.n, params), u)


def power_term(v: SpectralField, p) -> SpectralField:
    """Galerkin coefficients of (1 + v)^p for integer 2 <= p <= MAX_P, refused
    where make_rhs refuses: the thin-film evaluator's power plan, run alone
    (its flux plan, its multipliers and grad are never built)."""
    rhs = make_rhs("thinfilm", v.n, ThinFilmParams(chi=0.5, p=p))
    return SpectralField._from_half(v.modes, _galerkin(v.half, rhs.power_plan, _power, rhs.params.p))


def thinfilm_rhs(v: SpectralField, params: ThinFilmParams) -> SpectralField:
    """Full thin-film right-hand side in the zero-mean variable v."""
    _require_zero_mean(v, "thin-film state")
    return _evaluate(make_rhs("thinfilm", v.n, params), v)
