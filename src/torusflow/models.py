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
and (1 + v)^p has its own (p+1)n+1 grid.  The *_pointwise twins are
independent oracles (complex numpy.fft on a 4n+3 grid).  Derivative
multipliers carry the analytic signs: d_j <-> i k_j, lap <-> -|k|^2,
lap^2 <-> |k|^4.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import fft as _sfft

from .spectral import (
    SpectralField,
    _from_grid,
    _grids,
    _pad_size,
    _to_grid,
)

__all__ = [
    "EpitaxialParams",
    "ThinFilmParams",
    "EpitaxialRhs",
    "ThinFilmRhs",
    "hessian_det2",
    "delta_of_delta_sq",
    "epitaxial_rhs",
    "power_term",
    "grad_dot_grad_lap",
    "times_bilap",
    "thinfilm_rhs",
    "hessian_det2_pointwise",
    "delta_of_delta_sq_pointwise",
    "grad_dot_grad_lap_pointwise",
    "times_bilap_pointwise",
    "epitaxial_rhs_pointwise",
    "thinfilm_rhs_pointwise",
]

ZERO_MEAN_TOL = 1e-12


@dataclass(frozen=True)
class EpitaxialParams:
    """Diffusion/coupling coefficients; K0, K1, K3 >= 0 and K2 > 0."""

    K0: float = 0.0
    K1: float = 0.0
    K2: float = 1.0
    K3: float = 0.0

    def __post_init__(self):
        for name in ("K0", "K1", "K3"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"{name} >= 0 required, got {v!r}")
        if not (np.isfinite(self.K2) and self.K2 > 0):
            raise ValueError(f"K2 > 0 required, got {self.K2!r}")


@dataclass(frozen=True)
class ThinFilmParams:
    """Porous-medium coupling chi in (0, 1), integer exponent p >= 2, and the
    estimate constant c (not fixed by the theory; every report echoes it)."""

    chi: float
    p: int
    c_estimate: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.chi) and 0.0 < self.chi < 1.0):
            raise ValueError(f"0 < chi < 1 required, got {self.chi!r}")
        if isinstance(self.p, bool) or not isinstance(self.p, (int, np.integer)) or self.p < 2:
            raise ValueError(f"p must be an integer >= 2, got {self.p!r}")
        object.__setattr__(self, "p", int(self.p))
        if not (np.isfinite(self.c_estimate) and self.c_estimate > 0):
            raise ValueError(f"c_estimate > 0 required, got {self.c_estimate!r}")


def _require_zero_mean(v: SpectralField, what: str) -> None:
    m = abs(v.coeff[v.n, v.n])
    if m > ZERO_MEAN_TOL:
        raise ValueError(f"{what} must have zero mean, |vhat(0)| = {m:.3e}")


def _check_power_exponent(p) -> int:
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)) or p < 2:
        raise ValueError(f"power exponent must be an integer >= 2, got {p!r}")
    return int(p)


@lru_cache(maxsize=None)
def _symbols(n: int) -> dict:
    """Read-only derivative multipliers for cutoff n, built on first use.

    The stacks feed _galerkin, so they live on the k2 >= 0 half plane, in
    the order the pointwise forms unpack them; "grad" (i k) acts on full
    centered outputs.
    """
    k1, k2, abs2 = _grids(n)
    h1, h2, habs2 = k1[:, n:], k2[:, n:], abs2[:, n:]
    one = np.ones_like(habs2)
    sym = {
        "grad": np.stack([1j * k1, 1j * k2]),
        "hessian": -np.stack([h1 * h1, h2 * h2, h1 * h2]).astype(np.float64),  # u,11 u,22 u,12
        "flux": np.stack([one, -1j * h1 * habs2, -1j * h2 * habs2]),  # v, d1 lap v, d2 lap v
        # d1 v, d2 v, d1 lap v, d2 lap v
        "gradlap": np.stack([1j * h1, 1j * h2, -1j * h1 * habs2, -1j * h2 * habs2]),
        "timesbilap": np.stack([one, habs2**2]),  # v, lap^2 v
    }
    for a in sym.values():
        a.setflags(write=False)
    return sym


def _galerkin(c: np.ndarray, n: int, mult: np.ndarray, form) -> np.ndarray:
    """Galerkin coefficients of form(*fields), where fields[i] samples
    mult[i] * u on the 3n+1 grid, which is alias-free for quadratic forms.
    One batched inverse and one batched forward real transform."""
    fields = _to_grid(mult * c[:, n:], n, _pad_size(n))
    return _from_grid(form(*fields), n)


def _det2_and_lap_sq(u11, u22, u12):
    lap = u11 + u22
    return np.stack([2.0 * (u11 * u22 - u12 * u12), lap * lap])


def _epitaxial_terms(c: np.ndarray, n: int):
    """(2 det D^2 u, (lap u)^2) from one inverse and one forward transform."""
    return _galerkin(c, n, _symbols(n)["hessian"], _det2_and_lap_sq)


def _dot_pairs(d1, d2, d1lap, d2lap):
    return d1 * d1lap + d2 * d2lap


def _power_hat(c: np.ndarray, n: int, p: int) -> np.ndarray:
    """Galerkin coefficients of (1 + v)^p: sampled on an alias-free grid
    (N >= (p+1) n + 1), raised pointwise, truncated once."""
    v = _to_grid(c[:, n:], n, _sfft.next_fast_len((p + 1) * n + 1))
    return _from_grid((1.0 + v) ** p, n)


class EpitaxialRhs:
    """Stepper-facing evaluator: diagonal linear symbol plus the explicit
    nonlinearity, with the k = 0 output pinned to zero (both nonlinearities
    integrate to zero over the torus, and the mean is frozen structurally)."""

    def __init__(self, n: int, params: EpitaxialParams):
        self.n = int(n)
        self.params = params
        self.abs2 = _grids(self.n)[2]
        self.linear = -params.K0 * self.abs2 - params.K2 * self.abs2**2
        self.linear.setflags(write=False)

    def nonlinear(self, c: np.ndarray) -> np.ndarray:
        p = self.params
        if p.K1 == 0.0 and p.K3 == 0.0:
            return np.zeros_like(c)
        h, d = _epitaxial_terms(c, self.n)
        # -(K3/2) lap (lap u)^2 has coefficient +(K3/2) |k|^2 d(k)
        out = p.K1 * h + (0.5 * p.K3) * self.abs2 * d
        out[self.n, self.n] = 0.0
        return out


class ThinFilmRhs:
    """Stepper-facing evaluator for the zero-mean thin-film system: linear
    symbol -|k|^4, the quadratic flux divergence and -chi lap (1+v)^p
    explicit.  k = 0 output vanishes by the divergence structure and is
    pinned exactly."""

    def __init__(self, n: int, params: ThinFilmParams):
        self.n = int(n)
        self.params = params
        self.abs2 = _grids(self.n)[2]
        self.linear = -(self.abs2**2)
        self.linear.setflags(write=False)

    def nonlinear(self, c: np.ndarray) -> np.ndarray:
        n, sym = self.n, _symbols(self.n)
        # div (v grad lap v) = grad v . grad lap v + v lap^2 v is i k . F,
        # with F the Galerkin coefficients of v grad lap v
        flux = _galerkin(c, n, sym["flux"], lambda v, g1, g2: np.stack([v * g1, v * g2]))
        # -chi lap (1+v)^p has coefficient +chi |k|^2 power_hat(k)
        out = self.params.chi * self.abs2 * _power_hat(c, n, self.params.p)
        out -= np.sum(sym["grad"] * flux, axis=0)
        out[n, n] = 0.0
        return out


def hessian_det2(u: SpectralField) -> SpectralField:
    """Spectral 2 det D^2 u = u,11 u,22 - (u,12)^2, doubled.

    The k = 0 coefficient vanishes to roundoff: det D^2 u is a null
    Lagrangian, so its torus integral is zero.
    """
    return SpectralField(u.modes, _epitaxial_terms(u.coeff, u.n)[0])


def delta_of_delta_sq(u: SpectralField) -> SpectralField:
    """Spectral lap (lap u)^2: the -|k|^2 multiplier applied to the Galerkin
    coefficients of (lap u)^2."""
    return SpectralField(u.modes, -u.modes.abs2 * _epitaxial_terms(u.coeff, u.n)[1])


def _check_finite_term(arr: np.ndarray, term: str) -> None:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite values in term {term}")


def epitaxial_rhs(u: SpectralField, params: EpitaxialParams) -> SpectralField:
    """Full epitaxial right-hand side in spectral form; conserves the mean."""
    abs2 = u.modes.abs2
    out = (-params.K0 * abs2 - params.K2 * abs2**2) * u.coeff
    _check_finite_term(out, "K0*lap(u) - K2*lap^2(u)")
    h, d = _epitaxial_terms(u.coeff, u.n)
    if params.K1 != 0.0:
        t = params.K1 * h
        _check_finite_term(t, "K1 * 2 det D^2 u")
        out = out + t
    if params.K3 != 0.0:
        t = 0.5 * params.K3 * abs2 * d
        _check_finite_term(t, "-(K3/2) lap (lap u)^2")
        out = out + t
    # k = 0 stays zero to roundoff on its own: every term is an exact
    # derivative except det D^2 u, which is a null Lagrangian.
    return SpectralField(u.modes, out)


def power_term(v: SpectralField, p) -> SpectralField:
    """Galerkin coefficients of (1 + v)^p for integer p >= 2."""
    p = _check_power_exponent(p)
    return SpectralField(v.modes, _power_hat(v.coeff, v.n, p))


def grad_dot_grad_lap(v: SpectralField) -> SpectralField:
    """Spectral grad v . grad lap v = v,i v,jji; weight m.(k-m) |k-m|^2."""
    return SpectralField(v.modes, _galerkin(v.coeff, v.n, _symbols(v.n)["gradlap"], _dot_pairs))


def times_bilap(v: SpectralField) -> SpectralField:
    """Spectral v lap^2 v; weight |k-m|^4."""
    return SpectralField(v.modes, _galerkin(v.coeff, v.n, _symbols(v.n)["timesbilap"], np.multiply))


def thinfilm_rhs(v: SpectralField, params: ThinFilmParams) -> SpectralField:
    """Full thin-film right-hand side in the zero-mean variable v."""
    _require_zero_mean(v, "thin-film state")
    abs2 = v.modes.abs2
    out = -(abs2**2) * v.coeff
    _check_finite_term(out, "-lap^2 v")
    sym = _symbols(v.n)
    t = -_galerkin(v.coeff, v.n, sym["gradlap"], _dot_pairs)
    _check_finite_term(t, "-grad v . grad lap v")
    out = out + t
    t = -_galerkin(v.coeff, v.n, sym["timesbilap"], np.multiply)
    _check_finite_term(t, "-v lap^2 v")
    out = out + t
    t = params.chi * abs2 * _power_hat(v.coeff, v.n, params.p)
    _check_finite_term(t, "-chi lap (1+v)^p")
    out = out + t
    # k = 0 cancels to roundoff: the whole right side is in divergence form.
    return SpectralField(v.modes, out)


# ---------------------------------------------------------------------------
# Pointwise oracles: sample derivative fields on a padded grid (numpy.fft),
# multiply in real space, transform back once.  Kept deliberately separate
# from the convolution assembly above.
# ---------------------------------------------------------------------------


def _big_wavenumbers(N: int) -> np.ndarray:
    k = np.fft.fftfreq(N, d=1.0 / N)
    return k[:, None] ** 2 + k[None, :] ** 2


def _sample(coeff: np.ndarray, n: int, N: int, mult: np.ndarray | None = None) -> np.ndarray:
    c = coeff if mult is None else mult * coeff
    big = np.zeros((N, N), dtype=np.complex128)
    idx = np.arange(-n, n + 1) % N
    big[np.ix_(idx, idx)] = c
    return (np.fft.ifft2(big) * (N * N)).real


def _gather(big_hat: np.ndarray, n: int, N: int) -> np.ndarray:
    idx = np.arange(-n, n + 1) % N
    return big_hat[np.ix_(idx, idx)]


def hessian_det2_pointwise(u: SpectralField, pad: int | None = None) -> SpectralField:
    n = u.n
    N = pad or (4 * n + 3)
    k1, k2, _ = _grids(n)
    u11 = _sample(u.coeff, n, N, -(k1 * k1).astype(float))
    u22 = _sample(u.coeff, n, N, -(k2 * k2).astype(float))
    u12 = _sample(u.coeff, n, N, -(k1 * k2).astype(float))
    w = 2.0 * (u11 * u22 - u12 * u12)
    return SpectralField(u.modes, _gather(np.fft.fft2(w) / (N * N), n, N))


def delta_of_delta_sq_pointwise(u: SpectralField, pad: int | None = None) -> SpectralField:
    n = u.n
    N = pad or (4 * n + 3)
    _, _, abs2 = _grids(n)
    lap = _sample(u.coeff, n, N, -abs2)
    w_hat = np.fft.fft2(lap * lap) / (N * N)
    out = -_big_wavenumbers(N) * w_hat
    return SpectralField(u.modes, _gather(out, n, N))


def grad_dot_grad_lap_pointwise(v: SpectralField, pad: int | None = None) -> SpectralField:
    n = v.n
    N = pad or (4 * n + 3)
    k1, k2, abs2 = _grids(n)
    d1 = _sample(v.coeff, n, N, 1j * k1.astype(float))
    d2 = _sample(v.coeff, n, N, 1j * k2.astype(float))
    d1l = _sample(v.coeff, n, N, -1j * k1 * abs2)
    d2l = _sample(v.coeff, n, N, -1j * k2 * abs2)
    w = d1 * d1l + d2 * d2l
    return SpectralField(v.modes, _gather(np.fft.fft2(w) / (N * N), n, N))


def times_bilap_pointwise(v: SpectralField, pad: int | None = None) -> SpectralField:
    n = v.n
    N = pad or (4 * n + 3)
    _, _, abs2 = _grids(n)
    vs = _sample(v.coeff, n, N)
    bih = _sample(v.coeff, n, N, abs2**2)
    return SpectralField(v.modes, _gather(np.fft.fft2(vs * bih) / (N * N), n, N))


def epitaxial_rhs_pointwise(u: SpectralField, params: EpitaxialParams,
                            pad: int | None = None) -> SpectralField:
    n = u.n
    N = pad or (4 * n + 3)
    k1, k2, abs2 = _grids(n)
    lap = _sample(u.coeff, n, N, -abs2)
    bih = _sample(u.coeff, n, N, abs2**2)
    u11 = _sample(u.coeff, n, N, -(k1 * k1).astype(float))
    u22 = _sample(u.coeff, n, N, -(k2 * k2).astype(float))
    u12 = _sample(u.coeff, n, N, -(k1 * k2).astype(float))
    point = (params.K0 * lap
             + 2.0 * params.K1 * (u11 * u22 - u12 * u12)
             - params.K2 * bih)
    out = np.fft.fft2(point) / (N * N)
    if params.K3 != 0.0:
        w_hat = np.fft.fft2(lap * lap) / (N * N)
        out += 0.5 * params.K3 * _big_wavenumbers(N) * w_hat
    return SpectralField(u.modes, _gather(out, n, N))


def thinfilm_rhs_pointwise(v: SpectralField, params: ThinFilmParams,
                           pad: int | None = None) -> SpectralField:
    _require_zero_mean(v, "thin-film state")
    n = v.n
    N = pad or max(4 * n + 3, (params.p + 1) * n + 2)
    k1, k2, abs2 = _grids(n)
    vs = _sample(v.coeff, n, N)
    bih = _sample(v.coeff, n, N, abs2**2)
    d1 = _sample(v.coeff, n, N, 1j * k1.astype(float))
    d2 = _sample(v.coeff, n, N, 1j * k2.astype(float))
    d1l = _sample(v.coeff, n, N, -1j * k1 * abs2)
    d2l = _sample(v.coeff, n, N, -1j * k2 * abs2)
    point = -bih - (d1 * d1l + d2 * d2l) - vs * bih
    out = np.fft.fft2(point) / (N * N)
    w_hat = np.fft.fft2((1.0 + vs) ** params.p) / (N * N)
    out += params.chi * _big_wavenumbers(N) * w_hat
    return SpectralField(v.modes, _gather(out, n, N))
