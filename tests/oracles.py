"""Reference implementations the tests compare the package against; no
command runs them.  The *_pointwise oracles multiply derivative fields on a
4n+3 grid with complex numpy.fft; convolve's direct O(n^4) sum pins its own
"fft" branch, which runs the package's transform pair; scale_modes is the
spectral image of x -> lam x; per_line_snapshot writes a snapshot one mode
line at a time; row_terms makes the terms whose sums spectral._row_sums
takes, all at once."""

from __future__ import annotations

import numpy as np

from torusflow import EpitaxialParams, ModeSet, SpectralField, ThinFilmParams
from torusflow.models import _require_zero_mean
from torusflow.spectral import _full, _grids, _pad_size, _TransformPlan


def _convolve_direct_raw(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """O(n^4) double sum over all retained pairs (m, k - m)."""
    size = 2 * n + 1
    # For output index t, the m index runs over span s and k - m over t - s + n.
    spans = []
    for t in range(size):
        s = np.arange(max(0, t - n), min(size - 1, t + n) + 1)
        spans.append((s, t - s + n))
    out = np.empty((size, size), dtype=np.complex128)
    for ia in range(size):
        i, gi = spans[ia]
        arow = a[i]
        brow = b[gi]
        for ib in range(size):
            j, gj = spans[ib]
            out[ia, ib] = np.sum(arow[:, j] * brow[:, gj])
    return out


def convolve(f: SpectralField, g: SpectralField, method: str = "fft") -> SpectralField:
    """Coefficients of the product f*g, truncated back to the mode set.

    (f g)^(k) = sum_m fhat(m) ghat(k - m) over pairs with both m and k - m
    retained.  "fft" zero-pads to at least 3n+1 per axis and multiplies on
    the grid; "direct" performs the explicit double sum.  Both compute the
    same Galerkin truncation.
    """
    if f.modes != g.modes:
        raise ValueError(f"mode-set mismatch: n={f.n} vs n={g.n}")
    n = f.n
    if method == "fft":
        plan = _TransformPlan((2,), n, _pad_size(n), count=1)
        grid = plan.to_grid(np.stack([f.half, g.half]))
        np.multiply(grid[0], grid[1], out=grid[0])
        return SpectralField(f.modes, _full(plan.from_grid(grid[:1])[0]))
    if method == "direct":
        return SpectralField(f.modes, _convolve_direct_raw(f.coeff, g.coeff, n))
    raise ValueError(f"unknown convolution method {method!r}")


def scale_modes(f: SpectralField, lam: int, n_out: int | None = None) -> SpectralField:
    """Spectral image of x -> u(lam x): vhat(lam k) = uhat(k), zero elsewhere.

    By default the output cutoff is lam * n so nothing is lost; with an
    explicit n_out, any nonzero coefficient landing outside it is an error.
    """
    if isinstance(lam, bool) or not isinstance(lam, (int, np.integer)) or lam < 1:
        raise ValueError(f"scaling factor must be an integer >= 1, got {lam!r}")
    lam = int(lam)
    n_out = lam * f.n if n_out is None else int(n_out)
    mo = ModeSet(n_out)
    src = np.arange(-f.n, f.n + 1)
    keep = np.abs(lam * src) <= n_out
    if np.any(f.coeff[~keep, :] != 0) or np.any(f.coeff[:, ~keep] != 0):
        raise ValueError(
            f"mode set overflow: nonzero coefficients map beyond cutoff {n_out} under lam={lam}"
        )
    c = np.zeros((mo.size, mo.size), dtype=np.complex128)
    dest = lam * src[keep] + n_out
    c[np.ix_(dest, dest)] = f.coeff[np.ix_(keep, keep)]
    return SpectralField(mo, c)


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


def hessian_det2_pointwise(u: SpectralField) -> SpectralField:
    n = u.n
    N = 4 * n + 3
    k1, k2, _ = _grids(n)
    u11 = _sample(u.coeff, n, N, -(k1 * k1).astype(float))
    u22 = _sample(u.coeff, n, N, -(k2 * k2).astype(float))
    u12 = _sample(u.coeff, n, N, -(k1 * k2).astype(float))
    w = 2.0 * (u11 * u22 - u12 * u12)
    return SpectralField(u.modes, _gather(np.fft.fft2(w) / (N * N), n, N))


def delta_of_delta_sq_pointwise(u: SpectralField) -> SpectralField:
    n = u.n
    N = 4 * n + 3
    _, _, abs2 = _grids(n)
    lap = _sample(u.coeff, n, N, -abs2)
    w_hat = np.fft.fft2(lap * lap) / (N * N)
    out = -_big_wavenumbers(N) * w_hat
    return SpectralField(u.modes, _gather(out, n, N))


def grad_dot_grad_lap_pointwise(v: SpectralField) -> SpectralField:
    n = v.n
    N = 4 * n + 3
    k1, k2, abs2 = _grids(n)
    d1 = _sample(v.coeff, n, N, 1j * k1.astype(float))
    d2 = _sample(v.coeff, n, N, 1j * k2.astype(float))
    d1l = _sample(v.coeff, n, N, -1j * k1 * abs2)
    d2l = _sample(v.coeff, n, N, -1j * k2 * abs2)
    w = d1 * d1l + d2 * d2l
    return SpectralField(v.modes, _gather(np.fft.fft2(w) / (N * N), n, N))


def times_bilap_pointwise(v: SpectralField) -> SpectralField:
    n = v.n
    N = 4 * n + 3
    _, _, abs2 = _grids(n)
    vs = _sample(v.coeff, n, N)
    bih = _sample(v.coeff, n, N, abs2**2)
    return SpectralField(v.modes, _gather(np.fft.fft2(vs * bih) / (N * N), n, N))


def epitaxial_rhs_pointwise(u: SpectralField, params: EpitaxialParams) -> SpectralField:
    n = u.n
    N = 4 * n + 3
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


def thinfilm_rhs_pointwise(v: SpectralField, params: ThinFilmParams) -> SpectralField:
    _require_zero_mean(v, "thin-film state")
    n = v.n
    N = max(4 * n + 3, (params.p + 1) * n + 2)
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


def per_line_snapshot(f: SpectralField, path) -> None:
    """The one-line-at-a-time snapshot writer, kept as a byte-level oracle."""
    n = f.n
    lines = [f"torusflow-spectral v1 n={n}"]
    for k1 in range(-n, n + 1):
        for k2 in range(-n, n + 1):
            v = f.coeff[k1 + n, k2 + n]
            lines.append(f"{k1} {k2} {v.real:.17g} {v.imag:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def row_terms(a: np.ndarray, w, twice) -> np.ndarray:
    """The terms of spectral._row_sums(a, w, twice) as an (R W, M) array."""
    if w is None:
        return a
    with np.errstate(over="ignore", invalid="ignore"):  # a weight 0 times an inf a is nan
        return (np.multiply(w, a[:, None, :]) * twice).reshape(-1, a.shape[-1])
