"""Spectral fields on the 2-torus.

Coefficients live on the square mode set max(|k1|, |k2|) <= n with the
convention u(x) = sum_k uhat(k) exp(i k.x).  Every field represents a real
function, so uhat(-k) = conj(uhat(k)) is an invariant of the type: it is
validated on construction and exact afterwards.

The reference convolution and the scaling map that the tests compare the
transforms against live in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ModeSet",
    "SpectralField",
    "NormVector",
    "wiener_norm",
    "norm_vector",
    "with_cutoff",
    "inner",
    "hermitian_asymmetry",
    "write_snapshot",
    "read_snapshot",
    "SNAPSHOT_MAGIC",
]

SNAPSHOT_MAGIC = "torusflow-spectral v1"
SNAPSHOT_HERMITIAN_TOL = 1e-10

# Constructor rejection threshold, relative to the largest coefficient.
_HERMITIAN_RTOL = 1e-10


def _grids(n: int):
    """Integer wavenumber grids (k1, k2, |k|^2) for cutoff n, read-only."""
    k = np.arange(-n, n + 1)
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    abs2 = (k1 * k1 + k2 * k2).astype(np.float64)
    for a in (k1, k2, abs2):
        a.setflags(write=False)
    return k1, k2, abs2


@dataclass(frozen=True)
class ModeSet:
    """Square set of retained modes: k in Z^2 with max(|k1|, |k2|) <= n.
    Its grids and norm weights are built on first use and live as long as
    it does."""

    n: int

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"mode cutoff must be an integer >= 1, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"mode cutoff must be >= 1, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def size(self) -> int:
        return 2 * self.n + 1

    @cached_property
    def abs2(self) -> np.ndarray:
        """Read-only |k|^2 over the mode grid, float valued."""
        return _grids(self.n)[2]

    @cached_property
    def norm_weights(self) -> np.ndarray:
        """Read-only (4, (2n+1)(n+1)) weights 1, |k|^2, |k|^4, |k|^6 over a
        flattened k2 >= 0 half block."""
        abs2 = self.abs2[:, self.n :].ravel()
        w4 = abs2 * abs2
        w = np.stack([np.ones_like(abs2), abs2, w4, w4 * abs2])
        w.setflags(write=False)
        return w

    @cached_property
    def twice(self) -> np.ndarray:
        """Read-only factors of the terms of a flattened k2 >= 0 half block:
        2.0 where k2 > 0, a term that stands for k and -k."""
        f = np.full((self.size, self.n + 1), 2.0)
        f[:, 0] = 1.0
        f = f.ravel()
        f.setflags(write=False)
        return f


def _hermitian_flip(c: np.ndarray) -> np.ndarray:
    """conj(uhat(-k)) on the same centered grid, over the last two axes."""
    return np.conj(c[..., ::-1, ::-1])


def hermitian_asymmetry(field_or_coeff) -> float:
    """max_k |uhat(-k) - conj(uhat(k))|; inf when the difference passes the
    float range."""
    c = field_or_coeff.coeff if isinstance(field_or_coeff, SpectralField) else np.asarray(field_or_coeff)
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(c - _hermitian_flip(c))))


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Complex Fourier coefficients uhat(k) of a real function on T^2.

    uhat(k) = (2 pi)^-2 int u(x) exp(-i k.x) dx, stored densely as a
    (2n+1, 2n+1) array with coeff[i, j] = uhat(i - n, j - n).  Construction
    rejects non-finite values and Hermitian violations, then symmetrizes
    exactly, so downstream code may rely on coeff == conj(flip(coeff)).
    """

    modes: ModeSet
    coeff: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeff, dtype=np.complex128)
        size = self.modes.size
        if c.shape != (size, size):
            raise ValueError(f"coefficient array must be {(size, size)}, got {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("non-finite Fourier coefficient")
        asym = hermitian_asymmetry(c)
        with np.errstate(over="ignore"):
            scale = max(1.0, float(np.max(np.abs(c))))
        # inf > 1e-10 * inf is false: an infinite asymmetry is rejected apart
        if asym > _HERMITIAN_RTOL * scale or math.isinf(asym):
            raise ValueError(
                f"coefficients are not Hermitian-symmetric (max deviation {asym:.3e}); "
                "the field must represent a real function"
            )
        # Halving before adding keeps finite coefficients near the float
        # maximum finite; for normal numbers it is the same as halving the sum.
        c = 0.5 * c + 0.5 * _hermitian_flip(c)
        c.setflags(write=False)
        object.__setattr__(self, "coeff", c)

    @property
    def n(self) -> int:
        return self.modes.n

    @property
    def half(self) -> np.ndarray:
        """Read-only k2 >= 0 half block (2n+1, n+1); it determines the field."""
        return self.coeff[:, self.n :]

    @property
    def mean(self) -> float:
        """Mean value of the represented function, i.e. uhat(0)."""
        return float(self.coeff[self.n, self.n].real)

    @classmethod
    def zeros(cls, n: int) -> "SpectralField":
        m = ModeSet(n)
        return cls(m, np.zeros((m.size, m.size), dtype=np.complex128))

    @classmethod
    def _exact(cls, modes: ModeSet, c: np.ndarray) -> "SpectralField":
        """A field over c, already finite and exactly Hermitian, kept as it is:
        no checks and no symmetrization pass."""
        f = object.__new__(cls)
        c.setflags(write=False)
        f.__dict__.update(modes=modes, coeff=c)
        return f

    @classmethod
    def from_modes(cls, n: int, entries) -> "SpectralField":
        """Build from ((k1, k2), value) pairs; repeated modes accumulate."""
        m = ModeSet(n)
        c = np.zeros((m.size, m.size), dtype=np.complex128)
        for (k1, k2), val in entries:
            if max(abs(int(k1)), abs(int(k2))) > n:
                raise ValueError(f"mode ({k1}, {k2}) outside cutoff {n}")
            c[int(k1) + n, int(k2) + n] += complex(val)
        return cls(m, c)


@dataclass(frozen=True)
class NormVector:
    """Wiener norms (s = 0, 2, 4, 6) of one field."""

    a0: float
    a2: float
    a4: float
    a6: float


# Exact norm sums by an error-free split (Rump, Ogita and Oishi, "Accurate
# floating-point summation part I", SIAM J. Sci. Comput. 31(1), 2008).  For
# M products t = w a and sigma = 2^k >= (M + 1) max |t|, q = (sigma + t) -
# sigma and r = t - q, |r| <= sigma 2^-53, are exact, and so are q and r
# doubled by twice in the sums: sum twice q is exact in any order, sum twice
# r errs by at most M^2 sigma 2^-104, subnormals included.  A row sums to
# fl(sum twice q + sum twice r) where its TwoSum residual, widened by that
# bound, stays below half the gap to the lower neighbour; else its rs split
# again by sigma 2^(shift - 52), M < 2^shift, which cuts the bound from
# M^3 max t 2^-102 to M^4 max t 2^-153.  math.fsum sums the rows that still
# fail (a tie or near tie, a zero or subnormal sum) and each row of a call
# where a term may be inf or nan or M max t reach 2^1021.  A chunk makes at
# most _CHUNK terms (64 KB or so, under the 128 KB from which malloc maps
# fresh pages): whole rows, or an even share of one row's columns.
_CHUNK = 8192


def _fsum(values) -> float:
    try:
        return math.fsum(values)
    except OverflowError:  # finite terms whose sum passes the float range
        return math.inf


def _certified(hi: float, y: float, bound: float, x: float = 0.0):
    """fl(hi + fl(x + y)) if hi + x + y + d rounds to it for all |d| <= bound."""
    lo = x + y
    s = hi + lo
    e = abs((x - (lo - (lo - x))) + (y - (lo - x))) + abs((hi - (s - (s - hi))) + (lo - (s - hi)))  # TwoSums
    wide = math.nextafter(e, math.inf) + math.nextafter(bound, math.inf)
    return s if 2.0 * wide < s - math.nextafter(s, -math.inf) else None


def _row_sums(a: np.ndarray, w=None, twice=None) -> list:
    """math.fsum of each row of terms, bit for bit; inf where finite terms
    pass the float range.  Row (r, i), r-major, holds the terms w[i] a[r]
    twice of an (R, M) array a >= 0, M <= 2^23, a (W, M) array w of entries
    0 or >= 1 and an (M,) array twice of 1.0 and 2.0; with w and twice None,
    the terms are the rows of a."""
    R, M = a.shape
    W, twice = (1, np.ones(M)) if w is None else (len(w), twice)
    per = max(1, _CHUNK // (W * M))  # members per pass
    rows = min(W, max(1, _CHUNK // M))  # weights per pass
    width = -(-M // -(-M // _CHUNK))  # columns per chunk; a block is one row if < M
    shift, spread, cols = M.bit_length(), M * M * 2.0**-104, range(0, M, width)  # M < 2^shift

    def terms(r, i, j):  # of members r:r+per and weights i:i+rows in columns j:j+width
        t = a[r : r + per, None, j : j + width]
        t = t.copy() if w is None else np.multiply(w[i : i + rows, j : j + width], t)
        return t.reshape(-1, t.shape[-1])

    def fsums(r, i, ps):  # of rows ps of a block, made again
        if width < M:
            return [_fsum(u for j in cols for u in (terms(r, i, j)[0] * twice[j : j + width]).tolist())]
        return [_fsum(row) for row in (terms(r, i, 0)[ps] * twice[:width]).tolist()]

    top = float(np.maximum.reduce(a, None)) * (1.0 if w is None else float(np.maximum.reduce(w, None)) * 2.0)
    if not M * top < 2.0**1021:  # a term may be inf or nan, or a sum near the float range
        with np.errstate(over="ignore", invalid="ignore"):  # a weight 0 times an inf a is nan
            return [s for r in range(0, R, per) for i in range(0, W, rows) for s in fsums(r, i, slice(None))]
    sums = []
    for r in range(0, R, per):
        for i in range(0, W, rows):
            t = terms(r, i, 0)
            big = np.maximum.reduce(t, axis=-1)
            for j in cols[1:]:
                np.maximum(big, np.maximum.reduce(terms(r, i, j), axis=-1), out=big)
            sigma = [math.ldexp(1.0, math.frexp(x)[1] + shift) for x in big.tolist()]
            col = np.array(sigma)[:, None]
            tau = rho = 0.0
            for j in cols:  # q = (col + t) - col; t keeps r = t - q
                t = terms(r, i, j) if j else t
                q = t + col
                q -= col
                t -= q
                tau, rho = tau + q @ twice[j : j + width], rho + t @ twice[j : j + width]
            block = [_certified(x, y, spread * z) for x, y, z in zip(tau.tolist(), rho.tolist(), sigma)]
            ps = [p for p, s in enumerate(block) if s is None]
            if ps:  # their rs split again, by col and then by low
                low, tau2, rho2 = col[ps] * 2.0 ** (shift - 52), 0.0, 0.0
                for j in cols:
                    t = terms(r, i, j)[ps]
                    for c in (col[ps], low):
                        q = t + c
                        q -= c
                        t -= q
                    tau2, rho2 = tau2 + q @ twice[j : j + width], rho2 + t @ twice[j : j + width]
                for p, v, x, y, z in zip(ps, tau[ps].tolist(), tau2.tolist(), rho2.tolist(), low.flat):
                    block[p] = _certified(v, y, spread * z, x)
                ps = [p for p in ps if block[p] is None]
            for p, s in zip(ps, fsums(r, i, ps) if ps else ()):
                block[p] = s
            sums += block
    return sums


def _wiener_sums(a: np.ndarray, weights: np.ndarray, twice: np.ndarray) -> list:
    """sum_k w(k) |c(k)| for each row w of weights, from the moduli a = |c|
    of a k2 >= 0 half block (2n+1, n+1), or one list per block of a stack
    (B, 2n+1, n+1); a k2 > 0 term stands for k and -k, so it is doubled by
    twice.  Bit for bit math.fsum of the terms (see _row_sums), and the one
    place that decides overflow: past the float range gives inf, silently."""
    W = len(weights)
    sums = _row_sums(a.reshape(-1, a.shape[-2] * a.shape[-1]), weights, twice)
    blocks = [sums[k : k + W] for k in range(0, len(sums), W)]
    return blocks if a.ndim == 3 else blocks[0]


def _moduli(half: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # a modulus past the float range is inf
        return np.abs(half)


def wiener_norm(f: SpectralField, s: float) -> float:
    """sum_k |k|^s |uhat(k)|, with the convention 0^0 = 1.

    A^0 therefore includes the modulus of the mean, while every s > 0
    seminorm ignores it.  The result is the correctly rounded sum (an exact
    split, certified or else math.fsum), independent of storage layout and
    bit for bit math.fsum of the terms; past the float range it is inf.
    """
    if s < 0:
        raise ValueError(f"Wiener exponent must be >= 0, got {s}")
    w = f.modes.abs2[:, f.n :] ** (s / 2.0)
    return _wiener_sums(_moduli(f.half), w.reshape(1, -1), f.modes.twice)[0]


def _norms(half: np.ndarray, modes: ModeSet, a: np.ndarray | None = None) -> list:
    """[A^0, A^2, A^4, A^6] of a k2 >= 0 half block over modes, or one such
    list per block of a stack; a, when given, is the blocks' moduli |half|."""
    a = _moduli(half) if a is None else a
    return _wiener_sums(a, modes.norm_weights, modes.twice)


def norm_vector(f: SpectralField) -> NormVector:
    """A^0, A^2, A^4, A^6 norms computed from a single |coeff| pass."""
    return NormVector(*_norms(f.half, f.modes))


def _fast_len(target: int) -> int:
    """Smallest 2*3*5*7*11-smooth integer >= target, a size pocketfft
    transforms without a Bluestein pass; a power of 2 bounds the search."""
    for m in range(target, 2 * target + 1):
        r = m
        while (g := math.gcd(r, 2310)) > 1:  # 2310 = 2 * 3 * 5 * 7 * 11
            r //= g
        if r == 1:
            return m


def _pad_size(n: int) -> int:
    # N >= 3n+1 keeps every retained mode |k| <= n of a quadratic product
    # alias-free (product modes reach 2n; the nearest alias is at N - n > 2n).
    return _fast_len(3 * n + 1)


# The transform layout.  A real field is carried by the k2 >= 0 half of its
# coefficients in an (N, n+1) block, row a holding k1 = a (a <= n) or a - N
# (a >= N - n); uhat(-k) = conj(uhat(k)) gives the rest.  A 2-D real
# transform is two pruned 1-D passes, complex over k1 on the n+1 columns and
# real over k2 zero-padded to N, calls of numpy's pocketfft gufuncs with the
# forward 1/N^2 in the row pass: bit for bit scipy.fft's irfft2 and
# rfft2(norm="forward").  Leading batch axes transform a whole stack.
_COLUMNS = [(-2,), (), (-2,)]  # gufunc axes of a pass over k1


class _TransformPlan:
    """One transform pair, its arrays made once and overwritten by each call.
    to_grid: samples u(2 pi a / N, 2 pi b / N) of lead-shaped stacks of half
    blocks or, with mult (F, 2n+1, n+1), of the fields mult[i] * half stacked
    on a new leading axis (the grid array).  from_grid: fresh half blocks of
    |k| <= n of samples shaped like those or, with count, like count fields.
    Needs N >= 2n + 1."""

    def __init__(self, lead, n: int, N: int, mult=None, count=None):
        # bound here, not at import: importing torusflow leaves numpy.fft unloaded
        from numpy.fft import _pocketfft_umath as pfu
        self.n, self.N, self.scale, self.mult = n, N, 1.0 / (N * N), mult
        self.ifft, self.irfft, self.fft = pfu.ifft, pfu.irfft, pfu.fft
        self.rfft = pfu.rfft_n_odd if N % 2 else pfu.rfft_n_even
        if mult is not None:
            mult = mult.reshape(mult.shape[:1] + (1,) * len(lead) + mult.shape[1:])
            self.mult = mult[..., n:, :], mult[..., :n, :]
            lead = mult.shape[:1] + lead
        self.emb = np.zeros(lead + (N, n + 1), dtype=complex)
        self.rows = self.emb[..., : n + 1, :], self.emb[..., N - n :, :]  # k1 >= 0, k1 < 0
        self.col = np.empty_like(self.emb)
        self.grid = np.empty(lead + (N, N))
        products = lead if count is None else (count,) + lead[1:]
        self.row = np.empty(products + (N, N // 2 + 1), dtype=complex)
        self.row_cols = self.row[..., : n + 1]
        self.spec = np.empty(products + (N, n + 1), dtype=complex)

    def to_grid(self, half: np.ndarray) -> np.ndarray:
        n, (low, high) = self.n, self.rows
        if self.mult is None:
            low[...], high[...] = half[..., n:, :], half[..., :n, :]
        else:
            np.multiply(self.mult[0], half[..., n:, :], out=low)
            np.multiply(self.mult[1], half[..., :n, :], out=high)
        self.ifft(self.emb, 1.0, axes=_COLUMNS, out=self.col)
        return self.irfft(self.col, 1.0, out=self.grid)

    def from_grid(self, values: np.ndarray) -> np.ndarray:
        self.rfft(values, self.scale, out=self.row)
        self.fft(self.row_cols, 1.0, axes=_COLUMNS, out=self.spec)
        return _extract(self.spec, self.n, self.N)


def _extract(spec: np.ndarray, n: int, N: int) -> np.ndarray:
    """k2 >= 0 half blocks (..., 2n+1, n+1) of |k| <= n, out of (..., N, n+1) blocks."""
    half = np.concatenate([spec[..., N - n :, :], spec[..., : n + 1, :]], axis=-2)
    # The k2 = 0 column is its own mirror; average away its roundoff asymmetry.
    col = half[..., 0]
    np.multiply(0.5, col + np.conj(col[..., ::-1]), out=col)
    return half


def _full(half: np.ndarray) -> np.ndarray:
    """Exactly Hermitian centered blocks (..., 2n+1, 2n+1) of half blocks."""
    return np.concatenate([_hermitian_flip(half)[..., :-1], half], axis=-1)


def with_cutoff(f: SpectralField, n: int) -> SpectralField:
    """Same field on another cutoff: embed when growing, truncate when shrinking."""
    if n == f.n:
        return f
    mo = ModeSet(n)
    c = np.zeros((mo.size, mo.size), dtype=np.complex128)
    m = min(n, f.n)
    c[n - m : n + m + 1, n - m : n + m + 1] = f.coeff[f.n - m : f.n + m + 1, f.n - m : f.n + m + 1]
    return SpectralField(mo, c)


def inner(f: SpectralField, g: SpectralField) -> float:
    """L2 inner product int_{T^2} f g dx = 4 pi^2 sum_k fhat(k) conj(ghat(k))."""
    if f.modes != g.modes:
        raise ValueError(f"mode-set mismatch: n={f.n} vs n={g.n}")
    return 4.0 * math.pi**2 * float(np.real(np.vdot(g.coeff, f.coeff)))


def _snapshot_layout(n: int):
    """For cutoff-n snapshots: a %.17g format of the (re, im) pairs of the
    k2 = 0 column and then of the k2 > 0 entries (row-major), and for each
    k1 the lines of its modes with %s slots for re and im.  Built anew on
    each call, it lives as long as its caller keeps it."""
    rows = ["".join(f"{k1} {k2} %s %s\n" for k2 in range(-n, n + 1)) for k1 in range(-n, n + 1)]
    return "%.17g " * (2 * (2 * n + 1) * (n + 1)), rows


def write_snapshot(f: SpectralField, path) -> None:
    """Text snapshot: magic header, then 'k1 k2 re im' per retained mode.

    Only the k2 >= 0 half is formatted.  A k2 < 0 line reuses the strings of
    the mode it mirrors, the imaginary one negated, wherever its stored value
    is bitwise the conjugate of that mode's; elsewhere (signed zeros, which
    the symmetrization need not mirror) its stored value is formatted."""
    _write_snapshot(f, path, _snapshot_layout(f.n))


def _write_snapshot(f: SpectralField, path, layout) -> None:
    """write_snapshot with the _snapshot_layout of f's cutoff, a k1 row of
    lines at a time."""
    n, w = f.n, 2 * f.n
    half_fmt, rows = layout
    upper = f.half[:, 1:]
    values = np.concatenate([f.half[:, 0], upper.ravel()]).view(np.float64)
    strings = (half_fmt % tuple(values.tolist())).split()
    a = 2 * (2 * n + 1)  # the strings of the k2 = 0 column come first
    # the k2 < 0 strings, each pair (im, re) at the place of the k2 > 0 entry
    # it mirrors: reversed, a row of them runs k2 = -n, ..., -1
    mirror = strings[a:]
    mirror[::2] = [x[1:] if x[0] == "-" else "-" + x for x in strings[a + 1 :: 2]]
    mirror[1::2] = strings[a::2]
    lower = np.ascontiguousarray(f.coeff[::-1, n - 1 :: -1]).view(np.float64).ravel()
    want = np.conj(upper).view(np.float64).ravel()
    for k in np.flatnonzero(lower.view(np.int64) != want.view(np.int64)).tolist():
        mirror[k ^ 1] = "%.17g" % lower[k].item()  # lower pairs run (re, im), mirror (im, re)
    with open(path, "w") as fh:
        fh.write(f"{SNAPSHOT_MAGIC} n={n}\n")
        for r, lines in enumerate(rows):
            m, u = (2 * n - r) * w, a + r * w
            fh.write(lines % (*mirror[m : m + w][::-1], *strings[2 * r : 2 * r + 2], *strings[u : u + w]))


def read_snapshot(path) -> SpectralField:
    """Parse a snapshot file, rejecting malformed or non-Hermitian data."""
    with open(path) as fh:
        try:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
        except UnicodeDecodeError:
            raise ValueError(f"{path}: not a text snapshot file") from None
    if not lines:
        raise ValueError(f"{path}: empty snapshot file")
    header = lines[0]
    prefix = SNAPSHOT_MAGIC + " n="
    if not header.startswith(prefix):
        raise ValueError(f"{path}: bad snapshot header {header!r}")
    try:
        n = int(header[len(prefix):])
    except ValueError:
        raise ValueError(f"{path}: bad cutoff in header {header!r}") from None
    if n < 1:
        raise ValueError(f"{path}: cutoff must be >= 1, got {n}")
    size = 2 * n + 1
    if len(lines) - 1 != size * size:
        raise ValueError(f"{path}: expected {size * size} mode lines, found {len(lines) - 1}")
    c = np.zeros((size, size), dtype=np.complex128)
    seen = np.zeros((size, size), dtype=bool)
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4:
            raise ValueError(f"{path}: malformed mode line {ln!r}")
        try:
            k1, k2 = int(parts[0]), int(parts[1])
            re, im = float(parts[2]), float(parts[3])
        except ValueError:
            raise ValueError(f"{path}: malformed mode line {ln!r}") from None
        if max(abs(k1), abs(k2)) > n:
            raise ValueError(f"{path}: mode ({k1}, {k2}) outside cutoff {n}")
        if seen[k1 + n, k2 + n]:
            raise ValueError(f"{path}: duplicate mode ({k1}, {k2})")
        seen[k1 + n, k2 + n] = True
        c[k1 + n, k2 + n] = complex(re, im)
    if not seen.all():
        raise ValueError(f"{path}: missing mode lines")
    if not np.isfinite(c).all():
        raise ValueError(f"{path}: non-finite coefficient")
    asym = hermitian_asymmetry(c)
    if asym > SNAPSHOT_HERMITIAN_TOL:
        raise ValueError(
            f"{path}: snapshot violates Hermitian symmetry (max deviation {asym:.3e} > {SNAPSHOT_HERMITIAN_TOL})"
        )
    return SpectralField(ModeSet(n), c)
