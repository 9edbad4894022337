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
from functools import cached_property, lru_cache

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


# Exact norm sums without a per-term Python loop.  A term t >= 0 splits into
# hi, its bits with the low 26 mantissa bits cleared, and lo = t - hi (exact).
# Terms are binned by their exponent field E, four exponents to a bin (the
# bits above bit 53).  In the bin of E in [4b, 4b + 3], with u = max(4b, 1),
# every hi is a multiple of 2^(u - 1049) and every lo one of 2^(u - 1075),
# each fewer than 2^30 of those units: float64 adds the his (and the los) of
# up to 2^23 terms of a bin exactly, in any order.  So a row of M <= 2^23
# terms has exact bins, and one math.fsum over a row's bins is the correctly
# rounded sum of its terms.  Lanes spread the consecutive terms of a row over
# copies of its bins, so that bincount's adds do not wait on each other.  A
# chunk makes and bins at most _CHUNK terms, and a pass holds the bins of as
# many members as fit in _CHUNK entries (one at least), so that a temporary
# takes 64 KB or so, well under the 128 KB from which malloc maps (and faults
# in) fresh pages instead of reusing its own.  Below _FSUM_BELOW terms the
# fixed cost of binning exceeds that of math.fsum, which then sums each row
# itself.
_FSUM_BELOW = 1024
_CHUNK = 8192
_LANES = 4
_HI = np.int64(-1 << 26)


def _fsum(values) -> float:
    try:
        return math.fsum(values)
    except OverflowError:  # finite terms whose sum passes the float range
        return math.inf


def _terms(a: np.ndarray, w, twice) -> np.ndarray:
    """The terms of _row_sums as an (R W, M) array."""
    if w is None:
        return a
    with np.errstate(over="ignore"):
        return (np.multiply(w, a[:, None, :]) * twice).reshape(-1, a.shape[-1])


@lru_cache(maxsize=4)
def _bin_base(k: int, width: int) -> np.ndarray:
    """Read-only (k, 1, width) offsets lane k + row of the rows of a pass of
    _row_sums, the lane of column j being j % _LANES."""
    base = (np.arange(width) & _LANES - 1) * k + np.arange(k)[:, None, None]
    base.setflags(write=False)
    return base


def _row_sums(a: np.ndarray, w=None, twice=None) -> list:
    """math.fsum of each row of terms, bit for bit; inf where finite terms
    pass the float range.  Row (r, i), r-major, holds the terms w[i] * a[r]
    of an (R, M) array a >= 0, M <= 2^23, and a (W, M) array w whose entries
    are 0 or >= 1, each multiplied after weighting by twice, an (M,) array
    of 1.0 and 2.0 (exact).  With w and twice None the rows of a are the
    terms."""
    R, M = a.shape
    W = 1 if w is None else len(w)
    top = float(a.max()) * (1.0 if w is None else float(w.max()) * 2.0)
    if R * W * M < _FSUM_BELOW or not top < math.inf:  # a term may be inf or nan
        return [_fsum(row) for row in _terms(a, w, twice).tolist()]
    least = int((a.view(np.int64) - 1).view(np.uint64).min()) + 1  # bits of the least a > 0
    if least >> 63:
        return [0.0] * (R * W)
    # Bin b of row i of a pass is entry ((b - lo) L + lane) k + i of each
    # part's sums.  A positive term is >= the least a > 0, as w is 0 or >= 1,
    # so only zero terms fall below bin lo; they add nothing, and land in it.
    lo = least >> 54
    nb = (max(math.frexp(top)[1] + 1022, 0) >> 2) - lo + 1
    rows = max(1, _CHUNK // (2 * nb * _LANES * W))  # members per pass
    width = min(M, max(_LANES, _CHUNK // (min(rows, R) * W) & -_LANES))
    sums = []
    for r in range(0, R, rows):
        ar = a[r : r + rows, None, :]
        k = len(ar) * W
        base = _bin_base(k, width).reshape(len(ar), W, width)
        with np.errstate(over="ignore"):  # a bin past the float range is inf
            for j in range(0, M, width):
                t = ar[..., j : j + width]
                if w is not None:
                    t = np.multiply(w[:, j : j + width], t)
                    t *= twice[j : j + width]
                b = t.view(np.int64)
                e = b >> 54
                np.maximum(e, lo, out=e)
                e -= lo
                e *= _LANES * k
                e += base[..., : t.shape[-1]]
                hi = (b & _HI).view(np.float64)
                e = e.ravel()
                part = np.stack((np.bincount(e, hi.ravel(), nb * _LANES * k),
                                 np.bincount(e, (t - hi).ravel(), nb * _LANES * k)))
                bins = part if j == 0 else bins + part
                del t, b, e, hi  # before the next chunk's arrays are made
            bins = bins.reshape(2, nb, _LANES, k).sum(axis=2)
        sums += [_fsum(x) for x in bins.transpose(2, 0, 1).reshape(k, -1).tolist()]
    return sums


def _wiener_sums(a: np.ndarray, weights: np.ndarray, twice: np.ndarray) -> list:
    """sum_k w(k) |c(k)| for each row w of weights over the flattened half
    block, from the moduli a = |c| of k2 >= 0 half blocks (..., 2n+1, n+1):
    a list of the sums, one list per block of a stack.  A k2 > 0 term stands
    for k and -k, so it is doubled after weighting by twice (exact).  Each
    sum is correctly rounded, bit for bit math.fsum of its terms (see
    _row_sums).  The one place that decides overflow: past the float range
    gives inf, with no exception or warning."""
    lead, (rows, cols) = a.shape[:-2], a.shape[-2:]
    sums = _row_sums(a.reshape(-1, rows * cols), weights, twice)
    return np.reshape(sums, lead + (len(weights),)).tolist()


def _moduli(half: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # a modulus past the float range is inf
        return np.abs(half)


def wiener_norm(f: SpectralField, s: float) -> float:
    """sum_k |k|^s |uhat(k)|, with the convention 0^0 = 1.

    A^0 therefore includes the modulus of the mean, while every s > 0
    seminorm ignores it.  The result is the correctly rounded sum (exact
    bins, one rounding), independent of storage layout and bit for bit
    math.fsum of the terms; past the float range it is inf.
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
