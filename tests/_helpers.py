"""Shared test utilities: reproducible random fields and brute-force oracles."""

import gc
import tracemalloc

import numpy as np

from torusflow import ModeSet, SpectralField


def random_field(n, seed, amplitude=0.1, sigma=3.0, zero_mean=True, support=None):
    """Hermitian field with |uhat(k)| = amplitude * |k|^-sigma and Philox phases."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    size = 2 * n + 1
    lim = n if support is None else support
    c = np.zeros((size, size), dtype=np.complex128)
    for k1 in range(0, lim + 1):
        for k2 in range(-lim if k1 > 0 else 1, lim + 1):
            theta = rng.uniform(0.0, 2.0 * np.pi)
            mag = amplitude * float(k1 * k1 + k2 * k2) ** (-sigma / 2.0)
            c[k1 + n, k2 + n] = mag * np.exp(1j * theta)
            c[n - k1, n - k2] = np.conj(c[k1 + n, k2 + n])
    if not zero_mean:
        c[n, n] = amplitude * rng.uniform(-1.0, 1.0)
    return SpectralField(ModeSet(n), c)


def scaled_to(field, s, value):
    """Rescale so the A^s norm equals value."""
    from torusflow import wiener_norm

    cur = wiener_norm(field, s)
    return SpectralField(field.modes, field.coeff * (value / cur))


def held_after(call, *args) -> int:
    """Bytes that tracemalloc still counts once call(*args) has returned and
    its result is dropped: what the call left behind.  Run call first at
    another size, so that imports and small caches are already in place."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call(*args)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def rel_err(got, want):
    scale = float(np.max(np.abs(want)))
    if scale == 0.0:
        return float(np.max(np.abs(got)))
    return float(np.max(np.abs(got - want))) / scale


def max_abs_diff(a, b):
    ca = a.coeff if isinstance(a, SpectralField) else np.asarray(a)
    cb = b.coeff if isinstance(b, SpectralField) else np.asarray(b)
    return float(np.max(np.abs(ca - cb)))


def brute_bilinear(f, g, weight):
    """sum over retained pairs of weight(m, k-m) fhat(m) ghat(k-m).

    weight(m1, m2, j1, j2) receives broadcastable integer arrays for the
    components of m and j = k - m.  O(n^4), the independent oracle for every
    convolution identity.
    """
    n = f.n
    size = 2 * n + 1
    F, G = f.coeff, g.coeff
    out = np.zeros((size, size), dtype=np.complex128)
    for ia in range(size):
        k1 = ia - n
        i = np.arange(max(0, ia - n), min(size - 1, ia + n) + 1)
        m1 = i - n
        j1 = k1 - m1
        gi = j1 + n
        for ib in range(size):
            k2 = ib - n
            j = np.arange(max(0, ib - n), min(size - 1, ib + n) + 1)
            m2 = j - n
            j2 = k2 - m2
            gj = j2 + n
            w = weight(m1[:, None], m2[None, :], j1[:, None], j2[None, :])
            out[ia, ib] = np.sum(w * F[np.ix_(i, j)] * G[np.ix_(gi, gj)])
    return out


def w_plain(m1, m2, j1, j2):
    return 1.0


def w_hessian(m1, m2, j1, j2):
    return (m1 * m1 + m2 * m2) * (j1 * j1 + j2 * j2) - (m1 * j1 + m2 * j2) ** 2


def w_ddsq(m1, m2, j1, j2):
    m_sq = m1 * m1 + m2 * m2
    j_sq = j1 * j1 + j2 * j2
    return -2.0 * (m_sq * m_sq * j_sq + (m1 * j1 + m2 * j2) * m_sq * j_sq)


def w_gradlap(m1, m2, j1, j2):
    return (m1 * j1 + m2 * j2) * (j1 * j1 + j2 * j2)


def w_timesbilap(m1, m2, j1, j2):
    return (j1 * j1 + j2 * j2) ** 2
