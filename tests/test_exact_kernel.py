"""The power-series Newton kernel of the exact height laws against the
helpers it replaced, kept here as references, and against the direct O(n^2)
recurrences.

The kernel takes middle products and reuses transforms, so its rounding
differs from the references'; the cdfs must agree within 1e-10 (the
references' own accuracy is ~1e-9 at n = 10^6) and stay within 1e-12 of the
direct recurrences at a size those can reach."""

import math

import numpy as np
import pytest
from scipy import fft as sp_fft

from randstruct import exact

# ---------------------------------------------------------------------------
# Reference implementations: full-length FFT products, 18 transforms per
# exponential step


def ref_series_mul(x, y, m):
    x, y = x[:m], y[:m]
    if min(x.size, y.size) == 0:
        return np.zeros(m)
    if min(x.size, y.size) <= 64:
        out = np.convolve(x, y)[:m]
    else:
        size = sp_fft.next_fast_len(x.size + y.size - 1, real=True)
        out = sp_fft.irfft(sp_fft.rfft(x, size) * sp_fft.rfft(y, size), size)[:m]
    return np.pad(out, (0, m - out.size))


def ref_series_inv_step(g, v, m):
    k = v.size
    err = ref_series_mul(g, v, m)[k:]
    return np.concatenate([v, -ref_series_mul(v, err, m - k)])


def ref_newton_series(step, m_max, done):
    out = np.ones(1)
    while out.size < m_max and not done(out):
        out = step(out, min(2 * out.size, m_max))
    return out


def ref_series_inverse(g, m_max, done):
    return ref_newton_series(lambda v, m: ref_series_inv_step(g, v, m), m_max, done)


def ref_series_exp(a, m_max, done):
    inv = np.ones(1)

    def step(g, m):
        nonlocal inv
        k = g.size
        if inv.size < k:
            inv = ref_series_inv_step(g, inv, k)
        dlog = ref_series_mul(g[1:] * np.arange(1, k),
                              ref_series_inv_step(g, inv, m), m - 1)
        t = np.concatenate([[1.0], -dlog / np.arange(1, m)])
        t[1: a.size] += a[1:m]
        return ref_series_mul(g, t, m)
    return ref_newton_series(step, m_max, done)


def direct_rrt_height_cdf(n, h_max):
    """P(height <= h) of the uniform-attachment tree on n + 1 vertices: with
    p_h(k) = P(height <= h | k vertices), p_h(m + 1) = [z^m] exp(sum_j
    p_(h-1)(j) z^j / j), whose coefficients follow m G_m = sum_j p_(h-1)(j)
    G_(m-j)."""
    size = n + 1
    p = np.zeros(size + 1)
    p[1] = 1.0
    out = [p[size]]
    for _ in range(h_max):
        g = np.zeros(size)
        g[0] = 1.0
        for m in range(1, size):
            g[m] = np.dot(p[1:m + 1], g[m - 1::-1]) / m
        p = np.concatenate([[0.0], g])
        out.append(p[size])
    return np.array(out)


def direct_ba_height_cdf(n, h_max):
    """P(height <= h) of the preferential-attachment tree on N = n + 1
    vertices: the edge {0, 1} splits it into two plane-oriented trees whose
    sizes follow an urn run step by step, and the height is max(H_A, 1 + H_B).
    The plane-oriented height laws come from y_h' = 1 / (1 - y_(h-1)) at
    z = x / 2, coefficient by coefficient."""
    size = n + 1
    split = np.zeros(size + 1)
    split[1] = 1.0
    for i in range(2, size):
        a = np.arange(size + 1)
        grow = split * (2 * a - 1) / (2 * i - 2)
        split = split - grow
        split[1:] += grow[:-1]
    k = np.arange(1, size + 1)
    full = np.exp(np.array([math.lgamma(2 * j - 1) - 2 * math.lgamma(j) for j in k])
                  - np.log(k) - k * math.log(4.0) + math.log(2))
    c = np.zeros(size + 1)
    c[1] = full[0]
    q = [c[1:] / full]
    for _ in range(h_max):
        w = np.zeros(size)
        w[0] = 1.0
        for m in range(1, size):
            w[m] = np.dot(c[1:m + 1], w[m - 1::-1])
        c = np.concatenate([[0.0], 0.5 * w / k])
        q.append(c[1:] / full)
    q = np.array(q)
    a = np.arange(1, size)
    out = [0.0]
    for h in range(1, h_max + 1):
        out.append(float(np.sum(split[a] * q[h, a - 1] * q[h - 1, size - a - 1])))
    return np.array(out)


# ---------------------------------------------------------------------------


def _both_cdfs(n, h_max):
    return exact.rrt_height_cdf(n, h_max), exact.ba_height_cdf(n, h_max)


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_height_cdfs_match_reference_kernel(monkeypatch, n):
    got = _both_cdfs(n, 80)
    # the reference side runs the levels uncached, so no result of the
    # patched kernels enters the cache of the oracles
    monkeypatch.setattr(exact, "_series_exp", ref_series_exp)
    monkeypatch.setattr(exact, "_series_inverse", ref_series_inverse)
    want = [exact._height_levels(levels.__wrapped__(n), 80)
            for levels in (exact._rrt_height_cdf, exact._ba_height_cdf)]
    for new, old in zip(got, want):
        assert np.max(np.abs(new - old)) < 1e-10


def test_height_cdfs_match_direct_recurrences():
    n, h_max = 1500, 60
    for oracle, direct in ((exact.rrt_height_cdf, direct_rrt_height_cdf),
                           (exact.ba_height_cdf, direct_ba_height_cdf)):
        want = direct(n, h_max)
        assert want[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(oracle(n, h_max) - want)) < 1e-12


@pytest.mark.parametrize("m_max", [1, 2, 3, 129, 300, 1000])
def test_series_kernel_matches_reference_at_every_precision(m_max):
    # the doubling schedule and the early stop are those of the references:
    # the same number of coefficients comes back for each stopping rule
    rng = np.random.default_rng(9)
    a = np.concatenate([[0.0], rng.uniform(-1.0, 1.0, m_max) / np.arange(1, m_max + 1)])
    a *= 0.5 / np.abs(a).sum()
    g = np.concatenate([[1.0], a[1:]])
    for limit in (1, 2, 5, 64, 200, m_max):
        def done(s):
            return s.size >= limit
        for new, old, arg in ((exact._series_exp, ref_series_exp, a),
                              (exact._series_inverse, ref_series_inverse, g)):
            got, want = new(arg, m_max, done), old(arg, m_max, done)
            assert got.size == want.size
            assert np.max(np.abs(got - want)) < 1e-13
