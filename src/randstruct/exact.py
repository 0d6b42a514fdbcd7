"""Exact combinatorial counts and numeric evaluators used as ground truth.

Counts are arbitrary-precision integers, probabilities exact rationals.
Roots of one-variable equations (the survival probability of a Poisson
branching tree, the preferential-attachment height constant) are found by
bisection on a bracket where the equation changes sign once.  Laws
whose exact rationals are out of reach at sampling scale (tree heights at
10^6 vertices, the pill leftovers) are evaluated in float64 from their exact
recurrences or integral representations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import fft as sp_fft, special

from .errors import InvalidParameterError, ResourceLimitError
from .rng import RngStream

# root solves stop once the bracket is narrower than _ATOL, or after
# _MAX_ITER halvings
_ATOL = 1e-12
_MAX_ITER = 10_000


# ---------------------------------------------------------------------------
# Offspring laws


@dataclass(frozen=True)
class OffspringLaw:
    """A law on {0, 1, 2, ...}: finite pmf or a named parametric family."""

    kind: str
    params: tuple
    pmf_pairs: tuple = ()

    @classmethod
    def from_pmf(cls, pairs) -> "OffspringLaw":
        items = sorted((int(k), Fraction(p)) for k, p in dict(pairs).items())
        if any(k < 0 or p < 0 for k, p in items):
            raise InvalidParameterError("pmf needs k >= 0 and p >= 0")
        total = sum(p for _, p in items)
        if abs(float(total) - 1.0) > 1e-12:
            raise InvalidParameterError(f"pmf sums to {float(total)}, not 1")
        support = [k for k, p in items if p > 0]
        if support == [1]:
            raise InvalidParameterError("offspring law concentrated on {1}")
        return cls("pmf", (), tuple(items))

    @classmethod
    def poisson(cls, c: float) -> "OffspringLaw":
        if not 0 <= c <= 1e18:  # numpy's sampler takes means up to ~9.2e18
            raise InvalidParameterError("poisson mean must be in [0, 1e18]")
        return cls("poisson", (float(c),))

    @classmethod
    def geometric(cls, p: float) -> "OffspringLaw":
        """Failures before the first success: pmf p (1-p)^k on {0, 1, ...}."""
        if not 0.0 < p <= 1.0:
            raise InvalidParameterError("geometric parameter must be in (0, 1]")
        return cls("geometric", (float(p),))

    @classmethod
    def binomial(cls, d: int, p: float) -> "OffspringLaw":
        if d < 0 or not 0.0 <= p <= 1.0:
            raise InvalidParameterError("bad binomial parameters")
        return cls("binomial", (int(d), float(p)))

    def probability(self, k):
        """Mass at k: a float for an int, an array of masses for an int array.

        The Poisson and geometric masses are the formulas scipy.stats's
        poisson.pmf and geom.pmf evaluate, so they agree to the bit; the
        binomial is summed in log space."""
        if self.kind == "pmf":
            table = dict(self.pmf_pairs)
            mass = np.vectorize(lambda j: float(table.get(j, 0)), otypes=[float])(k)
            return float(mass) if np.ndim(mass) == 0 else mass
        k = np.asarray(k)
        j = np.maximum(k, 0)  # keeps the formulas finite where the mask drops them
        inside = k >= 0
        if self.kind == "poisson":
            (mu,) = self.params
            mass = np.exp(special.xlogy(j, mu) - special.gammaln(j + 1) - mu)
        elif self.kind == "geometric":
            (p,) = self.params
            mass = np.power(1.0 - p, j) * p
        else:
            d, p = self.params
            j = np.minimum(j, d)
            inside = inside & (k <= d)
            mass = np.exp(special.gammaln(d + 1) - special.gammaln(j + 1)
                          - special.gammaln(d - j + 1) + special.xlogy(j, p)
                          + special.xlog1py(d - j, -p))
        mass = np.where(inside, mass, 0.0)
        return float(mass) if mass.ndim == 0 else mass

    def sample(self, rng: RngStream, size=None):
        g = rng.gen
        if self.kind == "poisson":
            return g.poisson(self.params[0], size)
        if self.kind == "geometric":
            return g.geometric(self.params[0], size) - 1
        if self.kind == "binomial":
            return g.binomial(*self.params, size=size)
        values = np.array([k for k, _ in self.pmf_pairs])
        probs = np.array([float(p) for _, p in self.pmf_pairs])
        probs = probs / probs.sum()
        return g.choice(values, size=size, p=probs)


# ---------------------------------------------------------------------------
# Exact counts


def catalan(n: int) -> int:
    """Number of plane trees with n edges."""
    if n < 0:
        raise InvalidParameterError("n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)


def cayley_count(n: int) -> int:
    """Number of labeled unrooted trees on {1..n}: n^(n-2)."""
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    if n <= 2:
        return 1
    return n ** (n - 2)


def cayley_forest_count(k: int, n: int) -> int:
    """Labeled forests on {1..n} of k trees rooted at 1..k: (k/n) n^(n-k)."""
    if not 1 <= k <= n:
        raise InvalidParameterError("need 1 <= k <= n")
    if k == n:
        return 1
    return k * n ** (n - k - 1)


def plane_trees_with_degree_profile(profile) -> int:
    """Plane trees with profile[i] vertices of i children: (n-1)! / prod d_i!."""
    d = {int(i): int(m) for i, m in dict(profile).items() if m != 0}
    if any(i < 0 or m < 0 for i, m in d.items()):
        raise InvalidParameterError("profile entries must be >= 0")
    n = sum(d.values())
    if n == 0 or 1 + sum(i * m for i, m in d.items()) != n:
        return 0
    out = math.factorial(n - 1)
    for m in d.values():
        out //= math.factorial(m)
    return out


def plane_forest_count(f: int, n: int) -> int:
    """Ordered forests of f plane trees with n edges total: f/(2n+f) C(2n+f, n)."""
    if f < 1 or n < 0:
        raise InvalidParameterError("need f >= 1 and n >= 0")
    value = Fraction(f, 2 * n + f) * math.comb(2 * n + f, n)
    assert value.denominator == 1
    return value.numerator


# ---------------------------------------------------------------------------
# Exact and log-space pmfs


def borel_tanner_pmf(alpha: float, n: int) -> float:
    """Total-progeny law of a Poisson(alpha) branching tree: e^(-an) (an)^(n-1) / n!."""
    if not 0.0 <= alpha <= 1.0:
        raise InvalidParameterError("alpha must be in [0, 1]")
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    if alpha == 0.0:
        return 1.0 if n == 1 else 0.0
    log_p = -alpha * n + (n - 1) * math.log(alpha * n) - math.lgamma(n + 1)
    return math.exp(log_p)


def parking_full_prob(n: int, m: int) -> Fraction:
    """Exact probability that m uniform cars all park on a line of n spots."""
    if n < 1 or m < 0:
        raise InvalidParameterError("need n >= 1 and m >= 0")
    if m > n:
        return Fraction(0)
    if m == 0:
        return Fraction(1)
    return Fraction((n + 1 - m) * (n + 1) ** (m - 1), n ** m)


def cycles_count_pmf(n: int) -> list[Fraction]:
    """Exact law of the number of cycles of a uniform permutation of size n.

    Entry k-1 is P(#cycles = k); computed by expanding prod_{j<n} (z + j) / n!.
    """
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    coeffs = [1]  # polynomial in z, lowest degree first
    for j in range(n):
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c * j
            nxt[i + 1] += c
        coeffs = nxt
    n_fact = math.factorial(n)
    return [Fraction(c, n_fact) for c in coeffs[1:]]


def cauchy_cycle_type_pmf(multiplicities) -> Fraction:
    """P(a uniform permutation has c_i cycles of length i): prod (1/i)^c_i / c_i!."""
    c = list(multiplicities)
    n = len(c)
    if any(x < 0 for x in c):
        raise InvalidParameterError("multiplicities must be >= 0")
    if sum(i * ci for i, ci in enumerate(c, start=1)) != n:
        return Fraction(0)
    out = Fraction(1)
    for i, ci in enumerate(c, start=1):
        if ci:
            out /= Fraction(i ** ci * math.factorial(ci))
    return out


# ---------------------------------------------------------------------------
# Fixed points and special functions


def _bisect(f, lo: float, hi: float, atol: float = _ATOL) -> float:
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ResourceLimitError("bisection bracket does not change sign")
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo < atol:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def giant_fraction(c: float) -> float:
    """Asymptotic density of the largest component of G(n, c/n): the survival
    probability s of a Poisson(c) branching tree, the root of s = 1 - e^(-c s)
    in (0, 1] for c > 1, and 0 for c <= 1.

    q(s) = (1 - e^(-c s)) / s - 1 decreases in s, from a positive value at
    lo = (c - 1) / c^2 (about (c - 1) / 2 near c = 1), below the root, to
    -e^(-c) at s = 1, so one bisection on [lo, 1] to a tolerance relative to
    lo finds s."""
    if not 0.0 < c < math.inf:
        raise InvalidParameterError("c must be finite and > 0")
    if c <= 1.0:
        return 0.0
    lo = (c - 1.0) / c / c
    return _bisect(lambda s: -math.expm1(-c * s) / s - 1.0, lo, 1.0,
                   atol=1e-13 * lo)


def fluid_curve(c: float, t):
    """Deterministic limit of the rescaled component-exploration walk at time
    t in [0, 1]: a float for a scalar t, an array for an array of times (one
    fixed-point solve for the whole grid)."""
    if c <= 0.0:
        raise InvalidParameterError("c must be > 0")
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0.0) & (t <= 1.0)):
        raise InvalidParameterError("t must be in [0, 1]")
    alpha = 1.0 - giant_fraction(c)
    t_star = 1.0 - alpha
    rising = 1.0 - np.exp(-c * t) - t
    parabola = 0.5 * (c * (1.0 + alpha - t) - 2.0) * (t - 1.0 + alpha)
    out = np.where(t <= t_star, rising, parabola)
    return float(out) if out.ndim == 0 else out


# terms per unit interval of the Dickman series: the piece on [k, k + 1],
# expanded about k + 1/2, continues analytically to within 3/2 of its centre
# (its nearest singularity is k - 1), so on the interval its terms fall like
# 3^-i
_DICKMAN_TERMS = 48
# exp of anything below this is 0.0 in float64
_LOG_TINY = math.log(np.nextafter(0.0, 1.0)) - 1.0


@lru_cache(maxsize=1)
def _dickman_pieces() -> tuple[np.ndarray, np.ndarray]:
    """Scales and coefficients of rho on [k, k + 1], k = 0, 1, ..., up to the
    first piece that underflows: rho(k + 1/2 + s) = exp(scale[k]) *
    sum_i coef[k, i] s^i for |s| <= 1/2, with coef[k, 0] = 1.

    With b the coefficients of the piece before, u rho'(u) = -rho(u - 1)
    gives (k + 1/2)(i + 1) c_(i+1) + i c_i = -b_i (Marsaglia, Zaman &
    Marsaglia, Math. Comp. 53, 1989).  c_0 comes from the integral form
    u rho(u) = int_(u-1)^u rho at u = k + 1/2, a sum of positive parts:
    matching values at u = k instead would cancel, and its rounding would
    seed the solutions ~ C / u of the same equation, which swamp rho near
    u = 13."""
    i = np.arange(_DICKMAN_TERMS)
    half = 0.5 ** i
    left = np.where(i % 2 == 1, -half, half)  # s^i at s = -1/2
    right_int = half / (2 * (i + 1))  # int_0^(1/2) s^i ds
    left_int = np.where(i % 2 == 1, -right_int, right_int)  # int_(-1/2)^0
    scales, coefs = [0.0], [np.eye(1, _DICKMAN_TERMS)[0]]
    while True:
        k, b, c = len(coefs), coefs[-1], np.zeros(_DICKMAN_TERMS)
        for j in range(_DICKMAN_TERMS - 1):
            c[j + 1] = -(b[j] + j * c[j]) / ((k + 0.5) * (j + 1))
        # (k + 1/2) c_0 = int of the piece before over s in [0, 1/2] plus
        # c_0 / 2 + int of sum_(j>=1) c_j s^j over s in [-1/2, 0]
        c[0] = (np.dot(b, right_int) + np.dot(c, left_int)) / k
        scales.append(scales[-1] + math.log(c[0]))
        coefs.append(c / c[0])
        # rho on the piece is at most its value at u = k, and later pieces
        # lie below it
        if scales[-1] + math.log(np.dot(coefs[-1], left)) < _LOG_TINY:
            return np.array(scales), np.array(coefs)


def dickman_rho(x: float) -> float:
    """Dickman's function: rho = 1 on [0, 1] and x rho'(x) = -rho(x - 1),
    to a relative accuracy near 1e-14 while it is above float64 underflow,
    and 0.0 past it."""
    if not 0.0 <= x < math.inf:
        raise InvalidParameterError("x must be finite and >= 0")
    if x <= 1.0:
        return 1.0
    scales, coefs = _dickman_pieces()
    k = int(x)
    if k >= scales.size:
        return 0.0
    value = np.polynomial.polynomial.polyval(x - k - 0.5, coefs[k])
    return math.exp(scales[k] + math.log(value))


def ba_height_constant() -> float:
    """Height constant of the preferential-attachment tree: 1/(2 gamma) with
    gamma the root of gamma e^(1+gamma) = 1."""
    # the defining equation must hold to _ATOL, so bracket well below it
    gamma_root = _bisect(lambda g: g * math.exp(1.0 + g) - 1.0, 1e-9, 1.0,
                         atol=_ATOL / 64.0)
    return 1.0 / (2.0 * gamma_root)


def connectivity_limit(c: float) -> float:
    """Limit probability that G(n, (log n + c)/n) is connected: exp(-exp(-c))."""
    return math.exp(-math.exp(-c))


# ---------------------------------------------------------------------------
# Finite-n laws of growing-tree heights and pill leftovers (float64)

# a height level stops growing its series once P(height <= h) at the current
# size drops below this; P is nonincreasing in the size, so the rest is below
# it too.  It sits above the ~1e-13 rounding noise of the FFT products.
_HEIGHT_TAIL = 1e-12


# cyclic products of at most this many coefficients run as np.convolve
_DIRECT = 128

# _series_exp sums the Taylor series of exp(a) when at most _TAYLOR_MAX_TERMS
# terms leave a remainder below _TAYLOR_REMAINDER in l1 norm, i.e. for
# sum |a_j| up to ~6e-3; the tail levels of the uniform height law sit there
_TAYLOR_REMAINDER = 1e-16
_TAYLOR_MAX_TERMS = 6


def _spectrum(x: np.ndarray, n: int) -> np.ndarray:
    """x as an operand of a length-n cyclic product: its rfft, or x itself
    where n is small enough for a direct product."""
    return x if n <= _DIRECT else sp_fft.rfft(x, n)


def _cyclic(fx: np.ndarray, fy: np.ndarray, n: int) -> np.ndarray:
    """n coefficients of the product of two ``_spectrum(., n)`` operands.  The
    FFT product wraps terms of degree >= n onto degree - n; callers read only
    coefficients the wrap misses, which the direct product gives exactly."""
    if n > _DIRECT:
        return sp_fft.irfft(fx * fy, n)
    return np.pad(np.convolve(fx, fy), (0, n))[:n]


def _inverse_step(g: np.ndarray, v: np.ndarray, m: int) -> np.ndarray:
    """Newton step: from v = 1/g mod z^k (k = v.size) to 1/g mod z^m, m <= 2k.
    With g v = 1 + z^k err, err is a middle product at length n >= m (the wrap
    lands below degree k - 1), and v err reuses the transform of v."""
    k = v.size
    n = sp_fft.next_fast_len(m, real=True)
    fv = _spectrum(v, n)
    err = _cyclic(_spectrum(g[:m], n), fv, n)[k:m]
    return np.concatenate([v, -_cyclic(fv, _spectrum(err, n), n)[: m - k]])


def _series_inverse(g: np.ndarray, m_max: int, done) -> np.ndarray:
    """1/g for g[0] = 1, to m_max coefficients or until ``done``."""
    v = np.ones(1)
    while v.size < m_max and not done(v):
        v = _inverse_step(g, v, min(2 * v.size, m_max))
    return v


def _taylor_terms(x: float) -> int:
    """The least K >= 2 with x^K e^x / K! < _TAYLOR_REMAINDER, or
    _TAYLOR_MAX_TERMS + 1 if no K up to _TAYLOR_MAX_TERMS qualifies."""
    k, bound, limit = 2, 0.5 * x * x, _TAYLOR_REMAINDER * math.exp(-x)
    while bound >= limit and k <= _TAYLOR_MAX_TERMS:
        k += 1
        bound *= x / k
    return k


def _series_exp(a: np.ndarray, m_max: int, done) -> np.ndarray:
    """exp(a) for a[0] = 0, to m_max coefficients or until ``done``, which is
    asked of the doubling prefixes 1, 2, 4, ... of the result.

    Small exponents take a Taylor branch.  With x = sum |a_j|, the terms
    a^k / k! for k >= K have l1 norm at most sum_(k>=K) x^k / k! <=
    x^K e^x / K!, so the least K with that bound below _TAYLOR_REMAINDER
    (1e-16) moves no coefficient by more than it.  When K <= _TAYLOR_MAX_TERMS
    the result is 1 + a + ... + a^(K-1) / (K-1)! mod z^m_max, from K - 2
    products that reuse the transform of a.  Each runs at length 2 m_max - 1,
    which holds the whole product of two series of m_max terms, so the wrap
    of the cyclic product misses every coefficient kept.  One exponential of
    the spectrum of a at length (K - 1) m_max would take no more time, but
    its arrays would be (K - 1) / 2 times longer.

    Otherwise Newton on log: from f = exp(a) mod z^k, f <- f (1 + w) mod z^m
    with w = a - log f = O(z^k).  So z w' = e / f, where e = z (a' f - f')
    vanishes below degree k: e is a middle product of z a' and f, and z w'
    needs h = 1/f only mod z^(m-k); h is carried one doubling behind.  The
    transform of f serves both e and f w."""
    terms = _taylor_terms(float(np.abs(a).sum()))
    if terms <= _TAYLOR_MAX_TERMS:
        return _taylor_exp(a[:m_max], m_max, terms, done)
    za, f, h = np.arange(a.size) * a, np.ones(1), np.ones(1)  # za = z a'
    while f.size < m_max and not done(f):
        k, m = f.size, min(2 * f.size, m_max)
        if h.size < m - k:
            h = _inverse_step(f, h, m - k)
        n = sp_fft.next_fast_len(m, real=True)
        ff = _spectrum(f, n)
        e = _cyclic(_spectrum(za[:m], n), ff, n)[k:m]
        w = _cyclic(_spectrum(e, n), _spectrum(h[: m - k], n), n)[: m - k]
        w /= np.arange(k, m)
        f = np.concatenate([f, _cyclic(ff, _spectrum(w, n), n)[: m - k]])
    return f


def _taylor_exp(a: np.ndarray, m: int, terms: int, done) -> np.ndarray:
    """sum_(k < terms) a^k / k! mod z^m for a[0] = 0 and a.size <= m, cut to
    the first doubling prefix that is ``done``, as the Newton loop stops."""
    f = np.zeros(m)
    f[0] = 1.0
    f[: a.size] += a
    if terms > 2:
        n = sp_fft.next_fast_len(2 * m - 1, real=True)
        term, fa = a, _spectrum(a, n)
        for k in range(2, terms):
            term = _cyclic(fa if k == 2 else _spectrum(term, n), fa, n)[:m] / k
            f += term
    size = 1
    while size < m and not done(f[:size]):
        size = min(2 * size, m)
    return f[:size]


def _support(p: np.ndarray) -> int:
    """Length of a nonincreasing probability vector before it drops below
    _HEIGHT_TAIL (at least 1)."""
    return int(np.count_nonzero(p >= _HEIGHT_TAIL)) or 1


def _height_levels(cdf: list[float], h_max: int) -> np.ndarray:
    """P(H <= h) for h = 0..h_max from the levels computed up to saturation,
    with rounding noise (~1e-13) clipped so the cdf is a monotone law."""
    out = np.ones(h_max + 1)
    m = min(len(cdf), h_max + 1)
    out[:m] = cdf[:m]
    return np.maximum.accumulate(np.clip(out, 0.0, 1.0))


def _check_height_args(n: int, h_max: int, n_min: int):
    if n < n_min:
        raise InvalidParameterError(f"n must be >= {n_min}")
    if h_max < 0:
        raise InvalidParameterError("h_max must be >= 0")


@lru_cache(maxsize=64)
def _rrt_height_cdf(n: int) -> list[float]:
    size = n + 1  # vertices of rrt_chain(n)
    j = np.arange(1, size)
    cdf = [1.0 if size == 1 else 0.0]
    tail = np.zeros(1)  # Q_0(k) = 1 - P_0(k) on its support; 1 beyond it
    while cdf[-1] < 1.0 - _HEIGHT_TAIL and len(cdf) <= n:  # height <= n
        q = np.pad(tail, (0, size - tail.size), constant_values=1.0)[:-1] / j
        steps = _series_exp(np.concatenate([[0.0], -q]), size,
                            lambda s: bool(s.sum() < _HEIGHT_TAIL))
        tail = -np.cumsum(np.concatenate([[0.0], steps[1:]]))
        cdf.append(1.0 - tail[size - 1] if tail.size == size else 0.0)
        tail = tail[: _support(1.0 - tail)]
    return cdf


def rrt_height_cdf(n: int, h_max: int) -> np.ndarray:
    """P(height <= h), h = 0..h_max, of the uniform-attachment tree
    ``growth.rrt_chain(n)`` (n + 1 vertices, uniform over increasing trees).

    With P_h(k) the law on k vertices, P_0(k) = [k = 1] and P_h(m + 1) is the
    coefficient g_m of g = exp(sum_j P_(h-1)(j) z^j / j): removing the root
    leaves a set of subtrees of height <= h - 1, which is the relation
    f_h' = exp(f_(h-1)) for f_h = sum_k P_h(k) z^k / k.

    Each level is one power-series exponential, taken as g = exp(-q) / (1 - z)
    with q_j = Q_(h-1)(j) / j and Q = 1 - P, by Newton iteration on doubling
    precisions m (``_series_exp``): each step takes its error term as a
    middle product at FFT length ~m, reuses the transform of the series and
    carries the reciprocal one doubling behind.  The coefficients of exp(-q)
    are the increments of P_h, so the Newton products carry no large terms
    that cancel (those of g itself do: g' has coefficients k g_k ~ k), and
    summing the increments gives Q_h accurately where it is small.  A level
    stops once P_h drops below 1e-12, as P_h(k) is nonincreasing in k; the
    cdf is accurate to ~1e-9 at n = 10^6.  The exponent has sum_j q_j close
    to -log P_h(n + 1), so above the median of the height it is about the
    tail mass 1 - P_h(n + 1).  Below ~6e-3 those tail levels take the Taylor
    branch of ``_series_exp``: at most 4 products in place of the whole
    Newton loop (17 of 47 levels at n = 10^5).
    """
    _check_height_args(n, h_max, 0)
    return _height_levels(_rrt_height_cdf(int(n)), int(h_max))


def _port_weights(m: int) -> np.ndarray:
    """d_k = C(2k-2, k-1) / 4^(k-1) for k = 1..m: the plane-oriented tree
    count (2k-3)!! over (k-1)! 2^(k-1); sum_k d_k z^(k-1) = (1 - z)^(-1/2)."""
    k = np.arange(1, m)
    return np.concatenate([[1.0], np.cumprod((2 * k - 1) / (2 * k))])


@lru_cache(maxsize=64)
def _ba_height_cdf(n: int) -> list[float]:
    size = n + 1  # vertices of ba_chain(n)
    d = _port_weights(size)
    e = d / (2.0 * np.arange(1, size + 1))
    cdf = [0.0]  # vertex 1 sits at depth 1
    # G_h = sum_m Q_h(m + 1) d_(m+1) z^m for the plane-oriented height law Q_h
    g_prev = np.ones(1)  # G_0: only the single vertex has height 0
    while cdf[-1] < 1.0 - _HEIGHT_TAIL and len(cdf) <= n:  # height <= n
        # y_h' = 1 / (1 - y_(h-1)) under z -> z/2: G_h = 1 / (1 - A_(h-1))
        # with A_(h-1) = sum_k Q_(h-1)(k) e_k z^k
        q_prev = g_prev / d[: g_prev.size]
        one_minus_a = np.concatenate([[1.0], -q_prev * e[: q_prev.size]])
        g = _series_inverse(one_minus_a, size - 1,
                            lambda s: bool(s[-1] < _HEIGHT_TAIL * d[s.size - 1]))
        # cutting the edge {0, 1} leaves independent plane-oriented trees of
        # sizes a and size - a with P(a) = d_a d_(size-a); the height is
        # max(H_A, 1 + H_B), so P(H <= h) = [z^(size-2)] G_h G_(h-1)
        lo = max(0, size - 1 - g_prev.size)
        hi = min(g.size, size - 1)
        cdf.append(float(np.dot(g[lo:hi], g_prev[size - 2 - np.arange(lo, hi)]))
                   if hi > lo else 0.0)
        g_prev = g[: _support(g / d[: g.size])]
    return cdf


def ba_height_cdf(n: int, h_max: int) -> np.ndarray:
    """P(height <= h), h = 0..h_max, of the preferential-attachment tree
    ``growth.ba_chain(n)`` (n + 1 vertices).

    Cutting the edge {0, 1} leaves two plane-oriented recursive trees rooted
    at 0 and 1 (attachment weight = out-degree + 1), independent given their
    sizes a and N - a, with P(a) = d_a d_(N-a) in the notation of
    ``_port_weights``; the height is max(H_A, 1 + H_B).  The plane-oriented
    height law follows y_h' = 1 / (1 - y_(h-1)), evaluated under z -> z/2 so
    that its coefficients stay O(k^(-1/2)); each level is one power-series
    reciprocal by Newton iteration (``_series_inverse``): from 1/g mod z^k to
    mod z^m, g v - 1 is a middle product at FFT length ~m, and the correction
    reuses the transform of v, 5 transforms per step.
    """
    _check_height_args(n, h_max, 1)
    return _height_levels(_ba_height_cdf(int(n)), int(h_max))


@lru_cache(maxsize=8)
def _pills_pmf(n: int) -> np.ndarray:
    # leftover count L = k + 1 with k the other pills still half-alive when
    # the last whole pill breaks at time m; the tail of L decays like
    # exp(-k / log n), so k_max covers all mass above ~1e-20
    k = np.arange(min(n, int(50 * math.log(n + 1)) + 50))
    # log n C(n-1, k) as a running sum: lgamma(n) - lgamma(n - k) would cost
    # ~n eps of absolute accuracy in the log
    falling = np.concatenate([[0.0], np.cumsum(np.log(n - 1.0 - k[:-1]))])
    log_coef = math.log(n) + falling - np.array([math.lgamma(j + 1) for j in k])

    def integrand(m):
        if m <= 0.0:
            return np.zeros(k.size)
        dead = -math.expm1(-m) - m * math.exp(-m)  # broken and eaten by m
        log_f = log_coef - m + k * (math.log(m) - m)
        rest = n - 1 - k
        if dead > 0.0:
            log_f = log_f + rest * math.log(dead)
        else:  # m so small that no pill can be eaten yet
            log_f = np.where(rest > 0, -np.inf, log_f)
        return np.exp(log_f)

    from scipy import integrate  # at first use: importing it slows every start

    # the mass sits near m = log n + log log n; beyond log n + 60 it is e^-60
    peak = math.log(n) + math.log(max(math.log(n), 1.0))
    values, _ = integrate.quad_vec(integrand, 0.0, math.log(n) + 60.0,
                                   epsabs=1e-13, epsrel=1e-11,
                                   points=[1.0, peak] if peak > 1.0 else [1.0])
    pmf = np.zeros(n + 1)
    pmf[k + 1] = values
    return pmf


def pills_pmf(n: int) -> np.ndarray:
    """Exact law of the pill leftovers of ``growth.pills_batch`` at n: entry k is
    P(L = k).

    Each pill breaks after an Exp(1) time X and its half is eaten Exp(1) later;
    L counts the halves alive when the last whole pill breaks, so
    P(L = k + 1) = n C(n-1, k) int_0^inf e^(-m) (m e^(-m))^k
    (1 - e^(-m) - m e^(-m))^(n-1-k) dm, integrated in log space.
    ``growth.pills_batch`` draws this mixture: the time m of the last break
    from its density n e^(-m) (1 - e^(-m))^(n-1), then the binomial.  The tie
    to the uniform-pick chain is tested against its exact ``Fraction``
    recurrence at small n.
    """
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    return _pills_pmf(int(n)).copy()


def pills_mean(n: int) -> float:
    """Exact mean of the pill leftovers: H_n = digamma(n + 1) + gamma."""
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    return float(special.digamma(n + 1.0) + np.euler_gamma)


def pills_limit_distance(n: int) -> float:
    """Sup-norm distance between the law of L / log n and its Exp(1) limit."""
    if n < 2:
        raise InvalidParameterError("n must be >= 2")
    cdf = np.cumsum(pills_pmf(n))
    k = np.arange(cdf.size)
    limit = -np.expm1(-k / math.log(n))
    left = np.concatenate([[0.0], cdf[:-1]])
    return float(max(np.max(np.abs(cdf - limit)), np.max(np.abs(left - limit))))
