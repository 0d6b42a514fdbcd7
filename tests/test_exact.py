import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, optimize, stats as sps

from randstruct import exact
from randstruct.errors import InvalidParameterError
from randstruct.exact import OffspringLaw


# ---------------------------------------------------------------------------
# Counting


def test_catalan_small_values():
    assert exact.catalan(0) == 1
    assert exact.catalan(3) == 5
    assert exact.catalan(8) == 1430


def test_catalan_convolution_recurrence():
    # C_{n+1} = sum C_i C_{n-i}, seeded at C_0 = 1
    values = [exact.catalan(n) for n in range(65)]
    for n in range(64):
        assert values[n + 1] == sum(values[i] * values[n - i] for i in range(n + 1))


def test_cayley_counts():
    assert exact.cayley_count(1) == 1
    assert exact.cayley_count(2) == 1
    assert exact.cayley_count(3) == 3
    assert exact.cayley_count(4) == 16


def test_cayley_forest_counts():
    assert exact.cayley_forest_count(5, 5) == 1
    assert exact.cayley_forest_count(1, 3) == 3
    assert exact.cayley_forest_count(2, 4) == 8


def test_degree_profile_examples():
    assert exact.plane_trees_with_degree_profile({0: 2, 2: 1}) == 1
    assert exact.plane_trees_with_degree_profile({0: 3, 2: 2}) == 2
    assert exact.plane_trees_with_degree_profile({0: 1, 5: 9}) == 0  # inconsistent


def test_degree_profiles_sum_to_catalan():
    # all profiles with 4 vertices sum to the number of trees with 3 edges
    total = 0
    for d1 in range(4):
        for d2 in range(4):
            for d3 in range(4):
                profile = {1: d1, 2: d2, 3: d3}
                n = sum(profile.values())
                profile[0] = 4 - n
                if profile[0] >= 0:
                    total += exact.plane_trees_with_degree_profile(profile)
    assert total == exact.catalan(3) == 5


def test_p_tree_counts_match_binomial_form():
    # trees whose vertices have 0 or p children, with kp edges
    for p in (2, 3):
        for k in range(1, 5):
            profile = {p: k, 0: k * p + 1 - k}
            assert exact.plane_trees_with_degree_profile(profile) \
                == math.comb(k * p + 1, k) // (k * p + 1)


def test_plane_forest_counts():
    assert exact.plane_forest_count(1, 6) == exact.catalan(6)
    assert exact.plane_forest_count(2, 1) == 2
    assert exact.plane_forest_count(3, 2) == 9


# ---------------------------------------------------------------------------
# pmfs


def test_borel_tanner_values():
    for alpha in (0.2, 0.7, 1.0):
        assert exact.borel_tanner_pmf(alpha, 1) == pytest.approx(math.exp(-alpha))
    assert exact.borel_tanner_pmf(1.0, 2) == pytest.approx(math.exp(-2.0))


def test_borel_tanner_subcritical_mass():
    total = sum(exact.borel_tanner_pmf(0.5, n) for n in range(1, 201))
    assert abs(total - 1.0) < 1e-10


def test_parking_probabilities():
    assert exact.parking_full_prob(7, 0) == 1
    assert exact.parking_full_prob(2, 2) == Fraction(3, 4)
    assert exact.parking_full_prob(3, 3) == Fraction(16, 27)
    assert exact.parking_full_prob(3, 5) == 0


def test_parking_brute_force_small():
    # enumerate every arrival sequence and replay the parking dynamics
    from parking_helpers import parking_simulate
    for n, m in ((2, 2), (3, 3), (3, 2), (4, 2)):
        wins = sum(parking_simulate(n, arrivals=arrivals).success
                   for arrivals in itertools.product(range(1, n + 1), repeat=m))
        assert exact.parking_full_prob(n, m) == Fraction(wins, n ** m)


def test_cycles_count_pmf_small():
    assert exact.cycles_count_pmf(1) == [Fraction(1)]
    assert exact.cycles_count_pmf(2) == [Fraction(1, 2), Fraction(1, 2)]
    assert exact.cycles_count_pmf(3) == [Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)]


def test_cycles_count_pmf_matches_enumeration():
    def cycle_count(perm):
        seen = [False] * len(perm)
        cycles = 0
        for start in range(len(perm)):
            if not seen[start]:
                cycles += 1
                v = start
                while not seen[v]:
                    seen[v] = True
                    v = perm[v]
        return cycles

    for n in (2, 3, 4, 5):
        counts = Counter(cycle_count(p) for p in itertools.permutations(range(n)))
        pmf = exact.cycles_count_pmf(n)
        for k in range(1, n + 1):
            assert pmf[k - 1] == Fraction(counts[k], math.factorial(n))


def test_cycles_count_moments_exact():
    for n in (1, 2, 3, 10, 60, 200):
        pmf = exact.cycles_count_pmf(n)
        mean = sum(Fraction(k) * p for k, p in enumerate(pmf, start=1))
        assert mean == sum(Fraction(1, k) for k in range(1, n + 1))
        second = sum(Fraction(k * k) * p for k, p in enumerate(pmf, start=1))
        variance = second - mean * mean
        assert variance == sum(Fraction(1, k) - Fraction(1, k * k)
                               for k in range(1, n + 1))


def test_cycles_doubling_identity():
    # E[2^(number of cycles)] = n + 1, exactly
    for n in (1, 2, 5, 20, 60):
        pmf = exact.cycles_count_pmf(n)
        assert sum(Fraction(2 ** k) * p for k, p in enumerate(pmf, start=1)) == n + 1


def test_cauchy_cycle_type():
    assert exact.cauchy_cycle_type_pmf([3, 0, 0]) == Fraction(1, 6)
    assert exact.cauchy_cycle_type_pmf([0, 0, 1]) == Fraction(1, 3)
    assert exact.cauchy_cycle_type_pmf([1, 1, 1]) == 0  # inconsistent type


def test_cauchy_cycle_type_normalizes():
    n = 6
    total = Fraction(0)
    for c in itertools.product(*(range(n // i + 1) for i in range(1, n + 1))):
        total += exact.cauchy_cycle_type_pmf(c)
    assert total == 1


# ---------------------------------------------------------------------------
# Solvers and special functions


def test_giant_fraction_values():
    assert exact.giant_fraction(0.5) == 0.0
    assert exact.giant_fraction(1.0) == 0.0
    root = optimize.brentq(lambda a: math.exp(-2.0 * (1.0 - a)) - a, 0.0, 0.999999)
    assert abs(exact.giant_fraction(2.0) - (1.0 - root)) < 1e-10


# the root of s = 1 - exp(-c s) in (0, 1] at the float c = 1 + delta, from
# mpmath 1.3 at 300 bits (findroot; residual below 1e-90)
GIANT_ROOTS = {
    1e-9: 2.000000162814075e-09,
    1e-6: 1.9999973331719116e-06,
    1e-4: 0.00019997333644407875,
    6e-4: 0.001199040671554715,
    1e-2: 0.019736410439591772,
    0.5: 0.5828116438658114,
    1.0: 0.79681213002002,
    9.0: 0.9999545794446535,
}


@pytest.mark.parametrize("delta", sorted(GIANT_ROOTS))
def test_giant_fraction_matches_reference_roots(delta):
    # near the root the solved function is a difference of terms near 1 that
    # leaves about c - 1, so float64 rounding costs ~1e-16 / (c - 1) relative
    rel = abs(exact.giant_fraction(1.0 + delta) / GIANT_ROOTS[delta] - 1.0)
    assert rel <= max(1e-15 / delta, 1e-12)


def test_giant_fraction_returns_across_the_range():
    # every finite c > 1 returns, down to one ulp above 1 and up to 1e300
    grid = np.concatenate([1.0 + 2.0 ** -52 * np.arange(1, 65),
                           1.0 + np.logspace(-15, 300, 400)])
    for c in grid.tolist():
        s = exact.giant_fraction(c)
        assert 0.0 < s <= 1.0
    assert exact.giant_fraction(1e300) == 1.0
    for c in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameterError):
            exact.giant_fraction(c)


def test_giant_fixed_point_residual_and_bound():
    for c in (1.1, 1.5, 2.0, 3.0, 5.0, 10.0):
        alpha = 1.0 - exact.giant_fraction(c)
        assert abs(alpha - math.exp(-c * (1.0 - alpha))) <= 1e-10
        assert c * alpha < 1.0


def test_fluid_curve_values():
    for c in (0.5, 1.0, 2.0):
        assert exact.fluid_curve(c, 0.0) == 0.0
    alpha = 1.0 - exact.giant_fraction(2.0)
    t_star = 1.0 - alpha
    assert abs(exact.fluid_curve(2.0, t_star)) < 1e-9
    assert abs(exact.fluid_curve(2.0, t_star - 1e-7)
               - exact.fluid_curve(2.0, t_star + 1e-7)) < 1e-6
    assert exact.fluid_curve(1.0, 1.0) == pytest.approx(-0.5)


def test_dickman_values():
    assert exact.dickman_rho(0.7) == 1.0
    # criterion 13's clause: rho(2) = 1 - log 2
    assert exact.dickman_rho(2.0) == pytest.approx(1.0 - math.log(2.0), rel=1e-14)
    # independent quadrature: rho(3) = 1 - int_1^3 rho(t-1)/t dt with rho known
    # in closed form on [0, 2]
    part1, _ = integrate.quad(lambda t: 1.0 / t, 1.0, 2.0)
    part2, _ = integrate.quad(lambda t: (1.0 - math.log(t - 1.0)) / t, 2.0, 3.0,
                              points=[2.0])
    rho3 = 1.0 - part1 - part2
    assert abs(exact.dickman_rho(3.0) - rho3) < 1e-12
    assert exact.dickman_rho(3.0) == pytest.approx(0.0486083883, abs=1e-10)
    # the tabulated values of rho
    assert exact.dickman_rho(10.0) == pytest.approx(2.77017e-11, rel=1e-5)
    assert exact.dickman_rho(20.0) == pytest.approx(2.46178e-29, rel=1e-5)


def test_dickman_nonincreasing_and_integral_identity():
    xs = np.linspace(1.0, 10.0, 181)
    values = np.array([exact.dickman_rho(float(x)) for x in xs])
    assert np.all(np.diff(values) <= 1e-12)
    for y in (1.5, 2.5, 4.0, 7.5, 10.0):
        integral, _ = integrate.quad(
            lambda v: exact.dickman_rho(y - v), 0.0, 1.0, limit=200)
        assert abs(y * exact.dickman_rho(y) - integral) < 1e-6


def test_dickman_relative_accuracy_far_out():
    # the integral identity to relative accuracy where rho is tiny, and the
    # bound rho(x) <= 1 / Gamma(x + 1); the pieces meet at the integers
    for y in (12.5, 20.0, 33.3, 60.0):
        integral, _ = integrate.quad(lambda v: exact.dickman_rho(y - v), 0.0, 1.0,
                                     points=[y - math.floor(y)], epsabs=0.0,
                                     epsrel=1e-13, limit=200)
        assert y * exact.dickman_rho(y) == pytest.approx(integral, rel=1e-11)
    for x in np.linspace(1.0, 60.0, 237):
        assert 0.0 < exact.dickman_rho(float(x)) <= 1.0 / math.gamma(x + 1.0)
    for k in range(2, 61):
        below = exact.dickman_rho(float(np.nextafter(k, 0.0)))
        assert below == pytest.approx(exact.dickman_rho(float(k)), rel=1e-12)


def test_dickman_underflows_to_zero():
    values = [exact.dickman_rho(x) for x in (100.0, 120.0, 200.0, 1e9, 1e300)]
    assert 0.0 < values[0] < 1e-220
    assert values[1] < values[0]
    assert values[2:] == [0.0, 0.0, 0.0]


def test_ba_height_constant():
    c = exact.ba_height_constant()
    gamma_root = 1.0 / (2.0 * c)
    assert abs(gamma_root * math.exp(1.0 + gamma_root) - 1.0) < 1e-12
    assert 1.79 < c < 1.80
    a = 1.0 / gamma_root
    assert abs(a * math.log(a) - (a - 1.0) - 2.0) < 1e-9


def test_connectivity_limit():
    assert exact.connectivity_limit(0.0) == pytest.approx(math.exp(-1.0))
    assert 1.0 - exact.connectivity_limit(20.0) < 1e-8
    assert exact.connectivity_limit(-5.0) < 1e-9


# ---------------------------------------------------------------------------
# Finite-n height and leftover laws


def _cdf_from_heights(heights: np.ndarray, h_max: int) -> np.ndarray:
    return np.array([np.mean(heights <= h) for h in range(h_max + 1)])


def _depth_rows(parents: np.ndarray) -> np.ndarray:
    """Row-wise depths for parent arrays of vertices 1..n (vertex 0 the root)."""
    depth = np.zeros((parents.shape[0], parents.shape[1] + 1), dtype=np.int64)
    rows = np.arange(parents.shape[0])
    for i in range(1, depth.shape[1]):
        depth[:, i] = depth[rows, parents[:, i - 1]] + 1
    return depth


def _all_choices(ranges) -> np.ndarray:
    """Every tuple (c_1, ..., c_m) with 0 <= c_i < ranges[i], one per row."""
    if not ranges:
        return np.zeros((1, 0), dtype=np.int64)
    return np.indices(ranges).reshape(len(ranges), -1).T


def _ba_parents(picks: np.ndarray, n: int) -> np.ndarray:
    """growth.ba_chain's slot rule applied to every row of slot choices."""
    rows = np.arange(picks.shape[0])
    slots = np.zeros((picks.shape[0], 2 * n), dtype=np.int64)
    slots[:, 1] = 1
    parents = np.zeros((picks.shape[0], n), dtype=np.int64)  # vertex 1 -> 0
    for i in range(2, n + 1):
        chosen = slots[rows, picks[:, i - 2]]
        parents[:, i - 1] = chosen
        slots[:, 2 * i - 2] = chosen
        slots[:, 2 * i - 1] = i
    return parents


class _FixedIntegers:
    """Stands in for a stream: ``gen.integers`` returns preset draws."""

    def __init__(self, draws):
        self.gen = self
        self._draws = np.asarray(draws, dtype=np.int64)

    def integers(self, low, high, size=None):
        assert np.all(self._draws < high)
        return self._draws if size is None else self._draws.reshape(size)


def test_ba_slot_rule_matches_sampler():
    from randstruct import growth
    for n in range(2, 6):
        picks = _all_choices([2 * (i - 1) for i in range(2, n + 1)])
        parents = _ba_parents(picks, n)
        for row, pick in enumerate(picks):
            tree = growth.ba_chain(n, _FixedIntegers(pick))
            assert tree.parent[1:].tolist() == parents[row].tolist()


def exp_by_recurrence(a, m):
    """exp(a) mod z^m for a[0] = 0 by m g_m = sum_j j a_j g_(m-j)."""
    a = np.pad(a, (0, max(0, m - a.size)))
    g = np.zeros(m)
    g[0] = 1.0
    for k in range(1, m):
        g[k] = np.dot(np.arange(1, k + 1) * a[1: k + 1], g[k - 1:: -1]) / k
    return g


def scaled_exponent(rng, degree, mass):
    """a_0 = 0 and a_j uniform on +-1/j for j = 1..degree, scaled to
    sum |a_j| = mass."""
    a = np.zeros(degree + 1)
    a[1:] = rng.uniform(-1.0, 1.0, degree) / np.arange(1, degree + 1)
    return a * (mass / np.abs(a).sum())


@pytest.mark.parametrize("mass", [0.0, 1e-9, 1e-4, 3e-3, 0.05, 0.1, 0.2, 5.0])
@pytest.mark.parametrize("degree", [20, 299])
def test_series_exp_matches_recurrence(mass, degree):
    # the Taylor branch (mass <= 3e-3) and the Newton iteration against the
    # recurrence, with small and large exponents, shorter than the output and
    # as long as it
    m = 300
    a = scaled_exponent(np.random.default_rng(7), degree, mass)
    got = exact._series_exp(a, m, lambda s: False)
    assert got.size == m
    assert np.max(np.abs(got - exp_by_recurrence(a, m))) < 1e-12


def test_series_exp_branches_agree_at_the_crossover(monkeypatch):
    # the largest exponent mass that still takes the Taylor branch, with its
    # remainder bound just below 1e-16, against the Newton loop
    lo, hi = 1e-3, 1e-1
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if exact._taylor_terms(mid) <= exact._TAYLOR_MAX_TERMS \
            else (lo, mid)
    assert exact._taylor_terms(lo) == exact._TAYLOR_MAX_TERMS
    assert exact._taylor_terms(hi) == exact._TAYLOR_MAX_TERMS + 1
    assert exact._taylor_terms(0.0) == 2
    assert exact._taylor_terms(800.0) == exact._TAYLOR_MAX_TERMS + 1  # e^x overflows
    for m, degree in ((300, 299), (5000, 4999), (5000, 40)):
        a = scaled_exponent(np.random.default_rng(m + degree), degree, lo)
        taylor = exact._series_exp(a, m, lambda s: False)
        monkeypatch.setattr(exact, "_TAYLOR_MAX_TERMS", 1)  # Newton for every mass
        newton = exact._series_exp(a, m, lambda s: False)
        monkeypatch.undo()
        assert taylor.size == newton.size == m
        assert np.max(np.abs(taylor - newton)) < 1e-15


def test_series_exp_taylor_branch_stops_at_the_newton_precisions():
    # the branch returns the first doubling prefix that is done, as the loop
    a = scaled_exponent(np.random.default_rng(3), 99, 1e-3)
    for limit in (1, 2, 5, 64, 100):
        got = exact._series_exp(a, 100, lambda s: s.size >= limit)
        assert got.size == min(100, 1 << (limit - 1).bit_length())
        assert np.array_equal(got, exact._series_exp(a, 100, lambda s: False)[: got.size])


@settings(max_examples=60, deadline=None)
@given(log_mass=st.floats(math.log(1e-12), 0.0), degree=st.integers(1, 199),
       m=st.integers(1, 200), seed=st.integers(0, 2 ** 32 - 1))
def test_series_exp_matches_recurrence_on_random_exponents(log_mass, degree, m, seed):
    # sum |a_j| log-uniform on [1e-12, 1] covers both sides of the branch
    a = scaled_exponent(np.random.default_rng(seed), degree, math.exp(log_mass))
    got = exact._series_exp(a, m, lambda s: False)
    assert got.size == m
    assert np.max(np.abs(got - exp_by_recurrence(a, m))) < 1e-13


@pytest.mark.parametrize("mass", [0.05, 0.1, 0.2, 0.9])
@pytest.mark.parametrize("degree", [20, 299])
def test_series_inverse_matches_recurrence(mass, degree):
    # the Newton iteration against the recurrence v_m = -sum_j g_j v_(m-j)
    # for v = 1/g, with g shorter than the output and as long as it
    m = 300
    rng = np.random.default_rng(8)
    g = np.zeros(degree + 1)
    g[0] = 1.0
    g[1:] = rng.uniform(-1.0, 1.0, degree) / np.arange(1, degree + 1)
    g[1:] *= mass / np.abs(g[1:]).sum()
    padded = np.pad(g, (0, m - g.size))
    v = np.zeros(m)
    v[0] = 1.0
    for k in range(1, m):
        v[k] = -np.dot(padded[1: k + 1], v[k - 1:: -1])
    got = exact._series_inverse(g, m, lambda s: False)
    assert np.max(np.abs(got - v)) < 1e-12


def test_rrt_height_cdf_matches_enumeration():
    # every increasing tree on n + 1 vertices is equally likely
    for n in range(0, 9):
        parents = _all_choices(list(range(1, n + 1)))
        heights = _depth_rows(parents).max(axis=1)
        assert np.allclose(exact.rrt_height_cdf(n, n + 2),
                           _cdf_from_heights(heights, n + 2), rtol=0, atol=1e-12)


def test_ba_height_cdf_matches_enumeration():
    # every slot choice of ba_chain is equally likely
    for n in range(1, 9):
        picks = _all_choices([2 * (i - 1) for i in range(2, n + 1)])
        heights = _depth_rows(_ba_parents(picks, n)).max(axis=1)
        assert np.allclose(exact.ba_height_cdf(n, n + 2),
                           _cdf_from_heights(heights, n + 2), rtol=0, atol=1e-12)


def _rrt_height_cdf_fraction(n: int) -> list[Fraction]:
    # P_0(k) = [k = 1]; m g_m = sum_j P_(h-1)(j) g_(m-j), P_h(m + 1) = g_m
    size = n + 1
    p = [Fraction(0), Fraction(1)] + [Fraction(0)] * (size - 1)  # index k
    cdf = [p[size]]
    for _ in range(n):
        g = [Fraction(1)]
        for m in range(1, size):
            g.append(sum(p[j] * g[m - j] for j in range(1, m + 1)) / m)
        p = [Fraction(0)] + g
        cdf.append(p[size])
    return cdf


def _ba_height_cdf_fraction(n: int) -> list[Fraction]:
    # G_h = 1 / (1 - sum_k Q_(h-1)(k) e_k z^k), e_k = d_k / (2k), and
    # P(H <= h) = [z^(N-2)] G_h G_(h-1) with N = n + 1 vertices
    size = n + 1
    d = [Fraction(math.comb(2 * k - 2, k - 1), 4 ** (k - 1)) for k in range(1, size)]
    e = [dk / (2 * k) for k, dk in enumerate(d, start=1)]
    g_prev = [Fraction(1)] + [Fraction(0)] * (size - 2)
    cdf = [Fraction(0)]
    for _ in range(n):
        a = [Fraction(0)] + [g_prev[k - 1] / d[k - 1] * e[k - 1]
                             for k in range(1, size - 1)]
        g = [Fraction(1)]
        for m in range(1, size - 1):
            g.append(sum(a[j] * g[m - j] for j in range(1, m + 1)))
        cdf.append(sum(g[i] * g_prev[size - 2 - i] for i in range(size - 1)))
        g_prev = g
    return cdf


@pytest.mark.parametrize("n", [10, 33, 60])
def test_height_cdfs_match_rational_recurrences(n):
    # the FFT Newton iterations against the same recurrences in exact rationals
    for oracle, rational in ((exact.rrt_height_cdf, _rrt_height_cdf_fraction),
                             (exact.ba_height_cdf, _ba_height_cdf_fraction)):
        expected = [float(x) for x in rational(n)]
        assert expected[-1] == 1.0
        got = oracle(n, len(expected) - 1)
        assert np.max(np.abs(got - expected)) < 1e-9


def test_height_cdfs_at_one_million():
    n = 1_000_000
    for cdf, norm, mean, band in (
            (exact.rrt_height_cdf(n, 80), math.e, 31.45, 0.443),
            (exact.ba_height_cdf(n, 80), exact.ba_height_constant(), 21.30, 0.400)):
        pmf = np.diff(cdf, prepend=0.0)
        levels = np.arange(pmf.size)
        ratio = levels / (norm * math.log(n))
        assert cdf[-1] == 1.0 and np.all(pmf >= 0.0)
        assert abs(levels @ pmf - mean) < 0.01
        assert abs(pmf[(ratio >= 0.85) & (ratio <= 1.15)].sum() - band) < 1e-3


def _pills_law_fraction(n: int) -> dict[int, Fraction]:
    # the (whole, half) chain: a uniform pill is drawn; a whole one is halved,
    # a half one eaten; L is the half count when the last whole one goes
    law: dict[tuple[int, int], Fraction] = {(n, 0): Fraction(1)}
    out: dict[int, Fraction] = {}
    for total in range(n, 0, -1):  # whole + half only ever decreases
        for whole in range(n, 0, -1):
            half = total - whole
            p = law.pop((whole, half), None)
            if p is None or half < 0:
                continue
            step = Fraction(whole, total)
            if whole == 1:
                out[half + 1] = out.get(half + 1, Fraction(0)) + p * step
            else:
                key = (whole - 1, half + 1)
                law[key] = law.get(key, Fraction(0)) + p * step
            if half:
                key = (whole, half - 1)
                law[key] = law.get(key, Fraction(0)) + p * (1 - step)
    assert not law
    return out


def test_pills_pmf_matches_chain():
    for n in (1, 2, 3, 7, 20):
        law = _pills_law_fraction(n)
        pmf = exact.pills_pmf(n)
        assert pmf.size == n + 1
        expected = np.array([float(law.get(k, 0)) for k in range(n + 1)])
        assert np.max(np.abs(pmf - expected)) < 1e-12


def test_pills_mean_is_harmonic():
    for n in (5, 1_000, 100_000, 1_000_000):
        pmf = exact.pills_pmf(n)
        harmonic = math.fsum(1.0 / k for k in range(1, n + 1))
        assert abs(np.arange(pmf.size) @ pmf - harmonic) < 1e-9
        assert abs(pmf.sum() - 1.0) < 1e-10
        assert abs(exact.pills_mean(n) - harmonic) < 1e-9


def test_pills_distance_to_exponential_limit():
    distances = [exact.pills_limit_distance(10 ** e) for e in range(3, 7)]
    assert all(a > b for a, b in zip(distances, distances[1:]))
    assert abs(distances[2] - 0.0936) < 1e-3


# ---------------------------------------------------------------------------
# Offspring laws


def test_offspring_validation():
    with pytest.raises(InvalidParameterError):
        OffspringLaw.from_pmf({1: 1.0})  # concentrated on {1}
    with pytest.raises(InvalidParameterError):
        OffspringLaw.from_pmf({0: 0.4, 1: 0.4})  # mass 0.8
    for mean in (-1.0, math.nan, math.inf, 1e19):  # numpy draws means to ~9.2e18
        with pytest.raises(InvalidParameterError):
            OffspringLaw.poisson(mean)


def test_offspring_probability():
    law = OffspringLaw.from_pmf({0: Fraction(1, 2), 2: Fraction(1, 2)})
    assert law.probability(2) == 0.5 and law.probability(1) == 0.0
    poisson = OffspringLaw.poisson(2.0)
    assert poisson.probability(3) == pytest.approx(math.exp(-2) * 8 / 6)
    geom = OffspringLaw.geometric(0.5)
    assert geom.probability(2) == pytest.approx(1 / 8)
    binom = OffspringLaw.binomial(2, 0.75)
    assert binom.probability(1) == pytest.approx(2 * 0.75 * 0.25)


# scipy.stats is the reference here only: the package never imports it
K = np.arange(-3, 400)


@pytest.mark.parametrize("mu", [0.0, 1e-300, 1e-8, 0.5, 1.0, 2.25, 10.0, 1e3, 1e6])
def test_poisson_probability_is_scipys_pmf(mu):
    law = OffspringLaw.poisson(mu)
    assert np.array_equal(law.probability(K), sps.poisson.pmf(K, mu))
    assert np.array_equal(law.probability(K[:, None] + K[:3]),
                          sps.poisson.pmf(K[:, None] + K[:3], mu))
    for k in (-2, -1, 0, 3):
        assert law.probability(k) == float(sps.poisson.pmf(k, mu))
    assert np.all(law.probability(K[K < 0]) == 0.0)
    if mu == 0.0:
        assert law.probability(0) == 1.0 and law.probability(1) == 0.0


@pytest.mark.parametrize("p", [1e-6, 0.1, 0.5, 0.75, 1.0])
def test_geometric_probability_is_scipys_pmf(p):
    law = OffspringLaw.geometric(p)
    assert np.array_equal(law.probability(K), sps.geom.pmf(K + 1, p))
    for k in (-2, -1, 0, 3):
        assert law.probability(k) == float(sps.geom.pmf(k + 1, p))
    assert np.all(law.probability(K[K < 0]) == 0.0)
    if p == 1.0:
        assert law.probability(0) == 1.0 and law.probability(1) == 0.0


@pytest.mark.parametrize("d", [0, 1, 2, 5, 8, 30, 100, 350])
@pytest.mark.parametrize("p", [0.0, 0.25, 0.4, 0.5, 0.75, 1.0])
def test_binomial_probability_matches_scipys_pmf(d, p):
    law = OffspringLaw.binomial(d, p)
    got = law.probability(K)
    np.testing.assert_allclose(got, sps.binom.pmf(K, d, p), rtol=1e-10, atol=0.0)
    assert np.all(got[(K < 0) | (K > d)] == 0.0)
    assert law.probability(d + 1) == 0.0 and law.probability(-1) == 0.0
