import math

import numpy as np
import pytest
from stats_helpers import chi_square_two_sample

from randstruct import rng as R, stats as stats_module
from randstruct.errors import InvalidParameterError, InvalidTestError
from randstruct.exact import OffspringLaw
from randstruct.stats import (EmpiricalDist, chi_square_counts, chi_square_gof,
                              ks_test, mean_ci)


def test_chi_square_exact_multiples_pass():
    pmf = {0: 0.5, 1: 0.3, 2: 0.2}
    emp = EmpiricalDist(np.arange(3), np.array([500, 300, 200]), 1000)
    report = chi_square_gof(emp, lambda v: pmf[int(v)])
    assert report.passed and report.statistic < 1e-9


def test_chi_square_fair_die_zero_statistic():
    emp = EmpiricalDist(np.arange(1, 7), np.full(6, 1000), 6000)
    report = chi_square_gof(emp, lambda v: 1 / 6 if 1 <= v <= 6 else 0.0)
    assert report.statistic == 0.0 and report.passed


def test_chi_square_loaded_die_statistic_1500():
    emp = EmpiricalDist(np.arange(1, 7),
                        np.array([2000, 1000, 1000, 1000, 500, 500]), 6000)
    report = chi_square_gof(emp, lambda v: 1 / 6 if 1 <= v <= 6 else 0.0,
                            alpha_level=1e-6)
    assert report.statistic == pytest.approx(1500.0)
    assert not report.passed


def test_chi_square_merges_right_tail():
    # geometric-ish tail cells with tiny expectation must be pooled
    rng = R.make_stream(11, 0)
    x = OffspringLaw.poisson(2.0).sample(rng, size=20_000)
    emp = EmpiricalDist.from_samples(x)
    report = chi_square_gof(
        emp, lambda k: math.exp(-2.0 + k * math.log(2.0) - math.lgamma(k + 1)))
    assert report.passed
    assert report.df < emp.values.size  # merging happened


def test_chi_square_pools_mass_below_the_sample_minimum_on_the_left():
    # the sample misses 0 and 4: the mass of 0 joins cell 1 and that of 4
    # joins cell 3, each expecting 3, so every cell matches exactly
    pmf = {0: 0.003, 1: 0.297, 2: 0.4, 3: 0.297, 4: 0.003}
    emp = EmpiricalDist(np.arange(1, 4), np.array([300, 400, 300]), 1000)
    report = chi_square_gof(emp, lambda k: pmf.get(int(k), 0.0))
    assert report.df == 2 and report.statistic < 1e-12
    # a missed minimum expecting >= 5 is a cell of its own with 0 observed
    pmf = {0: 0.01, 1: 0.29, 2: 0.4, 3: 0.3}
    report = chi_square_gof(emp, lambda k: pmf.get(int(k), 0.0))
    assert report.df == 3
    assert report.statistic == pytest.approx(10.0 + 10.0 ** 2 / 290.0)


def test_chi_square_far_from_zero_sums_only_the_near_lower_tail():
    # Poisson(10^7) counts: the left-end cell must not cost a pmf call per
    # integer below the sample minimum
    lam = 1e7
    x = np.random.default_rng(3).poisson(lam, size=2_000)
    calls = []

    def pmf(k):
        calls.append(k)
        return math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))

    report = chi_square_gof(EmpiricalDist.from_samples(x), pmf)
    assert report.passed
    below = sum(1 for k in calls if k < x.min())
    assert below <= 10 * math.sqrt(lam)  # the tail is negligible ~7 sd down


def ref_chi_square_gof(emp, pmf, alpha_level=0.01):
    """chi_square_gof before the left-end cell: all mass outside the observed
    range went into one cell at the right end."""
    values = emp.values
    if np.issubdtype(values.dtype, np.integer):
        lo, hi = int(values.min()), int(values.max())
        grid = np.arange(lo, hi + 1)
        observed = np.zeros(grid.size, dtype=float)
        observed[values - lo] = emp.counts
    else:
        grid = values
        observed = emp.counts.astype(float)
    probs = np.array([float(pmf(v)) for v in grid])
    expected = emp.total * probs
    residual = emp.total * max(0.0, 1.0 - probs.sum())
    if residual > 1e-9:
        observed = np.append(observed, 0.0)
        expected = np.append(expected, residual)
    obs, exp = stats_module._merge_right_tail(observed, expected)
    return stats_module._pearson_report(obs, exp, alpha_level, emp.total)


def test_chi_square_callers_keep_their_statistics(monkeypatch):
    # criteria 04, 10, 14 and 17 observe their support minimum, so the
    # left-end cell leaves them unchanged; the height clauses pass only the
    # observed heights, and the left-end cell gives them the statistic of the
    # full grid of levels they passed before, up to rounding
    from randstruct import exact, verify
    calls = []

    def both(emp, pmf, alpha_level=0.01):
        got = chi_square_gof(emp, pmf, alpha_level)
        assert got == ref_chi_square_gof(emp, pmf, alpha_level)
        calls.append(got)
        return got

    def as_full_grid(emp, pmf, alpha_level=0.01):
        got = chi_square_gof(emp, pmf, alpha_level)
        counts = np.bincount(np.repeat(emp.values, emp.counts), minlength=40)
        grid = chi_square_gof(EmpiricalDist(np.arange(40), counts, emp.total), pmf,
                              alpha_level)
        assert counts.size == 40 and emp.values.min() > 0
        assert (got.df, got.threshold, got.passed) == (grid.df, grid.threshold, grid.passed)
        assert got.statistic == pytest.approx(grid.statistic, rel=1e-12)
        calls.append(got)
        return got

    monkeypatch.setattr(verify, "chi_square_gof", both)
    for criterion in (verify.criterion_04_borel_tanner, verify.criterion_10_triangles,
                      verify.criterion_14_rrt, verify.criterion_17_yule_classics):
        criterion("fast", verify.MASTER_SEED)
    monkeypatch.setattr(verify, "chi_square_gof", as_full_grid)
    n = 2_000
    for cdf in (exact.rrt_height_cdf(n, 40), exact.ba_height_cdf(n, 40)):
        heights = np.random.default_rng(5).choice(
            cdf.size, size=300, p=np.diff(cdf, prepend=0.0))
        verify._height_clauses(verify._Check(), "height", heights, cdf,
                               math.log(n), (0.5, 5.0))
    assert len(calls) == 7


def test_chi_square_single_cell_invalid():
    emp = EmpiricalDist(np.array([0]), np.array([100]), 100)
    with pytest.raises(InvalidTestError):
        chi_square_gof(emp, lambda v: 1.0)


def test_chi_square_two_sample_same_law_passes():
    rng = R.make_stream(11, 1)
    law = OffspringLaw.binomial(8, 0.4)
    a = np.bincount(law.sample(rng, size=50_000), minlength=9)
    b = np.bincount(law.sample(rng, size=50_000), minlength=9)
    assert chi_square_two_sample(a, b).passed


def test_chi_square_two_sample_detects_difference():
    rng = R.make_stream(11, 2)
    a = np.bincount(OffspringLaw.binomial(8, 0.4).sample(rng, size=50_000),
                    minlength=9)
    b = np.bincount(OffspringLaw.binomial(8, 0.5).sample(rng, size=50_000),
                    minlength=9)
    assert not chi_square_two_sample(a, b).passed


def test_chi_square_counts_pools_sparse_cells():
    report = chi_square_counts([800, 150, 40, 7, 2, 1],
                               [0.8, 0.15, 0.04, 0.007, 0.002, 0.001])
    assert report.passed


def test_chi_square_counts_rejects_an_impossible_cell():
    # more observed cells than probabilities: the extra cells have probability 0
    report = chi_square_counts([100, 100, 60], [0.5, 0.5])
    assert not report.passed and report.statistic == np.inf
    assert (report.df, report.sample_size) == (1, 260)
    # one observation in a cell of probability 0 is enough, however small
    assert not chi_square_counts([100, 100, 1], [0.5, 0.5, 0.0]).passed
    assert not chi_square_counts([5000, 1], [1.0]).passed
    # probabilities past the observed cells count as 0 observations
    assert chi_square_counts([100, 100], [0.5, 0.5, 0.0]).passed
    assert chi_square_counts([100, 100, 0], [0.5, 0.5]).passed


def test_chi_square_gof_rejects_an_impossible_cell():
    def pmf(k):
        return 0.5 if k < 2 else 0.0
    for counts in ([100, 100, 60], [100, 100, 1]):
        emp = EmpiricalDist(np.array([0, 1, 2]), np.array(counts), sum(counts))
        report = chi_square_gof(emp, pmf)
        assert not report.passed and report.statistic == np.inf
    emp = EmpiricalDist(np.array([0, 1]), np.array([100, 100]), 200)
    assert chi_square_gof(emp, pmf).passed


def test_ks_quantile_samples_pass():
    n = 1000
    samples = -np.log(1.0 - (np.arange(1, n + 1) - 0.5) / n)  # exp(1) quantiles
    report = ks_test(samples, lambda x: 1.0 - np.exp(-x))
    assert report.statistic <= 0.5 / n + 1e-12
    assert report.passed


def test_ks_null_passes():
    rng = R.make_stream(12, 0)
    x = np.sort(rng.gen.exponential(1.0, size=10_000))
    assert ks_test(x, lambda v: 1.0 - np.exp(-v), alpha_level=0.01).passed


def test_ks_wrong_law_fails():
    rng = R.make_stream(12, 1)
    x = np.sort(rng.gen.exponential(1.0, size=10_000))
    gumbel_cdf = lambda v: np.exp(-np.exp(-v))  # noqa: E731
    report = ks_test(x, gumbel_cdf, alpha_level=0.01)
    assert not report.passed
    assert report.statistic > abs(0.0 - math.exp(-1.0)) - 0.02


def test_ks_needs_fifty_samples():
    with pytest.raises(InvalidTestError):
        ks_test(np.arange(10.0), lambda x: x)


def test_mean_ci_constant():
    assert mean_ci([3.5] * 10) == (3.5, 0.0)


def test_mean_ci_bernoulli_half_width():
    samples = np.concatenate([np.zeros(500_000), np.ones(500_000)])
    mean, hw = mean_ci(samples, level=0.95)
    assert mean == pytest.approx(0.5)
    assert hw == pytest.approx(1.96 * 0.5 / 1000, rel=1e-3)


def test_mean_ci_coverage():
    covered = 0
    reps = 300
    for i in range(reps):
        x = R.make_stream(13, i).gen.random(2_000)
        mean, hw = mean_ci(x, level=0.95)
        covered += abs(mean - 0.5) <= hw
    # coverage should be near 95%; allow 3 sigma of Binomial(reps, 0.95)
    assert covered / reps >= 0.95 - 3 * math.sqrt(0.95 * 0.05 / reps)


def test_mean_ci_needs_two_samples():
    with pytest.raises(InvalidTestError):
        mean_ci([1.0])


def test_mean_ci_bad_level():
    with pytest.raises(InvalidParameterError):
        mean_ci([1.0, 2.0], level=1.5)
