import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps
from stats_helpers import chi_square_two_sample, pmf_callback, ref_chi_square_gof

from randstruct import rng as R, stats as stats_module
from randstruct.errors import InvalidParameterError, InvalidTestError
from randstruct.exact import OffspringLaw
from randstruct.stats import chi_square_counts, chi_square_gof, ks_test, mean_ci


def test_chi_square_exact_multiples_pass():
    report = chi_square_gof(np.repeat(np.arange(3), [500, 300, 200]), [0.5, 0.3, 0.2])
    assert report.passed and report.statistic < 1e-9


DIE = [0.0] + [1 / 6] * 6


def test_chi_square_fair_die_zero_statistic():
    report = chi_square_gof(np.repeat(np.arange(1, 7), 1000), DIE)
    assert report.statistic == 0.0 and report.passed


def test_chi_square_loaded_die_statistic_1500():
    samples = np.repeat(np.arange(1, 7), [2000, 1000, 1000, 1000, 500, 500])
    report = chi_square_gof(samples, DIE, alpha_level=1e-6)
    assert report.statistic == pytest.approx(1500.0)
    assert not report.passed


def test_chi_square_merges_right_tail():
    # geometric-ish tail cells with tiny expectation must be pooled
    rng = R.make_stream(11, 0)
    x = OffspringLaw.poisson(2.0).sample(rng, size=20_000)
    pmf = [math.exp(-2.0 + k * math.log(2.0) - math.lgamma(k + 1))
           for k in range(x.max() + 1)]
    report = chi_square_gof(x, pmf)
    assert report.passed
    assert report.df < np.unique(x).size  # merging happened


def test_chi_square_pools_mass_below_the_sample_minimum_on_the_left():
    # the sample misses 0 and 4: the mass of 0 joins cell 1 and that of 4
    # joins cell 3, each expecting 3, so every cell matches exactly
    samples = np.repeat(np.arange(1, 4), [300, 400, 300])
    report = chi_square_gof(samples, [0.003, 0.297, 0.4, 0.297, 0.003])
    assert report.df == 2 and report.statistic < 1e-12
    # a missed minimum expecting >= 5 is a cell of its own with 0 observed
    report = chi_square_gof(samples, [0.01, 0.29, 0.4, 0.3])
    assert report.df == 3
    assert report.statistic == pytest.approx(10.0 + 10.0 ** 2 / 290.0)


def test_chi_square_puts_the_mass_under_a_gap_in_the_left_end_cell():
    # pmf[1] = 0 below the sample minimum 2: the mass of 0 still forms the
    # left-end cell, expecting 4, which joins cell 2 (508 + 4 = 512 observed)
    samples = np.repeat([2, 3], [512, 512])
    report = chi_square_gof(samples, [1 / 256, 0.0, 127 / 256, 1 / 2])
    assert (report.statistic, report.df, report.sample_size) == (0.0, 1, 1024)


def test_chi_square_far_from_zero_takes_the_whole_lower_tail(monkeypatch):
    # Poisson(10^4) counts against the full array: the left-end cell is the
    # whole mass below the sample minimum, P(X <= lo - 1)
    lam = 1e4
    x = np.random.default_rng(3).poisson(lam, size=2_000)
    cells = []

    def spy(observed, expected):
        cells.append(expected[0] / x.size)
        return merge(observed, expected)

    merge = stats_module._merge_right_tail
    monkeypatch.setattr(stats_module, "_merge_right_tail", spy)
    report = chi_square_gof(x, sps.poisson.pmf(np.arange(x.max() + 1), lam))
    assert report.passed
    assert cells == [pytest.approx(sps.poisson.cdf(x.min() - 1, lam), rel=1e-9)]


def test_chi_square_callers_keep_their_statistics(monkeypatch):
    # every chi-square call of criteria 04, 10, 14 and 17, and the height
    # clauses on samples that miss the bottom of the support, give the report
    # of the one-value callback reference
    from randstruct import exact, verify
    calls = []

    def both(samples, pmf, alpha_level=0.01):
        got = chi_square_gof(samples, pmf, alpha_level)
        assert got == ref_chi_square_gof(samples, pmf_callback(pmf), alpha_level)
        calls.append(got)
        return got

    monkeypatch.setattr(verify, "chi_square_gof", both)
    for criterion in (verify.criterion_04_borel_tanner, verify.criterion_10_triangles,
                      verify.criterion_14_rrt, verify.criterion_17_yule_classics):
        criterion("fast", verify.MASTER_SEED)
    assert len(calls) == 5
    n = 2_000
    for cdf in (exact.rrt_height_cdf(n, 40), exact.ba_height_cdf(n, 40)):
        heights = np.random.default_rng(5).choice(
            cdf.size, size=300, p=np.diff(cdf, prepend=0.0))
        assert heights.min() > 0
        verify._height_clauses(verify._Check(), "height", heights, cdf,
                               math.log(n), (0.5, 5.0))
    assert len(calls) == 7


@st.composite
def _pmf_and_samples(draw):
    """A sample drawn from a pmf array, which its floor may lift off the
    bottom of the support, and that array with mass left past its end and
    cells at or above the sample minimum zeroed, so no zero mass lies below
    the minimum."""
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=30))
    pmf = np.array(weights) / sum(weights)
    lo = draw(st.integers(0, pmf.size - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    samples = np.maximum(rng.choice(pmf.size, size=draw(st.integers(20, 3000)), p=pmf), lo)
    zeros = [i for i in draw(st.lists(st.integers(0, pmf.size - 1), max_size=3))
             if i >= samples.min()]
    pmf[zeros] = 0.0
    return pmf * draw(st.sampled_from([1.0, 0.97])), samples


@settings(max_examples=300, deadline=None)
@given(_pmf_and_samples(), st.sampled_from([0.01, 0.05]))
def test_chi_square_gof_matches_the_callback_reference(case, alpha_level):
    pmf, samples = case
    try:
        want = ref_chi_square_gof(samples, pmf_callback(pmf), alpha_level)
    except InvalidTestError:
        with pytest.raises(InvalidTestError):
            chi_square_gof(samples, pmf, alpha_level)
        return
    got = chi_square_gof(samples, pmf, alpha_level)
    assert (got.df, got.threshold, got.passed, got.sample_size) == \
        (want.df, want.threshold, want.passed, want.sample_size)
    assert got.statistic == pytest.approx(want.statistic, rel=1e-9)


def test_chi_square_gof_rejects_bad_samples_and_pmfs():
    for samples in ([0.0, 1.0, 2.0], [1, -1, 2], np.array([0.5])):
        with pytest.raises(InvalidParameterError):
            chi_square_gof(samples, [0.5, 0.5])
    with pytest.raises(InvalidParameterError):
        chi_square_gof([0, 1, 1], [0.6, 0.6, -0.2])
    with pytest.raises(InvalidTestError):
        chi_square_gof(np.array([], dtype=np.int64), [0.5, 0.5])


def test_chi_square_single_cell_invalid():
    with pytest.raises(InvalidTestError):
        chi_square_gof(np.zeros(100, dtype=np.int64), [1.0])


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


def test_chi_square_counts_merges_the_pool_into_the_last_big_cell():
    # [1/6] * 6 sums to 1 - 1.1e-16: the residual cell of ~1e-11 must join
    # the sixth cell, not overwrite the fifth with it
    observed = [100, 120, 90, 110, 95, 105]
    report = chi_square_counts(observed, [1 / 6] * 6)
    assert report.statistic == pytest.approx(5.645, abs=1e-3)
    assert report.statistic == pytest.approx(sps.chisquare(observed).statistic, rel=1e-9)
    assert report.df == 5
    # a bias in the second-to-last cell stays visible
    observed = [10_000] * 4 + [10_300, 10_000]
    report = chi_square_counts(observed, [1 / 6] * 6)
    assert report.statistic == pytest.approx(7.46, abs=5e-3)
    assert report.statistic == pytest.approx(sps.chisquare(observed).statistic, rel=1e-9)


def _ref_chi_square_counts(observed, probs, alpha_level):
    """chi_square_counts written apart: each cell is labelled with the cell it
    lands in, and scipy.stats.chisquare tests the label sums."""
    observed, probs = np.asarray(observed, float), np.asarray(probs, float)
    total = observed.sum()
    expected = total * probs
    residual = total * max(0.0, 1.0 - probs.sum())
    big = expected >= 5.0
    labels = np.where(big, np.cumsum(big) - 1, big.sum())  # the pool comes last
    pool_e = expected[~big].sum() + residual
    cells = big.sum() + (pool_e > 0.0)
    if cells >= 2 and pool_e < 5.0 and pool_e > 0.0:
        labels[~big] = big.sum() - 1
        cells -= 1
    obs = np.bincount(labels, weights=observed, minlength=cells)[:cells]
    exp = np.bincount(labels, weights=expected, minlength=cells)[:cells]
    exp[-1] += residual
    if cells < 2 or np.any(exp < 5.0):
        raise InvalidTestError("no valid pooling")
    statistic = float(sps.chisquare(obs, exp).statistic)
    return statistic, cells - 1, float(sps.chi2.ppf(1.0 - alpha_level, cells - 1))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 300), st.floats(1e-4, 1.0)),
                min_size=1, max_size=12),
       st.sampled_from([1.0, 0.999, 0.97]), st.sampled_from([0.01, 0.05]))
def test_chi_square_counts_matches_pooling_then_scipy(cells, scale, alpha_level):
    observed = [o for o, _ in cells]
    weights = np.array([w for _, w in cells])
    probs = weights / weights.sum() * scale
    if sum(observed) == 0:
        return
    try:
        statistic, df, threshold = _ref_chi_square_counts(observed, probs, alpha_level)
    except InvalidTestError:
        with pytest.raises(InvalidTestError):
            chi_square_counts(observed, probs, alpha_level)
        return
    got = chi_square_counts(observed, probs, alpha_level)
    assert (got.df, got.threshold, got.sample_size) == (df, threshold, sum(observed))
    assert got.statistic == pytest.approx(statistic, rel=1e-9, abs=1e-12)
    assert got.passed == (got.statistic <= threshold)


def test_chi_square_threshold_is_scipys_chi2_ppf():
    df = np.arange(1, 400)
    for alpha_level in (1e-6, 1e-3, 0.01, 0.05, 0.1):
        got = [stats_module._chi2_threshold(alpha_level, int(d)) for d in df]
        assert np.array_equal(got, sps.chi2.ppf(1.0 - alpha_level, df))


def test_mean_ci_z_is_scipys_norm_ppf():
    x = np.array([0.25, 1.5, 2.0, 7.75, 3.0])
    s, root = float(x.std(ddof=1)), float(np.sqrt(x.size))
    levels = [0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1 - 1e-9]
    got = [mean_ci(x, level)[1] for level in levels]
    want = [float(sps.norm.ppf(0.5 + level / 2.0)) * s / root for level in levels]
    assert np.array_equal(got, want)


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
    # a sample past the pmf's end, or in a cell of probability 0
    for counts in ([100, 100, 60], [100, 100, 1]):
        report = chi_square_gof(np.repeat(np.arange(3), counts), [0.5, 0.5])
        assert not report.passed and report.statistic == np.inf
    report = chi_square_gof(np.repeat([0, 1, 2], [100, 1, 100]), [0.5, 0.0, 0.5])
    assert not report.passed and report.statistic == np.inf
    assert chi_square_gof(np.repeat(np.arange(2), 100), [0.5, 0.5]).passed


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
