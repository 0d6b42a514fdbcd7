import math
import tracemalloc

import numpy as np
import pytest
from stats_helpers import chi_square_two_sample

from randstruct import exact, permutations as perms, rng as rng_module
from randstruct.errors import FormatError, InvalidParameterError
from randstruct.permutations import Permutation
from randstruct.rng import make_stream
from randstruct.stats import chi_square_counts, chi_square_gof, ks_test, mean_ci


def test_sample_identity_for_n_one():
    assert perms.sample_perm(1, make_stream(3, 0)).images.tolist() == [1]


def test_sample_perm_uniform_n3():
    rng = make_stream(3, 1)
    reps = 600_000
    base = np.tile(np.arange(1, 4), (reps, 1))
    shuffled = rng.gen.permuted(base, axis=1)
    codes = shuffled[:, 0] * 10 + shuffled[:, 1]
    counts = np.unique(codes, return_counts=True)[1]
    assert counts.size == 6
    assert chi_square_counts(counts, [1 / 6] * 6, alpha_level=0.01).passed


def test_fixed_point_mean_is_one():
    rng = make_stream(3, 2)
    reps = 100_000
    base = np.tile(np.arange(1, 5), (reps, 1))
    shuffled = rng.gen.permuted(base, axis=1)
    fixed = (shuffled == np.arange(1, 5)).sum(axis=1).astype(float)
    se = fixed.std(ddof=1) / math.sqrt(reps)
    assert abs(fixed.mean() - 1.0) < 3 * se


def ref_cycle_counts(images):
    """counts[i-1] = cycles of length i, by index chasing with a seen bitmap."""
    n = len(images)
    seen = [False] * (n + 1)
    counts = [0] * n
    for start in range(1, n + 1):
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            length += 1
            v = int(images[v - 1])
        if length:
            counts[length - 1] += 1
    return counts


def test_cycle_type_batch_matches_cycles_of_across_row_blocks():
    # n = 6 rows go in blocks of 21,845, so 45,000 rows span three blocks
    rng = make_stream(3, 22)
    batch = rng.gen.permuted(np.tile(np.arange(1, 7), (45_000, 1)), axis=1)
    want = np.array([ref_cycle_counts(row) for row in batch])
    # min-ranked cycles (1 2 3), (4 5), (6)
    known = np.array([[2, 3, 1, 5, 4, 6]])
    assert ref_cycle_counts(known[0]) == [1, 1, 1, 0, 0, 0]
    assert perms.cycle_type_batch(known).tolist() == [[1, 1, 1, 0, 0, 0]]
    assert np.array_equal(perms.cycle_type_batch(batch), want)


def test_feller_single_point():
    _, lengths = next(perms.feller_spacings(1, 1, make_stream(3, 4)))
    assert tuple(lengths.tolist()) == (1,)


def _spacings(n, reps, rng):
    blocks = list(perms.feller_spacings(n, reps, rng))
    return (np.concatenate([rows for rows, _ in blocks]),
            np.concatenate([lengths for _, lengths in blocks]))


def ref_bernoulli_spacings(n, reps, rng):
    """The Feller coupling run trial by trial: trial j = 0..n-1 succeeds with
    probability 1/(n - j), and the cycles are the spacings of the successes."""
    rows, cols = np.nonzero(rng.gen.random((reps, n)) < 1.0 / np.arange(n, 0, -1))
    ends = cols + 1
    return rows, ends - np.concatenate([[0], ends[:-1] % n])


def _composition_codes(n, reps, rows, lengths):
    """Each row's ordered cycle lengths as the bit set of its partial sums."""
    ends = np.cumsum(lengths) - n * rows
    return np.bincount(rows, weights=np.exp2(ends - 1), minlength=reps).astype(np.int64)


def test_feller_first_cycle_uniform():
    n = 20
    reps = 100_000
    rows, lengths = _spacings(n, reps, make_stream(3, 5))
    firsts = lengths[np.concatenate([[True], np.diff(rows) != 0])]
    assert firsts.size == reps
    assert chi_square_gof(firsts, [0.0] + [1 / n] * n, alpha_level=0.01).passed


def test_feller_joint_law_matches_cauchy():
    n = 6
    reps = 1_000_000
    rng = make_stream(3, 6)
    from randstruct.verify import _cycle_type_cells, _partition_keys
    keys = _partition_keys(n)
    observed = _cycle_type_cells(perms.small_cycle_counts(n, n, reps, rng), keys)
    probs = [float(exact.cauchy_cycle_type_pmf(key)) for key in keys]
    report = chi_square_counts(observed, probs, alpha_level=0.01)
    assert report.passed, (report.statistic, report.threshold)


def test_feller_gaps_match_bernoulli_spacings_in_law():
    # the ordered cycle lengths at n = 8, all 128 compositions, against the
    # trial-by-trial coupling
    n = 8
    reps = 200_000
    gaps = _composition_codes(n, reps, *_spacings(n, reps, make_stream(3, 20)))
    trials = _composition_codes(
        n, reps, *ref_bernoulli_spacings(n, reps, make_stream(3, 21)))
    report = chi_square_two_sample(np.bincount(gaps, minlength=1 << n),
                                   np.bincount(trials, minlength=1 << n),
                                   alpha_level=0.01)
    assert report.passed, (report.statistic, report.threshold)


def test_feller_matches_direct_cycle_counts_small():
    n = 5
    reps = 200_000
    rows, _ = _spacings(n, reps, make_stream(3, 7))
    assert chi_square_gof(np.bincount(rows, minlength=reps),
                          [0.0, *exact.cycles_count_pmf(n)], alpha_level=0.01).passed


def test_number_of_cycles_law_n8():
    n = 8
    reps = 200_000
    rng = make_stream(3, 8)
    successes = rng.gen.random((reps, n)) < 1.0 / np.arange(n, 0, -1)
    cycle_counts = successes.sum(axis=1)
    assert chi_square_gof(cycle_counts, [0.0, *exact.cycles_count_pmf(n)],
                          alpha_level=0.01).passed


def test_longest_cycle_statistics():
    n = 10_000
    reps = 20_000
    rng = make_stream(103, 1)
    longest = perms.longest_cycle_stats(n, reps, rng)
    p_half = float(np.mean(longest <= 0.5))
    target = 1.0 - math.log(2.0)
    assert abs(p_half - target) < 3 * math.sqrt(target * (1 - target) / reps)
    p_third = float(np.mean(longest <= 1 / 3))
    rho3 = exact.dickman_rho(3.0)
    assert abs(p_third - rho3) < 3 * math.sqrt(rho3 * (1 - rho3) / reps) + 1e-3
    # Golomb-Dickman constant by quadrature of the rho integral
    from scipy import integrate
    gd, _ = integrate.quad(lambda t: exact.dickman_rho(t) / (t + 1.0) ** 2,
                           0.0, 60.0, limit=300)
    assert gd == pytest.approx(0.62433, abs=1e-4)
    mean, hw = mean_ci(longest, level=0.99)
    assert abs(mean - gd) < max(hw, 3 * longest.std() / math.sqrt(reps))


@pytest.mark.parametrize("fn,args", [(perms.longest_cycle_stats, (10_000, 5_000)),
                                     (perms.small_cycle_counts, (10_000, 6, 5_000))])
def test_feller_statistics_memory_is_output_plus_one_block(fn, args):
    # a block's spacings, rows and slots fit one draw budget (2^20 values,
    # 8 MiB); a budget of 20,000,000 values per chunk would peak at 160 MB
    block = 8 * rng_module._BLOCK_VALUES
    tracemalloc.start()
    try:
        out = fn(*args, make_stream(3, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape[0] == 5_000
    assert peak <= 2 * block + out.nbytes, peak


def test_feller_spacings_validate_n_and_reps():
    rng = make_stream(3, 2)
    with pytest.raises(InvalidParameterError):
        perms.feller_spacings(0, 3, rng)
    with pytest.raises(InvalidParameterError):
        perms.feller_spacings(5, -1, rng)
    with pytest.raises(InvalidParameterError):
        perms.longest_cycle_stats(10, -1, rng)
    with pytest.raises(InvalidParameterError):
        perms.feller_spacings(0, 1, rng)


@pytest.mark.parametrize("n,reps", [(1, 0), (1, 3), (2, 3), (2, 5), (9, 4),
                                    (1000, 3), (1000, 30), (100_000, 8),
                                    (6, 1_000_000)])
def test_sample_perm_batch_matches_tiled_rows(n, reps):
    r1, r2 = make_stream(n, reps), make_stream(n, reps)
    want = r1.gen.permuted(np.tile(np.arange(1, n + 1), (reps, 1)), axis=1)
    assert np.array_equal(perms.sample_perm_batch(n, reps, r2), want)
    assert r1.gen.random() == r2.gen.random()


def test_sample_perm_batch_shuffles_in_its_output():
    tracemalloc.start()
    try:
        out = perms.sample_perm_batch(6, 100_000, make_stream(3, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * out.nbytes, peak / out.nbytes


def test_sample_perm_batch_argument_checks():
    with pytest.raises(InvalidParameterError):
        perms.sample_perm_batch(0, 3, make_stream(3, 0))
    with pytest.raises(InvalidParameterError):
        perms.sample_perm_batch(4, -1, make_stream(3, 0))
    with pytest.raises(InvalidParameterError):
        perms.sample_perm(0, make_stream(3, 0))


def test_small_cycle_counts_poisson_limit():
    n = 2_000
    reps = 100_000
    rng = make_stream(3, 16)
    counts = perms.small_cycle_counts(n, 3, reps, rng)
    p_derange = float(np.mean(counts[:, 0] == 0))
    target = math.exp(-1.0)
    assert abs(p_derange - target) < 3 * math.sqrt(target * (1 - target) / reps)
    from scipy import stats as sps
    twos = counts[:, 1]
    assert chi_square_gof(twos, sps.poisson.pmf(np.arange(twos.max() + 1), 0.5),
                          alpha_level=0.01).passed
    corr = np.corrcoef(counts[:, 0], counts[:, 1])[0, 1]
    assert abs(corr) < 3 / math.sqrt(reps) + 0.01


def test_randomized_length_poisson_counts():
    # with a geometric total size, the per-length cycle counts decouple into
    # independent Poisson variables of mean x^i / i
    x = 0.7
    reps = 200_000
    rng = make_stream(3, 17)
    sizes = rng.gen.geometric(1.0 - x, size=reps) - 1
    n1 = np.zeros(reps, dtype=np.int64)
    n2 = np.zeros(reps, dtype=np.int64)
    for n in np.unique(sizes[sizes > 0]).tolist():
        reps_n = np.flatnonzero(sizes == n)
        rows, lengths = _spacings(n, reps_n.size, rng)
        np.add.at(n1, reps_n[rows[lengths == 1]], 1)
        np.add.at(n2, reps_n[rows[lengths == 2]], 1)
    from scipy import stats as sps
    assert chi_square_gof(n1, sps.poisson.pmf(np.arange(n1.max() + 1), x),
                          alpha_level=0.01).passed
    assert chi_square_gof(n2, sps.poisson.pmf(np.arange(n2.max() + 1), x * x / 2),
                          alpha_level=0.01).passed


def test_doubling_identity_monte_carlo():
    rng = make_stream(101, 0)
    for n in (5, 20, 100):
        reps = 100_000
        successes = rng.gen.random((reps, n)) < 1.0 / np.arange(n, 0, -1)
        doubled = np.exp2(successes.sum(axis=1).astype(float))
        se = doubled.std(ddof=1) / math.sqrt(reps)
        assert abs(doubled.mean() - (n + 1)) < 3 * se


def test_table_one_fraction_uniform():
    # the first table's share converges to a uniform fraction
    n = 100_000
    reps = 1_000
    rng = make_stream(3, 19)
    firsts = np.concatenate([lengths[np.concatenate([[True], np.diff(rows) != 0])]
                             for rows, lengths in perms.feller_spacings(n, reps, rng)])
    blurred = (firsts - rng.gen.random(reps)) / n
    report = ks_test(np.sort(blurred), lambda x: np.clip(x, 0, 1),
                     alpha_level=0.01)
    assert report.passed, (report.statistic, report.threshold)


def test_perm_dump_roundtrip():
    perm = Permutation(np.array([3, 1, 2]))
    assert perms.perm_from_line(perms.perm_to_line(perm)).images.tolist() == [3, 1, 2]
    with pytest.raises(FormatError):
        perms.perm_from_line("1 2 2")
