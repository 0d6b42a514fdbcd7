import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats as sps
from stats_helpers import chi_square_two_sample

from randstruct import exact, growth
from randstruct.errors import FormatError, InvalidParameterError, ResourceLimitError
from randstruct.growth import GrowingTree
from randstruct.rng import make_stream
from randstruct.stats import chi_square_counts, chi_square_gof, ks_test, mean_ci


def test_growing_tree_validation():
    with pytest.raises(FormatError):
        GrowingTree(np.array([0]))  # root parent must be -1
    with pytest.raises(FormatError):
        GrowingTree(np.array([-1, 1]))  # vertex attaching to itself


def test_growing_tree_dump_roundtrip():
    tree = GrowingTree(np.array([-1, 0, 0, 2]))
    line = growth.growing_tree_to_line(tree)
    assert growth.growing_tree_from_line(line).parent.tolist() == [-1, 0, 0, 2]
    for bad in ("-1 x", "-1 " + "1" + "0" * 22, "-1 -" + "1" + "0" * 22):
        with pytest.raises(FormatError, match="bad tree line"):
            growth.growing_tree_from_line(bad)


def test_rrt_first_steps():
    tree = growth.rrt_chain(1, make_stream(4, 0))
    assert tree.parent.tolist() == [-1, 0]
    rng = make_stream(4, 1)
    reps = 100_000
    to_root = sum(growth.rrt_chain(2, rng).parent[2] == 0 for _ in range(reps))
    assert abs(to_root / reps - 0.5) < 3 * math.sqrt(0.25 / reps)


def test_rrt_uniform_over_increasing_trees():
    rng = make_stream(4, 2)
    reps = 300_000
    codes = np.empty(reps, dtype=np.int64)
    for r in range(reps):
        parent = growth.rrt_chain(3, rng).parent
        codes[r] = parent[2] * 3 + parent[3]
    counts = np.bincount(codes, minlength=6)
    assert chi_square_counts(counts, [1 / 6] * 6, alpha_level=0.01).passed


def test_rrt_parent_invariant():
    tree = growth.rrt_chain(500, make_stream(4, 3))
    assert np.all(tree.parent[1:] < np.arange(1, 501))


def test_ba_first_attachment_uniform():
    rng = make_stream(4, 4)
    reps = 100_000
    to_root = sum(growth.ba_chain(2, rng).parent[2] == 0 for _ in range(reps))
    assert abs(to_root / reps - 0.5) < 3 * math.sqrt(0.25 / reps)


def test_ba_preferential_attachment_step():
    # at n = 3 the degree-2 vertex is twice as attractive: frequency 1/2
    rng = make_stream(4, 5)
    reps = 100_000
    hits = 0
    for _ in range(reps):
        parent = growth.ba_chain(3, rng).parent
        hub = parent[2]  # after step 2 the hub has degree 2
        hits += parent[3] == hub
    assert abs(hits / reps - 0.5) < 3 * math.sqrt(0.25 / reps)


def test_ba_degree_sum():
    for n in (1, 2, 10, 1000):
        tree = growth.ba_chain(n, make_stream(4, 6))
        # children plus the edge up, which the root lacks
        degrees = tree.out_degrees() + (tree.parent >= 0)
        assert int(degrees.sum()) == 2 * n


def _yule_counts(k, t, reps, rng):
    """Particles alive at t in ``reps`` order-k trees, each 1 + (k - 1) per
    jump, drawn in blocks of about 2^18 expected jumps."""
    block = max(1, (1 << 18) // math.ceil(math.exp((k - 1) * t)))
    return np.concatenate([
        1 + (k - 1) * growth.yule_simulate(k, min(block, reps - lo), rng, t=t).n_jumps
        for lo in range(0, reps, block)])


def test_yule_counts_validate_reps():
    rng = make_stream(4, 11)
    with pytest.raises(InvalidParameterError):
        growth.yule_simulate(2, -1, rng, t=1.0)
    assert growth.yule_simulate(2, 0, rng, t=1.0).n_jumps.shape == (0,)


def test_yule_mean_growth():
    rng = make_stream(4, 11)
    counts = _yule_counts(2, 3.0, 100_000, rng)
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - math.exp(3.0)) < 3 * se


def test_yule_geometric_law():
    rng = make_stream(4, 12)
    counts = _yule_counts(2, 2.0, 50_000, rng)
    q = math.exp(-2.0)
    report = chi_square_gof(counts, sps.geom.pmf(np.arange(counts.max() + 1), q),
                            alpha_level=0.01)
    assert report.passed, (report.statistic, report.threshold)


def test_yule_exponential_limit():
    rng = make_stream(4, 13)
    counts = _yule_counts(2, 8.0, 3_000, rng)
    scaled = np.sort(counts * math.exp(-8.0))
    report = ks_test(scaled, lambda x: 1.0 - np.exp(-np.clip(x, 0, None)),
                     alpha_level=0.01)
    assert report.passed, (report.statistic, report.threshold)


def test_yule_jump_times_martingale():
    # tau_n minus the partial harmonic-like sum of mean waits is centered
    rng = make_stream(4, 14)
    reps = 20_000
    n_jumps = 40
    forest = growth.yule_simulate(2, reps, rng, n_particles=n_jumps + 1)
    assert forest.n_jumps.tolist() == [n_jumps] * reps
    tau = forest.jump_times.reshape(reps, n_jumps)[:, -1]
    harmonic = np.sum(1.0 / np.arange(1, n_jumps + 1))
    se = tau.std(ddof=1) / math.sqrt(reps)
    assert abs(tau.mean() - harmonic) < 3 * se


def test_yule_tree_structure_invariants():
    forest = growth.yule_simulate(3, 1, make_stream(4, 15), n_particles=13)
    assert np.all(np.diff(forest.jump_times) > 0)
    # each jump turns one particle into k = 3: 1 + 2 per jump, 13 at the stop
    last, other = growth._alive_line_stats(forest)
    assert last.size == other.size == 1 + int(forest.n_jumps[0]) * 2 == 13


def test_yule_clock_queue_cross_check():
    # jump-chain sampler against an explicit per-particle clock queue
    import heapq

    def clock_queue_count(t, rng):
        heap = [float(rng.gen.exponential(1.0))]
        while heap[0] <= t:
            birth = heapq.heappop(heap)
            for _ in range(2):
                heapq.heappush(heap, birth + float(rng.gen.exponential(1.0)))
        return len(heap)

    rng = make_stream(4, 16)
    queue_counts = np.array([clock_queue_count(2.0, rng) for _ in range(20_000)])
    rng = make_stream(4, 17)
    chain_counts = _yule_counts(2, 2.0, 20_000, rng)
    hi = max(queue_counts.max(), chain_counts.max())
    report = chi_square_two_sample(np.bincount(queue_counts, minlength=hi + 1),
                                   np.bincount(chain_counts, minlength=hi + 1),
                                   alpha_level=0.01)
    assert report.passed, (report.statistic, report.threshold)


def test_yule_to_rrt_single_edge():
    forest = growth.yule_simulate(2, 3, make_stream(4, 18), n_particles=2)
    assert growth.yule_to_rrt(forest, 1).tolist() == [[-1, 0]] * 3


def test_yule_to_rrt_needs_enough_particles():
    forest = growth.yule_simulate(2, 2, make_stream(4, 19), n_particles=3)
    with pytest.raises(InvalidParameterError):
        growth.yule_to_rrt(forest, 5)
    with pytest.raises(InvalidParameterError):
        growth.yule_to_rrt(forest, -1)
    with pytest.raises(InvalidParameterError):
        growth.yule3_to_ba(forest, 2)
    odd = growth.yule_simulate(3, 3, make_stream(4, 19), n_particles=3)
    with pytest.raises(InvalidParameterError):
        growth.yule3_to_ba(odd, 2)


def test_yule_root_degree_law():
    # root degree of the contracted chain at the n-th jump follows the
    # cycle-count law of a uniform permutation of size n
    n = 6
    reps = 150_000
    rng = make_stream(4, 20)
    parent = growth.yule_to_rrt(growth.yule_simulate(2, reps, rng, n_particles=n + 1), n)
    degrees = (parent[:, 1:] == 0).sum(axis=1)
    report = chi_square_gof(degrees, [0.0, *exact.cycles_count_pmf(n)],
                            alpha_level=0.01)
    assert report.passed, (report.statistic, report.threshold)


def test_yule3_to_ba_two_vertices():
    forest = growth.yule_simulate(3, 8, make_stream(4, 21), n_particles=3)
    parent = growth.yule3_to_ba(forest, 2)
    assert parent.shape == (4, 3)
    assert np.all(parent[:, :2] == [-1, 0])
    assert np.isin(parent[:, 2], (0, 1)).all()


def test_yule3_to_ba_first_attachment_uniform():
    rng = make_stream(4, 23)
    reps = 60_000
    forest = growth.yule_simulate(3, 2 * reps, rng, n_particles=3)
    hits = int(np.sum(growth.yule3_to_ba(forest, 2)[:, 2] == 0))
    assert abs(hits / reps - 0.5) < 3 * math.sqrt(0.25 / reps)


def test_ba_fixed_vertex_degree_scaling():
    # deg(root) / sqrt(n) stays tight and positive as n grows; its mean obeys
    # the exact product recurrence E[d_n] = prod (1 + 1/(2i)) -> 2 sqrt(n/pi)
    rng = make_stream(4, 24)
    for n, reps in ((10_000, 400), (100_000, 250)):
        scaled = np.array([growth.ba_chain(n, rng).out_degrees()[0] / math.sqrt(n)
                           for _ in range(reps)])
        assert np.percentile(scaled, 5) > 0.01
        exact_mean = 1.0
        for i in range(1, n):
            exact_mean *= 1 + 1 / (2 * i)
        exact_mean /= math.sqrt(n)
        se = scaled.std(ddof=1) / math.sqrt(reps)
        assert abs(scaled.mean() - exact_mean) < 3 * se


def test_many_to_one_constant():
    rng = make_stream(4, 25)
    f = ("constant-1", 0)
    lhs, rhs = growth.many_to_one_samples(2, 3.0, [f], 2_000, rng)
    assert growth.line_mean(2, 3.0, *f) == pytest.approx(math.exp(3.0))
    assert rhs[f].tolist() == pytest.approx([math.exp(3.0)] * 2_000)
    mean, half_width = mean_ci(lhs[f], level=0.99)
    assert abs(mean - growth.line_mean(2, 3.0, *f)) <= half_width


def test_many_to_one_analytic_anchors():
    # marked-line statistics are Poisson counts: branch points off one side
    # arrive at unit rate, so the two named functionals have closed values
    rng = make_stream(4, 26)
    t = 3.0
    functionals = [("degree-at-least", 4), ("height-at-least", 6)]
    lhs, rhs = growth.many_to_one_samples(2, t, functionals, 6_000, rng)
    for f, tail in zip(functionals, (sps.poisson.sf(3, t), sps.poisson.sf(5, t))):
        exact_mean = growth.line_mean(2, t, *f)
        assert exact_mean == pytest.approx(math.exp(t) * tail, rel=1e-12)
        for side in (lhs, rhs):
            mean, half_width = mean_ci(side[f], level=0.99)
            assert abs(mean - exact_mean) <= half_width


def test_line_mean_edges():
    # k = 3: the other branch points come at rate 2t; arg <= 0 always holds
    assert growth.line_mean(3, 1.5, "degree-at-least", 2) == pytest.approx(
        math.exp(3.0) * sps.poisson.sf(1, 3.0), rel=1e-12)
    for kind in ("constant-1", "height-at-least", "degree-at-least"):
        assert growth.line_mean(3, 1.5, kind, 0) == pytest.approx(math.exp(3.0))
        assert growth.line_mean(2, 0.0, kind, 1) == (kind == "constant-1")
    with pytest.raises(InvalidParameterError):
        growth.line_mean(2, 1.0, "width-at-least", 1)


def test_many_to_one_population_obeys_the_particle_cap(monkeypatch):
    monkeypatch.setattr(growth, "_PARTICLE_CAP", 1_000)
    with pytest.raises(ResourceLimitError):
        growth.many_to_one_samples(3, 8.0, [("constant-1", 0)], 2, make_stream(4, 30))


def test_splitting_trees_stop_at_the_particle_cap_before_filling_it(monkeypatch):
    # a huge t raises within O(cap + reps) values, not cap * reps
    monkeypatch.setattr(growth, "_PARTICLE_CAP", 1_000)
    for stop in ({"t": 1e9}, {"t": math.inf}, {"n_particles": 11}):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                growth.yule_simulate(3, 500, make_stream(4, 31), **stop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000 * 500 * 8 / 10
    with pytest.raises(ResourceLimitError):
        growth.yule_simulate(2, 1_001, make_stream(4, 31), t=0.0)
    assert growth.yule_simulate(2, 1_000, make_stream(4, 31), t=0.0).n_jumps.size == 1_000


def test_many_to_one_memory_at_the_full_criterion_size():
    # criterion 18's k = 3 population, 10^4 trees at t = 3, in bounded blocks
    functionals = [("constant-1", 0), ("degree-at-least", 4), ("height-at-least", 6)]
    tracemalloc.start()
    try:
        lhs, _ = growth.many_to_one_samples(3, 3.0, functionals, 10_000,
                                             make_stream(4, 32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 << 20, peak / 2 ** 20
    assert lhs[("constant-1", 0)].shape == (10_000,)


@pytest.mark.parametrize("k", [2, 3])
def test_splitting_trees_at_the_edges(k):
    rng = make_stream(4, 33)
    for reps in (0, 4):
        for stop in ({"t": 0.0}, {"n_particles": 1}):
            forest = growth.yule_simulate(k, reps, rng, **stop)
            assert forest.order == k and forest.n_jumps.size == reps
            assert forest.n_jumps.tolist() == [0] * reps
            assert forest.jump_times.size == forest.split_particles.size == 0
            last, other = growth._alive_line_stats(forest)
            assert last.tolist() == other.tolist() == [0] * reps
    # no jumps draw nothing
    before = make_stream(4, 34)
    after = make_stream(4, 34)
    growth.yule_simulate(k, 5, after, n_particles=1)
    growth.yule_simulate(k, 0, after, t=2.0)
    assert before.gen.random() == after.gen.random()
    assert growth.yule_to_rrt(growth.yule_simulate(2, 0, rng, n_particles=4), 3).shape == (0, 4)
    assert growth.yule3_to_ba(growth.yule_simulate(3, 0, rng, n_particles=7), 4).shape == (0, 5)
    assert growth.yule_to_rrt(growth.yule_simulate(2, 3, rng, t=0.0), 0).tolist() == [[-1]] * 3
    functionals = [("constant-1", 0), ("height-at-least", 1)]
    lhs, rhs = growth.many_to_one_samples(k, 0.0, functionals, 5, rng)
    assert lhs[functionals[0]].tolist() == rhs[functionals[0]].tolist() == [1.0] * 5
    assert lhs[functionals[1]].tolist() == rhs[functionals[1]].tolist() == [0.0] * 5
    lhs, rhs = growth.many_to_one_samples(k, 1.0, functionals, 0, rng)
    assert lhs[functionals[0]].shape == rhs[functionals[0]].shape == (0,)


def test_splitting_trees_validate_their_arguments():
    rng = make_stream(4, 35)
    for bad in ({"k": 1, "reps": 1, "t": 1.0}, {"k": 2, "reps": -1, "t": 1.0},
                {"k": 2, "reps": -1, "n_particles": 3}, {"k": 2, "reps": 1},
                {"k": 2, "reps": 1, "t": 1.0, "n_particles": 3},
                {"k": 2, "reps": 1, "t": -1.0}, {"k": 2, "reps": 1, "t": math.nan},
                {"k": 2, "reps": 1, "n_particles": 0}):
        with pytest.raises(InvalidParameterError):
            growth.yule_simulate(rng=rng, **bad)
    with pytest.raises(InvalidParameterError):
        growth.many_to_one_samples(2, 1.0, [("constant-1", 0)], -1, rng)


def test_coupon_collector_mean():
    n = 1_000
    rng = make_stream(4, 27)
    draws = growth.coupon_collector_batch(n, 20_000, rng)
    target = n * sum(1.0 / k for k in range(1, n + 1))
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - target) < 3 * se


def test_coupon_collector_gumbel():
    n = 10_000
    rng = make_stream(4, 28)
    draws = growth.coupon_collector_batch(n, 4_000, rng)
    sample = np.sort((draws - n * math.log(n)) / n)
    report = ks_test(sample, lambda x: np.exp(-np.exp(-x)), alpha_level=0.01)
    assert report.passed, (report.statistic, report.threshold)


def test_balls_in_bins_follows_poisson_tail_benchmark():
    # the asymptotic log n / log log n ratio converges too slowly to band at
    # desk scale (the measured ratio at n = 10^6 is ~1.7); the sound finite-n
    # benchmark brackets the max load by the exact Poissonized tail counts
    n = 1_000_000
    rng = make_stream(4, 29)
    loads = np.array([growth.balls_in_bins(n, rng) for _ in range(100)])
    tail = lambda m: n * sps.poisson.sf(m - 1, 1.0)  # noqa: E731
    m_lo = next(m for m in range(1, 100) if tail(m) < 50)
    m_hi = next(m for m in range(m_lo, 100) if tail(m) < 0.02)
    assert np.mean((loads >= m_lo - 1) & (loads <= m_hi)) >= 0.95
    norm = math.log(n) / math.log(math.log(n))
    assert 1.0 <= np.median(loads) / norm <= 2.0


def test_pills_matches_exact_embedding_law():
    # two-exponential representation: the leftover count is the number of
    # pills whose whole+half lifetime outlives every whole lifetime
    n = 3_000
    reps = 20_000
    rng = make_stream(4, 30)
    direct = growth.pills_batch(n, reps, rng)
    rng = make_stream(4, 31)
    x = rng.gen.exponential(1.0, size=(reps, n))
    y = rng.gen.exponential(1.0, size=(reps, n))
    embedded = ((x + y) > x.max(axis=1, keepdims=True)).sum(axis=1)
    hi = int(max(direct.max(), embedded.max()))
    report = chi_square_two_sample(np.bincount(direct, minlength=hi + 1),
                                   np.bincount(embedded, minlength=hi + 1),
                                   alpha_level=0.01)
    assert report.passed, (report.statistic, report.threshold)


def test_pills_log_scaling_direction():
    # the exact mean leftover count is the harmonic number H_n, and
    # H_n / log n -> 1, so matching it checks the log scaling at its own n
    n = 100_000
    rng = make_stream(4, 32)
    leftovers = growth.pills_batch(n, 4_000, rng)
    harmonic = math.fsum(1.0 / k for k in range(1, n + 1))
    se = leftovers.std(ddof=1) / math.sqrt(leftovers.size)
    assert abs(leftovers.mean() - harmonic) < 3 * se


def test_pills_at_every_accepted_n():
    # the step chain took ~2n steps per jar and could never finish here
    reps = 1_000_000
    for n in (10 ** 12, 2 ** 62):
        leftovers = growth.pills_batch(n, reps, make_stream(4, 34))
        assert leftovers.dtype == np.int64
        assert leftovers.min() >= 1 and leftovers.max() <= n
        se = leftovers.std(ddof=1) / math.sqrt(reps)
        assert abs(leftovers.mean() - exact.pills_mean(n)) < 4 * se
    with pytest.raises(InvalidParameterError):
        growth.pills_batch(2 ** 63, 1, make_stream(4, 34))


def test_pills_zero_uniform_leaves_one_half():
    # gen.random can return 0.0: then M = 0, T is infinite, q = 0 and L = 1
    real = make_stream(4, 35).gen
    zeros = SimpleNamespace(gen=SimpleNamespace(
        random=np.zeros, binomial=real.binomial, poisson=real.poisson))
    with np.errstate(all="raise"):
        for n in (2, 3000, 10 ** 12):
            assert np.array_equal(growth.pills_batch(n, 5, zeros), np.ones(5))


def test_ok_corral_survivor_scaling():
    n = 10_000
    rng = make_stream(4, 33)
    survivors = growth.ok_corral_batch(n, 10_000, rng)
    scaled = survivors / n ** 0.75
    target = (8.0 / 3.0) ** 0.25 * 2.0 ** 0.25 * math.gamma(0.75) / math.sqrt(math.pi)
    se = scaled.std(ddof=1) / math.sqrt(scaled.size)
    assert abs(scaled.mean() - target) < 3 * se


def _pooled_out_degree_fractions(chain, n, reps, rng, k_max=6):
    pooled = np.zeros(k_max + 1, dtype=np.int64)
    total = 0
    for _ in range(reps):
        out = chain(n, rng).out_degrees()
        pooled += np.bincount(out, minlength=k_max + 1)[:k_max + 1]
        total += out.size
    return pooled / total


def test_growth_stats_rrt_degree_law():
    rng = make_stream(4, 34)
    fractions = _pooled_out_degree_fractions(growth.rrt_chain, 100_000, 3, rng)
    for k in range(6):
        assert abs(fractions[k] - 2.0 ** (-k - 1)) < 0.005


def test_growth_stats_ba_degree_law():
    rng = make_stream(4, 35)
    fractions = _pooled_out_degree_fractions(growth.ba_chain, 100_000, 3, rng)
    for k in range(1, 6):
        target = 4.0 / ((k + 1) * (k + 2) * (k + 3))
        assert abs(fractions[k] - target) < 0.005


def test_rrt_vertex_height_law():
    # the depth of the newest vertex follows the permutation cycle-count law
    reps = 150_000
    n = 8
    rng = make_stream(4, 36)
    picks = rng.gen.integers(0, np.tile(np.arange(1, n + 1), (reps, 1)))
    depth = np.zeros((reps, n + 1), dtype=np.int64)
    for j in range(1, n + 1):
        depth[:, j] = depth[np.arange(reps), picks[:, j - 1]] + 1
    report = chi_square_gof(depth[:, n], [0.0, *exact.cycles_count_pmf(n)],
                            alpha_level=0.01)
    assert report.passed, (report.statistic, report.threshold)


def _assert_heights_fit(heights, cdf):
    # each height inside the exact law's central 99.9% range, and their mean
    # within 3 standard errors of the exact mean
    pmf = np.diff(cdf, prepend=0.0)
    levels = np.arange(pmf.size)
    lo, hi = np.searchsorted(cdf, [0.0005, 0.9995])
    assert all(lo <= h <= hi for h in heights), (heights, lo, hi)
    mean = levels @ pmf
    sd = math.sqrt(levels ** 2 @ pmf - mean ** 2)
    assert abs(np.mean(heights) - mean) < 3 * sd / math.sqrt(len(heights))


def test_extreme_ratios_at_desk_scale():
    # heights against their exact laws at n = 10^6: the log-scale constants
    # e log n and c log n are approached from below, with the mean ratios
    # still at 0.837 and 0.858 there
    n = 1_000_000
    rng = make_stream(4, 37)
    rrt_heights = []
    for _ in range(3):
        tree = growth.rrt_chain(n, rng)
        assert 0.80 <= tree.out_degrees().max() / math.log2(n) <= 1.25
        rrt_heights.append(tree.height())
    ba_heights = [growth.ba_chain(n, rng).height() for _ in range(3)]
    _assert_heights_fit(rrt_heights, exact.rrt_height_cdf(n, 80))
    _assert_heights_fit(ba_heights, exact.ba_height_cdf(n, 80))
