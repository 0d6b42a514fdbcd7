"""Each sampler law has one code path; the twins it replaced are kept here as
references.  Every reference makes the same draws in the same order as the
path that replaced it, so on the same stream both must give bit-identical
output and leave the stream at the same position (the next draw is equal)."""

import numpy as np
import pytest

from randstruct import exact, growth, permutations as perms, walks
from randstruct.permutations import CycleStructure
from randstruct.rng import make_stream
from randstruct.walks import LatticePath

# ---------------------------------------------------------------------------
# Reference implementations


def ref_feller_cycles(n, rng):
    ks = np.arange(n, 0, -1)
    success = rng.gen.random(n) < 1.0 / ks
    points = ks[success]
    lengths = np.diff(np.concatenate([[n + 1], points])) * -1
    return CycleStructure.from_lengths(lengths.tolist(), n)


def ref_spacing_rows(n, reps, rng):
    probs = 1.0 / np.arange(n, 0, -1)
    success = rng.gen.random((reps, n)) < probs
    rows, cols = np.nonzero(success)
    first = np.concatenate([[True], np.diff(rows) != 0])
    prev = np.empty(cols.size, dtype=np.int64)
    prev[0] = -1
    prev[1:] = cols[:-1]
    prev[first] = -1
    return rows, cols - prev


def ref_rep_chunks(n, reps, budget=20_000_000):
    chunk = max(1, budget // max(n, 1))
    done = 0
    while done < reps:
        size = min(chunk, reps - done)
        yield done, size
        done += size


def ref_longest_cycle_stats(n, reps, rng):
    longest = np.empty(reps, dtype=np.int64)
    for done, size in ref_rep_chunks(n, reps):
        rows, gaps = ref_spacing_rows(n, size, rng)
        starts = np.flatnonzero(np.concatenate([[True], np.diff(rows) != 0]))
        longest[done:done + size] = np.maximum.reduceat(gaps, starts)
    return longest / n


def ref_small_cycle_counts(n, i_max, reps, rng):
    out = np.zeros((reps, i_max), dtype=np.int64)
    for done, size in ref_rep_chunks(n, reps):
        rows, gaps = ref_spacing_rows(n, size, rng)
        small = gaps <= i_max
        np.add.at(out, (rows[small] + done, gaps[small] - 1), 1)
    return out


def ref_polya_urn(steps, r0, b0, rng):
    out = np.empty((steps + 1, 2), dtype=np.int64)
    r, b = r0, b0
    out[0] = r, b
    u = rng.gen.random(steps)
    for i in range(steps):
        if u[i] * (r + b) < r:
            r += 1
        else:
            b += 1
        out[i + 1] = r, b
    return out


def ref_polya_final_batch(steps, r0, b0, reps, rng):
    r = np.full(reps, r0, dtype=np.int64)
    total = r0 + b0
    for _ in range(steps):
        r += rng.gen.random(reps) * total < r
        total += 1
    return r


def ref_coupon_collector(n, rng):
    p = (n - np.arange(n)) / n
    return int(rng.gen.geometric(p).sum())


def ref_parking_simulate(n, m, rng):
    return walks.parking_simulate(n, arrivals=rng.gen.integers(1, n + 1, size=m))


def ref_fluid_curve_grid(c, t):
    alpha = 1.0 - exact.giant_fraction(c)
    t_star = 1.0 - alpha
    rising = 1.0 - np.exp(-c * t) - t
    parabola = 0.5 * (c * (1.0 + alpha - t) - 2.0) * (t - 1.0 + alpha)
    return np.where(t <= t_star, rising, parabola)


def ref_good_shift_counts(batch, k):
    m, n = batch.shape
    doubled = np.concatenate([batch, batch], axis=1)
    csum = np.cumsum(doubled, axis=1)
    base = np.concatenate([np.zeros((m, 1), dtype=csum.dtype), csum[:, :-1]], axis=1)
    windows = (np.lib.stride_tricks.sliding_window_view(csum, n, axis=1)[:, :n, :]
               - base[:, :n, None])
    early = windows[:, :, :-1].min(axis=2) > -k if n > 1 else np.ones((m, n), bool)
    good = early & (windows[:, :, -1] == -k)
    return good.sum(axis=1)


def ref_good_shift_count(path):
    return int(ref_good_shift_counts(path.increments[None, :], -path.total)[0])


def _same_draws(ref, new, seed, index=0):
    """Run both on fresh copies of one stream; return the outputs and whether
    the streams end at the same position."""
    r1, r2 = make_stream(seed, index), make_stream(seed, index)
    want, got = ref(r1), new(r2)
    return want, got, r1.gen.random() == r2.gen.random()


SEEDS = (0, 7, 2026)

# ---------------------------------------------------------------------------
# Feller coupling


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 2, 7, 100, 5000])
def test_feller_cycles_matches_scalar_sampler(seed, n):
    calls = 20

    def many(fn):
        return lambda r: [fn(n, r) for _ in range(calls)]
    want, got, same_next = _same_draws(many(ref_feller_cycles),
                                       many(perms.feller_cycles), seed, n)
    assert got == want
    assert same_next


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,reps", [(1, 5), (6, 1000), (20, 60_000),
                                    (10_000, 250), (2_000_000, 1)])
def test_feller_spacings_match_spacing_rows(seed, n, reps):
    def new(r):
        blocks = list(perms.feller_spacings(n, reps, r))
        return (np.concatenate([rows for rows, _ in blocks]),
                np.concatenate([lengths for _, lengths in blocks]))
    (want_rows, want_len), (got_rows, got_len), same_next = _same_draws(
        lambda r: ref_spacing_rows(n, reps, r), new, seed, 1)
    assert np.array_equal(want_rows, got_rows)
    assert np.array_equal(want_len, got_len)
    assert same_next


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,reps", [(10, 3), (10_000, 2100), (100_000, 250)])
def test_longest_cycle_stats_matches_rep_chunks(seed, n, reps):
    # at n = 10^5 the old budget splits 250 replicates into chunks of 200
    want, got, same_next = _same_draws(
        lambda r: ref_longest_cycle_stats(n, reps, r),
        lambda r: perms.longest_cycle_stats(n, reps, r), seed, 2)
    assert np.array_equal(want, got)
    assert same_next


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,i_max,reps", [(100, 1, 7), (2_000, 3, 3000),
                                          (100_000, 6, 210)])
def test_small_cycle_counts_matches_rep_chunks(seed, n, i_max, reps):
    want, got, same_next = _same_draws(
        lambda r: ref_small_cycle_counts(n, i_max, reps, r),
        lambda r: perms.small_cycle_counts(n, i_max, reps, r), seed, 3)
    assert np.array_equal(want, got)
    assert same_next


def test_feller_spacings_at_zero_reps():
    rng = make_stream(1, 0)
    assert list(perms.feller_spacings(5, 0, rng)) == []
    assert perms.longest_cycle_stats(10, 0, rng).shape == (0,)
    assert perms.small_cycle_counts(100, 1, 0, rng).shape == (0, 1)


# ---------------------------------------------------------------------------
# Reinforcement urn


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("steps,r0,b0", [(0, 1, 1), (1, 1, 1), (50, 1, 1),
                                         (3000, 2, 5)])
def test_polya_urn_matches_trajectory_loop(seed, steps, r0, b0):
    want, got, same_next = _same_draws(
        lambda r: ref_polya_urn(steps, r0, b0, r),
        lambda r: growth.polya_urn(steps, r0, b0, r), seed, 4)
    assert got.dtype == np.int64
    assert np.array_equal(want, got)
    assert same_next


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("steps,r0,b0,reps", [(0, 1, 1, 4), (9, 1, 1, 1),
                                              (40, 3, 1, 0), (500, 1, 2, 3000)])
def test_polya_final_batch_matches_batch_loop(seed, steps, r0, b0, reps):
    want, got, same_next = _same_draws(
        lambda r: ref_polya_final_batch(steps, r0, b0, reps, r),
        lambda r: growth.polya_final_batch(steps, r0, b0, reps, r), seed, 5)
    assert np.array_equal(want, got)
    assert same_next


def test_polya_urn_is_the_single_urn_view_of_the_batch():
    want, got, same_next = _same_draws(
        lambda r: growth.polya_urn(200, 2, 3, r)[-1, 0],
        lambda r: growth.polya_final_batch(200, 2, 3, 1, r)[0], 11)
    assert want == got
    assert same_next


# ---------------------------------------------------------------------------
# Coupon collector and parking


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,reps", [(2, 9), (50, 300), (10_000, 120)])
def test_coupon_batch_matches_scalar_calls(seed, n, reps):
    want, got, same_next = _same_draws(
        lambda r: [ref_coupon_collector(n, r) for _ in range(reps)],
        lambda r: growth.coupon_collector_batch(n, reps, r).tolist(), seed, 6)
    assert want == got
    assert same_next
    want, got, same_next = _same_draws(
        lambda r: [ref_coupon_collector(n, r) for _ in range(3)],
        lambda r: [growth.coupon_collector(n, r) for _ in range(3)], seed, 7)
    assert want == got
    assert same_next


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,m,reps", [(1, 1, 3), (2, 2, 200), (10, 5, 500),
                                      (50, 25, 100), (20, 30, 10)])
def test_parking_batch_matches_random_arrival_mode(seed, n, m, reps):
    want, got, same_next = _same_draws(
        lambda r: [ref_parking_simulate(n, m, r).success for _ in range(reps)],
        lambda r: walks.parking_success_batch(n, m, reps, r).tolist(), seed, 8)
    assert want == got
    assert same_next


# ---------------------------------------------------------------------------
# Deterministic twins: the fluid curve and the good-shift count


@pytest.mark.parametrize("c", [0.5, 1.0, 1.5, 2.0, 4.0])
def test_fluid_curve_matches_grid_form(c):
    for n in (1, 7, 20_000):
        t = np.arange(n + 1) / n
        want = ref_fluid_curve_grid(c, t)
        got = exact.fluid_curve(c, t)
        assert got.dtype == np.float64
        assert np.array_equal(want, got)
    t = np.array([0.0, 0.25, 0.999, 1.0])
    for ti, value in zip(t, ref_fluid_curve_grid(c, t)):
        assert exact.fluid_curve(c, float(ti)) == float(value)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,k", [(1, 1), (2, 2), (5, 1), (9, 3), (40, 2)])
def test_good_shift_count_matches_wrapper(seed, n, k):
    # rows of n steps in {-1, 0, 1, 2} with total -k, kept by rejection
    rng = make_stream(seed, 9)
    rows = rng.gen.integers(-1, 3, size=(20_000, n))
    rows = rows[rows.sum(axis=1) == -k][:200]
    assert rows.shape[0] > 0
    got = walks.good_shift_count(rows)
    assert np.array_equal(got, ref_good_shift_counts(rows, k))
    for row in rows[:20]:
        path = LatticePath(row)
        assert walks.good_shift_count(path) == ref_good_shift_count(path)
    # rows with different totals are counted in one call
    mixed = np.array([[-1, 0, 0], [-1, -1, 1], [-1, -1, -1]])
    assert walks.good_shift_count(mixed).tolist() == [1, 1, 3]
