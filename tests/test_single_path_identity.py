"""Each sampler law has one code path; the twins it replaced are kept here as
references.  Every reference makes the same draws in the same order as the
path that replaced it, so on the same stream both must give bit-identical
output and leave the stream at the same position (the next draw is equal).
The batch splitting-tree sampler draws differently from the one-tree loop
kept here, so the two are tied in law; a loop that spends the batch draws one
jump at a time is its same-draws reference."""

import collections
import math

import numpy as np
import pytest
from parking_helpers import parking_simulate
from scipy import stats as sps
from stats_helpers import chi_square_two_sample

from randstruct import (exact, experiments, growth, permutations as perms,
                        rng as rng_module, trees, walks)
from randstruct.exact import OffspringLaw
from randstruct.rng import make_stream
from randstruct.stats import chi_square_counts, chi_square_gof, ks_test
from randstruct.walks import LatticePath

# ---------------------------------------------------------------------------
# Reference implementations


def ref_feller_cycles(n, rng):
    """Integer stick breaking, one scalar draw per cycle: the cycle lengths in
    min-ranked order."""
    lengths, left = [], n
    while left:
        gap = int(rng.gen.integers(1, left + 1))
        lengths.append(gap)
        left -= gap
    return tuple(lengths)


def ref_spacing_rows(n, reps, rng):
    """Rows in blocks of the draw budget; within a block, every unfinished
    row draws its next spacing in row order, one round at a time."""
    rows, lengths = [], []
    done = 0
    while done < reps:
        b = rng_module._block_rows(4 * n.bit_length(), reps - done)
        row_lengths = [[] for _ in range(b)]
        left = [n] * b
        while any(left):
            active = [r for r in range(b) if left[r]]
            gaps = rng.gen.integers(1, np.array([left[r] for r in active]) + 1)
            for r, gap in zip(active, gaps.tolist()):
                row_lengths[r].append(gap)
                left[r] -= gap
        for r, ells in enumerate(row_lengths):
            rows += [done + r] * len(ells)
            lengths += ells
        done += b
    return np.array(rows, dtype=np.int64), np.array(lengths, dtype=np.int64)


def ref_longest_cycle_stats(n, reps, rng):
    longest = np.zeros(reps, dtype=np.int64)
    rows, lengths = ref_spacing_rows(n, reps, rng)
    np.maximum.at(longest, rows, lengths)
    return longest / n


def ref_small_cycle_counts(n, i_max, reps, rng):
    out = np.zeros((reps, i_max), dtype=np.int64)
    rows, lengths = ref_spacing_rows(n, reps, rng)
    for r, ell in zip(rows.tolist(), lengths.tolist()):
        if ell <= i_max:
            out[r, ell - 1] += 1
    return out


def ref_coupon_collector(n, rng):
    p = (n - np.arange(n)) / n
    return int(rng.gen.geometric(p).sum())


def ref_parking_simulate(n, m, rng):
    return parking_simulate(n, arrivals=rng.gen.integers(1, n + 1, size=m))


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
    return int(ref_good_shift_counts(path.increments[None, :], -path.increments.sum())[0])


def ref_yule_simulate(k, rng, t=None, n_particles=None):
    # one tree, two scalar draws per jump, with the per-particle record:
    # parent, position, birth time and first child
    parent, position, birth = [-1], [0], [0.0]
    jump_times, split_particles, first_child = [], [], []
    alive = [0]
    now = 0.0
    while True:
        count = len(alive)
        if n_particles is not None and count >= n_particles:
            break
        wait = rng.gen.exponential(1.0 / count)
        pick = int(rng.gen.integers(0, count))
        if t is not None and now + wait > t:
            break
        now += wait
        u = alive[pick]
        base = len(parent)
        for pos in range(1, k + 1):
            parent.append(u)
            position.append(pos)
            birth.append(now)
        alive[pick] = base
        alive.extend(range(base + 1, base + k))
        jump_times.append(now)
        split_particles.append(u)
        first_child.append(base)
    return {"parent": np.array(parent), "position": np.array(position),
            "birth_time": np.array(birth), "jump_times": np.array(jump_times),
            "split_particles": np.array(split_particles, dtype=np.int64),
            "first_child": np.array(first_child, dtype=np.int64),
            "alive": np.array(alive, dtype=np.int64)}


def ref_yule_rounds(k, reps, rng, t=None, n_particles=None):
    """The batch sampler's draws (see ``growth.yule_simulate``), spent one
    scalar jump at a time on a list of the living, one tree after another:
    the jump-chain loop above with the per-particle line statistics."""
    trees = [{"now": 0.0, "alive": [0], "jump_times": [], "split_particles": [],
              "n_last": [0], "n_other": [0]} for _ in range(reps)]

    def jump(tree, e, u):
        count = len(tree["alive"])
        now = tree["now"] + e / count
        if t is not None and now > t:
            return False
        pick = int(u * count)
        v, first = tree["alive"][pick], len(tree["n_last"])
        for pos in range(1, k + 1):
            tree["n_last"].append(tree["n_last"][v] + (pos == 1))
            tree["n_other"].append(tree["n_other"][v] + (pos != 1))
        tree["alive"][pick] = first
        tree["alive"].extend(range(first + 1, first + k))
        tree["now"] = now
        tree["jump_times"].append(now)
        tree["split_particles"].append(v)
        return True

    if t is None:
        limit = width = -(-(n_particles - 1) // (k - 1))
    else:
        limit, width = math.inf, 1 + int(math.expm1(min((k - 1) * t, 40.0)) / (k - 1))
    running = list(range(reps)) if limit else []
    room = (growth._PARTICLE_CAP - reps) // (k - 1)
    done = 0
    while running:
        m = len(running)
        w = int(max(1, min(width, max(1, rng_module._BLOCK_VALUES // m), room // m,
                           limit - done)))
        done += w
        waits = rng.gen.standard_exponential((m, w)).tolist()
        uniforms = rng.gen.random((m, w)).tolist()
        going = []
        for i, es, us in zip(running, waits, uniforms):
            before = len(trees[i]["jump_times"])
            if all(jump(trees[i], e, u) for e, u in zip(es, us)) and done < limit:
                going.append(i)
            room -= len(trees[i]["jump_times"]) - before
        running = going
        width *= 2
    return trees


def ref_yule_to_rrt(tree, n):
    block = {0: 0}
    parent = np.empty(n + 1, dtype=np.int64)
    parent[0] = -1
    for j in range(n):
        u = int(tree["split_particles"][j])
        first = int(tree["first_child"][j])
        b = block.pop(u)
        block[first] = b
        block[first + 1] = j + 1
        parent[j + 1] = b
    return parent


def ref_yule3_to_ba(tree0, tree1, n):
    events = sorted(
        [(float(tree0["jump_times"][j]), 0, j) for j in range(tree0["jump_times"].size)]
        + [(float(tree1["jump_times"][j]), 1, j) for j in range(tree1["jump_times"].size)])
    block = [{0: 0}, {0: 1}]
    parent = np.empty(n + 1, dtype=np.int64)
    parent[0] = -1
    parent[1] = 0
    for v, (_, which, j) in enumerate(events[:n - 1], start=2):
        tree = tree0 if which == 0 else tree1
        u = int(tree["split_particles"][j])
        first = int(tree["first_child"][j])
        b = block[which].pop(u)
        block[which][first] = b
        block[which][first + 1] = b
        block[which][first + 2] = v
        parent[v] = b
    return parent


def ref_bgw_total_sizes(law, reps, rng, cap=4096):
    # one (pending, length) matrix per round; below cap 64 it never ran a round
    sizes = np.full(reps, cap, dtype=np.int64)
    pending = np.arange(reps)
    length = 256
    offset = np.zeros(reps, dtype=np.int64)
    steps_done = np.zeros(reps, dtype=np.int64)
    while pending.size and length <= 4 * cap:
        draws = law.sample(rng, size=(pending.size, length)) - 1
        walk = offset[pending, None] + np.cumsum(draws, axis=1)
        hit = walk <= -1
        has = hit.any(axis=1)
        first = np.argmax(hit, axis=1)
        done = pending[has]
        sizes[done] = steps_done[done] + first[has] + 1
        rest = ~has
        offset[pending[rest]] = walk[rest, -1]
        steps_done[pending[rest]] += length
        pending = pending[rest]
        pending = pending[steps_done[pending] < cap]
        length = min(2 * length, 4 * cap)
    return np.minimum(sizes, cap)


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

    def one_row(n, r):
        return tuple(next(perms.feller_spacings(n, 1, r))[1].tolist())
    want, got, same_next = _same_draws(many(ref_feller_cycles), many(one_row),
                                       seed, n)
    assert got == want
    assert same_next


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,reps", [(1, 5), (6, 1000), (20, 60_000),
                                    (10_000, 250), (2_000_000, 1)])
def test_feller_spacings_match_spacing_rows(seed, n, reps):
    # at n = 20 the draw budget splits 60,000 rows into blocks of 52,428
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
def test_longest_cycle_stats_matches_spacing_rows(seed, n, reps):
    want, got, same_next = _same_draws(
        lambda r: ref_longest_cycle_stats(n, reps, r),
        lambda r: perms.longest_cycle_stats(n, reps, r), seed, 2)
    assert np.array_equal(want, got)
    assert same_next


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,i_max,reps", [(100, 1, 7), (2_000, 3, 3000),
                                          (100_000, 6, 210), (8, 8, 500)])
def test_small_cycle_counts_matches_spacing_rows(seed, n, i_max, reps):
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
# Coupon collector and parking


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,reps", [(2, 9), (50, 300), (10_000, 120)])
def test_coupon_batch_matches_scalar_calls(seed, n, reps):
    want, got, same_next = _same_draws(
        lambda r: [ref_coupon_collector(n, r) for _ in range(reps)],
        lambda r: growth.coupon_collector_batch(n, reps, r).tolist(), seed, 6)
    assert want == got
    assert same_next


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,m,reps", [(1, 1, 3), (2, 2, 200), (10, 5, 500),
                                      (50, 25, 100), (20, 30, 10), (7, 7, 3000),
                                      (100, 60, 400), (1, 3, 20), (6, 7, 300)])
def test_parking_batch_matches_random_arrival_mode(seed, n, m, reps):
    want, got, same_next = _same_draws(
        lambda r: [ref_parking_simulate(n, m, r).success for _ in range(reps)],
        lambda r: walks.parking_success_batch(n, m, reps, r).tolist(), seed, 8)
    assert want == got
    assert same_next


@pytest.mark.parametrize("n,m", [(2, 2), (10, 5), (50, 25), (8, 11)])
def test_parking_prefix_blocks_match_replay(monkeypatch, n, m):
    # row blocks of a few rows cut the arrival draw; outcomes are per row
    monkeypatch.setattr(rng_module, "_BLOCK_VALUES", 3 * max(n, m) + 5)
    reps = 700
    arrivals = make_stream(9, n).gen.integers(1, n + 1, size=(reps, m))
    got = walks.parking_success_batch(n, m, reps, make_stream(9, n))
    assert got.tolist() == [parking_simulate(n, row).success for row in arrivals]


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
        assert walks.good_shift_count(path.increments[None])[0] == ref_good_shift_count(path)
    # rows with different totals are counted in one call
    mixed = np.array([[-1, 0, 0], [-1, -1, 1], [-1, -1, -1]])
    assert walks.good_shift_count(mixed).tolist() == [1, 1, 3]


# ---------------------------------------------------------------------------
# Splitting trees: the batch jump chain against loops on the same draws, in
# law against the one-tree loop, and its consumers on the same record


def _tree_dicts(forest):
    """Each tree of a batch record as the reference loops' fields."""
    k, out, start = forest.order, [], 0
    for jumps in forest.n_jumps.tolist():
        out.append({"jump_times": forest.jump_times[start:start + jumps],
                    "split_particles": forest.split_particles[start:start + jumps],
                    "first_child": np.arange(jumps, dtype=np.int64) * k + 1})
        start += jumps
    return out


def _forest(k, trees):
    """A batch record holding the given trees, in order."""
    return growth.YuleForest(
        k, np.concatenate([[]] + [tree["jump_times"] for tree in trees]),
        np.concatenate([np.zeros(0, np.int64)]
                       + [tree["split_particles"] for tree in trees]),
        np.array([len(tree["jump_times"]) for tree in trees], dtype=np.int64))


def ref_alive_line_stats(tree):
    """Line statistics of a replayed tree's living, by particle id."""
    alive = sorted(tree["alive"])
    return ([tree["n_last"][v] for v in alive], [tree["n_other"][v] for v in alive])


STOPS = [{"t": 0.0}, {"t": 1.0}, {"t": 3.0}, {"n_particles": 1}, {"n_particles": 2},
         {"n_particles": 40}]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("stop", STOPS)
def test_yule_simulate_matches_particle_record_loop(seed, k, stop):
    reps = 10
    want, got, same_next = _same_draws(
        lambda r: ref_yule_rounds(k, reps, r, **stop),
        lambda r: growth.yule_simulate(k, reps, r, **stop), seed, 10)
    assert got.order == k and got.n_jumps.size == reps
    assert got.n_jumps.dtype == got.split_particles.dtype == np.int64
    assert got.n_jumps.tolist() == [len(tree["jump_times"]) for tree in want]
    for old, new in zip(want, _tree_dicts(got)):
        assert np.array_equal(new["jump_times"], old["jump_times"])
        assert np.array_equal(new["split_particles"], old["split_particles"])
    assert same_next


@pytest.mark.parametrize("rows", [1, 7, 64])
def test_yule_simulate_matches_the_loop_in_small_draw_blocks(monkeypatch, rows):
    # the draw budget caps a round at `rows` values per tree
    monkeypatch.setattr(rng_module, "_BLOCK_VALUES", rows * 30)
    for seed, stop in zip(SEEDS, ({"t": 2.0}, {"n_particles": 40}, {"t": 0.5})):
        want, got, same_next = _same_draws(
            lambda r: ref_yule_rounds(3, 30, r, **stop),
            lambda r: growth.yule_simulate(3, 30, r, **stop), seed, 10)
        assert got.n_jumps.tolist() == [len(tree["jump_times"]) for tree in want]
        assert np.array_equal(got.split_particles, np.concatenate(
            [tree["split_particles"] for tree in want]))
        assert same_next


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("t", [0.0, 1.0, 3.0])
def test_population_line_stats_match_own_loop(seed, k, t):
    # the batch statistics of one record against the replay's, tree by tree
    want, got, _ = _same_draws(lambda r: ref_yule_rounds(k, 10, r, t=t),
                               lambda r: growth.yule_simulate(k, 10, r, t=t), seed, 11)
    last, other = growth._alive_line_stats(got)
    assert last.dtype == other.dtype == np.int64
    want_last, want_other = [], []
    for tree in want:
        tree_last, tree_other = ref_alive_line_stats(tree)
        want_last += tree_last
        want_other += tree_other
    assert last.tolist() == want_last
    assert other.tolist() == want_other


def _ref_many_to_one(k, t, functionals, blocks, r):
    lhs = {f: [] for f in functionals}
    for reps in blocks:
        for tree in ref_yule_rounds(k, reps, r, t=t):
            last, other = ref_alive_line_stats(tree)
            for f in functionals:
                lhs[f].append(float(growth._functional_indicator(*f, last, other).sum()))
    n = sum(blocks)
    n_last, n_other = r.gen.poisson(t, n), r.gen.poisson((k - 1) * t, n)
    rhs = {f: (math.exp((k - 1) * t)
               * growth._functional_indicator(*f, n_last, n_other)).tolist()
           for f in functionals}
    return lhs, rhs


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k,t,functional", [(2, 3.0, ("height-at-least", 6)),
                                            (3, 1.0, ("degree-at-least", 2)),
                                            (2, 0.0, ("constant-1", 0))])
def test_many_to_one_rep_matches_population_then_line(seed, k, t, functional):
    params = {"k": k, "t": t, "functional": functional[0], "arg": functional[1]}

    def ref(r):
        lhs, rhs = _ref_many_to_one(k, t, [functional], [1], r)
        return lhs[functional][0], rhs[functional][0]
    want, got, same_next = _same_draws(
        ref, lambda r: experiments.REGISTRY["many-to-one"].rep_fn(params, r), seed, 12)
    assert want == got
    assert same_next


def test_many_to_one_blocks_match_per_tree_loops():
    # k = 3, t = 3 holds floor(2^16 / E[J]) = 325 trees per block
    functionals = [("constant-1", 0), ("degree-at-least", 4), ("height-at-least", 6)]
    assert int(growth._BLOCK_JUMPS / growth._mean_jumps(3, 3.0)) == 325
    want, got, same_next = _same_draws(
        lambda r: _ref_many_to_one(3, 3.0, functionals, [325, 325, 50], r),
        lambda r: growth.many_to_one_samples(3, 3.0, functionals, 700, r), 5, 12)
    for side in (0, 1):
        for f in functionals:
            assert got[side][f].tolist() == want[side][f]
    assert same_next


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [0, 1, 2, 4, 5, 30, 39])
def test_yule_to_rrt_matches_block_dictionary(seed, n):
    rng = make_stream(seed, 13)
    stopped = [growth.yule_simulate(2, 5, rng, n_particles=n + 1 + extra)
               for extra in (0, 1, 7)]
    timed = [tree for tree in _tree_dicts(growth.yule_simulate(2, 40, rng, t=3.5))
             if len(tree["jump_times"]) >= n]
    for forest in stopped + [_forest(2, timed)]:
        got = growth.yule_to_rrt(forest, n)
        assert got.dtype == np.int64 and got.shape == (forest.n_jumps.size, n + 1)
        for row, tree in zip(got, _tree_dicts(forest)):
            assert np.array_equal(row, ref_yule_to_rrt(tree, n))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 2, 4, 5, 30, 39])
def test_yule3_to_ba_matches_block_dictionaries(seed, n):
    rng = make_stream(seed, 14)
    for sizes in ((2 * n + 1, 2 * n + 1), (1, 2 * n + 1), (2 * n + 1, 1), (n, n + 3)):
        pairs = list(zip(*[_tree_dicts(growth.yule_simulate(3, 6, rng, n_particles=m))
                           for m in sizes]))
        if sum(len(tree["jump_times"]) for tree in pairs[0]) < n - 1:
            continue
        got = growth.yule3_to_ba(_forest(3, [tree for pair in pairs for tree in pair]), n)
        assert got.dtype == np.int64 and got.shape == (6, n + 1)
        for row, pair in zip(got, pairs):
            assert np.array_equal(row, ref_yule3_to_ba(*pair, n))


def test_contractions_match_on_the_acceptance_shapes():
    # criterion 14 contracts order-2 trees at n = 3, criterion 15 pairs of
    # order-3 trees at n = 4
    rng = make_stream(0, 143)
    forest = growth.yule_simulate(2, 3000, rng, n_particles=4)
    for row, tree in zip(growth.yule_to_rrt(forest, 3), _tree_dicts(forest)):
        assert np.array_equal(row, ref_yule_to_rrt(tree, 3))
    forest = growth.yule_simulate(3, 6000, rng, n_particles=7)
    trees = _tree_dicts(forest)
    for row, pair in zip(growth.yule3_to_ba(forest, 4), zip(trees[::2], trees[1::2])):
        assert np.array_equal(row, ref_yule3_to_ba(*pair, 4))


@pytest.mark.parametrize("k,t", [(2, 1.0), (3, 1.0), (4, 1.0)])
def test_yule_jump_count_is_negative_binomial(k, t):
    # the count of jumps by t is NegBin(1/(k-1), e^{-(k-1)t}) (Kendall 1966)
    jumps = growth.yule_simulate(k, 20_000, make_stream(7, 20 + k), t=t).n_jumps
    r, p = 1.0 / (k - 1), math.exp(-(k - 1) * t)
    report = chi_square_gof(jumps, sps.nbinom.pmf(np.arange(jumps.max() + 1), r, p),
                            alpha_level=0.01)
    assert report.passed, (report.statistic, report.threshold)


@pytest.mark.parametrize("k,t", [(2, 1.0), (3, 1.0), (4, 0.5)])
def test_yule_jump_times_are_order_statistics_given_the_count(k, t):
    # given J jumps, the times are the order statistics of J iid draws with
    # density proportional to e^{(k-1)s} on [0, t]
    forest = growth.yule_simulate(k, 5_000, make_stream(7, 30 + k), t=t)
    tree = np.repeat(np.arange(forest.n_jumps.size), forest.n_jumps)
    assert np.all(np.diff(forest.jump_times)[tree[1:] == tree[:-1]] >= 0.0)
    assert forest.jump_times.min() >= 0.0 and forest.jump_times.max() <= t
    rate = k - 1
    report = ks_test(np.sort(forest.jump_times),
                     lambda s: np.expm1(rate * s) / math.expm1(rate * t), alpha_level=0.01)
    assert report.passed, (report.statistic, report.threshold)


@pytest.mark.parametrize("k,stop", [(2, {"t": 0.7}), (3, {"t": 0.4}),
                                    (3, {"n_particles": 7}), (4, {"n_particles": 7})])
def test_yule_small_tree_shapes_match_the_loop(k, stop):
    # a tree's shape is its sequence of splitting particles
    reps = 20_000
    rng = make_stream(7, 40 + k)
    old = [tuple(ref_yule_simulate(k, rng, **stop)["split_particles"].tolist())
           for _ in range(reps)]
    new = [tuple(tree["split_particles"].tolist())
           for tree in _tree_dicts(growth.yule_simulate(k, reps, rng, **stop))]
    cells = {shape: i for i, shape in enumerate(sorted(set(old) | set(new)))}
    count = [np.bincount([cells[shape] for shape in side], minlength=len(cells))
             for side in (old, new)]
    report = chi_square_two_sample(*count, alpha_level=0.01)
    assert report.df >= 3
    assert report.passed, (report.statistic, report.threshold)


def test_rrt_contraction_is_uniform_at_n3():
    # the 6 increasing trees on vertices 0..3 are equally likely
    parent = growth.yule_to_rrt(
        growth.yule_simulate(2, 60_000, make_stream(7, 50), n_particles=4), 3)
    assert np.all(parent[:, 1] == 0)
    counts = np.bincount(parent[:, 2] * 3 + parent[:, 3], minlength=6)
    assert counts.size == 6
    report = chi_square_counts(counts, np.full(6, 1 / 6), alpha_level=0.01)
    assert report.passed, (report.statistic, report.threshold)


# ---------------------------------------------------------------------------
# Total progeny sizes in blocks of the draw budget


BGW_LAWS = [OffspringLaw.poisson(0.8), OffspringLaw.poisson(1.0),
            OffspringLaw.geometric(0.5), OffspringLaw.binomial(2, 0.5),
            OffspringLaw.from_pmf({0: 0.4, 1: 0.3, 3: 0.3})]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("law", BGW_LAWS, ids=lambda law: law.kind)
@pytest.mark.parametrize("reps,cap", [(1, 64), (37, 100), (5000, 4096),
                                      (20_000, 300)])
def test_bgw_total_sizes_match_one_matrix_per_round(seed, law, reps, cap):
    want, got, same_next = _same_draws(
        lambda r: ref_bgw_total_sizes(law, reps, r, cap=cap),
        lambda r: trees.bgw_total_sizes(law, reps, r, cap=cap), seed, 15)
    assert got.dtype == np.int64
    assert np.array_equal(want, got)
    assert same_next


@pytest.mark.parametrize("law", BGW_LAWS, ids=lambda law: law.kind)
def test_bgw_total_sizes_match_in_blocks_of_seven_values(monkeypatch, law):
    monkeypatch.setattr(rng_module, "_BLOCK_VALUES", 7)
    for seed in SEEDS:
        want, got, same_next = _same_draws(
            lambda r: ref_bgw_total_sizes(law, 60, r, cap=512),
            lambda r: trees.bgw_total_sizes(law, 60, r, cap=512), seed, 16)
        assert np.array_equal(want, got)
        assert same_next


# ---------------------------------------------------------------------------
# Registry replicates against one-chain references


def ref_pills(n, rng):
    """One jar by the two-clock embedding, in scalars."""
    log_rest = np.log1p(-rng.gen.random()) / n
    m = -np.expm1(log_rest)
    q = -m * np.log(m) / np.exp(log_rest) if m > 0.0 else 0.0
    return 1 + int(rng.gen.binomial(n - 1, q))


def ref_ok_corral(n, rng):
    """One duel, one uniform per shot."""
    a = b = n
    while a and b:
        if rng.gen.random() * (a + b) < b:
            a -= 1
        else:
            b -= 1
    return a + b


def ref_max_load(n, rng):
    return max(collections.Counter(rng.gen.integers(0, n, size=n).tolist()).values())


REGISTRY_REFERENCES = {
    "bgw-size": ({"law": "geometric", "param": 0.5, "cap": 4096},
                 lambda r: float(ref_bgw_total_sizes(OffspringLaw.geometric(0.5),
                                                     1, r)[0])),
    "bins": ({"n": 500}, lambda r: float(ref_max_load(500, r))),
    "corral": ({"n": 40}, lambda r: float(ref_ok_corral(40, r))),
    "coupon": ({"n": 30}, lambda r: float(ref_coupon_collector(30, r))),
    "cycles": ({"n": 200}, lambda r: float(len(ref_feller_cycles(200, r)))),
    "parking": ({"n": 10, "m": 10},
                lambda r: float(ref_parking_simulate(10, 10, r).success)),
    "pills": ({"n": 25}, lambda r: float(ref_pills(25, r))),
    "poisson-dirichlet": ({"n": 300},
                          lambda r: float(ref_longest_cycle_stats(300, 1, r)[0])),
    "yule": ({"k": 3, "t": 1.5},
             lambda r: float(len(ref_yule_rounds(3, 1, r, t=1.5)[0]["alive"]))),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(REGISTRY_REFERENCES))
def test_registry_rep_matches_one_chain_reference(seed, name):
    # every registry sampler draws one replicate as its one-row batch form
    params, ref = REGISTRY_REFERENCES[name]
    rep_fn = experiments.REGISTRY[name].rep_fn
    want, got, same_next = _same_draws(
        lambda r: [(ref(r),) for _ in range(6)],
        lambda r: [rep_fn(params, r) for _ in range(6)], seed, 17)
    assert want == got
    assert same_next
