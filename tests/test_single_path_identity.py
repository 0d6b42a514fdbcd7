"""Each sampler law has one code path; the twins it replaced are kept here as
references.  Every reference makes the same draws in the same order as the
path that replaced it, so on the same stream both must give bit-identical
output and leave the stream at the same position (the next draw is equal)."""

import collections
import math

import numpy as np
import pytest

from randstruct import (exact, experiments, growth, permutations as perms,
                        rng as rng_module, trees, walks)
from randstruct.exact import OffspringLaw
from randstruct.permutations import CycleStructure
from randstruct.rng import make_stream
from randstruct.walks import LatticePath

# ---------------------------------------------------------------------------
# Reference implementations


def ref_feller_cycles(n, rng):
    """Integer stick breaking, one scalar draw per cycle."""
    lengths, left = [], n
    while left:
        gap = int(rng.gen.integers(1, left + 1))
        lengths.append(gap)
        left -= gap
    return CycleStructure(tuple(lengths))


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


def ref_yule_simulate(k, rng, t=None, n_particles=None):
    # the per-particle record: parent, position, birth time and first child
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


def ref_population_line_stats(k, t, rng):
    # its own jump-chain loop; the k-th child takes the parent's slot
    n_last, n_other, alive = [0], [0], [0]
    now = 0.0
    while True:
        count = len(alive)
        wait = rng.gen.exponential(1.0 / count)
        pick = int(rng.gen.integers(0, count))
        if now + wait > t:
            break
        now += wait
        u = alive[pick]
        base = len(n_last)
        for pos in range(1, k + 1):
            n_last.append(n_last[u] + (pos == k))
            n_other.append(n_other[u] + (pos != k))
        alive[pick] = base + k - 1
        alive.extend(range(base, base + k - 1))
    return (np.array([n_last[u] for u in alive]),
            np.array([n_other[u] for u in alive]))


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
    want, got, same_next = _same_draws(many(ref_feller_cycles),
                                       many(perms.feller_cycles), seed, n)
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
                                          (100_000, 6, 210)])
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


# ---------------------------------------------------------------------------
# Splitting trees: one jump-chain loop, one contraction


def _particle_record(tree):
    """The old per-particle fields, derived from the jump chain."""
    k = tree.order
    ids = np.arange(1, 1 + tree.n_jumps * k)
    jump = (ids - 1) // k
    return {"parent": np.concatenate([[-1], tree.split_particles[jump]]),
            "position": np.concatenate([[0], (ids - 1) % k + 1]),
            "birth_time": np.concatenate([[0.0], tree.jump_times[jump]]),
            "first_child": np.arange(tree.n_jumps, dtype=np.int64) * k + 1}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("stop", [{"t": 0.0}, {"t": 1.0}, {"t": 3.0},
                                  {"n_particles": 1}, {"n_particles": 2},
                                  {"n_particles": 40}])
def test_yule_simulate_matches_particle_record_loop(seed, k, stop):
    calls = 10
    want, got, same_next = _same_draws(
        lambda r: [ref_yule_simulate(k, r, **stop) for _ in range(calls)],
        lambda r: [growth.yule_simulate(k, r, **stop) for _ in range(calls)],
        seed, 10)
    for old, new in zip(want, got):
        for name in ("jump_times", "split_particles", "alive"):
            assert getattr(new, name).dtype == old[name].dtype
            assert np.array_equal(getattr(new, name), old[name])
        for name, value in _particle_record(new).items():
            assert np.array_equal(value, old[name])
    assert same_next


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("t", [0.0, 1.0, 3.0])
def test_population_line_stats_match_own_loop(seed, k, t):
    # the old loop counted the k-th child, which took the parent's slot; the
    # jump chain puts the first child there, so position 1 is counted
    calls = 10
    want, got, same_next = _same_draws(
        lambda r: [ref_population_line_stats(k, t, r) for _ in range(calls)],
        lambda r: [growth._alive_line_stats(growth.yule_simulate(k, r, t=t))
                   for _ in range(calls)], seed, 11)
    for (old_last, old_other), (last, other) in zip(want, got):
        assert last.dtype == old_last.dtype and other.dtype == old_other.dtype
        assert np.array_equal(last, old_last)
        assert np.array_equal(other, old_other)
    assert same_next


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k,t,functional", [(2, 3.0, ("height-at-least", 6)),
                                            (3, 1.0, ("degree-at-least", 2)),
                                            (2, 0.0, ("constant-1", 0))])
def test_many_to_one_rep_matches_population_then_line(seed, k, t, functional):
    params = {"k": k, "t": t, "functional": functional[0], "arg": functional[1]}

    def ref(r):
        last, other = ref_population_line_stats(k, t, r)
        lhs = growth._functional_indicator(*functional, last, other).sum()
        last, other = growth._spine_line_stats(k, t, r)
        rhs = math.exp((k - 1) * t) * float(
            growth._functional_indicator(*functional, last, other)[()])
        return float(lhs), rhs
    want, got, same_next = _same_draws(
        ref, lambda r: experiments.REGISTRY["many-to-one"].rep_fn(params, r), seed, 12)
    assert want == got
    assert same_next


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [0, 1, 2, 4, 5, 30, 39])
def test_yule_to_rrt_matches_block_dictionary(seed, n):
    for extra in (0, 1, 7):
        r1, r2 = make_stream(seed, 13), make_stream(seed, 13)
        old = ref_yule_simulate(2, r1, n_particles=n + 1 + extra)
        new = growth.yule_simulate(2, r2, n_particles=n + 1 + extra)
        got = growth.yule_to_rrt(new, n).parent
        assert got.dtype == np.int64
        assert np.array_equal(got, ref_yule_to_rrt(old, n))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 2, 4, 5, 30, 39])
def test_yule3_to_ba_matches_block_dictionaries(seed, n):
    for sizes in ((2 * n + 1, 2 * n + 1), (1, 2 * n + 1), (2 * n + 1, 1), (n, n + 3)):
        r1, r2 = make_stream(seed, 14), make_stream(seed, 14)
        old = [ref_yule_simulate(3, r1, n_particles=m) for m in sizes]
        new = [growth.yule_simulate(3, r2, n_particles=m) for m in sizes]
        if sum(tree.n_jumps for tree in new) < n - 1:
            continue
        got = growth.yule3_to_ba(*new, n).parent
        assert got.dtype == np.int64
        assert np.array_equal(got, ref_yule3_to_ba(*old, n))


def test_contractions_match_on_the_acceptance_shapes():
    # criterion 14 contracts order-2 trees at n = 3, criterion 15 pairs of
    # order-3 trees at n = 4
    calls = 20
    for seed in range(50):
        want, got, same_next = _same_draws(
            lambda r: [ref_yule_to_rrt(ref_yule_simulate(2, r, n_particles=4), 3)
                       for _ in range(calls)],
            lambda r: [growth.yule_to_rrt(growth.yule_simulate(2, r, n_particles=4),
                                          3).parent for _ in range(calls)], seed, 143)
        assert all(np.array_equal(a, b) for a, b in zip(want, got))
        assert same_next
        want, got, same_next = _same_draws(
            lambda r: [ref_yule3_to_ba(ref_yule_simulate(3, r, n_particles=7),
                                       ref_yule_simulate(3, r, n_particles=7), 4)
                       for _ in range(calls)],
            lambda r: [growth.yule3_to_ba(growth.yule_simulate(3, r, n_particles=7),
                                          growth.yule_simulate(3, r, n_particles=7),
                                          4).parent for _ in range(calls)], seed, 152)
        assert all(np.array_equal(a, b) for a, b in zip(want, got))
        assert same_next


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


def ref_yule_count(k, t, rng):
    """Particles at time t, one exponential wait per split."""
    count, clock = 1, 0.0
    while True:
        clock += rng.gen.exponential(1.0 / count)
        if clock > t:
            return count
        count += k - 1


def ref_max_load(n, rng):
    return max(collections.Counter(rng.gen.integers(0, n, size=n).tolist()).values())


REGISTRY_REFERENCES = {
    "bgw-size": ({"law": "geometric", "param": 0.5, "cap": 4096},
                 lambda r: float(ref_bgw_total_sizes(OffspringLaw.geometric(0.5),
                                                     1, r)[0])),
    "bins": ({"n": 500}, lambda r: float(ref_max_load(500, r))),
    "corral": ({"n": 40}, lambda r: float(ref_ok_corral(40, r))),
    "coupon": ({"n": 30}, lambda r: float(ref_coupon_collector(30, r))),
    "cycles": ({"n": 200}, lambda r: float(ref_feller_cycles(200, r).n_cycles)),
    "parking": ({"n": 10, "m": 10},
                lambda r: float(ref_parking_simulate(10, 10, r).success)),
    "pills": ({"n": 25}, lambda r: float(ref_pills(25, r))),
    "poisson-dirichlet": ({"n": 300},
                          lambda r: float(ref_longest_cycle_stats(300, 1, r)[0])),
    "yule": ({"k": 3, "t": 1.5}, lambda r: float(ref_yule_count(3, 1.5, r))),
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
