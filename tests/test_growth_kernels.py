"""The array kernels of randstruct.growth against the loop implementations
they replaced, kept here as references.  Every kernel but the pills sampler
makes the same draws in the same order, so on the same stream it must give
bit-identical output and leave the stream at the same position (the next
draw is the same).  The pills sampler draws the chain's law as a mixture, so
it is tested in law against the step loop and the exact chain recurrence."""

import tracemalloc

import numpy as np
import pytest
from stats_helpers import chi_square_two_sample
from test_exact import _pills_law_fraction

from randstruct import growth, rng as rng_module
from randstruct.errors import InvalidParameterError
from randstruct.growth import GrowingTree
from randstruct.rng import make_stream
from randstruct.stats import chi_square_gof

# ---------------------------------------------------------------------------
# Reference implementations


def ref_ba_chain(n, rng):
    """Slot-array loop: slot 2i-2 copies vertex i's parent, slot 2i-1 is i."""
    parent = np.empty(n + 1, dtype=np.int64)
    parent[0] = -1
    parent[1] = 0
    if n == 1:
        return parent
    picks = rng.gen.integers(0, 2 * np.arange(1, n, dtype=np.int64))
    slots = [0] * (2 * n)
    slots[1] = 1
    for i, r in enumerate(picks, start=2):
        chosen = slots[r]
        parent[i] = chosen
        slots[2 * i - 2] = chosen
        slots[2 * i - 1] = i
    return parent


def ref_ba_chain_batch_tiled(n, reps, rng):
    """The picks from tiled bounds, the copies resolved through separate
    target and copy arrays."""
    parent = np.empty((reps, n + 1), dtype=np.int64)
    parent[:, 0] = -1
    parent[:, 1] = 0
    if n > 1 and reps:
        picks = rng.gen.integers(0, np.tile(np.arange(2, 2 * n, 2), (reps, 1)))
        target = picks // 2 + 1
        copied = -(target + np.arange(0, reps * (n + 1), n + 1)[:, None])
        parent[:, 2:] = np.where(picks & 1, target, copied)
        flat = parent.reshape(-1)
        rows, cols = (parent[:, 2:] < 0).nonzero()
        todo = rows * (n + 1) + cols + 2
        while todo.size:
            jumped = flat[-flat[todo]]
            flat[todo] = jumped
            todo = todo[jumped < 0]
    return parent


def ref_depths(parent):
    par = parent.tolist()
    depth = [0] * len(par)
    for i in range(1, len(par)):
        depth[i] = depth[par[i]] + 1
    return np.array(depth, dtype=np.int64)


def ref_pills_batch(n, reps, rng):
    """One draw per running jar per step, compacting after every step."""
    whole = np.full(reps, n, dtype=np.int64)
    half = np.zeros(reps, dtype=np.int64)
    active = np.arange(reps)
    while active.size:
        u = rng.gen.random(active.size)
        total = whole[active] + half[active]
        draw_whole = u * total < whole[active]
        whole[active] -= draw_whole
        half[active] += 2 * draw_whole - 1
        active = active[whole[active] > 0]
    return half


def ref_ok_corral_batch(n, reps, rng):
    a = np.full(reps, n, dtype=np.int64)
    b = np.full(reps, n, dtype=np.int64)
    active = np.arange(reps)
    while active.size:
        u = rng.gen.random(active.size)
        total = a[active] + b[active]
        hit_a = u * total < b[active]
        a[active] -= hit_a
        b[active] -= ~hit_a
        alive = (a[active] > 0) & (b[active] > 0)
        active = active[alive]
    return a + b


def ref_coupon_collector_batch(n, reps, rng, block=256):
    out = np.empty(reps, dtype=np.int64)
    done = 0
    p = (n - np.arange(n)) / n
    while done < reps:
        b = min(block, reps - done)
        out[done:done + b] = rng.gen.geometric(p, size=(b, n)).sum(axis=1)
        done += b
    return out


def _same_draws(ref, new, seed=5, index=3):
    """Run both on fresh copies of one stream; return the outputs and whether
    the streams end at the same position."""
    r1, r2 = make_stream(seed, index), make_stream(seed, index)
    want, got = ref(r1), new(r2)
    return want, got, r1.gen.random() == r2.gen.random()


# ---------------------------------------------------------------------------
# Bit identity


@pytest.mark.parametrize("n", [1, 2, 3, 4, 10, 10_000, 1_000_000])
def test_ba_chain_matches_slot_loop(n):
    want, got, same_next = _same_draws(lambda r: ref_ba_chain(n, r),
                                       lambda r: growth.ba_chain(n, r).parent,
                                       seed=n)
    assert got.dtype == np.int64
    assert np.array_equal(want, got)
    assert same_next


@pytest.mark.parametrize("n,reps", [(n, reps) for n in (1, 2, 4)
                                    for reps in (0, 1, 50_000)]
                         + [(100_000, 0), (100_000, 1), (100_000, 3)])
def test_ba_chain_batch_matches_looped_chain(n, reps):
    want, got, same_next = _same_draws(
        lambda r: np.array([growth.ba_chain(n, r).parent for _ in range(reps)],
                           dtype=np.int64).reshape(reps, n + 1),
        lambda r: growth.ba_chain_batch(n, reps, r), seed=n, index=reps)
    assert got.dtype == np.int64
    assert np.array_equal(want, got)
    assert same_next


@pytest.mark.parametrize("n,reps", [(1, 3), (2, 0), (2, 3), (2, 5), (9, 0), (9, 4),
                                    (1000, 3), (1000, 30), (100_000, 8),
                                    (100_000, 50), (6, 1_000_000)])
def test_ba_chain_batch_matches_tiled_bounds(n, reps):
    want, got, same_next = _same_draws(
        lambda r: ref_ba_chain_batch_tiled(n, reps, r),
        lambda r: growth.ba_chain_batch(n, reps, r), seed=n, index=reps)
    assert np.array_equal(want, got)
    assert same_next


def test_ba_chain_batch_memory_is_bounded_by_its_output():
    # the tiled bounds, the target and copy arrays and the np.where result
    # each took one more output's worth
    n, reps = 100_000, 8
    tracemalloc.start()
    try:
        out = growth.ba_chain_batch(n, reps, make_stream(3, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * out.nbytes, peak / out.nbytes


def test_ba_chain_batch_argument_checks():
    with pytest.raises(InvalidParameterError):
        growth.ba_chain_batch(0, 3, make_stream(5, 0))
    with pytest.raises(InvalidParameterError):
        growth.ba_chain_batch(4, -1, make_stream(5, 0))


def test_rrt_chain_batch_argument_checks():
    with pytest.raises(InvalidParameterError):
        growth.rrt_chain_batch(-1, 3, make_stream(5, 0))
    with pytest.raises(InvalidParameterError):
        growth.rrt_chain_batch(4, -1, make_stream(5, 0))
    with pytest.raises(InvalidParameterError):
        growth.rrt_chain(-1, make_stream(5, 0))


@pytest.mark.parametrize("chain", [growth.rrt_chain, growth.ba_chain])
@pytest.mark.parametrize("n", [1, 2, 50, 100_000])
def test_depths_match_loop(chain, n):
    tree = chain(n, make_stream(9, n))
    got = tree.depths()
    assert got.dtype == np.int64
    assert np.array_equal(got, ref_depths(tree.parent))
    assert tree.height() == int(ref_depths(tree.parent).max())


def test_depths_of_a_path_and_a_star():
    path = GrowingTree(np.arange(-1, 999))
    assert np.array_equal(path.depths(), np.arange(1000))
    star = GrowingTree(np.array([-1] + [0] * 999))
    assert np.array_equal(star.depths(), np.r_[0, np.ones(999, dtype=np.int64)])


def test_pills_batch_matches_step_loop_in_law():
    n, reps = 3000, 20_000
    chain = ref_pills_batch(n, reps, make_stream(5, 3))
    mixture = growth.pills_batch(n, reps, make_stream(5, 4))
    assert mixture.dtype == np.int64
    hi = int(max(chain.max(), mixture.max()))
    report = chi_square_two_sample(np.bincount(chain, minlength=hi + 1),
                                   np.bincount(mixture, minlength=hi + 1),
                                   alpha_level=0.01)
    assert report.passed, (report.statistic, report.threshold)


@pytest.mark.parametrize("n", [2, 3, 7, 20])
def test_pills_batch_matches_exact_chain_law(n):
    law = _pills_law_fraction(n)
    leftovers = growth.pills_batch(n, 50_000, make_stream(5, n))
    report = chi_square_gof(leftovers, [float(law.get(k, 0)) for k in range(n + 1)],
                            alpha_level=0.01)
    assert report.passed, (report.statistic, report.threshold)


@pytest.mark.parametrize("n,reps", [(2, 5), (3, 1), (10_000, 2000)])
def test_ok_corral_batch_matches_step_loop(n, reps):
    want, got, same_next = _same_draws(lambda r: ref_ok_corral_batch(n, reps, r),
                                       lambda r: growth.ok_corral_batch(n, reps, r))
    assert got.dtype == np.int64
    assert np.array_equal(want, got)
    assert same_next


@pytest.mark.parametrize("cap", [1, 7, 100])
@pytest.mark.parametrize("n,reps", [(40, 3), (300, 25)])
def test_batch_chains_match_with_a_small_block_cap(monkeypatch, cap, n, reps):
    # a cap below the number of running chains forces one-row blocks
    monkeypatch.setattr(rng_module, "_BLOCK_VALUES", cap)
    want, got, same_next = _same_draws(lambda r: ref_ok_corral_batch(n, reps, r),
                                       lambda r: growth.ok_corral_batch(n, reps, r))
    assert np.array_equal(want, got)
    assert same_next


def test_coupon_collector_draws_do_not_depend_on_block_size(monkeypatch):
    n, reps = 50, 3000
    want, got, same_next = _same_draws(
        lambda r: ref_coupon_collector_batch(n, reps, r),
        lambda r: growth.coupon_collector_batch(n, reps, r))
    assert np.array_equal(want, got)
    assert same_next
    for rows in (7, 104, 256, 2000):
        monkeypatch.setattr(rng_module, "_BLOCK_VALUES", rows * n)
        _, blocked, same_next = _same_draws(
            lambda r: ref_coupon_collector_batch(n, reps, r, block=rows),
            lambda r: growth.coupon_collector_batch(n, reps, r))
        assert np.array_equal(want, blocked)
        assert same_next


# ---------------------------------------------------------------------------
# Trees from the samplers, and parameter checks


def _sampled_trees():
    rng = make_stream(2, 0)
    yield growth.rrt_chain(0, rng)
    for n in (1, 2, 3, 50, 5000):
        yield growth.rrt_chain(n, rng)
        yield growth.ba_chain(n, rng)
    for n in (1, 2, 30):
        forest = growth.yule_simulate(2, 3, rng, n_particles=n + 1)
        yield from map(GrowingTree._grown, growth.yule_to_rrt(forest, n))
        forest = growth.yule_simulate(3, 6, rng, n_particles=2 * n + 1)
        yield from map(GrowingTree._grown, growth.yule3_to_ba(forest, n))


def test_sampler_trees_pass_the_public_checks():
    # the samplers skip the constructor's checks; their trees must pass them
    for tree in _sampled_trees():
        assert tree.parent.dtype == np.int64
        checked = GrowingTree(tree.parent.copy())
        assert np.array_equal(checked.parent, tree.parent)
        line = growth.growing_tree_to_line(tree)
        assert np.array_equal(growth.growing_tree_from_line(line).parent,
                              tree.parent)


@pytest.mark.parametrize("fn", [growth.pills_batch, growth.ok_corral_batch,
                                growth.coupon_collector_batch])
def test_batch_classics_validate_n_and_reps(fn):
    rng = make_stream(1, 0)
    for n in (-1, 0, 1):
        with pytest.raises(InvalidParameterError):
            fn(n, 3, rng)
    with pytest.raises(InvalidParameterError):
        fn(5, -1, rng)
    assert fn(5, 0, rng).shape == (0,)


# ---------------------------------------------------------------------------
# Memory


@pytest.mark.parametrize("fn,n,reps", [(growth.pills_batch, 100_000, 10_000),
                                       (growth.ok_corral_batch, 10_000, 10_000)])
def test_batch_chain_memory_is_reps_plus_one_block(fn, n, reps):
    # without the draw cap the first block at pills n = 10^5 would hold
    # 10^5 x 10^4 doubles (8 GB); with it the peak is a few arrays of reps
    # values plus one block of 2^20 doubles (8 MiB)
    block = 8 * rng_module._BLOCK_VALUES
    tracemalloc.start()
    try:
        out = fn(n, reps, make_stream(3, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (reps,)
    assert peak <= block + 64 * reps + (1 << 20), peak
