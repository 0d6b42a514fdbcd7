import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from parking_helpers import parking_simulate

from randstruct import exact, walks
from randstruct.errors import InvalidParameterError
from randstruct.rng import make_stream
from randstruct.stats import chi_square_gof, ks_test
from randstruct.exact import OffspringLaw
from randstruct.walks import LatticePath

PM_ONE = OffspringLaw.from_pmf({0: Fraction(1, 2), 2: Fraction(1, 2)})


def test_path_rejects_deep_jumps():
    with pytest.raises(InvalidParameterError):
        LatticePath([0, -2, 1])


@given(st.lists(st.integers(min_value=-1, max_value=4), max_size=30))
def test_prefix_sums_match_cumsum(increments):
    path = LatticePath(increments)
    assert np.array_equal(path.prefix_sums(), np.cumsum(increments))


def test_sample_path_delta_minus_one():
    law = OffspringLaw.from_pmf({0: 1})
    path = walks.sample_path(law, 3, make_stream(0, 0))
    assert path.increments.tolist() == [-1, -1, -1]


def test_sample_path_pm_one_mean():
    path = walks.sample_path(PM_ONE, 1_000_000, make_stream(0, 1))
    mean = path.increments.mean()
    assert abs(mean) < 4 / math.sqrt(path.n)


def test_sample_path_poisson_mean():
    law = OffspringLaw.poisson(2.0)
    path = walks.sample_path(law, 100_000, make_stream(0, 2))
    se = path.increments.std() / math.sqrt(path.n)
    assert abs(path.increments.mean() - 1.0) < 4 * se


def test_good_shift_examples():
    assert walks.good_shift_count(LatticePath([1, -1, -1]).increments[None])[0] == 1
    assert walks.good_shift_count(LatticePath([-1, -1]).increments[None])[0] == 2
    assert walks.good_shift_count(LatticePath([1, -1, 1, -1, -1, -1]).increments[None])[0] == 2


def test_good_shift_requires_negative_total():
    with pytest.raises(InvalidParameterError):
        walks.good_shift_count(LatticePath([1, -1]).increments[None])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-1, max_value=3), min_size=1, max_size=12))
def test_good_shift_count_always_k(increments):
    total = sum(increments)
    if total >= 0:
        return
    assert walks.good_shift_count(LatticePath(increments).increments[None])[0] == -total


def test_kemperman_examples():
    lhs, rhs = walks.kemperman_check(PM_ONE, 3, 1)
    assert lhs == rhs == Fraction(1, 8)
    law = OffspringLaw.from_pmf({0: Fraction(1, 2), 1: Fraction(1, 4),
                                 2: Fraction(1, 4)})
    lhs, rhs = walks.kemperman_check(law, 4, 2)
    assert lhs == rhs
    weights = [math.exp(-1.0) / math.factorial(j) for j in range(4)]
    z = sum(weights)
    trunc = OffspringLaw.from_pmf({j: w / z for j, w in enumerate(weights)})
    lhs, rhs = walks.kemperman_check(trunc, 5, 1)
    assert abs(lhs - rhs) < 1e-12
    with pytest.raises(InvalidParameterError):
        walks.kemperman_check(OffspringLaw.poisson(1.0), 3, 1)


def test_kemperman_rational_sweep():
    law = OffspringLaw.from_pmf({0: Fraction(1, 3), 1: Fraction(1, 3),
                                 3: Fraction(1, 3)})
    for n in range(1, 9):
        for k in (1, 2):
            lhs, rhs = walks.kemperman_check(law, n, k)
            assert lhs == rhs


def test_ballot_exact():
    assert walks.ballot_prob(2, 1) == Fraction(1, 3)
    assert walks.ballot_prob(5, 0) == 1
    assert walks.ballot_prob(4, 2) == Fraction(1, 3)
    with pytest.raises(InvalidParameterError):
        walks.ballot_prob(2, 2)


def test_ballot_enumeration_four_two():
    votes = [1] * 4 + [-1] * 2
    orders = set(itertools.permutations(votes))
    wins = sum(all(s > 0 for s in itertools.accumulate(order)) for order in orders)
    assert Fraction(wins, len(orders)) == Fraction(1, 3)


def test_ballot_mc_needs_a_replicate():
    with pytest.raises(InvalidParameterError):
        walks.ballot_mc(4, 2, 0, make_stream(1, 0))


def test_ballot_mc():
    est = walks.ballot_mc(4, 2, 100_000, make_stream(1, 0))
    p = 1 / 3
    assert abs(est - p) < 3 * math.sqrt(p * (1 - p) / 100_000)


def test_parking_replay_overflow():
    result = parking_simulate(6, arrivals=[1, 2, 3, 4, 6, 3])
    assert not result.success
    assert result.exited == 1
    assert result.occupancy.tolist() == [True, True, True, True, False, True]


def test_parking_trivial_success():
    assert parking_simulate(2, arrivals=[1, 2]).success


def test_parking_random_frequency():
    reps = 100_000
    freq = walks.parking_success_batch(2, 2, reps, make_stream(1, 1)).mean()
    p = 3 / 4
    assert abs(freq - p) < 3 * math.sqrt(p * (1 - p) / reps)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_parking_is_abelian(arrivals, shuffler):
    base = parking_simulate(6, arrivals=arrivals)
    permuted = list(arrivals)
    shuffler.shuffle(permuted)
    again = parking_simulate(6, arrivals=permuted)
    assert base.success == again.success
    assert base.exited == again.exited
    assert np.array_equal(base.occupancy, again.occupancy)


def test_argmax_time_examples():
    assert walks.argmax_time(LatticePath([-1, -1])) == 0
    assert walks.argmax_time(LatticePath([1, 1, -1])) == 2
    assert walks.argmax_time(LatticePath([1, -1, 1, -1])) == 1  # first of the ties


def test_argmax_symmetry():
    half = 0
    reps = 4_000
    n = 400
    rng = make_stream(1, 2)
    for _ in range(reps):
        path = walks.sample_path(PM_ONE, n, rng)
        half += walks.argmax_time(path) / n <= 0.5
    # P(K_n/n <= 1/2) is 1/2 + O(1/sqrt(n)) by symmetry of the arcsine limit
    assert abs(half / reps - 0.5) <= 3 * math.sqrt(0.25 / reps) + 2 / math.sqrt(n)


def test_arcsine_blurred_ks():
    # The argmax index blurred by an independent uniform converges in total
    # variation to the arcsine law; the raw index has an atom at zero of mass
    # ~0.8/sqrt(n).  At n = 10^4 the finite-size sup-distance to the limit is
    # ~0.007, so the replication stays at 10^4 where the KS resolution (0.016)
    # sits above it; 10^5 replicates would reject the limit law for real.
    reps = 10_000
    n = 10_000
    rng = make_stream(1, 3)
    block = 200
    values = np.empty(reps)
    done = 0
    while done < reps:
        b = min(block, reps - done)
        steps = rng.gen.choice(np.array([-1, 1]), size=(b, n))
        walk = np.concatenate([np.zeros((b, 1), dtype=np.int64),
                               np.cumsum(steps, axis=1)], axis=1)
        values[done:done + b] = np.argmax(walk, axis=1)
        done += b
    values = (values + rng.gen.random(reps)) / n
    report = ks_test(np.sort(values),
                     lambda x: 2.0 / math.pi * np.arcsin(np.sqrt(np.clip(x, 0, 1))),
                     alpha_level=0.01)
    assert report.passed, (report.statistic, report.threshold)


def test_poisson_hitting_matches_borel_tanner():
    # first passage below zero for the unit-drop Poisson walk; the first
    # passage time coincides with a branching total progeny, so the batched
    # size sampler is the continuation-safe way to collect it
    from randstruct.exact import OffspringLaw
    from randstruct.trees import bgw_total_sizes
    rng = make_stream(1, 6)
    hits = bgw_total_sizes(OffspringLaw.poisson(0.8), 30_000, rng, cap=4096)
    assert hits.max() < 4096
    pmf = [0.0] + [exact.borel_tanner_pmf(0.8, n) for n in range(1, hits.max() + 1)]
    report = chi_square_gof(hits, pmf, alpha_level=0.01)
    assert report.passed, (report.statistic, report.threshold)


def simple_walk_hitting_pmf(n):
    """P(first passage to -1 of the +-1 walk takes 2n - 1 steps)
    = C_(n-1) / (2 4^(n-1))."""
    return Fraction(exact.catalan(n - 1), 2 * 4 ** (n - 1))


def test_simple_walk_hitting():
    assert simple_walk_hitting_pmf(1) == Fraction(1, 2)
    assert simple_walk_hitting_pmf(2) == Fraction(1, 8)
    partial = [sum(simple_walk_hitting_pmf(j) for j in range(1, n + 1))
               for n in (10, 20, 30)]
    assert partial[-1] > Fraction(89, 100)
    assert partial[0] < partial[1] < partial[2] < 1


def test_pm1_hitting_matches_catalan_form():
    # the +-1 walk first passage is odd; censored runs land in the tail cell
    from randstruct.exact import OffspringLaw
    from randstruct.trees import bgw_total_sizes
    rng = make_stream(1, 7)
    cap = 4096
    hits = bgw_total_sizes(OffspringLaw.from_pmf({0: 0.5, 2: 0.5}), 40_000, rng,
                           cap=cap)
    assert np.all((hits % 2 == 1) | (hits == cap))
    ns = (hits + 1) // 2
    cap_n = (cap + 1) // 2
    pmf = [0.0] + [float(simple_walk_hitting_pmf(v)) for v in range(1, cap_n)]
    report = chi_square_gof(ns, pmf + [1.0 - sum(pmf)], alpha_level=0.01)
    assert report.passed, (report.statistic, report.threshold)
