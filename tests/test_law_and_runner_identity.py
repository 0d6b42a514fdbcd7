"""The walk, experiment and growth paths give bit-identical output to the code
they replaced, on the same streams.

Kept here as references: the old step-law sampler (walk steps drawn by a law
on {-1, 0, 1, ...}), the step-valued first-passage enumeration, the
hand-written ``giant`` / ``connectivity`` replicate drivers and the pooled
out-degree statistic of the uniform-attachment chain."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from randstruct import graphs, growth, walks
from randstruct.exact import OffspringLaw
from randstruct.experiments import ExperimentConfig, run_experiment
from randstruct.rng import make_stream
from randstruct.stats import mean_ci
from randstruct.verify import MASTER_SEED

# ---------------------------------------------------------------------------
# references


def ref_step_sample(kind, params, pmf_pairs, rng, size):
    """The old step-law sampler; ``pmf_pairs`` holds (step, probability)."""
    g = rng.gen
    if kind == "poisson_m1":
        return g.poisson(params[0], size) - 1
    if kind == "geometric_m1":
        return g.geometric(params[0], size) - 2
    if kind == "binomial_m1":
        d, p = params
        return g.binomial(d, p, size) - 1
    values = np.array([k for k, _ in pmf_pairs])
    probs = np.array([float(p) for _, p in pmf_pairs])
    return g.choice(values, size=size, p=probs / probs.sum())


def ref_kemperman(step_pmf, n, k):
    """The old enumeration over a step pmf {step: probability}."""
    items = sorted((int(s), Fraction(p)) for s, p in step_pmf.items())
    values = tuple(s for s, _ in items)
    probs = tuple(p for _, p in items)
    p_end = 0
    p_first = 0
    for steps in itertools.product(range(len(values)), repeat=n):
        weight = math.prod(probs[i] for i in steps)
        s = 0
        hit = None
        for t, i in enumerate(steps, start=1):
            s += values[i]
            if hit is None and s == -k:
                hit = t
        if s == -k:
            p_end += weight
        if hit == n:
            p_first += weight
    return p_end / n, p_first / k


def ref_giant_experiment(n, c, reps, seed):
    rows = np.array([graphs.giant_rep(n, c, make_stream(seed, r))
                     for r in range(reps)], dtype=np.int64)
    return rows, mean_ci(rows[:, 0] / n), mean_ci(rows[:, 1] / n)


def ref_connectivity_rep(n, c, stream):
    """The CSR path: build the graph, then read its degrees and components."""
    g = graphs.sample_gnp(n, (math.log(n) + c) / n, stream)
    no_isolated = bool(np.all(g.degrees() > 0))
    return no_isolated and graphs.components(g).size == 1, no_isolated


def ref_connectivity_experiment(n, c, reps, seed):
    rows = np.array([ref_connectivity_rep(n, c, make_stream(seed, r))
                     for r in range(reps)], dtype=np.int64)
    return (rows, mean_ci(rows[:, 0].astype(float)),
            mean_ci(rows[:, 1].astype(float)))


def ref_growth_degree_fractions(n, reps, rng, k_max):
    pooled = np.zeros(k_max + 1, dtype=np.int64)
    total = 0
    for _ in range(reps):
        tree = growth.rrt_chain(n, rng)
        out = tree.out_degrees()
        hist = np.bincount(out, minlength=k_max + 1)
        pooled += hist[:k_max + 1]
        total += out.size
        tree.height()  # the old statistic also took heights; they draw nothing
    return pooled / total


# ---------------------------------------------------------------------------
# walks: a step is an offspring count minus one

HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)


@pytest.mark.parametrize("law,old", [
    (OffspringLaw.from_pmf({0: Fraction(1, 3), 1: Fraction(1, 6), 3: HALF}),
     ("pmf", (), ((-1, Fraction(1, 3)), (0, Fraction(1, 6)), (2, HALF)))),
    (OffspringLaw.poisson(1.7), ("poisson_m1", (1.7,), ())),
    (OffspringLaw.geometric(0.3), ("geometric_m1", (0.3,), ())),
    (OffspringLaw.binomial(5, 0.35), ("binomial_m1", (5, 0.35), ())),
], ids=["pmf", "poisson", "geometric", "binomial"])
def test_walk_increments_match_old_step_law(law, old):
    for size in (0, 1, 5_000):
        new = walks.sample_path(law, size, make_stream(7, size)).increments
        ref = ref_step_sample(*old, make_stream(7, size), size)
        assert new.dtype == np.int64
        assert np.array_equal(new, ref)


def test_kemperman_pairs_match_step_valued_enumeration():
    weights = [math.exp(-1.0) / math.factorial(j) for j in range(4)]
    z = sum(weights)
    cases = [
        ({0: HALF, 2: HALF}, {-1: HALF, 1: HALF}, [(3, 1)]),
        ({0: HALF, 1: QUARTER, 2: QUARTER}, {-1: HALF, 0: QUARTER, 1: QUARTER},
         [(4, 2)] + [(n, k) for n in range(1, 7) for k in (1, 2)]),
        ({j: w / z for j, w in enumerate(weights)},
         {j - 1: w / z for j, w in enumerate(weights)}, [(5, 1)]),
    ]
    for offspring, steps, nks in cases:
        law = OffspringLaw.from_pmf(offspring)
        for n, k in nks:
            assert walks.kemperman_check(law, n, k) == ref_kemperman(steps, n, k)


# ---------------------------------------------------------------------------
# one replicate runner: the registry entries against the old drivers


@pytest.mark.parametrize("i,c", list(enumerate((0.5, 1.5, 2.0))))
def test_giant_report_matches_old_driver(i, c):
    n, reps, seed = 20_000, 10, MASTER_SEED * 100 + i
    report = run_experiment(ExperimentConfig("giant", {"n": n, "c": c},
                                             master_seed=seed, reps=reps))
    rows, largest, second = ref_giant_experiment(n, c, reps, seed)
    assert np.array_equal(np.array(report.rows), rows / n)
    assert (report.summary["largest_frac_mean"], report.summary["largest_frac_hw"]) \
        == largest
    assert (report.summary["second_frac_mean"], report.summary["second_frac_hw"]) \
        == second


@pytest.mark.parametrize("i,c", list(enumerate((-1.0, 0.0, 2.0))))
def test_connectivity_report_matches_old_driver(i, c):
    n, reps, seed = 3_000, 400, MASTER_SEED * 200 + i
    report = run_experiment(ExperimentConfig("connectivity", {"n": n, "c": c},
                                             master_seed=seed, reps=reps))
    rows, connected, no_isolated = ref_connectivity_experiment(n, c, reps, seed)
    assert np.array_equal(np.array(report.rows), rows.astype(float))
    assert (report.summary["connected_mean"], report.summary["connected_hw"]) \
        == connected
    assert (report.summary["no_isolated_mean"], report.summary["no_isolated_hw"]) \
        == no_isolated


@pytest.mark.parametrize("n,reps", [(12, 300), (40, 300), (3_000, 60), (10_000, 12)])
@pytest.mark.parametrize("c", [-1.0, 0.0, 2.0])
def test_connectivity_rep_matches_csr_path(n, c, reps):
    # n = 12 samples by one Bernoulli draw per pair at every c; n = 40 does
    # so at c = 2 and skips geometric gaps at c = -1 and 0
    for r in range(reps):
        a, b = make_stream(77, r), make_stream(77, r)
        assert graphs.connectivity_rep(n, c, a) == ref_connectivity_rep(n, c, b)
        assert a.gen.random() == b.gen.random()


def test_criterion_14_degree_fractions_match_old_statistic():
    n = 20_000
    rng = make_stream(MASTER_SEED, 14)
    pooled = np.zeros(7, dtype=np.int64)
    total = 0
    for _ in range(5):
        out = growth.rrt_chain(n, rng).out_degrees()
        pooled += np.bincount(out, minlength=7)[:7]
        total += out.size
    ref = ref_growth_degree_fractions(n, 5, make_stream(MASTER_SEED, 14), 6)
    assert np.array_equal(pooled / total, ref)
