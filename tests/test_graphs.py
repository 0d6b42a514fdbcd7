import math

import numpy as np
import pytest
from scipy import stats as sps
from stats_helpers import chi_square_two_sample

from randstruct import exact, graphs
from randstruct.errors import InvalidParameterError, ResourceLimitError
from randstruct.experiments import ExperimentConfig, run_experiment
from randstruct.graphs import Graph
from randstruct.rng import make_stream
from randstruct.stats import chi_square_gof


def test_graph_invariants():
    g = Graph(4, [[0, 1], [1, 2]])
    assert g.m == 2
    assert g.degrees().sum() == 2 * g.m
    assert g.indices[g.indptr[1]:g.indptr[2]].tolist() == [0, 2]
    with pytest.raises(InvalidParameterError):
        Graph(3, [[0, 0]])
    with pytest.raises(InvalidParameterError):
        Graph(3, [[0, 1], [1, 0]])


def test_graph_dump_roundtrip():
    g = Graph(5, [[0, 1], [2, 4], [1, 3]])
    lines = graphs.graph_to_lines(g)
    assert lines[0] == "5 3"
    back = graphs.graph_from_lines(lines)
    assert np.array_equal(back.edge_array(), g.edge_array())


def test_gnp_extremes():
    rng = make_stream(2, 0)
    assert graphs.sample_gnp(6, 0.0, rng).m == 0
    full = graphs.sample_gnp(6, 1.0, rng)
    assert full.m == 15


def test_gnp_edge_count_mean():
    rng = make_stream(2, 1)
    reps = 3_000
    counts = np.array([graphs.sample_gnp(100, 0.05, rng).m for _ in range(reps)])
    target = 4950 * 0.05
    se = counts.std(ddof=1) / math.sqrt(reps)
    assert abs(counts.mean() - target) < 3 * se


def test_gnp_sparse_and_dense_same_law(monkeypatch):
    # both internal paths produce Binomial(n(n-1)/2, p) edge counts
    n, p, reps = 200, 0.05, 4_000
    rng = make_stream(2, 2)
    sparse = np.array([graphs.sample_gnp(n, p, rng).m for _ in range(reps)])
    monkeypatch.setattr(graphs, "_SPARSE_P", 0.0)  # every p takes the dense path
    rng = make_stream(2, 3)
    dense = np.array([graphs.sample_gnp(n, p, rng).m for _ in range(reps)])
    lo = min(sparse.min(), dense.min())
    hi = max(sparse.max(), dense.max())
    bins = np.arange(lo, hi + 2)
    report = chi_square_two_sample(np.histogram(sparse, bins)[0],
                                   np.histogram(dense, bins)[0], alpha_level=0.01)
    assert report.passed
    total = n * (n - 1) // 2
    gof = chi_square_gof(sparse, sps.binom.pmf(np.arange(sparse.max() + 1), total, p))
    assert gof.passed


def test_components_examples():
    assert graphs.components(Graph(4, [])).tolist() == [1, 1, 1, 1]
    path_plus_isolated = Graph(4, [[0, 1], [1, 2]])
    assert graphs.components(path_plus_isolated).tolist() == [3, 1]


def isolated_count(g):
    return int(np.sum(g.degrees() == 0))


def test_connected_matches_component_count():
    # connectivity_rep samples the graph of sample_gnp on the same stream
    rng = make_stream(2, 4)
    for r in range(300):
        n = int(rng.gen.integers(5, 40))
        c = float(rng.gen.uniform(-1.5, 3.0))
        g = graphs.sample_gnp(n, (math.log(n) + c) / n, make_stream(3, r))
        assert graphs.connectivity_rep(n, c, make_stream(3, r)) == \
            (graphs.components(g).size == 1, isolated_count(g) == 0)


def test_connectivity_rep_needs_two_vertices():
    for n in (0, 1):
        with pytest.raises(InvalidParameterError):
            graphs.connectivity_rep(n, 0.5, make_stream(3, 0))


def test_explore_empty_graph():
    trace = graphs.explore_luka(Graph(3, []))
    assert trace.walk.increments.tolist() == [-1, -1, -1]
    assert trace.component_sizes.tolist() == [1, 1, 1]


def test_explore_graph_without_vertices():
    # no phantom component of size 0: there is nothing to explore
    trace = graphs.explore_luka(Graph(0, []))
    for values in (trace.walk.increments, trace.component_sizes, trace.stack_sizes):
        assert values.dtype == np.int64 and values.size == 0


def test_explore_triangle():
    trace = graphs.explore_luka(Graph(3, [[0, 1], [0, 2], [1, 2]]))
    assert trace.walk.increments.tolist() == [1, -1, -1]
    assert trace.component_sizes.tolist() == [3]


def test_explore_matches_union_find_components():
    rng = make_stream(2, 5)
    for _ in range(1_000):
        n = int(rng.gen.integers(2, 60))
        g = graphs.sample_gnp(n, min(1.0, float(rng.gen.random() * 3 / n)), rng)
        trace = graphs.explore_luka(g)
        assert np.array_equal(np.sort(trace.component_sizes)[::-1],
                              graphs.components(g))
        prefix = np.concatenate([[0], trace.walk.prefix_sums()])
        assert prefix[-1] == -trace.component_sizes.size
        # stack size identity at every step
        mins = np.minimum.accumulate(prefix)
        assert np.array_equal(trace.stack_sizes, prefix[:-1] - mins[:-1] + 1)


def test_exploration_increment_law():
    # pooled over steps, increments + 1 against their conditional Binomial law
    n, c = 10_000, 2.0
    p = c / n
    g = graphs.sample_gnp(n, p, make_stream(2, 6))
    trace = graphs.explore_luka(g)
    prefix = np.concatenate([[0], trace.walk.prefix_sums()])
    untouched = n - np.arange(n) - trace.stack_sizes
    observed = np.bincount(trace.walk.increments + 1, minlength=16)[:16]
    ks = np.arange(16)
    expected_probs = sps.binom.pmf(ks[None, :], untouched[:, None], p).sum(axis=0)
    expected_probs /= n
    report = chi_square_gof(np.repeat(ks, observed), expected_probs, alpha_level=0.01)
    assert report.passed, (report.statistic, report.threshold)


def test_isolated_counts():
    assert isolated_count(Graph(5, [])) == 5
    rng = make_stream(2, 7)
    reps = 30_000
    counts = np.array([isolated_count(graphs.sample_gnp(3, 0.5, rng))
                       for _ in range(reps)])
    se = counts.std(ddof=1) / math.sqrt(reps)
    assert abs(counts.mean() - 0.75) < 3 * se


def test_isolated_mean_at_threshold():
    n = 10_000
    p = math.log(n) / n
    rng = make_stream(2, 8)
    reps = 100
    counts = np.array([isolated_count(graphs.sample_gnp(n, p, rng))
                       for _ in range(reps)])
    target = n * (1 - p) ** (n - 1)
    se = counts.std(ddof=1) / math.sqrt(reps)
    assert abs(counts.mean() - target) < 3 * se


def test_triangle_counts():
    k4 = graphs.sample_gnp(4, 1.0, make_stream(2, 13))
    assert graphs.triangle_count(k4) == 4
    tree = Graph(5, [[0, 1], [1, 2], [2, 3], [3, 4]])
    assert graphs.triangle_count(tree) == 0


def test_spectral_moment_identities():
    rng = make_stream(2, 14)
    g = graphs.sample_gnp(60, 0.1, rng)
    sm = graphs.spectral_moments(g, 6)
    assert sm.moments[0] == 0.0
    assert sm.moments[1] == pytest.approx(2 * g.m / g.n)
    assert np.all(sm.moments[1::2] >= 0)
    with pytest.raises(ResourceLimitError):
        graphs.spectral_moments(graphs.sample_gnp(5000, 0.0, rng), 3)


def test_exploration_walk_fluid_limit():
    # the component exploration walk follows the piecewise curve
    sup = graphs.fluid_sup_distance(50_000, 2.0, make_stream(2, 20))
    assert sup < 0.02


def test_giant_experiment_smoke():
    summary = run_experiment(ExperimentConfig(
        "giant", {"n": 5_000, "c": 2.0}, master_seed=4, reps=10)).summary
    assert abs(summary["largest_frac_mean"] - exact.giant_fraction(2.0)) < 0.03
    assert summary["second_frac_mean"] < 0.02


def test_connectivity_experiment_smoke():
    summary = run_experiment(ExperimentConfig(
        "connectivity", {"n": 2_000, "c": 0.0}, master_seed=4, reps=200)).summary
    target = exact.connectivity_limit(0.0)
    assert abs(summary["connected_mean"] - target) < 5 * math.sqrt(
        target * (1 - target) / 200)
    assert summary["no_isolated_mean"] >= summary["connected_mean"]
