"""Tests of the benchmark itself.  Run from the checkout root with

    python3 -m pytest perfbench

Every workload runs at tiny sizes, traced and untraced, and each checker is
shown to reject a deliberately corrupted output.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as w  # noqa: E402
from randstruct import exact, graphs, growth, rng, trees, verify  # noqa: E402

TINY = {
    "verify-fast": {"criteria": ["01", "02"]},
    "graph-thresholds": {"conn_n": 300, "conn_reps": 3, "giant_n": 2000,
                         "giant_reps": 2, "fluid_reps": 1, "spectral_n": 200,
                         "spectral_reps": 2, "dense_n": 100},
    "growth-chains": {"chain_n": 2000, "law_n": 500, "pills_n": 500,
                      "pills_reps": 200, "direct_n": 200},
    "conditioned-trees": {"large_n": 200, "small_reps": 2000, "cayley_n": 50,
                          "cayley_reps": 3},
}


@pytest.fixture(autouse=True)
def one_setup_sample(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_at_tiny_sizes(name, trace):
    result, _ = run.run_workload(name, 3, 0.0, trace, TINY[name])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == list(run.PER_LAYER if trace else run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values()) or trace
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [x["name"] for x in spec["workloads"]] == list(w.WORKLOADS)


def test_failing_and_raising_criteria_are_counted_and_the_run_goes_on(monkeypatch):
    def fails(scale, seed):
        return False, "FAIL: on purpose"

    def raises(scale, seed):
        raise RuntimeError("on purpose")

    monkeypatch.setattr(verify, "CRITERIA", [("01 fails", fails), ("02 raises", raises),
                                             verify.CRITERIA[2]])
    meter = w.Meter()
    w.VerifyFast(1, {}).run_pass(0, meter)
    assert (meter.attempted, meter.failed, meter.errors) == (3, 2, [])


def test_component_check_rejects_a_size_moved_by_one_vertex():
    g = graphs.sample_gnp(500, 1.5 / 500, rng.make_stream(5, 0))
    ref = w.reference_components(g)
    sizes = graphs.components(g)
    w.check_components(sizes, g.n, ref)
    moved = sizes.copy()
    moved[0] -= 1
    moved[-1] += 1
    with pytest.raises(w.CheckError):
        w.check_components(moved, g.n, ref)


def test_csr_check_rejects_an_asymmetric_or_unsorted_graph():
    g = graphs.sample_gnp(60, 0.2, rng.make_stream(5, 1))
    w.check_csr(g)
    g.indices = g.indices.copy()
    g.indices[[0, 1]] = g.indices[[1, 0]]
    with pytest.raises(w.CheckError):
        w.check_csr(g)


def test_growing_tree_check_rejects_a_height_off_by_one():
    tree = growth.ba_chain(3000, rng.make_stream(5, 2))
    out = tree.out_degrees()
    w.check_growing_tree(tree.parent, tree.height(), out)
    assert np.array_equal(w.own_depths(tree.parent), tree.depths())
    for wrong in (tree.height() - 1, tree.height() + 1):
        with pytest.raises(w.CheckError):
            w.check_growing_tree(tree.parent, wrong, out)


def _brute_height_cdf(n: int, weight) -> list:
    """Height law of a tree grown on vertices 0..n, vertex i >= 2 joining v
    with probability proportional to weight(v, degrees), by enumeration."""
    law = {}
    for picks in itertools.product(*(range(i) for i in range(2, n + 1))):
        parent, depth, deg, prob = [-1, 0], [0, 1], [1, 1], 1.0
        for i, v in enumerate(picks, start=2):
            weights = [weight(u, deg) for u in range(i)]
            prob *= weights[v] / sum(weights)
            parent.append(v)
            depth.append(depth[v] + 1)
            deg[v] += 1
            deg.append(1)
        h = max(depth)
        law[h] = law.get(h, 0.0) + prob
    return [sum(p for h, p in law.items() if h <= k) for k in range(n + 1)]


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_direct_recurrences_match_enumeration(n):
    rrt = _brute_height_cdf(n, lambda u, deg: 1.0)
    ba = _brute_height_cdf(n, lambda u, deg: float(deg[u]))
    assert np.allclose(w.direct_rrt_height_cdf(n, n), rrt, atol=1e-12)
    assert np.allclose(w.direct_ba_height_cdf(n, n), ba, atol=1e-12)


def test_height_law_checks_reject_a_shifted_cdf():
    cdf = exact.rrt_height_cdf(300, 40)
    w.check_cdf(cdf)
    w.check_against_direct(cdf, w.direct_rrt_height_cdf(300, 40))
    with pytest.raises(w.CheckError):
        w.check_against_direct(np.concatenate([[0.0], cdf[:-1]]),
                               w.direct_rrt_height_cdf(300, 40))
    with pytest.raises(w.CheckError):
        w.check_cdf(cdf[::-1])


def test_pill_check_rejects_a_leftover_outside_range():
    n = 200
    left = growth.pills_batch(n, 50, rng.make_stream(5, 3))
    w.check_leftovers(left, n)
    for bad in (0, n + 1):
        corrupted = left.copy()
        corrupted[7] = bad
        with pytest.raises(w.CheckError):
            w.check_leftovers(corrupted, n)


def test_tree_check_rejects_a_tree_one_vertex_short():
    law = exact.OffspringLaw.geometric(0.5)
    tree = trees.sample_bgw_conditioned(law, 60, rng.make_stream(5, 4))
    w.check_plane_tree(tree.child_counts, 60)
    short = trees.sample_bgw_conditioned(law, 59, rng.make_stream(5, 5))
    with pytest.raises(w.CheckError):
        w.check_plane_tree(short.child_counts, 60)
    with pytest.raises(w.CheckError):
        w.check_plane_tree(tree.child_counts[:-1], 59)


def test_leaf_law_matches_enumeration():
    for n in (2, 3, 4, 6):
        comps = [c for c in itertools.product(range(n), repeat=n) if sum(c) == n - 1]
        zeros = np.array([c.count(0) for c in comps], dtype=float)
        mean, var = w.leaf_count_law(n)
        assert math.isclose(mean, zeros.mean()) and math.isclose(var, zeros.var())


def test_shape_and_cayley_checks_reject_bad_trees():
    w.check_shapes({s: 100 for s in w.PLANE_SHAPES_4})
    with pytest.raises(w.CheckError):
        w.check_shapes({**{s: 100 for s in w.PLANE_SHAPES_4}, (1, 1, 0, 1): 1})
    with pytest.raises(w.CheckError):
        w.check_shapes({s: 100 + 60 * (s == (3, 0, 0, 0)) for s in w.PLANE_SHAPES_4})
    tree = trees.sample_cayley(30, rng.make_stream(5, 6))
    w.check_cayley(tree, 30)
    cut = trees.LabeledTree(30, tree.edges[:-1] + ((1, 1),))
    with pytest.raises(w.CheckError):
        w.check_cayley(cut, 30)


def test_spectral_check_uses_exact_traces():
    g = graphs.sample_gnp(200, 3 / 200, rng.make_stream(5, 7))
    m = graphs.spectral_moments(g, 3).moments
    t = graphs.triangle_count(g)
    assert t == w.own_triangles(g)
    w.check_spectral(m, g.n, g.m, t)
    with pytest.raises(w.CheckError):
        w.check_spectral(m, g.n, g.m, t + 1)


def test_philox_words_counts_each_64_bit_draw():
    s = rng.make_stream(9, 0)
    assert tracing.philox_words(s) == 0
    s.gen.random(3)
    assert tracing.philox_words(s) == 3
    s.gen.integers(0, 2**63, size=10)
    assert tracing.philox_words(s) == 13


def test_tracer_self_time_is_span_minus_children_and_uninstall_restores():
    import randstruct
    original = graphs.components
    tracer = tracing.Tracer()
    tracer.install(randstruct)
    try:
        assert graphs.components is not original
        stream = rng.make_stream(5, 8)  # made untraced
        tracer.active = True
        graphs.giant_rep(3000, 1.5, stream)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert graphs.components is original
    by_id = {s[0]: s for s in tracer.spans}
    (root,) = [s for s in tracer.spans if s[1] == "graphs.giant_rep"]
    children = [s for s in tracer.spans if s[2] == root[0]]
    assert {s[1] for s in children} >= {"graphs.sample_gnp", "graphs.components"}
    assert all(by_id[s[2]][3] <= s[3] <= s[4] <= by_id[s[2]][4]
               for s in tracer.spans if s[2] is not None)
    total = sum(tracer.self_s.values())
    assert math.isclose(total, root[4] - root[3], rel_tol=1e-9)
    assert tracer.edges > 0 and tracer.calls["rng.make_stream"] == 0
