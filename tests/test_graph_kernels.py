"""The array kernels of randstruct.graphs against the loop implementations
they replaced, kept here as references.  Every kernel makes the same draws in
the same order, so on the same stream it must give bit-identical output."""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from randstruct import graphs, rng as rng_module
from randstruct.errors import InvalidParameterError, ResourceLimitError
from randstruct.graphs import Graph
from randstruct.rng import make_stream

# ---------------------------------------------------------------------------
# Reference implementations


def ref_csr(n, edges):
    """Lexsort CSR build of both orientations, with the duplicate scan."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    both = np.concatenate([edges, edges[:, ::-1]])
    sorted_pairs = both[np.lexsort((both[:, 1], both[:, 0]))]
    assert not np.any((np.diff(sorted_pairs[:, 0]) == 0)
                      & (np.diff(sorted_pairs[:, 1]) == 0))
    counts = np.bincount(sorted_pairs[:, 0], minlength=n)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return indptr, sorted_pairs[:, 1].copy()


def ref_pair_from_linear(linear, n):
    """Float-sqrt decoder with one correction step (exact for small n)."""
    b = 2 * n - 1
    i = ((b - np.sqrt(b * b - 8.0 * linear)) // 2).astype(np.int64)
    off = i * (2 * n - 1 - i) // 2
    i[off > linear] -= 1
    off = i * (2 * n - 1 - i) // 2
    i[linear - off >= n - 1 - i] += 1
    off = i * (2 * n - 1 - i) // 2
    return np.column_stack([i, linear - off + i + 1])


def ref_sample_gnp(n, p, rng):
    """Edge list of the sampler: gap skipping below p = 0.1, one uniform
    draw per row above it."""
    if p == 0.0 or n < 2:
        return np.empty((0, 2), dtype=np.int64)
    if p < 0.1:
        total = n * (n - 1) // 2
        gaps, pos = [], -1
        expect = int(total * p + 6 * math.sqrt(total * p + 1) + 16)
        while pos < total:
            block = rng.gen.geometric(p, size=expect)
            gaps.append(block)
            pos += int(block.sum())
            expect = max(16, expect // 2)
        linear = np.cumsum(np.concatenate(gaps)) - 1
        return ref_pair_from_linear(linear[linear < total], n)
    edges = []
    for i in range(n - 1):
        hits = np.flatnonzero(rng.gen.random(n - 1 - i) < p) + i + 1
        if hits.size:
            edges.append(np.column_stack([np.full(hits.size, i), hits]))
    return np.concatenate(edges) if edges else np.empty((0, 2), dtype=np.int64)


def ref_components(g):
    """Union-find with path halving over the edge list."""
    parent = list(range(g.n))
    size = [1] * g.n

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edge_array():
        ru, rv = find(int(u)), find(int(v))
        if ru != rv:
            if size[ru] < size[rv]:
                ru, rv = rv, ru
            parent[rv] = ru
            size[ru] += size[rv]
    sizes = [size[v] for v in range(g.n) if find(v) == v]
    return np.array(sorted(sizes, reverse=True), dtype=np.int64)


def ref_connected(g):
    """Breadth-first reachability from vertex 0."""
    if g.n <= 1:
        return True
    if np.any(np.diff(g.indptr) == 0):
        return False
    seen = np.zeros(g.n, dtype=bool)
    seen[0] = True
    frontier = np.array([0])
    reached = 1
    while frontier.size:
        starts = g.indptr[frontier]
        counts = g.indptr[frontier + 1] - starts
        before = np.concatenate([[0], np.cumsum(counts)[:-1]])
        flat = np.repeat(starts - before, counts) + np.arange(int(counts.sum()))
        nbrs = g.indices[flat]
        new = np.unique(nbrs[~seen[nbrs]])
        seen[new] = True
        reached += new.size
        frontier = new
    return reached == g.n


def ref_explore(g):
    """Per-component first-in first-out loop: roots in increasing order, each
    vertex touched when first seen.  Returns (increments, component sizes,
    stack sizes)."""
    touched = np.zeros(g.n, dtype=bool)
    increments, comp_sizes, stack_sizes = [], [], []
    for root in range(g.n):
        if touched[root]:
            continue
        touched[root] = True
        queue, size = deque([root]), 0
        while queue:
            stack_sizes.append(len(queue))
            x = queue.popleft()
            size += 1
            fresh = 0
            for y in g.indices[g.indptr[x]:g.indptr[x + 1]].tolist():
                if not touched[y]:
                    touched[y] = True
                    queue.append(y)
                    fresh += 1
            increments.append(fresh - 1)
        comp_sizes.append(size)
    return tuple(np.array(v, dtype=np.int64)
                 for v in (increments, comp_sizes, stack_sizes))


def ref_spectral(g, k_max):
    """Dense float64 adjacency powers and their traces."""
    n = g.n
    dense = np.zeros((n, n))
    arr = g.edge_array()
    if arr.size:
        dense[arr[:, 0], arr[:, 1]] = 1.0
        dense[arr[:, 1], arr[:, 0]] = 1.0
    moments = np.empty(k_max)
    power = dense
    moments[0] = 0.0
    for k in range(2, k_max + 1):
        power = power @ dense
        moments[k - 1] = np.trace(power) / n
    return moments


def ref_gap_positions(p, stop, rng, last=-1):
    """The gap sequence before its gaps were saturated: it wraps int64 and
    never ends once the gaps near 2^63 / 16, below p ~ 2e-18."""
    mean = (stop - 1 - last) * p
    size, chunks = int(mean + 6 * math.sqrt(mean + 1) + 16), []
    while last < stop:
        chunks.append(last + np.cumsum(rng.gen.geometric(p, size=size)))
        last, size = int(chunks[-1][-1]), max(16, size // 2)
    return np.concatenate(chunks)


def ref_triangle_count(g):
    """Sparse-matmul count: the entry sum of (A A) * A is six per triangle."""
    a = g.adjacency_csr()
    return int((a @ a).multiply(a).sum()) // 6


def ref_triangle_graphs(n, p, reps, rng):
    """The graphs of ``triangle_counts``: one gap sequence, drawn at once, over
    reps * C(n, 2) positions, replicate r holding positions r * C(n, 2) on."""
    total = n * (n - 1) // 2
    mean = reps * total * p
    positions = np.cumsum(rng.gen.geometric(p, size=int(mean + 10 * math.sqrt(mean) + 100))) - 1
    assert positions[-1] >= reps * total
    positions = positions[positions < reps * total]
    owner = positions // total
    return [Graph(n, ref_pair_from_linear(positions[owner == r] - r * total, n))
            for r in range(reps)]


def assert_same_csr(g, indptr, indices):
    assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int64
    assert np.array_equal(g.indptr, indptr)
    assert np.array_equal(g.indices, indices)
    assert g.m * 2 == indices.size


# ---------------------------------------------------------------------------
# Sampling and the CSR build

# (n, p): both sides of the 0.1 switch, the extremes, and the sizes of
# criteria 07-11 (07 and 08 at their fast-profile n)
CASES = [(0, 0.5), (1, 0.5), (2, 0.0), (2, 1.0), (2, 0.05), (2, 0.5),
         (7, 1.0), (30, 0.0999), (30, 0.1), (40, 0.02), (50, 0.7),
         (301, 0.3), (3_000, 1.5 / 3_000), (2_000, 2.0 / 2_000),
         (10_000, (math.log(10_000) - 1.0) / 10_000), (20_000, 2.0 / 20_000),
         (10, 1e-17)]


@pytest.mark.parametrize("n,p", CASES)
def test_sample_gnp_matches_reference(n, p):
    for rep in range(3):
        rng, ref_rng = make_stream(31, rep), make_stream(31, rep)
        g = graphs.sample_gnp(n, p, rng)
        assert_same_csr(g, *ref_csr(n, ref_sample_gnp(n, p, ref_rng)))
        # the stream is left where the reference leaves it
        assert rng.gen.random() == ref_rng.gen.random()


@pytest.mark.parametrize("n,p", [(10, 1e-17), (3_000, 2.0 / 3_000), (10_000, 2.0 / 10_000)])
def test_gap_positions_match_the_unsaturated_sequence(n, p):
    # same positions, carried past the stop too, and the same draws
    total = n * (n - 1) // 2
    for last, stop in ((-1, total), (total // 3, total), (-1, 5 * total)):
        rng, ref_rng = make_stream(34, n), make_stream(34, n)
        got = graphs._gap_positions(p, stop, rng, last)
        want = ref_gap_positions(p, stop, ref_rng, last)
        assert np.array_equal(got, want)
        assert rng.gen.random() == ref_rng.gen.random()


def test_tiny_p_ends_at_once():
    # the gaps near 10^18 and, below p ~ 1e-19, numpy's cap of 2^63 - 1 used
    # to wrap the position sums and keep the gap loop drawing forever
    for p in (1e-18, 1e-300, 5e-324):
        g = graphs.sample_gnp(10, p, make_stream(1, 0))
        assert g.m == 0 and g.indptr.tolist() == [0] * 11
        assert graphs.triangle_counts(50, p, 10, make_stream(1, 2)).tolist() == [0] * 10
    # the saturated positions end beyond every stop, near the largest one
    positions = graphs._gap_positions(1e-300, 10 ** 18, make_stream(1, 3))
    assert positions.size == 1 and positions[0] >= graphs._POSITION_CAP - 1
    # a gap of 2^63 - 1 from just below the cap would wrap unsaturated
    near = graphs._POSITION_CAP - 10
    positions = graphs._gap_positions(1e-300, graphs._POSITION_CAP - 1,
                                      make_stream(1, 4), near)
    assert positions.tolist() == [near + graphs._POSITION_CAP]


def test_dense_sampler_across_blocks(monkeypatch):
    # blocks of 7 uniforms cut through rows; the stream runs on unchanged
    monkeypatch.setattr(rng_module, "_BLOCK_VALUES", 7)
    for n, p in [(2, 0.5), (9, 0.5), (40, 0.3), (57, 0.9)]:
        g = graphs.sample_gnp(n, p, make_stream(32, n))
        assert_same_csr(g, *ref_csr(n, ref_sample_gnp(n, p, make_stream(32, n))))


def test_dense_sampler_at_criterion_11_size():
    g = graphs.sample_gnp(2_000, 0.5, make_stream(33, 0))
    ref = ref_csr(2_000, ref_sample_gnp(2_000, 0.5, make_stream(33, 0)))
    assert_same_csr(g, *ref)


def test_public_graph_matches_reference():
    rng = make_stream(34, 0)
    for _ in range(200):
        n = int(rng.gen.integers(0, 30))
        g = graphs.sample_gnp(n, float(rng.gen.random()), rng)
        edges = g.edge_array()
        # any order and either orientation give the same CSR
        edges = edges[rng.gen.permutation(len(edges))]
        flip = rng.gen.random(len(edges)) < 0.5
        edges[flip] = edges[flip][:, ::-1]
        built = Graph(n, edges)
        assert built.n == n and built.m == len(edges)
        assert_same_csr(built, *ref_csr(n, edges))
        assert_same_csr(built, g.indptr, g.indices)


def test_public_graph_still_validates():
    for n, edges, message in [
            (3, [[0, 0]], "loops"),
            (3, [[0, 3]], "out of range"),
            (3, [[-1, 2]], "out of range"),
            (3, [[0, 1], [0, 1]], "duplicate"),
            (3, [[0, 1], [1, 0]], "duplicate"),
            (4, [[2, 3], [0, 1], [3, 2]], "duplicate")]:
        with pytest.raises(InvalidParameterError, match=message):
            Graph(n, edges)
    with pytest.raises(InvalidParameterError, match="n must be"):
        Graph(-1, [])
    empty = Graph(0, [])
    assert empty.indptr.tolist() == [0] and empty.indices.size == 0


# ---------------------------------------------------------------------------
# Pair decoding


def row_boundaries(n, rows):
    """First and last linear index of each row i of the pair order."""
    rows = np.asarray(rows, dtype=np.int64)
    first = rows * (2 * n - 1 - rows) // 2
    return first, first + (n - 2 - rows)


@pytest.mark.parametrize("n", [2, 3, 10, 1_000, 10**6, 3 * 10**8, 10**9])
def test_pair_decoder_exact_at_row_boundaries(n):
    span = np.arange(min(n - 1, 200))
    rows = np.unique(np.concatenate([span, (n - 1) // 2 - span // 2 + 50,
                                     n - 2 - span]))
    rows = rows[(rows >= 0) & (rows <= n - 2)]
    first, last = row_boundaries(n, rows)
    for linear, j in ((first, rows + 1), (last, np.full(rows.size, n - 1))):
        i_got, j_got = graphs._pair_from_linear(linear, n)
        assert np.array_equal(i_got, rows)
        assert np.array_equal(j_got, j)


def test_pair_decoder_known_large_case():
    i, j = graphs._pair_from_linear(np.array([499_999_999_499_999_997]), 10**9)
    assert (i[0], j[0]) == (999_999_997, 999_999_998)


def test_pair_decoder_every_index_small_n():
    for n in range(2, 40):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        i, j = graphs._pair_from_linear(np.arange(len(pairs)), n)
        assert list(zip(i.tolist(), j.tolist())) == pairs


def test_gnp_refuses_n_beyond_exact_pair_indices():
    with pytest.raises(ResourceLimitError):
        graphs.sample_gnp(graphs._PAIR_N_CAP + 1, 1e-20, make_stream(35, 0))


# ---------------------------------------------------------------------------
# Components, connectivity, exploration, spectral moments


def small_graphs():
    rng = make_stream(36, 0)
    yield Graph(0, [])
    yield Graph(1, [])
    yield Graph(2, [])
    yield Graph(2, [[0, 1]])
    for _ in range(150):
        n = int(rng.gen.integers(1, 60))
        yield graphs.sample_gnp(n, min(1.0, float(rng.gen.random() * 4 / n)), rng)


def criterion_graphs():
    """One graph at each full-profile size of criteria 07-11."""
    yield graphs.sample_gnp(100_000, 1.5 / 100_000, make_stream(37, 0))
    yield graphs.sample_gnp(100_000, 2.0 / 100_000, make_stream(37, 1))
    for c in (-1.0, 0.0, 2.0):
        yield graphs.sample_gnp(10_000, (math.log(10_000) + c) / 10_000,
                                make_stream(37, 2))
    yield graphs.sample_gnp(3_000, 1.5 / 3_000, make_stream(37, 3))
    yield graphs.sample_gnp(2_000, 2.0 / 2_000, make_stream(37, 4))


def test_components_and_connected_match_reference():
    for g in list(small_graphs()) + list(criterion_graphs()):
        sizes = graphs.components(g)
        assert sizes.dtype == np.int64
        assert np.array_equal(sizes, ref_components(g))
        assert (sizes.size <= 1) == ref_connected(g)


def explore_as_reference(g):
    """explore_luka(g), checked bit for bit against ref_explore."""
    trace = graphs.explore_luka(g)
    for got, want in zip((trace.walk.increments, trace.component_sizes,
                          trace.stack_sizes), ref_explore(g)):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
    return trace


def test_explore_matches_reference():
    for g in list(small_graphs()) + list(criterion_graphs()):
        explore_as_reference(g)


def test_explore_does_not_rely_on_scipy_label_order(monkeypatch):
    # the components go in order of their least vertex, whatever order
    # scipy numbers them in
    def reversed_labels(*args, **kwargs):
        count, labels = connected_components(*args, **kwargs)
        return count, count - 1 - labels
    monkeypatch.setattr(graphs, "connected_components", reversed_labels)
    for g in small_graphs():
        explore_as_reference(g)


@st.composite
def graphs_up_to_60(draw):
    """Graphs on 0..60 vertices: edgeless, complete, a drawn edge set or a
    G(n, p) sample at a drawn p and stream."""
    n = draw(st.integers(0, 60))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    kind = draw(st.sampled_from(["edgeless", "complete", "edges", "gnp"]))
    if kind == "gnp":
        return graphs.sample_gnp(n, draw(st.floats(0.0, 1.0)),
                                 make_stream(draw(st.integers(0, 2**32)), 0))
    if kind == "edges" and pairs:
        return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True,
                                      max_size=2 * n)))
    return Graph(n, pairs if kind == "complete" else [])


@settings(max_examples=300, deadline=None)
@given(graphs_up_to_60())
def test_explore_matches_fifo_loop_and_scipy_components(g):
    trace = explore_as_reference(g)
    labels = connected_components(g.adjacency_csr(), directed=False)[1]
    assert np.array_equal(np.sort(trace.component_sizes), np.sort(np.bincount(labels)))
    assert trace.walk.increments.sum() == -trace.component_sizes.size


def test_spectral_moments_match_reference():
    rng = make_stream(38, 0)
    cases = [(Graph(1, []), 12), (Graph(2, [[0, 1]]), 12),
             (graphs.sample_gnp(7, 1.0, rng), 12)]
    for _ in range(60):
        n = int(rng.gen.integers(2, 40))
        cases.append((graphs.sample_gnp(n, float(rng.gen.random()), rng),
                      int(rng.gen.integers(1, 13))))
    # criterion 11's large graphs, at its k_max
    cases += [(graphs.sample_gnp(2_000, 2.0 / 2_000, make_stream(38, r)), 3)
              for r in range(3)]
    checked = 0
    for g, k_max in cases:
        if g.n * float(max(int(g.degrees().max(initial=0)), 1)) ** k_max >= 2.0 ** 53:
            with pytest.raises(ResourceLimitError):
                graphs.spectral_moments(g, k_max)
            continue
        got = graphs.spectral_moments(g, k_max).moments
        assert np.array_equal(got, ref_spectral(g, k_max)), (g.n, k_max)
        checked += 1
    assert checked >= len(cases) // 2


@pytest.mark.parametrize("d, k_max, dense", [(6, 3, False), (14, 3, True),
                                              (2, 8, False), (8, 8, True)])
def test_spectral_moments_dense_and_sparse_paths_agree(monkeypatch, d, k_max, dense):
    # G(300, d/300) on each side of the switch (mean degree ~9.5 at k_max 3,
    # ~4 at k_max 8), each computed on both paths
    g = graphs.sample_gnp(300, d / 300, make_stream(39, d))
    assert graphs._spectral_dense(g.n, g.m, k_max) == dense
    default = graphs.spectral_moments(g, k_max).moments
    forced = []
    for path in (True, False):
        monkeypatch.setattr(graphs, "_spectral_dense", lambda n, m, k, path=path: path)
        forced.append(graphs.spectral_moments(g, k_max).moments)
    assert np.array_equal(forced[0], forced[1])
    assert np.array_equal(default, forced[0])
    assert np.array_equal(default, ref_spectral(g, k_max))


def test_spectral_moments_benchmark_graphs_stay_sparse():
    # the c/n graphs of criterion 11, the experiments and the benchmark
    for n, k_max in ((2_000, 3), (2_000, 8), (4_096, 8)):
        assert not graphs._spectral_dense(n, n, k_max)  # c = 2: m ~ n


# ---------------------------------------------------------------------------
# Triangles


def test_triangle_count_matches_matmul():
    for g in list(small_graphs()) + list(criterion_graphs()):
        assert graphs.triangle_count(g) == ref_triangle_count(g)


def test_triangle_count_on_a_dense_graph(monkeypatch):
    g = graphs.sample_gnp(200, 0.5, make_stream(40, 0))
    want = ref_triangle_count(g)
    assert graphs.triangle_count(g) == want
    # wedge chunks of 128 cut through the runs of every vertex
    monkeypatch.setattr(rng_module, "_BLOCK_VALUES", 128 * graphs._WEDGE_WORDS)
    assert graphs.triangle_count(g) == want


@pytest.mark.parametrize("n,p,reps", [(3_000, 1.5 / 3_000, 300), (60, 0.3, 80),
                                      (3, 0.5, 50), (25, 1.0, 3)])
def test_triangle_counts_match_matmul_on_every_graph(n, p, reps):
    got = graphs.triangle_counts(n, p, reps, make_stream(41, n))
    want = [ref_triangle_count(g)
            for g in ref_triangle_graphs(n, p, reps, make_stream(41, n))]
    assert got.dtype == np.int64
    assert got.tolist() == want


def test_triangle_counts_do_not_depend_on_the_block_size(monkeypatch):
    n, p, reps = 3_000, 1.5 / 3_000, 400
    default = graphs.triangle_counts(n, p, reps, make_stream(42, 0))
    assert graphs._block_rows(graphs._PAIR_WORDS * 2_300, reps) < reps  # several blocks
    monkeypatch.setattr(rng_module, "_BLOCK_VALUES", 1 << 14)  # one graph a block
    assert np.array_equal(graphs.triangle_counts(n, p, reps, make_stream(42, 0)),
                          default)


def test_triangle_counts_edges():
    rng = make_stream(43, 0)
    assert graphs.triangle_counts(2, 1.0, 4, rng).tolist() == [0] * 4
    assert graphs.triangle_counts(50, 0.0, 3, rng).tolist() == [0] * 3
    assert graphs.triangle_counts(4, 1.0, 2, rng).tolist() == [4, 4]
    assert graphs.triangle_counts(40, 0.2, 0, rng).size == 0
    with pytest.raises(InvalidParameterError):
        graphs.triangle_counts(10, 1.5, 2, rng)
    with pytest.raises(ResourceLimitError):
        graphs.triangle_counts(10 ** 6, 1e-6, 10 ** 7, rng)
