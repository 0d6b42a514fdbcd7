import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from randstruct import exact, growth, rng as rng_module, trees
from randstruct.errors import FormatError, InvalidParameterError, ResourceLimitError
from randstruct.exact import OffspringLaw
from randstruct.rng import make_stream
from randstruct.stats import chi_square_counts, chi_square_gof, ks_test
from randstruct.verify import _plane_tree_sequences


# ---------------------------------------------------------------------------
# Exact laws the samplers are checked against


def plane_height_pmf(n, h):
    """Height law of a uniform vertex in a uniform plane tree with n edges."""
    return Fraction((2 * h + 1) * math.comb(2 * n + 1, n - h),
                    (2 * n + 1) * math.comb(2 * n, n))


def cayley_distance_pmf(n, k):
    """P(distance between vertex 1 and a uniform vertex is k - 1) in a uniform
    labeled tree on n vertices; the first-collision law of the birthday problem."""
    num = k
    for j in range(1, k):
        num *= n - j
    return Fraction(num, n ** k)


def test_plane_height_pmf():
    assert plane_height_pmf(9, 0) == Fraction(1, 10)
    assert plane_height_pmf(2, 1) == Fraction(1, 2)
    for n in (1, 2, 5, 37, 200):
        assert sum(plane_height_pmf(n, h) for h in range(n + 1)) == 1


def test_plane_height_brute_force_two_edges():
    # the 2 plane trees with 2 edges have height profiles (0,1,2) and (0,1,1);
    # up to 5 edges, every vertex of every plane tree counts once
    heights = Counter([0, 1, 2] + [0, 1, 1])
    for h, mult in heights.items():
        assert plane_height_pmf(2, h) == Fraction(mult, 6)
    for n in range(1, 6):
        profile = Counter()
        forest = [trees.PlaneTree(seq) for seq in _plane_tree_sequences(n)]
        for tree in forest:
            profile.update(ref_plane_depths(tree.child_counts).tolist())
        total = len(forest) * (n + 1)
        assert all(plane_height_pmf(n, h) == Fraction(profile[h], total)
                   for h in range(n + 1))


def test_cayley_distance_pmf():
    assert cayley_distance_pmf(17, 1) == Fraction(1, 17)
    assert cayley_distance_pmf(2, 2) == Fraction(1, 2)
    for n in (1, 2, 6, 41, 200):
        assert sum(cayley_distance_pmf(n, k) for k in range(1, n + 1)) == 1


# ---------------------------------------------------------------------------
# Dump format


def test_tree_line_roundtrip():
    tree = trees.PlaneTree([3, 0, 2, 0, 1, 0, 0])
    assert trees.plane_tree_from_line(trees.plane_tree_to_line(tree)) == tree
    with pytest.raises(FormatError):
        trees.plane_tree_from_line("2 0 x")


# ---------------------------------------------------------------------------
# Samplers


def test_bgw_size_frequencies_geometric_half():
    rng = make_stream(0, 1)
    sizes = trees.bgw_total_sizes(OffspringLaw.geometric(0.5), 200_000, rng)
    p1 = float(np.mean(sizes == 1))
    p2 = float(np.mean(sizes == 2))
    assert abs(p1 - 0.5) < 3 * math.sqrt(0.25 / sizes.size)
    assert abs(p2 - 1 / 8) < 3 * math.sqrt(1 / 8 * 7 / 8 / sizes.size)


def test_bgw_delta_zero_single_vertex():
    law = OffspringLaw.from_pmf({0: 1})
    assert trees.bgw_total_sizes(law, 10, make_stream(0, 0)).tolist() == [1] * 10


def test_bgw_cap_marker():
    law = OffspringLaw.from_pmf({2: 1})  # immortal binary population
    sizes = trees.bgw_total_sizes(law, 10, make_stream(0, 2), cap=100)
    assert sizes.tolist() == [100] * 10


def test_bgw_size_law_matches_one_over_n_convolution():
    # P(#T = n) = (1/n) P(S_n = -1) with S the offspring-minus-one walk,
    # computed by exact convolution of the geometric step law
    law = OffspringLaw.geometric(0.5)
    steps = {k - 1: Fraction(1, 2 ** (k + 1)) for k in range(40)}
    dist = {0: Fraction(1)}
    target = {}
    for n in range(1, 13):
        new = {}
        for s, p in dist.items():
            for step, q in steps.items():
                new[s + step] = new.get(s + step, Fraction(0)) + p * q
        dist = new
        target[n] = Fraction(1, n) * dist.get(-1, Fraction(0))
    rng = make_stream(0, 3)
    sizes = trees.bgw_total_sizes(law, 100_000, rng, cap=4096)
    total_mass = float(sum(target.values()))
    pmf = [0.0] + [float(target[n]) / total_mass for n in range(1, 13)]
    report = chi_square_gof(sizes[sizes <= 12], pmf, alpha_level=0.01)
    assert report.passed, (report.statistic, report.threshold)


def test_bgw_total_sizes_argument_checks():
    rng = make_stream(0, 4)
    law = OffspringLaw.poisson(0.8)
    with pytest.raises(InvalidParameterError):
        trees.bgw_total_sizes(law, -1, rng)
    with pytest.raises(InvalidParameterError):
        trees.bgw_total_sizes(law, 10, rng, cap=0)
    assert trees.bgw_total_sizes(law, 0, rng).shape == (0,)
    assert trees.bgw_total_sizes(law, 5, rng, cap=1).tolist() == [1] * 5


@pytest.mark.parametrize("cap", [2, 5, 50])
def test_bgw_sizes_below_cap_64_follow_the_capped_law(cap):
    # a size at or above the cap reads as the cap: the Borel-Tanner law with
    # its tail mass moved onto the cap
    rng = make_stream(0, 5)
    sizes = trees.bgw_total_sizes(OffspringLaw.poisson(0.8), 50_000, rng, cap=cap)
    assert sizes.min() == 1 and sizes.max() == cap
    below = [0.0] + [exact.borel_tanner_pmf(0.8, n) for n in range(1, cap)]
    report = chi_square_gof(sizes, below + [1.0 - sum(below)], alpha_level=0.01)
    assert report.passed, (report.statistic, report.threshold)


def test_bgw_total_sizes_memory_within_draw_blocks():
    # each round draws its (walks, length) matrix in blocks of the draw budget
    import tracemalloc
    reps = 100_000
    tracemalloc.start()
    try:
        sizes = trees.bgw_total_sizes(OffspringLaw.poisson(0.8), reps,
                                      make_stream(0, 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes.size == reps
    assert peak <= 4 * 8 * rng_module._BLOCK_VALUES + 64 * reps


def test_conditioned_uniform_over_three_edges():
    rng = make_stream(0, 4)
    batch = trees.sample_bgw_conditioned_batch(OffspringLaw.geometric(0.5), 4,
                                               20_000, rng)
    keys = Counter(tuple(t.child_counts.tolist()) for t in batch)
    assert len(keys) == 5
    report = chi_square_counts(list(keys.values()), [1 / 5] * 5, alpha_level=0.01)
    assert report.passed


def test_conditioned_impossible_size_errors():
    law = OffspringLaw.from_pmf({0: 0.99, 2: 0.01})
    with pytest.raises(ResourceLimitError):
        trees.sample_bgw_conditioned(law, 2, make_stream(0, 5))


def test_conditioned_poisson_three_vertex_shapes():
    # conditioned on 3 vertices: the path and the cherry carry weights
    # proportional to 1 and 1/2 (the cherry's two leaves are exchangeable),
    # i.e. probabilities 2/3 and 1/3
    rng = make_stream(0, 6)
    batch = trees.sample_bgw_conditioned_batch(OffspringLaw.poisson(1.0), 3,
                                               100_000, rng)
    path_frac = np.mean([t.child_counts.tolist() == [1, 1, 0] for t in batch])
    assert abs(path_frac - 2 / 3) < 3 * math.sqrt(2 / 9 / len(batch))


def test_cayley_distance_law():
    rng = make_stream(0, 8)
    n = 20
    reps = 30_000
    picks = rng.gen.integers(1, n + 1, size=reps)
    dists = np.empty(reps, dtype=np.int64)
    for r in range(reps):
        dists[r] = tree_distance(trees.sample_cayley(n, rng), 1, int(picks[r]))
    # law indexed by k = distance+1
    pmf = [0.0] + [float(cayley_distance_pmf(n, k)) for k in range(1, n + 1)]
    report = chi_square_gof(dists + 1, pmf, alpha_level=0.01)
    assert report.passed, (report.statistic, report.threshold)


def tree_distance(tree, u, v):
    """Edge count of the path from u to v, by breadth-first search."""
    adjacency = {w: [] for w in range(1, tree.n + 1)}
    for a, b in tree.edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    dist = {u: 0}
    order = [u]
    for x in order:  # the list grows as the search reaches new vertices
        for y in adjacency[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                order.append(y)
    return dist[v]


def test_cayley_sampler_small_uniform():
    rng = make_stream(0, 7)
    assert trees.sample_cayley(2, rng).edges == ((1, 2),)
    counts = Counter(trees.sample_cayley(3, rng).edges for _ in range(30_000))
    assert len(counts) == 3
    report = chi_square_counts(list(counts.values()), [1 / 3] * 3,
                               alpha_level=0.01)
    assert report.passed


def test_conditioned_argument_checks():
    law = OffspringLaw.geometric(0.5)
    with pytest.raises(InvalidParameterError):
        trees.sample_bgw_conditioned_batch(law, 4, -3, make_stream(0, 18))
    for n in (0, -1):
        with pytest.raises(InvalidParameterError):
            trees.sample_bgw_conditioned_batch(law, n, 1, make_stream(0, 18))
        with pytest.raises(InvalidParameterError):
            trees.sample_bgw_conditioned(law, n, make_stream(0, 18))
    assert trees.sample_bgw_conditioned_batch(law, 4, 0, make_stream(0, 18)) == []


@pytest.mark.parametrize("law", [OffspringLaw.geometric(0.5), OffspringLaw.poisson(1.0),
                                 OffspringLaw.binomial(2, 0.5)])
@pytest.mark.parametrize("n", [1, 2, 5, 300, 20_000])
def test_scalar_conditioned_is_the_one_tree_batch(law, n):
    for seed in range(3):
        a, b = make_stream(43, seed), make_stream(43, seed)
        tree = trees.sample_bgw_conditioned(law, n, a)
        assert tree == trees.sample_bgw_conditioned_batch(law, n, 1, b)[0]
        assert tree.n_vertices == n
        assert a.gen.random() == b.gen.random()


def test_conditioned_block_check_rejects_corrupted_rows():
    kept = trees.sample_bgw_conditioned_batch(OffspringLaw.geometric(0.5), 5, 40,
                                              make_stream(43, 9))
    block = np.stack([tree.child_counts for tree in kept])
    assert trees._plane_trees(block.copy()) == kept
    bad_rows = {
        "negative count": [2, -1, 2, 0, 0],
        "walk dips below zero": [0, 2, 1, 1, 0],
        "walk ends above -1": [2, 1, 1, 1, 0],
    }
    for row in bad_rows.values():
        corrupted = block.copy()
        corrupted[17] = row
        with pytest.raises(FormatError):
            trees._plane_trees(corrupted)
        with pytest.raises(FormatError):
            trees.PlaneTree(row)


# Laws up to a constant factor, written out apart from OffspringLaw; the
# conditioned law of a plane tree is proportional to the product over its
# vertices.  Twelve tests at level 0.001 keep the family-wise level near 0.01.
ENUMERATION_LAWS = {
    "geometric": (OffspringLaw.geometric(0.5), lambda c: 0.5 ** c),
    "poisson": (OffspringLaw.poisson(1.0), lambda c: 1 / math.factorial(c)),
    "binomial": (OffspringLaw.binomial(2, 0.5), lambda c: math.comb(2, c)),
    "supercritical pmf": (OffspringLaw.from_pmf({0: 0.5, 1: 0.2, 3: 0.3}),
                          lambda c: {0: 0.5, 1: 0.2, 3: 0.3}.get(c, 0.0)),
}


@pytest.mark.parametrize("name", sorted(ENUMERATION_LAWS))
@pytest.mark.parametrize("n", [4, 5, 6])
def test_conditioned_law_matches_enumeration(name, n):
    law, weight = ENUMERATION_LAWS[name]
    weights = {s: math.prod(map(weight, s)) for s in _plane_tree_sequences(n - 1)}
    shapes = [s for s, w in weights.items() if w > 0]
    probs = np.array([weights[s] for s in shapes])
    rng = make_stream(44, 10 * n + sorted(ENUMERATION_LAWS).index(name))
    batch = trees.sample_bgw_conditioned_batch(law, n, 20_000, rng)
    counts = Counter(tuple(t.child_counts.tolist()) for t in batch)
    assert set(counts) <= set(shapes)
    report = chi_square_counts([counts[s] for s in shapes], probs / probs.sum(),
                               alpha_level=0.001)
    assert report.passed, (report.statistic, report.threshold)


def test_cayley_uniform_over_sixteen_labeled_trees():
    rng = make_stream(0, 19)
    counts = Counter(trees.sample_cayley(4, rng).edges for _ in range(8_000))
    assert len(counts) == exact.cayley_count(4) == 16
    report = chi_square_counts(list(counts.values()), [1 / 16] * 16,
                               alpha_level=0.01)
    assert report.passed, (report.statistic, report.threshold)


def ref_cayley(n, rng):
    # the labeled-tree construction as it was: one edge per child, by loop
    tree = trees.sample_bgw_conditioned(OffspringLaw.poisson(1.0), n, rng)
    labels = rng.gen.permutation(n) + 1
    counts = tree.child_counts
    edges = []
    nxt = 1
    for u in range(n):
        for v in range(nxt, nxt + int(counts[u])):
            edges.append((labels[u], labels[v]))
        nxt += int(counts[u])
    return trees.LabeledTree.from_edges(n, edges)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 50, 2000])
def test_cayley_edges_match_child_loop(n):
    for seed in range(3):
        a, b = make_stream(45, seed), make_stream(45, seed)
        assert trees.sample_cayley(n, a) == ref_cayley(n, b)
        assert a.gen.random() == b.gen.random()


def ref_plane_depths(counts):
    # the breadth-first loop that PlaneTree.depths replaced
    depths = np.empty(counts.size, dtype=np.int64)
    depths[0] = 0
    nxt = 1
    for u in range(counts.size):
        c = int(counts[u])
        if c:
            depths[nxt:nxt + c] = depths[u] + 1
            nxt += c
    return depths


def growth_depths(counts):
    """Depths by the growth chains' pointer-doubling kernel: a breadth-first
    child-count sequence lists each vertex after its parent."""
    parent = np.concatenate(([-1], np.repeat(np.arange(counts.size), counts)))
    return growth.GrowingTree(parent).depths()


@pytest.mark.parametrize("n", [1, 2, 3, 40, 5000])
def test_plane_depths_match_loop(n):
    # ref_plane_depths is the oracle of the uniform-vertex height tests below
    for seed, law in enumerate([OffspringLaw.geometric(0.5), OffspringLaw.poisson(1.0),
                                OffspringLaw.binomial(2, 0.5)]):
        tree = trees.sample_bgw_conditioned(law, n, make_stream(46, seed))
        got = ref_plane_depths(tree.child_counts)
        assert got.dtype == np.int64
        assert np.array_equal(got, growth_depths(tree.child_counts))


def test_plane_depths_of_small_trees_and_a_long_path():
    assert ref_plane_depths(np.array([0])).tolist() == [0]
    assert ref_plane_depths(np.array([1, 0])).tolist() == [0, 1]
    assert ref_plane_depths(np.array([3, 0, 0, 0])).max() == 1
    path = trees.PlaneTree([1] * 9_999 + [0])
    assert np.array_equal(ref_plane_depths(path.child_counts), np.arange(10_000))
    assert np.array_equal(growth_depths(path.child_counts), np.arange(10_000))


def uniform_vertex_heights(batch, rng):
    """The depth of one uniform vertex of each tree."""
    picks = rng.gen.integers(0, batch[0].n_vertices, size=len(batch))
    return np.array([ref_plane_depths(t.child_counts)[i]
                     for t, i in zip(batch, picks.tolist())])


def test_uniform_vertex_height_small():
    rng = make_stream(0, 11)
    batch = trees.sample_bgw_conditioned_batch(OffspringLaw.geometric(0.5), 3,
                                               30_000, rng)
    hits = uniform_vertex_heights(batch, rng) == 1
    target = float(plane_height_pmf(2, 1))
    assert abs(hits.mean() - target) < 3 * math.sqrt(0.25 / hits.size)


def test_uniform_vertex_height_matches_exact_law():
    n = 60
    rng = make_stream(0, 12)
    batch = trees.sample_bgw_conditioned_batch(OffspringLaw.geometric(0.5),
                                               n + 1, 20_000, rng)
    heights = uniform_vertex_heights(batch, rng)
    pmf = [float(plane_height_pmf(n, h)) for h in range(heights.max() + 1)]
    report = chi_square_gof(heights, pmf, alpha_level=0.01)
    assert report.passed, (report.statistic, report.threshold)


def test_height_rayleigh_limit():
    # KS on the uniform-blurred height; the raw lattice atom (~0.04) exceeds
    # the KS resolution, while the blurred law at n = 400 sits 3e-4 from the
    # scaled Rayleigh limit
    n = 400
    reps = 10_000
    rng = make_stream(0, 13)
    batch = trees.sample_bgw_conditioned_batch(OffspringLaw.geometric(0.5),
                                               n + 1, reps, rng)
    heights = uniform_vertex_heights(batch, rng)
    blurred = (heights + rng.gen.random(reps)) / math.sqrt(n)
    report = ks_test(np.sort(blurred),
                     lambda x: 1.0 - np.exp(-np.clip(x, 0, None) ** 2),
                     alpha_level=0.01)
    assert report.passed, (report.statistic, report.threshold)


# ---------------------------------------------------------------------------
# Percolation on the regular tree
#
# Each vertex below the root of the 3-regular tree keeps each of its two
# child edges with chance p, so the open cluster of the root is a BGW tree
# with Binomial(2, p) offspring; it survives when its size reaches the cap.


def percolation_survival(p, reps, rng, cap):
    sizes = trees.bgw_total_sizes(OffspringLaw.binomial(2, p), reps, rng, cap=cap)
    return float(np.mean(sizes == cap))


def test_percolation_subcritical_dies():
    rng = make_stream(0, 15)
    assert percolation_survival(0.4, 300, rng, cap=10_000) == 0.0


def test_percolation_critical_rarely_reaches_cap():
    rng = make_stream(0, 16)
    assert percolation_survival(0.5, 300, rng, cap=100_000) < 0.02


def test_percolation_supercritical_matches_fixed_point():
    rng = make_stream(0, 17)
    freq = percolation_survival(0.75, 2_000, rng, cap=10_000)
    # the cluster survives with chance 8/9: it dies with the smallest root
    # of z = (1/4 + 3z/4)^2, which is 1/9
    assert abs(freq - 8 / 9) < 0.02


def test_percolation_binary_subtree_fixed_point():
    # probability that the family tree carries no infinite binary subtree:
    # smallest root of z = g(z) + (1 - z) g'(z); for one or three children
    # with p = 8/9 the transition point sits exactly at p
    for p, expect_sub_one in ((0.5, False), (8 / 9 + 0.02, True)):
        def h(z, p=p):
            g = (1 - p) * z + p * z ** 3
            gp = (1 - p) + 3 * p * z ** 2
            return g + (1 - z) * gp

        z = 0.0
        for _ in range(100_000):
            z = h(z)
        assert (z < 1.0 - 1e-3) == expect_sub_one


def test_conditioned_memory_within_one_block():
    # one 8 MiB draw block plus O(n) for the tree; the increment rejection it
    # replaced drew a 256 MB block at this size
    import tracemalloc
    n = 10_000
    for seed in range(10):
        tracemalloc.start()
        try:
            tree = trees.sample_bgw_conditioned(OffspringLaw.geometric(0.5), n,
                                                make_stream(41, seed))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tree.n_vertices == n
        assert peak <= 8 * rng_module._BLOCK_VALUES + 64 * n
