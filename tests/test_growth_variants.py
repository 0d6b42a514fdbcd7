"""Qualitative companions to the growth chains: the parent-or-self attachment
variant is compared with the preferential chain by total-variation distance on
small shapes (reported, not thresholded), and the identity of the maximal
degree vertex is tabulated across sizes."""

import math

import numpy as np

from randstruct import growth
from randstruct.rng import make_stream


def variant_chain(n, rng):
    """Attach each new vertex to a uniform vertex, or with probability 1/2 to
    that vertex's parent (to the root if the pick is the root)."""
    parent = np.empty(n + 1, dtype=np.int64)
    parent[0] = -1
    parent[1] = 0
    for i in range(2, n + 1):
        pick = int(rng.gen.integers(0, i))
        if rng.gen.random() < 0.5 and pick > 0:
            pick = int(parent[pick])
        parent[i] = pick
    return parent


def test_variant_chain_close_to_preferential_shapes():
    reps = 200_000
    rng = make_stream(6, 0)
    counts_variant = np.zeros(6, dtype=np.int64)
    for _ in range(reps):
        p = variant_chain(3, rng)
        counts_variant[p[2] * 3 + p[3]] += 1
    rng = make_stream(6, 1)
    counts_ba = np.zeros(6, dtype=np.int64)
    for _ in range(reps):
        p = growth.ba_chain(3, rng).parent
        counts_ba[int(p[2]) * 3 + int(p[3])] += 1
    tv = 0.5 * np.abs(counts_variant / reps - counts_ba / reps).sum()
    # the chains are close but not equal; report the distance, assert sanity
    print(f"shape total-variation distance at n=3: {tv:.4f}")
    assert 0.0 <= tv <= 1.0
    assert counts_variant.min() > 0 and counts_ba.min() > 0


def _degrees(tree):
    """Children plus the edge up, which only the root lacks."""
    return tree.out_degrees() + (tree.parent >= 0)


def test_ba_max_degree_index_table_stable():
    # the label holding the maximal degree concentrates on the first vertices,
    # with a frequency table that stays put as n grows
    rng = make_stream(6, 2)
    tables = {}
    for n in (2_000, 20_000):
        reps = 300
        argmaxes = np.array([int(np.argmax(_degrees(growth.ba_chain(n, rng))))
                             for _ in range(reps)])
        tables[n] = np.array([np.mean(argmaxes <= b) for b in (0, 1, 3, 7)])
    print("P(argmax label <= {0,1,3,7}):", dict(tables))
    assert np.all(np.abs(tables[2_000] - tables[20_000]) < 0.15)
    assert tables[20_000][-1] > 0.5  # the winner sits among the first labels


def test_rrt_max_degree_label_recorded():
    # the maximal-degree label in the uniform chain sits around n^0.27; the
    # empirical distribution is recorded without asserting the exponent
    rng = make_stream(6, 3)
    n = 50_000
    labels = np.array([int(np.argmax(growth.rrt_chain(n, rng).out_degrees()))
                       for _ in range(120)])
    labels = np.maximum(labels, 1)
    exponents = np.log(labels) / math.log(n)
    print(f"argmax-label exponent quartiles: {np.percentile(exponents, [25, 50, 75])}")
    assert labels.min() >= 1 and labels.max() <= n
