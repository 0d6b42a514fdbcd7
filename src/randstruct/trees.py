"""Plane trees, branching-process total progenies, size-conditioned
branching-process trees and uniform labeled trees.

A plane tree is stored as its breadth-first child-count sequence: its
Lukasiewicz walk is the prefix sums of the counts less one, so the
constructor checks the sequence by that walk.

Size-conditioned trees of every offspring law come from one exact sampler:
rejection on child-count histograms, at a cost per attempt of the law's
support below n, with memory of one draw block plus O(n) per tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FormatError, InvalidParameterError, ResourceLimitError
from .exact import OffspringLaw
from .rng import RngStream, _block_rows

# histogram draws allowed per conditioned tree before the sampler gives up
_MAX_ATTEMPTS = 1 << 22


class PlaneTree:
    """Rooted ordered tree; ``child_counts[i]`` is the child count of the i-th
    vertex in breadth-first order."""

    __slots__ = ("child_counts",)

    def __init__(self, child_counts):
        counts = np.asarray(child_counts, dtype=np.int64)
        if counts.ndim != 1 or counts.size == 0:
            raise FormatError("child counts must be a non-empty sequence")
        if counts.min() < 0:
            raise FormatError("child counts must be >= 0")
        walk = np.cumsum(counts - 1)
        if walk[-1] != -1 or (counts.size > 1 and walk[:-1].min() < 0):
            raise FormatError("child counts do not describe a tree")
        self.child_counts = counts

    @classmethod
    def _checked(cls, counts: np.ndarray) -> PlaneTree:
        """Wrap an int64 child-count row that ``_plane_trees`` checked,
        skipping the checks of the public constructor."""
        tree = object.__new__(cls)
        tree.child_counts = counts
        return tree

    @property
    def n_vertices(self) -> int:
        return int(self.child_counts.size)

    def __eq__(self, other):
        return isinstance(other, PlaneTree) and \
            np.array_equal(self.child_counts, other.child_counts)

    def __hash__(self):
        return hash(self.child_counts.tobytes())

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"PlaneTree({self.child_counts.tolist()})"


@dataclass(frozen=True)
class LabeledTree:
    """Unrooted tree on labels {1..n}, stored by its sorted edge set."""

    n: int
    edges: tuple

    def __post_init__(self):
        if len(self.edges) != self.n - 1:
            raise FormatError("a tree on n labels has n - 1 edges")

    @classmethod
    def from_edges(cls, n: int, edges) -> "LabeledTree":
        canon = tuple(sorted(tuple(sorted(map(int, e))) for e in edges))
        return cls(n, canon)


# ---------------------------------------------------------------------------
# Dump format


def plane_tree_to_line(tree: PlaneTree) -> str:
    """One-line dump: breadth-first child counts, space-separated."""
    return " ".join(map(str, tree.child_counts.tolist()))


def plane_tree_from_line(line: str) -> PlaneTree:
    try:
        counts = [int(tok) for tok in line.split()]
    except ValueError as exc:
        raise FormatError(f"bad tree line: {line!r}") from exc
    return PlaneTree(counts)


# ---------------------------------------------------------------------------
# Samplers


def bgw_total_sizes(law: OffspringLaw, reps: int, rng: RngStream,
                    cap: int = 4096) -> np.ndarray:
    """Vector of total progenies over independent trees, ``cap`` where larger.

    Sizes are first passage times to -1 of the increment walk.  Each round
    extends every unfinished walk by the round's length, which starts at
    min(256, 4 cap) and doubles up to 4 cap; the (walks, length) draws come
    in row blocks of the shared draw budget, the same values as one call.
    """
    if reps < 0:
        raise InvalidParameterError("reps must be >= 0")
    if cap < 1:
        raise InvalidParameterError("cap must be >= 1")
    sizes = np.full(reps, cap, dtype=np.int64)
    pending = np.arange(reps)
    length = min(256, 4 * cap)
    offset = np.zeros(reps, dtype=np.int64)  # walk value carried between blocks
    steps_done = np.zeros(reps, dtype=np.int64)
    while pending.size:
        rows = _block_rows(length, pending.size)
        for lo in range(0, pending.size, rows):
            ids = pending[lo:lo + rows]
            walk = law.sample(rng, size=(ids.size, length))
            walk -= 1
            np.cumsum(walk, axis=1, out=walk)
            walk += offset[ids, None]
            hit = walk <= -1
            has = hit.any(axis=1)
            sizes[ids[has]] = steps_done[ids[has]] + np.argmax(hit[has], axis=1) + 1
            offset[ids] = walk[:, -1]
            del walk, hit
            # a walk that hit -1 is done, like one that reached the cap
            steps_done[ids] = np.where(has, cap, steps_done[ids] + length)
        pending = pending[steps_done[pending] < cap]
        length = min(2 * length, 4 * cap)
    return np.minimum(sizes, cap)


@lru_cache(maxsize=32)
def _size_masses(law: OffspringLaw, n: int) -> np.ndarray:
    """The law on {0..n-1}, normalised, less its trailing cells of zero float64
    mass: exact under the size condition, which bounds each count by n - 1."""
    masses = law.probability(np.arange(n))
    support = np.flatnonzero(masses)
    if support.size == 0:
        raise ResourceLimitError(f"the offspring law puts no mass below {n}")
    masses = masses[:support[-1] + 1] / masses.sum()
    masses.flags.writeable = False
    return masses


def sample_bgw_conditioned_batch(law: OffspringLaw, n_vertices: int, reps: int,
                                 rng: RngStream) -> list[PlaneTree]:
    """Independent branching-process trees conditioned on n vertices.

    The child counts of n draws conditioned on summing to n - 1 are a uniform
    arrangement of a histogram N ~ Multinomial(n, p) conditioned on
    sum_k k N_k = n - 1 (Devroye, SIAM J. Comput. 41, 2012).  Histograms are
    kept by rejection, in row blocks of the shared draw budget; each kept one
    is shuffled and rotated to its unique good cyclic shift, one past the
    first minimum of its walk (the cycle lemma of Dvoretzky & Motzkin, 1947).
    """
    n = n_vertices
    if n < 1:
        raise InvalidParameterError("n_vertices must be >= 1")
    if reps < 0:
        raise InvalidParameterError("reps must be >= 0")
    masses = _size_masses(law, n)
    ks = np.arange(masses.size)
    out: list[PlaneTree] = []
    attempts, per_tree = 0, 8
    while len(out) < reps:
        if attempts >= _MAX_ATTEMPTS * reps:
            raise ResourceLimitError(
                f"{attempts} child-count histograms gave {len(out)} of {reps} "
                f"{n}-vertex trees")
        # eight rows per missing tree, doubling after each shortfall; a block
        # and its row totals fit one draw budget
        rows = _block_rows(masses.size + 1, per_tree * (reps - len(out)))
        attempts += rows
        per_tree *= 2
        hist = rng.gen.multinomial(n, masses, size=rows)
        kept = hist[hist @ ks == n - 1][:reps - len(out)]
        del hist  # a block goes before the next is drawn
        if not kept.size:
            continue
        counts = np.repeat(np.tile(ks, len(kept)), kept.ravel()).reshape(-1, n)
        rng.gen.permuted(counts, axis=1, out=counts)
        cols = np.arange(n) + (np.argmin(np.cumsum(counts - 1, axis=1), axis=1)
                               + 1)[:, None]
        cols[cols >= n] -= n
        rotated = np.take_along_axis(counts, cols, axis=1)
        del counts, cols
        # the check of the rotated walks asserts that each shift is good
        out.extend(_plane_trees(rotated))
    return out


def _plane_trees(block: np.ndarray) -> list[PlaneTree]:
    """The rows of a non-empty int64 block as plane trees, checked as one
    array: counts >= 0, and each row's walk stays >= 0 until it ends at -1."""
    walk = np.cumsum(block - 1, axis=1)
    if (block.min() < 0 or np.any(walk[:, -1] != -1)
            or walk[:, :-1].min(initial=0) < 0):
        raise FormatError("child counts do not describe a tree")
    return [PlaneTree._checked(row) for row in block]


def sample_bgw_conditioned(law: OffspringLaw, n_vertices: int,
                           rng: RngStream) -> PlaneTree:
    """One tree of ``sample_bgw_conditioned_batch``."""
    return sample_bgw_conditioned_batch(law, n_vertices, 1, rng)[0]


def sample_cayley_batch(n: int, reps: int, rng: RngStream) -> np.ndarray:
    """Edges (parent label, child label) of independent uniform labeled trees
    on {1..n}, as a (reps, n - 1, 2) array: size-conditioned unit-Poisson
    branching trees drawn as one batch, then their labels as one block of
    permutations (one row draws the same as ``gen.permutation(n)``)."""
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    batch = sample_bgw_conditioned_batch(OffspringLaw.poisson(1.0), n, reps, rng)
    counts = np.array([tree.child_counts for tree in batch],
                      dtype=np.int64).reshape(reps, n)
    labels = np.tile(np.arange(1, n + 1), (reps, 1))
    rng.gen.permuted(labels, axis=1, out=labels)
    # children are the vertices 1..n-1 of a row in breadth-first order
    parents = np.repeat(np.tile(np.arange(n), reps), counts.ravel()).reshape(reps, n - 1)
    return np.stack([np.take_along_axis(labels, parents, axis=1), labels[:, 1:]], axis=2)


def sample_cayley(n: int, rng: RngStream) -> LabeledTree:
    """One tree of ``sample_cayley_batch``."""
    return LabeledTree.from_edges(n, sample_cayley_batch(n, 1, rng)[0].tolist())
