"""Plane trees and their walk encodings, branching-process samplers (free and
size-conditioned), uniform labeled trees, random mappings, and the
tree-percolation survival experiment.

A plane tree is stored as its breadth-first child-count sequence, which is the
depth-zero form of its encoding walk: encoding is free, decoding is a
validation step.

Size-conditioned trees of every offspring law come from one exact sampler:
rejection on child-count histograms, at a cost per attempt of the law's
support below n, with memory of one draw block plus O(n) per tree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FormatError, InvalidParameterError, ResourceLimitError
from .exact import OffspringLaw
from .growth import GrowingTree
from .rng import RngStream, _block_rows
from .walks import LatticePath

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

    @property
    def n_edges(self) -> int:
        return self.n_vertices - 1

    def _parents(self) -> np.ndarray:
        """Parent of each vertex in breadth-first order; -1 for the root."""
        counts = self.child_counts
        return np.concatenate(([-1], np.repeat(np.arange(counts.size), counts)))

    def depths(self) -> np.ndarray:
        """Depth of each vertex in breadth-first order."""
        return GrowingTree._grown(self._parents()).depths()

    def height(self) -> int:
        return int(self.depths().max())

    def children_lists(self) -> list[list[int]]:
        ends = (np.cumsum(self.child_counts) + 1).tolist()
        return [list(range(a, b)) for a, b in zip([1, *ends[:-1]], ends)]

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

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in range(1, self.n + 1)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def distance(self, a: int, b: int) -> int:
        if a == b:
            return 0
        adj = self.adjacency()
        dist = {a: 0}
        frontier = [a]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        if w == b:
                            return dist[w]
                        nxt.append(w)
            frontier = nxt
        raise FormatError("labels not connected; not a tree")


# ---------------------------------------------------------------------------
# Encodings


def luka_encode(tree: PlaneTree) -> LatticePath:
    """Breadth-first encoding walk: increment = child count - 1."""
    return LatticePath(tree.child_counts - 1)


def luka_decode(path: LatticePath) -> PlaneTree:
    """Inverse of ``luka_encode``; the path must first hit -1 at its end."""
    prefix = path.prefix_sums()
    if path.n == 0 or prefix[-1] != -1 or (path.n > 1 and prefix[:-1].min() < 0):
        raise FormatError("path is not an encoding of a tree")
    return PlaneTree(path.increments + 1)


def contour_encode(tree: PlaneTree) -> LatticePath:
    """Height profile of the clockwise contour; +-1 steps, length 2 * edges."""
    children = tree.children_lists()
    steps: list[int] = []
    # iterative depth-first traversal; each edge contributes one +1 and one -1
    stack = [(0, iter(children[0]))]
    while stack:
        _, it = stack[-1]
        child = next(it, None)
        if child is None:
            stack.pop()
            if stack:
                steps.append(-1)
        else:
            steps.append(1)
            stack.append((child, iter(children[child])))
    return LatticePath(np.array(steps, dtype=np.int64))


def contour_decode(path: LatticePath) -> PlaneTree:
    """Inverse of ``contour_encode`` for nonnegative +-1 paths from 0 to 0."""
    inc = path.increments
    if inc.size % 2 == 1 or (inc.size and not np.all(np.abs(inc) == 1)):
        raise FormatError("contour paths make +-1 steps and have even length")
    prefix = path.prefix_sums()
    if inc.size and (prefix.min() < 0 or prefix[-1] != 0):
        raise FormatError("contour paths stay >= 0 and end at 0")
    children: list[list[int]] = [[]]
    stack = [0]
    for step in inc:
        if step == 1:
            children.append([])
            v = len(children) - 1
            children[stack[-1]].append(v)
            stack.append(v)
        else:
            stack.pop()
    # children lists are in depth-first discovery order; re-index breadth-first
    counts = np.empty(len(children), dtype=np.int64)
    order = [0]
    for i, v in enumerate(order):
        counts[i] = len(children[v])
        order.extend(children[v])
    return PlaneTree(counts)


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


def sample_bgw(law: OffspringLaw, rng: RngStream,
               vertex_cap: int = 1_000_000) -> PlaneTree | None:
    """Branching-process tree in breadth-first order; ``None`` when the
    population is still alive at ``vertex_cap`` vertices (survival evidence)."""
    if vertex_cap < 1:
        raise InvalidParameterError("vertex_cap must be >= 1")
    counts: list[int] = []
    alive = 1
    block = 64
    while alive > 0:
        if len(counts) >= vertex_cap:
            return None
        draw = law.sample(rng, size=min(block, vertex_cap - len(counts) + 1))
        for k in draw:
            counts.append(int(k))
            alive += int(k) - 1
            if alive == 0:
                return PlaneTree(counts)
            if len(counts) >= vertex_cap:
                return None
        block = min(4 * block, 1 << 16)
    return PlaneTree(counts)


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


def sample_cayley(n: int, rng: RngStream) -> LabeledTree:
    """Uniform labeled tree on {1..n}: a size-conditioned unit-Poisson
    branching tree with uniform labels, plane order forgotten."""
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    parent = sample_bgw_conditioned(OffspringLaw.poisson(1.0), n, rng)._parents()
    labels = rng.gen.permutation(n) + 1
    return LabeledTree.from_edges(n, zip(labels[parent[1:]].tolist(),
                                         labels[1:].tolist()))


def tree_stats(tree: PlaneTree) -> tuple[int, Counter, int]:
    """(height, child-count histogram, vertex count)."""
    hist = Counter(tree.child_counts.tolist())
    return tree.height(), hist, tree.n_vertices


def uniform_vertex_height(tree: PlaneTree, rng: RngStream) -> int:
    """Height of a uniformly chosen vertex."""
    depths = tree.depths()
    return int(depths[rng.gen.integers(0, depths.size)])


# ---------------------------------------------------------------------------
# Random mappings


def random_mapping(n: int, rng: RngStream) -> np.ndarray:
    """Uniform function {1..n} -> {1..n}, returned as a 1-based image array."""
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    return rng.gen.integers(1, n + 1, size=n)


def cyclic_point_count(mapping: np.ndarray) -> int:
    """Number of points lying on a cycle of the functional graph."""
    n = mapping.size
    state = np.zeros(n + 1, dtype=np.int8)  # 0 new, 1 on current path, 2 done
    on_cycle = np.zeros(n + 1, dtype=bool)
    for start in range(1, n + 1):
        if state[start]:
            continue
        path = []
        v = start
        while state[v] == 0:
            state[v] = 1
            path.append(v)
            v = int(mapping[v - 1])
        if state[v] == 1:  # hit the current path: the loop from v is a cycle
            for u in reversed(path):
                on_cycle[u] = True
                if u == v:
                    break
        for u in path:
            state[u] = 2
    return int(on_cycle.sum())


# ---------------------------------------------------------------------------
# Percolation on regular trees


def tree_percolation_survival(d: int, p: float, reps: int, rng: RngStream,
                              cap: int = 100_000) -> float:
    """Frequency of open clusters of the root reaching ``cap`` vertices in the
    rooted tree where every vertex has d - 1 children (degree d away from the
    root).  The open cluster is a branching process with Binomial(d-1, p)
    offspring, simulated generation by generation."""
    if d < 3:
        raise InvalidParameterError("d must be >= 3")
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError("p must be in [0, 1]")
    if reps < 1:
        raise InvalidParameterError("reps must be >= 1")
    survived = 0
    for _ in range(reps):
        alive = 1
        total = 1
        while alive and total < cap:
            alive = int(rng.gen.binomial(alive * (d - 1), p))
            total += alive
        if total >= cap:
            survived += 1
    return survived / reps
