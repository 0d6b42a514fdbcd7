"""Growing random trees (uniform attachment and preferential attachment), the
two-color reinforcement urn, continuous-time splitting trees with their
contractions to the discrete chains, the biased-line check of the
sum-over-particles identity, and the embedded-chain classics (coupon
collector, balls in bins, pills, last-man-standing duel)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InvalidParameterError, ResourceLimitError
from .rng import RngStream
from .stats import mean_ci

_PARTICLE_CAP = 10_000_000


@dataclass(frozen=True)
class GrowingTree:
    """Tree grown by vertex arrivals: parent[i] < i for i >= 1, parent[0] = -1."""

    parent: np.ndarray

    def __post_init__(self):
        par = np.asarray(self.parent, dtype=np.int64)
        object.__setattr__(self, "parent", par)
        if par.size == 0 or par[0] != -1:
            raise FormatError("vertex 0 must be the root")
        if par.size > 1 and np.any(par[1:] >= np.arange(1, par.size)):
            raise FormatError("each vertex must attach to an earlier one")
        if par.size > 1 and par[1:].min() < 0:
            raise FormatError("parents must be existing vertices")

    @property
    def n_vertices(self) -> int:
        return int(self.parent.size)

    def out_degrees(self) -> np.ndarray:
        return np.bincount(self.parent[1:], minlength=self.n_vertices) \
            if self.n_vertices > 1 else np.zeros(1, dtype=np.int64)

    def degrees(self) -> np.ndarray:
        deg = self.out_degrees().copy()
        deg[1:] += 1
        return deg

    def depths(self) -> np.ndarray:
        par = self.parent.tolist()
        depth = [0] * len(par)
        for i in range(1, len(par)):
            depth[i] = depth[par[i]] + 1
        return np.array(depth, dtype=np.int64)

    def height(self) -> int:
        return int(self.depths().max())


def growing_tree_to_line(tree: GrowingTree) -> str:
    """One-line dump: space-separated parent array (root entry -1)."""
    return " ".join(map(str, tree.parent.tolist()))


def growing_tree_from_line(line: str) -> GrowingTree:
    try:
        parent = [int(tok) for tok in line.split()]
    except ValueError as exc:
        raise FormatError(f"bad tree line: {line!r}") from exc
    return GrowingTree(np.array(parent, dtype=np.int64))


def rrt_chain(n: int, rng: RngStream) -> GrowingTree:
    """Uniform attachment: vertex i joins a uniform vertex of the current tree;
    uniform over the n! increasing trees on vertices 0..n."""
    if n < 0:
        raise InvalidParameterError("n must be >= 0")
    parent = np.empty(n + 1, dtype=np.int64)
    parent[0] = -1
    if n:
        parent[1:] = rng.gen.integers(0, np.arange(1, n + 1))
    return GrowingTree(parent)


def ba_chain(n: int, rng: RngStream) -> GrowingTree:
    """Preferential attachment: vertex i joins vertex v with probability
    deg(v) / (2 (i - 1)), realized by keeping one slot per unit of degree."""
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    parent = np.empty(n + 1, dtype=np.int64)
    parent[0] = -1
    parent[1] = 0
    if n == 1:
        return GrowingTree(parent)
    picks = rng.gen.integers(0, 2 * np.arange(1, n, dtype=np.int64))
    slots = [0] * (2 * n)
    slots[1] = 1
    for i, r in enumerate(picks, start=2):
        chosen = slots[r]
        parent[i] = chosen
        slots[2 * i - 2] = chosen
        slots[2 * i - 1] = i
    return GrowingTree(parent)


# ---------------------------------------------------------------------------
# Reinforcement urn


def polya_urn(steps: int, r0: int, b0: int, rng: RngStream) -> np.ndarray:
    """Two-color reinforcement urn trajectory; rows are (red, blue) counts."""
    if r0 < 1 or b0 < 1:
        raise InvalidParameterError("both colors must start with >= 1 ball")
    if steps < 0:
        raise InvalidParameterError("steps must be >= 0")
    out = np.empty((steps + 1, 2), dtype=np.int64)
    r, b = r0, b0
    out[0] = r, b
    u = rng.gen.random(steps)
    for i in range(steps):
        if u[i] * (r + b) < r:
            r += 1
        else:
            b += 1
        out[i + 1] = r, b
    return out


def polya_final_batch(steps: int, r0: int, b0: int, reps: int,
                      rng: RngStream) -> np.ndarray:
    """Red counts after ``steps`` reinforcement draws, vectorized over reps."""
    r = np.full(reps, r0, dtype=np.int64)
    total = r0 + b0
    for _ in range(steps):
        r += rng.gen.random(reps) * total < r
        total += 1
    return r


# ---------------------------------------------------------------------------
# Continuous-time splitting trees


@dataclass(frozen=True)
class YuleTree:
    """Splitting tree of order k: every particle lives an exponential unit-rate
    lifetime, then splits into k ordered children.

    Particle arrays are indexed by particle id; the root is particle 0.
    ``split_particles[j]`` is the particle that split at ``jump_times[j]``; its
    k children are the consecutive ids starting at ``first_child[j]``.
    """

    order: int
    parent: np.ndarray       # parent particle id, -1 for the root
    position: np.ndarray     # 1..k among siblings, 0 for the root
    birth_time: np.ndarray
    jump_times: np.ndarray
    split_particles: np.ndarray  # particle that split at each jump
    first_child: np.ndarray      # first child id per jump; children consecutive
    alive: np.ndarray            # ids alive at the stopping time

    @property
    def n_jumps(self) -> int:
        return int(self.jump_times.size)

    def alive_counts(self) -> np.ndarray:
        """Particle count after each jump: 1 + (j+1)(k-1) from one ancestor."""
        return 1 + (np.arange(self.n_jumps) + 1) * (self.order - 1)


def yule_simulate(k: int, rng: RngStream, t: float | None = None,
                  n_particles: int | None = None,
                  particle_cap: int = _PARTICLE_CAP) -> YuleTree:
    """Simulate the splitting tree as its jump chain: waiting times are
    exponential with rate equal to the current particle count and the particle
    that splits is uniform among the living."""
    if k < 2:
        raise InvalidParameterError("order must be >= 2")
    if (t is None) == (n_particles is None):
        raise InvalidParameterError("stop with exactly one of t or n_particles")
    if t is not None and t < 0:
        raise InvalidParameterError("t must be >= 0")
    if n_particles is not None and n_particles < 1:
        raise InvalidParameterError("n_particles must be >= 1")
    parent = [-1]
    position = [0]
    birth = [0.0]
    jump_times = []
    split_particles = []
    first_child = []
    alive = [0]
    now = 0.0
    while True:
        count = len(alive)
        if n_particles is not None and count >= n_particles:
            break
        if count > particle_cap:
            raise ResourceLimitError("particle cap exceeded")
        wait = rng.gen.exponential(1.0 / count)
        pick = int(rng.gen.integers(0, count))
        if t is not None and now + wait > t:
            break
        now += wait
        u = alive[pick]
        base = len(parent)
        for pos in range(1, k + 1):
            parent.append(u)
            position.append(pos)
            birth.append(now)
        alive[pick] = base
        alive.extend(range(base + 1, base + k))
        jump_times.append(now)
        split_particles.append(u)
        first_child.append(base)
    return YuleTree(k, np.array(parent), np.array(position), np.array(birth),
                    np.array(jump_times), np.array(split_particles, dtype=np.int64),
                    np.array(first_child, dtype=np.int64),
                    np.array(alive, dtype=np.int64))


def yule_counts_at(k: int, t: float, reps: int, rng: RngStream) -> np.ndarray:
    """Particle counts at time t over independent order-k trees (count-only)."""
    if k < 2 or t < 0:
        raise InvalidParameterError("need k >= 2 and t >= 0")
    counts = np.ones(reps, dtype=np.int64)
    clock = np.zeros(reps)
    active = np.arange(reps)
    while active.size:
        clock[active] += rng.gen.exponential(1.0 / counts[active])
        still = clock[active] <= t
        counts[active[still]] += k - 1
        active = active[still]
    return counts


def yule_to_rrt(tree: YuleTree, n: int) -> GrowingTree:
    """Contract the leftmost-child lines of an order-2 splitting tree observed
    at its n-th jump; the labeled contraction grows exactly like the uniform
    attachment chain."""
    if tree.order != 2:
        raise InvalidParameterError("contraction needs an order-2 tree")
    if tree.n_jumps < n:
        raise InvalidParameterError("tree stopped before n + 1 particles")
    block = {0: 0}
    parent = np.empty(n + 1, dtype=np.int64)
    parent[0] = -1
    for j in range(n):
        u = int(tree.split_particles[j])
        first = int(tree.first_child[j])
        b = block.pop(u)
        block[first] = b            # left child continues the vertex
        block[first + 1] = j + 1    # right child starts vertex j + 1
        parent[j + 1] = b
    return GrowingTree(parent)


def yule3_to_ba(tree0: YuleTree, tree1: YuleTree, n: int) -> GrowingTree:
    """Contract two independent order-3 splitting trees into the preferential
    attachment chain at 2n total particles: at every split the first two
    children stay in the splitting particle's block, the third child opens a
    new block, and blocks are labeled by order of appearance (roots first)."""
    if tree0.order != 3 or tree1.order != 3:
        raise InvalidParameterError("contraction needs order-3 trees")
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    splits_needed = n - 1
    events = sorted(
        [(float(tree0.jump_times[j]), 0, j) for j in range(tree0.n_jumps)]
        + [(float(tree1.jump_times[j]), 1, j) for j in range(tree1.n_jumps)])
    if len(events) < splits_needed:
        raise InvalidParameterError("trees stopped before 2n total particles")
    block = [{0: 0}, {0: 1}]
    parent = np.empty(n + 1, dtype=np.int64)
    parent[0] = -1
    parent[1] = 0
    for v, (_, which, j) in enumerate(events[:splits_needed], start=2):
        tree = tree0 if which == 0 else tree1
        u = int(tree.split_particles[j])
        first = int(tree.first_child[j])
        b = block[which].pop(u)
        block[which][first] = b
        block[which][first + 1] = b
        block[which][first + 2] = v
        parent[v] = b
    return GrowingTree(parent)


# ---------------------------------------------------------------------------
# Sum-over-particles identity


_FUNCTIONALS = ("constant-1", "height-at-least", "degree-at-least")


@dataclass(frozen=True)
class ManyToOneResult:
    lhs_mean: float
    lhs_half_width: float
    rhs_mean: float
    rhs_half_width: float

    def overlap(self) -> bool:
        return (self.lhs_mean - self.lhs_half_width
                <= self.rhs_mean + self.rhs_half_width) and \
               (self.rhs_mean - self.rhs_half_width
                <= self.lhs_mean + self.lhs_half_width)


def _functional_indicator(kind: str, arg: int, n_last, n_other):
    if kind == "constant-1":
        return np.ones_like(np.asarray(n_last), dtype=float)
    if kind == "height-at-least":
        return (np.asarray(n_last) >= arg).astype(float)
    if kind == "degree-at-least":
        return (np.asarray(n_other) >= arg).astype(float)
    raise InvalidParameterError(f"functional must be one of {_FUNCTIONALS}")


def _population_line_stats(k: int, t: float, rng: RngStream):
    """Ancestry-line statistics of every particle alive at t, full simulation.

    For each particle, counts along its line from the root of branch points
    continued in the last position versus any other position.
    """
    n_last = [0]
    n_other = [0]
    alive = [0]
    now = 0.0
    while True:
        count = len(alive)
        wait = rng.gen.exponential(1.0 / count)
        pick = int(rng.gen.integers(0, count))
        if now + wait > t:
            break
        now += wait
        u = alive[pick]
        base = len(n_last)
        for pos in range(1, k + 1):
            n_last.append(n_last[u] + (pos == k))
            n_other.append(n_other[u] + (pos != k))
        alive[pick] = base + k - 1
        alive.extend(range(base, base + k - 1))
    return (np.array([n_last[u] for u in alive]),
            np.array([n_other[u] for u in alive]))


def _spine_line_stats(k: int, t: float, rng: RngStream) -> tuple[int, int]:
    """Line statistics of the distinguished particle: the marked line branches
    at rate k and continues in a uniform position.  The k - 1 ordinary subtrees
    it hangs at every branch point do not affect these statistics, so they are
    not simulated."""
    now = 0.0
    n_last = 0
    n_other = 0
    while True:
        now += rng.gen.exponential(1.0 / k)
        if now > t:
            return n_last, n_other
        if int(rng.gen.integers(1, k + 1)) == k:
            n_last += 1
        else:
            n_other += 1


def many_to_one_table(k: int, t: float, functionals, reps: int,
                      rng: RngStream) -> dict[tuple[str, int], ManyToOneResult]:
    """Evaluate several functionals on shared population / marked-line draws."""
    if k < 2:
        raise InvalidParameterError("k must be >= 2")
    if not 0 <= t <= 8:
        raise InvalidParameterError("t must be in [0, 8]")
    functionals = [tuple(f) for f in functionals]
    for kind, _ in functionals:
        if kind not in _FUNCTIONALS:
            raise InvalidParameterError(f"functional must be one of {_FUNCTIONALS}")
    lhs = {f: np.empty(reps) for f in functionals}
    rhs = {f: np.empty(reps) for f in functionals}
    for r in range(reps):
        last, other = _population_line_stats(k, t, rng)
        for kind, arg in functionals:
            lhs[(kind, arg)][r] = _functional_indicator(kind, arg, last, other).sum()
    for r in range(reps):
        last, other = _spine_line_stats(k, t, rng)
        for kind, arg in functionals:
            rhs[(kind, arg)][r] = float(
                _functional_indicator(kind, arg, last, other)[()])
    growth = math.exp((k - 1) * t)
    out = {}
    for f in functionals:
        lhs_mean, lhs_hw = mean_ci(lhs[f], level=0.99)
        rhs_mean, rhs_hw = mean_ci(growth * rhs[f], level=0.99)
        out[f] = ManyToOneResult(lhs_mean, lhs_hw, rhs_mean, rhs_hw)
    return out


# ---------------------------------------------------------------------------
# Embedded-chain classics


def coupon_collector(n: int, rng: RngStream) -> int:
    """Draws needed to see all n coupon types: the sum over j of the geometric
    time to leave j distinct types."""
    if n < 2:
        raise InvalidParameterError("n must be >= 2")
    p = (n - np.arange(n)) / n
    return int(rng.gen.geometric(p).sum())


def coupon_collector_batch(n: int, reps: int, rng: RngStream,
                           block: int = 256) -> np.ndarray:
    out = np.empty(reps, dtype=np.int64)
    done = 0
    p = (n - np.arange(n)) / n
    while done < reps:
        b = min(block, reps - done)
        out[done:done + b] = rng.gen.geometric(p, size=(b, n)).sum(axis=1)
        done += b
    return out


def balls_in_bins(n: int, rng: RngStream) -> int:
    """Maximum bin load after n uniform throws into n bins."""
    if n < 2:
        raise InvalidParameterError("n must be >= 2")
    return int(np.bincount(rng.gen.integers(0, n, size=n)).max())


def pills(n: int, rng: RngStream) -> int:
    """Half pills left when the last whole pill is drawn from the jar."""
    if n < 2:
        raise InvalidParameterError("n must be >= 2")
    return int(pills_batch(n, 1, rng)[0])


def pills_batch(n: int, reps: int, rng: RngStream) -> np.ndarray:
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


def ok_corral(n: int, rng: RngStream) -> int:
    """Survivors when two facing groups of n shooters eliminate each other,
    the next shooter drawn uniformly among those standing."""
    if n < 2:
        raise InvalidParameterError("n must be >= 2")
    return int(ok_corral_batch(n, 1, rng)[0])


def ok_corral_batch(n: int, reps: int, rng: RngStream) -> np.ndarray:
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
