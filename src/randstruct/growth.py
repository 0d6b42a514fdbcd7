"""Growing random trees (uniform attachment and preferential attachment),
continuous-time splitting trees with their contractions to the discrete
chains, the biased-line check of the sum-over-particles identity, and the
embedded-chain classics (coupon collector, balls in bins, pills,
last-man-standing duel)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import FormatError, InvalidParameterError, ResourceLimitError
from .rng import RngStream, _block_buffer, _block_rows, _uniform_block
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

    @classmethod
    def _grown(cls, parent: np.ndarray) -> GrowingTree:
        """Wrap an int64 parent array that a sampler built valid by
        construction, skipping the checks of the public constructor."""
        tree = object.__new__(cls)
        object.__setattr__(tree, "parent", parent)
        return tree

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
        """Depth of every vertex by pointer doubling: depth[i] is the distance
        from i to anc[i], and each pass doubles it until anc[i] is the root."""
        depth = np.ones(self.n_vertices, dtype=np.int64)
        depth[0] = 0
        anc = self.parent.copy()
        anc[0] = 0
        while anc.any():
            depth += depth[anc]
            anc = anc[anc]
        return depth

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
    return GrowingTree._grown(parent)


def ba_chain(n: int, rng: RngStream) -> GrowingTree:
    """Preferential attachment: vertex i joins vertex v with probability
    deg(v) / (2 (i - 1)).  The one-chain view of ``ba_chain_batch``."""
    return GrowingTree._grown(ba_chain_batch(n, 1, rng)[0])


def ba_chain_batch(n: int, reps: int, rng: RngStream) -> np.ndarray:
    """Parent arrays of ``reps`` preferential-attachment chains on vertices
    0..n, one row each, by keeping one slot per unit of degree (Batagelj &
    Brandes, PRE 71, 2005).  Vertex i >= 2 picks slot r < 2(i-1): odd slot
    2j-1 holds vertex j and even slot 2j-2 holds parent[j], j < i.  All picks
    come from one ``integers`` call, row by row, the same draws as one call
    per chain.  The copies are resolved by synchronous pointer jumping over
    the flattened rows; a pending vertex stores minus the flat index of the
    vertex whose parent it copies."""
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    if reps < 0:
        raise InvalidParameterError("reps must be >= 0")
    parent = np.empty((reps, n + 1), dtype=np.int64)
    parent[:, 0] = -1
    parent[:, 1] = 0
    if n > 1 and reps:
        picks = rng.gen.integers(0, np.tile(np.arange(2, 2 * n, 2), (reps, 1)))
        target = picks // 2 + 1
        copied = target + np.arange(0, reps * (n + 1), n + 1)[:, None]
        np.negative(copied, out=copied)
        parent[:, 2:] = np.where(picks & 1, target, copied)
        del picks, target, copied
        flat = parent.reshape(-1)
        rows, cols = (parent[:, 2:] < 0).nonzero()
        todo = rows * (n + 1) + cols + 2
        while todo.size:
            jumped = flat[-flat[todo]]
            flat[todo] = jumped
            todo = todo[jumped < 0]
    return parent


# ---------------------------------------------------------------------------
# Continuous-time splitting trees


@dataclass(frozen=True)
class YuleTree:
    """Splitting tree of order k: every particle lives an exponential unit-rate
    lifetime, then splits into k ordered children.

    The record is the jump chain.  The root is particle 0; at ``jump_times[j]``
    particle ``split_particles[j]`` splits into particles jk+1, ..., jk+k, so
    particle i >= 1 is child (i - 1) % k + 1 of ``split_particles[(i - 1) // k]``.
    """

    order: int
    jump_times: np.ndarray
    split_particles: np.ndarray  # particle that split at each jump
    alive: np.ndarray            # ids alive at the stopping time

    @property
    def n_jumps(self) -> int:
        return int(self.jump_times.size)


def yule_simulate(k: int, rng: RngStream, t: float | None = None,
                  n_particles: int | None = None) -> YuleTree:
    """Simulate the splitting tree as its jump chain: waiting times are
    exponential with rate equal to the current particle count and the particle
    that splits is uniform among the living.  Its first child takes its slot
    among the living; the others are appended."""
    if k < 2:
        raise InvalidParameterError("order must be >= 2")
    if (t is None) == (n_particles is None):
        raise InvalidParameterError("stop with exactly one of t or n_particles")
    if t is not None and t < 0:
        raise InvalidParameterError("t must be >= 0")
    if n_particles is not None and n_particles < 1:
        raise InvalidParameterError("n_particles must be >= 1")
    stop = math.inf if n_particles is None else n_particles
    horizon = math.inf if t is None else t
    exponential, integers = rng.gen.exponential, rng.gen.integers
    jump_times = []
    split_particles = []
    alive = [0]
    now = 0.0
    first = 1  # first child of the next jump
    while True:
        count = len(alive)
        if count >= stop:
            break
        if count > _PARTICLE_CAP:
            raise ResourceLimitError("particle cap exceeded")
        wait = exponential(1.0 / count)
        pick = integers(0, count)
        if now + wait > horizon:
            break
        now += wait
        jump_times.append(now)
        split_particles.append(alive[pick])
        alive[pick] = first
        alive.extend(range(first + 1, first + k))
        first += k
    return YuleTree(k, np.array(jump_times), np.array(split_particles, dtype=np.int64),
                    np.array(alive, dtype=np.int64))


def yule_counts_at(k: int, t: float, reps: int, rng: RngStream) -> np.ndarray:
    """Particle counts at time t over independent order-k trees (count-only)."""
    if k < 2 or t < 0:
        raise InvalidParameterError("need k >= 2 and t >= 0")
    if reps < 0:
        raise InvalidParameterError("reps must be >= 0")
    counts = np.ones(reps, dtype=np.int64)
    clock = np.zeros(reps)
    active = np.arange(reps)
    while active.size:
        clock[active] += rng.gen.exponential(1.0 / counts[active])
        still = clock[active] <= t
        counts[active[still]] += k - 1
        active = active[still]
    return counts


def _contract(trees: tuple[YuleTree, ...], n: int) -> GrowingTree:
    """Contract splitting trees of one order k into a growing tree on n + 1
    vertices.  Vertices 0..r-1 are the r roots, each attached to the one
    before; the jumps of all trees, merged by time, open the vertices after
    them.  At a split the first k - 1 children stay in the splitting
    particle's vertex and the k-th child opens the next vertex, attached to
    that one.  The trees must hold at least n + 1 - r jumps between them."""
    k, roots = trees[0].order, len(trees)
    events = [(time, w, u) for w, tree in enumerate(trees)
              for time, u in zip(tree.jump_times.tolist(),
                                 tree.split_particles.tolist())]
    events.sort(key=itemgetter(0))  # stable: a tie keeps tree, then jump, order
    vertex = [[w] for w in range(roots)]  # vertex of each particle, per tree
    parent = list(range(-1, roots - 1))
    for v, (_, w, u) in enumerate(events[:n + 1 - roots], start=roots):
        b = vertex[w][u]
        vertex[w] += [b] * (k - 1) + [v]
        parent.append(b)
    return GrowingTree._grown(np.array(parent, dtype=np.int64))


def yule_to_rrt(tree: YuleTree, n: int) -> GrowingTree:
    """Contract the leftmost-child lines of an order-2 splitting tree observed
    at its n-th jump; the labeled contraction grows exactly like the uniform
    attachment chain."""
    if tree.order != 2:
        raise InvalidParameterError("contraction needs an order-2 tree")
    if n < 0:
        raise InvalidParameterError("n must be >= 0")
    if tree.n_jumps < n:
        raise InvalidParameterError("tree stopped before n + 1 particles")
    return _contract((tree,), n)


def yule3_to_ba(tree0: YuleTree, tree1: YuleTree, n: int) -> GrowingTree:
    """Contract two independent order-3 splitting trees into the preferential
    attachment chain at 2n total particles: at every split the first two
    children stay in the splitting particle's block, the third child opens a
    new block, and blocks are labeled by order of appearance (roots first)."""
    if tree0.order != 3 or tree1.order != 3:
        raise InvalidParameterError("contraction needs order-3 trees")
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    if tree0.n_jumps + tree1.n_jumps < n - 1:
        raise InvalidParameterError("trees stopped before 2n total particles")
    return _contract((tree0, tree1), n)


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


def _alive_line_stats(tree: YuleTree):
    """Ancestry-line statistics of every particle alive in ``tree``: along its
    line from the root, the branch points continued in position 1 (the child
    that keeps the splitting particle's slot among the living) and those
    continued in any other position.  Summed by pointer doubling over the
    parent array, as ``GrowingTree.depths`` does."""
    k = tree.order
    anc = np.zeros(1 + tree.n_jumps * k, dtype=np.int64)
    anc[1:] = np.repeat(tree.split_particles, k)
    line = np.zeros((2, anc.size), dtype=np.int64)  # position-1 steps, depth
    line[0, 1::k] = 1
    line[1, 1:] = 1
    while anc.any():
        line += line[:, anc]
        anc = anc[anc]
    last = line[0, tree.alive]
    return last, line[1, tree.alive] - last


def _spine_line_stats(k: int, t: float, rng: RngStream) -> tuple[int, int]:
    """Line statistics of the distinguished particle: the marked line branches
    at rate k and continues in a uniform position, counted with the
    population's position 1 when the drawn position is k.  The k - 1 ordinary
    subtrees it hangs at every branch point do not affect these statistics, so
    they are not simulated."""
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


def _many_to_one_samples(k: int, t: float, functionals, reps: int,
                         rng: RngStream):
    """Per-replicate sums of each functional over ``reps`` populations alive
    at t, then ``reps`` marked-line estimates e^{(k-1)t} f(line), in that
    draw order."""
    if k < 2:
        raise InvalidParameterError("k must be >= 2")
    if not 0 <= t <= 8:
        raise InvalidParameterError("t must be in [0, 8]")
    for kind, _ in functionals:
        if kind not in _FUNCTIONALS:
            raise InvalidParameterError(f"functional must be one of {_FUNCTIONALS}")
    lhs = {f: np.empty(reps) for f in functionals}
    rhs = {f: np.empty(reps) for f in functionals}
    for r in range(reps):
        last, other = _alive_line_stats(yule_simulate(k, rng, t=t))
        for kind, arg in functionals:
            lhs[(kind, arg)][r] = _functional_indicator(kind, arg, last, other).sum()
    for r in range(reps):
        last, other = _spine_line_stats(k, t, rng)
        for kind, arg in functionals:
            rhs[(kind, arg)][r] = float(
                _functional_indicator(kind, arg, last, other)[()])
    growth = math.exp((k - 1) * t)
    return lhs, {f: growth * rhs[f] for f in functionals}


def many_to_one_table(k: int, t: float, functionals, reps: int,
                      rng: RngStream) -> dict[tuple[str, int], ManyToOneResult]:
    """Evaluate several functionals on shared population / marked-line draws."""
    functionals = [tuple(f) for f in functionals]
    lhs, rhs = _many_to_one_samples(k, t, functionals, reps, rng)
    out = {}
    for f in functionals:
        lhs_mean, lhs_hw = mean_ci(lhs[f], level=0.99)
        rhs_mean, rhs_hw = mean_ci(rhs[f], level=0.99)
        out[f] = ManyToOneResult(lhs_mean, lhs_hw, rhs_mean, rhs_hw)
    return out


# ---------------------------------------------------------------------------
# Embedded-chain classics


def _check_batch(n: int, reps: int) -> None:
    if n < 2:
        raise InvalidParameterError("n must be >= 2")
    if reps < 0:
        raise InvalidParameterError("reps must be >= 0")


def coupon_collector_batch(n: int, reps: int, rng: RngStream) -> np.ndarray:
    """``reps`` coupon-collector times: the draws needed to see all n coupon
    types, each the sum over j of the geometric time to leave j distinct
    types.  They come in row blocks that fit the draw budget; the draws are
    sequential, so the blocking does not change them."""
    _check_batch(n, reps)
    out = np.empty(reps, dtype=np.int64)
    done = 0
    p = (n - np.arange(n)) / n
    while done < reps:
        b = _block_rows(n, reps - done)
        out[done:done + b] = rng.gen.geometric(p, size=(b, n)).sum(axis=1)
        done += b
    return out


def balls_in_bins(n: int, rng: RngStream) -> int:
    """Maximum bin load after n uniform throws into n bins."""
    if n < 2:
        raise InvalidParameterError("n must be >= 2")
    return int(np.bincount(rng.gen.integers(0, n, size=n)).max())


def pills_batch(n: int, reps: int, rng: RngStream) -> np.ndarray:
    """Half pills left in ``reps`` independent jars when the last whole pill
    is drawn, by the two-clock embedding (Knuth & McCarthy, *Big pills and
    little pills*, Amer. Math. Monthly 98, 1991): a pill breaks after an
    Exp(1) time, its half is eaten Exp(1) later, and the jump chain of these
    clocks is the uniform-pick chain.  The last whole pill breaks at T,
    e^(-T) = M the minimum of n uniforms; given T, each other pill is a half
    still uneaten with chance q = -M log M / (1 - M), independently:
    L = 1 + Binomial(n - 1, q), the mixture of ``exact.pills_pmf``.  Above
    2^30 pills the binomial is drawn as Poisson((n - 1) q), within total
    variation E[q] < 2e-8 of it: numpy's binomial rounds (n + 1 - m) /
    (n - y + 1) in its acceptance test, which biases the mean by ~6 SE over
    10^6 jars at n = 2^62."""
    _check_batch(n, reps)
    if n >= 1 << 63:
        raise InvalidParameterError("n must be < 2^63")
    log_rest = np.log1p(-rng.gen.random(reps)) / n  # log(1 - M)
    m = -np.expm1(log_rest)
    # u = 0 gives M = 0 (T infinite): every other half is eaten, q = 0
    log_m = np.log(m, out=np.zeros(reps), where=m > 0.0)
    q = -m * log_m / np.exp(log_rest)
    if n > 1 << 30:
        return 1 + rng.gen.poisson((n - 1) * q)
    return 1 + rng.gen.binomial(n - 1, q)


def ok_corral_batch(n: int, reps: int, rng: RngStream) -> np.ndarray:
    """Survivors of ``reps`` independent duels, in which two facing groups of
    n shooters eliminate each other, the next shooter drawn uniformly among
    those standing.  Each step draws one uniform u and removes a shooter of
    side a when u * (a + b) < b, else one of side b.  No duel ends within
    min(a, b) steps, so running duels draw blocks of that many rows, the same
    doubles as one ``gen.random`` call per step; ended duels drop out between
    blocks.  Counts are float64, exact below 2^53."""
    _check_batch(n, reps)
    out = np.empty(reps, dtype=np.int64)
    active = np.arange(reps)
    a = np.full(reps, float(n))
    total = 2.0 * a
    buf = _block_buffer(reps, n)
    prod = np.empty(reps)
    b = np.empty(reps)
    hit = np.empty(reps, dtype=bool)
    while active.size:
        m = active.size
        p, bm, h = prod[:m], b[:m], hit[:m]
        for u in _uniform_block(rng, buf, m, int(np.minimum(a, total - a).min())):
            np.multiply(u, total, out=p)
            np.subtract(total, a, out=bm)
            np.less(p, bm, out=h)
            a -= h
            total -= 1.0
        done = (a == 0.0) | (a == total)
        if done.any():
            out[active[done]] = total[done]
            keep = ~done
            active, a, total = active[keep], a[keep], total[keep]
    return out
