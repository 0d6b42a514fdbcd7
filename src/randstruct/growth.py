"""Growing random trees (uniform attachment and preferential attachment),
each drawn as a batch of parent rows with a one-chain view; continuous-time
splitting trees with their contractions to the discrete chains; the
biased-line check of the sum-over-particles identity; and the
embedded-chain classics (coupon collector, balls in bins, pills,
last-man-standing duel)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import FormatError, InvalidParameterError, ResourceLimitError
from .rng import RngStream, _block_buffer, _block_rows, _uniform_block

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
    uniform over the n! increasing trees on vertices 0..n.  The one-chain view
    of ``rrt_chain_batch``."""
    return GrowingTree._grown(rrt_chain_batch(n, 1, rng)[0])


def rrt_chain_batch(n: int, reps: int, rng: RngStream) -> np.ndarray:
    """Parent arrays of ``reps`` uniform-attachment chains on vertices 0..n,
    one row each: vertex i >= 1 picks parent[i] uniform on 0..i-1.  All picks
    come from one ``integers`` call with the bounds 1..n broadcast over the
    rows, the same draws as one call per chain."""
    if n < 0:
        raise InvalidParameterError("n must be >= 0")
    if reps < 0:
        raise InvalidParameterError("reps must be >= 0")
    parent = np.empty((reps, n + 1), dtype=np.int64)
    parent[:, 0] = -1
    parent[:, 1:] = rng.gen.integers(0, np.arange(1, n + 1), size=(reps, n))
    return parent


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
    per chain, drawn straight into the rows.  The copies are resolved in
    place by synchronous pointer jumping over the flattened rows; a pending
    vertex stores minus the flat index of the vertex whose parent it copies."""
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    if reps < 0:
        raise InvalidParameterError("reps must be >= 0")
    parent = np.empty((reps, n + 1), dtype=np.int64)
    parent[:, 0] = -1
    parent[:, 1] = 0
    if n > 1 and reps:
        picks = parent[:, 2:]
        picks[...] = rng.gen.integers(0, np.arange(2, 2 * n, 2), size=(reps, n - 1))
        todo = np.flatnonzero((picks & 1) == 0)  # even slots copy a parent
        picks >>= 1
        picks += 1  # the vertex each slot names
        todo += 2 * (todo // (n - 1) + 1)  # index in picks -> index in parent
        flat = parent.reshape(-1)
        flat[todo] = -(flat[todo] + todo - todo % (n + 1))
        while todo.size:
            jumped = flat[-flat[todo]]
            flat[todo] = jumped
            todo = todo[jumped < 0]
    return parent


# ---------------------------------------------------------------------------
# Continuous-time splitting trees


@dataclass(frozen=True)
class YuleForest:
    """Splitting trees of order k, where every particle lives an Exp(1) time,
    then splits into k ordered children, as their jump chains, flat and tree
    by tree: at the j-th of its ``n_jumps`` jumps (``jump_times``), a tree's
    particle ``split_particles`` splits into its particles jk+1, ..., jk+k."""

    order: int
    jump_times: np.ndarray
    split_particles: np.ndarray
    n_jumps: np.ndarray  # per tree


def _mean_jumps(k: int, t: float) -> float:
    """E[J] = (e^{(k-1)t} - 1) / (k - 1) jumps by t, saturated far past any block."""
    return math.expm1(min((k - 1) * t, 40.0)) / (k - 1)


def yule_simulate(k: int, reps: int, rng: RngStream, t: float | None = None,
                  n_particles: int | None = None) -> YuleForest:
    """``reps`` independent splitting trees as their jump chains, stopped at
    time t or after J = ceil((n_particles - 1) / (k - 1)) jumps.  With
    c_j = 1 + j(k - 1) particles a tree waits an Exp(c_j) time, then the one
    in a uniform slot of c_j splits: its first child takes the slot and the
    others fill slots c_j, ..., c_j + k - 2.  ``_PARTICLE_CAP`` bounds the
    particles of the record.  Draw layout: rounds over the m trees still
    running, in tree order, each an (m, w) block of standard exponentials E,
    then one of uniforms U; a row continues its tree's waits E / c_j and
    slots floor(U c_j) until J jumps or a time beyond t, and no draw is ever
    re-drawn.  w starts at J or at 1 + floor(E[J]) and doubles every round,
    within the draw budget and the cap's room, and at least 1."""
    if k < 2:
        raise InvalidParameterError("order must be >= 2")
    if reps < 0:
        raise InvalidParameterError("reps must be >= 0")
    if (t is None) == (n_particles is None):
        raise InvalidParameterError("stop with exactly one of t or n_particles")
    if t is not None and not t >= 0:
        raise InvalidParameterError("t must be >= 0")
    if n_particles is not None and n_particles < 1:
        raise InvalidParameterError("n_particles must be >= 1")
    room = (_PARTICLE_CAP - reps) // (k - 1)  # jumps left below the cap
    if t is None:
        t, limit = math.inf, -(-(n_particles - 1) // (k - 1))
        width = limit
        room = room if reps * limit <= room else -1  # raise before drawing
    else:
        limit, width = math.inf, 1 + int(_mean_jumps(k, t))
    n_jumps = np.zeros(reps, dtype=np.int64)
    clock = np.zeros(reps)
    running = np.arange(reps if limit else 0)
    trees, times, slots = [running[:0]], [clock[:0]], [n_jumps[:0]]
    done = 0  # draws per running tree so far
    while running.size and room >= 0:
        m = running.size
        w = int(max(1, min(_block_rows(m, width), room // m, limit - done)))
        done += w
        counts = 1.0 + (k - 1) * (n_jumps[running, None] + np.arange(w))
        block = rng.gen.standard_exponential((m, w)) / counts
        block[:, 0] += clock[running]
        np.cumsum(block, axis=1, out=block)
        kept = block <= t
        made = kept.sum(axis=1)
        trees.append(np.repeat(running, made))
        times.append(block[kept])
        slots.append((rng.gen.random((m, w)) * counts)[kept].astype(np.int64))
        n_jumps[running] += made
        room -= int(made.sum())
        going = (made == w) & (done < limit)
        running = running[going]
        clock[running] = block[going, -1]
        width *= 2
    if room < 0:
        raise ResourceLimitError("particle cap exceeded")
    order = np.argsort(np.concatenate(trees), kind="stable")  # rounds are sorted runs
    slots = np.concatenate(slots)[order]
    # The particle in a jump's slot is the first child of the tree's last
    # earlier jump to that slot, else its first holder: 0 in slot 0, and child
    # (s - 1) % (k - 1) + 2 of jump (s - 1) // (k - 1) in slot s >= 1.
    jump = np.arange(slots.size) - np.repeat(np.cumsum(n_jumps) - n_jumps, n_jumps)
    key = np.repeat(np.arange(reps) * (1 + (k - 1) * int(n_jumps.max(initial=0))),
                    n_jumps) + slots
    by_slot = np.argsort(key, kind="stable")
    split = np.where(slots > 0, (slots - 1) // (k - 1) * k + (slots - 1) % (k - 1) + 2, 0)
    again = np.flatnonzero(np.diff(key[by_slot]) == 0) + 1
    split[by_slot[again]] = jump[by_slot[again - 1]] * k + 1
    return YuleForest(k, np.concatenate(times)[order], split, n_jumps)


def _contract(forest: YuleForest, roots: int, n: int) -> np.ndarray:
    """Contract each run of r = ``roots`` trees into a growing tree on n + 1
    vertices, one parent row each: roots 0..r-1 form a path, and the run's
    jumps merged by time (ties in tree, then jump, order) open the next
    vertices.  At a split the first k - 1 children keep the splitting
    particle's vertex and the k-th opens the new one, attached to it; so a
    particle's vertex is its nearest root or k-th-child ancestor-or-self's."""
    k, jumps = forest.order, forest.n_jumps
    opened = n + 1 - roots
    per_run = jumps.reshape(-1, roots).sum(axis=1)
    if np.any(per_run < opened):
        raise InvalidParameterError("trees stopped before n + 1 vertices")
    parent = np.empty((per_run.size, n + 1), dtype=np.int64)
    parent[:, :roots] = np.arange(-1, roots - 1)
    tree = np.repeat(np.arange(jumps.size), jumps)
    order = np.argsort(forest.jump_times, kind="stable")
    order = order[np.argsort(tree[order] // roots, kind="stable")]
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size) - np.repeat(np.cumsum(per_run) - per_run, per_run)
    u = forest.split_particles
    born = np.repeat(np.cumsum(jumps) - jumps, jumps) + (u - 1) // k  # u's jump
    kth = (u > 0) & ((u - 1) % k == k - 1)
    vertex = np.where(kth, roots + rank[np.where(kth, born, 0)], tree % roots)
    ptr = np.where((u > 0) & ~kth, born, np.arange(u.size))
    while not np.array_equal(ptr, nxt := ptr[ptr]):
        ptr = nxt
    keep = rank < opened
    parent[tree[keep] // roots, roots + rank[keep]] = vertex[ptr[keep]]
    return parent


def yule_to_rrt(forest: YuleForest, n: int) -> np.ndarray:
    """Contract each order-2 tree at its n-th jump, one parent row per tree;
    the labeled contraction grows exactly like the uniform attachment chain."""
    if forest.order != 2:
        raise InvalidParameterError("contraction needs order-2 trees")
    if n < 0:
        raise InvalidParameterError("n must be >= 0")
    return _contract(forest, 1, n)


def yule3_to_ba(forest: YuleForest, n: int) -> np.ndarray:
    """Contract trees 2i and 2i + 1 of an order-3 forest into the preferential
    attachment chain at 2n total particles, one parent row per pair: the
    third child of a split opens a new block, labeled in order of appearance."""
    if forest.order != 3 or forest.n_jumps.size % 2:
        raise InvalidParameterError("contraction needs pairs of order-3 trees")
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    return _contract(forest, 2, n)


# ---------------------------------------------------------------------------
# Sum-over-particles identity


_FUNCTIONALS = ("constant-1", "height-at-least", "degree-at-least")
_BLOCK_JUMPS = 1 << 16


def _functional_indicator(kind: str, arg: int, n_last, n_other):
    if kind == "constant-1":
        return np.ones_like(np.asarray(n_last), dtype=float)
    if kind == "height-at-least":
        return (np.asarray(n_last) >= arg).astype(float)
    if kind == "degree-at-least":
        return (np.asarray(n_other) >= arg).astype(float)
    raise InvalidParameterError(f"functional must be one of {_FUNCTIONALS}")


def line_mean(k: int, t: float, kind: str, arg: int) -> float:
    """Exact mean of the marked-line estimate e^{(k-1)t} f(line) of
    ``_functional_indicator``: the line's position-1 branch points by t are
    N ~ Poisson(t) for height-at-least(arg), its others N ~ Poisson((k-1)t)
    for degree-at-least(arg), and the mean is e^{(k-1)t} P(N >= arg);
    constant-1 has e^{(k-1)t}."""
    if kind not in _FUNCTIONALS:
        raise InvalidParameterError(f"functional must be one of {_FUNCTIONALS}")
    rate = t if kind == "height-at-least" else (k - 1) * t
    tail = 1.0 if kind == "constant-1" or arg <= 0 else float(special.pdtrc(arg - 1, rate))
    return math.exp((k - 1) * t) * tail


def _alive_line_stats(forest: YuleForest):
    """For the 1 + n_jumps(k - 1) particles alive in each tree, by tree and id:
    the branch points of the line from the root continued in position 1 (the
    child that keeps the slot) and in any other.  Summed per jump by pointer
    doubling, as ``GrowingTree.depths`` does, with index 0 a stepless sentinel
    for the roots; a line packs (position-1 steps) * 2^32 + depth."""
    k, jumps, u = forest.order, forest.n_jumps, forest.split_particles
    first = np.repeat(np.cumsum(jumps) - jumps, jumps)  # each tree's first jump
    child = (u - 1) % k  # u's place among its siblings
    line = np.zeros(1 + u.size, dtype=np.int64)
    line[1:] = np.where(u > 0, np.where(child == 0, (1 << 32) + 1, 1), 0)
    anc = np.zeros(1 + u.size, dtype=np.int64)
    anc[1:] = np.where(u > 0, first + (u - 1) // k + 1, 0)  # 1 + jump u was born at
    while anc.any():
        line += line[anc]
        anc = anc[anc]
    children = line[1:, None] + np.where(np.arange(k) == 0, (1 << 32) + 1, 1)
    living = np.ones(children.size, dtype=bool)
    living[(first * k + u - 1)[u > 0]] = False
    packed = np.zeros(int(jumps.sum()) * (k - 1) + jumps.size, dtype=np.int64)
    rooted = np.zeros(packed.size, dtype=bool)  # trees that never split
    rooted[(np.cumsum(1 + jumps * (k - 1)) - 1)[jumps == 0]] = True
    packed[~rooted] = children.reshape(-1)[living]
    last = packed >> 32
    return last, (packed & 0xFFFFFFFF) - last


def many_to_one_samples(k: int, t: float, functionals, reps: int,
                        rng: RngStream):
    """Per-replicate sums of each functional over ``reps`` populations alive
    at t, drawn in blocks of max(1, floor(2^16 / max(1, E[J]))) trees, then
    ``reps`` marked-line estimates e^{(k-1)t} f(line).  The line branches at
    rate k into a uniform position, so its position-1 and other branch points
    are independent Poisson(t) and Poisson((k - 1)t) counts, one vector each."""
    if k < 2:
        raise InvalidParameterError("k must be >= 2")
    if not 0 <= t <= 8:
        raise InvalidParameterError("t must be in [0, 8]")
    if reps < 0:
        raise InvalidParameterError("reps must be >= 0")
    for kind, _ in functionals:
        if kind not in _FUNCTIONALS:
            raise InvalidParameterError(f"functional must be one of {_FUNCTIONALS}")
    lhs = {f: np.empty(reps) for f in functionals}
    group = max(1, int(_BLOCK_JUMPS / max(1.0, _mean_jumps(k, t))))
    for lo in range(0, reps, group):
        forest = yule_simulate(k, min(group, reps - lo), rng, t=t)
        last, other = _alive_line_stats(forest)
        alive = 1 + forest.n_jumps * (k - 1)
        for f in functionals:
            lhs[f][lo:lo + forest.n_jumps.size] = np.add.reduceat(
                _functional_indicator(*f, last, other), np.cumsum(alive) - alive)
    n_last = rng.gen.poisson(t, reps)
    n_other = rng.gen.poisson((k - 1) * t, reps)
    growth = math.exp((k - 1) * t)
    return lhs, {f: growth * _functional_indicator(*f, n_last, n_other)
                 for f in functionals}


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
