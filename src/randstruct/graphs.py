"""Erdos-Renyi samplers, component statistics, the breadth-first exploration
walk and its fluid limit, threshold replicates, triangles and spectral
moments."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .errors import InvalidParameterError, ResourceLimitError
from .exact import fluid_curve
from .rng import RngStream, _block_rows
from .walks import LatticePath

_SPARSE_P = 0.1
_SPECTRAL_N_CAP = 4096
# sparse int64 products run about 1000 times fewer multiply-adds per second
# than dense float64 BLAS ones: the crossover of spectral_moments measured on
# G(n, d/n), n = 500..4096 (BENCH_9.json)
_SPECTRAL_DENSE = 1e-3
_PAIR_N_CAP = 3_037_000_499  # largest n with n(n+1) < 2^63
# positions of the gap sequences stay below this: C(n, 2) < 2^62 up to
# _PAIR_N_CAP, and triangle_counts caps reps * C(n, 2) there
_POSITION_CAP = 1 << 62


class _UpperPairs:
    """Distinct pairs i < j in row-major order, as the samplers emit them;
    Graph() builds from them without its checks and sort."""

    __slots__ = ("i", "j")

    def __init__(self, i: np.ndarray, j: np.ndarray):
        self.i = i
        self.j = j


class Graph:
    """Simple labeled graph on {1..n} held in CSR form with sorted neighbors.

    Vertices are 0-based internally; dump format and error messages are 1-based.
    """

    __slots__ = ("n", "m", "indptr", "indices")

    def __init__(self, n: int, edges: np.ndarray):
        if n < 0:
            raise InvalidParameterError("n must be >= 0")
        if isinstance(edges, _UpperPairs):
            i, j = edges.i, edges.j
        else:
            edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
            if edges.size:
                if edges.min() < 0 or edges.max() >= n:
                    raise InvalidParameterError("edge endpoint out of range")
                if np.any(edges[:, 0] == edges[:, 1]):
                    raise InvalidParameterError("loops are not allowed")
            i, j = edges.min(axis=1), edges.max(axis=1)
            order = np.lexsort((j, i))
            i, j = i[order], j[order]
            if np.any((np.diff(i) == 0) & (np.diff(j) == 0)):
                raise InvalidParameterError("duplicate edge")
        # The pairs are the strict upper triangle U in CSR order, so no sort
        # is needed: U + U^T puts each row's lower neighbours, from the
        # counting sort of the transpose, before its upper ones.
        rows = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(i, minlength=n), out=rows[1:])
        upper = sparse.csr_matrix((np.ones(i.size, dtype=np.int8), j, rows),
                                  shape=(n, n))
        both = upper + upper.T
        both.sum_duplicates()  # sorts the rows unless the merge kept them sorted
        self.n = n
        self.m = i.size
        self.indptr = both.indptr.astype(np.int64)
        self.indices = both.indices.astype(np.int64)

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def edge_array(self) -> np.ndarray:
        rows = np.repeat(np.arange(self.n), self.degrees())
        keep = rows < self.indices
        return np.column_stack([rows[keep], self.indices[keep]])

    def adjacency_csr(self) -> sparse.csr_matrix:
        data = np.ones(self.indices.size, dtype=np.int64)
        return sparse.csr_matrix((data, self.indices, self.indptr),
                                 shape=(self.n, self.n))


def graph_to_lines(g: Graph) -> list[str]:
    """Edge-list dump: header "n m", then one 1-based "u v" line per edge."""
    lines = [f"{g.n} {g.m}"]
    for u, v in g.edge_array():
        lines.append(f"{u + 1} {v + 1}")
    return lines


def graph_from_lines(lines) -> Graph:
    """The graph of a ``graph_to_lines`` dump: a header "n m", then m lines
    of two 1-based endpoints, every number within int64."""
    try:
        header, *rows = ([int(t) for t in line.split()] for line in lines)
        n, m = np.array(header, dtype=np.int64).tolist()
        edges = np.array(rows, dtype=np.int64).reshape(len(rows), 2) - 1
    except (ValueError, OverflowError) as exc:
        raise InvalidParameterError("malformed graph dump") from exc
    if len(edges) != m:
        raise InvalidParameterError("edge count does not match header")
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# Sampling


def _pair_from_linear(linear: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Map linear indices over row-major pairs (i < j) back to pairs, exactly.

    Counted from the last pair, index r lies in the row with k + 1 pairs where
    k(k+1)/2 <= r < (k+1)(k+2)/2; a float triangular root estimates k and
    exact integer row offsets correct it.  Needs n(n+1) < 2^63.
    """
    r = n * (n - 1) // 2 - 1 - np.asarray(linear, dtype=np.int64)
    k = np.floor((np.sqrt(8.0 * r + 1.0) - 1.0) * 0.5).astype(np.int64)
    while True:
        start = k * (k + 1) // 2
        over, under = start > r, start + k + 1 <= r
        if not (over.any() or under.any()):
            return n - 2 - k, n - 1 - (r - start)
        k += under
        k -= over


def _geometric_gaps(p: float, size: int, rng: RngStream) -> np.ndarray:
    """``rng.gen.geometric(p, size)`` saturated at _POSITION_CAP, the same
    values and draws.  Below p = 1/3 numpy inverts one standard exponential
    E per gap, ceil(E / -log1p(-p)); that expression on one array of
    exponentials skips numpy's per-draw loop.  A tiny p divides to inf,
    which saturates like numpy's INT64_MAX."""
    if p >= 1 / 3:
        return np.minimum(rng.gen.geometric(p, size=size), _POSITION_CAP)
    with np.errstate(over="ignore"):
        gaps = np.ceil(rng.gen.standard_exponential(size) / -math.log1p(-p))
    return np.minimum(gaps, _POSITION_CAP).astype(np.int64)


def _gap_positions(p: float, stop: int, rng: RngStream, last: int = -1) -> np.ndarray:
    """Positions after ``last`` of a Geometric(p) gap sequence, in chunks up
    to the first chunk that reaches ``stop``: the first holds the expected
    count plus six deviations and 16, each later one half the one before
    (at least 16).

    Every caller's stop lies below _POSITION_CAP.  Gaps are saturated at it
    and a chunk ends at its first position >= _POSITION_CAP - 1, so no sum
    wraps int64 at tiny p (numpy's gaps reach 2^63 - 1); the positions below
    that, and the draws, are those of the unsaturated sequence."""
    mean = (stop - 1 - last) * p
    size, chunks = int(mean + 6 * math.sqrt(mean + 1) + 16), []
    while last < stop:
        gaps = _geometric_gaps(p, size, rng)
        positions = last + np.cumsum(gaps)
        beyond = np.argmax(positions >= _POSITION_CAP - 1)
        if positions[beyond] >= _POSITION_CAP - 1:
            positions = positions[: beyond + 1]
        chunks.append(positions)
        last, size = int(positions[-1]), max(16, size // 2)
    return np.concatenate(chunks)


def _gnp_pairs(n: int, p: float, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j of one G(n, p) in row-major order: by geometric gap
    skipping below p = 0.1, else by one uniform per pair, drawn in blocks of
    the shared draw budget that continue one stream."""
    if not 0.0 <= p <= 1.0 or n < 0:
        raise InvalidParameterError("need p in [0, 1] and n >= 0")
    if n > _PAIR_N_CAP:
        raise ResourceLimitError(f"G(n, p) limited to n <= {_PAIR_N_CAP}")
    total = n * (n - 1) // 2
    if p == 0.0 or n < 2:
        linear = np.empty(0, dtype=np.int64)
    elif p < _SPARSE_P:
        linear = _gap_positions(p, total, rng)
        linear = linear[linear < total]
    else:
        step = _block_rows(1, total)
        linear = np.concatenate([
            start + np.flatnonzero(rng.gen.random(min(step, total - start)) < p)
            for start in range(0, total, step)])
    return _pair_from_linear(linear, n)


def sample_gnp(n: int, p: float, rng: RngStream) -> Graph:
    """Graph where each of the n(n-1)/2 edges is present independently with
    probability p.  Below p = 0.1 edges are generated by geometric gap
    skipping over the linearized pair order (same law, near-linear cost)."""
    return Graph(n, _UpperPairs(*_gnp_pairs(n, p, rng)))


# ---------------------------------------------------------------------------
# Components


def components(g: Graph) -> np.ndarray:
    """Component sizes, sorted descending."""
    if g.n == 0:
        return np.empty(0, dtype=np.int64)
    labels = connected_components(g.adjacency_csr(), directed=True,
                                  connection="weak")[1]
    return np.sort(np.bincount(labels))[::-1]


# ---------------------------------------------------------------------------
# Exploration walk


@dataclass(frozen=True)
class ExplorationTrace:
    walk: LatticePath
    component_sizes: np.ndarray  # excursion lengths, in exploration order


def explore_luka(g: Graph) -> ExplorationTrace:
    """Reveal the graph one vertex per step, first-in first-out within each
    component, the components in order of their least vertex; the increment
    is (#untouched neighbors found) - 1, and each excursion above the running
    minimum explores one component.  By deferred decisions the walk law is
    that of any rule exploring a touched vertex: increment + 1 is
    Binomial(#untouched, p) whichever goes next, as its edges to the untouched
    set are not yet revealed.  One C breadth-first search from a virtual
    vertex n, whose row lists the roots in increasing order, explores every
    component.  A vertex's queue place relative to its component depends only
    on its parent's place and the adjacency order, so a stable sort by
    component gives each its own first-in first-out order."""
    n, size = g.n, g.indices.size
    ones = np.ones(size + n, dtype=np.int8)
    count, labels = connected_components(sparse.csr_matrix(
        (ones[:size], g.indices, g.indptr), shape=(n, n)), directed=False)
    roots = np.full(count, n)
    np.minimum.at(roots, labels, np.arange(n))
    ranks = np.argsort(np.argsort(roots))[labels]  # components by least vertex
    augmented = sparse.csr_matrix(
        (ones[:size + count], np.append(g.indices, np.sort(roots)),
         np.append(g.indptr, size + count)), shape=(n + 1, n + 1))
    order, parents = breadth_first_order(augmented, n, directed=True,
                                         return_predecessors=True)
    order = order[1:][np.argsort(ranks[order[1:]], kind="stable")]
    # the roots are the children of n, which no step explores
    increments = np.bincount(parents[:n])[order] - 1
    return ExplorationTrace(LatticePath(increments), np.bincount(ranks))


# ---------------------------------------------------------------------------
# Threshold replicates (run through experiments.run_experiment)


def _gnp_c(n: int, c: float, stream: RngStream) -> Graph:
    """One G(n, c/n), which needs n >= 1."""
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    return sample_gnp(n, c / n, stream)


def giant_rep(n: int, c: float, stream: RngStream) -> tuple[int, int]:
    """Sizes of the two largest components of one G(n, c/n)."""
    sizes = np.append(components(_gnp_c(n, c, stream)), 0)  # second is 0 for one component
    return int(sizes[0]), int(sizes[1])


def connectivity_rep(n: int, c: float, stream: RngStream) -> tuple[bool, bool]:
    """(connected, no isolated vertex) for one G(n, p) at p = (log n + c)/n.
    A graph with an isolated vertex is decided from the degrees of its pairs;
    any other is connected iff its upper triangle has one weak component."""
    if n < 2:
        raise InvalidParameterError("n must be >= 2")
    p = (math.log(n) + c) / n
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError("(log n + c) / n is outside [0, 1]")
    i, j = _gnp_pairs(n, p, stream)
    out_degrees = np.bincount(i, minlength=n)
    if np.any(out_degrees + np.bincount(j, minlength=n) == 0):
        return False, False
    rows = np.append(0, np.cumsum(out_degrees))
    upper = sparse.csr_matrix((np.ones(i.size), j, rows), shape=(n, n))
    return connected_components(upper, connection="weak")[0] == 1, True


# ---------------------------------------------------------------------------
# Triangles and spectral moments

# int64 temporaries per pair of a triangle_counts block, and per wedge
_PAIR_WORDS, _WEDGE_WORDS = 16, 8


def _closed_wedges(owner, i, j, n: int, size: int) -> np.ndarray:
    """Triangles per owner 0..size-1 among pairs sorted by (owner, i, j): the
    triangle a < b < c is the wedge of (a, b) and (a, c) at its lowest vertex,
    closed by (b, c).  Wedges come in chunks of the shared draw budget."""
    head = (owner * n + i) * n
    key = head + j
    # the later pairs of a pair's run of equal (owner, i) are its partners
    later = np.searchsorted(head, head, side="right") - np.arange(key.size) - 1
    through = np.cumsum(later)
    step = _block_rows(_WEDGE_WORDS, max(1, int(through[-1]) if key.size else 0))
    counts, lo = np.zeros(size, dtype=np.int64), 0
    while lo < key.size:
        hi = max(lo + 1, int(np.searchsorted(through, through[lo] - later[lo] + step,
                                             side="right")))
        m = later[lo:hi]
        first = np.repeat(np.arange(lo, hi), m)
        second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(m) - m, m)
        closing = (owner[first] * n + j[first]) * n + j[second]
        at = np.minimum(np.searchsorted(key, closing), key.size - 1)
        counts += np.bincount(owner[first[key[at] == closing]], minlength=size)
        lo = hi
    return counts


def triangle_count(g: Graph) -> int:
    """Number of triangles: the wedges at their lowest vertex that close."""
    i, j = g.edge_array().T
    return int(_closed_wedges(np.zeros_like(i), i, j, g.n, 1)[0])


def triangle_counts(n: int, p: float, reps: int, rng: RngStream) -> np.ndarray:
    """Triangle counts of ``reps`` independent G(n, p), drawn from one stream.

    Draw layout: one Geometric(p) gap sequence runs over reps * C(n, 2)
    positions, position r * C(n, 2) + l being pair l, in row-major order, of
    replicate r.  Blocks hold as many replicates as the draw budget holds at
    their expected edge count, and gaps drawn past a block serve the next, so
    the counts depend on the stream alone, not on the block size.
    """
    total = n * (n - 1) // 2
    if not 0.0 <= p <= 1.0 or min(n, reps) < 0:
        raise InvalidParameterError("need p in [0, 1] and n, reps >= 0")
    if n > _PAIR_N_CAP or reps * total >= _POSITION_CAP:
        raise ResourceLimitError("reps * C(n, 2) must stay below 2^62")
    counts = np.zeros(reps, dtype=np.int64)
    if p == 0.0 or n < 3:
        return counts
    # blocks keep the pair keys (owner * n + i) * n + j in int64
    per_block = min(_block_rows(_PAIR_WORDS * int(total * p + 16), max(reps, 1)),
                    ((1 << 63) - 1) // (n * n))
    last, carry = -1, np.empty(0, dtype=np.int64)
    for lo in range(0, reps, per_block):
        hi = min(reps, lo + per_block)
        if last < hi * total:
            carry = np.concatenate([carry, _gap_positions(p, hi * total, rng, last)])
            last = int(carry[-1])
        block, carry = np.split(carry, [np.searchsorted(carry, hi * total)])
        owner = block // total
        i, j = _pair_from_linear(block - owner * total, n)
        counts[lo:hi] = _closed_wedges(owner - lo, i, j, n, hi - lo)
    return counts


def _spectral_dense(n: int, m: int, k_max: int) -> bool:
    """Whether spectral_moments takes dense products: A^j A costs about
    n min(n, d^j) d multiply-adds sparse, at mean degree d, and n^3 dense."""
    d = 2 * m / n
    products = range(1, (k_max + 1) // 2)
    sparse_work = sum(n * min(n, d ** j) * d for j in products)
    return sparse_work > _SPECTRAL_DENSE * len(products) * n ** 3


@dataclass(frozen=True)
class SpectralMoments:
    moments: np.ndarray  # moments[k-1] = Tr(A^k) / n


def spectral_moments(g: Graph, k_max: int) -> SpectralMoments:
    """Normalized traces of adjacency powers, exact walk counts.

    Tr(A^k) is the entry sum of A^a * A^b (elementwise), a = floor(k/2) and
    b = ceil(k/2), from sparse int64 powers, or from dense float64 ones where
    the powers fill in enough for BLAS products to be faster.  A degree-based
    bound keeps every count below 2^53, so every partial sum is an exact
    integer in either dtype and each moment is the correctly rounded quotient.
    """
    if not 1 <= k_max <= 12:
        raise InvalidParameterError("k_max must be in 1..12")
    if g.n > _SPECTRAL_N_CAP:
        raise ResourceLimitError(f"spectral moments limited to n <= {_SPECTRAL_N_CAP}")
    n = g.n
    if n == 0:
        raise InvalidParameterError("empty graph")
    max_deg = int(g.degrees().max(initial=0))
    if n * float(max(max_deg, 1)) ** k_max >= 2.0 ** 53:
        raise ResourceLimitError("walk counts would overflow exact float range")
    a = g.adjacency_csr()
    dense = _spectral_dense(n, g.m, k_max)
    if dense:
        a = a.astype(np.float64).toarray()
    powers = [None, a]
    for _ in range(2, (k_max + 1) // 2 + 1):
        powers.append(powers[-1] @ a)
    moments = np.zeros(k_max)
    for k in range(2, k_max + 1):
        x, y = powers[k // 2], powers[k - k // 2]
        moments[k - 1] = int(np.vdot(x, y) if dense else x.multiply(y).sum()) / n
    return SpectralMoments(moments)


# ---------------------------------------------------------------------------
# Fluid limit of the exploration walk


def fluid_sup_distance(n: int, c: float, stream: RngStream) -> float:
    """sup over t in [0, 1] of |S_(nt)/n - f_c(t)| for the component
    exploration walk of one G(n, c/n) sample; f_c is the piecewise limit with
    the parabolic tail, which the breadth-first exploration follows."""
    trace = explore_luka(_gnp_c(n, c, stream))
    s = np.concatenate([[0], trace.walk.prefix_sums()])
    t = np.arange(n + 1) / n
    return float(np.max(np.abs(s / n - fluid_curve(c, t))))
