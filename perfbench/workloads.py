"""The four benchmark workloads and the checks on their outputs.

Each workload runs in passes.  A pass times its calls into randstruct phase
by phase through ``Meter.phase`` and then checks what they returned, outside
the timed region.  Checks compare against computations made here, apart from
the program (scipy's connected components, depths from the parent array,
direct O(n^2) recurrences, exact moments), or against properties the method
must have; a failed check is recorded as an error and makes the run
incorrect.  An operation that raises, or a criterion that fails, is counted
as failed and the run goes on.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from randstruct import exact, experiments, graphs, growth, rng, trees, verify

Z = 4.0  # statistical checks accept within 4 standard errors


class CheckError(Exception):
    """An output of the program failed a check."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def master(seed: int, pass_index: int, part: int) -> int:
    """Master seed of one part of one pass: distinct for every triple."""
    return (seed * 10_000 + pass_index) * 100 + part


@dataclass
class Meter:
    """Times the calls into the program, per phase, and counts operations."""

    tracer: object = None
    phases: dict = field(default_factory=dict)   # name -> [seconds, units]
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)  # failed checks
    samples: dict = field(default_factory=dict)  # name -> timings reported
    pass_walls: list = field(default_factory=list)  # timed seconds per pass

    @contextmanager
    def phase(self, name: str, units: int):
        """Time the body as ``units`` operations of ``name``.  An exception
        in the body counts them as failed and is reported, not raised."""
        acc = self.phases.setdefault(name, [0.0, 0])
        self.attempted += units
        if self.tracer is not None:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            yield
        except Exception:
            self.failed += units
            traceback.print_exc(file=sys.stderr)
        finally:
            acc[0] += time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.active = False
        acc[1] += units

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except CheckError as exc:
            self.errors.append(str(exc))

    def wall(self) -> float:
        return sum(s for s, _ in self.phases.values())


# ---------------------------------------------------------------------------
# Checkers, each independent of the program's own code path


def check_csr(g) -> None:
    """A simple symmetric graph with sorted rows, in consistent CSR form."""
    n, indptr, idx = g.n, np.asarray(g.indptr), np.asarray(g.indices)
    require(indptr.size == n + 1 and indptr[0] == 0 and indptr[-1] == idx.size
            and np.all(np.diff(indptr) >= 0), "CSR row pointers are inconsistent")
    require(idx.size == 2 * g.m, f"CSR holds {idx.size} entries for {g.m} edges")
    rows = np.repeat(np.arange(n), np.diff(indptr))
    require(idx.size == 0 or (idx.min() >= 0 and idx.max() < n),
            "neighbor out of range")
    require(not np.any(rows == idx), "self-loop in CSR")
    same_row = rows[1:] == rows[:-1]
    require(np.all(idx[1:][same_row] > idx[:-1][same_row]),
            "CSR rows are not strictly increasing (unsorted or duplicate)")
    a = csr_matrix((np.ones(idx.size), idx, indptr), shape=(n, n))
    require((a != a.T).nnz == 0, "CSR adjacency is not symmetric")


def reference_components(g) -> np.ndarray:
    """Component sizes from scipy, sorted descending."""
    a = csr_matrix((np.ones(g.indices.size), g.indices, g.indptr),
                   shape=(g.n, g.n))
    _, labels = connected_components(a, directed=False)
    return np.sort(np.bincount(labels))[::-1]


def check_components(sizes, n: int, reference: np.ndarray) -> None:
    sizes = np.sort(np.asarray(sizes, dtype=np.int64))[::-1]
    require(int(sizes.sum()) == n, f"component sizes sum to {sizes.sum()}, not {n}")
    require(np.array_equal(sizes, reference),
            "component sizes differ from scipy's connected_components")


def check_spectral(moments, n: int, m: int, triangles: int) -> None:
    """Tr(A) = 0, Tr(A^2) = 2m and Tr(A^3) = 6 * triangles."""
    traces = np.asarray(moments[:3], dtype=float) * n
    require(traces[0] == 0 and round(traces[1]) == 2 * m
            and round(traces[2]) == 6 * triangles,
            f"traces {traces.tolist()} against m={m}, triangles={triangles}")


def own_triangles(g) -> int:
    a = csr_matrix((np.ones(g.indices.size, dtype=np.int64), g.indices, g.indptr),
                   shape=(g.n, g.n))
    return int((a @ a).multiply(a).sum()) // 6


def own_depths(parent: np.ndarray) -> np.ndarray:
    """Depths by pointer doubling over a parent array with parent[0] = -1."""
    jump = np.asarray(parent, dtype=np.int64).copy()
    require(jump[0] == -1 and np.all(jump[1:] < np.arange(1, jump.size))
            and np.all(jump[1:] >= 0), "not a parent array of an increasing tree")
    jump[0] = 0
    depth = (np.arange(jump.size) > 0).astype(np.int64)
    while np.any(jump):
        depth += depth[jump] * (jump > 0)
        jump = jump[jump]
    return depth


def check_growing_tree(parent, height: int, out_degrees) -> None:
    n = parent.size - 1
    require(height == int(own_depths(parent).max()),
            f"height {height} differs from the maximum depth of the parent array")
    out = np.asarray(out_degrees)
    require(np.array_equal(out, np.bincount(parent[1:], minlength=n + 1)),
            "out-degrees differ from the parent array")
    require(int(out.sum()) + n == 2 * n, "degrees do not sum to 2n")


def check_cdf(cdf) -> None:
    cdf = np.asarray(cdf)
    require(np.all(np.diff(cdf) >= 0), "height cdf decreases")
    require(abs(cdf[-1] - 1.0) <= 1e-9, f"height cdf ends at {cdf[-1]!r}, not 1")


def direct_rrt_height_cdf(n: int, h_max: int) -> np.ndarray:
    """P(height <= h) of the uniform-attachment tree on n + 1 vertices by the
    direct O(n^2) recurrence: with p_h(k) = P(height <= h | k vertices),
    p_h(m + 1) = [z^m] exp(sum_j p_(h-1)(j) z^j / j), and the exponential's
    coefficients from m G_m = sum_j p_(h-1)(j) G_(m-j)."""
    size = n + 1
    p = np.zeros(size + 1)
    p[1] = 1.0                        # height 0: the single vertex
    out = [p[size]]
    for _ in range(h_max):
        g = np.zeros(size)
        g[0] = 1.0
        for m in range(1, size):
            g[m] = np.dot(p[1:m + 1], g[m - 1::-1]) / m
        p = np.concatenate([[0.0], g])
        out.append(p[size])
    return np.array(out)


def _port_height_probs(size: int, h_max: int) -> np.ndarray:
    """q[h, k] = P(height <= h) of a plane-oriented recursive tree on k
    vertices, k <= size, by the direct O(size^2) recurrence on its
    exponential generating function y_h' = 1 / (1 - y_(h-1)), taken at
    z = x / 2 so that the coefficients c_h(k) = a_h(k) / (k! 2^k) stay small."""
    k = np.arange(1, size + 1)
    # all plane-oriented trees: a(k) = (2k - 3)!!, so c(k) = C(2k-2, k-1) / (k 4^k) * 2
    full = np.exp(np.array([math.lgamma(2 * j - 1) - 2 * math.lgamma(j)
                            for j in k]) - np.log(k) - k * math.log(4.0) + math.log(2))
    c = np.zeros(size + 1)
    c[1] = full[0]
    q = [c[1:] / full]
    for _ in range(h_max):
        w = np.zeros(size)
        w[0] = 1.0
        for m in range(1, size):
            w[m] = np.dot(c[1:m + 1], w[m - 1::-1])
        c = np.concatenate([[0.0], 0.5 * w / k])
        q.append(c[1:] / full)
    return np.array(q)


def direct_ba_height_cdf(n: int, h_max: int) -> np.ndarray:
    """P(height <= h) of the preferential-attachment tree on N = n + 1
    vertices.  Cutting the edge {0, 1} leaves two plane-oriented trees; the
    size a of the one rooted at 0 follows the urn in which a tree of a
    vertices takes the next vertex with probability (2a - 1) / (2i - 2), run
    here step by step; the height is max(H_A, 1 + H_B)."""
    size = n + 1
    split = np.zeros(size + 1)
    split[1] = 1.0                    # after vertices 0 and 1: a = 1
    for i in range(2, size):          # vertex i joins a tree of i vertices
        a = np.arange(size + 1)
        grow = split * (2 * a - 1) / (2 * i - 2)
        split = split - grow
        split[1:] += grow[:-1]
    q = _port_height_probs(size, h_max)
    a = np.arange(1, size)
    out = [0.0]
    for h in range(1, h_max + 1):
        out.append(float(np.sum(split[a] * q[h, a - 1] * q[h - 1, size - a - 1])))
    return np.array(out)


def check_against_direct(got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    gap = float(np.max(np.abs(got - want)))
    require(gap <= 1e-9, f"height cdf is {gap:.2e} from the direct recurrence")


def check_leftovers(leftovers, n: int) -> None:
    left = np.asarray(leftovers)
    require(left.min() >= 1 and left.max() <= n,
            f"pill leftovers outside [1, {n}]: {left.min()}..{left.max()}")


def check_mean(label: str, values, target: float) -> None:
    values = np.asarray(values, dtype=float)
    se = float(np.std(values, ddof=1)) / math.sqrt(values.size)
    require(abs(values.mean() - target) <= Z * se,
            f"{label}: mean {values.mean():.5g} is more than {Z} SE "
            f"({se:.3g}) from {target:.5g}")


def check_plane_tree(counts, n: int) -> None:
    """Child counts in breadth-first order that decode to a tree on n vertices."""
    c = np.asarray(counts, dtype=np.int64)
    walk = np.cumsum(c - 1)
    require(c.size == n, f"tree has {c.size} vertices, not {n}")
    require(c.min() >= 0 and walk[-1] == -1 and (n == 1 or walk[:-1].min() >= 0),
            "child counts do not decode to a tree")


def leaf_count_law(n: int) -> tuple[float, float]:
    """Mean and variance of the leaves of a size-n geometric(1/2) tree: its
    child counts are a uniform weak composition of n - 1 into n parts."""
    mean = n / 2
    pairs = n * (n - 1) * (n - 2) / (2 * (2 * n - 3))  # E[Z (Z - 1)]
    return mean, pairs + mean - mean * mean


PLANE_SHAPES_4 = {(3, 0, 0, 0), (2, 1, 0, 0), (2, 0, 1, 0), (1, 2, 0, 0),
                  (1, 1, 1, 0)}  # the Catalan(3) = 5 plane trees on 4 vertices


def check_shapes(shapes: dict) -> None:
    require(set(shapes) <= PLANE_SHAPES_4,
            f"not plane trees on 4 vertices: {sorted(set(shapes) - PLANE_SHAPES_4)}")
    total = sum(shapes.values())
    sd = math.sqrt(0.2 * 0.8 / total)
    for shape in sorted(PLANE_SHAPES_4):
        freq = shapes.get(shape, 0) / total
        require(abs(freq - 0.2) <= Z * sd,
                f"shape {shape} has frequency {freq:.4f}, not 1/5 within {Z} sigma")


def check_cayley(tree, n: int) -> None:
    edges = np.asarray(tree.edges, dtype=np.int64).reshape(-1, 2)
    require(tree.n == n and edges.shape[0] == n - 1, "Cayley tree needs n - 1 edges")
    require(edges.size == 0 or (edges.min() >= 1 and edges.max() <= n),
            "Cayley tree labels outside 1..n")
    a = csr_matrix((np.ones(n - 1), (edges[:, 0] - 1, edges[:, 1] - 1)),
                   shape=(n, n))
    require(connected_components(a, directed=False)[0] == 1,
            "Cayley tree does not span 1..n")


# ---------------------------------------------------------------------------
# Workloads


def clear_exact_caches() -> None:
    """Drop every per-process cache in randstruct.exact, as a fresh process
    starts without them."""
    for name, value in vars(exact).items():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
        elif isinstance(value, dict) and name.endswith("_CACHE"):
            value.clear()


class Workload:
    """One pass at a time; ``finish`` makes the checks pooled over the run."""

    phases: tuple = ()        # (phase, metric name) reported as a rate
    warmup = True             # run one pass before the measured ones

    def __init__(self, seed: int, sizes: dict):
        self.seed = seed
        self.sizes = sizes

    def finish(self, meter: Meter) -> None:
        pass


class VerifyFast(Workload):
    """verify.run_suite("fast") at the suite's own master seed, one criterion
    per call so that a criterion which raises is counted and the rest run.
    The criteria are statistical tests at fixed levels, so their inputs come
    from the suite's seed, not from --seed: a seed-dependent outcome would
    make the share of failed operations differ between runs.  Each pass
    stands for one verify process, cold caches included, so no pass is
    left out as a warm-up."""

    warmup = False

    def run_pass(self, k: int, meter: Meter) -> None:
        clear_exact_caches()  # each pass stands for one verify process
        for name, _ in list(verify.CRITERIA):
            if self.sizes.get("criteria") and name[:2] not in self.sizes["criteria"]:
                continue
            results = []
            with meter.phase("criteria", 1):
                results = verify.run_suite("fast", verify.MASTER_SEED, names=[name])
            if not results:
                continue
            (res,) = results
            meter.samples.setdefault(f"verify.criterion_{res.name[:2]}.s",
                                     []).append(res.seconds)
            if not res.passed:
                meter.failed += 1
                print(f"criterion {res.name} failed: {res.detail}", file=sys.stderr)


class GraphThresholds(Workload):
    """G(n, p) replicate sweeps through experiments.run_experiment, plus one
    dense G(n, 1/2).  Replicate i of an experiment uses stream i of its master
    seed, so one replicate per experiment and pass is regenerated and checked."""

    phases = (("connectivity", "connectivity_reps_per_s"),
              ("giant", "giant_reps_per_s"),
              ("exploration", "exploration_reps_per_s"))

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        s = sizes
        self.sweeps = (
            [("connectivity", "connectivity", s["conn_n"], c, s["conn_reps"])
             for c in (-1.0, 0.0, 2.0)]
            + [("giant", "giant", s["giant_n"], c, s["giant_reps"])
               for c in (0.5, 1.5, 2.0)]
            + [("exploration", "fluid-curve", s["giant_n"], 2.0, s["fluid_reps"]),
               ("spectral", "spectral-moments", s["spectral_n"], 2.0,
                s["spectral_reps"]),
               ("spectral", "triangles", s["spectral_n"], 2.0, s["spectral_reps"])])
        self.edge_stats = {"sparse": [0, 0.0, 0.0], "dense": [0, 0.0, 0.0]}

    def _count_edges(self, kind: str, g, p: float) -> None:
        pairs = g.n * (g.n - 1) / 2
        acc = self.edge_stats[kind]
        acc[0] += g.m
        acc[1] += pairs * p
        acc[2] += pairs * p * (1 - p)

    def run_pass(self, k: int, meter: Meter) -> None:
        reports = {}
        for part, (phase, name, n, c, reps) in enumerate(self.sweeps):
            seed = master(self.seed, k, part if name != "triangles" else part - 1)
            cfg = experiments.ExperimentConfig(name, {"n": n, "c": c},
                                               master_seed=seed, reps=reps)
            with meter.phase(phase, reps):
                reports[part] = experiments.run_experiment(cfg)
        dense_n = self.sizes["dense_n"]
        g_dense = None
        with meter.phase("dense", 1):
            g_dense = graphs.sample_gnp(dense_n, 0.5,
                                        rng.make_stream(master(self.seed, k, 99), 0))
        if g_dense is not None:
            meter.check(check_csr, g_dense)
            self._count_edges("dense", g_dense, 0.5)
        for part, (phase, name, n, c, reps) in enumerate(self.sweeps):
            # half the sweeps a pass, in turn, to keep the checks cheap
            if part in reports and name != "triangles" and (part + k) % 2 == 0:
                meter.check(self._check_replicate, k, part, reports)

    def _check_replicate(self, k: int, part: int, reports: dict) -> None:
        phase, name, n, c, reps = self.sweeps[part]
        i = k % reps
        p = (math.log(n) + c) / n if name == "connectivity" else c / n
        g = graphs.sample_gnp(n, p, rng.make_stream(master(self.seed, k, part), i))
        check_csr(g)
        self._count_edges("sparse", g, p)
        ref = reference_components(g)
        row = reports[part].rows[i]
        if name == "connectivity":
            require(tuple(row) == (float(ref.size == 1), float(g.degrees().min() > 0)),
                    f"connectivity replicate {i}: {tuple(row)} but "
                    f"{ref.size} components")
        elif name == "giant":
            top = np.concatenate([ref[:2], [0, 0]])[:2] / n
            require(tuple(row) == tuple(top),
                    f"giant replicate {i}: {tuple(row)} but scipy gives {tuple(top)}")
            check_components(graphs.components(g), n, ref)
        elif name == "fluid-curve":
            trace = graphs.explore_luka(g)
            check_components(trace.component_sizes, n, ref)
            require(0.0 <= row[0] < 1.0, f"sup distance {row[0]} outside [0, 1)")
        elif name == "spectral-moments":
            triangles = own_triangles(g)
            check_spectral(row, n, g.m, triangles)
            if part + 1 in reports:  # the triangles sweep, on the same graphs
                counted = int(reports[part + 1].rows[i][0])
                require(counted == triangles,
                        f"triangle_count {counted} differs from (A.A)*A / 6 = {triangles}")

    def finish(self, meter: Meter) -> None:
        for kind, (edges, mean, var) in self.edge_stats.items():
            if var > 0:
                meter.check(require, abs(edges - mean) <= Z * math.sqrt(var),
                            f"{kind} G(n,p) edges: {edges} against mean {mean:.1f} "
                            f"+- {Z} SE ({math.sqrt(var):.1f})")


class GrowthChains(Workload):
    """Both growth chains at n = 10^6 with their heights and degrees, both
    exact height laws from a cold cache, and the pills chain, timed apart."""

    phases = (("trees", "growth_trees_per_s"), ("height_law", None),
              ("pills", "pills_reps_per_s"))
    LEVELS = 80

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        self.leftovers = []

    def run_pass(self, k: int, meter: Meter) -> None:
        n = self.sizes["chain_n"]
        grown = []
        for j, chain in enumerate((growth.rrt_chain, growth.ba_chain)):
            with meter.phase("trees", 1):
                tree = chain(n, rng.make_stream(master(self.seed, k, 0), j))
                grown.append((tree.parent, tree.height(), tree.out_degrees()))
        clear_exact_caches()
        cdfs = []
        law_n = self.sizes["law_n"]
        with meter.phase("height_law", 2):
            cdfs = [exact.rrt_height_cdf(law_n, self.LEVELS),
                    exact.ba_height_cdf(law_n, self.LEVELS)]
        left = None
        pn, preps = self.sizes["pills_n"], self.sizes["pills_reps"]
        with meter.phase("pills", preps):
            left = growth.pills_batch(pn, preps,
                                      rng.make_stream(master(self.seed, k, 1), 0))
        for parent, height, out in grown:
            meter.check(check_growing_tree, parent, height, out)
        for cdf in cdfs:
            meter.check(check_cdf, cdf)
        if left is not None:
            meter.check(check_leftovers, left, pn)
            self.leftovers.append(left)

    def finish(self, meter: Meter) -> None:
        if self.leftovers:
            pn = self.sizes["pills_n"]
            meter.check(check_mean, "pill leftovers", np.concatenate(self.leftovers),
                        sum(1.0 / j for j in range(1, pn + 1)))
        # the oracles against the direct recurrences, at a size they can reach
        n = self.sizes["direct_n"]
        for fn, direct in ((exact.rrt_height_cdf, direct_rrt_height_cdf),
                           (exact.ba_height_cdf, direct_ba_height_cdf)):
            meter.check(check_against_direct, fn(n, self.LEVELS),
                        direct(n, self.LEVELS))


class ConditionedTrees(Workload):
    """Size-conditioned Galton-Watson trees with geometric(1/2) offspring:
    one large tree per call (rejection, memory-bound) and a batch of 4-vertex
    trees (a decode per tree), plus uniform labeled (Cayley) trees."""

    phases = (("large", "large_trees_per_s"), ("small", "small_trees_per_s"),
              ("cayley", "cayley_trees_per_s"))
    warmup = False  # its first pass measured no slower than the rest

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        self.law = exact.OffspringLaw.geometric(0.5)
        self.leaves = 0
        self.large = 0
        self.shapes: dict = {}

    def run_pass(self, k: int, meter: Meter) -> None:
        s = self.sizes
        large = small = None
        cayley = []
        with meter.phase("large", 1):
            large = trees.sample_bgw_conditioned(
                self.law, s["large_n"], rng.make_stream(master(self.seed, k, 0), 0))
        with meter.phase("small", s["small_reps"]):
            small = trees.sample_bgw_conditioned_batch(
                self.law, 4, s["small_reps"], rng.make_stream(master(self.seed, k, 1), 0))
        for j in range(s["cayley_reps"]):
            with meter.phase("cayley", 1):
                cayley.append(trees.sample_cayley(
                    s["cayley_n"], rng.make_stream(master(self.seed, k, 2), j)))
        if large is not None:
            meter.check(check_plane_tree, large.child_counts, s["large_n"])
            self.leaves += int(np.count_nonzero(large.child_counts == 0))
            self.large += 1
        if small is not None:
            meter.check(require, len(small) == s["small_reps"],
                        f"batch returned {len(small)} trees, not {s['small_reps']}")
            for t in small:
                key = tuple(t.child_counts.tolist())
                self.shapes[key] = self.shapes.get(key, 0) + 1
        for t in cayley:
            meter.check(check_cayley, t, s["cayley_n"])

    def finish(self, meter: Meter) -> None:
        if self.large:
            mean, var = leaf_count_law(self.sizes["large_n"])
            se = math.sqrt(var * self.large)
            meter.check(require, abs(self.leaves - mean * self.large) <= Z * se,
                        f"{self.leaves} leaves in {self.large} large trees, "
                        f"expected {mean * self.large:.1f} +- {Z} SE ({se:.1f})")
        if self.shapes:
            meter.check(check_shapes, self.shapes)


WORKLOADS = {"verify-fast": VerifyFast, "graph-thresholds": GraphThresholds,
             "growth-chains": GrowthChains, "conditioned-trees": ConditionedTrees}

SIZES = {
    "verify-fast": {},
    "graph-thresholds": {"conn_n": 10_000, "conn_reps": 20, "giant_n": 100_000,
                         "giant_reps": 2, "fluid_reps": 2, "spectral_n": 2000,
                         "spectral_reps": 2, "dense_n": 2000},
    "growth-chains": {"chain_n": 1_000_000, "law_n": 100_000, "pills_n": 100_000,
                      "pills_reps": 100, "direct_n": 1000},
    "conditioned-trees": {"large_n": 10_000, "small_reps": 20_000,
                          "cayley_n": 1000, "cayley_reps": 10},
}
