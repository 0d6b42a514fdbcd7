"""Acceptance suite: every criterion is implemented at its stated scale and
tolerance ("full") plus a reduced smoke profile ("fast").  Each criterion
returns a verdict with a one-line detail; the CLI prints the table and exits
nonzero on any failure."""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import stats as sps

from . import exact, graphs, growth, permutations, trees, walks
from .errors import InvalidParameterError
from .exact import OffspringLaw
from .experiments import ExperimentConfig, run_experiment
from .rng import make_stream
from .stats import chi_square_counts, chi_square_gof, ks_test

MASTER_SEED = 20260810


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


class _Check:
    """Collects named sub-checks so a criterion reports every clause, plus
    notes that the detail carries whether or not the clauses pass."""

    def __init__(self):
        self.clauses: list[tuple[str, bool]] = []
        self.notes: list[str] = []

    def add(self, label: str, ok: bool, extra: str = ""):
        self.clauses.append((f"{label}{extra}", bool(ok)))

    def note(self, text: str):
        self.notes.append(text)

    def test(self, label: str, report):
        self.add(label, report.passed,
                 f" (stat {report.statistic:.1f} thr {report.threshold:.1f})")

    def within(self, label: str, value: float, target: float, tol: float):
        self.add(label, abs(value - target) <= tol,
                 f" ({value:.6g} vs {target:.6g} tol {tol:.3g})")

    def mean(self, label: str, samples, target: float):
        """The sample mean within 3 sample standard errors of ``target``."""
        x = np.asarray(samples, dtype=float)
        self.within(label, float(x.mean()), target,
                    3.0 * float(x.std(ddof=1)) / math.sqrt(x.size))

    def result(self) -> tuple[bool, str]:
        passed = all(ok for _, ok in self.clauses)
        bad = [lab for lab, ok in self.clauses if not ok]
        detail = "all clauses pass" if passed else "FAIL: " + "; ".join(bad)
        if self.notes:
            detail += " [" + "; ".join(self.notes) + "]"
        return passed, detail


def _sigma_bound(p: float, reps: int, k: float = 3.0) -> float:
    return k * math.sqrt(max(p * (1.0 - p), 1e-12) / reps)


# ---------------------------------------------------------------------------
# Brute-force enumerators (independent oracles)


def _plane_tree_sequences(n_edges: int) -> list[tuple[int, ...]]:
    """All breadth-first child-count sequences of plane trees with n_edges."""
    n = n_edges + 1
    out: list[tuple[int, ...]] = []

    def rec(seq: list[int], alive: int, edges_left: int):
        pos = len(seq)
        if pos == n:
            if alive == 0:
                out.append(tuple(seq))
            return
        if alive == 0:
            return
        for c in range(edges_left + 1):
            nxt_alive = alive - 1 + c
            if nxt_alive > n - pos - 1:
                continue
            seq.append(c)
            rec(seq, nxt_alive, edges_left - c)
            seq.pop()

    rec([], 1, n_edges)
    return out


def _forest_counts_by_roots(n: int) -> dict[int, int]:
    """count[k] = acyclic edge subsets of K_n with n - k edges keeping the
    vertices 1..k pairwise disconnected (i.e. rooted spanning forests)."""
    all_edges = list(itertools.combinations(range(n), 2))
    counts = {k: 0 for k in range(1, n + 1)}
    for k in range(1, n + 1):
        size = n - k
        for subset in itertools.combinations(all_edges, size):
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            acyclic = True
            for u, v in subset:
                ru, rv = find(u), find(v)
                if ru == rv:
                    acyclic = False
                    break
                parent[ru] = rv
            if not acyclic:
                continue
            roots = {find(r) for r in range(k)}
            if len(roots) == k:
                counts[k] += 1
    return counts


def _plane_forest_brute(f: int, n: int, tree_counts: list[int]) -> int:
    """Ordered f-tuples of plane trees with n edges total, from enumerated
    per-size tree counts."""
    if f == 1:
        return tree_counts[n]
    return sum(tree_counts[e] * _plane_forest_brute(f - 1, n - e, tree_counts)
               for e in range(n + 1))


# ---------------------------------------------------------------------------
# Criteria


def criterion_01_exact_counts(scale: str, seed: int) -> tuple[bool, str]:
    chk = _Check()
    max_edges = 8 if scale == "full" else 5
    max_labels = 8 if scale == "full" else 6
    sequences = {e: _plane_tree_sequences(e) for e in range(max_edges + 1)}
    for e, seqs in sequences.items():
        chk.add(f"catalan({e})", exact.catalan(e) == len(seqs))
    # degree profiles over all trees with <= max_edges edges
    for e, seqs in sequences.items():
        profiles = Counter()
        for seq in seqs:
            profiles[tuple(sorted(Counter(seq).items()))] += 1
        ok = all(exact.plane_trees_with_degree_profile(dict(profile)) == mult
                 for profile, mult in profiles.items())
        chk.add(f"degree-profiles({e} edges)", ok)
    tree_counts = [len(sequences[e]) for e in range(max_edges + 1)]
    ok = all(exact.plane_forest_count(f, n) == _plane_forest_brute(f, n, tree_counts)
             for f in range(1, max_edges + 1)
             for n in range(0, max_edges + 1 - f))
    chk.add("plane-forests", ok)
    for n in range(1, max_labels + 1):
        counts = _forest_counts_by_roots(n)
        chk.add(f"cayley({n})", exact.cayley_count(n) == counts[1])
        chk.add(f"cayley-forests({n})",
                all(exact.cayley_forest_count(k, n) == counts[k]
                    for k in range(1, n + 1)))
    return chk.result()


def criterion_02_cycle_lemma(scale: str, seed: int) -> tuple[bool, str]:
    chk = _Check()
    max_len = 10 if scale == "full" else 7
    block = 1 << 17
    for n in range(1, max_len + 1):
        ok = {1: True, 2: True, 3: True}
        checked = {1: 0, 2: 0, 3: 0}
        powers = 4 ** np.arange(n, dtype=np.int64)
        for lo in range(0, 4 ** n, block):
            codes = np.arange(lo, min(lo + block, 4 ** n), dtype=np.int64)
            increments = (codes[:, None] // powers) % 4 - 1
            totals = increments.sum(axis=1)
            for k in (1, 2, 3):
                rows = increments[totals == -k]
                if rows.size:
                    checked[k] += rows.shape[0]
                    ok[k] &= bool(np.all(walks.good_shift_count(rows) == k))
        for k in (1, 2, 3):
            if checked[k]:
                chk.add(f"n={n},k={k}", ok[k], f" ({checked[k]} paths)")
    return chk.result()


def criterion_03_kemperman(scale: str, seed: int) -> tuple[bool, str]:
    # walk steps are offspring counts minus one
    chk = _Check()
    lhs, rhs = walks.kemperman_check(
        OffspringLaw.from_pmf({0: Fraction(1, 2), 2: Fraction(1, 2)}), 3, 1)
    chk.add("pm1 n=3 k=1", lhs == rhs == Fraction(1, 8))
    law = OffspringLaw.from_pmf({0: Fraction(1, 2), 1: Fraction(1, 4),
                                 2: Fraction(1, 4)})
    lhs, rhs = walks.kemperman_check(law, 4, 2)
    chk.add("half-quarter n=4 k=2", lhs == rhs)
    weights = [math.exp(-1.0) / math.factorial(j) for j in range(4)]
    z = sum(weights)
    trunc = OffspringLaw.from_pmf({j: w / z for j, w in enumerate(weights)})
    lhs, rhs = walks.kemperman_check(trunc, 5, 1)
    chk.add("truncated-poisson n=5 k=1", abs(lhs - rhs) < 1e-12)
    if scale == "full":
        ok = True
        for n in range(1, 7):
            for k in (1, 2):
                l2, r2 = walks.kemperman_check(law, n, k)
                ok = ok and l2 == r2
        chk.add("rational sweep n<=6", ok)
    return chk.result()


def criterion_04_borel_tanner(scale: str, seed: int) -> tuple[bool, str]:
    chk = _Check()
    reps = 100_000 if scale == "full" else 20_000
    rng = make_stream(seed, 4)
    sizes = trees.bgw_total_sizes(OffspringLaw.poisson(0.8), reps, rng, cap=4096)
    chk.add("no censoring", int(sizes.max()) < 4096)
    pmf = [0.0] + [exact.borel_tanner_pmf(0.8, k) for k in range(1, sizes.max() + 1)]
    report = chi_square_gof(sizes, pmf, alpha_level=0.01)
    chk.test("chi-square vs total-progeny law", report)
    return chk.result()


def criterion_05_parking(scale: str, seed: int) -> tuple[bool, str]:
    chk = _Check()
    cases = [(2, 2, 1_000_000), (10, 5, 100_000), (50, 25, 10_000)]
    if scale == "fast":
        cases = [(2, 2, 50_000), (10, 5, 10_000), (50, 25, 2_000)]
    for i, (n, m, reps) in enumerate(cases):
        rng = make_stream(seed, 50 + i)
        freq = walks.parking_success_batch(n, m, reps, rng).mean()
        target = float(exact.parking_full_prob(n, m))
        chk.within(f"(n={n},m={m})", freq, target, _sigma_bound(target, reps))
    return chk.result()


def criterion_06_conditioned_uniform(scale: str, seed: int) -> tuple[bool, str]:
    chk = _Check()
    reps = 100_000 if scale == "full" else 20_000
    shapes = Counter(tuple(t.child_counts.tolist()) for t in
                     trees.sample_bgw_conditioned_batch(OffspringLaw.geometric(0.5),
                                                        4, reps, make_stream(seed, 6)))
    # a labeled tree is keyed by the bitmask of its edges among the 6 pairs
    edges = np.sort(trees.sample_cayley_batch(4, reps // 2, make_stream(seed, 61)),
                    axis=2) - 1
    bit = np.zeros((4, 4), dtype=np.int64)
    bit[np.triu_indices(4, 1)] = 1 << np.arange(6)
    keys = np.bincount(bit[edges[..., 0], edges[..., 1]].sum(axis=1))
    for label, law_label, counts, cells in (
            ("five plane shapes", "plane-tree uniformity",
             [shapes[k] for k in sorted(shapes)], 5),
            ("sixteen labeled trees", "labeled-tree uniformity", keys[keys > 0], 16)):
        chk.add(label, len(counts) == cells, f" ({len(counts)})")
        chk.test(law_label, chi_square_counts(counts, [1 / cells] * len(counts),
                                              alpha_level=0.01))
    return chk.result()


def criterion_07_giant(scale: str, seed: int) -> tuple[bool, str]:
    chk = _Check()
    n = 100_000 if scale == "full" else 20_000
    reps = 50 if scale == "full" else 10
    for i, c in enumerate((0.5, 1.5, 2.0)):
        summary = run_experiment(ExperimentConfig(
            "giant", {"n": n, "c": c}, master_seed=seed * 100 + i, reps=reps)).summary
        target = exact.giant_fraction(c)
        chk.within(f"largest c={c}", summary["largest_frac_mean"], target, 0.01)
        if c == 2.0:
            chk.add("second c=2", summary["second_frac_mean"] < 0.01,
                    f" ({summary['second_frac_mean']:.5f})")
    return chk.result()


def criterion_08_fluid(scale: str, seed: int) -> tuple[bool, str]:
    chk = _Check()
    n = 100_000 if scale == "full" else 20_000
    reps = 20 if scale == "full" else 5
    sups = [graphs.fluid_sup_distance(n, 2.0, make_stream(seed, 80 + r))
            for r in range(reps)]
    chk.add("sup distance < 0.02 in every rep", max(sups) < 0.02,
            f" (max {max(sups):.4f})")
    return chk.result()


def criterion_09_connectivity(scale: str, seed: int) -> tuple[bool, str]:
    chk = _Check()
    n = 10_000 if scale == "full" else 3_000
    reps = 2_000 if scale == "full" else 400
    for i, c in enumerate((-1.0, 0.0, 2.0)):
        connected = run_experiment(ExperimentConfig(
            "connectivity", {"n": n, "c": c}, master_seed=seed * 200 + i,
            reps=reps)).summary["connected_mean"]
        target = exact.connectivity_limit(c)
        hw = 2.576 * math.sqrt(max(connected * (1 - connected), 1e-12) / reps)
        chk.add(f"c={c} CI brackets limit", abs(connected - target) <= hw,
                f" ({connected:.4f} vs {target:.4f} hw {hw:.4f})")
    return chk.result()


def criterion_10_triangles(scale: str, seed: int) -> tuple[bool, str]:
    chk = _Check()
    n, c = 3_000, 1.5
    reps = 10_000 if scale == "full" else 1_000
    lam = c ** 3 / 6.0
    counts = graphs.triangle_counts(n, c / n, reps, make_stream(seed, 10))
    report = chi_square_gof(counts, sps.poisson.pmf(np.arange(counts.max() + 1), lam),
                            alpha_level=0.01)
    chk.test("chi-square vs Poisson(c^3/6)", report)
    return chk.result()


def criterion_11_spectral(scale: str, seed: int) -> tuple[bool, str]:
    chk = _Check()
    rng = make_stream(seed, 11)
    ok = True
    for _ in range(200 if scale == "full" else 50):
        n = int(rng.gen.integers(2, 8))
        g = graphs.sample_gnp(n, float(rng.gen.random()), rng)
        got = graphs.spectral_moments(g, 8).moments
        dense = np.zeros((n, n), dtype=np.int64)
        for u, v in g.edge_array():
            dense[u, v] = dense[v, u] = 1
        brute = [np.trace(np.linalg.matrix_power(dense, k)) / n
                 for k in range(1, 9)]
        ok = ok and np.allclose(got, brute, rtol=0, atol=1e-9)
    chk.add("n<=7 equals brute-force powers", ok)
    n = 2_000
    c = 2.0
    p = c / n
    reps = 20 if scale == "full" else 6
    rows = np.array([graphs.spectral_moments(
        graphs.sample_gnp(n, p, make_stream(seed, 1100 + r)), 3).moments
        for r in range(reps)])
    chk.mean("m2 vs 2", rows[:, 1], 2.0)
    chk.mean("m3 vs (n-1)(n-2)p^3", rows[:, 2], (n - 1) * (n - 2) * p ** 3)
    return chk.result()


def _partition_keys(n: int) -> list[tuple[int, ...]]:
    keys = []
    for multiplicities in itertools.product(*(range(n // i + 1)
                                              for i in range(1, n + 1))):
        if sum(i * m for i, m in enumerate(multiplicities, start=1)) == n:
            keys.append(multiplicities)
    return keys


def _perm_rows(n: int, reps: int, rng) -> np.ndarray:
    """``reps`` rows, the same draws as ``permutations.sample_perm(n)`` calls."""
    return rng.gen.permuted(np.tile(np.arange(1, n + 1), (reps, 1)), axis=1)


def _cycle_type_cells(matrix: np.ndarray, keys) -> np.ndarray:
    """How many rows of a cycle-type count matrix fall on each of ``keys``:
    count i of a row lies in 0..n // i, so the rows' mixed-radix codes index
    one lookup table."""
    n = matrix.shape[1]
    radix = n // np.arange(1, n + 1) + 1
    weights = np.concatenate([[1], np.cumprod(radix[:-1])])
    table = np.full(int(np.prod(radix)), -1)
    table[np.asarray(keys) @ weights] = np.arange(len(keys))
    return np.bincount(table[matrix @ weights], minlength=len(keys))


def criterion_12_cycles(scale: str, seed: int) -> tuple[bool, str]:
    chk = _Check()
    reps = 1_000_000 if scale == "full" else 100_000
    n = 6
    keys = _partition_keys(n)
    probs = [float(exact.cauchy_cycle_type_pmf(key)) for key in keys]
    rng = make_stream(seed, 12)
    counts_f = _cycle_type_cells(permutations.small_cycle_counts(n, n, reps, rng), keys)
    rng = make_stream(seed, 121)
    counts_d = _cycle_type_cells(
        permutations.cycle_type_batch(_perm_rows(n, reps, rng)), keys)
    for label, counts in (("spacing", counts_f), ("direct", counts_d)):
        report = chi_square_counts(counts, probs, alpha_level=0.01)
        chk.test(f"{label} sampler vs Cauchy cycle-type law (n=6)", report)
    dreps = 100_000 if scale == "full" else 20_000
    rng = make_stream(seed, 122)
    n1 = permutations.small_cycle_counts(2_000, 1, dreps, rng)[:, 0]
    frac = float(np.mean(n1 == 0))
    chk.within("derangement fraction", frac, math.exp(-1.0),
               _sigma_bound(math.exp(-1.0), dreps))
    rng = make_stream(seed, 123)
    ereps = 100_000 if scale == "full" else 20_000
    n20 = 20
    cycles = permutations.small_cycle_counts(n20, n20, ereps, rng).sum(axis=1)
    chk.mean("E[2^cycles] = n+1 at n=20", np.exp2(cycles.astype(float)), 21.0)
    return chk.result()


def criterion_13_dickman(scale: str, seed: int) -> tuple[bool, str]:
    chk = _Check()
    reps = 100_000 if scale == "full" else 20_000
    n = 10_000
    rng = make_stream(seed, 13)
    longest = permutations.longest_cycle_stats(n, reps, rng)
    frac = float(np.mean(longest <= 0.5))
    # at most one cycle is longer than n/2, and a k-cycle occurs with
    # chance 1/k: P(longest <= n/2) = 1 - (H_n - H_{n/2}), H_n = pills_mean(n)
    target = 1.0 - (exact.pills_mean(n) - exact.pills_mean(n // 2))
    limit = 1.0 - math.log(2.0)
    chk.within("P(longest <= n/2)", frac, target, _sigma_bound(target, reps))
    chk.within("dickman(2)", exact.dickman_rho(2.0), limit, 1e-6)
    chk.note(f"P(longest <= n/2) {frac:.6g}, exact {target:.6f}, "
             f"Dickman limit {limit:.6f}")
    return chk.result()


def _rrt_parent_rows(n: int, reps: int, rng) -> np.ndarray:
    """``reps`` rows, the same draws as ``growth.rrt_chain(n).parent[1:]``."""
    return rng.gen.integers(0, np.tile(np.arange(1, n + 1), (reps, 1)))


def _shape_clause(chk: _Check, label: str, keys: np.ndarray, probs: np.ndarray):
    """Shapes, keyed by integers below ``probs.size``, against their exact law."""
    report = chi_square_counts(np.bincount(keys, minlength=probs.size), probs,
                               alpha_level=0.01)
    chk.test(f"{label} vs exact law", report)


def _ba_shape_law() -> dict[int, Fraction]:
    """Exact law of the preferential shape (p2, p3, p4) at n = 4, keyed by
    p2 * 16 + p3 * 4 + p4: vertex i joins v with probability deg(v) / (2(i - 1)),
    the law of the 2 * 4 * 6 equally likely slot picks of
    ``growth.ba_chain_batch``."""
    law = {}
    for shape in itertools.product(range(2), range(3), range(4)):
        parent = [-1, 0, *shape]
        prob = Fraction(1)
        for i in (2, 3, 4):
            degree = parent[1:i].count(parent[i]) + (parent[i] > 0)
            prob *= Fraction(degree, 2 * (i - 1))
        law[shape[0] * 16 + shape[1] * 4 + shape[2]] = prob
    return law


def criterion_14_rrt(scale: str, seed: int) -> tuple[bool, str]:
    chk = _Check()
    n = 100_000 if scale == "full" else 20_000
    rng = make_stream(seed, 14)
    pooled = np.zeros(7, dtype=np.int64)
    total = 0
    for _ in range(5):
        out = growth.rrt_chain(n, rng).out_degrees()
        pooled += np.bincount(out, minlength=7)[:7]
        total += out.size
    fractions = pooled / total
    ok = all(abs(fractions[k] - 2.0 ** (-k - 1)) < 0.005 for k in range(6))
    chk.add("out-degree fractions vs 2^-k-1", ok)
    hreps = 200_000 if scale == "full" else 50_000
    rng = make_stream(seed, 141)
    picks = _rrt_parent_rows(8, hreps, rng)
    depth = np.zeros((hreps, 9), dtype=np.int64)
    for j in range(1, 9):
        depth[:, j] = depth[np.arange(hreps), picks[:, j - 1]] + 1
    report = chi_square_gof(depth[:, 8], [0.0, *exact.cycles_count_pmf(8)],
                            alpha_level=0.01)
    chk.test("vertex-8 height vs cycle-count law", report)
    # the 6 shapes (parent[2], parent[3]) at n = 3 are equally likely
    creps = 300_000 if scale == "full" else 50_000
    rng = make_stream(seed, 142)
    direct = _rrt_parent_rows(3, creps, rng)[:, 1:]
    rng = make_stream(seed, 143)
    forest = growth.yule_simulate(2, creps // 3, rng, n_particles=4)
    contracted = growth.yule_to_rrt(forest, 3)[:, 2:]
    for label, rows in (("chain", direct), ("contraction", contracted)):
        _shape_clause(chk, f"{label} shapes (n=3)", rows[:, 0] * 3 + rows[:, 1],
                      np.full(6, 1 / 6))
    return chk.result()


def criterion_15_ba(scale: str, seed: int) -> tuple[bool, str]:
    chk = _Check()
    n = 100_000 if scale == "full" else 20_000
    rng = make_stream(seed, 15)
    pooled = np.zeros(7, dtype=np.float64)
    total = 0
    for _ in range(5):
        tree = growth.ba_chain(n, rng)
        assert int(tree.degrees().sum()) == 2 * n
        out = tree.out_degrees()
        pooled += np.bincount(out, minlength=7)[:7]
        total += out.size
    fractions = pooled / total
    ok = all(abs(fractions[k] - 4.0 / ((k + 1) * (k + 2) * (k + 3))) < 0.005
             for k in range(1, 6))
    chk.add("out-degree fractions vs 4/((k+1)(k+2)(k+3))", ok)
    creps = 300_000 if scale == "full" else 50_000
    rng = make_stream(seed, 151)
    direct = growth.ba_chain_batch(4, creps, rng)[:, 2:]
    rng = make_stream(seed, 152)
    forest = growth.yule_simulate(3, 2 * (creps // 3), rng, n_particles=7)
    contracted = growth.yule3_to_ba(forest, 4)[:, 2:]
    probs = np.zeros(64)
    for key, prob in _ba_shape_law().items():
        probs[key] = prob
    for label, rows in (("chain", direct), ("contraction", contracted)):
        _shape_clause(chk, f"{label} shapes (n=4)", rows @ [16, 4, 1], probs)
    return chk.result()


# Height laws are evaluated through this many levels; at n = 10^6 both chains
# exceed height 54 with probability below 1e-12.
_HEIGHT_LEVELS = 80


def _height_clauses(chk: _Check, label: str, heights: np.ndarray,
                    cdf: np.ndarray, norm: float, band: tuple[float, float]):
    """Sampled tree heights against their exact law (cdf[h] = P(H <= h)):
    the mean within 3 standard errors of the exact mean and, from 20 heights
    on, a chi-square fit over cells pooled to expected count >= 5 and the
    fraction of ratios H / norm inside ``band`` within binomial 3 sigma of
    its exact probability.  Fewer heights cannot fill two such cells, and
    their 3 sigma band-fraction tolerance (~0.45 at 10) leaves nothing to
    reject, so there the fraction is only reported."""
    reps = heights.size
    pmf = np.diff(cdf, prepend=0.0)
    levels = np.arange(pmf.size)
    lo, hi = band
    ratios = heights / norm
    frac = float(np.mean((ratios >= lo) & (ratios <= hi)))
    p_band = float(pmf[(levels / norm >= lo) & (levels / norm <= hi)].sum())
    if reps >= 20:
        report = chi_square_gof(heights, pmf, alpha_level=0.01)
        chk.test(f"{label} chi-square vs exact law", report)
        chk.within(f"{label} fraction in [{lo},{hi}]", frac, p_band,
                   _sigma_bound(p_band, reps))
    mean = float(levels @ pmf)
    sd = math.sqrt(max(float(levels ** 2 @ pmf) - mean ** 2, 0.0))
    chk.within(f"{label} mean", float(heights.mean()), mean,
               3.0 * sd / math.sqrt(reps))
    chk.note(f"{label}: {frac:.2f} in [{lo},{hi}] (exact {p_band:.3f}), "
             f"mean ratio {ratios.mean():.3f} (exact {mean / norm:.3f})")


def criterion_16_extremes(scale: str, seed: int) -> tuple[bool, str]:
    """Heights of both chains are tested against their exact laws at the
    sampled n (``exact.rrt_height_cdf``, ``exact.ba_height_cdf``), with the
    +-15% band around the log-scale constants kept as a reported fraction
    whose exact probability is the null.  The band is not a null in itself:
    the limits e log n and c log n carry a -(3/2) log log n correction, and
    at n = 10^6 the exact laws put only 0.443 (uniform) and 0.400
    (preferential) of their mass inside it.  The fast profile's 10 heights
    per chain are tested by their mean alone (see ``_height_clauses``).  The
    max-degree ratio is tested against the band itself; the fast profile's
    degree band is a smoke band set from measured behaviour at n = 10^5."""
    chk = _Check()
    n = 1_000_000 if scale == "full" else 100_000
    reps = 50 if scale == "full" else 10
    band = (0.85, 1.15)
    degree_band = band if scale == "full" else (0.80, 1.30)
    need = 0.9
    rng = make_stream(seed, 16)
    ratios_deg = np.empty(reps)
    heights_rrt = np.empty(reps, dtype=np.int64)
    for r in range(reps):
        tree = growth.rrt_chain(n, rng)
        ratios_deg[r] = tree.out_degrees().max() / math.log2(n)
        heights_rrt[r] = tree.height()
    rng = make_stream(seed, 161)
    heights_ba = np.array([growth.ba_chain(n, rng).height() for _ in range(reps)])
    lo, hi = degree_band
    frac = float(np.mean((ratios_deg >= lo) & (ratios_deg <= hi)))
    chk.add("rrt max-degree in band", frac >= need,
            f" ({frac:.2f} in [{lo},{hi}], mean ratio {ratios_deg.mean():.3f})")
    _height_clauses(chk, "rrt height", heights_rrt,
                    exact.rrt_height_cdf(n, _HEIGHT_LEVELS),
                    math.e * math.log(n), band)
    _height_clauses(chk, "ba height", heights_ba,
                    exact.ba_height_cdf(n, _HEIGHT_LEVELS),
                    exact.ba_height_constant() * math.log(n), band)
    return chk.result()


def _pills_clause(chk: _Check, leftovers: np.ndarray, n: int):
    """Pill leftovers against the exact law at n by chi-square.  The KS
    distance to the Exp(1) limit of L / log n is reported next to the exact
    law's own distance: L is lattice-valued and its law sits ~1.1 / log n
    from the limit in sup-norm (0.094 at n = 10^5), far above the KS
    resolution of any large sample."""
    pmf = exact.pills_pmf(n)
    report = chi_square_gof(leftovers, pmf, alpha_level=0.01)
    chk.test(f"pills chi-square vs exact law (n={n})", report)
    ks = ks_test(leftovers / math.log(n), lambda x: -np.expm1(-x))
    chk.note(f"pills D vs Exp(1) {ks.statistic:.4f} (exact law "
             f"{exact.pills_limit_distance(n):.4f}, KS thr {ks.threshold:.4f})")


def criterion_17_yule_classics(scale: str, seed: int) -> tuple[bool, str]:
    chk = _Check()
    # geometric particle-count law at t = 2
    reps = 100_000 if scale == "full" else 20_000
    rng = make_stream(seed, 17)
    counts = 1 + growth.yule_simulate(2, reps, rng, t=2.0).n_jumps
    q = math.exp(-2.0)
    pmf = [0.0] + [q * (1 - q) ** (k - 1) for k in range(1, counts.max() + 1)]
    report = chi_square_gof(counts, pmf, alpha_level=0.01)
    chk.test("splitting count geometric at t=2", report)
    # coupon collector Gumbel limit
    creps = 10_000 if scale == "full" else 2_000
    n = 10_000
    rng = make_stream(seed, 171)
    draws = growth.coupon_collector_batch(n, creps, rng)
    sample = np.sort((draws - n * math.log(n)) / n)
    report = ks_test(sample, lambda x: np.exp(-np.exp(-x)), alpha_level=0.01)
    chk.add("coupon collector KS vs Gumbel", report.passed,
            f" (D {report.statistic:.4f} thr {report.threshold:.4f})")
    # pill leftovers against their exact law at the sampled n
    preps, pn = (10_000, 100_000) if scale == "full" else (4_000, 3_000)
    rng = make_stream(seed, 172)
    _pills_clause(chk, growth.pills_batch(pn, preps, rng), pn)
    # last-man-standing duel
    oreps = 10_000 if scale == "full" else 2_000
    on = 10_000
    rng = make_stream(seed, 173)
    survivors = growth.ok_corral_batch(on, oreps, rng)
    scaled = survivors / on ** 0.75
    target = (8.0 / 3.0) ** 0.25 * 2.0 ** 0.25 * math.gamma(0.75) / math.sqrt(math.pi)
    chk.mean("duel survivors mean", scaled, target)
    return chk.result()


def criterion_18_many_to_one(scale: str, seed: int) -> tuple[bool, str]:
    chk = _Check()
    reps = 10_000 if scale == "full" else 2_000
    functionals = [("constant-1", 0), ("degree-at-least", 4), ("height-at-least", 6)]
    for i, k in enumerate((2, 3)):
        rng = make_stream(seed, 18 * 10 + i)
        population, _ = growth.many_to_one_samples(k, 3.0, functionals, reps, rng)
        for f in functionals:
            chk.mean(f"k={k} {f[0]}({f[1]}) population mean", population[f],
                     growth.line_mean(k, 3.0, *f))
    return chk.result()


def criterion_19_determinism(scale: str, seed: int) -> tuple[bool, str]:
    import tempfile
    from pathlib import Path

    chk = _Check()
    with tempfile.TemporaryDirectory() as tmp:
        outputs = []
        for run, workers in enumerate((1, 1, 3)):
            out = Path(tmp) / f"giant-{run}.csv"
            cfg = ExperimentConfig("giant", {"n": 2000, "c": 1.5},
                                   master_seed=seed, reps=12, workers=workers,
                                   out=str(out), fmt="csv", per_rep=True)
            run_experiment(cfg)
            outputs.append((out.read_bytes(),
                            Path(str(out).replace(".csv", "-reps.csv")).read_bytes()))
    chk.add("rerun identical", outputs[0] == outputs[1])
    chk.add("workers=3 identical to workers=1", outputs[0] == outputs[2])
    return chk.result()


CRITERIA = [
    ("01 exact-count oracles", criterion_01_exact_counts),
    ("02 cycle lemma", criterion_02_cycle_lemma),
    ("03 first-passage identity", criterion_03_kemperman),
    ("04 total-progeny law", criterion_04_borel_tanner),
    ("05 parking", criterion_05_parking),
    ("06 conditioned uniformity", criterion_06_conditioned_uniform),
    ("07 giant component", criterion_07_giant),
    ("08 fluid limit", criterion_08_fluid),
    ("09 connectivity window", criterion_09_connectivity),
    ("10 triangles", criterion_10_triangles),
    ("11 spectral moments", criterion_11_spectral),
    ("12 permutation cycles", criterion_12_cycles),
    ("13 long cycles / dickman", criterion_13_dickman),
    ("14 uniform attachment laws", criterion_14_rrt),
    ("15 preferential attachment laws", criterion_15_ba),
    ("16 extremes band", criterion_16_extremes),
    ("17 continuous-time classics", criterion_17_yule_classics),
    ("18 population vs line identity", criterion_18_many_to_one),
    ("19 determinism", criterion_19_determinism),
]


def run_suite(scale: str = "fast", seed: int = MASTER_SEED,
              names: list[str] | None = None) -> list[CriterionResult]:
    if scale not in ("fast", "full"):
        raise ValueError("scale must be fast or full")
    for token in names or ():
        if not any(token in name for name, _ in CRITERIA):
            raise InvalidParameterError(f"no criterion name contains {token!r}")
    results = []
    for name, fn in CRITERIA:
        if names and not any(token in name for token in names):
            continue
        start = time.perf_counter()
        passed, detail = fn(scale, seed)
        results.append(CriterionResult(name, passed, detail,
                                       time.perf_counter() - start))
    return results
