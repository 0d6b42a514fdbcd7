"""The exact-law clauses of criteria 16 and 17 accept samples of the law they
test and reject samples of a neighbouring one; the batch samplers the
criteria call draw what one call per row drew before them; criterion 01's
forest counter agrees with the edge-subset enumeration; the suite reaches
the sampler modules through their public names only, and draws only through
them; and its verdicts do not depend on the worker count."""

import ast
import concurrent.futures
import itertools
import math
import os
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from randstruct import exact, experiments, growth, permutations, verify
from randstruct.rng import make_stream


def _height_verdict(heights, cdf, norm):
    chk = verify._Check()
    verify._height_clauses(chk, "height", heights, cdf, norm, (0.85, 1.15))
    return chk.result()


@pytest.mark.parametrize("oracle,constant", [
    (exact.rrt_height_cdf, math.e),
    (exact.ba_height_cdf, exact.ba_height_constant()),
], ids=["rrt", "ba"])
def test_height_clauses_reject_heights_one_level_up(oracle, constant):
    # 50 heights from the exact law at n = 10^6, as in the full profile
    n, reps = 1_000_000, 50
    cdf = oracle(n, verify._HEIGHT_LEVELS)
    rng = make_stream(5, 16)
    heights = rng.gen.choice(cdf.size, size=reps, p=np.diff(cdf, prepend=0.0))
    norm = constant * math.log(n)
    passed, detail = _height_verdict(heights, cdf, norm)
    assert passed, detail
    assert "exact" in detail and "mean ratio" in detail
    passed, detail = _height_verdict(heights + 1, cdf, norm)
    assert not passed
    assert "height mean" in detail


def test_pills_clause_rejects_leftovers_of_smaller_n():
    rng = make_stream(5, 172)
    leftovers = growth.pills_batch(10_000, 2_000, rng)
    for law_n, expect in ((10_000, True), (100_000, False)):
        chk = verify._Check()
        verify._pills_clause(chk, leftovers, law_n)
        passed, detail = chk.result()
        assert passed is expect, detail
        assert "D vs Exp(1)" in detail


def ref_forest_counts_by_roots(n):
    """count[k] = acyclic edge subsets of K_n with n - k edges keeping the
    vertices 0..k-1 pairwise disconnected, by union-find over every subset:
    criterion 01's counter before its parent-map form."""
    all_edges = list(itertools.combinations(range(n), 2))
    counts = {k: 0 for k in range(1, n + 1)}
    for k in range(1, n + 1):
        for subset in itertools.combinations(all_edges, n - k):
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
            if acyclic and len({find(r) for r in range(k)}) == k:
                counts[k] += 1
    return counts


@pytest.mark.parametrize("n", range(1, 8))
def test_forest_counts_by_roots_match_edge_subsets(n):
    counts = verify._forest_counts_by_roots(n)
    assert counts == ref_forest_counts_by_roots(n)
    assert counts == {k: exact.cayley_forest_count(k, n) for k in range(1, n + 1)}


def test_forest_counts_by_roots_memory_at_criterion_size():
    # the full profile counts up to n = 8: 8^7 parent maps at k = 1
    tracemalloc.start()
    try:
        counts = verify._forest_counts_by_roots(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts[1] == exact.cayley_count(8)
    assert peak <= 200 * 2 ** 20, peak / 2 ** 20


def _same_draws(batch, sequential, seed, index):
    r1, r2 = make_stream(seed, index), make_stream(seed, index)
    want, got = sequential(r1), batch(r2)
    return want, got, r1.gen.random() == r2.gen.random()


def ref_perm_rows(n, reps, rng):
    """One ``permutation(n)`` call per row, as ``sample_perm`` drew before
    its batch form."""
    return np.array([rng.gen.permutation(n) + 1 for _ in range(reps)],
                    dtype=np.int64).reshape(reps, n)


def ref_rrt_rows(n, reps, rng):
    """One ``integers`` call per chain, as ``rrt_chain`` drew before its batch
    form."""
    parent = np.full((reps, n + 1), -1, dtype=np.int64)
    for row in parent:
        if n:
            row[1:] = rng.gen.integers(0, np.arange(1, n + 1))
    return parent


@pytest.mark.parametrize("seed", [0, 20260810])
@pytest.mark.parametrize("n,reps", [(1, 0), (1, 5), (2, 500), (6, 0), (6, 500),
                                    (9, 500), (100_000, 3)])
def test_criterion_12_rows_are_sample_perm_draws(seed, n, reps):
    # criterion 12 draws its direct rows at n = 6 from stream 121
    for batch in (lambda r: permutations.sample_perm_batch(n, reps, r),
                  lambda r: np.array([permutations.sample_perm(n, r)
                                      for _ in range(reps)],
                                     dtype=np.int64).reshape(reps, n)):
        want, got, same_next = _same_draws(
            batch, lambda r: ref_perm_rows(n, reps, r), seed, 121)
        assert got.dtype == np.int64
        assert np.array_equal(want, got)
        assert same_next


@pytest.mark.parametrize("n", [1, 4, 6, 9])
def test_cycle_type_cells_match_key_loop(n):
    # the per-row tuple lookup that criterion 12 used before its table code
    keys = verify._partition_keys(n)
    matrix = permutations.small_cycle_counts(n, n, 5000, make_stream(6, n))
    key_index = {key: i for i, key in enumerate(keys)}
    want = np.zeros(len(keys), dtype=np.int64)
    for row in matrix:
        want[key_index[tuple(row.tolist())]] += 1
    assert np.array_equal(verify._cycle_type_cells(matrix, keys), want)


@pytest.mark.parametrize("seed", [0, 20260810])
@pytest.mark.parametrize("n,reps,index", [(0, 0, 14), (0, 4, 14), (1, 5, 14),
                                          (2, 500, 14), (9, 0, 14), (9, 500, 14),
                                          (100_000, 3, 14), (8, 500, 141),
                                          (3, 500, 142)])
def test_criterion_14_rows_are_rrt_chain_draws(seed, n, reps, index):
    # criterion 14 draws n = 8 rows from stream 141 and n = 3 rows from 142
    for batch in (lambda r: growth.rrt_chain_batch(n, reps, r),
                  lambda r: np.array([growth.rrt_chain(n, r).parent
                                      for _ in range(reps)],
                                     dtype=np.int64).reshape(reps, n + 1)):
        want, got, same_next = _same_draws(
            batch, lambda r: ref_rrt_rows(n, reps, r), seed, index)
        assert got.dtype == np.int64
        assert np.array_equal(want, got)
        assert same_next


@pytest.mark.parametrize("chain,batch", [(growth.rrt_chain, growth.rrt_chain_batch),
                                         (growth.ba_chain, growth.ba_chain_batch)],
                         ids=["rrt", "ba"])
def test_out_degree_fractions_pool_the_chains(chain, batch):
    # criteria 14 and 15 pooled the chains' out-degree counts one chain at a time
    n, reps = 20_000, 5
    pooled, total = np.zeros(7, dtype=np.int64), 0
    rng = make_stream(20260810, 14)
    for _ in range(reps):
        out = chain(n, rng).out_degrees()
        pooled += np.bincount(out, minlength=7)[:7]
        total += out.size
    got = verify._out_degree_fractions(batch(n, reps, make_stream(20260810, 14)))
    assert np.array_equal(got, pooled / total)


def test_verify_imports_no_private_sampler_names():
    # neither the suite nor the experiment registry
    modules = {"walks", "trees", "graphs", "permutations", "growth", "exact"}
    tree = ast.Module([*ast.parse(Path(verify.__file__).read_text()).body,
                       *ast.parse(Path(experiments.__file__).read_text()).body], [])
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in modules:
            private += [a.name for a in node.names if a.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            private.append(f"{node.value.id}.{node.attr}")
    assert private == []


# Functions of verify.py and experiments.py that may draw from a stream
# themselves; every other draw goes through a sampler module.
DRAW_ALLOWLIST: dict[str, str] = {}


def test_verify_draws_only_through_the_samplers():
    drawing = set()
    for module in (verify, experiments):
        for node in ast.parse(Path(module.__file__).read_text()).body:
            if any(isinstance(sub, ast.Attribute) and sub.attr == "gen"
                   for sub in ast.walk(node)):
                drawing.add(getattr(node, "name", f"{module.__name__}:{node.lineno}"))
    # an allowlisted function must still draw, so the list cannot go stale
    assert drawing == set(DRAW_ALLOWLIST)


def test_ba_shape_law_at_n4():
    law = verify._ba_shape_law()
    assert len(law) == 24 and sum(law.values()) == 1
    assert all(prob > 0 for prob in law.values())
    marginal = [Counter(), Counter(), Counter()]  # p2, p3, p4
    for key, prob in law.items():
        for i, shift in enumerate((4, 2, 0)):
            marginal[i][key >> shift & 3] += prob
    assert marginal[0][0] == Fraction(1, 2)
    for i in (2, 3, 4):
        assert marginal[i - 2][i - 1] == Fraction(1, 2 * (i - 1))
    # the same law as the 2 * 4 * 6 equally likely slot picks of ba_chain_batch
    picks = Counter()
    for slots in itertools.product(range(2), range(4), range(6)):
        parent = [-1, 0]
        for r in slots:
            parent.append(r // 2 + 1 if r & 1 else parent[r // 2 + 1])
        picks[parent[2] * 16 + parent[3] * 4 + parent[4]] += 1
    assert law == {key: Fraction(count, 48) for key, count in picks.items()}


def test_parallel_criteria_give_the_same_verdicts_at_any_worker_count():
    # criteria 09, 16 and 17 split their sampling and oracles over workers
    def table(workers):
        return [(r.name, r.passed, r.detail) for r in verify.run_suite(
            "fast", verify.MASTER_SEED, names=["09", "16", "17"], workers=workers)]

    serial = table(1)
    assert [name[:2] for name, _, _ in serial] == ["09", "16", "17"]
    assert table(2) == serial
    assert table(3) == serial


def test_run_tasks_returns_results_in_call_order():
    calls = [(divmod, 7, 2), (abs, -3), (pow, 2, 10)]
    assert verify.run_tasks(calls, 1) == verify.run_tasks(calls, 2) == [(3, 1), 3, 1024]


def test_pools_are_capped_by_the_usable_cpus(monkeypatch):
    # a request of 10^6 workers on one usable CPU plans one process, and
    # run_tasks then makes no pool: the calls run in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert experiments.usable_cpus() == 1
    assert experiments._plan_workers(10**6, 100, experiments.usable_cpus())[0] == 1
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    assert verify.run_tasks([(divmod, 7, 2), (abs, -3)], 10**6) == [(3, 1), 3]
    # without an affinity mask, the machine's CPU count, or one if unknown
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert experiments.usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert experiments.usable_cpus() == 1
