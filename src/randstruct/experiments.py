"""Named, seeded experiments over the library, run replicate-by-replicate so
results are identical for any worker count (replicate i always consumes the
stream with index i)."""

from __future__ import annotations

import concurrent.futures
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as sps

from . import __version__, exact, graphs, growth, permutations, trees, walks
from .errors import InvalidParameterError, InvalidTestError
from .rng import make_stream
from .stats import chi_square_gof, ks_test, mean_ci


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: dict
    master_seed: int = 0
    reps: int = 1
    workers: int = 1
    out: str | None = None
    fmt: str = "csv"
    per_rep: bool = False

    def __post_init__(self):
        if self.reps < 1:
            raise InvalidParameterError("reps must be >= 1")
        if self.workers < 1:
            raise InvalidParameterError("workers must be >= 1")
        if self.fmt not in ("csv", "json"):
            raise InvalidParameterError("format must be csv or json")


@dataclass
class Report:
    experiment: str
    params: dict
    seed: int
    reps: int
    columns: list
    rows: list
    summary: dict
    verdicts: dict
    wall_clock: float = 0.0
    version: str = __version__


@dataclass(frozen=True)
class Experiment:
    name: str
    schema: dict
    columns: tuple
    rep_fn: object          # (params, stream) -> tuple of row values
    summarize: object       # (params, rows ndarray) -> (summary dict, verdicts)
    defaults: dict = field(default_factory=dict)


REGISTRY: dict[str, Experiment] = {}


def _register(experiment: Experiment):
    REGISTRY[experiment.name] = experiment
    return experiment


def list_experiments() -> dict[str, dict]:
    """Experiment names with their parameter schemas."""
    return {name: dict(exp.schema) for name, exp in sorted(REGISTRY.items())}


def _coerce_params(exp: Experiment, raw: dict) -> dict:
    params = dict(exp.defaults)
    for key, value in raw.items():
        if key not in exp.schema:
            raise InvalidParameterError(
                f"unknown parameter {key!r} for {exp.name}; "
                f"expected {sorted(exp.schema)}")
        params[key] = exp.schema[key](value)
    missing = [k for k in exp.schema if k not in params]
    if missing:
        raise InvalidParameterError(f"{exp.name} needs parameters {missing}")
    return params


def _run_chunk(args):
    name, params, seed, lo, hi = args
    exp = REGISTRY[name]
    return [exp.rep_fn(params, make_stream(seed, r)) for r in range(lo, hi)]


def _plan_workers(workers: int, reps: int, cpus: int | None) -> tuple[int, list]:
    """Pool size and replicate ranges [lo, hi): the pool never exceeds the
    workers asked for, the CPUs, or the number of ranges."""
    workers = min(workers, cpus or 1)
    chunk = max(1, math.ceil(reps / (4 * workers)))
    bounds = [(lo, min(lo + chunk, reps)) for lo in range(0, reps, chunk)]
    return min(workers, len(bounds)), bounds


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Dispatch to the named experiment; merge replicates in index order."""
    if cfg.experiment not in REGISTRY:
        raise InvalidParameterError(
            f"unknown experiment {cfg.experiment!r}; known: {sorted(REGISTRY)}")
    exp = REGISTRY[cfg.experiment]
    params = _coerce_params(exp, cfg.params)
    start = time.perf_counter()
    pool_size, bounds = _plan_workers(cfg.workers, cfg.reps, os.cpu_count())
    if pool_size == 1:
        rows = _run_chunk((exp.name, params, cfg.master_seed, 0, cfg.reps))
    else:
        tasks = [(exp.name, params, cfg.master_seed, lo, hi) for lo, hi in bounds]
        with concurrent.futures.ProcessPoolExecutor(pool_size) as pool:
            rows = [row for part in pool.map(_run_chunk, tasks) for row in part]
    matrix = np.array(rows, dtype=float)
    summary, verdicts = exp.summarize(params, matrix)
    report = Report(exp.name, params, cfg.master_seed, cfg.reps,
                    list(exp.columns), rows, summary, verdicts,
                    wall_clock=time.perf_counter() - start)
    if cfg.out:
        write_report(report, cfg)
    return report


def write_report(report: Report, cfg: ExperimentConfig) -> None:
    if cfg.fmt == "json":
        payload = {
            "config": {"experiment": report.experiment, "params": report.params,
                       "seed": report.seed, "reps": report.reps,
                       "version": report.version, "wall_clock": report.wall_clock},
            "rows": [list(map(float, row)) for row in report.rows]
            if cfg.per_rep else [],
            "summary": report.summary,
            "verdicts": report.verdicts,
        }
        text = json.dumps(payload, indent=2, sort_keys=True)  # fails before open()
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
        return
    with open(cfg.out, "w") as fh:
        fh.write("experiment,seed,metric,value\n")
        for key in sorted(report.summary):
            fh.write(f"{report.experiment},{report.seed},{key},{report.summary[key]!r}\n")
        for key in sorted(report.verdicts):
            fh.write(f"{report.experiment},{report.seed},verdict:{key},"
                     f"{int(report.verdicts[key])}\n")
    if cfg.per_rep:
        per_rep_path = _per_rep_path(cfg.out)
        with open(per_rep_path, "w") as fh:
            fh.write("experiment,seed,rep," + ",".join(report.columns) + "\n")
            for r, row in enumerate(report.rows):
                cells = ",".join(repr(float(x)) for x in row)
                fh.write(f"{report.experiment},{report.seed},{r},{cells}\n")


def _per_rep_path(out: str) -> str:
    stem, dot, ext = out.rpartition(".")
    return f"{stem}-reps.{ext}" if dot else f"{out}-reps"


# ---------------------------------------------------------------------------
# Experiment definitions


def _mean_hw(values, level=0.95):
    """Sample mean and CI half-width; one replicate has half-width 0."""
    return mean_ci(values, level) if values.size > 1 else (float(values[0]), 0.0)


def _mean_summary(columns, level=0.95, extra=None):
    """Mean and half-width of each column, plus the reference values that
    ``extra(params)`` gives."""
    def summarize(params, matrix):
        summary = {}
        for j, col in enumerate(columns):
            summary[f"{col}_mean"], summary[f"{col}_hw"] = _mean_hw(matrix[:, j], level)
        summary.update(extra(params) if extra else {})
        return summary, {}
    return summarize


_register(Experiment(
    "giant", {"n": int, "c": float}, ("largest_frac", "second_frac"),
    lambda p, s: tuple(x / p["n"] for x in graphs.giant_rep(p["n"], p["c"], s)),
    _mean_summary(("largest_frac", "second_frac")),
))


def _connectivity_summary(params, matrix):
    summary, _ = _mean_summary(("connected", "no_isolated"))(params, matrix)
    summary["double_exponential_limit"] = exact.connectivity_limit(params["c"])
    lo = summary["connected_mean"] - summary["connected_hw"]
    hi = summary["connected_mean"] + summary["connected_hw"]
    verdicts = {"ci_brackets_limit": lo <= summary["double_exponential_limit"] <= hi}
    return summary, verdicts


_register(Experiment(
    "connectivity", {"n": int, "c": float}, ("connected", "no_isolated"),
    lambda p, s: tuple(map(float, graphs.connectivity_rep(p["n"], p["c"], s))),
    _connectivity_summary,
))

_register(Experiment(
    "fluid-curve", {"n": int, "c": float}, ("sup_distance",),
    lambda p, s: (graphs.fluid_sup_distance(p["n"], p["c"], s),),
    _mean_summary(("sup_distance",)),
))


def _gnp_c(params, stream) -> graphs.Graph:
    """One G(n, c/n), n >= 1: the registry's copy of graphs._gnp_c."""
    if params["n"] < 1:
        raise InvalidParameterError("n must be >= 1")
    return graphs.sample_gnp(params["n"], params["c"] / params["n"], stream)


def _triangle_summary(params, matrix):
    lam = params["c"] ** 3 / 6.0
    summary, _ = _mean_summary(("triangles",))(params, matrix)
    summary["poisson_mean_limit"] = lam
    verdicts = {}
    if matrix.shape[0] >= 100:
        counts = matrix[:, 0].astype(np.int64)
        try:
            report = chi_square_gof(
                counts, sps.poisson.pmf(np.arange(counts.max() + 1), lam),
                alpha_level=0.01)
        except InvalidTestError:  # at small c nearly every count is 0: one cell
            summary["poisson_chi_square"] = "not computable"
        else:
            verdicts["poisson_chi_square"] = report.passed
    return summary, verdicts


_register(Experiment(
    "triangles", {"n": int, "c": float}, ("triangles",),
    lambda p, s: (float(graphs.triangle_count(_gnp_c(p, s))),),
    _triangle_summary,
))

_register(Experiment(
    "spectral-moments", {"n": int, "c": float, "k_max": int},
    tuple(f"m{k}" for k in range(1, 13)),
    lambda p, s: tuple(graphs.spectral_moments(_gnp_c(p, s), p["k_max"]).moments) +
    (0.0,) * (12 - p["k_max"]),
    _mean_summary(tuple(f"m{k}" for k in range(1, 13))),
    defaults={"k_max": 3},
))


def _bgw_law(params) -> exact.OffspringLaw:
    family = params["law"]
    if family == "geometric":
        return exact.OffspringLaw.geometric(params["param"])
    if family == "poisson":
        return exact.OffspringLaw.poisson(params["param"])
    raise InvalidParameterError("law must be geometric or poisson")


_register(Experiment(
    "bgw-size", {"law": str, "param": float, "cap": int}, ("size",),
    lambda p, s: (float(trees.bgw_total_sizes(_bgw_law(p), 1, s, cap=p["cap"])[0]),),
    _mean_summary(("size",)),
    defaults={"cap": 4096},
))


def _parking_summary(params, matrix):
    summary, _ = _mean_summary(("parked",))(params, matrix)
    exact_p = float(exact.parking_full_prob(params["n"], params["m"]))
    summary["exact_probability"] = exact_p
    lo = summary["parked_mean"] - summary["parked_hw"]
    hi = summary["parked_mean"] + summary["parked_hw"]
    return summary, {"ci_brackets_exact": lo <= exact_p <= hi}


_register(Experiment(
    "parking", {"n": int, "m": int}, ("parked",),
    lambda p, s: (float(walks.parking_success_batch(p["n"], p["m"], 1, s)[0]),),
    _parking_summary,
))


_register(Experiment(
    "ballot", {"a": int, "b": int}, ("always_ahead",),
    lambda p, s: (float(walks.ballot_ahead(p["a"], p["b"], s)),),
    _mean_summary(("always_ahead",), extra=lambda p: {
        "exact_probability": float(walks.ballot_prob(p["a"], p["b"]))}),
))

_register(Experiment(
    "cycles", {"n": int}, ("n_cycles",),
    lambda p, s: (float(permutations.feller_cycles(p["n"], s).n_cycles),),
    _mean_summary(("n_cycles",), extra=lambda p: {
        "harmonic_mean": exact.pills_mean(p["n"])}),  # H_n by digamma
))


def _pd_summary(params, matrix):
    mean, hw = _mean_hw((matrix[:, 0] <= 0.5).astype(float))
    return ({"p_longest_below_half": mean, "p_longest_below_half_hw": hw,
             "dickman_half": 1.0 - math.log(2.0)}, {})


_register(Experiment(
    "poisson-dirichlet", {"n": int}, ("longest_frac",),
    lambda p, s: (float(permutations.longest_cycle_stats(p["n"], 1, s)[0]),),
    _pd_summary,
))


_register(Experiment(
    "dickman", {"x": float}, ("rho",),
    lambda p, s: (exact.dickman_rho(p["x"]),),  # deterministic: draws nothing
    _mean_summary(("rho",)),
))


def _growth_rep(chain):
    def rep(p, s):
        tree = (growth.rrt_chain if chain == "rrt" else growth.ba_chain)(p["n"], s)
        out = tree.out_degrees()
        return float(out.max()), float(tree.height()), float(out[0])
    return rep


_register(Experiment(
    "rrt", {"n": int}, ("max_out_degree", "height", "root_degree"),
    _growth_rep("rrt"),
    _mean_summary(("max_out_degree", "height", "root_degree")),
))

_register(Experiment(
    "ba", {"n": int}, ("max_out_degree", "height", "root_degree"),
    _growth_rep("ba"),
    _mean_summary(("max_out_degree", "height", "root_degree")),
))


def _yule_rep(p, s):
    """Particles alive at t: the root, plus k - 1 for each jump."""
    return (float(1 + (p["k"] - 1) * growth.yule_simulate(p["k"], 1, s, t=p["t"]).n_jumps[0]),)


_register(Experiment(
    "yule", {"k": int, "t": float}, ("particles",),
    _yule_rep,
    _mean_summary(("particles",),
                  extra=lambda p: {"mean_limit": math.exp((p["k"] - 1) * p["t"])}),
))

_register(Experiment(
    "coupon", {"n": int}, ("draws",),
    lambda p, s: (float(growth.coupon_collector_batch(p["n"], 1, s)[0]),),
    _mean_summary(("draws",)),
))

_register(Experiment(
    "bins", {"n": int}, ("max_load",),
    lambda p, s: (float(growth.balls_in_bins(p["n"], s)),),
    _mean_summary(("max_load",)),
))


_register(Experiment(
    "pills", {"n": int}, ("half_pills_left",),
    lambda p, s: (float(growth.pills_batch(p["n"], 1, s)[0]),),
    _mean_summary(("half_pills_left",), extra=lambda p: {
        "half_pills_left_exact_mean": exact.pills_mean(p["n"])}),
))

_register(Experiment(
    "corral", {"n": int}, ("survivors",),
    lambda p, s: (float(growth.ok_corral_batch(p["n"], 1, s)[0]),),
    _mean_summary(("survivors",)),
))


def _many_to_one_rep(p, s):
    """One population sum, then one marked-line estimate."""
    functional = (p["functional"], p["arg"])
    lhs, rhs = growth.many_to_one_samples(p["k"], p["t"], [functional], 1, s)
    return float(lhs[functional][0]), float(rhs[functional][0])


def _many_to_one_summary(params, matrix):
    summary, _ = _mean_summary(("population", "line"), level=0.99)(params, matrix)
    pop, pop_hw = summary["population_mean"], summary["population_hw"]
    line, line_hw = summary["line_mean"], summary["line_hw"]
    overlap = pop - pop_hw <= line + line_hw and line - line_hw <= pop + pop_hw
    return summary, {"ci_overlap": overlap}


_register(Experiment(
    "many-to-one", {"k": int, "t": float, "functional": str, "arg": int},
    ("population_sum", "line_estimate"),
    _many_to_one_rep,
    _many_to_one_summary,
    defaults={"functional": "constant-1", "arg": 0},
))


_PM_ONE = exact.OffspringLaw.from_pmf({0: 0.5, 2: 0.5})  # steps -1 and +1


def _arcsine_summary(params, matrix):
    mean, hw = _mean_hw(matrix[:, 0])
    verdicts = {}
    if matrix.shape[0] >= 50:
        samples = np.sort(matrix[:, 0])
        report = ks_test(samples, lambda x: 2.0 / math.pi * np.arcsin(np.sqrt(x)))
        verdicts["arcsine_ks"] = report.passed
    return ({"argmax_frac_mean": mean, "argmax_frac_hw": hw}, verdicts)


_register(Experiment(
    "arcsine", {"n": int}, ("argmax_frac",),
    lambda p, s: (walks.argmax_time(walks.sample_path(_PM_ONE, p["n"], s)) / p["n"],),
    _arcsine_summary,
))
