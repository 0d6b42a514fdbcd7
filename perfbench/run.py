"""Benchmark of randstruct: time to a verdict, and sampler throughput per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; randstruct is imported from its
``src`` directory.  With no --workload every workload runs, each in its own
process.  The run repeats whole passes of the workload until --seconds have
gone, then prints a table of every metric and, as its last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 passes alternate between
traced and untraced, the metrics are the per-layer ones, and the spans go
to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3

# a fresh interpreter imports every layer and makes its first stream, then
# reports the monotonic clock, which is shared by all processes of the machine
SETUP_CHILD = """import sys, time
sys.path.insert(0, sys.argv[1])
import randstruct.verify, randstruct.experiments
randstruct.make_stream(int(sys.argv[2]), 0)
print(time.perf_counter())
"""


def measure_setup(seed: int) -> float:
    """Median over fresh processes of the time from process start until
    randstruct is imported and the first stream has been made."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(seed)],
                             capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(out.stdout.split()[-1]) - start)
    return statistics.median(samples)


def import_program() -> None:
    """Put the checkout's sources and this directory on the path, and make
    sure randstruct comes from those sources, not from an installed copy."""
    if not (SRC / "randstruct" / "__init__.py").is_file():
        sys.exit(f"no randstruct sources under {SRC}; run from a source checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import randstruct
    if Path(randstruct.__file__).resolve().parent != SRC / "randstruct":
        sys.exit(f"imported randstruct from {randstruct.__file__}, not {SRC}")


END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")

PER_LAYER = (
    "graphs.Graph.__init__.self_s", "graphs.sample_gnp.self_s", "graphs.edges",
    "graphs.components.self_s", "graphs.explore_luka.self_s",
    "graphs.connected.self_s", "graphs.spectral_moments.self_s",
    "graphs.triangle_count.self_s", "experiments.run_experiment.self_s",
    "growth.ba_chain.self_s", "growth.rrt_chain.self_s",
    "growth.GrowingTree.depths.self_s", "growth.pills_batch.self_s",
    "growth.ok_corral_batch.self_s", "growth.coupon_collector_batch.self_s",
    "growth.yule_simulate.self_s", "growth.many_to_one_table.self_s",
    "exact.rrt_height_cdf.self_s", "exact.ba_height_cdf.self_s",
    "exact.pills_pmf.self_s", "trees.sample_bgw_conditioned.self_s",
    "trees.words_per_vertex", "trees.sample_bgw_conditioned_batch.self_s",
    "trees.luka_decode.self_s", "trees.sample_cayley.self_s",
    "permutations.longest_cycle_stats.self_s",
    "permutations.cycle_type_batch.self_s", "walks.parking_success_batch.self_s",
    "trees.bgw_total_sizes.self_s", "rng.make_stream.calls", "rng.words",
    *(f"{layer}.self_s" for layer in LAYERS),
    *(f"verify.criterion_{i:02d}.s" for i in range(1, 20)),
    "connectivity_reps_per_s", "giant_reps_per_s", "exploration_reps_per_s",
    "growth_trees_per_s", "height_law_s", "pills_reps_per_s",
    "large_trees_per_s", "small_trees_per_s", "cayley_trees_per_s",
    "trace.wall_traced_s", "trace.wall_untraced_s", "trace.overhead_s",
)


def workload_metrics(workload, meter) -> dict:
    """The rate of each phase named by the workload, the seconds per pass of
    the others, and the criterion seconds that run_suite returns."""
    metrics = {}
    for phase, name in workload.phases:
        seconds, units = meter.phases.get(phase, (0.0, 0))
        if name is not None:
            metrics[name] = units / seconds if seconds > 0 else 0.0
        else:
            metrics[f"{phase}_s"] = seconds / len(meter.pass_walls)
    for key, values in sorted(meter.samples.items()):
        metrics[key] = statistics.median(values)
    return metrics


def layer_metrics(tracer, passes: int) -> dict:
    """Self time and calls of every traced function, per traced pass."""
    metrics = {}
    for name in sorted(tracer.self_s):
        metrics[f"{name}.self_s"] = tracer.self_s[name] / passes
        metrics[f"{name}.calls"] = tracer.calls[name] / passes
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(v for k, v in tracer.self_s.items()
                                         if k.split(".")[0] == layer) / passes
    metrics["graphs.edges"] = tracer.edges / passes
    metrics["rng.words"] = tracer.words() / passes
    metrics["trees.words_per_vertex"] = (
        tracer.conditioned_words / tracer.conditioned_vertices
        if tracer.conditioned_vertices else 0.0)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: dict | None = None) -> tuple[dict, dict]:
    """Run one workload; return the metrics for the JSON line and the table."""
    import randstruct
    import workloads

    setup_s = measure_setup(seed)
    workload = workloads.WORKLOADS[name](seed, sizes or workloads.SIZES[name])
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(randstruct)
    # a first pass fills lazy caches (FFT plans, BLAS threads) out of the
    # figures, unless every user pays for it, as in one verify process
    warm, meter, plain = (workloads.Meter(), workloads.Meter(tracer=tracer),
                          workloads.Meter())
    if workload.warmup:
        workload.run_pass(0, warm)
    start = time.perf_counter()
    # a traced run alternates traced passes (meter) and untraced ones (plain)
    first = k = int(workload.warmup)
    while k - first < (2 if trace else 1) or time.perf_counter() - start < seconds:
        target = plain if trace and (k - first) % 2 else meter
        before = target.wall()
        workload.run_pass(k, target)
        target.pass_walls.append(target.wall() - before)
        k += 1
    workload.finish(meter)
    if tracer is None:
        table = {"setup_s": setup_s,
                 "wall_s": statistics.median(meter.pass_walls),
                 "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                 / 1024.0,
                 **workload_metrics(workload, meter)}
        wanted = END_TO_END
    else:
        tracer.uninstall()
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{name}-seed{seed}.json"
        tracer.write(path, {"workload": name, "seed": seed})
        print(f"spans written to {path.relative_to(ROOT)}", file=sys.stderr)
        traced, untraced = (statistics.median(m.pass_walls) for m in (meter, plain))
        table = {**layer_metrics(tracer, len(meter.pass_walls)),
                 **workload_metrics(workload, plain),
                 "trace.wall_traced_s": traced,
                 "trace.wall_untraced_s": untraced,
                 "trace.overhead_s": traced - untraced}
        wanted = PER_LAYER
    errors = warm.errors + meter.errors + plain.errors
    for err in errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    # a function the workload never calls reads 0
    metrics = {key: {"value": float(table.get(key, 0.0)), "unit": unit_of(key)}
               for key in wanted}
    result = {"correct": not errors,
              "attempted": sum(m.attempted for m in (warm, meter, plain)),
              "failed": sum(m.failed for m in (warm, meter, plain)),
              "metrics": metrics}
    return result, table


UNITS = {"peak_rss_mb": "MiB", "trees.words_per_vertex": "words/vertex"}


def unit_of(key: str) -> str:
    if key in UNITS:
        return UNITS[key]
    if key.endswith("_per_s"):
        return "1/s"
    return "s" if key.endswith(("_s", ".s")) else "count"


def print_result(name: str, result: dict, table: dict) -> None:
    print(f"# {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for key, value in table.items():
        print(f"{key:48s} {value:>16.6g} {unit_of(key)}")
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    import_program()
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.workload is None:  # every workload, each in its own process
        code = 0
        for name in WORKLOADS:
            code |= subprocess.run([sys.executable, __file__, "--workload", name,
                                    "--seed", str(args.seed),
                                    "--seconds", str(args.seconds),
                                    "--trace", str(args.trace)]).returncode
        return code
    result, table = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    print_result(args.workload, result, table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
