"""Command-line experiment runner.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource error.
Each ``--param`` value is parsed once, by its schema type (``list`` shows it),
as argparse parses the options: an int takes what ``int()`` takes, so
``n=2.5``, ``n=1e3`` and ``--reps 5.0`` are usage errors, not truncated.
The default master seed of ``run`` and ``dump`` comes from RANDSTRUCT_SEED
when set.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import InvalidParameterError, InvalidTestError, ResourceLimitError
from .experiments import ExperimentConfig, list_experiments, run_experiment
from .rng import make_stream

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _seed(args) -> int:
    """The --seed given, else RANDSTRUCT_SEED, else 0."""
    if args.seed is not None:
        return args.seed
    text = os.environ.get("RANDSTRUCT_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise InvalidParameterError(
            f"RANDSTRUCT_SEED must be an integer, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randstruct",
        description="Seeded Monte Carlo experiments over random walks, trees, "
                    "graphs and permutations, with built-in verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and their parameters")

    run = sub.add_parser("run", help="run a named experiment")
    run.add_argument("--experiment", required=True)
    run.add_argument("--param", action="append", default=[],
                     metavar="KEY=VALUE", help="experiment parameter (repeatable)")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--reps", type=int, default=1)
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--out", default=None)
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--per-rep", action="store_true",
                     help="also write one row per replicate")

    verify = sub.add_parser("verify", help="run the acceptance suite")
    verify.add_argument("--suite", choices=("fast", "full"), default="fast")
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--only", action="append", default=[],
                        help="run only criteria whose name contains this token")
    verify.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker processes for criteria 09, 16 and 17 "
                             "(default 2, capped by the usable CPUs); the "
                             "table does not depend on it")

    dump = sub.add_parser("dump", help="write a corpus of sampled structures")
    dump.add_argument("--kind", required=True,
                      choices=("plane-tree", "graph", "permutation", "growth-tree"))
    dump.add_argument("--count", type=int, default=10)
    dump.add_argument("--n", type=int, default=8)
    dump.add_argument("--p", type=float, default=0.5)
    dump.add_argument("--chain", choices=("rrt", "ba"), default="rrt")
    dump.add_argument("--seed", type=int, default=None)
    dump.add_argument("--out", required=True)
    return parser


def _cmd_list() -> int:
    for name, schema in list_experiments().items():
        params = ", ".join(f"{key}:{cast.__name__}" for key, cast in schema.items())
        print(f"{name:18s} {params}")
    return EXIT_OK


def _cmd_run(args) -> int:
    params = {}
    for item in args.param:
        key, sep, value = item.partition("=")
        if not sep:
            raise InvalidParameterError(f"--param needs KEY=VALUE, got {item!r}")
        params[key] = value
    cfg = ExperimentConfig(args.experiment, params, master_seed=_seed(args),
                           reps=args.reps, workers=args.workers, out=args.out,
                           fmt=args.format, per_rep=args.per_rep)
    report = run_experiment(cfg)
    print(f"experiment={report.experiment} seed={report.seed} reps={report.reps} "
          f"wall_clock={report.wall_clock:.2f}s")
    for key in sorted(report.summary):
        print(f"  {key} = {report.summary[key]}")
    for key, verdict in sorted(report.verdicts.items()):
        print(f"  verdict {key}: {'pass' if verdict else 'FAIL'}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import MASTER_SEED, run_suite
    seed = MASTER_SEED if args.seed is None else args.seed
    make_stream(seed)  # rejects a seed outside [0, 2^64) before any criterion runs
    results = run_suite(args.suite, seed, names=args.only or None,
                        workers=args.workers)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        mark = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {mark}  [{r.seconds:6.1f}s]  {r.detail}")
        failures += not r.passed
    print(f"{len(results) - failures}/{len(results)} criteria passed "
          f"({args.suite} suite, seed {seed})")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _cmd_dump(args) -> int:
    from . import graphs, growth, permutations, trees
    from .exact import OffspringLaw
    if args.count < 0:
        raise InvalidParameterError("--count must be >= 0")
    seed = _seed(args)
    lines: list[str] = []
    for rep in range(args.count):
        stream = make_stream(seed, rep)
        if args.kind == "plane-tree":
            tree = trees.sample_bgw_conditioned(OffspringLaw.geometric(0.5),
                                                args.n, stream)
            lines.append(trees.plane_tree_to_line(tree))
        elif args.kind == "graph":
            lines.extend(graphs.graph_to_lines(
                graphs.sample_gnp(args.n, args.p, stream)))
        elif args.kind == "permutation":
            lines.append(permutations.perm_to_line(
                permutations.sample_perm(args.n, stream)))
        else:
            builder = growth.rrt_chain if args.chain == "rrt" else growth.ba_chain
            lines.append(growth.growing_tree_to_line(builder(args.n, stream)))
    with open(args.out, "w") as fh:
        fh.writelines(line + "\n" for line in lines)
    print(f"wrote {args.count} {args.kind} samples to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_dump(args)
    except (InvalidParameterError, InvalidTestError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError as exc:
        print(f"resource error: out of memory ({exc})", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
