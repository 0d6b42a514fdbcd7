import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from randstruct import cli, exact, experiments, graphs, growth, permutations, trees
from randstruct.errors import InvalidParameterError, InvalidTestError
from randstruct.experiments import ExperimentConfig, list_experiments, run_experiment
from randstruct.rng import make_stream


def run_cli(*argv):
    return cli.main(list(argv))


def test_registry_contains_required_experiments():
    names = set(list_experiments())
    required = {"giant", "connectivity", "fluid-curve", "triangles",
                "spectral-moments", "bgw-size", "parking", "ballot", "cycles",
                "poisson-dirichlet", "dickman", "rrt", "ba", "yule", "coupon",
                "bins", "pills", "corral", "many-to-one"}
    assert required <= names


def test_schemas_list_required_params():
    schemas = list_experiments()
    assert set(schemas["giant"]) == {"n", "c"}
    assert set(schemas["many-to-one"]) == {"k", "t", "functional", "arg"}


def test_unknown_experiment_rejected():
    with pytest.raises(InvalidParameterError) as err:
        run_experiment(ExperimentConfig("nope", {}))
    assert "giant" in str(err.value)


def test_unknown_parameter_rejected():
    with pytest.raises(InvalidParameterError):
        run_experiment(ExperimentConfig("giant", {"n": 100, "zzz": 1}))


def test_missing_parameter_rejected():
    with pytest.raises(InvalidParameterError):
        run_experiment(ExperimentConfig("giant", {"n": 100}))


def _params_of_type(cast):
    return [(name, key) for name, schema in list_experiments().items()
            for key, typ in schema.items() if typ is cast]


@pytest.mark.parametrize("text", ["2.5", "abc", "inf", "nan", "1e400", "1e3", "5.0"])
@pytest.mark.parametrize("name,key", _params_of_type(int))
def test_cli_int_parameter_takes_only_int_text(name, key, text, capsys):
    # the rule of --reps and --seed: what int() accepts, nothing truncated
    assert run_cli("run", "--experiment", name, "--param", f"{key}={text}") \
        == cli.EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error:")
    assert f"{name}: parameter {key} " in lines[0] and repr(text) in lines[0]


@pytest.mark.parametrize("text", ["2", "1e3"])
@pytest.mark.parametrize("name,key", _params_of_type(float))
def test_float_parameter_takes_int_and_exponent_text(name, key, text):
    exp = experiments.REGISTRY[name]
    raw = {k: {int: "3", float: "0.5", str: "geometric"}[typ]
           for k, typ in exp.schema.items()}
    params = experiments._coerce_params(exp, {**raw, key: text})
    assert type(params[key]) is float and params[key] == float(text)


@pytest.mark.parametrize("n", [2.5, 1000.0])
def test_api_int_parameter_refuses_floats(n):
    with pytest.raises(InvalidParameterError, match="giant: parameter n "):
        run_experiment(ExperimentConfig("giant", {"n": n, "c": 1.0}))


def test_api_int_parameter_takes_numpy_ints():
    report = run_experiment(ExperimentConfig("giant", {"n": np.int64(50), "c": 1.0}))
    assert type(report.params["n"]) is int and report.params["n"] == 50


def test_int_parameter_keeps_every_digit():
    params = experiments._coerce_params(experiments.REGISTRY["pills"],
                                        {"n": "4611686018427387904"})
    assert params["n"] == 2 ** 62


def test_run_reports_summary():
    report = run_experiment(ExperimentConfig(
        "parking", {"n": 10, "m": 5}, master_seed=5, reps=200))
    assert 0.0 <= report.summary["parked_mean"] <= 1.0
    assert report.summary["exact_probability"] == pytest.approx(
        float(__import__("randstruct.exact", fromlist=["x"])
              .parking_full_prob(10, 5)))
    assert report.verdicts["ci_brackets_exact"] in (True, False)


def test_csv_determinism_across_worker_counts(tmp_path):
    outputs = []
    for i, workers in enumerate((1, 2)):
        out = tmp_path / f"run{i}.csv"
        cfg = ExperimentConfig("cycles", {"n": 50}, master_seed=9, reps=16,
                               workers=workers, out=str(out), per_rep=True)
        run_experiment(cfg)
        reps_file = tmp_path / f"run{i}-reps.csv"
        outputs.append(out.read_bytes() + reps_file.read_bytes())
    assert outputs[0] == outputs[1]


SMALL_PARAMS = {
    "arcsine": {"n": 100},
    "ba": {"n": 60},
    "ballot": {"a": 4, "b": 2},
    "bgw-size": {"law": "geometric", "param": 0.5, "cap": 64},
    "bins": {"n": 100},
    "connectivity": {"n": 200, "c": 0.5},
    "corral": {"n": 10},
    "coupon": {"n": 20},
    "cycles": {"n": 50},
    "dickman": {"x": 2.5},
    "fluid-curve": {"n": 500, "c": 2.0},
    "giant": {"n": 200, "c": 2.0},
    "many-to-one": {"k": 2, "t": 1.0},
    "parking": {"n": 10, "m": 5},
    "pills": {"n": 20},
    "poisson-dirichlet": {"n": 100},
    "rrt": {"n": 60},
    "spectral-moments": {"n": 200, "c": 1.0},
    "triangles": {"n": 100, "c": 1.5},
    "yule": {"k": 2, "t": 1.0},
}


@pytest.mark.parametrize("name", sorted(list_experiments()))
def test_every_experiment_is_deterministic_across_worker_counts(tmp_path, name):
    # replicate i consumes stream i, so the pool size cannot change a byte
    outputs, reports = [], []
    for i, workers in enumerate((1, 2, 1)):
        out = tmp_path / f"run{i}.csv"
        reports.append(run_experiment(ExperimentConfig(
            name, SMALL_PARAMS[name], master_seed=13, reps=8, workers=workers,
            out=str(out), per_rep=True)))
        outputs.append(out.read_bytes() + (tmp_path / f"run{i}-reps.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    report = reports[0]
    assert len(report.rows) == 8
    # a header and one line per metric and verdict, then a header and 8 rows
    assert outputs[0].count(b"\n") == (1 + len(report.summary) + len(report.verdicts)
                                       + 1 + 8)


def test_json_report_shape(tmp_path):
    out = tmp_path / "report.json"
    cfg = ExperimentConfig("ballot", {"a": 4, "b": 2}, master_seed=3, reps=50,
                           out=str(out), fmt="json", per_rep=True)
    run_experiment(cfg)
    payload = json.loads(out.read_text())
    assert set(payload) == {"config", "rows", "summary", "verdicts"}
    assert payload["config"]["seed"] == 3
    assert len(payload["rows"]) == 50
    assert payload["summary"]["exact_probability"] == pytest.approx(1 / 3)


def test_connectivity_experiment_brackets_limit():
    report = run_experiment(ExperimentConfig(
        "connectivity", {"n": 1_000, "c": 0.0}, master_seed=11, reps=400))
    summary = report.summary
    assert report.verdicts["ci_brackets_limit"] == (
        summary["connected_mean"] - summary["connected_hw"]
        <= summary["double_exponential_limit"]
        <= summary["connected_mean"] + summary["connected_hw"])
    assert abs(report.summary["connected_mean"]
               - report.summary["double_exponential_limit"]) < 0.08


def test_cli_list_exit_code(capsys):
    assert run_cli("list") == 0
    out = capsys.readouterr().out
    assert "giant" in out and "many-to-one" in out


def test_cli_run_and_outputs(tmp_path, capsys):
    out = tmp_path / "giant.csv"
    code = run_cli("run", "--experiment", "giant", "--param", "n=500",
                   "--param", "c=2.0", "--seed", "7", "--reps", "5",
                   "--out", str(out), "--per-rep")
    assert code == 0
    assert out.exists() and (tmp_path / "giant-reps.csv").exists()
    header = out.read_text().splitlines()[0]
    assert header == "experiment,seed,metric,value"
    reps_lines = (tmp_path / "giant-reps.csv").read_text().splitlines()
    assert reps_lines[0].startswith("experiment,seed,rep,")
    assert len(reps_lines) == 6


def test_cli_usage_error_exit_code(capsys):
    assert run_cli("run", "--experiment", "no-such-thing") == 2
    assert run_cli("run", "--experiment", "giant", "--param", "oops") == 2


@pytest.mark.parametrize("name", ["giant", "fluid-curve", "spectral-moments",
                                  "triangles"])
def test_cli_c_over_n_experiments_need_a_vertex(name, capsys):
    # G(n, c/n) at n = 0 is a usage error, not a division by zero
    assert run_cli("run", "--experiment", name, "--param", "n=0",
                   "--param", "c=1", "--reps", "2") == cli.EXIT_USAGE
    assert "n must be >= 1" in capsys.readouterr().err
    assert run_cli("run", "--experiment", name, "--param", "n=1",
                   "--param", "c=1", "--reps", "2") == 0


def test_cli_test_without_data_is_a_usage_error(monkeypatch, capsys):
    def no_cells(cfg):
        raise InvalidTestError("chi-square needs at least two cells")
    monkeypatch.setattr(cli, "run_experiment", no_cells)
    assert run_cli("run", "--experiment", "triangles", "--param", "n=100",
                   "--param", "c=0.1", "--reps", "200") == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error:")


def test_cli_triangles_on_one_cell_print_their_summary(capsys):
    # 200 triangle counts at c = 0.1 are nearly all zero: one chi-square cell,
    # so the Poisson fit is not computable, and the run still reports
    assert run_cli("run", "--experiment", "triangles", "--param", "n=100",
                   "--param", "c=0.1", "--reps", "200") == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "poisson_chi_square = not computable" in out
    assert "triangles_mean" in out and "verdict" not in out


def test_cli_poisson_dirichlet_accepts_one_replicate(capsys):
    assert run_cli("run", "--experiment", "poisson-dirichlet", "--param", "n=10",
                   "--reps", "1") == cli.EXIT_OK
    assert "p_longest_below_half_hw = 0.0" in capsys.readouterr().out


def test_pills_summary_reports_the_exact_mean():
    report = run_experiment(ExperimentConfig("pills", {"n": 10}, reps=50))
    harmonic = sum(1.0 / k for k in range(1, 11))
    assert report.summary["half_pills_left_exact_mean"] == pytest.approx(harmonic)
    assert {"half_pills_left_mean", "half_pills_left_hw"} <= set(report.summary)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 1000, 9999, 10_000])
def test_cycles_summary_harmonic_mean_is_the_harmonic_sum(n):
    summarize = experiments.REGISTRY["cycles"].summarize
    summary, _ = summarize({"n": n}, np.array([[1.0], [2.0]]))
    assert abs(summary["harmonic_mean"] - sum(1.0 / k for k in range(1, n + 1))) < 1e-12


def test_cli_many_to_one_runs(capsys):
    for reps in ("1", "20"):
        assert run_cli("run", "--experiment", "many-to-one", "--param", "k=2",
                       "--param", "t=1", "--reps", reps) == cli.EXIT_OK
        assert "verdict ci_overlap" in capsys.readouterr().out


def test_cli_many_to_one_particle_cap_is_a_resource_error(monkeypatch, capsys):
    monkeypatch.setattr(growth, "_PARTICLE_CAP", 1_000)
    assert run_cli("run", "--experiment", "many-to-one", "--param", "k=4",
                   "--param", "t=8") == cli.EXIT_RESOURCE
    assert "resource error" in capsys.readouterr().err


def test_cli_yule_rejects_nan_and_stops_at_the_particle_cap(monkeypatch, capsys):
    yule = ("run", "--experiment", "yule", "--param", "k=2")
    assert run_cli(*yule, "--param", "t=nan") == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error:")
    monkeypatch.setattr(growth, "_PARTICLE_CAP", 1_000)
    assert run_cli(*yule, "--param", "t=inf") == cli.EXIT_RESOURCE
    assert "resource error" in capsys.readouterr().err


@pytest.mark.parametrize("params", [("dickman", "x=nan"), ("dickman", "x=inf"),
                                    ("bgw-size", "law=poisson", "param=nan"),
                                    ("bgw-size", "law=poisson", "param=inf")])
def test_cli_non_finite_parameters_are_usage_errors(params, capsys):
    name, *values = params
    args = [arg for value in values for arg in ("--param", value)]
    assert run_cli("run", "--experiment", name, *args) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error:")


def test_cli_dickman_far_out_is_quick(capsys):
    exact._dickman_pieces.cache_clear()  # as a fresh process starts
    start = time.perf_counter()
    assert run_cli("run", "--experiment", "dickman", "--param", "x=60") == cli.EXIT_OK
    assert time.perf_counter() - start < 1.0
    assert "rho_mean = 5.89802937" in capsys.readouterr().out


def test_cli_json_report_with_a_ks_verdict(tmp_path):
    # 60 replicates give arcsine its KS verdict, a Python bool in the JSON
    out = tmp_path / "arcsine.json"
    assert run_cli("run", "--experiment", "arcsine", "--param", "n=100", "--reps", "60",
                   "--format", "json", "--out", str(out)) == cli.EXIT_OK
    verdict = json.loads(out.read_text())["verdicts"]["arcsine_ks"]
    assert verdict is True or verdict is False
    # a payload json cannot encode fails before the file is opened
    report = experiments.Report("arcsine", {"n": 100}, 0, 60, ["argmax_frac"], [],
                                {}, {"arcsine_ks": object()})
    with pytest.raises(TypeError):
        experiments.write_report(report, ExperimentConfig(
            "arcsine", {"n": 100}, out=str(out), fmt="json"))
    assert json.loads(out.read_text())["verdicts"]["arcsine_ks"] is verdict


def test_cli_seed_outside_64_bits_is_a_usage_error(capsys):
    assert run_cli("run", "--experiment", "cycles", "--param", "n=5",
                   "--seed", "-1") == 2
    assert run_cli("verify", "--seed", "18446744073709551616") == 2
    assert "[0, 2^64)" in capsys.readouterr().err


def test_cli_env_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RANDSTRUCT_SEED", "123")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    parser_args = ["run", "--experiment", "cycles", "--param", "n=20",
                   "--reps", "10", "--per-rep"]
    assert cli.main(parser_args + ["--out", str(out1)]) == 0
    assert cli.main(parser_args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "seed=123" in capsys.readouterr().out


def test_cli_non_integer_env_seed(tmp_path, monkeypatch, capsys):
    # only run and dump read the variable, and a bad value is a usage error
    monkeypatch.setenv("RANDSTRUCT_SEED", "abc")
    assert run_cli("list") == cli.EXIT_OK
    assert run_cli("verify", "--only", "03") == cli.EXIT_OK
    assert run_cli("run", "--experiment", "cycles", "--param", "n=5",
                   "--seed", "4") == cli.EXIT_OK
    capsys.readouterr()
    out = tmp_path / "corpus.txt"
    for argv in (("run", "--experiment", "cycles", "--param", "n=5"),
                 ("dump", "--kind", "permutation", "--out", str(out))):
        assert run_cli(*argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "RANDSTRUCT_SEED" in err
    assert not out.exists()


def test_cli_dump_plane_trees(tmp_path):
    out = tmp_path / "corpus.txt"
    assert run_cli("dump", "--kind", "plane-tree", "--count", "5", "--n", "6",
                   "--seed", "2", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    for line in lines:
        tree = trees.plane_tree_from_line(line)
        assert tree.n_vertices == 6


def test_cli_dump_plane_tree_of_a_million_vertices(tmp_path):
    out = tmp_path / "big.txt"
    assert run_cli("dump", "--kind", "plane-tree", "--n", "1000000", "--count", "1",
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    assert trees.plane_tree_from_line(lines[0]).n_vertices == 1_000_000


def test_cli_dump_graph(tmp_path):
    out = tmp_path / "graph.txt"
    assert run_cli("dump", "--kind", "graph", "--count", "1", "--n", "12",
                   "--p", "0.3", "--seed", "2", "--out", str(out)) == 0
    g = graphs.graph_from_lines(out.read_text().splitlines())
    assert g.n == 12


def test_cli_dump_permutations_and_growth(tmp_path):
    out = tmp_path / "perms.txt"
    assert run_cli("dump", "--kind", "permutation", "--count", "3", "--n", "9",
                   "--seed", "2", "--out", str(out)) == 0
    for line in out.read_text().splitlines():
        assert permutations.perm_from_line(line).n == 9
    out2 = tmp_path / "gt.txt"
    assert run_cli("dump", "--kind", "growth-tree", "--chain", "ba",
                   "--count", "2", "--n", "7", "--seed", "2",
                   "--out", str(out2)) == 0
    for line in out2.read_text().splitlines():
        assert growth.growing_tree_from_line(line).n_vertices == 8


DUMP_KINDS = {
    "plane-tree": [],
    "graph": ["--p", "0.3"],
    "permutation": [],
    "growth-tree-rrt": ["--chain", "rrt"],
    "growth-tree-ba": ["--chain", "ba"],
}


def _dump(tmp_path, kind, count, seed, n=9):
    out = tmp_path / f"{kind}-{count}-{seed}.txt"
    assert run_cli("dump", "--kind", kind.removesuffix("-rrt").removesuffix("-ba"),
                   *DUMP_KINDS[kind], "--count", str(count), "--n", str(n),
                   "--seed", str(seed), "--out", str(out)) == cli.EXIT_OK
    return out.read_text().splitlines()


def _read_dump(kind, lines):
    """The dumped structures as comparable lists, one per sample."""
    if kind == "graph":
        found, rest = [], list(lines)
        while rest:
            m = int(rest[0].split()[1])
            found.append(graphs.graph_from_lines(rest[:m + 1]).edge_array().tolist())
            rest = rest[m + 1:]
        return found
    if kind == "plane-tree":
        return [trees.plane_tree_from_line(line).child_counts.tolist() for line in lines]
    if kind == "permutation":
        return [permutations.perm_from_line(line).images.tolist() for line in lines]
    return [growth.growing_tree_from_line(line).parent.tolist() for line in lines]


def _sample(kind, n, stream):
    if kind == "graph":
        return graphs.sample_gnp(n, 0.3, stream).edge_array().tolist()
    if kind == "plane-tree":
        return trees.sample_bgw_conditioned(exact.OffspringLaw.geometric(0.5),
                                            n, stream).child_counts.tolist()
    if kind == "permutation":
        return permutations.sample_perm(n, stream).images.tolist()
    chain = growth.rrt_chain if kind.endswith("rrt") else growth.ba_chain
    return chain(n, stream).parent.tolist()


@pytest.mark.parametrize("seed", [0, 7, 2026])
@pytest.mark.parametrize("kind", sorted(DUMP_KINDS))
def test_dump_reads_back_as_the_sampled_structures(tmp_path, kind, seed):
    # sample r of a dump is drawn from stream r of the seed
    got = _read_dump(kind, _dump(tmp_path, kind, 3, seed))
    assert got == [_sample(kind, 9, make_stream(seed, r)) for r in range(3)]


@pytest.mark.parametrize("kind", sorted(DUMP_KINDS))
def test_dump_of_fewer_samples_is_a_prefix(tmp_path, kind):
    short, long = _dump(tmp_path, kind, 2, 5), _dump(tmp_path, kind, 4, 5)
    assert long[:len(short)] == short
    assert len(_read_dump(kind, short)) == 2 and len(_read_dump(kind, long)) == 4


def test_cli_dump_count_below_zero_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "none.txt"
    assert run_cli("dump", "--kind", "permutation", "--count", "-1",
                   "--out", str(out)) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error:")
    assert not out.exists()


def test_cli_dump_of_no_samples_is_an_empty_file(tmp_path):
    # not one empty line, which a reader would parse as a malformed sample
    out = tmp_path / "empty.txt"
    assert run_cli("dump", "--kind", "permutation", "--count", "0",
                   "--out", str(out)) == cli.EXIT_OK
    assert out.read_bytes() == b""


def test_cli_verify_fast_subset(capsys):
    code = run_cli("verify", "--suite", "fast", "--only", "03")
    out = capsys.readouterr().out
    assert "03 first-passage identity" in out
    assert code == 0


def test_cli_verify_only_a_token_no_criterion_has(capsys):
    assert run_cli("verify", "--only", "03", "--only", "zzz") == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "usage error: no criterion name contains 'zzz'"]


def test_cli_fluid_curve_just_above_criticality(capsys):
    # within 1e-5 of criticality the giant-fraction solve must still return
    assert run_cli("run", "--experiment", "fluid-curve", "--param", "n=200",
                   "--param", "c=1.00001", "--reps", "1") == cli.EXIT_OK
    for c in ("nan", "inf"):
        assert run_cli("run", "--experiment", "fluid-curve", "--param", "n=200",
                       "--param", f"c={c}", "--reps", "1") == cli.EXIT_USAGE
    assert capsys.readouterr().err.count("usage error:") == 2


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "randstruct.cli", "list"],
                          capture_output=True, text=True,
                          cwd=str(Path(__file__).resolve().parent.parent))
    assert proc.returncode == 0
    assert "giant" in proc.stdout


def test_verify_detects_broken_oracle(monkeypatch):
    # a fixed-point oracle shifted by 0.05 must fail the real giant criterion
    from randstruct import exact, verify

    true_fraction = exact.giant_fraction
    monkeypatch.setattr(exact, "giant_fraction", lambda c: true_fraction(c) + 0.05)
    passed, detail = verify.criterion_07_giant("fast", verify.MASTER_SEED)
    assert not passed
    assert "largest c=2.0" in detail


def test_worker_plan_caps_the_pool():
    # no more processes than asked for, than CPUs, or than replicate ranges
    assert experiments._plan_workers(1, 100, 8)[0] == 1
    assert experiments._plan_workers(4, 100, 2)[0] == 2
    assert experiments._plan_workers(10**6, 100, 8)[0] == 8
    assert experiments._plan_workers(8, 3, 8)[0] == 3
    assert experiments._plan_workers(8, 1, 8)[0] == 1
    assert experiments._plan_workers(3, 100, None)[0] == 1
    for workers, reps, cpus in [(1, 7, 2), (2, 16, 2), (10**6, 37, 4), (5, 5, 64)]:
        size, bounds = experiments._plan_workers(workers, reps, cpus)
        assert 1 <= size <= min(workers, cpus, len(bounds))
        # the ranges cover every replicate once, in index order
        assert [r for lo, hi in bounds for r in range(lo, hi)] == list(range(reps))


def test_cli_memory_error_is_a_resource_error(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.53 GiB")

    monkeypatch.setattr(trees, "sample_bgw_conditioned", exhausted)
    code = run_cli("dump", "--kind", "plane-tree", "--n", "100000", "--count", "1",
                   "--out", str(tmp_path / "t.txt"))
    assert code == cli.EXIT_RESOURCE == 3
    assert "resource error" in capsys.readouterr().err
