"""Tests of the benchmark itself: tracing, checks, isolation, the contract file.

Run from the repository root with ``python -m pytest -q bench``.  The
traced-run test executes every workload once traced and once untraced and
takes about a minute on a 2-core machine.
"""

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

import check
import run
from workloads import WORKLOADS, config_seed

ROOT = run.ROOT
SRC = os.path.join(ROOT, "src")


def distillab(args, tmp_path, config):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    subprocess.run([sys.executable, "-m", "distillab.cli", *args, "--config", str(cfg),
                    "--out", str(out)], check=True, stdout=subprocess.DEVNULL,
                   env=dict(os.environ, PYTHONPATH=SRC))
    return check.ExperimentConfig.load(cfg), str(out)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    with open(os.path.join(ROOT, "bench", "layers.json")) as fh:
        mapped = [m for entry in json.load(fh)["interactions"] for m in entry["metrics"]]
    assert sorted(mapped) == sorted(run.per_layer_units())


def test_configs_come_from_the_seed():
    for w in WORKLOADS.values():
        assert w.make_config(5, 2) == w.make_config(5, 2)
        assert w.make_config(5, 2)["seed"] != w.make_config(6, 2)["seed"]
        assert w.make_config(5, 2)["seed"] != w.make_config(5, 3)["seed"]
    assert config_seed("phase_eta", 1, 0) == config_seed("phase_eta", 1, 0)


def test_wrappers_rebind_names_imported_from_other_modules():
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import distillab.cli as cli, distillab.oracle as oracle, tracing\n"
        "w = tracing.install(tracing.Tracer())\n"
        "assert tracing.untraced_references(w) == []\n"
        "assert hasattr(cli.solve_round, '__traced__')\n"
        "assert hasattr(oracle.analytic_eigensystem, '__traced__')\n"
        "assert hasattr(cli.ExperimentConfig.from_json, '__traced__')\n"
    ) % (SRC, os.path.dirname(__file__))
    subprocess.run([sys.executable, "-c", code], check=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_counts_calls_and_leaves_output_unchanged(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_REPS", 1)
    r = run.Run(WORKLOADS[name], 7, 0, str(tmp_path))
    metrics, pairs = r.traced()
    assert r.problems == [] and r.failed == 0
    assert r.attempted == WORKLOADS[name].operations()
    for fn, want in WORKLOADS[name].expected_calls.items():
        assert metrics[f"{fn}.calls"]["value"] == want, fn
    assert set(metrics) == set(run.per_layer_units())
    assert metrics["cli.main.s"]["value"] > 0


def test_environment_reads_the_blas_threads_a_child_uses():
    env = run.environment()
    assert env["blas_threads"] == 1
    assert env["numpy"] and env["blas"] and env["nproc"] >= 1


def test_call_count_mismatch_is_reported():
    w = WORKLOADS["oracle_nsweep"]
    summary = {"oracle.solve_round": {"calls": 3}}
    problems = run.call_count_problems(w, summary)
    assert any("oracle.solve_round: 3 calls, expected 4" in p for p in problems)


def test_same_tree_reports_differing_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "x.csv").write_text("1\n")
    (b / "x.csv").write_text("2\n")
    assert run.same_tree(str(a), str(b)) == ["x.csv"]
    (b / "x.csv").write_text("1\n")
    assert run.same_tree(str(a), str(b)) == []


def _edit_csv(path, row, col, value):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][col] = value
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_structured_check_catches_a_wrong_output(tmp_path):
    config = dict(WORKLOADS["traj_structured"].config, seed=1)
    config["gram"] = dict(config["gram"], n=12)
    cfg, out = distillab(["trajectory"], tmp_path, config)
    assert check.check_traj_structured(cfg, out) == (0, [])
    path = os.path.join(out, "outputs_round_002.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    # move mass between two classes of one sample, keeping its column sum
    for row, delta in ((5, 1e-8), (6, -1e-8)):
        _edit_csv(path, row, 3, repr(float(rows[row][3]) + delta))
    failed, problems = check.check_traj_structured(cfg, out)
    assert failed == 1 and "round 2" in problems[0]


def test_dense_oracle_check_catches_an_off_fixed_point_output(tmp_path):
    config = dict(WORKLOADS["traj_dense_oracle"].config, seed=1, t_max=2)
    config["gram"] = dict(config["gram"], n=10)
    cfg, out = distillab(["trajectory"], tmp_path, config)
    assert check.check_traj_dense_oracle(cfg, out) == (0, [])
    path = os.path.join(out, "oracle_round_002.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    # move mass between two classes of one sample, keeping its column sum
    for row, delta in ((1, 1e-7), (2, -1e-7)):
        _edit_csv(path, row, 3, repr(float(rows[row][3]) + delta))
    failed, problems = check.check_traj_dense_oracle(cfg, out)
    assert failed == 1 and "round 2: residual" in problems[0]


def test_rounding_allowance_is_small_next_to_the_solver_tolerance():
    model = check.ExperimentConfig.from_dict(WORKLOADS["traj_dense_oracle"].config).gram_model()
    gram = check.build_gram(model)
    allowance = check._rounding_allowance(gram, model.K, model.K * model.n * 1e-3)
    assert 0 < allowance < 1e-8


def test_nsweep_check_flags_unconverged_and_growing_gaps(tmp_path):
    cfg = check.ExperimentConfig.from_dict(WORKLOADS["oracle_nsweep"].config)
    (tmp_path / "approx_error.csv").write_text(
        "n,max_linf_error,converged\n50,0.04,true\n100,0.05,true\n200,,false\n400,0.01,true\n")
    failed, problems = check.check_oracle_nsweep(cfg, str(tmp_path))
    assert failed == 2
    assert any("n=100" in p for p in problems) and any("n=200" in p for p in problems)


def test_phase_check_compares_with_the_reference(tmp_path):
    cfg = check.ExperimentConfig.from_dict(WORKLOADS["phase_eta"].config)
    shutil.copy(check.REFERENCE, tmp_path / "phase.csv")
    assert check.check_phase_eta(cfg, str(tmp_path)) == (0, [])
    _edit_csv(tmp_path / "phase.csv", 3, 3, "0.5")
    failed, problems = check.check_phase_eta(cfg, str(tmp_path))
    assert failed == 1 and problems[0].startswith("eta=0 3:")


@pytest.mark.parametrize("row,col,value,ok", [
    (5, 3, "0.413333333333", True),  # eta=0 PLL: a tie that rounding decides
    (5, 3, "1.5", False),
    (5, 2, "1", False),  # the prediction itself is not rounding decided
    (75, 3, "1", True),  # eta=0.7 PLL: suspect row, the prediction is accepted
    (75, 3, "0.5", False),
    (74, 3, "1", False),  # eta=0.7 model 4 is an ordinary row
])
def test_phase_check_on_tie_and_suspect_rows(tmp_path, row, col, value, ok):
    cfg = check.ExperimentConfig.from_dict(WORKLOADS["phase_eta"].config)
    shutil.copy(check.REFERENCE, tmp_path / "phase.csv")
    _edit_csv(tmp_path / "phase.csv", row, col, value)
    failed, problems = check.check_phase_eta(cfg, str(tmp_path))
    assert (failed == 0) == ok, problems


def test_peak_rss_is_the_childs_own(tmp_path):
    # Spawned from a lean process, as run.py is: a child's peak RSS also
    # counts the resident pages of the process that spawned it.
    config = dict(WORKLOADS["traj_structured"].config, seed=1, modes=["closed_form"])
    config["gram"] = dict(config["gram"], n=402)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code = (
        "import json, sys; sys.path.insert(0, %r)\n"
        "import run\n"
        "assert 'numpy' not in sys.modules\n"
        "env = run.child_env()\n"
        "heavy = run.spawn(%r, ['trajectory', '--config', %r, '--out', %r], env)\n"
        "lean = run.spawn(%r, ['--help'], env)\n"
        "print(json.dumps([heavy, lean]))\n"
    ) % (os.path.dirname(__file__), str(tmp_path), str(cfg), str(tmp_path / "out"),
         str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True)
    heavy, lean = json.loads(proc.stdout)
    assert heavy["code"] == 0 and lean["code"] == 0
    assert lean["peak_rss_mb"] < heavy["peak_rss_mb"] / 2
    assert 0 < heavy["setup_s"] < heavy["wall_s"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "phase_eta",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
