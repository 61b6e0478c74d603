import filecmp
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import CASE_MODELS, embed_gram, per_sample_trajectory, random_doubly_stochastic
from distillab import (
    ExperimentConfig,
    FeatureMatrix,
    GramCase,
    GramModel,
    OutputMatrix,
    SuperclassMap,
    ValidationError,
    build_gram,
)
from distillab import cli, oracle
from distillab.cli import cmd_trajectory, main, simplex_projection, suggest_lambda
from distillab.config import CorruptionConfig, GramConfig
from distillab.noise_theory import (eigen_ratio, make_corruption, nearest_realizable,
                                    sd_accuracy_condition, theory_constants)


def write_config(tmp_path, **overrides):
    base = {
        "gram": {"case": "III", "K": 4, "n": 102, "c": 0.4, "d": 0.1},
        "corruption": {"kind": "symmetric", "eta": 0.5},
        "lam": 3.125e-4,
        "t_max": 4,
        "modes": ["closed_form", "pll", "theory"],
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
    }
    base.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return path


BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def read_csv_rows(path):
    import csv

    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


class TestConfig:
    def test_round_trip_identity(self):
        cfg = ExperimentConfig(
            gram=GramConfig(case="IV", K=4, n=10, c=0.5, d=0.2,
                            superclass_sizes=[2, 2]),
            corruption=CorruptionConfig(kind="superclass", eta=0.2),
            sweep_parameter="eta",
            sweep_values=(0.0, 0.1, 0.2),
            modes=("closed_form",),
        )
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg
        assert ExperimentConfig.from_json(again.to_json()) == again

    def test_overrides_reach_nested_keys(self):
        cfg = ExperimentConfig()
        new = cfg.with_overrides(["gram.c=0.5", "lam=1e-3", 'modes=["theory"]'])
        assert new.gram.c == 0.5
        assert new.lam == 1e-3
        assert new.modes == ("theory",)

    @pytest.mark.parametrize("case,d", [("I", 0.0), ("II", 0.0), ("III", 0.1)])
    def test_omitted_d_follows_the_case(self, tmp_path, case, d):
        c = [0.3, 0.5, 0.7, 0.6] if case == "II" else 0.4
        cfg = write_config(tmp_path, gram={"case": case, "K": 4, "n": 12, "c": c})
        assert main(["theory", "--config", str(cfg)]) == 0
        config = ExperimentConfig.load(cfg)
        assert config.gram_model().d == d
        assert ExperimentConfig.from_json(config.to_json()) == config

    def test_default_config_is_setup_a(self):
        model = ExperimentConfig().gram_model()
        assert (model.case, model.K, model.c, model.d) == (GramCase.III, 4, 0.4, 0.1)
        assert ExperimentConfig().modes == ("closed_form",)

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        assert main(["trajectory", "--seed", "-1", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
        assert not (tmp_path / "out").exists()

    # JSON reads NaN and Infinity as floats; each float key must be finite
    @pytest.mark.parametrize("key", ["gram.c", "gram.d", "gram.e", "gram.perturbation_amplitude",
                                     "corruption.eta", "lam", "solver_tolerance",
                                     "sweep_values"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_exits_one_naming_its_key(self, tmp_path, capsys, key, value):
        setting = f"{key}=[{value}]" if key == "sweep_values" else f"{key}={value}"
        assert main(["theory", "--out", str(tmp_path / "out"), "--set", "gram.n=8",
                     "--set", setting]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ") and "finite number" in err
        assert not (tmp_path / "out").exists()

    def test_non_positive_superclass_size_exits_one(self, tmp_path, capsys):
        assert main(["theory", "--out", str(tmp_path / "out"), "--set", 'gram.case="IV"',
                     "--set", "gram.superclass_sizes=[0,4]"]) == 1
        assert capsys.readouterr().err == ("error: gram.superclass_sizes must be positive "
                                           "class counts, got [0, 4]\n")

    # every command builds its model before it writes anything
    @pytest.mark.parametrize("command", ["trajectory", "phase", "approx-error", "theory"])
    @pytest.mark.parametrize("setting,message", [
        ("gram.K=0", "gram.K must be a positive class count, got 0"),
        ("gram.n=0", "gram.n must be a positive sample count per class, got 0"),
        ("gram.perturbation_amplitude=-0.01",
         "gram.perturbation_amplitude must be >= 0, got -0.01"),
        ("gram.c=1.2", "gram.c must satisfy 0 <= c < 1, got 1.2"),
    ], ids=["K", "n", "amplitude", "c"])
    def test_gram_value_out_of_range_exits_one_naming_its_key(self, tmp_path, capsys, command,
                                                              setting, message):
        cfg = write_config(tmp_path, gram={"case": "III", "K": 4, "n": 8, "c": 0.4, "d": 0.1},
                           t_max=1, modes=["closed_form", "oracle"])
        assert main([command, "--config", str(cfg), "--set", setting]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    # above 2**53 the float64 cell counts C n are no longer exact integers
    @pytest.mark.parametrize("command,setting,key", [
        ("theory", "gram.n=100000000000000000000", "gram.n"),
        ("phase", f"gram.n={2**63 - 1}", "gram.n"),
        ("trajectory", f"gram.n={2**53 + 1}", "gram.n"),
        ("approx-error", "sweep_values=[100,1e30]", "sweep_values"),
    ], ids=["theory", "phase", "trajectory", "approx-error"])
    def test_sample_count_above_2_53_exits_one_naming_its_key(self, tmp_path, capsys, command,
                                                              setting, key):
        cfg = write_config(tmp_path, t_max=1, modes=["closed_form", "oracle"],
                           sweep_parameter="n" if command == "approx-error" else None,
                           sweep_values=[100] if command == "approx-error" else None)
        assert main([command, "--config", str(cfg), "--set", setting]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be") and "2**53" in err
        assert not (tmp_path / "out").exists()

    def test_largest_sample_count_is_accepted(self, tmp_path):
        cfg = write_config(tmp_path, t_max=1)
        assert main(["theory", "--config", str(cfg), "--set", f"gram.n={2**53}"]) == 0

    # an explicit matrix of the wrong size fails before any command reads it
    @pytest.mark.parametrize("command", ["trajectory", "phase", "approx-error", "theory"])
    def test_wrong_size_corruption_matrix_names_path_size_and_k(self, tmp_path, capsys,
                                                                command):
        matrix = tmp_path / "corruption.csv"
        make_corruption("symmetric", 0.5, 2).to_csv(matrix)
        cfg = write_config(tmp_path, t_max=1, modes=["closed_form", "oracle"],
                           corruption={"kind": "explicit", "matrix_path": str(matrix)})
        assert main([command, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (f"error: {matrix}: the corruption matrix is 2 x 2, "
                                           "but gram.K is 4\n")
        assert not (tmp_path / "out").exists()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig().with_overrides(["gram.zeta=1"])

    @pytest.mark.parametrize(
        "command, parameter, values",
        [("phase", "eta", (0.3, 0.1)), ("phase", "eta", ()), ("phase", "eta", (0.3, 0.3)),
         ("approx-error", "n", (0, 12)), ("phase", "eta", (0.3, 1.5))],
        ids=["unsorted", "empty", "repeated", "n-below-one", "eta-above-one"])
    def test_unsorted_sweep_rejected(self, tmp_path, capsys, command, parameter, values):
        with pytest.raises(ValidationError, match="sweep_values"):
            ExperimentConfig(sweep_parameter=parameter, sweep_values=values)
        assert main([command, "--out", str(tmp_path / "out"),
                     "--set", f'sweep_parameter="{parameter}"',
                     "--set", f"sweep_values={json.dumps(list(values))}"]) == 1
        assert "sweep_values" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_matrix_path_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(
                corruption=CorruptionConfig(kind="explicit", matrix_path="/nope.csv")
            )

    @pytest.mark.parametrize("text", [None, '{"lam": 1e-3,'], ids=["missing", "malformed"])
    def test_unreadable_config_file_exits_one(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        assert main(["theory", "--config", str(path)]) == 1
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['[1]', '{"gram": 5}', '{"gram": {"zeta": 1}}'])
    def test_config_that_is_not_a_configuration_exits_one(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["theory", "--config", str(path)]) == 1
        assert "configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["trajectory", "phase"])
    def test_pll_mode_without_rounds_exits_one(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, gram={"case": "III", "K": 4, "n": 24, "c": 0.4, "d": 0.1},
                           corruption={"kind": "symmetric", "eta": 0.25}, t_max=0,
                           modes=["closed_form", "pll"])
        assert main([command, "--config", str(cfg)]) == 1
        assert "t_max >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["trajectory", "phase", "approx-error", "theory"])
    def test_oracle_mode_without_rounds_exits_one(self, tmp_path, capsys, command):
        assert main([command, "--out", str(tmp_path / "out"), "--set", "t_max=0",
                     "--set", 'modes=["oracle"]']) == 1
        assert ("error: the oracle mode solves rounds 1..t_max, so it needs t_max >= 1"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,parameter", [
        ("trajectory", "n"), ("trajectory", "eta"), ("theory", "n"), ("theory", "eta"),
        ("phase", "n"), ("approx-error", "eta"),
    ])
    def test_sweep_the_command_does_not_run_exits_one(self, tmp_path, capsys, command,
                                                      parameter):
        values = {"n": [12, 24], "eta": [0.0, 0.25]}[parameter]
        cfg = write_config(tmp_path, gram={"case": "III", "K": 4, "n": 12, "c": 0.4, "d": 0.1},
                           corruption={"kind": "symmetric", "eta": 0.25}, t_max=1,
                           modes=["closed_form", "oracle"],
                           sweep_parameter=parameter, sweep_values=values)
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: the {command} command does not sweep over {parameter}")
        assert "drop sweep_parameter and sweep_values" in err
        assert not (tmp_path / "out").exists()

    # the oracle does not run, yet every command rejects the solver setting
    @pytest.mark.parametrize("command", ["trajectory", "phase", "approx-error", "theory"])
    @pytest.mark.parametrize("setting", ["solver_tolerance", "solver_max_iterations"])
    def test_bad_solver_setting_exits_one(self, tmp_path, capsys, command, setting):
        cfg = write_config(tmp_path, gram={"case": "III", "K": 4, "n": 8, "c": 0.4, "d": 0.1},
                           corruption={"kind": "symmetric", "eta": 0.25},
                           modes=["closed_form", "theory"], **{setting: 0})
        assert main([command, "--config", str(cfg)]) == 1
        assert f"{setting} must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["123", '""', "null", '["a"]'])
    def test_output_dir_that_is_not_a_name_exits_one(self, capsys, value):
        assert main(["theory", "--set", "gram.n=8", "--set", f"output_dir={value}"]) == 1
        assert "output_dir" in capsys.readouterr().err

    def test_unknown_gram_case_exits_one_without_traceback(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-m", "distillab.cli", "theory", "--set", 'gram.case="VI"',
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=60)
        assert out.returncode == 1
        assert out.stderr == "error: gram.case must be one of I, II, III, IV, V, got 'VI'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ['res"x', "a\\b"], ids=["quote", "backslash"])
    def test_out_path_is_taken_as_given(self, tmp_path, name):
        cfg = write_config(tmp_path, gram={"case": "III", "K": 4, "n": 8, "c": 0.4, "d": 0.1},
                           corruption={"kind": "symmetric", "eta": 0.25})
        out = tmp_path / name
        assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(os.listdir(tmp_path)) == sorted(["config.json", name])
        assert (out / "theory.json").is_file()

    @pytest.mark.parametrize("command,first", [("trajectory", "corruption.csv"),
                                               ("ingest", "ingest.json")])
    @pytest.mark.parametrize("obstacle,reason", [
        ("out", "File exists"),  # --out names a file: the directory cannot be made
        ("first", "Is a directory"),  # the first output file cannot be opened
    ])
    def test_unwritable_output_exits_one_naming_the_fix(self, tmp_path, capsys, command, first,
                                                        obstacle, reason):
        out = tmp_path / "out"
        if obstacle == "out":
            out.write_text("")
        else:
            (out / first).mkdir(parents=True)
        if command == "ingest":
            features = tmp_path / "features.csv"
            features.write_text("1,0,0,1\n0,1,0,2\n0,0,1,3\n")
            argv = ["ingest", str(features), "--out", str(out)]
        else:
            argv = ["trajectory", "--config", str(write_config(tmp_path)), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (f"error: {out / first}: cannot write the file "
                                           f"({reason}); choose another --out\n")

    @pytest.mark.parametrize("command,setting,key", [
        ("theory", "gram.c=[0.3,0.5,0.7,0.6]", "gram.c"),
        ("theory", 'gram.c="abc"', "gram.c"),
        ("theory", "gram.n=12.5", "gram.n"),
        ("theory", "t_max=1.5", "t_max"),
        ("approx-error", "sweep_values=[48.7,96]", "sweep_values"),
    ], ids=["per-class-c-in-case-III", "c-not-a-number", "fractional-n",
            "fractional-t_max", "fractional-n-sweep"])
    def test_leaf_of_the_wrong_type_exits_one(self, tmp_path, capsys, command, setting, key):
        cfg = write_config(tmp_path, gram={"case": "III", "K": 4, "n": 96, "c": 0.4, "d": 0.1},
                           modes=["oracle", "theory"], t_max=1, sweep_parameter="n",
                           sweep_values=[48, 96])
        assert main([command, "--config", str(cfg), "--set", setting]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key} must be")
        assert not (tmp_path / "out").exists()

    def test_non_number_in_corruption_matrix_exits_one(self, tmp_path, capsys):
        matrix = tmp_path / "corruption.csv"
        matrix.write_text("0.5,0.5\n0.5,half\n")
        cfg = write_config(tmp_path, gram={"case": "III", "K": 2, "n": 10, "c": 0.4, "d": 0.1},
                           corruption={"kind": "explicit", "matrix_path": str(matrix)})
        assert main(["theory", "--config", str(cfg)]) == 1
        assert f"{matrix}:2: malformed field" in capsys.readouterr().err


class TestTrajectoryCommand:
    @pytest.mark.parametrize("kind, eta, rows", [
        ("explicit", 0.0, [[4, 1, 1], [1, 4, 1], [1, 1, 4]]),
        ("symmetric", 1.0 / 3.0, None),
        ("asymmetric", 0.3, None),
    ])
    def test_written_corruption_reads_back_as_the_explicit_matrix(self, tmp_path, kind, eta,
                                                                   rows):
        # each run's corruption.csv is a matrix_path that reruns the same run
        corruption = {"kind": kind, "eta": eta}
        if rows is not None:
            np.savetxt(tmp_path / "C.csv", np.array(rows) / 6, fmt="%.17g", delimiter=",")
            corruption = {"kind": "explicit", "matrix_path": str(tmp_path / "C.csv")}
        gram = {"case": "III", "K": 3, "n": 30, "c": 0.4, "d": 0.1}
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["trajectory", "--config", str(write_config(
            tmp_path, gram=gram, corruption=corruption, t_max=2, modes=["closed_form"])),
            "--out", str(first)]) == 0
        assert main(["trajectory", "--config", str(write_config(
            tmp_path, gram=gram, t_max=2, modes=["closed_form"],
            corruption={"kind": "explicit", "matrix_path": str(first / "corruption.csv")})),
            "--out", str(second)]) == 0
        for name in ("corruption.csv", "labels.csv", "outputs_round_000.csv",
                     "outputs_round_001.csv", "outputs_round_002.csv"):
            assert filecmp.cmp(first / name, second / name, shallow=False), name

    def test_round_files_and_dispersion_shrinks(self, tmp_path):
        cfg = write_config(tmp_path, t_max=6)
        assert main(["trajectory", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        round_files = sorted(out.glob("outputs_round_*.csv"))
        assert len(round_files) == 7

        def dispersion(t):
            mat = OutputMatrix.from_csv(out / f"outputs_round_{t:03d}.csv")
            labels = np.repeat(np.arange(1, 5), 102)
            worst = 0.0
            for k in range(1, 5):
                cols = mat.columns[:, labels == k]
                for i in range(0, cols.shape[1], 17):
                    diff = np.abs(cols - cols[:, [i]]).max()
                    worst = max(worst, float(diff))
            return worst

        assert dispersion(6) < dispersion(1)

    def test_zero_rounds_single_one_hot_file(self, tmp_path):
        cfg = write_config(tmp_path, t_max=0, modes=["closed_form"])
        assert main(["trajectory", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        files = sorted(out.glob("outputs_round_*.csv"))
        assert len(files) == 1
        mat = OutputMatrix.from_csv(files[0])
        assert mat.round == 0
        assert np.isin(mat.columns, (0.0, 1.0)).all()

    def test_operator_eigenvalue_table(self, tmp_path):
        cfg = write_config(tmp_path, t_max=4)
        main(["trajectory", "--config", str(cfg)])
        header, rows = read_csv_rows(tmp_path / "out" / "eigenvalues.csv")
        assert header == ["round", "index", "eigenvalue"]
        at4 = [float(r[2]) for r in rows if r[0] == "4"]
        # n=102 variant of the reference setup: q = 31.2/31.71, p = 0.6/1.11
        q4 = (31.2 / 31.71) ** 4
        p4 = (0.6 / 1.11) ** 4
        assert all(v >= q4 - 1e-12 for v in at4[:4])
        assert all(v <= p4 + 1e-12 for v in at4[4:])

    def test_files_are_byte_identical_to_the_golden_run(self, tmp_path):
        # tests/data/trajectory_III/ holds every file of this run, whose bytes
        # must not drift
        golden = os.path.join(DATA_DIR, "trajectory_III")
        cfg = ExperimentConfig(gram=GramConfig(case="III", K=4, n=12, c=0.4, d=0.1),
                               corruption=CorruptionConfig(kind="symmetric", eta=0.5),
                               t_max=2, modes=("closed_form", "pll"),
                               output_dir=str(tmp_path / "out"))
        written = cmd_trajectory(cfg)
        assert sorted(map(os.path.basename, written)) == sorted(os.listdir(golden))
        for path in written:
            with open(os.path.join(golden, os.path.basename(path)), "rb") as fh:
                assert open(path, "rb").read() == fh.read(), path

    def test_indefinite_gram_names_the_amplitude_to_lower(self, tmp_path, capsys):
        assert main(["trajectory", "--out", str(tmp_path / "out"), "--set", "gram.n=20",
                     "--set", "gram.perturbation_amplitude=0.5"]) == 1
        err = capsys.readouterr().err
        assert "below -1e-08" in err and "lower gram.perturbation_amplitude" in err
        assert not (tmp_path / "out").exists()

    def test_infeasible_realization_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["trajectory", "--config", str(cfg), "--set", "gram.n=100"])
        assert code == 1
        assert "feasible" in capsys.readouterr().err

    def test_oracle_mode_emits_outputs_and_convergence_reports(self, tmp_path):
        cfg = write_config(
            tmp_path,
            gram={"case": "III", "K": 3, "n": 8, "c": 0.5, "d": 0.2},
            corruption={"kind": "symmetric", "eta": 0.25},
            lam=0.01,
            t_max=2,
            modes=["closed_form", "oracle"],
        )
        assert main(["trajectory", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        for t in (1, 2):
            assert (out / f"oracle_round_{t:03d}.csv").exists()
            report = json.loads((out / f"oracle_round_{t:03d}.json").read_text())
            assert report["converged"] is True
            assert report["final_loss"] < 1e-10
            assert report["iterations_used"] > 0

    def test_unconverged_oracle_exits_two_and_writes_nothing(self, tmp_path, capsys):
        # perturbed: the oracle rounds run beside the dense eigensystem
        cfg = write_config(
            tmp_path,
            gram={"case": "IV", "K": 4, "n": 20, "c": 0.4, "d": 0.1,
                  "superclass_sizes": [2, 2], "perturbation_amplitude": 0.01},
            corruption={"kind": "superclass", "eta": 0.3},
            lam=1e-3,
            t_max=2,
            modes=["closed_form", "pll", "oracle"],
            solver_max_iterations=1,
        )
        assert main(["trajectory", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: oracle failed to converge at round 1")
        assert not (tmp_path / "out").exists()

    def test_no_n_by_n_array_is_alive_while_files_are_written(self, tmp_path, monkeypatch):
        # the traj_dense_oracle config, N = 960: the Gram and its factor are
        # freed before the first file, and every file is written after them
        cfg = write_config(
            tmp_path,
            gram={"case": "IV", "K": 4, "n": 240, "c": 0.4, "d": 0.1,
                  "superclass_sizes": [2, 2], "perturbation_amplitude": 0.01},
            corruption={"kind": "superclass", "eta": 0.3},
            lam=1e-3,
            t_max=3,
            modes=["closed_form", "pll", "oracle"],
            solver_tolerance=1e-9,
        )
        config = ExperimentConfig.load(str(cfg))
        readings = []
        out_path = cli._out_path

        def traced_out_path(directory, name):
            readings.append(tracemalloc.get_traced_memory()[0])
            return out_path(directory, name)

        monkeypatch.setattr(cli, "_out_path", traced_out_path)
        tracemalloc.start()
        try:
            written = cmd_trajectory(config)
        finally:
            tracemalloc.stop()
        N = 960
        assert len(readings) == len(written) == 16
        assert max(readings) < N * N * 8

    def test_no_per_sample_output_matrix_is_alive_while_files_are_written(
            self, tmp_path, monkeypatch):
        # unperturbed, N = 30,000: the rounds stay on the cells, and what the
        # write phase holds per sample (the labels, each sample's cell and
        # the eigenvalue table's spectra) stays below one K x N output matrix
        K, n, t_max = 10, 3000, 2
        config = ExperimentConfig.load(str(write_config(
            tmp_path, gram={"case": "III", "K": K, "n": n, "c": 0.4, "d": 0.1},
            corruption={"kind": "symmetric", "eta": 0.3}, t_max=t_max,
            modes=["closed_form", "pll", "oracle"])))
        readings = []
        out_path = cli._out_path

        def traced_out_path(directory, name):
            readings.append(tracemalloc.get_traced_memory()[0])
            return out_path(directory, name)

        monkeypatch.setattr(cli, "_out_path", traced_out_path)
        tracemalloc.start()
        try:
            written = cmd_trajectory(config)
        finally:
            tracemalloc.stop()
        assert len(readings) == len(written) == 13
        assert max(readings) < K * K * n * 8

    def test_more_rounds_hold_no_more_spectra_while_files_are_written(
            self, tmp_path, monkeypatch):
        # unperturbed, the eigenvalue table keeps each round's text of the
        # 2K distinct eigenvalues and each index's entry among them, not an
        # N-float spectrum per round
        K, n = 10, 3000
        held = []

        class FirstFile(Exception):
            pass

        def held_at_the_first_file(directory, name):
            held.append(tracemalloc.get_traced_memory()[0])
            raise FirstFile

        monkeypatch.setattr(cli, "_out_path", held_at_the_first_file)
        configs = [ExperimentConfig.load(str(write_config(
            tmp_path, gram={"case": "III", "K": K, "n": n, "c": 0.4, "d": 0.1},
            corruption={"kind": "symmetric", "eta": 0.3}, t_max=t_max,
            modes=["closed_form"]))) for t_max in (1, 2)]
        # untraced first: what a first run leaves cached
        for config, traced in ((configs[0], False), *zip(configs, (True, True))):
            if traced:
                tracemalloc.start()
            try:
                with pytest.raises(FirstFile):
                    cmd_trajectory(config)
            finally:
                tracemalloc.stop()
        # one more round adds 8 kB of cell outputs; its spectrum would be 240 kB
        assert held[2] - held[1] < K * n * 8 / 4

    def test_the_eigenvalue_table_holds_no_text_per_index(self, tmp_path, monkeypatch):
        # unperturbed, N = 30,000: the table goes through write_cell_rows like
        # every per-sample file, so its write holds a block of text at a time
        # above what the phase holds, not an index string per index
        K, n = 10, 3000
        config = ExperimentConfig.load(str(write_config(
            tmp_path, gram={"case": "III", "K": K, "n": n, "c": 0.4, "d": 0.1},
            corruption={"kind": "symmetric", "eta": 0.3}, t_max=2,
            modes=["closed_form", "pll"])))
        readings = []
        out_path = cli._out_path

        def traced_out_path(directory, name):
            # (name, held now, peak since the previous file began)
            readings.append((name, *tracemalloc.get_traced_memory()))
            tracemalloc.reset_peak()
            return out_path(directory, name)

        monkeypatch.setattr(cli, "_out_path", traced_out_path)
        tracemalloc.start()
        try:
            cmd_trajectory(config)
        finally:
            tracemalloc.stop()
        names = [name for name, _, _ in readings]
        at = names.index("eigenvalues.csv")
        assert readings[at + 1][2] - readings[at][1] < 16 * K * n

    def test_projection_matches_columns(self, tmp_path):
        cfg = write_config(tmp_path, t_max=1, modes=["closed_form"])
        main(["trajectory", "--config", str(cfg)])
        header, rows = read_csv_rows(tmp_path / "out" / "projection.csv")
        row = rows[0]
        vec = np.array([float(x) for x in row[6:]])
        xy = simplex_projection(vec[:, None])[0]
        assert float(row[4]) == pytest.approx(xy[0], abs=1e-12)
        assert float(row[5]) == pytest.approx(xy[1], abs=1e-12)

    def test_projection_vertices_on_an_axis_are_exact(self):
        square = simplex_projection(np.eye(4))
        assert square.tolist() == [[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]]
        assert not np.signbit(square).any(where=square == 0.0)
        # an output symmetric between classes 2 and 4 sits on the y axis
        assert simplex_projection(np.array([[0.1], [0.3], [0.3], [0.3]]))[0, 0] == 0.0

    @pytest.mark.parametrize("K", [3, 4, 5, 6, 12])
    def test_a_point_depends_on_its_own_column_alone(self, K):
        rng = np.random.default_rng(K)
        cols = rng.dirichlet(np.ones(K), size=100).T
        alone = np.vstack([simplex_projection(cols[:, [j]]) for j in range(100)])
        assert np.array_equal(simplex_projection(cols), alone)


def case_gram(name, K, n):
    """The gram section of ``CASE_MODELS[name]`` with ``K`` classes of ``n``
    samples: two superclasses in cases IV and V, and in case II the class
    correlations spread over [0.3, 0.7]."""
    model = CASE_MODELS[name]
    return {"case": name, "K": K, "n": n, "d": model.d, "e": model.e,
            "c": np.linspace(0.3, 0.7, K).tolist() if name == "II" else model.c,
            "superclass_sizes": None if model.superclass_map is None else [K // 2, K - K // 2]}


class TestCellWriter:
    @given(st.sampled_from([*sorted(CASE_MODELS), "perturbed IV"]), st.integers(2, 12),
           st.integers(1, 6), st.integers(0, 3),
           st.sets(st.sampled_from(["pll", "oracle"])), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_files_equal_the_per_sample_reference(self, tmp_path_factory, name, K, n, t_max,
                                                  modes, seed):
        tmp_path = tmp_path_factory.mktemp("cells")
        gram = case_gram(name.split()[-1], K, n)
        if name.startswith("perturbed"):
            gram["perturbation_amplitude"] = 0.01
        C = nearest_realizable(random_doubly_stochastic(K, np.random.default_rng(seed)), n)
        # every digit, so that the file holds the realisable matrix itself
        np.savetxt(tmp_path / "C.csv", C.entries, fmt="%.17g", delimiter=",")
        config = ExperimentConfig.from_dict({
            "gram": gram, "corruption": {"kind": "explicit", "matrix_path": str(tmp_path / "C.csv")},
            "lam": 1e-3, "t_max": t_max, "modes": sorted(modes) if t_max else [],
            "seed": seed, "output_dir": str(tmp_path / "cells")})
        written = {os.path.basename(p) for p in cmd_trajectory(config)}
        names = per_sample_trajectory(config, tmp_path / "samples")
        assert set(names) == {w for w in written if w.endswith(".csv")} - {"corruption.csv"}
        for file in names:
            assert filecmp.cmp(tmp_path / "cells" / file, tmp_path / "samples" / file,
                               shallow=False), file


class TestPhaseCommand:
    def test_reference_phase_table(self, tmp_path):
        cfg = write_config(
            tmp_path,
            gram={"case": "III", "K": 4, "n": 120, "c": 0.4, "d": 0.1},
            sweep_parameter="eta",
            sweep_values=[0.0, 0.3, 0.5, 0.7],
        )
        assert main(["phase", "--config", str(cfg)]) == 0
        header, rows = read_csv_rows(tmp_path / "out" / "phase.csv")
        assert header == ["eta", "model", "predicted_accuracy", "empirical_accuracy"]
        table = {(r[0], r[1]): (float(r[2]), float(r[3])) for r in rows}
        # empirical equals predicted exactly at every well-posed grid point;
        # the zero-noise PLL cell is excluded: with no wrong-label mass the
        # runner-up set is fully tied and the lowest-index refinement
        # unbalances the two-hot targets (see the decisions notes)
        for (eta, model), (pred, emp) in table.items():
            if (eta, model) == ("0", "PLL"):
                continue
            assert emp == pytest.approx(pred, abs=1e-12), (eta, model)
        assert table[("0", "1")][0] == pytest.approx(1.0)
        assert table[("0.5", "1")][0] == pytest.approx(0.5)
        assert table[("0.5", "2")][0] == pytest.approx(0.5)
        assert table[("0.5", "3")][0] == pytest.approx(1.0)
        assert table[("0.5", "4")][0] == pytest.approx(1.0)
        # the one-round top-2 student holds out to much heavier corruption
        for eta in ("0.3", "0.5", "0.7"):
            assert table[(eta, "PLL")][0] == pytest.approx(1.0)

    def test_unrealisable_point_names_its_eta(self, tmp_path, capsys):
        assert main(["phase", "--out", str(tmp_path / "out"), "--set", "gram.n=10",
                     "--set", 'sweep_parameter="eta"', "--set", "sweep_values=[0.3, 0.35]"]) == 1
        # 0.3 / 3 of ten samples is one per cell; 0.35 / 3 is not a whole count
        assert capsys.readouterr().err.startswith("error: eta=0.35: cell (1,2) needs 1.16667 "
                                                  "samples")

    def test_predictions_match_the_benchmark_reference(self, tmp_path, monkeypatch):
        # the phase_eta workload pins these predictions; only they are
        # compared, and the reference file is only read
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", os.path.join(BENCH_DIR, "workloads.py"))
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        config = dict(workloads.WORKLOADS["phase_eta"].config, modes=["pll", "theory"])
        cfg = write_config(tmp_path, **config)
        assert main(["phase", "--config", str(cfg)]) == 0
        _, rows = read_csv_rows(tmp_path / "out" / "phase.csv")
        _, reference = read_csv_rows(os.path.join(BENCH_DIR, "phase_eta_reference.csv"))
        assert [r[:2] for r in rows] == [r[:2] for r in reference]
        for row, ref in zip(rows, reference):
            assert abs(float(row[2]) - float(ref[2])) <= 1e-12, row

    def test_oracle_table_builds_no_eigensystem(self, tmp_path, monkeypatch):
        # the oracle rounds replace the closed-form ones in the empirical
        # column, so no eigensystem or closed-form round is computed
        calls = []
        for name in ("analytic_eigensystem", "numeric_eigensystem"):
            monkeypatch.setattr(oracle, name, lambda *a: calls.append(a))
        cfg = write_config(tmp_path, gram={"case": "III", "K": 4, "n": 12, "c": 0.4, "d": 0.1},
                           corruption={"kind": "symmetric", "eta": 0.0}, t_max=2,
                           modes=["closed_form", "oracle"], sweep_parameter="eta",
                           sweep_values=[0.0, 0.25, 0.5])
        assert main(["phase", "--config", str(cfg)]) == 0
        assert calls == []
        _, rows = read_csv_rows(tmp_path / "out" / "phase.csv")
        assert rows == [["0", "1", "1", "1"], ["0", "2", "1", "1"],
                        ["0.25", "1", "0.75", "0.75"], ["0.25", "2", "0.75", "0.75"],
                        ["0.5", "1", "0.5", "0.5"], ["0.5", "2", "0.5", "0.5"]]

    def test_pll_mode_alone_measures_the_student(self, tmp_path):
        # without closed_form the PLL row is still measured, as in trajectory
        sweep = dict(gram={"case": "III", "K": 4, "n": 24, "c": 0.4, "d": 0.1},
                     sweep_parameter="eta", sweep_values=[0.25, 0.5])
        tables = []
        for modes in (["pll", "theory"], ["closed_form", "pll", "theory"]):
            cfg = write_config(tmp_path, modes=modes, **sweep)
            assert main(["phase", "--config", str(cfg)]) == 0
            tables.append(read_csv_rows(tmp_path / "out" / "phase.csv")[1])
        pll_rows = [row for row in tables[0] if row[1] == "PLL"]
        assert len(pll_rows) == 2 and all(row[3] != "" for row in pll_rows)
        assert tables[0] == tables[1]

    def test_per_class_model_table(self, tmp_path):
        # case II: one threshold per class, and the same top-2 rule as the
        # scalar cases
        cfg = write_config(tmp_path, gram={"case": "II", "K": 3, "n": 20, "c": [0.3, 0.5, 0.7]},
                           lam=1e-3, sweep_parameter="eta", sweep_values=[0.0, 0.3, 0.6])
        assert main(["phase", "--config", str(cfg)]) == 0
        _, rows = read_csv_rows(tmp_path / "out" / "phase.csv")
        assert len(rows) == 15
        for eta, model, pred, emp in rows:
            assert pred == emp, (eta, model)
        table = {(r[0], r[1]): r[2] for r in rows}
        assert [table[("0.3", str(t))] for t in range(1, 5)] == ["0.7", "0.7", "0.8", "0.9"]
        assert [table[(eta, "PLL")] for eta in ("0", "0.3", "0.6")] == ["0", "1", "1"]

    def test_parallel_workers_match_serial(self, tmp_path):
        serial_cfg = write_config(
            tmp_path,
            gram={"case": "III", "K": 3, "n": 16, "c": 0.5, "d": 0.2},
            corruption={"kind": "symmetric", "eta": 0.0},
            sweep_parameter="eta",
            sweep_values=[0.0, 0.25, 0.5],
            output_dir=str(tmp_path / "serial"),
        )
        assert main(["phase", "--config", str(serial_cfg)]) == 0
        par_dir = tmp_path / "parallel"
        assert main([
            "phase", "--config", str(serial_cfg),
            "--set", "workers=2", "--out", str(par_dir),
        ]) == 0
        assert (
            (tmp_path / "serial" / "phase.csv").read_bytes()
            == (par_dir / "phase.csv").read_bytes()
        )

    @pytest.mark.parametrize("values,pools", [([0.0, 0.25], [2]), ([0.25], [])],
                             ids=["two-points", "one-point"])
    def test_pool_has_no_more_workers_than_points(self, tmp_path, monkeypatch, values, pools):
        # a stand-in pool records its size and runs the points in this process
        import concurrent.futures

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = write_config(tmp_path, gram={"case": "III", "K": 3, "n": 16, "c": 0.5, "d": 0.2},
                           corruption={"kind": "symmetric", "eta": 0.0}, workers=6,
                           sweep_parameter="eta", sweep_values=values)
        assert main(["phase", "--config", str(cfg)]) == 0
        assert sizes == pools

    def test_config_is_serialised_once_per_sweep(self, tmp_path, monkeypatch):
        # one to_json for the sweep, one from_json per point after the load
        dumped, parsed = [], []
        to_json, from_json = ExperimentConfig.to_json, ExperimentConfig.from_json
        monkeypatch.setattr(ExperimentConfig, "to_json",
                            lambda self: dumped.append(1) or to_json(self))
        monkeypatch.setattr(ExperimentConfig, "from_json",
                            staticmethod(lambda text: parsed.append(1) or from_json(text)))
        cfg = write_config(tmp_path, gram={"case": "III", "K": 3, "n": 16, "c": 0.5, "d": 0.2},
                           corruption={"kind": "symmetric", "eta": 0.0},
                           sweep_parameter="eta", sweep_values=[0.0, 0.25, 0.5])
        assert main(["phase", "--config", str(cfg)]) == 0
        assert (len(dumped), len(parsed)) == (1, 4)


DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# the scalar Gram cases at eta = 0.5; tests/data/theory_<name>.json is each
# one's report, written by the scalar p/q code these reports must not drift from
THEORY_GOLDEN = {
    "I": ({"case": "I", "K": 4, "n": 12, "c": 0.4, "d": 0.0}, "symmetric"),
    "III": ({"case": "III", "K": 4, "n": 12, "c": 0.4, "d": 0.1}, "symmetric"),
    "IV": ({"case": "IV", "K": 4, "n": 12, "c": 0.4, "d": 0.1, "superclass_sizes": [2, 2]},
           "superclass"),
    "V": ({"case": "V", "K": 6, "n": 12, "c": 0.4, "d": 0.1, "e": 0.05,
           "superclass_sizes": [3, 3]}, "superclass"),
}


class TestTheoryCommand:
    @pytest.mark.parametrize("name", sorted(THEORY_GOLDEN))
    def test_scalar_case_report_is_byte_identical(self, tmp_path, name):
        gram, kind = THEORY_GOLDEN[name]
        cfg = write_config(tmp_path, gram=gram, corruption={"kind": kind, "eta": 0.5})
        assert main(["theory", "--config", str(cfg)]) == 0
        golden = os.path.join(DATA_DIR, f"theory_{name}.json")
        assert (tmp_path / "out" / "theory.json").read_bytes() == open(golden, "rb").read()

    def test_per_class_model_report(self, tmp_path):
        omega = [0.3, 0.5, 0.7, 0.6]
        cfg = write_config(tmp_path, gram={"case": "II", "K": 4, "n": 20, "c": omega},
                           corruption={"kind": "symmetric", "eta": 0.25}, lam=1e-3)
        assert main(["theory", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "theory.json").read_text())
        tc = theory_constants(GramModel(case=GramCase.II, K=4, n=20, c=tuple(omega)), 1e-3)
        assert report["p"] == tc.p.tolist() and report["q"] == tc.q.tolist()
        assert report["q_over_p"] == (tc.q / tc.p).tolist()
        assert report["r"] is None
        for t, res in report["sd_conditions"].items():
            assert res["threshold"] == tc.threshold(int(t)).tolist()
        assert report["minimal_rounds"] == 3
        assert report["sd_conditions"]["3"]["achieves_100"] is True
        assert report["sd_conditions"]["2"]["achieves_100"] is False

    @pytest.mark.parametrize("command", ["theory", "phase"])
    def test_perturbed_model_names_the_fix(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, gram={"case": "III", "K": 4, "n": 12, "c": 0.4, "d": 0.1,
                                           "perturbation_amplitude": 0.01})
        assert main([command, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == ("error: theory constants are defined for unperturbed "
                                           "models: set gram.perturbation_amplitude to 0\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("eta,t_star", [(0.0, 1), (0.5, "unreachable")])
    def test_minimal_rounds_when_q_equals_p(self, tmp_path, eta, t_star):
        # c = d = 0: every threshold is infinite
        cfg = write_config(tmp_path, gram={"case": "I", "K": 3, "n": 12, "c": 0.0, "d": 0},
                           corruption={"kind": "symmetric", "eta": eta}, lam=1e-3, t_max=2)
        assert main(["theory", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "theory.json").read_text())
        assert report["q_over_p"] == 1.0
        assert report["minimal_rounds"] == t_star
        assert report["sd_conditions"]["2"]["threshold"] == math.inf

    def test_reference_report(self, tmp_path):
        cfg = write_config(
            tmp_path,
            gram={"case": "III", "K": 4, "n": 100, "c": 0.4, "d": 0.1},
        )
        assert main(["theory", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "theory.json").read_text())
        assert report["q_over_p"] == pytest.approx(1.803858, abs=1e-6)
        assert report["minimal_rounds"] == 3
        assert report["pll"]["achieves_100"] is True
        assert report["sd_conditions"]["1"]["achieves_100"] is False
        assert report["sd_conditions"]["3"]["achieves_100"] is True

    def test_zero_noise_minimal_rounds_one(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["theory", "--config", str(cfg), "--set", "corruption.eta=0"])
        report = json.loads((tmp_path / "out" / "theory.json").read_text())
        assert report["minimal_rounds"] == 1

    def test_unreachable_regime(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["theory", "--config", str(cfg), "--set", "corruption.eta=0.8"])
        report = json.loads((tmp_path / "out" / "theory.json").read_text())
        assert report["minimal_rounds"] == "unreachable"
        assert report["pll"]["achieves_100"] is False

    @pytest.mark.parametrize("lam", [1e-14, 1e-16, 2.78e-18])
    def test_minimal_rounds_at_tiny_lam(self, tmp_path, lam):
        gram = {"case": "III", "K": 4, "n": 10, "c": 0.4, "d": 0.1}
        cfg = write_config(tmp_path, gram=gram, lam=lam, t_max=1)
        assert main(["theory", "--config", str(cfg)]) == 0
        t = json.loads((tmp_path / "out" / "theory.json").read_text())["minimal_rounds"]
        tc = theory_constants(GramModel(case=GramCase.III, K=4, n=10, c=0.4, d=0.1), lam)
        C = make_corruption("symmetric", 0.5, 4)
        assert sd_accuracy_condition(C, tc, t).achieves_100
        assert not sd_accuracy_condition(C, tc, t - 1).achieves_100

    @pytest.mark.parametrize("command", ["theory", "approx-error", "trajectory", "phase"])
    def test_tiny_lam_names_the_smallest_workable_value(self, tmp_path, capsys, command):
        # n=12 realises the corruption, so only lam can stop the run
        gram = {"case": "III", "K": 4, "n": 12, "c": 0.4, "d": 0.1}
        cfg = write_config(tmp_path, gram=gram, lam=1e-19, t_max=1, modes=["oracle", "theory"])
        assert main([command, "--config", str(cfg)]) == 1
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert "lam=1e-19 is too small" in err
        smallest = float(re.search(r"they need lam >= (\S+)", err).group(1))
        model = GramModel(case=GramCase.III, K=4, n=12, c=0.4, d=0.1)
        assert np.all(theory_constants(model, smallest).q < 1.0)
        with pytest.raises(ValidationError, match="too small"):
            theory_constants(model, 0.4 * smallest)


    @pytest.mark.parametrize("command", ["theory", "trajectory", "phase"])
    def test_lam_is_checked_on_the_largest_eigen_ratio(self, tmp_path, capsys, command):
        # at 2.6e-18 the class-contrast ratio q is still below 1, but the
        # ratio of the top (global mean) eigenvalue 9 rounds to 1
        gram = {"case": "III", "K": 4, "n": 12, "c": 0.4, "d": 0.1}
        assert eigen_ratio(12 * 0.3 + 0.6, 2.6e-18, 4, 12) < 1.0
        cfg = write_config(tmp_path, gram=gram, lam=2.6e-18, t_max=1)
        assert main([command, "--config", str(cfg)]) == 1
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert "lam=2.6e-18 is too small" in err
        assert "they need lam >= 9.25e-18" in err

    @pytest.mark.parametrize("gram,corruption,fix", [
        ({"case": "III", "K": 4, "n": 12, "c": 0.4, "d": 0.1, "superclass_sizes": [2, 2]},
         {"kind": "superclass", "eta": 0.5}, "drop superclass_sizes or use case IV or V"),
        ({"case": "I", "K": 4, "n": 12, "c": 0.4, "d": 0.0, "superclass_sizes": [2, 2]},
         {"kind": "symmetric", "eta": 0.5}, "drop superclass_sizes or use case IV or V"),
        ({"case": "II", "K": 3, "n": 12, "c": [0.3, 0.5, 0.7], "d": 0.3, "e": 0.2},
         {"kind": "symmetric", "eta": 0.5}, "set gram.d and gram.e to 0"),
    ], ids=["III_superclasses", "I_superclasses", "II_inter_class"])
    def test_settings_the_case_would_ignore_are_rejected(self, tmp_path, capsys, gram,
                                                         corruption, fix):
        cfg = write_config(tmp_path, gram=gram, corruption=corruption)
        assert main(["theory", "--config", str(cfg)]) == 1
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert f"case {gram['case']} has" in err and fix in err

    @pytest.mark.parametrize("command,corruption,sweep,fix", [
        ("phase", {"kind": "explicit"}, {"sweep_parameter": "eta", "sweep_values": [0, 0.25, 0.5]},
         "use a generated corruption.kind or drop the sweep"),
        ("theory", {"kind": "explicit", "eta": 0.25}, {}, "set corruption.eta to 0"),
        ("theory", {"kind": "symmetric", "eta": 0.25}, {},
         "drop matrix_path or set kind to explicit"),
    ], ids=["explicit_eta_sweep", "explicit_eta", "generated_matrix_path"])
    def test_corruption_settings_the_kind_would_ignore_are_rejected(
            self, tmp_path, capsys, command, corruption, sweep, fix):
        matrix = tmp_path / "corruption.csv"
        make_corruption("symmetric", 0.25, 4).to_csv(matrix)
        cfg = write_config(tmp_path, gram={"case": "III", "K": 4, "n": 8, "c": 0.4, "d": 0.1},
                           corruption=dict(corruption, matrix_path=str(matrix)), **sweep)
        assert main([command, "--config", str(cfg)]) == 1
        assert not (tmp_path / "out").exists()
        assert fix in capsys.readouterr().err

    def test_unknown_corruption_kind_names_every_kind(self, tmp_path, capsys):
        cfg = write_config(tmp_path, corruption={"kind": "uniform", "eta": 0.25})
        assert main(["theory", "--config", str(cfg)]) == 1
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr().err == ("error: corruption.kind must be one of symmetric, "
                                           "asymmetric, superclass, explicit, got 'uniform'\n")


class TestApproxErrorCommand:
    def test_large_regularization_tiny_error(self, tmp_path):
        cfg = write_config(
            tmp_path,
            gram={"case": "III", "K": 4, "n": 5, "c": 0.4, "d": 0.1},
            corruption={"kind": "symmetric", "eta": 0.6},
            lam=1.0,
            t_max=1,
            modes=["oracle"],
        )
        assert main(["approx-error", "--config", str(cfg)]) == 0
        header, rows = read_csv_rows(tmp_path / "out" / "approx_error.csv")
        assert header == ["n", "max_linf_error", "converged"]
        assert len(rows) == 1
        assert rows[0][2] == "true"
        assert float(rows[0][1]) < 1e-3

    def test_nonconvergence_flags_row_and_continues(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            gram={"case": "III", "K": 4, "n": 5, "c": 0.4, "d": 0.1},
            corruption={"kind": "symmetric", "eta": 0.6},
            lam=1e-3,
            t_max=1,
            modes=["oracle"],
            sweep_parameter="n",
            sweep_values=[5, 10],
        )
        code = main([
            "approx-error", "--config", str(cfg),
            "--set", "solver_max_iterations=2",
        ])
        assert code == 0
        path = tmp_path / "out" / "approx_error.csv"
        assert path.read_text() == "n,max_linf_error,converged\n5,,false\n10,,false\n"
        # each failed point names its reason on stderr, not in the file
        reasons = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in reasons] == ["approx-error n=5",
                                                           "approx-error n=10"]
        assert all("oracle failed to converge at round 1" in line for line in reasons)

    def test_n_sweep_never_builds_a_model_at_gram_n(self, tmp_path):
        # the superclass map comes from the config, the models from the swept n
        texts = []
        for gram_n in (0, 7):
            out = tmp_path / f"gram_n_{gram_n}"
            assert main(["approx-error", "--out", str(out), "--set", f"gram.n={gram_n}",
                         "--set", 'gram.case="IV"', "--set", "gram.superclass_sizes=[2,2]",
                         "--set", 'corruption.kind="superclass"', "--set", "corruption.eta=0.5",
                         "--set", "t_max=1", "--set", 'modes=["oracle"]',
                         "--set", 'sweep_parameter="n"', "--set", "sweep_values=[50,100]"]) == 0
            texts.append((out / "approx_error.csv").read_text())
        assert texts[0] == texts[1]
        rows = read_csv_rows(tmp_path / "gram_n_0" / "approx_error.csv")[1]
        assert [row[0::2] for row in rows] == [["50", "true"], ["100", "true"]]

    @pytest.mark.parametrize("command,modes,message", [
        # the config rejects the oracle mode at t_max = 0 before approx-error runs
        pytest.param("phase", ["closed_form"], "phase measures rounds 1..t_max", id="phase"),
        pytest.param("approx-error", ["oracle"], "the oracle mode solves rounds 1..t_max",
                     id="approx-error"),
    ])
    def test_zero_rounds_exits_one(self, tmp_path, capsys, command, modes, message):
        cfg = write_config(tmp_path, gram={"case": "III", "K": 4, "n": 5, "c": 0.4, "d": 0.1},
                           corruption={"kind": "symmetric", "eta": 0.6}, lam=1e-3, t_max=0,
                           modes=modes)
        assert main([command, "--config", str(cfg)]) == 1
        assert f"error: {message}, so it needs t_max >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_requires_oracle_mode(self, tmp_path):
        cfg = write_config(tmp_path, modes=["closed_form"])
        assert main(["approx-error", "--config", str(cfg)]) == 1

    def test_indefinite_gram_is_rejected_as_trajectory_rejects_it(self, tmp_path, capsys):
        # smallest Gram eigenvalue -0.108: the oracle alone converges here, but
        # the dense closed-form reference of the same run refuses the Gram
        cfg = write_config(tmp_path, gram={"case": "III", "K": 4, "n": 240, "c": 0.4, "d": 0.1,
                                           "perturbation_amplitude": 0.02},
                           lam=1e-2, t_max=1, modes=["oracle"])
        assert main(["approx-error", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: n=240: Gram eigenvalue -1.077e-01 below -1e-08")
        assert "lower gram.perturbation_amplitude" in err
        assert main(["trajectory", "--config", str(cfg)]) == 1
        assert "error: Gram eigenvalue -1.077e-01 below -1e-08" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSnappingPolicy:
    def test_only_approx_error_snaps_an_off_grid_corruption(self, tmp_path, capsys):
        # symmetric 0.5 needs 10/6 samples per mislabeled cell at n=10
        gram = {"case": "III", "K": 4, "n": 10, "c": 0.4, "d": 0.1}
        cfg = write_config(tmp_path, gram=gram, lam=1e-3, t_max=1,
                           modes=["closed_form", "oracle"])
        for command in ("trajectory", "phase"):
            assert main([command, "--config", str(cfg)]) == 1
            assert "smallest feasible n is 6" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert main(["approx-error", "--config", str(cfg)]) == 0
        rows = (tmp_path / "out" / "approx_error.csv").read_text().splitlines()
        n, gap, converged = rows[1].split(",")
        assert (n, converged) == ("10", "true") and float(gap) > 0.0


class TestIngestCommand:
    def test_recovers_generative_correlations(self, tmp_path):
        model = GramModel(case=GramCase.III, K=4, n=6, c=0.4, d=0.1)
        feats = embed_gram(build_gram(model))
        fpath = tmp_path / "features.csv"
        import csv as _csv

        with open(fpath, "w", newline="") as fh:
            writer = _csv.writer(fh)
            for row, label in zip(feats, model.class_of_sample()):
                writer.writerow([f"{x:.12g}" for x in row] + [int(label)])
        assert main(["ingest", str(fpath), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "ingest.json").read_text())
        assert report["fitted"]["c"] == pytest.approx(0.4, abs=0.02)
        assert report["fitted"]["d"] == pytest.approx(0.1, abs=0.02)
        assert report["suggested_lambda"]
        for item in report["suggested_lambda"]:
            assert 1.8 <= item["q_over_p"] <= 2.2
            assert item["lam"] > 0

    def test_unsorted_superclass_map_matches_its_sorted_relabelling(self, tmp_path):
        # CIFAR-100's fine-to-coarse map interleaves superclasses like this one
        model = GramModel(case=GramCase.V, K=4, n=5, c=0.5, d=0.2, e=0.05,
                          superclass_map=SuperclassMap((1, 1, 2, 2)))
        feats = embed_gram(build_gram(model))
        # sorted class k is class relabel[k - 1] of the unsorted map (1, 2, 1, 2)
        relabel = np.array([1, 3, 2, 4])
        reports = []
        for name, labels, sidecar in [
                ("sorted", model.class_of_sample(), "1,1\n2,1\n3,2\n4,2\n"),
                ("unsorted", relabel[model.class_of_sample() - 1], "1,1\n2,2\n3,1\n4,2\n")]:
            FeatureMatrix(feats, labels).to_csv(tmp_path / f"{name}.csv")
            (tmp_path / f"{name}_map.csv").write_text(sidecar)
            assert main(["ingest", str(tmp_path / f"{name}.csv"), "--superclasses",
                         str(tmp_path / f"{name}_map.csv"), "--out", str(tmp_path / name)]) == 0
            reports.append(json.loads((tmp_path / name / "ingest.json").read_text()))
        assert reports[0] == reports[1]
        assert reports[0]["fitted"]["e"] == pytest.approx(0.05, abs=1e-9)

    @pytest.mark.parametrize("text, where", [
        (None, ""),
        ("1,0,1\n0,1\n", ":2: expected 3 fields"),
        ("1,0,1\n0,1,two\n", ":2: malformed field"),
    ], ids=["missing", "ragged", "non-number"])
    def test_unreadable_features_exit_one(self, tmp_path, capsys, text, where):
        fpath = tmp_path / "features.csv"
        if text is not None:
            fpath.write_text(text)
        assert main(["ingest", str(fpath), "--out", str(tmp_path / "out")]) == 1
        assert f"{fpath}{where}" in capsys.readouterr().err

    def test_missing_class_exits_one_naming_the_absent_labels(self, tmp_path, capsys):
        fpath = tmp_path / "features.csv"
        fpath.write_text("1,0,1\n0,1,1\n1,0,1\n0,1,5\n")
        assert main(["ingest", str(fpath), "--out", str(tmp_path / "out")]) == 1
        assert "absent labels: [2, 3, 4]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_superclass_map_of_more_classes_exits_one(self, tmp_path, capsys):
        fpath, spath = tmp_path / "features.csv", tmp_path / "superclasses.csv"
        fpath.write_text("1,0,0,1\n0,1,0,2\n0,0,1,3\n")
        spath.write_text("1,1\n2,1\n3,2\n4,2\n")
        assert main(["ingest", str(fpath), "--superclasses", str(spath),
                     "--out", str(tmp_path / "out")]) == 1
        assert ("the superclass map lists 4 classes but the labels cover 3"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_orthonormal_single_samples(self, tmp_path):
        fpath = tmp_path / "features.csv"
        fpath.write_text("1,0,0,1\n0,1,0,2\n0,0,1,3\n")
        assert main(["ingest", str(fpath), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "ingest.json").read_text())
        assert report["statistics"]["same_class"] is None
        assert report["fitted"]["d"] == pytest.approx(0.0, abs=1e-12)

    def test_suggest_lambda_hits_target(self):
        lam = suggest_lambda(0.4, 0.1, 4, 100, 2.0)
        from distillab import theory_constants

        model = GramModel(case=GramCase.III, K=4, n=100, c=0.4, d=0.1)
        tc = theory_constants(model, lam)
        assert tc.q / tc.p == pytest.approx(2.0, abs=1e-12)

    def test_infeasible_target_returns_none(self):
        assert suggest_lambda(0.4, 0.4 - 1e-9, 4, 2, 2.0) is None

    def test_slightly_off_norms_renormalized_with_warning(self, tmp_path):
        from distillab import FeatureMatrix

        fpath = tmp_path / "features.csv"
        fpath.write_text("1.004,0,1\n0,0.997,2\n")
        with pytest.warns(UserWarning, match="renormalizing"):
            fm = FeatureMatrix.from_csv(fpath)
        np.testing.assert_allclose(np.linalg.norm(fm.features, axis=1), 1.0, atol=1e-12)

    def test_far_off_norms_rejected(self, tmp_path):
        from distillab import FeatureMatrix

        fpath = tmp_path / "features.csv"
        fpath.write_text("1.2,0,1\n0,1,2\n")
        with pytest.raises(ValidationError):
            FeatureMatrix.from_csv(fpath)


class TestStartup:
    def test_cli_import_leaves_the_process_pool_out(self):
        # the pool's modules are imported only for a sweep with workers > 1
        code = ("import sys, distillab.cli\n"
                "print([m for m in ('concurrent.futures.process', 'multiprocessing')"
                " if m in sys.modules])")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True, timeout=60)
        assert out.stdout.strip() == "[]"


    # the solver starts at the zero dual, so an unperturbed oracle run draws
    # no random number either
    @pytest.mark.parametrize("command,modes", [("approx-error", ["oracle"]),
                                               ("phase", ["oracle", "pll"])])
    def test_unperturbed_oracle_run_never_imports_numpy_random(self, tmp_path, command, modes):
        cfg = write_config(tmp_path, gram={"case": "III", "K": 4, "n": 12, "c": 0.4, "d": 0.1},
                           modes=modes, t_max=2, lam=1e-3)
        code = ("import sys\nfrom distillab import cli\n"
                f"assert cli.main([{command!r}, '--config', {str(cfg)!r}]) == 0\n"
                "print('numpy.random' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True, timeout=60)
        assert out.stdout.split()[-1] == "False"

    def test_unperturbed_phase_draws_no_labels(self, tmp_path):
        # the run reads the label counts only: no per-sample shuffle, so
        # numpy.random is never imported
        cfg = write_config(tmp_path, gram={"case": "III", "K": 4, "n": 12, "c": 0.4, "d": 0.1},
                           sweep_parameter="eta", sweep_values=[0.0, 0.25, 0.5])
        code = ("import sys\nfrom distillab import cli\n"
                f"assert cli.main(['phase', '--config', {str(cfg)!r}]) == 0\n"
                "print('numpy.random' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True, timeout=60)
        assert out.stdout.split()[-1] == "False"
        rows = read_csv_rows(tmp_path / "out" / "phase.csv")[1]
        assert len(rows) == 15 and all(row[3] for row in rows)


class TestDeterminism:
    # unperturbed case III; and perturbed case IV, whose oracle rounds run on
    # the helper thread beside the dense eigensystem and its factor
    RERUN_CONFIGS = {
        "III": dict(gram={"case": "III", "K": 3, "n": 12, "c": 0.5, "d": 0.2},
                    corruption={"kind": "symmetric", "eta": 0.5}),
        "IV-perturbed": dict(gram={"case": "IV", "K": 4, "n": 20, "c": 0.4, "d": 0.1,
                                   "superclass_sizes": [2, 2],
                                   "perturbation_amplitude": 0.01},
                             corruption={"kind": "superclass", "eta": 0.3},
                             lam=1e-3, modes=["closed_form", "pll", "oracle"]),
    }

    @pytest.mark.parametrize("name", sorted(RERUN_CONFIGS))
    def test_rerun_byte_identical(self, tmp_path, name):
        cfg = write_config(tmp_path, t_max=2, output_dir=str(tmp_path / "a"),
                           **self.RERUN_CONFIGS[name])
        assert main(["trajectory", "--config", str(cfg)]) == 0
        assert main(["trajectory", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        for file in sorted(os.listdir(tmp_path / "a")):
            assert filecmp.cmp(tmp_path / "a" / file, tmp_path / "b" / file, shallow=False), file
