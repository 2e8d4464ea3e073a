import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mtl21
from mtl21.cli import BENCH_COLUMNS, PATH_COLUMNS, build_parser, main


def child_env():
    """The environment of a child Python that imports the mtl21 under test,
    installed or not."""
    src = str(Path(mtl21.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def read_csv(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def col(header, rows, name, conv=float):
    i = header.index(name)
    return [conv(r[i]) for r in rows]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "s1"
    rc = main(
        [
            "synth",
            "--kind",
            "s1",
            "--tasks",
            "3",
            "--n",
            "20",
            "--d",
            "30",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    return out


class TestSynth:
    def test_writes_dataset_and_truth(self, dataset_dir):
        assert (dataset_dir / "meta.json").is_file()
        assert (dataset_dir / "truth.csv").is_file()
        for t in range(3):
            assert (dataset_dir / f"task_{t}.csv").is_file()
        meta = json.loads((dataset_dir / "meta.json").read_text())
        assert meta["T"] == 3
        assert meta["d"] == 30
        assert meta["kind"] == "s1"

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        rc = main(
            [
                "synth",
                "--kind",
                "s1",
                "--tasks",
                "2",
                "--n",
                "5",
                "--d",
                "10",
                "--support-fraction",
                "0",
                "--out",
                str(tmp_path / "bad"),
            ]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestPath:
    def test_csv_schema_and_head_row(self, dataset_dir, tmp_path):
        out = tmp_path / "path.csv"
        rc = main(["path", str(dataset_dir), "--out", str(out), "--grid-points", "12"])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == PATH_COLUMNS
        assert len(rows) == 12
        rel = col(header, rows, "lambda_rel")
        assert rel[0] == 1.0
        assert all(b < a for a, b in zip(rel, rel[1:]))
        assert col(header, rows, "rejection_ratio")[0] == 1.0
        assert col(header, rows, "status", str) == ["ok"] * 12

    def test_five_point_grid_ratios(self, dataset_dir, tmp_path):
        out = tmp_path / "g5.csv"
        rc = main(["path", str(dataset_dir), "--out", str(out), "--grid-points", "5"])
        assert rc == 0
        header, rows = read_csv(out)
        expected = [
            1.0,
            0.31622776601683794,
            0.1,
            0.03162277660168379,
            0.01,
        ]
        got = col(header, rows, "lambda_rel")
        np.testing.assert_allclose(got, expected, rtol=1e-11)

    def test_screen_none_matches_dpc_objectives(self, dataset_dir, tmp_path):
        out_d = tmp_path / "dpc.csv"
        out_n = tmp_path / "none.csv"
        assert main(["path", str(dataset_dir), "--out", str(out_d), "--grid-points", "10"]) == 0
        assert (
            main(
                [
                    "path",
                    str(dataset_dir),
                    "--out",
                    str(out_n),
                    "--grid-points",
                    "10",
                    "--screen",
                    "none",
                ]
            )
            == 0
        )
        hd, rd = read_csv(out_d)
        hn, rn = read_csv(out_n)
        obj_d = np.array(col(hd, rd, "objective"))
        obj_n = np.array(col(hn, rn, "objective"))
        np.testing.assert_allclose(obj_d, obj_n, rtol=1e-6)
        # the unscreened run never screens
        assert col(hn, rn, "n_screened", int)[1:] == [0] * 9

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        rc = main(["path", str(tmp_path / "nope"), "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_corrupt_cell_exits_2_with_diagnostics(self, dataset_dir, tmp_path, capsys):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(dataset_dir, broken)
        task = broken / "task_1.csv"
        lines = task.read_text().splitlines()
        fields = lines[2].split(",")
        fields[3] = "oops"
        lines[2] = ",".join(fields)
        task.write_text("\n".join(lines) + "\n")
        rc = main(["path", str(broken), "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "task_1.csv" in err

    def test_solver_failure_exits_3_with_partial_csv(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "partial.csv"
        rc = main(
            [
                "path",
                str(dataset_dir),
                "--out",
                str(out),
                "--grid-points",
                "6",
                "--kkt-tol",
                "1e-12",
                "--max-iters",
                "1",
            ]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "partial" in err
        header, rows = read_csv(out)
        status = col(header, rows, "status", str)
        assert status[-1] == "solver-failure"
        assert all(s == "ok" for s in status[:-1])


class TestBench:
    def test_csv_json_and_speedup_identity(self, dataset_dir, tmp_path):
        out = tmp_path / "bench.csv"
        jout = tmp_path / "bench.json"
        rc = main(
            [
                "bench",
                str(dataset_dir),
                "--out",
                str(out),
                "--json",
                str(jout),
                "--grid-points",
                "8",
                "--reps",
                "2",
            ]
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == BENCH_COLUMNS
        assert len(rows) == 8
        rel = col(header, rows, "lambda_rel")
        assert rel[0] == 1.0
        assert all(b < a for a, b in zip(rel, rel[1:]))
        summary = json.loads(jout.read_text())
        t_with = summary["t_total_with_dpc"]
        t_without = summary["t_total_without_dpc"]
        assert summary["speedup"] == pytest.approx(t_without / t_with, rel=1e-12)
        ts = sum(col(header, rows, "t_screen_s"))
        tt = sum(col(header, rows, "t_solve_s"))
        assert t_with == pytest.approx(ts + tt, rel=1e-9)
        assert summary["screen_overhead_fraction"] == pytest.approx(
            ts / (ts + tt), rel=1e-9
        )
        assert summary["reps"] == 2
        assert summary["levels"] == 8
        assert "cpu_model" in summary
        assert "numpy_version" in summary
        assert summary["dataset_meta"]["kind"] == "s1"

    def test_bad_reps_exits_2(self, dataset_dir, tmp_path, capsys):
        rc = main(
            ["bench", str(dataset_dir), "--out", str(tmp_path / "b.csv"), "--reps", "0"]
        )
        assert rc == 2
        assert "reps" in capsys.readouterr().err


@pytest.fixture(scope="module")
def zero_response_dir(tmp_path_factory):
    # every response is zero, so no all-zero threshold exists
    from mtl21.core import MultiTaskDataset, save_dataset

    rng = np.random.default_rng(3)
    ds = MultiTaskDataset([(rng.standard_normal((6, 5)), np.zeros(6)) for _ in range(2)])
    return save_dataset(ds, tmp_path_factory.mktemp("zero") / "ds")


path_and_bench = pytest.mark.parametrize("command", ["path", "bench"])


class TestBadInputExits2:
    def assert_one_error_line(self, capsys, rc, needle):
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert needle in err

    @path_and_bench
    def test_all_zero_responses(self, command, zero_response_dir, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = main([command, str(zero_response_dir), "--out", str(out)])
        self.assert_one_error_line(capsys, rc, "orthogonal")
        assert not out.exists()

    @pytest.mark.parametrize("suite", ["all", "safety", "containment", "gap"])
    def test_verify_all_zero_responses(self, suite, zero_response_dir, capsys):
        rc = main(["verify", str(zero_response_dir), "--suite", suite])
        self.assert_one_error_line(capsys, rc, "orthogonal")
        # rejected before any suite ran: no result table was printed
        assert capsys.readouterr().out == ""

    def test_verify_qp1qc_ignores_the_responses(self, zero_response_dir, capsys):
        rc = main(["verify", str(zero_response_dir), "--suite", "qp1qc", "--cases", "20"])
        assert rc == 0
        assert "qp1qc" in capsys.readouterr().out

    def test_task_with_no_rows(self, dataset_dir, tmp_path, capsys):
        import shutil

        empty = tmp_path / "empty"
        shutil.copytree(dataset_dir, empty)
        meta = json.loads((empty / "meta.json").read_text())
        meta["n"][1] = 0
        (empty / "meta.json").write_text(json.dumps(meta))
        (empty / "task_1.csv").write_text("")
        out = tmp_path / "o.csv"
        rc = main(["path", str(empty), "--out", str(out)])
        self.assert_one_error_line(capsys, rc, "task 1 has no samples")
        assert not out.exists()

    @path_and_bench
    @pytest.mark.parametrize(
        "flag,value",
        [("--kkt-tol", "0"), ("--max-iters", "0"), ("--kkt-tol", "inf")],
        ids=["--kkt-tol", "--max-iters", "--kkt-tol-inf"],
    )
    def test_nonpositive_solver_setting(self, command, flag, value, dataset_dir, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = main([command, str(dataset_dir), "--out", str(out), flag, value])
        self.assert_one_error_line(capsys, rc, flag[2:].replace("-", "_"))
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--kkt-tol", "0"),
            ("--kkt-tol", "-1"),
            ("--kkt-tol", "nan"),
            ("--kkt-tol", "inf"),
            ("--cases", "-5"),
            ("--seed", "-1"),
        ],
    )
    def test_bad_verify_setting(self, flag, value, dataset_dir, capsys):
        rc = main(["verify", str(dataset_dir), "--suite", "qp1qc", flag, value])
        self.assert_one_error_line(capsys, rc, flag[2:].replace("-", "_"))
        # rejected before any suite ran: no result table was printed
        assert capsys.readouterr().out == ""

    @path_and_bench
    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    def test_unwritable_out_exits_before_the_walk(
        self, command, where, dataset_dir, tmp_path, capsys, monkeypatch
    ):
        import mtl21.cli

        def no_walk(*args, **kwargs):
            raise AssertionError("the path was walked before the output was checked")

        monkeypatch.setattr(mtl21.cli, "_run_path", no_walk)
        out = tmp_path / "missing" / "o.csv" if where == "missing-dir" else tmp_path
        rc = main([command, str(dataset_dir), "--out", str(out)])
        self.assert_one_error_line(capsys, rc, str(out))

    def test_bench_needs_two_levels(self, dataset_dir, tmp_path, capsys, monkeypatch):
        # one level is the closed-form head: nothing to time, and a speedup
        # of 0/0 that JSON cannot hold
        import mtl21.cli

        def no_walk(*args, **kwargs):
            raise AssertionError("the path was walked")

        monkeypatch.setattr(mtl21.cli, "_run_path", no_walk)
        out, summary = tmp_path / "b.csv", tmp_path / "b.json"
        rc = main(["bench", str(dataset_dir), "--out", str(out), "--json", str(summary),
                   "--grid-points", "1"])
        self.assert_one_error_line(capsys, rc, "--grid-points")
        assert not out.exists() and not summary.exists()

    def test_unwritable_json_leaves_the_csv_alone(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "o.csv"
        out.write_text("kept\n")
        fresh = tmp_path / "fresh.csv"
        bad = str(tmp_path / "missing" / "s.json")
        for csv in (out, fresh):
            rc = main(["bench", str(dataset_dir), "--out", str(csv), "--json", bad])
            self.assert_one_error_line(capsys, rc, bad)
        assert out.read_text() == "kept\n"
        assert not fresh.exists()

    def test_unwritable_synth_out(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "data"
        rc = main(
            ["synth", "--kind", "s1", "--tasks", "2", "--n", "5", "--d", "10",
             "--out", str(out)]
        )
        self.assert_one_error_line(capsys, rc, str(out))

    @pytest.mark.parametrize("command", ["path", "verify"])
    def test_meta_json_that_is_not_an_object(self, command, tmp_path, capsys):
        # valid JSON, but no object of counts: once a TypeError and exit 1
        (tmp_path / "meta.json").write_text("5")
        out = ["--out", str(tmp_path / "o.csv")] if command == "path" else []
        rc = main([command, str(tmp_path), *out])
        self.assert_one_error_line(capsys, rc, str(tmp_path / "meta.json"))

    def test_negative_synth_seed(self, tmp_path, capsys):
        out = tmp_path / "neg"
        rc = main(
            ["synth", "--kind", "s1", "--tasks", "2", "--n", "5", "--d", "10",
             "--seed", "-1", "--out", str(out)]
        )
        self.assert_one_error_line(capsys, rc, "seed")
        assert not out.exists()


    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise_scale(self, value, tmp_path, capsys):
        out = tmp_path / "noisy"
        rc = main(
            ["synth", "--kind", "s1", "--tasks", "2", "--n", "5", "--d", "10",
             "--noise-scale", value, "--out", str(out)]
        )
        self.assert_one_error_line(capsys, rc, "noise_scale")
        assert not out.exists()


class TestVerify:
    def test_defaults_pass_on_fresh_dataset(self, dataset_dir, capsys):
        rc = main(["verify", str(dataset_dir), "--cases", "60"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(ln.startswith("safety") and "pass" in ln for ln in lines)
        assert any(ln.startswith("containment") and "pass" in ln for ln in lines)
        assert any(ln.startswith("qp1qc") and "pass" in ln for ln in lines)
        assert any(ln.startswith("gap") and "pass" in ln for ln in lines)

    def test_qp1qc_suite_passes_at_its_defaults(self, dataset_dir, capsys):
        # 200 cases, each against a 20000-sample oracle polished by ascent
        rc = main(["verify", str(dataset_dir), "--suite", "qp1qc"])
        assert rc == 0
        assert any(
            ln.startswith("qp1qc") and "pass" in ln for ln in capsys.readouterr().out.splitlines()
        )

    def test_single_suite_selection(self, dataset_dir, capsys):
        rc = main(["verify", str(dataset_dir), "--suite", "qp1qc", "--cases", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "qp1qc" in out
        assert "safety" not in out

    def test_qp1qc_suite_needs_no_dataset(self, tmp_path, capsys):
        # the qp1qc cases are self-contained, so the dataset is not read
        rc = main(["verify", str(tmp_path / "missing"), "--suite", "qp1qc", "--cases", "20"])
        assert rc == 0
        assert any(
            ln.startswith("qp1qc") and "pass" in ln for ln in capsys.readouterr().out.splitlines()
        )

    def test_failed_suite_exits_1(self, dataset_dir, monkeypatch):
        import mtl21.checks

        monkeypatch.setattr(
            mtl21.checks, "run_suites", lambda *a, **k: False
        )
        rc = main(["verify", str(dataset_dir)])
        assert rc == 1


class TestExitCodeMap:
    """Whatever a command raises, ``main`` turns into one ``error:`` line and
    the documented code: 3 for a solver failure, 2 for any other package
    error, a bad value or an I/O failure."""

    @pytest.mark.parametrize("command", ["synth", "path", "bench", "verify"])
    @pytest.mark.parametrize(
        "error,code",
        [
            (OSError("boom"), 2),
            (mtl21.DatasetFormatError("boom"), 2),
            (mtl21.SolverFailure("boom"), 3),
        ],
        ids=["os", "mtl", "solver"],
    )
    def test_raised_error_maps_to_its_code(
        self, command, error, code, dataset_dir, tmp_path, capsys, monkeypatch
    ):
        import mtl21.cli
        import mtl21.synth

        def fail(*args, **kwargs):
            raise error

        if command == "synth":
            monkeypatch.setattr(mtl21.synth, "write_benchmark", fail)
            argv = ["synth", "--kind", "s1", "--tasks", "2", "--n", "5", "--d", "10",
                    "--out", str(tmp_path / "ds")]
        else:
            monkeypatch.setattr(mtl21.cli, "_load_validated", fail)
            argv = [command, str(dataset_dir)]
            if command != "verify":
                argv += ["--out", str(tmp_path / "o.csv")]
        rc = main(argv)
        assert rc == code
        captured = capsys.readouterr()
        assert captured.err == "error: boom\n"
        assert captured.out == ""

    def test_verify_on_a_name_too_long_for_the_os(self, tmp_path, capsys):
        rc = main(["verify", str(tmp_path / ("x" * 300)), "--suite", "safety"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestThreads:
    def test_env_var_garbage_exits_2(self, dataset_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MTFL_THREADS", "many")
        rc = main(["path", str(dataset_dir), "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "MTFL_THREADS" in capsys.readouterr().err

    def test_flag_overrides_env(self, dataset_dir, tmp_path, monkeypatch):
        pools = (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS",
            "BLIS_NUM_THREADS",
        )
        for var in pools:
            monkeypatch.setenv(var, "2")
        monkeypatch.setenv("MTFL_THREADS", "many")  # ignored when --threads given
        out = tmp_path / "o.csv"
        rc = main(
            [
                "path",
                str(dataset_dir),
                "--out",
                str(out),
                "--grid-points",
                "4",
                "--threads",
                "1",
            ]
        )
        assert rc == 0
        assert {var: os.environ[var] for var in pools} == dict.fromkeys(pools, "1")

    def test_cli_import_loads_no_numpy(self):
        # the thread cap only takes effect if numpy is first imported after it
        code = "import sys, mtl21.cli; sys.exit('numpy' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr or "numpy was imported"

    def test_nonpositive_thread_count_exits_2(self, dataset_dir, tmp_path, capsys):
        rc = main(
            [
                "path",
                str(dataset_dir),
                "--out",
                str(tmp_path / "o.csv"),
                "--threads",
                "0",
            ]
        )
        assert rc == 2
        assert "thread" in capsys.readouterr().err


class TestParser:
    def test_path_and_bench_share_the_walk_options(self):
        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )

        def walk_options(command):
            return {
                a.dest: (a.option_strings, a.type, a.default, a.help)
                for a in sub.choices[command]._actions
                if a.dest in ("grid_points", "grid_min", "kkt_tol", "max_iters", "threads")
            }

        path = walk_options("path")
        assert len(path) == 5
        assert all(help_ for *_, help_ in path.values())
        assert walk_options("bench") == path

    def test_verify_suite_choices_are_the_checks_suites(self):
        # cli.py lists them by hand so that it imports no numerical module
        # before the thread pin
        from mtl21.checks import SUITES

        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        (suite,) = (a for a in sub.choices["verify"]._actions if a.dest == "suite")
        assert tuple(suite.choices) == ("all", *SUITES)


class TestModuleDispatch:
    def test_python_dash_m_synth(self, tmp_path):
        out = tmp_path / "ds"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "mtl21",
                "synth",
                "--kind",
                "s2",
                "--tasks",
                "2",
                "--n",
                "8",
                "--d",
                "12",
                "--seed",
                "1",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "meta.json").is_file()
        assert "wrote" in proc.stdout
