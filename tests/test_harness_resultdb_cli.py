"""Unit tests for the ResultDB and the Altis-style CLI driver."""

import pytest

from repro.common.errors import InvalidParameterError
from repro.harness.cli import build_parser, main, run_benchmark
from repro.harness.resultdb import Result, ResultDB


class TestResult:
    def test_statistics(self):
        r = Result(test="t", attribute="a", unit="s")
        for v in (1.0, 2.0, 3.0, 4.0):
            r.add(v)
        assert r.count == 4
        assert r.min == 1.0 and r.max == 4.0
        assert r.mean == pytest.approx(2.5)
        assert r.median == pytest.approx(2.5)
        assert r.stddev == pytest.approx(1.2909944, rel=1e-6)

    def test_odd_median(self):
        r = Result(test="t", attribute="a", unit="s", values=[3.0, 1.0, 2.0])
        assert r.median == 2.0

    def test_single_value_stddev_zero(self):
        r = Result(test="t", attribute="a", unit="s", values=[5.0])
        assert r.stddev == 0.0

    def test_rejects_non_finite(self):
        r = Result(test="t", attribute="a", unit="s")
        with pytest.raises(InvalidParameterError):
            r.add(float("nan"))
        with pytest.raises(InvalidParameterError):
            r.add(float("inf"))


class TestResultDB:
    def test_accumulates_passes(self):
        db = ResultDB()
        for v in (1.0, 2.0, 3.0):
            db.add_result("KMeans", "kernel_time", "s", v)
        assert len(db) == 1
        assert db.get("KMeans", "kernel_time").count == 3

    def test_unit_consistency_enforced(self):
        db = ResultDB()
        db.add_result("t", "bw", "GB/s", 100.0)
        with pytest.raises(InvalidParameterError):
            db.add_result("t", "bw", "MB/s", 1.0)

    def test_missing_result_raises(self):
        with pytest.raises(KeyError):
            ResultDB().get("nope", "nothing")

    def test_render_contains_stats_columns(self):
        db = ResultDB()
        db.add_result("NW", "kernel_time", "s", 0.5)
        text = db.render()
        assert "median" in text and "stddev" in text and "NW" in text


class TestCli:
    def test_parser_run_defaults(self):
        args = build_parser().parse_args(["run", "KMeans"])
        assert args.size == 1 and args.device == "rtx2080"

    def test_parser_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "BFS2000"])

    def test_run_benchmark_fills_db(self):
        from repro.altis import Variant

        db = ResultDB()
        run_benchmark("Mandelbrot", 1, "rtx2080", 2, Variant.SYCL_OPT,
                      None, db)
        assert db.get("Mandelbrot", "kernel_time").count == 2
        assert db.get("Mandelbrot", "modeled_size1").count == 1

    def test_main_run(self, capsys):
        assert main(["run", "Where", "--passes", "2", "--quiet"]) == 0

    def test_main_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "KMeans" in out and "stratix10" in out

    def test_main_synth(self, capsys):
        assert main(["synth", "NW", "--device", "stratix10"]) == 0
        out = capsys.readouterr().out
        assert "Fmax" in out

    def test_main_synth_failure_exit_code(self, capsys):
        # DWT2D has no optimized FPGA design (paper §5.4)
        assert main(["synth", "DWT2D"]) == 1
        assert "failed" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["run", "SRAD", "--device", "stratix10"],
         "run failed: work-group size 256 exceeds the device limit 128"),
        (["run", "DWT2D", "--device", "stratix10", "--variant", "fpga_opt"],
         "run failed: DWT2D has no optimized FPGA design"),
        (["profile", "srad", "--device", "stratix10", "--quick"],
         "profile failed: work-group size 256 exceeds the device limit"),
        (["run", "NW", "--device", "stratix10", "--variant", "cuda"],
         "run failed: no overhead model for runtime 'cuda' on fpga "
         "device 'stratix10'"),
    ], ids=["run-launch-error", "run-no-design", "profile-launch-error",
            "run-no-runtime-model"])
    def test_run_and_profile_failures_are_one_line(self, argv, message,
                                                   capsys, tmp_path,
                                                   monkeypatch):
        """A failing run prints one line and exits 1, as ``synth`` and
        ``suite`` do, instead of a traceback; ``profile`` writes no
        artifacts."""
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert out.startswith(message)
        assert out.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_main_figures_table2(self, capsys):
        assert main(["figures", "table2"]) == 0
        assert "Xeon" in capsys.readouterr().out

    def test_main_migrate(self, capsys):
        assert main(["migrate"]) == 0
        out = capsys.readouterr().out
        assert "2,535" in out or "2535" in out

    @pytest.mark.parametrize("retired", ["bench", "perfdiff"])
    def test_warm_benchmark_subcommands_are_gone(self, retired):
        with pytest.raises(SystemExit):
            build_parser().parse_args([retired])

    @pytest.mark.parametrize("argv", [
        ["suite", "--workers", "2"],
        ["figures", "table2", "--workers", "2"],
    ], ids=["suite", "figures"])
    def test_worker_pool_flags_are_gone(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["run", "NW", "--passes", "0"],
        ["run", "NW", "--passes", "-2"],
        ["run", "NW", "--scale", "-1"],
        ["run", "NW", "--scale", "0"],
        ["run", "NW", "--scale", "nan"],
        ["profile", "nw", "--scale", "0"],
        ["profile", "nw", "--scale", "-0.5"],
    ], ids=["passes-0", "passes-neg", "run-scale-neg", "run-scale-0",
            "run-scale-nan", "profile-scale-0", "profile-scale-neg"])
    def test_bad_counts_and_scales_are_usage_errors(self, argv, capsys):
        """A non-positive ``--passes`` used to run nothing and still
        print a report; a non-positive ``--scale`` ran a meaningless
        workload.  Both now exit 2 before any work."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite and > 0" in captured.err

    @pytest.mark.parametrize("seed,message", [
        ("-1", "must be >= 0"),
        ("-7", "must be >= 0"),
        ("x", "invalid int value"),
    ], ids=["neg-1", "neg-7", "not-int"])
    def test_bad_profile_seed_is_usage_error(self, seed, message, capsys):
        """A negative ``profile --seed`` used to reach numpy and die with
        a raw ``ValueError`` traceback; it now exits 2 before any work."""
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "nw", "--seed", seed])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_bench_environment_contract():
    """perfbench stamps every record with this, so the keys must be
    there and the value must not change within a process."""
    from repro.harness.bench import __all__ as bench_exports
    from repro.harness.bench import bench_environment

    env = bench_environment()
    assert {"python", "platform", "machine", "cpu_count"} <= set(env)
    assert env == bench_environment()
    assert bench_exports == ["bench_environment"]
