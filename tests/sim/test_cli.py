"""Tests for the command-line interface."""

import pytest

from repro.cli import CONFIG_PRESETS, main
from repro.figures.pipeline import run_paper
from repro.traces.cache import TraceCache


class TestList:
    def test_lists_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "swim" in out
        assert "mcf" in out
        assert "category" in out


class TestDescribe:
    def test_prints_table1(self, capsys):
        assert main(["describe"]) == 0
        out = capsys.readouterr().out
        assert "32KB" in out
        assert "70 cycles" in out


class TestRun:
    def test_plain_run(self, capsys):
        assert main(["run", "gzip", "--length", "3000"]) == 0
        out = capsys.readouterr().out
        assert "gzip" in out
        assert "IPC" in out

    def test_run_with_prefetcher(self, capsys):
        assert main(["run", "swim", "--length", "3000",
                     "--prefetcher", "timekeeping"]) == 0
        assert "prefetch" in capsys.readouterr().out

    def test_run_with_victim_filter(self, capsys):
        assert main(["run", "vpr", "--length", "3000",
                     "--victim-filter", "timekeeping"]) == 0
        assert "victim" in capsys.readouterr().out

    def test_run_with_decay(self, capsys):
        assert main(["run", "swim", "--length", "3000",
                     "--decay-interval", "4096"]) == 0
        assert "decay" in capsys.readouterr().out

    def test_run_with_zero_decay_interval_is_refused(self, capsys):
        # 0 reaches DecayPolicy, which refuses it, rather than running
        # without decay.
        assert main(["run", "gzip", "--length", "100",
                     "--decay-interval", "0"]) == 1
        assert "decay_interval must be positive" in capsys.readouterr().err

    def test_run_perfect(self, capsys):
        assert main(["run", "gzip", "--length", "3000", "--perfect"]) == 0

    def test_unknown_workload_fails_cleanly(self, capsys):
        assert main(["run", "doom3", "--length", "100"]) == 1
        assert "error" in capsys.readouterr().err


class TestCompare:
    def test_compare_presets(self, capsys):
        assert main(["compare", "gzip", "--length", "3000",
                     "--configs", "base,victim_tk"]) == 0
        out = capsys.readouterr().out
        assert "victim_tk" in out
        assert "vs base" in out

    def test_unknown_config_rejected(self, capsys):
        assert main(["compare", "gzip", "--configs", "warp-drive"]) == 1
        assert "unknown configs" in capsys.readouterr().err

    def test_all_presets_are_valid_simulate_kwargs(self):
        from repro.sim.sweep import run_workload
        for name, config in CONFIG_PRESETS.items():
            run_workload("gzip", {name: dict(config)}, length=300, warmup=0)


class TestMetrics:
    def test_metrics_summary(self, capsys):
        assert main(["metrics", "vpr", "--length", "4000"]) == 0
        out = capsys.readouterr().out
        assert "zero-live-time generations" in out
        assert "conflict miss share" in out


class TestSweep:
    def test_basic_sweep(self, capsys):
        assert main(["sweep", "--workloads", "gzip,eon",
                     "--configs", "base,victim_tk",
                     "--length", "1500", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "base IPC" in out
        assert "victim_tk IPC" in out
        assert "gzip" in out and "eon" in out
        assert "0 failed" in out

    def test_sweep_parallel_with_store_and_resume(self, capsys, tmp_path):
        store = str(tmp_path / "out.jsonl")
        args = ["sweep", "--workloads", "gzip,eon", "--configs", "base",
                "--length", "1500", "--workers", "2", "--store", store, "--quiet"]
        assert main(args) == 0
        assert "(0 replayed from store)" in capsys.readouterr().out
        assert main(args + ["--resume"]) == 0
        assert "(2 replayed from store)" in capsys.readouterr().out

    def test_sweep_unknown_config(self, capsys):
        assert main(["sweep", "--workloads", "gzip",
                     "--configs", "warp-drive", "--quiet"]) == 1
        assert "unknown configs" in capsys.readouterr().err

    def test_sweep_unknown_workload_is_clean_error(self, capsys):
        assert main(["sweep", "--workloads", "warp9", "--quiet"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_sweep_store_without_resume_is_clean_error(self, capsys, tmp_path):
        store = str(tmp_path / "out.jsonl")
        args = ["sweep", "--workloads", "gzip", "--configs", "base",
                "--length", "800", "--store", store, "--quiet"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 1
        assert "resume" in capsys.readouterr().err

    def test_sweep_progress_on_stderr(self, capsys):
        assert main(["sweep", "--workloads", "gzip", "--configs", "base",
                     "--length", "800"]) == 0
        assert "running gzip:base" in capsys.readouterr().err


class TestSweepTelemetry:
    def test_trace_out_writes_valid_chrome_trace(self, capsys, tmp_path):
        import json

        from repro.obs.tracing import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        assert main(["sweep", "--workloads", "gzip", "--configs", "base,victim_tk",
                     "--length", "1200", "--trace-out", str(trace_path),
                     "--quiet"]) == 0
        assert "wrote Chrome trace" in capsys.readouterr().err
        trace = json.loads(trace_path.read_text())
        assert validate_chrome_trace(trace) == []
        names = {e["name"] for e in trace["traceEvents"]}
        assert {"synthesis", "simulate", "serialize"} <= names

    def test_log_json_writes_lifecycle_events(self, capsys, tmp_path):
        import json

        log_path = tmp_path / "events.jsonl"
        assert main(["sweep", "--workloads", "gzip", "--configs", "base",
                     "--length", "1200", "--log-json", str(log_path),
                     "--quiet"]) == 0
        kinds = [json.loads(line)["event"]
                 for line in log_path.read_text().splitlines()]
        assert kinds[0] == "sweep.start"
        assert "cell.ok" in kinds
        assert kinds[-1] == "sweep.end"

    def test_progress_flag_renders_status_line(self, capsys):
        assert main(["sweep", "--workloads", "gzip", "--configs", "base",
                     "--length", "1200", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[1/1]" in err
        assert "ok=1 failed=0" in err


class TestReport:
    def _sweep_into(self, tmp_path, extra=()):
        store = str(tmp_path / "run.jsonl")
        assert main(["sweep", "--workloads", "gzip,eon", "--configs", "base",
                     "--length", "1200", "--store", store, "--quiet",
                     *extra]) == 0
        return store

    def test_status_table(self, capsys, tmp_path):
        store = self._sweep_into(tmp_path)
        capsys.readouterr()
        assert main(["report", store]) == 0
        out = capsys.readouterr().out
        assert "gzip" in out and "eon" in out
        assert "2 ok" in out

    def test_provenance_line_from_manifest(self, capsys, tmp_path):
        from repro.sim.store import RunStore

        store = self._sweep_into(tmp_path)
        manifest, _ = RunStore(store).load()
        capsys.readouterr()
        assert main(["report", store]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("provenance:")]
        assert lines == [
            f"provenance: git_rev {manifest['git_rev']}, "
            f"host {manifest['host']}, python {manifest['python']}"
        ]

    def test_timing_breakdown_from_store(self, capsys, tmp_path):
        # --trace-out forces telemetry collection, so the store carries
        # per-cell phase timings for the report to rebuild.
        store = self._sweep_into(
            tmp_path, extra=["--trace-out", str(tmp_path / "t.json")])
        capsys.readouterr()
        assert main(["report", store, "--timing"]) == 0
        out = capsys.readouterr().out
        assert "phase totals" in out
        assert "simulate" in out

    def test_timing_without_telemetry_explains_itself(self, capsys, tmp_path):
        store = self._sweep_into(tmp_path)
        capsys.readouterr()
        assert main(["report", store, "--timing"]) == 0
        out = capsys.readouterr().out
        assert "no telemetry in this store" in out
        # The notice replaces the breakdown: an all-dashes table would
        # read as "every phase took no time".
        assert "time breakdown" not in out
        assert "gzip" not in out

    def test_missing_store_is_clean_error(self, capsys, tmp_path):
        assert main(["report", str(tmp_path / "absent.jsonl")]) == 1
        err = capsys.readouterr().err
        assert "error: store not found" in err
        assert "Traceback" not in err

    def test_missing_store_repair_leaves_no_droppings(self, capsys, tmp_path):
        # --repair used to construct the store (creating a .lock
        # sidecar) before discovering the file was absent.
        absent = tmp_path / "absent.jsonl"
        assert main(["report", str(absent), "--repair"]) == 1
        assert "error: store not found" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_empty_store_file_is_still_no_sweep_run(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.touch()
        assert main(["report", str(empty)]) == 1
        assert "no sweep run" in capsys.readouterr().err


class TestTrace:
    @pytest.mark.parametrize("argv,message", [
        (["build", "gzip", "--length", "-3"], "length must be >= 1, got -3"),
        (["build", "gzip", "--length", "100", "--warmup", "-5"],
         "warmup must be >= 0, got -5"),
        (["prewarm", "--workloads", "gzip", "--length", "-3"],
         "length must be >= 1, got -3"),
        (["prewarm", "--workloads", "gzip", "--length", "100", "--warmup", "-5"],
         "warmup must be >= 0, got -5"),
    ])
    def test_bad_length_or_warmup_refused_before_the_cache(
        self, capsys, tmp_path, argv, message
    ):
        # The error names the value given, and no lock file or entry is
        # left in the cache root.
        root = tmp_path / "cache"
        assert main(["trace", *argv, "--cache-root", str(root)]) == 1
        assert message in capsys.readouterr().err
        assert not root.exists()

    def test_prewarm_for_paper_is_the_trace_paper_reads(self, tmp_path):
        # `repro paper` warms up for length/2 (sweeps for length/3): a
        # prewarm given that warm-up caches the very traces a paper
        # campaign at the same length reads, so no second entry appears.
        root = tmp_path / "cache"
        length = 600
        assert main(["trace", "prewarm", "--workloads", "gzip,swim",
                     "--length", str(length), "--warmup", str(length // 2),
                     "--cache-root", str(root)]) == 0
        run = run_paper(only=["fig02"], out_dir=str(tmp_path / "out"),
                        length=length, workloads=["gzip", "swim"],
                        trace_cache=TraceCache(root=root), write_report=False)
        assert run.executed > 0
        entries = sorted(
            (meta["workload"], meta["length"])
            for _, meta in TraceCache(root=root).entries()
        )
        assert entries == [("gzip", 900), ("swim", 900)]


class TestPaper:
    @pytest.mark.parametrize("argv,message", [
        (["--workloads", "gzpi"], "unknown workload 'gzpi'"),
        (["--workloads", "gzip", "--workers", "0"], "workers must be >= 1, got 0"),
        (["--workloads", "gzip", "--retries", "-1"], "retries must be >= 0, got -1"),
        (["--workloads", "gzip", "--timeout", "0"], "timeout must be positive"),
    ])
    def test_bad_option_refused_before_out_dir(self, capsys, tmp_path, argv, message):
        # Exit 1 naming the value, and no --out directory is left behind.
        out = tmp_path / "D"
        assert main(["paper", "--only", "fig02", "--smoke", *argv,
                     "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestArgparse:
    def test_missing_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_seed_changes_nothing_structural(self, capsys):
        assert main(["run", "gzip", "--length", "2000", "--seed", "5"]) == 0
