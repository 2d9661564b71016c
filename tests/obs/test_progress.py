"""Tests for the live sweep progress renderer."""

import io

from repro.obs.progress import SweepObserver, SweepProgress


class _Report:
    def summary(self):
        return "16 cells: 16 ok, 0 failed, 0 retried in 1.0s"


def _progress(**kwargs):
    stream = io.StringIO()  # not a TTY: plain lines, no \r rewriting
    return SweepProgress(stream=stream, min_interval=0.0, **kwargs), stream


class TestSweepObserverBase:
    def test_all_hooks_are_noops(self):
        obs = SweepObserver()
        obs.on_sweep_start(4, 2)
        obs.on_cell_start("gzip", "base", 1)
        obs.on_cell_done("gzip", "base", True, 1, 0.5)
        obs.on_cell_done("gzip", "base", False, 2, 0.5, counters={"x": 1})
        obs.on_sweep_end(object())


class TestSweepProgress:
    def test_status_line_counts_cells(self):
        progress, _stream = _progress()
        progress.on_sweep_start(4, workers=2)
        progress.on_cell_done("gzip", "base", True, 1, 1.0)
        progress.on_cell_done("gzip", "victim", False, 3, 2.0)
        line = progress.status_line()
        assert "[2/4]" in line
        assert "ok=1 failed=1 retried=1" in line

    def test_sweeps_through_one_progress_add_up(self):
        # `repro paper` runs one sweep per plan group through one progress.
        progress, stream = _progress()
        for total in (3, 2):
            progress.on_sweep_start(total, workers=1)
            for _ in range(total):
                progress.on_cell_done("gzip", "base", True, 1, 0.5)
            progress.on_sweep_end(_Report())
        status = [line for line in stream.getvalue().splitlines()
                  if line.startswith("[")]
        assert status[3].startswith("[3/3]")
        assert status[-1].startswith("[5/5]")

    def test_eta_extrapolates_from_mean_elapsed_and_workers(self):
        progress, _stream = _progress()
        progress.on_sweep_start(6, workers=2)
        progress.on_cell_done("a", "base", True, 1, 4.0)
        progress.on_cell_done("b", "base", True, 1, 2.0)
        # 4 remaining cells x 3s mean / 2 workers = 6s.
        assert progress.eta_seconds() == 6.0
        assert "ETA 0:06" in progress.status_line()

    def test_eta_absent_before_first_cell_and_after_last(self):
        progress, _stream = _progress()
        assert progress.eta_seconds() is None
        progress.on_sweep_start(1, workers=1)
        progress.on_cell_done("a", "base", True, 1, 1.0)
        assert "ETA" not in progress.status_line()

    def test_cache_hit_rate_from_counters(self):
        progress, _stream = _progress()
        progress.on_sweep_start(4, workers=1)
        progress.on_cell_done("a", "base", True, 1, 0.1,
                              counters={"trace_cache.miss": 1})
        progress.on_cell_done("a", "victim", True, 1, 0.1,
                              counters={"trace_cache.hit": 3})
        assert "trace cache 75% hit" in progress.status_line()

    def test_no_cache_segment_without_lookups(self):
        progress, _stream = _progress()
        progress.on_sweep_start(2, workers=1)
        progress.on_cell_done("a", "base", True, 1, 0.1)
        assert "trace cache" not in progress.status_line()

    def test_engine_and_fidelity_tallies_from_counters(self):
        progress, _stream = _progress()
        progress.on_sweep_start(3, workers=1)
        progress.on_cell_done("a", "base", True, 1, 0.1,
                              counters={"sim.engine_used.batch": 1})
        progress.on_cell_done("a", "pf_tk", True, 1, 0.1,
                              counters={"sim.engine_used.scalar": 1})
        progress.on_cell_done("b", "base", True, 1, 0.1,
                              counters={"sim.engine_used.batch": 1})
        line = progress.status_line()
        assert "engine 2 batch+1 scalar" in line

    def test_no_tally_segments_without_counters(self):
        progress, _stream = _progress()
        progress.on_sweep_start(1, workers=1)
        progress.on_cell_done("a", "base", True, 1, 0.1)
        line = progress.status_line()
        assert "engine" not in line and "fidelity" not in line

    def test_non_tty_stream_gets_plain_lines(self):
        progress, stream = _progress()
        progress.on_sweep_start(2, workers=1)
        progress.on_cell_done("a", "base", True, 1, 0.1)
        out = stream.getvalue()
        assert "\r" not in out
        assert "[1/2]" in out

    def test_sweep_end_prints_report_summary(self):
        progress, stream = _progress()
        progress.on_sweep_start(1, workers=1)
        progress.on_cell_done("a", "base", True, 1, 0.1)
        progress.on_sweep_end(_Report())
        assert "16 cells: 16 ok" in stream.getvalue()

    def test_min_interval_throttles_repaints(self):
        stream = io.StringIO()
        progress = SweepProgress(stream=stream, min_interval=3600.0)
        progress.on_sweep_start(8, workers=1)  # forced paint
        for i in range(8):
            progress.on_cell_done("a", str(i), True, 1, 0.01)  # all throttled
        assert stream.getvalue().count("\n") == 1
