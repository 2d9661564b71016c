"""Regression sentinel: rolling-window checks, dashboard, exporters."""

import pytest

from repro.obs.history import ObsStore, build_run_record
from repro.obs.sentinel import (
    check_history,
    check_records,
    metric_direction,
    render_dashboard,
    sparkline,
    to_prometheus,
    validate_prometheus,
)


def _run(**metrics):
    return build_run_record(source="sweep", metrics=metrics,
                            manifest_digest="digest0")


def _baseline(n=6, throughput=100_000.0, wall=10.0):
    return [_run(throughput_aps=throughput, wall_time_s=wall)
            for _ in range(n)]


class TestCheckRecords:
    def test_thirty_percent_throughput_drop_is_flagged(self):
        # The acceptance scenario: a synthetic 30% throughput regression
        # against a stable baseline must trip the sentinel...
        records = _baseline() + [_run(throughput_aps=70_000.0, wall_time_s=10.0)]
        report = check_records(records)
        assert not report.passed
        assert [f.metric for f in report.findings] == ["throughput_aps"]
        finding = report.findings[0]
        assert finding.direction == "higher"
        assert finding.delta_pct == pytest.approx(30.0)
        assert "throughput_aps" in finding.message()

    def test_unchanged_rerun_passes(self):
        # ...while an identical re-run sails through.
        records = _baseline() + [_run(throughput_aps=100_000.0, wall_time_s=10.0)]
        report = check_records(records)
        assert report.passed
        assert {row["status"] for row in report.rows} == {"ok"}

    def test_improvement_never_flags(self):
        records = _baseline() + [_run(throughput_aps=200_000.0, wall_time_s=1.0)]
        assert check_records(records).passed

    def test_no_baseline_is_vacuous_pass(self):
        report = check_records([_run(throughput_aps=1.0)])
        assert report.passed
        assert report.baseline_runs == 0
        assert any("no baseline" in note for note in report.notes)

    def test_zero_median_failure_count_flags_any_failure(self):
        records = ([_run(cells_failed=0.0) for _ in range(4)]
                   + [_run(cells_failed=2.0)])
        report = check_records(records)
        assert [f.metric for f in report.findings] == ["cells_failed"]
        assert report.findings[0].delta_pct == float("inf")

    def test_noisy_baseline_absorbs_jitter_via_mad(self):
        # Baseline wall times oscillate 8..14s (median 11, MAD 3);
        # 14s is within routine jitter even though it is >25% over.
        walls = [8.0, 14.0, 8.0, 14.0, 8.0, 14.0, 11.0]
        records = [_run(wall_time_s=w) for w in walls] + [_run(wall_time_s=14.0)]
        assert check_records(records).passed

    def test_sub_floor_timing_jitter_ignored(self):
        # Smoke-scale phase timings jitter far past any relative
        # tolerance; the absolute noise floor keeps them quiet.
        records = ([_run(phase_simulate_s=0.003) for _ in range(5)]
                   + [_run(phase_simulate_s=0.005)])  # +66%, but only 2ms
        assert check_records(records).passed

    def test_throughput_drop_within_simulate_phase_floor_ignored(self):
        # A 1,600-access sweep: 743,677 -> 480,162 accesses/s is a 35%
        # drop, but the simulate phase it is derived from moved ~1.2ms.
        records = [_run(throughput_aps=743_677.0,
                        phase_simulate_s=1_600 / 743_677.0),
                   _run(throughput_aps=480_162.0,
                        phase_simulate_s=1_600 / 480_162.0)]
        report = check_records(records)
        assert report.passed, [f.message() for f in report.findings]

    def test_throughput_drop_with_slower_simulate_phase_flagged(self):
        # The same 35% drop over a simulate phase that grew by 110ms is
        # a real slowdown.
        records = [_run(throughput_aps=743_677.0, phase_simulate_s=0.20),
                   _run(throughput_aps=480_162.0, phase_simulate_s=0.31)]
        report = check_records(records)
        assert "throughput_aps" in [f.metric for f in report.findings]

    def test_window_limits_the_baseline_pool(self):
        old = [_run(throughput_aps=500_000.0) for _ in range(10)]
        recent = [_run(throughput_aps=100_000.0) for _ in range(8)]
        records = old + recent + [_run(throughput_aps=95_000.0)]
        report = check_records(records, window=8)
        assert report.baseline_runs == 8
        assert report.passed  # compared to the recent 100k, not the old 500k

    def test_unmonitored_bookkeeping_metrics_skipped(self):
        records = ([_run(engine_batch=6.0, fidelity_exact=6.0)] * 4
                   + [_run(engine_batch=0.0, fidelity_exact=1.0)])
        report = check_records(records)
        assert report.passed
        assert report.rows == []


class TestDirectionRegistry:
    @pytest.mark.parametrize("name,expected", [
        ("throughput_aps", "higher"),
        ("trace_cache_hit_rate", "higher"),
        ("wall_time_s", "lower"),
        ("cells_failed", "lower"),
        ("retries", "lower"),
        ("phase_simulate_s", "lower"),
        ("cells_ok", None),
        ("engine_batch", None),
        ("fidelity_exact", None),
    ])
    def test_directions(self, name, expected):
        assert metric_direction(name) == expected


class TestCheckHistory:
    def test_pools_only_same_source_and_manifest(self, tmp_path):
        store = ObsStore(tmp_path / "h.jsonl")
        for _ in range(4):
            store.append_run(_run(throughput_aps=100_000.0))
        # A different experiment's runs must not contaminate the pool.
        store.append_run(build_run_record(
            source="sweep", metrics={"throughput_aps": 5.0},
            manifest_digest="other"))
        store.append_run(_run(throughput_aps=60_000.0))
        report = check_history(store)
        assert report.baseline_runs == 4
        assert not report.passed

    def test_source_filter_and_empty_history(self, tmp_path):
        store = ObsStore(tmp_path / "h.jsonl")
        with pytest.raises(ValueError):
            check_history(store)
        store.append_run(build_run_record(
            source="bench", metrics={"probe_ms_x": 10.0},
            manifest_digest="b"))
        report = check_history(store, source="bench")
        assert report.source == "bench"


class TestDashboard:
    def test_sparkline_shapes(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0]) == "▄▄"
        line = sparkline([0.0, 5.0, 10.0])
        assert line[0] == "▁" and line[-1] == "█"

    def test_render_dashboard_sections_and_trends(self):
        records = _baseline(5) + [build_run_record(
            source="bench", metrics={"probe_ms_x": 10.0},
            manifest_digest="bb")]
        text = render_dashboard(records)
        assert "## `sweep` · manifest `digest0`" in text
        assert "## `bench` · manifest `bb`" in text
        assert "`throughput_aps`" in text
        assert any(ch in text for ch in "▁▂▃▄▅▆▇█")


class TestPrometheus:
    def test_export_validates_and_carries_labels(self):
        text = to_prometheus(_baseline(3))
        assert validate_prometheus(text) == []
        assert 'source="sweep"' in text
        assert "repro_throughput_aps" in text
        assert "repro_obs_last_run_timestamp_seconds" in text

    def test_only_latest_run_per_group_exported(self):
        records = _baseline(2) + [_run(throughput_aps=42.0, wall_time_s=1.0)]
        text = to_prometheus(records)
        samples = [l for l in text.splitlines()
                   if l.startswith("repro_throughput_aps{")]
        assert len(samples) == 1
        assert float(samples[0].rsplit(" ", 1)[1]) == 42.0

    def test_validator_rejects_malformed_exposition(self):
        assert validate_prometheus("repro_x{bad 1.0\n")
        assert validate_prometheus('repro_x{a="b"} not_a_number\n')
        # A sample with no preceding HELP/TYPE is flagged too.
        assert validate_prometheus('repro_x{a="b"} 1.0\n')
