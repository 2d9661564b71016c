"""Integration: the fidelity validation harness end to end.

Runs ``tools/validate_fidelity.py``'s machinery (imported, not
shelled) over a workload subset at smoke scale: every workload goes
through the exact and sampled tiers and the error columns are sane.
"""

import json
import sys
from pathlib import Path

import pytest

TOOLS_DIR = Path(__file__).resolve().parents[2] / "tools"
if str(TOOLS_DIR) not in sys.path:
    sys.path.insert(0, str(TOOLS_DIR))

import validate_fidelity  # noqa: E402  (needs the sys.path insert above)

WORKLOADS = ["gcc", "swim", "ammp"]


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    cache_root = tmp_path_factory.mktemp("fidelity_cache")
    return validate_fidelity.run_validation(
        workloads=WORKLOADS,
        length=validate_fidelity.SMOKE_LENGTH,
        seed=0,
        smoke=True,
        cache_root=str(cache_root),
    )


class TestValidationReport:
    def test_every_workload_ran_all_tiers(self, report):
        assert set(report["workloads"]) == set(WORKLOADS)
        for row in report["workloads"].values():
            for field in ("exact_ms", "sampled_ms"):
                assert row[field] > 0.0
            for field in ("exact_miss_rate", "sampled_miss_rate"):
                assert 0.0 <= row[field] <= 1.0

    def test_smoke_error_gate_passes(self, report):
        assert report["gates"]["sampled_error"] is True
        assert report["passed"] is True
        # Smoke runs never gate on timing — CI wall clocks are noise.
        assert "sampled_speedup" not in report["gates"]

    def test_errors_within_smoke_tolerance(self, report):
        agg = report["aggregate"]
        assert agg["sampled_tolerance"] == validate_fidelity.SMOKE_TOLERANCE
        assert (agg["sampled_within_tolerance"] >=
                len(WORKLOADS) - validate_fidelity.ALLOWED_OUTLIERS)

    def test_sampled_ci_recorded(self, report):
        for row in report["workloads"].values():
            assert row["sampled_ci95_miss_rate"] >= 0.0

    def test_report_is_json_serializable(self, report, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        assert json.loads(path.read_text(encoding="utf-8")) == report
