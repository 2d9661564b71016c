"""Tests for the JSONL checkpoint store."""

import json
import platform
import subprocess

import pytest

from repro.cli import main
from repro.common.config import config_digest, paper_machine
from repro.common.errors import StoreError
from repro.sim.runner import CellFailure, git_revision, run_sweep
from repro.sim.store import STORE_VERSION, RunStore
from repro.sim.sweep import run_workload


MANIFEST = {
    "length": 1000,
    "seed": 0,
    "warmup": 333,
    "machine": "abc123",
    "workloads": ["gzip"],
    "configs": {"base": "d1", "perfect": "d2"},
}

#: Sweep parameters of the tests that run real sweeps into a store.
CONFIGS = {"base": {}, "decay": {"decay_interval": 2_000}}
LENGTH = 12_000


def make_result():
    return run_workload("gzip", {"base": {}}, length=600, warmup=0)["base"]


class TestRoundTrip:
    def test_fresh_store_records_and_loads(self, tmp_path):
        path = tmp_path / "run.jsonl"
        result = make_result()
        with RunStore(path) as store:
            assert store.start(MANIFEST) == {}
            store.record_result("gzip", "base", result, attempts=2, elapsed=1.5)
            store.record_failure(
                CellFailure("gzip", "perfect", "RuntimeError", "boom", "tb", 3)
            )
        manifest, cells = RunStore(path).load()
        assert manifest["version"] == STORE_VERSION
        assert manifest["configs"] == MANIFEST["configs"]
        assert cells[("gzip", "base")]["status"] == "ok"
        assert cells[("gzip", "base")]["attempts"] == 2
        assert cells[("gzip", "perfect")]["status"] == "failed"
        assert cells[("gzip", "perfect")]["failure"]["error_type"] == "RuntimeError"

    def test_last_line_wins_per_cell(self, tmp_path):
        path = tmp_path / "run.jsonl"
        result = make_result()
        with RunStore(path) as store:
            store.start(MANIFEST)
            store.record_failure(CellFailure("gzip", "base", "RuntimeError", "x", "", 1))
            store.record_result("gzip", "base", result, attempts=1, elapsed=0.1)
        _, cells = RunStore(path).load()
        assert cells[("gzip", "base")]["status"] == "ok"

    def test_missing_file_loads_empty(self, tmp_path):
        manifest, cells = RunStore(tmp_path / "nope.jsonl").load()
        assert manifest is None
        assert cells == {}


class TestResumeGuards:
    def test_refuses_existing_store_without_resume(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunStore(path) as store:
            store.start(MANIFEST)
        with pytest.raises(StoreError, match="resume=True"):
            RunStore(path).start(MANIFEST)

    def test_resume_returns_prior_cells(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunStore(path) as store:
            store.start(MANIFEST)
            store.record_result("gzip", "base", make_result(), attempts=1, elapsed=0.1)
        with RunStore(path) as store:
            cells = store.start(MANIFEST, resume=True)
        assert set(cells) == {("gzip", "base")}

    @pytest.mark.parametrize("field,value", [
        ("length", 2000), ("seed", 9), ("warmup", 1), ("machine", "zzz"),
    ])
    def test_resume_rejects_parameter_mismatch(self, tmp_path, field, value):
        path = tmp_path / "run.jsonl"
        with RunStore(path) as store:
            store.start(MANIFEST)
        changed = dict(MANIFEST, **{field: value})
        with pytest.raises(StoreError, match=field):
            RunStore(path).start(changed, resume=True)

    def test_resume_rejects_config_digest_mismatch(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunStore(path) as store:
            store.start(MANIFEST)
        changed = dict(MANIFEST, configs={"base": "OTHER", "perfect": "d2"})
        with pytest.raises(StoreError, match="'base'"):
            RunStore(path).start(changed, resume=True)

    def test_resume_allows_new_config_names(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunStore(path) as store:
            store.start(MANIFEST)
        extended = dict(MANIFEST, configs=dict(MANIFEST["configs"], extra="d3"))
        RunStore(path).start(extended, resume=True)  # no raise

    @pytest.mark.parametrize("damage", [None, "repair", "torn-tail"],
                             ids=["as-written", "repaired", "auto-repaired"])
    def test_resume_checks_every_manifest(self, tmp_path, damage):
        # The second sweep's manifest does not name 'a'.  Redefining 'a'
        # after it must still be refused, or the first sweep's 'a' cell
        # would replay under the new definition.  Repairs, explicit or
        # the one start() runs on a torn tail, keep every manifest.
        store = tmp_path / "run.jsonl"
        sweep = dict(workloads=["gzip"], length=1200, trace_cache=False, store=store)
        run_sweep({"a": {}}, **sweep)
        run_sweep({"b": {"victim_filter": "timekeeping"}}, resume=True, **sweep)
        if damage == "repair":
            RunStore(store).repair()
        elif damage == "torn-tail":
            with open(store, "a", encoding="utf-8") as fh:
                fh.write('{"kind": "cell", "work')
        with pytest.raises(StoreError, match="configuration 'a' hashes differently"):
            run_sweep({"a": {"prefetcher": "timekeeping"}}, resume=True, **sweep)
        assert len(RunStore(store).load_report().manifests) == 2


class TestFidelityCompatibility:
    def test_exact_manifest_has_no_fidelity_key(self, tmp_path):
        # Pre-fidelity stores stay byte-compatible: exact runs write
        # exactly the manifest they always did.
        store = tmp_path / "run"
        run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH, store=store)
        manifest, _ = RunStore(store).load()
        assert "fidelity" not in manifest
        assert "sampling" not in manifest

    @staticmethod
    def _write_store(path, fidelity):
        """A one-cell store as an earlier build wrote it at *fidelity*.

        The manifest matches the resuming sweep's except for the tier;
        a non-exact cell carries that tier's error bars.
        """
        manifest = {
            "kind": "manifest",
            "version": STORE_VERSION,
            "length": LENGTH,
            "seed": 0,
            "warmup": LENGTH // 3,
            "machine": config_digest(paper_machine()),
            "workloads": ["gzip"],
            "configs": {name: config_digest(c) for name, c in CONFIGS.items()},
            "fidelity": fidelity,
        }
        result = dict(make_result().to_dict(), fidelity=fidelity)
        if fidelity != "exact":
            result["error_bars"] = {"l1_miss_rate": {"mean": 0.05, "ci95": 0.004}}
        cell = {"kind": "cell", "workload": "gzip", "config": "base",
                "status": "ok", "attempts": 1, "elapsed": 0.1, "result": result}
        path.write_text("".join(json.dumps(r) + "\n" for r in (manifest, cell)),
                        encoding="utf-8")

    def test_legacy_sampled_store(self, tmp_path, capsys):
        # The sampled tier is gone: its extrapolated cells must neither
        # be reported nor resumed as if they were exact.
        store = tmp_path / "run"
        self._write_store(store, "sampled")
        with pytest.raises(StoreError, match="fidelity 'sampled'"):
            run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH,
                      store=store, resume=True)
        assert main(["report", str(store)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = captured.err.splitlines()
        assert len(errors) == 1, errors
        assert errors[0].startswith("error: ")
        assert "fidelity 'sampled'" in errors[0]

    def test_exact_tagged_store_still_loads(self, tmp_path):
        store = tmp_path / "run"
        self._write_store(store, "exact")
        report = RunStore(store).load_report()
        assert report.manifest["fidelity"] == "exact"
        assert report.ok_cells == 1


def _rewrite_manifest(store, edit):
    """Rewrite the store's manifest line: merge *edit*, or drop provenance."""
    lines = store.read_text(encoding="utf-8").splitlines()
    manifest = json.loads(lines[0])
    if edit is None:  # the manifest an older build wrote
        for key in ("git_rev", "host", "python"):
            del manifest[key]
    else:
        manifest.update(edit)
    lines[0] = json.dumps(manifest)
    store.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestProvenance:
    @pytest.mark.parametrize("git_works", [True, False], ids=["git", "no-git"])
    def test_sweep_manifest_records_provenance(self, tmp_path, monkeypatch,
                                               git_works):
        calls = []
        real_run = subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            if not git_works:
                raise FileNotFoundError("git")
            return real_run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        store = tmp_path / "run.jsonl"
        git_revision.cache_clear()
        try:
            run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH, store=store)
            run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH, store=store,
                      resume=True)
        finally:
            git_revision.cache_clear()
        assert len(calls) == 1  # resolved once per process
        manifest, _ = RunStore(store).load()
        if git_works:
            assert manifest["git_rev"] == git_revision()
        else:
            assert manifest["git_rev"] == "unknown"
        assert manifest["host"] == (platform.node() or "unknown")
        assert manifest["python"] == platform.python_version()

    @pytest.mark.parametrize("edit", [
        pytest.param({"git_rev": "0000000", "host": "elsewhere"},
                     id="other-rev-and-host"),
        pytest.param(None, id="written-before-provenance"),
    ])
    def test_resume_ignores_provenance(self, tmp_path, capsys, edit):
        store = tmp_path / "run.jsonl"
        fresh = run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH, store=store)
        _rewrite_manifest(store, edit)
        assert main(["report", str(store)]) == 0
        has_line = "provenance:" in capsys.readouterr().out
        assert has_line is (edit is not None)
        resumed = run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH,
                            store=store, resume=True)
        assert resumed.replayed == len(CONFIGS)
        assert resumed.executed == 0
        assert resumed.results == fresh.results
        # The resuming run's manifest carries this build's provenance.
        manifest, _ = RunStore(store).load()
        assert manifest["git_rev"] == git_revision()


class TestCorruption:
    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunStore(path) as store:
            store.start(MANIFEST)
            store.record_result("gzip", "base", make_result(), attempts=1, elapsed=0.1)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "cell", "workload": "gzip", "config')  # crash mid-append
        manifest, cells = RunStore(path).load()
        assert manifest is not None
        assert set(cells) == {("gzip", "base")}

    def test_corrupt_middle_line_quarantined(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunStore(path) as store:
            store.start(MANIFEST)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
            fh.write(json.dumps({"kind": "cell", "workload": "g", "config": "c",
                                 "status": "ok"}) + "\n")
        report = RunStore(path).load_report()
        assert [issue.lineno for issue in report.quarantined] == [2]
        assert set(report.cells) == {("g", "c")}  # survivors still served
        assert "quarantined" in report.summary()

    def test_unknown_record_kind_quarantined(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunStore(path) as store:
            store.start(MANIFEST)
            store.record_result("gzip", "base", make_result(), attempts=1, elapsed=0.1)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "mystery"}) + "\n")
            fh.write(json.dumps({"kind": "cell", "workload": "g", "config": "c",
                                 "status": "ok"}) + "\n")
        report = RunStore(path).load_report()
        assert len(report.quarantined) == 1
        assert "mystery" in report.quarantined[0].reason
        assert set(report.cells) == {("gzip", "base"), ("g", "c")}

    def test_cell_before_manifest_quarantined(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "cell", "workload": "g", "config": "c"}) + "\n")
            fh.write(json.dumps({"kind": "manifest", "version": STORE_VERSION}) + "\n")
        report = RunStore(path).load_report()
        assert len(report.quarantined) == 1
        assert "before any manifest" in report.quarantined[0].reason
        assert report.manifest is not None

    def test_unsupported_version_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "manifest", "version": 99}) + "\n")
            fh.write(json.dumps({"kind": "manifest", "version": 99}) + "\n")
        with pytest.raises(StoreError, match="version"):
            RunStore(path).load()

    def _assert_refused(self, tmp_path, version):
        # A store an earlier build wrote: resuming into it and rebuilding
        # a suite from it both refuse, with one message, and leave it as
        # it was.
        from repro.figures.pipeline import load_suite

        path = tmp_path / "run.jsonl"
        with RunStore(path) as store:
            store.start(MANIFEST)
            store.record_result("gzip", "base", make_result(), elapsed=0.1)
        lines = path.read_text().splitlines(keepends=True)
        lines[0] = json.dumps(dict(json.loads(lines[0]), version=version)) + "\n"
        path.write_text("".join(lines))
        before = path.read_bytes()
        message = (rf"run\.jsonl:1: unsupported store version {version} \(this "
                   r"build reads 3\); re-run the campaign into a fresh store$")
        for attempt in (lambda: RunStore(path).start(MANIFEST, resume=True),
                        lambda: load_suite(RunStore(path))):
            with pytest.raises(StoreError, match=message):
                attempt()
        assert path.read_bytes() == before

    def test_version_1_store_refused(self, tmp_path):
        # Metric banks as JSON rows.
        self._assert_refused(tmp_path, 1)

    def test_version_2_store_refused(self, tmp_path):
        # Metric banks with binned histograms next to their packed tables.
        self._assert_refused(tmp_path, 2)

    def test_append_requires_start(self, tmp_path):
        store = RunStore(tmp_path / "run.jsonl")
        with pytest.raises(StoreError, match="not open"):
            store.record_failure(CellFailure("g", "c", "E", "m", "", 1))


class TestRepair:
    def test_repair_quarantines_and_compacts(self, tmp_path):
        path = tmp_path / "run.jsonl"
        result = make_result()
        with RunStore(path) as store:
            store.start(MANIFEST)
            store.record_failure(CellFailure("gzip", "base", "RuntimeError", "x", "", 1))
            store.record_result("gzip", "base", result, attempts=2, elapsed=0.1)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("garbage line\n")
            fh.write(json.dumps({"kind": "cell", "workload": "g", "config": "c",
                                 "status": "ok"}) + "\n")
            fh.write('{"kind": "cell", "work')  # torn tail
        store = RunStore(path)
        report = store.repair()
        # pre-repair view: 1 garbage + 1 superseded duplicate + torn tail
        assert len(report.quarantined) == 1
        assert len(report.superseded) == 1
        assert report.torn_tail is not None
        # post-repair: clean, compacted, every survivor intact
        clean = store.load_report()
        assert clean.clean
        assert not clean.superseded
        assert set(clean.cells) == {("gzip", "base"), ("g", "c")}
        assert clean.cells[("gzip", "base")]["status"] == "ok"
        # the sidecar preserves every removed line
        with open(store.quarantine_path, "r", encoding="utf-8") as fh:
            sidecar = [json.loads(line) for line in fh]
        assert len(sidecar) == 3
        assert all({"lineno", "reason", "raw"} <= set(rec) for rec in sidecar)
        assert any("superseded" in rec["reason"] for rec in sidecar)

    def test_repair_refused_while_open(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunStore(path) as store:
            store.start(MANIFEST)
            with pytest.raises(StoreError, match="open for appending"):
                store.repair()

    def test_start_auto_repairs_torn_tail(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunStore(path) as store:
            store.start(MANIFEST)
            store.record_result("gzip", "base", make_result(), attempts=1, elapsed=0.1)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "cell", "workload": "gzip", "config')  # crash mid-append
        with RunStore(path) as store:
            cells = store.start(MANIFEST, resume=True)
            assert set(cells) == {("gzip", "base")}
            # the next append must not concatenate onto the tear
            store.record_result("gzip", "perfect", make_result(), attempts=1,
                                elapsed=0.1)
        report = RunStore(path).load_report()
        assert report.clean
        assert set(report.cells) == {("gzip", "base"), ("gzip", "perfect")}


class TestLocking:
    def test_second_writer_rejected(self, tmp_path):
        from repro.common.errors import StoreLockedError

        path = tmp_path / "run.jsonl"
        with RunStore(path) as store:
            store.start(MANIFEST)
            with pytest.raises(StoreLockedError, match="another writer"):
                RunStore(path).start(MANIFEST, resume=True)

    def test_lock_released_on_close(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunStore(path) as store:
            store.start(MANIFEST)
        with RunStore(path) as store:
            store.start(MANIFEST, resume=True)  # no raise

    def test_start_is_reentrant_per_instance(self, tmp_path):
        # run_paper calls start() once per figure group on one instance.
        path = tmp_path / "run.jsonl"
        with RunStore(path) as store:
            store.start(MANIFEST)
            store.record_result("gzip", "base", make_result(), attempts=1,
                                elapsed=0.1)
            cells = store.start(MANIFEST, resume=True)
            assert set(cells) == {("gzip", "base")}
            store.record_result("gzip", "perfect", make_result(), attempts=1,
                                elapsed=0.1)
        _, cells = RunStore(path).load()
        assert set(cells) == {("gzip", "base"), ("gzip", "perfect")}
