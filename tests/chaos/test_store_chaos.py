"""Store chaos: crash-truncation sweeps, writer races, injected ENOSPC,
records that parse but do not decode.

The centerpiece is the kill -9 property test: a store truncated at
*every* byte boundary inside its final record must still serve every
complete record through ``load()``, and ``repair()`` must leave a
clean store with those records intact.
"""

import json

import pytest

from repro.common.errors import StoreError, StoreLockedError
from repro.faults import FaultPlan, run_armed
from repro.figures.pipeline import load_suite, run_paper
from repro.obs.metrics import Telemetry
from repro.sim.runner import run_sweep
from repro.sim.store import RunStore

MANIFEST = {
    "length": 500,
    "seed": 0,
    "warmup": 100,
    "machine": "m0",
    "configurations": {"base": "c0"},
}


class _StubResult:
    """Minimal SimulationResult stand-in: small records, many cut points."""

    def __init__(self, payload):
        self.payload = payload

    def to_dict(self, include_metrics=False):
        return dict(self.payload)


def _seed_store(path, n_cells=3):
    with RunStore(path) as store:
        store.start(MANIFEST)
        for i in range(n_cells):
            store.record_result(
                f"w{i}", "base", _StubResult({"cpi": 1.0 + i}), elapsed=0.0
            )
    return path


class TestTruncationBoundaries:
    def test_every_byte_boundary_of_last_record(self, tmp_path):
        full = _seed_store(tmp_path / "full.jsonl")
        data = full.read_bytes()
        _, full_cells = RunStore(full).load()
        last_start = data.rfind(b"\n", 0, len(data) - 1) + 1
        assert last_start > 0 and len(data) - last_start > 50

        work = tmp_path / "cut.jsonl"
        for cut in range(last_start, len(data)):
            work.write_bytes(data[:cut])
            for side in (work.parent / (work.name + ".quarantine"),):
                if side.exists():
                    side.unlink()

            store = RunStore(work)
            _, cells = store.load()
            # Complete records always survive; nothing invented.
            for key, record in cells.items():
                assert record == full_cells[key], f"cut={cut}"
            for key in list(full_cells)[:-1]:
                assert key in cells, f"cut={cut}: lost complete record {key}"

            store.repair()  # returns the *pre*-repair report
            _, after = RunStore(work).load()
            assert after == cells, f"cut={cut}: repair changed surviving records"
            assert RunStore(work).load_report().clean, f"cut={cut}"

    def test_mid_file_corruption_quarantined_and_repaired(self, tmp_path):
        path = _seed_store(tmp_path / "mid.jsonl")
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = b'{"kind":"cell","work' + b"\x00" * 8 + b"\n"
        path.write_bytes(b"".join(lines))

        store = RunStore(path)
        report = store.load_report()
        assert [issue.lineno for issue in report.quarantined] == [3]
        assert len(report.cells) == 2  # the two intact cells still served

        store.repair()
        assert RunStore(path).load_report().clean
        with open(store.quarantine_path, encoding="utf-8") as fh:
            sidecar = [json.loads(line) for line in fh]
        assert any(rec["lineno"] == 3 for rec in sidecar)


class TestWriterLocking:
    def test_second_writer_same_process_rejected(self, tmp_path):
        path = tmp_path / "race.jsonl"
        first = RunStore(path)
        first.start(MANIFEST)
        try:
            with pytest.raises(StoreLockedError):
                RunStore(path).start(MANIFEST, resume=True)
        finally:
            first.close()
        # lock released on close: the second writer now succeeds
        second = RunStore(path)
        second.start(MANIFEST, resume=True)
        second.close()

    def test_second_writer_other_process_rejected(self, tmp_path):
        path = tmp_path / "race.jsonl"
        holder = RunStore(path)
        holder.start(MANIFEST)
        try:
            result = run_armed(_try_start, str(path), timeout=60)
        finally:
            holder.close()
        assert result.status == "ok"
        assert result.value == "locked"


class TestInjectedAppendFaults:
    def test_enospc_append_then_resume_converges(self, tmp_path):
        reference = tmp_path / "reference.jsonl"
        run_sweep({"base": {}}, workloads=["gzip", "eon"], length=800, store=reference)
        _, want = RunStore(reference).load()

        faulty = tmp_path / "faulty.jsonl"
        plan = FaultPlan(seed=1).add(
            "store.append", "raise", at=2, errno_name="ENOSPC",
            match={"kind": "cell"},
        )
        result = run_armed(_sweep_to, str(faulty), plan=plan, timeout=300)
        assert result.status == "error"
        assert "ENOSPC" in result.error or "No space" in result.error

        # the disk "recovers"; a warm resume finishes the campaign
        report = run_sweep({"base": {}}, workloads=["gzip", "eon"], length=800,
                           store=faulty, resume=True)
        assert not report.failures
        _, got = RunStore(faulty).load()
        assert _normalized(got) == _normalized(want)

    def test_torn_append_auto_repaired_on_resume(self, tmp_path):
        path = _seed_store(tmp_path / "torn.jsonl", n_cells=2)
        with open(path, "ab") as fh:
            fh.write(b'{"kind":"cell","workload":"w9"')  # crash mid-append
        store = RunStore(path)
        assert store.load_report().torn_tail is not None

        cells = store.start(MANIFEST, resume=True)
        try:
            assert set(cells) == {("w0", "base"), ("w1", "base")}
            store.record_result("w2", "base", _StubResult({"cpi": 3.0}))
        finally:
            store.close()
        report = RunStore(path).load_report()
        assert report.clean
        assert ("w2", "base") in report.cells


class TestUndecodableRecord:
    """A record that parses but does not decode never strands a resume."""

    ONLY = ["fig04", "fig15"]
    KW = dict(workloads=["gzip", "swim"], length=1000, trace_cache=False)
    STORE = "paper_store.jsonl"

    def test_flipped_bank_byte_re_runs_the_cell(self, tmp_path):
        good, bad = tmp_path / "good", tmp_path / "bad"
        run_paper(only=self.ONLY, out_dir=str(good), **self.KW)
        bad.mkdir()
        lines = (good / self.STORE).read_text().splitlines(keepends=True)
        ((i, line),) = [(i, text) for i, text in enumerate(lines)
                        if '"workload":"gzip"' in text]
        start = line.index('"generations":"') + len('"generations":"')
        at = (start + line.index('"', start)) // 2
        lines[i] = line[:at] + ("B" if line[at] != "B" else "C") + line[at + 1:]
        (bad / self.STORE).write_text("".join(lines))
        # Still one valid JSON line, so the scan finds nothing wrong ...
        assert RunStore(bad / self.STORE).load_report().clean
        # ... and a store-only rebuild counts the cell as failed.
        suite, failed = load_suite(RunStore(bad / self.STORE))
        assert failed == 1 and "base" not in suite.get("gzip", {})

        with Telemetry() as tele:
            got = run_paper(only=self.ONLY, out_dir=str(bad), resume=True, **self.KW)
        want = run_paper(only=self.ONLY, out_dir=str(good), resume=True, **self.KW)
        assert tele.counters["store.undecodable"] == 1
        assert (got.executed, got.replayed, got.failures) == (1, 1, 0)
        assert got.report_text == want.report_text
        assert _suite_dicts(bad / self.STORE) == _suite_dicts(good / self.STORE)


def _suite_dicts(path):
    suite, failed = load_suite(RunStore(path))
    assert failed == 0
    return {(w, c): r.to_dict(include_metrics=True)
            for w, cfgs in suite.items() for c, r in cfgs.items()}


def _normalized(cells):
    out = {}
    for key, record in cells.items():
        rec = dict(record)
        rec.pop("created", None)
        rec.pop("elapsed", None)
        rec.pop("telemetry", None)  # wall-clock phase timings and pids
        out[key] = rec
    return out


# run_armed targets: module-level so the forked child can resolve them.

def _try_start(path):
    store = RunStore(path)
    try:
        store.start(MANIFEST, resume=True)
    except StoreLockedError:
        return "locked"
    except StoreError:
        return "store-error"
    finally:
        store.close()
    return "opened"


def _sweep_to(path):
    run_sweep({"base": {}}, workloads=["gzip", "eon"], length=800,
              store=path)
