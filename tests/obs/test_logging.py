"""Tests for the JSONL event log a :class:`Telemetry` collector writes."""

import io
import json
import multiprocessing

import pytest

from repro.obs.metrics import NULL_TELEMETRY, Telemetry, current


def _lines(text):
    return [json.loads(line) for line in text.splitlines() if line]


def _child_event():
    """A forked child's collector, like a pool worker's cell collector."""
    with Telemetry() as tele:
        tele.event("child")


class TestJsonlLogger:
    """``Telemetry(log=...)``: what ``repro sweep --log-json`` writes."""

    def test_events_are_one_json_object_per_line(self):
        stream = io.StringIO()
        with Telemetry(log=stream) as tele:
            tele.event("cell.done", workload="gzip", config="base", ok=True)
            tele.event("sweep.end", cells=16)
        first, second = _lines(stream.getvalue())
        assert first["event"] == "cell.done"
        assert first["workload"] == "gzip"
        assert first["ok"] is True
        assert isinstance(first["ts"], float)
        assert second == {"ts": second["ts"], "event": "sweep.end", "cells": 16}
        assert len(stream.getvalue().splitlines()) == 2
        # Each event is counted once, and a stream stays the caller's.
        assert tele.counters == {"cell.done": 1, "sweep.end": 1}
        assert not stream.closed

    def test_path_target_opens_on_build_and_appends(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with Telemetry(log=path) as tele:
            assert path.exists()  # opened before any event
            tele.event("a")
        with Telemetry(log=path) as tele:
            tele.event("b")
        events = [r["event"] for r in _lines(path.read_text())]
        assert events == ["a", "b"]

    def test_bad_path_fails_when_built(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Telemetry(log=tmp_path / "missing" / "events.jsonl")

    def test_non_json_fields_stringify(self):
        stream = io.StringIO()
        Telemetry(log=stream).event("x", where=Exception("boom"))
        (record,) = _lines(stream.getvalue())
        assert record["where"] == "boom"

    def test_context_installs_ambient_logger(self, tmp_path):
        assert current() is NULL_TELEMETRY
        with Telemetry(log=tmp_path / "log.jsonl") as tele:
            assert current() is tele
            current().event("inside")
        assert current() is NULL_TELEMETRY
        (record,) = _lines((tmp_path / "log.jsonl").read_text())
        assert record["event"] == "inside"

    def test_nested_loggers_restore_outer(self, tmp_path):
        with Telemetry(log=tmp_path / "outer.jsonl") as outer:
            with Telemetry(log=tmp_path / "inner.jsonl") as inner:
                assert current() is inner
                current().event("in")
            assert current() is outer
            current().event("out")
        assert [r["event"] for r in _lines((tmp_path / "inner.jsonl").read_text())] == ["in"]
        assert [r["event"] for r in _lines((tmp_path / "outer.jsonl").read_text())] == ["out"]

    def test_collector_built_inside_another_writes_to_its_log(self, tmp_path):
        assert Telemetry().log is None
        path = tmp_path / "events.jsonl"
        with Telemetry(log=path) as outer:
            with Telemetry() as inner:
                current().event("cell.ok", workload="gzip")
            inner.event("after")  # still writing once its block exited
        assert [r["event"] for r in _lines(path.read_text())] == ["cell.ok", "after"]
        assert inner.counters == {"cell.ok": 1, "after": 1}
        assert outer.counters == {}

    def test_forked_child_writes_to_inherited_log(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with Telemetry(log=path) as tele:
            tele.event("before")
            child = multiprocessing.get_context("fork").Process(target=_child_event)
            child.start()
            child.join(timeout=60)
            tele.event("after")
        assert child.exitcode == 0
        assert [r["event"] for r in _lines(path.read_text())] == [
            "before", "child", "after"]

    def test_null_logger_swallows_events(self):
        assert NULL_TELEMETRY.log is None
        NULL_TELEMETRY.event("anything", goes="here")  # must not raise
        assert not hasattr(NULL_TELEMETRY, "counters")
