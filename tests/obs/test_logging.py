"""Tests for the structured JSONL event log."""

import io
import json

from repro.obs.logging import NULL_LOGGER, JsonlLogger, current_logger


def _lines(text):
    return [json.loads(line) for line in text.splitlines() if line]


class TestJsonlLogger:
    def test_events_are_one_json_object_per_line(self):
        stream = io.StringIO()
        logger = JsonlLogger(stream)
        logger.event("cell.done", workload="gzip", config="base", ok=True)
        logger.event("sweep.end", cells=16)
        first, second = _lines(stream.getvalue())
        assert first["event"] == "cell.done"
        assert first["workload"] == "gzip"
        assert first["ok"] is True
        assert isinstance(first["ts"], float)
        assert second == {"ts": second["ts"], "event": "sweep.end", "cells": 16}
        assert len(stream.getvalue().splitlines()) == 2

    def test_path_target_opens_lazily_and_appends(self, tmp_path):
        path = tmp_path / "events.jsonl"
        logger = JsonlLogger(path)
        assert not path.exists()  # nothing written yet
        logger.event("a")
        logger.close()
        JsonlLogger(path).event("b")
        events = [r["event"] for r in _lines(path.read_text())]
        assert events == ["a", "b"]

    def test_non_json_fields_stringify(self):
        stream = io.StringIO()
        JsonlLogger(stream).event("x", where=Exception("boom"))
        (record,) = _lines(stream.getvalue())
        assert record["where"] == "boom"

    def test_context_installs_ambient_logger(self, tmp_path):
        assert current_logger() is NULL_LOGGER
        with JsonlLogger(tmp_path / "log.jsonl") as logger:
            assert current_logger() is logger
            current_logger().event("inside")
        assert current_logger() is NULL_LOGGER
        (record,) = _lines((tmp_path / "log.jsonl").read_text())
        assert record["event"] == "inside"

    def test_nested_loggers_restore_outer(self, tmp_path):
        with JsonlLogger(tmp_path / "outer.jsonl") as outer:
            with JsonlLogger(tmp_path / "inner.jsonl") as inner:
                assert current_logger() is inner
            assert current_logger() is outer

    def test_null_logger_swallows_events(self):
        assert NULL_LOGGER.enabled is False
        NULL_LOGGER.event("anything", goes="here")  # must not raise
