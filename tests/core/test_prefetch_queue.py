"""Tests for the prefetch request queue."""

import pytest

from repro.common.errors import ConfigError
from repro.core.prefetch.queue import PrefetchQueue


class TestQueue:
    def test_fifo_order(self):
        q = PrefetchQueue(4)
        for x in ("a", "b", "c"):
            q.push(x)
        assert q.pop() == "a"
        assert q.pop() == "b"

    def test_pop_empty(self):
        assert PrefetchQueue(2).pop() is None

    def test_peek(self):
        q = PrefetchQueue(2)
        assert q.peek() is None
        q.push("x")
        assert q.peek() == "x"
        assert len(q) == 1

    def test_overflow_discards_oldest(self):
        q = PrefetchQueue(2)
        q.push("a")
        q.push("b")
        displaced = q.push("c")
        assert displaced == "a"
        assert q.discarded == 1
        assert [q.pop(), q.pop()] == ["b", "c"]

    def test_enqueued_counter(self):
        q = PrefetchQueue(2)
        q.push("a")
        q.push("b")
        q.push("c")
        assert q.enqueued == 3

    def test_reset_stats_keeps_entries(self):
        q = PrefetchQueue(1)
        q.push("a")
        q.push("b")
        q.reset_stats()
        assert q.discarded == 0
        assert q.pop() == "b"

    def test_invalid_capacity(self):
        with pytest.raises(ConfigError):
            PrefetchQueue(0)
