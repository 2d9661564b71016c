"""Prefetch request queue (paper Table 1: 128 entries).

FIFO of prefetch requests waiting for bus/MSHR resources.  When a new
request arrives and the queue is full, the *oldest* request is dropped
to make room — those are the paper's "discarded" prefetches (Figure 21),
which pile up under bursty miss traffic (art, gcc).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from ...common.errors import ConfigError


class PrefetchQueue:
    """Bounded FIFO with drop-oldest overflow."""

    def __init__(self, capacity: int = 128) -> None:
        """An empty queue of *capacity* requests (Table 1: 128)."""
        if capacity < 1:
            raise ConfigError(f"prefetch queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._queue: Deque[Any] = deque()
        self.enqueued = 0
        self.discarded = 0

    def __len__(self) -> int:
        return len(self._queue)

    def push(self, request: Any) -> Optional[Any]:
        """Enqueue *request*; returns a displaced (discarded) request or None."""
        displaced = None
        if len(self._queue) >= self.capacity:
            displaced = self._queue.popleft()
            self.discarded += 1
        self._queue.append(request)
        self.enqueued += 1
        return displaced

    def reset_stats(self) -> None:
        """Zero the counters; queued requests are kept (warm-up)."""
        self.enqueued = 0
        self.discarded = 0

    def pop(self) -> Optional[Any]:
        """Dequeue the oldest request, or None when empty."""
        if not self._queue:
            return None
        return self._queue.popleft()

    def peek(self) -> Optional[Any]:
        """Oldest request without removing it."""
        return self._queue[0] if self._queue else None
