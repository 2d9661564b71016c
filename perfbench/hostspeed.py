"""How fast the host runs Python while a block of work is timed.

On a shared host the same code runs up to 2x slower for stretches from
under a second to minutes, depending on what else the machine runs.
:class:`Timer` times a block and, while the block runs, interrupts it
every :data:`PERIOD` seconds to time a small fixed reference kernel in
the same thread.  The block's seconds, less the kernel's, are divided
by the kernel's mean slowdown against :data:`REFERENCE_S`.  A change to
the program moves the block's time but not the kernel's, so it still
shows in full; a change in host speed moves both, and cancels.

Samples taken all through the block, not only around it, follow speed
changes shorter than the block.  On the host this benchmark was built
on, they cut the spread (interquartile range over median) of single
calls from 18% to 3% on ``paper``, 23% to 6% on ``plain`` and 21% to
7% on ``resume``; probes taken only before and after each call made
``paper`` worse.

The kernel is this file's own code and never calls the program:
dictionary updates and a JSON round trip of a nested record, the
interpreter work of the runner and the store.  Of the kernels tried, it
followed all three workloads most closely.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
import time
from typing import Any, Dict, List

#: Mean seconds of one :func:`kernel` call on the host this benchmark was
#: built on (Intel Xeon, 2 vCPUs, CPython 3.11.7).  It only sets the
#: scale: a reported time is the time the block would take on a host
#: where the kernel takes this long.
REFERENCE_S = 0.000185

#: Seconds between kernel samples while a block runs; the samples take
#: about 2% of the block, and that time is taken out again.
PERIOD = 0.01

_RECORD: Dict[str, Any] = {
    f"cell{i}": {"workload": f"w{i % 7}", "ipc": i * 0.37, "hits": [i, i + 1]}
    for i in range(20)
}
_KEYS = [f"k{i}" for i in range(64)]


def kernel() -> int:
    """Fixed work: dictionary updates and a JSON round trip."""
    seen: Dict[str, int] = {}
    total = 0
    for i in range(400):
        key = _KEYS[(i * 7) & 63]
        total += seen.get(key, 0)
        seen[key] = i
    return total + len(json.loads(json.dumps(_RECORD)))


def _timed_kernel() -> float:
    # The collector stays off, so that a collection of the program's
    # heap never lands in a sample; its setting is restored after.
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Timer:
    """Time the enclosed block, and the host's speed while it runs.

    It takes over ``SIGALRM`` and the real-time interval timer for the
    block, so it runs in the main thread, and the block must use neither.
    """

    def __init__(self) -> None:
        #: Seconds of the block, kernel samples included.
        self.wall = 0.0
        #: Seconds of the block spent taking kernel samples.
        self.spent = 0.0
        #: Seconds of each kernel sample.
        self.samples: List[float] = []
        self._start = 0.0
        self._previous: Any = None

    def __enter__(self) -> "Timer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            # A block shorter than one period: sample once, after it.
            self.samples.append(_timed_kernel())

    def _sample(self, signum: int, frame: Any) -> None:
        entered = time.perf_counter()
        self.samples.append(_timed_kernel())
        self.spent += time.perf_counter() - entered

    @property
    def slowdown(self) -> float:
        """The host's mean slowdown against the reference during the block."""
        return statistics.fmean(self.samples) / REFERENCE_S

    @property
    def seconds(self) -> float:
        """The block's seconds, kernel samples left out, at the reference speed."""
        return (self.wall - self.spent) / self.slowdown
