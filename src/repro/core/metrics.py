"""Metric collectors for the paper's characterization figures.

:class:`TimekeepingMetrics` accumulates, during one simulation run:

- live-time / dead-time histograms (Figure 4) and access-interval /
  reload-interval histograms (Figure 5), with the paper's bin widths
  (x100 cycles; reload intervals x1000);
- per-miss correlations — the miss's 3C class together with the
  timekeeping metrics of the *previous* generation of the missing block
  (Figures 7, 9 splits and the predictor sweeps of Figures 8, 10, 11);
- closed generations for dead-block predictor evaluation
  (Figures 14, 16), which also give the consecutive live-time pairs of
  Figure 15.

The collectors store raw integers; binning to the paper's axes happens
at read time so one run feeds many figures.  Generations and
correlations are int64 columns (:class:`GenerationColumns`,
:class:`CorrelationColumns`) from the engine that feeds them, through
the checkpoint store, to the predictor sweeps that read them.
"""

from __future__ import annotations

import binascii
import zlib
from typing import Any, Dict, List, NamedTuple, Sequence, Tuple, TypeVar

import numpy as np

from ..common.errors import SimulationError
from ..common.stats import Histogram
from ..common.types import MissClass
from .generations import GenerationRecord, records_from_table

#: Paper figure axes: 100 bins of 100 cycles (+overflow) for live/dead
#: time and access interval; 100 bins of 1000 cycles for reload interval.
TIME_BIN = 100
RELOAD_BIN = 1000
NUM_BINS = 100


class GenerationColumns(NamedTuple):
    """Closed generations as parallel int64 columns, in eviction order.

    ``prev_live_time`` is the live time of the block's previous closed
    generation, or -1 when it had none.
    """

    block_addr: np.ndarray
    start: np.ndarray
    live_time: np.ndarray
    dead_time: np.ndarray
    hit_count: np.ndarray
    max_access_interval: np.ndarray
    prev_live_time: np.ndarray

    def live_time_pairs(self) -> np.ndarray:
        """``(prev_live_time, live_time)`` rows, one per generation that
        has a previous live time (Figure 15)."""
        has_prev = self.prev_live_time >= 0
        return np.stack((self.prev_live_time[has_prev], self.live_time[has_prev]), axis=1)

    def live_time_ratios(self) -> np.ndarray:
        """current/previous live-time ratio per pair (Figure 15 bottom).

        Zero live times are mapped to one cycle so the ratio stays
        finite; the paper's 16-cycle counter resolution makes true zeros
        indistinguishable from <16 anyway.
        """
        pairs = np.maximum(self.live_time_pairs(), 1)
        return pairs[:, 1] / pairs[:, 0]


class CorrelationColumns(NamedTuple):
    """Non-cold misses joined with their block's previous generation.

    Parallel int64 columns in miss order; ``miss_class`` holds
    :class:`MissClass` values.
    """

    miss_class: np.ndarray
    reload_interval: np.ndarray
    last_dead_time: np.ndarray
    last_live_time: np.ndarray


Columns = TypeVar("Columns", GenerationColumns, CorrelationColumns)


def concatenated(banks: Sequence[Columns]) -> Columns:
    """One column set holding every bank's rows, bank after bank."""
    return type(banks[0])(*map(np.concatenate, zip(*banks)))


class MissCorrelation:
    """One row of :class:`CorrelationColumns` as an object.

    The element of the :attr:`TimekeepingMetrics.miss_correlations`
    view, for tests and examples; nothing on the write, load or figure
    path builds one.
    """

    __slots__ = ("miss_class", "reload_interval", "last_dead_time", "last_live_time")

    def __init__(
        self,
        miss_class: MissClass,
        reload_interval: int,
        last_dead_time: int,
        last_live_time: int,
    ) -> None:
        self.miss_class = miss_class
        self.reload_interval = reload_interval
        self.last_dead_time = last_dead_time
        self.last_live_time = last_live_time

    def __repr__(self) -> str:
        return (
            f"MissCorrelation({self.miss_class}, reload={self.reload_interval}, "
            f"dead={self.last_dead_time}, live={self.last_live_time})"
        )


class _ColumnLog:
    """Append-only int64 table: bulk chunks and single rows, in order.

    Chunks are ``(width, n)`` arrays; single rows wait in a list until
    the next chunk or read.  :meth:`table` concatenates once and keeps
    the result.
    """

    __slots__ = ("width", "_chunks", "_rows")

    def __init__(self, width: int) -> None:
        self.width = width
        self._chunks: List[np.ndarray] = []
        self._rows: List[tuple] = []

    def append(self, row: tuple) -> None:
        self._rows.append(row)

    def extend(self, table: np.ndarray) -> None:
        self._seal()
        self._chunks.append(table)

    def table(self) -> np.ndarray:
        self._seal()
        chunks = self._chunks
        if len(chunks) != 1:
            chunks[:] = [
                np.concatenate(chunks, axis=1) if chunks
                else np.empty((self.width, 0), dtype=np.int64)
            ]
        return chunks[0]

    def _seal(self) -> None:
        if self._rows:
            self._chunks.append(np.array(self._rows, dtype=np.int64).T)
            self._rows.clear()


def _add_unchecked(h: Histogram, value: int) -> None:
    """:meth:`Histogram.add` without its range check (see on_generation)."""
    idx = value // h.bin_width
    if idx >= h.num_bins:
        h.overflow += 1
    else:
        h.counts[idx] += 1
    h.total += 1
    h._sum += value


class TimekeepingMetrics:
    """Accumulates every timekeeping statistic the paper reports."""

    def __init__(self) -> None:
        self.live_time = Histogram(TIME_BIN, NUM_BINS)
        self.dead_time = Histogram(TIME_BIN, NUM_BINS)
        self.access_interval = Histogram(TIME_BIN, NUM_BINS)
        self.reload_interval = Histogram(RELOAD_BIN, NUM_BINS)
        # Split histograms by miss type (Figures 7 and 9).  Keyed by the
        # *next* miss's class, as the paper correlates the metrics of a
        # block's last generation with the type of its next miss.
        self.reload_by_class = {
            MissClass.CONFLICT: Histogram(RELOAD_BIN, NUM_BINS),
            MissClass.CAPACITY: Histogram(RELOAD_BIN, NUM_BINS),
        }
        self.dead_by_class = {
            MissClass.CONFLICT: Histogram(TIME_BIN, NUM_BINS),
            MissClass.CAPACITY: Histogram(TIME_BIN, NUM_BINS),
        }
        self.live_by_class = {
            MissClass.CONFLICT: Histogram(TIME_BIN, NUM_BINS),
            MissClass.CAPACITY: Histogram(TIME_BIN, NUM_BINS),
        }
        #: Closed generations (rows of :class:`GenerationColumns`) and
        #: miss correlations (rows of :class:`CorrelationColumns`).
        self._generations = _ColumnLog(7)
        self._correlations = _ColumnLog(4)
        self.zero_live_generations = 0
        self.total_generations = 0

    # -- event feed ----------------------------------------------------------

    def on_generation(self, record: GenerationRecord) -> None:
        """Consume a closed generation (GenerationTracker callback).

        The histograms skip :meth:`Histogram.add`'s range check: a dead
        time is negative only when a prefetch arrival closes a
        generation before its fill, and both engines bin that one
        through a negative index alike.
        """
        lt = record.live_time
        self.total_generations += 1
        _add_unchecked(self.live_time, lt)
        _add_unchecked(self.dead_time, record.dead_time)
        if lt == 0:
            self.zero_live_generations += 1
        prev = record.prev_live_time
        self._generations.append((
            record.block_addr, record.start, lt, record.dead_time,
            record.hit_count, record.max_access_interval,
            -1 if prev is None else prev,
        ))

    def on_access_interval(self, interval: int) -> None:
        """Consume one within-live-time access interval."""
        self.access_interval.add(interval)

    def on_miss_correlation(
        self,
        miss_class: MissClass,
        reload_interval: int,
        last_dead_time: int,
        last_live_time: int,
    ) -> None:
        """Consume one non-cold miss with its previous-generation metrics."""
        self.reload_interval.add(reload_interval)
        if miss_class in self.reload_by_class:
            self.reload_by_class[miss_class].add(reload_interval)
            self.dead_by_class[miss_class].add(last_dead_time)
            self.live_by_class[miss_class].add(last_live_time)
        self._correlations.append(
            (int(miss_class), reload_interval, last_dead_time, last_live_time)
        )

    def bulk_generations(self, table: np.ndarray) -> None:
        """Consume a batch of closed generations at once.

        *table* is a ``(7, n)`` int64 array laid out as
        :class:`GenerationColumns`, in eviction order.  Equivalent to
        calling :meth:`on_generation` per generation in order:
        histogram counts are commutative integers, and the float
        running sums go through :meth:`Histogram.add_many`
        (bitwise-identical to sequential adds within binary64's
        exact-integer range).
        """
        live, dead = table[2], table[3]
        self.total_generations += int(live.size)
        self.live_time.add_many(live)
        if dead.size and int(dead.min()) < 0:
            for value in dead.tolist():
                _add_unchecked(self.dead_time, value)
        else:
            self.dead_time.add_many(dead)
        self.zero_live_generations += int(np.count_nonzero(live == 0))
        self._generations.extend(table)

    def bulk_correlations(self, table: np.ndarray) -> None:
        """Consume a batch of non-cold miss correlations at once.

        *table* is a ``(4, n)`` int64 array laid out as
        :class:`CorrelationColumns`, in miss order.  Equivalent to
        :meth:`on_miss_correlation` per row.
        """
        cls_arr, reload_arr, dead_arr, live_arr = table
        self.reload_interval.add_many(reload_arr)
        for miss_class in (MissClass.CONFLICT, MissClass.CAPACITY):
            mask = cls_arr == int(miss_class)
            if mask.any():
                self.reload_by_class[miss_class].add_many(reload_arr[mask])
                self.dead_by_class[miss_class].add_many(dead_arr[mask])
                self.live_by_class[miss_class].add_many(live_arr[mask])
        self._correlations.extend(table)

    # -- columns -------------------------------------------------------------

    @property
    def generation_columns(self) -> GenerationColumns:
        """The closed generations, in eviction order."""
        return GenerationColumns(*self._generations.table())

    @property
    def correlation_columns(self) -> CorrelationColumns:
        """The non-cold miss correlations, in miss order."""
        return CorrelationColumns(*self._correlations.table())

    # -- object views (tests, examples, benchmarks) ---------------------------

    @property
    def generations(self) -> List[GenerationRecord]:
        """The closed generations as records, built on each read."""
        return records_from_table(self._generations.table())

    @property
    def miss_correlations(self) -> List[MissCorrelation]:
        """The miss correlations as objects, built on each read."""
        classes, *rest = self._correlations.table().tolist()
        return list(map(MissCorrelation, map(MissClass, classes), *rest))

    @property
    def live_time_pairs(self) -> List[Tuple[int, int]]:
        """(prev_live_time, live_time) per generation that has history."""
        return list(map(tuple, self.generation_columns.live_time_pairs().tolist()))

    # -- derived views ---------------------------------------------------------

    def zero_live_fraction(self) -> float:
        """Fraction of generations with zero live time."""
        if self.total_generations == 0:
            return 0.0
        return self.zero_live_generations / self.total_generations

    def fraction_live_below(self, cycles: int) -> float:
        """Fraction of live times below *cycles* (paper quotes 58% < 100)."""
        return self.live_time.fraction_below(cycles)

    def fraction_dead_below(self, cycles: int) -> float:
        """Fraction of dead times below *cycles* (paper quotes 31% < 100)."""
        return self.dead_time.fraction_below(cycles)

    # -- serialization (checkpoint store) --------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a JSON-able dict; the exact inverse of :meth:`from_dict`.

        The generation (7 × n) and correlation (4 × n) tables are one
        packed string each (:func:`_pack`) holding the columns as in
        memory, so the figure pipeline can rebuild every
        characterization figure from the checkpoint store alone,
        byte-identically to a fresh in-memory run.
        """
        return {
            "live_time": self.live_time.to_dict(),
            "dead_time": self.dead_time.to_dict(),
            "access_interval": self.access_interval.to_dict(),
            "reload_interval": self.reload_interval.to_dict(),
            "reload_by_class": {
                k.name: h.to_dict() for k, h in self.reload_by_class.items()
            },
            "dead_by_class": {
                k.name: h.to_dict() for k, h in self.dead_by_class.items()
            },
            "live_by_class": {
                k.name: h.to_dict() for k, h in self.live_by_class.items()
            },
            "miss_correlations": _pack(self._correlations.table()),
            "generations": _pack(self._generations.table()),
            "zero_live_generations": self.zero_live_generations,
            "total_generations": self.total_generations,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TimekeepingMetrics":
        """Rebuild the collector state serialized by :meth:`to_dict`.

        Raises :class:`SimulationError` when a packed table does not
        decode (zlib's checksum catches a flipped byte).
        """
        out = cls()
        out.live_time = Histogram.from_dict(data["live_time"])
        out.dead_time = Histogram.from_dict(data["dead_time"])
        out.access_interval = Histogram.from_dict(data["access_interval"])
        out.reload_interval = Histogram.from_dict(data["reload_interval"])
        out.reload_by_class = {
            MissClass[k]: Histogram.from_dict(h)
            for k, h in data["reload_by_class"].items()
        }
        out.dead_by_class = {
            MissClass[k]: Histogram.from_dict(h)
            for k, h in data["dead_by_class"].items()
        }
        out.live_by_class = {
            MissClass[k]: Histogram.from_dict(h)
            for k, h in data["live_by_class"].items()
        }
        out._correlations.extend(_unpack(data["miss_correlations"], 4))
        out._generations.extend(_unpack(data["generations"], 7))
        out.zero_live_generations = data["zero_live_generations"]
        out.total_generations = data["total_generations"]
        return out


def _pack(table: np.ndarray) -> str:
    """A ``(width, n)`` int64 table as one string: little-endian int64,
    column after column, compressed with zlib level 1, then base64."""
    raw = np.ascontiguousarray(table, dtype="<i8").tobytes()
    return binascii.b2a_base64(zlib.compress(raw, 1), newline=False).decode("ascii")


def _unpack(text: str, width: int) -> np.ndarray:
    """The ``(width, n)`` int64 table :func:`_pack` wrote as *text*."""
    try:
        raw = zlib.decompress(binascii.a2b_base64(text))
    except (TypeError, ValueError, zlib.error) as exc:
        raise SimulationError(f"undecodable metric bank table: {exc!r}") from exc
    if len(raw) % (8 * width):
        raise SimulationError(
            f"metric bank table of {len(raw)} bytes is not {width} int64 columns"
        )
    return np.frombuffer(raw, dtype="<i8").reshape(width, -1).astype(np.int64)
