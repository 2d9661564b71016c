"""Metric collectors for the paper's characterization figures.

:class:`TimekeepingMetrics` accumulates, during one simulation run:

- closed generations: the live-time / dead-time histograms (Figure 4),
  dead-block predictor evaluation (Figures 14, 16) and the consecutive
  live-time pairs of Figure 15;
- per-miss correlations — the miss's 3C class together with the
  timekeeping metrics of the *previous* generation of the missing block
  (reload intervals of Figures 5, 7, 9 and the predictor sweeps of
  Figures 8, 10, 11);
- the access-interval histogram (Figure 5), binned per hit.

Generations and correlations are int64 columns
(:class:`GenerationColumns`, :class:`CorrelationColumns`) from the
engine that feeds them, through the checkpoint store, to the figures
that read them; their histograms are binned from the columns on read.
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
        """Store one miss's class and its previous generation's times."""
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


def _histogram(bin_width: int, values: np.ndarray) -> Histogram:
    """A paper-axis histogram of *values*, equal to :meth:`Histogram.add`
    over them in order; raises ValueError on a negative value."""
    out = Histogram(bin_width, NUM_BINS)
    out.add_many(values)
    return out


class TimekeepingMetrics:
    """Accumulates every timekeeping statistic the paper reports, keeping
    generations and correlations once, as the columns its views bin."""

    def __init__(self) -> None:
        """An empty bank: no interval, generation or correlation yet."""
        self.access_interval = Histogram(TIME_BIN, NUM_BINS)
        #: Closed generations (rows of :class:`GenerationColumns`) and
        #: miss correlations (rows of :class:`CorrelationColumns`).
        self._generations = _ColumnLog(7)
        self._correlations = _ColumnLog(4)

    # -- event feed ----------------------------------------------------------

    def on_generation(self, record: GenerationRecord) -> None:
        """Consume a closed generation (GenerationTracker callback)."""
        prev = record.prev_live_time
        self._generations.append((
            record.block_addr, record.start, record.live_time, record.dead_time,
            record.hit_count, record.max_access_interval,
            -1 if prev is None else prev,
        ))

    def on_access_interval(self, interval: int) -> None:
        """Consume one within-live-time access interval."""
        self.access_interval.add(interval)

    def on_miss_correlation(self, miss_class: MissClass, reload_interval: int,
                            last_dead_time: int, last_live_time: int) -> None:
        """Consume one non-cold miss with its previous-generation metrics."""
        self._correlations.append(
            (int(miss_class), reload_interval, last_dead_time, last_live_time)
        )

    def bulk_generations(self, table: np.ndarray) -> None:
        """Consume a batch of closed generations at once.

        *table* is a ``(7, n)`` int64 array laid out as
        :class:`GenerationColumns`, in eviction order; equivalent to
        :meth:`on_generation` per column.
        """
        self._generations.extend(table)

    def bulk_correlations(self, table: np.ndarray) -> None:
        """Consume a batch of non-cold miss correlations at once.

        *table* is a ``(4, n)`` int64 array laid out as
        :class:`CorrelationColumns`, in miss order; equivalent to
        :meth:`on_miss_correlation` per column.
        """
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

    # -- views computed from the columns (Figures 4, 5, 7, 9) -----------------

    @property
    def live_time(self) -> Histogram:
        """Live time per closed generation (Figure 4)."""
        return _histogram(TIME_BIN, self._generations.table()[2])

    @property
    def dead_time(self) -> Histogram:
        """Dead time per closed generation (Figure 4); raises ValueError
        on a negative one (a prefetch arrival before the fill)."""
        return _histogram(TIME_BIN, self._generations.table()[3])

    @property
    def reload_interval(self) -> Histogram:
        """Reload interval per non-cold miss (Figure 5)."""
        return _histogram(RELOAD_BIN, self._correlations.table()[1])

    @property
    def reload_by_class(self) -> Dict[MissClass, Histogram]:
        """Reload intervals keyed by the *next* miss's class (Figure 7):
        the paper correlates a block's last generation with the type of
        its next miss."""
        return self._by_class(RELOAD_BIN, 1)

    @property
    def dead_by_class(self) -> Dict[MissClass, Histogram]:
        """Last dead times before conflict and capacity misses (Figure 9)."""
        return self._by_class(TIME_BIN, 2)

    def _by_class(self, bin_width: int, row: int) -> Dict[MissClass, Histogram]:
        table = self._correlations.table()
        return {
            miss_class: _histogram(bin_width, table[row][table[0] == int(miss_class)])
            for miss_class in (MissClass.CONFLICT, MissClass.CAPACITY)
        }

    @property
    def total_generations(self) -> int:
        """Number of closed generations."""
        return int(self._generations.table().shape[1])

    @property
    def zero_live_generations(self) -> int:
        """Number of closed generations with zero live time."""
        return int(np.count_nonzero(self._generations.table()[2] == 0))

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
        total = self.total_generations
        return self.zero_live_generations / total if total else 0.0

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
            "access_interval": self.access_interval.to_dict(),
            "miss_correlations": _pack(self._correlations.table()),
            "generations": _pack(self._generations.table()),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TimekeepingMetrics":
        """Rebuild the collector state serialized by :meth:`to_dict`.

        Raises :class:`SimulationError` when a packed table does not
        decode (zlib's checksum catches a flipped byte).
        """
        out = cls()
        out.access_interval = Histogram.from_dict(data["access_interval"])
        out._correlations.extend(_unpack(data["miss_correlations"], 4))
        out._generations.extend(_unpack(data["generations"], 7))
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
