"""Trace container and builder.

A :class:`Trace` is the unit of work fed to the simulator: a flat,
memory-efficient sequence of (address, pc, kind, gap) records, stored
as four parallel numpy arrays of :data:`COLUMN_DTYPES`.  Every way of
making one — vectorized synthesis, trace-cache loads, trace files, and
:class:`TraceBuilder` for small hand-written traces — goes through the
constructor, which refuses values a column cannot hold.  The batch
engine scans the columns directly; the scalar loop reads them through
:meth:`Trace.rows`, which yields plain-``int`` tuples via ``memoryview``
objects, so mmap-backed cache entries are consumed zero-copy without a
``.tolist()`` materialization.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..common.errors import TraceError
from ..common.types import AccessType, MemoryAccess

#: Row tuple yielded by :meth:`Trace.rows`: (address, pc, kind, gap).
TraceRow = Tuple[int, int, int, int]

#: A column as the constructor accepts it: any 1-D integer sequence.
Column = Union[Sequence[int], np.ndarray]

#: Dtypes of the trace columns, in (addresses, pcs, kinds, gaps)
#: order.  Shared with trace_io and the trace cache so on-disk
#: layouts and in-memory traces agree.
COLUMN_DTYPES = (np.int64, np.int64, np.int8, np.int32)

#: Value bounds every access must meet, so it fits its column's dtype;
#: kinds must be :class:`AccessType` values.  :class:`TraceBuilder`
#: checks them per access, the :class:`Trace` constructor per column.
_ADDRESS_MAX = int(np.iinfo(COLUMN_DTYPES[0]).max)
_PC_MIN = int(np.iinfo(COLUMN_DTYPES[1]).min)
_PC_MAX = int(np.iinfo(COLUMN_DTYPES[1]).max)
_GAP_MAX = int(np.iinfo(COLUMN_DTYPES[3]).max)
_VALID_KINDS = frozenset(int(kind) for kind in AccessType)

#: Inclusive (low, high) bounds per column, in (addresses, pcs, kinds,
#: gaps) order.  The AccessType values are contiguous (pinned by
#: tests/traces/test_trace.py), so the kinds' bounds are a membership
#: test.
_COLUMN_BOUNDS = (
    (0, _ADDRESS_MAX),
    (_PC_MIN, _PC_MAX),
    (min(_VALID_KINDS), max(_VALID_KINDS)),
    (0, _GAP_MAX),
)
_COLUMN_NAMES = ("addresses", "pcs", "kinds", "gaps")


class Trace:
    """An immutable sequence of memory accesses.

    Build one with :class:`TraceBuilder`, :meth:`Trace.from_accesses`,
    or hand the constructor four parallel integer columns.  Each column
    is checked against its bounds (addresses and gaps non-negative,
    kinds :class:`AccessType` values, every value within its
    :data:`COLUMN_DTYPES` entry) before it is normalized to a
    C-contiguous array of that dtype, so nothing wraps; the
    normalization is zero-copy when the column already is one, as for
    mmap-backed cache loads.

    The trace keeps read-only views of its columns, so writing to a
    column of any trace (built, loaded, sliced or concatenated) raises
    ``ValueError``.  An array a caller passed in is not copied and stays
    writable through the caller's own reference; do not write to it
    once the trace holds it.  Because the columns cannot change, data
    derived from them alone may be cached in :attr:`memo` (the batch
    engine keeps its 3C shadow replay there, see
    :func:`repro.sim.batch._classify`).
    """

    __slots__ = ("addresses", "pcs", "kinds", "gaps", "name", "_total_gap", "memo")

    def __init__(
        self,
        addresses: Column,
        pcs: Column,
        kinds: Column,
        gaps: Column,
        name: str = "trace",
        *,
        total_gap: Optional[int] = None,
    ) -> None:
        columns = (addresses, pcs, kinds, gaps)
        lengths = {len(col) for col in columns}
        if len(lengths) != 1:
            raise TraceError(f"column lengths differ: {sorted(lengths)}")
        self.addresses, self.pcs, self.kinds, self.gaps = (
            _as_column(col, dtype, bounds, f"trace {name!r} {what}")
            for col, dtype, bounds, what in zip(
                columns, COLUMN_DTYPES, _COLUMN_BOUNDS, _COLUMN_NAMES)
        )
        self.name = name
        self._total_gap = total_gap
        #: Data derived from the columns, keyed by everything else it
        #: depends on; lives and dies with this trace.
        self.memo: Dict[Hashable, Any] = {}

    @classmethod
    def from_accesses(cls, accesses: Iterable[MemoryAccess], name: str = "trace") -> "Trace":
        """Build a trace from :class:`MemoryAccess` records."""
        builder = TraceBuilder(name=name)
        for acc in accesses:
            builder.add(acc.address, pc=acc.pc, kind=acc.kind, gap=acc.gap)
        return builder.build()

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[MemoryAccess]:
        for addr, pc, kind, gap in self.rows():
            yield MemoryAccess(addr, pc=pc, kind=AccessType(kind), gap=gap)

    def rows(self) -> Iterator[TraceRow]:
        """Iterate raw (address, pc, kind, gap) tuples — the fast path.

        Always yields plain Python ints: the columns are read through
        ``memoryview``s (zero-copy, works on read-only mmaps).
        """
        return zip(
            memoryview(self.addresses),
            memoryview(self.pcs),
            memoryview(self.kinds),
            memoryview(self.gaps),
        )

    def __getitem__(self, i: int) -> MemoryAccess:
        return MemoryAccess(
            int(self.addresses[i]),
            pc=int(self.pcs[i]),
            kind=AccessType(int(self.kinds[i])),
            gap=int(self.gaps[i]),
        )

    @property
    def total_gap_cycles(self) -> int:
        """Sum of compute gaps — the trace's stall-free cycle count.

        Memoized: synthesis and cache loads pass the precomputed sum in,
        and the first on-demand computation is cached.
        """
        total = self._total_gap
        if total is None:
            total = self._total_gap = int(self.gaps.sum(dtype=np.int64))
        return total

    def without_software_prefetches(self) -> "Trace":
        """Return a copy with SW_PREFETCH records dropped.

        The dropped records' compute gaps are folded into the following
        access so stall-free time is preserved (the instruction stream
        minus the prefetch instructions themselves, which are a
        negligible fraction).
        """
        builder = TraceBuilder(name=f"{self.name}-nosw")
        pending_gap = 0
        for addr, pc, kind, gap in self.rows():
            if kind == AccessType.SW_PREFETCH:
                pending_gap += gap
                continue
            builder.add(addr, pc=pc, kind=kind, gap=gap + pending_gap)
            pending_gap = 0
        return builder.build()

    def with_software_prefetches(self, *, distance: int = 256, period: int = 4) -> "Trace":
        """Return a copy with compiler-style software prefetches injected.

        Every *period*-th access is preceded by a SW_PREFETCH of the
        address *distance* bytes ahead (the aggressive peak-build
        prefetching of the paper's binaries).  Injected records carry a
        zero gap — the prefetch instruction shares the original access's
        compute window — so stall-free time is preserved, and the paper's
        methodology of treating them as ordinary references applies.
        """
        if distance <= 0 or period <= 0:
            raise TraceError("distance and period must be positive")
        builder = TraceBuilder(name=f"{self.name}+swpf")
        for i, (addr, pc, kind, gap) in enumerate(self.rows()):
            if i % period == 0 and kind != AccessType.SW_PREFETCH:
                builder.add(addr + distance, pc=pc,
                            kind=AccessType.SW_PREFETCH, gap=gap)
                gap = 0
            builder.add(addr, pc=pc, kind=kind, gap=gap)
        return builder.build()

    def sliced(self, start: int, stop: Optional[int] = None) -> "Trace":
        """Return records [start:stop) as a new trace."""
        sl = slice(start, stop)
        return Trace(
            self.addresses[sl], self.pcs[sl], self.kinds[sl], self.gaps[sl],
            name=f"{self.name}[{start}:{stop if stop is not None else ''}]",
        )

    def concatenated(self, other: "Trace", name: Optional[str] = None) -> "Trace":
        """Return self followed by *other*."""
        return Trace(
            *(np.concatenate(pair) for pair in zip(self.to_arrays(), other.to_arrays())),
            name=name or f"{self.name}+{other.name}",
        )

    def scan_columns(
        self, start: int = 0, stop: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy (addresses, kinds, gaps) views of rows [start:stop).

        The batch-dispatch engine scans run boundaries over columns
        rather than rows; this helper hands it the three columns every
        batch reads as array views (only the prefetch event loop reads
        PCs, at demand misses, and slices ``pcs`` itself).
        """
        if start < 0 or (stop is not None and stop < start):
            raise TraceError(f"invalid scan range [{start}:{stop}]")
        sl = slice(start, stop)
        return self.addresses[sl], self.kinds[sl], self.gaps[sl]

    def to_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The columns (addresses, pcs, kinds, gaps) themselves, not
        copies; they are read-only, so a write to one raises."""
        return self.addresses, self.pcs, self.kinds, self.gaps

    def footprint_blocks(self, block_size: int) -> int:
        """Number of distinct *block_size*-byte blocks touched."""
        shift = block_size.bit_length() - 1
        return int(np.unique(self.addresses >> shift).size)

    def __repr__(self) -> str:
        return f"Trace(name={self.name!r}, length={len(self)})"


def _as_column(values: Column, dtype, bounds: Tuple[int, int], what: str) -> np.ndarray:
    """Check one column against its inclusive *bounds*, then normalize it
    to a read-only, C-contiguous array of *dtype* (no copy when it
    already is one — the mmap zero-copy path).

    The check reads the source values, before the cast, so a value the
    dtype cannot hold is refused rather than wrapped; a bound the source
    dtype already guarantees costs no pass over the column.  A writable
    result is returned as a read-only view, which leaves the flag of a
    caller's own array alone.
    """
    col = np.asarray(values)
    if col.size:
        low, high = bounds
        if col.dtype.kind not in "iu":
            raise TraceError(
                f"{what} must be integers in [{low}, {high}], got {col.dtype} values")
        info = np.iinfo(col.dtype)
        if info.min < low and int(col.min()) < low:
            raise TraceError(f"{what} value {int(col.min())} below {low}")
        if info.max > high and int(col.max()) > high:
            raise TraceError(f"{what} value {int(col.max())} above {high}")
    col = np.ascontiguousarray(col, dtype=dtype)
    if col.flags.writeable:
        col = col.view()
        col.flags.writeable = False
    return col


class TraceBuilder:
    """Append-only builder for :class:`Trace`."""

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self._addresses: List[int] = []
        self._pcs: List[int] = []
        self._kinds: List[int] = []
        self._gaps: List[int] = []

    def add(
        self,
        address: int,
        *,
        pc: int = 0,
        kind: int = AccessType.LOAD,
        gap: int = 1,
    ) -> None:
        """Append one access.

        Raises :class:`TraceError` for a negative address or gap, a kind
        outside :class:`AccessType`, or a value its column's
        :data:`COLUMN_DTYPES` entry cannot hold — the constructor's
        column bounds, checked per access so that a caller such as
        :func:`~repro.traces.trace_io.load_text` can name the bad line.
        """
        if address < 0:
            raise TraceError(f"negative address {address}")
        if gap < 0:
            raise TraceError(f"negative gap {gap}")
        if address > _ADDRESS_MAX:
            raise TraceError(f"address {address} exceeds {_ADDRESS_MAX}")
        if not _PC_MIN <= pc <= _PC_MAX:
            raise TraceError(f"pc {pc} outside [{_PC_MIN}, {_PC_MAX}]")
        if gap > _GAP_MAX:
            raise TraceError(f"gap {gap} exceeds {_GAP_MAX}")
        kind = int(kind)
        if kind not in _VALID_KINDS:
            raise TraceError(
                f"invalid access kind {kind} (valid: {sorted(_VALID_KINDS)})")
        self._addresses.append(address)
        self._pcs.append(pc)
        self._kinds.append(kind)
        self._gaps.append(gap)

    def __len__(self) -> int:
        return len(self._addresses)

    def build(self) -> Trace:
        """Finalize into a :class:`Trace` (builder may keep being used)."""
        return Trace(
            self._addresses, self._pcs, self._kinds, self._gaps,
            name=self.name,
            total_gap=sum(self._gaps),
        )
