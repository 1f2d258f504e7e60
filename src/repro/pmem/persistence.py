"""Persistence-domain simulation: the volatile cache in front of PM media.

The central difficulty of PM programming — and the source of every crash
consistency bug the paper targets — is that a CPU store does not reach the
persistent media immediately.  It sits in a volatile cache line until the
line is written back (CLWB) and the writeback is ordered (SFENCE), or until
the cache evicts it at some arbitrary time.

:class:`PersistenceDomain` models exactly that, at cache-line (64 B)
granularity:

* ``store`` updates the volatile view and marks the touched lines DIRTY;
* ``flush`` (CLWB analogue) marks lines FLUSHED — queued for persistence
  but not yet ordered;
* ``drain`` (SFENCE analogue) writes every FLUSHED line to the media array.

A *strict crash snapshot* at any point is the media array: the bytes that
are guaranteed persistent.  Because real caches may evict dirty lines at
any time, a crash may additionally persist any subset of pending lines;
:mod:`repro.pmem.crash` enumerates those weaker states for the detectors.

Every operation emits a :class:`TraceEvent` to registered observers.  The
detection tools (:mod:`repro.detect`) and the PM-path instrumentation
(:mod:`repro.instrument`) are both implemented as observers, mirroring how
Pmemcheck and the PMFuzz runtime both consume the PM operation stream.
When *no* observers are registered — the common case on the fuzzing hot
path — the data-path operations skip event construction and dispatch
entirely (only the sequence counter advances), so an uninstrumented
execution pays nothing for the observability seam.

Single-pass crash harvesting
----------------------------
:meth:`plan_snapshots` arms the domain with a set of fence indices and
store indices at which to capture the media state.  A captured
:class:`MediaSnapshot` is cheap: it holds a reference to the live media
array plus a dict of lines overwritten *since* the capture point
(maintained copy-on-write by :meth:`drain`), and materializes the full
byte image lazily.  This is what lets the crash-image generator harvest
every strict crash image from one instrumented execution instead of one
re-execution per failure point (see :mod:`repro.core.crashgen`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List,
                    Optional, Set, Tuple)

from repro.errors import PMemError

#: Cache-line size in bytes, matching x86.
CACHE_LINE = 64

#: Window size for the chunked volatile-vs-media comparison.
_RANGE_CHUNK = 4096


class LineState(enum.Enum):
    """Persistence state of a single cache line."""

    CLEAN = "clean"  #: volatile view matches media
    DIRTY = "dirty"  #: stored to, not yet flushed
    FLUSHED = "flushed"  #: flushed (CLWB), awaiting a fence


class TraceEventKind(enum.Enum):
    """Kinds of events in the PM operation trace."""

    STORE = "store"
    LOAD = "load"
    FLUSH = "flush"
    FENCE = "fence"
    # Annotation events emitted by the pmdk layer, not the hardware model.
    TX_BEGIN = "tx_begin"
    TX_COMMIT = "tx_commit"
    TX_ABORT = "tx_abort"
    TX_ADD = "tx_add"
    TX_ADD_REDUNDANT = "tx_add_redundant"
    ALLOC = "alloc"
    FREE = "free"
    POOL_OPEN = "pool_open"
    POOL_CLOSE = "pool_close"
    RECOVERY = "recovery"
    FLUSH_REDUNDANT = "flush_redundant"


@dataclass(frozen=True)
class TraceEvent:
    """One entry in the PM operation trace.

    Attributes:
        kind: what happened.
        addr: pool-relative byte offset (0 for pure ordering events).
        size: number of bytes affected.
        seq: global sequence number, unique and monotonically increasing.
        site: source call-site label (``file:line`` of the workload code
            that invoked the PM library), used for bug attribution.
    """

    kind: TraceEventKind
    addr: int
    size: int
    seq: int
    site: str = ""


Observer = Callable[[TraceEvent], None]


class MediaSnapshot:
    """A lazy copy-on-write capture of the media array at one instant.

    The snapshot holds a *reference* to the domain's live media bytearray
    plus a dict of the original contents of every line overwritten since
    the capture point; :meth:`drain` maintains the dict.  Materializing
    costs one media copy plus one overlay write per saved line, and the
    capture itself costs O(1) — which is what makes harvesting ~8 crash
    images from a single execution cheaper than 8 re-executions.

    Attributes:
        kind: ``"fence"`` or ``"store"`` — which crash-point family.
        index: the fence index / store index of the capture point.
        fences_done: fences completed when the capture was taken.  For a
            fence snapshot this is ``index + 1`` (the capture happens
            after the fence's writeback), matching the fence count a
            legacy re-execution crashing at this point would report.
    """

    __slots__ = ("kind", "index", "fences_done", "_media_ref", "_saved")

    def __init__(self, kind: str, index: int, fences_done: int,
                 media_ref: bytearray) -> None:
        self.kind = kind
        self.index = index
        self.fences_done = fences_done
        self._media_ref = media_ref
        #: line index -> the line's media bytes at capture time, recorded
        #: only when a later fence overwrites the line (copy-on-write).
        self._saved: Dict[int, bytes] = {}

    def materialize(self) -> bytes:
        """Reconstruct the full media contents at the capture instant."""
        buf = bytearray(self._media_ref)
        for line, original in self._saved.items():
            start = line * CACHE_LINE
            buf[start:start + len(original)] = original
        return bytes(buf)


class PersistenceDomain:
    """Byte-addressable PM with a simulated volatile cache in front.

    Args:
        size: capacity in bytes.
        initial: optional initial *persistent* contents (e.g. from a PM
            image file); defaults to zeroes.

    The domain deliberately has no notion of virtual addresses: all
    addresses are pool-relative offsets, which is the reproduction of the
    paper's derandomization of persistent addresses via
    ``PMEM_MMAP_HINT`` (Section 4.4) — every run sees the same addresses.
    """

    def __init__(self, size: int, initial: Optional[bytes] = None) -> None:
        if size <= 0:
            raise PMemError(f"domain size must be positive, got {size}")
        if initial is not None and len(initial) != size:
            raise PMemError(
                f"initial contents are {len(initial)} bytes, expected {size}"
            )
        self.size = size
        self._media = bytearray(initial) if initial is not None else bytearray(size)
        self._volatile = bytearray(self._media)
        #: line index -> state (absent means CLEAN)
        self._lines: Dict[int, LineState] = {}
        #: dedicated index of FLUSHED lines, so a fence is O(flushed)
        #: instead of a scan over every tracked (mostly DIRTY) line.
        self._flushed: Set[int] = set()
        self._seq = 0
        self._fence_count = 0
        self._store_count = 0
        self._observers: List[Observer] = []
        #: Optional fence index at which to raise SimulatedCrash; managed
        #: by the executor, checked in :meth:`drain`.
        self.crash_at_fence: Optional[int] = None
        #: Optional store index at which to raise SimulatedCrash — a
        #: failure *between* ordering points, where pending (dirty or
        #: flushed-unfenced) lines make the space of possible persistent
        #: states larger than the strict snapshot.
        self.crash_at_store: Optional[int] = None
        #: Snapshot plan for single-pass crash harvesting (empty = off).
        self._snap_fences: FrozenSet[int] = frozenset()
        self._snap_stores: FrozenSet[int] = frozenset()
        self._snapshots: List[MediaSnapshot] = []

    # ------------------------------------------------------------------
    # Observer plumbing
    # ------------------------------------------------------------------
    def add_observer(self, observer: Observer) -> None:
        """Register a callback invoked for every trace event."""
        self._observers.append(observer)

    def remove_observer(self, observer: Observer) -> None:
        """Unregister a previously added observer."""
        self._observers.remove(observer)

    def emit(
        self,
        kind: TraceEventKind,
        addr: int = 0,
        size: int = 0,
        site: str = "",
    ) -> Optional[TraceEvent]:
        """Emit an annotation event (used by the pmdk layer).

        With no observers registered only the sequence counter advances:
        no :class:`TraceEvent` is constructed and ``None`` is returned,
        so the per-PM-op cost of the observability seam is one integer
        increment.  Sequence numbers are identical either way.
        """
        seq = self._seq
        self._seq = seq + 1
        if not self._observers:
            return None
        event = TraceEvent(kind=kind, addr=addr, size=size, seq=seq, site=site)
        for observer in self._observers:
            observer(event)
        return event

    # ------------------------------------------------------------------
    # Snapshot planning (single-pass crash harvesting)
    # ------------------------------------------------------------------
    def plan_snapshots(self, fences: Iterable[int] = (),
                       stores: Iterable[int] = ()) -> None:
        """Arm media captures at the given fence / store indices.

        Must be called before execution reaches the first planned index;
        indices never reached simply produce no snapshot.
        """
        self._snap_fences = frozenset(fences)
        self._snap_stores = frozenset(stores)

    def take_snapshots(self) -> List[MediaSnapshot]:
        """Return the snapshots captured so far, in execution order.

        Warm-open prefix captures (kind ``"warm"``) are internal to the
        executor's pool cache and never part of a crash-harvest plan, so
        they are excluded.
        """
        return [s for s in self._snapshots if s.kind != "warm"]

    # ------------------------------------------------------------------
    # Warm-open prefix capture / restore (executor pool cache)
    # ------------------------------------------------------------------
    def capture_warm_state(self) -> tuple:
        """Capture this domain's complete state for later reconstruction.

        Returns ``(snapshot, pending, seq, fence_count, store_count)``:
        a copy-on-write :class:`MediaSnapshot` of the media (registered
        with the domain so later fences preserve its view, exactly like
        a crash-plan snapshot) plus ``{line: (is_flushed, volatile
        bytes)}`` for every pending line.  Because CLEAN lines have
        volatile == media by construction, media + pending lines fully
        determine the domain; counters make the reconstruction
        observably identical (fence/store indexing, trace seq).
        """
        snapshot = MediaSnapshot("warm", -1, self._fence_count, self._media)
        self._snapshots.append(snapshot)
        pending: Dict[int, Tuple[bool, bytes]] = {}
        volatile = self._volatile
        size = self.size
        for line, state in self.pending_lines().items():
            start = line * CACHE_LINE
            end = start + CACHE_LINE
            if end > size:
                end = size
            pending[line] = (state is LineState.FLUSHED,
                             bytes(volatile[start:end]))
        return snapshot, pending, self._seq, self._fence_count, \
            self._store_count

    def warm_restore(self, pending: Dict[int, Tuple[bool, bytes]],
                     seq: int, fence_count: int, store_count: int) -> None:
        """Rebuild the state captured by :meth:`capture_warm_state`.

        ``self`` must be freshly constructed from the captured media
        (``initial=`` the materialized snapshot); this overlays the
        pending volatile lines and restores the line states and
        counters.  Mutation is strictly in place — subclasses keep
        aliasing views of the byte buffers.
        """
        volatile = self._volatile
        lines = self._lines
        flushed = self._flushed
        for line, (is_flushed, data) in pending.items():
            start = line * CACHE_LINE
            volatile[start:start + len(data)] = data
            if is_flushed:
                lines[line] = LineState.FLUSHED
                flushed.add(line)
            else:
                lines[line] = LineState.DIRTY
        self._seq = seq
        self._fence_count = fence_count
        self._store_count = store_count

    # ------------------------------------------------------------------
    # Data-path operations
    # ------------------------------------------------------------------
    # load/store/flush/drain run once per PM operation, so they check the
    # range inline and call :meth:`emit` only when an observer is
    # registered; otherwise they advance ``_seq`` by the number of events
    # they would have emitted, which keeps sequence numbers identical.
    def _check_range(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self.size:
            raise self._range_error(addr, size)

    def _range_error(self, addr: int, size: int) -> PMemError:
        return PMemError(
            f"access [{addr}, {addr + size}) outside domain of size {self.size}"
        )

    def load(self, addr: int, size: int, site: str = "") -> bytes:
        """Read ``size`` bytes from the volatile view (a PM read)."""
        if addr < 0 or size < 0 or addr + size > self.size:
            raise self._range_error(addr, size)
        if self._observers:
            self.emit(TraceEventKind.LOAD, addr, size, site)
        else:
            self._seq += 1
        return bytes(self._volatile[addr : addr + size])

    def store(self, addr: int, data: bytes, site: str = "") -> None:
        """Write ``data`` at ``addr`` (a PM store; volatile until persisted)."""
        size = len(data)
        if addr < 0 or addr + size > self.size:
            raise self._range_error(addr, size)
        self._volatile[addr : addr + size] = data
        if size:
            lines = self._lines
            flushed = self._flushed
            first = addr // CACHE_LINE
            last = (addr + size - 1) // CACHE_LINE
            for line in range(first, last + 1):
                lines[line] = LineState.DIRTY
                if flushed:
                    flushed.discard(line)
        store_index = self._store_count
        self._store_count += 1
        if self._observers:
            self.emit(TraceEventKind.STORE, addr, size, site)
        else:
            self._seq += 1
        if store_index in self._snap_stores:
            self._snapshots.append(MediaSnapshot(
                "store", store_index, self._fence_count, self._media))
        if self.crash_at_store is not None and store_index == self.crash_at_store:
            from repro.errors import SimulatedCrash

            raise SimulatedCrash(store_index, kind="store")

    def flush(self, addr: int, size: int, site: str = "") -> None:
        """Write back the cache lines covering ``[addr, addr+size)`` (CLWB).

        Flushing a CLEAN line is legal but useless; the domain emits a
        ``FLUSH_REDUNDANT`` annotation so the Pmemcheck-like detector can
        report it as a performance bug (paper Bug 7).
        """
        if addr < 0 or size < 0 or addr + size > self.size:
            raise self._range_error(addr, size)
        redundant = True
        if size:
            lines = self._lines
            flushed = self._flushed
            first = addr // CACHE_LINE
            last = (addr + size - 1) // CACHE_LINE
            for line in range(first, last + 1):
                if lines.get(line) is LineState.DIRTY:
                    lines[line] = LineState.FLUSHED
                    flushed.add(line)
                    redundant = False
        if self._observers:
            self.emit(TraceEventKind.FLUSH, addr, size, site)
            if redundant:
                self.emit(TraceEventKind.FLUSH_REDUNDANT, addr, size, site)
        else:
            self._seq += 2 if redundant else 1

    def drain(self, site: Optional[str] = None) -> None:
        """Order all flushed lines into the media (SFENCE).

        If :attr:`crash_at_fence` equals the index of this fence, a
        :class:`~repro.errors.SimulatedCrash` is raised *after* the fence
        takes effect — i.e. the crash image contains everything this fence
        persisted, matching the paper's placement of failures *at*
        ordering points (Section 3.2).
        """
        flushed = self._flushed
        if flushed:
            media = self._media
            volatile = self._volatile
            lines = self._lines
            snapshots = self._snapshots
            size = self.size
            for line in flushed:
                start = line * CACHE_LINE
                end = start + CACHE_LINE
                if end > size:
                    end = size
                if snapshots:
                    # Copy-on-write: preserve the pre-fence contents for
                    # every live snapshot that has not seen this line yet.
                    for snap in snapshots:
                        if line not in snap._saved:
                            snap._saved[line] = bytes(media[start:end])
                media[start:end] = volatile[start:end]
                del lines[line]
            flushed.clear()
        fence_index = self._fence_count
        self._fence_count += 1
        if self._observers:
            self.emit(TraceEventKind.FENCE, 0, 0, site or "")
        else:
            self._seq += 1
        if fence_index in self._snap_fences:
            self._snapshots.append(MediaSnapshot(
                "fence", fence_index, fence_index + 1, self._media))
        if self.crash_at_fence is not None and fence_index == self.crash_at_fence:
            from repro.errors import SimulatedCrash

            raise SimulatedCrash(fence_index)

    def persist(self, addr: int, size: int, site: str = "") -> None:
        """Flush + fence convenience (``pmem_persist`` analogue)."""
        self.flush(addr, size, site)
        self.drain(site)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def fence_count(self) -> int:
        """Number of fences executed so far (ordering points)."""
        return self._fence_count

    @property
    def store_count(self) -> int:
        """Number of stores executed so far (probabilistic crash points)."""
        return self._store_count

    @property
    def seq(self) -> int:
        """Current trace sequence number."""
        return self._seq

    def line_state(self, addr: int) -> LineState:
        """Return the persistence state of the line containing ``addr``."""
        self._check_range(addr, 1)
        return self._lines.get(addr // CACHE_LINE, LineState.CLEAN)

    def pending_lines(self) -> Dict[int, LineState]:
        """Return a copy of all not-yet-persisted line states."""
        return dict(self._lines)

    def volatile_view(self) -> bytes:
        """Return the program-visible contents (what loads observe)."""
        return bytes(self._volatile)

    def persisted_view(self) -> bytes:
        """Return the strict crash snapshot: only fenced data."""
        return bytes(self._media)

    def inconsistent_ranges(self) -> List[Tuple[int, int]]:
        """Return ``(addr, size)`` ranges where volatile and media differ.

        These are exactly the bytes at risk if a failure happened *now*:
        the persistent state would not reflect the program's view of them.

        Compares 4 KiB windows first and only byte-scans the windows that
        differ, so the common all-persisted case costs a handful of
        memcmp-speed slice comparisons instead of a Python loop over
        every byte.
        """
        ranges: List[Tuple[int, int]] = []
        volatile = self._volatile
        media = self._media
        size = self.size
        start: Optional[int] = None
        for chunk_start in range(0, size, _RANGE_CHUNK):
            chunk_end = min(chunk_start + _RANGE_CHUNK, size)
            if volatile[chunk_start:chunk_end] == media[chunk_start:chunk_end]:
                if start is not None:
                    ranges.append((start, chunk_start - start))
                    start = None
                continue
            for i in range(chunk_start, chunk_end):
                if volatile[i] != media[i]:
                    if start is None:
                        start = i
                elif start is not None:
                    ranges.append((start, i - start))
                    start = None
        if start is not None:
            ranges.append((start, size - start))
        return ranges

    def _inconsistent_ranges_naive(self) -> List[Tuple[int, int]]:
        """Reference byte-at-a-time implementation (kept as the oracle
        for the property tests)."""
        ranges: List[Tuple[int, int]] = []
        start = None
        for i in range(self.size):
            if self._volatile[i] != self._media[i]:
                if start is None:
                    start = i
            elif start is not None:
                ranges.append((start, i - start))
                start = None
        if start is not None:
            ranges.append((start, self.size - start))
        return ranges

    def _lines_of(self, addr: int, size: int) -> Iterator[int]:
        if size == 0:
            return iter(())
        first = addr // CACHE_LINE
        last = (addr + size - 1) // CACHE_LINE
        return iter(range(first, last + 1))
