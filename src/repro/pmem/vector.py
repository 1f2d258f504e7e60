"""Vectorized persistence domain: bulk line-state transitions.

Same observable semantics as :class:`~repro.pmem.persistence.
PersistenceDomain` (the scalar reference), different representation:

* line states live in a flat ``bytearray`` (0 = CLEAN, 1 = DIRTY,
  2 = FLUSHED) instead of a dict + FLUSHED set, so a store that spans
  64 cache lines is one slice fill instead of 64 dict writes and a
  flush is one ``bytes.translate`` over the span instead of 64
  dict-get/dict-set/set-add triples;
* ``drain`` scans only the union of spans flushed since the previous
  fence (``numpy.flatnonzero`` over the state array — a C pass), then
  coalesces consecutive flushed lines into run-length memcpys into the
  media, with the same per-line copy-on-write bookkeeping for armed
  media snapshots;
* ``inconsistent_ranges`` is a whole-array compare + run splitting in
  numpy instead of the scalar 4 KiB chunk walk.

The equivalence contract — identical trace-event sequences, identical
FLUSH_REDUNDANT detection, byte-identical media after every fence,
identical SimulatedCrash placement — is enforced by the hypothesis
properties in ``tests/test_properties.py`` and the scalar×vector grid
in ``tests/test_exec_core_grid.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.pmem.persistence import (CACHE_LINE, LineState, MediaSnapshot,
                                    PersistenceDomain, TraceEventKind)

_CLEAN, _DIRTY, _FLUSHED = 0, 1, 2

_STATE_ENUM = (LineState.CLEAN, LineState.DIRTY, LineState.FLUSHED)

#: ``bytes.translate`` table for flush: DIRTY→FLUSHED, all else unchanged.
_FLUSH_TABLE = bytes(
    _FLUSHED if b == _DIRTY else b for b in range(256)
)

#: Fill source for multi-line stores (sliced, never copied whole).
_DIRTY_RUN = memoryview(bytes([_DIRTY]) * (1 << 16))


class VectorPersistenceDomain(PersistenceDomain):
    """Bulk-operation persistence domain (the ``vector`` exec core)."""

    def __init__(self, size: int, initial: Optional[bytes] = None) -> None:
        super().__init__(size, initial)
        n_lines = (size + CACHE_LINE - 1) // CACHE_LINE
        #: Per-line state byte; replaces the scalar ``_lines``/``_flushed``.
        self._states = bytearray(n_lines)
        self._states_np = np.frombuffer(self._states, dtype=np.uint8)
        self._volatile_np = np.frombuffer(self._volatile, dtype=np.uint8)
        self._media_np = np.frombuffer(self._media, dtype=np.uint8)
        #: Line spans touched by non-redundant flushes since the last
        #: fence — the drain scan is bounded by flush activity, not by
        #: pool size.  Spans may overlap and may contain lines a later
        #: store demoted back to DIRTY; the state array is ground truth.
        self._flush_spans: List[Tuple[int, int]] = []
        #: Total lines across those spans (drain's small-vs-bulk gate).
        self._span_lines = 0

    # ------------------------------------------------------------------
    # Data-path operations
    # ------------------------------------------------------------------
    def store(self, addr: int, data: bytes, site: str = "") -> None:
        size = len(data)
        if addr < 0 or addr + size > self.size:
            raise self._range_error(addr, size)
        self._volatile[addr: addr + size] = data
        if size:
            first = addr // CACHE_LINE
            last = (addr + size - 1) // CACHE_LINE
            if first == last:
                self._states[first] = _DIRTY
            else:
                n = last + 1 - first
                if n <= len(_DIRTY_RUN):
                    self._states[first: last + 1] = _DIRTY_RUN[:n]
                else:  # pragma: no cover - stores beyond 4 MiB spans
                    self._states[first: last + 1] = bytes([_DIRTY]) * n
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
        if addr < 0 or size < 0 or addr + size > self.size:
            raise self._range_error(addr, size)
        redundant = True
        if size:
            first = addr // CACHE_LINE
            last = (addr + size - 1) // CACHE_LINE
            states = self._states
            if first == last:
                if states[first] == _DIRTY:
                    states[first] = _FLUSHED
                    self._flush_spans.append((first, first))
                    self._span_lines += 1
                    redundant = False
            else:
                seg = bytes(states[first: last + 1])
                if _DIRTY in seg:
                    states[first: last + 1] = seg.translate(_FLUSH_TABLE)
                    self._flush_spans.append((first, last))
                    self._span_lines += last - first + 1
                    redundant = False
        if self._observers:
            self.emit(TraceEventKind.FLUSH, addr, size, site)
            if redundant:
                self.emit(TraceEventKind.FLUSH_REDUNDANT, addr, size, site)
        else:
            self._seq += 2 if redundant else 1

    #: Fence epochs at or under this many span lines take the scalar-
    #: style per-line path; bigger ones go through the numpy bulk scan.
    #: Typical workload epochs flush a handful of lines, where plain
    #: Python beats the fixed overhead of a numpy round trip.
    _BULK_DRAIN_LINES = 64

    def drain(self, site: Optional[str] = None) -> None:
        spans = self._flush_spans
        if spans:
            if self._span_lines <= self._BULK_DRAIN_LINES:
                # Scalar-style per-line writeback (inline: this is the
                # per-fence hot path); duplicate spans dedupe through
                # the CLEAN mark each persisted line leaves behind.
                states = self._states
                media = self._media
                volatile = self._volatile
                snapshots = self._snapshots
                size = self.size
                for first, last in spans:
                    for line in range(first, last + 1):
                        if states[line] != _FLUSHED:
                            continue
                        start = line * CACHE_LINE
                        end = start + CACHE_LINE
                        if end > size:
                            end = size
                        if snapshots:
                            # Copy-on-write: preserve pre-fence contents
                            # for every snapshot yet to see this line.
                            for snap in snapshots:
                                if line not in snap._saved:
                                    snap._saved[line] = \
                                        bytes(media[start:end])
                        media[start:end] = volatile[start:end]
                        states[line] = _CLEAN
            else:
                self._drain_bulk(spans)
            spans.clear()
            self._span_lines = 0
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

    # ------------------------------------------------------------------
    def _drain_bulk(self, spans: List[Tuple[int, int]]) -> None:
        """Scan the spans' bounding box in numpy, then persist the
        flushed lines as coalesced run-length memcpys."""
        lo = min(first for first, _ in spans)
        hi = max(last for _, last in spans)
        idx = np.flatnonzero(self._states_np[lo: hi + 1] == _FLUSHED)
        if lo:
            idx = idx + lo
        lines = idx.tolist()
        if not lines:
            return
        media = self._media
        volatile = self._volatile
        states = self._states
        snapshots = self._snapshots
        size = self.size
        if snapshots:
            for line in lines:
                start = line * CACHE_LINE
                end = start + CACHE_LINE
                if end > size:
                    end = size
                for snap in snapshots:
                    if line not in snap._saved:
                        snap._saved[line] = bytes(media[start:end])
        run_start = prev = lines[0]
        for line in lines[1:]:
            if line != prev + 1:
                self._persist_run(run_start, prev, media, volatile,
                                  states, size)
                run_start = line
            prev = line
        self._persist_run(run_start, prev, media, volatile, states, size)

    @staticmethod
    def _persist_run(first: int, last: int, media: bytearray,
                     volatile: bytearray, states: bytearray,
                     size: int) -> None:
        """Write lines ``[first, last]`` to media and mark them CLEAN."""
        start = first * CACHE_LINE
        end = (last + 1) * CACHE_LINE
        if end > size:
            end = size
        media[start:end] = volatile[start:end]
        if first == last:
            states[first] = _CLEAN
        else:
            states[first: last + 1] = bytes(last + 1 - first)

    # ------------------------------------------------------------------
    # Warm-open prefix capture / restore
    # ------------------------------------------------------------------
    def warm_restore(self, pending, seq: int, fence_count: int,
                     store_count: int) -> None:
        """Vector-state rebuild for :meth:`~repro.pmem.persistence.
        PersistenceDomain.capture_warm_state` captures.

        Restored FLUSHED lines must re-enter ``_flush_spans`` — the
        drain scan is bounded by those spans, so a flushed line without
        one would never persist.  One single-line span per flushed line
        is fine: spans only bound the scan, the state array is ground
        truth.  All buffer mutation is in place (the numpy views alias
        the bytearrays).
        """
        volatile = self._volatile
        states = self._states
        spans = self._flush_spans
        for line, (is_flushed, data) in pending.items():
            start = line * CACHE_LINE
            volatile[start:start + len(data)] = data
            if is_flushed:
                states[line] = _FLUSHED
                spans.append((line, line))
                self._span_lines += 1
            else:
                states[line] = _DIRTY
        self._seq = seq
        self._fence_count = fence_count
        self._store_count = store_count

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def line_state(self, addr: int) -> LineState:
        self._check_range(addr, 1)
        return _STATE_ENUM[self._states[addr // CACHE_LINE]]

    def pending_lines(self) -> Dict[int, LineState]:
        idx = np.flatnonzero(self._states_np)
        states = self._states
        return {line: _STATE_ENUM[states[line]] for line in idx.tolist()}

    def inconsistent_ranges(self) -> List[Tuple[int, int]]:
        idx = np.flatnonzero(self._volatile_np != self._media_np)
        if not idx.size:
            return []
        breaks = np.flatnonzero(np.diff(idx) != 1)
        starts = idx[np.concatenate(([0], breaks + 1))]
        ends = idx[np.concatenate((breaks, [idx.size - 1]))]
        return [(int(a), int(b - a) + 1)
                for a, b in zip(starts.tolist(), ends.tolist())]
