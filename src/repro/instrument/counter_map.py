"""The PM counter-map of Algorithm 1.

PMFuzz encodes each *transition* between two consecutive PM operations by
XORing their call-site IDs, and increments an 8-bit saturating counter at
that index in a 64 Ki-slot map.  After recording, the previous ID is
right-shifted by one bit so that A→B and B→A map to different slots
(preserving direction), exactly as in AFL's edge encoding.

A "PM path" in the evaluation is a distinct populated slot: a test case
covers a *new* PM path when it hits a slot no prior test case hit
(Algorithm 2's ``unseen`` predicate).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

try:  # The vector core needs numpy; the scalar map never does.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less hosts
    _np = None

#: Number of slots in the PM counter-map (matches AFL's 64 KiB map).
PM_MAP_SIZE = 1 << 16

#: AFL-style count bucketing: collapse raw counts into coarse classes so
#: "significantly different counter values" (Algorithm 2) is well defined.
_BUCKETS = (0, 1, 2, 3, 4, 8, 16, 32, 128)


def _bucket_of_scan(count: int) -> int:
    """Threshold-scan bucketing (the LUT's generator and test oracle)."""
    for i in range(len(_BUCKETS) - 1, -1, -1):
        if count >= _BUCKETS[i]:
            return i
    return 0


#: Counters are 8-bit saturating, so every reachable value is covered by
#: a 256-entry lookup table — one index instead of up to nine compares
#: on the Algorithm-2 prioritization path.
_BUCKET_LUT = tuple(_bucket_of_scan(c) for c in range(256))

#: ``1 << (bucket_of(count) & 7)`` for every count in [0, 256): the
#: virgin-map bit a count sets, one tuple index in the coverage merge.
BUCKET_MASKS = tuple(1 << (bucket & 7) for bucket in _BUCKET_LUT)


def bucket_of(count: int) -> int:
    """Return the bucket index for a raw 8-bit counter value."""
    if 0 <= count < 256:
        return _BUCKET_LUT[count]
    return _bucket_of_scan(count)


#: The same 256-entry LUT as a numpy array: one vectorized table lookup
#: buckets a whole sparse map at once (see VectorGlobalCoverage).
BUCKET_LUT_NP = _np.array(_BUCKET_LUT, dtype=_np.uint8) if _np is not None \
    else None


class PMCounterMap:
    """Per-execution PM transition counter map (Algorithm 1)."""

    __slots__ = ("counters", "touched", "_prev_id")

    def __init__(self) -> None:
        self.counters = bytearray(PM_MAP_SIZE)
        #: Slots hit this execution (lets consumers avoid full-map scans).
        self.touched = set()
        self._prev_id = 0

    def update(self, op_id: int) -> int:
        """Record one PM operation; returns the map slot that was hit.

        Implements Algorithm 1: ``loc = curID ^ prevID``; increment
        (saturating at 255); ``prevID = curID >> 1``.
        """
        loc = (op_id ^ self._prev_id) & (PM_MAP_SIZE - 1)
        if self.counters[loc] != 0xFF:
            self.counters[loc] += 1
        self.touched.add(loc)
        self._prev_id = op_id >> 1
        return loc

    def reset(self) -> None:
        """Clear counters and transition state for a fresh execution.

        In place: only the slots hit since the previous reset are
        zeroed, so the 64 KiB map is allocated once per map lifetime
        (the executor pools one map across executions) instead of once
        per execution.
        """
        counters = self.counters
        for slot in self.touched:
            counters[slot] = 0
        self.touched.clear()
        self._prev_id = 0

    def preload(self, pairs, prev_id: int) -> None:
        """Replay a recorded ``(slot, count)`` delta into a fresh map.

        Used by the warm-open cache to re-apply the execution prefix's
        PM transitions without re-executing it; ``prev_id`` restores
        Algorithm 1's transition chain.
        """
        counters = self.counters
        touched = self.touched
        for slot, count in pairs:
            counters[slot] = count
            touched.add(slot)
        self._prev_id = prev_id

    @property
    def prev_id(self) -> int:
        """The ``prev >> 1`` transition-chain state (for prefix capture)."""
        return self._prev_id

    def sparse(self):
        """Yield (slot, count) for the slots hit this execution."""
        counters = self.counters
        return [(slot, counters[slot]) for slot in self.touched]

    def nonzero_slots(self) -> List[int]:
        """Return the indices of all populated slots (PM paths hit)."""
        return [i for i, c in enumerate(self.counters) if c]

    def items(self) -> Iterator[Tuple[int, int]]:
        """Yield (slot, raw count) for populated slots."""
        for i, c in enumerate(self.counters):
            if c:
                yield i, c

    def path_count(self) -> int:
        """Number of distinct PM transitions (populated slots)."""
        return sum(1 for c in self.counters if c)


class VectorPMCounterMap:
    """Deferred-accumulation PM counter map (the ``vector`` exec core).

    :meth:`update` stays on Algorithm 1's arithmetic but only *appends*
    the hit slot to a pending list — the per-op cost drops to an xor, a
    shift and a list append.  The saturating counter increments are
    applied in one batch the first time anything reads the map
    (typically :meth:`sparse`, once per execution): a plain loop for
    ordinary executions, one vectorized ``unique``/gather/scatter pass
    when the batch is large enough to amortize numpy's call overhead.
    Deferral is invisible: saturating addition commutes, so folding the
    pending hits in any batching yields the same counters the scalar
    map builds one op at a time.

    ``sparse()`` returns the same (slot, count) *set* as the scalar map
    in sorted-slot order; sparse order is behavior-neutral everywhere
    (the coverage algebra is commutative and no determinism-contract
    field embeds it), which the exec-core grid test demonstrates.
    """

    __slots__ = ("_counters", "_counters_np", "_touched", "_prev_id",
                 "_pending")

    #: Pending-hit batches at or under this size fold in with a plain
    #: Python loop; bigger ones go through one numpy unique/scatter.
    #: Typical executions hit tens to a few hundred transitions, where
    #: the loop beats numpy's fixed call overhead.
    _BULK_PENDING = 512

    def __init__(self) -> None:
        self._counters = bytearray(PM_MAP_SIZE)
        self._counters_np = _np.frombuffer(self._counters, dtype=_np.uint8)
        self._touched: set = set()
        self._prev_id = 0
        self._pending: List[int] = []

    def update(self, op_id: int) -> int:
        """Record one PM operation; returns the map slot that was hit."""
        loc = (op_id ^ self._prev_id) & (PM_MAP_SIZE - 1)
        self._pending.append(loc)
        self._prev_id = op_id >> 1
        return loc

    def _materialize(self) -> None:
        pending = self._pending
        if not pending:
            return
        if len(pending) <= self._BULK_PENDING:
            counters = self._counters
            touched = self._touched
            for loc in pending:
                count = counters[loc]
                if count != 0xFF:
                    counters[loc] = count + 1
                touched.add(loc)
        else:
            slots, hits = _np.unique(
                _np.array(pending, dtype=_np.int64), return_counts=True)
            current = self._counters_np[slots].astype(_np.int64)
            self._counters_np[slots] = _np.minimum(current + hits, 255)
            self._touched.update(slots.tolist())
        pending.clear()

    @property
    def counters(self) -> bytearray:
        """The full 64 Ki map (materializes pending hits first)."""
        self._materialize()
        return self._counters

    @property
    def touched(self) -> set:
        """Slots hit this execution (materializes pending hits first)."""
        self._materialize()
        return self._touched

    def reset(self) -> None:
        """Clear counters and transition state for a fresh execution.

        In place — the bytearray and its numpy view are kept (the view
        aliases the buffer, so the buffer must never be replaced); only
        the slots hit since the previous reset are zeroed.  Pending hits
        were never applied to the counters, so dropping them is enough.
        """
        self._pending.clear()
        counters = self._counters
        for slot in self._touched:
            counters[slot] = 0
        self._touched.clear()
        self._prev_id = 0

    def preload(self, pairs, prev_id: int) -> None:
        """Replay a recorded ``(slot, count)`` delta into a fresh map."""
        counters = self._counters
        touched = self._touched
        for slot, count in pairs:
            counters[slot] = count
            touched.add(slot)
        self._prev_id = prev_id

    @property
    def prev_id(self) -> int:
        """The ``prev >> 1`` transition-chain state (for prefix capture)."""
        return self._prev_id

    def sparse(self) -> List[Tuple[int, int]]:
        """Return (slot, count) for the slots hit this execution."""
        self._materialize()
        counters = self._counters
        return [(slot, counters[slot]) for slot in sorted(self._touched)]

    def nonzero_slots(self) -> List[int]:
        """Return the indices of all populated slots (PM paths hit)."""
        self._materialize()
        return _np.flatnonzero(self._counters_np).tolist()

    def items(self) -> Iterator[Tuple[int, int]]:
        """Yield (slot, raw count) for populated slots."""
        self._materialize()
        counters = self._counters
        for slot in _np.flatnonzero(self._counters_np).tolist():
            yield slot, counters[slot]

    def path_count(self) -> int:
        """Number of distinct PM transitions (populated slots)."""
        self._materialize()
        return int(_np.count_nonzero(self._counters_np))
