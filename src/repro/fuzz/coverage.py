"""Global coverage bookkeeping (the virgin-map logic of AFL).

Both coverage signals — the branch edge map and the PM counter-map — are
64 Ki arrays of 8-bit saturating counters per execution.  This module
keeps the *global* view across a campaign: for each slot, the set of
count buckets ever observed.  A new slot (never hit before) or a new
bucket at a known slot is "new coverage", the event that makes a test
case interesting.

The same class serves Algorithm 2: ``classify`` distinguishes *unseen*
slots (priority 2) from *different-counter* slots (priority 1).

Executions report coverage *sparsely* — as (slot, count) pairs for the
slots actually hit — so a campaign never scans the full 64 Ki map.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.instrument.counter_map import (BUCKET_LUT_NP, BUCKET_MASKS,
                                          bucket_of)

try:  # The vector core needs numpy; the scalar algebra never does.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less hosts
    _np = None

MAP_SIZE = 1 << 16

#: Sparse per-execution coverage: (slot, raw count) pairs.
SparseMap = Iterable[Tuple[int, int]]


class GlobalCoverage:
    """Accumulated coverage over one fuzzing campaign."""

    def __init__(self) -> None:
        #: slot -> bitmask of count buckets ever seen (absent = virgin).
        self.virgin: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def classify(self, sparse: SparseMap) -> Tuple[bool, bool, List[int]]:
        """Compare one execution's coverage against the global state.

        Returns ``(has_new_slot, has_new_bucket, new_slots)`` without
        modifying the global state:

        * ``has_new_slot`` — some populated slot was never hit before
          (Algorithm 2's *unseen*);
        * ``has_new_bucket`` — a known slot was hit with a significantly
          different count (a new AFL bucket — *diffCounter*).
        """
        new_slot = False
        new_bucket = False
        new_slots: List[int] = []
        virgin = self.virgin
        masks = BUCKET_MASKS
        for slot, count in sparse:
            if not count:
                continue
            mask = (masks[count] if 0 < count < 256
                    else 1 << (bucket_of(count) & 7))
            seen = virgin.get(slot, 0)
            if seen == 0:
                new_slot = True
                new_slots.append(slot)
            elif not seen & mask:
                new_bucket = True
        return new_slot, new_bucket, new_slots

    def update(self, sparse: SparseMap) -> Tuple[bool, bool]:
        """Merge one execution's coverage; returns (new_slot, new_bucket)."""
        new_slot = False
        new_bucket = False
        virgin = self.virgin
        masks = BUCKET_MASKS
        for slot, count in sparse:
            if not count:
                continue
            mask = (masks[count] if 0 < count < 256
                    else 1 << (bucket_of(count) & 7))
            seen = virgin.get(slot, 0)
            if seen == 0:
                new_slot = True
                virgin[slot] = mask
            elif not seen & mask:
                new_bucket = True
                virgin[slot] = seen | mask
        return new_slot, new_bucket

    # ------------------------------------------------------------------
    @property
    def slots_covered(self) -> int:
        """Total distinct slots ever hit (the Figure 13 y-axis when this
        instance tracks the PM counter-map)."""
        return len(self.virgin)

    def covered_slots(self) -> Iterable[int]:
        """Iterate the indices of all covered slots."""
        return iter(self.virgin)


class VectorGlobalCoverage:
    """Array-backed virgin map (the ``vector`` exec core).

    The virgin state is a dense 64 Ki bytearray of bucket bitmasks
    (0 = virgin slot) shadowed by a numpy view.  Ordinary per-execution
    sparse maps (tens to a few hundred slots) run the scalar loop
    against the bytearray — numpy's fixed call overhead loses at that
    size — while large maps turn into slot/mask arrays, bucket every
    count through the LUT as one vectorized table lookup, and
    compare/merge against the virgin array with one gather and one
    scatter.

    The dict façade is kept for the checkpoint layer: ``virgin`` is a
    property whose getter renders the sparse dict the scalar class
    stores natively and whose setter loads one, so checkpoints written
    under either core restore under either core.
    """

    #: Sparse maps at or under this many pairs take the scalar loop.
    _BULK_PAIRS = 192

    def __init__(self) -> None:
        self._virgin = bytearray(MAP_SIZE)
        self._virgin_np = _np.frombuffer(self._virgin, dtype=_np.uint8)

    # ------------------------------------------------------------------
    @property
    def virgin(self) -> Dict[int, int]:
        """slot -> bucket bitmask, as the scalar class stores it."""
        arr = self._virgin
        return {slot: arr[slot]
                for slot in _np.flatnonzero(self._virgin_np).tolist()}

    @virgin.setter
    def virgin(self, mapping: Dict[int, int]) -> None:
        arr = bytearray(MAP_SIZE)
        for slot, mask in mapping.items():
            arr[slot] = mask
        self._virgin = arr
        self._virgin_np = _np.frombuffer(arr, dtype=_np.uint8)

    # ------------------------------------------------------------------
    @staticmethod
    def _arrays(pairs):
        """Populated (slot, count) pairs -> (slots, bucket-mask) arrays."""
        slots = _np.array([p[0] for p in pairs], dtype=_np.int64)
        # Counts beyond 255 cannot come from the 8-bit maps, but the
        # scalar bucket_of accepts them; every count >= 128 lands in the
        # top bucket either way, so clamping preserves the oracle.
        counts = _np.minimum(
            _np.array([p[1] for p in pairs], dtype=_np.int64), 255)
        masks = _np.left_shift(
            1, BUCKET_LUT_NP[counts] & 7).astype(_np.uint8)
        return slots, masks

    def classify(self, sparse: SparseMap) -> Tuple[bool, bool, List[int]]:
        """Compare one execution's coverage against the global state.

        Same contract as :meth:`GlobalCoverage.classify`; ``new_slots``
        preserves the sparse iteration order.
        """
        pairs = [(slot, count) for slot, count in sparse if count]
        if not pairs:
            return False, False, []
        if len(pairs) <= self._BULK_PAIRS:
            new_slot = False
            new_bucket = False
            new_slots: List[int] = []
            virgin = self._virgin
            masks = BUCKET_MASKS
            for slot, count in pairs:
                mask = (masks[count] if 0 < count < 256
                        else 1 << (bucket_of(count) & 7))
                seen = virgin[slot]
                if seen == 0:
                    new_slot = True
                    new_slots.append(slot)
                elif not seen & mask:
                    new_bucket = True
            return new_slot, new_bucket, new_slots
        slots, masks = self._arrays(pairs)
        seen = self._virgin_np[slots]
        virgin_mask = seen == 0
        new_slot = bool(virgin_mask.any())
        new_bucket = bool((~virgin_mask & ((seen & masks) == 0)).any())
        return new_slot, new_bucket, slots[virgin_mask].tolist()

    def update(self, sparse: SparseMap) -> Tuple[bool, bool]:
        """Merge one execution's coverage; returns (new_slot, new_bucket)."""
        pairs = [(slot, count) for slot, count in sparse if count]
        if not pairs:
            return False, False
        if len(pairs) <= self._BULK_PAIRS:
            new_slot = False
            new_bucket = False
            virgin = self._virgin
            masks = BUCKET_MASKS
            for slot, count in pairs:
                mask = (masks[count] if 0 < count < 256
                        else 1 << (bucket_of(count) & 7))
                seen = virgin[slot]
                if seen == 0:
                    new_slot = True
                    virgin[slot] = mask
                elif not seen & mask:
                    new_bucket = True
                    virgin[slot] = seen | mask
            return new_slot, new_bucket
        slots, masks = self._arrays(pairs)
        seen = self._virgin_np[slots]
        virgin_mask = seen == 0
        new_slot = bool(virgin_mask.any())
        new_bucket = bool((~virgin_mask & ((seen & masks) == 0)).any())
        _np.bitwise_or.at(self._virgin_np, slots, masks)
        return new_slot, new_bucket

    # ------------------------------------------------------------------
    @property
    def slots_covered(self) -> int:
        """Total distinct slots ever hit."""
        return int(_np.count_nonzero(self._virgin_np))

    def covered_slots(self) -> Iterable[int]:
        """Iterate the indices of all covered slots."""
        return iter(_np.flatnonzero(self._virgin_np).tolist())
