"""Crash-state extraction policies.

When a PM program fails, the persistent state that survives depends on
which cache lines had reached the media.  The simulator distinguishes:

* **STRICT** — only data persisted by an explicit flush + fence survives.
  This is the guaranteed state and is what PMFuzz's crash-image generator
  uses (failures placed at ordering points, Section 3.2).
* **EVICTED** — some subset of pending (dirty or flushed-unfenced) lines
  additionally reached the media via cache eviction.  Real hardware may
  produce any of these states; the XFDetector-like checker uses them to
  reason about whether a recovery path could observe unordered data.

``crash_states`` enumerates representative weaker states deterministically
so detection remains reproducible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.pmem.persistence import CACHE_LINE, PersistenceDomain


@dataclass(frozen=True)
class SnapshotPlan:
    """Which fence / store indices to capture during a single execution.

    Threaded from :class:`~repro.core.crashgen.CrashImageGenerator`
    through ``Executor.run`` → ``Workload.run`` down to
    :meth:`PersistenceDomain.plan_snapshots`.  Frozen and module-level so
    it pickles across the fork-server protocol if it ever needs to.
    """

    fences: Tuple[int, ...] = ()
    stores: Tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.fences or self.stores)


class CrashPolicy(enum.Enum):
    """How much unordered data may survive a crash."""

    STRICT = "strict"  #: media only (guaranteed state)
    ALL_PENDING = "all_pending"  #: every pending line evicted (other extreme)


def strict_snapshot(domain: PersistenceDomain) -> bytes:
    """Return the guaranteed-persistent contents at this instant."""
    return domain.persisted_view()


def snapshot_with_lines(domain: PersistenceDomain, lines: Sequence[int]) -> bytes:
    """Return a crash state where the given pending lines also persisted."""
    media = bytearray(domain.persisted_view())
    volatile = domain.volatile_view()
    for line in lines:
        start = line * CACHE_LINE
        end = min(start + CACHE_LINE, domain.size)
        media[start:end] = volatile[start:end]
    return bytes(media)


def crash_states(
    domain: PersistenceDomain, policy: CrashPolicy = CrashPolicy.STRICT
) -> Iterator[bytes]:
    """Yield representative crash states under ``policy``.

    STRICT yields one state (the media).  ALL_PENDING additionally yields
    the state where every pending line persisted, plus one state per
    single pending line — a deterministic, linear-size sample of the
    exponential space of eviction outcomes (sufficient to expose
    single-variable ordering violations such as a commit flag persisting
    before its data).
    """
    yield strict_snapshot(domain)
    if policy is CrashPolicy.STRICT:
        return
    pending: List[int] = sorted(domain.pending_lines())
    if not pending:
        return
    yield snapshot_with_lines(domain, pending)
    if len(pending) > 1:
        for line in pending:
            yield snapshot_with_lines(domain, [line])
