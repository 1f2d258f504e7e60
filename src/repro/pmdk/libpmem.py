"""Low-level PM primitives: the ``libpmem`` analogue.

These functions wrap the persistence-domain operations with (a) PM
operation tracking for the counter-map and (b) synthetic-bug injection
hooks, mirroring how PMFuzz places tracking hints inside the PMDK library
itself (Section 4.2: "an approach similar to Intel's Pmemcheck").

All functions take the :class:`~repro.pmem.persistence.PersistenceDomain`
directly; the object layer (:mod:`repro.pmdk.pool`) forwards to them.

Bug injection: when the active execution context carries an injector, the
flush/fence primitives consult it — a skipped flush or fence at an active
bug site reproduces the paper's "remove/misplace writebacks and fences"
synthetic bugs.

Every public function is a library entry point: it takes the settrace
recorder's hook off while it runs, and consults the injector (workload
code) with the hook back on (DESIGN.md §18).
"""

from __future__ import annotations

from sys import gettrace as _gettrace, settrace as _settrace
from typing import Any, Optional, Tuple

from repro.instrument import branchcov as _cov
from repro.instrument.context import _STACK, pm_call_site
from repro.pmem.persistence import PersistenceDomain


def _track(site: Optional[str]) -> Tuple[str, Any]:
    """Resolve the call-site label and record the PM operation.

    Returns ``(label, injector)``, the injector being the active
    context's (None outside a context).
    """
    label = site if site is not None else pm_call_site(depth=3)
    if _STACK:
        ctx = _STACK[-1]
        ctx.record_pm_op(label)
        return label, ctx.injector
    return label, None


def _skip_flush(inj: Any, label: str) -> bool:
    return inj is not None and _cov.call_traced(inj.skip_flush, label)


def _skip_fence(inj: Any, label: str) -> bool:
    return inj is not None and _cov.call_traced(inj.skip_fence, label)


def _corrupt(inj: Any, label: str, addr: int, data: bytes) -> bytes:
    if inj is None:
        return data
    return _cov.call_traced(inj.corrupt_store, label, addr, data)


def pmem_read(domain: PersistenceDomain, addr: int, size: int,
              site: Optional[str] = None) -> bytes:
    """Traced PM load."""
    hook = _gettrace()
    if hook is _cov.library_hook:
        _settrace(None)
    try:
        label, _ = _track(site)
        return domain.load(addr, size, site=label)
    finally:
        if hook is _cov.library_hook:
            _settrace(hook)


def pmem_write(domain: PersistenceDomain, addr: int, data: bytes,
               site: Optional[str] = None) -> None:
    """Traced PM store (volatile until flushed + fenced)."""
    hook = _gettrace()
    if hook is _cov.library_hook:
        _settrace(None)
    try:
        label, inj = _track(site)
        data = _corrupt(inj, label, addr, data)
        domain.store(addr, data, site=label)
    finally:
        if hook is _cov.library_hook:
            _settrace(hook)


def pmem_flush(domain: PersistenceDomain, addr: int, size: int,
               site: Optional[str] = None) -> None:
    """CLWB analogue: queue cache lines for persistence."""
    hook = _gettrace()
    if hook is _cov.library_hook:
        _settrace(None)
    try:
        label, inj = _track(site)
        if _skip_flush(inj, label):
            return
        domain.flush(addr, size, site=label)
    finally:
        if hook is _cov.library_hook:
            _settrace(hook)


def pmem_drain(domain: PersistenceDomain, site: Optional[str] = None) -> None:
    """SFENCE analogue: order all flushed lines into the media."""
    hook = _gettrace()
    if hook is _cov.library_hook:
        _settrace(None)
    try:
        label, inj = _track(site)
        if _skip_fence(inj, label):
            return
        domain.drain(site=label)
    finally:
        if hook is _cov.library_hook:
            _settrace(hook)


def pmem_persist(domain: PersistenceDomain, addr: int, size: int,
                 site: Optional[str] = None) -> None:
    """``pmem_persist``: flush + drain (a full persist barrier).

    Under an injected "remove writeback" bug the flush is skipped but the
    fence still executes, so the target lines simply stay dirty — the
    exact failure mode of a forgotten ``CLWB``.
    """
    hook = _gettrace()
    if hook is _cov.library_hook:
        _settrace(None)
    try:
        label, inj = _track(site)
        if not _skip_flush(inj, label):
            domain.flush(addr, size, site=label)
        if _skip_fence(inj, label):
            return
        domain.drain(site=label)
    finally:
        if hook is _cov.library_hook:
            _settrace(hook)


def pmem_memcpy_persist(domain: PersistenceDomain, addr: int, data: bytes,
                        site: Optional[str] = None) -> None:
    """``pmem_memcpy_persist``: store + flush + drain."""
    hook = _gettrace()
    if hook is _cov.library_hook:
        _settrace(None)
    try:
        label, inj = _track(site)
        data = _corrupt(inj, label, addr, data)
        domain.store(addr, data, site=label)
        if _skip_flush(inj, label):
            return
        domain.flush(addr, len(data), site=label)
        if _skip_fence(inj, label):
            return
        domain.drain(site=label)
    finally:
        if hook is _cov.library_hook:
            _settrace(hook)


def pmem_memcpy_nodrain(domain: PersistenceDomain, addr: int, data: bytes,
                        site: Optional[str] = None) -> None:
    """``pmem_memcpy_nodrain``: store + flush, no fence."""
    hook = _gettrace()
    if hook is _cov.library_hook:
        _settrace(None)
    try:
        label, inj = _track(site)
        domain.store(addr, data, site=label)
        if _skip_flush(inj, label):
            return
        domain.flush(addr, len(data), site=label)
    finally:
        if hook is _cov.library_hook:
            _settrace(hook)


def pmem_memset_nodrain(domain: PersistenceDomain, addr: int, value: int,
                        size: int, site: Optional[str] = None) -> None:
    """``pmem_memset_nodrain``: memset + flush, no fence (paper Bug 7)."""
    hook = _gettrace()
    if hook is _cov.library_hook:
        _settrace(None)
    try:
        label, inj = _track(site)
        domain.store(addr, bytes([value & 0xFF]) * size, site=label)
        if _skip_flush(inj, label):
            return
        domain.flush(addr, size, site=label)
    finally:
        if hook is _cov.library_hook:
            _settrace(hook)


def pmem_memset_persist(domain: PersistenceDomain, addr: int, value: int,
                        size: int, site: Optional[str] = None) -> None:
    """``pmem_memset_persist``: memset + flush + drain."""
    hook = _gettrace()
    if hook is _cov.library_hook:
        _settrace(None)
    try:
        label, inj = _track(site)
        domain.store(addr, bytes([value & 0xFF]) * size, site=label)
        if not _skip_flush(inj, label):
            domain.flush(addr, size, site=label)
        if _skip_fence(inj, label):
            return
        domain.drain(site=label)
    finally:
        if hook is _cov.library_hook:
            _settrace(hook)
