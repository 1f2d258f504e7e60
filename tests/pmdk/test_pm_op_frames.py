"""Frame budget and equivalence of the per-PM-operation call path.

Every typed field access is one PM operation, and under the settrace
coverage backend every Python frame on that path pays a trace callback.
The budget tests pin the exact frames a typed access enters (context
active, no observers) so that a refactor cannot silently add helper
frames back.  The equivalence test runs one scripted operation sequence
on both exec cores, with observers on and off, and requires identical
trace events, counter-map contents, site coverage and sequence numbers.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from repro.execcore import HAVE_NUMPY, active_core, set_core
from repro.instrument.context import ExecutionContext, push_context
from repro.pmdk import libpmem
from repro.pmdk.layout import (Array, Bytes, OID, PStruct, U32, U64,
                               load_field, store_field)
from repro.pmdk.pool import PmemObjPool


class Rec(PStruct):
    _fields_ = [
        ("n", U32),
        ("keys", Array(U64, 4)),
        ("name", Bytes(6)),
        ("next", OID),
    ]


def _frames(op) -> list:
    """Names of the Python frames ``op`` enters, ``op`` itself excluded."""
    op()  # warm the site-label cache and the op-ID registry
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        op()
    finally:
        sys.setprofile(None)
    assert names[0] == op.__name__
    return names[1:]


@pytest.fixture
def view():
    pool = PmemObjPool.create("frames", 64 * 1024)
    oid = pool.zalloc(Rec._size_)
    ctx = ExecutionContext(collect_trace=False)
    with push_context(ctx):
        yield pool.typed(oid, Rec)
    assert ctx.sites_hit  # the ops below were recorded as PM ops


_READ = ["read", "record_pm_op", "update", "load"]
_WRITE = ["write", "record_pm_op", "update", "store"]


class TestFrameBudget:
    def test_scalar_read(self, view):
        def op():
            view.n

        assert _frames(op) == ["__get__", *_READ]

    def test_scalar_write(self, view):
        def op():
            view.n = 7

        assert _frames(op) == ["__set__", *_WRITE]

    def test_array_element_read(self, view):
        def op():
            view.keys[2]

        assert _frames(op) == ["__get__", "__init__", "__getitem__", *_READ]

    def test_array_element_write(self, view):
        def op():
            view.keys[2] = 9

        assert _frames(op) == ["__get__", "__init__", "__setitem__", *_WRITE]

    def test_pool_read(self, view):
        pool, oid = view._pool, view.offset

        def op():
            pool.read(oid, 8, site="frames:read")

        assert _frames(op) == _READ


# ----------------------------------------------------------------------
# Equivalence: exec cores x observers
# ----------------------------------------------------------------------
def _script(pool: PmemObjPool) -> None:
    """A fixed mix of every traced PM operation the pmdk layer offers."""
    root = pool.root(Rec, site="eq:root")
    root.n = 3
    root.name = b"abc"
    root.keys[0] = root.n + 1
    root.keys[3] = 0xFFFF
    total = sum(root.keys) + len(root.keys.tolist())
    store_field(root, "next", total, site="eq:store_next")
    load_field(root, "next", site="eq:load_next")
    pool.persist(root.offset, Rec._size_)
    pool.flush(root.offset, 8)  # clean line: a redundant flush
    pool.drain()
    with pool.transaction() as tx:
        tx.add_struct(root)
        tx.add_field(root, "n")  # already covered: TX_ADD_REDUNDANT
        child = tx.znew(Rec, site="eq:child")
        child.n = root.n
        root.next = child.offset
    oid = pool.alloc(32, site="eq:alloc")
    pool.write(oid, b"payload", site="eq:write")
    pool.read(oid, 7, site="eq:read")
    libpmem.pmem_memcpy_persist(pool.domain, oid + 8, b"memcpy")
    libpmem.pmem_memset_nodrain(pool.domain, oid + 16, 0x5A, 8)
    libpmem.pmem_drain(pool.domain)
    pool.free(oid, site="eq:free")
    pool.close()


def _run(core: str, observers: bool) -> dict:
    previous = active_core()
    set_core(core)
    try:
        ctx = ExecutionContext(collect_trace=observers)
        with push_context(ctx):
            pool = PmemObjPool.create("equivalence", 64 * 1024)
            assert bool(pool.domain._observers) is observers
            _script(pool)
    finally:
        set_core(previous)
    return {
        "events": [(e.kind, e.addr, e.size, e.seq, e.site)
                   for e in ctx.trace],
        "sparse": sorted(ctx.counter_map.sparse()),
        "sites": ctx.sites_hit,
        "seq": pool.domain.seq,
    }


CORES = ["scalar", "vector"] if HAVE_NUMPY else ["scalar"]


class TestEquivalence:
    @pytest.fixture(scope="class")
    def reference(self):
        return _run("scalar", observers=True)

    def test_reference_is_the_pinned_sequence(self, reference):
        # Pinned from the call path before the accessors were flattened:
        # every load/store/flush/fence and pmdk annotation still takes
        # exactly one sequence number, in the same order.
        kinds = Counter(kind.value for kind, *_ in reference["events"])
        assert reference["seq"] == len(reference["events"]) == 149
        assert kinds == {
            "load": 27, "store": 54, "flush": 32, "fence": 26,
            "flush_redundant": 1, "tx_begin": 1, "tx_add": 1,
            "tx_add_redundant": 1, "tx_commit": 1, "alloc": 2, "free": 1,
            "pool_open": 1, "pool_close": 1,
        }
        assert [e[3] for e in reference["events"]] == list(range(149))

    @pytest.mark.parametrize("core", CORES)
    @pytest.mark.parametrize("observers", [True, False],
                             ids=["observers", "no-observers"])
    def test_matches_reference(self, reference, core, observers):
        got = _run(core, observers)
        assert got["seq"] == reference["seq"]
        assert got["sparse"] == reference["sparse"]
        assert got["sites"] == reference["sites"]
        if observers:
            assert got["events"] == reference["events"]
        else:
            assert got["events"] == []
