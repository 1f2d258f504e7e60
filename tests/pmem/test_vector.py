"""Vector persistence domain: equivalence against the scalar reference.

The ``vector`` exec core reimplements the persistence-domain state
machine on numpy/bytearray bulk operations.  Its correctness contract
is *bit-for-bit equivalence* with :class:`PersistenceDomain` — same
views, same trace events, same crash images, same snapshots.  These
tests drive both implementations through mirrored operation sequences
and compare every observable.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from repro.errors import PMemError, SimulatedCrash
from repro.pmem.persistence import (
    CACHE_LINE,
    LineState,
    PersistenceDomain,
    TraceEventKind,
)
from repro.pmem.vector import VectorPersistenceDomain

SIZE = 4096


def pair(size=SIZE, initial=None):
    return PersistenceDomain(size, initial), VectorPersistenceDomain(
        size, initial)


def observed(domain):
    events = []
    domain.add_observer(events.append)
    return events


def event_tuples(events):
    return [(e.kind, e.addr, e.size, e.seq, e.site) for e in events]


def assert_same_state(scalar, vector):
    assert vector.volatile_view() == scalar.volatile_view()
    assert vector.persisted_view() == scalar.persisted_view()
    assert vector.pending_lines() == scalar.pending_lines()
    assert vector.inconsistent_ranges() == scalar.inconsistent_ranges()
    assert vector.store_count == scalar.store_count
    assert vector.fence_count == scalar.fence_count
    assert vector.seq == scalar.seq


def mirror(op_list, size=SIZE):
    """Run one op sequence on both cores; return the synced pair."""
    scalar, vector = pair(size)
    sev, vev = observed(scalar), observed(vector)
    for op in op_list:
        kind = op[0]
        if kind == "store":
            scalar.store(op[1], op[2], site=op[3] if len(op) > 3 else "")
            vector.store(op[1], op[2], site=op[3] if len(op) > 3 else "")
        elif kind == "flush":
            scalar.flush(op[1], op[2])
            vector.flush(op[1], op[2])
        elif kind == "drain":
            scalar.drain(op[1] if len(op) > 1 else None)
            vector.drain(op[1] if len(op) > 1 else None)
        elif kind == "persist":
            scalar.persist(op[1], op[2])
            vector.persist(op[1], op[2])
    assert event_tuples(vev) == event_tuples(sev)
    assert_same_state(scalar, vector)
    return scalar, vector


class TestMirroredSequences:
    def test_store_flush_drain_basic(self):
        mirror([("store", 0, b"hello"), ("flush", 0, 5), ("drain",)])

    def test_multi_line_store_spans_lines(self):
        payload = bytes(range(200))
        mirror([("store", CACHE_LINE - 7, payload),
                ("flush", CACHE_LINE - 7, len(payload)), ("drain",)])

    def test_partial_flush_leaves_dirty_lines(self):
        mirror([("store", 0, b"a" * (CACHE_LINE * 3)),
                ("flush", 0, 1), ("drain",)])

    def test_store_after_flush_redirties(self):
        mirror([("store", 0, b"x"), ("flush", 0, 1),
                ("store", 0, b"y"), ("drain",)])

    def test_size_zero_store_counts_but_marks_nothing(self):
        scalar, vector = mirror([("store", 10, b""), ("drain",)])
        assert scalar.store_count == 1
        assert vector.store_count == 1
        assert vector.pending_lines() == {}

    def test_size_zero_flush_is_redundant(self):
        scalar, vector = pair()
        sev, vev = observed(scalar), observed(vector)
        scalar.flush(0, 0)
        vector.flush(0, 0)
        assert event_tuples(vev) == event_tuples(sev)
        assert any(e.kind is TraceEventKind.FLUSH_REDUNDANT for e in vev)

    def test_drain_site_defaults_to_empty(self):
        scalar, vector = pair()
        sev, vev = observed(scalar), observed(vector)
        scalar.drain()
        vector.drain()
        scalar.drain("call:site")
        vector.drain("call:site")
        assert event_tuples(vev) == event_tuples(sev)
        assert [e.site for e in vev] == ["", "call:site"]

    def test_persist_helper_matches(self):
        mirror([("store", 100, b"q" * 300), ("persist", 100, 300)])

    def test_random_sequences_agree(self):
        rng = random.Random(0xC0FFEE)
        for trial in range(20):
            ops = []
            for _ in range(rng.randrange(5, 60)):
                roll = rng.random()
                if roll < 0.5:
                    addr = rng.randrange(0, SIZE - 256)
                    ops.append(("store", addr,
                                bytes(rng.randrange(256)
                                      for _ in range(rng.randrange(0, 200))),
                                f"site{trial}"))
                elif roll < 0.8:
                    addr = rng.randrange(0, SIZE - 256)
                    ops.append(("flush", addr, rng.randrange(0, 256)))
                else:
                    ops.append(("drain", f"fence{trial}"))
            mirror(ops)


class TestLineStates:
    def test_line_state_enum_identity(self):
        _, vector = pair()
        assert vector.line_state(0) is LineState.CLEAN
        vector.store(0, b"x")
        assert vector.line_state(0) is LineState.DIRTY
        vector.flush(0, 1)
        assert vector.line_state(0) is LineState.FLUSHED
        vector.drain()
        assert vector.line_state(0) is LineState.CLEAN

    def test_pending_lines_keys_are_python_ints(self):
        _, vector = pair()
        vector.store(CACHE_LINE * 5, b"x")
        pending = vector.pending_lines()
        assert list(pending) == [5]
        assert all(type(k) is int for k in pending)

    def test_inconsistent_ranges_values_are_python_ints(self):
        _, vector = pair()
        vector.store(10, b"abc")
        ranges = vector.inconsistent_ranges()
        assert ranges == [(10, 3)]
        assert all(type(v) is int for pair_ in ranges for v in pair_)

    def test_inconsistent_ranges_merge_adjacent_diffs(self):
        scalar, vector = mirror([
            ("store", 0, b"ab"), ("store", 3, b"cd"),
            ("store", 300, b"zz")])
        assert vector.inconsistent_ranges() == scalar.inconsistent_ranges()


class TestBoundsChecking:
    def test_out_of_bounds_store_rejected(self):
        _, vector = pair(size=64)
        with pytest.raises(PMemError):
            vector.store(60, b"too long")

    def test_negative_address_rejected(self):
        _, vector = pair()
        with pytest.raises(PMemError):
            vector.load(-1, 1)

    def test_zero_size_domain_rejected(self):
        with pytest.raises(PMemError):
            VectorPersistenceDomain(0)

    def test_initial_contents_visible_and_persistent(self):
        init = bytes(range(64)) * 4
        scalar, vector = pair(size=256, initial=init)
        assert vector.load(0, 256) == init
        assert vector.persisted_view() == scalar.persisted_view() == init


class TestCrashPlacement:
    def test_crash_at_fence_matches_scalar(self):
        scalar, vector = pair()
        for d in (scalar, vector):
            d.crash_at_fence = 1
            d.store(0, b"x")
            d.flush(0, 1)
            d.drain()  # fence 0
            d.store(CACHE_LINE, b"y")
            d.flush(CACHE_LINE, 1)
            with pytest.raises(SimulatedCrash) as exc_info:
                d.drain()  # fence 1
            assert exc_info.value.fence_index == 1
        # The fence persisted its flushed lines *before* the crash.
        assert vector.persisted_view() == scalar.persisted_view()
        assert vector.persisted_view()[CACHE_LINE] == ord("y")

    def test_crash_at_store_matches_scalar(self):
        scalar, vector = pair()
        for d in (scalar, vector):
            d.crash_at_store = 2
            d.store(0, b"a")
            d.store(1, b"b")
            with pytest.raises(SimulatedCrash) as exc_info:
                d.store(2, b"c")
            assert exc_info.value.kind == "store"
            assert d.store_count == 3  # the crashing store still counts
        assert vector.volatile_view() == scalar.volatile_view()


class TestSnapshots:
    def test_fence_snapshots_capture_cow_media(self):
        scalar, vector = pair()
        for d in (scalar, vector):
            d.plan_snapshots(fences=[0, 1])
            d.store(0, b"first")
            d.flush(0, 5)
            d.drain()
            d.store(0, b"second")
            d.flush(0, 6)
            d.drain()
        s_snaps = scalar.take_snapshots()
        v_snaps = vector.take_snapshots()
        assert [(s.kind, s.index, s.fences_done) for s in s_snaps] == \
            [(s.kind, s.index, s.fences_done) for s in v_snaps]
        for s_snap, v_snap in zip(s_snaps, v_snaps):
            assert v_snap.materialize() == s_snap.materialize()
        # The fence-0 snapshot must show "first", not "second": the
        # copy-on-write must have saved pre-overwrite media bytes.
        assert bytes(v_snaps[0].materialize()[:5]) == b"first"

    def test_store_snapshots_match(self):
        scalar, vector = pair()
        for d in (scalar, vector):
            d.plan_snapshots(stores=[1])
            d.store(0, b"x")
            d.persist(0, 1)
            d.store(1, b"y")  # snapshot armed here
        s_snaps = scalar.take_snapshots()
        v_snaps = vector.take_snapshots()
        assert len(v_snaps) == len(s_snaps) == 1
        assert v_snaps[0].materialize() == s_snaps[0].materialize()

    def test_snapshot_taken_before_crash_raise(self):
        scalar, vector = pair()
        for d in (scalar, vector):
            d.plan_snapshots(fences=[0])
            d.crash_at_fence = 0
            d.store(0, b"z")
            d.flush(0, 1)
            with pytest.raises(SimulatedCrash):
                d.drain()
        s_snaps = scalar.take_snapshots()
        v_snaps = vector.take_snapshots()
        assert len(v_snaps) == len(s_snaps) == 1
        assert v_snaps[0].materialize() == s_snaps[0].materialize()
        assert v_snaps[0].materialize()[0] == ord("z")


class TestDrainSignatureParity:
    def test_drain_signatures_agree_across_cores(self):
        """Every drain in the tree accepts the same optional site."""
        import inspect

        from repro.pmdk.pool import PmemObjPool

        reference = inspect.signature(PersistenceDomain.drain)
        for impl in (VectorPersistenceDomain, PmemObjPool):
            assert inspect.signature(impl.drain) == reference, impl
