"""Tests for the typed persistent-struct layer."""

import sys

import pytest

from repro.errors import PMemError, SegmentationFault
from repro.instrument.context import ExecutionContext, push_context
from repro.pmdk.layout import (
    Array, Bytes, OID, PStruct, U8, U16, U32, U64, load_field, store_field,
)
from repro.pmdk.pool import PmemObjPool
from repro.workloads.synthetic import BugInjector, BugKind, SyntheticBug


class Mixed(PStruct):
    _fields_ = [
        ("a", U8),
        ("b", U16),
        ("c", U32),
        ("d", U64),
        ("arr", Array(U64, 3)),
        ("raw", Bytes(8)),
    ]


class TestLayoutComputation:
    def test_offsets_are_sequential(self):
        assert Mixed.field_offset("a") == 0
        assert Mixed.field_offset("b") == 1
        assert Mixed.field_offset("c") == 3
        assert Mixed.field_offset("d") == 7
        assert Mixed.field_offset("arr") == 15
        assert Mixed.field_offset("raw") == 39

    def test_total_size(self):
        assert Mixed._size_ == 47

    def test_field_sizes(self):
        assert Mixed.field_size("a") == 1
        assert Mixed.field_size("arr") == 24

    def test_duplicate_field_rejected(self):
        with pytest.raises(PMemError):
            class Dup(PStruct):
                _fields_ = [("x", U8), ("x", U16)]

    def test_empty_struct(self):
        class Empty(PStruct):
            _fields_ = []
        assert Empty._size_ == 0

    @pytest.mark.parametrize("name", [
        "offset", "field_addr", "field_offset", "field_size",
        "_pool", "_offset", "_site",
    ])
    def test_field_shadowing_a_pstruct_attribute_rejected(self, name):
        # Fields are class-level descriptors: one named like a PStruct
        # attribute would silently replace it.
        with pytest.raises(PMemError, match="shadow"):
            type("Shadow", (PStruct,), {"_fields_": [(name, U64)]})

    def test_field_shadowing_own_method_rejected(self):
        with pytest.raises(PMemError, match="shadow"):
            class Clash(PStruct):
                _fields_ = [("size", U64)]

                def size(self):
                    return 0


class TestFieldAccess:
    @pytest.fixture
    def view(self, pool):
        oid = pool.zalloc(Mixed._size_)
        return pool.typed(oid, Mixed)

    def test_scalar_round_trip(self, view):
        view.a = 200
        view.b = 60000
        view.c = 4_000_000_000
        view.d = 2**63
        assert view.a == 200
        assert view.b == 60000
        assert view.c == 4_000_000_000
        assert view.d == 2**63

    def test_array_round_trip(self, view):
        view.arr[0] = 1
        view.arr[2] = 3
        assert view.arr.tolist() == [1, 0, 3]

    def test_array_index_bounds(self, view):
        with pytest.raises(IndexError):
            view.arr[3]
        with pytest.raises(IndexError):
            view.arr[-1] = 0

    def test_array_iteration(self, view):
        view.arr[1] = 7
        assert list(view.arr) == [0, 7, 0]

    def test_whole_array_assignment_rejected(self, view):
        seq = view._pool.domain.seq
        with pytest.raises(PMemError, match="whole array field 'arr'"):
            view.arr = [1, 2, 3]
        assert view._pool.domain.seq == seq  # nothing was stored

    def test_bytes_field_padded(self, view):
        view.raw = b"hi"
        assert view.raw == b"hi" + b"\0" * 6

    def test_bytes_field_overflow_rejected(self, view):
        with pytest.raises(PMemError):
            view.raw = b"123456789"

    def test_unknown_field_get(self, view):
        with pytest.raises(AttributeError):
            view.nope

    def test_unknown_field_set(self, view):
        seq = view._pool.domain.seq
        with pytest.raises(AttributeError):
            view.nope = 1
        # No volatile per-view state was created and no PM store issued.
        assert not hasattr(view, "__dict__")
        with pytest.raises(AttributeError):
            view.nope
        assert view._pool.domain.seq == seq

    def test_field_addr(self, view):
        assert view.field_addr("d") == view.offset + 7

    def test_writes_reach_the_pool(self, pool):
        oid = pool.zalloc(Mixed._size_)
        view = pool.typed(oid, Mixed)
        view.d = 0x1122334455667788
        raw = pool.read(oid + 7, 8)
        assert raw == bytes.fromhex("8877665544332211")

    def test_explicit_site_helpers(self, pool):
        oid = pool.zalloc(Mixed._size_)
        view = pool.typed(oid, Mixed)
        store_field(view, "c", 77, site="test:site")
        assert load_field(view, "c", site="test:site") == 77
        assert view.c == 77

    def test_repr_contains_offset(self, view):
        assert f"0x{view.offset:x}" in repr(view)


class TestAccessFaults:
    """Descriptor accesses keep the pool's NULL/bounds checks."""

    NULL = "NULL persistent pointer dereference"

    def test_null_field_access(self, pool):
        view = Mixed(pool, 0)  # bypasses pool.typed's OID check
        with pytest.raises(SegmentationFault, match=f"^{self.NULL}$"):
            view.a
        with pytest.raises(SegmentationFault, match=f"^{self.NULL}$"):
            view.a = 1

    def test_out_of_bounds_field_access(self, pool):
        size = pool.domain.size
        view = Mixed(pool, size - 4)
        msg = (rf"^access \[{size + 3}, {size + 11}\) outside pool of "
               rf"size {size}$")
        with pytest.raises(SegmentationFault, match=msg):
            view.d
        with pytest.raises(SegmentationFault, match=msg):
            view.d = 1

    def test_out_of_bounds_array_element(self, pool):
        size = pool.domain.size
        view = Mixed(pool, size - 24)
        msg = (rf"^access \[{size + 7}, {size + 15}\) outside pool of "
               rf"size {size}$")
        with pytest.raises(SegmentationFault, match=msg):
            view.arr[2]
        with pytest.raises(SegmentationFault, match=msg):
            view.arr[2] = 1


class TestInstrumentedAccess:
    @pytest.fixture
    def view(self, pool):
        return pool.typed(pool.zalloc(Mixed._size_), Mixed)

    def test_array_iteration_records_the_callers_line(self, view):
        ctx = ExecutionContext()
        with push_context(ctx):
            line = sys._getframe().f_lineno + 1
            values = list(view.arr)
            listed = view.arr.tolist()
        assert values == listed == [0, 0, 0]
        assert ctx.sites_hit == {f"pmdk/test_layout.py:{line}",
                                 f"pmdk/test_layout.py:{line + 1}"}

    def test_descriptor_writes_apply_corrupt_store(self, pool):
        bug = SyntheticBug("b1", "victim", BugKind.WRONG_VALUE)
        injector = BugInjector([bug])
        view = pool.typed(pool.zalloc(Mixed._size_), Mixed, site="victim")
        with push_context(ExecutionContext(injector=injector)):
            view.c = 0x0F0F0F0F
            view.arr[1] = 0
        assert view.c == 0xF0F0F0F0  # bytes inverted on the way in
        assert view.arr[1] == 2**64 - 1
        assert injector.triggered == {"b1"}
