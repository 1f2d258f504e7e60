"""Typed persistent structs: the D_RO/D_RW view onto pool memory.

PMDK workloads declare C structs and access them through ``D_RO(oid)`` /
``D_RW(oid)`` pointers into the memory-mapped pool.  This module gives the
Python workloads the same shape: a :class:`PStruct` subclass declares
``_fields_``; binding it to a pool offset yields an object whose attribute
reads and writes become PM loads and stores through the persistence
domain — and therefore appear in the PM operation trace.

Example::

    class Node(PStruct):
        _fields_ = [
            ("n", U32),
            ("keys", Array(U64, 8)),
            ("slots", Array(OID, 9)),
        ]

    node = pool.typed(oid, Node)     # D_RW(node)
    node.n = node.n + 1              # traced PM load + PM store
    node.keys[0] = 42                # traced array element store
"""

from __future__ import annotations

import struct as _struct
from sys import _getframe, gettrace as _gettrace, settrace as _settrace
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import PMemError
from repro.instrument import branchcov as _cov
from repro.instrument.context import _SITE_CACHE, pm_call_site, site_label


class FieldType:
    """A fixed-size scalar field codec."""

    def __init__(self, fmt: str) -> None:
        self.fmt = "<" + fmt
        #: Precompiled codec, called directly by the field accessors.
        self.codec = _struct.Struct(self.fmt)
        self.size = self.codec.size


#: Unsigned / signed scalar field types.
U8 = FieldType("B")
U16 = FieldType("H")
U32 = FieldType("I")
U64 = FieldType("Q")
I64 = FieldType("q")
F64 = FieldType("d")
#: A persistent object identifier — a 64-bit pool offset (0 is NULL).
OID = FieldType("Q")


class Bytes:
    """A fixed-size raw byte field (e.g. inline string storage)."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise PMemError(f"Bytes field size must be positive, got {size}")
        self.size = size
        self.codec = _struct.Struct(f"{size}s")

    def pack(self, value: bytes) -> bytes:
        if len(value) > self.size:
            raise PMemError(f"value of {len(value)} bytes exceeds field of {self.size}")
        return bytes(value).ljust(self.size, b"\0")


class Array:
    """A fixed-length array of a scalar field type."""

    def __init__(self, element: FieldType, count: int) -> None:
        if count <= 0:
            raise PMemError(f"Array count must be positive, got {count}")
        self.element = element
        self.count = count
        self.size = element.size * count


# ----------------------------------------------------------------------
# Field descriptors
#
# Every typed access is a PM operation, so these accessors are the
# innermost loop of every execution.  Each one resolves the caller's
# site label with an inline ``_SITE_CACHE`` probe (same ``file:line``
# label and cache as :func:`pm_call_site`) and goes straight to
# ``pool.read``/``pool.write``: a scalar load or store is the accessor
# plus the pool, context, counter-map and domain frames, nothing else.
#
# Each accessor is also a library entry point: it takes the settrace
# recorder's hook off for the access and puts it back on every exit
# (``branchcov.library_hook``, DESIGN.md §18).  The check is inline
# because a helper would be one more frame on this path.
# ----------------------------------------------------------------------
class _Field:
    """Data descriptor for one scalar or :class:`Bytes` field."""

    __slots__ = ("offset", "size", "pack", "unpack")

    def __init__(self, offset: int, ftype: Any) -> None:
        self.offset = offset
        self.size = ftype.size
        # Bytes.pack rejects oversized values before padding; scalar
        # fields pack straight through the C codec.
        self.pack = ftype.pack if isinstance(ftype, Bytes) else ftype.codec.pack
        self.unpack = ftype.codec.unpack

    def __get__(self, view: Any, owner: Any = None) -> Any:
        if view is None:
            return self
        site = view._site
        if not site:
            frame = _getframe(1)
            key = (id(frame.f_code), frame.f_lineno)
            site = _SITE_CACHE.get(key) or site_label(frame, key)
        hook = _gettrace()
        if hook is _cov.library_hook:
            _settrace(None)
        try:
            return self.unpack(view._pool.read(
                view._offset + self.offset, self.size, site))[0]
        finally:
            if hook is _cov.library_hook:
                _settrace(hook)

    def __set__(self, view: Any, value: Any) -> None:
        site = view._site
        if not site:
            frame = _getframe(1)
            key = (id(frame.f_code), frame.f_lineno)
            site = _SITE_CACHE.get(key) or site_label(frame, key)
        hook = _gettrace()
        if hook is _cov.library_hook:
            _settrace(None)
        try:
            view._pool.write(view._offset + self.offset, self.pack(value),
                             site)
        finally:
            if hook is _cov.library_hook:
                _settrace(hook)


class _ArrayField:
    """Data descriptor for an :class:`Array` field: yields a bound array."""

    __slots__ = ("name", "offset", "count", "stride", "pack_item",
                 "unpack_item")

    def __init__(self, name: str, offset: int, spec: Array) -> None:
        self.name = name
        self.offset = offset
        self.count = spec.count
        self.stride = spec.element.size
        self.pack_item = spec.element.codec.pack
        self.unpack_item = spec.element.codec.unpack

    def __get__(self, view: Any, owner: Any = None) -> Any:
        if view is None:
            return self
        hook = _gettrace()
        if hook is _cov.library_hook:
            _settrace(None)
        try:
            return _BoundArray(view._pool, view._offset + self.offset, self,
                               view._site)
        finally:
            if hook is _cov.library_hook:
                _settrace(hook)

    def __set__(self, view: Any, value: Any) -> None:
        raise PMemError(
            f"cannot assign whole array field {self.name!r}; index it")


class _BoundArray:
    """Accessor for an Array field bound to (pool, base offset)."""

    __slots__ = ("_pool", "_base", "_field", "_site")

    def __init__(self, pool: Any, base: int, field: _ArrayField,
                 site: str) -> None:
        self._pool = pool
        self._base = base
        self._field = field
        self._site = site

    def __len__(self) -> int:
        return self._field.count

    def __getitem__(self, index: int) -> Any:
        field = self._field
        if not 0 <= index < field.count:
            raise IndexError(
                f"array index {index} out of range [0, {field.count})")
        site = self._site
        if not site:
            frame = _getframe(1)
            key = (id(frame.f_code), frame.f_lineno)
            site = _SITE_CACHE.get(key) or site_label(frame, key)
        stride = field.stride
        hook = _gettrace()
        if hook is _cov.library_hook:
            _settrace(None)
        try:
            return field.unpack_item(
                self._pool.read(self._base + index * stride, stride, site))[0]
        finally:
            if hook is _cov.library_hook:
                _settrace(hook)

    def __setitem__(self, index: int, value: Any) -> None:
        field = self._field
        if not 0 <= index < field.count:
            raise IndexError(
                f"array index {index} out of range [0, {field.count})")
        site = self._site
        if not site:
            frame = _getframe(1)
            key = (id(frame.f_code), frame.f_lineno)
            site = _SITE_CACHE.get(key) or site_label(frame, key)
        hook = _gettrace()
        if hook is _cov.library_hook:
            _settrace(None)
        try:
            self._pool.write(self._base + index * field.stride,
                             field.pack_item(value), site)
        finally:
            if hook is _cov.library_hook:
                _settrace(hook)

    def __iter__(self):
        # The label is the caller of iter(), resolved once: element
        # reads made from inside the generator would otherwise be
        # attributed to this module.
        return self._elements(self._site or pm_call_site())

    def tolist(self) -> List[Any]:
        """Read the whole array as a Python list."""
        site = self._site or pm_call_site()
        hook = _gettrace()
        if hook is _cov.library_hook:
            _settrace(None)
        try:
            return list(self._elements(site))
        finally:
            if hook is _cov.library_hook:
                _settrace(hook)

    def _elements(self, site: str):
        # A generator resumes in its consumer's context: suspend per
        # element, never across a yield back into workload code.
        field = self._field
        stride = field.stride
        for i in range(field.count):
            hook = _gettrace()
            if hook is _cov.library_hook:
                _settrace(None)
            try:
                value = field.unpack_item(
                    self._pool.read(self._base + i * stride, stride, site))[0]
            finally:
                if hook is _cov.library_hook:
                    _settrace(hook)
            yield value


class PStructMeta(type):
    """Metaclass computing field offsets and installing field descriptors.

    Every subclass gets ``__slots__ = ()`` (unless it declares its own),
    so instances carry only the pool, offset and site slots of
    :class:`PStruct`: assigning a name that is not a field raises
    ``AttributeError`` instead of creating volatile state.
    """

    def __new__(mcs, name: str, bases: Tuple[type, ...], namespace: Dict[str, Any]):
        namespace.setdefault("__slots__", ())
        fields: Sequence[Tuple[str, Any]] = namespace.get("_fields_", ())
        offsets: Dict[str, Tuple[int, Any]] = {}
        cursor = 0
        for fname, ftype in fields:
            if fname in offsets:
                raise PMemError(f"duplicate field {fname!r} in {name}")
            # A class-level descriptor would silently replace a method,
            # property or slot of the same name.
            if fname in namespace or any(hasattr(b, fname) for b in bases):
                raise PMemError(
                    f"field {fname!r} in {name} would shadow the "
                    f"attribute of the same name")
            offsets[fname] = (cursor, ftype)
            namespace[fname] = (_ArrayField(fname, cursor, ftype)
                                if isinstance(ftype, Array)
                                else _Field(cursor, ftype))
            cursor += ftype.size
        cls = super().__new__(mcs, name, bases, namespace)
        cls._offsets_ = offsets
        cls._size_ = cursor
        return cls


class PStruct(metaclass=PStructMeta):
    """Base class for persistent struct layouts.

    Instances are *views*: they hold a pool and a byte offset, and every
    field access is a traced PM load or store.  Use
    ``pool.typed(oid, Struct)`` to construct one (the D_RW analogue).
    """

    _fields_: Sequence[Tuple[str, Any]] = ()
    _offsets_: Dict[str, Tuple[int, Any]] = {}
    _size_: int = 0

    __slots__ = ("_pool", "_offset", "_site")

    def __init__(self, pool: Any, offset: int, site: str = "") -> None:
        self._pool = pool
        self._offset = offset
        self._site = site

    @property
    def offset(self) -> int:
        """Pool offset of this struct (its OID)."""
        return self._offset

    @classmethod
    def field_offset(cls, name: str) -> int:
        """Byte offset of field ``name`` within the struct."""
        return cls._offsets_[name][0]

    @classmethod
    def field_size(cls, name: str) -> int:
        """Size in bytes of field ``name``."""
        return cls._offsets_[name][1].size

    def field_addr(self, name: str) -> int:
        """Absolute pool offset of field ``name`` in this instance."""
        return self._offset + self.field_offset(name)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} @0x{self._offset:x}>"


def store_field(view: PStruct, field: str, value: Any, site: str) -> None:
    """Store a struct field under an explicit site label.

    Workloads use this at stores that are synthetic-bug injection sites
    (see :mod:`repro.workloads.synthetic`): the explicit label is what a
    ``WRONG_VALUE`` bug keys on, and it keeps the site stable across
    source-line drift.
    """
    desc = type(view).__dict__[field]
    hook = _gettrace()
    if hook is _cov.library_hook:
        _settrace(None)
    try:
        view._pool.write(view._offset + desc.offset, desc.pack(value),
                         site=site)
    finally:
        if hook is _cov.library_hook:
            _settrace(hook)


def load_field(view: PStruct, field: str, site: str) -> Any:
    """Load a struct field under an explicit site label."""
    desc = type(view).__dict__[field]
    hook = _gettrace()
    if hook is _cov.library_hook:
        _settrace(None)
    try:
        return desc.unpack(view._pool.read(
            view._offset + desc.offset, desc.size, site=site))[0]
    finally:
        if hook is _cov.library_hook:
            _settrace(hook)
