"""AFL-style branch (edge) coverage for Python workloads.

AFL++ instruments every basic block at compile time; at runtime the pair
(previous block, current block) is hashed into a 64 Ki slot bitmap.  The
reproduction gets the same signal from line events restricted to
workload source files: each executed line is a location, consecutive
locations form an edge, and edges index an AFL-style counter map with
the classic ``cur ^ (prev >> 1)`` encoding.

Location IDs are stable CRC hashes of ``file:line``, satisfying the
derandomization requirement: the same input always produces the same
coverage map.

Two recorders implement the same map (see
:mod:`repro.instrument.covcore` for selection):

* :class:`BranchCoverage` — ``sys.settrace`` line events, the reference
  backend that runs on every supported interpreter.
* :class:`MonitoringBranchCoverage` — PEP 669 ``sys.monitoring`` LINE
  events (py3.12+), which lets non-instrumented code answer ``DISABLE``
  once per location instead of paying a callback per line forever.

Library suspension (py<3.12).  While a ``sys.settrace`` hook is
installed, CPython up to 3.11 runs *every* frame on the slow tracing
path, including frames whose ``f_trace`` is None.  PM-library code
(``repro.pmdk``, ``repro.pmem``) is never instrumented, so its entry
points take the running recorder's hook off on entry and put it back on
every exit, and :func:`call_traced` puts it back around the few calls
the library makes into instrumented code.  Library frames never produce
coverage events, so the map is unchanged.  The check is by identity
against :data:`library_hook`: a foreign tracer (coverage.py, pdb) is
never touched.  See DESIGN.md §18.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro._util import stable_hash16
from repro.errors import FuzzerError

#: Coverage map size (matches AFL's 64 KiB).
COV_MAP_SIZE = 1 << 16

#: Whether a running settrace recorder lets PM-library code suspend its
#: hook.  Only where ``sys.monitoring`` is absent: on 3.12+ toggling
#: ``sys.settrace`` re-instruments code and costs more than it saves.
SUSPEND_IN_LIBRARY = not hasattr(sys, "monitoring")

#: Stands in for "no suspendable hook"; ``sys.gettrace()`` never returns it.
_NO_HOOK = object()

#: The hook PM-library entry points may take off: the running settrace
#: recorder's, when :data:`SUSPEND_IN_LIBRARY` held at its start, else
#: :data:`_NO_HOOK`.  Library code reads it as ``branchcov.library_hook``
#: and suspends only when ``sys.gettrace()`` is this very object.
library_hook = _NO_HOOK


def call_traced(fn, *args):
    """Call instrumented code ``fn`` from PM-library code.

    Inside a suspended library region the recorder's hook is put back for
    the call (and taken off again after), so workload callbacks such as
    the synthetic-bug injector are covered exactly as if the library had
    never suspended.  Anywhere else this is a plain call.
    """
    hook = library_hook
    if hook is _NO_HOOK or sys.gettrace() is not None:
        return fn(*args)
    sys.settrace(hook)
    try:
        return fn(*args)
    finally:
        sys.settrace(None)


class BranchCoverage:
    """Edge-coverage recorder over a set of instrumented source files.

    Args:
        path_fragments: only files whose path contains one of these
            fragments are instrumented (default: the workloads package),
            mirroring how only the target binary is AFL-instrumented.
    """

    def __init__(self, path_fragments: Optional[Iterable[str]] = None) -> None:
        self.counters = bytearray(COV_MAP_SIZE)
        #: Slots hit this execution (lets consumers avoid full-map scans).
        #: Every touched slot has a nonzero counter — counters only ever
        #: increment between resets — so edge accounting derives from
        #: this set instead of scanning all 64 Ki slots.
        self.touched = set()
        self._prev_loc = 0
        self._fragments: List[str] = list(path_fragments or ["repro/workloads"])
        self._file_ok: Dict[str, bool] = {}
        #: ``(id(code), lineno) -> (stable_hash16(file:line), code)``.
        #: Two aliasing hazards shape this layout: a bare ``id(code)``
        #: key can be reissued once the original code object is
        #: collected, and keying by the code object itself is no better —
        #: code objects hash and compare *ignoring* ``co_filename``, so
        #: identical source compiled under two filenames would share one
        #: entry.  Keying by id and pinning the code object in the value
        #: closes both: the reference keeps the id from ever being
        #: reissued while the entry is cached.
        self._loc_cache: Dict[Tuple[int, int], Tuple[int, object]] = {}
        self._active = False
        #: The installed hook, bound once so that ``sys.gettrace()``
        #: returns this very object (the library-suspension identity).
        self._hook = self._global_trace

    # ------------------------------------------------------------------
    def _instrumented(self, filename: str) -> bool:
        ok = self._file_ok.get(filename)
        if ok is None:
            norm = filename.replace("\\", "/")
            ok = any(frag in norm for frag in self._fragments)
            self._file_ok[filename] = ok
        return ok

    def _hit(self, code, lineno: int) -> None:
        key = (id(code), lineno)
        entry = self._loc_cache.get(key)
        if entry is None:
            loc = stable_hash16(f"{code.co_filename}:{lineno}")
            self._loc_cache[key] = (loc, code)
        else:
            loc = entry[0]
        slot = (loc ^ self._prev_loc) & (COV_MAP_SIZE - 1)
        if self.counters[slot] != 0xFF:
            self.counters[slot] += 1
        self.touched.add(slot)
        self._prev_loc = loc >> 1

    def _global_trace(self, frame, event: str, arg) -> Optional[Callable]:
        # Called for every Python call in the process: a known file is
        # one dict probe, and only a first sighting pays for the
        # fragment match.
        filename = frame.f_code.co_filename
        ok = self._file_ok.get(filename)
        if ok is None:
            ok = self._instrumented(filename)
        if not ok or event != "call":
            return None
        # Per-frame-entry line filter matching PEP 669 LINE semantics: an
        # event fires only when the line number *changes* within the
        # frame.  Seeding with ``f_lineno`` at the call event reproduces
        # the two places sys.monitoring stays silent where raw settrace
        # would fire again: a backward jump to a single-line loop body,
        # and generator/genexpr resumption into the defining line (each
        # resume is a fresh call event, so the seed re-arms).  Both
        # backends therefore produce byte-identical maps.
        last_line = frame.f_lineno

        def _local_trace(frame, event, arg):
            nonlocal last_line
            if event == "line" and frame.f_lineno != last_line:
                last_line = frame.f_lineno
                self._hit(frame.f_code, last_line)
            return _local_trace

        return _local_trace

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin recording (installs the trace hook)."""
        global library_hook
        if self._active:
            return
        self._active = True
        if SUSPEND_IN_LIBRARY:
            library_hook = self._hook
        sys.settrace(self._hook)

    def stop(self) -> None:
        """Stop recording (removes the trace hook)."""
        global library_hook
        if not self._active:
            return
        sys.settrace(None)
        if library_hook is self._hook:
            library_hook = _NO_HOOK
        self._active = False

    def __enter__(self) -> "BranchCoverage":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear counters for a fresh execution.

        In place: only the slots hit since the previous reset are
        zeroed, so the 64 KiB map is allocated once per recorder
        lifetime instead of once per execution.
        """
        counters = self.counters
        for slot in self.touched:
            counters[slot] = 0
        self.touched.clear()
        self._prev_loc = 0

    def preload(self, pairs: Sequence[Tuple[int, int]], prev_loc: int) -> None:
        """Replay a recorded ``(slot, count)`` delta into a fresh map.

        Used by the warm-open cache to re-apply the execution prefix's
        coverage without re-executing it; ``prev_loc`` restores the edge
        chain so the first post-prefix line forms the same edge it would
        after a cold run.
        """
        counters = self.counters
        touched = self.touched
        for slot, count in pairs:
            counters[slot] = count
            touched.add(slot)
        self._prev_loc = prev_loc

    @property
    def prev_loc(self) -> int:
        """The ``prev >> 1`` edge-chain state (for prefix capture)."""
        return self._prev_loc

    def sparse(self):
        """Yield (slot, count) for the slots hit this execution."""
        counters = self.counters
        return [(slot, counters[slot]) for slot in self.touched]

    def edge_count(self) -> int:
        """Number of distinct edges hit."""
        return len(self.touched)

    def nonzero_slots(self) -> List[int]:
        """Indices of all populated slots."""
        return sorted(self.touched)


class MonitoringBranchCoverage(BranchCoverage):
    """PEP 669 ``sys.monitoring`` LINE-event recorder (py3.12+).

    Produces the exact map :class:`BranchCoverage` produces — same
    ``stable_hash16`` locations, same ``cur ^ (prev >> 1)`` slots — but
    non-instrumented code locations answer ``sys.monitoring.DISABLE``
    on first sight and never fire again (until ``restart_events``), so
    steady-state event cost is confined to the instrumented workload
    lines.

    ``DISABLE`` decisions are interpreter-global per tool id and outlive
    any single recorder, so they are only valid for one instrumented
    fragment set at a time: starting a recorder whose fragments differ
    from the set the standing decisions were made under calls
    ``sys.monitoring.restart_events()`` first.
    """

    _TOOL_NAME = "repro-branchcov"
    #: Whether COVERAGE_ID has been claimed for this process.
    _tool_claimed = False
    #: Fragment tuple the standing interpreter-global DISABLE decisions
    #: were made under (None = no decisions standing).
    _disable_fragments: Optional[Tuple[str, ...]] = None

    def start(self) -> None:
        if self._active:
            return
        mon = sys.monitoring
        cls = MonitoringBranchCoverage
        if not cls._tool_claimed:
            try:
                mon.use_tool_id(mon.COVERAGE_ID, cls._TOOL_NAME)
            except ValueError as exc:
                raise FuzzerError(
                    "sys.monitoring COVERAGE_ID is already claimed by "
                    f"another tool ({mon.get_tool(mon.COVERAGE_ID)!r}); "
                    "run with --cov-backend settrace") from exc
            cls._tool_claimed = True
        fragments = tuple(self._fragments)
        if cls._disable_fragments is None:
            cls._disable_fragments = fragments
        elif cls._disable_fragments != fragments:
            mon.restart_events()
            cls._disable_fragments = fragments
        mon.register_callback(mon.COVERAGE_ID, mon.events.LINE, self._on_line)
        mon.set_events(mon.COVERAGE_ID, mon.events.LINE)
        self._active = True

    def stop(self) -> None:
        if not self._active:
            return
        mon = sys.monitoring
        mon.set_events(mon.COVERAGE_ID, 0)
        mon.register_callback(mon.COVERAGE_ID, mon.events.LINE, None)
        self._active = False

    def _on_line(self, code, line_number: int):
        key = (id(code), line_number)
        entry = self._loc_cache.get(key)
        if entry is None:
            if not self._instrumented(code.co_filename):
                return sys.monitoring.DISABLE
            loc = stable_hash16(f"{code.co_filename}:{line_number}")
            self._loc_cache[key] = (loc, code)
        else:
            loc = entry[0]
        slot = (loc ^ self._prev_loc) & (COV_MAP_SIZE - 1)
        if self.counters[slot] != 0xFF:
            self.counters[slot] += 1
        self.touched.add(slot)
        self._prev_loc = loc >> 1
        return None
