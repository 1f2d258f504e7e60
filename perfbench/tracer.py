"""Outside-in layer tracer: spans around calls into the program's layers.

The tracer never edits the program.  It replaces a public function or
method with a wrapper that opens a frame on entry and closes it on exit,
and it puts the original back afterwards.  Every closed frame adds to a
ledger keyed by ``(parent layer, layer)``:

* ``calls`` — how many frames closed;
* ``total_s`` — their summed duration;
* ``self_s`` — duration minus the part covered by child frames (and by
  leaf calls, below).  Every instant inside the root frame is charged
  to exactly one frame's self time, so the self times of a traced run
  add up to the root's duration.

Frames of "coarse" layers are also kept as spans ``(id, name, start,
end, parent id)`` in memory, to be written out once at the end.  Fine
layers (called tens of thousands of times per run) only feed the ledger.

Leaf layers are the very hottest boundaries (the persistence domain's
load/store/flush/drain).  A leaf call pushes no frame: its wrapper only
adds its count and duration to an accumulator.  Each open frame notes
the accumulator on entry, so the leaf time spent directly under it is
moved out of its self time and into a ``(layer, leaf)`` ledger entry.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Ledger key: (parent layer name, "" at the root; layer name).
Key = Tuple[str, str]
#: Layer name of every leaf call.
LEAF_LAYER = "pmem"


class TraceError(RuntimeError):
    """The frame stack was left unbalanced."""


class _Frame:
    __slots__ = ("name", "start", "child_s", "span_id", "keep_span",
                 "leaf_calls0", "leaf_s0", "leaf_child_calls",
                 "leaf_child_s", "durations")

    def __init__(self, name: str, span_id: int, keep_span: bool,
                 leaf: List, durations: Optional[List[float]]) -> None:
        self.name = name
        self.span_id = span_id
        self.keep_span = keep_span
        self.child_s = 0.0
        self.leaf_calls0 = leaf[0]
        self.leaf_s0 = leaf[1]
        self.leaf_child_calls = 0
        self.leaf_child_s = 0.0
        self.durations = durations
        self.start = 0.0


class Tracer:
    """Frame stack, ledger, spans and counters of one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: [calls, seconds] of every leaf call made so far.
        self.leaf: List = [0, 0.0]
        self.ledger: Dict[Key, List] = {}
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = {}
        #: Inclusive per-call durations of the layers that asked for them.
        self.durations: Dict[str, List[float]] = {}
        self._stack: List[_Frame] = []
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------
    def enter(self, name: str, keep_span: bool = True,
              keep_durations: bool = False) -> _Frame:
        durations = None
        if keep_durations:
            durations = self.durations.setdefault(name, [])
        frame = _Frame(name, self._next_id, keep_span, self.leaf, durations)
        self._next_id += 1
        self._stack.append(frame)
        frame.start = self.clock()
        return frame

    def exit(self, frame: _Frame) -> None:
        end = self.clock()
        stack = self._stack
        if not stack or stack[-1] is not frame:
            raise TraceError(f"frame {frame.name!r} closed out of order")
        stack.pop()
        duration = end - frame.start
        leaf_calls = self.leaf[0] - frame.leaf_calls0
        leaf_s = self.leaf[1] - frame.leaf_s0
        own_leaf_calls = leaf_calls - frame.leaf_child_calls
        own_leaf_s = leaf_s - frame.leaf_child_s
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child_s += duration
            parent.leaf_child_calls += leaf_calls
            parent.leaf_child_s += leaf_s
        self._add((parent.name if parent else "", frame.name), 1, duration,
                  duration - frame.child_s - own_leaf_s)
        if own_leaf_calls:
            self._add((frame.name, LEAF_LAYER), own_leaf_calls,
                      own_leaf_s, own_leaf_s)
        if frame.durations is not None:
            frame.durations.append(duration)
        if frame.keep_span:
            self.spans.append((frame.span_id, frame.name, frame.start, end,
                               parent.span_id if parent else -1))

    def _add(self, key: Key, calls: int, total_s: float,
             self_s: float) -> None:
        rec = self.ledger.get(key)
        if rec is None:
            rec = self.ledger[key] = [0, 0.0, 0.0]
        rec[0] += calls
        rec[1] += total_s
        rec[2] += self_s

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable, keep_span: bool = True,
             keep_durations: bool = False,
             after: Optional[Callable] = None) -> Callable:
        """A frame around every call of ``fn``.

        ``after(tracer, args, kwargs, result)`` runs once the call has
        returned, inside the frame, to record counts seen at this
        boundary (images harvested, jobs per dispatch, ...).
        """
        enter = self.enter
        exit_ = self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name, keep_span, keep_durations)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, args, kwargs, result)
                return result
            finally:
                exit_(frame)

        return traced

    def wrap_leaf(self, fn: Callable) -> Callable:
        """Count and time every call of ``fn`` without pushing a frame."""
        clock = self.clock
        leaf = self.leaf

        @functools.wraps(fn)
        def traced_leaf(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leaf[1] += clock() - start
                leaf[0] += 1

        return traced_leaf

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement``, remembering the original.

        Only attributes defined on ``owner`` itself are patched, so a
        subclass that inherits a method is covered by its base's patch
        and no call is wrapped twice.
        """
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def patch_function(self, module_name: str, attr: str,
                       make: Callable[[Callable], Callable]) -> None:
        """Wrap a module-level function in every module that holds it.

        ``from a import f`` copies ``f`` into the importing module, so
        the wrapper must replace each loaded copy, not only ``a.f``.
        """
        original = getattr(sys.modules[module_name], attr)
        replacement = make(original)
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            if vars(module).get(attr) is original:
                self.patch(module, attr, replacement)

    def unpatch(self) -> None:
        """Put every original back (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def check_balanced(self) -> None:
        if self._stack:
            raise TraceError("frames left open: "
                             + ", ".join(f.name for f in self._stack))


# ----------------------------------------------------------------------
# Ledger arithmetic
# ----------------------------------------------------------------------
def by_layer(ledger: Dict[Key, List]) -> Dict[str, Dict[str, float]]:
    """Fold the ``(parent, layer)`` ledger into per-layer totals."""
    out: Dict[str, Dict[str, float]] = {}
    for (_, name), (calls, total_s, self_s) in ledger.items():
        rec = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                    "self_s": 0.0})
        rec["calls"] += calls
        rec["total_s"] += total_s
        rec["self_s"] += self_s
    return out


def percentile_ms(durations: List[float], q: int) -> float:
    """The ``q``-th percentile of ``durations`` in milliseconds (0 if none)."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    cuts = statistics.quantiles(durations, n=100, method="inclusive")
    return cuts[q - 1] * 1e3
