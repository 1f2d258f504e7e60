"""The settrace recorder's hook is off inside PM-library code (py<3.12).

Library frames never produce coverage events, so suspending the hook
while ``repro.pmdk``/``repro.pmem`` code runs must be invisible:

* tracer state — inside a recorder execution the hook is off in
  ``PmemObjPool.read`` and ``Transaction.commit``, and back on in the
  workload frame after every exit path (normal return, simulated crash,
  segfault, aborted transaction); a foreign tracer is never touched;
* campaigns — every registry workload gives the same ``comparable()``
  stats, queue and stored crash-image bytes with suspension on and off.

The version gate (:data:`branchcov.SUSPEND_IN_LIBRARY`) is forced both
ways, so every interpreter runs both paths.
"""

from __future__ import annotations

import sys

import pytest

from repro.core.config import PMFUZZ
from repro.core.pmfuzz import build_engine
from repro.errors import SegmentationFault, SimulatedCrash, TransactionAborted
from repro.fuzz.rng import DeterministicRandom
from repro.instrument import branchcov
from repro.instrument.branchcov import BranchCoverage
from repro.instrument.context import ExecutionContext, push_context
from repro.instrument.covcore import set_backend
from repro.pmdk.layout import Array, PStruct, U32, U64
from repro.pmdk.pool import PmemObjPool
from repro.workloads.registry import workload_names

#: Instrument this file as if it were target-program code.
FRAGMENT = "instrument/test_library_suspension.py"


class Rec(PStruct):
    _fields_ = [("n", U32), ("keys", Array(U64, 4))]


class ProbeContext(ExecutionContext):
    """Notes the current tracer at every PM operation the library records."""

    def __init__(self) -> None:
        super().__init__(collect_trace=False)
        self.tracers = []

    def record_pm_op(self, site_label: str) -> int:
        self.tracers.append((site_label, sys.gettrace()))
        return super().record_pm_op(site_label)


@pytest.fixture
def gate_on(monkeypatch):
    monkeypatch.setattr(branchcov, "SUSPEND_IN_LIBRARY", True)


def _workload(pool: PmemObjPool, states: list) -> None:
    """Target-program stand-in: PM calls, noting the tracer after each."""
    root = pool.root(Rec, site="probe:root")
    states.append(("root", sys.gettrace()))
    root.n = 3
    root.keys[1] = root.n
    pool.read(root.offset, 4, site="probe:read")
    states.append(("access", sys.gettrace()))
    with pool.transaction() as tx:
        tx.add_struct(root)
        root.n = 4
    states.append(("commit", sys.gettrace()))
    try:
        pool.typed(0, Rec)
    except SegmentationFault:
        states.append(("segfault", sys.gettrace()))
    try:
        with pool.transaction() as tx:
            tx.add_struct(root)
            raise ValueError("abort me")
    except TransactionAborted:
        states.append(("aborted", sys.gettrace()))
    pool.domain.crash_at_store = pool.domain.store_count  # the next store
    try:
        root.n = 5
    except SimulatedCrash:
        states.append(("crash", sys.gettrace()))


def _run_recorded(ctx=None):
    ctx = ctx if ctx is not None else ProbeContext()
    cov = BranchCoverage([FRAGMENT])
    states = []
    with push_context(ctx):
        pool = PmemObjPool.create("probe", 64 * 1024)
        cov.start()
        try:
            _workload(pool, states)
        finally:
            cov.stop()
    return cov, ctx, states


class TestTracerState:
    def test_gate_default_follows_sys_monitoring(self):
        assert branchcov.SUSPEND_IN_LIBRARY is not hasattr(sys, "monitoring")

    def test_hook_is_off_in_library_and_on_in_workload(self, gate_on):
        cov, ctx, states = _run_recorded()
        labels = {label for label, _ in ctx.tracers}
        # PmemObjPool.read (typed accessors and a direct call) and
        # Transaction.commit both recorded PM operations ...
        assert {"probe:read", "tx:commit"} <= labels
        # ... and none of them ran under a trace hook.
        assert [t for _, t in ctx.tracers] == [None] * len(ctx.tracers)
        # Every exit path handed the recorder's own hook back.
        assert [name for name, _ in states] == [
            "root", "access", "commit", "segfault", "aborted", "crash"]
        assert all(tracer is cov._hook for _, tracer in states)
        assert cov.edge_count() > 0
        assert branchcov.library_hook is branchcov._NO_HOOK

    def test_gate_off_keeps_the_hook_everywhere(self, monkeypatch):
        monkeypatch.setattr(branchcov, "SUSPEND_IN_LIBRARY", False)
        cov, ctx, states = _run_recorded()
        assert all(tracer is cov._hook for _, tracer in ctx.tracers)
        assert all(tracer is cov._hook for _, tracer in states)

    def test_same_map_with_and_without_suspension(self, monkeypatch):
        # A plain context: the probe's record_pm_op lives in this
        # (instrumented) file, and the library calls it with the hook off.
        maps = []
        for gate in (True, False):
            monkeypatch.setattr(branchcov, "SUSPEND_IN_LIBRARY", gate)
            cov, _, _ = _run_recorded(ExecutionContext(collect_trace=False))
            maps.append(sorted(cov.sparse()))
        assert maps[0] == maps[1]

    def test_foreign_tracer_is_never_disabled(self, gate_on):
        seen = set()

        def tracer(frame, event, arg):
            if event == "line":
                seen.add(frame.f_code.co_filename.replace("\\", "/")
                         .rsplit("/", 2)[-2:][0])
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            states = []
            _workload(PmemObjPool.create("probe", 64 * 1024), states)
            still = sys.gettrace()
        finally:
            sys.settrace(previous)
        assert still is tracer
        assert all(t is tracer for _, t in states)
        assert {"pmdk", "pmem"} <= seen

    def test_call_traced_resumes_only_a_suspended_hook(self, gate_on):
        cov = BranchCoverage([FRAGMENT])
        inside = []
        cov.start()
        try:
            branchcov.call_traced(lambda: inside.append(sys.gettrace()))
            sys.settrace(None)  # as a library entry point does
            branchcov.call_traced(lambda: inside.append(sys.gettrace()))
            after = sys.gettrace()
            sys.settrace(cov._hook)
        finally:
            cov.stop()
        assert inside == [cov._hook, cov._hook]
        assert after is None
        assert branchcov.call_traced(sys.gettrace) is None


# ----------------------------------------------------------------------
# Invisibility: stock-seed campaigns, suspension on vs off
# ----------------------------------------------------------------------
def _campaign(workload: str, injector=None):
    engine = build_engine(
        workload, PMFUZZ,
        rng=DeterministicRandom(0x504D465A).fork(f"{workload}/{PMFUZZ.name}"),
        cov_backend="settrace", injector=injector)
    stats = engine.run(0.25)
    queue = sorted((e.data, e.image_id) for e in engine.queue.entries)
    images = {image_id: engine.storage.store.raw_serialized(image_id)
              for _, image_id in queue if image_id}
    return stats, queue, images


@pytest.fixture
def settrace_backend():
    yield
    set_backend(None)


def _both_ways(monkeypatch, run):
    armed = []
    start = BranchCoverage.start

    def watched_start(self):
        start(self)
        armed.append(branchcov.library_hook is self._hook)

    monkeypatch.setattr(BranchCoverage, "start", watched_start)
    monkeypatch.setattr(branchcov, "SUSPEND_IN_LIBRARY", True)
    on = run()
    assert armed and all(armed)
    armed.clear()
    monkeypatch.setattr(branchcov, "SUSPEND_IN_LIBRARY", False)
    off = run()
    assert armed and not any(armed)
    return on, off


def _assert_same(on, off):
    on_stats, on_queue, on_images = on
    off_stats, off_queue, off_images = off
    assert on_stats.executions > 0
    assert on_stats.comparable() == off_stats.comparable()
    assert on_queue == off_queue
    assert on_images == off_images


@pytest.mark.parametrize("workload", workload_names())
def test_campaign_is_identical_with_suspension(monkeypatch, settrace_backend,
                                               workload):
    on, off = _both_ways(monkeypatch, lambda: _campaign(workload))
    _assert_same(on, off)


def test_injector_callbacks_keep_their_coverage(monkeypatch,
                                                settrace_backend):
    """The synthetic-bug injector is workload code the library calls."""
    from repro.workloads.registry import get_workload
    from repro.workloads.synthetic import BugInjector

    bugs = get_workload("hashmap_atomic").synthetic_bugs()
    injectors = []

    def run():
        injectors.append(BugInjector(bugs))
        return _campaign("hashmap_atomic", injector=injectors[-1])

    on, off = _both_ways(monkeypatch, run)
    _assert_same(on, off)
    assert injectors[0].triggered == injectors[1].triggered
