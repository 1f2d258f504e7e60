"""Tests for undo-log transactions: commit, abort, nesting, recovery."""

import pytest

from repro.errors import (
    SegmentationFault, SimulatedCrash, TransactionAborted, TransactionError,
)
from repro.pmdk.pool import PmemObjPool
from repro.pmdk.tx import MAX_LOG_ENTRIES, TxStage
from repro.pmem.persistence import TraceEventKind


def root_view(pool, node_type):
    return pool.root(node_type)


class TestCommit:
    def test_committed_changes_visible_after_reopen(self, pool, node_type):
        root = root_view(pool, node_type)
        with pool.transaction() as tx:
            tx.add_struct(root)
            root.n = 42
        image = pool.close()
        reopened = PmemObjPool.open(image, "test")
        assert reopened.typed(reopened.root_oid, node_type).n == 42

    def test_commit_persists_logged_ranges(self, pool, node_type):
        root = root_view(pool, node_type)
        with pool.transaction() as tx:
            tx.add_struct(root)
            root.n = 42
        # Even without close(): the committed data is on the media.
        persisted = pool.domain.persisted_view()
        offset = root.offset
        assert persisted[offset] == 42

    def test_log_is_clean_after_commit(self, pool, node_type):
        root = root_view(pool, node_type)
        with pool.transaction() as tx:
            tx.add_struct(root)
            root.n = 1
        assert pool.log.stage is TxStage.NONE
        assert pool.log.n_entries == 0

    def test_fresh_allocation_needs_no_snapshot(self, pool, node_type):
        with pool.transaction() as tx:
            node = tx.znew(node_type)
            node.n = 7  # no tx.add needed: freshly allocated
        assert pool.domain.persisted_view()[node.offset] == 7


class TestAbort:
    def test_exception_rolls_back(self, pool, node_type):
        root = root_view(pool, node_type)
        with pool.transaction() as tx:
            tx.add_struct(root)
            root.n = 1
        with pytest.raises(TransactionAborted):
            with pool.transaction() as tx:
                tx.add_struct(root)
                root.n = 99
                raise ValueError("boom")
        assert root.n == 1

    def test_explicit_abort(self, pool, node_type):
        root = root_view(pool, node_type)
        tx = pool.transaction()
        tx.begin()
        tx.add_struct(root)
        root.n = 5
        tx.abort()
        assert root.n == 0

    def test_abort_frees_tx_allocations(self, pool, node_type):
        with pytest.raises(TransactionAborted):
            with pool.transaction() as tx:
                node = tx.znew(node_type)
                oid = node.offset
                raise RuntimeError("die")
        # The block is back on the free list: next alloc reuses it.
        reused = pool.heap.alloc(node_type._size_)
        assert reused == oid

    def test_tx_free_is_deferred_to_commit(self, pool, node_type):
        oid = pool.zalloc(node_type._size_)
        with pytest.raises(TransactionAborted):
            with pool.transaction() as tx:
                tx.free(oid)
                raise RuntimeError("die")
        # Aborted: the object must still be allocated and usable.
        view = pool.typed(oid, node_type)
        view.n = 3
        assert view.n == 3

    def test_tx_free_applies_on_commit(self, pool, node_type):
        oid = pool.zalloc(node_type._size_)
        with pool.transaction() as tx:
            tx.free(oid)
        reused = pool.heap.alloc(node_type._size_)
        assert reused == oid


class TestNesting:
    def test_nested_begin_joins_outer(self, pool, node_type):
        root = root_view(pool, node_type)
        with pool.transaction() as tx:
            tx.add_struct(root)
            root.n = 1
            with pool.transaction() as inner:
                assert inner is tx  # same transaction object
                root.n = 2
        assert root.n == 2

    def test_inner_exception_aborts_everything(self, pool, node_type):
        root = root_view(pool, node_type)
        with pytest.raises(TransactionAborted):
            with pool.transaction() as tx:
                tx.add_struct(root)
                root.n = 1
                with pool.transaction():
                    root.n = 2
                    raise ValueError("inner boom")
        assert root.n == 0

    def test_operations_outside_tx_rejected(self, pool, node_type):
        tx = pool.transaction()
        with pytest.raises(TransactionError):
            tx.add(100, 4)
        with pytest.raises(TransactionError):
            tx.commit()


class TestRedundantAdd:
    def test_redundant_add_emits_annotation(self, pool, node_type):
        root = root_view(pool, node_type)
        events = []
        pool.domain.add_observer(events.append)
        with pool.transaction() as tx:
            tx.add_struct(root)
            tx.add_struct(root)  # redundant
        assert any(e.kind is TraceEventKind.TX_ADD_REDUNDANT for e in events)

    def test_add_of_fresh_allocation_is_redundant(self, pool, node_type):
        events = []
        pool.domain.add_observer(events.append)
        with pool.transaction() as tx:
            node = tx.znew(node_type)
            tx.add_struct(node)  # paper Bug 9's shape
        assert any(e.kind is TraceEventKind.TX_ADD_REDUNDANT for e in events)

    def test_distinct_ranges_not_redundant(self, pool, node_type):
        root = root_view(pool, node_type)
        events = []
        pool.domain.add_observer(events.append)
        with pool.transaction() as tx:
            tx.add_field(root, "n")
            tx.add_field(root, "next")
        assert not any(e.kind is TraceEventKind.TX_ADD_REDUNDANT
                       for e in events)


class TestCrashRecovery:
    def _crash_mid_tx(self, pool, node_type, fence):
        root = root_view(pool, node_type)
        with pool.transaction() as tx:
            tx.add_struct(root)
            root.n = 1
        image = pool.close()
        reopened = PmemObjPool.open(image, "test")
        reopened.domain.crash_at_fence = fence
        try:
            with reopened.transaction() as tx:
                view = reopened.typed(reopened.root_oid, node_type)
                tx.add_struct(view)
                view.n = 99
                view.keys[0] = 1234
        except SimulatedCrash:
            pass
        return reopened.crash_image()

    @pytest.mark.parametrize("fence", [0, 1, 2, 3])
    def test_pre_commit_crash_rolls_back(self, pool, node_type, fence):
        crash_image = self._crash_mid_tx(pool, node_type, fence)
        recovered = PmemObjPool.open(crash_image, "test")
        view = recovered.typed(recovered.root_oid, node_type)
        assert view.n == 1
        assert view.keys[0] == 0
        assert recovered.log.stage is TxStage.NONE

    def test_post_commit_crash_keeps_new_data(self, pool, node_type):
        crash_image = self._crash_mid_tx(pool, node_type, fence=4)
        recovered = PmemObjPool.open(crash_image, "test")
        view = recovered.typed(recovered.root_oid, node_type)
        assert view.n == 99
        assert view.keys[0] == 1234

    def test_crash_during_tx_alloc_is_leak_free(self, pool, node_type):
        root = root_view(pool, node_type)
        pool.domain.crash_at_fence = pool.domain.fence_count + 3
        try:
            with pool.transaction() as tx:
                node = tx.znew(node_type)
                tx.add_field(root, "next")
                root.next = node.offset
        except SimulatedCrash:
            pass
        crash_image = pool.crash_image()
        recovered = PmemObjPool.open(crash_image, "test")
        # Rollback freed the allocation and reset the root pointer.
        view = recovered.typed(recovered.root_oid, node_type)
        assert view.next == 0


class TestCrashDuringRecovery:
    def test_rollback_is_idempotent(self, pool, node_type):
        """A failure in the middle of recovery must be recoverable.

        Regression test: a crash mid-rollback leaves already-processed
        ALLOC entries valid; the next recovery must skip the blocks that
        were already freed instead of double-freeing them.
        """
        root = pool.root(node_type)
        # Crash mid-transaction with both a snapshot and an allocation
        # in the log.
        pool.domain.crash_at_fence = pool.domain.fence_count + 6
        try:
            with pool.transaction() as tx:
                tx.add_struct(root)
                node = tx.znew(node_type)
                root.next = node.offset
                root.n = 7
        except SimulatedCrash:
            pass
        image = pool.crash_image()
        # Now crash at every fence *inside recovery* and re-recover.
        for fence in range(0, 24):
            try:
                reopened = _open_with_crash(image, fence)
            except SimulatedCrash:
                continue  # recovery itself crashed before finishing
            if reopened is None:
                continue
            final = PmemObjPool.open(reopened.crash_image(), "test")
            view = final.typed(final.root_oid, node_type)
            assert view.n == 0
            assert view.next == 0
            assert final.log.stage is TxStage.NONE

    def test_double_recovery_of_same_image(self, pool, node_type):
        """Opening the same crash image twice is safe (images are
        copied at open, so each recovery works on its own state)."""
        root = pool.root(node_type)
        pool.domain.crash_at_fence = pool.domain.fence_count + 5
        try:
            with pool.transaction() as tx:
                node = tx.znew(node_type)
                tx.add_field(root, "next")
                root.next = node.offset
        except SimulatedCrash:
            pass
        image = pool.crash_image()
        for _ in range(3):
            reopened = PmemObjPool.open(image, "test")
            assert reopened.typed(reopened.root_oid, node_type).next == 0


def _open_with_crash(image, fence):
    """Open an image with a crash armed during the recovery itself."""
    from repro.pmem.persistence import PersistenceDomain
    from repro.pmdk.tx import recover_pool

    image.validate(expected_layout="test")
    working = image.copy()
    domain = PersistenceDomain(len(working.payload), bytes(working.payload))
    pool = PmemObjPool(working, domain)
    domain.crash_at_fence = fence
    try:
        recover_pool(pool)
    except SimulatedCrash:
        domain.crash_at_fence = None
        return pool  # recovery interrupted: caller re-recovers the state
    domain.crash_at_fence = None
    return pool


class TestLogLimits:
    def test_log_overflow_raises(self, pool):
        big = pool.zalloc(8 * (MAX_LOG_ENTRIES + 2))
        with pytest.raises((TransactionError, TransactionAborted)):
            with pool.transaction() as tx:
                for i in range(MAX_LOG_ENTRIES + 1):
                    tx.add(big + 8 * i, 4)  # disjoint 4-byte snapshots


class TestSetFieldSite:
    """``TX_SET``'s store keeps the site label results were built on.

    Through an unlabelled view the store is labelled ``pmdk/tx.py:305``:
    a PM site of its own (rbtree's Bug-11 variant reaches it), so the
    label feeds the PM counter map and must not drift with edits to
    ``tx.py``.
    """

    def _set_field(self, node_type, view_site):
        from repro.instrument.context import ExecutionContext, push_context

        ctx = ExecutionContext(collect_trace=True)
        with push_context(ctx):
            pool = PmemObjPool.create("test", 64 * 1024)
            view = pool.typed(pool.root(node_type).offset, node_type,
                              site=view_site)
            with pool.transaction() as tx:
                tx.set_field(view, "n", 9, site="test:set_field")
        assert view.n == 9
        stores = [e.site for e in ctx.trace
                  if e.kind is TraceEventKind.STORE and e.addr == view.offset]
        return ctx.sites_hit, stores

    def test_unlabelled_view_store_is_the_pinned_site(self, node_type):
        sites, stores = self._set_field(node_type, None)
        assert "pmdk/tx.py:305" in sites
        assert stores[-1] == "pmdk/tx.py:305"

    def test_labelled_view_keeps_its_own_site(self, node_type):
        sites, stores = self._set_field(node_type, "test:view")
        assert "pmdk/tx.py:305" not in sites
        assert stores[-1] == "test:view"
