"""Shared-memory ring transport: framing, fallback, torn-frame safety."""

import os
import signal

import pytest

from repro.errors import WorkerCrashError
import repro.fuzz  # noqa: F401  (initializes before repro.isolation)
from repro.isolation.backend import ForkServerBackend
from repro.isolation.pool import ForkWorkerPool, WorkerDeath
from repro.isolation.protocol import PipeClosed, ProtocolError
from repro.isolation.ring import (Channel, ShmRing, ring_available)

from tests.isolation.doubles import ScriptedExecutor

pytestmark = pytest.mark.skipif(not ring_available(),
                                reason="no anonymous shared mmap")
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="requires os.fork")


class TestShmRing:
    def test_write_read_round_trips(self):
        ring = ShmRing(capacity=256)
        assert ring.try_write(b"payload") is True
        assert ring.read() == b"payload"
        ring.close()

    def test_frames_wrap_around_the_capacity(self):
        ring = ShmRing(capacity=64)
        blob = b"x" * 40  # 48 bytes framed: successive frames must wrap
        for i in range(8):
            payload = blob + bytes([i])
            assert ring.try_write(payload) is True
            assert ring.read() == payload
        ring.close()

    def test_oversized_frame_is_refused_not_truncated(self):
        ring = ShmRing(capacity=64)
        assert ring.try_write(b"y" * 64) is False
        # The refusal left the ring untouched and usable.
        assert ring.try_write(b"ok") is True
        assert ring.read() == b"ok"
        ring.close()

    def test_read_without_announced_frame_is_protocol_error(self):
        ring = ShmRing(capacity=64)
        with pytest.raises(ProtocolError):
            ring.read()
        ring.close()

    def test_corrupted_payload_fails_its_crc(self):
        ring = ShmRing(capacity=256)
        ring.try_write(b"precious bytes")
        ring._mm[ring.HEADER + 8] ^= 0xFF  # flip one payload byte
        with pytest.raises(ProtocolError, match="CRC"):
            ring.read()
        ring.close()

    def test_tiny_capacity_rejected(self):
        with pytest.raises(ValueError):
            ShmRing(capacity=4)


def make_channel_pair(ring_capacity=None):
    """Two in-process Channel endpoints wired back to back."""
    a2b_r, a2b_w = os.pipe()
    b2a_r, b2a_w = os.pipe()
    if ring_capacity is None:
        ring_ab = ring_ba = None
    else:
        ring_ab, ring_ba = ShmRing(ring_capacity), ShmRing(ring_capacity)
    side_a = Channel(recv_fd=b2a_r, send_fd=a2b_w,
                     recv_ring=ring_ba, send_ring=ring_ab)
    side_b = Channel(recv_fd=a2b_r, send_fd=b2a_w,
                     recv_ring=ring_ab, send_ring=ring_ba)
    return side_a, side_b


class TestChannel:
    def test_ring_channel_round_trips_objects(self):
        a, b = make_channel_pair(ring_capacity=4096)
        try:
            a.send(("job", b"bytes", {"k": 1}))
            assert b.recv() == ("job", b"bytes", {"k": 1})
            b.send("reply")
            assert a.recv() == "reply"
        finally:
            a.close()
            b.close()

    def test_transport_property_reports_ring_or_pipe(self):
        a, b = make_channel_pair(ring_capacity=4096)
        c, d = make_channel_pair(ring_capacity=None)
        try:
            assert a.transport == b.transport == "ring"
            assert c.transport == d.transport == "pipe"
        finally:
            for chan in (a, b, c, d):
                chan.close()

    def test_pipe_only_channel_round_trips(self):
        a, b = make_channel_pair(ring_capacity=None)
        try:
            a.send({"over": "the pipe"})
            assert b.recv() == {"over": "the pipe"}
        finally:
            a.close()
            b.close()

    def test_frame_bigger_than_ring_falls_back_to_pipe(self):
        a, b = make_channel_pair(ring_capacity=128)
        try:
            big = b"z" * 4096  # cannot fit the 128-byte ring
            a.send(big)
            assert b.recv() == big
            # The ring is still healthy for frames that do fit.
            a.send(b"small")
            assert b.recv() == b"small"
        finally:
            a.close()
            b.close()

    def test_torn_frame_is_never_observable(self):
        """A writer that dies mid-frame publishes nothing: the ring tail
        never moved, so the reader sees pipe EOF, not partial bytes."""
        a, b = make_channel_pair(ring_capacity=4096)
        try:
            # Simulate dying mid-write: payload bytes land in the ring
            # but the tail is never advanced and no token is sent.
            a.send_ring._put(ShmRing.HEADER, b"half a fra")
            os.close(a.send_fd)
            a.send_fd = -1
            with pytest.raises(PipeClosed):
                b.recv()
        finally:
            a.close()
            b.close()

    def test_unknown_token_is_protocol_error(self):
        a, b = make_channel_pair(ring_capacity=4096)
        try:
            os.write(a.send_fd, b"?")
            with pytest.raises(ProtocolError, match="token"):
                b.recv()
        finally:
            a.close()
            b.close()


@needs_fork
class TestPoolTransport:
    @pytest.fixture
    def make_pool(self):
        pools = []

        def _make(**kwargs):
            kwargs.setdefault("wall_timeout", 5.0)
            pool = ForkWorkerPool(ScriptedExecutor(), **kwargs)
            pools.append(pool)
            return pool

        yield _make
        for pool in pools:
            pool.close()

    def test_auto_resolves_to_ring_here(self, make_pool):
        assert make_pool().transport == "ring"

    def test_forced_pipe_transport_works(self, make_pool, monkeypatch):
        monkeypatch.setattr("repro.isolation.pool.ring_available",
                            lambda: False)
        pool = make_pool()
        assert pool.transport == "pipe"
        tag, payload, _ = pool.submit("raw", b"img", b"data", {})
        assert tag == "ok"
        assert payload == ("echo", b"img", b"data")

    @pytest.mark.parametrize("transport", ["ring", "pipe"])
    def test_batch_replies_in_order_on_both_transports(
            self, make_pool, monkeypatch, transport):
        if transport == "pipe":
            monkeypatch.setattr("repro.isolation.pool.ring_available",
                                lambda: False)
        pool = make_pool()
        assert pool.transport == transport
        jobs = [("raw", b"", b"job %d" % i, {}) for i in range(5)]
        replies = pool.submit_batch(jobs)
        assert [r[0] for r in replies] == ["ok"] * 5
        assert [r[1][2] for r in replies] == [j[2] for j in jobs]

    def test_batch_of_one_and_zero(self, make_pool):
        pool = make_pool()
        assert pool.submit_batch([]) == []
        replies = pool.submit_batch([("raw", b"", b"solo", {})])
        assert replies[0][0] == "ok"

    def test_worker_death_mid_batch_is_typed_never_partial(self, make_pool):
        """The torn-frame guarantee end to end: a worker that dies midway
        through a batch yields WorkerDeath — not a short or corrupt
        reply list."""
        pool = make_pool()
        jobs = [("raw", b"", b"fine", {}), ("raw", b"", b"die", {}),
                ("raw", b"", b"never runs", {})]
        with pytest.raises(WorkerDeath):
            pool.submit_batch(jobs)
        assert pool.live_workers == 0
        # The pool recovers with a fresh worker.
        assert pool.submit("raw", b"", b"again", {})[0] == "ok"

    def test_externally_killed_worker_mid_batch(self, make_pool):
        pool = make_pool()
        pool.submit("raw", b"", b"warm up", {})
        os.kill(pool._workers[0].pid, signal.SIGKILL)
        with pytest.raises(WorkerDeath):
            pool.submit_batch([("raw", b"", b"a", {}),
                               ("raw", b"", b"b", {})])


@needs_fork
class TestBackendBatching:
    @pytest.fixture
    def make_backend(self):
        backends = []

        def _make(**kwargs):
            kwargs.setdefault("wall_timeout", 5.0)
            backend = ForkServerBackend(ScriptedExecutor(), **kwargs)
            backends.append(backend)
            return backend

        yield _make
        for backend in backends:
            backend.close()

    def test_planned_jobs_ship_as_one_dispatch(self, make_backend):
        backend = make_backend(batch_execs=4)
        jobs = [("raw", b"", b"job %d" % i, {}) for i in range(4)]
        backend.plan(jobs)
        for kind, image, data, kwargs in jobs:
            result = backend.run_raw_image(image, data)
            assert result == ("echo", image, data)
        # One batch dispatch covered all four planned jobs.
        assert backend.pool._workers[0].execs == 4
        assert backend.pool.spawned == 1

    def test_unplanned_job_passes_through_keeping_speculation(
            self, make_backend):
        backend = make_backend(batch_execs=4)
        jobs = [("raw", b"", b"child %d" % i, {}) for i in range(3)]
        backend.plan(jobs)
        assert backend.run_raw_image(b"", b"child 0")[1] == b""
        # An interleaved re-execution (not in the plan) must not drop
        # the parked replies for children 1 and 2.
        assert backend.run_raw_image(b"", b"reexec")[2] == b"reexec"
        assert backend.run_raw_image(b"", b"child 1")[2] == b"child 1"
        assert backend.run_raw_image(b"", b"child 2")[2] == b"child 2"

    def test_discard_plan_drops_speculation(self, make_backend):
        backend = make_backend(batch_execs=4)
        backend.plan([("raw", b"", b"a", {}), ("raw", b"", b"b", {})])
        backend.run_raw_image(b"", b"a")
        backend.discard_plan()
        assert not backend._pending and not backend._plan

    def test_worker_death_in_batch_maps_to_worker_crash_error(
            self, make_backend):
        backend = make_backend(batch_execs=4)
        backend.plan([("raw", b"", b"die", {}), ("raw", b"", b"next", {})])
        with pytest.raises(WorkerCrashError):
            backend.run_raw_image(b"", b"die")
        # Taxonomy intact: the next run gets a fresh worker and succeeds.
        assert backend.run_raw_image(b"", b"next")[2] == b"next"

    def test_batch_execs_one_disables_batching(self, make_backend):
        backend = make_backend(batch_execs=1)
        jobs = [("raw", b"", b"j%d" % i, {}) for i in range(3)]
        backend.plan(jobs)
        for _, image, data, _ in jobs:
            backend.run_raw_image(image, data)
        assert backend.pool._workers[0].execs == 3  # three single dispatches
        assert not backend._pending
