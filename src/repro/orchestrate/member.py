"""One fleet member: a full campaign engine driven in epoch slices.

A member is an ordinary :class:`~repro.fuzz.engine.FuzzEngine` (or
:class:`~repro.core.pmfuzz.PMFuzzEngine`) whose RNG seed is forked
deterministically from the campaign seed by member index — the AFL
``-S`` secondary analogue.  It fuzzes the *whole* virtual budget, cut
into epochs of ``sync_every`` virtual seconds; at each boundary it
checkpoints, publishes to the shared corpus, and imports from peers
(see :mod:`repro.orchestrate.sync`).

Because the checkpoint lands at every epoch boundary and covers the
sync progress too, the member is kill-safe at any instant: the
supervisor restarts it with ``resume=True`` and it replays the
interrupted epoch bit-for-bit — same mutations, same publications
(idempotent), same imports — before advancing.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import time
import traceback

from repro._util import atomic_write_bytes, pack_checksummed, \
    unpack_checksummed
from repro.core.config import config_by_name
from repro.core.storage import CorpusScrubber
from repro.fuzz.engine import FuzzEngine
from repro.fuzz.rng import DeterministicRandom
from repro.orchestrate.heartbeat import HeartbeatWriter
from repro.orchestrate.signals import GracefulStop
from repro.orchestrate.sync import CorpusSyncer, FleetPaths

#: Container magic for a member's published final-stats file.
MEMBER_STATS_MAGIC = b"PMFZSTAT1\n"

#: Exit status of the fail_plan chaos hook (tests the circuit breaker).
CHAOS_EXIT_STATUS = 3


def member_seed_rng(seed: int, workload: str, config_name: str,
                    index: int) -> DeterministicRandom:
    """Each member's RNG: one deterministic fork per member index."""
    return DeterministicRandom(seed).fork(
        f"{workload}/{config_name}/member{index}")


def write_member_stats(path: str, stats) -> None:
    """Atomically publish a member's final FuzzStats (checksummed)."""
    blob = pickle.dumps(stats, protocol=4)
    atomic_write_bytes(path, pack_checksummed(MEMBER_STATS_MAGIC, blob))


def read_member_stats(path: str):
    """Load a member's published stats; None if absent or damaged."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return pickle.loads(
            unpack_checksummed(MEMBER_STATS_MAGIC, data, what=path))
    except (OSError, ValueError, pickle.UnpicklingError, EOFError):
        return None


def _claim_once(member_dir: str, name: str) -> bool:
    """Create the marker *name* in *member_dir*; False if it exists."""
    marker = os.path.join(member_dir, name)
    if os.path.exists(marker):
        return False
    atomic_write_bytes(marker, b"", fsync=False)
    return True


def _build_member_engine(spec, index: int, resume: bool,
                         ckpt: str) -> FuzzEngine:
    if resume and os.path.exists(ckpt):
        return FuzzEngine.resume(ckpt)
    from repro.core.pmfuzz import build_engine

    config = config_by_name(spec.config_name)
    rng = member_seed_rng(spec.seed, spec.workload, spec.config_name, index)
    kwargs = dict(spec.engine_kwargs)
    kwargs["checkpoint_path"] = ckpt
    return build_engine(spec.workload, config, rng=rng,
                        bugs=frozenset(spec.bugs),
                        fault_plan=spec.fault_plan, **kwargs)


def member_main(spec, index: int, resume: bool) -> int:
    """Run one member to completion; returns the process exit status.

    Called in the forked child by the supervisor (and directly by
    tests).  Never raises: an unexpected error is printed and turned
    into a nonzero status for the supervisor's circuit breaker.
    """
    try:
        return _member_main(spec, index, resume)
    except Exception:
        traceback.print_exc()
        return 1


def _member_main(spec, index: int, resume: bool) -> int:
    paths = FleetPaths(spec.fleet_dir)
    member_dir = paths.member_dir(index)
    os.makedirs(member_dir, exist_ok=True)
    ckpt = paths.checkpoint(index)
    heartbeat = HeartbeatWriter(paths.heartbeat(index),
                                lease_s=spec.heartbeat_lease)
    heartbeat.beat(0)

    # Every resume re-scrubs the shared corpus before trusting it: the
    # member may be restarting precisely because the machine (or a
    # peer) died mid-write.  Claim-by-rename makes concurrent scrubs
    # from several members safe.
    scrub_quarantined = 0
    if resume:
        report = CorpusScrubber(paths.corpus, paths.quarantine).scrub()
        scrub_quarantined = report.quarantined

    engine = _build_member_engine(spec, index, resume, ckpt)
    engine.stats.member_index = index
    engine.stats.fleet_size = spec.fleet
    engine.stats.corpus_quarantined += scrub_quarantined

    stop = GracefulStop(engine.request_stop, label=f"member {index}")
    stop.install()

    syncer = CorpusSyncer(
        index, spec.fleet, paths,
        barrier_timeout=spec.barrier_timeout,
        poll_interval=spec.poll_interval,
        heartbeat=heartbeat,
    ).attach(engine)
    engine.round_hook = lambda eng: heartbeat.maybe_beat(syncer.next_epoch)

    # Chaos hook (tests only): a wedge-planned member stops making
    # progress once — heartbeat lease expires, supervisor SIGKILLs it,
    # and the restart (marker present) proceeds normally.
    if index in (spec.wedge_plan or ()) and _claim_once(member_dir,
                                                        "wedged.once"):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        while True:
            time.sleep(3600.0)

    budget = float(spec.budget)
    sync_every = min(float(spec.sync_every), budget) or budget
    epochs = max(1, int(math.ceil(budget / sync_every)))

    try:
        for epoch in range(syncer.next_epoch, epochs):
            heartbeat.beat(epoch)
            until = min(budget, (epoch + 1) * sync_every)
            engine.run_slice(until)
            if engine.stop_requested:
                break
            # Chaos hook (tests only): die *between* the fuzzing slice
            # and the epoch's publish, the widest recovery window.  It
            # fires on every (re)start, so the supervisor's circuit
            # breaker is what ends the loop — by retiring the member.
            if index in (spec.fail_plan or ()):
                sys.stderr.flush()
                return CHAOS_EXIT_STATUS
            # Chaos hook (tests only): a kill-planned member holds once,
            # after publishing its planned epoch and before checkpointing
            # it, until the supervisor's SIGKILL lands.  Without the hold
            # the kill races the member's own exit when the planned epoch
            # is the last one.  The once-marker is claimed before the
            # epoch marker exists, so a restart never holds again.
            hold = ((spec.kill_plan or {}).get(index) == epoch
                    and _claim_once(member_dir, "killed.once"))
            syncer.end_epoch(epoch, final=(epoch == epochs - 1))
            while hold and not engine.stop_requested:
                time.sleep(spec.poll_interval)
            engine.checkpoint()
        stats = engine.finish()
    finally:
        stop.uninstall()
    write_member_stats(paths.stats_file(index), stats)
    heartbeat.beat(epochs)
    return 0
