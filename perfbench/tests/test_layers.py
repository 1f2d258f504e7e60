"""Wrapping the real program's layers is reversible and faithful."""

import importlib

import pytest

from layers import (PER_LAYER, SELF_METRICS, STORE_CODEC, TARGETS, install,
                    layer_metrics, self_metric)
from tracer import Tracer


def originals():
    found = {}
    for target in TARGETS:
        module = importlib.import_module(target.module)
        if "." in target.attr:
            cls_name, meth = target.attr.split(".")
            owner = getattr(module, cls_name)
            found[target.attr] = vars(owner)[meth]
        else:
            found[target.attr] = getattr(module, target.attr)
    found["zlib"] = importlib.import_module("repro.core.dedup").zlib
    return found


def test_install_wraps_every_target_and_unpatch_restores_it():
    before = originals()
    tracer = Tracer()
    install(tracer)
    during = originals()
    assert all(during[key] is not before[key] for key in before)
    tracer.unpatch()
    after = originals()
    assert all(after[key] is before[key] for key in before)


def test_traced_campaign_matches_untraced_and_reconciles():
    from repro.core.config import config_by_name
    from repro.core.pmfuzz import build_engine
    from workloads import canonical

    def campaign():
        engine = build_engine("hashmap_tx", config_by_name("pmfuzz"))
        return canonical(engine.run(0.2).comparable())

    plain = campaign()
    tracer = Tracer()
    install(tracer)
    try:
        job = tracer.enter("job")
        traced = campaign()
        tracer.exit(job)
    finally:
        tracer.unpatch()
    tracer.check_balanced()
    assert traced == plain
    wall = tracer.ledger[("", "job")][1]
    total_self = sum(rec[2] for rec in tracer.ledger.values())
    assert total_self == pytest.approx(wall, rel=1e-9)
    layers = {name for _, name in tracer.ledger}
    assert {"engine", "executor", "workloads", "pmem", "pmdk.rw",
            "dedup.put", "crashgen"} <= layers

    program = dict.fromkeys(
        ("warm_hits", "warm_misses", "warm_bypasses", "crash_images_new",
         "store_raw_bytes", "store_stored_bytes", "storage_decompressions",
         "retries"), 0)
    metrics = layer_metrics(tracer, program)
    assert set(metrics) == {name for name, _, _ in PER_LAYER} - \
        {"trace.overhead_s"}
    # The self-time metrics partition the traced wall.
    owned = set(SELF_METRICS.values()) | set(STORE_CODEC.values())
    assert sum(metrics[name] for name in owned) == \
        pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["trace.residual_share"] < 1e-9
    assert metrics["pmem.ops"] > 0 and metrics["executor.calls"] > 0


def test_every_traced_layer_owns_a_metric():
    names = {name for name, _, _ in PER_LAYER}
    for target in TARGETS:
        if target.layer.startswith("image."):
            assert self_metric("dedup.put", target.layer) in names
            assert self_metric("pmdk.open", target.layer) == "pmdk.open_s"
        else:
            assert self_metric("job", target.layer) in names


def test_dispatch_counts_one_round_trip_per_worker_frame():
    from layers import _submit, _submit_batch

    tracer = Tracer()
    job = ("run", b"image", b"data", {})
    submit = tracer.wrap("isolation.dispatch", lambda pool, *job: "reply",
                         after=_submit)

    def batch(pool, jobs):
        # ForkWorkerPool.submit_batch hands a single job to submit().
        if len(jobs) == 1:
            return [submit(pool, *jobs[0])]
        return ["reply"] * len(jobs)

    submit_batch = tracer.wrap("isolation.dispatch", batch,
                               after=_submit_batch)
    submit(None, *job)
    submit_batch(None, [job])
    submit_batch(None, [job] * 8)
    assert tracer.counters == {"isolation.jobs": 10,
                               "isolation.dispatches": 3}
