"""The program's layers as the traced run sees them.

Three tables live here, each used by code and by the tests:

* :data:`TARGETS` — which public function of which module belongs to
  which layer, and how it is wrapped;
* :data:`PER_LAYER` — every per-layer metric with its unit and its
  better direction (``BENCHMARK.json`` lists the same names);
* :data:`LAYER_MAP` — for each layer, the end-to-end metrics a change
  to it should move and the workloads it mostly runs on.

:func:`install` applies :data:`TARGETS` to a :class:`~tracer.Tracer`,
and :func:`layer_metrics` turns the tracer's ledger plus the program's
own counters into the :data:`PER_LAYER` values.
"""

from __future__ import annotations

import importlib
import os
import zlib
from typing import Callable, Dict, List, NamedTuple, Optional

from tracer import Tracer, by_layer, percentile_ms

#: Wrapper kinds: a frame whose span is kept, a frame that only feeds
#: the ledger (hot boundaries), or a leaf call with no frame at all.
SPAN, FINE, LEAF = "span", "fine", "leaf"


# ----------------------------------------------------------------------
# Counting hooks (run inside the frame, after the call returned)
# ----------------------------------------------------------------------
def _crash_images(tracer, args, kwargs, result) -> None:
    tracer.count("crashgen.images", len(result))


def _dups(tracer, args, kwargs, result) -> None:
    if not result[1]:
        tracer.count("dedup.dups")


def _checkpoint_bytes(tracer, args, kwargs, result) -> None:
    path = args[0] if args else kwargs["path"]
    tracer.count("checkpoint.bytes", os.path.getsize(path))


def _submit(tracer, args, kwargs, result) -> None:
    tracer.count("isolation.jobs")
    tracer.count("isolation.dispatches")


def _submit_batch(tracer, args, kwargs, result) -> None:
    # A batch of one job is handed to submit(), which counts it.
    jobs = args[1] if len(args) > 1 else kwargs["jobs"]
    if len(jobs) > 1:
        tracer.count("isolation.jobs", len(jobs))
        tracer.count("isolation.dispatches")


class Target(NamedTuple):
    layer: str
    module: str
    attr: str  #: "Class.method" or a module-level function name
    kind: str = SPAN
    durations: bool = False
    after: Optional[Callable] = None  #: counting hook, see above


TARGETS: List[Target] = [
    # PM simulator: persistence-domain data path (both exec cores).
    *(Target("pmem", "repro.pmem.persistence", f"PersistenceDomain.{m}",
             LEAF) for m in ("load", "store", "flush", "drain")),
    *(Target("pmem", "repro.pmem.vector", f"VectorPersistenceDomain.{m}",
             LEAF) for m in ("store", "flush", "drain")),
    # PMDK model.
    Target("pmdk.open", "repro.pmdk.pool", "PmemObjPool.open", FINE),
    Target("pmdk.close", "repro.pmdk.pool", "PmemObjPool.close", FINE),
    Target("pmdk.close", "repro.pmdk.pool", "PmemObjPool.crash_image", FINE),
    Target("pmdk.rw", "repro.pmdk.pool", "PmemObjPool.read", FINE),
    Target("pmdk.rw", "repro.pmdk.pool", "PmemObjPool.write", FINE),
    # Target programs and their command parser.
    Target("workloads", "repro.workloads.base", "Workload.run", FINE),
    Target("mapcli.parse", "repro.workloads.mapcli", "parse_commands", FINE),
    # Fuzzer.
    Target("executor", "repro.fuzz.executor", "Executor.run", SPAN, True),
    Target("executor", "repro.fuzz.executor", "Executor.run_raw_image",
           SPAN, True),
    *(Target("mutators", "repro.fuzz.mutators", f"MutationEngine.{m}", FINE)
      for m in ("deterministic", "havoc", "splice")),
    *(Target("queue", "repro.fuzz.queue", f"FuzzQueue.{m}", FINE)
      for m in ("add", "select", "cull")),
    *(Target("coverage", "repro.fuzz.coverage", f"{cls}.{m}", FINE)
      for cls in ("GlobalCoverage", "VectorGlobalCoverage")
      for m in ("classify", "update")),
    Target("engine", "repro.fuzz.engine", "FuzzEngine.setup"),
    Target("engine", "repro.fuzz.engine", "FuzzEngine.run"),
    # Crash-image harvest and the image store.
    Target("crashgen", "repro.core.crashgen", "CrashImageGenerator.generate",
           after=_crash_images),
    Target("dedup.put", "repro.core.dedup", "ImageStore.put", after=_dups),
    Target("dedup.get", "repro.core.dedup", "ImageStore.get"),
    Target("image.hash", "repro.pmem.image", "PMImage.content_hash", FINE),
    Target("image.serialize", "repro.pmem.image", "PMImage.to_bytes", FINE),
    Target("image.deserialize", "repro.pmem.image", "PMImage.from_bytes",
           FINE),
    Target("storage.load", "repro.core.storage", "TestCaseStorage.load"),
    # Resilience.
    *(Target("supervisor", "repro.resilience.supervisor",
             f"SupervisedExecutor.{m}")
      for m in ("run", "run_raw_image", "load_image", "save_image")),
    Target("checkpoint", "repro.resilience.checkpoint",
           "write_engine_checkpoint", after=_checkpoint_bytes),
    # Fork isolation, parent side.
    *(Target("isolation", "repro.isolation.backend", f"ForkServerBackend.{m}")
      for m in ("run", "run_raw_image", "plan")),
    Target("isolation.dispatch", "repro.isolation.pool",
           "ForkWorkerPool.submit", after=_submit),
    Target("isolation.dispatch", "repro.isolation.pool",
           "ForkWorkerPool.submit_batch", after=_submit_batch),
    # Detection back-ends and the Table-3 verdict.
    Target("detect", "repro.detect.report", "TestingTool.test"),
    Target("pmemcheck", "repro.detect.pmemcheck", "Pmemcheck.analyze"),
    Target("xfdetector", "repro.detect.xfdetector", "XFDetector.check_image"),
    Target("verdict", "repro.core.pipeline", "evaluate_synthetic_bugs"),
]

#: zlib calls made by the image store, wrapped through a module proxy
#: so that zlib use elsewhere (checkpoints, worker frames) is untouched.
ZLIB_LAYERS = {"compress": "dedup.compress", "decompress": "dedup.decompress"}


class _ZlibProxy:
    """Stands in for the ``zlib`` module inside ``repro.core.dedup``."""

    def __init__(self, tracer: Tracer) -> None:
        for fn, layer in ZLIB_LAYERS.items():
            setattr(self, fn, tracer.wrap(layer, getattr(zlib, fn),
                                          keep_span=False))

    def __getattr__(self, name):
        return getattr(zlib, name)


def install(tracer: Tracer) -> None:
    """Wrap every :data:`TARGETS` entry (and the store's zlib calls)."""
    for target in TARGETS:
        module = importlib.import_module(target.module)

        def make(fn, target=target):
            if target.kind == LEAF:
                return tracer.wrap_leaf(fn)
            return tracer.wrap(target.layer, fn,
                               keep_span=target.kind == SPAN,
                               keep_durations=target.durations,
                               after=target.after)

        if "." not in target.attr:
            tracer.patch_function(target.module, target.attr, make)
            continue
        cls_name, meth = target.attr.split(".")
        owner = getattr(module, cls_name)
        original = vars(owner)[meth]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        tracer.patch(owner, meth, replacement)
    dedup = importlib.import_module("repro.core.dedup")
    tracer.patch(dedup, "zlib", _ZlibProxy(tracer))


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("pmem.ops", "count", "lower"),
    ("pmem.self_s", "s", "lower"),
    ("pmdk.open_calls", "count", "lower"),
    ("pmdk.open_s", "s", "lower"),
    ("pmdk.close_s", "s", "lower"),
    ("pmdk.rw_calls", "count", "lower"),
    ("pmdk.rw_s", "s", "lower"),
    ("workloads.self_s", "s", "lower"),
    ("mapcli.parse_s", "s", "lower"),
    ("executor.calls", "count", "lower"),
    ("executor.self_s", "s", "lower"),
    ("executor.p50_ms", "ms", "lower"),
    ("executor.p99_ms", "ms", "lower"),
    ("warmcache.hit_ratio", "ratio", "higher"),
    ("warmcache.bypasses", "count", "lower"),
    ("crashgen.calls", "count", "lower"),
    ("crashgen.self_s", "s", "lower"),
    ("crashgen.images", "count", "higher"),
    ("crashgen.new_ratio", "ratio", "higher"),
    ("dedup.put_calls", "count", "lower"),
    ("dedup.dup_ratio", "ratio", "lower"),
    ("dedup.hash_s", "s", "lower"),
    ("dedup.serialize_s", "s", "lower"),
    ("dedup.compress_s", "s", "lower"),
    ("dedup.get_calls", "count", "lower"),
    ("dedup.decompress_s", "s", "lower"),
    ("dedup.deserialize_s", "s", "lower"),
    ("dedup.store_s", "s", "lower"),
    ("dedup.compression_ratio", "ratio", "higher"),
    ("storage.staging_hit_ratio", "ratio", "higher"),
    ("mutators.self_s", "s", "lower"),
    ("queue.self_s", "s", "lower"),
    ("coverage.calls", "count", "lower"),
    ("coverage.self_s", "s", "lower"),
    ("supervisor.self_s", "s", "lower"),
    ("supervisor.retries", "count", "lower"),
    ("isolation.dispatches", "count", "lower"),
    ("isolation.jobs_per_dispatch", "count", "higher"),
    ("isolation.wait_s", "s", "lower"),
    ("isolation.encode_s", "s", "lower"),
    ("isolation.worker_forks", "count", "lower"),
    ("checkpoint.calls", "count", "lower"),
    ("checkpoint.self_s", "s", "lower"),
    ("checkpoint.bytes", "B", "lower"),
    ("detect.calls", "count", "lower"),
    ("detect.self_s", "s", "lower"),
    ("pmemcheck.self_s", "s", "lower"),
    ("xfdetector.calls", "count", "lower"),
    ("xfdetector.self_s", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    ("verdict.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.residual_share", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

#: Layer -> end-to-end metrics it should move, and the workloads whose
#: traced wall it mostly shows in (corrected by the measured shares in
#: README.md).  On aflpp-memcached-fork the executions run in the fork
#: worker, so their layers show only inside isolation.wait_s there.
LAYER_MAP: Dict[str, dict] = {
    "pmem": {"moves": ["execs_per_s", "wall_s"],
             "mostly_on": ["pmfuzz-btree", "table3-hashmap_atomic"]},
    "pmdk": {"moves": ["execs_per_s", "wall_s"],
             "mostly_on": ["pmfuzz-btree", "table3-hashmap_atomic"]},
    "workloads": {"moves": ["execs_per_s"],
                  "mostly_on": ["pmfuzz-btree", "table3-hashmap_atomic"]},
    "mapcli": {"moves": ["execs_per_s"],
               "mostly_on": ["pmfuzz-btree", "table3-hashmap_atomic"]},
    "executor": {"moves": ["execs_per_s"],
                 "mostly_on": ["pmfuzz-btree", "table3-hashmap_atomic"]},
    "warmcache": {"moves": ["execs_per_s"], "mostly_on": ["pmfuzz-btree"]},
    "crashgen": {"moves": ["wall_s"], "mostly_on": ["pmfuzz-btree"]},
    "dedup": {"moves": ["wall_s", "stored_mb", "peak_rss_mb"],
              "mostly_on": ["pmfuzz-btree", "table3-hashmap_atomic"]},
    "storage": {"moves": ["wall_s", "peak_rss_mb"],
                "mostly_on": ["pmfuzz-btree", "table3-hashmap_atomic"]},
    "mutators": {"moves": ["execs_per_s"], "mostly_on": ["all"]},
    "queue": {"moves": ["execs_per_s"], "mostly_on": ["all"]},
    "coverage": {"moves": ["execs_per_s"], "mostly_on": ["all"]},
    "supervisor": {"moves": ["execs_per_s"], "mostly_on": ["all"]},
    "isolation": {"moves": ["execs_per_s", "setup_s"],
                  "mostly_on": ["aflpp-memcached-fork"]},
    "checkpoint": {"moves": ["wall_s"], "mostly_on": ["aflpp-memcached-fork"]},
    "detect": {"moves": ["wall_s"], "mostly_on": ["table3-hashmap_atomic"]},
    "pmemcheck": {"moves": ["wall_s"], "mostly_on": ["table3-hashmap_atomic"]},
    "xfdetector": {"moves": ["wall_s"],
                   "mostly_on": ["table3-hashmap_atomic"]},
    "engine": {"moves": ["execs_per_s"], "mostly_on": ["all"]},
    "verdict": {"moves": ["wall_s"], "mostly_on": ["table3-hashmap_atomic"]},
    "trace": {"moves": [], "mostly_on": ["all"]},
}


#: Ledger layer -> the per-layer metric its self time counts toward.
#: Every traced instant lands in exactly one of these metrics, so they
#: add up to ``trace.wall_s`` (checked as ``trace.residual_share``).
SELF_METRICS = {
    "pmem": "pmem.self_s",
    "pmdk.open": "pmdk.open_s",
    "pmdk.close": "pmdk.close_s",
    "pmdk.rw": "pmdk.rw_s",
    "workloads": "workloads.self_s",
    "mapcli.parse": "mapcli.parse_s",
    "executor": "executor.self_s",
    "crashgen": "crashgen.self_s",
    "dedup.put": "dedup.store_s",
    "dedup.get": "dedup.store_s",
    "storage.load": "dedup.store_s",
    "dedup.compress": "dedup.compress_s",
    "dedup.decompress": "dedup.decompress_s",
    "mutators": "mutators.self_s",
    "queue": "queue.self_s",
    "coverage": "coverage.self_s",
    "supervisor": "supervisor.self_s",
    "isolation": "isolation.encode_s",
    "isolation.dispatch": "isolation.wait_s",
    "checkpoint": "checkpoint.self_s",
    "detect": "detect.self_s",
    "pmemcheck": "pmemcheck.self_s",
    "xfdetector": "xfdetector.self_s",
    "engine": "engine.self_s",
    "verdict": "verdict.self_s",
    "job": "trace.unattributed_s",
}

#: PMImage codec calls made by the image store have metrics of their
#: own; made anywhere else (a cold pool open validates the image by a
#: serialize/deserialize round trip) they count toward the caller.
STORE_CODEC = {
    ("dedup.put", "image.hash"): "dedup.hash_s",
    ("dedup.put", "image.serialize"): "dedup.serialize_s",
    ("dedup.get", "image.deserialize"): "dedup.deserialize_s",
}


def self_metric(parent: str, name: str) -> str:
    """The metric that owns the self time of ``name`` called by ``parent``."""
    if name.startswith("image."):
        return STORE_CODEC.get((parent, name)) or SELF_METRICS[parent]
    return SELF_METRICS[name]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, program: Dict[str, float]) -> Dict[str, float]:
    """Compute every :data:`PER_LAYER` value but ``trace.overhead_s``.

    ``program`` carries the program's own end-of-run counters (warm
    cache hits, store byte counts, ...) summed over the job's campaigns.
    """
    ledger = tracer.ledger
    layers = by_layer(ledger)
    counters = tracer.counters
    out: Dict[str, float] = dict.fromkeys(set(SELF_METRICS.values())
                                          | set(STORE_CODEC.values()), 0.0)
    for (parent, name), rec in ledger.items():
        out[self_metric(parent, name)] += rec[2]
    attributed = sum(out.values())

    def calls(name: str) -> float:
        return layers.get(name, {}).get("calls", 0)

    wall = sum(rec[1] for (parent, _), rec in ledger.items() if parent == "")
    executor = tracer.durations.get("executor", [])
    crash_images = counters.get("crashgen.images", 0)
    lookups = program["warm_hits"] + program["warm_misses"]
    puts = calls("dedup.put")
    loads = calls("storage.load")
    dispatches = counters.get("isolation.dispatches", 0)
    out.update({
        "pmem.ops": calls("pmem"),
        "pmdk.open_calls": calls("pmdk.open"),
        "pmdk.rw_calls": calls("pmdk.rw"),
        "executor.calls": calls("executor"),
        "executor.p50_ms": percentile_ms(executor, 50),
        "executor.p99_ms": percentile_ms(executor, 99),
        "warmcache.hit_ratio": _ratio(program["warm_hits"], lookups),
        "warmcache.bypasses": program["warm_bypasses"],
        "crashgen.calls": calls("crashgen"),
        "crashgen.images": crash_images,
        "crashgen.new_ratio": _ratio(program["crash_images_new"],
                                     crash_images),
        "dedup.put_calls": puts,
        "dedup.dup_ratio": _ratio(counters.get("dedup.dups", 0), puts),
        "dedup.get_calls": calls("dedup.get"),
        "dedup.compression_ratio": _ratio(program["store_raw_bytes"],
                                          program["store_stored_bytes"]),
        "storage.staging_hit_ratio":
            _ratio(loads - program["storage_decompressions"], loads),
        "coverage.calls": calls("coverage"),
        "supervisor.retries": program["retries"],
        "isolation.dispatches": dispatches,
        "isolation.jobs_per_dispatch":
            _ratio(counters.get("isolation.jobs", 0), dispatches),
        "isolation.worker_forks": counters.get("isolation.worker_forks", 0),
        "checkpoint.calls": calls("checkpoint"),
        "checkpoint.bytes": counters.get("checkpoint.bytes", 0),
        "detect.calls": calls("detect"),
        "xfdetector.calls": calls("xfdetector"),
        "trace.wall_s": wall,
        "trace.residual_share": _ratio(abs(attributed - wall), wall),
    })
    return out
