"""``python -m repro bench`` — the repo's deterministic perf suite.

Benchmarks, micro to macro:

``pmem_ops``
    Persistence-domain operation throughput (mixed-size store/flush/
    fence mix, no observers): the vectorized core and the scalar
    reference against a frozen *legacy-behavior* domain that still
    constructs a TraceEvent per op and scans the full line map per
    fence.  This is the hot-path number: every execution in a campaign
    is made of these operations.

``ranges``
    ``inconsistent_ranges`` throughput: vectorized (numpy flatnonzero)
    and chunked-slice scalar against the byte-at-a-time reference.

``executor``
    Whole-execution throughput (execs/s): parse + open + run + close on
    the btree workload, plus fork-server dispatch throughput single vs.
    batched (the shared-memory ring transport amortized over
    ``batch_execs`` jobs per round-trip).

``crashgen``
    The macro win this suite exists to defend: crash images per second
    in single-pass snapshot mode vs. legacy per-point re-execution on
    the same test case.  Measured on a crashgen-heavy shape (8 sampled
    ordering points over a ~27-command input) because the win is O(K)
    in harvested images per test case.

``campaign``
    End-to-end wall time of a fixed-virtual-budget PMFuzz campaign —
    the number an operator actually feels.

Each benchmark runs ``repeats`` times and reports the **median**, which
is what lands in ``BENCH_<name>.json``; the workload inside every
repeat is fixed and seeded, so run-to-run variance comes only from the
host.  ``--quick`` shrinks the iteration counts for CI smoke use.
When a committed baseline directory is given (default
``benchmarks/baseline``), the runner prints a delta column against it —
only where the baseline ran under the same provenance (python minor
version, coverage backend, exec core, numpy present or absent); a
mismatch prints its reason once and leaves the deltas ``None``.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Callable, Dict, List, Optional

from repro.execcore import HAVE_NUMPY, active_core
from repro.pmem.persistence import (CACHE_LINE, LineState, PersistenceDomain,
                                    TraceEvent, TraceEventKind)

#: Benchmark registry: name -> callable(quick) -> {metric: value}.
BENCHMARKS: Dict[str, Callable[[bool], Dict[str, float]]] = {}

#: Repeats per benchmark (median reported).
DEFAULT_REPEATS = 5
QUICK_REPEATS = 3


def _bench(name: str):
    def register(fn: Callable[[bool], Dict[str, float]]):
        BENCHMARKS[name] = fn
        return fn
    return register


# ----------------------------------------------------------------------
# A frozen copy of the pre-optimization domain behavior, kept as the
# measurement baseline: TraceEvent per op even with no observers, line
# iteration through a generator, and a full line-map scan per fence.
# ----------------------------------------------------------------------
class _LegacyDomain(PersistenceDomain):

    def emit(self, kind, addr=0, size=0, site=""):
        event = TraceEvent(kind=kind, addr=addr, size=size, seq=self._seq,
                           site=site)
        self._seq += 1
        for observer in self._observers:
            observer(event)
        return event

    def store(self, addr, data, site=""):
        self._check_range(addr, len(data))
        self._volatile[addr:addr + len(data)] = data
        for line in self._lines_of(addr, len(data)):
            self._lines[line] = LineState.DIRTY
        self._store_count += 1
        self.emit(TraceEventKind.STORE, addr, len(data), site)

    def flush(self, addr, size, site=""):
        self._check_range(addr, size)
        redundant = True
        for line in self._lines_of(addr, size):
            if self._lines.get(line, LineState.CLEAN) is LineState.DIRTY:
                self._lines[line] = LineState.FLUSHED
                redundant = False
        self.emit(TraceEventKind.FLUSH, addr, size, site)
        if redundant:
            self.emit(TraceEventKind.FLUSH_REDUNDANT, addr, size, site)

    def drain(self, site: Optional[str] = None) -> None:
        for line, state in list(self._lines.items()):
            if state is LineState.FLUSHED:
                start = line * CACHE_LINE
                end = min(start + CACHE_LINE, self.size)
                self._media[start:end] = self._volatile[start:end]
                del self._lines[line]
        self._fence_count += 1
        self.emit(TraceEventKind.FENCE, 0, 0, site or "")


#: Mixed store sizes, 32 B to 4 KiB (one line to 64+ lines): campaign
#: workloads persist both field-sized and object-sized ranges, and the
#: multi-line stores are where bulk line-state transitions pay off.
_WORKOUT_SIZES = (32, 256, 1024, 4096)


def _domain_workout(domain: PersistenceDomain, ops: int) -> int:
    """A representative store/flush/fence mix; returns ops performed."""
    size = domain.size
    payloads = [b"\xA5" * n for n in _WORKOUT_SIZES]
    performed = 0
    for i in range(ops):
        payload = payloads[i & 3]
        addr = (i * 4173) % (size - len(payload))
        domain.store(addr, payload)
        domain.flush(addr, len(payload))
        performed += 2
        if i % 8 == 7:
            domain.drain()
            performed += 1
    return performed


def _vector_domain(size: int):
    from repro.pmem.vector import VectorPersistenceDomain

    return VectorPersistenceDomain(size)


@_bench("pmem_ops")
def _bench_pmem_ops(quick: bool) -> Dict[str, float]:
    ops = 2_000 if quick else 20_000
    size = 256 * 1024
    t0 = time.perf_counter()
    performed = _domain_workout(PersistenceDomain(size), ops)
    scalar_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    _domain_workout(_LegacyDomain(size), ops)
    legacy_s = time.perf_counter() - t0
    vector_s = None
    if HAVE_NUMPY:
        t0 = time.perf_counter()
        _domain_workout(_vector_domain(size), ops)
        vector_s = time.perf_counter() - t0
    current_s = vector_s if (vector_s is not None
                             and active_core() == "vector") else scalar_s
    metrics = {
        "ops_per_s": performed / current_s,
        "scalar_ops_per_s": performed / scalar_s,
        "legacy_ops_per_s": performed / legacy_s,
        "speedup": legacy_s / current_s,
    }
    if vector_s is not None:
        metrics["vector_ops_per_s"] = performed / vector_s
        metrics["vector_vs_scalar"] = scalar_s / vector_s
    return metrics


@_bench("ranges")
def _bench_ranges(quick: bool) -> Dict[str, float]:
    size = 64 * 1024 if quick else 256 * 1024
    calls = 20 if quick else 50
    domain = PersistenceDomain(size)
    # A sparse dirty pattern: a few modified cache lines scattered over
    # an otherwise persisted pool, the common between-fences shape.
    for addr in range(0, size, size // 4):
        domain.store(addr, b"\xFF" * 48)
    t0 = time.perf_counter()
    for _ in range(calls):
        chunked = domain.inconsistent_ranges()
    current_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        naive = domain._inconsistent_ranges_naive()
    naive_s = time.perf_counter() - t0
    assert chunked == naive
    metrics = {
        "calls_per_s": calls / current_s,
        "naive_calls_per_s": calls / naive_s,
        "speedup": naive_s / current_s,
    }
    if HAVE_NUMPY:
        vdomain = _vector_domain(size)
        for addr in range(0, size, size // 4):
            vdomain.store(addr, b"\xFF" * 48)
        t0 = time.perf_counter()
        for _ in range(calls):
            vectored = vdomain.inconsistent_ranges()
        vector_s = time.perf_counter() - t0
        assert vectored == chunked
        metrics["vector_calls_per_s"] = calls / vector_s
        metrics["vector_vs_scalar"] = current_s / vector_s
    return metrics


def _make_executor():
    from repro.fuzz.executor import Executor
    from repro.workloads.registry import get_workload

    return Executor(lambda: get_workload("btree"))


def _seed_case(executor):
    """One deterministic (image, data) test case with real PM activity."""
    from repro.workloads.registry import get_workload

    workload = get_workload("btree")
    image = workload.create_image()
    data = b"i 10 1\ni 20 2\ni 30 3\nr 20\ni 40 4\n"
    result = executor.run(image, data)
    return image, data, result


@_bench("executor")
def _bench_executor(quick: bool) -> Dict[str, float]:
    execs = 30 if quick else 150
    executor = _make_executor()
    image, data, _ = _seed_case(executor)
    t0 = time.perf_counter()
    for _ in range(execs):
        executor.run(image, data)
    elapsed = time.perf_counter() - t0
    metrics = {"execs_per_s": execs / elapsed}
    if hasattr(os, "fork"):
        from repro.isolation.pool import ForkWorkerPool

        # Dispatch-cost microbenchmark: an invalid raw image is the
        # cheapest real execution (the direct-image-fuzzing fast path,
        # outcome INVALID_IMAGE), so the worker round-trip dominates and
        # the single-vs-batched ratio measures exactly the per-dispatch
        # overhead that batching over the ring transport amortizes.
        jobs = 240 if quick else 960
        job = ("raw", b"not-an-image", b"g 1\n", {})
        pool = ForkWorkerPool(executor, wall_timeout=60.0,
                              max_execs_per_worker=1_000_000)
        try:
            pool.submit(*job)  # fork + first round-trip outside the clock
            t0 = time.perf_counter()
            for _ in range(jobs):
                pool.submit(*job)
            single_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            for _ in range(jobs // 8):
                pool.submit_batch([job] * 8)
            batch_s = time.perf_counter() - t0
        finally:
            pool.close()
        metrics["fork_dispatch_per_s"] = jobs / single_s
        metrics["fork_batch_dispatch_per_s"] = jobs / batch_s
        metrics["dispatch_speedup"] = single_s / batch_s
    return metrics


@_bench("coverage")
def _bench_coverage(quick: bool) -> Dict[str, float]:
    """The per-exec fast path: coverage backends × warm-open cache.

    Whole-execution throughput on the btree seed case under each
    available coverage backend, cold-open vs. warm-open.  The tracer is
    the single largest per-exec cost (every instrumented line pays it),
    so ``monitoring_vs_settrace`` is the headline tracer ratio and
    ``warm_vs_cold`` the prefix-memoization ratio, both host-independent
    in-sample.
    """
    from repro.fuzz.executor import Executor
    from repro.instrument.covcore import (HAVE_MONITORING, active_backend,
                                          set_backend)
    from repro.workloads.registry import get_workload

    execs = 30 if quick else 150
    current = active_backend()

    def rate(backend: str, warm_open: bool) -> float:
        set_backend(backend)
        executor = Executor(lambda: get_workload("btree"),
                            warm_open=warm_open)
        image, data, _ = _seed_case(executor)
        executor.run(image, data)  # populate the warm cache off-clock
        t0 = time.perf_counter()
        for _ in range(execs):
            executor.run(image, data)
        return execs / (time.perf_counter() - t0)

    try:
        metrics = {
            "settrace_cold_execs_per_s": rate("settrace", False),
            "settrace_warm_execs_per_s": rate("settrace", True),
        }
        metrics["warm_vs_cold"] = (metrics["settrace_warm_execs_per_s"]
                                   / metrics["settrace_cold_execs_per_s"])
        if HAVE_MONITORING:
            metrics["monitoring_cold_execs_per_s"] = rate("monitoring", False)
            metrics["monitoring_warm_execs_per_s"] = rate("monitoring", True)
            metrics["monitoring_vs_settrace"] = (
                metrics["monitoring_cold_execs_per_s"]
                / metrics["settrace_cold_execs_per_s"])
            fast = metrics["monitoring_warm_execs_per_s"]
        else:
            fast = metrics["settrace_warm_execs_per_s"]
        metrics["execs_per_s"] = fast
    finally:
        set_backend(current)
    return metrics


@_bench("crashgen")
def _bench_crashgen(quick: bool) -> Dict[str, float]:
    from repro.core.crashgen import CrashImageGenerator
    from repro.fuzz.rng import DeterministicRandom
    from repro.workloads.registry import get_workload

    rounds = 10 if quick else 40
    executor = _make_executor()
    # A crashgen-heavy test case: ~27 commands / ~73 fences with 8
    # sampled ordering points (~10 images per generate).  The win is
    # O(K) in the number of harvested images — the paper's pipeline
    # harvests dozens per interesting test case — so the macro number
    # is measured on a shape where crash-image generation actually
    # dominates, not on a minimal seed input.
    workload = get_workload("btree")
    image = workload.create_image()
    data = ("".join(f"i {k} {k}\n" for k in range(1, 25))
            + "r 5\nr 12\ng 7\n").encode()
    parent = executor.run(image, data)
    results = {}
    for mode in ("singlepass", "reexec"):
        gen = CrashImageGenerator(executor, DeterministicRandom(7),
                                  max_ordering_points=8, extra_rate=0.25,
                                  mode=mode)
        t0 = time.perf_counter()
        images = 0
        for _ in range(rounds):
            images += len(gen.generate(image, data, parent.fence_count,
                                       parent.store_count))
        results[mode] = (time.perf_counter() - t0, images)
    single_s, images = results["singlepass"]
    reexec_s, reexec_images = results["reexec"]
    assert images == reexec_images
    return {
        "images_per_s": images / single_s,
        "reexec_images_per_s": reexec_images / reexec_s,
        "speedup": reexec_s / single_s,
    }


@_bench("corpusdb")
def _bench_corpusdb(quick: bool) -> Dict[str, float]:
    """Corpus-database throughput: publish, lookup, warm-start scan.

    Synthetic but realistically-shaped entries (a few dozen bytes of
    input, a few KiB of serialized image, sparse coverage lists) —
    the same payload schema the engine client publishes.
    """
    import shutil
    import tempfile

    from repro.corpusdb.db import CorpusDatabase, entry_key

    n = 64 if quick else 256
    root = tempfile.mkdtemp(prefix="bench-corpusdb-")
    try:
        db = CorpusDatabase.open(os.path.join(root, "db"))
        payloads = []
        for i in range(n):
            data = (f"i {i} {i * 7}\ng {i}\n" * 3).encode()
            image = bytes((i + j) % 251 for j in range(4096))
            payloads.append({
                "key": entry_key(data, image),
                "data": data,
                "image_id": f"img{i:04d}",
                "image": image,
                "branch": [(i * 13 + j, 1) for j in range(24)],
                "pm": [(i * 7 + j, 1) for j in range(12)],
            })

        t0 = time.perf_counter()
        for payload in payloads:
            db.publish(payload)
        publish_s = time.perf_counter() - t0

        keys = db.keys()
        t0 = time.perf_counter()
        for key in keys:
            db.get(key)
        lookup_s = time.perf_counter() - t0

        # Warm-start shape: full scan + verify + unpickle of every
        # entry, half of them already compacted to the cold tier.
        db.compact(hot_limit=n // 2)
        t0 = time.perf_counter()
        loaded = sum(1 for key in db.keys() if db.get(key))
        warm_s = time.perf_counter() - t0
        assert loaded == n
        return {
            "entries": float(n),
            "publish_per_s": n / publish_s,
            "lookup_per_s": n / lookup_s,
            "warm_start_per_s": n / warm_s,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


@_bench("campaign")
def _bench_campaign(quick: bool) -> Dict[str, float]:
    from repro.core.pmfuzz import run_campaign

    budget = 1.0 if quick else 4.0

    def one(core: str, run_budget: Optional[float] = None):
        t0 = time.perf_counter()
        stats = run_campaign("btree", "pmfuzz", run_budget or budget,
                             exec_core=core)
        return stats, time.perf_counter() - t0

    # Pin the engine to the suite's active core: the engine resolves
    # exec_core=None to the *default* core, which would silently undo a
    # ``--exec-core scalar`` suite run.
    current = active_core()
    # The process's first campaign pays one-time costs (page cache,
    # allocator arenas) that would be charged to whichever core runs
    # first; a short throwaway run absorbs them.
    one(current, run_budget=0.25)
    stats, wall = one(current)
    metrics = {
        "wall_s": wall,
        "execs": float(stats.executions),
        "execs_per_s": stats.executions / wall,
        "crash_images": float(stats.crash_images_generated),
    }
    if HAVE_NUMPY:
        # Run the other core back-to-back so each sample carries a
        # host-independent scalar-vs-vector campaign ratio: absolute
        # execs/s swing with machine load, the in-sample ratio does not.
        other = "scalar" if current == "vector" else "vector"
        o_stats, o_wall = one(other)
        rates = {current: stats.executions / wall,
                 other: o_stats.executions / o_wall}
        metrics["scalar_execs_per_s"] = rates["scalar"]
        metrics["vector_execs_per_s"] = rates["vector"]
        metrics["vector_vs_scalar"] = rates["vector"] / rates["scalar"]
        from repro.execcore import set_core
        set_core(current)
    return metrics


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def run_benchmark(name: str, quick: bool = False,
                  repeats: Optional[int] = None) -> dict:
    """Run one benchmark ``repeats`` times; return its JSON document."""
    fn = BENCHMARKS[name]
    n = repeats or (QUICK_REPEATS if quick else DEFAULT_REPEATS)
    samples: List[Dict[str, float]] = [fn(quick) for _ in range(n)]
    metrics = {key: statistics.median(s[key] for s in samples)
               for key in samples[0]}
    return {
        "name": name,
        "quick": quick,
        "repeats": n,
        "metrics": metrics,
        "samples": samples,
    }


def load_baseline(baseline_dir: str, name: str) -> Optional[dict]:
    path = os.path.join(baseline_dir, f"BENCH_{name}.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _fmt(value: float) -> str:
    if value >= 1000:
        return f"{value:,.0f}"
    return f"{value:.2f}"


def numpy_version() -> str:
    """The numpy version this process runs with, or ``"absent"``."""
    if not HAVE_NUMPY:
        return "absent"
    import numpy
    return numpy.__version__


def _provenance(doc: dict) -> Dict[str, Optional[str]]:
    """The keys a baseline must share with a run to be compared to it."""
    python = doc.get("python")
    numpy = doc.get("numpy")
    return {
        "python": ".".join(python.split(".")[:2]) if python else None,
        "cov_backend": doc.get("cov_backend"),
        "exec_core": doc.get("exec_core"),
        "numpy": None if numpy is None
        else ("absent" if numpy == "absent" else "present"),
    }


def baseline_mismatch(doc: dict, baseline: Optional[dict]) -> Optional[str]:
    """Why ``baseline`` is not comparable with ``doc`` (None if it is).

    A baseline that does not record a key (older artifacts have no
    ``numpy``) counts as differing on it.
    """
    if baseline is None:
        return None
    ours, theirs = _provenance(doc), _provenance(baseline)
    diffs = [f"{key} {theirs[key] or 'unrecorded'} vs {ours[key]}"
             for key in ours
             if theirs[key] is None or theirs[key] != ours[key]]
    if not diffs:
        return None
    return ("no baseline deltas, provenance differs (baseline vs this "
            "run): " + ", ".join(diffs))


def baseline_deltas(metrics: Dict[str, float],
                    baseline: Optional[dict]) -> Dict[str, Optional[float]]:
    """Percent delta per metric against a baseline document.

    Every metric gets a key; the value is ``None`` where the baseline
    has no comparable number (missing file, new metric, zero baseline),
    so the result-document schema is identical with and without a
    baseline — the bench regression test keys on that.  Callers pass
    ``None`` for a baseline that :func:`baseline_mismatch` rejects.
    """
    base_metrics = (baseline or {}).get("metrics", {})
    deltas: Dict[str, Optional[float]] = {}
    for key, value in metrics.items():
        base = base_metrics.get(key)
        deltas[key] = ((value - base) / base * 100.0) if base else None
    return deltas


def run_suite(names: Optional[List[str]] = None, quick: bool = False,
              repeats: Optional[int] = None, out_dir: str = ".",
              baseline_dir: Optional[str] = "benchmarks/baseline",
              exec_core: Optional[str] = None,
              cov_backend: Optional[str] = None,
              print_fn: Callable[[str], None] = print) -> List[dict]:
    """Run the suite, write ``BENCH_<name>.json`` files, print a table.

    Wall-clock medians are host-dependent; the committed baselines exist
    for the *ratios* (speedup metrics) and for order-of-magnitude drift
    detection, not for exact cross-host comparison.  Each result
    document embeds its ``baseline_delta`` (computed against the
    baseline as it was *before* this run wrote anything, so regenerating
    the baseline in place still records the old-vs-new delta) and the
    execution core it ran on.
    """
    import platform

    from repro.execcore import set_core
    from repro.instrument.covcore import set_backend

    core = set_core(exec_core)
    backend = set_backend(cov_backend)
    selected = names or list(BENCHMARKS)
    unknown = [n for n in selected if n not in BENCHMARKS]
    if unknown:
        raise KeyError(
            f"unknown benchmark(s) {', '.join(unknown)}; "
            f"known: {', '.join(BENCHMARKS)}")
    os.makedirs(out_dir, exist_ok=True)
    docs = []
    reported = set()
    for name in selected:
        # Load the baseline before writing: out_dir may BE baseline_dir.
        baseline = load_baseline(baseline_dir, name) if baseline_dir else None
        doc = run_benchmark(name, quick=quick, repeats=repeats)
        doc["exec_core"] = core
        doc["cov_backend"] = backend
        doc["python"] = platform.python_version()
        doc["numpy"] = numpy_version()
        mismatch = baseline_mismatch(doc, baseline)
        if mismatch is not None:
            baseline = None
            if mismatch not in reported:
                reported.add(mismatch)
                print_fn(mismatch)
        doc["baseline_delta"] = baseline_deltas(doc["metrics"], baseline)
        docs.append(doc)
        path = os.path.join(out_dir, f"BENCH_{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print_fn(f"{name}  ({doc['repeats']} repeats, median, "
                 f"{core} core)")
        for key, value in doc["metrics"].items():
            line = f"  {key:24s} {_fmt(value):>14s}"
            delta = doc["baseline_delta"].get(key)
            if delta is not None:
                line += f"   {delta:+7.1f}% vs baseline"
            print_fn(line)
    return docs
