"""One benchmark sample, run in a fresh interpreter by ``run.py``.

    python3 perfbench/sample.py --workload NAME --seed N --t0 T \
        --workdir DIR [--trace | --setup-only] [--in-process]

``--t0`` is the parent's ``time.monotonic()`` taken just before it
started this interpreter, so ``setup_s`` covers interpreter start,
``import repro``, ``build_engine`` and the first ``FuzzEngine.setup()``.
The sample prints one JSON object on stdout.  With ``--trace`` the
program's layers are wrapped once set-up is done, and the per-layer
ledger and spans come back too (spans are written to ``--workdir``).
With ``--setup-only`` the sample stops once set-up is done and reports
only ``setup_s``.
"""

from __future__ import annotations

import argparse
import importlib.abc
import importlib.machinery
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import install, layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, run_job  # noqa: E402

#: Largest gap allowed between the sum of a traced run's self-time
#: metrics and its traced wall, as a share of that wall.
RECONCILE_TOLERANCE = 0.01


class _ForkWatch:
    """Counts worker forks of a traced run; unwraps layers in the child.

    A forked worker executes outside the traced process, so it drops
    the wrappers it inherited and runs the program's own code.
    """

    def __init__(self) -> None:
        self.tracer = None
        os.register_at_fork(before=self._before,
                            after_in_child=self._after_in_child)

    def _before(self) -> None:
        if self.tracer is not None:
            self.tracer.count("isolation.worker_forks")

    def _after_in_child(self) -> None:
        if self.tracer is not None:
            self.tracer.unpatch()
            self.tracer = None


class CheckoutRelativeFinder(importlib.abc.MetaPathFinder):
    """Imports ``repro`` from ``src/`` under checkout-relative file names.

    The program hashes ``co_filename:lineno`` into its branch-coverage
    map, so importing it from an absolute path would make every campaign
    depend on where the checkout lives: slot ids and collisions move,
    and with them which inputs count as new.  Loading the same source
    files as ``src/repro/...`` relative to the checkout root (the
    working directory of every sample) makes a seed give the same
    campaign in every checkout.
    """

    def find_spec(self, fullname, path=None, target=None):
        if fullname.partition(".")[0] != "repro":
            return None
        base = os.path.join("src", *fullname.split("."))
        package = os.path.isfile(os.path.join(base, "__init__.py"))
        origin = os.path.join(base, "__init__.py") if package else base + ".py"
        if not os.path.isfile(origin):
            return None
        loader = importlib.machinery.SourceFileLoader(fullname, origin)
        spec = importlib.machinery.ModuleSpec(fullname, loader, origin=origin,
                                              is_package=package)
        if package:
            spec.submodule_search_locations = [base]
        spec.has_location = True
        return spec


def _peak_rss_mb(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--in-process", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    os.chdir(ROOT)
    sys.meta_path.insert(0, CheckoutRelativeFinder())
    import repro  # noqa: F401  (part of set-up, as for any user)

    clock = time.perf_counter
    tracer = Tracer(clock) if args.trace else None
    watch = _ForkWatch() if args.trace else None
    marks = {}
    root = None

    def on_ready() -> None:
        nonlocal root
        marks["ready_mono"] = time.monotonic()
        if tracer is not None:
            install(tracer)
            watch.tracer = tracer
            root = tracer.enter("job")
        marks["ready"] = clock()

    job = run_job(workload, args.seed, clock, on_ready, args.workdir,
                  in_process=args.in_process, setup_only=args.setup_only)
    end = clock()
    if args.setup_only:
        print(json.dumps({"setup_s": marks["ready_mono"] - args.t0}))
        return 0
    out = {
        "setup_s": marks["ready_mono"] - args.t0,
        "wall_s": end - marks["ready"],
        "fuzz_s": job.fuzz_s,
        "executions": job.executions,
        "fuzz_executions": job.fuzz_executions,
        "failed": job.failed,
        "peak_rss_mb": _peak_rss_mb(
            with_children=workload.engine_kwargs.get("isolation") == "fork"),
        "stored_mb": job.program["store_stored_bytes"] / float(1 << 20),
        "outputs": job.outputs,
        "provenance": job.provenance,
    }
    if tracer is not None:
        tracer.exit(root)
        watch.tracer = None
        tracer.unpatch()
        tracer.check_balanced()
        out["layers"] = layer_metrics(tracer, job.program)
        out["reconciled"] = \
            out["layers"]["trace.residual_share"] <= RECONCILE_TOLERANCE
        out["ledger"] = [[parent, name, *rec] for (parent, name), rec
                         in sorted(tracer.ledger.items())]
        spans_path = os.path.join(
            args.workdir, f"spans-{args.workload}-{args.seed}-{os.getpid()}.json")
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "spans": tracer.spans}, fh)
        out["spans_path"] = spans_path
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
