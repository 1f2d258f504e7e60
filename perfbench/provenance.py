"""Where a result set came from, and whether two result sets compare.

Two result sets are comparable only when everything that changes the
program's speed without changing its inputs is the same: interpreter,
numpy, the program's resolved fast-path choices, the host's core count
and the benchmark code itself.  The seed and the load average at start
are recorded but not compared: proving a claim on a fresh seed is the
point of the seed, and the load is a reading, not a setting.
"""

from __future__ import annotations

import hashlib
import os
import platform
from typing import Dict, List

#: Provenance keys that must be equal for two result sets to compare.
COMPARED = ("python", "numpy", "exec_core", "cov_backend", "crashgen",
            "warm_open", "isolation", "transport", "nproc", "hashseed",
            "workload", "seconds", "bench_digest")


def numpy_version() -> str:
    try:
        import numpy
    except ImportError:
        return "absent"
    return numpy.__version__


def bench_digest(bench_dir: str) -> str:
    """Hash of the benchmark's own source files and BENCHMARK.json."""
    h = hashlib.sha256()
    paths = sorted(
        os.path.join(dirpath, name)
        for dirpath, dirnames, names in os.walk(bench_dir)
        if "__pycache__" not in dirpath and os.sep + "tests" not in dirpath
        for name in names if name.endswith((".py", ".json")))
    paths.append(os.path.join(os.path.dirname(bench_dir), "BENCHMARK.json"))
    for path in paths:
        if os.path.exists(path):
            h.update(os.path.relpath(path, bench_dir).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def collect(workload: str, seed: int, seconds: int, hashseed: str,
            bench_dir: str, program: Dict[str, object],
            loadavg_start: List[float]) -> Dict[str, object]:
    """Provenance of one run; ``program`` holds the sample's resolved
    exec core, coverage backend, crashgen mode, warm-open and transport."""
    return {
        "python": platform.python_version(),
        "numpy": numpy_version(),
        **program,
        "nproc": os.cpu_count(),
        "hashseed": hashseed,
        "workload": workload,
        "seconds": seconds,
        "bench_digest": bench_digest(bench_dir),
        "seed": seed,
        "loadavg_start": loadavg_start,
    }


def mismatches(old: Dict[str, object], new: Dict[str, object]) -> List[str]:
    """The compared keys on which two provenance records differ."""
    return [f"{key}: {old.get(key)!r} vs {new.get(key)!r}"
            for key in COMPARED if old.get(key) != new.get(key)]
