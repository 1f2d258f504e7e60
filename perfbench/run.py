"""The repository benchmark: one workload, one seed, a fixed time.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--out FILE]
    python3 perfbench/run.py --update-expected

Run from the root of a checkout.  Every sample runs the workload's job
in a fresh interpreter (``sample.py``), so one sample's leftovers never
slow the next; samples repeat until ``--seconds`` is used up and each
metric is the median over them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced samples and reports the per-layer metrics.  Every
sample's outputs are checked: against the committed expectation for
the default seed, else against the run's first sample.  Human-readable
lines go first; the last stdout line is one JSON object.  The exit code
is 0 when every check passed, 1 when one failed and 2 when the program
cannot be found or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import PER_LAYER  # noqa: E402
from provenance import collect  # noqa: E402
from workloads import (DEFAULT_SEED, WORKLOADS, check_outputs,  # noqa: E402
                       Workload)

EXPECTED_PATH = os.path.join(HERE, "expected.json")
WORKDIR = os.path.join(ROOT, ".bench_build", "perfbench")
#: Fixed hash seed for every sample: set iteration order then cannot
#: differ from one sample to the next.
HASHSEED = "0"
#: No run may take longer than this, whatever --seconds says; a sample
#: still running then is killed and counted as failed.
RUN_LIMIT_S = 170
#: Extra set-up-only samples per untraced sample: set-up is short and
#: noisy, so its median needs more readings than the job's.
SETUP_ONLY_PER_SAMPLE = 2
#: End-to-end metrics: (name, unit).
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("execs_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("stored_mb", "MB"))


class SampleError(RuntimeError):
    pass


def run_sample(workload: str, seed: int, trace: bool = False,
               in_process: bool = False, setup_only: bool = False,
               timeout: float = RUN_LIMIT_S) -> dict:
    """Run one sample in a fresh interpreter and return its record."""
    cmd = [sys.executable, os.path.join(HERE, "sample.py"),
           "--workload", workload, "--seed", str(seed),
           "--workdir", WORKDIR]
    for flag, on in (("--trace", trace), ("--in-process", in_process),
                     ("--setup-only", setup_only)):
        if on:
            cmd.append(flag)
    env = dict(os.environ, PYTHONHASHSEED=HASHSEED)
    t0 = time.monotonic()
    # Its own process group, so a timeout also stops its fork workers.
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SampleError(f"sample exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise SampleError(f"sample exited {proc.returncode}:\n"
                          + stderr[-4000:])
    return json.loads(stdout.strip().splitlines()[-1])


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def sample_metrics(record: dict) -> dict:
    return {
        "setup_s": record["setup_s"],
        "wall_s": record["wall_s"],
        "execs_per_s": record["fuzz_executions"] / record["fuzz_s"],
        "peak_rss_mb": record["peak_rss_mb"],
        "stored_mb": record["stored_mb"],
    }


def measure(workload: Workload, seed: int, seconds: float,
            trace: bool) -> dict:
    """Take samples for ``seconds``; check each; return the result set."""
    reference = load_expected().get(workload.name) \
        if seed == DEFAULT_SEED else None
    plain, traced, setups, problems = [], [], [], []
    attempted = failed = 0
    start = time.monotonic()
    durations = []
    while True:
        elapsed = time.monotonic() - start
        want_traced = trace and len(traced) < len(plain)
        enough = len(plain) >= (1 if trace else 3) and \
            (not trace or traced)
        if enough and elapsed + median(durations) > seconds:
            break
        begin = time.monotonic()
        timeout = max(1.0, RUN_LIMIT_S - (begin - start))
        try:
            record = run_sample(workload.name, seed, trace=want_traced,
                                timeout=timeout)
            if not trace:
                setups.extend(
                    run_sample(workload.name, seed, setup_only=True,
                               timeout=timeout)["setup_s"]
                    for _ in range(SETUP_ONLY_PER_SAMPLE))
        except (SampleError, json.JSONDecodeError) as exc:
            problems.append(f"sample failed: {exc}")
            attempted += 1
            failed += 1
            break
        durations.append(time.monotonic() - begin)
        attempted += record["executions"]
        failed += record["failed"]
        if reference is None:
            reference = record["outputs"]
        found = check_outputs(workload, record["outputs"], reference)
        if want_traced and not record["reconciled"]:
            found.append("traced self times do not add up to the traced wall")
        if found:
            problems.extend(found)
            failed += record["executions"]
        (traced if want_traced else plain).append(record)
        if not want_traced:
            setups.append(record["setup_s"])
    return {"plain": plain, "traced": traced, "setups": setups,
            "problems": problems, "attempted": attempted, "failed": failed}


def end_to_end(plain: list, setups: list) -> dict:
    per_sample = [sample_metrics(r) for r in plain]
    out = {name: {"value": median([m[name] for m in per_sample]),
                  "unit": unit, "samples": len(per_sample)}
           for name, unit in END_TO_END}
    out["setup_s"].update(value=median(setups), samples=len(setups))
    return out


def per_layer(plain: list, traced: list) -> dict:
    out = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead_s":
            value = (median([r["wall_s"] for r in traced])
                     - median([r["wall_s"] for r in plain]))
        else:
            value = median([r["layers"][name] for r in traced])
        out[name] = {"value": value, "unit": unit, "samples": len(traced)}
    return out


def update_expected(names) -> int:
    """Regenerate expected.json for the default seed.

    The fork workload's expectation comes from an in-process run; the
    fork run must reproduce it (the fork/none contract) or nothing is
    written.
    """
    expected = load_expected() if os.path.exists(EXPECTED_PATH) else {}
    for name in names:
        record = run_sample(name, DEFAULT_SEED, in_process=True)
        if WORKLOADS[name].engine_kwargs.get("isolation") == "fork":
            forked = run_sample(name, DEFAULT_SEED)
            if forked["outputs"] != record["outputs"]:
                print(f"error: {name}: fork run differs from in-process run",
                      file=sys.stderr)
                return 1
        expected[name] = record["outputs"]
        print(f"{name}: digest {record['outputs']['digest'][:16]}")
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="PMFuzz repository benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="where to write the result set "
                        "(default: .bench_build/perfbench/results/)")
    parser.add_argument("--update-expected", action="store_true",
                        help="regenerate expected.json for the default seed")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program source under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    # The build step: byte-compile once, so no sample pays for it.
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    os.makedirs(WORKDIR, exist_ok=True)
    if args.update_expected:
        return update_expected([args.workload] if args.workload
                               else sorted(WORKLOADS))
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    loadavg = [round(v, 2) for v in os.getloadavg()[:2]]
    result = measure(workload, args.seed, args.seconds, bool(args.trace))
    plain, traced = result["plain"], result["traced"]
    measured = bool(plain) and (bool(traced) or not args.trace)
    correct = measured and not result["problems"]
    metrics = {}
    if measured:
        metrics = (per_layer(plain, traced) if args.trace
                   else end_to_end(plain, result["setups"]))
    attempted = max(result["attempted"], 1)
    failed_share = result["failed"] / attempted
    program = plain[0]["provenance"] if plain else {}
    result_set = {
        "provenance": collect(workload.name, args.seed, args.seconds,
                              HASHSEED, HERE, program, loadavg),
        "trace": args.trace,
        "metrics": metrics,
        "failed_share": failed_share,
        "problems": result["problems"],
        "samples": {"plain": [sample_metrics(r) for r in plain],
                    "setup_s": result["setups"],
                    "traced": [{"layers": r["layers"], "ledger": r["ledger"]}
                               for r in traced]},
    }
    out = args.out or os.path.join(
        WORKDIR, "results",
        f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(result_set, fh, indent=1)

    print(f"workload {workload.name}  seed {args.seed}  "
          f"samples {len(plain)} untraced, {len(traced)} traced")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']:6s} "
              f"(median of {metric['samples']})")
    print(f"  {'failed_share':28s} {failed_share:14.6g} ratio  "
          f"({result['failed']} of {attempted} executions)")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  result set: {out}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
