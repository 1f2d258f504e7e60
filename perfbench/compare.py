"""Compare two result sets written by ``run.py``.

    python3 perfbench/compare.py OLD.json NEW.json

Prints, per metric, both medians and the change as a share of the old
median, marked against the metric's bound from ``BENCHMARK.json``.
Result sets whose provenance differs (interpreter, numpy, fast-path
choices, core count, benchmark code, ...) are refused with "not
comparable" and exit code 3: a delta between them would measure the
host, not the change.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from provenance import mismatches  # noqa: E402

NOT_COMPARABLE = 3


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def bounds() -> Dict[str, dict]:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def compare(old: dict, new: dict, spec: Dict[str, dict]) -> List[str]:
    """Report lines for ``old`` -> ``new``; first line says if comparable."""
    differ = mismatches(old["provenance"], new["provenance"])
    if differ:
        return ["not comparable: provenance differs"] + \
            [f"  {line}" for line in differ]
    lines = ["comparable"]
    for name, metric in new["metrics"].items():
        if name not in old["metrics"]:
            continue
        before = old["metrics"][name]["value"]
        after = metric["value"]
        change = (after - before) / before if before else 0.0
        info = spec.get(name, {})
        verdict = ""
        if "bound" in info:
            worse = change if info["better"] == "lower" else -change
            verdict = "WORSE than bound" if worse > info["bound"] \
                else "within bound"
        lines.append(f"  {name:28s} {before:12.6g} -> {after:12.6g} "
                     f"{metric['unit']:6s} {change:+8.1%}  {verdict}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    lines = compare(load(argv[0]), load(argv[1]), bounds())
    print("\n".join(lines))
    return NOT_COMPARABLE if lines[0].startswith("not comparable") else 0


if __name__ == "__main__":
    sys.exit(main())
