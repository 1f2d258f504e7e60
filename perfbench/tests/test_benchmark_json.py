"""BENCHMARK.json follows the metric grammar and matches the code."""

import json
import os
import re

import run
from layers import LAYER_MAP, PER_LAYER, TARGETS
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_top_level_shape():
    spec = load()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/")
        assert ".." not in path.split("/")
    assert len(spec["command"]) <= 32
    assert all(len(arg) <= 200 for arg in spec["command"])
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 8) < 3420
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_metric_names_follow_the_grammar():
    spec = load()
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            names.append(metric["name"])
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))


def test_end_to_end_bounds():
    metrics = {m["name"]: m for m in load()["end_to_end"]}
    assert 1 <= len(metrics) <= 16
    for metric in metrics.values():
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = metrics["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in metrics.values())
    assert [(m["name"], m["unit"]) for m in load()["end_to_end"]] == \
        list(run.END_TO_END)


def test_workloads_match_the_code():
    spec = load()
    assert 2 <= len(spec["workloads"]) <= 8
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert 0 < len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_per_layer_matches_the_code_and_the_layer_map():
    spec = load()
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == PER_LAYER
    assert all(set(m) == {"name", "unit", "better"}
               for m in spec["per_layer"])
    prefixes = {name.split(".")[0] for name, _, _ in PER_LAYER}
    assert prefixes == set(LAYER_MAP)
    # PMImage hash/serialize/deserialize spans feed the dedup.* metrics.
    traced = {t.layer.split(".")[0] for t in TARGETS} - {"image"}
    assert traced <= prefixes
    for entry in LAYER_MAP.values():
        assert set(entry["moves"]) <= set(dict(run.END_TO_END))
        assert set(entry["mostly_on"]) <= set(WORKLOADS) | {"all"}
