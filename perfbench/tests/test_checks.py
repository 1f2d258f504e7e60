"""Output checks: digests, the Table-3 ordering and the committed file."""

import json
import os
import re

from workloads import (WORKLOADS, campaign_seed, canonical, check_outputs,
                       digest)

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_digest_ignores_set_and_dict_order():
    one = {"sites": {"b", "a", "c"}, "n": 1, "raw": b"\x00\x01"}
    two = {"raw": b"\x00\x01", "n": 1, "sites": {"c", "a", "b"}}
    assert digest([one]) == digest([two])
    assert canonical(one)["sites"] == ["a", "b", "c"]
    assert digest([one]) != digest([dict(one, n=2)])


def test_digest_mismatch_is_detected():
    workload = WORKLOADS["pmfuzz-btree"]
    reference = {"digest": "a" * 64, "executions": [10, 12],
                 "crash_images": [3, 4], "pm_paths": [7, 8]}
    assert check_outputs(workload, dict(reference), reference) == []
    changed = dict(reference, digest="b" * 64)
    problems = check_outputs(workload, changed, reference)
    assert len(problems) == 1 and "digest" in problems[0]
    fewer = dict(reference, executions=[10, 11])
    assert "executions" in check_outputs(workload, fewer, reference)[0]


def test_table3_requires_pmfuzz_at_least_aflpp():
    workload = WORKLOADS["table3-hashmap_atomic"]
    outputs = {"digest": "x", "confirmed": {
        "pmfuzz": [["s1"], ["s2"]],
        "aflpp_sysopt": [["s1", "s3"], ["s1", "s2", "s4"]]}}
    problems = check_outputs(workload, outputs, None)
    assert problems == ["PMFuzz confirmed 2 distinct bugs, fewer than "
                        "AFL++ w/ SysOpt's 4"]
    # Distinct bugs over the job count, not each campaign on its own.
    outputs["confirmed"]["pmfuzz"] = [["s1", "s2", "s5"], ["s6"]]
    assert check_outputs(workload, outputs, None) == []


def test_expected_file_covers_every_workload():
    with open(os.path.join(BENCH, "expected.json")) as fh:
        expected = json.load(fh)
    assert set(expected) == set(WORKLOADS)
    for name, outputs in expected.items():
        assert re.fullmatch(r"[0-9a-f]{64}", outputs["digest"])
        assert len(outputs["executions"]) == \
            WORKLOADS[name].campaigns * len(WORKLOADS[name].configs)
    # The committed Table-3 verdict already satisfies the ordering.
    assert check_outputs(WORKLOADS["table3-hashmap_atomic"],
                         expected["table3-hashmap_atomic"], None) == []


def test_seed_zero_is_the_stock_campaign_seed():
    assert campaign_seed(0, 0) == 0x504D465A
    seeds = {campaign_seed(s, i) for s in range(4)
             for i in range(max(w.campaigns for w in WORKLOADS.values()))}
    assert len(seeds) == 4 * max(w.campaigns for w in WORKLOADS.values())



def test_program_loads_under_checkout_relative_names(monkeypatch):
    # Branch-map slots hash co_filename, so a sample must see the same
    # file names in every checkout.
    from sample import CheckoutRelativeFinder

    monkeypatch.chdir(os.path.dirname(BENCH))
    finder = CheckoutRelativeFinder()
    package = finder.find_spec("repro.workloads")
    module = finder.find_spec("repro.workloads.btree")
    assert package.origin == os.path.join("src", "repro", "workloads",
                                          "__init__.py")
    assert package.submodule_search_locations == [
        os.path.join("src", "repro", "workloads")]
    assert module.origin == os.path.join("src", "repro", "workloads",
                                         "btree.py")
    assert finder.find_spec("json") is None
    assert finder.find_spec("repro.no_such_module") is None
