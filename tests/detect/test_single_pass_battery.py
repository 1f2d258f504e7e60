"""The battery's single-pass crash harvest vs per-fence re-execution.

``TestingTool`` harvests every sampled crash image from one replay under
a ``SnapshotPlan``.  The reference below is the paper's literal
strategy — one re-execution per sampled ordering point, crashing there —
and lives only in this test.  Both must report the same findings, field
by field.
"""

import weakref

import pytest

from repro.detect import TestingTool, XFDetector
from repro.instrument.context import ExecutionContext, push_context
from repro.pmem.persistence import MediaSnapshot
from repro.workloads import get_workload
from repro.workloads.base import RunOutcome
from repro.workloads.mapcli import parse_commands
from repro.workloads.synthetic import BugInjector

CMDS = parse_commands(b"i 5 1\ni 9 2\ni 13 3\ng 5\nr 9\n")


def reexec_cross_failure(tool, image, commands):
    """Reference: re-execute once per sampled fence, crashing there."""
    workload = tool.workload_factory()
    with push_context(ExecutionContext(injector=tool.injector)):
        fence_count = workload.run(image, commands).fence_count
    if fence_count <= 0:
        return []
    stride = max(1, fence_count // tool.max_crash_images)
    xfd = XFDetector(tool.workload_factory, injector=tool.injector)
    findings = []
    for fence in range(0, fence_count, stride):
        workload = tool.workload_factory()
        ctx = ExecutionContext(injector=tool.injector, collect_trace=False)
        with push_context(ctx):
            result = workload.run(image, commands, crash_at_fence=fence)
        if result.crash_image is None:
            continue
        finding = xfd.check_image(result.crash_image, fence_index=fence)
        if finding.is_bug:
            findings.append(finding)
    return findings


def fields(findings):
    return [(f.fence_index, f.outcome, list(f.violations), f.error)
            for f in findings]


def variant_tool(name, flag, max_crash_images):
    bugs = frozenset({flag})
    return TestingTool(lambda: get_workload(name, bugs=bugs),
                       max_crash_images=max_crash_images)


def synthetic_tool(name, bug_id, max_crash_images):
    bug = next(b for b in get_workload(name).synthetic_bugs()
               if b.bug_id == bug_id)
    return TestingTool(lambda: get_workload(name),
                       max_crash_images=max_crash_images,
                       injector=BugInjector([bug]))


CASES = {
    "bug6": ("hashmap_atomic",
             lambda m: variant_tool("hashmap_atomic",
                                    "bug6_no_recovery_call", m)),
    "init_not_retried": ("hashmap_tx",
                         lambda m: variant_tool("hashmap_tx",
                                                "init_not_retried", m)),
    "missing_flush": ("hashmap_atomic",
                      lambda m: synthetic_tool("hashmap_atomic",
                                               "hashmap_atomic:s01", m)),
    "missing_txadd": ("hashmap_tx",
                      lambda m: synthetic_tool("hashmap_tx",
                                               "hashmap_tx:s10", m)),
}


@pytest.mark.parametrize("max_crash_images", [1, 16, 64])
@pytest.mark.parametrize("case", sorted(CASES))
def test_single_pass_matches_per_fence_reexecution(case, max_crash_images):
    name, make_tool = CASES[case]
    image = get_workload(name).create_image()
    report = make_tool(max_crash_images).test(image, CMDS)
    assert report.outcome is RunOutcome.OK
    reference = reexec_cross_failure(make_tool(max_crash_images), image,
                                     CMDS)
    assert fields(report.crash_findings) == fields(reference)


@pytest.mark.parametrize("case", sorted(CASES))
def test_equivalence_cases_are_not_vacuous(case):
    # Each case must really produce cross-failure findings at the
    # densest sampling, or the equivalence above proves nothing.
    name, make_tool = CASES[case]
    report = make_tool(64).test(get_workload(name).create_image(), CMDS)
    assert report.crash_findings


def test_one_crash_image_alive_at_a_time(monkeypatch):
    """Each capture is materialized right before its check, then dropped."""
    events = []
    checked = []
    materialize = MediaSnapshot.materialize
    check_image = XFDetector.check_image

    def counting_materialize(self):
        events.append("materialize")
        return materialize(self)

    def tracking_check(self, image, fence_index=None):
        events.append("check")
        # Every earlier crash image must already be gone.
        assert all(ref() is None for ref in checked)
        checked.append(weakref.ref(image))
        return check_image(self, image, fence_index=fence_index)

    monkeypatch.setattr(MediaSnapshot, "materialize", counting_materialize)
    monkeypatch.setattr(XFDetector, "check_image", tracking_check)
    name, make_tool = CASES["missing_flush"]
    make_tool(16).test(get_workload(name).create_image(), CMDS)
    assert len(checked) > 1
    assert events == ["materialize", "check"] * len(checked)
