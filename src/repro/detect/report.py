"""Combined testing tool: one test case in, one bug report out.

This is step ➎ of the paper's Figure 9: PMFuzz hands each saved test
case (input commands + PM image) to the back-end testing tools.  The
:class:`TestingTool` runs the full battery:

* execute the test case with tracing, feed the trace to Pmemcheck;
* check the resulting normal image against the workload's oracle;
* harvest the test case's crash images (a sample of its ordering
  points, all from one snapshot-planned replay) and feed each to the
  XFDetector-style cross-failure check.

The report separates crash-consistency findings from performance
findings, matching the paper's bug taxonomy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.errors import CORRUPTION_ERRORS, ReproError
from repro.instrument.context import ExecutionContext, push_context
from repro.pmdk.pool import HEAP_BASE
from repro.pmem.crash import SnapshotPlan
from repro.pmem.image import PMImage
from repro.detect.pmemcheck import Pmemcheck, Violation
from repro.detect.xfdetector import CrashFinding, XFDetector
from repro.workloads.base import Command, RunOutcome, Workload


@dataclass
class BugReport:
    """Everything the battery found for one test case."""

    outcome: RunOutcome
    trace_violations: List[Violation] = field(default_factory=list)
    oracle_violations: List[str] = field(default_factory=list)
    crash_findings: List[CrashFinding] = field(default_factory=list)
    sites_hit: frozenset = frozenset()
    outputs: List[str] = field(default_factory=list)
    error: str = ""

    @property
    def crash_consistency_findings(self) -> List[str]:
        """All crash-consistency findings, rendered."""
        findings = [f"{v.kind.value} at {v.site}"
                    for v in self.trace_violations if not v.is_performance]
        findings.extend(f"oracle: {v}" for v in self.oracle_violations)
        findings.extend(f.describe() for f in self.crash_findings)
        if self.outcome in (RunOutcome.SEGFAULT, RunOutcome.ERROR):
            findings.append(f"execution {self.outcome.value}: {self.error}")
        return findings

    @property
    def performance_findings(self) -> List[str]:
        """All performance findings, rendered."""
        return [f"{v.kind.value} at {v.site}"
                for v in self.trace_violations if v.is_performance]

    @property
    def has_bug(self) -> bool:
        return bool(self.crash_consistency_findings or
                    self.performance_findings)


class TestingTool:
    """Runs the Pmemcheck + XFDetector battery on one test case."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(self, workload_factory, max_crash_images: int = 16,
                 injector=None):
        self.workload_factory = workload_factory
        self.max_crash_images = max_crash_images
        self.injector = injector

    def test(self, image: PMImage, commands: Sequence[Command],
             with_crash_images: bool = True) -> BugReport:
        """Execute (image, commands) and run the full detection battery."""
        workload: Workload = self.workload_factory()
        ctx = ExecutionContext(injector=self.injector)
        with push_context(ctx):
            result = workload.run(image, commands)
        pmemcheck = Pmemcheck(HEAP_BASE)
        report = BugReport(outcome=result.outcome,
                           sites_hit=frozenset(ctx.sites_hit),
                           outputs=list(result.outputs),
                           error=result.error)
        report.trace_violations = pmemcheck.analyze(
            ctx.trace, clean_shutdown=result.outcome is RunOutcome.OK
        )
        if result.outcome is RunOutcome.OK and result.final_image is not None:
            report.oracle_violations = self._oracle(result.final_image)
        if with_crash_images and result.outcome is RunOutcome.OK:
            report.crash_findings = self._cross_failure(
                image, commands, result.fence_count
            )
        return report

    # ------------------------------------------------------------------
    def _oracle(self, image: PMImage) -> List[str]:
        workload = self.workload_factory()
        try:
            # Raw open: the oracle judges the state as-is; the driver's
            # create-if-missing / recover-on-open repairs would mask
            # corruption (e.g. a wrong-valued commit variable).
            pool = workload.open_for_inspection(image)
            return workload.check_consistency(pool)
        except (ReproError,) + CORRUPTION_ERRORS as exc:
            return [f"oracle raised: {type(exc).__name__}: {exc}"]

    def _cross_failure(self, image: PMImage, commands: Sequence[Command],
                       fence_count: int) -> List[CrashFinding]:
        """Crash at a sample of ordering points; cross-check each image.

        Every sampled crash image is harvested from one replay of the
        test case under a :class:`SnapshotPlan` — the mechanism
        :mod:`repro.core.crashgen` uses — instead of one re-execution per
        ordering point.  The replay is deterministic, so each capture is
        the image a dedicated crash at that fence would leave.  Captures
        are materialized one at a time, right before their check, so at
        most one crash image is alive at once.
        """
        if fence_count <= 0:
            return []
        stride = max(1, fence_count // self.max_crash_images)
        plan = SnapshotPlan(fences=tuple(range(0, fence_count, stride)))
        workload = self.workload_factory()
        ctx = ExecutionContext(injector=self.injector, collect_trace=False)
        with push_context(ctx):
            result = workload.run(image, commands, snapshot_plan=plan)
        xfd = XFDetector(self.workload_factory, injector=self.injector)
        findings: List[CrashFinding] = []
        for snap in result.snapshots:
            finding = xfd.check_image(
                PMImage(layout=image.layout,
                        payload=bytearray(snap.materialize()),
                        uuid=image.uuid),
                fence_index=snap.index)
            if finding.is_bug:
                findings.append(finding)
        return findings
