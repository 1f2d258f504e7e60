"""Tests for the fuzz-and-detect pipeline (Figure 9 end to end)."""

import pytest

from repro.core.pipeline import (
    FuzzAndDetectPipeline, confirm_synthetic_bug, evaluate_synthetic_bugs,
    report_detects_real_bug,
)
from repro.core.pmfuzz import build_engine
from repro.core.config import config_by_name
from repro.workloads import get_workload
from repro.workloads.realbugs import ALL_REAL_BUGS, buggy_flags_for


class TestRealBugPipeline:
    def test_hashmap_tx_bugs_detected(self):
        pipe = FuzzAndDetectPipeline(
            "hashmap_tx", "pmfuzz", bugs=buggy_flags_for("hashmap_tx"),
            max_checked=24,
        )
        result = pipe.run(budget_vseconds=2.0)
        detected = {r.bug.number: r.detected for r in result.real_bugs}
        assert detected[1], "Bug 1 (init not retried) missed"
        assert detected[8], "Bug 8 (redundant TX_ADD) missed"
        for r in result.real_bugs:
            if r.detected:
                assert r.first_detection_vtime is not None

    def test_memcached_bug7_detected(self):
        pipe = FuzzAndDetectPipeline(
            "memcached", "pmfuzz", bugs=buggy_flags_for("memcached"),
            max_checked=16,
        )
        result = pipe.run(budget_vseconds=1.5)
        assert result.result_for(7).detected

    def test_fixed_workload_reports_no_targets(self):
        pipe = FuzzAndDetectPipeline("hashmap_tx", "pmfuzz")
        result = pipe.run(budget_vseconds=0.5)
        assert result.real_bugs == []
        assert result.stats.executions > 0


class TestSyntheticEvaluation:
    def test_pmfuzz_covers_and_confirms_most(self):
        engine = build_engine("skiplist", config_by_name("pmfuzz"))
        stats = engine.run(2.0)
        detections = evaluate_synthetic_bugs("skiplist", stats,
                                             engine.storage)
        assert len(detections) == 12  # Table 3 count
        covered = sum(d.site_covered for d in detections)
        confirmed = sum(d.confirmed for d in detections)
        assert covered >= 9
        assert confirmed >= covered - 2  # confirmation tracks coverage

    def test_uncovered_bugs_not_confirmed(self):
        engine = build_engine("skiplist", config_by_name("pmfuzz"))
        stats = engine.run(0.3)
        detections = evaluate_synthetic_bugs("skiplist", stats,
                                             engine.storage, confirm=False)
        for d in detections:
            if not d.site_covered:
                assert not d.confirmed

    def test_confirm_requires_trigger(self):
        """A witness that never reaches the site cannot confirm the bug."""
        wl = get_workload("skiplist")
        bug = wl.synthetic_bugs()[8]  # remove-path bug
        image = wl.create_image()
        # 'g' never triggers the remove path.
        assert not confirm_synthetic_bug("skiplist", bug, image, b"g 1\n")


class TestMatchers:
    def test_all_12_bugs_have_matchers(self):
        from repro.detect.report import BugReport
        from repro.workloads.base import RunOutcome

        empty = BugReport(outcome=RunOutcome.OK)
        for bug in ALL_REAL_BUGS:
            # Must not raise, and an empty report never matches.
            assert report_detects_real_bug(empty, bug) is False


class TestCleanReportReuse:
    """``evaluate_synthetic_bugs`` runs the clean battery once per witness."""

    def test_one_clean_battery_per_distinct_witness(self, monkeypatch):
        from repro.detect.report import TestingTool

        engine = build_engine("hashmap_atomic", config_by_name("pmfuzz"))
        stats = engine.run(0.5)
        bugs = get_workload("hashmap_atomic").synthetic_bugs()

        # Reference: the public 4-argument call once per (bug, witness),
        # each paying for its own clean battery.
        expected = []
        visited = set()
        replays = 0
        for bug in bugs:
            confirmed = False
            if bug.site in stats.sites_hit:
                for image_id, data, _ in stats.site_witness[bug.site]:
                    visited.add((image_id, data))
                    replays += 1
                    if confirm_synthetic_bug(
                            "hashmap_atomic", bug,
                            engine.storage.load(image_id), data):
                        confirmed = True
                        break
            expected.append((bug.bug_id, bug.site in stats.sites_hit,
                             confirmed))
        # Bugs must share witnesses, or there would be nothing to reuse.
        assert len(visited) < replays

        clean_calls = []
        original = TestingTool.test

        def counting_test(self, image, commands, **kwargs):
            if self.injector is None:
                clean_calls.append(image)
            return original(self, image, commands, **kwargs)

        monkeypatch.setattr(TestingTool, "test", counting_test)
        detections = evaluate_synthetic_bugs("hashmap_atomic", stats,
                                             engine.storage)
        assert len(clean_calls) == len(visited)
        assert [(d.bug.bug_id, d.site_covered, d.confirmed)
                for d in detections] == expected
        assert any(confirmed for _, _, confirmed in expected)
