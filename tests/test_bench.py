"""The ``python -m repro bench`` suite: runner, artifacts, CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench import (BENCHMARKS, baseline_mismatch, load_baseline,
                         numpy_version, run_benchmark, run_suite)
from repro.cli import main
from repro.execcore import HAVE_NUMPY, set_core
from repro.instrument.covcore import set_backend


@pytest.fixture(autouse=True)
def restore_core():
    """run_suite(exec_core=..., cov_backend=...) flips process-global
    state; restore it."""
    yield
    set_core(None)
    set_backend(None)


class TestRunner:
    def test_registry_covers_the_promised_suite(self):
        assert {"pmem_ops", "ranges", "executor", "coverage", "crashgen",
                "corpusdb", "campaign"} <= set(BENCHMARKS)

    def test_run_benchmark_reports_median_of_repeats(self):
        doc = run_benchmark("ranges", quick=True, repeats=3)
        assert doc["repeats"] == 3
        assert len(doc["samples"]) == 3
        for key, value in doc["metrics"].items():
            samples = sorted(s[key] for s in doc["samples"])
            assert value == samples[1]  # the median of 3

    def test_pmem_ops_reports_speedup_vs_legacy(self):
        doc = run_benchmark("pmem_ops", quick=True, repeats=1)
        metrics = doc["metrics"]
        assert metrics["ops_per_s"] > 0
        assert metrics["legacy_ops_per_s"] > 0
        assert metrics["speedup"] > 0

    def test_suite_writes_json_and_prints_deltas(self, tmp_path):
        out = tmp_path / "out"
        lines = []
        run_suite(names=["ranges"], quick=True, repeats=1,
                  out_dir=str(out), baseline_dir=None,
                  print_fn=lines.append)
        path = out / "BENCH_ranges.json"
        doc = json.loads(path.read_text())
        assert doc["name"] == "ranges"
        assert doc["quick"] is True
        assert "speedup" in doc["metrics"]
        assert any("calls_per_s" in line for line in lines)
        # A second run against the first as baseline prints deltas.
        lines2 = []
        run_suite(names=["ranges"], quick=True, repeats=1,
                  out_dir=str(tmp_path / "out2"), baseline_dir=str(out),
                  print_fn=lines2.append)
        assert any("vs baseline" in line for line in lines2)

    def test_every_artifact_has_deltas_and_positive_medians(self, tmp_path):
        """The regression gate: a full quick run must produce, for every
        benchmark, an artifact with the baseline-delta schema and
        strictly positive metric medians."""
        out = tmp_path / "out"
        run_suite(quick=True, repeats=1, out_dir=str(out),
                  baseline_dir=None, print_fn=lambda line: None)
        for name in BENCHMARKS:
            doc = json.loads((out / f"BENCH_{name}.json").read_text())
            assert doc["name"] == name
            assert doc["exec_core"] in ("scalar", "vector")
            assert doc["cov_backend"] in ("settrace", "monitoring")
            assert doc["python"].count(".") == 2
            assert doc["numpy"] == numpy_version()
            assert (doc["numpy"] == "absent") is not HAVE_NUMPY
            # Delta schema is identical with and without a baseline:
            # one entry per metric (None when nothing to compare to).
            assert set(doc["baseline_delta"]) == set(doc["metrics"])
            assert all(delta is None
                       for delta in doc["baseline_delta"].values())
            for key, median in doc["metrics"].items():
                assert median > 0, (name, key, median)
        # Re-running against those artifacts as baseline fills the deltas.
        run_suite(names=["ranges"], quick=True, repeats=1,
                  out_dir=str(tmp_path / "out2"), baseline_dir=str(out),
                  print_fn=lambda line: None)
        doc = json.loads((tmp_path / "out2" / "BENCH_ranges.json")
                         .read_text())
        assert set(doc["baseline_delta"]) == set(doc["metrics"])
        assert all(isinstance(delta, float)
                   for delta in doc["baseline_delta"].values())

    @pytest.mark.parametrize("key, other", [
        ("python", "2.7.18"),
        ("cov_backend", "other-backend"),
        ("exec_core", "other-core"),
        ("numpy", "1.0" if not HAVE_NUMPY else "absent"),
        ("numpy", None),  # an artifact from before numpy was recorded
    ])
    def test_baseline_of_other_provenance_gives_no_deltas(
            self, tmp_path, key, other):
        base = tmp_path / "base"
        names = ["ranges", "pmem_ops"]
        run_suite(names=names, quick=True, repeats=1, out_dir=str(base),
                  baseline_dir=None, print_fn=lambda line: None)
        for name in names:
            path = base / f"BENCH_{name}.json"
            doc = json.loads(path.read_text())
            if other is None:
                del doc[key]
            else:
                doc[key] = other
            path.write_text(json.dumps(doc))
        lines = []
        docs = run_suite(names=names, quick=True, repeats=1,
                         out_dir=str(tmp_path / "new"),
                         baseline_dir=str(base), print_fn=lines.append)
        for doc in docs:
            assert set(doc["baseline_delta"]) == set(doc["metrics"])
            assert all(delta is None
                       for delta in doc["baseline_delta"].values())
        assert not any("vs baseline" in line for line in lines)
        # The reason is printed once, not once per benchmark or metric.
        reasons = [line for line in lines if "provenance differs" in line]
        assert len(reasons) == 1
        assert key in reasons[0]

    def test_same_provenance_is_comparable(self):
        doc = {"python": "3.11.7", "cov_backend": "settrace",
               "exec_core": "vector", "numpy": "2.4.6"}
        assert baseline_mismatch(doc, dict(doc, python="3.11.2",
                                           numpy="2.0.1")) is None
        assert baseline_mismatch(doc, None) is None
        assert "python 3.13 vs 3.11" in baseline_mismatch(
            doc, dict(doc, python="3.13.1"))

    def test_exec_core_selects_the_measured_core(self, tmp_path):
        out = tmp_path / "scalar"
        run_suite(names=["pmem_ops"], quick=True, repeats=1,
                  out_dir=str(out), baseline_dir=None,
                  exec_core="scalar", print_fn=lambda line: None)
        doc = json.loads((out / "BENCH_pmem_ops.json").read_text())
        assert doc["exec_core"] == "scalar"
        assert doc["metrics"]["ops_per_s"] == \
            doc["metrics"]["scalar_ops_per_s"]

    def test_unknown_benchmark_rejected(self, tmp_path):
        try:
            run_suite(names=["nope"], out_dir=str(tmp_path))
        except KeyError as exc:
            assert "nope" in exc.args[0]
        else:
            raise AssertionError("expected KeyError")

    def test_load_baseline_missing_is_none(self, tmp_path):
        assert load_baseline(str(tmp_path), "ranges") is None


class TestCli:
    def test_bench_command_smoke(self, tmp_path, capsys):
        code = main(["bench", "--only", "ranges", "--quick",
                     "--repeats", "1", "--out-dir", str(tmp_path),
                     "--baseline-dir", ""])
        assert code == 0
        assert (tmp_path / "BENCH_ranges.json").exists()
        assert "ranges" in capsys.readouterr().out

    def test_bench_exec_core_flag(self, tmp_path, capsys):
        code = main(["bench", "--only", "ranges", "--quick",
                     "--repeats", "1", "--out-dir", str(tmp_path),
                     "--baseline-dir", "", "--exec-core", "scalar"])
        assert code == 0
        doc = json.loads((tmp_path / "BENCH_ranges.json").read_text())
        assert doc["exec_core"] == "scalar"
        assert "scalar core" in capsys.readouterr().out

    def test_bench_cov_backend_flag(self, tmp_path, capsys):
        code = main(["bench", "--only", "ranges", "--quick",
                     "--repeats", "1", "--out-dir", str(tmp_path),
                     "--baseline-dir", "", "--cov-backend", "settrace"])
        assert code == 0
        doc = json.loads((tmp_path / "BENCH_ranges.json").read_text())
        assert doc["cov_backend"] == "settrace"

    def test_bench_unknown_name_is_clean_error(self, tmp_path, capsys):
        code = main(["bench", "--only", "warp-drive",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "unknown benchmark" in capsys.readouterr().err
