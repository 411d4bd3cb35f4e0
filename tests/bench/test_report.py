"""Report schema and the simulated-counter gate."""

import copy

import pytest

from repro.bench import (
    BENCH_SCHEMA_VERSION,
    build_report,
    compare_reports,
    load_report,
    render_comparison,
    write_report,
)
from repro.bench.job import JobResult


def make_report(**benchmarks) -> dict:
    return {"schema_version": BENCH_SCHEMA_VERSION, "benchmarks": benchmarks}


BASELINE = make_report(
    fig08={"simulated_ms": 5000.0, "requests_completed": 471},
    fig13={"simulated_ms": 8000.0, "simulated_rps": 93.5},
)


def kinds(comparison):
    return [(f.benchmark, f.kind, f.severity) for f in comparison.findings]


class TestBuildReport:
    def test_entries_carry_counters_only(self):
        ok = JobResult(name="fig08", fingerprint="a" * 64, status="ok",
                       value={"simulated_ms": 5000.0,
                              "requests_completed": 471},
                       wall_time_s=2.0, attempts=1)
        report = build_report([ok], seed=1009)
        assert report == {
            "schema_version": BENCH_SCHEMA_VERSION,
            "seed": 1009,
            "benchmarks": {"fig08": {"simulated_ms": 5000.0,
                                     "requests_completed": 471}},
        }

    def test_report_bytes_ignore_wall_time(self, tmp_path):
        # A report is a pure function of the code and the seed: results
        # that differ only in how long they took write identical files.
        def written(wall_s, name):
            result = JobResult(name="fig08", fingerprint="a" * 64,
                               value={"requests_completed": 471},
                               wall_time_s=wall_s)
            path = tmp_path / name
            write_report(build_report([result], seed=1009), path)
            return path.read_bytes()

        assert written(1.403, "a.json") == written(3.514, "b.json")

    def test_failures_are_recorded_not_dropped(self):
        bad = JobResult(name="fig13", fingerprint="b" * 64, status="timeout",
                        error="timed out after 1.000s", attempts=2)
        report = build_report([bad])
        assert "fig13" not in report["benchmarks"]
        assert report["failures"]["fig13"]["status"] == "timeout"

    def test_non_dict_value_is_wrapped(self):
        ok = JobResult(name="n", fingerprint="c" * 64, status="ok",
                       value=42, wall_time_s=0.1, attempts=1)
        report = build_report([ok])
        assert report["benchmarks"]["n"]["value"] == 42


class TestReportIO:
    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        write_report(BASELINE, path)
        assert load_report(path) == BASELINE

    def test_older_schema_versions_are_rejected(self, tmp_path):
        path = tmp_path / "BENCH_old.json"
        legacy = {"benchmarks": {"fig08": {"wall_time_s": 1.0}}}
        for version in (None, 1, 2):
            if version is not None:
                legacy["schema_version"] = version
            write_report(legacy, path)
            with pytest.raises(ValueError, match="re-run `repro-bench run`"):
                load_report(path)

    def test_future_schema_rejected(self, tmp_path):
        path = tmp_path / "BENCH_future.json"
        write_report({"schema_version": BENCH_SCHEMA_VERSION + 1,
                      "benchmarks": {}}, path)
        with pytest.raises(ValueError):
            load_report(path)

    def test_non_report_rejected(self, tmp_path):
        path = tmp_path / "notabench.json"
        write_report({"something": "else"}, path)
        with pytest.raises(ValueError):
            load_report(path)


class TestGate:
    def test_identical_reports_are_clean(self):
        comparison = compare_reports(copy.deepcopy(BASELINE), BASELINE)
        assert comparison.findings == []
        assert comparison.exit_code() == 0

    def test_planted_counter_drift_always_fails(self):
        current = copy.deepcopy(BASELINE)
        current["benchmarks"]["fig08"]["requests_completed"] = 470
        comparison = compare_reports(current, BASELINE)
        assert kinds(comparison) == [("fig08", "counter-drift", "error")]
        assert comparison.exit_code() == 1, \
            "counter drift is a behavior change: hard fail"

    def test_missing_and_new_counters_are_drift(self):
        current = copy.deepcopy(BASELINE)
        del current["benchmarks"]["fig08"]["requests_completed"]
        current["benchmarks"]["fig08"]["surprise"] = 1
        comparison = compare_reports(current, BASELINE)
        assert {(f.kind, f.severity) for f in comparison.findings} \
            == {("counter-drift", "error")}
        assert len(comparison.findings) == 2

    def test_missing_benchmark_is_an_error(self):
        current = copy.deepcopy(BASELINE)
        del current["benchmarks"]["fig13"]
        comparison = compare_reports(current, BASELINE)
        assert kinds(comparison) == [("fig13", "missing-benchmark", "error")]
        assert comparison.exit_code() == 1

    def test_failed_job_is_an_error_not_a_missing_benchmark(self):
        current = copy.deepcopy(BASELINE)
        del current["benchmarks"]["fig13"]
        current["failures"] = {"fig13": {"status": "error",
                                         "error": "RuntimeError: x",
                                         "attempts": 1}}
        comparison = compare_reports(current, BASELINE)
        assert kinds(comparison) == [("fig13", "job-failed", "error")]

    def test_new_benchmark_is_informational(self):
        current = copy.deepcopy(BASELINE)
        current["benchmarks"]["fig20"] = {"simulated_ms": 1.0}
        comparison = compare_reports(current, BASELINE)
        assert kinds(comparison) == [("fig20", "new-benchmark", "info")]
        assert comparison.exit_code() == 0


class TestRendering:
    def test_clean_comparison_renders_verdict(self):
        text = render_comparison(compare_reports(
            copy.deepcopy(BASELINE), BASELINE))
        assert "bench gate: clean" in text
        assert "0 error(s)" in text

    def test_findings_render_with_severity(self):
        current = copy.deepcopy(BASELINE)
        current["benchmarks"]["fig08"]["requests_completed"] = 1
        text = render_comparison(compare_reports(current, BASELINE))
        assert "[ERROR" in text and "counter-drift" in text
        assert "1 error(s)" in text
