"""The repro-bench CLI: run/compare plumbing and exit codes.

``run`` tests use the fast ``repro.bench._testing:tiny_suite`` factory
instead of the real tier-1 suite so the CLI path stays cheap to test.
"""

import copy
import json

import pytest

from repro.bench import BENCH_SCHEMA_VERSION, load_report, write_report
from repro.bench.cli import main

TINY = "repro.bench._testing:tiny_suite"


def write_baseline(path, report):
    write_report(report, path)
    return str(path)


@pytest.fixture
def fresh_report(tmp_path):
    out = tmp_path / "BENCH_current.json"
    assert main(["run", "--suite", TINY, "--out", str(out)]) == 0
    return load_report(out)


class TestRun:
    def test_run_writes_versioned_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_tiny.json"
        assert main(["run", "--suite", TINY, "--out", str(out)]) == 0
        report = load_report(out)
        assert report["schema_version"] == BENCH_SCHEMA_VERSION
        assert set(report["benchmarks"]) == {"probe-a", "probe-b", "echo"}
        stdout = capsys.readouterr().out
        assert "probe-a: ok" in stdout
        assert f"wrote {out}" in stdout

    def test_run_parallel_matches_serial_counters(self, tmp_path):
        serial_out = tmp_path / "serial.json"
        parallel_out = tmp_path / "parallel.json"
        assert main(["run", "--suite", TINY, "--out", str(serial_out)]) == 0
        assert main(["run", "--suite", TINY, "--jobs", "2",
                     "--out", str(parallel_out)]) == 0
        # Counters only: the two files are byte-identical.
        assert serial_out.read_bytes() == parallel_out.read_bytes()

    def test_run_with_clean_compare_passes(self, tmp_path, fresh_report):
        baseline = write_baseline(tmp_path / "BENCH_baseline.json",
                                  fresh_report)
        out = tmp_path / "BENCH_again.json"
        assert main(["run", "--suite", TINY, "--out", str(out),
                     "--compare", baseline]) == 0

    def test_run_against_drifted_baseline_fails(self, tmp_path, capsys,
                                                fresh_report):
        drifted = copy.deepcopy(fresh_report)
        drifted["benchmarks"]["probe-a"]["checksum"] += 1
        baseline = write_baseline(tmp_path / "BENCH_baseline.json", drifted)
        out = tmp_path / "BENCH_again.json"
        assert main(["run", "--suite", TINY, "--out", str(out),
                     "--compare", baseline]) == 1
        assert "counter-drift" in capsys.readouterr().out

    def test_run_journal_resume(self, tmp_path, capsys):
        journal = tmp_path / "sweep.jsonl"
        out = tmp_path / "BENCH_tiny.json"
        args = ["run", "--suite", TINY, "--out", str(out),
                "--journal", str(journal)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert capsys.readouterr().out.count("(journal)") == 3

    def test_unknown_suite_is_usage_error(self, tmp_path, capsys):
        assert main(["run", "--suite", "nope",
                     "--out", str(tmp_path / "x.json")]) == 2
        assert "nope" in capsys.readouterr().err


class TestCompare:
    def test_clean_compare_exits_zero(self, tmp_path, fresh_report):
        current = write_baseline(tmp_path / "a.json", fresh_report)
        baseline = write_baseline(tmp_path / "b.json",
                                  copy.deepcopy(fresh_report))
        assert main(["compare", current, baseline]) == 0

    def test_counter_drift_exits_one(self, tmp_path, capsys, fresh_report):
        drifted = copy.deepcopy(fresh_report)
        drifted["benchmarks"]["echo"]["alpha"] = 999
        current = write_baseline(tmp_path / "a.json", drifted)
        baseline = write_baseline(tmp_path / "b.json", fresh_report)
        assert main(["compare", current, baseline]) == 1
        assert "counter-drift" in capsys.readouterr().out

    def test_json_format_is_machine_readable(self, tmp_path, capsys,
                                             fresh_report):
        current = write_baseline(tmp_path / "a.json", fresh_report)
        baseline = write_baseline(tmp_path / "b.json", fresh_report)
        capsys.readouterr()  # drain the fixture's run output
        assert main(["compare", current, baseline, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path / "no.json"),
                     str(tmp_path / "nope.json")]) == 2
        assert "repro-bench:" in capsys.readouterr().err


class TestCommands:
    @pytest.mark.parametrize("argv", [
        ["history", "a.json"],
        ["compare", "a.json", "b.json", "--strict-wall"],
        ["run", "--wall-threshold", "0.1"],
    ])
    def test_wall_clock_surface_is_gone(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_schemes_lists_the_catalogue(self, capsys):
        assert main(["schemes"]) == 0
        assert "concord" in capsys.readouterr().out
