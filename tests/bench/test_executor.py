"""Executor: ordering, parity, isolation, timeout/retry/crash paths.

Worker-pool tests use the ``spawn`` start method for real, so they are a
little slower than the average unit test but cover exactly the paths CI
relies on: a sweep must survive raising jobs, hanging jobs and workers
that die outright.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import JobSpec, canonical_json, run_jobs
from repro.bench._testing import tiny_suite

REPO_ROOT = Path(__file__).resolve().parents[2]


def spec_for(name, target, **kwargs):
    return JobSpec(name=name, target=f"repro.bench._testing:{target}",
                   **kwargs)


class TestOrderingAndParity:
    def test_results_in_spec_order(self):
        specs = tiny_suite()
        results = run_jobs(specs, jobs=2)
        assert [r.name for r in results] == [s.name for s in specs]
        assert all(r.ok for r in results)

    def test_worker_vs_in_process_byte_identical(self):
        specs = tiny_suite()
        serial = run_jobs(specs, jobs=1)
        parallel = run_jobs(specs, jobs=3)
        assert (canonical_json([r.value for r in serial])
                == canonical_json([r.value for r in parallel]))

    def test_duplicate_fingerprints_rejected(self):
        spec = spec_for("a", "echo", args={"x": 1})
        twin = spec_for("b", "echo", args={"x": 1})
        with pytest.raises(ValueError):
            run_jobs([spec, twin])

    def test_same_spec_object_twice_is_fine(self):
        spec = spec_for("a", "echo", args={"x": 1})
        results = run_jobs([spec, spec])
        assert len(results) == 2


class TestFailureIsolation:
    def test_raising_job_does_not_kill_sweep(self):
        specs = [spec_for("bad", "boom", args={"message": "nope"})]
        specs += tiny_suite()
        results = run_jobs(specs, jobs=2)
        assert results[0].status == "error"
        assert "RuntimeError: nope" in results[0].error
        assert all(r.ok for r in results[1:])

    def test_serial_path_isolates_failures_too(self):
        specs = [spec_for("bad", "boom")] + tiny_suite()
        results = run_jobs(specs, jobs=1)
        assert results[0].status == "error"
        assert all(r.ok for r in results[1:])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_non_json_return_names_the_job(self, jobs):
        # resolve_target returns a function object: not JSON.
        bad = JobSpec(name="bad", target="repro.bench.job:resolve_target",
                      args={"target": "repro.bench._testing:echo"})
        results = run_jobs([bad] + tiny_suite(), jobs=jobs)
        assert results[0].status == "error"
        assert "job 'bad': target returned a non-JSON value" \
            in results[0].error
        assert results[0].wall_time_s == 0.0
        assert all(r.ok for r in results[1:])

    def test_worker_crash_does_not_kill_sweep(self):
        specs = [spec_for("crash", "hard_crash")] + tiny_suite()
        results = run_jobs(specs, jobs=2)
        assert results[0].status == "error"
        assert "worker process died" in results[0].error
        assert all(r.ok for r in results[1:])


class TestRetries:
    def test_flaky_job_succeeds_within_budget(self, tmp_path):
        scratch = tmp_path / "flaky.txt"
        spec = spec_for("fl", "flaky",
                        args={"scratch": str(scratch), "fail_times": 2},
                        retries=2)
        (result,) = run_jobs([spec], jobs=2)
        assert result.ok
        assert result.attempts == 3
        assert result.value == {"calls": 3}

    def test_budget_exhaustion_reports_attempts(self, tmp_path):
        scratch = tmp_path / "flaky.txt"
        spec = spec_for("fl", "flaky",
                        args={"scratch": str(scratch), "fail_times": 5},
                        retries=1)
        (result,) = run_jobs([spec], jobs=2)
        assert result.status == "error"
        assert result.attempts == 2

    def test_serial_retries(self, tmp_path):
        scratch = tmp_path / "flaky.txt"
        spec = spec_for("fl", "flaky",
                        args={"scratch": str(scratch), "fail_times": 1},
                        retries=1)
        (result,) = run_jobs([spec], jobs=1)
        assert result.ok and result.attempts == 2


class TestTimeouts:
    def test_hanging_job_times_out_and_sweep_continues(self):
        specs = [spec_for("slow", "sleepy", args={"seconds": 30.0},
                          timeout_s=0.5)]
        specs += tiny_suite()
        results = run_jobs(specs, jobs=2)
        assert results[0].status == "timeout"
        assert "timed out after 0.500s" in results[0].error
        assert all(r.ok for r in results[1:])

    def test_fast_job_beats_its_timeout(self):
        spec = spec_for("quick", "sleepy", args={"seconds": 0.01},
                        timeout_s=30.0)
        (result,) = run_jobs([spec], jobs=2)
        assert result.ok


class TestHashSeedIndependence:
    """Same sweep, different PYTHONHASHSEED -> byte-identical values.

    Crosses a real process boundary (hash randomization is fixed per
    interpreter): the sweep runs in a subprocess per hash seed, with
    workers spawned from it, and the canonical JSON of all results must
    match bit-for-bit.
    """

    SCRIPT = (
        "import sys\n"
        "from repro.bench import run_jobs, canonical_json\n"
        "from repro.bench._testing import tiny_suite\n"
        "results = run_jobs(tiny_suite(), jobs=2)\n"
        "sys.stdout.write(canonical_json("
        "[[r.name, r.status, r.value] for r in results]))\n"
    )

    def run_with_hashseed(self, tmp_path, hashseed: str) -> str:
        script = tmp_path / f"sweep_{hashseed}.py"
        script.write_text(self.SCRIPT)
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hashseed
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        result = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_sweep_independent_of_hash_randomization(self, tmp_path):
        first = self.run_with_hashseed(tmp_path, "0")
        second = self.run_with_hashseed(tmp_path, "1")
        assert first, "sweep produced no output"
        assert first == second


class TestSimulatorJobs:
    def test_mini_session_parity(self):
        # A real simulator run through the worker boundary returns the
        # exact counters of the in-process run.
        spec = spec_for("mini", "mini_session", args={"ops": 4}, seed=11)
        (serial,) = run_jobs([spec], jobs=1)
        (parallel,) = run_jobs([spec], jobs=2)
        assert serial.ok and parallel.ok
        assert canonical_json(serial.value) == canonical_json(parallel.value)
        assert serial.value["reads"] >= 4
