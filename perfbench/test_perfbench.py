"""Self-test of the benchmark: ``python -m pytest perfbench -q``.

Lives beside the benchmark (tier-1's ``testpaths = tests`` is untouched)
and drives it the way a user or the driver does: as a subprocess.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def run_bench(*args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=ROOT)


def test_smoke_prints_every_metric_of_every_workload(tmp_path):
    out = tmp_path / "smoke.json"
    done = run_bench("--smoke", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    assert "WRONG" not in done.stdout
    results = json.loads(out.read_text())["workloads"]
    assert sorted(results) == sorted(w["name"] for w in SPEC["workloads"])
    for name, result in results.items():
        assert result["problems"] == []
        assert result["failed_share"] == 0.0
        for metric, unit in END_TO_END.items():
            row = result["end_to_end"][metric]
            assert row["unit"] == unit
            assert math.isfinite(row["value"]) and row["value"] > 0, metric
            assert f"{metric} " in done.stdout
        assert set(result["per_layer"]) == set(PER_LAYER)
        for metric, value in result["per_layer"].items():
            assert math.isfinite(value), (name, metric)
        shares = sum(value for metric, value in result["per_layer"].items()
                     if metric.endswith(".self_share"))
        assert abs(shares - 1.0) < 0.01
    # Layers a workload never enters show no calls at all.
    for quiet in ("read_hits", "write_sharing"):
        for layer in ("faas", "workloads", "shard"):
            assert results[quiet]["per_layer"][f"{layer}.calls_per_op"] == 0
    assert results["faas_mixed"]["per_layer"]["shard.calls_per_op"] == 0
    assert results["sharded_regions"]["per_layer"]["shard.calls_per_op"] > 0
    assert results["signals_on"]["per_layer"]["trace.spans"] > 0


def test_single_workload_ends_with_the_contract_line():
    for trace, expected in (("0", END_TO_END), ("1", PER_LAYER)):
        done = run_bench("--smoke", "--workload", "write_sharing",
                         "--seed", "7", "--trace", trace)
        assert done.returncode == 0, done.stdout + done.stderr
        line = json.loads(done.stdout.splitlines()[-1])
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True
        assert line["attempted"] >= 1 and line["failed"] == 0
        assert {name: row["unit"] for name, row in line["metrics"].items()
                } == expected
        assert all(math.isfinite(row["value"])
                   for row in line["metrics"].values())


def test_compare_of_a_result_with_itself_agrees(tmp_path):
    out = tmp_path / "one.json"
    done = run_bench("--smoke", "--workload", "read_hits", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    same = run_bench("compare", str(out), str(out))
    assert same.returncode == 0, same.stdout + same.stderr
    assert "worse" not in same.stdout and "changed" not in same.stdout
