"""Cross-PYTHONHASHSEED byte-identity for the scale grid point.

The ≥100-node / ≥1M-request ``scale_point`` must report byte-identical
simulated counters regardless of interpreter hash randomization (the
DET01/DET03 contract).  Hash randomization is fixed per interpreter, so
the check runs a reduced-scale variant in subprocesses with explicitly
different ``PYTHONHASHSEED`` values and compares canonical JSON output.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

SCRIPT = """
import json
import sys
from repro.experiments.scale import scale_point

counters = scale_point(seed=1009, num_nodes=12, requests_per_node=60,
                       working_set=40)
sys.stdout.write(json.dumps(counters, sort_keys=True, separators=(",", ":")))
"""


def run_with_hashseed(hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_scale_point_counters_independent_of_hash_randomization():
    first = run_with_hashseed("0")
    second = run_with_hashseed("1")
    assert first, "scale point produced no output"
    assert first == second
    assert '"requests_completed":720' in first
