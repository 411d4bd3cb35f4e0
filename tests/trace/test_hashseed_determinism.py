"""Same seed, different PYTHONHASHSEED -> byte-identical trace exports.

This is the tracing layer's half of the DET01/DET03 contract: nothing in
a span — ids, lane numbers, attribute order, timestamps — may depend on
interpreter hash randomization.  The check must cross a process boundary
(hash randomization is fixed per interpreter), so the traced run executes
in subprocesses with explicitly different PYTHONHASHSEED values.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

#: A mixed-workload-style script: FaaS requests over Concord, the Chrome
#: export printed, so the check covers request/invoke/op/rpc/invalidation
#: spans and the lane assignment.
SCRIPT = """
import sys
from repro.session import Session
from repro.storage import DataItem
from repro.trace import chrome_dumps

with Session(nodes=4, seed=1234, scheme="concord", app="det",
             trace=True) as s:
    s.preload({f"k{i}": DataItem(f"v{i}", 256) for i in range(8)})
    for i in range(8):
        s.read(f"node{i % 4}", f"k{i}")
    for i in range(8):
        s.write(f"node{(i + 1) % 4}", f"k{i}", DataItem(f"w{i}", 256))
    s.advance(2_000.0)
    sys.stdout.write(chrome_dumps(s.tracer))
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


def test_trace_exports_independent_of_hash_randomization():
    first = run_with_hashseed("0")
    second = run_with_hashseed("1")
    assert first, "traced run produced no output"
    assert first == second
