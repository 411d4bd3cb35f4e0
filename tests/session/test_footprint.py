"""What a wired session costs before it runs: heap and imported modules."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import repro
from repro.core import hashring
from repro.session import Session


def test_compose_holds_one_ring_table_per_membership(monkeypatch):
    """A 100-node session's agents all hold one membership view, so they
    share one ring table (copy-on-write) instead of a clone each: the
    cold-memo ring allocations stay under 2 MB (36.6 MB with clones)."""
    monkeypatch.setattr(hashring, "_HASH_MEMO", {})
    tracemalloc.start()
    try:
        session = Session.compose(nodes=100)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    rings = snapshot.filter_traces(
        [tracemalloc.Filter(True, hashring.__file__)])
    held = sum(stat.size for stat in rings.statistics("filename"))
    assert len(session.system.agents) == 100
    assert held <= 2 * 2 ** 20, f"{held / 2 ** 20:.1f} MB in hashring.py"


#: Exporters, the CLIs and their log reader (``repro.cli_common``), the
#: HTML timeline and the model checker: tooling that a simulation run
#: never calls.
TOOLING = (
    "repro.obs.cli", "repro.obs.explain", "repro.obs.export",
    "repro.obs.timeline", "repro.telemetry.export",
    "repro.telemetry.summary", "repro.trace.export", "repro.trace.summary",
    "repro.verify.model", "repro.cli_common", "argparse", "html",
)


def test_runtime_imports_no_tooling():
    """Importing the runtime surface in a fresh interpreter loads none of
    the signal tooling; the package roots load it on first use."""
    probe = (
        "import sys\n"
        "import repro.sim, repro.core, repro.faas, repro.schemes\n"
        "import repro.workloads, repro.session\n"
        "print('\\n'.join(sorted(sys.modules)))\n")
    src = str(Path(repro.__file__).resolve().parents[1])
    loaded = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout.split()
    assert [name for name in TOOLING if name in loaded] == []


def test_package_roots_still_export_their_tooling():
    from repro import obs, telemetry, trace, verify
    from repro.obs.timeline import render_text
    from repro.telemetry.export import jsonl_dumps
    from repro.trace.export import chrome_dumps
    from repro.verify.model import ModelChecker

    assert obs.render_text is render_text
    assert telemetry.jsonl_dumps is jsonl_dumps
    assert trace.chrome_dumps is chrome_dumps
    assert verify.ModelChecker is ModelChecker
    for package in (obs, telemetry, trace, verify):
        for name in package.__all__:
            assert getattr(package, name) is not None
    with pytest.raises(AttributeError):
        obs.no_such_name
