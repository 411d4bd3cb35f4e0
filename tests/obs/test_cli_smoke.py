"""End-to-end CLI smoke tests, byte-identical across PYTHONHASHSEEDs.

A tiny simulation exports a trace, a metrics timeline and a flight-
recorder dump in a subprocess pinned to one ``PYTHONHASHSEED``; then
every ``repro-inspect`` subcommand and ``repro-analyze`` run (also as
subprocesses) over the artifacts.  Every byte — exported files and CLI
stdout — must match between hash seeds 0 and 1, which is the strongest
end-to-end statement of the signals' determinism contract.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

GENERATE = """\
from repro.session import Session
from repro.storage import DataItem

with Session(nodes=2, seed=7, scheme="concord", trace="trace.json",
             metrics="metrics.jsonl", obs="dump.jsonl") as s:
    s.preload({f"k{i}": DataItem(f"v{i}", 128) for i in range(4)})
    for i in range(4):
        s.read("node0", f"k{i}")
        s.write("node1", f"k{i}", DataItem(f"w{i}", 128))
    s.advance(500.0)
"""

INSPECT = ["-m", "repro.obs"]


def run_cmd(args, cwd, hashseed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


def generate(workdir: Path, hashseed: str) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "generate.py").write_text(GENERATE)
    generated = run_cmd(["generate.py"], workdir, hashseed)
    assert generated.returncode == 0, generated.stderr


def generate_and_inspect(workdir: Path, hashseed: str) -> dict:
    """One full pipeline under ``hashseed``; returns every observed byte."""
    generate(workdir, hashseed)
    outputs = {name: (workdir / name).read_text()
               for name in ("metrics.jsonl", "trace.json", "dump.jsonl")}
    clis = {
        "breakdown": ["breakdown", "trace.json"],
        "metrics-overview": ["metrics", "metrics.jsonl"],
        "metrics-one": ["metrics", "metrics.jsonl",
                        "--metric", "cache_reads_total"],
        "metrics-json": ["metrics", "metrics.jsonl", "--format", "json"],
        "timeline": ["timeline", "dump.jsonl", "trace.json",
                     "metrics.jsonl"],
        "explain": ["explain", "dump.jsonl", "--key", "k0"],
    }
    for label, args in clis.items():
        completed = run_cmd([*INSPECT, *args], workdir, hashseed)
        assert completed.returncode == 0, (label, completed.stderr)
        assert completed.stdout, label
        outputs[label] = completed.stdout
    analyze = run_cmd(
        ["-m", "repro.analysis", "src/repro/telemetry", "--no-baseline"],
        REPO_ROOT, hashseed)
    assert analyze.returncode == 0, analyze.stdout + analyze.stderr
    outputs["analyze"] = analyze.stdout
    return outputs


@pytest.mark.slow
def test_cli_pipeline_byte_identical_across_hashseeds(tmp_path):
    seed0 = generate_and_inspect(tmp_path / "seed0", "0")
    seed1 = generate_and_inspect(tmp_path / "seed1", "1")
    assert set(seed0) == set(seed1)
    for label in seed0:
        assert seed0[label] == seed1[label], (
            f"{label} differs between PYTHONHASHSEED=0 and 1")
    # Sanity: the artifacts are non-trivial.
    assert seed0["metrics.jsonl"].count("\n") > 10
    assert "cache_reads_total" in seed0["metrics-overview"]
    assert "Time by span category" in seed0["breakdown"]
    timeline = seed0["timeline"].splitlines()[0]
    assert "events=0" not in timeline and "spans=0" not in timeline
    assert "metric_ticks=0" not in timeline
    assert "key=k0" in seed0["explain"]
    assert "0 error(s)" in seed0["analyze"]


@pytest.mark.slow
def test_metrics_cli_error_paths(tmp_path):
    missing = run_cmd([*INSPECT, "metrics", "nope.jsonl"], tmp_path, "0")
    assert missing.returncode == 2
    assert missing.stdout == ""
    assert "error: no such timeline file" in missing.stderr
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not a timeline\n")
    garbled = run_cmd([*INSPECT, "metrics", "bad.jsonl"], tmp_path, "0")
    assert garbled.returncode == 2
    assert "error: bad.jsonl is not JSON" in garbled.stderr
    generate(tmp_path, "0")
    unknown = run_cmd([*INSPECT, "metrics", "metrics.jsonl",
                       "--metric", "no_such_metric"], tmp_path, "0")
    assert unknown.returncode == 1


def test_usage_error_goes_to_stderr_not_out(tmp_path, capsys):
    from repro.obs.cli import main

    report = tmp_path / "rep.txt"
    assert main(["metrics", str(tmp_path / "nosuch.jsonl"),
                 "--out", str(report)]) == 2
    assert report.read_text() == ""
    assert "error: no such timeline file" in capsys.readouterr().err


def test_console_scripts_resolve():
    """Every ``[project.scripts]`` entry names a callable that exists."""
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
