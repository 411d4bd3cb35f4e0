#!/usr/bin/env python
"""Fault matrix: a randomized fault plan must end clean and replay exactly.

For the given seed this script:

1. builds a randomized :class:`FaultPlan` (crash + restart + message
   drop/delay + storage brownout) over a 6-node cluster,
2. runs the canonical fault scenario with a protocol-event flight
   recorder attached (it does not change the fingerprint) and takes the
   run's :func:`repro.verify.check_run` verdict,
3. runs it again in-process and in subprocesses under PYTHONHASHSEED=0
   and =1, and compares the full outcome fingerprints (request counts,
   failure declarations, recoveries, injector log, coherence verdict,
   telemetry bytes, shard table).

With ``--topology`` the same randomized schedule runs against a named
preset from :mod:`repro.shard.topologies`: crashes are re-targeted at a
shard *leader* (the shard index cycles with the seed) and regional
presets also partition one region mid-run.  With ``--scheme`` any
registered caching scheme runs instead of Concord, held to its own
invariants.

On any failure the plan, a report, the flight recording and the
fingerprint dumps land in ``--artifacts``, and the cell replays locally
with the same arguments.

Usage::

    PYTHONPATH=src python scripts/fault_matrix.py [--seed N]
        [--topology NAME] [--scheme NAME] [--artifacts DIR]
"""

import argparse
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.faults.plan import FaultPlan, RegionPartition  # noqa: E402
from repro.faults.scenario import run_fault_scenario  # noqa: E402
from repro.schemes import available_names  # noqa: E402
from repro.shard.router import ShardRouter  # noqa: E402
from repro.shard.topologies import TOPOLOGIES  # noqa: E402

NUM_NODES = 6
DURATION_MS = 8000.0
RPS = 30.0

#: Printed by the subprocess replay before the fingerprint, so the parent
#: finds it in stdout regardless of warnings/log noise.
MARKER = "===FINGERPRINT==="

REPLAY_SNIPPET = """\
import sys
sys.path.insert(0, sys.argv[1])
import fault_matrix
out = fault_matrix.run_cell(int(sys.argv[2]), sys.argv[3], sys.argv[4])
print({marker!r})
sys.stdout.write(repr(out.fingerprint()))
"""


def build_plan(seed: int, topology: str = "flat") -> FaultPlan:
    node_ids = [f"node{i}" for i in range(NUM_NODES)]
    plan = FaultPlan.random(
        seed=seed, node_ids=node_ids, horizon_ms=DURATION_MS,
        crashes=1, restart=True, drops=1, delays=1, brownouts=1,
    )
    topo = TOPOLOGIES[topology]
    if topo.shards is None:
        return plan
    # Shard-aware targeting: aim every crash/restart at a shard leader
    # (which shard cycles with the seed, so the nightly sweep visits
    # different leaders) instead of the random victim.
    router = ShardRouter(node_ids, num_shards=topo.shards,
                         replication=topo.replication)
    leader = router.leader_of(seed % topo.shards)
    events = [
        replace(event, node=leader)
        if event.kind in ("NodeCrash", "NodeRestart") else event
        for event in plan.events
    ]
    if topo.regions is not None:
        region = f"region{seed % topo.regions}"
        events.append(RegionPartition(
            at_ms=0.45 * DURATION_MS, duration_ms=600.0, region=region))
    return FaultPlan(events=tuple(events), seed=seed)


def run_cell(seed: int, topology: str = "flat", scheme: str = "concord",
             obs=None):
    """One matrix cell's :class:`ScenarioOutcome`."""
    return run_fault_scenario(
        build_plan(seed, topology), seed=seed, num_nodes=NUM_NODES,
        duration_ms=DURATION_MS, rps=RPS, obs=obs, scheme=scheme,
        **TOPOLOGIES[topology].scenario_kwargs())


def subprocess_fingerprint(seed: int, topology: str, scheme: str,
                           hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", REPLAY_SNIPPET.format(marker=MARKER),
         str(Path(__file__).resolve().parent), str(seed), topology, scheme],
        env=env, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"replay under PYTHONHASHSEED={hashseed} failed:\n{proc.stderr}")
    return proc.stdout.split(MARKER + "\n", 1)[1]


def check_cell(seed: int, topology: str, scheme: str) -> tuple:
    """Run one cell: ``(problems, fingerprints, flight recording)``, the
    fingerprints as label -> repr."""
    cell = f"seed {seed}/{topology}/{scheme}"
    print(f"[{cell}] plan: {', '.join(build_plan(seed, topology).kinds())}")
    first = run_cell(seed, topology, scheme, obs=True)
    problems = list(first.problems)
    fingerprints = {
        "inprocess_a": repr(first.fingerprint()),
        "inprocess_b": repr(run_cell(seed, topology, scheme).fingerprint()),
        "hashseed0": subprocess_fingerprint(seed, topology, scheme, "0"),
        "hashseed1": subprocess_fingerprint(seed, topology, scheme, "1"),
    }
    for label, fingerprint in fingerprints.items():
        if fingerprint != fingerprints["inprocess_a"]:
            problems.append(f"replay {label} diverged from the first run")

    status = "ok" if not problems else "FAIL"
    print(f"[{cell}] completed={first.completed} "
          f"failures_detected={len(first.failures_detected)} "
          f"recoveries={first.recoveries_completed} "
          f"violations={len(first.violations)} "
          f"problems={len(problems)} -> {status}")
    return problems, fingerprints, first.obs_jsonl


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="fault-plan seed (default 0)")
    parser.add_argument("--topology", default="flat",
                        choices=sorted(TOPOLOGIES),
                        help="topology preset to run the plan against "
                             "(default flat)")
    parser.add_argument("--scheme", default="concord",
                        choices=available_names(),
                        help="caching scheme under test (default concord)")
    parser.add_argument("--artifacts", default="fault-artifacts",
                        help="directory for failing plans/reports")
    args = parser.parse_args(argv)

    problems, fingerprints, obs_jsonl = check_cell(
        args.seed, args.topology, args.scheme)
    if not problems:
        return 0

    artifacts = Path(args.artifacts)
    artifacts.mkdir(parents=True, exist_ok=True)
    cell = f"seed{args.seed}_{args.topology}_{args.scheme}"
    build_plan(args.seed, args.topology).save(
        artifacts / f"failing_plan_{cell}.json")
    (artifacts / f"flight_{cell}.jsonl").write_text(obs_jsonl,
                                                    encoding="utf-8")
    for label, dump in sorted(fingerprints.items()):
        (artifacts / f"fingerprint_{cell}_{label}.txt").write_text(
            dump, encoding="utf-8")
    report = {
        "seed": args.seed,
        "topology": args.topology,
        "scheme": args.scheme,
        "num_nodes": NUM_NODES,
        "duration_ms": DURATION_MS,
        "rps": RPS,
        "problems": problems,
    }
    with open(artifacts / f"report_{cell}.json", "w",
              encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print(f"artifacts written to {artifacts}/", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
