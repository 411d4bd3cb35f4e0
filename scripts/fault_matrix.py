#!/usr/bin/env python
"""Fault matrix: randomized fault plans must replay deterministically.

For the given seed this script:

1. builds a randomized :class:`FaultPlan` (crash + restart + message
   drop/delay + storage brownout) over a 6-node cluster,
2. runs the canonical fault scenario twice in-process and compares the
   full outcome fingerprint (request counts, failure declarations,
   recovery count, injector log, coherence verdict, telemetry bytes),
3. re-runs the scenario in subprocesses under PYTHONHASHSEED=0 and =1
   and byte-compares the telemetry exports,
4. asserts the run ends coherent (zero invariant violations) with every
   injected crash detected and no recovery still waiting on acks.

On any failure the plan and a report land in ``--artifacts`` (CI uploads
them), so the exact failing schedule replays locally with::

    PYTHONPATH=src python scripts/fault_matrix.py --seed N

With ``--obs`` the first run also carries a protocol-event flight
recorder (provably fingerprint-neutral; the golden identity pins hold it), and on
failure its full dump lands next to the failing plan as
``flight_seed{N}.jsonl`` — ready for ``repro-inspect timeline``.

With ``--topology`` the same randomized schedule runs against a named
preset from :mod:`repro.shard.topologies` — crashes are re-targeted at
a shard *leader* (the shard index cycles with the seed) and regional
presets additionally partition one region mid-run, so the nightly
matrix sweeps the failure modes sharding introduces.

Usage::

With ``--scheme`` the scenario runs any registered caching scheme
instead of Concord — the nightly matrix sweeps the zoo catalogue so
every shipped scheme is exercised (and its own invariants verified)
under randomized crash/recovery schedules.

Usage::

    PYTHONPATH=src python scripts/fault_matrix.py [--seed N]
        [--topology NAME] [--scheme NAME] [--artifacts DIR]
        [--skip-subprocess] [--obs]
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

#: Emitted by the subprocess replay so the parent can extract the
#: telemetry bytes from stdout regardless of warnings/log noise.
MARKER = "===TELEMETRY==="

REPLAY_SNIPPET = """\
import json, sys
from repro.faults.plan import FaultPlan
from repro.shard.topologies import TOPOLOGIES
from repro.faults.scenario import run_fault_scenario

plan = FaultPlan.from_json(sys.argv[1])
topology = TOPOLOGIES[sys.argv[2]]
out = run_fault_scenario(plan, seed=plan.seed, num_nodes={num_nodes},
                         duration_ms={duration}, rps={rps},
                         scheme=sys.argv[3],
                         **topology.scenario_kwargs())
print({marker!r})
sys.stdout.write(out.telemetry_jsonl)
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


def subprocess_telemetry(plan: FaultPlan, topology: str,
                         hashseed: str, scheme: str = "concord") -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    snippet = REPLAY_SNIPPET.format(
        num_nodes=NUM_NODES, duration=DURATION_MS, rps=RPS, marker=MARKER)
    proc = subprocess.run(
        [sys.executable, "-c", snippet, plan.to_json(), topology, scheme],
        env=env, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"replay under PYTHONHASHSEED={hashseed} failed:\n{proc.stderr}")
    return proc.stdout.split(MARKER + "\n", 1)[1]


def check_seed(seed: int, skip_subprocess: bool,
               obs: bool = False, topology: str = "flat",
               scheme: str = "concord") -> tuple:
    """Run the matrix cell for one seed.

    Returns ``(problems, obs_jsonl)`` — the flight-recorder dump is ""
    unless ``obs`` was requested.
    """
    problems = []
    plan = build_plan(seed, topology)
    kwargs = TOPOLOGIES[topology].scenario_kwargs()
    print(f"[seed {seed}/{topology}/{scheme}] plan: {', '.join(plan.kinds())}")

    first = run_fault_scenario(plan, seed=seed, num_nodes=NUM_NODES,
                               duration_ms=DURATION_MS, rps=RPS, obs=obs,
                               scheme=scheme, **kwargs)
    second = run_fault_scenario(plan, seed=seed, num_nodes=NUM_NODES,
                                duration_ms=DURATION_MS, rps=RPS,
                                scheme=scheme, **kwargs)
    if first.fingerprint() != second.fingerprint():
        problems.append("in-process replay diverged (same seed, same plan)")

    crashes = sum(1 for e in plan.events if e.kind == "NodeCrash")
    detected = {node for _t, _app, node in first.failures_detected}
    if len(detected) < crashes:
        problems.append(
            f"{crashes} crash(es) injected but only {sorted(detected)} "
            "declared failed")
    if first.violations:
        problems.append(
            "invariant violations after recovery: "
            + "; ".join(first.violations))
    for member, missing in first.open_recoveries:
        problems.append(
            f"recovery of {member} still waits on acks from {missing}")
    if first.completed == 0:
        problems.append("no requests completed")

    if not skip_subprocess:
        tele0 = subprocess_telemetry(plan, topology, "0", scheme)
        tele1 = subprocess_telemetry(plan, topology, "1", scheme)
        if tele0 != tele1:
            problems.append("telemetry differs between PYTHONHASHSEED 0 and 1")
        if tele0 != first.telemetry_jsonl:
            problems.append("subprocess telemetry differs from in-process run")

    status = "ok" if not problems else "FAIL"
    print(f"[seed {seed}/{topology}/{scheme}] completed={first.completed} "
          f"failures_detected={len(first.failures_detected)} "
          f"recoveries={first.recoveries_completed} "
          f"violations={len(first.violations)} -> {status}")
    return problems, first.obs_jsonl


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
    parser.add_argument("--skip-subprocess", action="store_true",
                        help="skip the PYTHONHASHSEED subprocess replays")
    parser.add_argument("--obs", action="store_true",
                        help="record protocol events; on failure the "
                             "flight-recorder dump is written next to "
                             "the failing plan")
    args = parser.parse_args(argv)

    problems, obs_jsonl = check_seed(args.seed, args.skip_subprocess,
                                     obs=args.obs, topology=args.topology,
                                     scheme=args.scheme)
    if not problems:
        return 0

    artifacts = Path(args.artifacts)
    artifacts.mkdir(parents=True, exist_ok=True)
    cell = f"seed{args.seed}_{args.topology}_{args.scheme}"
    plan = build_plan(args.seed, args.topology)
    plan.save(artifacts / f"failing_plan_{cell}.json")
    if obs_jsonl:
        flight_path = artifacts / f"flight_{cell}.jsonl"
        flight_path.write_text(obs_jsonl, encoding="utf-8")
    report = {
        "seed": args.seed,
        "topology": args.topology,
        "scheme": args.scheme,
        "num_nodes": NUM_NODES,
        "duration_ms": DURATION_MS,
        "rps": RPS,
        "problems": problems,
    }
    report_path = artifacts / f"report_{cell}.json"
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print(f"artifacts written to {artifacts}/", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
