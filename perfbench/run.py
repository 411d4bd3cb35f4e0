"""perfbench: the repository's benchmark.  One command, every metric.

    python3 perfbench/run.py --seed N [--workload W]... [--rounds R | --seconds S]
                             [--trace 0|1|all] [--out F] [--smoke]
    python3 perfbench/run.py compare A.json B.json

Every round runs in its own fresh, single-threaded interpreter
(``PYTHONHASHSEED=0``), one at a time, rounds interleaved across the
selected workloads so a noisy minute hits them all alike.  Host-side
metrics are medians over the untraced rounds, throughput after scaling
by the host-speed probe (probe.py); simulated metrics repeat exactly and
are checked to.  ``--trace 1`` adds one round under cProfile
for the per-layer table.  Exit status is non-zero when any output is
wrong.  With a single ``--workload`` the last line of standard output is
the JSON object BENCHMARK.json's contract asks for.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import report

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = report.ROOT
#: A single round takes a few seconds; one that takes this long is hung.
ROUND_TIMEOUT_S = 150
DEFAULT_ROUNDS = 5
#: With --seconds, a median still needs this many rounds.
MIN_TIMED_ROUNDS = 4
SMOKE_SCALE = 0.05
#: Share of attempted ops that may fail; the seed commit's value.
MAX_FAILED_SHARE = 0.0
#: Counters a workload must share exactly with its twin (signals are
#: passive; the Sampler adds wheel entries of its own, so `sim_entries`
#: is not among them).
TWIN_KEYS = ("attempted", "completed", "net_messages", "net_bytes",
             "storage_reads", "storage_writes", "cache_ops",
             "sim_mean_ms", "sim_p50_ms", "sim_p99_ms", "sim_latency_samples")


class RoundFailed(Exception):
    pass


def run_round(name: str, seed: int, scale: float, profile: bool) -> dict:
    """One round in a fresh interpreter; returns its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [
        sys.executable, os.path.join(HERE, "round.py"),
        "--workload", name, "--seed", str(seed), "--scale", repr(scale),
        "--profile", str(int(profile)),
        "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC)),
    ]
    try:
        done = subprocess.run(command, env=env, capture_output=True,
                              text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"{name}: round exceeded {ROUND_TIMEOUT_S} s")
    if done.returncode != 0:
        raise RoundFailed(
            f"{name}: round exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(names, seed, scale, rounds, seconds, trace) -> dict:
    """Run every round; ``{workload: {"plain": [...], "traced": round}}``.

    A workload keeps getting untraced rounds until it has ``rounds`` of
    them or, when ``seconds`` is given, until their timed regions add up
    to that long (and there are at least MIN_TIMED_ROUNDS).  A twin that
    was not asked for gets one reference round.
    """
    raw = {name: {"plain": [], "traced": None} for name in names}

    def wants_more(name) -> bool:
        plain = raw[name]["plain"]
        if seconds is not None:
            return (len(plain) < MIN_TIMED_ROUNDS
                    or sum(r["wall_s"] for r in plain) < seconds)
        return len(plain) < rounds

    while any(wants_more(name) for name in names):
        for name in names:
            if wants_more(name):
                raw[name]["plain"].append(run_round(name, seed, scale, False))
    if trace:
        for name in names:
            raw[name]["traced"] = run_round(name, seed, scale, True)
    for name in names:
        twin = raw[name]["plain"][0]["twin"]
        if twin is not None and twin not in raw:
            raw[twin] = {"plain": [run_round(twin, seed, scale, False)],
                         "traced": None}
    return raw


def check(name: str, raw: dict) -> list:
    """Everything wrong with one workload's outputs (empty = correct)."""
    entry = raw[name]
    rounds = entry["plain"] + ([entry["traced"]] if entry["traced"] else [])
    first = report.exact_part(rounds[0])
    problems = []
    problems += [f"invariant violated: {v}" for v in first["violations"]]
    problems += [f"daemon failed: {f}" for f in first["daemon_failures"]]
    failed = first["attempted"] - first["completed"]
    if failed > MAX_FAILED_SHARE * first["attempted"]:
        problems.append(f"{failed} of {first['attempted']} ops failed")
    for index, other in enumerate(rounds[1:], start=2):
        if len(other["slice_s"]) != len(rounds[0]["slice_s"]):
            problems.append(f"round {index} cut the timed region into "
                            "another number of slices than round 1")
        other = report.exact_part(other)
        moved = sorted(k for k in first if first[k] != other.get(k))
        if moved:
            problems.append(
                f"round {index} differs from round 1 in {', '.join(moved)}")
    twin = first["twin"]
    if twin is not None:
        reference = raw[twin]["plain"][0]
        moved = [k for k in TWIN_KEYS if first[k] != reference[k]]
        if moved:
            problems.append(
                f"does not reproduce {twin}: {', '.join(moved)} differ")
    return problems


def summarise(name: str, raw: dict, spec: dict) -> dict:
    entry = raw[name]
    plain, traced = entry["plain"], entry["traced"]
    exact = report.exact_part(plain[0])
    result = {
        "rounds": [{"wall_s": r["wall_s"],
                    "norm_s": sum(report.norm_slices(r)),
                    "setup_s": r["setup_s"],
                    "peak_rss_mb": r["peak_rss_mb"]} for r in plain],
        "exact": exact,
        "failed_share": (exact["attempted"] - exact["completed"])
        / exact["attempted"],
        "end_to_end": report.end_to_end(plain, spec),
        "problems": check(name, raw),
    }
    median_wall = statistics.median(r["wall_s"] for r in plain)
    if traced is not None:
        result["layers"] = traced["layers"]
        result["traced_wall_s"] = traced["wall_s"]
        result["per_layer"] = report.per_layer(plain[0], traced, median_wall)
    if exact["twin"] is not None:
        result["derived"] = {
            "signals.overhead_ratio": median_wall / statistics.median(
                r["wall_s"] for r in raw[exact["twin"]]["plain"])}
    return result


def git_sha() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def contract_line(result: dict, spec: dict, trace: str) -> str:
    """The one-line JSON result BENCHMARK.json's contract defines."""
    if trace == "1":
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in result["per_layer"].items()}
    else:
        metrics = {name: {"value": row["value"], "unit": row["unit"]}
                   for name, row in result["end_to_end"].items()}
    rounds = len(result["rounds"])
    attempted = result["exact"]["attempted"]
    return json.dumps({
        "correct": not result["problems"],
        "attempted": attempted * rounds,
        "failed": (attempted - result["exact"]["completed"]) * rounds,
        "metrics": metrics,
    })


def main(argv) -> int:
    spec = report.load_spec()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return report.compare(argv[1], argv[2], spec)

    known = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=known,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=1009)
    length = parser.add_mutually_exclusive_group()
    length.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS,
                        help="untraced rounds per workload (default "
                             f"{DEFAULT_ROUNDS})")
    length.add_argument("--seconds", type=float, default=None,
                        help="instead: keep adding rounds until their timed "
                             "regions add up to this long")
    parser.add_argument("--trace", choices=("0", "1", "all"), default="all",
                        help="0: end-to-end metrics only; 1: one untraced and "
                             "one cProfile round, per-layer metrics; all: both")
    parser.add_argument("--out", help="write the full result as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 length, one round, traced run included")
    args = parser.parse_args(argv)

    names = args.workload or known
    scale = SMOKE_SCALE if args.smoke else 1.0
    rounds, seconds = args.rounds, args.seconds
    if args.smoke or args.trace == "1":
        rounds, seconds = 1, None
    try:
        raw = measure(names, args.seed, scale, rounds, seconds,
                      trace=args.trace != "0")
    except RoundFailed as failure:
        print(f"perfbench: {failure}", file=sys.stderr)
        return 2

    results = {name: summarise(name, raw, spec) for name in names}
    for name in names:
        report.print_workload(name, results[name], spec)
        for problem in results[name]["problems"]:
            print(f"   WRONG: {problem}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({
                "schema": 1, "seed": args.seed, "scale": scale,
                "git_sha": git_sha(), "python": platform.python_version(),
                "nproc": os.cpu_count(), "machine": platform.platform(),
                "workloads": results,
            }, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if len(names) == 1:
        print(contract_line(results[names[0]], spec, args.trace))
    return 1 if any(r["problems"] for r in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
