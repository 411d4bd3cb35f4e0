"""Turn rounds into named metrics, print them, and compare two result files.

Metric names, units, directions and bounds come from BENCHMARK.json, the
one place they are frozen; this module only computes the values.
"""

from __future__ import annotations

import json
import os
import statistics

from layers import DRIVER, LAYERS, OTHER
from probe import PROBE_NOMINAL_S

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Host-side numbers of a round; everything else a round reports is
#: simulated and must repeat exactly.
HOST_KEYS = ("wall_s", "slice_s", "probe_s", "setup_s", "peak_rss_mb",
             "layers")
#: Same-code set-up times differ by a few hundredths of a second whatever
#: the median; `compare` ignores differences below this.
SETUP_FLOOR_S = 0.05


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def is_exact(metric: str) -> bool:
    """Simulated end-to-end metrics repeat exactly for one seed."""
    return metric.startswith("sim_")


def exact_part(round_result: dict) -> dict:
    return {k: v for k, v in round_result.items() if k not in HOST_KEYS}


def norm_slices(round_result: dict) -> list:
    """One round's slice times in seconds of the nominal host.

    Each slice's wall time is scaled by how much slower than nominal the
    two probes beside it ran (probe.py).
    """
    probes = round_result["probe_s"]
    return [seconds * PROBE_NOMINAL_S / ((before + after) / 2)
            for seconds, before, after
            in zip(round_result["slice_s"], probes, probes[1:])]


def norm_wall_s(rounds: list) -> float:
    """The timed region in nominal-host seconds, all rounds pooled.

    Slice *i* is the same work in every round of one seed, so the rounds
    give as many estimates of its cost; their median drops the rounds in
    which a burst hit the slice and missed its probes, or the reverse.
    """
    return sum(map(statistics.median, zip(*map(norm_slices, rounds))))


def end_to_end(rounds: list, spec: dict) -> dict:
    """``{metric: {value, unit, n, min, max, median, spread, resolved}}``.

    ``value`` is the median over the rounds, except for throughput, which
    is ops over :func:`norm_wall_s` (README, "Noise"); its ``min`` ...
    ``spread`` describe the rounds one by one.
    """
    first = rounds[0]
    samples = {
        "ops_per_norm_s": [r["completed"] / sum(norm_slices(r))
                           for r in rounds],
        "setup_s": [r["setup_s"] for r in rounds],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
        "sim_mean_ms": [first["sim_mean_ms"]],
        "sim_p99_ms": [first["sim_p99_ms"]],
        "sim_goodput_ops_s": [first["sim_goodput_ops_s"]],
    }
    out = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = samples[name]
        median = statistics.median(values)
        spread = 0.0
        if len(values) > 1:
            low, _, high = statistics.quantiles(
                values, n=4, method="inclusive")
            spread = (high - low) / median
        out[name] = {
            "value": (first["completed"] / norm_wall_s(rounds)
                      if name == "ops_per_norm_s" else median),
            "unit": metric["unit"], "n": len(values), "min": min(values),
            "max": max(values), "median": median, "spread": spread,
            "resolved": spread <= metric["bound"],
        }
    return out


def per_layer(plain: dict, traced: dict, plain_wall_s: float) -> dict:
    """Every per-layer metric value by name, from one traced round.

    ``plain`` is an untraced round of the same seed (its public counters
    are exact, so any round will do); ``plain_wall_s`` is the untraced
    median wall time, the base of the two host-time ratios.
    """
    ops = plain["completed"]
    table = traced["layers"]
    total_s = sum(row["self_s"] for row in table.values())
    out = {}
    for layer in LAYERS:
        row = table[layer]
        out[f"{layer}.self_us_per_op"] = row["self_s"] / ops * 1e6
        out[f"{layer}.self_share"] = row["self_s"] / total_s
        out[f"{layer}.calls_per_op"] = row["calls"] / ops
        out[f"{layer}.calls_in_per_op"] = row["calls_in"] / ops
    out[f"{DRIVER}.self_share"] = table[DRIVER]["self_s"] / total_s
    out[f"{OTHER}.self_share"] = table[OTHER]["self_s"] / total_s
    cache_ops = plain["cache_reads"] + plain["cache_writes"]
    out.update({
        "sim.entries_per_op": plain["sim_entries"] / ops,
        "sim.wall_ns_per_entry": plain_wall_s / plain["sim_entries"] * 1e9,
        "net.messages_per_op": plain["net_messages"] / ops,
        "net.bytes_per_op": plain["net_bytes"] / ops,
        "net.dropped": plain["net_dropped"],
        "storage.reads_per_op": plain["storage_reads"] / ops,
        "storage.writes_per_op": plain["storage_writes"] / ops,
        "caching.local_hit_ratio": plain["read_mix"]["local_hit"],
        "caching.remote_hit_ratio": plain["read_mix"]["remote_hit"],
        "caching.miss_ratio": plain["read_mix"]["remote_miss"],
        "caching.evictions": plain["evictions"],
        "core.invalidations_per_write": plain["invalidations_per_write"],
        "core.version_checks_per_op": plain["version_checks"] / cache_ops,
        "coord.failures_detected": plain["coord_failures_detected"],
        "shard.rehomes": plain["shard_rehomes"],
        "faas.cold_starts": plain["cold_starts"],
        "faas.requests_rescheduled": plain["requests_rescheduled"],
        "faas.storage_fraction": plain["storage_fraction"],
        "trace.spans": plain["trace_spans"],
        "telemetry.samples": plain["telemetry_samples"],
        "obs.events_recorded": plain["obs_events_recorded"],
        "profile.overhead_ratio": traced["wall_s"] / plain_wall_s,
    })
    return out


def _number(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def print_workload(name: str, result: dict, spec: dict) -> None:
    rounds = result["rounds"]
    exact = result["exact"]
    print(f"== {name}: one op = one {exact['op']}; loop {exact['loop']}; "
          f"{len(rounds)} untraced round(s)")
    print(f"   attempted={exact['attempted']} completed={exact['completed']} "
          f"failed_share={result['failed_share']:.6g} "
          f"last_completion_ms={exact['last_completion_ms']:.1f} "
          f"latency_samples={exact['sim_latency_samples']}")
    print(f"   sim_fingerprint {exact['sim_fingerprint']}")
    # Not a bounded metric: on hit-dominated closed loops the modelled
    # median is one constant of the latency model on every seed.
    print(f"   {'sim_p50_ms':<20}{exact['sim_p50_ms']:.6f} ms  "
          "(simulated, exact, informational)")
    # Not a bounded metric either: the host's speed moves by half in
    # phases longer than a run (README, "Noise").
    raw = sorted(exact["completed"] / r["wall_s"] for r in rounds)
    print(f"   {'ops_per_wall_s':<20}{statistics.median(raw):.6g} op/s  "
          f"(unnormalised, informational) min={raw[0]:.6g} max={raw[-1]:.6g}")
    for metric in spec["end_to_end"]:
        row = result["end_to_end"].get(metric["name"])
        if row is None:
            continue
        label = f"   {metric['name']:<20}"
        if is_exact(metric["name"]):
            print(f"{label}{row['value']:.6f} {row['unit']}  "
                  "(simulated, exact)")
        else:
            value = (f"{row['value']:.6g}" if row["resolved"]
                     else "unresolved")
            print(f"{label}{value} {row['unit']}  n={row['n']} "
                  f"min={row['min']:.6g} median={row['median']:.6g} "
                  f"max={row['max']:.6g} spread={row['spread']:.3f}"
                  + ("" if row["resolved"]
                     else f" > bound {metric['bound']}"))
    layer_metrics = result.get("per_layer")
    if layer_metrics is None:
        return
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print(f"   {'layer':<10}{'self_us_per_op':>16}{'self_share':>12}"
          f"{'calls_per_op':>14}{'calls_in_per_op':>17}")
    for layer in LAYERS:
        print(f"   {layer:<10}"
              f"{layer_metrics[layer + '.self_us_per_op']:>16.3f}"
              f"{layer_metrics[layer + '.self_share']:>12.4f}"
              f"{layer_metrics[layer + '.calls_per_op']:>14.3f}"
              f"{layer_metrics[layer + '.calls_in_per_op']:>17.3f}")
    for layer in (OTHER, DRIVER):
        print(f"   {layer:<10}{'':>16}"
              f"{layer_metrics[layer + '.self_share']:>12.4f}")
    table_columns = (".self_us_per_op", ".self_share", ".calls_per_op",
                     ".calls_in_per_op")
    for metric, value in layer_metrics.items():
        if not metric.endswith(table_columns):
            print(f"   {metric:<32}{_number(value):>14} {units[metric]}")
    for metric, value in result.get("derived", {}).items():
        print(f"   {metric:<32}{_number(value):>14} ratio")


# -- compare ---------------------------------------------------------------

def _verdict(metric: dict, a: dict, b: dict) -> tuple:
    """(relative change, verdict) of one end-to-end metric, A -> B."""
    change = (b["value"] - a["value"]) / a["value"] if a["value"] else 0.0
    if is_exact(metric["name"]):
        return change, ("identical" if a["value"] == b["value"]
                        else "changed")
    if not (a["resolved"] and b["resolved"]):
        return change, "unresolved"
    if (metric["name"] == "setup_s"
            and abs(b["value"] - a["value"]) < SETUP_FLOOR_S):
        return change, "within-bound"
    worse_by = change if metric["better"] == "lower" else -change
    if worse_by > metric["bound"]:
        return change, "worse"
    if worse_by < -metric["bound"]:
        return change, "better"
    return change, "within-bound"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Print the review table; non-zero when B is worse or changed."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    if (a["seed"], a["scale"]) != (b["seed"], b["scale"]):
        print(f"note: seed/scale differ (A {a['seed']}/{a['scale']}, "
              f"B {b['seed']}/{b['scale']}): simulated metrics will not "
              "be identical")
    bad = 0
    print(f"{'workload':<16}{'metric':<20}{'A':>14}{'B':>14}{'spreadA':>9}"
          f"{'spreadB':>9}{'change':>9}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            ra = wa["end_to_end"][metric["name"]]
            rb = wb["end_to_end"][metric["name"]]
            change, verdict = _verdict(metric, ra, rb)
            bad += verdict in ("worse", "changed")
            print(f"{name:<16}{metric['name']:<20}{ra['value']:>14.6g}"
                  f"{rb['value']:>14.6g}{ra['spread']:>9.3f}"
                  f"{rb['spread']:>9.3f}{change:>+9.3f}  {verdict}")
        for label, va, vb in (
                ("failed_share", wa["failed_share"], wb["failed_share"]),
                ("sim_fingerprint", wa["exact"]["sim_fingerprint"],
                 wb["exact"]["sim_fingerprint"])):
            same = va == vb
            bad += not same
            print(f"{name:<16}{label:<20}{str(va)[:12]:>14}{str(vb)[:12]:>14}"
                  f"{'':>27}  {'identical' if same else 'changed'}")
        la, lb = wa.get("per_layer"), wb.get("per_layer")
        if la and lb:
            moved = [m for m in la if _is_count(m) and la[m] != lb[m]]
            bad += bool(moved)
            print(f"{name:<16}{'exact layer metrics':<20}{'':>55}  "
                  + ("identical" if not moved
                     else "changed: " + ", ".join(moved)))
    return 1 if bad else 0


def _is_count(metric: str) -> bool:
    """Per-layer metrics that are counts, not host time."""
    return not metric.endswith((".self_us_per_op", ".self_share",
                                ".wall_ns_per_entry", ".overhead_ratio"))
