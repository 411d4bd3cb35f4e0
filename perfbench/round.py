"""One round of one workload, in a fresh interpreter; prints one JSON line.

Started by run.py, never by hand: ``--spawned-at`` is the parent's
CLOCK_MONOTONIC reading just before it started this interpreter, so
``setup_s`` covers interpreter start, ``import repro``, all wiring,
preload and input generation up to the first instruction of the timed
region.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import sys
import time


_END = object()


def _seconds(call) -> float:
    mark = time.perf_counter()
    call()
    return time.perf_counter() - mark


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--profile", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    import repro
    from layers import fold
    from probe import probe
    from workloads import WORKLOADS

    # The program measured must be this checkout's, not an installed copy.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    source = os.path.realpath(repro.__file__)
    if not source.startswith(os.path.realpath(os.path.join(root, "src"))):
        print(f"repro imported from {source}, not from {root}/src",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    run = workload.build(args.seed, args.scale)
    gc.collect()
    gc.freeze()
    profile = cProfile.Profile() if args.profile else None
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    # Slice i of the timed region is the same work in every round of a
    # seed, and the probe beside it says how fast the host was just then
    # (probe.py); report.norm_wall_s puts the two together.  A profiled
    # round runs no more probes: they would show in the layer table.
    probe_s = [_seconds(probe)]
    slice_s = []
    slices = run.slices()
    if profile is not None:
        profile.enable()
    while True:
        mark = time.perf_counter()
        if next(slices, _END) is _END:
            break
        slice_s.append(time.perf_counter() - mark)
        if profile is None:
            probe_s.append(_seconds(probe))
    if profile is not None:
        profile.disable()
    wall_s = sum(slice_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = run.collect()
    out.update(op=workload.op, loop=workload.loop, twin=workload.twin,
               wall_s=wall_s, slice_s=slice_s, probe_s=probe_s,
               setup_s=setup_s, peak_rss_mb=peak_rss_mb)
    if profile is not None:
        out["layers"] = fold(profile)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
