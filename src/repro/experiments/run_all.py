"""Regenerate the paper's entire evaluation in one command.

Usage::

    python -m repro.experiments.run_all [--scale 1.0] [--only fig07,tab1]
    python -m repro.experiments.run_all --jobs 4 [--journal sweep.jsonl]
    python -m repro.experiments.run_all --list

Prints every table/figure as ASCII (the same output the benchmarks show)
and a final summary with per-experiment wall time.

``--jobs N`` fans the sweep out over N ``spawn`` workers with
byte-identical per-experiment output (every experiment is seeded and
hash-seed independent, and results are printed in the fixed experiment
order regardless of completion order).  ``--journal PATH`` checkpoints
completed experiments, one JSON line each keyed by ``(name, scale)``: an
interrupted sweep rerun with the same journal skips everything that
already finished.

A failing experiment does not kill the sweep: the remaining experiments
still run, failures are summarized at the end, and the exit status is
nonzero.  A worker that hard-crashes fails every experiment still in
flight in the pool.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
# Wall clock here only fills the summary table — never simulation input.
import time  # noqa: DET01
from concurrent.futures import ProcessPoolExecutor

from repro.experiments import (
    char_reads,
    fig01_breakdown,
    fig03_version_vs_data,
    fig07_latency,
    fig08_throughput,
    fig09_invalidations,
    fig10_cas,
    fig11_write_scaling,
    fig12_memory,
    fig13_churn,
    fig14_cache_size,
    fig15_transactions,
    fig16_placement,
    fig17_apta,
    fig18_availability,
    fig19_topology,
    fig20_scheme_shootout,
    tab1_sharers,
    tab3_read_mix,
    verify_protocol,
)
from repro.experiments.ablations import (
    run_estate,
    run_faast_annotations,
    run_parallel_inv,
    run_virtual_nodes,
)

#: name -> entry point (ordered roughly by cost).
EXPERIMENTS = {
    "fig01": fig01_breakdown.run,
    "fig03": fig03_version_vs_data.run,
    "char_reads": char_reads.run,
    "verify": verify_protocol.run,
    "fig11": fig11_write_scaling.run,
    "ablation_estate": run_estate,
    "ablation_parallel_inv": run_parallel_inv,
    "ablation_virtual_nodes": run_virtual_nodes,
    "ablation_faast_annotations": run_faast_annotations,
    "fig09": fig09_invalidations.run,
    "fig10": fig10_cas.run,
    "fig12": fig12_memory.run,
    "tab3": tab3_read_mix.run,
    "tab1": tab1_sharers.run,
    "fig14": fig14_cache_size.run,
    "fig07": fig07_latency.run,
    "fig13": fig13_churn.run,
    "fig15": fig15_transactions.run,
    "fig16": fig16_placement.run,
    "fig17": fig17_apta.run,
    "fig18": fig18_availability.run,
    "fig19": fig19_topology.run,
    "fig20": fig20_scheme_shootout.run,
    "fig08": fig08_throughput.run,
}


def run_experiment(name: str, scale: float = 1.0) -> dict:
    """One experiment by name, rendered to ASCII.

    Module-level so spawn workers can re-import it; the rendered text is
    exactly what the driver prints, which is what makes serial and
    parallel sweeps byte-identical per experiment.
    """
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}")
    result = EXPERIMENTS[name](scale=scale)
    return {"name": name, "rendered": result.render()}


def _timed(name: str, scale: float) -> dict:
    """Run one experiment; return its journal record, wall time included."""
    start = time.perf_counter()
    rendered = run_experiment(name, scale)["rendered"]
    return {"name": name, "scale": scale, "rendered": rendered,
            "wall_time_s": time.perf_counter() - start}


def _settle(call) -> tuple:
    """``(record, None)``, or ``(None, error)`` if the call raised."""
    try:
        return call(), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _sweep(names, scale: float, jobs: int):
    """Yield ``(name, record, error)`` per experiment, in ``names`` order."""
    if jobs <= 1 or len(names) <= 1:
        for name in names:
            yield (name, *_settle(lambda: _timed(name, scale)))
        return
    # Spawn children copy os.environ: pin hash randomization before the
    # workers exist.
    os.environ.setdefault("PYTHONHASHSEED", "0")
    with ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = [pool.submit(_timed, name, scale) for name in names]
        for name, future in zip(names, futures):
            yield (name, *_settle(future.result))


def _read_journal(path) -> dict:
    """``(name, scale) -> record`` for every readable journal line."""
    done = {}
    if path is None or not os.path.exists(path):
        return done
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            try:
                record = json.loads(line)
                done[(record["name"], record["scale"])] = record
            except (ValueError, TypeError, KeyError):
                continue  # a torn last line, or not a journal record
    return done


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate every table and figure of the Concord paper.")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="duration/request scale (default 1.0)")
    parser.add_argument("--only", type=str, default=None,
                        help="comma-separated experiment names")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel worker processes (default 1 = "
                             "in-process serial)")
    parser.add_argument("--journal", type=str, default=None,
                        help="JSONL checkpoint: completed experiments are "
                             "skipped when the sweep is rerun")
    parser.add_argument("--list", action="store_true",
                        help="list experiment names and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0

    selected = list(EXPERIMENTS)
    if args.only:
        selected = [name.strip() for name in args.only.split(",")]
        unknown = [n for n in selected if n not in EXPERIMENTS]
        if unknown:
            parser.error(
                f"unknown experiments: {', '.join(unknown)}\n"
                f"valid names: {', '.join(EXPERIMENTS)}")
        repeated = [n for i, n in enumerate(selected) if n in selected[:i]]
        if repeated:
            parser.error(
                f"duplicate experiments: {', '.join(dict.fromkeys(repeated))}")

    journal = _read_journal(args.journal)
    done = {name: journal[name, args.scale] for name in selected
            if (name, args.scale) in journal}
    cached = set(done)
    failed = {}
    for name, record, error in _sweep(
            [name for name in selected if name not in done],
            args.scale, args.jobs):
        if error is not None:
            failed[name] = error
            continue
        done[name] = record
        if args.journal is not None:
            with open(args.journal, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    for name in selected:
        if name in done:
            print(done[name]["rendered"])
            print()

    print("=" * 60)
    print(f"{'experiment':28s} {'wall time':>12s}")
    total_s = 0.0
    for name in selected:
        if name in done:
            wall_s = done[name]["wall_time_s"]
            note = "  (journal)" if name in cached else ""
            print(f"{name:28s} {wall_s:10.1f} s{note}")
            total_s += wall_s
        else:
            print(f"{name:28s} {'FAILED':>12s}")
    print(f"{'total':28s} {total_s:10.1f} s")

    if failed:
        print()
        print(f"{len(failed)} experiment(s) failed:")
        for name, error in failed.items():
            print(f"  {name}: error: {error}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
