"""Command-line entry point: ``python -m repro.bench`` / ``repro-bench``.

Usage::

    repro-bench run [--suite tier1] [--jobs N] [--out BENCH_tier1.json]
                    [--journal sweep.jsonl] [--compare BENCH_baseline.json]
                    [--seed N]
    repro-bench compare CURRENT BASELINE [--format text|json]
    repro-bench schemes

Exit codes: 0 clean; 1 gate failure (failed jobs, simulated-counter
drift, missing benchmarks); 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.executor import run_jobs
from repro.cli_common import EXIT_USAGE, common_parent
from repro.bench.report import (
    build_report,
    compare_reports,
    load_report,
    render_comparison,
    write_report,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=("Run benchmark suites on the repro.bench executor "
                     "and gate simulated-counter drift against a "
                     "committed baseline."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # --seed / --out / --format come from the shared repro.cli_common
    # parent so they are spelled identically across the repro-* tools.
    run_p = sub.add_parser(
        "run", help="run a suite, write a BENCH report, optionally gate",
        parents=[common_parent(
            seed=True, seed_help="suite seed (default: the suite's own)",
            out=True, out_default="BENCH_tier1.json",
            out_help="report path (default: BENCH_tier1.json)")])
    run_p.add_argument("--suite", default="tier1",
                       help="suite name or 'pkg.module:callable' factory "
                            "(default: tier1)")
    run_p.add_argument("--jobs", type=int, default=1,
                       help="parallel worker processes (default: 1)")
    run_p.add_argument("--journal", default=None,
                       help="JSONL checkpoint: completed jobs are skipped "
                            "on rerun")
    run_p.add_argument("--compare", default=None, metavar="BASELINE",
                       help="gate the fresh report against this baseline")

    cmp_p = sub.add_parser(
        "compare", help="gate an existing report against a baseline",
        parents=[common_parent(formats=("text", "json"))])
    cmp_p.add_argument("current", help="BENCH report to check")
    cmp_p.add_argument("baseline", help="baseline BENCH report")

    sub.add_parser(
        "schemes",
        help="print the registered caching-scheme catalogue")
    return parser


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------
def _cmd_run(args) -> int:
    from repro.bench.suite import load_suite  # heavy: imports the simulator

    try:
        specs = (load_suite(args.suite) if args.seed is None
                 else load_suite(args.suite, seed=args.seed))
    except ValueError as exc:
        print(f"repro-bench: {exc}", file=sys.stderr)
        return EXIT_USAGE

    def progress(result):
        if result.ok:
            cached = " (journal)" if result.cached else ""
            print(f"  {result.name}: ok in {result.wall_time_s:.3f}s "
                  f"[{result.attempts} attempt(s)]{cached}")
        else:
            print(f"  {result.name}: {result.status.upper()} after "
                  f"{result.attempts} attempt(s): {result.error}")

    print(f"running suite {args.suite!r} "
          f"({len(specs)} job(s), --jobs {args.jobs})")
    results = run_jobs(specs, jobs=args.jobs, journal=args.journal,
                       progress=progress)

    seeds = sorted({s.seed for s in specs if s.seed is not None})
    report = build_report(
        results, seed=seeds[0] if len(seeds) == 1 else None)
    write_report(report, args.out)
    print(f"wrote {args.out}")

    status = 0
    if any(not result.ok for result in results):
        failed = ", ".join(r.name for r in results if not r.ok)
        print(f"repro-bench: job(s) failed: {failed}", file=sys.stderr)
        status = 1

    if args.compare is not None:
        comparison = compare_reports(report, load_report(args.compare))
        print(render_comparison(comparison))
        status = max(status, comparison.exit_code())
    return status


def _cmd_compare(args) -> int:
    comparison = compare_reports(
        load_report(args.current), load_report(args.baseline))
    if args.format == "json":
        json.dump(comparison.to_dict(), sys.stdout, indent=2,
                  sort_keys=True)
        print()
    else:
        print(render_comparison(comparison))
    return comparison.exit_code()


def _cmd_schemes(args) -> int:
    from repro.schemes import available  # heavy: imports the simulator

    catalogue = available()
    width = max(len(name) for name, _ in catalogue)
    for name, description in catalogue:
        print(f"{name.ljust(width)}  {description}")
    return 0


COMMANDS = {"run": _cmd_run, "compare": _cmd_compare,
            "schemes": _cmd_schemes}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"repro-bench: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
