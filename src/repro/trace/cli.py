"""Command-line entry point: ``python -m repro.trace`` / ``repro-trace``.

Usage::

    repro-trace out.json                 # Fig. 1-style breakdown table
    repro-trace out.json --format=json   # machine-readable summary
    repro-trace out.json --ops           # only the per-op table
    repro-trace out.json --since 500 --until 1500   # sim-time window

Reads the Chrome trace_event document a ``Tracer`` export writes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from repro.cli_common import (
    EXIT_OK,
    EXIT_USAGE,
    common_parent,
    overlaps_window,
    run_tool,
)
from repro.trace.export import load_trace
from repro.trace.summary import (
    category_totals,
    format_breakdown,
    op_breakdown,
    per_app_requests,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description=("Summarize a repro.trace export (Chrome trace_event) "
                     "into a Fig. 1-style latency-breakdown table."),
        parents=[common_parent(formats=("text", "json"), out=True,
                               window=True)],
    )
    parser.add_argument("trace", type=Path,
                        help="trace file written by Tracer export "
                             "(Chrome trace_event JSON)")
    parser.add_argument("--ops", action="store_true",
                        help="print only the per-op table")
    return parser


def main(argv: Optional[list] = None, out=None) -> int:
    return run_tool(build_parser(), _run, argv, out)


def _run(args, out) -> int:
    if not args.trace.exists():
        print(f"error: no such trace file: {args.trace}", file=sys.stderr)
        return EXIT_USAGE
    try:
        spans = load_trace(args.trace)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {args.trace} is not a repro trace export: {exc}",
              file=sys.stderr)
        return EXIT_USAGE

    if args.since is not None or args.until is not None:
        spans = [span for span in spans
                 if overlaps_window(span.get("start_ms", 0.0),
                                    span.get("end_ms", 0.0),
                                    args.since, args.until)]

    if args.format == "json":
        payload = {
            "spans": len(spans),
            "per_app": per_app_requests(spans),
            "ops": {
                f"{scheme}:{name}": stats
                for (scheme, name), stats in sorted(op_breakdown(spans).items())
            },
            "categories": category_totals(spans),
        }
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
        return EXIT_OK

    if args.ops:
        ops = op_breakdown(spans)
        for (scheme, name), stats in sorted(ops.items()):
            print(f"{scheme:>12}  {name:<8} n={stats['count']:<6} "
                  f"total={stats['total_ms']:.2f}ms "
                  f"mean={stats['mean_ms']:.3f}ms", file=out)
        return EXIT_OK

    print(format_breakdown(spans, title=f"trace: {args.trace}"),
          end="", file=out)
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
