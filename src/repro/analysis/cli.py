"""Command-line entry point: ``python -m repro.analysis`` / ``repro-analyze``.

Usage::

    python -m repro.analysis src/repro            # analyze the tree
    python -m repro.analysis --list-rules         # what is enforced
    python -m repro.analysis --format=json src    # machine-readable
    python -m repro.analysis --write-baseline src # accept current findings

Exit status: 0 when the tree is clean (modulo waivers/baseline), 1 when
any error-severity finding or parse error remains; ``--strict`` also
fails on warnings.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from repro.analysis.engine import Analyzer, Baseline, all_rules
from repro.cli_common import (
    EXIT_OK,
    EXIT_USAGE,
    common_parent,
    run_tool,
)

BASELINE_NAME = "analysis-baseline.json"


def _default_baseline_path(paths: list[Path]) -> Optional[Path]:
    """``analysis-baseline.json`` next to the nearest pyproject.toml."""
    candidates = list(paths) or [Path.cwd()]
    probe = candidates[0].resolve()
    for ancestor in [probe] + list(probe.parents):
        if (ancestor / "pyproject.toml").exists():
            return ancestor / BASELINE_NAME
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description=("Static analysis enforcing simulator determinism, "
                     "RPC and lock discipline and yield-point atomicity "
                     "for the Concord reproduction. "
                     "sarif output emits SARIF 2.1.0 for code-scanning "
                     "upload."),
        parents=[common_parent(formats=("text", "json", "sarif"), out=True)],
    )
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to analyze "
                             "(default: src/repro)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help=f"baseline file (default: {BASELINE_NAME} next "
                             "to pyproject.toml, when present)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write current findings to the baseline file "
                             "and exit 0")
    parser.add_argument("--select", action="append", default=None,
                        metavar="RULE", help="run only these rule ids "
                        "(repeatable)")
    parser.add_argument("--strict", action="store_true",
                        help="treat warnings as failures")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    return parser


def _render_text(report, out) -> None:
    for finding in report.findings:
        print(f"{finding.location}:{finding.col}: {finding.severity} "
              f"{finding.rule} [{finding.symbol or '<module>'}] "
              f"{finding.message}", file=out)
    for path, message in report.parse_errors:
        print(f"{path}: parse-error: {message}", file=out)
    summary = (f"{report.files} files analyzed: "
               f"{len(report.errors)} error(s), "
               f"{len(report.warnings)} warning(s), "
               f"{report.waived} waived, {report.baselined} baselined")
    print(summary, file=out)


def _render_sarif(report, rules, out) -> None:
    """SARIF 2.1.0 — the dialect GitHub code scanning ingests."""
    results = []
    for finding in report.findings:
        results.append({
            "ruleId": finding.rule,
            "level": ("error" if finding.severity == "error" else "warning"),
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path,
                                         "uriBaseId": "%SRCROOT%"},
                    "region": {"startLine": max(finding.line, 1),
                               "startColumn": finding.col + 1},
                },
            }],
        })
    for path, message in report.parse_errors:
        results.append({
            "ruleId": "parse-error",
            "level": "error",
            "message": {"text": message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": path,
                                         "uriBaseId": "%SRCROOT%"},
                    "region": {"startLine": 1, "startColumn": 1},
                },
            }],
        })
    payload = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "repro-analyze",
                "rules": [
                    {
                        "id": rule.id,
                        "name": rule.name,
                        "shortDescription": {"text": rule.description},
                        "defaultConfiguration": {
                            "level": ("error" if rule.severity == "error"
                                      else "warning"),
                        },
                    }
                    for rule in rules
                ],
            }},
            "results": results,
        }],
    }
    json.dump(payload, out, indent=2)
    out.write("\n")


def _render_json(report, out) -> None:
    payload = {
        "files": report.files,
        "errors": len(report.errors),
        "warnings": len(report.warnings),
        "waived": report.waived,
        "baselined": report.baselined,
        "parse_errors": [
            {"path": path, "message": message}
            for path, message in report.parse_errors
        ],
        "findings": [finding.to_dict() for finding in report.findings],
    }
    json.dump(payload, out, indent=2)
    out.write("\n")


def main(argv: Optional[list] = None, out=None) -> int:
    return run_tool(build_parser(), _run, argv, out)


def _run(args, out) -> int:
    if args.list_rules:
        for rule_id, rule in sorted(all_rules().items()):
            print(f"{rule_id}  {rule.name:<22} [{rule.severity}] "
                  f"{rule.description}", file=out)
        return EXIT_OK

    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        # A typo'd path must not produce a green "0 files analyzed" run.
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return EXIT_USAGE
    baseline = Baseline()
    baseline_path = args.baseline or _default_baseline_path(paths)
    if (not args.no_baseline and not args.write_baseline
            and baseline_path is not None and baseline_path.exists()):
        baseline = Baseline.load(baseline_path)

    try:
        analyzer = Analyzer(baseline=baseline, select=args.select)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = analyzer.run(paths)

    if args.write_baseline:
        if baseline_path is None:
            print("error: no pyproject.toml found to anchor the baseline; "
                  "pass --baseline PATH", file=sys.stderr)
            return EXIT_USAGE
        previous = (Baseline.load(baseline_path)
                    if baseline_path.exists() else None)
        Baseline.dump(report.findings, baseline_path, previous=previous)
        print(f"wrote {len(report.findings)} suppression(s) to "
              f"{baseline_path}", file=out)
        return EXIT_OK

    try:
        if args.format == "json":
            _render_json(report, out)
        elif args.format == "sarif":
            _render_sarif(report, analyzer.rules, out)
        else:
            _render_text(report, out)
    except BrokenPipeError:
        # Piped into `head`/`grep -m` which closed early; swap stdout for
        # /dev/null so interpreter shutdown doesn't print a traceback, and
        # still report the analysis verdict via the exit code.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return report.exit_code(strict=args.strict)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
