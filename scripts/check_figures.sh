#!/usr/bin/env bash
# Regenerate every table of the evaluation at --scale 0.5 and compare
# everything above the wall-time summary (the only part allowed to vary
# between runs) with the recorded copy in tests/experiments/.
#
#   PYTHONHASHSEED=0 PYTHONPATH=src bash scripts/check_figures.sh           # check
#   PYTHONHASHSEED=0 PYTHONPATH=src bash scripts/check_figures.sh --record  # re-record
#
# Exits 1 on a mismatch (printing the diff and the re-record command) and
# on any failing experiment.
set -euo pipefail
cd "$(dirname "$0")/.."

recorded=tests/experiments/run_all_scale05.txt
# The wall-time summary starts at a line of 60 '=' characters.
tables=$(python -m repro.experiments.run_all --scale 0.5 --jobs 2 \
    | sed '/^=\{60\}$/,$d')

if [ "${1:-}" = "--record" ]; then
    printf '%s\n' "$tables" > "$recorded"
    echo "recorded $recorded"
    exit 0
fi
if ! diff -u "$recorded" <(printf '%s\n' "$tables"); then
    echo "figure tables differ from $recorded; if the change is intended," \
         "re-record with:"
    echo "  PYTHONHASHSEED=0 PYTHONPATH=src bash scripts/check_figures.sh --record"
    exit 1
fi
echo "figure tables match $recorded"
