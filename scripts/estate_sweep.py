#!/usr/bin/env python
"""E-state race sweep: seeds 1-30 of each race shape must end with no stale copy.

The shapes are :data:`repro.verify.races.SHAPES`: load shapes on which an
exclusive owner's direct-to-storage write once raced the home and left a
cached copy older than storage.  Each seed runs through
``Session.compose`` with E-state writes on, drains, and has its coherence
invariants checked.  The script prints one line per seed and exits 1
naming every seed that ended stale.

Usage::

    PYTHONPATH=src python scripts/estate_sweep.py
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.verify.races import SHAPES, run_shape  # noqa: E402

SEEDS = range(1, 31)


def main() -> int:
    stale = []
    for shape in SHAPES:
        for seed in SEEDS:
            violations, completed, issued = run_shape(shape, seed)
            verdict = "stale" if violations else "ok"
            print(f"[{shape}] seed {seed}: completed={completed}/{issued} "
                  f"violations={len(violations)} -> {verdict}", flush=True)
            for violation in violations:
                print(f"    {violation}")
            if violations:
                stale.append(f"{shape} seed {seed}")
    if stale:
        print("stale: " + ", ".join(stale))
        return 1
    print("no stale seed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
