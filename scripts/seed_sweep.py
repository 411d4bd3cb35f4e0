#!/usr/bin/env python
"""Seed sweep: every seed of a load shape must end clean.

The shapes are :data:`repro.verify.races.SHAPES` (``churn``,
``faas_mixed``, ``sharded_regions``), each a load shape that once exposed
a defect on one of its seeds.  Each seed runs through its load and drain
and is held to :func:`repro.verify.check_run`.  The script prints one
line per seed, each problem under it, and exits 1 naming every dirty
seed.  With no SEED it runs the shape's nightly seeds.

Usage::

    PYTHONPATH=src python scripts/seed_sweep.py SHAPE [SEED ...]
"""

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.verify import check_run  # noqa: E402
from repro.verify.races import SHAPES, drive_shape  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("shape", choices=sorted(SHAPES))
    parser.add_argument("seeds", nargs="*", type=int, metavar="SEED",
                        help="seeds to run (default: the shape's own)")
    args = parser.parse_args(argv)

    dirty = []
    for seed in args.seeds or SHAPES[args.shape][0]:
        s = drive_shape(args.shape, seed)
        problems = check_run(s)
        completed = sum(app.requests_completed for app in s.deployed.values())
        print(f"[{args.shape}] seed {seed}: completed={completed} "
              f"problems={len(problems)} -> "
              f"{'ok' if not problems else 'DIRTY'}", flush=True)
        for problem in problems:
            print(f"    {problem}")
        if problems:
            dirty.append(str(seed))
    if dirty:
        print(f"dirty {args.shape} seeds: " + ", ".join(dirty))
        return 1
    print(f"no dirty {args.shape} seed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
