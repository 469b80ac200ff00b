#!/usr/bin/env python3
"""Serving benchmark entry point.

Run from the root of a checkout::

    python3 servebench/run.py --workload scalar_server --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries the validity fields (host,
sample counts, generator lateness, sheds, transport mix), and the same
record is written under ``.servebench/``. Workloads and metrics are
listed in ``BENCHMARK.json``; see ``servebench/bench.py`` for the run
structure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the run starts its parts as fresh processes with these.
    parser.add_argument("--part", type=int, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--reference", type=Path, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"servebench: the program source ({SRC / 'repro'}) is missing; "
              f"run from the root of a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path[:0] = [str(SRC), str(ROOT)]
    from servebench import bench
    from servebench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    out_dir = ROOT / ".servebench"
    if args.part is not None:
        return bench.part_main(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.part, out_dir,
                               args.reference)
    return bench.main(args.workload, args.seed, args.seconds,
                      bool(args.trace), out_dir)


if __name__ == "__main__":
    sys.exit(main())
