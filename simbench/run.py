"""Run one workload of the simulator benchmark and print its metrics.

Usage, from the root of the repository::

    python3 simbench/run.py --workload busy-mesh --seed 0 --seconds 15 --trace 0
    python3 simbench/run.py --workload remote-reads --seed 0 --seconds 15 --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``simbench/README.md`` for the workloads and metrics.  The simulator is
imported from the repository's ``src/`` directory; without it the script
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

WORKLOAD_NAMES = ["busy-mesh", "remote-reads", "store-flood", "paper-figures"]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="host seconds to spend measuring (default 15)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--record-digest", action="store_true",
                        help="run once and store the seed's simulated-statistics "
                             "digest in simbench/digests.json instead of measuring")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"simbench: the simulator sources are missing ({src}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    driver = importlib.import_module("bench_driver")
    if args.record_digest:
        print(driver.record_digest(args.workload, args.seed))
        return 0
    return driver.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
