#!/usr/bin/env python3
"""Build each prime set in a fresh process; print its build time and peak RSS.

Each descriptor (as in the configs: all, congruence:M:r1+r2, thinned:D:SEED)
is built by `resolve_prime_set(desc, limit)` in its own interpreter, so one
set's peak does not hide another's.  Run from the repository root:

    python scripts/prime_set_memory.py all congruence:4:1 thinned:0.72:7 --limit 1e9

Each line holds the descriptor, the limit, the build seconds and the
process's `ru_maxrss` in MB (KiB / 1024, as perfbench reports it).
"""

import argparse
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# the child prints "seconds peak_rss_mb" for the one set it builds
CHILD = """
import resource, sys, time
from multlab.experiments import resolve_prime_set
start = time.perf_counter()
resolve_prime_set(sys.argv[1], int(sys.argv[2]))
seconds = time.perf_counter() - start
print(seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("descs", nargs="+", metavar="DESC", help="prime-set descriptor")
    parser.add_argument("--limit", type=float, required=True,
                        help="the sets' limit, e.g. 1e9 (an integer value)")
    args = parser.parse_args(argv)
    if args.limit != int(args.limit):
        parser.error(f"--limit must be an integer, got {args.limit}")
    limit = int(args.limit)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    print(f"{'desc':<24} {'limit':>12} {'build_s':>8} {'peak_rss_mb':>12}")
    for desc in args.descs:
        run = subprocess.run([sys.executable, "-c", CHILD, desc, str(limit)],
                             env=env, capture_output=True, text=True)
        if run.returncode:
            sys.stderr.write(run.stderr)
            return run.returncode
        seconds, rss = (float(v) for v in run.stdout.split())
        print(f"{desc:<24} {limit:>12} {seconds:>8.3f} {rss:>12.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
