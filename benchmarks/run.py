"""vflsim benchmark: one workload per call, end-to-end metrics or, with --trace 1, per-layer ones.

Run from the repository root:

    python3 benchmarks/run.py --workload desk-compare --seed 1 --seconds 20 --trace 0

The program is imported from ./src of the working directory.  BLAS is pinned to
one thread before numpy loads.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

WORKLOAD_NAMES = ("desk-compare", "dense-scheme1", "solve-corpus")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "vflsim" / "__init__.py").is_file():
        print(f"benchmark: no vflsim package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads
    sys.path.insert(0, str(src))
    import bench_runner  # needs the program on sys.path

    result = bench_runner.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
