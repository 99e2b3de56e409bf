#!/usr/bin/env python3
"""Where bcd_solve's time and evaluations go on each stored corpus instance.

Usage:
    python3 scripts/solver_split.py [CORPUS_DIR [REPEATS]]

For each instance file of CORPUS_DIR (benchmarks/corpus by default), in name
order, it prints the wall time of one solve (the fastest of REPEATS, default
5) and its split between the ceiling scan without the budget, the scan's
pricing of the budget and the alternations; then the run's alternations and
convergence, with its rate evaluations and water-fills.

A last line sums the corpus.  Time with OPENBLAS_NUM_THREADS=1, as the tests
and the benchmark do; compare a time only with a run made back to back.  The
package is imported from the src directory of the checkout that holds this
script.
"""

import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from vflsim import scheduler  # noqa: E402


@contextmanager
def patched(owner, attr, make):
    """owner.attr replaced by make(original) while the block runs."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def counted(counts, key):
    """A wrapper maker that counts the calls of what it wraps under `key`."""
    def make(fn):
        def run(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return run
    return make


def timed(seconds, key):
    """A wrapper maker that adds the wall time of what it wraps to seconds[key]."""
    def make(fn):
        def run(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                seconds[key] += time.perf_counter() - t0
        return run
    return make


def timed_solve(ctx, repeats):
    """(solve, scan, pricing) seconds of the fastest solve; the scan's time
    includes its pricing."""
    best = None
    for _ in range(repeats):
        seconds = {"scan": 0.0, "pricing": 0.0}
        with (patched(scheduler, "_ceiling_scan", timed(seconds, "scan")),
              patched(scheduler, "_budget_priced", timed(seconds, "pricing"))):
            t0 = time.perf_counter()
            scheduler.bcd_solve(ctx)
            total = time.perf_counter() - t0
        if best is None or total < best[0]:
            best = (total, seconds["scan"], seconds["pricing"])
    return best


def split(path, repeats):
    """The report line of one instance, its (solve, scan, pricing) seconds and counts."""
    ctx = scheduler.load_instance(path)
    total, scan, pricing = timed_solve(ctx, repeats)
    counts = {"rate evaluations": 0, "water-fills": 0}
    with (patched(scheduler._RatePhi, "__call__", counted(counts, "rate evaluations")),
          patched(scheduler._InclusionPsi, "__call__", counted(counts, "water-fills"))):
        _, report = scheduler.bcd_solve(ctx)
    line = (f"{path.name}  n={ctx.size} alpha={ctx.alpha:g}  solve {total * 1e3:.2f} ms"
            f" = scan {(scan - pricing) * 1e3:.2f} + pricing {pricing * 1e3:.2f}"
            f" + alternations {(total - scan) * 1e3:.2f};  {report.iterations} alternations"
            f" {'converged' if report.converged else 'at the cap'},"
            f" {counts['rate evaluations']} rate evaluations, {counts['water-fills']} water-fills")
    return line, (total, scan, pricing), counts


def main(argv):
    corpus = Path(argv[1]) if len(argv) > 1 else ROOT / "benchmarks" / "corpus"
    repeats = int(argv[2]) if len(argv) > 2 else 5
    paths = sorted(corpus.glob("*.txt"))
    if not paths:
        print(f"no instance files under {corpus}", file=sys.stderr)
        return 2
    wall = scan = pricing = 0.0
    totals = {"rate evaluations": 0, "water-fills": 0}
    for path in paths:
        line, (t, s, p), counts = split(path, repeats)
        print(line)
        wall, scan, pricing = wall + t, scan + s, pricing + p
        for key, value in counts.items():
            totals[key] += value
    print(f"corpus: {len(paths)} instances, solve {wall * 1e3:.1f} ms = scan"
          f" {(scan - pricing) * 1e3:.1f} + pricing {pricing * 1e3:.1f} + alternations"
          f" {(wall - scan) * 1e3:.1f}; " + ", ".join(f"{v} {k}" for k, v in totals.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
