#!/usr/bin/env python3
"""Where bcd_solve's time and evaluations go on each stored corpus instance.

Usage:
    python3 scripts/solver_split.py [CORPUS_DIR [REPEATS]]

For each instance file of CORPUS_DIR (benchmarks/corpus by default), in name
order, it prints:

- the wall time of one solve (the fastest of REPEATS, default 5) and its split
  between the ceiling scan and the alternations;
- each start's alternations and convergence in that solve, with the rate
  evaluations and water-fills the start makes when it runs alone (its own
  block memo, no other start beside it); the winning start is starred;
- the lockstep run's batched calls: rate evaluations, water-fills and
  objective calls, with the per-start evaluations the first two served.

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


@contextmanager
def counting(counts):
    """Counts the calls of the rate evaluation, the water-fill evaluation and the
    objective, and the starts each evaluation call serves."""
    def served(ask):
        # a stacked evaluation maps each start it serves to its point
        return len(ask) if isinstance(ask, dict) else 1

    def rate(fn):
        def counted(self, ell):
            counts["rate calls"] += 1
            counts["rate evaluations"] += served(ell)
            return fn(self, ell)
        return counted

    def fill(fn):
        def counted(self, x, exact=False):
            counts["fill calls"] += 1
            counts["water-fills"] += served(x)
            return fn(self, x, exact)
        return counted

    def objective(fn):
        def counted(*args):
            counts["objective calls"] += 1
            return fn(*args)
        return counted

    with (patched(scheduler._RatePhi, "__call__", rate),
          patched(scheduler._InclusionPsi, "__call__", fill),
          patched(scheduler, "objective", objective)):
        yield counts


def new_counts():
    return dict.fromkeys(("rate calls", "rate evaluations", "fill calls", "water-fills",
                          "objective calls"), 0)


def timed_solve(ctx, repeats):
    """(seconds of the fastest solve, seconds of its ceiling scan)."""
    best = None
    for _ in range(repeats):
        scan = [0.0]

        def timed_scan(fn):
            def run(*args):
                t0 = time.perf_counter()
                try:
                    return fn(*args)
                finally:
                    scan[0] += time.perf_counter() - t0
            return run

        with patched(scheduler, "_ceiling_scan", timed_scan):
            t0 = time.perf_counter()
            scheduler.bcd_solve(ctx)
            total = time.perf_counter() - t0
        if best is None or total < best[0]:
            best = (total, scan[0])
    return best


def split(path, repeats):
    """The report lines of one instance, and its (wall, scan) seconds and lockstep counts."""
    ctx = scheduler.load_instance(path)
    total, scan = timed_solve(ctx, repeats)
    with counting(new_counts()) as lockstep:
        _, report = scheduler.bcd_solve(ctx)
    lines = [f"{path.name}  n={ctx.size} alpha={ctx.alpha:g}  solve {total * 1e3:.2f} ms"
             f" = scan {scan * 1e3:.2f} + alternations {(total - scan) * 1e3:.2f}"]
    starts = scheduler._starts(ctx) if ctx.size else []
    for (name, u0), (alternations, converged) in zip(starts, report.runs):
        with counting(new_counts()) as alone:
            scheduler._alternate(ctx, [u0])
        mark = "*" if name == report.winner else " "
        lines.append(f"  {mark} {name:8s} {alternations:3d} alternations"
                     f" {'converged' if converged else 'at the cap'};  alone"
                     f" {alone['rate evaluations']} rate evaluations,"
                     f" {alone['water-fills']} water-fills")
    lines.append(f"    lockstep {lockstep['rate calls']} rate calls for"
                 f" {lockstep['rate evaluations']} start evaluations,"
                 f" {lockstep['fill calls']} fill calls for {lockstep['water-fills']},"
                 f" {lockstep['objective calls']} objective calls")
    return lines, (total, scan), lockstep


def main(argv):
    corpus = Path(argv[1]) if len(argv) > 1 else ROOT / "benchmarks" / "corpus"
    repeats = int(argv[2]) if len(argv) > 2 else 5
    paths = sorted(corpus.glob("*.txt"))
    if not paths:
        print(f"no instance files under {corpus}", file=sys.stderr)
        return 2
    wall = scan = 0.0
    totals = new_counts()
    for path in paths:
        lines, (t, s), counts = split(path, repeats)
        print("\n".join(lines))
        wall, scan = wall + t, scan + s
        for key, value in counts.items():
            totals[key] += value
    print(f"corpus: {len(paths)} instances, solve {wall * 1e3:.1f} ms = scan {scan * 1e3:.1f}"
          f" + alternations {(wall - scan) * 1e3:.1f};"
          + ",".join(f" {value} {key}" for key, value in totals.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
