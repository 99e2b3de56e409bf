#!/usr/bin/env python3
"""Where bcd_solve's time and evaluations go on each stored corpus instance.

Usage:
    python3 scripts/solver_split.py [CORPUS_DIR [REPEATS]]

For each instance file of CORPUS_DIR (benchmarks/corpus by default), in name
order, it prints the wall time of one solve (the fastest of REPEATS, default
5) and its split between the ceiling scan without the budget, the scan's
pricing of the budget and the alternations; then the run's alternations and
convergence, with its rate evaluations, water-fills and the coarse ceilings
whose unpriced totals its scan computed exactly.  An instance whose budget
pins every u at u_min (|V| u_min >= N) is marked "pinned": its scan returns
that floor before it builds a grid.  One whose scan's block bounds prove the
unpriced candidate over N is marked "certified": that scan goes straight to
pricing the budget, with no exact ceiling.

Then one line per regime (the file name's prefix up to its first "_":
default, dense, desk, small) sums that regime's instances, and a last line
sums the corpus.  Time with OPENBLAS_NUM_THREADS=1, as the tests and the
benchmark do; compare a time only with a run made back to back.  The package
is imported from the src directory of the checkout that holds this script.
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


def recorded(results):
    """A wrapper maker that appends each result of what it wraps to results."""
    def make(fn):
        def run(*args):
            results.append(fn(*args))
            return results[-1]
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
    kept = []  # what each scan's _exact_ceilings returned: None where certified
    with (patched(scheduler._RatePhi, "__call__", counted(counts, "rate evaluations")),
          patched(scheduler._InclusionPsi, "__call__", counted(counts, "water-fills")),
          patched(scheduler, "_exact_ceilings", recorded(kept))):
        _, report = scheduler.bcd_solve(ctx)
    counts["exact ceilings"] = sum(len(k) for k in kept if k is not None)
    pinned = " pinned" if ctx.size * ctx.u_min >= ctx.n_blocks else ""
    certified = " certified" if any(k is None for k in kept) else ""
    line = (f"{path.name}  n={ctx.size} alpha={ctx.alpha:g}{pinned}{certified}  solve"
            f" {total * 1e3:.2f} ms = scan {(scan - pricing) * 1e3:.2f} + pricing"
            f" {pricing * 1e3:.2f} + alternations {(total - scan) * 1e3:.2f};"
            f"  {report.iterations} alternations"
            f" {'converged' if report.converged else 'at the cap'},"
            f" {counts['rate evaluations']} rate evaluations, {counts['water-fills']} water-fills,"
            f" {counts['exact ceilings']} exact ceilings")
    return line, (total, scan, pricing), counts


def subtotal(label, rows):
    """The line that sums the (seconds, counts) rows of split's instances."""
    wall, scan, pricing = (sum(seconds[i] for seconds, _ in rows) for i in range(3))
    counts = {key: sum(c[key] for _, c in rows) for key in rows[0][1]}
    return (f"{label}: {len(rows)} instances, solve {wall * 1e3:.1f} ms = scan"
            f" {(scan - pricing) * 1e3:.1f} + pricing {pricing * 1e3:.1f} + alternations"
            f" {(wall - scan) * 1e3:.1f}; " + ", ".join(f"{v} {k}" for k, v in counts.items()))


def main(argv):
    corpus = Path(argv[1]) if len(argv) > 1 else ROOT / "benchmarks" / "corpus"
    repeats = int(argv[2]) if len(argv) > 2 else 5
    paths = sorted(corpus.glob("*.txt"))
    if not paths:
        print(f"no instance files under {corpus}", file=sys.stderr)
        return 2
    regimes = {}
    for path in paths:
        line, seconds, counts = split(path, repeats)
        print(line)
        regimes.setdefault(path.name.split("_")[0], []).append((seconds, counts))
    for regime, rows in sorted(regimes.items()):
        print(subtotal(regime, rows))
    print(subtotal("corpus", [row for rows in regimes.values() for row in rows]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
