"""Search evaluations over the stored benchmark corpus.

bcd_solve starts each rate-block line search from the ceiling of the previous
rate solve, cuts the rate block's cold bracket from below, never solves a
block twice on the same input and restarts each multi-start run once, at 1.25
times its result.  The inclusion block needs no line search: its exact
piecewise search reads the derivative and the closed form of each piece off
its water-fills.  None of that shows in a plan, so these guards count, over
one solve of each corpus instance, the evaluations of every `_golden_min`
line search (the rate block's alone) and the water-fills of the exact
inclusion searches, and fail when either climbs back.  The line-search count
was 28,081 without the first three measures, 22,023 with the repeat table
alone, 16,266 with a second restart at 0.8 times the result, and 15,341 while
golden section also solved the inclusion block (7,296 of them inclusion
evaluations).
"""

from pathlib import Path

from vflsim import scheduler

CORPUS = Path(__file__).resolve().parents[1] / "benchmarks" / "corpus"
MEASURED = 8_195  # the count when golden section was left to the rate block
MEASURED_FILLS = 892  # water-fills of the exact inclusion searches, when introduced


def solve_corpus():
    paths = sorted(CORPUS.glob("*.txt"))
    assert len(paths) == 31
    for path in paths:
        scheduler.bcd_solve(scheduler.load_instance(path))


def test_corpus_line_search_evaluations_stay_near_measured(monkeypatch):
    evaluations = [0]
    golden = scheduler._golden_min

    def counted(fn, *args, **kwargs):
        def fn_counted(x):
            evaluations[0] += 1
            return fn(x)
        return golden(fn_counted, *args, **kwargs)

    monkeypatch.setattr(scheduler, "_golden_min", counted)
    solve_corpus()
    print(f"corpus line-search evaluations: {evaluations[0]} (measured {MEASURED})")
    assert evaluations[0] <= MEASURED * 1.05


def test_corpus_inclusion_water_fills_stay_near_measured(monkeypatch):
    fills, fallbacks = [0], [0]
    evaluate = scheduler._InclusionPsi.__call__
    bisection = scheduler._waterfill_bisection

    def fill_counted(self, *args, **kwargs):
        fills[0] += 1
        return evaluate(self, *args, **kwargs)

    def bisection_counted(*args):
        fallbacks[0] += 1
        return bisection(*args)

    monkeypatch.setattr(scheduler._InclusionPsi, "__call__", fill_counted)
    monkeypatch.setattr(scheduler, "_waterfill_bisection", bisection_counted)
    solve_corpus()
    # the fallback is reported, not guarded: it ran 19 times per pass under
    # golden section, all on the two dense instances
    print(f"corpus inclusion water-fills: {fills[0]} (measured {MEASURED_FILLS}); "
          f"water-fill bisection fallbacks: {fallbacks[0]}")
    assert fills[0] <= MEASURED_FILLS * 1.05
