"""Line-search evaluations over the stored benchmark corpus.

bcd_solve starts each block's line search from the ceiling of that block's
previous solve, cuts the rate block's cold bracket from below, never solves
a block twice on the same input and restarts each multi-start run once, at
1.25 times its result.  None of that shows in a plan, which stays within a
few ulps either way, so this guard counts the evaluations of every
`_golden_min` line search over one solve of each corpus instance and fails
when the count climbs back toward full-range searches (28,081 without the
first three, 22,023 with the repeat table alone) or a restart that never
wins returns (16,266 with a second restart at 0.8 times the result).
"""

from pathlib import Path

from vflsim import scheduler

CORPUS = Path(__file__).resolve().parents[1] / "benchmarks" / "corpus"
MEASURED = 15_341  # the count when the 0.8 restart was dropped


def test_corpus_line_search_evaluations_stay_near_measured(monkeypatch):
    evaluations = [0]
    golden = scheduler._golden_min

    def counted(fn, *args, **kwargs):
        def fn_counted(x):
            evaluations[0] += 1
            return fn(x)
        return golden(fn_counted, *args, **kwargs)

    monkeypatch.setattr(scheduler, "_golden_min", counted)
    paths = sorted(CORPUS.glob("*.txt"))
    assert len(paths) == 31
    for path in paths:
        scheduler.bcd_solve(scheduler.load_instance(path))
    print(f"corpus line-search evaluations: {evaluations[0]} (measured {MEASURED})")
    assert evaluations[0] <= MEASURED * 1.05
