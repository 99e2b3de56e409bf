"""Search evaluations over the stored benchmark corpus.

bcd_solve never solves a block twice on the same input, and runs once from
its one start, with no restart.  Both blocks are solved exactly, without
a line search: the rate block by a bracketed Newton iteration on the
derivative of its reduced objective, the inclusion block by a piecewise search
that reads the derivative and the closed form of each piece off its
water-fills; each water-fill finds its budget multiplier in closed form on one
piece between its breakpoints.  None of that shows in a plan, so these guards
count, over one solve of each corpus instance, the evaluations of the exact
rate searches and the water-fills of the exact inclusion searches, and fail
when either climbs back.  Under golden section the line-search evaluations
were 28,081 before warm starts, a cold-bracket cut and the repeat table,
22,023 with the repeat table alone, 16,266 with all three and a second restart
at 0.8 times the result, 15,341 without that restart (7,296 of them inclusion
evaluations), and 8,195 once golden section was left to the rate block alone.
The water-fills were 863 with both blocks exact and 864 once the multiplier
came from the piece search alone.  With the 1.25x restart and the uniform
start gone and the ceiling scan's candidate starting every interior solve, a
pass makes 1,153 rate evaluations (1,293 before) and 891 water-fills (874
before).

Each interior solve first runs the ceiling scan, which prices only the coarse
ceilings that can hold its minimum; a third guard counts them, against 1,400
per scan (29,400 per pass) before the pruning.  A pinned solve (|V| u_min >= N,
as on the two dense VR-VFL instances) prices none: the floor is the only point
that fits, and the scan returns it first.  That took the count from 9,154 to
8,550, the 301 and 303 ceilings the dense scans priced.

With one start, the ceiling scan's candidate priced into the block budget,
a pass makes 126 rate evaluations and 108 water-fills, where the three
lockstep starts made 1,153 and 891.  A pinned run does not search the
inclusion block, whose one feasible point is the floor it starts from: that
took the water-fills to 106.

Of the coarse ceilings a scan prices, it computes the totals exactly only in
the blocks its bounds do not price out, and none where the bounds prove its
unpriced candidate over N (three of the four default VR-VFL instances): a
fourth guard counts them, 2,244 of the 8,550.
"""

from pathlib import Path

from vflsim import scheduler

CORPUS = Path(__file__).resolve().parents[1] / "benchmarks" / "corpus"
MEASURED = 126  # evaluations of the exact rate searches, with one start
MEASURED_FILLS = 106  # water-fills of the exact inclusion searches; pinned runs make none
MEASURED_CEILINGS = 8_550  # coarse ceilings the ceiling scans price; pinned scans price none
MEASURED_EXACT_CEILINGS = 2_244  # of those, the ones whose totals the scans compute exactly


def solve_corpus():
    paths = sorted(CORPUS.glob("*.txt"))
    assert len(paths) == 31
    for path in paths:
        scheduler.bcd_solve(scheduler.load_instance(path))


def test_corpus_rate_evaluations_stay_near_measured(monkeypatch):
    evaluations = [0]
    evaluate = scheduler._RatePhi.__call__

    def counted(self, ell):
        evaluations[0] += 1
        return evaluate(self, ell)

    monkeypatch.setattr(scheduler._RatePhi, "__call__", counted)
    solve_corpus()
    print(f"corpus rate-search evaluations: {evaluations[0]} (measured {MEASURED})")
    assert evaluations[0] <= MEASURED * 1.05


def test_corpus_inclusion_water_fills_stay_near_measured(monkeypatch):
    fills = [0]
    evaluate = scheduler._InclusionPsi.__call__

    def fill_counted(self, *args, **kwargs):
        fills[0] += 1
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(scheduler._InclusionPsi, "__call__", fill_counted)
    solve_corpus()
    print(f"corpus inclusion water-fills: {fills[0]} (measured {MEASURED_FILLS})")
    assert fills[0] <= MEASURED_FILLS * 1.05


def test_corpus_scan_ceilings_stay_near_measured(monkeypatch):
    priced = [0]
    count = scheduler._priced_ceilings

    def counted(*args):
        kept = count(*args)
        priced[0] += kept
        return kept

    monkeypatch.setattr(scheduler, "_priced_ceilings", counted)
    solve_corpus()
    print(f"corpus coarse ceilings priced by the scan: {priced[0]} (measured {MEASURED_CEILINGS})")
    assert 0 < priced[0] <= MEASURED_CEILINGS * 1.05


def test_corpus_exact_scan_ceilings_stay_near_measured(monkeypatch):
    exact = [0]
    choose = scheduler._exact_ceilings

    def counted(*args):
        kept = choose(*args)
        exact[0] += 0 if kept is None else len(kept)
        return kept

    monkeypatch.setattr(scheduler, "_exact_ceilings", counted)
    solve_corpus()
    print(f"corpus coarse ceilings with exact totals: {exact[0]} "
          f"(measured {MEASURED_EXACT_CEILINGS})")
    assert 0 < exact[0] <= MEASURED_EXACT_CEILINGS * 1.05
