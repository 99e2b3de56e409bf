"""Plan quality on the stored benchmark corpus.

Every instance of benchmarks/corpus (read only) is solved by bcd_solve at its own
alpha.  The plan must keep the box and the block budget, its trace must never
rise, and its objective may not exceed the one recorded in
tests/data/corpus_objectives.json by more than 1e-9 relative.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from vflsim.scheduler import _ceiling_scan, bcd_solve, load_instance, objective

CORPUS = Path(__file__).resolve().parents[1] / "benchmarks" / "corpus"
RECORDED = json.loads((Path(__file__).parent / "data" / "corpus_objectives.json")
                      .read_text(encoding="utf-8"))["objectives"]


def test_recorded_objectives_cover_the_corpus():
    assert sorted(RECORDED) == sorted(p.name for p in CORPUS.glob("*.txt"))


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_plan_no_worse_than_recorded_and_feasible(name):
    ctx = load_instance(CORPUS / name)
    # stored before dumps carried the dropped ids: none are assumed
    assert ctx.budget_dropped == ()
    plan, report = bcd_solve(ctx)
    u = np.array([plan.inclusion_probs[i] for i in plan.ids])
    rates = np.array([plan.rates[i] for i in plan.ids])
    assert plan.objective_value <= RECORDED[name] * (1.0 + 1e-9)
    assert plan.objective_value == objective(u, rates, ctx)
    assert u.sum() <= ctx.n_blocks * (1.0 + 1e-9)
    assert np.all(u >= ctx.u_min) and np.all(u <= 1.0)
    assert np.all(rates >= ctx.r_min) and np.all(rates <= ctx.r_max)
    assert np.all(np.diff(report.objective_trace) <= 0.0)


def test_scan_candidate_over_the_budget_still_seeds_a_start():
    # the scan's candidate overspends N here; shrunk into the budget it starts
    # the returned run (0.6889), where the floor and parking starts end near
    # 0.768 and dropping the candidate returned 0.7644
    ctx = load_instance(CORPUS / "desk_vrvfl_s12_r0.txt")
    assert _ceiling_scan(ctx, ctx.alpha).sum() > ctx.n_blocks
    plan, _ = bcd_solve(ctx)
    assert plan.objective_value <= 0.69
