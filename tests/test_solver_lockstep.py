"""bcd_solve's lockstep starts, byte for byte against the serial loop they replaced.

bcd_solve runs its starts side by side, one stacked block solve and one
stacked objective per step for every start still running.
tests/oracles.py::reference_bcd_solve runs them one after another, each
block on its own.  The plan (ids, u, r, p and the objective) and the report
(trace, alternations, convergence, the winning start and every start's run)
must carry the same bytes on the stored corpus and on drawn contexts.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from instances import random_context
from test_solver_reference import capped_context
from vflsim import scheduler
from vflsim.scheduler import bcd_solve, load_instance

CORPUS = Path(__file__).resolve().parents[1] / "benchmarks" / "corpus"
NAMES = sorted(p.name for p in CORPUS.glob("*.txt"))


def same_solve(ctx):
    """Asserts the lockstep and serial solves of ctx equal by bytes; returns the report."""
    plan, report = bcd_solve(ctx)
    want_plan, want = oracles.reference_bcd_solve(ctx)
    assert plan.ids == want_plan.ids
    for name in ("u", "r", "p"):
        assert getattr(plan, name).tobytes() == getattr(want_plan, name).tobytes(), name
    assert (np.float64(plan.objective_value).tobytes()
            == np.float64(want_plan.objective_value).tobytes())
    assert (np.array(report.objective_trace, dtype=float).tobytes()
            == np.array(want.objective_trace, dtype=float).tobytes())
    assert (report.iterations, report.converged) == (want.iterations, want.converged)
    assert (report.winner, report.runs) == (want.winner, want.runs)
    return report


@pytest.mark.parametrize("name", NAMES)
def test_corpus_solve_equals_the_serial_loop(name):
    report = same_solve(load_instance(CORPUS / name))
    assert report.runs and report.winner in ("floor", "parking", "scan")
    # no start of a corpus solve stops at the cap
    assert all(alternations < scheduler._BCD_MAX_ALTERNATIONS
               for alternations, _ in report.runs)


def test_shrunk_scan_candidate_is_the_winning_start():
    # tests/test_solver_corpus.py::test_scan_candidate_over_the_budget_still_seeds_a_start
    _, report = bcd_solve(load_instance(CORPUS / "desk_vrvfl_s12_r0.txt"))
    assert report.winner == "scan"
    assert len(report.runs) == 3


def test_scan_without_a_candidate_leaves_two_starts():
    ctx = replace(load_instance(CORPUS / "desk_vrvfl_s11_r0.txt"), alpha=5e-324)
    assert scheduler._ceiling_scan(ctx, ctx.alpha) is None
    report = same_solve(ctx)
    assert len(report.runs) == 2 and report.winner in ("floor", "parking")


@st.composite
def drawn_contexts(draw):
    """random_context draws, n 1-12, with slack or tight budgets, u_min 1e-9, 0.05
    or 1, alpha anywhere or near either end (5e-324 leaves the scan without a
    candidate), sometimes a zero-data vehicle; or the capped context, whose
    vehicle 0 has no data and an R_max past its capacity."""
    alpha = draw(st.one_of(st.floats(0.05, 0.95),
                           st.sampled_from([5e-324, 1e-9, 1e-6, 1.0 - 1e-6, 1.0 - 1e-9])))
    if draw(st.integers(0, 9)) == 0:
        return replace(capped_context(), alpha=alpha)
    n = draw(st.integers(1, 12))
    u_min = draw(st.sampled_from([1e-9, 0.05, 1.0]))
    floor = n * u_min
    tight = draw(st.booleans()) and floor < n
    n_blocks = (draw(st.floats(floor, n, exclude_max=True)) if tight
                else float(draw(st.integers(n, 20))))
    ctx = random_context(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n,
                         alpha=alpha, n_blocks=n_blocks, u_min=u_min)
    if draw(st.booleans()):
        data = ctx.data_sizes.copy()
        data[draw(st.integers(0, n - 1))] = 0.0
        ctx = replace(ctx, data_sizes=data, d_total=max(float(data.sum()), 1.0))
    return ctx


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(drawn_contexts())
@example(capped_context())
def test_drawn_solve_equals_the_serial_loop(ctx):
    same_solve(ctx)
