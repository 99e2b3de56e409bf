"""bcd_solve's one start against the three starts it replaced.

bcd_solve runs one alternation, from the ceiling scan's candidate priced into
the block budget (the floor start at alpha 0 or 1, or where the scan offers no
candidate).  tests/oracles.py::reference_bcd_solve runs the floor and parking
starts it replaced beside that candidate, one after another, and keeps the
best plan.  On the stored corpus and on drawn contexts the plan must keep the
box and the budget (up to the water-fill's rounding), and its objective may
exceed that best plan's by at most 1e-3 relative.
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
    """Asserts the plan of ctx feasible and within 1e-3 relative of the
    three-start oracle's; returns the report."""
    plan, report = bcd_solve(ctx)
    want, _ = oracles.reference_bcd_solve(ctx)
    assert plan.ids == want.ids
    assert plan.u.sum() <= ctx.n_blocks * (1.0 + 1e-12)
    assert np.all(plan.u >= ctx.u_min) and np.all(plan.u <= 1.0)
    assert np.all(plan.r >= ctx.r_min) and np.all(plan.r <= ctx.r_max)
    assert want.objective_value <= plan.objective_value
    assert plan.objective_value <= want.objective_value + 1e-3 * abs(want.objective_value)
    return report


@pytest.mark.parametrize("name", NAMES)
def test_corpus_solve_equals_the_serial_loop(name):
    report = same_solve(load_instance(CORPUS / name))
    assert report.converged and report.iterations < scheduler._BCD_MAX_ALTERNATIONS


def test_scan_without_a_candidate_leaves_the_floor_start():
    ctx = replace(load_instance(CORPUS / "desk_vrvfl_s11_r0.txt"), alpha=5e-324)
    assert scheduler._ceiling_scan(ctx, ctx.alpha) is None
    plan, report = bcd_solve(ctx)
    trace, u, _, _, _ = scheduler._alternate(ctx, np.full(ctx.size, ctx.u_min))
    assert report.objective_trace == trace and plan.u.tobytes() == u.tobytes()
    same_solve(ctx)


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
