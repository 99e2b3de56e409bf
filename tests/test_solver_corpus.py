"""Plan quality on the stored benchmark corpus.

Every instance of benchmarks/corpus (read only) is solved by bcd_solve at its own
alpha.  The plan must keep the box and the block budget, its trace must never
rise, and its objective may not exceed the one recorded in
tests/data/corpus_objectives.json by more than 1e-9 relative.
"""

import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from instances import random_context
from vflsim import scheduler
from vflsim.scheduler import _ceiling_scan, bcd_solve, load_instance, objective

CORPUS = Path(__file__).resolve().parents[1] / "benchmarks" / "corpus"
RECORDED = json.loads((Path(__file__).parent / "data" / "corpus_objectives.json")
                      .read_text(encoding="utf-8"))["objectives"]
# the instances whose solves scan: interior alpha, budget not pinned
SCANNED = [name for name in sorted(RECORDED)
           if 0.0 < (ctx := load_instance(CORPUS / name)).alpha < 1.0
           and ctx.size * ctx.u_min < ctx.n_blocks]


def test_small_instances_are_random_context_draws():
    # benchmarks/make_corpus.py draws them in this order from one seed-2026 stream;
    # any drift in random_context's arithmetic moves a byte here
    rng = np.random.default_rng(2026)
    for k, n in enumerate((2, 2, 2, 2, 2, 2, 3, 4, 5, 6)):
        stored, drawn = load_instance(CORPUS / f"small_n{n}_{k}.txt"), random_context(rng, n)
        for column in ("ids", "data_sizes", "epsilon", "h_est_sq", "gain", "sojourn",
                       "r_min", "r_max"):
            want, got = getattr(stored, column), getattr(drawn, column)
            assert got.astype(want.dtype).tobytes() == want.tobytes(), (k, column)
        assert (drawn.alpha, drawn.d_total) == (stored.alpha, stored.d_total), k


def test_recorded_objectives_cover_the_corpus():
    assert sorted(RECORDED) == sorted(p.name for p in CORPUS.glob("*.txt"))


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_plan_no_worse_than_recorded_and_feasible(name):
    ctx = load_instance(CORPUS / name)
    # stored before dumps carried the dropped ids: none are assumed
    assert ctx.budget_dropped == ()
    plan, report = bcd_solve(ctx)
    u, rates = plan.u, plan.r
    assert plan.objective_value <= RECORDED[name] * (1.0 + 1e-9)
    assert plan.objective_value == objective(u, rates, ctx)
    assert u.sum() <= ctx.n_blocks * (1.0 + 1e-9)
    assert np.all(u >= ctx.u_min) and np.all(u <= 1.0)
    assert np.all(rates >= ctx.r_min) and np.all(rates <= ctx.r_max)
    assert np.all(np.diff(report.objective_trace) <= 0.0)


def test_scan_candidate_over_the_budget_still_seeds_a_start():
    # the scan without the budget overspends N here (23.24 against 20); priced
    # into the budget, its candidate starts the run, which ends below the
    # 0.6889 that three starts reached by shrinking it and the 0.7644 of
    # dropping it
    ctx = load_instance(CORPUS / "desk_vrvfl_s12_r0.txt")
    assert oracles.reference_ceiling_scan(ctx, ctx.alpha).sum() > ctx.n_blocks
    assert _ceiling_scan(ctx, ctx.alpha).sum() <= ctx.n_blocks
    plan, _ = bcd_solve(ctx)
    assert plan.objective_value <= 0.69


@pytest.mark.parametrize("alpha", [5e-324, 1e-323])
def test_underflowing_alpha_solves_without_warnings(alpha):
    # every weight alpha*D_v/D rounds to 0, which the scan cannot take the log of
    ctx = replace(load_instance(CORPUS / "desk_vrvfl_s11_r0.txt"), alpha=alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        plan, _ = bcd_solve(ctx)
    assert plan.u.sum() <= ctx.n_blocks * (1.0 + 1e-9)
    assert np.all(plan.u >= ctx.u_min) and np.all(plan.u <= 1.0)
    assert np.all(plan.r >= ctx.r_min) and np.all(plan.r <= ctx.r_max)


def refuse_search(monkeypatch):
    """Make every pricing of a ceiling or of the budget, and every search of the
    inclusion block, fail the test."""
    def refuse(*args):
        raise AssertionError("a pinned budget prices nothing and searches no inclusion")

    monkeypatch.setattr(scheduler, "_priced_ceilings", refuse)
    monkeypatch.setattr(scheduler, "_budget_priced", refuse)
    monkeypatch.setattr(scheduler, "_InclusionPsi", refuse)


def assert_pinned_to_the_floor(ctx):
    """|V| u_min >= N: the scan returns the floor, which the unpriced reference
    scan's candidate either is or overspends, and bcd_solve's plan and trace are
    those of the alternation from the floor, whose u stays the floor."""
    assert ctx.size * ctx.u_min >= ctx.n_blocks
    floor = np.full(ctx.size, ctx.u_min)
    want = oracles.reference_ceiling_scan(ctx, ctx.alpha)
    assert want is None or want.sum() > ctx.n_blocks or want.tobytes() == floor.tobytes()
    assert _ceiling_scan(ctx, ctx.alpha).tobytes() == floor.tobytes()
    trace, u, rates, converged, alternations = scheduler._alternate(ctx, floor)
    plan, report = bcd_solve(ctx)
    assert plan.u.tobytes() == u.tobytes() == floor.tobytes()
    assert plan.r.tobytes() == rates.tobytes()
    assert plan.objective_value == trace[-1]
    assert report.objective_trace == trace
    assert (report.iterations, report.converged) == (alternations, converged)


@pytest.mark.parametrize("name", ["dense_vrvfl_s1_r0.txt", "dense_vrvfl_s2_r0.txt"])
def test_pinned_budget_solves_from_the_floor_unpriced(name, monkeypatch):
    # the budget drop keeps |V| = N/u_min vehicles: u >= u_min and sum(u) <= N
    # leave the floor the only feasible point, so the scan returns it unpriced
    # and the alternation never searches the inclusion block
    refuse_search(monkeypatch)
    assert_pinned_to_the_floor(load_instance(CORPUS / name))


def test_drawn_pinned_budgets_solve_from_the_floor_unpriced(monkeypatch):
    # N = n * u_min exactly: a power-of-two u_min keeps the product exact
    rng = np.random.default_rng(27)
    refuse_search(monkeypatch)
    for i in range(12):
        n, u_min = int(rng.integers(2, 13)), (0.0625, 0.125, 0.5)[i % 3]
        assert_pinned_to_the_floor(random_context(rng, n, n_blocks=n * u_min, u_min=u_min))


def test_block_bounds_change_no_byte(monkeypatch):
    # every scan result (an alpha = 1 instance's at 0.4), plan and trace is the
    # same with the block bounds as with every coarse total computed
    def solved(ctx):
        scan_ctx = ctx if 0.0 < ctx.alpha < 1.0 else replace(ctx, alpha=0.4)
        u = _ceiling_scan(scan_ctx, scan_ctx.alpha)
        plan, report = bcd_solve(ctx)
        return (None if u is None else u.tobytes(), plan.u.tobytes(), plan.r.tobytes(),
                plan.objective_value, report.objective_trace, report.iterations,
                report.converged)

    contexts = [load_instance(path) for path in sorted(CORPUS.glob("*.txt"))]
    bounded = [solved(ctx) for ctx in contexts]
    monkeypatch.setattr(scheduler, "_exact_ceilings", oracles.every_ceiling)
    assert [solved(ctx) for ctx in contexts] == bounded


@pytest.mark.parametrize("name", SCANNED)
def test_bounds_skip_the_unpriced_search_in_the_default_regime(name, monkeypatch):
    # about 100 vehicles (default) or 23-40 (desk) against N = 20: the bounds
    # prove the unpriced candidate over N on every VR-VFL instance, the desk
    # ones only once each rider's u is floored interval by interval, so the
    # scan prices the budget without its fine pass; with 2-6 vehicles (small)
    # the budget cannot be overspent and it never skips
    ctx = load_instance(CORPUS / name)
    spy = oracles.FinePassSpy()
    monkeypatch.setattr(scheduler, "np", spy)
    assert _ceiling_scan(ctx, ctx.alpha) is not None
    skips = name.startswith(("default_vrvfl_", "desk_vrvfl_"))
    assert spy.passes == (0 if skips else 1)
