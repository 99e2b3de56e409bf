"""Acceptance suite: one test per shipped guarantee, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s

Note on 3b: the curvature certificate of the per-vehicle inclusion cost is
positive on its whole domain (that is 3a, and it is what convexity needs), but
it is NOT monotone there: it diverges at both the zero-rate and the capacity
endpoint.  3b evaluates the textbook "non-increasing" claim on a grid, prints a
concrete counterexample, and asserts that the claim is false on every instance,
with the certificate diverging at both endpoints.
"""

import math
import time

import numpy as np
import pytest

from instances import random_context
from oracles import grid_min_two_vehicle
from vflsim import checks, cli, fl_core
from vflsim.checks import _curvature_instances, curvature_certificate
from vflsim.config import parse_config
from vflsim.scheduler import bcd_solve
from vflsim.sim import Experiment


def report(tag, ok, detail):
    print(f"\nACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({detail})")


def accept(number, check):
    """Report a shared self-check as an acceptance line and assert each of its conditions."""
    report(f"{number} {check.name}", check.ok, check.detail)
    for condition, held in check.conditions.items():
        assert held, condition


def test_criterion_1_outage_closed_form():
    accept("1", checks.outage_closed_form())


def test_criterion_2_channel_statistics():
    accept("2", checks.fading_statistics())


def test_criterion_3a_inclusion_cost_convexity_and_certificate_positivity():
    accept("3a", checks.inclusion_cost_convexity())


def _certificate_grid():
    """Positions t in (0, 1), geometrically refined toward both ends; f = 1 + (xi3/xi1) t."""
    ends = np.geomspace(1e-9, 0.5, 200)
    return np.concatenate([ends, 1.0 - ends[-2::-1]])


def test_criterion_3b_certificate_monotonicity_as_claimed():
    """Claim: the certificate is non-increasing across (1, 1 + xi3/xi1).  It is false.

    With E = exp(xi1 - xi3/(f-1)) the certificate is f/(f^2-1) (1+E)/(1-E) - 1/xi3.
    The first factor diverges as f -> 1 and the second as f -> 1 + xi3/xi1 (E -> 1),
    and a function tending to +inf at both ends of an open interval cannot be
    non-increasing.  The test evaluates the claim on a grid, prints a
    counterexample, and asserts the refutation on every instance together with
    the divergence at both ends: each end exceeds the interior minimum by at
    least 1.7e2 (f -> 1) and 2e9 (capacity end).
    """
    low_end_factor, high_end_factor = 1.7e2, 2e9
    t0 = time.monotonic()
    t = _certificate_grid()
    n_instances = refuted = 0
    low_ratio = high_ratio = math.inf
    worst_rise = 0.0
    example = None
    for _, ctx, v in _curvature_instances():
        xi1, xi3 = ctx.xi1[v], ctx.xi3[v]
        lam = curvature_certificate(1.0 + (xi3 / xi1) * t, xi1, xi3)
        n_instances += 1
        rise = float(np.max(np.diff(lam)))
        refuted += rise > 1e-9
        k = int(np.argmin(lam))
        low_ratio = min(low_ratio, float(lam[0] / lam[k]))
        high_ratio = min(high_ratio, float(lam[-1] / lam[k]))
        if rise > worst_rise:
            worst_rise = rise
            example = (xi1, xi3, t[k], lam[k], lam[-1])
    dt = time.monotonic() - t0
    ok = (refuted == n_instances and low_ratio >= low_end_factor
          and high_ratio >= high_end_factor)
    if example is None:
        witness = "no rise found"
    else:
        witness = (f"at (noise/error, signal/error) = ({example[0]:.3g}, {example[1]:.3g}) "
                   f"the certificate rises from {example[3]:.3g} at t = {example[2]:.3g} "
                   f"to {example[4]:.3g} at t = 1 - {t[0]:.0e}, where f = 1 + t xi3/xi1")
    report("3b certificate non-increasing claim refuted, diverging at both ends", ok,
           f"claim refuted on {refuted}/{n_instances} instances, largest single-step "
           f"rise = {worst_rise:.3g}; {witness}; min end/minimum ratio = {low_ratio:.3g} "
           f"at f -> 1, {high_ratio:.3g} at capacity, {dt:.1f}s")
    assert refuted == n_instances, "certificate non-increasing on some instance"
    assert low_ratio >= low_end_factor, "certificate does not diverge as f -> 1"
    assert high_ratio >= high_end_factor, "certificate does not diverge at capacity"


def test_criterion_4_bcd_matches_grid_minimum():
    t0 = time.monotonic()
    rng = np.random.default_rng(104)
    worst_gap = -math.inf
    monotone = True
    for _ in range(50):
        ctx = random_context(rng, 2, alpha=float(rng.uniform(0.05, 0.95)))
        plan, rep = bcd_solve(ctx)
        grid = grid_min_two_vehicle(ctx, ctx.alpha, n_u=200, n_r=200)
        worst_gap = max(worst_gap, (plan.objective_value - grid) / abs(grid))
        diffs = np.diff(np.array(rep.objective_trace))
        monotone &= bool(np.all(diffs <= 1e-12))
    dt = time.monotonic() - t0
    ok = worst_gap <= 1e-3 and monotone and dt < 300.0
    report("4 solver vs 200^4 grid minimum", ok,
           f"worst relative gap = {worst_gap:.2e} over 50 instances, "
           f"traces monotone = {monotone}, {dt:.1f}s")
    assert worst_gap <= 1e-3
    assert monotone
    assert dt < 300.0


def test_criterion_5_analytic_block_limits():
    accept("5", checks.analytic_block_limits())


def test_criterion_6_anchored_aggregation_unbiased():
    t0 = time.monotonic()
    rng = np.random.default_rng(206)
    n, dim, trials = 10, 5, 10_000
    w_prev = rng.standard_normal(dim)
    locals_ = rng.standard_normal((n, dim))
    d = rng.integers(50, 250, size=n).astype(float)
    u = rng.uniform(0.3, 0.9, n)
    p = rng.uniform(0.4, 0.95, n)
    target = w_prev + (d / d.sum()) @ (locals_ - w_prev)
    scale = d / (d.sum() * u * p)
    included = rng.uniform(size=(trials, n)) < u
    succeeded = rng.uniform(size=(trials, n)) < p
    ind = (included & succeeded).astype(float)
    samples = w_prev + (ind * scale) @ (locals_ - w_prev)
    # cross-check the vectorization against the aggregation routine itself
    for k in range(25):
        upds = [fl_core.ClientUpdate(v, locals_[v], int(d[v]), float(u[v]), float(p[v]))
                for v in range(n) if ind[k, v]]
        direct = fl_core.aggregate(upds, float(d.sum()), w_prev, anchored=True)
        assert np.allclose(direct, samples[k], rtol=1e-12, atol=1e-12)
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / math.sqrt(trials)
    z = np.abs(mean - target) / se
    dt = time.monotonic() - t0
    ok = bool(np.all(z <= 2.0))
    report("6 anchored aggregation unbiasedness", ok,
           f"max |mean - target| / SE = {float(z.max()):.2f} over {dim} coordinates, {dt:.1f}s")
    assert ok


def _desk_config(sched):
    cfg = parse_config()
    cfg.traffic.arrival_rate_per_lane = 0.05
    cfg.physical.feedback_delay_s = 1e-4
    cfg.learning.feature_dim = 30
    cfg.learning.class_separation = 1.2
    cfg.learning.partitioning = "noniid"
    cfg.learning.lr_base = 0.01
    cfg.learning.aggregation = "anchored"
    cfg.learning.test_samples_per_class = 200
    cfg.run.rounds = 200
    cfg.run.scheduler = sched
    return cfg


def test_criterion_7_end_to_end_time_to_accuracy():
    t0 = time.monotonic()
    seeds = (11, 12, 13)
    reductions = []
    strict_all = True
    details = []
    for seed in seeds:
        runs = {s: Experiment(_desk_config(s), seed=seed).run()
                for s in ("vrvfl", "scheme1", "scheme2")}
        finals = {s: float(np.mean([r.accuracy for r in recs[-10:]]))
                  for s, recs in runs.items()}
        threshold = 0.9 * min(finals.values())

        def crossing(records):
            for r in records:
                if r.accuracy >= threshold:
                    return r.time_cum
            return math.inf

        t_cross = {s: crossing(recs) for s, recs in runs.items()}
        best_baseline = min(t_cross["scheme1"], t_cross["scheme2"])
        strict = t_cross["vrvfl"] < t_cross["scheme1"] and t_cross["vrvfl"] < t_cross["scheme2"]
        strict_all &= strict
        reductions.append(1.0 - t_cross["vrvfl"] / best_baseline)
        details.append(f"seed {seed}: {t_cross['vrvfl']:.0f}s vs {best_baseline:.0f}s")
    median_red = float(np.median(reductions))
    dt = time.monotonic() - t0
    ok = strict_all and median_red >= 0.20 and dt < 900.0
    report("7 end-to-end time to 90%-of-final accuracy", ok,
           f"strict on every seed = {strict_all}, median reduction = {median_red:.1%} "
           f"[{'; '.join(details)}], {dt:.0f}s")
    assert strict_all
    assert median_red >= 0.20
    assert dt < 900.0


def test_criterion_8_compare_determinism(tmp_path):
    t0 = time.monotonic()
    base = ["compare", "--rounds", "5", "--seed", "21",
            "--set", "traffic.arrival_rate_per_lane=0.03",
            "--set", "learning.samples_per_class=5",
            "--set", "learning.test_samples_per_class=20"]
    assert cli.main(base + ["--out-dir", str(tmp_path / "a")]) == 0
    assert cli.main(base + ["--out-dir", str(tmp_path / "b")]) == 0
    files_a = sorted((tmp_path / "a").glob("*.csv"))
    files_b = sorted((tmp_path / "b").glob("*.csv"))
    names_ok = [p.name for p in files_a] == [p.name for p in files_b]
    bytes_ok = all(x.read_bytes() == y.read_bytes() for x, y in zip(files_a, files_b))
    dt = time.monotonic() - t0
    ok = names_ok and bytes_ok and len(files_a) == 4  # 3 schedulers + merged table
    report("8 compare reruns byte-identical", ok,
           f"{len(files_a)} CSV files compared, identical = {bytes_ok}, {dt:.1f}s")
    assert ok


def test_criterion_9_gradient_correctness():
    accept("9", checks.training_gradient())
