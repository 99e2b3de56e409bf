import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from instances import MODEL_BITS, random_context, symmetric_context
from oracles import (_golden_min, grid_min_rate_only, grid_min_two_vehicle,
                     grid_min_two_vehicle_naive, rate_block_phi, reference_drop_for_budget)
from vflsim import checks, scheduler
from vflsim.checks import curvature_certificate, inclusion_cost_summand
from vflsim.config import GeometryConfig, parse_config
from vflsim.mobility import Population, remaining_sojourn
from vflsim.sim import Experiment
from vflsim.scheduler import (_LN2, RoundPlan, _drop_for_budget, _waterfill_solver, bcd_solve,
                              build_context, dump_instance, load_instance, objective,
                              rate_bounds, realize_selection, round_time, scheme1_baseline,
                              scheme2_baseline, solve_inclusion_block, solve_rate_block)

CORPUS = Path(__file__).resolve().parents[1] / "benchmarks" / "corpus"


def road_with(gain, h_est_sq, epsilon, position=0.0, velocity=25.0, data=0):
    """A refreshed population of vehicles 0, 1, ...: one row per element, scalars broadcast."""
    cols = np.broadcast_arrays(*map(np.atleast_1d, (gain, h_est_sq, epsilon, position, velocity,
                                                      data)))
    gain, h_est_sq, epsilon, position, velocity, data = (c.astype(float) for c in cols)
    pop = Population(ids=np.arange(len(gain)), position=position, velocity=velocity,
                     epsilon=epsilon, data_size=data)
    pop.set_channels(h_est_sq, gain)
    return pop


def bounds_of(pop, cfg):
    """(R_min, R_max) of a one-vehicle population through the batched rate_bounds."""
    sojourn = remaining_sojourn(pop.position, pop.velocity, GeometryConfig())
    r_lo, r_hi = rate_bounds(pop.gain, pop.epsilon, pop.h_est_sq, sojourn, cfg)
    return float(r_lo[0]), float(r_hi[0])


class TestRateBounds:
    def test_unit_snr(self):
        # engineered so P*L*eps^2*|h|^2/(W*N0) = 1 with W = 1 Hz
        cfg = parse_config(overrides={
            "physical.bandwidth_hz": "20", "physical.n_blocks": "20",
            "physical.tx_power_dbm": "30", "physical.noise_density_dbm_hz": "0",
            "physical.model_bits": "60"})
        v = road_with(gain=1e-3, h_est_sq=1.0, epsilon=1.0)
        r_lo, r_hi = bounds_of(v, cfg)
        assert r_hi == pytest.approx(1.0, rel=1e-12)
        assert r_lo == pytest.approx(1.0, rel=1e-12)  # 60 bits over the 60 s cap

    def test_sojourn_limited_floor(self):
        cfg = parse_config()
        v = road_with(gain=1e-8, h_est_sq=1.0, epsilon=0.7, position=1000.0, velocity=25.0)
        r_lo, _ = bounds_of(v, cfg)
        assert r_lo == pytest.approx(4.38e6 / 40.0)  # sojourn 40 s under the 60 s cap

    def test_zero_estimate_infeasible(self):
        cfg = parse_config()
        v = road_with(gain=1e-8, h_est_sq=0.0, epsilon=0.7)
        _, r_hi = bounds_of(v, cfg)
        assert r_hi == 0.0
        assert build_context(v, GeometryConfig(), cfg).size == 0


class TestFeasibleSet:
    """build_context keeps the on-road vehicles whose rate box is non-empty (R_min < R_max)."""

    def test_strict_inequality(self):
        cfg = parse_config(overrides={
            "physical.bandwidth_hz": "20", "physical.n_blocks": "20",
            "physical.tx_power_dbm": "30", "physical.noise_density_dbm_hz": "0",
            "physical.model_bits": "60"})
        v = road_with(gain=1e-3, h_est_sq=1.0, epsilon=1.0)  # R_min == R_max
        assert build_context(v, GeometryConfig(), cfg).size == 0

    def test_easy_instances_all_feasible(self):
        cfg = parse_config(overrides={"physical.model_bits": "1"})
        vs = road_with(gain=[1e-7] * 4, h_est_sq=1.0, epsilon=0.7)
        assert list(build_context(vs, GeometryConfig(), cfg).ids) == [0, 1, 2, 3]

    def test_off_road_vehicle_dropped(self):
        cfg = parse_config(overrides={"physical.model_bits": "1"})
        vs = road_with(gain=1e-7, h_est_sq=1.0, epsilon=0.7, position=[0.0, 2000.0])
        assert list(build_context(vs, GeometryConfig(), cfg).ids) == [0]

    def test_empty_road(self):
        assert build_context(road_with(gain=[], h_est_sq=[], epsilon=[]), GeometryConfig(),
                             parse_config()).size == 0


class TestObjective:
    def test_alpha_one_is_inclusion_cost(self):
        rng = np.random.default_rng(0)
        ctx = random_context(rng, 4, alpha=1.0)
        u = rng.uniform(0.1, 1.0, 4)
        rates = ctx.r_min * 1.2
        p = ctx.success_prob(rates)
        expected = float(np.sum(ctx.data_sizes / (ctx.d_total * u * p)))
        assert objective(u, rates, ctx) == pytest.approx(expected, rel=1e-12)

    def test_alpha_zero_is_pressure_only(self):
        rng = np.random.default_rng(1)
        ctx = random_context(rng, 4, alpha=0.0)
        u = rng.uniform(0.1, 1.0, 4)
        rates = ctx.r_min * 1.5
        f1 = np.expm1(rates * math.log(2) / ctx.bandwidth)
        expected = float(np.max(u * np.exp(-f1)))
        assert objective(u, rates, ctx) == pytest.approx(expected, rel=1e-12)

    def test_single_vehicle_unit(self):
        ctx = symmetric_context(1, alpha=1.0)
        assert objective([1.0], [0.0], ctx) == pytest.approx(1.0)  # P(rate 0) = 1

    def test_zero_success_gives_inf(self):
        ctx = symmetric_context(2, alpha=0.5)
        assert objective([0.5, 0.5], ctx.r_max, ctx) == math.inf


class TestRateBlock:
    def test_alpha_one_floor(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ctx = random_context(rng, int(rng.integers(2, 9)))
            u = rng.uniform(ctx.u_min, 1.0, ctx.size)
            assert np.array_equal(solve_rate_block(u, replace(ctx, alpha=1.0)), ctx.r_min)

    def test_alpha_zero_ceiling(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ctx = random_context(rng, int(rng.integers(2, 9)))
            u = rng.uniform(ctx.u_min, 1.0, ctx.size)
            assert np.array_equal(solve_rate_block(u, replace(ctx, alpha=0.0)), ctx.r_max)

    def test_matches_rate_grid_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            ctx = random_context(rng, 2, alpha=0.4)
            u = rng.uniform(0.2, 1.0, 2)
            rates = solve_rate_block(u, ctx)
            solved = objective(u, rates, ctx)
            oracle = grid_min_rate_only(u, ctx, 0.4, n_r=2000)
            assert solved <= oracle + 1e-3 * abs(oracle)

    def test_never_returns_dead_rates(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ctx = random_context(rng, int(rng.integers(2, 7)),
                                 alpha=float(rng.uniform(0.05, 0.95)))
            u = rng.uniform(ctx.u_min, 1.0, ctx.size)
            rates = solve_rate_block(u, ctx)
            assert float(np.min(ctx.success_prob(rates))) > 0.0

    def test_never_above_the_grid_minimum(self):
        """The block solve is never above the minimum of phi over a dense grid of the
        whole ceiling range, refined toward both ends."""
        rng = np.random.default_rng(6)
        cases = [(load_instance(p), 5) for p in sorted(CORPUS.glob("*.txt"))]
        cases = [(ctx, k) for ctx, k in cases if ctx.alpha < 1.0]
        cases += [(random_context(rng, int(rng.integers(2, 12))), 1) for _ in range(200)]
        checked = 0
        for ctx, draws in cases:
            for _ in range(draws):
                u = rng.uniform(ctx.u_min, 1.0, ctx.size)
                ln_u = np.log(u)
                f1_max = np.expm1(ctx.r_max * _LN2 / ctx.bandwidth)
                ell_lo = float(np.max(ln_u - f1_max))
                ell_hi = float(np.max(ln_u - np.expm1(ctx.r_min * _LN2 / ctx.bandwidth)))
                width = ell_hi - ell_lo
                ells = np.unique(np.concatenate([
                    np.linspace(ell_lo, ell_hi, 1001),
                    ell_hi - np.geomspace(1e-9, width, 1500),
                    ell_lo + np.geomspace(1e-9, width, 500)]))
                ells = ells[(ells >= ell_lo) & (ells <= ell_hi)]
                grid_min = float(np.min(rate_block_phi(ells, u, ctx, ctx.alpha)))
                solved = objective(u, solve_rate_block(u, ctx), ctx)
                assert solved <= grid_min + 8 * np.spacing(grid_min)
                checked += 1
        assert checked == 5 * 21 + 200  # 21 corpus instances have alpha < 1


class TestGoldenMin:
    """The golden-section search of the reference blocks in tests/oracles.py."""

    @staticmethod
    def _counted(fn):
        calls = []

        def wrapped(x):
            calls.append((x, fn(x)))
            return calls[-1][1]
        return wrapped, calls

    def test_smooth_minimum_stops_early_within_ulps(self):
        fn, calls = self._counted(lambda x: (x - 0.3) ** 2 + math.exp(0.1 * x))
        x, f, _ = _golden_min(fn, -2.0, 3.0)
        # minimizer of (x - 0.3)^2 + exp(0.1 x) to full precision by Newton steps
        x_star = 0.3
        for _ in range(50):
            x_star -= ((2 * (x_star - 0.3) + 0.1 * math.exp(0.1 * x_star))
                       / (2 + 0.01 * math.exp(0.1 * x_star)))
        f_star = (x_star - 0.3) ** 2 + math.exp(0.1 * x_star)
        assert f - f_star <= 4 * np.spacing(f_star)
        assert len(calls) < 120 // 2

    def test_kink_still_bracketed_tightly(self):
        x0 = 0.123456789
        fn, _ = self._counted(lambda x: abs(x - x0) + 2.0)
        x, _, width = _golden_min(fn, -3.0, 5.0)
        assert width <= 1e-12 * max(1.0, abs(x0))
        assert abs(x - x0) <= 1e-12 * max(1.0, abs(x0))

    def test_infinite_left_end_gives_finite_minimizer(self):
        # like phi at ell_lo, where a vehicle at R_max has zero success probability
        fn, _ = self._counted(lambda x: math.inf if x <= 0.0 else 1.0 / x + x)
        x, f, _ = _golden_min(fn, 0.0, 4.0)
        assert math.isfinite(f) and 0.0 < x
        assert f - 2.0 <= 4 * np.spacing(2.0)
        assert abs(x - 1.0) <= 1e-6

    def test_returns_best_point_evaluated(self):
        for fn in (lambda x: (x - 0.3) ** 2 + 1.0, lambda x: abs(x + 1.7) + 0.5,
                   lambda x: math.inf if x <= -1.0 else math.exp(-x) + 0.2 * x,
                   lambda x: math.exp(x)):
            counted, calls = self._counted(fn)
            x, f, _ = _golden_min(counted, -1.0, 2.0)
            f_best = min(v for _, v in calls)
            assert f == f_best
            assert (x, f) == next(c for c in calls if c[1] == f_best)

    @staticmethod
    def _smooth(x):
        return (x - 0.3) ** 2 + math.exp(0.1 * x)

    def test_start_near_smooth_minimum_saves_half_the_evaluations(self):
        cold_fn, cold_calls = self._counted(self._smooth)
        _, f_cold, _ = _golden_min(cold_fn, -2.0, 3.0)
        x_star = 0.3  # by Newton steps, as above
        for _ in range(50):
            x_star -= ((2 * (x_star - 0.3) + 0.1 * math.exp(0.1 * x_star))
                       / (2 + 0.01 * math.exp(0.1 * x_star)))
        warm_fn, warm_calls = self._counted(self._smooth)
        _, f_warm, _ = _golden_min(warm_fn, -2.0, 3.0, start=x_star + 1e-6)
        assert abs(f_warm - f_cold) <= 4 * np.spacing(f_cold)
        assert len(warm_calls) < len(cold_calls) / 2

    def test_start_none_or_outside_is_the_cold_search(self):
        cold_fn, cold_calls = self._counted(self._smooth)
        cold = _golden_min(cold_fn, -2.0, 3.0)
        for start in (None, -2.0, 3.0, -7.0, 3.5):
            fn, calls = self._counted(self._smooth)
            assert _golden_min(fn, -2.0, 3.0, start=start) == cold
            assert calls == cold_calls

    def test_start_across_a_kink_still_brackets_it_tightly(self):
        x0 = 0.123456789
        for start in (x0 - 2.0, x0 + 1e-7, x0 + 4.0):
            fn, _ = self._counted(lambda x: abs(x - x0) + 2.0)
            x, _, width = _golden_min(fn, -3.0, 5.0, start=start)
            assert width <= 1e-12 * max(1.0, abs(x0))
            assert abs(x - x0) <= 1e-12 * max(1.0, abs(x0))

    def test_start_where_infinite_gives_finite_minimizer(self):
        fn, _ = self._counted(lambda x: math.inf if x <= 0.0 else 1.0 / x + x)
        for start in (-0.5, 1e-3, 3.9):
            x, f, _ = _golden_min(fn, -1.0, 4.0, start=start)
            assert math.isfinite(f) and 0.0 < x
            assert f - 2.0 <= 4 * np.spacing(2.0)

    def test_start_walks_to_a_minimum_at_either_end(self):
        for fn, end in ((math.exp, -1.0), (lambda x: math.exp(-x), 2.0)):
            for start in (-0.999, 0.5, 1.999):
                x, f, _ = _golden_min(fn, -1.0, 2.0, start=start)
                assert (x, f) == (end, fn(end))


class TestWaterfill:
    @staticmethod
    def _fill(cost, lo, caps, budget):
        with np.errstate(divide="ignore", invalid="ignore"):
            return _waterfill_solver(cost, lo, budget)(np.array(caps, dtype=float))[0]

    @staticmethod
    def _bisect_oracle(cost, lo, caps, budget):
        if np.where(cost > 0, caps, lo).sum() <= budget:
            return np.where(cost > 0, caps, lo)
        mu_a, mu_b = 1e-40, 1e40
        for _ in range(300):
            mu = math.sqrt(mu_a * mu_b)
            u = np.minimum(np.maximum(np.sqrt(cost / mu), lo), caps)
            if u.sum() > budget:
                mu_a = mu
            else:
                mu_b = mu
        return np.minimum(np.maximum(np.sqrt(cost / mu_b), lo), caps)

    def test_matches_bisection(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            n = int(rng.integers(1, 30))
            cost = rng.uniform(0.0, 2.0, n) * (rng.uniform(size=n) > 0.1)
            caps = rng.uniform(0.06, 1.0, n)
            budget = float(rng.uniform(0.05 * n, 1.2 * n))
            u = self._fill(cost, 0.05, caps, budget)
            ref = self._bisect_oracle(cost, 0.05, np.maximum(caps, 0.05), budget)
            assert np.allclose(u, ref, atol=1e-6)
            assert u.sum() <= budget * (1 + 1e-9) + 1e-9

    def test_unconstrained_sits_at_caps(self):
        u = self._fill(np.array([1.0, 2.0]), 0.05, np.array([0.7, 0.9]), 10.0)
        assert np.array_equal(u, [0.7, 0.9])


class TestInclusionBlock:
    def test_alpha_one_symmetric_slack_budget(self):
        ctx = symmetric_context(4, alpha=1.0, n_blocks=20.0)
        u = solve_inclusion_block(ctx.r_min, ctx)
        assert np.allclose(u, 1.0)

    def test_alpha_zero_floor(self):
        rng = np.random.default_rng(7)
        ctx = random_context(rng, 5, alpha=0.0)
        u = solve_inclusion_block(ctx.r_min, ctx)
        assert np.allclose(u, ctx.u_min)

    def test_symmetric_binding_budget_splits_evenly(self):
        ctx = symmetric_context(2, alpha=1.0, n_blocks=1.0)
        u = solve_inclusion_block(ctx.r_min, ctx)
        assert np.allclose(u, [0.5, 0.5], atol=1e-9)

    @pytest.mark.parametrize("snr", [700.0, 746.0, 1e4])
    @pytest.mark.parametrize("n", [21, 25, 30])
    def test_ceiling_underflowing_to_zero(self, snr, n):
        # past an SNR of about 745 the ceiling e^x underflows to 0 at the low end
        # of the search, where a piece model then has no round-time term
        ctx = symmetric_context(n, alpha=0.4)
        u = solve_inclusion_block(np.full(n, ctx.bandwidth * math.log2(1.0 + snr)), ctx)
        assert np.allclose(u, 20.0 / n, rtol=1e-12, atol=0.0)


class TestBcd:
    def test_trace_non_increasing(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            ctx = random_context(rng, int(rng.integers(2, 10)))
            _, report = bcd_solve(ctx)
            trace = np.array(report.objective_trace)
            assert np.all(np.diff(trace) <= 1e-12)

    def test_two_vehicle_grid_optimality(self):
        rng = np.random.default_rng(9)
        for _ in range(6):
            ctx = random_context(rng, 2, alpha=float(rng.uniform(0.1, 0.9)))
            plan, _ = bcd_solve(ctx)
            grid = grid_min_two_vehicle(ctx, ctx.alpha, n_u=200, n_r=200)
            assert plan.objective_value <= grid + 1e-3 * abs(grid)

    def test_alpha_one_identical_to_scheme2(self):
        rng = np.random.default_rng(10)
        ctx = random_context(rng, 5)
        alpha = ctx.alpha
        plan_a, _ = bcd_solve(replace(ctx, alpha=1.0))
        plan_b, _ = scheme2_baseline(ctx)
        assert ctx.alpha == alpha  # scheme2 solves a copy of the context
        assert plan_a.ids == plan_b.ids
        assert plan_a.r.tobytes() == plan_b.r.tobytes()
        assert plan_a.u.tobytes() == plan_b.u.tobytes()
        sel_a, _ = realize_selection(plan_a, np.random.default_rng(42), ctx.n_blocks)
        sel_b, _ = realize_selection(plan_b, np.random.default_rng(42), ctx.n_blocks)
        assert sel_a.tolist() == sel_b.tolist()

    def test_empty_context_skips(self):
        ctx = symmetric_context(0)
        plan, report = bcd_solve(ctx)
        assert plan.ids == () and len(plan.u) == 0 and report.iterations == 0

    def test_partial_optimality_probes(self):
        rng = np.random.default_rng(11)
        ctx = random_context(rng, 6, alpha=0.45)
        plan, _ = bcd_solve(ctx)
        u, rates = plan.u, plan.r
        base = plan.objective_value
        slack = 1e-6 * abs(base)
        for _ in range(100):
            du = rng.choice([-1.0, 1.0], ctx.size)
            u_probe = np.clip(u + 1e-4 * du, ctx.u_min, 1.0)
            if u_probe.sum() > ctx.n_blocks:
                u_probe *= ctx.n_blocks / u_probe.sum()
                u_probe = np.clip(u_probe, ctx.u_min, 1.0)
            assert objective(u_probe, rates, ctx) >= base - slack
            dr = rng.choice([-1.0, 1.0], ctx.size)
            r_probe = np.clip(rates + 1e-4 * dr * (ctx.r_max - ctx.r_min),
                              ctx.r_min, ctx.r_max)
            assert objective(u, r_probe, ctx) >= base - slack

    @pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.txt")))
    def test_corpus_solve_converges_below_the_alternation_cap(self, name):
        _, report = bcd_solve(load_instance(CORPUS / name))
        assert report.converged
        assert report.iterations < scheduler._BCD_MAX_ALTERNATIONS

    @pytest.mark.parametrize("name", ["default_vrvfl_s1_r0.txt", "desk_vrvfl_s12_r4.txt"])
    def test_no_block_solve_repeats_an_input(self, name, monkeypatch):
        seen = {"rate": [], "inclusion": []}
        for block in seen:
            solver = getattr(scheduler, f"solve_{block}_block")

            def recorded(x, *args, _solver=solver, _seen=seen[block], **kwargs):
                _seen.extend(row.tobytes() for row in np.atleast_2d(np.asarray(x)))
                return _solver(x, *args, **kwargs)
            monkeypatch.setattr(scheduler, f"solve_{block}_block", recorded)
        bcd_solve(load_instance(CORPUS / name))
        for block, inputs in seen.items():
            assert inputs and len(set(inputs)) == len(inputs), block


class TestPlanInvariants:
    def test_plan_respects_box_budget_and_membership(self):
        rng = np.random.default_rng(22)
        for _ in range(12):
            n = int(rng.integers(2, 30))
            nb = float(rng.choice([20.0, 4.0]))
            ctx = random_context(rng, n, alpha=float(rng.uniform(0.05, 0.95)), n_blocks=nb)
            plan, _ = bcd_solve(ctx)
            u, rates = plan.u, plan.r
            assert plan.ids == tuple(ctx.ids.tolist())
            assert u.sum() <= ctx.n_blocks + 1e-9
            assert np.all(u >= ctx.u_min - 1e-12) and np.all(u <= 1.0 + 1e-12)
            assert np.all(rates >= ctx.r_min - 1e-9) and np.all(rates <= ctx.r_max + 1e-9)
            selected, trimmed = realize_selection(plan, rng, ctx.n_blocks)
            assert np.all(np.diff(selected) > 0) and np.all((0 <= selected) & (selected < n))
            assert len(selected) <= ctx.n_blocks and trimmed >= 0
            succ = selected[: max(1, len(selected) // 2)]
            t_round = round_time(plan, succ, ctx.model_bits, 60.0)
            if len(succ):
                assert t_round == ctx.model_bits / min(rates[k] for k in succ)


class TestBlockConvexity:
    def test_midpoint_convexity_within_each_block(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            ctx = random_context(rng, int(rng.integers(2, 7)),
                                 alpha=float(rng.uniform(0.1, 0.9)))
            r_fix = ctx.r_min + rng.uniform(0.05, 0.6, ctx.size) * (ctx.r_max - ctx.r_min)
            u_a = rng.uniform(ctx.u_min, 1.0, ctx.size)
            u_b = rng.uniform(ctx.u_min, 1.0, ctx.size)
            lhs = objective(0.5 * (u_a + u_b), r_fix, ctx)
            rhs = 0.5 * (objective(u_a, r_fix, ctx) + objective(u_b, r_fix, ctx))
            assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))
            u_fix = rng.uniform(ctx.u_min, 1.0, ctx.size)
            r_a = ctx.r_min + rng.uniform(0, 0.95, ctx.size) * (ctx.r_max - ctx.r_min)
            r_b = ctx.r_min + rng.uniform(0, 0.95, ctx.size) * (ctx.r_max - ctx.r_min)
            lhs = objective(u_fix, 0.5 * (r_a + r_b), ctx)
            rhs = 0.5 * (objective(u_fix, r_a, ctx) + objective(u_fix, r_b, ctx))
            assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))


class TestOracleSelfChecks:
    def test_two_vehicle_oracle_matches_naive(self):
        rng = np.random.default_rng(12)
        for _ in range(4):
            ctx = random_context(rng, 2, alpha=float(rng.uniform(0.1, 0.9)))
            fast = grid_min_two_vehicle(ctx, ctx.alpha, n_u=30, n_r=30)
            naive = grid_min_two_vehicle_naive(ctx, ctx.alpha, n_u=30, n_r=30)
            assert fast == pytest.approx(naive, rel=1e-12)


class TestSelection:
    def test_certainty(self):
        ctx = symmetric_context(3)
        plan, _ = bcd_solve(ctx)  # alpha = 1 and a slack budget -> u = 1
        rng = np.random.default_rng(13)
        for _ in range(50):
            selected, trimmed = realize_selection(plan, rng, ctx.n_blocks)
            assert selected.tolist() == [0, 1, 2] and trimmed == 0

    def test_empirical_frequency(self):
        check = checks.selection_frequency()
        assert check.conditions and check.ok, check.detail

    def test_plan_arrays_hold_the_dicts_in_id_order(self):
        rng = np.random.default_rng(19)
        ctx = random_context(rng, 6, alpha=0.4)
        for plan, _ in (bcd_solve(ctx), scheme1_baseline(ctx)):
            assert plan.ids == tuple(ctx.ids.tolist())
            assert plan.p.tobytes() == ctx.success_prob(plan.r).tobytes()
            for array, view in ((plan.u, plan.inclusion_probs), (plan.r, plan.rates)):
                assert list(view) == list(plan.ids)
                assert list(view.values()) == array.tolist()
        assert RoundPlan().u.shape == RoundPlan().p.shape == RoundPlan().r.shape == (0,)

    def test_trim_keeps_best_expected_updates(self):
        plan = RoundPlan(ids=(10, 11, 12, 13, 14), u=np.ones(5),
                         p=np.array([0.2, 0.9, 0.8, 0.5, 0.7]), r=np.full(5, 1e6))
        rng = np.random.default_rng(15)
        selected, trimmed = realize_selection(plan, rng, 2)
        assert selected.tolist() == [1, 2]  # largest u*p among the five drawn vehicles
        assert trimmed == 3
        plan.p = np.full(5, 0.5)  # a tie keeps the lower positions
        assert realize_selection(plan, rng, 3)[0].tolist() == [0, 1, 2]


class TestRoundTime:
    def test_slowest_successful_rate(self):
        plan = RoundPlan(ids=(4, 7, 9), r=np.array([1e6, 3e6, 2e6]))
        assert round_time(plan, np.array([1, 2]), 4.38e6, 60.0) == pytest.approx(2.19)
        assert round_time(plan, np.array([0, 1, 2]), 4.38e6, 60.0) == pytest.approx(4.38)

    def test_single(self):
        plan = RoundPlan(ids=(0,), r=np.array([MODEL_BITS / 10.0]))
        assert round_time(plan, np.array([0]), MODEL_BITS, 60.0) == pytest.approx(10.0)

    def test_empty_falls_back_to_cap(self):
        assert round_time(RoundPlan(), np.zeros(0, dtype=int), MODEL_BITS, 60.0) == 60.0


class TestBaselines:
    def test_scheme1_small_population_full_inclusion(self):
        ctx = symmetric_context(4, n_blocks=20.0)
        plan, _ = scheme1_baseline(ctx)
        assert plan.u.tolist() == [1.0] * ctx.size

    def test_scheme1_double_population_halves(self):
        ctx = symmetric_context(8, n_blocks=4.0)
        plan, _ = scheme1_baseline(ctx)
        assert plan.u.tolist() == [0.5] * ctx.size

    def test_scheme1_rates_are_reliability_first(self):
        rng = np.random.default_rng(16)
        ctx = random_context(rng, 5, alpha=0.4)
        plan, _ = scheme1_baseline(ctx)
        u = np.full(ctx.size, min(1.0, ctx.n_blocks / ctx.size))
        expected = solve_rate_block(u, replace(ctx, alpha=1.0))
        assert np.array_equal(plan.r, expected)


def test_budget_shrink_drops_weakest_links():
    cfg = parse_config(overrides={"physical.n_blocks": "1", "optimization.u_min": "0.9",
                                  "physical.bandwidth_hz": "1e7"})
    vehicles = road_with(gain=1e-8, h_est_sq=[0.4, 2.5, 1.1], epsilon=0.7, data=100)
    ctx = build_context(vehicles, GeometryConfig(), cfg)
    assert ctx.size == 1
    assert list(ctx.ids) == [1]  # highest R_max survives
    assert set(ctx.budget_dropped) == {0, 2}


def _naive_budget_drop(rows, u_min, n_blocks):
    """Reference: drop the weakest remaining link, one full scan per vehicle."""
    rows = list(rows)
    dropped = []
    while rows and len(rows) * u_min > n_blocks:
        worst = min(range(len(rows)), key=lambda i: (rows[i][7], rows[i][0]))
        dropped.append(rows[worst][0])
        rows.pop(worst)
    return rows, dropped


def test_budget_drop_matches_naive_loop_with_ties():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(0, 60))
        ids = np.sort(rng.choice(1000, size=n, replace=False))
        r_max = rng.choice([1e6, 2e6, 3e6], size=n)  # many ties: the id decides
        rows = [(int(i), 100, 0.7, 1.0, 1e-8, 30.0, 5e5, float(r)) for i, r in zip(ids, r_max)]
        u_min = float(rng.choice([0.05, 0.1, 0.3, 0.9]))
        n_blocks = float(rng.integers(1, 25))
        kept, dropped = _drop_for_budget(ids, r_max, u_min, n_blocks)
        assert ([rows[i] for i in kept], dropped) == _naive_budget_drop(rows, u_min, n_blocks)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 2000),
       u_min=st.one_of(st.sampled_from([1e-9, 0.05, 1.0]),
                       st.floats(1e-12, 1.0, allow_subnormal=False)),
       budget=st.floats(0.0, 60.0, allow_subnormal=False), seed=st.integers(0, 2**32 - 1))
@example(n=1000, u_min=0.05, budget=20.0, seed=0)
@example(n=10, u_min=0.7, budget=4.199999999999999, seed=1)  # 4.19.../0.7 rounds below 6
@example(n=50, u_min=0.05, budget=1.7, seed=2)  # 1.7/0.05 is 34, but 34 * 0.05 > 1.7
@example(n=25, u_min=0.28, budget=7.0, seed=3)  # 25 * 0.28 rounds above 7: 24 are kept
def test_budget_drop_matches_the_countdown(n, u_min, budget, seed):
    """Budgets off the multiples of u_min included: the kept positions and the
    dropped order equal those of the one-at-a-time countdown."""
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(10 * n + 1, size=n, replace=False))
    r_max = rng.choice([1e6, 2e6, 3e6], size=n) * rng.choice([1.0, 1.5], size=n)
    kept, dropped = _drop_for_budget(ids, r_max, u_min, budget)
    want_kept, want_dropped = reference_drop_for_budget(ids, r_max, u_min, budget)
    assert kept.tolist() == want_kept.tolist() and dropped == want_dropped


class TestCurvatureDiagnostics:
    def test_inclusion_cost_convex_on_grid(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            ctx = random_context(rng, 3, alpha=0.5)
            v = int(rng.integers(ctx.size))
            grid = np.linspace(ctx.r_min[v], ctx.r_max[v], 1002)[1:-1]
            theta = inclusion_cost_summand(grid, v, float(rng.uniform(0.1, 1.0)), ctx)
            scale = float(np.abs(theta).max())
            assert float(np.diff(theta, 2).min()) >= -1e-6 * scale

    def test_certificate_positive_throughout(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            ctx = random_context(rng, 2)
            v = int(rng.integers(ctx.size))
            xi1, xi3 = ctx.xi1[v], ctx.xi3[v]
            f = 1.0 + (xi3 / xi1) * np.linspace(1e-9, 1 - 1e-9, 1001)
            assert float(np.min(curvature_certificate(f, xi1, xi3))) > 0.0

    def test_certificate_consistent_with_success_probability(self):
        # exp(xi1 - xi3/(f-1)) must equal 1 - P at the same rate
        rng = np.random.default_rng(19)
        ctx = random_context(rng, 2)
        v = 0
        xi1, xi3 = ctx.xi1[v], ctx.xi3[v]
        rate = 0.5 * (ctx.r_min[v] + ctx.r_max[v])
        f1 = math.expm1(rate * math.log(2) / ctx.bandwidth)
        p = float(ctx.success_prob(np.full(ctx.size, rate))[v])
        assert math.exp(xi1 - xi3 / f1) == pytest.approx(1.0 - p, rel=1e-9)


def test_instance_dump_round_trip(tmp_path):
    rng = np.random.default_rng(20)
    ctx = random_context(rng, 5, alpha=0.4)
    path = tmp_path / "instance.txt"
    dump_instance(ctx, path)
    back = load_instance(path)
    assert np.array_equal(back.ids, ctx.ids)
    for field in ("data_sizes", "epsilon", "h_est_sq", "gain", "sojourn", "r_min", "r_max"):
        assert np.array_equal(getattr(back, field), getattr(ctx, field)), field
    assert (back.alpha, back.u_min, back.n_blocks) == (ctx.alpha, ctx.u_min, ctx.n_blocks)
    u = np.full(ctx.size, 0.5)
    assert objective(u, ctx.r_min, back) == pytest.approx(objective(u, ctx.r_min, ctx), rel=1e-12)


def _round0_context(overrides, seed):
    cfg = parse_config(overrides=overrides)
    exp = Experiment(cfg, seed)
    exp._refresh_channels()
    return build_context(exp.vehicles, exp.geometry, cfg)


def test_instance_dump_with_retired_block_iters_loads():
    # dumps once carried a line-search cap, `block_iters <n>`, after d_total
    text = dump_instance(_round0_context({}, 2), None)
    header = text.splitlines()[1]
    old = text.replace(header, header.replace(" budget_dropped", " block_iters 12 budget_dropped"))
    assert "block_iters 12" in old and "block_iters" not in text
    new_plan, old_plan = bcd_solve(load_instance(text))[0], bcd_solve(load_instance(old))[0]
    assert old_plan.ids == new_plan.ids
    assert repr(old_plan.objective_value) == repr(new_plan.objective_value)
    assert old_plan.u.tobytes() == new_plan.u.tobytes()
    assert old_plan.r.tobytes() == new_plan.r.tobytes()


def test_instance_dump_keeps_budget_dropped():
    ctx = _round0_context({"traffic.arrival_rate_per_lane": "2.0"}, 1)
    assert len(ctx.budget_dropped) == 600
    back = load_instance(dump_instance(ctx, None))
    assert back.budget_dropped == ctx.budget_dropped
