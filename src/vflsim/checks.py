"""Self-checks shared by `vflsim validate` and the acceptance suite.

Each check draws from its own fixed seed and returns a `Check`: a name, a
one-line detail with the figures it measured, and the conditions those
figures must meet.  `validate` runs the checks in `VALIDATE` and fails if any
condition fails; the acceptance tests assert every condition.

The oracles avoid the code path they check: success probabilities come from
direct Monte Carlo of the error power against the rate's support margin,
gradients from central differences.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import fl_core, scheduler, sim
from .config import SimConfig, parse_config

_LN2 = math.log(2.0)

# physics constants of the random scheduling instances: the config defaults
_DEFAULTS = SimConfig()
W_BLOCK = _DEFAULTS.block_bandwidth_hz
NOISE = _DEFAULTS.noise_density_w_hz
TX_POWER = _DEFAULTS.tx_power_w
MODEL_BITS = _DEFAULTS.physical.model_bits
ROUND_CAP = _DEFAULTS.optimization.round_time_cap_s


@dataclass
class Check:
    """Outcome of one self-check; it passes when every condition held."""

    name: str
    detail: str
    conditions: dict  # condition -> whether it held

    @property
    def ok(self):
        return all(self.conditions.values())


# ---------------------------------------------------------------------------
# instances and oracles
# ---------------------------------------------------------------------------

def random_context(rng, n_vehicles, alpha=None, n_blocks=20.0, u_min=0.05,
                   strong=False):
    """Feasible instance drawn around the default physics constants.

    Redraws vehicles until exactly n_vehicles pass the R_min < R_max filter.
    `strong` biases toward high temporal correlation (well-estimated channels).
    """
    if alpha is None:
        alpha = float(rng.uniform(0.1, 0.9))
    rows = []
    attempts = 0
    while len(rows) < n_vehicles:
        attempts += 1
        if attempts > 10_000:
            raise RuntimeError("instance generator failed to find feasible vehicles")
        eps = float(rng.uniform(0.85, 0.99) if strong else rng.uniform(0.35, 0.9))
        h2 = float(rng.exponential(1.0))
        gain = float(10.0 ** rng.uniform(-10.0, -7.0))
        sojourn = float(rng.uniform(5.0, 120.0))
        snr = TX_POWER * gain * eps**2 * h2 / (W_BLOCK * NOISE)
        r_max = W_BLOCK * math.log1p(snr) / math.log(2.0)
        r_min = MODEL_BITS / min(ROUND_CAP, sojourn)
        if not r_min < r_max:
            continue
        data = float(rng.integers(50, 300))
        rows.append((eps, h2, gain, sojourn, r_min, r_max, data))
    cols = list(zip(*rows))
    return scheduler.SchedulingContext(
        ids=np.arange(n_vehicles),
        data_sizes=np.array(cols[6]),
        epsilon=np.array(cols[0]),
        h_est_sq=np.array(cols[1]),
        gain=np.array(cols[2]),
        sojourn=np.array(cols[3]),
        r_min=np.array(cols[4]),
        r_max=np.array(cols[5]),
        alpha=alpha,
        u_min=u_min,
        n_blocks=float(n_blocks),
        bandwidth=W_BLOCK,
        noise_density=NOISE,
        tx_power=TX_POWER,
        model_bits=MODEL_BITS,
        d_total=float(np.sum(cols[6])),
    )


def _curvature_instances():
    """The 100 seed-103 (rng, two-vehicle context, vehicle) triples of acceptance 3a and 3b."""
    rng = np.random.default_rng(103)
    for _ in range(100):
        ctx = random_context(rng, 2, alpha=float(rng.uniform(0.1, 0.9)))
        v = int(rng.integers(ctx.size))
        yield rng, ctx, v


def mc_success_probability(margin, rng, n=100_000):
    """Empirical frequency of the rate-support event: an Exp(1) error power at most
    the margin, the comparison `sim.Experiment.draw_outcomes` makes."""
    return float(np.mean(rng.exponential(1.0, size=n) <= margin))


def central_diff_gradient(fn, w, h=1e-6):
    g = np.zeros_like(w)
    for k in range(len(w)):
        wp = w.copy()
        wm = w.copy()
        wp[k] += h
        wm[k] -= h
        g[k] = (fn(wp) - fn(wm)) / (2 * h)
    return g


def inclusion_cost_summand(rates, v, u_v, ctx):
    """The vehicle-v summand of the objective's first term as a function of rate."""
    f1 = np.expm1(np.asarray(rates, dtype=float) * _LN2 / ctx.bandwidth)
    with np.errstate(divide="ignore"):
        p = -np.expm1(np.minimum(ctx.xi1[v] - ctx.xi3[v] / f1, 0.0))
        return ctx.alpha * ctx.data_sizes[v] / (ctx.d_total * u_v * p)


def curvature_certificate(f, xi1, xi3):
    """Scaled curvature factor of the inclusion cost versus the SNR demand f = 2^(R/W).

    Positive on 1 < f < 1 + xi3/xi1 exactly where the per-vehicle inclusion
    cost is convex in the rate.  Note it diverges at both ends of that
    interval: near f = 1 through the 1/(f^2-1) factor and near the capacity
    endpoint where the success probability vanishes, so it is not monotone.
    """
    f = np.asarray(f, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        e = np.exp(xi1 - xi3 / (f - 1.0))
        return f / (f**2 - 1.0) * (1.0 + e) / (1.0 - e) - 1.0 / xi3


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def outage_closed_form():
    """Acceptance 1: the planner's success probability against Monte Carlo of the
    rate-support event the simulator draws, at rates from 0 to past capacity."""
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    ctx = random_context(rng, 50)
    rates = ctx.r_max * rng.uniform(0.0, 1.2, size=ctx.size)
    closed = ctx.success_prob(rates)
    mc = np.array([mc_success_probability(m, rng) for m in ctx.support_margin(rates)])
    worst = float(np.max(np.abs(closed - mc)))
    mid = int(np.sum((closed > 0.1) & (closed < 0.9)))
    past = int(np.sum(closed == 0.0))
    dt = time.monotonic() - t0
    return Check("success probability vs Monte Carlo of the support event",
                 f"max |closed - MC| = {worst:.4f} over 50 rates ({mid} with p in (0.1, 0.9), "
                 f"{past} past capacity), {dt:.1f}s",
                 {"max |closed - MC| <= 0.01": worst <= 0.01, "under 10 s": dt < 10.0,
                  ">= 10 rates with p in (0.1, 0.9)": mid >= 10,
                  ">= 1 rate past capacity": past >= 1})


def fading_statistics():
    """Acceptance 2: the composed fading has correlation epsilon with its estimate and unit power."""
    t0 = time.monotonic()
    rng = np.random.default_rng(102)
    worst_corr = worst_power = 0.0
    n = 100_000
    for eps in (0.2, 0.5, 0.9):
        h_est = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
        h_err = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
        h = eps * h_est + math.sqrt(1 - eps**2) * h_err
        worst_corr = max(worst_corr, abs(float(np.mean(h * np.conj(h_est)).real) - eps))
        worst_power = max(worst_power, abs(float(np.mean(np.abs(h) ** 2)) - 1.0))
    dt = time.monotonic() - t0
    return Check("fading correlation and power",
                 f"max |corr err| = {worst_corr:.4f}, max |power err| = {worst_power:.4f}, "
                 f"{dt:.1f}s",
                 {"max |corr err| <= 0.02": worst_corr <= 0.02,
                  "max |power err| <= 0.02": worst_power <= 0.02, "under 5 s": dt < 5.0})


def inclusion_cost_convexity():
    """Acceptance 3a: the inclusion cost is convex in rate and its certificate positive."""
    t0 = time.monotonic()
    worst_curv = math.inf
    min_cert = math.inf
    for rng, ctx, v in _curvature_instances():
        grid = np.linspace(ctx.r_min[v], ctx.r_max[v], 1002)[1:-1]
        theta = inclusion_cost_summand(grid, v, float(rng.uniform(0.1, 1.0)), ctx)
        scale = float(np.abs(theta).max())
        worst_curv = min(worst_curv, float(np.diff(theta, 2).min()) / scale)
        xi1, xi3 = ctx.xi1[v], ctx.xi3[v]
        f = 1.0 + (xi3 / xi1) * np.linspace(1e-9, 1 - 1e-9, 1001)
        min_cert = min(min_cert, float(np.min(curvature_certificate(f, xi1, xi3))))
    dt = time.monotonic() - t0
    return Check("inclusion-cost convexity and certificate positivity",
                 f"min scaled 2nd diff = {worst_curv:.2e}, min certificate = {min_cert:.4g}, "
                 f"{dt:.1f}s",
                 {"min scaled 2nd diff >= -1e-6": worst_curv >= -1e-6,
                  "min certificate > 0": min_cert > 0.0, "under 30 s": dt < 30.0})


def analytic_block_limits():
    """Acceptance 5: at alpha = 1 the plan sits on R_min, at alpha = 0 on (u_min, R_max)."""
    t0 = time.monotonic()
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(20):
        ctx = random_context(rng, int(rng.integers(2, 9)))
        plan1, _ = scheduler.bcd_solve(replace(ctx, alpha=1.0))
        worst = max(worst, float(np.max(np.abs(plan1.r - ctx.r_min) / ctx.r_min)))
        plan0, _ = scheduler.bcd_solve(replace(ctx, alpha=0.0))
        worst = max(worst, float(np.max(np.abs(plan0.r - ctx.r_max) / ctx.r_max)))
        worst = max(worst, float(np.max(np.abs(plan0.u - ctx.u_min) / ctx.u_min)))
    dt = time.monotonic() - t0
    return Check("analytic limits at alpha in {0, 1}",
                 f"worst relative deviation = {worst:.2e} over 20 instances, {dt:.1f}s",
                 {"worst relative deviation <= 1e-6": worst <= 1e-6})


def training_gradient():
    """Acceptance 9: the analytic training gradient against central differences."""
    t0 = time.monotonic()
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 40))
        d = int(rng.integers(2, 7))
        c = int(rng.integers(2, 6))
        x = rng.standard_normal((n, d))
        y = rng.integers(0, c, size=n)
        w = rng.standard_normal(c * d + c)
        ref = rng.standard_normal(c * d + c)
        mu = float(rng.uniform(0.0, 0.1))
        _, grad = fl_core.loss_and_grad(w, x, y, c, ref=ref, mu=mu)
        fd = central_diff_gradient(
            lambda v: fl_core.loss_and_grad(v, x, y, c, ref=ref, mu=mu)[0], w)
        worst = max(worst, float(np.linalg.norm(grad - fd)
                                 / max(np.linalg.norm(grad), 1e-12)))
    dt = time.monotonic() - t0
    return Check("training gradient vs central differences",
                 f"worst relative error = {worst:.2e} over 20 instances, {dt:.1f}s",
                 {"worst relative error <= 1e-5": worst <= 1e-5})


def selection_frequency():
    """Realized inclusion frequencies match the planned probabilities.

    20,000 draws put one standard error of a frequency at 0.0035 or less, so
    the 0.01 tolerance sits near three of them.  The budget must not overflow
    on this instance: trimming would bias the frequencies below u.
    """
    rng = np.random.default_rng(20240)
    ctx = random_context(rng, 6, alpha=0.5)
    plan, _ = scheduler.bcd_solve(ctx)
    counts = np.zeros(ctx.size)
    trials, trimmed = 20_000, 0
    for _ in range(trials):
        selected, trim = scheduler.realize_selection(plan, rng, ctx.n_blocks)
        counts[selected] += 1
        trimmed += trim
    worst = float(np.max(np.abs(counts / trials - plan.u)))
    return Check("selection frequency matches inclusion probabilities",
                 f"max |frequency - u| = {worst:.4f} over {trials} draws",
                 {"max |frequency - u| <= 0.01": worst <= 0.01,
                  "no draw overflowed the block budget": trimmed == 0})


def seeded_determinism():
    """Two runs of the same config and seed write the same CSV text."""
    cfg = parse_config(overrides={"run.rounds": "3", "traffic.arrival_rate_per_lane": "0.05"})
    a = sim.round_csv_text(sim.run_experiment(cfg, seed=7))
    b = sim.round_csv_text(sim.run_experiment(cfg, seed=7))
    return Check("seeded determinism",
                 "two 3-round runs of the default config at seed 7 produce the same CSV text",
                 {"CSV texts identical": a == b})


VALIDATE = (outage_closed_form, fading_statistics, inclusion_cost_convexity,
            analytic_block_limits, training_gradient, selection_frequency, seeded_determinism)
