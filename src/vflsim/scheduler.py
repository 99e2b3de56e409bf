"""Per-round client inclusion and rate selection.

Each round solves, over the feasible vehicles,

    min_{u, R}  sum_v alpha * D_v / (D * u_v * p_v(R_v))
                + (1 - alpha) * max_v u_v * exp(-(2^(R_v/W) - 1))
    s.t.        sum_v u_v <= N,   u_min <= u_v <= 1,
                R_min_v <= R_v <= R_max_v,

where p_v(R) is the closed-form success probability of rate R given the fading
estimate.  The problem is convex in each block (u or R) with the other fixed,
so it is solved by block coordinate descent.  Each block collapses exactly to
a one-dimensional convex problem in the epigraph ceiling of the max term: for
a fixed ceiling the optimal R is the smallest rate meeting it (the inclusion
cost grows with rate) and the optimal u is a box-capped water-filling of the
inverse-probability cost.

Both blocks are solved exactly, without a line search or a start, by a
search that keeps a bracket on the sign of the reduced objective's derivative
in the log ceiling.  The rate block's reduced objective and its first two
derivatives have closed forms, with a convex kink wherever a vehicle leaves
its minimum rate, so its search takes safeguarded Newton steps and steps onto
the kinks.  The inclusion block is piecewise simple in the ceiling: between
changes of which vehicles sit at their caps, float at the water level or rest
at a bound, its reduced objective has a closed form, so its search reads the
derivative and that closed form off each water-fill.  bcd_solve keeps the
block results of one solve keyed by the exact input bytes, so no block is
solved twice on the same input.

The problem is only biconvex, so bcd_solve runs one alternation from one
start that has seen the joint problem: the ceiling scan's candidate.  For a
fixed ceiling and a multiplier on the budget the problem separates per
vehicle, into u = 1 or riding the ceiling at the least log q over a window
of its rate grid, which one routine finds; the scan prices each ceiling, and
the budget, for every vehicle at once and keeps the ceiling whose
budget-fitting choices have the lowest objective.  Bounds over blocks of
ceilings (branch and bound, Land and Doig 1960) skip the blocks that cannot
hold the minimum without the budget, and where every other block, or every
coarse interval of the rest with each rider's u floored, provably overspends
N the scan prices the budget at once.  Where |V| u_min >= N the scan returns
the floor, the one point that fits, and the alternation never searches the
inclusion block.

Block solvers are deterministic functions of their inputs and return their
result alone.  Iteration order is vehicle-id ascending for reproducibility.
The problem, alpha included, is the context's: a solve at another alpha
takes a copy of the context.
"""

from __future__ import annotations

import bisect
import copy
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .mobility import remaining_sojourn

_LN2 = math.log(2.0)
_EXACT_ITERS = 100  # cap on the steps of one block search and of its Newton solves
# an alternation run stops once one alternation lowers the objective by at most
# this fraction, or after _BCD_MAX_ALTERNATIONS; over the 600 VR-VFL contexts of
# acceptance 7 (desk seeds 11-13 x 200 rounds) a run from the budget-priced scan
# takes a median of 2 alternations, p90 3 and at most 6 (README solver notes)
_BCD_RTOL = 1e-6
_BCD_MAX_ALTERNATIONS = 50
# _ceiling_scan: points of each vehicle's log-spaced f1 grid and of the
# geometric pass over the ceiling
_SCAN_GRID = 1500
_SCAN_CEILINGS = 1400
# relative margin by which a ceiling's lower bound must exceed the upper bound
# on the scan's minimum for it to be skipped; it covers the rounding of phi_b's
# exponent, about 2|log s| ulp
_SCAN_PRUNE_MARGIN = 1e-3
# _ceiling_scan's pricing of the block budget: passes of (ceilings, budget
# tolerance), each on every _PRICE_STRIDE-th grid point; the best ceiling is
# then priced on the whole grid at the last tolerance
_PRICE_PASSES = ((24, 1e-2), (8, 1e-3), (8, 1e-4))
_PRICE_STRIDE = 16
_BOUND_BLOCK = 16  # coarse ceilings per block of the scan's bounds (_exact_ceilings)


# ---------------------------------------------------------------------------
# scheduling context
# ---------------------------------------------------------------------------

@dataclass
class SchedulingContext:
    """Arrays over the feasible vehicles (ascending id) plus problem constants."""

    ids: np.ndarray  # int
    data_sizes: np.ndarray  # D_v
    epsilon: np.ndarray  # signed correlation
    h_est_sq: np.ndarray  # |h_est|^2
    gain: np.ndarray  # large-scale linear gain
    sojourn: np.ndarray  # s
    r_min: np.ndarray  # bit/s
    r_max: np.ndarray  # bit/s
    alpha: float
    u_min: float
    n_blocks: float
    bandwidth: float  # per-vehicle W
    noise_density: float
    tx_power: float
    model_bits: float
    d_total: float
    budget_dropped: tuple = ()  # ids removed so |V| * u_min <= N

    def __post_init__(self):
        # noise-to-error and signal-to-error power ratios: see support_margin;
        # 2^(R/W) = 1 + xi3/xi1 is the perfect-CSI capacity
        eps2 = self.epsilon**2
        self.xi1 = (self.bandwidth * self.noise_density
                    / (self.tx_power * self.gain * (1.0 - eps2)))
        self.xi3 = self.h_est_sq * eps2 / (1.0 - eps2)

    @property
    def size(self):
        return len(self.ids)

    def support_margin(self, rates):
        """Largest estimation-error power |h_err|^2 that per-vehicle rates survive.

        The SINR with the unknown error as interference supports rate R exactly
        when |h_err|^2 <= xi3/(2^(R/W)-1) - xi1; the margin is negative past the
        perfect-CSI capacity, where no error power is small enough.
        """
        f1 = np.expm1(np.asarray(rates, dtype=float) * _LN2 / self.bandwidth)
        with np.errstate(divide="ignore", over="ignore"):
            return self.xi3 / f1 - self.xi1

    def success_prob(self, rates):
        """Probability that an Exp(1) error power stays within the support margin."""
        margin = self.support_margin(rates)
        return np.where(margin > 0.0, -np.expm1(-np.maximum(margin, 0.0)), 0.0)


def rate_bounds(gain, epsilon, h_est_sq, sojourn, cfg):
    """(R_min, R_max) arrays over vehicles, from their channel and remaining sojourn.

    R_max is the capacity under a perfectly known channel (zero realized
    error); R_min is the slowest rate that still ships the model within the
    round-time cap and the vehicle's remaining time in coverage.
    """
    w = cfg.block_bandwidth_hz
    # Python's float power and math.log1p per element: numpy's array kernels
    # round differently and would move the seeded results
    eps2 = np.array([e**2 for e in np.asarray(epsilon, dtype=float).tolist()])
    snr = cfg.tx_power_w * gain * eps2 * h_est_sq / (w * cfg.noise_density_w_hz)
    r_max = w * np.array([math.log1p(x) for x in snr.tolist()]) / _LN2
    r_min = cfg.physical.model_bits / np.minimum(cfg.optimization.round_time_cap_s, sojourn)
    return r_min, r_max


def _drop_for_budget(ids, r_max, u_min, n_blocks):
    """Shrink the feasible set until every vehicle can get its u_min share of the budget.

    The weakest links go first, by (r_max, id).  Returns the positions of the
    kept vehicles in their order and the dropped ids in the order they were
    dropped.
    """
    n = len(ids)
    # the largest count k <= n with k * u_min <= n_blocks, on that float test
    n_keep = bisect.bisect_right(range(n + 1), n_blocks, key=lambda k: k * u_min) - 1
    weakest = np.lexsort((ids, r_max))[: n - n_keep]
    keep = np.ones(n, dtype=bool)
    keep[weakest] = False
    return np.flatnonzero(keep), [int(i) for i in np.asarray(ids)[weakest]]


def build_context(population, geometry, cfg):
    """Feasible-set context from a mobility.Population's last channel refresh on
    the road `geometry` (config.GeometryConfig); handles the u_min budget shrink."""
    road = np.flatnonzero(population.position < geometry.road_length_m)
    ids = population.ids[road]
    data = population.data_size[road].astype(float)
    eps = population.epsilon[road]
    h2 = population.h_est_sq[road]
    gain = population.gain[road]
    soj = remaining_sojourn(population.position[road], population.velocity[road], geometry)
    r_lo, r_hi = rate_bounds(gain, eps, h2, soj, cfg)
    feasible = np.flatnonzero(r_lo < r_hi)
    opt = cfg.optimization
    kept, dropped = _drop_for_budget(ids[feasible], r_hi[feasible], opt.u_min,
                                     cfg.physical.n_blocks)
    rows = feasible[kept]
    return SchedulingContext(
        ids=ids[rows],
        data_sizes=data[rows],
        epsilon=eps[rows],
        h_est_sq=h2[rows],
        gain=gain[rows],
        sojourn=soj[rows],
        r_min=r_lo[rows],
        r_max=r_hi[rows],
        alpha=opt.alpha,
        u_min=opt.u_min,
        n_blocks=float(cfg.physical.n_blocks),
        bandwidth=cfg.block_bandwidth_hz,
        noise_density=cfg.noise_density_w_hz,
        tx_power=cfg.tx_power_w,
        model_bits=cfg.physical.model_bits,
        d_total=max(float(data[rows].sum()), 1.0),
        budget_dropped=tuple(dropped),
    )


# ---------------------------------------------------------------------------
# objective and block solvers
# ---------------------------------------------------------------------------

def objective(u, rates, ctx: SchedulingContext):
    """Problem objective at (u, R); +inf when any success probability hits zero."""
    alpha = ctx.alpha
    u = np.asarray(u, dtype=float)
    rates = np.asarray(rates, dtype=float)
    term1 = 0.0
    if alpha > 0.0:
        p = ctx.success_prob(rates)
        if np.any(p <= 0.0):
            return math.inf
        term1 = float(np.sum(alpha * ctx.data_sizes / (ctx.d_total * u * p)))
    term2 = 0.0
    if alpha < 1.0:
        f1 = np.expm1(rates * _LN2 / ctx.bandwidth)
        term2 = (1.0 - alpha) * float(np.exp(np.max(np.log(u) - f1)))
    return term1 + term2


class _RatePhi:
    """phi(ell), the rate block's reduced objective at the log ceiling ell, with
    its one-sided first and second derivatives.

    On (ell_lo, ell_hi] vehicle v is raised above R_min while ell < k_v =
    ln u_v - f1min_v, to f1_v = 2^(R_v/W) - 1 = ln u_v - ell.  With
    E_v = exp(xi1_v - xi3_v/f1_v), p_v = 1 - E_v and the cost c_v/p_v, where
    c_v = alpha D_v/(D u_v),

        phi'(ell) = (1-alpha)e^ell - sum over raised v of c_v xi3_v E_v / (f1_v p_v)^2,

    and phi'' is the derivative of each term again.  phi' jumps up at each k_v,
    so every kink is convex; a vehicle exactly at its kink counts toward the
    left derivatives alone.  Where a success probability is 0, phi is infinite
    and falls toward higher ceilings.
    """

    def __init__(self, u, ctx):
        self.ctx, self.beta = ctx, 1.0 - ctx.alpha
        self.ln_u = np.log(u)
        self.weighted_data = ctx.alpha * ctx.data_sizes
        self.scaled_u = ctx.d_total * u
        self.kinks = self.ln_u - np.expm1(ctx.r_min * _LN2 / ctx.bandwidth)

    def rates(self, ell):
        """The smallest rates in the box whose pressure meets the ceiling e^ell."""
        # the clamp to r_min > 0 also settles the vehicles that need no raise
        out = np.subtract(self.ln_u, ell)
        np.maximum(out, 0.0, out=out)
        np.log1p(out, out=out)
        np.multiply(self.ctx.bandwidth, out, out=out)
        np.divide(out, _LN2, out=out)
        np.maximum(out, self.ctx.r_min, out=out)
        return np.minimum(out, self.ctx.r_max, out=out)

    def __call__(self, ell):
        """(phi, phi'-, phi'+, phi''-, phi''+) at ell."""
        ctx = self.ctx
        f1 = np.expm1(self.rates(ell) * _LN2 / ctx.bandwidth)
        # SchedulingContext.success_prob inline on the f1 it needs anyway: arg is
        # minus the support margin, p = -expm1(arg) > 0 exactly where arg < 0, and
        # the cost is infinite elsewhere
        arg = ctx.xi1 - ctx.xi3 / f1
        if not arg.max() < 0.0:
            return math.inf, -math.inf, -math.inf, math.nan, math.nan
        p = -np.expm1(arg)
        cost = self.weighted_data / (self.scaled_u * p)
        s = math.exp(ell)
        # per raised vehicle, -d(cost)/d ell and d2(cost)/d ell2
        q = ctx.xi3 / (f1 * f1)
        e = np.exp(arg)
        g = cost / p * e * q
        h = g * ((1.0 + e) * q / p - 2.0 / f1)
        left, right = self.kinks >= ell, self.kinks > ell
        return (float(cost.sum()) + self.beta * s,
                self.beta * s - g.sum(where=left), self.beta * s - g.sum(where=right),
                self.beta * s + h.sum(where=left), self.beta * s + h.sum(where=right))


def _newton_min(phi, lo, hi):
    """Exact minimizer over (lo, hi] of the rate block's phi; returns its ceiling.

    Keeps a bracket [a, b] on the sign of phi', starting from b = hi, and takes
    a Newton step from the newest end with the one-sided derivatives that face
    the bracket.  A step that would leave the bracket, or, once both ends are
    evaluated, that is not under half the step before last (Newton circling
    between the ends), goes instead to the middle one of the kinks inside the
    bracket, else to its midpoint: the safeguard of Brent (1973) and of rtsafe
    in Numerical Recipes.  It stops at a point whose one-sided derivatives
    bracket 0, at a Newton step under 4e-16 relative, or once the bracket is
    narrower than 1e-14 relative, and returns the best ceiling it evaluated.
    """
    a, b, x = lo, hi, hi
    best_x, best_f = hi, math.inf
    last = before_last = hi - lo
    for _ in range(_EXACT_ITERS):
        f, d_minus, d_plus, h_minus, h_plus = phi(x)
        if f < best_f:
            best_x, best_f = x, f
        if d_minus <= 0.0 <= d_plus:
            return x
        if d_plus < 0.0:
            a, d, h = x, d_plus, h_plus
        else:
            b, d, h = x, d_minus, h_minus
        if b - a <= 1e-14 * max(1.0, abs(a), abs(b)):
            break
        step = d / h if 0.0 < h < math.inf else math.nan
        if abs(step) <= 4e-16 * max(1.0, abs(x)):
            return x
        nxt = x - step
        if not (a < nxt < b and (a == lo or abs(step) <= 0.5 * abs(before_last))):
            inside = np.sort(phi.kinks[(a < phi.kinks) & (phi.kinks < b)])
            nxt = float(inside[len(inside) // 2]) if len(inside) else 0.5 * (a + b)
        before_last, last, x = last, nxt - x, nxt
    return best_x


def solve_rate_block(u, ctx: SchedulingContext):
    """Exact rate-block minimizer for fixed inclusion probabilities.

    Parameterized by the ceiling s of the max term: every vehicle whose
    pressure exceeds s raises its rate just enough to meet it, never more,
    because the inclusion cost strictly grows with rate.  The reduced
    objective is convex in log s, with a closed-form derivative, and
    _newton_min solves it exactly.
    """
    alpha = ctx.alpha
    if ctx.size == 0:
        return np.array([])
    if alpha >= 1.0:
        return ctx.r_min.copy()
    if alpha <= 0.0:
        return ctx.r_max.copy()
    phi = _RatePhi(np.asarray(u, dtype=float), ctx)
    ell_lo = float(np.max(phi.ln_u - np.expm1(ctx.r_max * _LN2 / ctx.bandwidth)))
    ell_hi = float(np.max(phi.kinks))
    if not ell_hi > ell_lo:
        return phi.rates(ell_hi)
    # the success probability's overflow and zero division, as it ignores them
    with np.errstate(divide="ignore", over="ignore"):
        return phi.rates(_newton_min(phi, ell_lo, ell_hi))


def _waterfill_solver(cost, lo, budget):
    """min sum cost_v/u_v  s.t.  sum u <= budget, lo <= u_v <= caps_v, as a
    function of the caps alone.

    Exact KKT solve: u_v(mu) = clip(sqrt(cost_v/mu), lo, caps_v), with the
    multiplier mu in closed form on the piece between its sorted breakpoints
    where the spend meets the budget.  Everything that does not depend on the
    caps (finite costs, the active set, sqrt(cost), the floor breakpoints
    cost/lo^2 and the constant event columns) is computed once here, so a
    search over the caps pays only for the cap breakpoints and their sort.
    The solve returns the fill and its budget multiplier mu, 0 when the budget
    is slack; it overwrites its caps argument with max(caps, lo) and may
    return it as the fill.  It carries the finite costs, the active set and
    `every` as attributes for its callers.  Its caller ignores zero division,
    overflow and invalid values.
    """
    cost = np.where(np.isfinite(cost), cost, 1e300)
    act = cost > 0.0
    every = bool(act.all())  # no vehicle pinned at lo: the masks are moot
    ca = cost[act]
    n_lo_fixed = int((~act).sum())
    cost_or_one = np.where(act, cost, 1.0)
    sq = np.sqrt(ca)
    mu_lo = ca / lo**2  # above: pinned at floor
    zeros = np.zeros_like(ca)
    ev_dsq = np.concatenate([sq, -sq])
    ev_dnlo = np.concatenate([zeros, np.ones_like(ca)])

    def solve(caps):
        caps = np.maximum(caps, lo, out=caps)
        u_free = caps if every else np.where(act, caps, lo)
        total = float(u_free.sum())
        if total <= budget or not len(ca):  # slack, or no vehicle to price
            return u_free, 0.0
        ha = caps if every else caps[act]
        mu_hi = ca / ha**2  # below: pinned at cap
        ev_mu = np.concatenate([mu_hi, mu_lo])
        ev_dhi = np.concatenate([-ha, zeros])
        order = np.argsort(ev_mu, kind="stable")
        ev_mu = ev_mu[order]
        sum_hi = (total if every else float(ha.sum())) + np.cumsum(ev_dhi[order])
        sum_sq = np.maximum(np.cumsum(ev_dsq[order]), 0.0)
        n_lo = np.cumsum(ev_dnlo[order]) + n_lo_fixed
        # piece k, mu in [ev_mu[k], upper[k]], spends sum_hi[k] + lo*n_lo[k] +
        # sum_sq[k]/sqrt(mu), which falls as mu rises: the root is on the first piece
        # whose right end fits.  The last piece, every vehicle at its floor, is the
        # point ev_mu[-1]; it fits by the budget drop, whatever the rounding
        upper = np.append(ev_mu[1:], ev_mu[-1])
        fits = sum_hi + lo * n_lo + sum_sq / np.sqrt(upper) <= budget
        fits[-1] = True
        k = int(fits.argmax())
        mu = float(ev_mu[k])  # no vehicle at the water level: the left end
        if sum_sq[k] > 0.0:
            rhs = budget - sum_hi[k] - lo * n_lo[k]
            mu = min(max(float((sum_sq[k] / rhs) ** 2), mu), float(upper[k]))
        u = np.minimum(np.maximum(np.sqrt(cost_or_one / mu), lo), caps)
        return (u if every else np.where(act, u, lo)), mu

    solve.finite_cost, solve.act, solve.every = cost, act, every
    return solve


class _CeilingPoint:
    """The inclusion block at one log ceiling x = log s.

    `u` is the water-fill against the caps min(1, s/e_v) and `mu` its budget
    multiplier; `held` marks the vehicles held at a cap below 1 and `free` (None
    when the budget is slack) those at the water level sqrt(c_v/mu).  Their
    sums give the closed form of the reduced objective on the piece of
    ceilings where those sets stay the same.  `left` marks vehicles that join
    the held ones just below x: at a cap that reaches 1 exactly at x, or at x
    itself when x is a fill's own ceiling.  `d_minus` and `d_plus` are the
    one-sided derivatives of psi in x.
    """

    __slots__ = ("x", "s", "psi", "cost_sum", "u", "mu", "total", "held", "free", "c_held",
                 "u_held", "u_free", "left", "c_left", "u_left", "u_left_free", "d_minus",
                 "d_plus")


class _InclusionPsi:
    """psi(x), the inclusion block's reduced objective at the log ceiling x,
    with what the exact search reads off each evaluation.

    By the envelope theorem, psi'(x) = (1-alpha)s - sum over the held vehicles
    of (c_v/u_v - mu*u_v): raising a held vehicle's cap saves c_v/u_v per unit
    of log u_v and spends mu*u_v of budget.  On a piece with held set C and
    free set W,

        psi = A/s + B^2/(M - s*A') + (1-alpha)s + const,

    with A = s*sum_C c/u, A' = sum_C u/s, B = sqrt(mu)*sum_W u and
    M = sum_C u + sum_W u; the free vehicles share the budget left over.
    """

    def __init__(self, cost, ln_e, ctx):
        self.cost, self.ln_e = cost, ln_e
        self.beta = 1.0 - ctx.alpha
        self.lo, self.budget = ctx.u_min, ctx.n_blocks
        self.fill = fill = _waterfill_solver(cost, ctx.u_min, ctx.n_blocks)
        self.finite_cost, self.act, self.every = fill.finite_cost, fill.act, fill.every

    def __call__(self, x, exact=False):
        """The point at x.  An `exact` evaluation also finds the vehicles whose cap
        reaches 1 at x and, at the slack end of the budget, the right derivative
        with the largest multiplier that keeps every vehicle at its cap."""
        caps = np.subtract(x, self.ln_e)
        np.minimum(0.0, caps, out=caps)
        u, mu = self.fill(np.exp(caps, out=caps))  # caps is now max(caps, lo)
        c_over_u = self.cost / u
        p = _CeilingPoint()
        p.x, p.s, p.u, p.mu = x, math.exp(x), u, mu
        p.cost_sum = float(c_over_u.sum())
        p.psi = p.cost_sum + self.beta * p.s
        at_cap = u == caps
        if not self.every:
            at_cap &= self.act
        held = at_cap & (caps < 1.0)
        if exact:
            # a cap of exactly lo (x at the lower end) also pins at the floor
            held &= self.finite_cost > mu * u * u
        p.held = held
        p.c_held = float(c_over_u.dot(held))
        p.u_held = float(u.dot(held))
        p.total = float(u.sum())
        p.free = (u < caps) & (u > self.lo) if mu > 0.0 else None
        p.u_free = float(u.dot(p.free)) if mu > 0.0 else 0.0
        p.d_plus = p.d_minus = self.beta * p.s - p.c_held + mu * p.u_held
        p.left, p.c_left, p.u_left, p.u_left_free = None, 0.0, 0.0, 0.0
        if exact:
            kink = at_cap & (self.ln_e == x) & (self.finite_cost > mu)
            if kink.any():
                p.left, p.u_left = kink, float(kink.sum())
                p.c_left = float(self.finite_cost.dot(kink))
                p.d_minus = p.d_plus - (p.c_left - mu * p.u_left)
            if mu == 0.0 and p.total >= self.budget * (1.0 - 1e-14) and at_cap.any():
                mu_edge = float(np.min(self.finite_cost[at_cap] / u[at_cap] ** 2))
                p.d_plus += mu_edge * p.u_held
        return p

    def snap(self, p):
        """p moved down to the ceiling its own fill meets, when no vehicle is held
        at a cap below 1: the fill stays the same and psi falls with s."""
        ceilings = np.log(p.u) + self.ln_e
        x = min(float(ceilings.max()), p.x)
        q = copy.copy(p)
        q.x, q.s = x, math.exp(x)
        q.psi = p.cost_sum + self.beta * q.s
        left = ceilings == x
        if not self.every:
            left &= self.act
        q.left, q.u_left = left, float(p.u.dot(left))
        q.c_left = float((self.finite_cost / p.u).dot(left))
        q.u_left_free = float(p.u.dot(left & p.free)) if p.free is not None else 0.0
        q.d_plus = self.beta * q.s
        q.d_minus = q.d_plus - (q.c_left - p.mu * q.u_left)
        return q

    def stationary(self, p, right):
        """The stationary point of p's piece model, toward larger ceilings when
        `right`; returns (x, at_edge, sets).  A slack model stops at the ceiling
        where its caps fill the budget (at_edge), and sets are the held and free
        masks the model assumes."""
        held, free = p.held, p.free
        c_held, u_held, u_free = p.c_held, p.u_held, p.u_free
        if not right and p.left is not None:
            held = held | p.left
            free = None if free is None else free & ~p.left
            c_held, u_held = c_held + p.c_left, u_held + p.u_left
            u_free = max(u_free - p.u_left_free, 0.0)
        sets = (held.tobytes(), None if free is None else free.tobytes())
        if not (u_held > 0.0 and c_held > 0.0):
            return -math.inf, False, sets
        c = self.beta * p.s
        if p.mu == 0.0 or u_free == 0.0:
            # s = e^x underflows to 0 far left, where the model falls toward every larger x
            r = math.sqrt(c_held / c) if c > 0.0 else math.inf
            if p.mu == 0.0:
                edge = (self.budget - p.total + u_held) / u_held
                if r > edge:
                    return p.x + math.log(edge), True, sets
            return p.x + math.log(r), False, sets
        # g(r) = psi'(x + log r) / (r s) rises from -inf at r = 0 to +inf where
        # the free vehicles run out of budget; safeguarded Newton from r = 1
        k = p.mu * u_free * u_free * u_held
        r_lo, r_hi, r = 0.0, 1.0 + u_free / u_held, 1.0
        for _ in range(_EXACT_ITERS):
            room = u_free + u_held * (1.0 - r)
            g = k / (room * room) - c_held / (r * r) + c
            if g == 0.0:
                break
            if g < 0.0:
                r_lo = r
            else:
                r_hi = r
            step = g / (2.0 * c_held / r**3 + 2.0 * u_held * k / room**3)
            r_new = r - step if r_lo < r - step < r_hi else 0.5 * (r_lo + r_hi)
            done = abs(r_new - r) <= 1e-15 * r
            r = r_new
            if done:
                break
        return p.x + math.log(r), False, sets

    def next_kink(self, p, right):
        """The nearest ceiling past p, toward larger ceilings when `right`, where a
        vehicle held at its cap reaches or leaves 1: a kink of psi."""
        if right:
            ln_e = self.ln_e[p.held]
            return float(ln_e.min()) if len(ln_e) else math.inf
        ln_e = self.ln_e[(p.u == 1.0) & (self.ln_e < p.x) & (self.finite_cost > p.mu)]
        return float(ln_e.max()) if len(ln_e) else -math.inf


def _piecewise_min(psi, lo, hi):
    """Exact minimizer over [lo, hi] of the inclusion block's psi; returns its
    _CeilingPoint.

    Keeps a bracket [a, b] whose ends have psi' < 0 and psi' > 0, starting from
    the water-fill at hi moved down to its own ceiling.  Each step evaluates
    the stationary point of the newest end's piece model, or else of the other
    end's; failing both, the nearest kink past either end (a cap reaching 1),
    and failing that the midpoint.  It stops at a point whose one-sided
    derivatives bracket 0, at a stationary point that lands in the piece whose
    model proposed it, or once the bracket is narrower than 1e-14 relative.
    """
    a, b = lo, hi
    ends = {True: None, False: None}  # evaluated ends, keyed by `psi' < 0 there`
    p = psi(hi)
    best, sets = p, None
    for _ in range(_EXACT_ITERS):
        if not math.isfinite(p.psi):
            return p  # an infinite cost makes psi infinite at every ceiling
        if not p.held.any():
            p = psi.snap(p)
        if p.psi < best.psi:
            best = p
        if sets is not None and sets == (p.held.tobytes(),
                                         None if p.free is None else p.free.tobytes()):
            return p
        if (p.d_minus <= 0.0 <= p.d_plus or (p.x >= hi and p.d_minus <= 0.0)
                or (p.x <= lo and p.d_plus >= 0.0)):
            return p
        right = p.d_plus < 0.0
        if right:
            a = p.x
        else:
            b = p.x
        ends[right] = p
        if b - a <= 1e-14 * max(1.0, abs(a), abs(b)):
            return best
        order = ((p, right), (ends[not right], not right))
        x = None
        for q, q_right in order:
            if q is not None:
                x, exact, sets = psi.stationary(q, q_right)
                if exact:
                    sets = None  # the model stops at its edge, not at a stationary point
                if a < x < b:
                    break
                if x <= lo == a and ends[True] is None:
                    x, exact, sets = lo, True, None
                    break
                x = None
        if x is None:
            sets = None
            for q, q_right in order:
                if q is not None and a < (k := psi.next_kink(q, q_right)) < b:
                    x, exact = k, True
                    break
            else:
                x, exact = 0.5 * (a + b), False
        p = psi(x, exact)
    return best


def solve_inclusion_block(rates, ctx: SchedulingContext):
    """Exact inclusion-block minimizer u for fixed rates.

    For a given ceiling s of the max term each u_v is capped at min(1, s/e_v);
    under the block budget the inverse costs water-fill against those caps.
    The reduced objective psi is convex in log s and piecewise of closed form,
    and _piecewise_min solves it exactly.
    """
    alpha = ctx.alpha
    if ctx.size == 0:
        return np.array([])
    if alpha <= 0.0:
        return np.full(ctx.size, ctx.u_min)
    rates = np.asarray(rates, dtype=float)
    p = ctx.success_prob(rates)
    # p = 0 costs inf whatever the data, and zero data over it would be 0/0; an
    # infinite cost's floor breakpoint overflows to inf at a small u_min
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cost = np.where(p > 0.0, alpha * ctx.data_sizes / (ctx.d_total * p), np.inf)
        if alpha >= 1.0:
            return _waterfill_solver(cost, ctx.u_min, ctx.n_blocks)(np.ones(ctx.size))[0]
        ln_e = -np.expm1(rates * _LN2 / ctx.bandwidth)  # log of exp(-(2^(R/W)-1))
        top = float(np.max(ln_e))
        return _piecewise_min(_InclusionPsi(cost, ln_e, ctx), math.log(ctx.u_min) + top, top).u


# ---------------------------------------------------------------------------
# block coordinate descent and baselines
# ---------------------------------------------------------------------------

@dataclass
class SolverReport:
    """How a solve went: its alternations, accepted objective values and
    convergence."""

    iterations: int = 0
    objective_trace: list = field(default_factory=list)
    converged: bool = False


def _slice_minima(ln_q, rows, left, right):
    """min of ln_q[rows[i], left[i]:right[i]] per i and its first index, for the
    windows that the prefix minima of _ceiling_scan do not settle."""
    at = np.array([a + ln_q[v, a:b].argmin() for v, a, b in zip(rows, left, right)], dtype=np.intp)
    return ln_q[rows, at], at


def _priced_ceilings(ctx, alpha, f1_lo, coarse, upper):
    """How many of the falling log ceilings `coarse` _ceiling_scan prices: those
    before the first whose lower bound on the scan total exceeds `upper`, an
    upper bound on the scan's minimum, by the margin.

    The bound is the sum over vehicles of c / p(max(f1_min, ln u_min - log s)),
    c = alpha*d/D, capped below phi_b's own cap e^700.  It leaves out the
    (1 - alpha) s term, so it only rises as s falls and a bisection finds the
    first ceiling it prunes.
    """
    cost = alpha * ctx.data_sizes / ctx.d_total
    ln_umin = math.log(ctx.u_min)

    def pruned(k):
        f1 = np.maximum(f1_lo, ln_umin - coarse[k])
        p = -np.expm1(np.minimum(ctx.xi1 - ctx.xi3 / f1, 0.0))
        lower = np.minimum(cost / np.maximum(p, 1e-300), 1e304).sum()
        return lower * (1.0 - _SCAN_PRUNE_MARGIN) > upper

    return bisect.bisect_left(range(len(coarse)), True, key=pruned)


def _exact_ceilings(ctx, alpha, coarse, k_end, upper, branch_a, phi_b_floor, u_floor):
    """The indices of the first k_end log ceilings `coarse` whose unpriced totals
    _ceiling_scan computes exactly; None where the bounds prove its unpriced
    candidate over the budget.

    The ceilings fall into blocks [lo, hi] = [coarse[min(s + B, last)], coarse[s]]
    for s = 0, B, 2B, ... < k_end, with B = _BOUND_BLOCK and last =
    min(k_end, _SCAN_CEILINGS - 1); they cover every ceiling the scan can
    return, the refinement's included.  Over a span [lo, hi] the u = 1 branch
    phi_a, which falls as the ceiling rises, lies between branch_a at hi and at
    lo, and the riding branch is at least phi_b_floor(lo, hi).  A span is out
    when (1 - alpha) e^lo plus the sum of min(phi_a(hi), phi_b_floor) exceeds
    `upper` by the margin 1e-6: it holds neither the coarse minimum nor the
    refined ceiling, since the probe that attains `upper` lies in a span that
    is not out.  A span is over when its u floors sum over N (1 + 1e-9): 1 for
    a vehicle whose phi_a(lo) is finite and below phi_b_floor by 1e-6 either
    side, which keeps u = 1 throughout, else u_min for a block and u_floor for
    a coarse interval [coarse[i + 1], coarse[i]] of the blocks neither out nor
    over (where |V| > N).  The margins cover the rounding of exp and expm1.
    When `upper` is finite and every such block or interval is out or over,
    the candidate overspends wherever it lies; otherwise the ceilings of the
    blocks that are not out are returned.
    """
    budget = ctx.n_blocks * (1.0 + 1e-9)

    def tests(lo, hi, u_ride):  # (out, over) per span, u_ride the floor of a u below 1
        phi_a_lo, phi_b = branch_a(lo), phi_b_floor(lo, hi)[0]
        lower = np.minimum(branch_a(hi), phi_b).sum(axis=0) + (1 - alpha) * np.exp(lo)
        sure_a = np.isfinite(phi_a_lo) & (phi_b * (1.0 - 1e-6) > phi_a_lo * (1.0 + 1e-6))
        return lower * (1.0 - 1e-6) > upper, np.where(sure_a, 1.0, u_ride).sum(axis=0) > budget

    last = min(k_end, _SCAN_CEILINGS - 1)
    starts = np.arange(0, k_end, _BOUND_BLOCK)
    out, over = tests(coarse[np.minimum(starts + _BOUND_BLOCK, last)], coarse[starts], ctx.u_min)
    inside = (starts[~(out | over), None] + np.arange(_BOUND_BLOCK)).ravel()
    inside = inside[inside < last]
    if math.isfinite(upper) and len(inside) and ctx.size > budget:
        u = u_floor(coarse[inside + 1], coarse[inside])
        rest = u.sum(axis=0) <= budget
        inside = inside[rest]
        if len(inside) and np.logical_or(
                *tests(coarse[inside + 1], coarse[inside], u[:, rest])).all():
            inside = inside[:0]
    if math.isfinite(upper) and len(inside) == 0:
        return None
    return np.flatnonzero(np.repeat(~out, _BOUND_BLOCK)[:k_end])


def _ceiling_scan(ctx: SchedulingContext, alpha):
    """Globally-informed candidate for the joint problem, within the budget.

    Where |V| u_min >= N the floor is the only point that fits; it returns at
    once (4 us, against 27-39 ms for the full dense scans).  Otherwise, given
    the max-term ceiling s, the problem separates per vehicle: u = 1 with the
    smallest rate whose pressure meets the ceiling, or u rides it (u = s *
    e^(f-1)) at cost (alpha*d/(D*s)) * q(R), q = exp(-(f-1))/p independent of
    s.  Scanning log s (geometric pass plus a local refinement) with
    sliding-window minima of log q locates the global optimum up to grid
    resolution, ignoring the budget; that candidate is returned if it fits N.

    Otherwise the budget is priced (_budget_priced): a multiplier mu on it
    adds mu u to each vehicle's term, each ceiling takes the smallest mu whose
    choices fit N, and passes of _PRICE_PASSES geometric ceilings, each over
    the span around the last pass's best, search the ceilings coarse to fine
    on every _PRICE_STRIDE-th grid point.  The best ceiling is priced again on
    the whole grid, and its u is the candidate.

    Only the geometric ceilings that can hold its minimum are priced.  With
    c = alpha*d/D, a vehicle's term is at most its u = 1 branch, so the total
    of that branch at every 16th ceiling bounds the minimum from above; and
    since f1 >= ln u_min - log s and u <= 1, the term is at least
    c / p(max(f1_min, ln u_min - log s)), which rises as s falls.  Every
    ceiling from the first whose summed lower bounds exceed the upper bound by
    the margin _SCAN_PRUNE_MARGIN is priced +inf.  The grids are computed only
    up to the ceiling after the last one kept, which the refinement may read,
    and no window reaches past it.

    Of the kept ceilings, only those in blocks that can hold the minimum have
    their totals computed; where bounds over blocks and coarse intervals, with
    each rider's u floored (u_floor), prove the candidate over N at every
    ceiling it could take, the coarse, fine and last passes give way to the
    pricing at once, which reads only the grids' ends and the scan's range
    (_exact_ceilings).  Either way the result is the same bytes.

    One routine, window_minima, gives every window minimum the scan reads, for
    one ceiling or the union of a span's windows, with its first index: a
    window [l, r) of a vehicle's grid has the minimum of [0, r), and its first
    index from the prefix first-index array, when that is below the minimum of
    [0, l); the rest are sliced (_slice_minima).  The riding branch
    (phi_b_floor at lo = hi), the rider floors and the last pass, which reads
    each rider's u at its first minimum, stand on it.  Every vehicle's grid is
    built at once and in place; a vehicle whose R_max is within about 1e-9 of
    R_min gets a grid of one repeated point.
    """
    floor = np.full(ctx.size, ctx.u_min)
    if ctx.size * ctx.u_min >= ctx.n_blocks:
        return floor
    w = ctx.bandwidth
    f1_lo = np.expm1(ctx.r_min * _LN2 / w)
    f1_hi = np.expm1(ctx.r_max * _LN2 / w)
    ln_umin = math.log(ctx.u_min)
    ell_lo = float(np.max(ln_umin - f1_hi))
    ell_hi = float(np.max(-f1_lo))
    # a weight alpha*D_v/D that underflows to 0 has no log: the blocks' zero-cost
    # masks take that case, and the scan offers no candidate
    weights = alpha * np.maximum(ctx.data_sizes, 1e-300) / ctx.d_total
    if not (ell_hi > ell_lo and np.all(weights > 0.0)):
        return None
    n_grid, size = _SCAN_GRID, ctx.size
    xi1, xi3 = ctx.xi1[:, None], ctx.xi3[:, None]
    lo_col, hi_col = f1_lo[:, None], f1_hi[:, None]
    weighted_data = alpha * ctx.data_sizes[:, None]
    ln_cd = np.log(weights)[:, None]

    def branch_a(ells):
        """phi_a, the u = 1 branch, per vehicle and ceiling."""
        f1_a = np.maximum(lo_col, -ells)
        with np.errstate(divide="ignore"):
            p_a = -np.expm1(np.minimum(xi1 - xi3 / f1_a, 0.0))
        live = (f1_a <= hi_col * (1.0 - 1e-12)) & (p_a > 0)
        return np.where(live, weighted_data / (ctx.d_total * np.maximum(p_a, 1e-300)), np.inf)

    t_min = max(-ell_hi, 1e-9)
    t_max = max(-ell_lo, t_min * (1.0 + 1e-9))
    coarse = -np.geomspace(t_min, t_max, _SCAN_CEILINGS)
    probes = coarse[::16]
    upper = np.min((1.0 - alpha) * np.exp(probes) + branch_a(probes).sum(axis=0))
    k_end = _priced_ceilings(ctx, alpha, f1_lo, coarse, upper)
    # the refinement around the last kept ceiling reads the one below it; 1e-9
    # covers the rounding of the grid's log and exp
    ln_need = math.log(-coarse[min(k_end, _SCAN_CEILINGS - 1)]) + 1e-9

    # per-vehicle log-spaced f1 grids, endpoint pulled off the zero-success edge,
    # in np.linspace's arithmetic on math.log ends
    ln_a = np.array([math.log(x) for x in f1_lo.tolist()])[:, None]
    ln_b = np.array([math.log(x * (1 - 1e-9)) for x in f1_hi.tolist()])[:, None]
    ln_b = np.maximum(ln_b, ln_a)
    delta = (ln_b - ln_a) / (n_grid - 1)
    # the grids are computed up to the last column with log f1 <= ln_need and two
    # more, or whole where a row's grid is one point, and built in place:
    # ln_q = -grid - log(max(p, 1e-300)), p = -expm1(min(xi1 - xi3/grid, 0)), its
    # prefix minima pre[v, r] = min of ln_q[v, :r] and first[v, j] the first index
    # of the minimum of ln_q[v, :j + 1]
    reach = float(np.max((ln_need - ln_a) / delta)) if np.all(delta > 0) else math.inf
    width = int(min(n_grid, max(reach, 0.0) + 2.0))
    grid = np.arange(width, dtype=float) * delta
    grid += ln_a
    if width == n_grid:
        grid[:, -1] = ln_b[:, 0]
    np.exp(grid, out=grid)
    ln_q = xi3 / grid
    np.minimum(np.subtract(xi1, ln_q, out=ln_q), 0.0, out=ln_q)
    np.maximum(np.negative(np.expm1(ln_q, out=ln_q), out=ln_q), 1e-300, out=ln_q)
    np.negative(np.add(np.log(ln_q, out=ln_q), grid, out=ln_q), out=ln_q)
    pre = np.full((size, width + 1), np.inf)
    np.minimum.accumulate(ln_q, axis=1, out=pre[:, 1:])
    first = np.where(ln_q < pre[:, :-1], np.arange(width), 0)
    np.maximum.accumulate(first, axis=1, out=first)
    rows = np.arange(size)[:, None]

    def window_minima(lo, hi):
        """Per vehicle and span [lo[i], hi[i]] of ceilings, the minimum of log q
        over the union [ln u_min - hi, -lo] of the span's windows and its first
        index, inf where it holds no grid point: that of [0, r) for a window
        [l, r) where it is below the minimum of [0, l), else sliced."""
        left = np.array([row.searchsorted(ln_umin - hi, side="left") for row in grid])
        right = np.array([row.searchsorted(-lo, side="right") for row in grid])
        m, at = pre[rows, right], first[rows, np.maximum(right - 1, 0)]
        settled = m < pre[rows, left]
        m[~settled] = np.inf
        rest = np.nonzero(~settled & (left < right))
        m[rest], at[rest] = _slice_minima(ln_q, rest[0], left[rest], right[rest])
        return m, at

    def phi_b_floor(lo, hi):
        """A lower bound on phi_b per vehicle over each span [lo[i], hi[i]] of
        ceilings, from the minimum over the union of its windows at its top
        ceiling, and that minimum's first index; inf where the union holds no
        grid point.  At lo = hi it is the riding branch itself."""
        m, at = window_minima(lo, hi)
        return np.where(m < np.inf, np.exp(np.minimum(ln_cd - hi + m, 700.0)), np.inf), at

    def u_floor(lo, hi):
        """A lower bound on u per vehicle over each span [lo[i], hi[i]] of ceilings:
        min(1, e^(lo + grid[A])) less 1e-12, A the first minimum of the window at
        hi, or u_min where that window holds no grid point."""
        m, at = window_minima(hi, hi)
        x = np.where(m < np.inf, grid[rows, at], -np.inf)
        return np.maximum(np.exp(np.minimum(lo + x, 0.0)) * (1.0 - 1e-12), ctx.u_min)

    def scan_totals(ells):
        totals = (1.0 - alpha) * np.exp(ells)
        for term in np.minimum(branch_a(ells), phi_b_floor(ells, ells)[0]):
            totals += term  # vehicle by vehicle, in id order
        return totals

    exact = _exact_ceilings(ctx, alpha, coarse, k_end, upper, branch_a, phi_b_floor, u_floor)
    if exact is not None:
        totals = np.full(_SCAN_CEILINGS, np.inf)
        totals[exact] = scan_totals(coarse[exact])
        k = int(np.argmin(totals))
        if not math.isfinite(totals[k]):
            return None
        fine = np.linspace(coarse[max(k - 1, 0)], coarse[min(k + 1, _SCAN_CEILINGS - 1)], 400)
        totals_fine = scan_totals(fine)
        kf = int(np.argmin(totals_fine))
        ell = float(fine[kf]) if totals_fine[kf] <= totals[k] else float(coarse[k])

        ells = np.array([ell])
        phi_a = branch_a(ells)[:, 0]
        phi_b, at = (col[:, 0] for col in phi_b_floor(ells, ells))
        if not np.all(np.isfinite(phi_a) | np.isfinite(phi_b)):
            return None
        # each riding vehicle at the first minimum of log q in its window
        ride = np.flatnonzero(phi_b < phi_a)
        u = np.ones(size)
        for v, x in zip(ride.tolist(), grid[ride, at[ride]].tolist()):
            u[v] = min(1.0, math.exp(ell + x))
        u = np.clip(u, ctx.u_min, 1.0)
        if u.sum() <= ctx.n_blocks:
            return u
    # coarse to fine over the scan's range, each pass around the last one's best
    grids = f1_lo, f1_hi, ln_a[:, 0], delta[:, 0]
    found, span, mu = (math.inf, None, floor), (t_min, t_max), None
    for count, tol in _PRICE_PASSES:
        ells = -np.geomspace(*span, count)
        values, fills, mus, _ = _budget_priced(ctx, alpha, *grids, ells, _PRICE_STRIDE, mu, tol)
        # the lowest of equal minima: above every vehicle's top ceiling the
        # objective is flat, and the flat's low end is next to what lies below
        k = count - 1 - int(np.argmin(values[::-1]))
        if not math.isfinite(values[k]):
            break
        if values[k] < found[0]:
            found = values[k], ells[k], fills[k]
        mu = mus[k]
        span = -ells[max(k - 1, 0)], -ells[min(k + 1, count - 1)]
    if found[1] is None:
        return floor
    values, fills, _, _ = _budget_priced(ctx, alpha, *grids, np.array([found[1]]), 1, mu,
                                         _PRICE_PASSES[-1][1])
    return np.clip(fills[0] if math.isfinite(values[0]) else found[2], ctx.u_min, 1.0)


def _budget_priced(ctx, alpha, f1_lo, f1_hi, ln_a, delta, ells, stride, mu, tol):
    """The budget-priced choice of every vehicle at each log ceiling of `ells`;
    returns per ceiling the objective, u and the multiplier mu on the budget,
    then the steps of the search.

    With c = alpha*D_v/D, a vehicle takes, at a point f of its riding window
    [ln u_min - ell, -ell] (every `stride`-th point of its scan grid), u =
    clip(sqrt(c/(mu p)), u_min, e^(ell+f)), and at its u = 1 point, f =
    max(f1_min, -ell), the same u capped at 1.  It keeps the option with the
    least c/(u p) + mu u: the window's first minimum, unless the u = 1 point is
    no worse.  At mu = 0 these are the scan's two branches.

    Each ceiling's mu is the smallest, to `tol`, whose choices fit N: a ceiling
    is done once they spend at least N(1 - tol) or its bracket on mu is that
    narrow.  Inside a bracket the step is regula falsi on log(spend/N) against
    log mu, an end kept twice having its residual halved (Illinois); with one
    end, the closed form of the spend with only the vehicles at the water level
    moving; else the geometric midpoint, or a factor 4 past the one end.  mu
    starts from `mu` (0 if None).  A step chooses at every ceiling and moves
    the brackets still searching as Python floats.  The objective is that of
    the choices at the final mu: inf where no mu fits or a vehicle has no option.
    """
    size, n, lo, budget = ctx.size, len(ells), ctx.u_min, ctx.n_blocks
    c = alpha * np.maximum(ctx.data_sizes, 1e-300) / ctx.d_total  # the scan's weights
    x_lo, x_hi = math.log(lo) - ells, -ells
    # each window's grid points, one more past either end, then the exact test
    span = np.where(delta > 0.0, delta * stride, np.inf)
    last = np.where(delta > 0.0, (_SCAN_GRID - 1) // stride, 0)
    first = np.clip(np.ceil((np.log(np.maximum(x_lo, 1e-300))[:, None] - ln_a) / span) - 1.0,
                    0, last).astype(np.intp)
    end = np.clip(np.floor((np.log(x_hi)[:, None] - ln_a) / span) + 1.0, -1, last).astype(np.intp)
    count = np.maximum(end - first + 1, 0).ravel()
    pair = np.repeat(np.arange(n * size), count)
    j = first.ravel()[pair] + np.arange(len(pair)) - np.repeat(np.cumsum(count) - count, count)
    k, v = np.divmod(pair, size)
    g = np.exp(j * stride * delta[v] + ln_a[v])
    with np.errstate(divide="ignore"):
        p = -np.expm1(np.minimum(ctx.xi1[v] - ctx.xi3[v] / g, 0.0))
    keep = (p > 0.0) & (g >= x_lo[k]) & (g <= x_hi[k])
    pair, k, g, p, cost = pair[keep], k[keep], g[keep], p[keep], c[v[keep]]
    cap = np.exp(np.minimum(ells[k] + g, 0.0))
    root = np.sqrt(cost / p)
    starts = np.flatnonzero(np.diff(pair, prepend=-1))
    owner, index = pair[starts], np.arange(len(pair))
    f_a = np.maximum(f1_lo, x_hi[:, None])
    with np.errstate(divide="ignore"):
        p_a = -np.expm1(np.minimum(ctx.xi1 - ctx.xi3 / f_a, 0.0))
    live = (f_a <= f1_hi * (1.0 - 1e-12)) & (p_a > 0.0)
    p_a = np.where(live, p_a, 1.0)  # a dead point is priced inf
    root_a = np.sqrt(c / p_a)
    has = live.copy()  # a vehicle with no option prices its ceiling inf
    has.ravel()[owner] = True

    def choose(mu):
        with np.errstate(divide="ignore"):
            inv = 1.0 / np.sqrt(mu)
        u_a = np.minimum(np.maximum(root_a * inv[:, None], lo), 1.0)
        val_a = np.where(live, c / (u_a * p_a) + mu[:, None] * u_a, np.inf)
        if not len(pair):
            return u_a, f_a, p_a, root_a, (u_a < 1.0) & (u_a > lo)
        u = np.minimum(np.maximum(root * inv[k], lo), cap)
        val = cost / (u * p) + mu[k] * u
        best, at = np.full(n * size, np.inf), np.zeros(n * size, dtype=np.intp)
        best[owner] = np.minimum.reduceat(val, starts)
        at[owner] = np.minimum.reduceat(np.where(val == best[pair], index, len(index)), starts)
        ride, at = (best < val_a.ravel()).reshape(n, size), at.reshape(n, size)
        u_c, cap_c = np.where(ride, u[at], u_a), np.where(ride, cap[at], 1.0)
        return (u_c, np.where(ride, g[at], f_a), np.where(ride, p[at], p_a),
                np.where(ride, root[at], root_a), (cap_c > u_c) & (u_c > lo))

    mu, start = np.full(n, 0.0 if mu is None else mu), mu or 0.0
    lo_mu, hi_mu, y_lo, y_hi, kept = [0.0] * n, [math.inf] * n, [0.0] * n, [0.0] * n, [0] * n
    searching = list(range(n))
    for steps in range(1, _EXACT_ITERS + 1):
        u, _, _, rv, water = choose(mu)  # water: u strictly inside its box
        total, going = np.add.reduce(u, axis=1)[searching], []
        for i, t, m, y in zip(searching, total.tolist(), mu[searching].tolist(),
                              np.log(total / budget).tolist()):
            if t <= budget:  # mu fits: the bracket's upper end
                y_lo[i] *= 0.5 if kept[i] == 1 else 1.0
                kept[i], hi_mu[i], y_hi[i] = 1, m, y
                if t >= budget * (1.0 - tol) or m == 0.0:
                    continue
            elif t > budget:  # it does not: the lower end; a NaN spend moves neither
                y_hi[i] *= 0.5 if kept[i] == -1 else 1.0
                kept[i], lo_mu[i], y_lo[i] = -1, m, y
            if not hi_mu[i] <= lo_mu[i] * (1.0 + tol):
                going.append(i)
        searching = going
        if not searching:
            break
        held, level, spread = (np.add.reduce(x, axis=1).tolist() for x in (
            np.where(water, 0.0, u), np.where(water, rv, 0.0), rv))
        # inside a bracket y_hi < 0 < y_lo: a ceiling that fits N exactly is done
        both = [i for i in searching if lo_mu[i] > 0.0 and hi_mu[i] < math.inf]
        ends = np.log([lo_mu[i] for i in both] + [hi_mu[i] for i in both]).tolist()
        secant = dict(zip(both, np.exp([a - y_lo[i] * (b - a) / (y_hi[i] - y_lo[i]) for i, a, b
                                        in zip(both, ends, ends[len(both):])]).tolist()))
        for i in searching:
            a, b = lo_mu[i], hi_mu[i]
            if i in secant:
                step, away = secant[i], math.sqrt(a * b)
            else:
                r = level[i] / (budget - held[i]) if held[i] != budget else math.inf
                step, away = r * r, (0.25 * b if b < math.inf else 4.0 * a)  # no room: away
                if a == 0.0 and b == math.inf:  # mu = 0 overspends: all at the water level
                    away = (spread[i] / budget) * (spread[i] / budget)
            mu[i] = step if a < step < b else away
    u, f, pv, _, _ = choose(np.where(np.isfinite(hi_mu), hi_mu, start))
    values = np.add.reduce(c / (u * pv), axis=1) + (1.0 - alpha) * np.exp(
        np.max(np.log(u) - f, axis=1))
    hi_mu = np.array(hi_mu)
    return np.where(has.all(axis=1) & np.isfinite(hi_mu), values, np.inf), u, hi_mu, steps


@dataclass(eq=False)
class RoundPlan:
    """One round's solve: per-vehicle arrays aligned with `ids` (the context's ids).

    `u` holds the inclusion probabilities, `r` the rates and `p` the success
    probabilities of those rates.  A round refers to a vehicle by its
    position in these arrays.  `inclusion_probs` and `rates` are views of `u`
    and `r` by id; they stay for the benchmark's plan check, which reads them,
    and its test, which assigns `inclusion_probs`.
    """

    ids: tuple = ()
    u: np.ndarray = field(default_factory=lambda: np.zeros(0))
    p: np.ndarray = field(default_factory=lambda: np.zeros(0))
    r: np.ndarray = field(default_factory=lambda: np.zeros(0))
    objective_value: float = math.nan

    @property
    def inclusion_probs(self):
        return dict(zip(self.ids, self.u.tolist()))

    @inclusion_probs.setter
    def inclusion_probs(self, by_id):
        self.u = np.array([by_id[i] for i in self.ids], dtype=float)

    @property
    def rates(self):
        return dict(zip(self.ids, self.r.tolist()))


def _plan_from(ctx, u, rates, obj):
    u, rates = np.array(u, dtype=float), np.array(rates, dtype=float)
    return RoundPlan(ids=tuple(ctx.ids.tolist()), u=u, p=ctx.success_prob(rates), r=rates,
                     objective_value=obj)


def _alternate(ctx, u):
    """Alternate exact block solves from u until the relative decrease stalls;
    returns (trace, u, rates, converged, alternations).

    A block candidate is only accepted when it does not worsen the objective,
    so the trace of accepted objective values is non-increasing.  Where |V| u_min
    >= N the inclusion block has one feasible point, the floor u starts from,
    and is not solved: its step repeats the last objective, which is the
    floor's at the current rates.
    """
    # block results keyed by their input's bytes: a rejected step leaves the
    # state unchanged, and the next solve of that block would repeat
    rate_table, inclusion_table = {}, {}

    def solve_block(table, solve, x):
        key = x.tobytes()
        if key not in table:
            table[key] = solve(x, ctx)
        return table[key]

    pinned = ctx.size * ctx.u_min >= ctx.n_blocks
    rates = ctx.r_min.copy()
    trace = [objective(u, rates, ctx)]
    converged = False
    alternations = 0
    for alternations in range(1, _BCD_MAX_ALTERNATIONS + 1):
        prev = trace[-1]
        r_new = solve_block(rate_table, solve_rate_block, u)
        o_r = objective(u, r_new, ctx)
        if o_r <= trace[-1]:
            rates = r_new
            trace.append(o_r)
        else:
            trace.append(trace[-1])
        if pinned:
            trace.append(trace[-1])
        else:
            u_new = solve_block(inclusion_table, solve_inclusion_block, rates)
            o_u = objective(u_new, rates, ctx)
            if o_u <= trace[-1]:
                u = u_new
                trace.append(o_u)
            else:
                trace.append(trace[-1])
        if prev - trace[-1] <= _BCD_RTOL * max(1e-300, abs(prev)):
            converged = True
            break
    return trace, u, rates, converged, alternations


def bcd_solve(ctx: SchedulingContext):
    """Alternate exact block solves from one start until the relative decrease
    stalls.

    An interior alpha starts from the ceiling scan's candidate, which fits the
    budget.  At alpha 0 or 1 both block solves are start-independent, and the
    floor start (every vehicle at u_min) runs, as it does where the scan offers
    no candidate.  The reported trace is the run's accepted objective values.
    """
    if ctx.size == 0:
        return RoundPlan(), SolverReport()
    u = _ceiling_scan(ctx, ctx.alpha) if 0.0 < ctx.alpha < 1.0 else None
    if u is None:
        u = np.full(ctx.size, ctx.u_min)
    trace, u, rates, converged, alternations = _alternate(ctx, u)
    return (_plan_from(ctx, u, rates, trace[-1]),
            SolverReport(iterations=alternations, objective_trace=trace, converged=converged))


def scheme1_baseline(ctx: SchedulingContext):
    """Uniform inclusion over the feasible set plus reliability-first rates.

    u_v = min(1, N/|V|) for everyone; rates are the per-vehicle minimum rates,
    which solve the inclusion-cost-only rate block (the round-time pressure
    term is not part of this baseline).
    """
    if ctx.size == 0:
        return RoundPlan(), SolverReport()
    u = np.full(ctx.size, min(1.0, ctx.n_blocks / ctx.size))
    rates = ctx.r_min.copy()
    obj = objective(u, rates, ctx)
    plan = _plan_from(ctx, u, rates, obj)
    return plan, SolverReport(iterations=1, objective_trace=[obj], converged=True)


def scheme2_baseline(ctx: SchedulingContext):
    """The inclusion-cost-only special case: the full solve at alpha = 1."""
    return bcd_solve(replace(ctx, alpha=1.0))


def realize_selection(plan: RoundPlan, rng, n_blocks):
    """Independent Bernoulli(u_v) inclusion; overflow beyond the block budget keeps
    the vehicles with the largest u_v * p_v (most valuable expected updates), the
    lower id on a tie.

    Returns the selected positions in the plan's arrays, ascending, and how
    many drawn vehicles the budget trimmed.
    """
    drawn = np.flatnonzero(rng.uniform(size=len(plan.ids)) < plan.u)
    if len(drawn) <= n_blocks:
        return drawn, 0
    keep = drawn[np.lexsort((drawn, -(plan.u * plan.p)[drawn]))][: int(n_blocks)]
    return np.sort(keep), len(drawn) - len(keep)


def round_time(plan: RoundPlan, successful, model_bits, round_time_cap):
    """Duration of a round: the whole model at the slowest rate among the
    successful positions, or the cap when none succeeded."""
    if not len(successful):
        return round_time_cap
    return model_bits / float(plan.r[successful].min())


# ---------------------------------------------------------------------------
# instance dump (offline solver debugging)
# ---------------------------------------------------------------------------

def dump_instance(ctx: SchedulingContext, path):
    """Write the per-vehicle scheduling inputs as a flat text record."""
    buf = io.StringIO()
    buf.write("# vflsim instance 1\n")
    buf.write(f"# alpha {ctx.alpha!r} u_min {ctx.u_min!r} n_blocks {ctx.n_blocks!r} "
              f"bandwidth {ctx.bandwidth!r} noise_density {ctx.noise_density!r} "
              f"tx_power {ctx.tx_power!r} model_bits {ctx.model_bits!r} d_total {ctx.d_total!r} "
              f"budget_dropped ({','.join(str(int(i)) for i in ctx.budget_dropped)})\n")
    buf.write("# columns: id data_size epsilon h_est_sq large_scale_gain sojourn_s r_min r_max\n")
    for k in range(ctx.size):
        buf.write(" ".join([
            str(int(ctx.ids[k])), repr(float(ctx.data_sizes[k])), repr(float(ctx.epsilon[k])),
            repr(float(ctx.h_est_sq[k])), repr(float(ctx.gain[k])), repr(float(ctx.sojourn[k])),
            repr(float(ctx.r_min[k])), repr(float(ctx.r_max[k])),
        ]) + "\n")
    text = buf.getvalue()
    if path is not None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    return text


def load_instance(path_or_text):
    """Read back a dumped instance into a SchedulingContext."""
    if "\n" in str(path_or_text):
        text = path_or_text
    else:
        with open(path_or_text, "r", encoding="utf-8") as f:
            text = f.read()
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# vflsim instance 1"):
        raise ValueError("not a vflsim instance dump")
    meta_parts = lines[1][1:].split()
    meta = {meta_parts[i]: meta_parts[i + 1] for i in range(0, len(meta_parts), 2)}
    # older dumps lack budget_dropped; a header field this reader does not use,
    # such as the retired block_iters, is ignored
    dropped = meta.pop("budget_dropped", "()").strip("()")
    meta = {key: float(value) for key, value in meta.items()}
    rows = [ln.split() for ln in lines[3:] if ln.strip()]
    cols = list(zip(*rows)) if rows else [[]] * 8
    return SchedulingContext(
        ids=np.array([int(x) for x in cols[0]]),
        data_sizes=np.array([float(x) for x in cols[1]]),
        epsilon=np.array([float(x) for x in cols[2]]),
        h_est_sq=np.array([float(x) for x in cols[3]]),
        gain=np.array([float(x) for x in cols[4]]),
        sojourn=np.array([float(x) for x in cols[5]]),
        r_min=np.array([float(x) for x in cols[6]]),
        r_max=np.array([float(x) for x in cols[7]]),
        alpha=meta["alpha"],
        u_min=meta["u_min"],
        n_blocks=meta["n_blocks"],
        bandwidth=meta["bandwidth"],
        noise_density=meta["noise_density"],
        tx_power=meta["tx_power"],
        model_bits=meta["model_bits"],
        d_total=meta["d_total"],
        budget_dropped=tuple(int(x) for x in dropped.split(",") if x),
    )
