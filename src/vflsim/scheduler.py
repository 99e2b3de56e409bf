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
# this fraction, or after _BCD_MAX_ALTERNATIONS; on desk seeds 11-13 x 60 rounds
# two of 540 runs reach the cap, neither the returned one, and the longest
# returned run takes 24 (README solver notes)
_BCD_RTOL = 1e-6
_BCD_MAX_ALTERNATIONS = 50
# _ceiling_scan: points of each vehicle's log-spaced f1 grid and of the
# geometric pass over the ceiling
_SCAN_GRID = 1500
_SCAN_CEILINGS = 1400
_SCAN_BLOCK = 16  # vehicles per numpy call of the scan
# relative margin by which a ceiling's lower bound must exceed the upper bound
# on the scan's minimum for it to be skipped; it covers the rounding of phi_b's
# exponent, about 2|log s| ulp
_SCAN_PRUNE_MARGIN = 1e-3


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
    n = n_keep = len(ids)
    if n * u_min > n_blocks:
        # the largest count k with k * u_min <= n_blocks, then a fix-up on that
        # same float test so that rounding in the division cannot move k
        n_keep = min(max(int(n_blocks / u_min), 0), n)
        while n_keep < n and (n_keep + 1) * u_min <= n_blocks:
            n_keep += 1
        while n_keep and n_keep * u_min > n_blocks:
            n_keep -= 1
    weakest = np.lexsort((ids, r_max))[: n - n_keep]
    keep = np.ones(n, dtype=bool)
    keep[weakest] = False
    return np.flatnonzero(keep), [int(i) for i in np.asarray(ids)[weakest]]


def build_context(population, geometry, cfg):
    """Feasible-set context from a mobility.Population's last channel refresh;
    handles the u_min budget shrink."""
    road = np.flatnonzero(population.position < geometry.road_length)
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
        if total <= budget * (1.0 + 1e-12):
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
            r = math.sqrt(c_held / c)
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
    iterations: int = 0
    objective_trace: list = field(default_factory=list)
    converged: bool = False


def _slice_minima(ln_q, rows, left, right):
    """min of ln_q[rows[i], left[i]:right[i]] per i, for windows that neither the
    prefix nor the suffix minima of _ceiling_scan settle."""
    return np.array([ln_q[v, a:b].min() for v, a, b in zip(rows, left, right)])


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


def _ceiling_scan(ctx: SchedulingContext, alpha):
    """Globally-informed candidate for the joint problem, ignoring the budget.

    Conditioned on the max-term ceiling s, the problem separates per vehicle:
    either u = 1 with the smallest rate whose pressure meets the ceiling, or u
    rides the ceiling (u = s * e^(f-1)), where the cost becomes
    (alpha*d/(D*s)) * q(R) with q = exp(-(f-1))/p independent of s.  Scanning
    log s (geometric pass plus a local refinement) with sliding-window minima
    of log q locates the global optimum up to grid resolution, ignoring the
    sum(u) <= N budget, which the candidate may overspend.

    Only the geometric ceilings that can hold its minimum are priced.  With
    c = alpha*d/D, a vehicle's term is at most its u = 1 branch, so the total
    of that branch at every 16th ceiling bounds the minimum from above; and
    since f1 >= ln u_min - log s and u <= 1, the term is at least
    c / p(max(f1_min, ln u_min - log s)), which rises as s falls.  Every
    ceiling from the first whose summed lower bounds exceed the upper bound by
    the margin _SCAN_PRUNE_MARGIN is priced +inf.  Each grid is computed only
    up to the ceiling after the last one kept, which the refinement may read;
    its columns past that stay +inf.

    The window minima come from per-vehicle prefix and suffix minima of log q
    over its grid of G points: a window [l, r) has the minimum of [0, r) when
    that is below the minimum of [0, l), else the minimum of [l, G) when that
    is below the minimum of [r, G); only the rest are sliced.  Where even the
    minimum of [0, r), a lower bound on the window's, prices the riding branch
    above the u = 1 branch, the window's left end is never located.  The scan
    runs over blocks of _SCAN_BLOCK vehicles, which bounds its working set;
    only the grid searches go one vehicle at a time.  A vehicle whose R_max is
    within about 1e-9 of R_min gets a grid of one repeated point.
    """
    w = ctx.bandwidth
    f1_lo = np.expm1(ctx.r_min * _LN2 / w)
    f1_hi = np.expm1(ctx.r_max * _LN2 / w)
    ln_umin = math.log(ctx.u_min)
    ell_lo = float(np.max(ln_umin - f1_hi))
    ell_hi = float(np.max(-f1_lo))
    if not ell_hi > ell_lo:
        return None
    n_grid, size = _SCAN_GRID, ctx.size
    blocks = [slice(s, min(s + _SCAN_BLOCK, size)) for s in range(0, size, _SCAN_BLOCK)]
    xi1, xi3 = ctx.xi1[:, None], ctx.xi3[:, None]
    lo_col, hi_col = f1_lo[:, None], f1_hi[:, None]
    weighted_data = alpha * ctx.data_sizes[:, None]
    ln_cd = np.log(alpha * np.maximum(ctx.data_sizes, 1e-300) / ctx.d_total)[:, None]

    def branch_a(rows, ells):
        """phi_a, the u = 1 branch, per vehicle of `rows` and ceiling."""
        f1_a = np.maximum(lo_col[rows], -ells)
        with np.errstate(divide="ignore"):
            p_a = -np.expm1(np.minimum(xi1[rows] - xi3[rows] / f1_a, 0.0))
        live = (f1_a <= hi_col[rows] * (1.0 - 1e-12)) & (p_a > 0)
        return np.where(live, weighted_data[rows] / (ctx.d_total * np.maximum(p_a, 1e-300)),
                        np.inf)

    t_min = max(-ell_hi, 1e-9)
    t_max = max(-ell_lo, t_min * (1.0 + 1e-9))
    coarse = -np.geomspace(t_min, t_max, _SCAN_CEILINGS)
    probes = coarse[::16]
    upper = np.min((1.0 - alpha) * np.exp(probes) + branch_a(slice(None), probes).sum(axis=0))
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
    # each block computes its columns up to the last with log f1 <= ln_need and
    # two more, or all of them where a row's grid is one point
    cols = []
    for rows in blocks:
        d = delta[rows]
        reach = float(np.max((ln_need - ln_a[rows]) / d)) if np.all(d > 0) else math.inf
        cols.append(int(min(n_grid, max(reach, 0.0) + 2.0)))
    width = max(cols)
    steps = np.arange(width, dtype=float)
    grid, ln_q = np.full((size, width), np.inf), np.full((size, width), np.inf)
    # pre[v, r] = min of ln_q[v, :r] and suf[v, l] = min of ln_q[v, l:]; G = width
    pre, suf = np.empty((size, width + 1)), np.empty((size, width + 1))
    pre[:, 0] = suf[:, width] = np.inf
    for rows, n in zip(blocks, cols):
        x = steps[:n] * delta[rows] + ln_a[rows]
        if n == n_grid:
            x[:, -1] = ln_b[rows, 0]
        g = grid[rows, :n] = np.exp(x)
        p = -np.expm1(np.minimum(xi1[rows] - xi3[rows] / g, 0.0))
        ln_q[rows, :n] = -g - np.log(np.maximum(p, 1e-300))
        np.minimum.accumulate(ln_q[rows], axis=1, out=pre[rows, 1:])
        suf[rows, :width] = np.minimum.accumulate(ln_q[rows, ::-1], axis=1)[:, ::-1]

    def branches(rows, ells):
        """phi_a and phi_b per vehicle of `rows` and ceiling; phi_b reads inf where
        its lower bound already exceeds phi_a, and where its window holds no grid
        point."""
        hi_f = -ells
        phi_a = branch_a(rows, ells)
        g = grid[rows]
        right = np.array([np.searchsorted(row, hi_f, side="right") for row in g])
        shift = ln_cd[rows] - ells
        bound = np.exp(np.minimum(shift + np.take_along_axis(pre[rows], right, axis=1), 700.0))
        j, k = np.nonzero(~(bound > phi_a * (1.0 + 1e-12)))
        # np.nonzero goes row by row, so each vehicle's ceilings form one run
        runs = np.searchsorted(j, np.arange(len(g) + 1))
        x_left = ln_umin - ells
        left = np.empty(len(j), dtype=np.intp)
        for i in np.flatnonzero(runs[1:] > runs[:-1]):
            a, b = runs[i], runs[i + 1]
            left[a:b] = np.searchsorted(g[i], x_left[k[a:b]], side="left")
        v, r = j + rows.start, right[j, k]
        # [l, r) holds the minimum of [0, r) if that is below the minimum of [0, l),
        # and the minimum of [l, G) if that is below the minimum of [r, G)
        in_pre = pre[v, r] < pre[v, left]
        in_suf = suf[v, left] < suf[v, r]
        m = np.where(in_pre, pre[v, r], np.where(in_suf, suf[v, left], np.inf))
        rest = np.flatnonzero(~in_pre & ~in_suf & (left < r))
        m[rest] = _slice_minima(ln_q, v[rest], left[rest], r[rest])
        phi_b = np.full(phi_a.shape, np.inf)
        phi_b[j, k] = np.where(m < np.inf, np.exp(np.minimum(shift[j, k] + m, 700.0)), np.inf)
        return phi_a, phi_b

    def scan_totals(ells):
        totals = (1.0 - alpha) * np.exp(ells)
        for rows in blocks:
            for term in np.minimum(*branches(rows, ells)):
                totals += term  # vehicle by vehicle, in id order
        return totals

    totals = np.full(_SCAN_CEILINGS, np.inf)
    totals[:k_end] = scan_totals(coarse[:k_end])
    k = int(np.argmin(totals))
    if not math.isfinite(totals[k]):
        return None
    fine = np.linspace(coarse[max(k - 1, 0)], coarse[min(k + 1, _SCAN_CEILINGS - 1)], 400)
    totals_fine = scan_totals(fine)
    kf = int(np.argmin(totals_fine))
    ell = float(fine[kf]) if totals_fine[kf] <= totals[k] else float(coarse[k])

    u = np.ones(size)
    for rows in blocks:
        phi_a, phi_b = (col[:, 0] for col in branches(rows, np.array([ell])))
        if not np.all(np.isfinite(phi_a) | np.isfinite(phi_b)):
            return None
        for v in np.flatnonzero(phi_b < phi_a) + rows.start:
            g = grid[v]
            a = np.searchsorted(g, ln_umin - ell, side="left")
            b = np.searchsorted(g, -ell, side="right")
            u[v] = min(1.0, math.exp(ell + g[a + int(np.argmin(ln_q[v, a:b]))]))
    return np.clip(u, ctx.u_min, 1.0)


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


def _start_points(ctx):
    """Deterministic BCD starting points covering the main partial-optimum basins.

    The floor start puts every vehicle at u_min.  A "parking" start pins the
    weaker half of the links (by signal-to-error ratio) at u_min with the
    budget shared among the rest; basins where poor channels are soft-excluded
    are unreachable from symmetric starts.
    """
    floor = np.full(ctx.size, ctx.u_min)
    starts = [floor]
    k = int(math.ceil(0.5 * ctx.size))
    if 0 < k < ctx.size:
        u = np.full(ctx.size, ctx.u_min)
        share = (ctx.n_blocks - k * ctx.u_min) / (ctx.size - k)
        u[np.argsort(ctx.xi3, kind="stable")[k:]] = np.clip(share, ctx.u_min, 1.0)
        starts.append(u)
    return starts


def bcd_solve(ctx: SchedulingContext):
    """Alternate exact block solves until the relative decrease stalls.

    Biconvex problems can have several partially optimal points, so an interior
    alpha runs from the floor start, the parking start and the ceiling scan's
    candidate shrunk into the budget, in that order, and keeps the best (the
    earlier start on a tie).  At alpha 0 or 1 both block solves are
    start-independent and the floor start alone runs.  The reported trace is
    the winning run's accepted objective values, which are non-increasing by
    construction: a block candidate is only accepted when it does not worsen
    the objective.
    """
    if ctx.size == 0:
        return RoundPlan(), SolverReport()

    def feasible(u0):
        u0 = np.clip(u0, ctx.u_min, 1.0)
        total = u0.sum()
        floor_total = ctx.size * ctx.u_min
        if total > ctx.n_blocks and total > floor_total:
            shrink = (ctx.n_blocks - floor_total) / (total - floor_total)
            u0 = ctx.u_min + (u0 - ctx.u_min) * max(0.0, min(1.0, shrink))
        return u0

    # block results of this solve keyed by their input's bytes: a rejected step
    # leaves the state unchanged, and the next solve of that block would repeat
    rate_table, inclusion_table = {}, {}

    def solve_block(table, solve, x):
        key = x.tobytes()
        if key not in table:
            table[key] = solve(x, ctx)
        return table[key]

    def alternate(u0):
        u = feasible(u0)
        rates = ctx.r_min.copy()
        trace = [objective(u, rates, ctx)]
        converged = False
        outer = 0
        for outer in range(1, _BCD_MAX_ALTERNATIONS + 1):
            prev = trace[-1]
            r_new = solve_block(rate_table, solve_rate_block, u)
            o_r = objective(u, r_new, ctx)
            if o_r <= trace[-1]:
                rates = r_new
                trace.append(o_r)
            else:
                trace.append(trace[-1])
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
        return trace[-1], u, rates, converged, outer, trace

    starts = _start_points(ctx)
    if not 0.0 < ctx.alpha < 1.0:
        # both block solves are start-independent at the endpoints
        starts = starts[:1]
    elif (scanned := _ceiling_scan(ctx, ctx.alpha)) is not None:
        starts.append(scanned)
    # min keeps the earliest of equal objectives
    obj, u, rates, converged, outer, trace = min(
        (alternate(u0) for u0 in starts), key=lambda run: run[0])
    plan = _plan_from(ctx, u, rates, obj)
    report = SolverReport(iterations=outer, objective_trace=trace, converged=converged)
    return plan, report


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
