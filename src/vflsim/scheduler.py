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
inverse-probability cost.  A scalar golden-section search over the ceiling
therefore yields the block optimum, including the nonsmooth points where
several vehicles tie at the max; it stops once convexity certifies that its
best value is within a few ulps of the block minimum.

Between alternations the optimal ceiling moves little, so within one
alternation run each block's search starts from the ceiling that block's
previous solve returned and brackets the minimum downhill from there.  The
first search of a run covers the whole ceiling range, which for the rate block
is first cut from below in closed form to the ceilings that can beat the top
one.  bcd_solve keeps the block results of one solve keyed by the exact input
bytes, so no block is solved twice on the same input.

Block solvers are deterministic functions of their inputs and starting
ceiling, and return their result with the ceiling it sits at; iteration order
is vehicle-id ascending for reproducibility.  The problem, alpha included, is
the context's: a solve at another alpha takes a copy of the context.
"""

from __future__ import annotations

import io
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .mobility import remaining_sojourn

_LN2 = math.log(2.0)
_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# a line search stops once its best value is this close to the convexity bound:
# a few ulps, the resolution at which the sampled values stop changing
_CERT_RTOL = 4.0 * sys.float_info.epsilon
_GOLDEN_ITERS = 120  # cap on one line search; the certificate ends them first
# an alternation run stops once one alternation lowers the objective by at most
# this fraction, or after _BCD_MAX_ALTERNATIONS; every measured run stopped
# on the decrease, the longest after 47 (README solver notes)
_BCD_RTOL = 1e-6
_BCD_MAX_ALTERNATIONS = 50
# _ceiling_scan: points of each vehicle's log-spaced f1 grid and of the
# geometric pass over the ceiling
_SCAN_GRID = 1500
_SCAN_CEILINGS = 1400
_SCAN_BLOCK = 16  # vehicles per numpy call of the scan


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
        # noise-to-error and signal-to-error power ratios: the success probability
        # at rate R is 1 - exp(xi1 - xi3/(2^(R/W)-1)), and 2^(R/W) = 1 + xi3/xi1
        # is the perfect-CSI capacity
        eps2 = self.epsilon**2
        self.xi1 = (self.bandwidth * self.noise_density
                    / (self.tx_power * self.gain * (1.0 - eps2)))
        self.xi3 = self.h_est_sq * eps2 / (1.0 - eps2)

    @property
    def size(self):
        return len(self.ids)

    def success_prob(self, rates):
        """Vectorized success probability of per-vehicle rates given the estimates."""
        f1 = np.expm1(np.asarray(rates, dtype=float) * _LN2 / self.bandwidth)
        with np.errstate(divide="ignore", over="ignore"):
            arg = self.xi1 - self.xi3 / f1
        return np.where(arg < 0.0, -np.expm1(np.minimum(arg, 0.0)), 0.0)


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
    n_keep = len(ids)
    while n_keep and n_keep * u_min > n_blocks:
        n_keep -= 1
    weakest = np.lexsort((ids, r_max))[: len(ids) - n_keep]
    keep = np.ones(len(ids), dtype=bool)
    keep[weakest] = False
    return np.flatnonzero(keep), [int(i) for i in np.asarray(ids)[weakest]]


def build_context(vehicles, geometry, cfg):
    """Feasible-set context from live vehicle states; handles the u_min budget shrink."""
    road = [v for v in sorted(vehicles, key=lambda x: x.id)
            if v.position < geometry.road_length]

    def column(values):
        return np.array(list(values), dtype=float)

    ids = np.array([v.id for v in road], dtype=int)
    data = column(v.dataset.size if v.dataset is not None else 0 for v in road)
    eps = column(v.channel.epsilon for v in road)
    h2 = column(v.channel.h_est_power for v in road)
    gain = column(v.channel.large_scale_gain for v in road)
    soj = remaining_sojourn(column(v.position for v in road),
                            column(v.velocity for v in road), geometry)
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


def _convex_lower_bound(a, c, d, b, fa, fc, fd, fb):
    """Lower bound on the minimum over [a, b] of a convex function sampled at a < c < d < b.

    On [a, c] and [d, b] the function lies above the secant through (c, d)
    extended outward; on [c, d] above the higher of the secants through (a, c)
    and (d, b) extended inward.  -inf when a sample is not finite.
    """
    if not math.isfinite(fa + fc + fd + fb):
        return -math.inf
    s_ac = (fc - fa) / (c - a)
    s_cd = (fd - fc) / (d - c)
    s_db = (fb - fd) / (b - d)
    outer = min(fc, fd, fc - s_cd * (c - a), fd + s_cd * (b - d))
    # the higher of two lines is lowest at an end of [c, d] or where they cross
    inner = min(max(fc, fd - s_db * (d - c)), max(fc + s_ac * (d - c), fd))
    if s_ac != s_db:
        cross = (fd - fc + s_ac * c - s_db * d) / (s_ac - s_db)
        if c < cross < d:
            inner = min(inner, fc + s_ac * (cross - c))
    return min(outer, inner)


def _downhill_bracket(ev, lo, hi, x0, f0):
    """A bracket [a, b] within [lo, hi] that holds the minimum of a convex function
    with f(x0) = f0 finite; returns (a, b, f(a), f(b)).

    Steps of 1e-6 * max(1, |x0|) growing fourfold go downhill from x0 until a
    sample is no higher than its neighbours on both sides, or the walk reaches
    lo or hi while still descending.
    """
    def ordered(x, y, fx, fy):
        return (x, y, fx, fy) if x < y else (y, x, fy, fx)

    h = 1e-6 * max(1.0, abs(x0))
    x1 = min(x0 + h, hi)
    f1 = ev(x1)
    if not f1 < f0:
        xm = max(x0 - h, lo)
        fm = ev(xm)
        if not fm < f0:
            return xm, x1, fm, f1
        x1, f1 = xm, fm  # downhill is to the left
    prev, cur, f_prev, f_cur = x0, x1, f0, f1
    end = hi if cur > prev else lo
    while cur != end:
        nxt = min(max(cur + 4.0 * (cur - prev), lo), hi)
        f_nxt = ev(nxt)
        if not f_nxt < f_cur:
            return ordered(prev, nxt, f_prev, f_nxt)
        prev, cur, f_prev, f_cur = cur, nxt, f_cur, f_nxt
    # still descending at the end of the range: the minimum is in [prev, end]
    return ordered(prev, cur, f_prev, f_cur)


def _golden_min(fn, lo, hi, start=None):
    """Scalar minimization of a convex function on [lo, hi]; returns the best
    evaluated point, its value and the final bracket width.

    Golden-section search that stops as soon as the best sampled value is
    within _CERT_RTOL of the convexity lower bound over the bracket, which at a
    smooth minimum happens near a bracket width of 1e-8.  At a kink the bound
    stays loose, so the bracket shrinks to 1e-14 relative as before;
    _GOLDEN_ITERS caps the iterations either way.  A `start` inside (lo, hi)
    where `fn` is finite, such as the previous minimizer of a nearby function,
    replaces the full range by a downhill bracket around it; any other start
    searches [lo, hi].
    """
    best = [math.inf, lo]

    def ev(x):
        f = fn(x)
        if f < best[0]:
            best[0], best[1] = f, x
        return f

    a, b = lo, hi
    f0 = ev(start) if start is not None and lo < start < hi else math.inf
    if math.isfinite(f0):
        a, b, fa, fb = _downhill_bracket(ev, lo, hi, start, f0)
    else:
        fa, fb = ev(a), ev(b)
    c = b - _PHI * (b - a)
    d = a + _PHI * (b - a)
    fc, fd = ev(c), ev(d)
    for _ in range(_GOLDEN_ITERS):
        if fc <= fd:
            b, fb, d, fd = d, fd, c, fc
            c = b - _PHI * (b - a)
            fc = ev(c)
        else:
            a, fa, c, fc = c, fc, d, fd
            d = a + _PHI * (b - a)
            fd = ev(d)
        if b - a <= 1e-14 * max(1.0, abs(a), abs(b)):
            break
        lower = _convex_lower_bound(a, c, d, b, fa, fc, fd, fb)
        if math.isfinite(best[0]) and best[0] - lower <= _CERT_RTOL * abs(best[0]):
            break
    return best[1], best[0], b - a


def _rate_ceiling_floor(ln_u, cost, f1_max, phi_hi, ctx):
    """Lowest log-ceiling at which the rate block's reduced objective can beat phi_hi.

    A ceiling beats phi_hi only if every cost term cost_v/p_v is below it, so
    p_v exceeds q_v = cost_v/phi_hi; as p_v = 1 - exp(xi1 - xi3/f1_v), that
    bounds f1_v = 2^(R_v/W) - 1 by xi3/(xi1 - log1p(-q_v)).  A vehicle meets
    the ceiling ell only with f1_v >= ln u_v - ell.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        f1_cap = ctx.xi3 / (ctx.xi1 - np.log1p(-cost / phi_hi))
    return float(np.max(ln_u - np.minimum(f1_cap, f1_max)))


def solve_rate_block(u, ctx: SchedulingContext, start=None):
    """Exact rate-block minimizer for fixed inclusion probabilities; returns
    (rates, log s).

    Parameterized by the ceiling s of the max term: every vehicle whose
    pressure exceeds s raises its rate just enough to meet it, never more,
    because the inclusion cost strictly grows with rate.  The reduced
    objective is convex in log s.  A `start` log s inside the ceiling range
    starts the line search there; a search without one runs only over the
    ceilings that can beat the top one (see _rate_ceiling_floor).  A solve
    that runs no search returns `start` as its ceiling.
    """
    alpha = ctx.alpha
    if ctx.size == 0:
        return np.array([]), start
    if alpha >= 1.0:
        return ctx.r_min.copy(), start
    if alpha <= 0.0:
        return ctx.r_max.copy(), start
    u = np.asarray(u, dtype=float)
    ln_u = np.log(u)
    w = ctx.bandwidth
    f1_min = np.expm1(ctx.r_min * _LN2 / w)
    f1_max = np.expm1(ctx.r_max * _LN2 / w)
    ell_lo = float(np.max(ln_u - f1_max))
    ell_hi = float(np.max(ln_u - f1_min))

    def rates_at(ell, out=None):
        # the clamp to r_min > 0 also settles the vehicles that need no raise
        out = np.subtract(ln_u, ell, out=out)
        np.maximum(out, 0.0, out=out)
        np.log1p(out, out=out)
        np.multiply(w, out, out=out)
        np.divide(out, _LN2, out=out)
        np.maximum(out, ctx.r_min, out=out)
        return np.minimum(out, ctx.r_max, out=out)

    weighted_data = alpha * ctx.data_sizes
    scaled_u = ctx.d_total * u
    rates, x = np.empty(ctx.size), np.empty(ctx.size)

    def phi(ell):
        # SchedulingContext.success_prob inline: p = -expm1(arg) > 0 exactly where
        # arg < 0, and the cost is infinite elsewhere
        rates_at(ell, out=rates)
        np.multiply(rates, _LN2, out=x)
        np.divide(x, w, out=x)
        np.expm1(x, out=x)
        np.divide(ctx.xi3, x, out=x)
        np.subtract(ctx.xi1, x, out=x)
        if not x.max() < 0.0:
            return math.inf
        np.expm1(x, out=x)
        np.negative(x, out=x)
        np.multiply(scaled_u, x, out=x)
        np.divide(weighted_data, x, out=x)
        return float(x.sum()) + (1.0 - alpha) * math.exp(ell)

    if not ell_hi > ell_lo:
        return rates_at(ell_hi), start
    # the success probability's overflow and zero division, as it ignores them
    with np.errstate(divide="ignore", over="ignore"):
        if start is None or not ell_lo < start < ell_hi:
            floor = _rate_ceiling_floor(ln_u, weighted_data / scaled_u, f1_max, phi(ell_hi), ctx)
            ell_lo = max(ell_lo, floor - 1e-9 * max(1.0, abs(floor)))
        ell_star, _, _ = _golden_min(phi, ell_lo, ell_hi, start)
    return rates_at(ell_star), ell_star


def _waterfill(cost, lo, caps, budget):
    """min sum cost_v/u_v  s.t.  sum u <= budget, lo <= u_v <= caps_v.

    Exact KKT solve: u_v(mu) = clip(sqrt(cost_v/mu), lo, caps_v) with the
    multiplier found by a vectorized scan over its breakpoints.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return _waterfill_solver(cost, lo, budget)(np.array(caps, dtype=float))


def _waterfill_solver(cost, lo, budget):
    """The water-fill of `_waterfill` as a function of the caps alone.

    Everything that does not depend on the caps (finite costs, the active set,
    sqrt(cost), the floor breakpoints cost/lo^2 and the constant event columns)
    is computed once here, so a line search over the caps pays only for the
    cap breakpoints and their sort.  The solve overwrites its caps argument and
    may return it; its caller ignores zero division and invalid values.
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
            return u_free
        ha = caps if every else caps[act]
        mu_hi = ca / ha**2  # below: pinned at cap
        ev_mu = np.concatenate([mu_hi, mu_lo])
        ev_dhi = np.concatenate([-ha, zeros])
        order = np.argsort(ev_mu, kind="stable")
        ev_mu = ev_mu[order]
        sum_hi = (total if every else float(ha.sum())) + np.cumsum(ev_dhi[order])
        sum_sq = np.maximum(np.cumsum(ev_dsq[order]), 0.0)
        n_lo = np.cumsum(ev_dnlo[order]) + n_lo_fixed
        rhs = budget - sum_hi - lo * n_lo
        mu_cand = (sum_sq / rhs) ** 2
        # mu_cand must lie between its breakpoint and the next; the last is unbounded
        ok = (rhs > 0.0) & (sum_sq > 0.0) & (mu_cand >= ev_mu * (1 - 1e-12))
        ok[:-1] &= mu_cand[:-1] <= ev_mu[1:] * (1 + 1e-12)
        first = int(ok.argmax())
        if ok[first]:
            mu = float(mu_cand[first])
        else:
            # degenerate ties: fall back to bisection on the monotone budget curve
            mu_a, mu_b = float(ev_mu[0]) * 0.5, float(ev_mu[-1]) * 2.0
            for _ in range(200):
                mu = math.sqrt(mu_a * mu_b)
                if np.minimum(np.maximum(np.sqrt(ca / mu), lo), ha).sum() + n_lo_fixed * lo > budget:
                    mu_a = mu
                else:
                    mu_b = mu
            mu = mu_b
        u = np.minimum(np.maximum(np.sqrt(cost_or_one / mu), lo), caps)
        return u if every else np.where(act, u, lo)

    return solve


def solve_inclusion_block(rates, ctx: SchedulingContext, start=None):
    """Exact inclusion-block minimizer for fixed rates; returns (u, log s).

    For a given ceiling s of the max term each u_v is capped at min(1, s/e_v);
    under the block budget the inverse costs water-fill against those caps.
    The reduced objective is convex in log s.  `start` and the returned
    ceiling are as in solve_rate_block.
    """
    alpha = ctx.alpha
    if ctx.size == 0:
        return np.array([]), start
    if alpha <= 0.0:
        return np.full(ctx.size, ctx.u_min), start
    rates = np.asarray(rates, dtype=float)
    p = ctx.success_prob(rates)
    # p = 0 costs inf whatever the data, and zero data over it would be 0/0
    with np.errstate(divide="ignore", invalid="ignore"):
        cost = np.where(p > 0.0, alpha * ctx.data_sizes / (ctx.d_total * p), np.inf)
    if alpha >= 1.0:
        return _waterfill(cost, ctx.u_min, np.ones(ctx.size), ctx.n_blocks), start
    ln_e = -np.expm1(rates * _LN2 / ctx.bandwidth)  # log of exp(-(2^(R/W)-1))
    top = float(np.max(ln_e))
    ell_lo = math.log(ctx.u_min) + top
    ell_hi = top
    fill = _waterfill_solver(cost, ctx.u_min, ctx.n_blocks)
    caps, x = np.empty(ctx.size), np.empty(ctx.size)

    def u_at(ell, out=None):
        out = np.subtract(ell, ln_e, out=out)
        np.minimum(0.0, out, out=out)
        return fill(np.exp(out, out=out))

    def psi(ell):
        np.divide(cost, u_at(ell, out=caps), out=x)
        return float(x.sum()) + (1.0 - alpha) * math.exp(ell)

    with np.errstate(divide="ignore", invalid="ignore"):
        ell_star, _, _ = _golden_min(psi, ell_lo, ell_hi, start)
        return u_at(ell_star), ell_star


# ---------------------------------------------------------------------------
# block coordinate descent and baselines
# ---------------------------------------------------------------------------

@dataclass
class SolverReport:
    iterations: int = 0
    objective_trace: list = field(default_factory=list)
    converged: bool = False
    block_residuals: list = field(default_factory=list)


def _slice_minima(ln_q, rows, left, right):
    """min of ln_q[rows[i], left[i]:right[i]] per i, for windows that neither the
    prefix nor the suffix minima of _ceiling_scan settle."""
    return np.array([ln_q[v, a:b].min() for v, a, b in zip(rows, left, right)])


def _ceiling_scan(ctx: SchedulingContext, alpha):
    """Globally-informed candidate for the joint problem when the budget is slack.

    Conditioned on the max-term ceiling s, the problem separates per vehicle:
    either u = 1 with the smallest rate whose pressure meets the ceiling, or u
    rides the ceiling (u = s * e^(f-1)), where the cost becomes
    (alpha*d/(D*s)) * q(R) with q = exp(-(f-1))/p independent of s.  Scanning
    log s (geometric pass plus a local refinement) with sliding-window minima
    of log q locates the global optimum up to grid resolution, ignoring the
    sum(u) <= N budget; the caller discards the candidate if that budget turns
    out violated.

    The window minima come from per-vehicle prefix and suffix minima of log q
    over its grid of G points: a window [l, r) has the minimum of [0, r) when
    that is below the minimum of [0, l), else the minimum of [l, G) when that
    is below the minimum of [r, G); only the rest are sliced.  Where even the
    minimum of [0, r), a lower bound on the window's, prices the riding branch
    above the u = 1 branch, the window's left end is never located.  The scan
    runs over blocks of _SCAN_BLOCK vehicles, which bounds its working set;
    only the grid searches go one vehicle at a time.  Grid rows must ascend,
    which holds unless R_max is within about 1e-9 of R_min.
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

    # per-vehicle log-spaced f1 grids, endpoint pulled off the zero-success edge,
    # in np.linspace's arithmetic on math.log ends
    ln_a = np.array([math.log(x) for x in f1_lo.tolist()])[:, None]
    ln_b = np.array([math.log(x * (1 - 1e-9)) for x in f1_hi.tolist()])[:, None]
    steps = np.arange(n_grid, dtype=float)
    grid, ln_q = np.empty((size, n_grid)), np.empty((size, n_grid))
    # pre[v, r] = min of ln_q[v, :r] and suf[v, l] = min of ln_q[v, l:]; G = n_grid
    pre, suf = np.empty((size, n_grid + 1)), np.empty((size, n_grid + 1))
    pre[:, 0] = suf[:, n_grid] = np.inf
    for rows in blocks:
        x = steps * ((ln_b[rows] - ln_a[rows]) / (n_grid - 1)) + ln_a[rows]
        x[:, -1] = ln_b[rows, 0]
        g = grid[rows] = np.exp(x)
        p = -np.expm1(np.minimum(xi1[rows] - xi3[rows] / g, 0.0))
        q = ln_q[rows] = -g - np.log(np.maximum(p, 1e-300))
        np.minimum.accumulate(q, axis=1, out=pre[rows, 1:])
        suf[rows, :n_grid] = np.minimum.accumulate(q[:, ::-1], axis=1)[:, ::-1]

    def branches(rows, ells):
        """phi_a and phi_b per vehicle of `rows` and ceiling; phi_b reads inf where
        its lower bound already exceeds phi_a."""
        hi_f = -ells
        f1_a = np.maximum(lo_col[rows], hi_f)
        with np.errstate(divide="ignore"):
            p_a = -np.expm1(np.minimum(xi1[rows] - xi3[rows] / f1_a, 0.0))
        live = (f1_a <= hi_col[rows] * (1.0 - 1e-12)) & (p_a > 0)
        phi_a = np.where(live, weighted_data[rows] / (ctx.d_total * np.maximum(p_a, 1e-300)),
                         np.inf)
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
        phi_b[j, k] = np.exp(np.minimum(shift[j, k] + m, 700.0))
        return phi_a, phi_b

    def scan_totals(ells):
        totals = (1.0 - alpha) * np.exp(ells)
        for rows in blocks:
            for term in np.minimum(*branches(rows, ells)):
                totals += term  # vehicle by vehicle, in id order
        return totals

    t_min = max(-ell_hi, 1e-9)
    t_max = max(-ell_lo, t_min * (1.0 + 1e-9))
    coarse = -np.geomspace(t_min, t_max, _SCAN_CEILINGS)
    totals = scan_totals(coarse)
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
    if u.sum() > ctx.n_blocks:
        return None
    return np.clip(u, ctx.u_min, 1.0)


@dataclass
class RoundPlan:
    """Inclusion probabilities and rates for one round, plus realized outcomes."""

    ids: tuple = ()
    inclusion_probs: dict = field(default_factory=dict)
    rates: dict = field(default_factory=dict)
    success_probs: dict = field(default_factory=dict)
    selected_set: set = field(default_factory=set)
    round_time: float = 0.0
    objective_value: float = math.nan
    trim_events: int = 0
    budget_dropped: tuple = ()

    @property
    def is_empty(self):
        return len(self.ids) == 0


def _plan_from(ctx, u, rates, obj):
    p = ctx.success_prob(rates)
    ids = [int(i) for i in ctx.ids]
    return RoundPlan(
        ids=tuple(ids),
        inclusion_probs={i: float(v) for i, v in zip(ids, u)},
        rates={i: float(r) for i, r in zip(ids, rates)},
        success_probs={i: float(x) for i, x in zip(ids, p)},
        objective_value=obj,
        budget_dropped=ctx.budget_dropped,
    )


def _start_points(ctx):
    """Deterministic BCD starting points covering the main partial-optimum basins.

    Besides uniform and floor, a "parking" start pins the weaker half of the
    links (by signal-to-error ratio) at u_min with the budget shared among the
    rest; basins where poor channels are soft-excluded are unreachable from
    symmetric starts.
    """
    uniform = np.full(ctx.size, min(1.0, ctx.n_blocks / ctx.size))
    uniform = np.clip(uniform, ctx.u_min, 1.0)
    floor = np.full(ctx.size, ctx.u_min)
    starts = [uniform, floor]
    k = int(math.ceil(0.5 * ctx.size))
    if 0 < k < ctx.size:
        u = np.full(ctx.size, ctx.u_min)
        share = (ctx.n_blocks - k * ctx.u_min) / (ctx.size - k)
        u[np.argsort(ctx.xi3, kind="stable")[k:]] = np.clip(share, ctx.u_min, 1.0)
        starts.append(u)
    seen = set()
    unique = []
    for u in starts:
        key = tuple(np.round(u, 12))
        if key not in seen:
            seen.add(key)
            unique.append(u)
    return unique


def bcd_solve(ctx: SchedulingContext):
    """Alternate exact block solves until the relative decrease stalls.

    Runs from a small set of deterministic starting points (biconvex problems
    can have several partially optimal points) and keeps the best.  The
    reported trace is the winning run's accepted objective values, which are
    non-increasing by construction: a block candidate is only accepted when it
    does not worsen the objective.
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

    def solve_block(table, solver, x, start):
        key = x.tobytes()
        if key not in table:
            table[key] = solver(x, ctx, start)
        return table[key]

    def alternate(u0, trace):
        u = feasible(u0)
        # each block's line search starts from the ceiling of its previous solve
        ell_rate = ell_inclusion = None
        rates = ctx.r_min.copy()
        if not trace:
            trace.append(objective(u, rates, ctx))
        converged = False
        residuals = [math.inf, math.inf]
        outer = 0
        for outer in range(1, _BCD_MAX_ALTERNATIONS + 1):
            prev = trace[-1]
            r_new, ell_rate = solve_block(rate_table, solve_rate_block, u, ell_rate)
            o_r = objective(u, r_new, ctx)
            if o_r <= trace[-1]:
                rates = r_new
                trace.append(o_r)
            else:
                trace.append(trace[-1])
            residuals[0] = trace[-2] - trace[-1]
            u_new, ell_inclusion = solve_block(inclusion_table, solve_inclusion_block, rates,
                                               ell_inclusion)
            o_u = objective(u_new, rates, ctx)
            if o_u <= trace[-1]:
                u = u_new
                trace.append(o_u)
            else:
                trace.append(trace[-1])
            residuals[1] = trace[-2] - trace[-1]
            if prev - trace[-1] <= _BCD_RTOL * max(1e-300, abs(prev)):
                converged = True
                break
        return trace[-1], u, rates, converged, outer, residuals

    restart = False
    if not 0.0 < ctx.alpha < 1.0:
        # both block solves are start-independent at the endpoints
        starts = _start_points(ctx)[:1]
    elif (scanned := _ceiling_scan(ctx, ctx.alpha)) is not None:
        # the scan already located the global basin; a light polish suffices
        starts = [scanned, _start_points(ctx)[0]]
    else:
        # binding budget: cover the partial-optimum basins the hard way
        starts = _start_points(ctx)
        restart = True
    best = None
    for u0 in starts:
        trace = []
        cand = alternate(u0, trace)
        # the max term couples the blocks along a nonsmooth ridge with several
        # blockwise-optimal points; a rescaled warm restart walks along it
        if restart:
            again = alternate(cand[1] * 1.25, trace)
            if again[0] < cand[0]:
                cand = again
        if best is None or cand[0] < best[0]:
            best = (*cand, trace)
    obj, u, rates, converged, outer, residuals, trace = best
    plan = _plan_from(ctx, u, rates, obj)
    report = SolverReport(iterations=outer, objective_trace=trace,
                          converged=converged, block_residuals=residuals)
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
    return plan, SolverReport(iterations=1, objective_trace=[obj], converged=True,
                              block_residuals=[0.0, 0.0])


def scheme2_baseline(ctx: SchedulingContext):
    """The inclusion-cost-only special case: the full solve at alpha = 1."""
    return bcd_solve(replace(ctx, alpha=1.0))


def realize_selection(plan: RoundPlan, rng, n_blocks):
    """Independent Bernoulli(u_v) inclusion; overflow beyond the block budget keeps
    the vehicles with the largest u_v * p_v (most valuable expected updates)."""
    if plan.is_empty:
        plan.selected_set = set()
        return plan.selected_set
    ids = np.array(plan.ids)
    u = np.array([plan.inclusion_probs[i] for i in plan.ids])
    draws = rng.uniform(size=len(ids))
    chosen = ids[draws < u]
    if len(chosen) > n_blocks:
        score = np.array([plan.inclusion_probs[i] * plan.success_probs[i] for i in chosen])
        keep = chosen[np.lexsort((chosen, -score))][: int(n_blocks)]
        plan.trim_events = len(chosen) - len(keep)
        chosen = keep
    plan.selected_set = {int(i) for i in chosen}
    return plan.selected_set


def round_time(plan: RoundPlan, successful_ids, model_bits, round_time_cap):
    """Duration of a round: the whole model at the slowest successful rate."""
    rates = [plan.rates[i] for i in successful_ids]
    if not rates:
        return round_time_cap
    return model_bits / min(rates)


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
