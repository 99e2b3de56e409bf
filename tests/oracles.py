"""Independent oracles and reference formulas used to freeze expected values.

Each oracle deliberately avoids the code path it checks: the Bessel oracle is
a raw extended-precision power series and the scheduler oracle is a grid sweep
over the decision box.  The SINR, Shannon capacity, composed fading and Bayes
classifier are textbook formulas the program itself never needs; tests use
them as references.  The one-point J0 series is the reference for the
program's elementwise one.  The solver's ceiling scan with per-vehicle sparse
tables, unpruned, and its block-search evaluations on fresh arrays are the
references for the program's blocked, pruned scan and its searches'
evaluations; the scan with every coarse ceiling's total computed is the
reference for its block bounds; and the golden-section rate and inclusion
blocks are the references for the program's exact Newton and piecewise ones.  The loop that
ran the solver's starts one after another is the reference for its lockstep
starts.  The per-vehicle channel refresh and scheduling context at the end are the
straightforward one-vehicle-at-a-time forms of the program's batched ones.
The one-at-a-time budget shrink, the running-sum convergence proxy and the
one-draw-per-event arrival process are the references for the program's
bisected shrink, array proxy and buffered arrival gaps.  Near the end, the
one-vehicle SGD loop is the reference for the program's lockstep training, and
the lockstep loop that computed every step's loss, kept as it was, is the
reference for the planned, loss-free steps that replaced it: for their bits
and for the step and message of their error.
"""

import heapq
import math
import sys

import numpy as np
from mpmath import mp, mpf

from vflsim import channel, scheduler
from vflsim.fl_core import class_means, loss_and_grad, sample_blob

mp.dps = 50

_LN2 = math.log(2.0)


def j0_series_oracle(x, terms=200):
    """Raw power series at 50 significant digits."""
    x = mpf(x)
    total = mpf(1)
    term = mpf(1)
    for k in range(1, terms):
        term = -term * (x * x / 4) / (k * k)
        total += term
    return float(total)


def scalar_bessel_j0(x):
    """bessel_j0 at one point: the power series one term at a time up to |x| = 12,
    the program's asymptotic expansion beyond."""
    x = abs(float(x))
    if x > 12.0:
        return channel._j0_asymptotic(x)
    # terms t_{k+1} = -t_k (x^2/4)/(k+1)^2; partial sums stay O(1e4) for x<=12
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    k = 0
    while abs(term) > 1e-14:
        k += 1
        term *= -q / (k * k)
        total += term
        if k > 400:  # unreachable for x <= 12, guards misuse
            break
    return total


def j0_first_zero(lo=2.0, hi=3.0, iters=200):
    """First positive zero located by bisection on the series oracle."""
    lo, hi = mpf(lo), mpf(hi)
    flo = j0_series_oracle(lo)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if flo * j0_series_oracle(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = j0_series_oracle(lo)
    return float((lo + hi) / 2)


def compose_fading(epsilon, h_est, h_err):
    """Realized fading given estimate, error and their correlation."""
    return epsilon * h_est + math.sqrt(max(0.0, 1.0 - epsilon * epsilon)) * h_err


def sinr(tx_power, gain, epsilon, h_est, h_err, noise_density, bandwidth):
    """SINR with the estimation error acting as interference.

    gamma = P*L*eps^2*|h_est|^2 / (W*N0 + P*L*(1-eps^2)*|h_err|^2)
    """
    eps2 = epsilon**2
    signal = tx_power * gain * eps2 * abs(h_est) ** 2
    denom = bandwidth * noise_density + tx_power * gain * (1.0 - eps2) * abs(h_err) ** 2
    if denom == 0.0:
        raise ZeroDivisionError("SINR denominator is zero (no noise and no estimation error power)")
    return signal / denom


def capacity(bandwidth, sinr_value):
    """Shannon capacity W*log2(1+gamma) in bit/s."""
    if np.any(np.asarray(sinr_value) < 0):
        raise ValueError(f"sinr must be >= 0, got {sinr_value}")
    c = bandwidth * np.log1p(sinr_value) / _LN2
    return float(c) if np.ndim(sinr_value) == 0 and np.ndim(bandwidth) == 0 else c


def bayes_weights(cfg):
    """The optimal linear classifier for the blob mixture: W_c = mu_c, b_c = -|mu_c|^2/2."""
    means = class_means(cfg.num_classes, cfg.feature_dim, cfg.class_separation)
    return np.concatenate([means.ravel(), -0.5 * (means**2).sum(axis=1)])


# ---------------------------------------------------------------------------
# grid-search oracles for the scheduling objective
# ---------------------------------------------------------------------------

def _grids(ctx, n_u, n_r):
    u_grid = np.linspace(ctx.u_min, 1.0, n_u)
    r_grids = [np.linspace(ctx.r_min[v], ctx.r_max[v], n_r) for v in range(ctx.size)]
    return u_grid, r_grids


def _success_grid(ctx, v, r_grid):
    """Success probability of vehicle v over a rate grid (scalar channel params)."""
    f1 = np.expm1(r_grid * _LN2 / ctx.bandwidth)
    eps2 = ctx.epsilon[v] ** 2
    xi1 = ctx.bandwidth * ctx.noise_density / (ctx.tx_power * ctx.gain[v] * (1.0 - eps2))
    xi3 = ctx.h_est_sq[v] * eps2 / (1.0 - eps2)
    with np.errstate(divide="ignore"):
        arg = xi1 - xi3 / f1
    return np.where(arg < 0.0, -np.expm1(np.minimum(arg, 0.0)), 0.0)


def _per_vehicle_tables(ctx, alpha, u_grid, r_grid, v):
    """G[i,j] = inclusion cost, M[i,j] = pressure term, over (u_i, R_j)."""
    p = _success_grid(ctx, v, r_grid)
    f1 = np.expm1(r_grid * _LN2 / ctx.bandwidth)
    with np.errstate(divide="ignore"):
        g_rate = np.where(p > 0.0, alpha * ctx.data_sizes[v] / (ctx.d_total * p), np.inf)
    g = g_rate[None, :] / u_grid[:, None]
    m = u_grid[:, None] * np.exp(-f1)[None, :]
    return g, m


def grid_min_rate_only(u_fixed, ctx, alpha, n_r=2000):
    """Exhaustive sweep over per-vehicle rate grids with u fixed (separable scan).

    The first objective term is separable in R; the max term couples vehicles,
    so the sweep goes over the ceiling: for every candidate ceiling (taken from
    all grid pressure values), each vehicle picks its cheapest grid rate whose
    pressure does not exceed the ceiling.
    """
    u_fixed = np.asarray(u_fixed, dtype=float)
    per = []
    for v in range(ctx.size):
        r_grid = np.linspace(ctx.r_min[v], ctx.r_max[v], n_r)
        p = _success_grid(ctx, v, r_grid)
        with np.errstate(divide="ignore"):
            g = np.where(p > 0.0, alpha * ctx.data_sizes[v] / (ctx.d_total * u_fixed[v] * p),
                         np.inf)
        f1 = np.expm1(r_grid * _LN2 / ctx.bandwidth)
        m = u_fixed[v] * np.exp(-f1)
        order = np.argsort(m)  # ascending pressure = descending rate
        g_sorted = g[order]
        m_sorted = m[order]
        prefix_min_g = np.minimum.accumulate(g_sorted)
        per.append((m_sorted, prefix_min_g))
    ceilings = np.unique(np.concatenate([m for m, _ in per]))
    best = math.inf
    for s in ceilings:
        total = (1.0 - alpha) * s
        for m_sorted, prefix_min_g in per:
            k = np.searchsorted(m_sorted, s, side="right") - 1
            if k < 0:
                total = math.inf
                break
            total += prefix_min_g[k]
        best = min(best, float(total))
    return best


def rate_block_phi(ells, u, ctx, alpha):
    """The rate block's reduced objective at each log-ceiling in `ells`, vectorized.

    Every vehicle takes the smallest rate in its box whose pressure u e^(-f1)
    meets the ceiling; the max term is charged at the ceiling itself.
    """
    ells = np.asarray(ells, dtype=float)[:, None]
    f1_req = np.log(u) - ells
    rates = np.clip(ctx.bandwidth * np.log1p(np.maximum(f1_req, 0.0)) / _LN2,
                    ctx.r_min, ctx.r_max)
    p = ctx.success_prob(rates)
    with np.errstate(divide="ignore"):
        cost = np.where(p > 0.0, alpha * ctx.data_sizes / (ctx.d_total * u * p), np.inf)
    return cost.sum(axis=1) + (1.0 - alpha) * np.exp(ells[:, 0])


def grid_min_two_vehicle(ctx, alpha, n_u=200, n_r=200):
    """Exact minimum of the objective over the full 4-D grid (u1, u2, R1, R2).

    With two vehicles the block budget (N >= 2) never binds, so the search
    decomposes over sorted pressure values: for every grid cell of vehicle 1
    the best vehicle-2 cell is found among those with smaller pressure (max
    attained by vehicle 1) and among those with larger pressure.  This equals
    the brute-force minimum over all n_u^2 * n_r^2 grid points.
    """
    assert ctx.size == 2
    assert ctx.n_blocks >= 2.0, "pairwise decomposition needs a vacuous budget"
    u_grid, r_grids = _grids(ctx, n_u, n_r)
    g1, m1 = _per_vehicle_tables(ctx, alpha, u_grid, r_grids[0], 0)
    g2, m2 = _per_vehicle_tables(ctx, alpha, u_grid, r_grids[1], 1)
    g1, m1 = g1.ravel(), m1.ravel()
    g2, m2 = g2.ravel(), m2.ravel()
    order = np.argsort(m2)
    m2s = m2[order]
    g2s = g2[order]
    # vehicle-2 entries with pressure <= x: need min of g2; with pressure > x:
    # min of g2 + (1-alpha)*m2 (vehicle 2 sets the max)
    pref_g2 = np.minimum.accumulate(g2s)
    suff_g2m = np.minimum.accumulate((g2s + (1.0 - alpha) * m2s)[::-1])[::-1]
    pos = np.searchsorted(m2s, m1, side="right")
    best = np.inf
    cand1 = np.where(pos >= 1,
                     g1 + (1.0 - alpha) * m1 + pref_g2[np.maximum(pos - 1, 0)],
                     np.inf)
    cand2 = np.where(pos < len(m2s),
                     g1 + suff_g2m[np.minimum(pos, len(m2s) - 1)],
                     np.inf)
    best = min(float(np.min(cand1)), float(np.min(cand2)))
    return best


def grid_min_two_vehicle_naive(ctx, alpha, n_u=30, n_r=30):
    """Literal 4-loop brute force; cross-checks the decomposed oracle."""
    assert ctx.size == 2
    u_grid, r_grids = _grids(ctx, n_u, n_r)
    g1, m1 = _per_vehicle_tables(ctx, alpha, u_grid, r_grids[0], 0)
    g2, m2 = _per_vehicle_tables(ctx, alpha, u_grid, r_grids[1], 1)
    best = math.inf
    for i in range(n_u):
        for j in range(n_r):
            tot = g1[i, j] + g2 + (1.0 - alpha) * np.maximum(m1[i, j], m2)
            if ctx.n_blocks < 2.0:
                tot = np.where(u_grid[:, None] + u_grid[i] <= ctx.n_blocks, tot, np.inf)
            best = min(best, float(tot.min()))
    return best


# ---------------------------------------------------------------------------
# the solver's ceiling scan and line-search evaluations, one vehicle or one
# fresh array at a time
# ---------------------------------------------------------------------------

def every_ceiling(ctx, alpha, coarse, k_end, *bounds):
    """scheduler._exact_ceilings with no block bound: the scan computes the total
    of every one of the first k_end coarse ceilings and never skips to pricing."""
    return np.arange(k_end)


class FinePassSpy:
    """numpy as scheduler sees it, counting the ceiling scan's fine passes: the
    refinement around the coarse minimum is the module's one np.linspace call."""

    def __init__(self):
        self.passes = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def linspace(self, *args, **kwargs):
        self.passes += 1
        return np.linspace(*args, **kwargs)


def reference_ceiling_scan(ctx, alpha):
    """scheduler._ceiling_scan one vehicle at a time, window minima from sparse tables,
    pricing every ceiling on whole grids."""
    w = ctx.bandwidth
    xi1 = ctx.xi1
    xi3 = ctx.xi3
    f1_lo = np.expm1(ctx.r_min * _LN2 / w)
    f1_hi = np.expm1(ctx.r_max * _LN2 / w)
    ln_umin = math.log(ctx.u_min)
    # per-vehicle log-spaced f1 grids, endpoint pulled off the zero-success edge
    # and never below the start
    grids = []
    for v in range(ctx.size):
        ln_a = math.log(f1_lo[v])
        ln_b = max(math.log(f1_hi[v] * (1 - 1e-9)), ln_a)
        grids.append(np.exp(np.linspace(ln_a, ln_b, scheduler._SCAN_GRID)))
    ln_q = []
    for v in range(ctx.size):
        p = -np.expm1(np.minimum(xi1[v] - xi3[v] / grids[v], 0.0))
        ln_q.append(-grids[v] - np.log(np.maximum(p, 1e-300)))
    ln_cd = np.log(alpha * np.maximum(ctx.data_sizes, 1e-300) / ctx.d_total)

    # sparse tables for O(1) range-minimum queries over each log-q grid
    tables = []
    for v in range(ctx.size):
        levels = [ln_q[v]]
        span = 1
        while 2 * span <= scheduler._SCAN_GRID:
            prev = levels[-1]
            levels.append(np.minimum(prev[:-span], prev[span:]))
            span *= 2
        tables.append(levels)

    def range_min(v, left, right):
        """Vectorized min of ln_q[v][left:right] per query; inf on empty windows."""
        span = right - left
        out = np.full(len(left), np.inf)
        ok = span >= 1
        if not ok.any():
            return out
        k = np.zeros(len(left), dtype=int)
        k[ok] = np.floor(np.log2(span[ok])).astype(int)
        for level in np.unique(k[ok]):
            sel = ok & (k == level)
            tab = tables[v][level]
            width = 1 << level
            out[sel] = np.minimum(tab[left[sel]], tab[right[sel] - width])
        return out

    def phi_branches(v, ells):
        hi_f = -ells
        f1_a = np.maximum(f1_lo[v], hi_f)
        feasible = f1_a <= f1_hi[v] * (1.0 - 1e-12)
        with np.errstate(divide="ignore"):
            p_a = -np.expm1(np.minimum(xi1[v] - xi3[v] / f1_a, 0.0))
        phi_a = np.where(feasible & (p_a > 0),
                         alpha * ctx.data_sizes[v] / (ctx.d_total * np.maximum(p_a, 1e-300)),
                         np.inf)
        g = grids[v]
        left = np.searchsorted(g, ln_umin - ells, side="left")
        right = np.searchsorted(g, hi_f, side="right")
        m = range_min(v, left, right)
        # an empty window leaves no riding option: inf, not the e^700 cap
        phi_b = np.where(m < np.inf, np.exp(np.minimum(ln_cd[v] - ells + m, 700.0)), np.inf)
        return phi_a, phi_b

    def scan_totals(ells):
        totals = (1.0 - alpha) * np.exp(ells)
        for v in range(ctx.size):
            phi_a, phi_b = phi_branches(v, ells)
            totals += np.minimum(phi_a, phi_b)
        return totals

    ell_lo = float(np.max(ln_umin - f1_hi))
    ell_hi = float(np.max(-f1_lo))
    if not ell_hi > ell_lo:
        return None
    t_min = max(-ell_hi, 1e-9)
    t_max = max(-ell_lo, t_min * (1.0 + 1e-9))
    coarse = -np.geomspace(t_min, t_max, scheduler._SCAN_CEILINGS)
    totals = scan_totals(coarse)
    k = int(np.argmin(totals))
    if not math.isfinite(totals[k]):
        return None
    fine = np.linspace(coarse[max(k - 1, 0)], coarse[min(k + 1, scheduler._SCAN_CEILINGS - 1)], 400)
    totals_fine = scan_totals(fine)
    kf = int(np.argmin(totals_fine))
    ell = float(fine[kf]) if totals_fine[kf] <= totals[k] else float(coarse[k])

    u = np.empty(ctx.size)
    ell_arr = np.array([ell])
    for v in range(ctx.size):
        phi_a, phi_b = phi_branches(v, ell_arr)
        if not (math.isfinite(phi_a[0]) or math.isfinite(phi_b[0])):
            return None
        if phi_b[0] < phi_a[0]:
            g = grids[v]
            mask = (g >= ln_umin - ell) & (g <= -ell)
            j = int(np.flatnonzero(mask)[np.argmin(ln_q[v][mask])])
            u[v] = min(1.0, math.exp(ell + g[j]))
        else:
            u[v] = 1.0
    return np.clip(u, ctx.u_min, 1.0)


def reference_waterfill_solver(cost, lo, budget):
    """scheduler._waterfill_solver with its masks applied on every call."""
    cost = np.where(np.isfinite(cost), cost, 1e300)
    act = cost > 0.0
    ca = cost[act]
    n_lo_fixed = int((~act).sum())
    cost_or_one = np.where(act, cost, 1.0)
    sq = np.sqrt(ca)
    mu_lo = ca / lo**2  # above: pinned at floor
    zeros = np.zeros_like(ca)
    ev_dsq = np.concatenate([sq, -sq])
    ev_dnlo = np.concatenate([zeros, np.ones_like(ca)])

    def solve(caps):
        caps = np.maximum(caps, lo)
        u_free = np.where(act, caps, lo)
        total = float(u_free.sum())
        if total <= budget * (1.0 + 1e-12):
            return u_free
        ha = caps[act]
        mu_hi = ca / ha**2  # below: pinned at cap
        ev_mu = np.concatenate([mu_hi, mu_lo])
        ev_dhi = np.concatenate([-ha, zeros])
        order = np.argsort(ev_mu, kind="stable")
        ev_mu = ev_mu[order]
        sum_hi = float(ha.sum()) + np.cumsum(ev_dhi[order])
        sum_sq = np.maximum(np.cumsum(ev_dsq[order]), 0.0)
        n_lo = np.cumsum(ev_dnlo[order]) + n_lo_fixed
        upper = np.append(ev_mu[1:], ev_mu[-1])
        fits = sum_hi + lo * n_lo + sum_sq / np.sqrt(upper) <= budget
        fits[-1] = True
        k = int(fits.argmax())
        mu = float(ev_mu[k])
        if sum_sq[k] > 0.0:
            rhs = budget - sum_hi[k] - lo * n_lo[k]
            with np.errstate(divide="ignore"):
                mu = min(max(float((sum_sq[k] / rhs) ** 2), mu), float(upper[k]))
        return np.where(act, np.minimum(np.maximum(np.sqrt(cost_or_one / mu), lo), caps), lo)

    return solve


def reference_rate_block_phi(u, ctx, alpha):
    """The reduced objective phi(ell) that solve_rate_block searches, with fresh arrays."""
    u = np.asarray(u, dtype=float)
    ln_u = np.log(u)
    w = ctx.bandwidth
    weighted_data = alpha * ctx.data_sizes
    scaled_u = ctx.d_total * u

    def rates_at(ell):
        f1_req = ln_u - ell
        r_req = np.where(f1_req > 0.0, w * np.log1p(np.maximum(f1_req, 0.0)) / _LN2, 0.0)
        return np.minimum(np.maximum(r_req, ctx.r_min), ctx.r_max)

    def phi(ell):
        p = ctx.success_prob(rates_at(ell))
        if np.any(p <= 0.0):
            return math.inf
        cost = float(np.sum(weighted_data / (scaled_u * p)))
        return cost + (1.0 - alpha) * math.exp(ell)

    return phi


def reference_inclusion_block_psi(rates, ctx, alpha):
    """The reduced objective psi(ell) that solve_inclusion_block searches, with fresh arrays."""
    rates = np.asarray(rates, dtype=float)
    p = ctx.success_prob(rates)
    with np.errstate(divide="ignore"):
        cost = np.where(p > 0.0, alpha * ctx.data_sizes / (ctx.d_total * p), np.inf)
    ln_e = -np.expm1(rates * _LN2 / ctx.bandwidth)
    fill = reference_waterfill_solver(cost, ctx.u_min, ctx.n_blocks)

    def psi(ell):
        u = fill(np.exp(np.minimum(0.0, ell - ln_e)))
        return float(np.sum(cost / u)) + (1.0 - alpha) * math.exp(ell)

    return psi


# ---------------------------------------------------------------------------
# the golden-section block searches that the exact ones replaced
# ---------------------------------------------------------------------------

_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# a line search stops once its best value is this close to the convexity bound:
# a few ulps, the resolution at which the sampled values stop changing
_CERT_RTOL = 4.0 * sys.float_info.epsilon
_GOLDEN_ITERS = 120  # cap on one line search; the certificate ends them first


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


def reference_rate_block(u, ctx, start=None):
    """The golden-section rate block that the exact Newton search replaced;
    returns (rates, log s).

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


def reference_inclusion_block(rates, ctx, start=None):
    """The golden-section inclusion block that the exact piecewise search
    replaced; returns (u, log s)."""
    alpha = ctx.alpha
    if ctx.size == 0:
        return np.array([]), start
    if alpha <= 0.0:
        return np.full(ctx.size, ctx.u_min), start
    rates = np.asarray(rates, dtype=float)
    p = ctx.success_prob(rates)
    # p = 0 costs inf whatever the data, and zero data over it would be 0/0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cost = np.where(p > 0.0, alpha * ctx.data_sizes / (ctx.d_total * p), np.inf)
        if alpha >= 1.0:
            fill = scheduler._waterfill_solver(cost, ctx.u_min, ctx.n_blocks)
            return fill(np.ones(ctx.size))[0], start
    ln_e = -np.expm1(rates * _LN2 / ctx.bandwidth)  # log of exp(-(2^(R/W)-1))
    top = float(np.max(ln_e))
    ell_lo = math.log(ctx.u_min) + top
    ell_hi = top
    fill = reference_waterfill_solver(cost, ctx.u_min, ctx.n_blocks)
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


def reference_bcd_solve(ctx):
    """The three-start solve that scheduler.bcd_solve's one start replaced, as a
    quality oracle: the floor start, the parking start and the program's own
    ceiling-scan candidate, each run alone by the serial loop, the best plan
    kept (the earlier start on a tie).

    "floor" puts every vehicle at u_min.  "parking", at an interior alpha with
    at least two vehicles, pins the weaker half of the links (by
    signal-to-error ratio) at u_min and shares the rest of the budget among the
    others.  A start that overspends N is shrunk toward u_min into it.  The
    candidate's run is the program's, so the oracle is never worse than the
    program and measures what the two deleted starts would have found.
    """
    if ctx.size == 0:
        return scheduler.RoundPlan(), scheduler.SolverReport()

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
        trace = [scheduler.objective(u, rates, ctx)]
        converged = False
        outer = 0
        for outer in range(1, scheduler._BCD_MAX_ALTERNATIONS + 1):
            prev = trace[-1]
            r_new = solve_block(rate_table, scheduler.solve_rate_block, u)
            o_r = scheduler.objective(u, r_new, ctx)
            if o_r <= trace[-1]:
                rates = r_new
                trace.append(o_r)
            else:
                trace.append(trace[-1])
            u_new = solve_block(inclusion_table, scheduler.solve_inclusion_block, rates)
            o_u = scheduler.objective(u_new, rates, ctx)
            if o_u <= trace[-1]:
                u = u_new
                trace.append(o_u)
            else:
                trace.append(trace[-1])
            if prev - trace[-1] <= scheduler._BCD_RTOL * max(1e-300, abs(prev)):
                converged = True
                break
        return trace[-1], u, rates, converged, outer, trace

    starts = [np.full(ctx.size, ctx.u_min)]
    if 0.0 < ctx.alpha < 1.0:
        k = int(math.ceil(0.5 * ctx.size))
        if 0 < k < ctx.size:
            u = np.full(ctx.size, ctx.u_min)
            share = (ctx.n_blocks - k * ctx.u_min) / (ctx.size - k)
            u[np.argsort(ctx.xi3, kind="stable")[k:]] = np.clip(share, ctx.u_min, 1.0)
            starts.append(u)
        if (scanned := scheduler._ceiling_scan(ctx, ctx.alpha)) is not None:
            starts.append(scanned)
    runs = [alternate(u0) for u0 in starts]
    # min keeps the earliest of equal objectives
    best = min(range(len(runs)), key=lambda k: runs[k][0])
    obj, u, rates, converged, outer, trace = runs[best]
    plan = scheduler._plan_from(ctx, u, rates, obj)
    report = scheduler.SolverReport(iterations=outer, objective_trace=trace, converged=converged)
    return plan, report


# ---------------------------------------------------------------------------
# per-vehicle channel refresh and scheduling context
# ---------------------------------------------------------------------------

def nearest_rsu_brute_force(position, lane, geometry):
    """Distance from one vehicle to the closest of all RSUs, each measured with math.hypot."""
    s = geometry.rsu_spacing_m
    xs = s / 2.0 + s * np.arange(int(geometry.road_length_m // s))
    y = (lane - (geometry.lane_count - 1) / 2.0) * geometry.lane_width_m
    return min(math.hypot(position - float(rx), y - 0.0) for rx in xs)


def large_scale_gain_scalar(distance, carrier_freq, shadowing_db, min_distance):
    """LOS pathloss plus shadowing for one distance, in numpy scalar arithmetic."""
    d = np.asarray(distance, dtype=float)
    if d < min_distance:
        d = np.maximum(d, min_distance)
    pl_db = 22.7 * np.log10(d) + 41.0 + 20.0 * np.log10(carrier_freq / 5.0e9)
    return float(10.0 ** (-(pl_db + shadowing_db) / 10.0))


def reference_channels(population, geometry, cfg, rng_fading):
    """(h_est_sq, epsilon, gain) arrays of one refresh, drawn vehicle by vehicle in id
    order from rng_fading, with each vehicle's correlation recomputed from its speed."""
    p = cfg.physical
    rows = []
    for lane, x, speed, shadow in zip(population.lane.tolist(), population.position.tolist(),
                                      population.velocity.tolist(),
                                      population.shadowing_db.tolist()):
        re = rng_fading.standard_normal(4)
        scale = math.sqrt(0.5)
        h_est = complex(re[0] * scale, re[1] * scale)
        eps = channel.temporal_correlation(speed, p.carrier_freq_hz, p.feedback_delay_s)
        gain = large_scale_gain_scalar(nearest_rsu_brute_force(x, lane, geometry),
                                       p.carrier_freq_hz, shadow, p.min_distance_m)
        rows.append((abs(h_est) ** 2, eps, gain))
    return tuple(np.array(col, dtype=float) for col in (zip(*rows) if rows else [[]] * 3))


def rate_bounds_scalar(position, velocity, epsilon, h_est_sq, gain, geometry, cfg):
    """(sojourn, R_min, R_max) of one vehicle in Python float arithmetic."""
    sojourn = (geometry.road_length_m - position) / velocity
    w = cfg.block_bandwidth_hz
    snr = cfg.tx_power_w * gain * epsilon**2 * h_est_sq / (w * cfg.noise_density_w_hz)
    r_max = w * math.log1p(snr) / _LN2
    r_min = cfg.physical.model_bits / min(cfg.optimization.round_time_cap_s, sojourn)
    return sojourn, r_min, r_max


def reference_context(population, geometry, cfg):
    """The scheduling context built row by row, with the weakest link dropped one at a time."""
    rows = []
    pop = population
    for vid, x, speed, eps, h2, gain, size in zip(
            pop.ids.tolist(), pop.position.tolist(), pop.velocity.tolist(), pop.epsilon.tolist(),
            pop.h_est_sq.tolist(), pop.gain.tolist(), pop.data_size.tolist()):
        if x >= geometry.road_length_m:
            continue
        soj, r_lo, r_hi = rate_bounds_scalar(x, speed, eps, h2, gain, geometry, cfg)
        if r_lo < r_hi:
            rows.append((vid, size, eps, h2, gain, soj, r_lo, r_hi))
    opt = cfg.optimization
    dropped = []
    while rows and len(rows) * opt.u_min > cfg.physical.n_blocks:
        worst = min(range(len(rows)), key=lambda i: (rows[i][7], rows[i][0]))
        dropped.append(rows.pop(worst)[0])
    cols = list(zip(*rows)) if rows else [[]] * 8
    data = np.array(cols[1], dtype=float)
    d_total = max(float(data.sum()), 1.0)
    return scheduler.SchedulingContext(
        ids=np.array(cols[0], dtype=int), data_sizes=data,
        epsilon=np.array(cols[2], dtype=float), h_est_sq=np.array(cols[3], dtype=float),
        gain=np.array(cols[4], dtype=float), sojourn=np.array(cols[5], dtype=float),
        r_min=np.array(cols[6], dtype=float), r_max=np.array(cols[7], dtype=float),
        alpha=opt.alpha, u_min=opt.u_min, n_blocks=float(cfg.physical.n_blocks),
        bandwidth=cfg.block_bandwidth_hz, noise_density=cfg.noise_density_w_hz,
        tx_power=cfg.tx_power_w, model_bits=cfg.physical.model_bits, d_total=d_total,
        budget_dropped=tuple(dropped))


def reference_drop_for_budget(ids, r_max, u_min, n_blocks):
    """Positions kept and ids dropped by the u_min budget shrink, with the kept count
    counted down one vehicle at a time."""
    n_keep = len(ids)
    while n_keep and n_keep * u_min > n_blocks:
        n_keep -= 1
    weakest = np.lexsort((ids, r_max))[: len(ids) - n_keep]
    keep = np.ones(len(ids), dtype=bool)
    keep[weakest] = False
    return np.flatnonzero(keep), [int(i) for i in np.asarray(ids)[weakest]]


def reference_convergence_proxy(stats):
    """sum_v (D_v/D) (1/(u_v p_v) - 1) as a running sum over (data_size, u, p) rows."""
    stats = list(stats)
    total = sum(s[0] for s in stats)
    if total <= 0:
        return 0.0
    acc = 0.0
    for d, u, p in stats:
        if u <= 0 or p <= 0:
            return math.inf
        acc += (d / total) * (1.0 / (u * p) - 1.0)
    return float(acc)


class ScalarArrivals:
    """Per-lane Poisson arrivals with one exponential draw per event, merged through a
    heap that pops the lower lane first on a tie; pop_until returns (t, lane, speed)
    tuples."""

    def __init__(self, geometry, rate_per_lane, speed_range, rng_arrivals, rng_speeds,
                 start_time=0.0):
        self.rate, self.speed_range = rate_per_lane, speed_range
        self._rng_arrivals, self._rng_speeds = rng_arrivals, rng_speeds
        if rate_per_lane > 0:
            self._next = [(start_time + rng_arrivals.exponential(1.0 / rate_per_lane), lane)
                          for lane in range(geometry.lane_count)]
            heapq.heapify(self._next)
        else:
            self._next = [(math.inf, 0)]

    def pop_until(self, t_end):
        events = []
        while self._next[0][0] <= t_end:
            t, lane = self._next[0]
            gap = self._rng_arrivals.exponential(1.0 / self.rate)
            heapq.heapreplace(self._next, (t + gap, lane))
            events.append((t, lane))
        speeds = self._rng_speeds.uniform(*self.speed_range, len(events)).tolist()
        return [(t, lane, speed) for (t, lane), speed in zip(events, speeds)]


def eager_partition(rng, cfg):
    """(features, labels) of one partition, labels then features drawn at once from rng."""
    c = cfg.num_classes
    if cfg.partitioning == "iid":
        labels = np.repeat(np.arange(c), cfg.samples_per_class)
    else:
        k = int(rng.integers(1, cfg.noniid_max_classes + 1))
        classes = rng.choice(c, size=k, replace=False)
        count = int(rng.integers(cfg.noniid_min_samples, cfg.noniid_max_samples + 1))
        per = [count // k + (1 if i < count % k else 0) for i in range(k)]
        labels = np.concatenate([np.full(n, cls, dtype=np.int64) for cls, n in zip(classes, per)])
    feats = sample_blob(rng, labels, c, cfg.feature_dim, cfg.class_separation)
    return feats, labels.astype(np.int64)


def reference_loss_and_grad(w, features, labels, num_classes, ref=None, mu=0.0):
    """Mean cross-entropy plus (mu/2)|w - ref|^2 and its gradient, for one batch of one vehicle."""
    n, d = features.shape
    mat = w[: num_classes * d].reshape(num_classes, d)
    bias = w[num_classes * d:]
    logits = features @ mat.T + bias
    logits -= logits.max(axis=1, keepdims=True)
    expl = np.exp(logits)
    probs = expl / expl.sum(axis=1, keepdims=True)
    idx = np.arange(n)
    loss = -(np.log(probs[idx, labels] + 1e-300).sum() / n)
    delta = probs
    delta[idx, labels] -= 1.0
    delta /= n
    grad = np.concatenate([(delta.T @ features).ravel(), delta.sum(axis=0)])
    if mu != 0.0:
        diff = w - ref
        loss += 0.5 * mu * float(diff @ diff)
        grad += mu * diff
    return loss, grad


def reference_local_train(weights_in, partition, global_ref, rng, lr, num_classes,
                          epochs, batch_size, momentum, mu):
    """Mini-batch momentum SGD of one vehicle, one batch at a time."""
    w = np.array(weights_in, dtype=float, copy=True)
    vel = np.zeros_like(w)
    n = partition.size
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            sel = order[start:start + batch_size]
            loss, grad = reference_loss_and_grad(w, partition.features[sel],
                                                 partition.labels[sel], num_classes,
                                                 ref=global_ref, mu=mu)
            if not math.isfinite(loss):
                raise RuntimeError(
                    f"non-finite local loss ({loss}) at lr={lr}, batch of {len(sel)} samples")
            vel = momentum * vel + grad
            w -= lr * vel
    return w


# fl_core.local_train before its steps were planned once per round and
# stopped computing the loss, kept verbatim
def lockstep_local_train(weights_in, partitions, global_ref, cfg, rngs, lr):
    """Momentum SGD of each partition from weights_in, with a proximal pull toward global_ref.

    Vehicle k trains on partitions[k] and reshuffles its batches every epoch
    from rngs[k]; the trained flat weights come back in the same order.  All
    vehicles take their SGD steps in lockstep: at each step index, one
    loss_and_grad call takes every vehicle still training, each batch padded
    to the step's longest by repeating its last sample, with the batch
    lengths as its rows.  A vehicle's weights have the same bits as when it
    trains alone, because no operation mixes the rows of different vehicles
    and the padded rows change no bit of the valid ones.
    """
    if not partitions:
        return []
    epochs, batch_size = cfg.local_epochs, cfg.batch_size
    n = np.array([part.size for part in partitions], dtype=np.int64)
    per_epoch = -(-n // batch_size)  # batches per epoch
    # most batches first: the vehicles still training at a step are then the
    # first rows of the stack, and their weights are a view
    rank = np.argsort(-per_epoch, kind="stable")
    n, per_epoch = n[rank], per_epoch[rank]
    # the features are copied once per round and gathered once per step: a
    # copy of every step's batch up front would raise peak memory
    features = np.concatenate([partitions[k].features for k in rank.tolist()]) if epochs else None
    labels = np.concatenate([partitions[k].labels for k in rank.tolist()])
    first = np.cumsum(n) - n  # each vehicle's first row in the round's arrays
    # every epoch's sample order, drawn up front from each vehicle's own
    # stream: row i of the stack has its epochs one after another from
    # epochs * first[i]
    orders = np.empty(epochs * len(labels), dtype=np.int64)
    for k, f, size in zip(rank.tolist(), first.tolist(), n.tolist()):
        for epoch in range(epochs):
            at = epochs * f + epoch * size
            np.add(rngs[k].permutation(size), f, out=orders[at:at + size])
    steps = epochs * per_epoch
    w = np.tile(np.asarray(weights_in, dtype=float), (len(partitions), 1))
    vel = np.zeros_like(w)
    for step in range(int(steps[0])):
        m = int(np.count_nonzero(steps > step))  # vehicles still training
        epoch, batch = np.divmod(step, per_epoch[:m])
        start = batch * batch_size
        length = np.minimum(n[:m] - start, batch_size)
        # a padded slot repeats the vehicle's last sample of the batch
        sel = orders[(epochs * first[:m] + epoch * n[:m] + start)[:, None]
                     + np.minimum(np.arange(length.max()), length[:, None] - 1)]
        loss, grad = loss_and_grad(w[:m], features[sel], labels[sel], cfg.num_classes,
                                   ref=global_ref, mu=cfg.prox_mu, rows=length)
        bad = ~np.isfinite(loss)
        if bad.any():
            raise RuntimeError(f"non-finite local loss ({loss[bad][0]}) "
                               f"at lr={lr}, batch of {length[bad][0]} samples")
        # vel = momentum * vel + grad; w -= lr * vel
        vel_m = vel[:m]
        vel_m *= cfg.momentum
        vel_m += grad
        w[:m] -= lr * vel_m
    return list(w[np.argsort(rank)])
