"""Independent oracles and reference formulas used to freeze expected values.

Each oracle deliberately avoids the code path it checks: the Bessel oracle is
a raw extended-precision power series and the scheduler oracle is a grid sweep
over the decision box.  The SINR, Shannon capacity, composed fading and Bayes
classifier are textbook formulas the program itself never needs; tests use
them as references.  The one-point J0 series is the reference for the
program's elementwise one.  The solver's ceiling scan with per-vehicle sparse
tables and its line-search evaluations on fresh arrays are the references for
the program's blocked scan and buffered evaluations.  The per-vehicle channel
refresh and scheduling context at the end are the straightforward
one-vehicle-at-a-time forms of the program's batched ones, and the one-vehicle
SGD loop at the very end is the reference for the program's lockstep training.
"""

import math

import numpy as np
from mpmath import mp, mpf

from vflsim import channel, scheduler
from vflsim.fl_core import class_means, sample_blob

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


def sinr(tx_power, state, noise_density, bandwidth):
    """SINR with the estimation error acting as interference.

    gamma = P*L*eps^2*|h_est|^2 / (W*N0 + P*L*(1-eps^2)*|h_err|^2)
    """
    eps2 = state.epsilon**2
    signal = tx_power * state.large_scale_gain * eps2 * state.h_est_power
    denom = (bandwidth * noise_density
             + tx_power * state.large_scale_gain * (1.0 - eps2) * abs(state.h_err) ** 2)
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

def reference_ceiling_scan(ctx, alpha):
    """scheduler._ceiling_scan one vehicle at a time, window minima from sparse tables."""
    w = ctx.bandwidth
    xi1 = ctx.xi1
    xi3 = ctx.xi3
    f1_lo = np.expm1(ctx.r_min * _LN2 / w)
    f1_hi = np.expm1(ctx.r_max * _LN2 / w)
    ln_umin = math.log(ctx.u_min)
    # per-vehicle log-spaced f1 grids, endpoint pulled off the zero-success edge
    grids = [np.exp(np.linspace(math.log(f1_lo[v]), math.log(f1_hi[v] * (1 - 1e-9)),
                                scheduler._SCAN_GRID))
             for v in range(ctx.size)]
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
        phi_b = np.exp(np.minimum(ln_cd[v] - ells + range_min(v, left, right), 700.0))
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
    if u.sum() > ctx.n_blocks:
        return None
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
        lowers = ev_mu
        uppers = np.append(ev_mu[1:], np.inf)
        rhs = budget - sum_hi - lo * n_lo
        with np.errstate(divide="ignore", invalid="ignore"):
            mu_cand = (sum_sq / rhs) ** 2
        ok = (rhs > 0.0) & (sum_sq > 0.0) & (mu_cand >= lowers * (1 - 1e-12)) & (mu_cand <= uppers * (1 + 1e-12))
        idx = np.flatnonzero(ok)
        if len(idx) > 0:
            mu = float(mu_cand[idx[0]])
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
# per-vehicle channel refresh and scheduling context
# ---------------------------------------------------------------------------

def nearest_rsu_brute_force(vehicle, geometry):
    """Distance to the closest of all RSUs, each measured with math.hypot."""
    n = int(geometry.road_length // geometry.rsu_spacing)
    xs = geometry.rsu_spacing / 2.0 + geometry.rsu_spacing * np.arange(n)
    y = geometry.lane_center_y(vehicle.lane)
    return min(math.hypot(vehicle.position - float(rx), y - 0.0) for rx in xs)


def large_scale_gain_scalar(distance, carrier_freq, shadowing_db, min_distance):
    """LOS pathloss plus shadowing for one distance, in numpy scalar arithmetic."""
    d = np.asarray(distance, dtype=float)
    if d < min_distance:
        d = np.maximum(d, min_distance)
    pl_db = 22.7 * np.log10(d) + 41.0 + 20.0 * np.log10(carrier_freq / 5.0e9)
    return float(10.0 ** (-(pl_db + shadowing_db) / 10.0))


def reference_channels(vehicles, geometry, cfg, rng_fading):
    """{id: ChannelState} of one refresh, drawn vehicle by vehicle in id order from rng_fading."""
    p = cfg.physical
    out = {}
    for vid in sorted(vehicles):
        v = vehicles[vid]
        re = rng_fading.standard_normal(4)
        scale = math.sqrt(0.5)
        eps = channel.temporal_correlation(v.velocity, p.carrier_freq_hz, p.feedback_delay_s)
        gain = large_scale_gain_scalar(nearest_rsu_brute_force(v, geometry), p.carrier_freq_hz,
                                       v.shadowing_db, p.min_distance_m)
        out[vid] = channel.ChannelState(h_est=complex(re[0] * scale, re[1] * scale),
                                        h_err=complex(re[2] * scale, re[3] * scale),
                                        epsilon=eps, large_scale_gain=gain)
    return out


def rate_bounds_scalar(vehicle, geometry, cfg):
    """(R_min, R_max) of one vehicle in Python float arithmetic."""
    ch = vehicle.channel
    sojourn = (geometry.road_length - vehicle.position) / vehicle.velocity
    w = cfg.block_bandwidth_hz
    snr = (cfg.tx_power_w * ch.large_scale_gain * ch.epsilon**2 * ch.h_est_power
           / (w * cfg.noise_density_w_hz))
    r_max = w * math.log1p(snr) / _LN2
    r_min = cfg.physical.model_bits / min(cfg.optimization.round_time_cap_s, sojourn)
    return sojourn, r_min, r_max


def reference_context(vehicles, geometry, cfg):
    """The scheduling context built row by row, with the weakest link dropped one at a time."""
    rows = []
    for v in sorted(vehicles, key=lambda x: x.id):
        if v.position >= geometry.road_length:
            continue
        soj, r_lo, r_hi = rate_bounds_scalar(v, geometry, cfg)
        if r_lo < r_hi:
            ch = v.channel
            rows.append((v.id, v.dataset.size, ch.epsilon, ch.h_est_power, ch.large_scale_gain,
                         soj, r_lo, r_hi))
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
