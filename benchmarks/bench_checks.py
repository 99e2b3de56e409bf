"""Output checks made apart from the program: invariants the method must keep and the
objective formula evaluated by the benchmark's own code.

Every check returns a list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)


def objective(ctx, u, rates, alpha):
    """alpha * sum D_v/(D u_v p_v(R_v)) + (1 - alpha) * max u_v exp(-(2^(R_v/W) - 1)).

    p_v(R) = 1 - exp(xi1 - xi3/(2^(R/W) - 1)) with xi1 = W N0 / (P L (1 - eps^2)) and
    xi3 = |h_est|^2 eps^2 / (1 - eps^2); +inf when a success probability is 0.
    """
    u = np.asarray(u, dtype=float)
    f1 = np.expm1(np.asarray(rates, dtype=float) * LN2 / ctx.bandwidth)
    eps2 = np.asarray(ctx.epsilon, dtype=float) ** 2
    xi1 = ctx.bandwidth * ctx.noise_density / (ctx.tx_power * ctx.gain * (1.0 - eps2))
    xi3 = ctx.h_est_sq * eps2 / (1.0 - eps2)
    exponent = xi1 - xi3 / f1
    if np.any(exponent >= 0.0):
        return math.inf
    p = -np.expm1(exponent)
    cost = alpha * float(np.sum(ctx.data_sizes / (ctx.d_total * u * p)))
    pressure = (1.0 - alpha) * float(np.max(u * np.exp(-f1)))
    return cost + pressure


def reference_objective(ctx, alpha):
    """Objective at the feasible point u = min(1, N/|V|) clipped to [u_min, 1], rates R_min."""
    u = np.clip(np.full(ctx.size, min(1.0, ctx.n_blocks / ctx.size)), ctx.u_min, 1.0)
    return objective(ctx, u, ctx.r_min, alpha)


def check_plan(ctx, plan, report, grid_min=None):
    """A solver plan on one instance at the instance's alpha: constraints, trace,
    objective value and quality."""
    alpha = ctx.alpha
    tag = f"instance n={ctx.size} alpha={alpha:g}"
    ids = [int(i) for i in ctx.ids]
    if list(plan.ids) != ids:
        return [f"{tag}: plan ids differ from the instance ids"]
    u = np.array([plan.inclusion_probs[i] for i in ids])
    rates = np.array([plan.rates[i] for i in ids])
    bad = []
    if not float(u.sum()) <= ctx.n_blocks * (1.0 + 1e-9):
        bad.append(f"{tag}: sum u = {u.sum()!r} exceeds N = {ctx.n_blocks!r}")
    if not (np.all(u >= ctx.u_min) and np.all(u <= 1.0)):
        bad.append(f"{tag}: some u outside [u_min, 1]")
    if not (np.all(rates >= ctx.r_min) and np.all(rates <= ctx.r_max)):
        bad.append(f"{tag}: some rate outside [r_min, r_max]")
    trace = np.asarray(report.objective_trace, dtype=float)
    if len(trace) and np.any(np.diff(trace) > 0.0):
        bad.append(f"{tag}: objective trace increases")
    own = objective(ctx, u, rates, alpha)
    value = plan.objective_value
    if not (math.isfinite(own) and abs(value - own) <= 1e-9 * abs(own)):
        bad.append(f"{tag}: objective_value {value!r} != own evaluation {own!r}")
    ref = reference_objective(ctx, alpha)
    if not value <= ref * (1.0 + 1e-12):
        bad.append(f"{tag}: objective {value!r} worse than the uniform point {ref!r}")
    if grid_min is not None and not (value - grid_min) / abs(grid_min) <= 1e-3:
        bad.append(f"{tag}: objective {value!r} more than 1e-3 above the grid minimum {grid_min!r}")
    return bad


def check_rounds(records, cfg, label):
    """Round-record invariants every simulated run must keep."""
    bad = []
    cap = cfg.optimization.round_time_cap_s
    n_blocks = cfg.physical.n_blocks
    for prev, rec in zip(records, records[1:]):
        if rec.time_start != prev.time_cum:
            bad.append(f"{label} round {rec.t}: time_start {rec.time_start!r} != "
                       f"previous time_cum {prev.time_cum!r}")
    for rec in records:
        if not 0.0 < rec.round_time <= cap:
            bad.append(f"{label} round {rec.t}: T_t = {rec.round_time!r} outside (0, {cap}]")
        if not rec.n_success <= rec.n_selected <= min(rec.n_feasible, n_blocks):
            bad.append(f"{label} round {rec.t}: counts success {rec.n_success}, selected "
                       f"{rec.n_selected}, feasible {rec.n_feasible} out of order")
    return bad


def own_accuracy(weights, features, labels, num_classes):
    """Top-1 accuracy of the flat [W.ravel(), b] linear model, by argmax of X W^T + b."""
    dim = features.shape[1]
    mat = np.asarray(weights[: num_classes * dim]).reshape(num_classes, dim)
    bias = np.asarray(weights[num_classes * dim:])
    pred = np.argmax(features @ mat.T + bias, axis=1)
    return float(np.mean(pred == labels))


def check_final_accuracy(exp, label):
    if not exp.records:
        return []
    lc = exp.cfg.learning
    acc = own_accuracy(exp.weights, exp.test_x, exp.test_y, lc.num_classes)
    if acc != exp.records[-1].accuracy:
        return [f"{label}: recomputed final accuracy {acc!r} != recorded {exp.records[-1].accuracy!r}"]
    return []


def check_dense_rounds(records, populations, cfg, label):
    """Budget shrink and population bound of the dense regime, round by round."""
    bad = []
    u_min, n_blocks = cfg.optimization.u_min, cfg.physical.n_blocks
    for rec, pop in zip(records, populations):
        if rec.n_feasible * u_min > n_blocks:
            bad.append(f"{label} round {rec.t}: {rec.n_feasible} feasible vehicles at u_min "
                       f"{u_min} overflow {n_blocks} blocks")
        if not pop > rec.n_feasible:
            bad.append(f"{label} round {rec.t}: population {pop} does not exceed "
                       f"{rec.n_feasible} feasible")
    return bad
