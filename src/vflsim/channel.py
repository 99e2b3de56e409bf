"""Vehicular uplink channel model with imperfect CSI.

The fast fading seen at transmission time is a Gauss-Markov mixture of the
delayed MMSE estimate h_est and an independent estimation error h_err,

    h = epsilon * h_est + sqrt(1 - epsilon^2) * h_err,

with h_est, h_err ~ CN(0, 1) and epsilon = J0(2*pi*f_doppler*T_fb) set by the
vehicle speed, carrier frequency and CSI feedback delay.  Because the error is
unknown to the link, it shows up as interference in the SINR.  Whether a
chosen rate survives the realized error is the rate-support event, defined
once in `scheduler.SchedulingContext.support_margin`: the planner's success
probability and the simulator's outcome draw both read that margin.

All functions are pure and accept numpy arrays where it makes sense
(velocities, distances, gains).
"""

from __future__ import annotations

import math
import warnings

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Hankel asymptotic series numerators for J0: (4*0-1)(4*0-9)... pattern,
# a_k = prod_{j=1..k} (2j-1)^2, consumed as P/Q coefficient products below.
_SERIES_SWITCH = 12.0


def bessel_j0(x):
    """Zeroth-order Bessel function of the first kind, per element; a float for
    scalar input.

    Power series below |x| = 12, Hankel asymptotic expansion with optimal
    truncation beyond.  Absolute error below 1e-9 for |x| <= 20 (much better
    in practice).  The series runs on all elements at once, each element
    summing its own terms in order until one is at most 1e-14 in magnitude.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"bessel_j0 requires finite input, got {float(x[~np.isfinite(x)][0])!r}")
    ax = np.abs(np.atleast_1d(x))
    out = np.empty_like(ax)
    near = ax <= _SERIES_SWITCH
    q = 0.25 * ax[near] * ax[near]
    term = np.ones_like(q)
    total = np.ones_like(q)
    live = np.arange(len(q))  # elements whose last term exceeded 1e-14
    k = 0
    while len(live) and k <= 400:  # 400 is unreachable for |x| <= 12
        k += 1
        term[live] *= -q[live] / (k * k)
        total[live] += term[live]
        live = live[np.abs(term[live]) > 1e-14]
    out[near] = total
    out[~near] = [_j0_asymptotic(v) for v in ax[~near].tolist()]
    return out if x.ndim else float(out[0])


def _j0_asymptotic(x):
    # J0(x) ~ sqrt(2/(pi x)) [P(x) cos(x - pi/4) - Q(x) sin(x - pi/4)]
    # P = sum (-1)^k a_{2k}/(8x)^{2k}, Q = sum (-1)^k a_{2k+1}/(8x)^{2k+1},
    # a_m = prod_{j=1..m} (2j-1)^2 / (m! 8^m) folded into the recurrence.
    z = 1.0 / (8.0 * x)
    p = 1.0
    q = 0.0
    term = 1.0
    sign_p = -1.0
    sign_q = -1.0
    m = 0
    prev = math.inf
    while True:
        m += 1
        term *= (2 * m - 1) ** 2 * z / m
        if abs(term) >= prev:
            break  # asymptotic series started diverging, stop at smallest term
        prev = abs(term)
        if m % 2 == 1:
            q += sign_q * term
            sign_q = -sign_q
        else:
            p += sign_p * term
            sign_p = -sign_p
        if abs(term) < 1e-18 or m > 60:
            break
    chi = x - 0.25 * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (p * math.cos(chi) - q * math.sin(chi))


def temporal_correlation(velocity, carrier_freq, feedback_delay, speed_of_light=SPEED_OF_LIGHT):
    """Correlation between the true fading and its delayed estimate.

    epsilon = J0(2*pi * f_d * T) with Doppler f_d = velocity*carrier_freq/c,
    per element for an array of velocities.
    """
    if np.any(np.asarray(velocity) < 0):
        raise ValueError(f"velocity must be >= 0, got {velocity}")
    if carrier_freq <= 0:
        raise ValueError(f"carrier_freq must be > 0, got {carrier_freq}")
    if feedback_delay < 0:
        raise ValueError(f"feedback_delay must be >= 0, got {feedback_delay}")
    doppler = velocity * carrier_freq / speed_of_light
    return bessel_j0(2.0 * math.pi * doppler * feedback_delay)


def large_scale_gain(distance, carrier_freq, shadowing_db=0.0, min_distance=1.0):
    """Linear power gain from LOS pathloss plus a shadowing term in dB, per element.

    PL_dB = 22.7*log10(d) + 41.0 + 20*log10(f_GHz/5.0).  Distances below
    min_distance clamp to it (log pathloss singularity at d -> 0).
    """
    if carrier_freq <= 0:
        raise ValueError(f"carrier_freq must be > 0, got {carrier_freq}")
    d = np.asarray(distance, dtype=float)
    if np.any(d < min_distance):
        warnings.warn(
            f"distance below {min_distance} m clamped to {min_distance} m",
            stacklevel=2,
        )
        d = np.maximum(d, min_distance)
    pl_db = 22.7 * np.log10(d) + 41.0 + 20.0 * np.log10(carrier_freq / 5.0e9)
    exponent = -(pl_db + shadowing_db) / 10.0
    if np.ndim(exponent) == 0:
        return 10.0 ** float(exponent)
    # scalar powers: numpy's array power rounds differently from the scalar one
    return np.array([10.0 ** e for e in exponent.ravel().tolist()]).reshape(exponent.shape)


def sample_fading_pair(rng, n):
    """n (h_est, h_err) draws: two length-n arrays of independent circular complex
    Gaussians, E|.|^2 = 1.

    Vehicle k's draw is row k of one (n, 4) standard-normal block, the same
    numbers as n draws of 4 in turn.
    """
    h = (rng.standard_normal((n, 4)) * math.sqrt(0.5)).view(complex)
    return h[:, 0], h[:, 1]
