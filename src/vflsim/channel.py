"""Vehicular uplink channel model with imperfect CSI.

The fast fading seen at transmission time is a Gauss-Markov mixture of the
delayed MMSE estimate h_est and an independent estimation error h_err,

    h = epsilon * h_est + sqrt(1 - epsilon^2) * h_err,

with h_est, h_err ~ CN(0, 1) and epsilon = J0(2*pi*f_doppler*T_fb) set by the
vehicle speed, carrier frequency and CSI feedback delay.  Because the error is
unknown to the link, it shows up as interference in the SINR; whether a chosen
rate survives the realized error reduces to a closed-form exponential tail.

All functions are pure and accept numpy arrays transparently where it makes
sense (rates, gains, probabilities).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

_LN2 = math.log(2.0)

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


def sample_fading_pair(rng):
    """One (h_est, h_err) draw: independent circular complex Gaussians, E|.|^2 = 1."""
    re = rng.standard_normal(4)
    scale = math.sqrt(0.5)
    h_est = complex(re[0] * scale, re[1] * scale)
    h_err = complex(re[2] * scale, re[3] * scale)
    return h_est, h_err


@dataclass
class ChannelState:
    """Per-vehicle channel snapshot: fading estimate/error pair, correlation, large-scale gain."""

    h_est: complex
    h_err: complex
    epsilon: float
    large_scale_gain: float

    def __post_init__(self):
        if not -1.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [-1, 1], got {self.epsilon}")
        if self.large_scale_gain <= 0:
            raise ValueError(f"large_scale_gain must be > 0, got {self.large_scale_gain}")

    @property
    def h_est_power(self):
        return abs(self.h_est) ** 2


@dataclass
class OutageCoefficients:
    """Relative estimation-error power (a) and noise power (b) at a chosen rate."""

    a: float
    b: float


def outage_coefficients(rate, bandwidth, epsilon, tx_power, gain, noise_density):
    """Coefficients of the rate-support condition |h_est|^2 >= a*|h_err|^2 + b.

    a = (2^(R/W)-1)(1-eps^2)/eps^2,  b = (2^(R/W)-1) W N0 / (P L eps^2).
    """
    eps2 = float(epsilon) ** 2
    if eps2 == 0.0:
        raise ValueError("epsilon = 0 leaves no usable signal (degenerate channel)")
    if np.any(np.asarray(rate) < 0):
        raise ValueError(f"rate must be >= 0, got {rate}")
    t = np.expm1(np.asarray(rate, dtype=float) * _LN2 / bandwidth)  # 2^(R/W) - 1
    a = t * (1.0 - eps2) / eps2
    b = t * bandwidth * noise_density / (tx_power * gain * eps2)
    if np.ndim(rate) == 0:
        return OutageCoefficients(float(a), float(b))
    return OutageCoefficients(a, b)


def success_probability(coeffs: OutageCoefficients, h_est_power):
    """Probability the realized error still supports the rate, given the estimate.

    1 - exp(-(|h_est|^2 - b)/a) for |h_est|^2 > b, else 0.  The a = 0 edge
    (zero rate or perfect correlation) degenerates to a step at b.
    """
    h2 = np.asarray(h_est_power, dtype=float)
    if np.any(h2 < 0):
        raise ValueError(f"h_est_power must be >= 0, got {h_est_power}")
    a = np.asarray(coeffs.a, dtype=float)
    b = np.asarray(coeffs.b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = -np.expm1(-(h2 - b) / np.where(a == 0.0, np.nan, a))
    step = (h2 > b).astype(float)
    p = np.where(a == 0.0, step, np.where(h2 > b, tail, 0.0))
    return float(p) if p.ndim == 0 else p
