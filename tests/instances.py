"""Seeded random scheduling instances shared by unit and acceptance tests.

`random_context` and the physics constants live in `vflsim.checks`, whose
self-checks draw from them too; they are re-exported here for the tests and
for benchmarks/make_corpus.py.  The round-time cap, which only tests read, is
the config default too.
"""

import math

import numpy as np

from vflsim.checks import MODEL_BITS, NOISE, TX_POWER, W_BLOCK, random_context  # noqa: F401
from vflsim.config import SimConfig
from vflsim.scheduler import SchedulingContext

ROUND_CAP = SimConfig().optimization.round_time_cap_s


def symmetric_context(n_vehicles, alpha=1.0, n_blocks=20.0, u_min=0.05):
    """Identical vehicles (equal data, channel, bounds) for symmetry checks."""
    eps, h2, gain, sojourn = 0.8, 1.4, 3e-9, 90.0
    snr = TX_POWER * gain * eps**2 * h2 / (W_BLOCK * NOISE)
    r_max = W_BLOCK * math.log1p(snr) / math.log(2.0)
    r_min = MODEL_BITS / ROUND_CAP
    return SchedulingContext(
        ids=np.arange(n_vehicles),
        data_sizes=np.full(n_vehicles, 150.0),
        epsilon=np.full(n_vehicles, eps),
        h_est_sq=np.full(n_vehicles, h2),
        gain=np.full(n_vehicles, gain),
        sojourn=np.full(n_vehicles, sojourn),
        r_min=np.full(n_vehicles, r_min),
        r_max=np.full(n_vehicles, r_max),
        alpha=alpha,
        u_min=u_min,
        n_blocks=float(n_blocks),
        bandwidth=W_BLOCK,
        noise_density=NOISE,
        tx_power=TX_POWER,
        model_bits=MODEL_BITS,
        d_total=150.0 * n_vehicles,
    )
