"""Federated learning over a vehicular edge network under imperfect CSI.

Seedable, deterministic desk-scale simulator: Gauss-Markov fading with a
closed-form transmission-success probability, per-round joint client
inclusion and rate selection by block coordinate descent, and
inverse-probability-weighted model aggregation.
"""

import os
import sys

# The arrays are small, so a second BLAS thread only spins.  BLAS reads these
# when numpy is first imported, so they only take effect before that.
if "numpy" not in sys.modules:
    for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_name, "1")

__version__ = "0.1.0"

from .config import ConfigError, SimConfig, parse_config, serialize_config  # noqa: F401
