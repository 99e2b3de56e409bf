"""Highway vehicle population: Poisson arrivals per lane, constant speeds, RSU distances.

Vehicles enter at position 0 of a straight road segment, keep a constant random
speed for their whole lifetime and leave once they pass the far end.  Roadside
units sit on the road centerline, evenly spaced; lanes are laid out
symmetrically about the centerline.  The road is the config's `geometry`
section (config.GeometryConfig).  The vehicles on the road are one
Population: an array per attribute, one row per vehicle.
"""

from __future__ import annotations

import heapq
import math

import numpy as np


class Population:
    """The vehicles on the road as parallel arrays, one row per vehicle, ids ascending.

    `data_size` is each vehicle's dataset size.  `partitions` maps the id of
    each vehicle whose dataset has been made to that dataset.  `label_draws`
    maps the id of each non-iid vehicle whose dataset is yet to be made to
    its generator and the label draw taken from it (fl_core.partition_sizes).
    Both lose a vehicle with its row.  `h_est_sq` (the power |h_est|^2 of the fading
    estimate) and `gain` (the large-scale linear gain) hold the last channel
    refresh: None before it, and cleared whenever rows come or go.
    """

    COLUMNS = {"ids": int, "lane": int, "position": float, "velocity": float,
               "spawn_time": float, "shadowing_db": float, "epsilon": float, "data_size": int}

    def __init__(self, **columns):
        """Rows from one column per name in COLUMNS, each as long as `ids`; a column
        left out is zeros."""
        unknown = set(columns) - set(self.COLUMNS)
        if unknown:
            raise TypeError(f"unknown population columns {sorted(unknown)}")
        n = len(np.atleast_1d(columns.get("ids", ())))
        for name, dtype in self.COLUMNS.items():
            values = np.asarray(columns.get(name, np.zeros(n)), dtype=dtype)
            if values.shape != (n,):
                raise ValueError(f"column {name} has shape {values.shape}, expected ({n},)")
            setattr(self, name, values)
        if np.any(self.ids[1:] <= self.ids[:-1]):
            raise ValueError("vehicle ids must ascend")
        self.partitions, self.label_draws = {}, {}
        self.h_est_sq = self.gain = None

    def __len__(self):
        return len(self.ids)

    def values(self):
        """The population itself, which build_context takes whole.  It stays for
        its one caller, benchmarks/bench_workloads.py's round0_context, written
        when the road was a dict of vehicles."""
        return self

    def extend(self, other):
        """Append the rows of `other`, whose ids must all exceed the ones here."""
        if len(other) and len(self) and other.ids[0] <= self.ids[-1]:
            raise ValueError(f"vehicle id {other.ids[0]} does not exceed {self.ids[-1]}")
        for name in self.COLUMNS:
            setattr(self, name, np.concatenate([getattr(self, name), getattr(other, name)]))
        self.partitions.update(other.partitions)
        self.label_draws.update(other.label_draws)
        self.h_est_sq = self.gain = None

    def keep(self, mask):
        """Drop the rows where the boolean `mask` is False."""
        for vid in self.ids[~mask].tolist():
            self.partitions.pop(vid, None)
            self.label_draws.pop(vid, None)
        for name in self.COLUMNS:
            setattr(self, name, getattr(self, name)[mask])
        self.h_est_sq = self.gain = None

    def rows(self, ids):
        """Row index of each vehicle id; KeyError for an id not on the road."""
        ids = np.asarray(ids, dtype=int)
        missing = ids[~np.isin(ids, self.ids)]
        if len(missing):
            raise KeyError(f"vehicle {missing[0]} is not on the road")
        return np.searchsorted(self.ids, ids)

    def set_channels(self, h_est_sq, gain):
        """Store one channel refresh, after checking each row's correlation and gain."""
        eps = self.epsilon
        for bad, rule, values in (
                (~((eps >= -1.0) & (eps <= 1.0)), "epsilon must lie in [-1, 1]", eps),
                (~(gain > 0.0), "large_scale_gain must be > 0", gain)):
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(f"vehicle {self.ids[k]}: {rule}, got {values[k]}")
        self.h_est_sq, self.gain = h_est_sq, gain


def remaining_sojourn(position, velocity, geometry):
    """Seconds until leaving coverage: remaining distance over speed, per element."""
    position = np.asarray(position, dtype=float)
    road = geometry.road_length_m
    if np.any(position > road) or np.any(position < 0):
        raise ValueError(f"a position lies outside coverage [0, {road}] m")
    soj = (road - position) / velocity
    return float(soj) if soj.ndim == 0 else soj


def nearest_rsu_distance(position, lane, geometry):
    """Euclidean distance from each vehicle to its closest RSU, per element.

    RSU k sits at s/2 + s*k along the centerline, for spacing s; lane l's
    center is (l - (lane_count-1)/2) * lane_width_m off it.  Only the RSU
    nearest along the road and its two neighbours are measured: rounding can
    put the computed nearest index off by one, and every other RSU is at least
    a spacing farther along the road.  Each distance is a math.hypot of its
    own: numpy's hypot rounds differently and would move the seeded results.
    """
    lane = np.asarray(lane)
    if np.any((lane < 0) | (lane >= geometry.lane_count)):
        raise ValueError(f"lane index {lane} out of range 0..{geometry.lane_count - 1}")
    y = np.repeat((lane - (geometry.lane_count - 1) / 2.0) * geometry.lane_width_m, 3).tolist()
    x = np.asarray(position, dtype=float)
    s = geometry.rsu_spacing_m
    last = int(geometry.road_length_m // s) - 1
    # np.rint rounds half to even, as Python's round does
    k = np.clip(np.rint((x - s / 2.0) / s), 0, last).astype(int)
    # at either end of the road a neighbour index is clipped and measured twice
    near = np.stack([np.maximum(k - 1, 0), k, np.minimum(k + 1, last)], axis=1)
    dx = (x[:, None] - (s / 2.0 + s * near)).ravel().tolist()
    return np.array(list(map(math.hypot, dx, y))).reshape(-1, 3).min(axis=1)


class ArrivalProcess:
    """Continuous-time per-lane Poisson arrival streams.

    Arrivals accrue over simulated time through exponential inter-arrival gaps,
    so the realized point process (times, lanes, speeds) does not depend on how
    the simulation slices time into rounds.  The gaps are drawn from their own
    stream in blocks of GAP_BLOCK, the same numbers one draw at a time would
    give, and taken in chronological arrival order; speeds are drawn from a
    separate stream, in the same order.
    """

    GAP_BLOCK = 256

    def __init__(self, geometry, rate_per_lane, speed_range, rng_arrivals, rng_speeds, start_time=0.0):
        self.rate, self.speed_range = rate_per_lane, speed_range
        self._rng_arrivals = rng_arrivals
        self._rng_speeds = rng_speeds
        self._gaps = []  # drawn and not yet taken, the next one last
        # (next arrival time, lane) of every lane; the heap yields the earliest,
        # the lower lane first on a tie
        if rate_per_lane > 0:
            self._next = [(start_time + rng_arrivals.exponential(1.0 / rate_per_lane), lane)
                          for lane in range(geometry.lane_count)]
            heapq.heapify(self._next)
        else:
            self._next = [(math.inf, 0)]

    def pop_until(self, t_end):
        """The arrivals with time <= t_end, chronological, as a (k, 3) array of
        (time, lane, speed) rows."""
        heap, gaps = self._next, self._gaps
        times, lanes = [], []
        while heap[0][0] <= t_end:
            if not gaps:
                block = self._rng_arrivals.exponential(1.0 / self.rate, self.GAP_BLOCK)
                gaps.extend(block[::-1].tolist())
            t, lane = heap[0]
            heapq.heapreplace(heap, (t + gaps.pop(), lane))
            times.append(t)
            lanes.append(lane)
        out = np.empty((len(times), 3))
        out[:, 0], out[:, 1] = times, lanes
        out[:, 2] = self._rng_speeds.uniform(*self.speed_range, len(times))
        return out
