"""Highway vehicle population: Poisson arrivals per lane, constant speeds, RSU geometry.

Vehicles enter at position 0 of a straight road segment, keep a constant random
speed for their whole lifetime and leave once they pass the far end.  Roadside
units sit on the road centerline, evenly spaced; lanes are laid out
symmetrically about the centerline.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError


@dataclass
class RoadGeometry:
    road_length: float = 2000.0  # m
    lane_count: int = 6
    lane_width: float = 4.0  # m
    rsu_spacing: float = 100.0  # m

    @property
    def rsu_count(self):
        """RSUs that fit on the road: one per full spacing."""
        n = int(self.road_length // self.rsu_spacing)
        if n == 0:
            raise ConfigError("road too short for any RSU at the configured spacing")
        return n

    def rsu_x(self, k):
        """Position of RSU k along the centerline: spacing/2 + k*spacing."""
        return self.rsu_spacing / 2.0 + self.rsu_spacing * k

    def lane_center_y(self, lane):
        """Lateral offset of a lane center; lanes split symmetrically about y = 0."""
        if not 0 <= lane < self.lane_count:
            raise ValueError(f"lane index {lane} out of range 0..{self.lane_count - 1}")
        return (lane - (self.lane_count - 1) / 2.0) * self.lane_width


@dataclass
class VehicleState:
    id: int
    lane: int
    position: float  # m along the road
    velocity: float  # m/s, constant for the vehicle's lifetime
    spawn_time: float  # s
    shadowing_db: float = 0.0  # drawn once at spawn, held (slow fading)
    dataset: object = None  # Partition handle, carried for the whole lifetime
    epsilon: float = None  # CSI correlation, fixed by the constant speed; set at spawn
    channel: object = None  # ChannelState, refreshed every round


def remaining_sojourn(position, velocity, geometry: RoadGeometry):
    """Seconds until leaving coverage: remaining distance over speed, per element."""
    position = np.asarray(position, dtype=float)
    if np.any(position > geometry.road_length) or np.any(position < 0):
        raise ValueError(f"a position lies outside coverage [0, {geometry.road_length}] m")
    soj = (geometry.road_length - position) / velocity
    return float(soj) if soj.ndim == 0 else soj


def nearest_rsu_distance(vehicle: VehicleState, geometry: RoadGeometry):
    """Euclidean distance from the vehicle to the closest RSU.

    Only the RSU nearest along the road and its two neighbours are measured:
    rounding can put the computed nearest index off by one, and every other
    RSU is at least a spacing farther along the road.
    """
    y = geometry.lane_center_y(vehicle.lane)
    x = vehicle.position
    last = geometry.rsu_count - 1
    k = min(max(round((x - geometry.rsu_spacing / 2.0) / geometry.rsu_spacing), 0), last)
    # at either end of the road a neighbour index is clipped and measured twice
    return min(math.hypot(x - geometry.rsu_x(max(k - 1, 0)), y),
               math.hypot(x - geometry.rsu_x(k), y),
               math.hypot(x - geometry.rsu_x(min(k + 1, last)), y))


class ArrivalProcess:
    """Continuous-time per-lane Poisson arrival streams.

    Arrivals accrue over simulated time through exponential inter-arrival gaps,
    so the realized point process (times, lanes, speeds) does not depend on how
    the simulation slices time into rounds.  Speeds are drawn from a separate
    stream, consumed in chronological arrival order.
    """

    def __init__(self, geometry, rate_per_lane, speed_range, rng_arrivals, rng_speeds, start_time=0.0):
        if rate_per_lane < 0:
            raise ConfigError(f"arrival rate must be >= 0, got {rate_per_lane}")
        v_lo, v_hi = speed_range
        if not (0 < v_lo <= v_hi):
            raise ConfigError(f"invalid speed range {speed_range}")
        self.geometry = geometry
        self.rate = rate_per_lane
        self.speed_range = (v_lo, v_hi)
        self._rng_arrivals = rng_arrivals
        self._rng_speeds = rng_speeds
        # (next arrival time, lane) of every lane; the heap yields the earliest,
        # the lower lane first on a tie
        if rate_per_lane > 0:
            self._next = [(start_time + rng_arrivals.exponential(1.0 / rate_per_lane), lane)
                          for lane in range(geometry.lane_count)]
            heapq.heapify(self._next)
        else:
            self._next = [(math.inf, 0)]

    def pop_until(self, t_end):
        """All (time, lane, speed) arrivals with time <= t_end, chronological order."""
        events = []
        while self._next[0][0] <= t_end:
            t, lane = self._next[0]
            gap = self._rng_arrivals.exponential(1.0 / self.rate)
            heapq.heapreplace(self._next, (t + gap, lane))
            events.append((t, lane))
        speeds = self._rng_speeds.uniform(*self.speed_range, len(events)).tolist()
        return [(t, lane, speed) for (t, lane), speed in zip(events, speeds)]
