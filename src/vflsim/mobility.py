"""Highway vehicle population: Poisson arrivals per lane, constant speeds, RSU geometry.

Vehicles enter at position 0 of a straight road segment, keep a constant random
speed for their whole lifetime and leave once they pass the far end.  Roadside
units sit on the road centerline, evenly spaced; lanes are laid out
symmetrically about the centerline.
"""

from __future__ import annotations

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
    def rsu_positions(self):
        """(x, y) of each RSU: x = spacing/2 + k*spacing on the centerline."""
        n = int(self.road_length // self.rsu_spacing)
        if n == 0:
            raise ConfigError("road too short for any RSU at the configured spacing")
        xs = self.rsu_spacing / 2.0 + self.rsu_spacing * np.arange(n)
        return [(float(x), 0.0) for x in xs]

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
    channel: object = None  # ChannelState, refreshed every round


def remaining_sojourn(vehicle: VehicleState, geometry: RoadGeometry):
    """Seconds until the vehicle leaves coverage: remaining distance over speed."""
    if vehicle.position > geometry.road_length or vehicle.position < 0:
        raise ValueError(f"vehicle {vehicle.id} is outside coverage at {vehicle.position} m")
    return (geometry.road_length - vehicle.position) / vehicle.velocity


def nearest_rsu_distance(vehicle: VehicleState, geometry: RoadGeometry):
    """Euclidean distance from the vehicle to the closest RSU."""
    rsus = geometry.rsu_positions
    y = geometry.lane_center_y(vehicle.lane)
    x = vehicle.position
    return min(math.hypot(x - rx, y - ry) for rx, ry in rsus)


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
        if rate_per_lane > 0:
            self._next_time = [start_time + rng_arrivals.exponential(1.0 / rate_per_lane)
                               for _ in range(geometry.lane_count)]
        else:
            self._next_time = [math.inf] * geometry.lane_count

    def pop_until(self, t_end):
        """All (time, lane, speed) arrivals with time <= t_end, chronological order."""
        out = []
        if self.rate <= 0:
            return out
        while True:
            lane = min(range(len(self._next_time)), key=lambda i: (self._next_time[i], i))
            t = self._next_time[lane]
            if t > t_end:
                break
            self._next_time[lane] = t + self._rng_arrivals.exponential(1.0 / self.rate)
            speed = float(self._rng_speeds.uniform(*self.speed_range))
            out.append((t, lane, speed))
        return out
