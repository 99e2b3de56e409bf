import numpy as np
import pytest
from scipy import stats

from oracles import nearest_rsu_brute_force
from vflsim.config import ConfigError, parse_config
from vflsim.mobility import (ArrivalProcess, RoadGeometry, VehicleState, nearest_rsu_distance,
                             remaining_sojourn)
from vflsim.sim import Experiment


def make_vehicle(vid=0, lane=0, position=0.0, velocity=25.0, **kw):
    return VehicleState(id=vid, lane=lane, position=position, velocity=velocity,
                        spawn_time=0.0, **kw)


def population(vehicles):
    """An experiment without arrivals holding exactly these vehicles, synced at t = 0."""
    exp = Experiment(parse_config(overrides={"traffic.arrival_rate_per_lane": "0"}), seed=0)
    exp.vehicles = {v.id: v for v in vehicles}
    return exp


class TestGeometry:
    def test_rsu_positions_evenly_spaced(self):
        g = RoadGeometry()
        xs = [g.rsu_x(k) for k in range(g.rsu_count)]
        assert len(xs) == 20
        assert xs[0] == 50.0 and xs[-1] == 1950.0
        assert np.allclose(np.diff(xs), 100.0)

    def test_road_shorter_than_spacing_rejected(self):
        with pytest.raises(ConfigError):
            RoadGeometry(road_length=50.0, rsu_spacing=100.0).rsu_count

    def test_lanes_split_about_center(self):
        g = RoadGeometry(lane_count=6, lane_width=4.0)
        ys = [g.lane_center_y(i) for i in range(6)]
        assert ys == [-10.0, -6.0, -2.0, 2.0, 6.0, 10.0]


class TestSpawnArrivals:
    """What ArrivalProcess spawns: counts over all lanes, speeds, and the inputs it rejects."""

    def test_mean_count(self):
        proc = ArrivalProcess(RoadGeometry(), 0.2, (16.667, 27.778),
                              np.random.default_rng(1), np.random.default_rng(2))
        assert len(proc.pop_until(100_000.0)) / 10_000 == pytest.approx(12.0, rel=0.05)

    def test_speed_range(self):
        proc = ArrivalProcess(RoadGeometry(), 0.5, (16.667, 27.778),
                              np.random.default_rng(2), np.random.default_rng(3))
        arrivals = proc.pop_until(2000.0)
        assert len(arrivals) > 1000
        for _, lane, speed in arrivals:
            assert 16.667 <= speed <= 27.778
            assert 0 <= lane < 6

    def test_bad_speed_range_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ConfigError):
            ArrivalProcess(RoadGeometry(), 0.2, (28.0, 16.0), rng, rng)
        with pytest.raises(ConfigError):
            ArrivalProcess(RoadGeometry(), 0.2, (0.0, 0.0), rng, rng)

    def test_negative_rate_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ConfigError):
            ArrivalProcess(RoadGeometry(), -0.1, (16.0, 28.0), rng, rng)


class TestAdvance:
    """Experiment._advance_population: departures leave, everyone else moves by velocity * dt."""

    def test_zero_dt_identity(self):
        exp = population([make_vehicle(0, position=123.0), make_vehicle(1, position=99.0)])
        exp._advance_population(0.0)
        assert [v.position for v in exp.vehicles.values()] == [123.0, 99.0]

    def test_departure(self):
        exp = population([make_vehicle(7, position=1999.0, velocity=25.0)])
        exp._advance_population(1.0)
        assert exp.vehicles == {}

    def test_count_conservation(self):
        rng = np.random.default_rng(4)
        vs = [make_vehicle(i, position=float(rng.uniform(0, 2000)),
                           velocity=float(rng.uniform(16, 28))) for i in range(300)]
        start = {v.id: (v.position, v.velocity) for v in vs}
        exp = population(vs)
        exp._advance_population(30.0)
        gone = set(start) - set(exp.vehicles)
        assert gone and len(exp.vehicles) + len(gone) == 300
        for vid, (x, speed) in start.items():
            if vid in gone:
                assert x + speed * 30.0 > 2000.0
            else:
                assert exp.vehicles[vid].position == x + speed * 30.0


class TestSojourn:
    def test_midway(self):
        v = make_vehicle(position=1000.0, velocity=25.0)
        assert remaining_sojourn(v.position, v.velocity, RoadGeometry()) == 40.0

    def test_boundary(self):
        v = make_vehicle(position=2000.0, velocity=25.0)
        assert remaining_sojourn(v.position, v.velocity, RoadGeometry()) == 0.0

    def test_entry(self):
        v = make_vehicle(position=0.0, velocity=16.6667)
        soj = remaining_sojourn(v.position, v.velocity, RoadGeometry())
        assert soj == pytest.approx(120.0, rel=1e-4)

    def test_out_of_coverage_rejected(self):
        v = make_vehicle(position=2100.0)
        with pytest.raises(ValueError):
            remaining_sojourn(v.position, v.velocity, RoadGeometry())

    def test_decreases_exactly_with_motion(self):
        g = RoadGeometry()
        v = make_vehicle(position=0.0, velocity=23.4)
        start = remaining_sojourn(v.position, v.velocity, g)
        assert start == g.road_length / 23.4
        population([v])._advance_population(17.0)
        soj = remaining_sojourn(v.position, v.velocity, g)
        assert soj == pytest.approx(start - 17.0, rel=1e-12)


class TestNearestRsu:
    def test_along_centerline(self):
        g = RoadGeometry(lane_count=1, lane_width=4.0)  # single lane sits at y=0
        v = make_vehicle(position=120.0, lane=0)
        assert nearest_rsu_distance(v, g) == pytest.approx(30.0)

    def test_lateral_only(self):
        g = RoadGeometry(lane_count=2, lane_width=4.0)  # lanes at y = -2, +2
        v = make_vehicle(position=50.0, lane=1)
        assert nearest_rsu_distance(v, g) == pytest.approx(2.0)

    def test_reflection_symmetry(self):
        g = RoadGeometry()
        for lane in range(6):
            a = make_vehicle(position=150.0 - 37.0, lane=lane)
            b = make_vehicle(position=150.0 + 37.0, lane=lane)
            assert nearest_rsu_distance(a, g) == pytest.approx(nearest_rsu_distance(b, g))

    def test_bounded_by_spacing_and_width(self):
        g = RoadGeometry()
        rng = np.random.default_rng(5)
        bound = g.rsu_spacing / 2 + g.lane_count * g.lane_width
        for _ in range(500):
            v = make_vehicle(position=float(rng.uniform(0, 2000)),
                             lane=int(rng.integers(0, 6)))
            assert nearest_rsu_distance(v, g) <= bound


class TestNearestRsuEdgeCases:
    """The neighbour-only search equals the minimum over every RSU, bit for bit."""

    # the default road, then road lengths that are not a multiple of the spacing,
    # down to a road with a single RSU; at 29.97 m spacing the index rounded from
    # x is off by one at some midpoints, so a neighbour is the nearest RSU
    GEOMETRIES = (RoadGeometry(), RoadGeometry(road_length=2045.0, rsu_spacing=70.0, lane_count=3),
                  RoadGeometry(road_length=389.0, rsu_spacing=29.97, lane_count=3),
                  RoadGeometry(road_length=250.0, rsu_spacing=100.0, lane_count=2),
                  RoadGeometry(road_length=120.0, rsu_spacing=100.0, lane_count=1))

    @staticmethod
    def positions(g):
        s, n = g.rsu_spacing, g.rsu_count
        # before the first RSU, then past the last
        xs = [0.0, s / 4.0, g.rsu_x(n - 1) + s / 4.0, g.road_length]
        for k in range(n):
            xs += [g.rsu_x(k), g.rsu_x(k) + s / 2.0]  # at an RSU, exactly midway to the next
            xs += [np.nextafter(g.rsu_x(k) + s / 2.0, -np.inf),
                   np.nextafter(g.rsu_x(k) + s / 2.0, np.inf)]
        return [float(x) for x in xs]

    def test_matches_brute_force(self):
        for g in self.GEOMETRIES:
            for lane in range(g.lane_count):
                for x in self.positions(g):
                    v = make_vehicle(position=x, lane=lane)
                    assert nearest_rsu_distance(v, g) == nearest_rsu_brute_force(v, g), (x, lane)

    def test_matches_brute_force_on_random_positions(self):
        rng = np.random.default_rng(31)
        for g in self.GEOMETRIES:
            for x in rng.uniform(0.0, g.road_length, 2000).tolist():
                v = make_vehicle(position=x, lane=int(rng.integers(g.lane_count)))
                assert nearest_rsu_distance(v, g) == nearest_rsu_brute_force(v, g), x


class TestArrivalProcess:
    def test_interarrival_distribution(self):
        g = RoadGeometry(lane_count=1)
        proc = ArrivalProcess(g, 0.2, (16.0, 28.0),
                              np.random.default_rng(6), np.random.default_rng(7))
        times = [t for t, _, _ in proc.pop_until(60_000.0)]
        gaps = np.diff(times)
        assert len(gaps) > 9_000
        result = stats.kstest(gaps, "expon", args=(0.0, 1.0 / 0.2))
        assert result.pvalue > 0.01

    def test_slicing_invariance(self):
        g = RoadGeometry()
        args = (g, 0.3, (16.0, 28.0))
        a = ArrivalProcess(*args, np.random.default_rng(8), np.random.default_rng(9))
        b = ArrivalProcess(*args, np.random.default_rng(8), np.random.default_rng(9))
        whole = a.pop_until(100.0)
        sliced = []
        for t in (13.0, 27.5, 27.5, 64.0, 100.0):
            sliced.extend(b.pop_until(t))
        assert whole == sliced

    def test_zero_rate_never_arrives(self):
        g = RoadGeometry()
        proc = ArrivalProcess(g, 0.0, (16.0, 28.0),
                              np.random.default_rng(10), np.random.default_rng(11))
        assert proc.pop_until(1e9) == []
