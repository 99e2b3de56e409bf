import numpy as np
import pytest
from scipy import stats

from oracles import ScalarArrivals, nearest_rsu_brute_force
from vflsim.config import GeometryConfig, parse_config
from vflsim.mobility import ArrivalProcess, Population, nearest_rsu_distance, remaining_sojourn
from vflsim.sim import Experiment


def make_population(ids, position, velocity=25.0, lane=0):
    """Vehicles with empty datasets; scalar columns are broadcast to every row."""
    n = len(ids)
    return Population(ids=ids, lane=np.broadcast_to(lane, n),
                      position=np.broadcast_to(position, n),
                      velocity=np.broadcast_to(velocity, n))


def population(vehicles):
    """An experiment without arrivals holding exactly these vehicles, synced at t = 0."""
    exp = Experiment(parse_config(overrides={"traffic.arrival_rate_per_lane": "0"}), seed=0)
    exp.vehicles = vehicles
    return exp


def distance(position, lane, geometry):
    """nearest_rsu_distance of one vehicle."""
    return float(nearest_rsu_distance([position], [lane], geometry)[0])


class TestGeometry:
    """RSU positions and lane offsets, seen through nearest_rsu_distance."""

    def test_rsu_positions_evenly_spaced(self):
        g = GeometryConfig(lane_count=1)  # the single lane runs along the centerline
        at, between = 50.0 + 100.0 * np.arange(20), 100.0 * np.arange(21)
        lane = np.zeros(21, dtype=int)
        assert nearest_rsu_distance(at, lane[:20], g).tolist() == [0.0] * 20
        assert nearest_rsu_distance(between, lane, g).tolist() == [50.0] * 21

    def test_one_rsu_per_full_spacing(self):
        # 2045 m holds 29 full 70 m spacings: the last RSU sits at 35 + 70 * 28 = 1995 m
        g = GeometryConfig(road_length_m=2045.0, rsu_spacing_m=70.0, lane_count=1)
        assert distance(1995.0, 0, g) == 0.0 and distance(2045.0, 0, g) == 50.0

    def test_experiment_road_is_its_config(self):
        cfg = parse_config(overrides={"traffic.arrival_rate_per_lane": "0"})
        assert Experiment(cfg, seed=0).geometry is cfg.geometry

    def test_lanes_split_about_center(self):
        g = GeometryConfig(lane_count=6, lane_width_m=4.0)
        ys = [distance(50.0, lane, g) for lane in range(6)]
        assert ys == [10.0, 6.0, 2.0, 2.0, 6.0, 10.0]


class TestSpawnArrivals:
    """What ArrivalProcess spawns: counts over all lanes and speeds."""

    def test_mean_count(self):
        proc = ArrivalProcess(GeometryConfig(), 0.2, (16.667, 27.778),
                              np.random.default_rng(1), np.random.default_rng(2))
        assert len(proc.pop_until(100_000.0)) / 10_000 == pytest.approx(12.0, rel=0.05)

    def test_speed_range(self):
        proc = ArrivalProcess(GeometryConfig(), 0.5, (16.667, 27.778),
                              np.random.default_rng(2), np.random.default_rng(3))
        arrivals = proc.pop_until(2000.0)
        assert len(arrivals) > 1000
        for _, lane, speed in arrivals:
            assert 16.667 <= speed <= 27.778
            assert 0 <= lane < 6


class TestAdvance:
    """Experiment._advance_population: departures leave, everyone else moves by velocity * dt."""

    def test_zero_dt_identity(self):
        exp = population(make_population([0, 1], position=[123.0, 99.0]))
        exp._advance_population(0.0)
        assert exp.vehicles.position.tolist() == [123.0, 99.0]

    def test_departure(self):
        exp = population(make_population([7], position=1999.0, velocity=25.0))
        exp._advance_population(1.0)
        assert len(exp.vehicles) == 0 and exp.vehicles.partitions == {}

    def test_count_conservation(self):
        rng = np.random.default_rng(4)
        xs, speeds = rng.uniform(0, 2000, 300), rng.uniform(16, 28, 300)
        start = dict(enumerate(zip(xs.tolist(), speeds.tolist())))
        exp = population(make_population(np.arange(300), position=xs, velocity=speeds))
        exp._advance_population(30.0)
        now = dict(zip(exp.vehicles.ids.tolist(), exp.vehicles.position.tolist()))
        gone = set(start) - set(now)
        assert gone and len(exp.vehicles) + len(gone) == 300
        for vid, (x, speed) in start.items():
            if vid in gone:
                assert x + speed * 30.0 > 2000.0
            else:
                assert now[vid] == x + speed * 30.0


class TestPopulation:
    def test_rows_follow_ids_through_keep_and_extend(self):
        pop = make_population([2, 5, 9], position=[1.0, 2.0, 3.0])
        pop.data_size[:] = [20, 50, 90]
        pop.partitions = {2: "a", 5: "b", 9: "c"}
        pop.label_draws = {5: "B", 9: "C"}
        pop.keep(np.array([True, False, True]))
        new = Population(ids=[12], position=[4.0], data_size=[120])
        new.partitions[12] = "d"
        new.label_draws[12] = "D"
        pop.extend(new)
        assert pop.ids.tolist() == [2, 9, 12] and pop.partitions == {2: "a", 9: "c", 12: "d"}
        assert pop.label_draws == {9: "C", 12: "D"}
        assert pop.data_size.tolist() == [20, 90, 120]
        assert pop.position.tolist() == [1.0, 3.0, 4.0]
        assert pop.rows([9, 12]).tolist() == [1, 2]
        with pytest.raises(KeyError, match="vehicle 5"):
            pop.rows([5])

    def test_ids_must_ascend(self):
        with pytest.raises(ValueError, match="ascend"):
            make_population([3, 1], position=0.0)
        pop = make_population([3], position=0.0)
        with pytest.raises(ValueError, match="does not exceed"):
            pop.extend(make_population([3], position=0.0))

    def test_columns_are_checked(self):
        with pytest.raises(ValueError, match="column position"):
            Population(ids=[0, 1], position=[1.0])
        with pytest.raises(ValueError, match="column data_size"):
            Population(ids=[0, 1], data_size=[100, 100, 100])
        with pytest.raises(TypeError, match="speed"):
            Population(ids=[0], speed=[1.0])


class TestSojourn:
    def test_midway(self):
        assert remaining_sojourn(1000.0, 25.0, GeometryConfig()) == 40.0

    def test_boundary(self):
        assert remaining_sojourn(2000.0, 25.0, GeometryConfig()) == 0.0

    def test_entry(self):
        soj = remaining_sojourn(0.0, 16.6667, GeometryConfig())
        assert soj == pytest.approx(120.0, rel=1e-4)

    def test_out_of_coverage_rejected(self):
        with pytest.raises(ValueError):
            remaining_sojourn(2100.0, 25.0, GeometryConfig())

    def test_decreases_exactly_with_motion(self):
        g = GeometryConfig()
        exp = population(make_population([0], position=0.0, velocity=23.4))
        start = remaining_sojourn(0.0, 23.4, g)
        assert start == g.road_length_m / 23.4
        exp._advance_population(17.0)
        soj = remaining_sojourn(exp.vehicles.position, exp.vehicles.velocity, g)[0]
        assert soj == pytest.approx(start - 17.0, rel=1e-12)


class TestNearestRsu:
    def test_along_centerline(self):
        g = GeometryConfig(lane_count=1, lane_width_m=4.0)  # single lane sits at y=0
        assert distance(120.0, 0, g) == pytest.approx(30.0)

    def test_lateral_only(self):
        g = GeometryConfig(lane_count=2, lane_width_m=4.0)  # lanes at y = -2, +2
        assert distance(50.0, 1, g) == pytest.approx(2.0)

    def test_reflection_symmetry(self):
        g = GeometryConfig()
        for lane in range(6):
            assert distance(150.0 - 37.0, lane, g) == pytest.approx(distance(150.0 + 37.0, lane, g))

    def test_bounded_by_spacing_and_width(self):
        g = GeometryConfig()
        rng = np.random.default_rng(5)
        bound = g.rsu_spacing_m / 2 + g.lane_count * g.lane_width_m
        xs, lanes = rng.uniform(0, 2000, 500), rng.integers(0, 6, 500)
        assert np.all(nearest_rsu_distance(xs, lanes, g) <= bound)

    def test_lane_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            nearest_rsu_distance([10.0, 20.0], [0, 6], GeometryConfig())


class TestNearestRsuEdgeCases:
    """The neighbour-only search equals the minimum over every RSU, bit for bit."""

    # the default road, then road lengths that are not a multiple of the spacing,
    # down to a road with a single RSU; at 29.97 m spacing the index rounded from
    # x is off by one at some midpoints, so a neighbour is the nearest RSU
    GEOMETRIES = (GeometryConfig(), GeometryConfig(road_length_m=2045.0, rsu_spacing_m=70.0, lane_count=3),
                  GeometryConfig(road_length_m=389.0, rsu_spacing_m=29.97, lane_count=3),
                  GeometryConfig(road_length_m=250.0, rsu_spacing_m=100.0, lane_count=2),
                  GeometryConfig(road_length_m=120.0, rsu_spacing_m=100.0, lane_count=1))

    @staticmethod
    def positions(g):
        s = g.rsu_spacing_m
        rsu_x = s / 2.0 + s * np.arange(int(g.road_length_m // s))
        # before the first RSU, then past the last
        xs = [0.0, s / 4.0, rsu_x[-1] + s / 4.0, g.road_length_m]
        for x in rsu_x:
            xs += [x, x + s / 2.0]  # at an RSU, exactly midway to the next
            xs += [np.nextafter(x + s / 2.0, -np.inf), np.nextafter(x + s / 2.0, np.inf)]
        return [float(x) for x in xs]

    @staticmethod
    def assert_brute_force(xs, lanes, g):
        got = nearest_rsu_distance(xs, lanes, g).tolist()
        for x, lane, d in zip(xs, lanes, got):
            assert d == nearest_rsu_brute_force(x, lane, g), (x, lane)

    def test_matches_brute_force(self):
        for g in self.GEOMETRIES:
            for lane in range(g.lane_count):
                xs = self.positions(g)
                self.assert_brute_force(xs, [lane] * len(xs), g)

    def test_matches_brute_force_on_random_positions(self):
        rng = np.random.default_rng(31)
        for g in self.GEOMETRIES:
            xs = rng.uniform(0.0, g.road_length_m, 2000).tolist()
            self.assert_brute_force(xs, rng.integers(g.lane_count, size=2000).tolist(), g)


class TestArrivalProcess:
    def test_interarrival_distribution(self):
        g = GeometryConfig(lane_count=1)
        proc = ArrivalProcess(g, 0.2, (16.0, 28.0),
                              np.random.default_rng(6), np.random.default_rng(7))
        times = [t for t, _, _ in proc.pop_until(60_000.0)]
        gaps = np.diff(times)
        assert len(gaps) > 9_000
        result = stats.kstest(gaps, "expon", args=(0.0, 1.0 / 0.2))
        assert result.pvalue > 0.01

    def test_slicing_invariance(self):
        g = GeometryConfig()
        args = (g, 0.3, (16.0, 28.0))
        a = ArrivalProcess(*args, np.random.default_rng(8), np.random.default_rng(9))
        b = ArrivalProcess(*args, np.random.default_rng(8), np.random.default_rng(9))
        whole = a.pop_until(100.0)
        sliced = np.concatenate([b.pop_until(t) for t in (13.0, 27.5, 27.5, 64.0, 100.0)])
        assert whole.tobytes() == sliced.tobytes()

    @pytest.mark.parametrize("block", [1, 7, ArrivalProcess.GAP_BLOCK])
    def test_buffered_gaps_equal_one_draw_per_event(self, monkeypatch, block):
        """Sliced horizons, block refills (about 800 arrivals) and rate 0, bit for bit."""
        monkeypatch.setattr(ArrivalProcess, "GAP_BLOCK", block)
        g = GeometryConfig()
        for rate, horizons in ((0.3, (-50.0, 13.0, 27.5, 27.5, 64.0, 400.0)), (0.0, (1e9,))):
            streams = [np.random.default_rng(8), np.random.default_rng(9)]
            proc = ArrivalProcess(g, rate, (16.0, 28.0), *streams, start_time=-50.0)
            streams = [np.random.default_rng(8), np.random.default_rng(9)]
            ref = ScalarArrivals(g, rate, (16.0, 28.0), *streams, start_time=-50.0)
            total = 0
            for t in horizons:
                got, want = proc.pop_until(t), ref.pop_until(t)
                assert got.shape == (len(want), 3)
                assert got.tobytes() == np.array(want, dtype=float).reshape(-1, 3).tobytes()
                total += len(got)
            assert proc._next == ref._next
            assert total > 2 * ArrivalProcess.GAP_BLOCK if rate else total == 0

    def test_len_counts_arrivals(self):
        proc = ArrivalProcess(GeometryConfig(), 0.3, (16.0, 28.0),
                              np.random.default_rng(8), np.random.default_rng(9))
        arrivals = proc.pop_until(50.0)
        times = arrivals[:, 0]
        assert len(arrivals) == len(times) > 0 and np.all(times <= 50.0)
        assert np.all(np.diff(times) >= 0)
        assert len(proc.pop_until(50.0)) == 0

    def test_zero_rate_never_arrives(self):
        g = GeometryConfig()
        proc = ArrivalProcess(g, 0.0, (16.0, 28.0),
                              np.random.default_rng(10), np.random.default_rng(11))
        assert proc.pop_until(1e9).shape == (0, 3)
