import math

import numpy as np
import pytest

from oracles import (capacity, compose_fading, j0_first_zero, j0_series_oracle,
                     scalar_bessel_j0, sinr)
from vflsim.channel import (SPEED_OF_LIGHT, bessel_j0, large_scale_gain, sample_fading_pair,
                            temporal_correlation)
from vflsim.config import parse_config
from vflsim.scheduler import SchedulingContext
from vflsim.sim import Experiment


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_reference_value(self):
        # frozen from the 50-digit series oracle
        assert bessel_j0(1.0) == pytest.approx(0.7651976865579666, abs=1e-12)
        assert bessel_j0(1.0) == pytest.approx(j0_series_oracle(1.0), abs=1e-12)

    def test_first_zero(self):
        zero = j0_first_zero()
        assert zero == pytest.approx(2.4048255577, abs=1e-9)
        assert abs(bessel_j0(2.4048255577)) <= 1e-8
        assert abs(bessel_j0(zero)) <= 1e-12

    def test_accuracy_on_working_range(self):
        xs = np.linspace(0.0, 20.0, 401)
        worst = max(abs(bessel_j0(float(x)) - j0_series_oracle(float(x), terms=300))
                    for x in xs)
        assert worst <= 1e-9

    def test_even_and_bounded(self):
        for x in (0.3, 4.7, 11.9, 13.5, 19.0):
            assert bessel_j0(-x) == pytest.approx(bessel_j0(x), abs=1e-12)
            assert abs(bessel_j0(x)) <= 1.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="got nan"):
            bessel_j0(math.nan)
        with pytest.raises(ValueError, match="got inf"):
            bessel_j0(math.inf)
        with pytest.raises(ValueError, match="got nan"):
            bessel_j0(np.array([1.0, math.nan]))

    def test_array_path_has_the_scalar_bits(self):
        switch = 12.0
        edges = [0.0, -0.0, -1.5, -switch, switch, np.nextafter(switch, 0.0),
                 np.nextafter(switch, 24.0), -np.nextafter(switch, 24.0), 30.0]
        xs = np.concatenate([edges, np.random.default_rng(17).uniform(-25.0, 25.0, 10_000)])
        got = bessel_j0(xs)
        want = np.array([scalar_bessel_j0(x) for x in xs])
        assert got.shape == xs.shape
        assert got.tobytes() == want.tobytes()
        for x in xs[:200].tolist():
            value = bessel_j0(x)
            assert type(value) is float
            assert np.float64(value).tobytes() == np.float64(scalar_bessel_j0(x)).tobytes()
        assert bessel_j0(xs[1:].reshape(-1, 4)).tobytes() == got[1:].tobytes()
        assert bessel_j0(np.zeros(0)).shape == (0,)

    def test_scalar_at_the_desk_feedback_delay_has_the_scalar_bits(self):
        # the one scalar call of a run: SimConfig.validate's correlation of the
        # slowest vehicle, here at the acceptance-7 desk config's 1e-4 s delay
        cfg = parse_config()
        cfg.physical.feedback_delay_s = 1e-4
        cfg.validate()
        x = (2.0 * math.pi * (cfg.speed_min_mps * cfg.physical.carrier_freq_hz / SPEED_OF_LIGHT)
             * 1e-4)
        value = temporal_correlation(cfg.speed_min_mps, cfg.physical.carrier_freq_hz, 1e-4)
        assert type(value) is float and 0.0 < value < 1.0
        assert np.float64(value).tobytes() == np.float64(scalar_bessel_j0(x)).tobytes()
        assert np.float64(bessel_j0(x)).tobytes() == np.float64(value).tobytes()


class TestTemporalCorrelation:
    def test_zero_doppler(self):
        assert temporal_correlation(0.0, 5.9e9, 5e-4) == 1.0

    def test_100_kmh(self):
        # 100 km/h at 5.9 GHz with 0.5 ms feedback delay; c = 3e8 cross-check first
        eps = temporal_correlation(27.7778, 5.9e9, 5e-4, speed_of_light=3e8)
        x = 2 * math.pi * (27.7778 * 5.9e9 / 3e8) * 5e-4
        assert eps == pytest.approx(j0_series_oracle(x), abs=1e-6)
        assert eps == pytest.approx(0.389, abs=1e-3)
        # exact speed of light shifts the value slightly
        eps_exact = temporal_correlation(27.7778, 5.9e9, 5e-4)
        x_exact = 2 * math.pi * (27.7778 * 5.9e9 / 299792458.0) * 5e-4
        assert eps_exact == pytest.approx(j0_series_oracle(x_exact), abs=1e-6)

    def test_60_kmh(self):
        eps = temporal_correlation(16.6667, 5.9e9, 5e-4, speed_of_light=3e8)
        assert eps == pytest.approx(0.752, abs=1e-3)

    def test_negative_velocity_rejected(self):
        with pytest.raises(ValueError):
            temporal_correlation(-1.0, 5.9e9, 5e-4)
        with pytest.raises(ValueError):
            temporal_correlation(np.array([3.0, -1.0]), 5.9e9, 5e-4)

    def test_array_of_velocities_per_element(self):
        speeds = np.random.default_rng(18).uniform(0.0, 60.0, 300)
        got = temporal_correlation(speeds, 5.9e9, 1e-4).tolist()
        assert got == [temporal_correlation(v, 5.9e9, 1e-4) for v in speeds.tolist()]


class TestLargeScaleGain:
    def test_reference_distance(self):
        # 22.7*log10(50) + 41.0 + 20*log10(5.9/5) = 81.004 dB
        assert large_scale_gain(50.0, 5.9e9, 0.0) == pytest.approx(7.935e-9, rel=1e-3)

    def test_monotone_in_distance(self):
        d = 7.0
        while d < 2000.0:
            assert large_scale_gain(2 * d, 5.9e9, 0.0) < large_scale_gain(d, 5.9e9, 0.0)
            d *= 2

    def test_shadowing_db_arithmetic(self):
        base = large_scale_gain(120.0, 5.9e9, 0.0)
        assert large_scale_gain(120.0, 5.9e9, 3.0) == pytest.approx(base * 10 ** -0.3, rel=1e-12)

    def test_short_distance_clamped(self):
        with pytest.warns(UserWarning):
            clamped = large_scale_gain(0.2, 5.9e9, 0.0)
        assert clamped == large_scale_gain(1.0, 5.9e9, 0.0)


class TestFading:
    def test_unit_power(self):
        rng = np.random.default_rng(7)
        h_est, h_err = sample_fading_pair(rng, 100_000)
        est_power = np.mean([abs(h) ** 2 for h in h_est.tolist()])
        err_power = np.mean([abs(g) ** 2 for g in h_err.tolist()])
        assert est_power == pytest.approx(1.0, abs=0.02)
        assert err_power == pytest.approx(1.0, abs=0.02)

    def test_one_block_draws_what_draws_of_four_in_turn_draw(self):
        block, turns = np.random.default_rng(8), np.random.default_rng(8)
        h_est, h_err = sample_fading_pair(block, 300)
        scale = math.sqrt(0.5)
        for k in range(300):
            re = turns.standard_normal(4)
            assert h_est[k] == complex(re[0] * scale, re[1] * scale)
            assert h_err[k] == complex(re[2] * scale, re[3] * scale)
        assert block.bit_generator.state == turns.bit_generator.state
        empty = np.random.default_rng(8)
        assert [len(h) for h in sample_fading_pair(empty, 0)] == [0, 0]
        assert empty.bit_generator.state == np.random.default_rng(8).bit_generator.state

    def test_perfect_correlation_keeps_estimate(self):
        h = compose_fading(1.0, 0.3 + 0.4j, 0.9 - 0.1j)
        assert h == 0.3 + 0.4j


class TestSinrCapacity:
    def test_direct_substitution(self):
        assert sinr(1.0, 1.0, 1.0, 1.0 + 0j, 0.0 + 0j, 1.0, 1.0) == pytest.approx(1.0)

    def test_error_term_in_denominator(self):
        # P*L=1, eps^2=0.5, |h_est|^2=2, |h_err|^2=1, W*N0=0.5 -> 1/(0.5+0.5)
        value = sinr(1.0, 1.0, math.sqrt(0.5), math.sqrt(2) + 0j, 1.0 + 0j, 0.5, 1.0)
        assert value == pytest.approx(1.0)

    def test_interference_limited_power(self):
        limit = 0.36 * 1.2**2 / ((1 - 0.36) * 0.7**2)
        assert sinr(1e9, 1e-8, 0.6, 1.2 + 0j, 0.7 + 0j, 4e-21, 5e5) == pytest.approx(limit,
                                                                                   rel=1e-3)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            sinr(1.0, 1.0, 1.0, 1.0 + 0j, 0.0 + 0j, 0.0, 0.0)

    def test_capacity_values(self):
        assert capacity(1.0, 1.0) == pytest.approx(1.0)
        assert capacity(5e5, 3.0) == pytest.approx(1e6)
        assert capacity(7e6, 0.0) == 0.0

    def test_capacity_negative_sinr_rejected(self):
        with pytest.raises(ValueError):
            capacity(1.0, -0.1)


class TestRefreshValidation:
    """A channel refresh rejects a population row whose correlation lies outside
    [-1, 1] or whose gain is not positive, and names the row's vehicle."""

    @staticmethod
    def _road():
        exp = Experiment(parse_config(), seed=4)
        return exp, 3, int(exp.vehicles.ids[3])

    @pytest.mark.parametrize("eps", [1.5, -1.5, float(np.nextafter(1.0, 2.0)), math.nan])
    def test_epsilon_outside_unit_interval(self, eps):
        exp, row, vid = self._road()
        exp.vehicles.epsilon[row] = eps
        with pytest.raises(ValueError, match=rf"vehicle {vid}: epsilon must lie in \[-1, 1\]"):
            exp._refresh_channels()
        assert exp.vehicles.gain is None

    def test_epsilon_at_either_end_accepted(self):
        exp, row, _ = self._road()
        exp.vehicles.epsilon[row:row + 2] = (-1.0, 1.0)
        exp._refresh_channels()
        assert np.all(exp.vehicles.gain > 0.0)

    def test_gain_underflowing_to_zero(self):
        exp, row, vid = self._road()
        exp.vehicles.shadowing_db[row] = 5000.0  # a 5,000 dB loss: the gain rounds to 0
        with pytest.raises(ValueError, match=f"vehicle {vid}: large_scale_gain must be > 0"):
            exp._refresh_channels()

    @pytest.mark.parametrize("gain", [0.0, -1e-9, math.nan])
    def test_non_positive_gain(self, gain):
        exp, row, vid = self._road()
        pop = exp.vehicles
        gains = np.full(len(pop), 1e-8)
        gains[row] = gain
        with pytest.raises(ValueError, match=f"vehicle {vid}: large_scale_gain must be > 0"):
            pop.set_channels(np.ones(len(pop)), gains)
        assert pop.h_est_sq is None


def _link(h_est_sq, epsilon=math.sqrt(0.5), gain=1.0, bandwidth=1.0, noise_density=1.0,
          tx_power=2.0):
    """One-vehicle context carrying a link's constants; the other fields are placeholders."""
    one = np.ones(1)
    return SchedulingContext(
        ids=np.zeros(1, dtype=int), data_sizes=one, epsilon=one * epsilon,
        h_est_sq=one * h_est_sq, gain=one * gain, sojourn=one, r_min=one, r_max=one,
        alpha=0.5, u_min=0.05, n_blocks=1.0, bandwidth=bandwidth,
        noise_density=noise_density, tx_power=tx_power, model_bits=1.0, d_total=1.0)


class TestOutage:
    def test_margin_values(self):
        # eps^2=0.5, W*N0=1, P*L=2 -> xi1=1, xi3=|h_est|^2; at R=W the margin is xi3 - xi1
        ctx = _link(3.0)
        assert ctx.xi1[0] == pytest.approx(1.0)
        assert ctx.xi3[0] == pytest.approx(3.0)
        assert ctx.support_margin([1.0])[0] == pytest.approx(2.0)

    def test_zero_rate_survives_any_error(self):
        ctx = _link(0.4)
        assert ctx.support_margin([0.0])[0] == math.inf
        assert ctx.success_prob([0.0])[0] == 1.0

    def test_success_probability_values(self):
        ctx = _link(1.0 + math.log(2))
        assert ctx.support_margin([1.0])[0] == pytest.approx(math.log(2), rel=1e-12)
        assert ctx.success_prob([1.0])[0] == pytest.approx(0.5, rel=1e-12)
        # past capacity the margin is negative and no error power is small enough
        assert _link(1.0).support_margin([2.0])[0] < 0.0
        assert _link(1.0).success_prob([2.0])[0] == 0.0
        assert _link(0.7).success_prob([1.0])[0] == 0.0

    def test_monotone_in_rate(self):
        ctx = _link(0.9, epsilon=0.6, gain=3e-9, bandwidth=5e5, noise_density=3.98e-21,
                    tx_power=0.2)
        prev = 1.1
        for r in np.linspace(1e4, 8e6, 400):
            p = float(ctx.success_prob([r])[0])
            assert p <= prev + 1e-12
            prev = p


def test_rate_support_condition_round_trip():
    """At the capacity for a drawn error power, the support margin is that power."""
    rng = np.random.default_rng(5)
    for _ in range(25):
        eps = float(rng.uniform(0.2, 0.95))
        h_est = complex(rng.normal(), rng.normal()) * math.sqrt(0.5)
        err_power = float(rng.exponential(1.0)) + 1e-6
        gain = 10 ** rng.uniform(-9, -7)
        w, n0, p = 5e5, 3.98e-21, 0.2
        rate = capacity(w, sinr(p, gain, eps, h_est, math.sqrt(err_power) + 0j, n0, w))
        ctx = _link(abs(h_est) ** 2, epsilon=eps, gain=gain, bandwidth=w, noise_density=n0,
                    tx_power=p)
        assert ctx.support_margin([rate])[0] == pytest.approx(err_power, rel=1e-9)


def test_composed_power_second_moment():
    rng = np.random.default_rng(31)
    eps = 0.643
    n = 100_000
    h_est = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
    h_err = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
    total = eps**2 * np.mean(np.abs(h_est) ** 2) + (1 - eps**2) * np.mean(np.abs(h_err) ** 2)
    assert total == pytest.approx(1.0, abs=0.02)
