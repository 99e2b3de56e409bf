import math

import numpy as np
import pytest

from oracles import (capacity, compose_fading, j0_first_zero, j0_series_oracle,
                     scalar_bessel_j0, sinr)
from vflsim.channel import (ChannelState, OutageCoefficients, bessel_j0, large_scale_gain,
                            outage_coefficients, sample_fading_pair, success_probability,
                            temporal_correlation)


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
        draws = [sample_fading_pair(rng) for _ in range(100_000)]
        est_power = np.mean([abs(h) ** 2 for h, _ in draws])
        err_power = np.mean([abs(g) ** 2 for _, g in draws])
        assert est_power == pytest.approx(1.0, abs=0.02)
        assert err_power == pytest.approx(1.0, abs=0.02)

    def test_perfect_correlation_keeps_estimate(self):
        h = compose_fading(1.0, 0.3 + 0.4j, 0.9 - 0.1j)
        assert h == 0.3 + 0.4j


class TestSinrCapacity:
    def test_direct_substitution(self):
        st = ChannelState(h_est=1.0 + 0j, h_err=0.0 + 0j, epsilon=1.0, large_scale_gain=1.0)
        assert sinr(1.0, st, 1.0, 1.0) == pytest.approx(1.0)

    def test_error_term_in_denominator(self):
        # P*L=1, eps^2=0.5, |h_est|^2=2, |h_err|^2=1, W*N0=0.5 -> 1/(0.5+0.5)
        st = ChannelState(h_est=math.sqrt(2) + 0j, h_err=1.0 + 0j,
                          epsilon=math.sqrt(0.5), large_scale_gain=1.0)
        assert sinr(1.0, st, 0.5, 1.0) == pytest.approx(1.0)

    def test_interference_limited_power(self):
        st = ChannelState(h_est=1.2 + 0j, h_err=0.7 + 0j, epsilon=0.6, large_scale_gain=1e-8)
        limit = 0.36 * 1.2**2 / ((1 - 0.36) * 0.7**2)
        assert sinr(1e9, st, 4e-21, 5e5) == pytest.approx(limit, rel=1e-3)

    def test_zero_denominator_rejected(self):
        st = ChannelState(h_est=1.0 + 0j, h_err=0.0 + 0j, epsilon=1.0, large_scale_gain=1.0)
        with pytest.raises(ZeroDivisionError):
            sinr(1.0, st, 0.0, 0.0)

    def test_capacity_values(self):
        assert capacity(1.0, 1.0) == pytest.approx(1.0)
        assert capacity(5e5, 3.0) == pytest.approx(1e6)
        assert capacity(7e6, 0.0) == 0.0

    def test_capacity_negative_sinr_rejected(self):
        with pytest.raises(ValueError):
            capacity(1.0, -0.1)


class TestOutage:
    def test_coefficient_values(self):
        # R=W, eps^2=0.5, W*N0=1, P*L=2 -> a=1, b=1
        c = outage_coefficients(1.0, 1.0, math.sqrt(0.5), 2.0, 1.0, 1.0)
        assert c.a == pytest.approx(1.0)
        assert c.b == pytest.approx(1.0)

    def test_zero_rate(self):
        c = outage_coefficients(0.0, 5e5, 0.5, 0.2, 1e-8, 4e-21)
        assert c.a == 0.0 and c.b == 0.0

    def test_perfect_csi_kills_a(self):
        c = outage_coefficients(2e6, 5e5, 1.0, 0.2, 1e-8, 4e-21)
        assert c.a == 0.0 and c.b > 0.0

    def test_zero_epsilon_rejected(self):
        with pytest.raises(ValueError):
            outage_coefficients(1e6, 5e5, 0.0, 0.2, 1e-8, 4e-21)

    def test_success_probability_values(self):
        assert success_probability(OutageCoefficients(1.0, 1.0), 1.0 + math.log(2)) \
            == pytest.approx(0.5, rel=1e-12)
        assert success_probability(OutageCoefficients(1.0, 1.0), 1.0) == 0.0
        assert success_probability(OutageCoefficients(2.0, 1.5), 0.7) == 0.0

    def test_degenerate_a_is_step(self):
        assert success_probability(OutageCoefficients(0.0, 1.0), 2.0) == 1.0
        assert success_probability(OutageCoefficients(0.0, 1.0), 0.5) == 0.0

    def test_negative_estimate_power_rejected(self):
        with pytest.raises(ValueError):
            success_probability(OutageCoefficients(1.0, 1.0), -0.1)

    def test_monotone_in_rate(self):
        rates = np.linspace(1e4, 8e6, 400)
        prev = 1.1
        for r in rates:
            c = outage_coefficients(float(r), 5e5, 0.6, 0.2, 3e-9, 3.98e-21)
            p = success_probability(c, 0.9)
            assert p <= prev + 1e-12
            prev = p


def test_rate_support_condition_round_trip():
    """A rate meeting capacity with equality makes the support event tight."""
    rng = np.random.default_rng(5)
    for _ in range(25):
        eps = float(rng.uniform(0.2, 0.95))
        h_est = complex(rng.normal(), rng.normal()) * math.sqrt(0.5)
        err_power = float(rng.exponential(1.0)) + 1e-6
        st = ChannelState(h_est=h_est, h_err=math.sqrt(err_power) + 0j,
                          epsilon=eps, large_scale_gain=10 ** rng.uniform(-9, -7))
        w, n0, p = 5e5, 3.98e-21, 0.2
        rate = capacity(w, sinr(p, st, n0, w))
        c = outage_coefficients(rate, w, eps, p, st.large_scale_gain, n0)
        threshold = (st.h_est_power - c.b) / c.a
        assert threshold == pytest.approx(err_power, rel=1e-9)


def test_composed_power_second_moment():
    rng = np.random.default_rng(31)
    eps = 0.643
    n = 100_000
    h_est = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
    h_err = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
    total = eps**2 * np.mean(np.abs(h_est) ** 2) + (1 - eps**2) * np.mean(np.abs(h_err) ** 2)
    assert total == pytest.approx(1.0, abs=0.02)
