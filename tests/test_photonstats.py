import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (exact_thermal_probabilities, monte_carlo_excitations,
                      poisson_weight, series_excitation_probabilities,
                      thermal_weight)
from afcdepth.errors import ConfigError
from afcdepth.photonstats import (ChannelModel, estimate_mu_from_g2,
                                  excitation_probabilities, load_channel_config,
                                  propagate_uncertainty, write_efficiency)

REFERENCE_CHANNEL = ChannelModel(mu=1.1e-3, eta_a=0.11, eta_b=0.0106,
                             eta_w=0.33, eta_t=0.36)


class TestThermalWeight:
    def test_vacuum_weight_small_mu(self):
        assert thermal_weight(0, 1.1e-3) == pytest.approx(1 / 1.0011, rel=1e-12)

    def test_vacuum_limit(self):
        assert thermal_weight(0, 1e-12) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 40), st.floats(1e-6, 0.5))
    def test_geometric_ratio(self, n, mu):
        ratio = thermal_weight(n + 1, mu) / thermal_weight(n, mu)
        assert ratio == pytest.approx(mu / (mu + 1), rel=1e-9)

    def test_poisson_alternative_normalised(self):
        mu = 0.3
        total = sum(poisson_weight(n, mu) for n in range(60))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestExcitationProbabilities:
    def test_reference_operating_point(self):
        probs = excitation_probabilities(REFERENCE_CHANNEL)
        assert probs[1] == pytest.approx(3.50e-3, rel=0.01)
        assert probs[2] == pytest.approx(2.55e-8, rel=0.10)

    def test_nothing_absorbed_when_write_efficiency_zero(self):
        ch = ChannelModel(mu=1.1e-3, eta_a=0.11, eta_b=0.0106, eta_w=0.0,
                          eta_t=0.36)
        probs = excitation_probabilities(ch)
        assert probs[0] == pytest.approx(1.0, abs=1e-12)
        assert all(probs[r] == 0.0 for r in range(1, probs.r_max + 1))

    def test_completeness(self):
        probs = excitation_probabilities(REFERENCE_CHANNEL, r_max=4)
        total = probs.p.sum() + probs.truncation_error
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_monotone_in_absorption_chain(self):
        base = dict(mu=1e-3, eta_a=0.2, eta_b=0.05, eta_w=0.3, eta_t=0.4)
        for key in ("eta_b", "eta_w"):
            values = []
            for val in np.linspace(0.05, 0.95, 7):
                params = dict(base)
                params[key] = val
                values.append(excitation_probabilities(ChannelModel(**params))[1])
            assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_single_excitation_linear_in_mu(self):
        # the slope of P1(mu) is stable to 0.1% across the small-mu decade
        def slope(lo, hi):
            mus = np.linspace(lo, hi, 9)
            p1 = [excitation_probabilities(
                ChannelModel(mu=m, eta_a=0.11, eta_b=0.0106, eta_w=0.33,
                             eta_t=0.36))[1] for m in mus]
            return np.polyfit(mus, p1, 1)[0]

        s_lo = slope(1e-5, 5e-5)
        s_hi = slope(5e-5, 1e-4)
        assert s_hi == pytest.approx(s_lo, rel=1e-3)

    def test_pair_ratio_bounded_by_small_mu_limit(self):
        # P2/P1^2 grows like mu * (2 - eta_a); the mu-normalised ratio is
        # largest in the mu -> 0 limit of the thermal source
        def scaled_ratio(mu):
            probs = excitation_probabilities(
                ChannelModel(mu=mu, eta_a=0.11, eta_b=0.0106, eta_w=0.33,
                             eta_t=0.36))
            return probs[2] / probs[1] ** 2 / mu

        limit = scaled_ratio(1e-9)
        assert limit == pytest.approx(2.0 - 0.11, rel=0.01)
        values = [scaled_ratio(mu) for mu in (1e-4, 1e-3, 5e-3, 1e-2)]
        assert all(v <= limit * (1 + 1e-9) for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_poisson_model_gives_smaller_pairs(self):
        thermal = excitation_probabilities(REFERENCE_CHANNEL, stats_model="thermal")
        poisson = excitation_probabilities(REFERENCE_CHANNEL, stats_model="poisson")
        assert poisson[2] < thermal[2]
        assert poisson[1] == pytest.approx(thermal[1], rel=0.01)


class TestSeriesOracle:
    @pytest.mark.parametrize("stats_model", ["thermal", "poisson"])
    def test_closed_form_matches_pair_number_series(self, stats_model):
        rng = np.random.default_rng(18)
        for _ in range(200):
            ch = ChannelModel(mu=10 ** rng.uniform(-6, 0),
                              eta_a=10 ** rng.uniform(-4, 0),
                              eta_b=rng.uniform(0.01, 0.3),
                              eta_w=rng.uniform(0.05, 0.8),
                              eta_t=rng.uniform(0.1, 0.8))
            closed = excitation_probabilities(ch, stats_model=stats_model)
            series = series_excitation_probabilities(ch, stats_model=stats_model)
            assert np.allclose(closed.p[:3], series.p[:3], rtol=1e-12, atol=0), ch
            assert abs(closed.truncation_error - series.truncation_error) <= 1e-15, ch

    @pytest.mark.parametrize("stats_model", ["thermal", "poisson"])
    def test_herald_always_clicks(self, stats_model):
        ch = replace(REFERENCE_CHANNEL, eta_a=1.0)
        closed = excitation_probabilities(ch, stats_model=stats_model)
        series = series_excitation_probabilities(ch, stats_model=stats_model)
        assert np.allclose(closed.p[:3], series.p[:3], rtol=1e-12, atol=0)


class TestDegenerateChannels:
    @pytest.mark.parametrize("stats_model", ["thermal", "poisson"])
    def test_herald_never_clicks(self, stats_model):
        ch = replace(REFERENCE_CHANNEL, eta_a=0.0)
        with pytest.raises(ValueError, match="herald click has probability zero"):
            excitation_probabilities(ch, stats_model=stats_model)

    @pytest.mark.parametrize("stats_model", ["thermal", "poisson"])
    def test_every_photon_clicks_behind_the_comb(self, stats_model):
        ch = replace(REFERENCE_CHANNEL, eta_b=1.0, eta_w=0.0, eta_t=1.0)
        with pytest.raises(ValueError, match="no-click event .* probability zero"):
            excitation_probabilities(ch, stats_model=stats_model)

    def test_bright_source(self):
        ch = replace(REFERENCE_CHANNEL, mu=1e4)
        for stats_model in ("thermal", "poisson"):
            probs = excitation_probabilities(ch, stats_model=stats_model)
            assert np.all(np.isfinite(probs.p)) and np.all(probs.p >= 0)
            assert probs.p.sum() + probs.truncation_error == pytest.approx(1.0, abs=1e-12)
        TestMonteCarloOracle()._compare(ch, trials=200_000, seed=18)

    # at mu = 1e17, x = mu/(1 + mu) rounds to 1: written as differences,
    # 1 - x c (first channel) and 1 - x z (second) would cancel to zero
    @pytest.mark.parametrize("eta_b,eta_t", [(0.01, 0.0), (0.0, 0.5)],
                             ids=["one-minus-xc", "one-minus-xz"])
    def test_huge_mu_matches_exact_sums(self, eta_b, eta_t):
        ch = ChannelModel(mu=1e17, eta_a=0.1, eta_b=eta_b, eta_w=0.3, eta_t=eta_t)
        probs = excitation_probabilities(ch)
        assert np.all(np.isfinite(probs.p))
        for got, exact in zip(probs.p, exact_thermal_probabilities(ch)):
            assert got == pytest.approx(float(exact), rel=1e-12, abs=0.0)


class TestMonteCarloOracle:
    def _compare(self, ch, trials, seed):
        counts, accepted = monte_carlo_excitations(ch, trials, seed=seed)
        probs = excitation_probabilities(ch)
        for r in range(3):
            expected = probs[r] * accepted
            # Poisson 3-sigma band, widened by +3 counts for tiny expectations
            slack = 3.0 * math.sqrt(expected) + 3.0
            assert abs(counts[r] - expected) <= slack, (r, counts[r], expected)

    def test_reference_operating_point(self):
        self._compare(REFERENCE_CHANNEL, trials=2_000_000, seed=7)

    def test_random_channels(self):
        rng = np.random.default_rng(5)
        for trial in range(3):
            ch = ChannelModel(mu=10 ** rng.uniform(-4, -2),
                              eta_a=rng.uniform(0.05, 0.5),
                              eta_b=rng.uniform(0.01, 0.3),
                              eta_w=rng.uniform(0.05, 0.8),
                              eta_t=rng.uniform(0.1, 0.8))
            self._compare(ch, trials=1_000_000, seed=100 + trial)


class TestEstimators:
    def test_mu_from_cross_correlation(self):
        assert estimate_mu_from_g2(884.0) == pytest.approx(1.13e-3, rel=2e-3)

    def test_reciprocal(self):
        assert estimate_mu_from_g2(1000.0) == pytest.approx(1e-3, rel=1e-12)

    def test_low_correlation_guard(self):
        with pytest.raises(ValueError):
            estimate_mu_from_g2(5.0)

    def test_write_efficiency_inversion(self):
        d1_over_f = -math.log(1 - 0.33)
        assert write_efficiency(d1_over_f, 1.0) == pytest.approx(0.33, rel=1e-12)
        assert d1_over_f == pytest.approx(0.4005, abs=2e-4)

    def test_write_efficiency_zero_depth(self):
        assert write_efficiency(0.0, 3.0) == 0.0

    def test_write_efficiency_narrowband_point(self):
        d1_over_f = -math.log(1 - 0.009)
        assert write_efficiency(2.0 * d1_over_f, 2.0) == pytest.approx(0.009)

class TestUncertainty:
    def test_first_order_propagation(self):
        finesse = 2.0
        d1 = -finesse * math.log(1 - REFERENCE_CHANNEL.eta_w)
        base, sigmas = propagate_uncertainty(REFERENCE_CHANNEL, d1=d1, finesse=finesse,
                                             sigma_mu=1e-4, sigma_d1=0.1 * d1)
        probs = excitation_probabilities(REFERENCE_CHANNEL, r_max=2)
        assert np.allclose(base, probs.p)
        assert sigmas[1] > 0 and sigmas[2] > 0
        # pair probability scales as mu^2-ish, so its error is mu-dominated
        assert sigmas[2] / base[2] > 0.5 * (1e-4 / REFERENCE_CHANNEL.mu)


class TestConfigIO:
    def test_channel_config_roundtrip(self, tmp_path):
        path = tmp_path / "channel.conf"
        path.write_text(
            "# calibration\n"
            "mu = 1.1e-3\n"
            "eta_a = 0.11\n"
            "eta_b_star = 0.053\n"
            "eta_ci = 0.2\n"
            "eta_w = 0.33\n"
            "eta_t = 0.36\n"
            "stats_model = thermal\n")
        channel, stats_model = load_channel_config(path)
        assert channel.eta_b == pytest.approx(0.0106)
        assert channel.mu == 1.1e-3
        assert stats_model == "thermal"

    def test_direct_eta_b(self, tmp_path):
        path = tmp_path / "channel.conf"
        path.write_text("mu = 1e-3\neta_a = 0.1\neta_b = 0.01\n"
                        "eta_w = 0.3\neta_t = 0.4\n")
        channel, _ = load_channel_config(path)
        assert channel.eta_b == 0.01

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "channel.conf"
        path.write_text("mu = 1e-3\nbogus = 1\n")
        with pytest.raises(ConfigError):
            load_channel_config(path)

class TestChannelModelValidation:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ChannelModel(mu=1e-3, eta_a=1.2, eta_b=0.1, eta_w=0.1, eta_t=0.1)
        with pytest.raises(ValueError):
            ChannelModel(mu=0.0, eta_a=0.1, eta_b=0.1, eta_w=0.1, eta_t=0.1)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_rejects_non_finite_mu(self, mu):
        with pytest.raises(ValueError):
            ChannelModel(mu=mu, eta_a=0.1, eta_b=0.1, eta_w=0.1, eta_t=0.1)

