import math

import numpy as np
import pytest

from _oracles import dense_simulated_contrast, mc_emission_probability, w_state
from afcdepth import echosim
from afcdepth.echosim import (CombSpec, PhotonSpectrum, absorb,
                              dephasing_envelope, emission_probability,
                              emission_trace, load_comb_trace,
                              simulated_contrast, sweep_contrast_vs_teeth,
                              tooth_frequencies)

FLAT = PhotonSpectrum("flat")


def ideal_comb(n_teeth, bandwidth=6e9):
    return CombSpec.from_bandwidth(n_teeth, bandwidth)


class TestCombSpec:
    def test_tooth_count_consistency_enforced(self):
        delta = 2 * math.pi * 6e9 / 30
        with pytest.raises(ValueError):
            CombSpec(n_teeth=29, delta=delta, gamma=0.0, d1=1.0, d0=0.0,
                     bandwidth=6e9)

    def test_unresolved_teeth_rejected(self):
        with pytest.raises(ValueError):
            CombSpec.from_bandwidth(10, 6e9, finesse=0.5)

    def test_echo_time_from_spacing(self):
        comb = ideal_comb(30)  # 0.2 GHz spacing
        assert comb.echo_time == pytest.approx(5e-9, rel=1e-12)
        assert comb.tooth_spacing_hz == pytest.approx(0.2e9)


class TestAbsorb:
    def test_flat_photon_gives_symmetric_state(self):
        comb = ideal_comb(12)
        amps = absorb(comb, FLAT)
        assert np.allclose(amps.c, w_state(12).c)

    def test_lorentzian_amplitudes_fall_off_from_center(self):
        comb = ideal_comb(31)
        photon = PhotonSpectrum("lorentzian", fwhm=6e9)
        amps = np.abs(absorb(comb, photon).c)
        mid = 15
        assert np.all(np.diff(amps[mid:]) < 0)
        assert np.all(np.diff(amps[:mid + 1]) > 0)

    def test_broad_photon_limit_is_uniform(self):
        comb = ideal_comb(31)
        photon = PhotonSpectrum("lorentzian", fwhm=600e9)  # 100x the comb
        amps = np.abs(absorb(comb, photon).c)
        assert amps.max() / amps.min() < 1.01

    def test_zero_depth_comb_absorbs_nothing(self):
        comb = CombSpec.from_bandwidth(12, 6e9, d1=0.0)
        with pytest.raises(ValueError, match="comb absorbs nothing"):
            absorb(comb, FLAT)


class TestEmissionTrace:
    def test_first_echo_at_five_nanoseconds(self):
        comb = ideal_comb(30)  # 6 GHz bandwidth, 0.2 GHz spacing
        amps = absorb(comb, FLAT)
        grid = np.linspace(0.1e-9, 6e-9, 6000)
        trace = emission_trace(amps, comb, grid)
        assert trace.t_echo == pytest.approx(5e-9)
        assert grid[np.argmax(trace.p)] == pytest.approx(5e-9, abs=2e-12)

    def test_single_tooth_is_flat_up_to_envelope(self):
        comb = CombSpec.from_bandwidth(1, 0.2e9, finesse=10.0)
        amps = w_state(1)
        t = np.linspace(0, 5e-9, 50)
        p = emission_probability(amps, comb, t)
        envelope = dephasing_envelope(comb, t) ** 2
        assert np.allclose(p, envelope, rtol=1e-12)

    def test_periodic_without_dephasing(self):
        comb = ideal_comb(9)
        amps = absorb(comb, PhotonSpectrum("lorentzian", fwhm=6e9))
        t = np.linspace(0, comb.echo_time, 257)
        assert np.allclose(emission_probability(amps, comb, t),
                           emission_probability(amps, comb, t + comb.echo_time),
                           rtol=1e-9, atol=1e-15)

    def test_period_average_is_total_excitation_weight(self):
        # cross terms integrate out, leaving sum |c_j|^2 (= 1 after absorb)
        comb = ideal_comb(9)
        amps = absorb(comb, PhotonSpectrum("lorentzian", fwhm=6e9))
        t = np.linspace(0.5 * comb.echo_time, 1.5 * comb.echo_time, 10001)
        mean = np.trapezoid(emission_probability(amps, comb, t), t) / comb.echo_time
        assert mean == pytest.approx(1.0, rel=1e-9)

    def test_period_average_with_envelope(self):
        comb = CombSpec.from_bandwidth(9, 6e9, finesse=20.0)
        amps = absorb(comb, FLAT)
        t = np.linspace(0.5 * comb.echo_time, 1.5 * comb.echo_time, 10001)
        mean = np.trapezoid(emission_probability(amps, comb, t), t) / comb.echo_time
        env_sq = dephasing_envelope(comb, t) ** 2
        expected = np.trapezoid(env_sq, t) / comb.echo_time
        assert mean == pytest.approx(expected, rel=1e-2)

    def test_unsorted_grid_rejected(self):
        comb = ideal_comb(4)
        with pytest.raises(ValueError):
            emission_trace(w_state(4), comb, [1e-9, 0.5e-9])

    @pytest.mark.parametrize("shape", ["gaussian", "lorentzian", "square"])
    def test_envelope_matches_detuning_sampling(self, shape):
        comb = CombSpec.from_bandwidth(8, 1.6e9, finesse=4.0, tooth_shape=shape)
        amps = absorb(comb, PhotonSpectrum("lorentzian", fwhm=2e9))
        times = np.array([0.31, 0.73, 1.0]) * comb.echo_time
        analytic = emission_probability(amps, comb, times)
        sampled = mc_emission_probability(amps, comb, times, n_samples=200_000,
                                          seed=3)
        # Monte-Carlo envelope error ~ 1/sqrt(samples); Lorentzian tails are heavy
        rtol = 0.08 if shape == "lorentzian" else 0.03
        assert np.allclose(sampled, analytic, rtol=rtol, atol=1e-4 * analytic.max())


class TestSimulatedContrast:
    def test_ideal_nine_tooth_comb(self):
        comb = ideal_comb(9)
        assert simulated_contrast(absorb(comb, FLAT), comb) == pytest.approx(9.0, abs=0.01)

    def test_missing_tooth_reduces_count_by_one(self):
        comb = ideal_comb(9)
        c = np.full(9, 1.0 / 3.0, dtype=complex)
        c[4] = 0.0
        assert simulated_contrast(c, comb) == pytest.approx(8.0, abs=0.01)

    @pytest.mark.parametrize("n", [2, 9, 30, 100])
    def test_symmetric_state_contrast_is_tooth_count(self, n):
        comb = ideal_comb(n)
        assert simulated_contrast(w_state(n), comb) == pytest.approx(n, rel=1e-3)

    def test_quadrature_refinement_stable(self):
        comb = CombSpec.from_bandwidth(30, 6e9, finesse=5.0)
        amps = absorb(comb, PhotonSpectrum("lorentzian", fwhm=6e9))
        r1 = simulated_contrast(amps, comb)  # 10_000 samples per period
        r2 = dense_simulated_contrast(amps, comb, 20_000)
        assert abs(r2 - r1) / r1 < 1e-3

    @pytest.mark.parametrize("shape", ["gaussian", "lorentzian", "square"])
    @pytest.mark.parametrize("finesse", [math.inf, 10.0, 3.0])
    @pytest.mark.parametrize("samples", [10_000, 100])  # 100 < 2N: the rule aliases
    def test_matches_dense_trapezoid(self, shape, finesse, samples, monkeypatch):
        monkeypatch.setattr(echosim, "DEFAULT_SAMPLES_PER_PERIOD", samples)
        comb = CombSpec.from_bandwidth(94, 6e9, finesse=finesse, tooth_shape=shape)
        lorentzian = absorb(comb, PhotonSpectrum("lorentzian", fwhm=3e9)).c
        phases = np.exp(2j * np.pi * np.random.default_rng(5).random(comb.n_teeth))
        for amps in (absorb(comb, FLAT), lorentzian, lorentzian * phases):
            assert simulated_contrast(amps, comb) == pytest.approx(
                dense_simulated_contrast(amps, comb, samples), rel=1e-12, abs=0.0)

    def test_dephasing_only_hurts(self):
        # the envelope cancels to first order in the peak/average ratio for
        # smooth combs, so monotonicity holds up to a sub-0.1% ripple
        photon = PhotonSpectrum("lorentzian", fwhm=6e9)
        values = []
        for finesse in [math.inf, 20.0, 10.0, 5.0, 2.0]:
            comb = CombSpec.from_bandwidth(30, 6e9, finesse=finesse)
            values.append(simulated_contrast(absorb(comb, photon), comb))
        assert all(b <= a * (1.0 + 1e-3) for a, b in zip(values, values[1:]))
        assert values[-1] < values[0]

    def test_narrow_comb_closer_to_ideal(self):
        # fixed 6 GHz photon: shrinking the comb bandwidth raises R/N
        photon = PhotonSpectrum("lorentzian", fwhm=6e9)
        ratios = []
        for bw in [6e9, 3e9, 1e9, 0.5e9]:
            comb = ideal_comb(30, bw)
            ratios.append(simulated_contrast(absorb(comb, photon), comb) / 30)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] > 0.99


class TestSweep:
    def test_ideal_combs_give_slope_one(self):
        combs = [ideal_comb(n) for n in (4, 9, 16)]
        rows = sweep_contrast_vs_teeth(combs, FLAT)
        for n, contrast in rows:
            assert contrast == pytest.approx(n, rel=1e-6)

    def test_sorted_by_tooth_count(self):
        combs = [ideal_comb(n) for n in (16, 4, 9)]
        rows = sweep_contrast_vs_teeth(combs, FLAT)
        assert [n for n, _ in rows] == [4, 9, 16]

    def test_single_row_matches_direct_call(self):
        comb = CombSpec.from_bandwidth(12, 6e9, finesse=8.0)
        photon = PhotonSpectrum("lorentzian", fwhm=6e9)
        rows = sweep_contrast_vs_teeth([comb], photon)
        direct = simulated_contrast(absorb(comb, photon), comb)
        assert rows == [(12, direct)]

    def test_growth_then_saturation_with_fixed_photon(self):
        # fixed photon, spacing, and tooth width: adding teeth widens the comb
        # past the photon, so the contrast gained per tooth fades away
        photon = PhotonSpectrum("lorentzian", fwhm=6e9)
        spacing = 0.4e9
        ns = [4, 8, 16, 32, 64, 128]
        rows = []
        for n in ns:
            comb = CombSpec(n_teeth=n, delta=2 * math.pi * spacing, gamma=0.04e9,
                            d1=1.0, d0=0.0, bandwidth=n * spacing)
            rows.append(simulated_contrast(absorb(comb, photon), comb))
        assert all(b > a for a, b in zip(rows, rows[1:]))
        gains = np.diff(rows) / np.diff(ns)
        assert gains[0] > 0.95
        assert gains[-1] < 0.55
        assert all(b < a + 1e-9 for a, b in zip(gains, gains[1:]))



class TestCombTraceLoader:
    def make_trace(self, tmp_path, n_teeth=12, bandwidth=6e9, finesse=6.0,
                   d1=2.0, d0=0.3):
        spacing = bandwidth / n_teeth
        gamma = spacing / finesse
        centers = (np.arange(n_teeth) - (n_teeth - 1) / 2) * spacing
        freq = np.linspace(centers[0] - spacing, centers[-1] + spacing, 8000)
        od = np.full_like(freq, d0)
        for f0 in centers:
            od = od + d1 * np.exp(-4 * math.log(2) * (freq - f0) ** 2 / gamma**2)
        path = tmp_path / "comb_trace.txt"
        np.savetxt(path, np.column_stack([freq, od]))
        return path, spacing, gamma

    def test_roundtrip(self, tmp_path):
        path, spacing, gamma = self.make_trace(tmp_path)
        comb = load_comb_trace(path)
        assert comb.n_teeth == 12
        assert comb.tooth_spacing_hz == pytest.approx(spacing, rel=1e-3)
        assert comb.gamma == pytest.approx(gamma, rel=0.05)
        assert comb.d0 == pytest.approx(0.3, abs=0.02)
        assert comb.d1 == pytest.approx(2.0, rel=0.02)

    def test_flat_trace_rejected(self, tmp_path):
        path = tmp_path / "flat.txt"
        np.savetxt(path, np.column_stack([np.linspace(0, 1e9, 100), np.ones(100)]))
        with pytest.raises(ValueError):
            load_comb_trace(path)


def test_tooth_frequencies_centered():
    comb = ideal_comb(5, 1e9)
    freqs = tooth_frequencies(comb)
    assert freqs.sum() == pytest.approx(0.0, abs=1e-3)
    assert np.allclose(np.diff(freqs), 0.2e9)
