import json
import math

import numpy as np
import pytest

from afcdepth import echoanalysis
from afcdepth.echoanalysis import (DETECTOR_FWHM_DEFAULT, TimeHistogram,
                                   contrast_sweep, deconvolution_factor,
                                   echo_contrast, estimate_background, fit_echo)
from afcdepth.echosim import (CombSpec, PhotonSpectrum, absorb,
                              emission_probability, simulated_contrast)
from afcdepth.errors import ConfigError, DeconvolutionError, LowSignalError
from afcdepth.fixtures import (BACKGROUND_RATE, BIN_WIDTH, headline_fixture,
                               sweep_fixtures, synthetic_histogram,
                               write_fixture_files)

LOG2_WIDTH = 2.0 * math.sqrt(2.0 * math.log(2.0))


def flat_histogram(rate=0.9, n_bins=2000, herald=150, storage=40e-9, seed=0):
    counts = np.random.default_rng(seed).poisson(rate, size=n_bins)
    return TimeHistogram(bin_width=80e-12, counts=counts, herald_index=herald,
                         storage_time=storage)


def gaussian_histogram(amplitude, fwhm, background=0.9, bin_width=40e-12,
                       storage=68e-9, herald=200, seed=1, floor=0.0):
    t_echo = storage
    herald_time = (herald + 0.5) * bin_width
    n_bins = herald + int(1.8 * storage / bin_width)
    t = (np.arange(n_bins) + 0.5) * bin_width
    t0 = herald_time + t_echo
    expected = np.full(n_bins, background)
    expected[t >= herald_time] += floor
    expected += amplitude * np.exp(-4 * math.log(2) * (t - t0) ** 2 / fwhm**2)
    counts = np.random.default_rng(seed).poisson(expected)
    return TimeHistogram(bin_width=bin_width, counts=counts, herald_index=herald,
                         storage_time=storage)


class TestBackgroundEstimate:
    def test_flat_level_recovered(self):
        hist = flat_histogram(rate=0.9, seed=4)
        est = estimate_background(hist)
        assert est.rate == pytest.approx(0.9, abs=4 * est.stderr)
        assert est.stderr == pytest.approx(math.sqrt(est.rate / est.n_bins))

    def test_all_zero(self):
        hist = TimeHistogram(bin_width=80e-12, counts=np.zeros(1500, dtype=int),
                             herald_index=200, storage_time=40e-9)
        est = estimate_background(hist)
        assert est.rate == 0.0

    def test_echo_outside_window_leaves_estimate_alone(self):
        quiet = flat_histogram(seed=9)
        with_echo = flat_histogram(seed=9)
        bumped = with_echo.counts.copy()
        bumped[900:905] += 300  # echo region, far past the herald
        with_echo = TimeHistogram(bin_width=80e-12, counts=bumped,
                                  herald_index=150, storage_time=40e-9)
        assert estimate_background(with_echo).rate == estimate_background(quiet).rate

    def test_needs_fifty_bins(self):
        hist = flat_histogram(herald=49)
        with pytest.raises(ValueError):
            estimate_background(hist)


class TestFitEcho:
    def test_generate_and_recover(self):
        hist = gaussian_histogram(amplitude=100.0, fwhm=400e-12, seed=6)
        fit = fit_echo(hist)
        assert fit.amplitude == pytest.approx(100.0, rel=0.05)
        assert fit.fwhm == pytest.approx(400e-12, rel=0.05)

    def test_flat_noise_raises_low_signal(self):
        with pytest.raises(LowSignalError):
            fit_echo(flat_histogram(seed=2))

    def test_inset_scale_histogram(self):
        # the 68 ns storage, 80 ps bin regime: raw contrast lands in the
        # 70-class range engineered into the N = 408 fixture
        hist, truth = synthetic_histogram(408, 70.6, 118.0, seed=5, scale=8)
        fit = fit_echo(hist)
        r_raw, sigma = echo_contrast(fit)
        assert hist.storage_time == pytest.approx(68e-9)
        assert r_raw == pytest.approx(70.6, abs=4.0)


class TestDeconvolutionFactor:
    def test_sqrt_two_point(self):
        d = DETECTOR_FWHM_DEFAULT
        assert deconvolution_factor(math.sqrt(2) * d, d) == pytest.approx(
            math.sqrt(2), rel=1e-12)

    def test_wide_echo_limit(self):
        assert deconvolution_factor(100e-9, 354e-12) == pytest.approx(1.0, abs=1e-4)

    def test_narrow_echo_rejected(self):
        with pytest.raises(DeconvolutionError):
            deconvolution_factor(300e-12, 354e-12)
        with pytest.raises(DeconvolutionError):
            deconvolution_factor(354e-12, 354e-12)

    def test_monotone_in_echo_width(self):
        d = 354e-12
        widths = np.linspace(1.2, 5.0, 20) * d
        factors = [deconvolution_factor(w, d) for w in widths]
        assert all(b < a for a, b in zip(factors, factors[1:]))
        assert all(f > 1 for f in factors)


class TestEchoContrast:
    def test_corrections_each_increase_contrast(self):
        hist, _ = headline_fixture(seed=11, scale=1)
        fit = fit_echo(hist)
        r_raw, _ = echo_contrast(fit)
        r_sub, _ = echo_contrast(fit, subtract_background=True)
        r_dec, _ = echo_contrast(fit, subtract_background=True, deconvolve=True)
        assert r_raw < r_sub < r_dec

    def test_applied_factor_matches_formula(self):
        hist, _ = headline_fixture(seed=11, scale=1)
        fit = fit_echo(hist)
        r_sub, _ = echo_contrast(fit, subtract_background=True)
        r_dec, _ = echo_contrast(fit, subtract_background=True, deconvolve=True)
        assert r_dec / r_sub == pytest.approx(
            deconvolution_factor(fit.fwhm, DETECTOR_FWHM_DEFAULT), rel=1e-12)

    def test_headline_regression_triple(self):
        # frozen fixture engineered to land on the reference corrected chain
        hist, truth = headline_fixture(seed=11, scale=32)
        fit = fit_echo(hist)
        r_raw, _ = echo_contrast(fit)
        r_sub, _ = echo_contrast(fit, subtract_background=True)
        r_dec, _ = echo_contrast(fit, subtract_background=True, deconvolve=True)
        assert r_raw == pytest.approx(truth["r_raw"], abs=3.0)
        assert r_sub == pytest.approx(127.6, abs=4.3)
        assert r_dec == pytest.approx(256.7, abs=8.7)

    def test_factor_precision_on_low_noise_fixture(self):
        hist, truth = headline_fixture(scale=200, poisson=False)
        fit = fit_echo(hist)
        factor = deconvolution_factor(fit.fwhm, DETECTOR_FWHM_DEFAULT)
        assert factor == pytest.approx(truth["deconvolution_factor"], rel=0.01)

    def test_jitter_forward_then_deconvolve_recovers_amplitude(self):
        det = DETECTOR_FWHM_DEFAULT
        for width_ratio in (1.5, 2.0, 3.0):
            true_fwhm = width_ratio * det
            observed = math.sqrt(true_fwhm**2 + det**2)
            true_amp = 4000.0
            # jitter conserves area, so the observed amplitude shrinks
            obs_amp = true_amp * true_fwhm / observed
            hist = gaussian_histogram(amplitude=obs_amp, fwhm=observed,
                                      bin_width=80e-12, seed=3, background=20.0)
            fit = fit_echo(hist)
            recovered = fit.amplitude * deconvolution_factor(fit.fwhm, det)
            assert recovered == pytest.approx(true_amp, rel=0.03), width_ratio

    def test_noiseless_chain_matches_engineered_values(self):
        hist, truth = headline_fixture(scale=200, poisson=False)
        fit = fit_echo(hist)
        r_raw, _ = echo_contrast(fit)
        r_sub, _ = echo_contrast(fit, subtract_background=True)
        r_dec, _ = echo_contrast(fit, subtract_background=True, deconvolve=True)
        assert r_raw == pytest.approx(truth["r_raw"], rel=0.01)
        assert r_sub == pytest.approx(truth["r_subtracted"], rel=0.01)
        assert r_dec == pytest.approx(truth["r_deconvolved"], rel=0.01)


class TestContrastSweep:
    def test_single_row_matches_direct_chain(self):
        hist, _ = headline_fixture(seed=11, scale=8)
        rows = contrast_sweep([("solo", hist)])
        fit = fit_echo(hist)
        assert (rows[0]["r_raw"], rows[0]["sigma_raw"]) == echo_contrast(fit)
        assert (rows[0]["r_subtracted"], rows[0]["sigma_subtracted"]) == echo_contrast(
            fit, subtract_background=True)
        assert (rows[0]["r_deconvolved"], rows[0]["sigma_deconvolved"]) == echo_contrast(
            fit, subtract_background=True, deconvolve=True)
        assert rows[0]["fwhm"] == fit.fwhm

    def test_errors_reported_per_row(self):
        good, _ = headline_fixture(seed=11, scale=8)
        rows = contrast_sweep([("good", good), ("flat", flat_histogram(seed=2))])
        assert "error" not in rows[0]
        assert rows[1]["label"] == "flat"
        assert "LowSignalError" in rows[1]["error"]

    def test_programming_errors_propagate(self, monkeypatch):
        # only the errors the CLI maps to an exit status become row errors
        def broken_fit(hist):
            raise TypeError("broken fit")

        monkeypatch.setattr(echoanalysis, "fit_echo", broken_fit)
        good, _ = headline_fixture(seed=11, scale=8)
        with pytest.raises(TypeError, match="broken fit"):
            contrast_sweep([("good", good)])

    def test_saturation_shape_of_bundled_sweep(self):
        items = [(label, hist) for label, hist, _ in sweep_fixtures(seed=11)]
        rows = contrast_sweep(items)
        raws = [row["r_raw"] for row in rows]
        labels = [int(row["label"]) for row in rows]
        assert labels[int(np.argmax(raws))] == 408
        # saturation: past the peak the raw value stays within 10%
        peak = max(raws)
        assert all(r > 0.85 * peak for r in raws[labels.index(408):])
        subs = [row["r_subtracted"] for row in rows]
        assert subs == sorted(subs)


class TestEndToEndAgainstSimulator:
    def _histogram_from_simulator(self, amps, comb, seed, mean_counts=3.0):
        det = DETECTOR_FWHM_DEFAULT
        bin_w = 80e-12
        pre = 150
        herald_time = (pre + 0.5) * bin_w
        t_e = comb.echo_time
        n_bins = pre + int(1.7 * t_e / bin_w)
        t = (np.arange(n_bins) + 0.5) * bin_w
        rel = t - herald_time - 2.5 * det  # detector causality margin
        p = np.zeros(n_bins)
        mask = rel > 0
        p[mask] = emission_probability(amps, comb, rel[mask])
        sigma = det / LOG2_WIDTH
        kt = np.arange(-25, 26) * bin_w
        kernel = np.exp(-(kt**2) / (2 * sigma**2))
        kernel /= kernel.sum()
        p_obs = np.convolve(p, kernel, mode="same")
        window = (rel >= 0.5 * t_e) & (rel < 1.5 * t_e)
        expected = p_obs * (mean_counts / p_obs[window].mean()) + BACKGROUND_RATE
        counts = np.random.default_rng(seed).poisson(expected)
        return TimeHistogram(bin_width=bin_w, counts=counts, herald_index=pre,
                             storage_time=t_e)

    @pytest.mark.parametrize("seed", [1, 5, 8])
    def test_recovered_contrast_within_two_sigma(self, seed):
        comb = CombSpec.from_bandwidth(30, 0.75e9, finesse=5.0)
        photon = PhotonSpectrum("lorentzian", fwhm=0.45e9)
        amps = absorb(comb, photon)
        truth = simulated_contrast(amps, comb)
        hist = self._histogram_from_simulator(amps, comb, seed)
        fit = fit_echo(hist)
        recovered, sigma = echo_contrast(fit, subtract_background=True,
                                         deconvolve=True,
                                         detector_fwhm=DETECTOR_FWHM_DEFAULT)
        assert abs(recovered - truth) <= 2.0 * sigma


class TestHistogramIO:
    def test_csv_sidecar_roundtrip(self, tmp_path):
        manifest = write_fixture_files(tmp_path, seed=11)
        entry = manifest["histograms"][0]
        hist, detector = TimeHistogram.from_csv(tmp_path / entry["csv"],
                                                tmp_path / entry["sidecar"])
        assert detector == DETECTOR_FWHM_DEFAULT
        assert hist.bin_width == BIN_WIDTH
        original = sweep_fixtures(seed=11)[0][1]
        assert np.array_equal(hist.counts, original.counts)
        assert hist.herald_index == original.herald_index

    def test_csv_rejects_mismatched_sidecar(self, tmp_path):
        manifest = write_fixture_files(tmp_path, seed=11)
        entry = manifest["histograms"][0]
        sidecar = tmp_path / entry["sidecar"]
        meta = json.loads(sidecar.read_text())
        meta["bin_width"] *= 1.001
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ConfigError, match="bin_width"):
            TimeHistogram.from_csv(tmp_path / entry["csv"], sidecar)

    def test_csv_needs_two_columns(self, tmp_path):
        manifest = write_fixture_files(tmp_path, seed=11)
        entry = manifest["histograms"][0]
        csv = tmp_path / entry["csv"]
        counts = [line.split(",")[1] for line in csv.read_text().splitlines()[1:]]
        csv.write_text("\n".join(counts) + "\n")
        with pytest.raises(ConfigError, match="need 2 columns"):
            TimeHistogram.from_csv(csv, tmp_path / entry["sidecar"])

    def test_histogram_invariants(self):
        with pytest.raises(ValueError):
            TimeHistogram(bin_width=80e-12, counts=np.ones(100, dtype=int),
                          herald_index=20, storage_time=4e-10)  # < 10 bins
        with pytest.raises(ValueError):
            TimeHistogram(bin_width=80e-12, counts=-np.ones(100, dtype=int),
                          herald_index=20, storage_time=40e-9)
