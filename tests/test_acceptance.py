"""Acceptance suite: each test prints one PASS/FAIL line for its criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import json
import math
import time

import numpy as np

from _oracles import (map_in_workers, monte_carlo_excitations, sector_indices,
                      splus_sminus_matrix)
from afcdepth.cli import main
from afcdepth.depthbound import (BoundProblem, bound_curve, certify_depth,
                                 linear_bound, max_contrast)
from afcdepth.echoanalysis import (DETECTOR_FWHM_DEFAULT, deconvolution_factor,
                                   echo_contrast, fit_echo)
from afcdepth.echosim import CombSpec, PhotonSpectrum, absorb, simulated_contrast
from afcdepth.fixtures import headline_fixture, sweep_fixtures, write_fixture_files
from afcdepth.photonstats import ChannelModel, excitation_probabilities
from afcdepth.spectroscopy import (TM_LINBO3, atoms_per_tooth_from_absorption,
                                   atoms_per_tooth_from_single_ion)

HEADLINE = dict(n_teeth=564, p1=3.5e-3, p2=2.6e-8)
REFERENCE_CHANNEL = ChannelModel(mu=1.1e-3, eta_a=0.11, eta_b=0.0106,
                             eta_w=0.33, eta_t=0.36)
INTERCEPT = math.sqrt(2 * HEADLINE["p2"]) * HEADLINE["n_teeth"] / HEADLINE["p1"]


def report(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_headline_depth_certification():
    start = time.perf_counter()
    result = certify_depth(256.7, 8.7, **HEADLINE)
    elapsed = time.perf_counter() - start
    ok = 218 <= result.m_lower <= 240 and elapsed < 300.0
    report("1 depth certification",
           ok,
           f"m_lower={result.m_lower} interval={result.m_interval} "
           f"({elapsed:.1f}s)")


def test_criterion_2_linear_bound_consistency():
    value = linear_bound(256.7, **{k: HEADLINE[k] for k in ("n_teeth", "p1", "p2")})
    ok = abs(value - 219.96) <= 0.01
    excesses = {}
    for depth in (50, 100, 229, 400):
        res = max_contrast(BoundProblem(HEADLINE["n_teeth"], depth, HEADLINE["p1"],
                                        HEADLINE["p2"]))
        excesses[depth] = res.value - (depth + INTERCEPT)
        ok = ok and excesses[depth] < 0.10 * INTERCEPT
    report("2 linear bound",
           ok,
           f"linear={value:.3f}, excess over prediction="
           + ", ".join(f"M{m}:{e:+.2f}" for m, e in excesses.items()))


def test_criterion_3_bound_curve_shape_and_ordering():
    depths = [1] + list(range(25, 501, 25))
    rows = bound_curve(**HEADLINE, depths=depths)
    values = np.array([v for _, v in rows])
    ms = np.array([m for m, _ in rows], dtype=float)
    monotone = bool(np.all(np.diff(values) >= -1e-9))
    slope, intercept = np.polyfit(ms, values, 1)
    residuals = values - (slope * ms + intercept)
    affine_dev = float(np.max(np.abs(residuals)) / (values.max() - values.min()))
    curves = [np.array([v for _, v in bound_curve(564, 3.5e-3, p2,
                                                  depths=depths[::4])])
              for p2 in (0.0, 2.6e-9, 2.6e-8, 2e-7)]
    ordered = all(np.all(hi >= lo - 1e-12)
                  for lo, hi in zip(curves, curves[1:]))
    ok = monotone and affine_dev < 0.02 and ordered
    report("3 bound curve",
           ok,
           f"monotone={monotone}, affine dev={affine_dev:.4f} of span "
           f"(slope {slope:.3f}), pair-budget ordering={ordered}")


def _sample_channel(channel, seed):
    return monte_carlo_excitations(channel, 10_000_000, seed=seed)


def test_criterion_4_photon_statistics():
    t0 = time.perf_counter()
    probs = excitation_probabilities(REFERENCE_CHANNEL)
    analytic_time = time.perf_counter() - t0
    ok = (abs(probs[1] - 3.50e-3) / 3.50e-3 < 0.02
          and abs(probs[2] - 2.55e-8) / 2.55e-8 < 0.10
          and analytic_time < 1.0)

    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    channels, seeds = [], []
    for _ in range(20):
        channels.append(ChannelModel(mu=10 ** rng.uniform(-4, -2),
                                     eta_a=rng.uniform(0.05, 0.5),
                                     eta_b=rng.uniform(0.01, 0.3),
                                     eta_w=rng.uniform(0.05, 0.8),
                                     eta_t=rng.uniform(0.1, 0.8)))
        seeds.append(int(rng.integers(2**31)))
    samples = map_in_workers(_sample_channel, channels, seeds)
    worst = 0.0
    for ch, (counts, accepted) in zip(channels, samples):
        reference = excitation_probabilities(ch)
        for r in range(3):
            expected = reference[r] * accepted
            slack = 3.0 * math.sqrt(expected) + 3.0
            pull = abs(counts[r] - expected) / slack
            worst = max(worst, pull)
            ok = ok and pull <= 1.0
    mc_time = time.perf_counter() - t0
    ok = ok and mc_time < 120.0
    report("4 photon statistics",
           ok,
           f"P1={probs[1]:.4g} P2={probs[2]:.4g}, MC worst 3-sigma "
           f"fraction={worst:.2f} over 20 channels ({mc_time:.0f}s)")


def test_criterion_5_collective_operator_oracle():
    worst = 0.0
    for m in range(1, 13):
        mat = splus_sminus_matrix(m)
        idx = sector_indices(m, 1)
        block = mat[np.ix_(idx, idx)]
        eigvals, eigvecs = np.linalg.eigh(block)
        worst = max(worst, abs(eigvals[-1] - m),
                    float(np.max(np.abs(eigvals[:-1]), initial=0.0)))
        overlap = abs(np.vdot(eigvecs[:, -1], np.full(m, 1 / math.sqrt(m))))
        worst = max(worst, abs(overlap - 1.0))
    ok = worst < 1e-10
    report("5 single-excitation spectrum",
           ok, f"max deviation {worst:.2e} over M=1..12")


def test_criterion_6_simulator_ideal_limit():
    worst = 0.0
    for n in (2, 9, 30, 100, 564):
        comb = CombSpec.from_bandwidth(n, 6e9)
        value = simulated_contrast(absorb(comb, PhotonSpectrum("flat")), comb)
        worst = max(worst, abs(value - n) / n)
    photon = PhotonSpectrum("lorentzian", fwhm=6e9)
    ratios = []
    for bandwidth in (6e9, 4e9, 3e9, 2e9, 1e9):
        comb = CombSpec.from_bandwidth(30, bandwidth, finesse=10.0)
        ratios.append(simulated_contrast(absorb(comb, photon), comb) / 30)
    monotone = all(b > a for a, b in zip(ratios, ratios[1:]))
    ok = worst < 1e-3 and monotone
    report("6 simulator ideal limit",
           ok,
           f"max |R-N|/N={worst:.2e}; R/N rises {ratios[0]:.3f}->{ratios[-1]:.3f} "
           f"as bandwidth shrinks (monotone={monotone})")


def test_criterion_7_analysis_chain():
    hist, truth = headline_fixture(seed=11, scale=32)
    fit = fit_echo(hist)
    r_raw, _ = echo_contrast(fit)
    r_sub, _ = echo_contrast(fit, subtract_background=True)
    r_dec, _ = echo_contrast(fit, subtract_background=True, deconvolve=True)
    ordering = r_raw < r_sub < r_dec
    applied = r_dec / r_sub
    formula = deconvolution_factor(fit.fwhm, DETECTOR_FWHM_DEFAULT)
    applied_ok = abs(applied - formula) / formula < 1e-9

    quiet, qtruth = headline_fixture(scale=200, poisson=False)
    qfit = fit_echo(quiet)
    factor = deconvolution_factor(qfit.fwhm, DETECTOR_FWHM_DEFAULT)
    factor_ok = abs(factor - qtruth["deconvolution_factor"]) \
        / qtruth["deconvolution_factor"] < 0.01

    rows = []
    for label, shist, _ in sweep_fixtures(seed=11):
        sfit = fit_echo(shist)
        rows.append((int(label), echo_contrast(sfit)[0]))
    labels = [n for n, _ in rows]
    raws = [v for _, v in rows]
    peak_at = labels[int(np.argmax(raws))]
    saturation = peak_at == 408 and all(
        v > 0.85 * max(raws) for v in raws[labels.index(408):])

    ok = ordering and applied_ok and factor_ok and saturation
    report("7 analysis chain",
           ok,
           f"triple=({r_raw:.1f},{r_sub:.1f},{r_dec:.1f}) ordered={ordering}, "
           f"factor {factor:.4f} vs {qtruth['deconvolution_factor']:.4f}, "
           f"raw peak at N={peak_at}")


def test_criterion_8_atoms_per_tooth():
    first = atoms_per_tooth_from_absorption(TM_LINBO3, 4.3e6)
    second = atoms_per_tooth_from_single_ion(TM_LINBO3, 4.3e6)
    ok = abs(first - 1.1e9) / 1.1e9 < 0.10 and abs(second - 1.7e9) / 1.7e9 < 0.10
    report("8 atoms per tooth", ok, f"{first:.3g} and {second:.3g}")


def test_criterion_9_pipeline_determinism(tmp_path):
    fixtures = tmp_path / "fixtures"
    write_fixture_files(fixtures, seed=11)
    (fixtures / "channel.conf").write_text(
        "mu = 1.1e-3\neta_a = 0.11\neta_b_star = 0.053\neta_ci = 0.2\n"
        "eta_w = 0.33\neta_t = 0.36\n")
    config = fixtures / "pipeline.json"
    config.write_text(json.dumps({
        "channel_config": "channel.conf",
        "histogram": {"csv": "hist_564.csv", "sidecar": "hist_564.json"},
        "n_teeth": 564, "subtract_background": True, "deconvolve": True}))
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
        outputs.append({name: (out / name).read_bytes()
                        for name in ("pipeline.json", "pstats.json",
                                     "analysis.json", "bound.json")})
    identical = outputs[0] == outputs[1]
    report("9 determinism", identical,
           "byte-identical pipeline outputs across reruns")
