"""Workloads of the certificate-chain benchmark: inputs, ops and checks.

Each workload function takes the entry-point table, a scratch directory and
the seed, writes whatever input files its ops read, and returns the ops of
one round.  An op calls the library only through the entry-point table, so
the traced run can wrap those calls; its check runs outside the timed region
and raises ``CheckFailed`` on a wrong output.  No op passes a solver knob
(``n_starts``, ``seed``, ``mode``, ``samples_per_period``, ``--starts``):
the benchmark measures the defaults users get.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from afcdepth import cli, depthbound, dicke, echoanalysis, echosim, fixtures

# certify_depth's reaches(): max_R(M) >= R * (1 - tol) - tol
REACH_TOL = 1e-12
# bound-scan: a value may sit below the recorded reference only by
# rounding, and above it by at most this share (the exact active-set
# evaluation planned for the solver beat the multi-start one by <= 2e-8)
BELOW_REFERENCE = 1e-12
ABOVE_REFERENCE = 1e-6

REFERENCE_BOUND = Path(__file__).with_name("reference_bound.json")

# acceptance criterion 4's reference channel, eta_b = eta_b_star * eta_ci
REFERENCE_CHANNEL = {"mu": 1.1e-3, "eta_a": 0.11, "eta_b_star": 0.053,
                     "eta_ci": 0.2, "eta_w": 0.33, "eta_t": 0.36}
HEADLINE_PROBLEM = {"R": 256.7, "sigma_R": 8.7, "N": 564, "P1": 3.5e-3,
                    "P2": 2.6e-8}
HEADLINE_CERTIFICATE = (230, [221, 239])
# relative distance allowed between an analysed contrast and the fixture's
# engineered one: Poisson noise of the fixtures moved 1050 seeded rows by at
# most 4.9 %, 10.8 % and 17 %
CONTRAST_TOL = {"r_raw": 0.1, "r_subtracted": 0.2, "r_deconvolved": 0.3}

# bound-scan: seeded depths per bound_curve, besides M = 1, 2 and N
DRAWS_PER_CURVE = 13

SIM_TEETH = (94, 188, 376, 564)
TRACE_POINTS_PER_TOOTH = 32


class CheckFailed(Exception):
    """An op's output is wrong."""


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def entry_points():
    """The public entry points the ops call; the traced run wraps them."""
    return SimpleNamespace(main=cli.main, bound_curve=depthbound.bound_curve,
                           absorb=echosim.absorb,
                           simulated_contrast=echosim.simulated_contrast,
                           load_comb_trace=echosim.load_comb_trace,
                           contrast_sweep=echoanalysis.contrast_sweep)


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _call(lib, name, *args):
    return getattr(lib, name)(*args)


def _cli(lib, command, config, out):
    return functools.partial(_call, lib, "main",
                             [command, "--config", str(config), "--out", str(out)])


# --- certify ----------------------------------------------------------------

def _max_contrast_memo():
    memo = {}

    def max_r(n, m, p1, p2):
        key = (n, m, p1, p2)
        if key not in memo:
            memo[key] = depthbound.max_contrast(
                depthbound.BoundProblem(n, m, p1, p2)).value
        return memo[key]

    return max_r


def _check_bracket(max_r, bound):
    n, m, r = bound["n_teeth"], bound["m_lower"], bound["contrast"]
    p1, p2 = bound["p1"], bound["p2"]
    lo, hi = bound["m_interval"]
    _require(lo <= m <= hi, f"m_lower {m} outside its interval ({lo}, {hi})")
    target = r * (1.0 - REACH_TOL) - REACH_TOL
    top = max_r(n, m, p1, p2)
    _require(top >= target, f"max_R({m}) = {top!r} does not reach R = {r!r}")
    if m > 1:
        below = max_r(n, m - 1, p1, p2)
        _require(below < target, f"max_R({m - 1}) = {below!r} already reaches R = {r!r}")


def _read(out, name):
    return json.loads((out / name).read_text())


def _check_pipeline(max_r, out, truth, code):
    _require(code == 0, f"afcdepth pipeline exited {code}")
    _check_bracket(max_r, _read(out, "bound.json"))
    r, expected = _read(out, "analysis.json")["r"], truth["r_deconvolved"]
    _require(abs(r - expected) <= CONTRAST_TOL["r_deconvolved"] * expected,
             f"N={truth['n_teeth']}: contrast {r:.3f} far from the fixture's {expected:.3f}")


def _check_headline(max_r, out, code):
    _require(code == 0, f"afcdepth bound exited {code}")
    bound = _read(out, "bound.json")
    got = (bound["m_lower"], bound["m_interval"])
    _require(got == HEADLINE_CERTIFICATE,
             f"headline certificate {got}, expected {HEADLINE_CERTIFICATE}")
    _check_bracket(max_r, bound)


def certify(lib, workdir, seed):
    """`afcdepth pipeline` on every fixture N = 94..564, each with a channel
    drawn within 10 % of the reference one, then the headline `afcdepth bound`."""
    rng = np.random.default_rng([seed, 1])
    fixture_dir = workdir / "fixtures"
    manifest = fixtures.write_fixture_files(fixture_dir, seed=int(rng.integers(2**31)))
    max_r = _max_contrast_memo()

    ops = []
    for entry in manifest["histograms"]:
        label = entry["label"]
        channel = fixture_dir / f"channel_{label}.conf"
        channel.write_text("".join(f"{key} = {value * rng.uniform(0.9, 1.1)!r}\n"
                                   for key, value in REFERENCE_CHANNEL.items()))
        config = fixture_dir / f"pipeline_{label}.json"
        config.write_text(json.dumps({
            "channel_config": channel.name,
            "histogram": {"csv": entry["csv"], "sidecar": entry["sidecar"]},
            "n_teeth": int(label), "subtract_background": True, "deconvolve": True}))
        out = workdir / f"out_{label}"
        ops.append(Op("pipeline", _cli(lib, "pipeline", config, out),
                      functools.partial(_check_pipeline, max_r, out, entry["truth"])))
    problem = workdir / "problem.json"
    problem.write_text(json.dumps(HEADLINE_PROBLEM))
    out = workdir / "out_bound"
    ops.append(Op("bound", _cli(lib, "bound", problem, out),
                  functools.partial(_check_headline, max_r, out)))
    return ops


# --- bound-scan -------------------------------------------------------------

def draw_depths(n, rng):
    """M = 1, 2, N plus DRAWS_PER_CURVE seeded draws from the solver's
    branches: k >= 2 with a remainder, k >= 2 without one, and k = 1
    (N/2 < M < N).  Each branch gets a share of the draws proportional to
    its share of M = 3..N-1, as in an exhaustive scan, and at least one.
    A branch's draws come one from each of that many equal slices of it, so
    every seed spreads its depths over the whole branch."""
    half = n // 2
    pools = ([m for m in range(3, half + 1) if n % m],
             [m for m in range(3, half + 1) if n % m == 0],
             list(range(half + 1, n)))
    depths = {1, 2, n}
    for pool in pools:
        size = max(1, round(DRAWS_PER_CURVE * len(pool) / (n - 3)))
        depths.update(int(rng.choice(part)) for part in np.array_split(pool, size))
    return sorted(depths)


def _check_curve(depths, reference, rows):
    _require([m for m, _ in rows] == depths, "bound_curve rows do not match the depths asked")
    for m, value in rows:
        ref = reference[m - 1]
        _require(value >= ref - BELOW_REFERENCE * abs(ref),
                 f"max_R({m}) = {value!r} below the reference {ref!r}")
        _require(value <= ref + ABOVE_REFERENCE * abs(ref),
                 f"max_R({m}) = {value!r} above the reference {ref!r} by more "
                 f"than {ABOVE_REFERENCE:g}")


def bound_scan(lib, workdir, seed):
    """One `bound_curve` per recorded (N, P1, P2) over seeded depth lists."""
    rng = np.random.default_rng([seed, 2])
    ops = []
    for problem in json.loads(REFERENCE_BOUND.read_text())["problems"]:
        n, p1, p2 = problem["n_teeth"], problem["p1"], problem["p2"]
        depths = draw_depths(n, rng)
        ops.append(Op("bound_curve",
                      functools.partial(_call, lib, "bound_curve", n, p1, p2, depths),
                      functools.partial(_check_curve, depths, problem["max_contrast"])))
    return ops


# --- simulate-analyze ---------------------------------------------------------

def _simulate(lib, comb, photon):
    amps = lib.absorb(comb, photon)
    return amps, lib.simulated_contrast(amps, comb)


def _check_simulation(comb, photon, result):
    amps, value = result
    n = comb.n_teeth
    reference = dicke.single_excitation_contrast(amps)
    # finesse 10 dephases the echo peak and the period average almost alike,
    # so the gamma = 0 tolerance holds there too (seen: 5e-5)
    _require(abs(value - reference) <= 1e-3 * reference,
             f"N={n}, finesse {comb.finesse}: contrast {value!r} vs "
             f"single-excitation {reference!r}")
    if photon.shape == "flat":
        _require(abs(value - n) <= 1e-3 * n, f"flat comb of {n} teeth gave {value!r}")


def write_comb_trace(path, n, rng):
    """Two-column (frequency_Hz, optical_depth) trace of n Gaussian teeth."""
    spacing = rng.uniform(1e6, 3e7)
    gamma = spacing / rng.uniform(3.0, 6.0)
    d0, d1 = rng.uniform(0.05, 0.3), rng.uniform(1.0, 4.0)
    step = np.arange((n + 1) * TRACE_POINTS_PER_TOOTH) - TRACE_POINTS_PER_TOOTH // 2
    freq = step * (spacing / TRACE_POINTS_PER_TOOTH)
    nearest = np.clip(np.round(freq / spacing), 0, n - 1) * spacing
    od = d0 + d1 * np.exp(-4.0 * math.log(2.0) * ((freq - nearest) / gamma) ** 2)
    np.savetxt(path, np.column_stack([freq, od]))
    return {"n_teeth": n, "spacing": spacing, "gamma": gamma, "d1": d1}


def _check_trace(truth, comb):
    _require(comb.n_teeth == truth["n_teeth"],
             f"found {comb.n_teeth} teeth, wrote {truth['n_teeth']}")
    for name, got, tol in (("spacing", comb.tooth_spacing_hz, 1e-9),
                           ("gamma", comb.gamma, 0.02),
                           ("d1", comb.d1, 1e-9)):
        _require(abs(got - truth[name]) <= tol * truth[name],
                 f"trace {name} {got!r}, wrote {truth[name]!r}")


def _check_sweep(truths, rows):
    _require(len(rows) == len(truths), "contrast_sweep dropped rows")
    for row, truth in zip(rows, truths):
        _require("error" not in row, f"row {row['label']}: {row.get('error')}")
        for key, tol in CONTRAST_TOL.items():
            _require(abs(row[key] - truth[key]) <= tol * truth[key],
                     f"row {row['label']}: {key} {row[key]:.3f} vs truth {truth[key]:.3f}")


def simulate_analyze(lib, workdir, seed):
    """Simulated contrast of flat and Lorentzian photons at finesse inf and
    10, comb-trace loading, and contrast sweeps over seeded fixtures."""
    rng = np.random.default_rng([seed, 3])
    flat = echosim.PhotonSpectrum("flat")
    ops = []
    for n in SIM_TEETH:
        bandwidth = rng.uniform(4e9, 8e9)
        lorentzian = echosim.PhotonSpectrum(
            "lorentzian", fwhm=bandwidth * rng.uniform(0.5, 2.0),
            center_offset=bandwidth * rng.uniform(-0.1, 0.1))
        for finesse in (math.inf, 10.0):
            comb = echosim.CombSpec.from_bandwidth(n, bandwidth, finesse=finesse)
            for photon in (flat, lorentzian):
                ops.append(Op("simulate", functools.partial(_simulate, lib, comb, photon),
                              functools.partial(_check_simulation, comb, photon)))
    # two traces, so the round's median op falls mid-group (N = 188 sims)
    for n in SIM_TEETH[2:]:
        path = workdir / f"comb_{n}.txt"
        truth = write_comb_trace(path, n, rng)
        ops.append(Op("load_comb_trace",
                      functools.partial(_call, lib, "load_comb_trace", path),
                      functools.partial(_check_trace, truth)))
    for _ in range(2):
        sweep = fixtures.sweep_fixtures(seed=int(rng.integers(2**31)))
        items = [(label, hist) for label, hist, _ in sweep]
        ops.append(Op("contrast_sweep",
                      functools.partial(_call, lib, "contrast_sweep", items),
                      functools.partial(_check_sweep, [truth for *_, truth in sweep])))
    return ops


def _monotone_violations(rows):
    return sum(b < a for (_, a), (_, b) in zip(rows, rows[1:]))


# span name -> counts taken from the wrapped call's arguments and result
COUNTERS = {
    "depthbound.certify_depth": lambda args, kwargs, result: {
        "evaluations": result.evaluations},
    "depthbound.bound_curve": lambda args, kwargs, rows: {
        "points": len(rows), "monotone_violations": _monotone_violations(rows)},
    # computed, not measured: the dense grid is teeth x (samples + 1) points
    "echosim.simulated_contrast": lambda args, kwargs, result: {
        "tooth_samples": args[1].n_teeth * (echosim.DEFAULT_SAMPLES_PER_PERIOD + 1)},
    "echoanalysis.contrast_sweep": lambda args, kwargs, rows: {
        "rows": len(rows), "row_errors": sum("error" in row for row in rows)},
}

# name -> (workload function, layers the traced run must see)
WORKLOADS = {
    "certify": (certify, ("cli", "photonstats", "echoanalysis", "depthbound")),
    "bound-scan": (bound_scan, ("depthbound",)),
    "simulate-analyze": (simulate_analyze, ("echosim", "echoanalysis")),
}
