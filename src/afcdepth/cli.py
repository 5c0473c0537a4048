"""Command-line surface: simulate, pstats, analyze, bound, atoms, pipeline.

Scalar results are written as JSON, curves as CSV with a provenance header
(input hashes, config, package version, seed).  Outputs carry no timestamps,
so identical inputs and seed reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .depthbound import bound_curve, certify_depth, linear_bound
from .echoanalysis import TimeHistogram, contrast_sweep, echo_contrast, fit_echo
from .echosim import (CombSpec, PhotonSpectrum, absorb, emission_trace,
                      load_comb_trace, simulated_contrast, sweep_contrast_vs_teeth)
from .errors import ConfigError, ToolkitError
from .photonstats import (estimate_mu_from_g2, excitation_probabilities,
                          load_channel_config, propagate_uncertainty,
                          write_efficiency)
from .spectroscopy import (TM_LINBO3, atoms_per_tooth_from_absorption,
                           atoms_per_tooth_from_single_ion, load_material_config,
                           single_ion_depth)

log = logging.getLogger("afcdepth")


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _provenance(inputs, config, seed):
    return {
        "version": __version__,
        "seed": seed,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "config": config,
    }


def _write_json(path, payload, provenance):
    data = dict(payload)
    data["_provenance"] = provenance
    Path(path).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def _write_csv(path, header, rows, provenance):
    lines = ["# provenance " + json.dumps(provenance, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _load_json(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def _fields(entry, keys, what):
    """entry[key] for each key; ConfigError naming ``what`` when entry is not
    a JSON object or lacks a key."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{what} must be a JSON object")
    for key in keys:
        if key not in entry:
            raise ConfigError(f"{what} missing key {key!r}")
    return [entry[key] for key in keys]


def _comb_from_entry(entry) -> CombSpec:
    if "trace" in entry:
        return load_comb_trace(entry["trace"], entry.get("tooth_shape", "gaussian"))
    finesse = entry.get("finesse")
    return CombSpec.from_bandwidth(
        n_teeth=int(entry["n_teeth"]),
        bandwidth=float(entry["bandwidth_hz"]),
        finesse=math.inf if finesse in (None, "inf") else float(finesse),
        d1=float(entry.get("d1", 1.0)),
        d0=float(entry.get("d0", 0.0)),
        tooth_shape=entry.get("tooth_shape", "gaussian"),
    )


def _cmd_simulate(args) -> int:
    cfg = _load_json(args.config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    prov = _provenance([args.config], cfg, args.seed)

    photon_cfg = cfg.get("photon", {})
    photon = PhotonSpectrum(
        shape=photon_cfg.get("shape", "flat"),
        fwhm=float(photon_cfg.get("fwhm_hz", 0.0)),
        center_offset=float(photon_cfg.get("center_offset_hz", 0.0)),
    )
    try:
        combs = [_comb_from_entry(e) for e in cfg.get("combs", [])]
    except KeyError as exc:
        raise ConfigError(f"comb entry missing key {exc}") from None
    if not combs:
        raise ConfigError("simulate config needs a non-empty 'combs' list")

    trace_cfg = cfg.get("trace", {"comb_index": 0})
    comb = combs[int(trace_cfg.get("comb_index", 0))]
    periods = float(trace_cfg.get("periods", 2.0))
    samples = int(trace_cfg.get("samples", 4000))
    amps = absorb(comb, photon)
    grid = np.linspace(0.0, periods * comb.echo_time, samples)
    trace = emission_trace(amps, comb, grid)
    _write_csv(outdir / "trace.csv", ["time_s", "emission"],
               zip(trace.times.tolist(), trace.p.tolist()), prov)

    rows = sweep_contrast_vs_teeth(combs, photon)
    _write_csv(outdir / "contrast_vs_teeth.csv", ["n_teeth", "contrast"], rows, prov)

    sweep_cfg = cfg.get("bandwidth_sweep")
    if sweep_cfg:
        n_teeth = int(sweep_cfg["n_teeth"])
        finesse = float(sweep_cfg.get("finesse", 10.0))
        d1 = float(sweep_cfg.get("d1", 1.0))
        rows = []
        for bw in sweep_cfg["bandwidths_hz"]:
            sweep_comb = CombSpec.from_bandwidth(n_teeth, float(bw), finesse, d1)
            contrast = simulated_contrast(absorb(sweep_comb, photon), sweep_comb)
            rows.append((float(bw), contrast, contrast / n_teeth))
        _write_csv(outdir / "contrast_vs_bandwidth.csv",
                   ["bandwidth_hz", "contrast", "contrast_over_n"], rows, prov)
    return 0


def _cmd_pstats(args) -> int:
    channel, stats_model = load_channel_config(args.config)
    if args.stats_model:
        stats_model = args.stats_model
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    probs = excitation_probabilities(channel, r_max=4, stats_model=stats_model)
    payload = {
        "mu": channel.mu,
        "eta_a": channel.eta_a,
        "eta_b": channel.eta_b,
        "eta_w": channel.eta_w,
        "eta_t": channel.eta_t,
        "stats_model": stats_model,
        "p": probs.p.tolist(),
        "p1": probs[1],
        "p2": probs[2],
        "truncation_error": probs.truncation_error,
    }
    if args.sigma_mu or args.sigma_d1:
        if not (args.d1 and args.finesse):
            raise ConfigError("--sigma-mu/--sigma-d1 need --d1 and --finesse")
        _, sigmas = propagate_uncertainty(
            channel, d1=args.d1, finesse=args.finesse,
            sigma_mu=args.sigma_mu or 0.0, sigma_d1=args.sigma_d1 or 0.0,
            r_max=2, stats_model=stats_model)
        payload["sigma_p1"] = float(sigmas[1])
        payload["sigma_p2"] = float(sigmas[2])
    if args.g2_ab:
        payload["mu_from_g2"] = estimate_mu_from_g2(args.g2_ab)
    prov = _provenance([args.config], {"stats_model": stats_model}, args.seed)
    _write_json(outdir / "pstats.json", payload, prov)
    return 0


def _analyze_one(hist, detector_fwhm, subtract, deconvolve):
    """Fit the echo and report its raw and corrected contrast."""
    fit = fit_echo(hist)
    r_raw, s_raw = echo_contrast(fit)
    report = {
        "amplitude": fit.amplitude,
        "t0": fit.t0,
        "fwhm": fit.fwhm,
        "offset": fit.offset,
        "background": fit.background,
        "window_average": fit.window_average,
        "r_raw": r_raw,
        "sigma_raw": s_raw,
    }
    r, s = r_raw, s_raw
    if subtract or deconvolve:
        r, s = echo_contrast(fit, subtract_background=subtract,
                             deconvolve=deconvolve, detector_fwhm=detector_fwhm)
    report["r"] = r
    report["sigma"] = s
    return report


def _cmd_analyze(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    inputs = []
    if args.batch:
        manifest = _load_json(args.batch)
        base = Path(args.batch).parent
        items = []
        histograms, = _fields(manifest, ["histograms"], "batch manifest")
        for entry in histograms:
            label, csv_name, sidecar_name = _fields(
                entry, ["label", "csv", "sidecar"], "batch manifest entry")
            hist, det = TimeHistogram.from_csv(base / csv_name, base / sidecar_name)
            items.append((label, hist, det))
            inputs.extend([base / csv_name, base / sidecar_name])
        inputs.append(args.batch)
        prov = _provenance(inputs, {"subtract_background": args.subtract_background,
                                    "deconvolve": args.deconvolve,
                                    "detector_fwhm": args.detector_fwhm}, args.seed)
        # each histogram is deconvolved with its own sidecar's detector FWHM
        # unless --detector-fwhm overrides them all
        rows = [row for label, hist, det in items
                for row in contrast_sweep([(label, hist)],
                                          detector_fwhm=args.detector_fwhm or det)]
        header = ["label", "r_raw", "sigma_raw", "r_subtracted", "sigma_subtracted",
                  "r_deconvolved", "sigma_deconvolved", "error"]
        csv_rows = [[row.get(h, "") for h in header] for row in rows]
        _write_csv(outdir / "analysis.csv", header, csv_rows, prov)
        _write_json(outdir / "analysis.json", {"rows": rows}, prov)
        return 0

    if not (args.histogram and args.sidecar):
        raise ConfigError("analyze needs --histogram and --sidecar (or --batch)")
    hist, det = TimeHistogram.from_csv(args.histogram, args.sidecar)
    detector = args.detector_fwhm or det
    prov = _provenance([args.histogram, args.sidecar],
                       {"subtract_background": args.subtract_background,
                        "deconvolve": args.deconvolve,
                        "detector_fwhm": detector}, args.seed)
    report = {"label": Path(args.histogram).stem,
              **_analyze_one(hist, detector, args.subtract_background,
                             args.deconvolve)}
    _write_json(outdir / "analysis.json", report, prov)
    return 0


def _curve_depths(n_teeth: int, points: int = 25):
    depths = np.unique(np.linspace(1, n_teeth, points).astype(int))
    return [int(m) for m in depths]


def _cmd_bound(args) -> int:
    cfg = _load_json(args.config)
    contrast, n_teeth, p1, p2 = _fields(cfg, ["R", "N", "P1", "P2"], "bound config")
    contrast, n_teeth, p1, p2 = float(contrast), int(n_teeth), float(p1), float(p2)
    sigma = float(cfg.get("sigma_R", 0.0))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    prov = _provenance([args.config], cfg, args.seed)

    result = certify_depth(contrast, sigma, n_teeth, p1, p2)
    payload = result.to_dict()
    payload["linear_bound"] = linear_bound(contrast, n_teeth, p1, p2)
    _write_json(outdir / "bound.json", payload, prov)
    if args.curve:
        rows = bound_curve(n_teeth, p1, p2, _curve_depths(n_teeth))
        _write_csv(outdir / "bound_curve.csv", ["depth", "max_contrast"], rows, prov)
    return 0


def _cmd_atoms(args) -> int:
    material = load_material_config(args.config) if args.config else TM_LINBO3
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    payload = {
        "theta_t_hz": args.theta_t,
        "atoms_per_tooth_absorption": atoms_per_tooth_from_absorption(
            material, args.theta_t, args.theta_i),
        "atoms_per_tooth_single_ion": atoms_per_tooth_from_single_ion(
            material, args.theta_t),
        "single_ion_depth": single_ion_depth(material),
        "integrated_depth_hz": material.integrated_depth,
    }
    if args.d1 is not None and args.finesse is not None:
        payload["write_efficiency"] = write_efficiency(args.d1, args.finesse)
    prov = _provenance([args.config] if args.config else [],
                       {"theta_t": args.theta_t}, args.seed)
    _write_json(outdir / "atoms.json", payload, prov)
    return 0


def _cmd_pipeline(args) -> int:
    cfg = _load_json(args.config)
    base = Path(args.config).parent
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    channel_name, hist_cfg, n_teeth = _fields(
        cfg, ["channel_config", "histogram", "n_teeth"], "pipeline config")
    n_teeth = int(n_teeth)
    csv_name, sidecar_name = _fields(hist_cfg, ["csv", "sidecar"], "pipeline histogram")
    channel_path = base / channel_name
    csv_path = base / csv_name
    sidecar_path = base / sidecar_name
    inputs = [args.config, channel_path, csv_path, sidecar_path]
    prov = _provenance(inputs, cfg, args.seed)

    channel, stats_model = load_channel_config(channel_path)
    probs = excitation_probabilities(channel, r_max=4, stats_model=stats_model)

    hist, detector = TimeHistogram.from_csv(csv_path, sidecar_path)
    subtract = bool(cfg.get("subtract_background", True))
    deconvolve = bool(cfg.get("deconvolve", True))
    report = _analyze_one(hist, detector, subtract, deconvolve)

    result = certify_depth(report["r"], report["sigma"], n_teeth, probs[1], probs[2])

    pstats_payload = {"mu": channel.mu, "p1": probs[1], "p2": probs[2],
                      "stats_model": stats_model,
                      "truncation_error": probs.truncation_error}
    analysis_payload = {key: report[key] for key in
                        ("r", "sigma", "amplitude", "fwhm", "background",
                         "window_average")}
    analysis_payload.update(subtract_background=subtract, deconvolve=deconvolve)
    _write_json(outdir / "pstats.json", pstats_payload, prov)
    _write_json(outdir / "analysis.json", analysis_payload, prov)
    _write_json(outdir / "bound.json", result.to_dict(), prov)
    combined = {"pstats": pstats_payload, "analysis": analysis_payload,
                "bound": result.to_dict()}
    _write_json(outdir / "pipeline.json", combined, prov)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afcdepth",
        description="Entanglement-depth certification from comb echo data")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0)

    p_sim = sub.add_parser("simulate", help="emission traces and contrast sweeps")
    p_sim.add_argument("--config", required=True)
    common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_ps = sub.add_parser("pstats", help="excitation probabilities from a channel")
    p_ps.add_argument("--config", required=True)
    p_ps.add_argument("--stats-model", choices=["thermal", "poisson"], default=None)
    p_ps.add_argument("--g2-ab", type=float, default=None,
                      help="cross-correlation to invert for mu")
    p_ps.add_argument("--sigma-mu", type=float, default=None)
    p_ps.add_argument("--sigma-d1", type=float, default=None)
    p_ps.add_argument("--d1", type=float, default=None)
    p_ps.add_argument("--finesse", type=float, default=None)
    common(p_ps)
    p_ps.set_defaults(func=_cmd_pstats)

    p_an = sub.add_parser("analyze", help="echo contrast from histograms")
    p_an.add_argument("--histogram", help="CSV of (bin_start_s, counts)")
    p_an.add_argument("--sidecar", help="JSON metadata for the histogram")
    p_an.add_argument("--batch", help="manifest JSON for a sweep")
    p_an.add_argument("--subtract-background", action="store_true")
    p_an.add_argument("--deconvolve", action="store_true")
    p_an.add_argument("--detector-fwhm", type=float, default=None)
    common(p_an)
    p_an.set_defaults(func=_cmd_analyze)

    p_bd = sub.add_parser("bound", help="certify an entanglement-depth lower bound")
    p_bd.add_argument("--config", required=True,
                      help="JSON with R, sigma_R, N, P1, P2")
    p_bd.add_argument("--curve", action="store_true",
                      help="also write a (depth, max contrast) curve")
    common(p_bd)
    p_bd.set_defaults(func=_cmd_bound)

    p_at = sub.add_parser("atoms", help="atoms-per-tooth estimators")
    p_at.add_argument("--config", default=None, help="material key-value file")
    p_at.add_argument("--theta-t", type=float, required=True,
                      help="Hz-integrated tooth depth")
    p_at.add_argument("--theta-i", type=float, default=None)
    p_at.add_argument("--d1", type=float, default=None)
    p_at.add_argument("--finesse", type=float, default=None)
    common(p_at)
    p_at.set_defaults(func=_cmd_atoms)

    p_pl = sub.add_parser("pipeline", help="pstats -> analyze -> bound")
    p_pl.add_argument("--config", required=True)
    common(p_pl)
    p_pl.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("AFCDEPTH_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except (ToolkitError, ValueError, ArithmeticError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
