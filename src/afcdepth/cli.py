"""Command-line surface: simulate, pstats, analyze, bound, atoms, pipeline.

Each subcommand reads its inputs through ``afcdepth._inputs``, calls the
library and writes JSON for scalar results and CSV for curves, with a
provenance header (version, input hashes, config) and no timestamps.  One
payload function builds each of ``pstats.json``, ``analysis.json`` and
``bound.json``, for the stage's own subcommand and for ``pipeline`` alike.
``analysis.json`` holds one histogram's fit and its raw, background-subtracted
and deconvolved contrast (``echoanalysis.analyze_echo``); its ``r``/``sigma``
repeat the deconvolved pair, which is what ``bound`` certifies.
``analyze --batch`` writes the same record per manifest entry to
``sweep.json`` (``{"rows": [...]}``) and ``sweep.csv``.  The output directory
is made at the first write.  Exit status 2 means an input could not be read,
1 that the library rejected it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._inputs import field, read_json, typed
from .depthbound import bound_curve, certify_depth, linear_bound
from .echoanalysis import TimeHistogram, analyze_echo, contrast_sweep
from .echosim import (CombSpec, PhotonSpectrum, absorb, emission_trace,
                      load_comb_trace, simulated_contrast, sweep_contrast_vs_teeth)
from .errors import ConfigError, ToolkitError
from .photonstats import (estimate_mu_from_g2, excitation_probabilities,
                          load_channel_config, propagate_uncertainty,
                          write_efficiency)
from .spectroscopy import (TM_LINBO3, atoms_per_tooth_from_absorption,
                           atoms_per_tooth_from_single_ion, load_material_config,
                           single_ion_depth)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _provenance(inputs, config):
    return {
        "version": __version__,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "config": config,
    }


def _write_json(path, payload, provenance):
    data = dict(payload)
    data["_provenance"] = provenance
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def _write_csv(path, header, rows, provenance):
    lines = ["# provenance " + json.dumps(provenance, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _pstats_payload(channel, stats_model):
    """pstats.json: the channel and its excitation probabilities."""
    probs = excitation_probabilities(channel, r_max=4, stats_model=stats_model)
    return {
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


def _analysis_payload(label, hist, detector_fwhm):
    """analysis.json: the echo fit with its three contrasts; ``r``/``sigma``
    repeat the deconvolved pair, the contrast ``bound`` certifies."""
    payload = {"label": label, **analyze_echo(hist, detector_fwhm)}
    payload["r"], payload["sigma"] = payload["r_deconvolved"], payload["sigma_deconvolved"]
    return payload


def _bound_payload(contrast, sigma, n_teeth, p1, p2):
    """bound.json: the depth certificate plus the closed-form linear bound."""
    payload = certify_depth(contrast, sigma, n_teeth, p1, p2).to_dict()
    payload["linear_bound"] = linear_bound(contrast, n_teeth, p1, p2)
    return payload


def _comb_from_entry(entry) -> CombSpec:
    what = "comb entry"
    tooth_shape = field(entry, "tooth_shape", str, what, "gaussian")
    if "trace" in entry:
        return load_comb_trace(field(entry, "trace", str, what), tooth_shape)
    finesse = entry.get("finesse")
    return CombSpec.from_bandwidth(
        n_teeth=field(entry, "n_teeth", int, what),
        bandwidth=field(entry, "bandwidth_hz", float, what),
        finesse=(math.inf if finesse in (None, "inf")
                 else typed(finesse, float, f"{what} 'finesse'")),
        d1=field(entry, "d1", float, what, 1.0),
        d0=field(entry, "d0", float, what, 0.0),
        tooth_shape=tooth_shape,
    )


def _cmd_simulate(args) -> int:
    cfg = read_json(args.config)
    what = "simulate config"
    photon_cfg = field(cfg, "photon", dict, what, {})
    photon = PhotonSpectrum(
        shape=field(photon_cfg, "shape", str, "photon", "flat"),
        fwhm=field(photon_cfg, "fwhm_hz", float, "photon", 0.0),
        center_offset=field(photon_cfg, "center_offset_hz", float, "photon", 0.0),
    )
    combs = [_comb_from_entry(e) for e in field(cfg, "combs", list, what, [])]
    if not combs:
        raise ConfigError("simulate config needs a non-empty 'combs' list")
    trace_cfg = field(cfg, "trace", dict, what, {})
    comb_index = field(trace_cfg, "comb_index", int, "trace", 0)
    if not 0 <= comb_index < len(combs):
        raise ConfigError(f"trace 'comb_index' {comb_index} outside 0..{len(combs) - 1}")
    periods = field(trace_cfg, "periods", float, "trace", 2.0)
    samples = field(trace_cfg, "samples", int, "trace", 4000)
    comb = combs[comb_index]
    grid = np.linspace(0.0, periods * comb.echo_time, samples)
    trace = emission_trace(absorb(comb, photon), comb, grid)
    teeth_rows = sweep_contrast_vs_teeth(combs, photon)

    sweep_cfg = field(cfg, "bandwidth_sweep", dict, what, {})
    bandwidth_rows = []
    if sweep_cfg:
        n_teeth = field(sweep_cfg, "n_teeth", int, "bandwidth_sweep")
        finesse = field(sweep_cfg, "finesse", float, "bandwidth_sweep", 10.0)
        d1 = field(sweep_cfg, "d1", float, "bandwidth_sweep", 1.0)
        for bw in field(sweep_cfg, "bandwidths_hz", list, "bandwidth_sweep"):
            bw = typed(bw, float, "bandwidth_sweep bandwidth")
            sweep_comb = CombSpec.from_bandwidth(n_teeth, bw, finesse, d1)
            contrast = simulated_contrast(absorb(sweep_comb, photon), sweep_comb)
            bandwidth_rows.append((bw, contrast, contrast / n_teeth))

    outdir = Path(args.out)
    prov = _provenance([args.config], cfg)
    _write_csv(outdir / "trace.csv", ["time_s", "emission"],
               zip(trace.times.tolist(), trace.p.tolist()), prov)
    _write_csv(outdir / "contrast_vs_teeth.csv", ["n_teeth", "contrast"],
               teeth_rows, prov)
    if sweep_cfg:
        _write_csv(outdir / "contrast_vs_bandwidth.csv",
                   ["bandwidth_hz", "contrast", "contrast_over_n"],
                   bandwidth_rows, prov)
    return 0


def _cmd_pstats(args) -> int:
    channel, stats_model = load_channel_config(args.config)
    stats_model = args.stats_model or stats_model
    payload = _pstats_payload(channel, stats_model)
    if args.sigma_mu is not None or args.sigma_d1 is not None:
        if args.d1 is None or args.finesse is None:
            raise ConfigError("--sigma-mu/--sigma-d1 need --d1 and --finesse")
        _, sigmas = propagate_uncertainty(
            channel, d1=args.d1, finesse=args.finesse,
            sigma_mu=args.sigma_mu or 0.0, sigma_d1=args.sigma_d1 or 0.0,
            r_max=2, stats_model=stats_model)
        payload["sigma_p1"] = float(sigmas[1])
        payload["sigma_p2"] = float(sigmas[2])
    if args.g2_ab is not None:
        payload["mu_from_g2"] = estimate_mu_from_g2(args.g2_ab)
    prov = _provenance([args.config], {"stats_model": stats_model})
    _write_json(Path(args.out) / "pstats.json", payload, prov)
    return 0


def _detector_fwhm(args, sidecar_fwhm):
    """--detector-fwhm when given (0 included), else the sidecar's value."""
    return sidecar_fwhm if args.detector_fwhm is None else args.detector_fwhm


def _cmd_analyze(args) -> int:
    outdir = Path(args.out)
    if args.batch:
        if args.histogram or args.sidecar:
            raise ConfigError("analyze takes --batch or --histogram/--sidecar, not both")
        manifest = read_json(args.batch)
        base = Path(args.batch).parent
        rows, inputs = [], []
        for entry in field(manifest, "histograms", list, "batch manifest"):
            what = "batch manifest entry"
            label = field(entry, "label", str, what)
            csv_path = base / field(entry, "csv", str, what)
            sidecar_path = base / field(entry, "sidecar", str, what)
            hist, det = TimeHistogram.from_csv(csv_path, sidecar_path)
            # each histogram is deconvolved with its own sidecar's detector
            # FWHM unless --detector-fwhm overrides them all
            rows += contrast_sweep([(label, hist)], _detector_fwhm(args, det))
            inputs += [csv_path, sidecar_path]
        prov = _provenance(inputs + [args.batch],
                           {"detector_fwhm": args.detector_fwhm})
        header = ["label", "r_raw", "sigma_raw", "r_subtracted", "sigma_subtracted",
                  "r_deconvolved", "sigma_deconvolved", "error"]
        csv_rows = [[row.get(h, "") for h in header] for row in rows]
        _write_csv(outdir / "sweep.csv", header, csv_rows, prov)
        _write_json(outdir / "sweep.json", {"rows": rows}, prov)
        return 0

    if not (args.histogram and args.sidecar):
        raise ConfigError("analyze needs --histogram and --sidecar (or --batch)")
    hist, det = TimeHistogram.from_csv(args.histogram, args.sidecar)
    detector = _detector_fwhm(args, det)
    report = _analysis_payload(Path(args.histogram).stem, hist, detector)
    prov = _provenance([args.histogram, args.sidecar], {"detector_fwhm": detector})
    _write_json(outdir / "analysis.json", report, prov)
    return 0


def _cmd_bound(args) -> int:
    cfg = read_json(args.config)
    what = "bound config"
    contrast = field(cfg, "R", float, what)
    n_teeth = field(cfg, "N", int, what)
    p1 = field(cfg, "P1", float, what)
    p2 = field(cfg, "P2", float, what)
    sigma = field(cfg, "sigma_R", float, what, 0.0)
    payload = _bound_payload(contrast, sigma, n_teeth, p1, p2)
    outdir = Path(args.out)
    prov = _provenance([args.config], cfg)
    _write_json(outdir / "bound.json", payload, prov)
    if args.curve:
        depths = np.unique(np.linspace(1, n_teeth, 25).astype(int)).tolist()
        rows = bound_curve(n_teeth, p1, p2, depths)
        _write_csv(outdir / "bound_curve.csv", ["depth", "max_contrast"], rows, prov)
    return 0


def _cmd_atoms(args) -> int:
    material = load_material_config(args.config) if args.config else TM_LINBO3
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
    prov = _provenance([args.config] if args.config else [], {"theta_t": args.theta_t})
    _write_json(Path(args.out) / "atoms.json", payload, prov)
    return 0


def _cmd_pipeline(args) -> int:
    cfg = read_json(args.config)
    base = Path(args.config).parent
    what = "pipeline config"
    channel_path = base / field(cfg, "channel_config", str, what)
    hist_cfg = field(cfg, "histogram", dict, what)
    n_teeth = field(cfg, "n_teeth", int, what)
    for key in ("subtract_background", "deconvolve"):
        if not field(cfg, key, bool, what, True):
            raise ConfigError(f"pipeline certifies the deconvolved contrast, so '{key}' "
                              "cannot be false (run bound with R = r_raw for the raw one)")
    csv_path = base / field(hist_cfg, "csv", str, "pipeline histogram")
    sidecar_path = base / field(hist_cfg, "sidecar", str, "pipeline histogram")
    prov = _provenance([args.config, channel_path, csv_path, sidecar_path], cfg)

    channel, stats_model = load_channel_config(channel_path)
    pstats = _pstats_payload(channel, stats_model)
    hist, detector = TimeHistogram.from_csv(csv_path, sidecar_path)
    analysis = _analysis_payload(csv_path.stem, hist, detector)
    bound = _bound_payload(analysis["r"], analysis["sigma"], n_teeth,
                           pstats["p1"], pstats["p2"])

    stages = {"pstats": pstats, "analysis": analysis, "bound": bound}
    outdir = Path(args.out)
    for name, payload in stages.items():
        _write_json(outdir / f"{name}.json", payload, prov)
    _write_json(outdir / "pipeline.json", stages, prov)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afcdepth",
        description="Entanglement-depth certification from comb echo data")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_sim = sub.add_parser("simulate", help="emission traces and contrast sweeps")
    p_sim.add_argument("--config", required=True)
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
    p_ps.set_defaults(func=_cmd_pstats)

    p_an = sub.add_parser("analyze", help="echo contrast from histograms")
    p_an.add_argument("--histogram", help="CSV of (bin_start_s, counts)")
    p_an.add_argument("--sidecar", help="JSON metadata for the histogram")
    p_an.add_argument("--batch", help="manifest JSON for a sweep")
    p_an.add_argument("--detector-fwhm", type=float, default=None,
                      help="detector jitter FWHM in s (default: each sidecar's)")
    p_an.set_defaults(func=_cmd_analyze)

    p_bd = sub.add_parser("bound", help="certify an entanglement-depth lower bound")
    p_bd.add_argument("--config", required=True,
                      help="JSON with R, sigma_R, N, P1, P2")
    p_bd.add_argument("--curve", action="store_true",
                      help="also write a (depth, max contrast) curve")
    p_bd.set_defaults(func=_cmd_bound)

    p_at = sub.add_parser("atoms", help="atoms-per-tooth estimators")
    p_at.add_argument("--config", default=None, help="material key-value file")
    p_at.add_argument("--theta-t", type=float, required=True,
                      help="Hz-integrated tooth depth")
    p_at.add_argument("--theta-i", type=float, default=None)
    p_at.add_argument("--d1", type=float, default=None)
    p_at.add_argument("--finesse", type=float, default=None)
    p_at.set_defaults(func=_cmd_atoms)

    p_pl = sub.add_parser("pipeline", help="pstats -> analyze -> bound")
    p_pl.add_argument("--config", required=True)
    p_pl.set_defaults(func=_cmd_pipeline)

    for p in sub.choices.values():
        p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ToolkitError, FileNotFoundError, ValueError, ArithmeticError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, FileNotFoundError)) else 1


if __name__ == "__main__":
    raise SystemExit(main())
