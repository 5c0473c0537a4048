"""Entanglement-depth certification toolkit for comb-based photon echoes."""

__version__ = "0.1.0"

from .dicke import ToothAmplitudes, single_excitation_contrast
from .depthbound import (BoundProblem, DepthBoundResult, MixedBlockState,
                         bound_curve, certify_depth, linear_bound, max_contrast)
from .echoanalysis import (EchoFit, TimeHistogram, analyze_echo, contrast_sweep,
                           deconvolution_factor, echo_contrast,
                           estimate_background, fit_echo)
from .echosim import (CombSpec, EmissionTrace, PhotonSpectrum, absorb,
                      emission_trace, load_comb_trace, simulated_contrast,
                      sweep_contrast_vs_teeth)
from .photonstats import (ChannelModel, ExcitationProbabilities,
                          estimate_mu_from_g2, excitation_probabilities,
                          write_efficiency)
from .spectroscopy import (TM_LINBO3, MaterialParams,
                           atoms_per_tooth_from_absorption,
                           atoms_per_tooth_from_single_ion)

__all__ = [
    "__version__",
    "ToothAmplitudes", "single_excitation_contrast",
    "CombSpec", "PhotonSpectrum", "EmissionTrace", "absorb", "emission_trace",
    "simulated_contrast", "sweep_contrast_vs_teeth", "load_comb_trace",
    "ChannelModel", "ExcitationProbabilities",
    "excitation_probabilities", "estimate_mu_from_g2", "write_efficiency",
    "BoundProblem", "MixedBlockState", "DepthBoundResult", "max_contrast",
    "linear_bound", "certify_depth", "bound_curve",
    "TimeHistogram", "EchoFit", "estimate_background", "fit_echo",
    "echo_contrast", "deconvolution_factor", "analyze_echo", "contrast_sweep",
    "MaterialParams", "TM_LINBO3", "atoms_per_tooth_from_absorption",
    "atoms_per_tooth_from_single_ion",
]
