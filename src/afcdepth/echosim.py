"""Time-domain simulator of comb absorption and echo re-emission.

A comb of N teeth spaced by angular frequency Delta absorbs a photon into
tooth amplitudes c_j; free evolution rephases the teeth at echo times
t = k * 2*pi/Delta.  Finite tooth linewidth dephases irreversibly, modelled
analytically through the Fourier envelope of the tooth lineshape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._inputs import read_table
from .dicke import ToothAmplitudes

TOOTH_SHAPES = ("gaussian", "lorentzian", "square")
PHOTON_SHAPES = ("lorentzian", "flat")

# Gaussian lineshape of FWHM gamma dephases as exp(-(pi*gamma*t)^2 / (4 ln 2)).
_GAUSS_ENVELOPE_CONST = 1.0 / (4.0 * math.log(2.0))

DEFAULT_SAMPLES_PER_PERIOD = 10_000


@dataclass(frozen=True)
class CombSpec:
    """Spectral description of a comb: tooth count, spacing, width, depths.

    delta is the angular tooth spacing (rad/s); gamma the tooth FWHM in Hz;
    d1/d0 the peak-to-peak and background optical depths; bandwidth in Hz.
    """

    n_teeth: int
    delta: float
    gamma: float
    d1: float
    d0: float
    bandwidth: float
    tooth_shape: str = "gaussian"

    def __post_init__(self):
        if self.n_teeth < 1:
            raise ValueError("n_teeth must be >= 1")
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError("delta must be positive and finite")
        if not all(math.isfinite(x) and x >= 0 for x in (self.gamma, self.d1, self.d0)):
            raise ValueError("gamma, d1, d0 must be non-negative and finite")
        if self.tooth_shape not in TOOTH_SHAPES:
            raise ValueError(f"tooth_shape must be one of {TOOTH_SHAPES}")
        n_implied = round(self.bandwidth * 2.0 * math.pi / self.delta)
        if n_implied != self.n_teeth:
            raise ValueError(
                f"bandwidth/delta imply {n_implied} teeth, got {self.n_teeth}"
            )
        if self.gamma > 0 and self.finesse <= 1.0:
            raise ValueError("teeth are not resolved: finesse must exceed 1")

    @classmethod
    def from_bandwidth(cls, n_teeth, bandwidth, finesse=math.inf, d1=1.0, d0=0.0,
                       tooth_shape="gaussian"):
        """Build a comb from tooth count and bandwidth; gamma set by finesse."""
        delta = 2.0 * math.pi * bandwidth / n_teeth
        gamma = 0.0 if math.isinf(finesse) else (delta / (2.0 * math.pi)) / finesse
        return cls(n_teeth, delta, gamma, d1, d0, bandwidth, tooth_shape)

    @property
    def tooth_spacing_hz(self) -> float:
        return self.delta / (2.0 * math.pi)

    @property
    def finesse(self) -> float:
        if self.gamma == 0:
            return math.inf
        return self.tooth_spacing_hz / self.gamma

    @property
    def echo_time(self) -> float:
        return 2.0 * math.pi / self.delta


@dataclass(frozen=True)
class PhotonSpectrum:
    """Spectral density of the input photon relative to the comb centre."""

    shape: str = "flat"
    fwhm: float = 0.0
    center_offset: float = 0.0

    def __post_init__(self):
        if self.shape not in PHOTON_SHAPES:
            raise ValueError(f"shape must be one of {PHOTON_SHAPES}")
        if not math.isfinite(self.fwhm) or (self.shape != "flat" and self.fwhm <= 0):
            raise ValueError("fwhm must be positive and finite")
        if not math.isfinite(self.center_offset):
            raise ValueError("center_offset must be finite")

    def density(self, freq_hz) -> np.ndarray:
        f = np.asarray(freq_hz, dtype=float)
        if self.shape == "flat":
            return np.ones_like(f)
        half = self.fwhm / 2.0
        return half / (np.pi * ((f - self.center_offset) ** 2 + half**2))


@dataclass(frozen=True)
class EmissionTrace:
    """Relative re-emission probability p(t) on a time grid."""

    times: np.ndarray
    p: np.ndarray
    t_echo: float


def tooth_frequencies(comb: CombSpec) -> np.ndarray:
    """Tooth centre frequencies in Hz, relative to the comb centre."""
    j = np.arange(comb.n_teeth, dtype=float)
    return (j - (comb.n_teeth - 1) / 2.0) * comb.tooth_spacing_hz


def absorb(comb: CombSpec, photon: PhotonSpectrum) -> ToothAmplitudes:
    """Tooth amplitudes created by absorbing one photon.

    c_j is proportional to the square root of the photon spectral density at
    the tooth centre, normalised to unit excitation weight.  Every tooth
    absorbs with the same probability 1 - exp(-d1), which cancels in the
    normalisation; d1 = 0 absorbs nothing.  Uniform illumination of
    identical teeth gives the symmetric state.
    """
    weights = photon.density(tooth_frequencies(comb))
    total = weights.sum()
    if comb.d1 == 0 or total <= 0:
        raise ValueError("comb absorbs nothing: zero absorption weight")
    return ToothAmplitudes(np.sqrt(weights / total).astype(complex))


def dephasing_envelope(comb: CombSpec, t) -> np.ndarray:
    """Amplitude envelope D(t): Fourier transform of the tooth lineshape."""
    t = np.asarray(t, dtype=float)
    if comb.gamma == 0:
        return np.ones_like(t)
    if comb.tooth_shape == "gaussian":
        return np.exp(-((np.pi * comb.gamma * t) ** 2) * _GAUSS_ENVELOPE_CONST)
    if comb.tooth_shape == "lorentzian":
        return np.exp(-np.pi * comb.gamma * np.abs(t))
    return np.sinc(comb.gamma * t)  # square tooth of full width gamma


def emission_probability(c, comb: CombSpec, t) -> np.ndarray:
    """p(t) = |sum_j c_j D(t) exp(i j Delta t)|^2 on arbitrary times."""
    amps = c.c if isinstance(c, ToothAmplitudes) else np.asarray(c, dtype=complex)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    j = np.arange(amps.size)
    field = np.exp(1j * np.outer(t, j) * comb.delta) @ amps
    return np.abs(dephasing_envelope(comb, t) * field) ** 2


def emission_trace(c, comb: CombSpec, t_grid) -> EmissionTrace:
    """Evaluate the re-emission probability on a sorted time grid."""
    t = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t) < 0):
        raise ValueError("t_grid must be sorted ascending")
    return EmissionTrace(times=t, p=emission_probability(c, comb, t), t_echo=comb.echo_time)


def simulated_contrast(c, comb: CombSpec) -> float:
    """Echo contrast: peak p at the first echo over the one-period average.

    The average is the trapezoid rule with S = ``DEFAULT_SAMPLES_PER_PERIOD``
    intervals over the period T = 2 pi/Delta centred on the echo, t_m =
    T/2 + m T/S for m = 0..S; doubling S moves the result by well under
    0.1% for resolved combs.  It is evaluated spectrally, in
    O(S log S + N log N) instead of O(S N):

    * p(t) = D(t)^2 sum_k a_k exp(i k Delta t), |k| < N, where
      a_k = sum_l c_(l+k) conj(c_l) is the autocorrelation of the tooth
      amplitudes (Wiener-Khinchin: one zero-padded FFT of c);
    * the rule is then sum_k a_k I_k, I_k being the same S-point trapezoid
      sum of D(t)^2 exp(i k Delta t) / S;
    * Delta t_m = pi + 2 pi m/S, so exp(i k Delta t_m) = (-1)^k
      exp(2 pi i k m/S) and the end point m = S carries the phase of m = 0.
      Folding its half weight onto the start gives the weights g_0 =
      (D_0^2 + D_S^2)/2, g_m = D_m^2, and I_k = (-1)^k ifft(g)[k mod S].

    Indexing by k mod S is exact, not an approximation, so this is the
    dense trapezoid's value for every S, including S < 2N where the rule
    aliases tooth pairs onto each other.  Measured against the dense rule
    up to N = 564: 5e-15 relative unaliased, 1e-13 aliased (rounding).
    """
    t_e = comb.echo_time
    amps = c.c if isinstance(c, ToothAmplitudes) else np.asarray(c, dtype=complex)
    n = amps.size
    size = 1 << (2 * n - 1).bit_length()  # >= 2N - 1: no wrap-around
    spectrum = np.fft.fft(amps, size)
    autocorr = np.fft.ifft(spectrum.real**2 + spectrum.imag**2)
    d_sq = dephasing_envelope(
        comb, np.linspace(0.5 * t_e, 1.5 * t_e, DEFAULT_SAMPLES_PER_PERIOD + 1)) ** 2
    weights = d_sq[:-1].copy()
    weights[0] = 0.5 * (d_sq[0] + d_sq[-1])
    k = np.arange(1 - n, n)
    integrals = np.fft.ifft(weights)[k % DEFAULT_SAMPLES_PER_PERIOD]
    sign = 1.0 - 2.0 * (k & 1)
    mean = float(np.sum(autocorr[k % size] * sign * integrals).real)
    if mean <= 0:
        raise ValueError("zero period-averaged emission")
    peak = float(emission_probability(amps, comb, t_e)[0])
    return peak / mean


def sweep_contrast_vs_teeth(combs, photon: PhotonSpectrum):
    """Simulated contrast for each comb, as rows (n_teeth, contrast) sorted by N."""
    rows = []
    for comb in combs:
        amps = absorb(comb, photon)
        rows.append((comb.n_teeth, simulated_contrast(amps, comb)))
    rows.sort(key=lambda row: row[0])
    return rows


def load_comb_trace(path, tooth_shape: str = "gaussian") -> CombSpec:
    """Fit a CombSpec to a measured two-column trace (frequency_Hz, optical_depth).

    Deterministic peak detection: d0 = trace minimum, d1 = max - d0, peaks are
    strict local maxima above d0 + 0.5*d1.  Tooth spacing from the median peak
    separation, gamma from the median half-maximum width.
    """
    data = read_table(path, ("frequency_Hz", "optical_depth"))
    freq, od = data[:, 0], data[:, 1]
    order = np.argsort(freq)
    freq, od = freq[order], od[order]
    d0 = float(od.min())
    d1 = float(od.max() - d0)
    if d1 <= 0:
        raise ValueError("flat trace: no comb structure")
    threshold = d0 + 0.5 * d1
    interior = np.arange(1, od.size - 1)
    is_peak = (od[interior] > od[interior - 1]) & (od[interior] >= od[interior + 1]) \
        & (od[interior] > threshold)
    peaks = interior[is_peak]
    if peaks.size < 2:
        raise ValueError("fewer than two teeth found in trace")
    spacing = float(np.median(np.diff(freq[peaks])))

    widths = []
    for p in peaks:
        height = od[p] - d0
        half = d0 + height / 2.0
        lo = p
        while lo > 0 and od[lo] > half:
            lo -= 1
        hi = p
        while hi < od.size - 1 and od[hi] > half:
            hi += 1
        f_lo = np.interp(half, [od[lo], od[lo + 1]], [freq[lo], freq[lo + 1]])
        f_hi = np.interp(half, [od[hi], od[hi - 1]], [freq[hi], freq[hi - 1]])
        widths.append(f_hi - f_lo)
    gamma = float(np.median(widths))

    n_teeth = int(peaks.size)
    delta = 2.0 * math.pi * spacing
    return CombSpec(n_teeth=n_teeth, delta=delta, gamma=gamma, d1=d1, d0=d0,
                    bandwidth=n_teeth * spacing, tooth_shape=tooth_shape)
