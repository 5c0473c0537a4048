"""Echo-contrast extraction from measured detection-time histograms.

The contrast is the ratio of the fitted echo peak amplitude E to the average
counts A over one storage period centred on the echo.  Corrections: subtract
the uncorrelated background (estimated from pre-herald bins) from A, and
rescale E for Gaussian detector jitter, E' = E * sqrt(dt_p^2/(dt_p^2-dt_D^2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

from ._inputs import field, read_json, read_table
from .errors import ConfigError, DeconvolutionError, LowSignalError, ToolkitError

DETECTOR_FWHM_DEFAULT = 354e-12

_FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))
_MIN_BACKGROUND_BINS = 50


@dataclass(frozen=True)
class TimeHistogram:
    """Binned detection counts versus delay, with the herald reference bin."""

    bin_width: float
    counts: np.ndarray
    herald_index: int
    storage_time: float

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if not np.issubdtype(counts.dtype, np.integer):
            if np.any(counts != np.round(counts)):
                raise ValueError("counts must be integers")
            counts = counts.astype(np.int64)
        object.__setattr__(self, "counts", counts)
        if self.bin_width <= 0:
            raise ValueError("bin_width must be positive")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        if not 0 <= self.herald_index < counts.size:
            raise ValueError("herald_index outside histogram")
        if self.storage_time / self.bin_width < 10:
            raise ValueError("need at least 10 bins per storage period")

    @property
    def times(self) -> np.ndarray:
        """Bin-centre times."""
        return (np.arange(self.counts.size) + 0.5) * self.bin_width

    @property
    def herald_time(self) -> float:
        return (self.herald_index + 0.5) * self.bin_width

    @classmethod
    def from_csv(cls, csv_path, sidecar_path):
        """Load counts from CSV (bin_start_s, counts) plus a JSON sidecar.

        The bin starts must be i * bin_width of the sidecar, to 1e-9 relative
        (and 1e-9 of a bin at i = 0); a mismatch means the two files do not
        belong together.
        """
        data = read_table(csv_path, ("bin_start_s", "counts"), delimiter=",")
        meta = read_json(sidecar_path)
        what = f"{sidecar_path}: sidecar"
        bin_width = field(meta, "bin_width", float, what)
        herald_index = field(meta, "herald_index", int, what)
        storage_time = field(meta, "storage_time", float, what)
        detector_fwhm = field(meta, "detector_fwhm", float, what, DETECTOR_FWHM_DEFAULT)
        expected = np.arange(data.shape[0]) * bin_width
        if not np.allclose(data[:, 0], expected, rtol=1e-9, atol=1e-9 * bin_width):
            raise ConfigError(f"{csv_path}: bin starts are not multiples of the "
                              f"sidecar's bin_width {bin_width!r}")
        hist = cls(bin_width=bin_width,
                   counts=np.round(data[:, 1]).astype(np.int64),
                   herald_index=herald_index, storage_time=storage_time)
        return hist, detector_fwhm


@dataclass(frozen=True)
class BackgroundEstimate:
    rate: float
    stderr: float
    n_bins: int


@dataclass(frozen=True)
class EchoFit:
    """Gaussian + offset fit of the echo plus the window average."""

    amplitude: float
    t0: float
    fwhm: float
    offset: float
    background: float
    background_se: float
    window_average: float
    window_average_se: float
    covariance: np.ndarray


def estimate_background(hist: TimeHistogram) -> BackgroundEstimate:
    """Mean counts per bin before the herald; uncorrelated noise floor.

    Needs at least 50 pre-herald bins.  The standard error assumes Poisson
    counting statistics.
    """
    n = hist.herald_index
    if n < _MIN_BACKGROUND_BINS:
        raise ValueError(f"need >= {_MIN_BACKGROUND_BINS} pre-herald bins, have {n}")
    window = hist.counts[:n]
    rate = float(window.mean())
    return BackgroundEstimate(rate=rate, stderr=math.sqrt(max(rate, 0.0) / n), n_bins=n)


def _gauss_offset(t, amplitude, t0, fwhm, offset):
    return amplitude * np.exp(-4.0 * math.log(2.0) * (t - t0) ** 2 / fwhm**2) + offset


def fit_echo(hist: TimeHistogram) -> EchoFit:
    """Weighted least-squares Gaussian fit of the echo region.

    The fit window is one storage period centred on herald + storage time.
    Weights are Poisson; the variance is taken at the fitted model in a
    second pass (weighting by observed counts biases the width low at tens
    of counts per bin, which the deconvolution factor then amplifies).  When several
    local maxima fall in the window, the one nearest the expected echo time
    seeds the fit.  Raises LowSignalError when the fit fails or the
    amplitude is below three standard errors.
    """
    t_expect = hist.herald_time + hist.storage_time
    t_lo = t_expect - 0.5 * hist.storage_time
    t_hi = t_expect + 0.5 * hist.storage_time
    times = hist.times
    sel = (times >= t_lo) & (times <= t_hi)
    if sel.sum() < 8:
        raise ValueError("fit window covers fewer than 8 bins")
    t = times[sel]
    y = hist.counts[sel].astype(float)
    sigma = np.sqrt(np.maximum(y, 1.0))

    # seed at the prominent local maximum nearest the expected echo time
    offset0 = float(np.median(y))
    prominence = max(3.0 * math.sqrt(max(offset0, 1.0)), 1.0)
    interior = np.arange(1, y.size - 1)
    local_max = interior[(y[interior] >= y[interior - 1])
                         & (y[interior] >= y[interior + 1])
                         & (y[interior] > offset0 + prominence)]
    if local_max.size:
        seed_idx = int(local_max[np.argmin(np.abs(t[local_max] - t_expect))])
    else:
        seed_idx = int(np.argmax(y))
    amp0 = max(float(y[seed_idx] - offset0), 1.0)
    # seed width from the contiguous half-maximum extent around the peak
    half = offset0 + amp0 / 2.0
    lo_i = seed_idx
    while lo_i > 0 and y[lo_i - 1] > half:
        lo_i -= 1
    hi_i = seed_idx
    while hi_i < y.size - 1 and y[hi_i + 1] > half:
        hi_i += 1
    fwhm0 = max((hi_i - lo_i + 1) * hist.bin_width, 2.0 * hist.bin_width)
    p0 = [amp0, float(t[seed_idx]), fwhm0, offset0]

    # fit in units of bin_width: second-scale widths (~1e-10) sit far below
    # curve_fit's absolute step tolerance next to count-scale amplitudes
    bw = hist.bin_width
    tau = t / bw
    p0_s = [p0[0], p0[1] / bw, p0[2] / bw, p0[3]]
    bounds = ([0.0, t_lo / bw, 0.5, 0.0],
              [np.inf, t_hi / bw, (t_hi - t_lo) / bw, np.inf])
    try:
        popt, pcov = curve_fit(_gauss_offset, tau, y, p0=p0_s, sigma=sigma,
                               absolute_sigma=True, bounds=bounds, maxfev=20000)
        model_sigma = np.sqrt(np.maximum(_gauss_offset(tau, *popt), 1.0))
        popt, pcov = curve_fit(_gauss_offset, tau, y, p0=popt, sigma=model_sigma,
                               absolute_sigma=True, bounds=bounds, maxfev=20000)
    except (RuntimeError, ValueError) as exc:
        raise LowSignalError(f"echo fit did not converge: {exc}") from None
    unit = np.array([1.0, bw, bw, 1.0])
    popt = popt * unit
    pcov = pcov * np.outer(unit, unit)
    amplitude, t0, fwhm, offset = (float(v) for v in popt)
    amp_se = math.sqrt(max(pcov[0, 0], 0.0))
    if not np.isfinite(amp_se) or amplitude < 3.0 * amp_se:
        raise LowSignalError(
            f"echo amplitude {amplitude:.3g} below 3 sigma ({amp_se:.3g})")

    # window average A over one storage period centred on the fitted peak,
    # echo bins included
    avg_sel = (times >= t0 - hist.storage_time / 2.0) & \
        (times < t0 + hist.storage_time / 2.0)
    window_counts = hist.counts[avg_sel]
    window_average = float(window_counts.mean())
    window_average_se = math.sqrt(max(window_average, 0.0) / window_counts.size)

    try:
        bg = estimate_background(hist)
        background, background_se = bg.rate, bg.stderr
    except ValueError:
        background, background_se = offset, amp_se  # no usable pre-herald window

    return EchoFit(amplitude=amplitude, t0=t0, fwhm=fwhm, offset=offset,
                   background=background, background_se=background_se,
                   window_average=window_average,
                   window_average_se=window_average_se, covariance=pcov)


def deconvolution_factor(fwhm_echo: float, fwhm_detector: float) -> float:
    """Amplitude correction sqrt(dt_p^2 / (dt_p^2 - dt_D^2)) for jitter."""
    if not (math.isfinite(fwhm_detector) and fwhm_detector >= 0):
        raise ValueError("detector fwhm must be non-negative and finite")
    if not fwhm_echo > fwhm_detector:
        raise DeconvolutionError(
            f"fitted echo fwhm {fwhm_echo:.3g}s not above detector "
            f"response {fwhm_detector:.3g}s")
    return math.sqrt(fwhm_echo**2 / (fwhm_echo**2 - fwhm_detector**2))


def echo_contrast(fit: EchoFit, subtract_background: bool = False,
                  deconvolve: bool = False,
                  detector_fwhm: float = DETECTOR_FWHM_DEFAULT):
    """Contrast R = E'/A' with the selected corrections; returns (R, sigma_R).

    A' = A - background when subtracting; E' = E * deconvolution factor when
    deconvolving.  sigma_R comes from first-order propagation of the fit
    covariance (amplitude and width), the window-average counting error, and
    the background error; amplitude-average correlations are neglected.
    """
    amp = fit.amplitude
    amp_var = float(fit.covariance[0, 0])
    a_val = fit.window_average
    a_var = fit.window_average_se**2
    if subtract_background:
        a_val = a_val - fit.background
        a_var = a_var + fit.background_se**2
    if a_val <= 0:
        raise ValueError("non-positive window average after correction")

    factor = 1.0
    dfactor_dfwhm = 0.0
    if deconvolve:
        factor = deconvolution_factor(fit.fwhm, detector_fwhm)
        dfactor_dfwhm = -factor * detector_fwhm**2 / (
            fit.fwhm * (fit.fwhm**2 - detector_fwhm**2))

    ratio = amp * factor / a_val
    # d(R)/d(amp), d(R)/d(fwhm) with their fit covariance, plus the average
    d_amp = factor / a_val
    d_fwhm = amp * dfactor_dfwhm / a_val
    fwhm_var = float(fit.covariance[2, 2])
    cross = float(fit.covariance[0, 2])
    var = (d_amp**2 * amp_var + d_fwhm**2 * fwhm_var + 2.0 * d_amp * d_fwhm * cross
           + (ratio / a_val) ** 2 * a_var)
    return ratio, math.sqrt(max(var, 0.0))


def analyze_echo(hist: TimeHistogram, detector_fwhm: float = DETECTOR_FWHM_DEFAULT):
    """Fit the echo and report its raw, background-subtracted and deconvolved contrast.

    Returns one dict: the fit (amplitude, t0, fwhm, offset, background,
    window_average) plus ``r_<kind>`` and ``sigma_<kind>`` for kind = raw,
    subtracted and deconvolved.  Raises when any of the three fails, e.g.
    DeconvolutionError when the echo is not wider than the detector response.
    """
    fit = fit_echo(hist)
    record = {"amplitude": fit.amplitude, "t0": fit.t0, "fwhm": fit.fwhm,
              "offset": fit.offset, "background": fit.background,
              "window_average": fit.window_average}
    for kind, subtract, deconvolve in (("raw", False, False), ("subtracted", True, False),
                                       ("deconvolved", True, True)):
        record[f"r_{kind}"], record[f"sigma_{kind}"] = echo_contrast(
            fit, subtract_background=subtract, deconvolve=deconvolve,
            detector_fwhm=detector_fwhm)
    return record


def contrast_sweep(items, detector_fwhm: float = DETECTOR_FWHM_DEFAULT):
    """``analyze_echo`` over (label, TimeHistogram) pairs.

    Emits one dict per histogram, ``{"label": ...}`` plus its record.  A row
    whose histogram the chain rejects (a ToolkitError, ValueError or
    ArithmeticError) gets an 'error' field instead and the sweep continues;
    any other exception is a fault and propagates.
    """
    rows = []
    for label, hist in items:
        row = {"label": label}
        try:
            row.update(analyze_echo(hist, detector_fwhm))
        except (ToolkitError, ValueError, ArithmeticError) as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows
