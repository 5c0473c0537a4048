"""Atoms-per-tooth estimators and related material bookkeeping.

Two complementary estimates: one scales the total atom number in the beam by
the tooth's share of the integrated absorption spectrum; the other divides
the tooth's integrated depth by the optical depth of a single ion.

Units: lengths in cm, areas in cm^2, densities in 1/cm^3, frequencies and
linewidths in Hz.  Conversions happen only at this module's boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from scipy.constants import c as _C_M_PER_S

from ._inputs import read_key_values

_C_CM_PER_S = _C_M_PER_S * 100.0


@dataclass(frozen=True)
class MaterialParams:
    """Host-crystal and transition constants for the tooth-size estimators."""

    n_d: float            # atom number density, 1/cm^3
    n: float              # refractive index
    gamma_h: float        # homogeneous linewidth, Hz
    gamma_s: float        # spontaneous emission rate, Hz
    alpha_integral: float  # integrated absorption coefficient, 1/cm^2
    length: float         # crystal length, cm
    area: float           # beam cross-section, cm^2
    nu: float             # transition frequency, Hz

    def __post_init__(self):
        for name in ("n_d", "n", "gamma_h", "gamma_s", "alpha_integral",
                     "length", "area", "nu"):
            val = getattr(self, name)
            if not math.isfinite(val) or val <= 0:
                raise ValueError(f"{name}={val} must be positive and finite")
        if self.gamma_h < self.gamma_s:
            raise ValueError("homogeneous linewidth below the radiative rate")

    @property
    def integrated_depth(self) -> float:
        """Full-line integrated absorption L * c * integral(alpha dsigma), Hz."""
        return self.length * _C_CM_PER_S * self.alpha_integral


# Tm:LiNbO3 defaults for the 795 nm transition; beam area from a collimated
# Gaussian beam of 80 um half-width at half maximum intensity.
TM_LINBO3 = MaterialParams(
    n_d=1.89e19,
    n=2.256,
    gamma_h=10e3,
    gamma_s=2.6e3,
    alpha_integral=497.0,
    length=0.68,
    area=math.pi * (80e-4) ** 2,
    nu=_C_M_PER_S / 795e-9,
)


def atoms_per_tooth_from_absorption(mat: MaterialParams, theta_t: float,
                                    theta_i: float | None = None) -> float:
    """Atoms in one tooth from the tooth's share of the absorption spectrum.

    N_t = n_d * L * A * (Theta_t / Theta_i) with Theta_t the Hz-integrated
    tooth depth and Theta_i the full-line value (defaults to the material's).
    """
    if not (math.isfinite(theta_t) and theta_t >= 0):
        raise ValueError("theta_t must be non-negative and finite")
    if theta_i is None:
        theta_i = mat.integrated_depth
    if not (math.isfinite(theta_i) and theta_i > 0):
        raise ValueError("theta_i must be positive and finite")
    return mat.n_d * mat.length * mat.area * (theta_t / theta_i)


def single_ion_depth(mat: MaterialParams) -> float:
    """Optical depth contributed by one ion of homogeneous linewidth gamma_h.

    d_atom = (n^2+2)^2 / (72 pi^2 n A sigma^2) * (gamma_s / gamma_h) with
    sigma = nu/c the vacuum wavenumber and the (n^2+2)^2 local-field factor.
    """
    sigma = mat.nu / _C_CM_PER_S
    local_field = (mat.n**2 + 2.0) ** 2
    return local_field / (72.0 * math.pi**2 * mat.n * mat.area * sigma**2) \
        * (mat.gamma_s / mat.gamma_h)


def atoms_per_tooth_from_single_ion(mat: MaterialParams, theta_t: float) -> float:
    """Atoms in one tooth from single-ion spectroscopy: Theta_t/(gamma_h d_atom)."""
    if not (math.isfinite(theta_t) and theta_t >= 0):
        raise ValueError("theta_t must be non-negative and finite")
    return theta_t / (mat.gamma_h * single_ion_depth(mat))


_MATERIAL_KEYS = {
    "n_d", "n", "gamma_h", "gamma_s", "alpha_integral", "length", "area", "nu",
}


def load_material_config(path) -> MaterialParams:
    """Key-value material file; unspecified keys fall back to the preset."""
    return replace(TM_LINBO3, **read_key_values(path, _MATERIAL_KEYS))
