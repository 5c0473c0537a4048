"""Single-excitation amplitudes over comb teeth and their echo contrast.

Each tooth is a two-level system; a stored excitation is described by complex
amplitudes c_j over the teeth (the single-excitation sector), with vacuum
carrying the remaining weight.  ``echosim.absorb`` builds them from a comb
and a photon spectrum.  The echo contrast of such a state is
|sum_j c_j|^2 / sum_j |c_j|^2, which reaches the tooth count N only for the
fully symmetric (W) state.

Everything here works on the N amplitudes of the single-excitation sector;
nothing builds 2^M state vectors or matrices (the dense S+S- oracle that
checks the sector algebra lives with the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class ToothAmplitudes:
    """Complex amplitudes of a single stored excitation over N teeth.

    The total weight sum |c_j|^2 may be below one; the remainder is vacuum.
    """

    c: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.c, dtype=complex).ravel()
        object.__setattr__(self, "c", arr)
        if arr.size < 1:
            raise ValueError("need at least one tooth amplitude")
        weight = float(np.sum(np.abs(arr) ** 2))
        if weight > 1.0 + _NORM_TOL:
            raise ValueError(f"excitation weight {weight} exceeds 1")

    @property
    def n_teeth(self) -> int:
        return self.c.size

    @property
    def excitation_weight(self) -> float:
        return float(np.sum(np.abs(self.c) ** 2))


def _amplitudes(c) -> np.ndarray:
    if isinstance(c, ToothAmplitudes):
        return c.c
    return np.asarray(c, dtype=complex).ravel()


def single_excitation_contrast(c) -> float:
    """Echo contrast |sum_j c_j|^2 / sum_j |c_j|^2 of a single-excitation state.

    Permutation invariant, bounded by the number of non-zero amplitudes, and
    equal to N exactly when all amplitudes match in modulus and phase.
    """
    amps = _amplitudes(c)
    denom = float(np.sum(np.abs(amps) ** 2))
    if denom <= 0.0:
        raise ValueError("no excitation: all amplitudes are zero")
    return float(np.abs(np.sum(amps)) ** 2 / denom)

