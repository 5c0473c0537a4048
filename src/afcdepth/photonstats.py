"""Absorbed-excitation statistics of a heralded down-conversion source.

Models the chain: thermal (or Poisson) pair generation with mean pair number
mu per mode, heralding by a non-number-resolving detector of efficiency
eta_a, loss into the comb (eta_b), absorption (eta_w), and conditioning on no
click behind the comb (transmission-detection efficiency eta_t).  The result
is the probability P_r that exactly r photons were absorbed, in closed form
from the generating function of the pair-number distribution.

Also hosts the channel-config reader, the 1/g2 estimate of mu and the
write efficiency from the comb's optical depth.  The closed form is
cross-checked against the pair-number series and a Monte-Carlo simulation
of the same channel, both of which live with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._inputs import read_key_values
from .errors import ConfigError


@dataclass(frozen=True)
class ChannelModel:
    """Source mean pair number and the loss/detection efficiencies."""

    mu: float
    eta_a: float
    eta_b: float
    eta_w: float
    eta_t: float

    def __post_init__(self):
        if not math.isfinite(self.mu) or self.mu <= 0:
            raise ValueError("mu must be positive and finite")
        for name in ("eta_a", "eta_b", "eta_w", "eta_t"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name}={val} outside [0, 1]")

    @property
    def absorbed_fraction(self) -> float:
        """Per-photon absorption probability eta_b * eta_w."""
        return self.eta_b * self.eta_w

    @property
    def survival_z2(self) -> float:
        """Weight Z^2 of the undetected loss modes (pre-comb loss and
        post-comb loss without a detector click)."""
        return self.eta_b * (1.0 - self.eta_w) * (1.0 - self.eta_t) + (1.0 - self.eta_b)


@dataclass(frozen=True)
class ExcitationProbabilities:
    """P_r for r = 0..r_max plus the probability mass above r_max."""

    p: np.ndarray
    truncation_error: float

    def __getitem__(self, r: int) -> float:
        return float(self.p[r])

    @property
    def r_max(self) -> int:
        return self.p.size - 1


def excitation_probabilities(ch: ChannelModel, r_max: int = 4,
                             stats_model: str = "thermal") -> ExcitationProbabilities:
    """P_r that exactly r photons sit in the comb, r = 0..r_max.

    Each of n pair photons in the comb arm is absorbed (a = eta_b eta_w),
    lost undetected (z = Z^2) or detected behind the comb; the herald fires
    with probability 1 - (1 - eta_a)^n.  Given a herald click and no click
    behind the comb,

        P_r = sum_n p_n [1 - (1-eta_a)^n] C(n, r) a^r z^(n-r)
              / sum_n p_n [1 - (1-eta_a)^n] (a + z)^n,

    summed in closed form by the generating function of the thermal or
    Poisson p_n, with the differences written through log1p/expm1 so that
    no digits cancel at small mu or eta_a.  The truncation error is the mass
    above r_max.
    """
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    if stats_model not in ("thermal", "poisson"):
        raise ValueError("stats_model must be 'thermal' or 'poisson'")
    mu, eta_a = ch.mu, ch.eta_a
    a, z = ch.absorbed_fraction, ch.survival_z2
    c = a + z
    if eta_a == 0.0:
        raise ValueError("eta_a = 0: the herald click has probability zero")
    if c == 0.0:
        raise ValueError("eta_b = eta_t = 1, eta_w = 0: the no-click event behind "
                         "the comb has probability zero")
    rs = range(r_max + 1)
    # log (1 - eta_a)^r: none of r photons reaches the herald
    log_miss = [r * math.log1p(-eta_a) if eta_a < 1.0 else (-math.inf if r else 0.0)
                for r in rs]
    if stats_model == "thermal":
        x = mu / (1.0 + mu)
        d = x * eta_a
        # u = 1 - x z and u_c = 1 - x c are summed from 1 - x = 1/(1 + mu)
        # and the loss terms, 1 - (x - d) z and 1 - (x - d) c as those plus
        # d z and d c: at large mu x rounds to 1, and the plain differences
        # would cancel to zero
        vac = 1.0 / (1.0 + mu)
        eta_b, eta_w, eta_t = ch.eta_b, ch.eta_w, ch.eta_t
        u = vac + x * eta_b * (eta_w + eta_t - eta_w * eta_t)
        u_c = vac + x * eta_b * eta_t * (1.0 - eta_w)
        w = u + d * z
        norm = d * c / (u_c * (u_c + d * c))
        log_tail = math.log1p(-d * z / w)
        p = [(a * x / u) ** r * -math.expm1(log_miss[r] + (r + 1) * log_tail)
             / (u * norm) for r in rs]
    else:
        norm = -math.expm1(-mu * eta_a * c)
        p = [(mu * a) ** r / math.factorial(r) * math.exp(-mu * a)
             * -math.expm1(log_miss[r] - mu * eta_a * z) / norm
             for r in rs]
    return ExcitationProbabilities(p=np.asarray(p),
                                   truncation_error=max(1.0 - math.fsum(p), 0.0))


def estimate_mu_from_g2(g2_ab: float) -> float:
    """Mean pair number from the cross-correlation: mu = 1/g2 for g2 >> 1."""
    if g2_ab <= 10.0:
        raise ValueError("1/g2 approximation needs g2_ab > 10")
    return 1.0 / g2_ab


def write_efficiency(d1: float, finesse: float) -> float:
    """Absorption probability 1 - exp(-d1/F) from the effective depth d1/F."""
    if not (math.isfinite(d1) and d1 >= 0):
        raise ValueError("d1 must be non-negative and finite")
    if not (math.isfinite(finesse) and finesse >= 1):
        raise ValueError("finesse must be >= 1 and finite")
    return 1.0 - math.exp(-d1 / finesse)


def propagate_uncertainty(ch: ChannelModel, d1: float, finesse: float,
                          sigma_mu: float, sigma_d1: float, r_max: int = 2,
                          stats_model: str = "thermal"):
    """First-order uncertainty of P_r from the dominant inputs (mu, d1).

    eta_w is tied to d1 through the write efficiency; all other efficiencies
    are treated as exact.  Returns (probabilities, sigmas) arrays.
    """
    def evaluate(mu, d1_val):
        model = ChannelModel(mu=mu, eta_a=ch.eta_a, eta_b=ch.eta_b,
                             eta_w=write_efficiency(d1_val, finesse), eta_t=ch.eta_t)
        return excitation_probabilities(model, r_max, stats_model).p

    base = evaluate(ch.mu, d1)
    var = np.zeros_like(base)
    for sig, step in ((sigma_mu, "mu"), (sigma_d1, "d1")):
        if sig <= 0:
            continue
        if step == "mu":
            hi = evaluate(ch.mu + sig, d1)
            lo = evaluate(max(ch.mu - sig, ch.mu * 1e-3), d1)
        else:
            hi = evaluate(ch.mu, d1 + sig)
            lo = evaluate(ch.mu, max(d1 - sig, 0.0))
        var += ((hi - lo) / 2.0) ** 2
    return base, np.sqrt(var)


_CHANNEL_KEYS = ("mu", "eta_a", "eta_b", "eta_b_star", "eta_ci", "eta_w", "eta_t",
                 "stats_model")


def load_channel_config(path):
    """Read a key-value channel config; returns (ChannelModel, stats_model).

    Keys: mu, eta_a, eta_w, eta_t and either eta_b directly or the pair
    eta_b_star, eta_ci (eta_b = eta_b_star * eta_ci).  Optional stats_model.
    Lines are ``key = value``; '#' starts a comment.
    """
    numbers = read_key_values(path, _CHANNEL_KEYS, text_keys=("stats_model",))
    stats_model = numbers.pop("stats_model", "thermal")
    if stats_model not in ("thermal", "poisson"):
        raise ConfigError(f"stats_model must be thermal or poisson, got {stats_model}")
    if "eta_b" in numbers:
        eta_b = numbers["eta_b"]
    else:
        try:
            eta_b = numbers["eta_b_star"] * numbers["eta_ci"]
        except KeyError as exc:
            raise ConfigError(f"{path}: need eta_b or eta_b_star+eta_ci") from None
    try:
        model = ChannelModel(mu=numbers["mu"], eta_a=numbers["eta_a"], eta_b=eta_b,
                             eta_w=numbers["eta_w"], eta_t=numbers["eta_t"])
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from None
    return model, stats_model
