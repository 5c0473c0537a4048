"""Independent reference implementations used to cross-check the fast paths.

Everything here favours brute force over cleverness: explicit tensor-product
state vectors, Monte-Carlo sampling of tooth detunings, and dense grid
searches.  Tests compare the production code against these.
"""

from __future__ import annotations

import math

import numpy as np

from scipy import optimize

from afcdepth.depthbound import BoundProblem, MixedBlockState
from afcdepth.dicke import w_ket
from afcdepth.echosim import CombSpec


def block_factor(size: int, excitation_weight: float) -> np.ndarray:
    """State vector sqrt(1-b)|0...0> + sqrt(b)|W_size> over 2^size dims."""
    vec = math.sqrt(1.0 - excitation_weight) * _vacuum(size)
    if excitation_weight > 0:
        vec = vec + math.sqrt(excitation_weight) * w_ket(size)
    return vec


def _vacuum(size: int) -> np.ndarray:
    vec = np.zeros(2**size, dtype=complex)
    vec[0] = 1.0
    return vec


def block_product_state(depth: int, n_blocks: int, beta_sq: float,
                        k_prime: int = 0, beta_kprime_sq: float = 0.0) -> np.ndarray:
    """Explicit tensor state of n_blocks identical blocks plus a remainder."""
    psi = np.array([1.0 + 0.0j])
    for _ in range(n_blocks):
        psi = np.kron(psi, block_factor(depth, beta_sq))
    if k_prime:
        psi = np.kron(psi, block_factor(k_prime, beta_kprime_sq))
    return psi


def sector_data(psi: np.ndarray):
    """(weights by excitation number, single-excitation amplitude sum)."""
    n_qubits = int(round(math.log2(psi.size)))
    weights = np.zeros(n_qubits + 1)
    single_sum = 0.0 + 0.0j
    for idx, amp in enumerate(psi):
        if amp == 0:
            continue
        pop = bin(idx).count("1")
        weights[pop] += abs(amp) ** 2
        if pop == 1:
            single_sum += amp
    return weights, single_sum


def direct_family_values(state: MixedBlockState, prob: BoundProblem):
    """(P1, P2, contrast numerator) from explicit tensor states, N <= 12."""
    from afcdepth.depthbound import slaved_remainder_weight

    p1 = p2 = numerator = 0.0
    k = prob.k
    for i, (q, b) in enumerate(zip(state.weights, state.beta_sq), start=1):
        if q == 0:
            continue
        if i == k and prob.k_prime:
            v = state.beta_kprime_sq
            if v is None:
                v = slaved_remainder_weight(float(b), prob.depth, prob.k_prime)
            psi = block_product_state(prob.depth, i, float(b), prob.k_prime, float(v))
        else:
            psi = block_product_state(prob.depth, i, float(b))
        weights, single_sum = sector_data(psi)
        p1 += q * weights[1]
        p2 += q * (weights[2] if weights.size > 2 else 0.0)
        numerator += q * abs(single_sum) ** 2
    return p1, p2, numerator


def grid_search_max(prob: BoundProblem, points: int = 10_000) -> float:
    """Dense grid search over the reduced variables via the public family API.

    For each tail excitation weight w, the two equality constraints pin the
    remaining reduced variables algebraically; the best feasible contrast
    over the grid lower-bounds the true maximum.
    """
    from afcdepth.depthbound import _k1_eval, _reduced_eval

    if prob.p2 <= 0 or (prob.k == 1 and prob.k_prime == 0):
        return prob.depth * prob.p1 / (prob.p1 + 2.0 * prob.p2)
    best = -math.inf
    if prob.k == 1:
        lo = 1.0 / (prob.p1 / prob.p2 + 1.0)
        grid = np.linspace(lo * (1 + 1e-9), 1.0 - 1e-9, points)
        for u in grid:
            out = _k1_eval(prob, float(u), prob.p2)
            if out is not None:
                best = max(best, out[0])
        return best
    grid = np.unique(np.concatenate([
        np.geomspace(1e-12, 1.0 - 1e-9, points // 2),
        np.linspace(1e-9, 1.0 - 1e-9, points // 2),
    ]))
    for w in grid:
        out = _reduced_eval(prob, float(w), prob.p2)
        if out is not None:
            best = max(best, out[0])
    return best


_INFEASIBLE = -1e300


def _scan_grid(lo: float, hi: float, size: int = 4000) -> np.ndarray:
    return np.unique(np.concatenate([
        np.geomspace(max(lo, 1e-14), hi, size),
        np.linspace(lo, hi, size),
    ]))


def _multistart_scalar_max(f, lo, hi, n_starts, rng):
    """Best f on [lo, hi] by search: a grid scan, bounded Brent around the
    eight best grid points, then ``n_starts`` bounded Brent searches over
    [w0/30, 30 w0] from log-uniform random w0.  f returns ``_INFEASIBLE``
    outside the feasible region, which the Brent searches simply avoid."""
    grid = _scan_grid(lo, hi)
    vals = np.array([f(w) for w in grid])
    feasible = np.flatnonzero(vals > _INFEASIBLE)
    brackets = [(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)])
                for i in feasible[np.argsort(vals[feasible])][-8:]]
    for _ in range(n_starts):
        w0 = 10.0 ** rng.uniform(math.log10(max(lo, 1e-14)), math.log10(hi))
        brackets.append((max(lo, w0 / 30.0), min(hi, w0 * 30.0)))
    best = _INFEASIBLE
    for a, b in brackets:
        res = optimize.minimize_scalar(lambda w: -f(w), bounds=(a, b),
                                       method="bounded", options={"xatol": 1e-15})
        best = max(best, f(float(res.x)))
    return best if best > _INFEASIBLE else None


def p2_ceiling_loop(prob: BoundProblem) -> float:
    """Two-excitation ceiling of the k >= 2 family, one tail weight at a time
    on the library's 2000-point grid (reference for its numpy version)."""
    from afcdepth.depthbound import _component_terms

    best = 0.0
    for w in np.linspace(1e-6, 1.0 - 1e-6, 2000):
        s, p2, _ = _component_terms(prob, prob.k, float(w))
        if p2 <= 0:
            continue
        caps = [1.0]
        if s > 0:
            caps.append(prob.p1 / s)
        if s < 1.0:
            caps.append((1.0 - prob.p1) / (1.0 - s))
        best = max(best, max(min(caps), 0.0) * p2)
    return best


def multistart_max_contrast(prob: BoundProblem, n_starts: int = 200,
                            seed: int = 0):
    """max_R(M) of the reduced family by seeded multi-start search.

    Shares only the scalar evaluators ``_reduced_eval`` / ``_k1_eval`` and the
    P2 cap rule with the library's active-set evaluation; the search over the
    free weight (w for k >= 2, u for k = 1) is ``_multistart_scalar_max``.
    Returns None when no feasible state is found.
    """
    from afcdepth.depthbound import _k1_eval, _reduced_eval

    norm = prob.p1 + 2.0 * prob.p2
    if prob.p2 <= 0 or (prob.k == 1 and prob.k_prime == 0):
        return prob.depth * prob.p1 / norm

    def search(p2_target):
        rng = np.random.default_rng(seed)
        if prob.k == 1:
            def f(u):
                out = _k1_eval(prob, float(u), p2_target)
                return _INFEASIBLE if out is None else out[0]

            lo = 1.0 / (prob.p1 / p2_target + 1.0)
            return _multistart_scalar_max(f, lo * (1 + 1e-12), 1.0 - 1e-12,
                                          n_starts, rng)

        def f(w):
            out = _reduced_eval(prob, float(w), p2_target)
            return _INFEASIBLE if out is None else out[0]

        return _multistart_scalar_max(f, 1e-14, 1.0 - 1e-12, n_starts, rng)

    value = search(prob.p2)
    if value is None:
        ceiling = p2_ceiling_loop(prob)
        if ceiling > 0:
            value = search(min(prob.p2, ceiling * (1.0 - 1e-9)))
    return value


def mc_emission_probability(amps, comb: CombSpec, times, n_samples: int = 10_000,
                            seed: int = 0) -> np.ndarray:
    """Emission probability with tooth dephasing sampled per atom.

    Each tooth's detuning spread is drawn from its lineshape; the analytic
    envelope is the sample average of exp(i 2 pi f t).
    """
    rng = np.random.default_rng(seed)
    c = amps.c if hasattr(amps, "c") else np.asarray(amps, dtype=complex)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    n = c.size
    if comb.tooth_shape == "gaussian":
        spread = rng.normal(0.0, comb.gamma / (2.0 * math.sqrt(2.0 * math.log(2.0))),
                            size=(n, n_samples))
    elif comb.tooth_shape == "lorentzian":
        spread = comb.gamma / 2.0 * rng.standard_cauchy(size=(n, n_samples))
    else:
        spread = rng.uniform(-comb.gamma / 2.0, comb.gamma / 2.0, size=(n, n_samples))
    out = np.empty(times.size)
    j = np.arange(n)
    for idx, t in enumerate(times):
        tooth_phase = np.exp(1j * j * comb.delta * t)
        envelope = np.exp(2j * math.pi * spread * t).mean(axis=1)
        out[idx] = abs(np.sum(c * tooth_phase * envelope)) ** 2
    return out
