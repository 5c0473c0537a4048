"""Independent reference implementations used to cross-check the fast paths.

Everything here favours brute force over cleverness: the dense 2^M S+S-
matrix and explicit tensor-product state vectors, dense grid and multi-start
searches for max_R(M) (the full SLSQP solver over all component weights
among them), the pair-number series and an exact rational evaluation of
the excitation probabilities, Monte-Carlo sampling of the photon channel and
of tooth detunings, and the echo contrast's period average on the dense time
grid.  Tests compare the production code against these; none of it ships in
the library.  Two helpers the tests share sit here too: the symmetric
single-excitation amplitudes and a map over two worker processes for the
slowest oracle runs.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np

from scipy import optimize

from afcdepth.depthbound import (_REL_TOL, BoundProblem, MaxContrastResult,
                                 MixedBlockState, SolverDiagnostics,
                                 _active_constraints, _component_terms,
                                 _state_sums, max_contrast,
                                 slaved_remainder_weight)
from afcdepth.dicke import ToothAmplitudes
from afcdepth.echosim import (DEFAULT_SAMPLES_PER_PERIOD, CombSpec,
                              emission_probability)
from afcdepth.photonstats import ChannelModel, ExcitationProbabilities

# Dense 2^M oracle cap: 16384-dim matrices keep tests in seconds.
FULL_SPACE_MAX_QUBITS = 14
# SLSQP optimum accepted when both equality constraints hold to this
_CONSTRAINT_TOL = 1e-10


def map_in_workers(fn, *iterables) -> list:
    """list(map(fn, *iterables)), shared out over at most two processes.

    For oracle runs that are independent of each other.  Workers are
    spawned, not forked (the test process may hold threads), so ``fn`` must
    be importable by name and the arguments must pickle; the results come
    back in order.
    """
    workers = min(2, len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(fn, *iterables))


def excitation_number(index: int) -> int:
    """Number of excited teeth in a computational-basis index (popcount)."""
    return bin(index).count("1")


def sector_indices(n_qubits: int, n_excitations: int) -> np.ndarray:
    """Basis indices of the fixed-excitation-number sector."""
    idx = [i for i in range(2**n_qubits) if excitation_number(i) == n_excitations]
    return np.asarray(idx, dtype=np.intp)


def _check_dense_size(n_qubits: int):
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    if n_qubits > FULL_SPACE_MAX_QUBITS:
        raise ValueError(
            f"{n_qubits} qubits exceeds the {FULL_SPACE_MAX_QUBITS}-qubit dense cap")


def w_state(n_teeth):
    """Symmetric single-excitation state: c_j = 1/sqrt(N) for every tooth."""
    return ToothAmplitudes(np.full(n_teeth, n_teeth**-0.5))


def w_ket(n_qubits: int) -> np.ndarray:
    """Full 2^M state vector of the symmetric single-excitation state."""
    _check_dense_size(n_qubits)
    psi = np.zeros(2**n_qubits, dtype=complex)
    psi[sector_indices(n_qubits, 1)] = 1.0 / np.sqrt(n_qubits)
    return psi


def splus_sminus_matrix(n_qubits: int) -> np.ndarray:
    """Dense matrix of S+ S- in the full 2^M computational basis.

    S- = sum_j |0><1|_j lowers one excitation; the product is Hermitian and
    positive semidefinite.  Restricted to the single-excitation sector its
    spectrum is {M, 0, ..., 0} with the symmetric state as the only
    non-null eigenvector.

    Built entry-wise: S+S-|y> = sum over excited bits l of y and free bits j
    of |y - l + j>, so <x|S+S-|y> counts the (l, j) transfer paths.
    """
    _check_dense_size(n_qubits)
    dim = 2**n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    for y in range(dim):
        excited = [l for l in range(n_qubits) if y & (1 << l)]
        for l in excited:
            z = y & ~(1 << l)
            for j in range(n_qubits):
                if not z & (1 << j):
                    mat[z | (1 << j), y] += 1.0
    return mat


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
    p1 = p2 = numerator = 0.0
    k = prob.k
    for i, (q, b) in enumerate(zip(state.weights, state.beta_sq), start=1):
        if q == 0:
            continue
        if i == k and prob.k_prime:
            psi = block_product_state(prob.depth, i, float(b), prob.k_prime,
                                      state.beta_kprime_sq)
        else:
            psi = block_product_state(prob.depth, i, float(b))
        weights, single_sum = sector_data(psi)
        p1 += q * weights[1]
        p2 += q * (weights[2] if weights.size > 2 else 0.0)
        numerator += q * abs(single_sum) ** 2
    return p1, p2, numerator


def _reduced_eval(prob: BoundProblem, w: float, p2_target: float):
    """Contrast with live weight on components 1 and k only; None if infeasible.

    The k >= 2 family at tail weight w with the slaved remainder, q_k and
    the first component pinned by P2 and P1.  The searches below scan it;
    its feasibility test is written apart from the library's
    (``depthbound._tail_constraints``).
    """
    v = slaved_remainder_weight(w, prob.depth, prob.k_prime)
    s_k, p2_k, r_k = _component_terms(prob, prob.k, w, v)
    if p2_k <= 0.0:
        return None
    q_k = p2_target / p2_k
    if q_k > 1.0 + _REL_TOL:
        return None
    q_k = min(q_k, 1.0)
    q1 = 1.0 - q_k
    x = prob.p1 - q_k * s_k
    if x < -1e-15 * prob.p1:
        return None
    x = max(x, 0.0)
    if x > q1 * (1.0 + _REL_TOL):
        return None
    b1 = min(x / q1, 1.0) if q1 > 0 else 0.0
    value = (prob.depth * x + q_k * r_k) / (prob.p1 + 2.0 * prob.p2)
    return value, q1, b1, q_k


def _k1_eval(prob: BoundProblem, u: float, p2_target: float):
    """k = 1 branch: free remainder weight v plus an explicit vacuum share.

    The contrast at M-block weight u, with q and v pinned by P1 and P2;
    None if infeasible.  The searches below scan it, independently of the
    library's closed form (``depthbound._k1_optimum``).
    """
    ratio = prob.p1 / p2_target
    den = u * (ratio + 2.0) - 1.0
    if den <= 0.0:
        return None
    v = u / den
    if not 0.0 < v <= 1.0:
        return None
    q = p2_target / (u * v)
    if q > 1.0 + _REL_TOL:
        return None
    q = min(q, 1.0)
    _, _, r = _component_terms(prob, 1, u, v)
    return q * r / (prob.p1 + 2.0 * prob.p2), q, v


def grid_search_max(prob: BoundProblem, points: int = 10_000) -> float:
    """Dense grid search over the reduced variables via the public family API.

    For each tail excitation weight w (the M-block weight u of ``_k1_eval``
    when k = 1), the two equality constraints pin the remaining reduced
    variables algebraically; the best feasible contrast over the grid
    lower-bounds the true maximum.
    """
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
    best = 0.0
    for w in np.linspace(1e-6, 1.0 - 1e-6, 2000):
        s, p2, _ = _component_terms(prob, prob.k, float(w),
                                    slaved_remainder_weight(float(w), prob.depth,
                                                            prob.k_prime))
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

    Shares only the P2 cap rule with the library's active-set evaluation:
    k >= 2 is scanned through ``_reduced_eval`` above, not the library's
    bisection, and k = 1 through ``_k1_eval``, not its closed form.  The
    search over the free weight (w for k >= 2, u for k = 1) is
    ``_multistart_scalar_max``.
    Returns None when no feasible state is found.
    """
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


def _component_terms_d(prob: BoundProblem, i: int, w: float):
    """As ``_component_terms`` (slaved remainder) plus d/dw of each value."""
    m, n, k, kp = prob.depth, prob.n_teeth, prob.k, prob.k_prime
    one = 1.0 - w
    if i < k or kp == 0:
        s = i * w * one ** (i - 1)
        ds = 1.0 if i == 1 else i * one ** (i - 2) * (1.0 - i * w)
        if i >= 2:
            p2 = 0.5 * i * (i - 1) * w * w * one ** (i - 2)
            dp2 = 2.0 * w if i == 2 else 0.5 * i * (i - 1) * w * one ** (i - 3) * (2.0 - i * w)
        else:
            p2, dp2 = 0.0, 0.0
        return s, p2, m * i * s, ds, dp2, m * i * ds
    rho = kp / m
    den = 1.0 - w * (1.0 - rho)
    v = rho * w / den
    dv = rho / (den * den)
    a = w * one ** (k - 1)
    da = one ** (k - 2) * (1.0 - k * w)
    c = one**k
    dc = -k * one ** (k - 1)
    s = k * a * (1.0 - v) + v * c
    ds = k * (da * (1.0 - v) - a * dv) + dv * c + v * dc
    hk = 0.5 * k * (k - 1)
    b = w * w * one ** (k - 2)
    db = 2.0 * w if k == 2 else w * one ** (k - 3) * (2.0 - k * w)
    p2 = hk * b * (1.0 - v) + k * a * v
    dp2 = hk * (db * (1.0 - v) - b * dv) + k * (da * v + a * dv)
    # with the slaved remainder the component's numerator is exactly N * s
    return s, p2, n * s, ds, dp2, n * ds


def _embed_reduced(state: MixedBlockState) -> np.ndarray:
    return np.concatenate([state.weights, state.beta_sq])


def full_max_contrast(prob: BoundProblem, n_starts: int, seed: int) -> MaxContrastResult:
    """max_R(M) by multi-start SLSQP over all k weights and k excitation weights.

    Starts from the library's active-set optimum (embedded in the full
    variables) and ``n_starts`` seeded random points, under the same P2 cap.
    Returns the library result unchanged when k = 1 or the budget is zero.
    """
    reduced = max_contrast(prob)
    p2_target = reduced.diagnostics.p2_target
    if prob.k == 1 or p2_target == 0.0:
        return reduced
    k = prob.k
    norm = (prob.p1 + 2.0 * prob.p2) * prob.n_teeth
    diag = SolverDiagnostics(p2_target=p2_target)

    memo = {"key": None, "vals": None}

    def _terms(z):
        # SLSQP queries objective/constraints/jacobians separately per
        # iterate; memoise the shared component sweep on the current z
        key = z.tobytes()
        if memo["key"] != key:
            q, w = z[:k], z[k:]
            val = s_tot = p2_tot = 0.0
            grad = np.zeros(2 * k)
            js = np.zeros(2 * k)
            jp = np.zeros(2 * k)
            for i in range(k):
                s, p2, r, ds, dp2, dr = _component_terms_d(prob, i + 1, float(w[i]))
                val += q[i] * r
                s_tot += q[i] * s
                p2_tot += q[i] * p2
                grad[i], grad[k + i] = -r / norm, -q[i] * dr / norm
                js[i], js[k + i] = s, q[i] * ds
                jp[i], jp[k + i] = p2, q[i] * dp2
            memo["key"] = key
            memo["vals"] = (val, grad, s_tot, p2_tot, js, jp)
        return memo["vals"]

    def objective(z):
        val, grad, *_ = _terms(z)
        return -val / norm, grad

    def constraint_vals(z):
        _, _, s_tot, p2_tot, js, jp = _terms(z)
        return s_tot, p2_tot, js, jp

    def c1(z):
        s_tot, _, _, _ = constraint_vals(z)
        return s_tot / prob.p1 - 1.0

    def c1_jac(z):
        _, _, js, _ = constraint_vals(z)
        return js / prob.p1

    def c2(z):
        _, p2_tot, _, _ = constraint_vals(z)
        return p2_tot / p2_target - 1.0

    def c2_jac(z):
        _, _, _, jp = constraint_vals(z)
        return jp / p2_target

    cons = [
        {"type": "eq", "fun": lambda z: z[:k].sum() - 1.0,
         "jac": lambda z: np.concatenate([np.ones(k), np.zeros(k)])},
        {"type": "eq", "fun": c1, "jac": c1_jac},
        {"type": "eq", "fun": c2, "jac": c2_jac},
    ]
    bounds = [(0.0, 1.0)] * (2 * k)

    rng = np.random.default_rng(seed)
    starts = [_embed_reduced(reduced.state)]
    for j in range(n_starts):
        q0 = rng.dirichlet(np.ones(k))
        if j % 2 == 0:
            w0 = rng.uniform(0.0, 1.0, size=k)
        else:
            w0 = 10.0 ** rng.uniform(-8.0, 0.0, size=k)
        starts.append(np.concatenate([q0, w0]))

    best_val, best_z = reduced.value, _embed_reduced(reduced.state)
    for z0 in starts:
        res = optimize.minimize(objective, z0, jac=True, method="SLSQP",
                                bounds=bounds, constraints=cons,
                                options={"maxiter": 400, "ftol": 1e-14})
        z = np.clip(res.x, 0.0, 1.0)
        r1, r2 = abs(c1(z)), abs(c2(z))
        val = -objective(z)[0] * prob.n_teeth
        if r1 <= _CONSTRAINT_TOL and r2 <= _CONSTRAINT_TOL and val > best_val:
            best_val, best_z = val, z

    q, w = best_z[:k], best_z[k:]
    state = MixedBlockState(weights=q / q.sum(), beta_sq=w,
                            beta_kprime_sq=slaved_remainder_weight(
                                float(w[-1]), prob.depth, prob.k_prime))
    s, p2, _ = _state_sums(state, prob)
    diag.best_objective = best_val
    diag.constraint_residuals = (abs(s - prob.p1) / prob.p1,
                                 abs(p2 - p2_target) / p2_target)
    diag.active_constraints = _active_constraints(state)
    return MaxContrastResult(best_val, state, diag)


def thermal_weight(n: int, mu: float) -> float:
    """Thermal photon-number weight mu^n / (mu+1)^(n+1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if mu <= 0:
        raise ValueError("mu must be positive")
    return mu**n / (mu + 1.0) ** (n + 1)


def poisson_weight(n: int, mu: float) -> float:
    """Poissonian alternative exp(-mu) mu^n / n! for sensitivity analysis."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if mu <= 0:
        raise ValueError("mu must be positive")
    return math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1))


_PAIR_WEIGHTS = {"thermal": thermal_weight, "poisson": poisson_weight}
_SERIES_REL_TOL = 1e-15
_SERIES_N_CAP = 10**6


def series_excitation_probabilities(ch: ChannelModel, r_max: int = 4,
                                    stats_model: str = "thermal"):
    """P_r, r = 0..r_max, as compensated sums over the pair number n.

    The heralded weight of n pairs is p_n (1 - (1 - eta_a)^n), summed until a
    term falls below 1e-15 of the running total.  Then

        P_r = (1/Mnorm) sum_{n>=r} p'_n C(n, r) (eta_b eta_w)^r Z^(2(n-r))

    with Mnorm = sum_n p'_n (eta_b eta_w + Z^2)^n; r is extended past r_max
    until P_r < 1e-18, and the mass above r_max is the truncation error.
    """
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    weight = _PAIR_WEIGHTS[stats_model]
    weights = []
    total = 0.0
    for n in range(1, _SERIES_N_CAP + 1):
        w = weight(n, ch.mu) * (1.0 - (1.0 - ch.eta_a) ** n)
        weights.append(w)
        total += w
        if w < _SERIES_REL_TOL * total:
            break
    else:
        raise ArithmeticError("heralded distribution did not converge")
    ns = np.arange(1, len(weights) + 1)
    pn = np.asarray(weights) / total
    ebw = ch.absorbed_fraction
    z2 = ch.survival_z2
    mnorm = math.fsum(p * (ebw + z2) ** n for n, p in zip(ns, pn))

    probs = []
    while True:
        r = len(probs)
        terms = [p * math.comb(n, r) * ebw**r * z2 ** (n - r)
                 for n, p in zip(ns, pn) if n >= r]
        probs.append(math.fsum(terms) / mnorm)
        if r >= r_max and (probs[-1] < 1e-18 or r >= ns[-1]):
            break
    truncation = max(1.0 - math.fsum(probs), 0.0) + math.fsum(probs[r_max + 1:])
    return ExcitationProbabilities(p=np.asarray(probs[: r_max + 1]),
                                   truncation_error=truncation)


def exact_thermal_probabilities(ch: ChannelModel, r_max: int = 4) -> list:
    """Thermal-source P_r, r = 0..r_max, in exact rational arithmetic.

    The channel's floats are read as exact fractions.  With p_n proportional
    to x^n, x = mu/(1 + mu), and e = 1 - eta_a, the sums over the pair number
    are geometric series:

        sum_n y^n C(n, r) a^r z^(n-r) = (a y)^r / (1 - y z)^(r+1),

    so P_r = [S_r(x) - S_r(x e)] / [1/(1 - x c) - 1/(1 - x e c)], c = a + z.
    """
    mu, eta_a, eta_b, eta_w, eta_t = (Fraction(v) for v in (
        ch.mu, ch.eta_a, ch.eta_b, ch.eta_w, ch.eta_t))
    x = mu / (1 + mu)
    miss = 1 - eta_a
    a = eta_b * eta_w
    z = eta_b * (1 - eta_w) * (1 - eta_t) + (1 - eta_b)
    c = a + z

    def series(y, r):
        return (a * y) ** r / (1 - y * z) ** (r + 1)

    norm = 1 / (1 - x * c) - 1 / (1 - x * miss * c)
    return [(series(x, r) - series(x * miss, r)) / norm for r in range(r_max + 1)]


def monte_carlo_excitations(ch: ChannelModel, trials: int, seed: int = 0,
                            r_max: int = 4):
    """Monte-Carlo channel simulation; returns (counts[r], accepted trials).

    Each trial draws n >= 1 pairs from the thermal distribution (n = 0 never
    heralds), thins the herald arm photon-by-photon, splits the comb-arm
    photons into absorbed / transmitted-detected / lost, and keeps the trial
    when the herald fired and the transmitted mode stayed silent.
    """
    rng = np.random.default_rng(seed)
    counts = np.zeros(r_max + 1, dtype=np.int64)
    accepted = 0
    p_abs = ch.absorbed_fraction
    p_det = ch.eta_b * (1.0 - ch.eta_w) * ch.eta_t
    chunk = 2_000_000
    remaining = trials
    while remaining > 0:
        size = min(chunk, remaining)
        remaining -= size
        # thermal conditioned on n >= 1 is geometric with p = 1/(1+mu)
        n = rng.geometric(1.0 / (1.0 + ch.mu), size=size)
        heralded = rng.binomial(n, ch.eta_a) >= 1
        absorbed = rng.binomial(n, p_abs)
        rest = n - absorbed
        t_clicks = rng.binomial(rest, p_det / (1.0 - p_abs))
        keep = heralded & (t_clicks == 0)
        accepted += int(keep.sum())
        kept_r = np.minimum(absorbed[keep], r_max)
        counts += np.bincount(kept_r, minlength=r_max + 1)
    return counts, accepted


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


def dense_simulated_contrast(c, comb: CombSpec,
                             samples_per_period: int = DEFAULT_SAMPLES_PER_PERIOD) -> float:
    """Echo contrast with p(t) evaluated on the whole trapezoid grid.

    Builds the (S + 1) x N exponential matrix over the period centred on the
    echo and applies ``np.trapezoid``: O(S N) work, the rule that
    ``simulated_contrast`` evaluates spectrally.
    """
    t_e = comb.echo_time
    t = np.linspace(0.5 * t_e, 1.5 * t_e, samples_per_period + 1)
    mean = np.trapezoid(emission_probability(c, comb, t), t) / t_e
    return float(emission_probability(c, comb, t_e)[0]) / float(mean)
