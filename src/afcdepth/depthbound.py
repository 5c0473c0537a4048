"""Certified lower bounds on entanglement depth from echo contrast.

For a candidate depth M, the achievable contrast is maximised over mixtures
of block-product states: each pure component is a tensor product of i blocks
``alpha|0> + beta|W_M>`` padded with vacuum, the last component augmented by a
remainder block of size N mod M.  Maximising the contrast subject to the
measured single- and two-excitation probabilities (P1, P2) yields max_R(M);
the certified depth is the smallest M whose max_R reaches the measured value.

max_R(M) is evaluated exactly and deterministically on the two-component
reduced family, which attains the optimum over all component weights.
Eliminating the constraints leaves one free excitation weight, and the
optimum sits on a known constraint boundary: for k = N // M >= 2 the smallest
feasible tail weight, found by bisection to adjacent floats on one
feasibility rule (the remainder block's weight slaved to the tail's); for
k = 1 a closed form, with no search: the equal-amplitude point where it is
feasible, else the q = 1 boundary (a quadratic root).  The evaluation has no
settable knobs; the multi-start solvers that verify it live with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContrastInconsistencyError, InfeasibleBoundError

_REL_TOL = 1e-12
# tail weights at which the two-excitation ceiling is sampled
_CEILING_GRID = np.linspace(1e-6, 1.0 - 1e-6, 2000)
# tail weights whose constraint signs bracket the reduced family's smallest
# feasible w; holding the ceiling grid, it meets every capped P2 budget
_TAIL_GRID = np.union1d(np.geomspace(1e-14, 1.0 - 1e-12, 400), _CEILING_GRID)


@dataclass(frozen=True)
class BoundProblem:
    """Inputs of one bound evaluation: teeth N, candidate depth M, P1, P2."""

    n_teeth: int
    depth: int
    p1: float
    p2: float

    def __post_init__(self):
        if self.n_teeth < 1:
            raise ValueError("n_teeth must be >= 1")
        if not 1 <= self.depth <= self.n_teeth:
            raise ValueError("depth must satisfy 1 <= M <= N")
        if not (math.isfinite(self.p1) and math.isfinite(self.p2)):
            raise ValueError("p1 and p2 must be finite")
        if self.p1 <= 0:
            raise ValueError("p1 must be positive")
        if self.p2 < 0 or self.p2 > self.p1:
            raise ValueError("need 0 <= p2 <= p1")
        if self.p1 + self.p2 > 1:
            raise ValueError("p1 + p2 must not exceed 1")

    @property
    def k(self) -> int:
        return self.n_teeth // self.depth

    @property
    def k_prime(self) -> int:
        return self.n_teeth - self.k * self.depth


@dataclass(frozen=True)
class MixedBlockState:
    """Weights q_i and per-component excitation weights beta_i^2, i = 1..k.

    ``beta_kprime_sq`` is the excitation weight of the remainder block of the
    last component (ignored when k' = 0).  The k >= 2 optimum sets it to
    ``slaved_remainder_weight(beta_k^2, M, k')``, which makes that
    component's single-excitation content the symmetric state over all N
    teeth.  Weights may sum to less than one; the shortfall is vacuum
    (needed only when k = 1, where no other component can carry it).
    """

    weights: np.ndarray
    beta_sq: np.ndarray
    beta_kprime_sq: float = 0.0

    def __post_init__(self):
        q = np.asarray(self.weights, dtype=float).ravel()
        b = np.asarray(self.beta_sq, dtype=float).ravel()
        object.__setattr__(self, "weights", q)
        object.__setattr__(self, "beta_sq", b)
        if q.size != b.size or q.size < 1:
            raise ValueError("weights and beta_sq must have equal length >= 1")
        if np.any(q < -1e-12) or q.sum() > 1 + 1e-9:
            raise ValueError("weights must be non-negative and sum to at most 1")
        if np.any((b < -1e-12) | (b > 1 + 1e-12)):
            raise ValueError("beta_sq entries must lie in [0, 1]")
        if not 0 <= self.beta_kprime_sq <= 1:
            raise ValueError("beta_kprime_sq must lie in [0, 1]")


def slaved_remainder_weight(beta_k_sq: float, depth: int, k_prime: int) -> float:
    """Remainder excitation weight making all N tooth amplitudes equal.

    Solves beta'/alpha' = (beta_k/alpha_k) * sqrt(k'/M), so the last
    component's single-excitation part is exactly the N-tooth symmetric state.
    """
    if k_prime == 0:
        return 0.0
    rho = k_prime / depth
    return rho * beta_k_sq / (1.0 - beta_k_sq * (1.0 - rho))


def _component_sp2(prob: BoundProblem, i: int, w, v):
    """(s, p2) of component i at excitation weight w = beta_i^2.

    s is the single-excitation probability and p2 the two-excitation
    probability.  v is the remainder block's weight, read only for the last
    component (i = k) when k' > 0.  w and v may be numpy arrays.
    """
    k, kp = prob.k, prob.k_prime
    one = 1.0 - w
    if i < k or kp == 0:
        s = i * w * one ** (i - 1)
        p2 = 0.5 * i * (i - 1) * w * w * one ** (i - 2) if i >= 2 else 0.0
        return s, p2
    a = w * one ** (k - 1)
    s = k * a * (1.0 - v) + v * one**k
    p2 = (0.5 * k * (k - 1) * w * w * one ** (k - 2) if k >= 2 else 0.0) * (1.0 - v) \
        + k * a * v
    return s, p2


def _component_terms(prob: BoundProblem, i: int, w: float, v: float):
    """(s, p2, r) of component i at excitation weight w = beta_i^2.

    r is the component's contribution |sum_j c_j|^2 to the contrast
    numerator (already including the depth factor); s and p2 as in
    ``_component_sp2``.
    """
    m, k, kp = prob.depth, prob.k, prob.k_prime
    s, p2 = _component_sp2(prob, i, w, v)
    one = 1.0 - w
    if i < k or kp == 0:
        return s, p2, m * i * i * w * one ** (i - 1)
    amp = k * math.sqrt(m * w * (1.0 - v)) * one ** ((k - 1) / 2.0) \
        + math.sqrt(kp * v) * one ** (k / 2.0)
    return s, p2, amp * amp


def _state_sums(state: MixedBlockState, prob: BoundProblem):
    """(P1, P2, contrast numerator) of the mixed block state, compensated sums.

    The contrast is the numerator over the problem's P1 + 2 P2.
    """
    if state.weights.size != prob.k:
        raise ValueError(f"state has {state.weights.size} components, expected k={prob.k}")
    s_terms, p2_terms, r_terms = [], [], []
    for idx, (q, w) in enumerate(zip(state.weights, state.beta_sq), start=1):
        s, p2, r = _component_terms(prob, idx, float(w), state.beta_kprime_sq)
        s_terms.append(q * s)
        p2_terms.append(q * p2)
        r_terms.append(q * r)
    return math.fsum(s_terms), math.fsum(p2_terms), math.fsum(r_terms)


@dataclass
class SolverDiagnostics:
    """Bookkeeping of one max-contrast evaluation."""

    best_objective: float = math.nan
    constraint_residuals: tuple = (math.nan, math.nan)
    active_constraints: list = field(default_factory=list)
    p2_target: float = math.nan


@dataclass
class MaxContrastResult:
    value: float
    state: MixedBlockState
    diagnostics: SolverDiagnostics


def _p2_ceiling(prob: BoundProblem) -> float:
    """Largest two-excitation probability the k >= 2 family reaches at P1.

    Sampled on ``_CEILING_GRID``.  The k = 1 family never needs it: its
    closed form (``_k1_optimum``) meets any budget, since P1 + P2 <= 1.
    """
    s, p2 = _component_sp2(prob, prob.k, _CEILING_GRID,
                           slaved_remainder_weight(_CEILING_GRID, prob.depth, prob.k_prime))
    with np.errstate(all="ignore"):  # s = 0 or 1, or P1/s overflowing to inf
        caps = np.minimum(1.0, np.minimum(np.where(s > 0, prob.p1 / s, np.inf),
                                          np.where(s < 1, (1.0 - prob.p1) / (1.0 - s),
                                                   np.inf)))
    reach = np.where(p2 > 0, np.maximum(caps, 0.0) * p2, 0.0)
    return max(float(reach.max()), 0.0)


def _vacuum_state(prob: BoundProblem) -> MixedBlockState:
    q = np.zeros(prob.k)
    b = np.zeros(prob.k)
    q[0] = 1.0
    b[0] = prob.p1
    return MixedBlockState(weights=q, beta_sq=b)


def _tail_constraints(prob: BoundProblem, p2_target: float, w):
    """q_k <= 1, x >= 0 and b1 <= 1 of the reduced family, each as g(w) >= 0.

    The reduced family's only feasibility test; the tail component's
    remainder block takes the slaved weight.  q_k <= 1 and b1 <= 1 carry
    the relative tolerance ``_REL_TOL``, x >= 0 one of 1e-15; it matters
    where a constraint only touches zero, e.g. b1 <= 1 at w = 1 when
    P1 + P2 = 1.  w may be a numpy array.
    """
    s, p2 = _component_sp2(prob, prob.k, w,
                           slaved_remainder_weight(w, prob.depth, prob.k_prime))
    t = 1.0 + _REL_TOL
    return (t * p2 - p2_target, (1.0 + 1e-15) * prob.p1 * p2 - p2_target * s,
            (t - prob.p1) * p2 - p2_target * (t - s))


def _tail_max(prob: BoundProblem, p2_target: float):
    """Smallest tail weight w that ``_tail_constraints`` accepts, or None.

    With q_k = P2/p2 the contrast numerator is M P1 + P2 (N - M) s(w)/p2(w).
    s/p2 = 2 (1 - w)/((k - 1) w) falls strictly in w when k' = 0, and falls
    with the slaved remainder too (checked densely by the tests).  Each
    constraint holds on one interval of w (p2 is unimodal, (1 - s)/p2
    U-shaped; the oracle tests check the outcome), so the feasible set is
    an interval and the optimum is its left end.  The first accepted point
    of ``_TAIL_GRID`` and the grid point before it bracket that end;
    bisection on "all three rows >= 0" closes the bracket to adjacent
    floats, so the returned w is accepted and its left neighbour is not.
    Where b1 <= 1 is nearly tangent (capped budgets) rounding makes
    acceptance flicker over many ulps; the bisection stops on one edge of it.
    """
    def feasible(w):  # on arrays elementwise, on floats a bool
        g_q, g_x, g_b = _tail_constraints(prob, p2_target, w)
        return (g_q >= 0.0) & (g_x >= 0.0) & (g_b >= 0.0)

    ok = feasible(_TAIL_GRID)
    if not ok.any():
        return None
    j = int(np.argmax(ok))
    hi = float(_TAIL_GRID[j])
    if j > 0:
        lo = float(_TAIL_GRID[j - 1])
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if feasible(mid):
                hi = mid
            else:
                lo = mid
    return hi


def _k1_optimum(prob: BoundProblem, p2_target: float):
    """(value, q, u, v) of the k = 1 optimum, in closed form.

    The one component, of weight q (the rest is vacuum), is an M-block of
    excitation weight u and the remainder block of weight v.  Let
    a^2 = (1 - u)/u and b^2 = (1 - v)/v.  Then s/p2 = a^2 + b^2, so the
    P1/P2 ratio fixes a^2 + b^2 = rho = P1/P2; the constraint
    q = P2 (1 + a^2)(1 + b^2) <= 1 becomes a^2 b^2 <= c = (1 - P1 - P2)/P2;
    and the contrast is P2 (sqrt(M) b + sqrt(k') a)^2 / (P1 + 2 P2).

    Interior case: by Cauchy-Schwarz the maximum is at
    (a^2, b^2) = rho (k', M)/N, where all N amplitudes are equal, and the
    contrast is N P1/(P1 + 2 P2), as at M = N.  This point is feasible iff
    P1^2 M k' <= P2 (1 - P1 - P2) N^2.  Otherwise q = 1: a^2 and b^2 are the
    roots of z^2 - rho z + c, the larger on b, the M-block (rearrangement
    inequality, since M > k'): b^2 = rho (1 + sqrt(1 - 4 P2 (1 - P1 - P2)/P1^2))/2
    and a^2 = c/b^2.  In u and v that is u + v - 2 u v = P1 and u v = P2:
    u and v are the roots of z^2 - (P1 + 2 P2) z + P2, u the larger.  The
    code solves for u and v directly, so it never forms rho, which
    overflows for subnormal P2; 1 - P1 - P2 is clamped at 0 and u at 1.
    """
    m, kp, n, p1, p2 = prob.depth, prob.k_prime, prob.n_teeth, prob.p1, p2_target
    norm = p1 + 2.0 * prob.p2
    rest = max(1.0 - p1 - p2, 0.0)
    if p1 * p1 * m * kp <= p2 * rest * n * n:
        u, v = n * p2 / (n * p2 + p1 * kp), n * p2 / (n * p2 + p1 * m)
        value = n * p1 / norm
    else:
        u = min(0.5 * (p1 + 2.0 * p2 + math.sqrt(max(p1 * p1 - 4.0 * p2 * rest, 0.0))),
                1.0)
        v = p2 / u
        value = _component_terms(prob, 1, u, v)[2] / norm
    return value, min(p2 / (u * v), 1.0), u, v


def _reduced_max(prob: BoundProblem, p2_target: float):
    """Maximum contrast over the two-live-component (reduced) family."""
    diag = SolverDiagnostics(p2_target=p2_target)

    if p2_target <= 0.0:
        state = _vacuum_state(prob)
        value = prob.depth * prob.p1 / (prob.p1 + 2.0 * prob.p2)
        diag.best_objective = value
        diag.constraint_residuals = (0.0, 0.0)
        diag.active_constraints = ["p2_exhausted" if prob.p2 > 0 else "p2_zero"]
        return MaxContrastResult(value, state, diag)

    if prob.k == 1:
        best_v, q, u, v = _k1_optimum(prob, p2_target)
        state = MixedBlockState(weights=np.array([q]), beta_sq=np.array([u]),
                                beta_kprime_sq=v)
    else:
        w = _tail_max(prob, p2_target)
        if w is None:
            raise InfeasibleBoundError(
                f"no feasible state at depth {prob.depth} for the given P1, P2")
        v = slaved_remainder_weight(w, prob.depth, prob.k_prime)
        s_k, p2_k, r_k = _component_terms(prob, prob.k, w, v)
        q_k = min(p2_target / p2_k, 1.0)
        q1 = 1.0 - q_k
        x = max(prob.p1 - q_k * s_k, 0.0)
        norm = prob.p1 + 2.0 * prob.p2
        # no state beats N P1/(P1 + 2 P2): |sum_j c_j|^2 <= N sum_j |c_j|^2
        best_v = min((prob.depth * x + q_k * r_k) / norm, prob.n_teeth * prob.p1 / norm)
        q = np.zeros(prob.k)
        b = np.zeros(prob.k)
        q[0], b[0] = q1, min(x / q1, 1.0) if q1 > 0 else 0.0
        q[-1], b[-1] = q_k, w
        state = MixedBlockState(weights=q, beta_sq=b, beta_kprime_sq=v)

    s, p2, _ = _state_sums(state, prob)
    diag.best_objective = best_v
    diag.constraint_residuals = (abs(s - prob.p1) / prob.p1,
                                 abs(p2 - p2_target) / p2_target)
    diag.active_constraints = _active_constraints(state)
    return MaxContrastResult(best_v, state, diag)


def _active_constraints(state: MixedBlockState):
    active = []
    for i, (q, b) in enumerate(zip(state.weights, state.beta_sq), start=1):
        if q >= 1.0 - 1e-9:
            active.append(f"q{i}_upper")
        if b >= 1.0 - 1e-9:
            active.append(f"beta{i}_upper")
    return active


def max_contrast(prob: BoundProblem) -> MaxContrastResult:
    """Largest echo contrast any depth-M state of the family can produce.

    The two-excitation budget is capped at what the family can reach (the
    cap binds only in degenerate corners such as M = N); using the full
    budget is always optimal, so the constraint holds with equality whenever
    attainable, to relative residual 1e-10.

    The reduced two-component family is evaluated: placing the whole
    two-excitation budget on the largest component dominates any split
    (Cauchy-Schwarz on the component weights), so the reduced family attains
    the global optimum.  The evaluation is an exact, deterministic
    active-set solve: for k >= 2 the smallest feasible tail weight, bisected
    to adjacent floats, with the remainder block's weight slaved to it and
    the value held to N P1/(P1 + 2 P2), the bound no state exceeds; for
    k = 1 a closed form with no search, whose remainder weight is free.
    """
    if prob.p2 <= 0 or (prob.k == 1 and prob.k_prime == 0):
        # a single full-size block never holds two excitations; capping the
        # budget at zero only enlarges the feasible set, keeping bounds valid
        return _reduced_max(prob, 0.0)
    try:
        return _reduced_max(prob, prob.p2)
    except InfeasibleBoundError:
        ceiling = _p2_ceiling(prob)
        if ceiling <= 0:
            raise
        return _reduced_max(prob, min(prob.p2, ceiling * (1.0 - 1e-9)))


def linear_bound(contrast: float, n_teeth: int, p1: float, p2: float) -> float:
    """Closed-form depth bound M > R - sqrt(2 P2) N / P1 (real-valued)."""
    if p1 <= 0:
        raise ValueError("p1 must be positive")
    if p2 < 0:
        raise ValueError("p2 must be non-negative")
    return contrast - math.sqrt(2.0 * p2) * n_teeth / p1


@dataclass
class DepthBoundResult:
    """Certified depth with the solver evidence and the R +/- sigma interval."""

    m_lower: int
    r_max_at_m: float
    contrast: float
    sigma: float
    m_interval: tuple
    n_teeth: int
    p1: float
    p2: float
    diagnostics: SolverDiagnostics
    evaluations: int

    def to_dict(self):
        return {
            "m_lower": self.m_lower,
            "r_max_at_m": self.r_max_at_m,
            "contrast": self.contrast,
            "sigma": self.sigma,
            "m_interval": list(self.m_interval),
            "n_teeth": self.n_teeth,
            "p1": self.p1,
            "p2": self.p2,
            "solver": {
                "best_objective": self.diagnostics.best_objective,
                "constraint_residuals": list(self.diagnostics.constraint_residuals),
                "active_constraints": self.diagnostics.active_constraints,
                "p2_target": self.diagnostics.p2_target,
            },
            "evaluations": self.evaluations,
        }


def certify_depth(contrast: float, sigma: float, n_teeth: int, p1: float,
                  p2: float) -> DepthBoundResult:
    """Smallest depth M whose max contrast reaches the measured value.

    Bisection over integer M (max contrast is non-decreasing in M); the
    interval entries come from repeating the search at contrast -/+ sigma.
    Each max_R(M) is the deterministic active-set evaluation of
    ``max_contrast``, cached per M, so a certificate depends only on its
    inputs; the diagnostics are those of max_R(m_lower).
    """
    if not (math.isfinite(contrast) and math.isfinite(sigma)):
        raise ValueError("contrast and sigma must be finite")
    if contrast <= 0:
        raise ValueError("contrast must be positive")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if contrast > n_teeth:
        raise ContrastInconsistencyError(
            f"contrast {contrast} exceeds the tooth count {n_teeth}")

    cache: dict[int, MaxContrastResult] = {}

    def mr(m: int) -> MaxContrastResult:
        if m not in cache:
            cache[m] = max_contrast(BoundProblem(n_teeth, m, p1, p2))
        return cache[m]

    def reaches(m: int, r: float) -> bool:
        return mr(m).value >= r * (1.0 - _REL_TOL) - _REL_TOL

    top = mr(n_teeth).value
    if contrast > top * (1.0 + _REL_TOL) + _REL_TOL:
        raise ContrastInconsistencyError(
            f"contrast {contrast} exceeds max achievable {top} at M = N = {n_teeth}")

    def smallest(r: float) -> int:
        if reaches(1, r):
            return 1
        lo, hi = 1, n_teeth
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if reaches(mid, r):
                hi = mid
            else:
                lo = mid
        return hi

    m_lower = smallest(contrast)
    if sigma > 0:
        m_lo = smallest(max(contrast - sigma, 1e-12))
        r_hi = contrast + sigma
        m_hi = n_teeth if r_hi > top else smallest(r_hi)
    else:
        m_lo = m_hi = m_lower
    best = mr(m_lower)
    return DepthBoundResult(
        m_lower=m_lower, r_max_at_m=best.value, contrast=contrast, sigma=sigma,
        m_interval=(m_lo, m_hi), n_teeth=n_teeth, p1=p1, p2=p2,
        diagnostics=best.diagnostics, evaluations=len(cache))


def bound_curve(n_teeth: int, p1: float, p2: float, depths):
    """Rows (M, max contrast) for each candidate depth, sorted by M."""
    return [(m, max_contrast(BoundProblem(n_teeth, m, p1, p2)).value)
            for m in sorted(set(int(m) for m in depths))]
