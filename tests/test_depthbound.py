import functools
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (block_product_state, direct_family_values,
                      full_max_contrast, grid_search_max, map_in_workers,
                      multistart_max_contrast, p2_ceiling_loop, sector_data,
                      splus_sminus_matrix)
from afcdepth.depthbound import (BoundProblem, MixedBlockState, _component_sp2,
                                 _p2_ceiling, _state_sums, _tail_constraints,
                                 bound_curve, certify_depth, linear_bound,
                                 max_contrast, slaved_remainder_weight)
from afcdepth.errors import ContrastInconsistencyError

REFERENCE_BOUND = Path(__file__).resolve().parents[1] / "perfbench" / "reference_bound.json"
HEADLINE = dict(n_teeth=564, p1=3.5e-3, p2=2.6e-8)
INTERCEPT = math.sqrt(2 * HEADLINE["p2"]) * HEADLINE["n_teeth"] / HEADLINE["p1"]


def headline_problem(depth):
    return BoundProblem(HEADLINE["n_teeth"], depth, HEADLINE["p1"], HEADLINE["p2"])


def random_regime_instances(count, seed=2):
    """Problems with P2 << P1^2 << 1 and at least two family components."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(12, 37))
        k_target = int(rng.integers(2, 7))
        depth = max(2, n // k_target)
        if n // depth < 2:
            continue
        p1 = 10 ** rng.uniform(-3, -2)
        p2 = 0.5 * p1**2 * 10 ** rng.uniform(-2, -0.7)
        out.append(BoundProblem(n, depth, p1, p2))
    return out


class TestFamilyEvaluation:
    def test_single_component_reaches_depth(self):
        prob = BoundProblem(12, 3, 2e-3, 0.0)
        state = MixedBlockState(weights=np.array([1.0, 0, 0, 0]),
                                beta_sq=np.array([2e-3, 0, 0, 0]))
        p1, p2, num = _state_sums(state, prob)
        assert p1 == pytest.approx(2e-3, rel=1e-12)
        assert p2 == 0.0
        assert num / (prob.p1 + 2 * prob.p2) == pytest.approx(3.0, rel=1e-12)

    def test_separable_limit_approaches_tooth_count(self):
        n = 40
        beta_sq = 1e-6
        p1 = n * beta_sq * (1 - beta_sq) ** (n - 1)
        p2 = n * (n - 1) / 2 * beta_sq**2 * (1 - beta_sq) ** (n - 2)
        prob = BoundProblem(n, 1, p1, p2)
        q = np.zeros(n)
        b = np.zeros(n)
        q[-1] = 1.0
        b[-1] = beta_sq
        state = MixedBlockState(weights=q, beta_sq=b)
        _, p2_f, num = _state_sums(state, prob)
        assert num / (prob.p1 + 2 * prob.p2) == pytest.approx(n, rel=1e-3)
        # the pair probability approaches P1^2/2 with a (1 - 1/n) factor
        assert p2_f == pytest.approx(p1**2 / 2, rel=1.5 / n)

    @pytest.mark.parametrize("n,depth", [(10, 2), (11, 2), (12, 4), (9, 4)])
    def test_matches_explicit_tensor_states(self, n, depth):
        rng = np.random.default_rng(41)
        prob = BoundProblem(n, depth, 4e-3, 2e-6)
        k = prob.k
        for _ in range(4):
            q = rng.dirichlet(np.ones(k))
            b = rng.uniform(0.01, 0.5, size=k)
            # a remainder weight off the slaved curve, wherever there is a remainder
            v = float(rng.uniform(0.01, 0.5)) if prob.k_prime else 0.0
            state = MixedBlockState(weights=q, beta_sq=b, beta_kprime_sq=v)
            p1_f, p2_f, num_f = _state_sums(state, prob)
            p1_d, p2_d, num_d = direct_family_values(state, prob)
            assert p1_f == pytest.approx(p1_d, rel=1e-10)
            assert p2_f == pytest.approx(p2_d, rel=1e-10)
            assert num_f == pytest.approx(num_d, rel=1e-10)

    def test_free_remainder_matches_tensor_state(self):
        prob = BoundProblem(9, 5, 1e-2, 1e-4)  # k = 1 with remainder block 4
        state = MixedBlockState(weights=np.array([0.7]), beta_sq=np.array([0.2]),
                                beta_kprime_sq=0.05)
        p1_d, p2_d, num_d = direct_family_values(state, prob)
        p1_f, p2_f, num_f = _state_sums(state, prob)
        assert p1_f == pytest.approx(p1_d, rel=1e-12)
        assert p2_f == pytest.approx(p2_d, rel=1e-12)
        assert num_f == pytest.approx(num_d, rel=1e-12)

    def test_slaved_remainder_gives_uniform_single_excitation(self):
        depth, k_prime = 3, 2
        n = 11  # 3 blocks of 3 plus remainder 2
        w = 0.04
        v = slaved_remainder_weight(w, depth, k_prime)
        psi = block_product_state(depth, 3, w, k_prime, v)
        amps = [psi[1 << j] for j in range(n)]
        assert np.allclose(amps, amps[0], rtol=1e-12)

    def test_numerator_is_single_excitation_sector_expectation(self):
        # the family numerator equals <S+S-> of the single-excitation part,
        # and the full-space expectation can only exceed it
        n, depth = 8, 2
        psi = block_product_state(depth, 4, 0.3)
        weights, single_sum = sector_data(psi)
        mat = splus_sminus_matrix(n)
        full = float(np.vdot(psi, mat @ psi).real)
        assert abs(single_sum) ** 2 <= full + 1e-12
        prob = BoundProblem(n, depth, weights[1], weights[2])
        state = MixedBlockState(weights=np.array([0, 0, 0, 1.0]),
                                beta_sq=np.array([0, 0, 0, 0.3]))
        num_f = _state_sums(state, prob)[2]
        assert num_f == pytest.approx(abs(single_sum) ** 2, rel=1e-10)


class TestMaxContrast:
    def test_no_pair_budget_pins_to_depth(self):
        for depth in (1, 5, 17):
            res = max_contrast(BoundProblem(100, depth, 2e-3, 0.0))
            assert res.value == pytest.approx(depth, rel=1e-12)

    def test_headline_boundary(self):
        res = max_contrast(headline_problem(229))
        assert res.value == pytest.approx(256.7, abs=1.5)
        nxt = max_contrast(headline_problem(230))
        assert res.value < 256.7 <= nxt.value

    def test_constraints_hit_exactly(self):
        res = max_contrast(headline_problem(229))
        prob = headline_problem(229)
        p1, p2, _ = _state_sums(res.state, prob)
        assert p1 == pytest.approx(prob.p1, rel=1e-10)
        assert p2 == pytest.approx(prob.p2, rel=1e-10)

    @pytest.mark.parametrize("depth", [1, 50, 100, 229, 400])
    def test_linear_prediction_brackets(self, depth):
        res = max_contrast(headline_problem(depth))
        excess = res.value - depth
        assert excess <= INTERCEPT * 1.01
        assert excess >= -1e-9
        if depth == 1:
            assert excess == pytest.approx(INTERCEPT, abs=0.1)

    def test_degenerate_full_depth(self):
        prob = headline_problem(564)
        res = max_contrast(prob)
        expected = 564 * prob.p1 / (prob.p1 + 2 * prob.p2)
        assert res.value == pytest.approx(expected, rel=1e-9)

    def test_k1_interior_equals_full_depth(self):
        # max_R(563) is the equal-amplitude optimum, N P1/(P1 + 2 P2) as at M = N
        assert max_contrast(headline_problem(563)).value == \
            max_contrast(headline_problem(564)).value

    def test_deterministic_reruns(self):
        a = max_contrast(headline_problem(137))
        b = max_contrast(headline_problem(137))
        assert a.value == b.value

    def test_grid_oracle_small_systems(self):
        for n in (6, 9, 12):
            for depth in range(1, n + 1):
                prob = BoundProblem(n, depth, 5e-3, 1e-6)
                res = max_contrast(prob)
                assert res.value >= grid_search_max(prob) - 1e-4, (n, depth)

    @pytest.mark.parametrize("prob", [
        BoundProblem(12, 3, 5e-3, 1e-6),
        BoundProblem(12, 7, 5e-3, 1e-5),  # k = 1, all N amplitudes equal
        BoundProblem(12, 7, 5e-3, 1e-6),  # k = 1 on the q = 1 boundary
        # k = 1 at P1 + P2 = 1, where a searched optimum came out complex
        BoundProblem(3, 2, 0.5099999999999999, 0.4900000000000001),
    ], ids=["k4", "k1-interior", "k1-q-bound", "k1-edge"])
    def test_optimum_state_verified_by_tensor_oracle(self, prob):
        res = max_contrast(prob)
        assert type(res.value) is float
        p1_d, p2_d, num_d = direct_family_values(res.state, prob)
        assert p1_d == pytest.approx(prob.p1, rel=1e-9)
        assert p2_d == pytest.approx(prob.p2, rel=1e-9)
        assert num_d / (prob.p1 + 2 * prob.p2) == pytest.approx(res.value, rel=1e-9)


@st.composite
def oracle_problems(draw):
    """k = 1 and k >= 2 problems with P2 around P1^2, and capped-P2 ones
    (P2 near P1 at large P1, beyond what the k >= 2 family reaches)."""
    regime = draw(st.sampled_from(["k1", "k2", "capped"]))
    if regime == "capped":
        n = draw(st.integers(3, 60))
        depth = draw(st.integers(1, n // 2))
        p1 = draw(st.floats(0.4, 0.5))
        return BoundProblem(n, depth, p1, p1 * draw(st.floats(0.8, 1.0)))
    n = draw(st.integers(3, 200))
    depth = draw(st.integers(n // 2 + 1, n - 1) if regime == "k1"
                 else st.integers(1, n // 2))
    p1 = 10 ** draw(st.floats(-3.5, -1.0))
    return BoundProblem(n, depth, p1, min(p1, p1**2 * 10 ** draw(st.floats(-4.0, 0.5))))


CAPPED = BoundProblem(11, 2, 0.39, 0.29)


class TestActiveSetEvaluation:
    def test_tail_ratio_strictly_decreasing(self):
        # the evaluator takes the smallest feasible w because s/p2 falls in w;
        # every M with k >= 2 for N <= 600 covers k' = 0 and slaved remainders.
        # Depths sharing (k, k') are evaluated as one array, a row per depth.
        w = np.union1d(np.geomspace(1e-12, 0.5, 200), 1.0 - np.geomspace(1e-9, 0.5, 200))
        groups = {}
        for n in range(2, 601):
            for depth in range(1, n // 2 + 1):
                groups.setdefault((n // depth, n % depth), []).append(depth)
        cols = np.arange(w.size)
        for (k, k_prime), depths in groups.items():
            prob = SimpleNamespace(k=k, k_prime=k_prime,
                                   depth=np.array(depths)[:, None])
            v = slaved_remainder_weight(w, prob.depth, k_prime)
            s, p2 = np.atleast_2d(*_component_sp2(prob, k, w, v))
            live = p2 > 1e-300  # (1 - w)^(k - 2) underflows near w = 1
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = s / p2
            # compare each live point with the live point before it
            last = np.maximum.accumulate(np.where(live, cols, -1), axis=1)
            step = np.diff(np.take_along_axis(ratio, np.maximum(last, 0), axis=1), axis=1)
            checked = live[:, 1:] & (last[:, :-1] >= 0)
            bad = np.flatnonzero(np.any(checked & ~(step < 0), axis=1))
            assert bad.size == 0, [(k * depths[i] + k_prime, depths[i]) for i in bad]

    @settings(max_examples=60, deadline=None)
    @given(oracle_problems())
    @example(CAPPED)
    @example(BoundProblem(564, 563, 3.5e-3, 2.6e-8))  # interior k = 1 maximum
    # capped budgets whose tail root rounds to the infeasible side by more
    # than a few ulps: the grid point above it under-reported max_R
    @example(BoundProblem(15, 6, 0.4381449018112256, 0.4381449018112256))
    @example(BoundProblem(13, 6, 0.4867870244436108, 0.3940616309563762))
    @example(BoundProblem(6, 2, 0.4789501391665874, 0.3321415956007648))
    @example(BoundProblem(33, 16, 0.4952266597304498, 0.48826898931467977))
    def test_matches_multistart_oracle(self, prob):
        value = max_contrast(prob).value
        oracle = multistart_max_contrast(prob)
        if oracle is None:
            return  # the search found no feasible state; any value beats it
        assert value >= oracle - 1e-12 * abs(oracle), prob
        assert value <= oracle + 1e-6 * abs(oracle), prob

    @pytest.mark.parametrize("prob", [headline_problem(m) for m in (3, 100, 188, 229, 282)]
                             + [CAPPED], ids=lambda p: f"N{p.n_teeth}-M{p.depth}")
    def test_tail_weight_is_the_feasible_left_end(self, prob):
        res = max_contrast(prob)
        w, p2_target = res.state.beta_sq[-1], res.diagnostics.p2_target
        assert min(_tail_constraints(prob, p2_target, w)) >= 0.0
        assert min(_tail_constraints(prob, p2_target, np.nextafter(w, 0.0))) < 0.0

    def test_capped_budget_uses_loop_ceiling(self):
        res = max_contrast(CAPPED)
        ceiling = p2_ceiling_loop(CAPPED)
        assert res.diagnostics.p2_target < CAPPED.p2
        assert _p2_ceiling(CAPPED) == pytest.approx(ceiling, rel=1e-14)
        assert res.diagnostics.p2_target == pytest.approx(ceiling * (1 - 1e-9), rel=1e-14)
        assert _state_sums(res.state, CAPPED)[1] == pytest.approx(
            res.diagnostics.p2_target, rel=1e-10)

    def test_recorded_reference_values(self):
        problems = json.loads(REFERENCE_BOUND.read_text())["problems"]
        checked = 0
        for problem in problems:
            n, p1, p2 = problem["n_teeth"], problem["p1"], problem["p2"]
            for depth, ref in enumerate(problem["max_contrast"], start=1):
                value = max_contrast(BoundProblem(n, depth, p1, p2)).value
                assert ref - 1e-12 * abs(ref) <= value <= ref + 1e-6 * abs(ref), \
                    (n, p1, p2, depth)
                checked += 1
        assert checked == 2068


class TestOptimumStructure:
    def test_two_live_components_and_full_agreement(self):
        problems = random_regime_instances(20)
        fulls = map_in_workers(functools.partial(full_max_contrast, n_starts=40, seed=0),
                               problems)
        for prob, full in zip(problems, fulls):
            reduced = max_contrast(prob)
            assert full.value == pytest.approx(reduced.value, rel=1e-6), prob
            weights = np.sort(full.state.weights)
            assert np.all(weights[:-2] <= 1e-9), (prob, full.state.weights)
            live = np.where(full.state.weights > 1e-9)[0]
            assert set(live) <= {0, prob.k - 1}, (prob, full.state.weights)
            assert full.state.weights[prob.k - 1] > 0.5


class TestLinearBound:
    def test_reference_point_value(self):
        value = linear_bound(256.7, 564, 3.5e-3, 2.6e-8)
        assert value == pytest.approx(219.96, abs=0.01)

    def test_no_pairs_degenerates_to_contrast(self):
        assert linear_bound(42.0, 564, 3.5e-3, 0.0) == 42.0

    def test_separable_point_gives_zero(self):
        # contrast N with sqrt(2 P2)/P1 = 1 bounds nothing
        n, p1 = 200, 1e-3
        p2 = p1**2 / 2
        assert linear_bound(float(n), n, p1, p2) == pytest.approx(0.0, abs=1e-9)


class TestCertifyDepth:
    def test_headline_certification(self):
        res = certify_depth(256.7, 8.7, **HEADLINE)
        assert 218 <= res.m_lower <= 240
        assert res.m_interval[0] <= res.m_lower <= res.m_interval[1]
        below = max_contrast(headline_problem(res.m_lower - 1))
        at = max_contrast(headline_problem(res.m_lower))
        assert below.value < 256.7 <= at.value

    def test_unit_contrast_certifies_one(self):
        res = certify_depth(1.0, 0.0, 64, 1e-3, 0.0)
        assert res.m_lower == 1

    def test_nested_comb_pair(self):
        broadband = certify_depth(5.0, 0.0, 9, 1.1e-2, 2.4e-7)
        narrowband = certify_depth(4.0, 0.0, 9, 8.8e-5, 1.6e-11)
        assert broadband.m_lower == 5
        assert narrowband.m_lower == 4

    def test_monotone_in_contrast(self):
        lows = [certify_depth(r, 0.0, **HEADLINE).m_lower
                for r in (80.0, 150.0, 256.7)]
        assert lows == sorted(lows)
        assert lows[0] < lows[-1]

    def test_more_pairs_weakens_certification(self):
        weak = certify_depth(150.0, 0.0, 564, 3.5e-3, 2e-7)
        strong = certify_depth(150.0, 0.0, 564, 3.5e-3, 2.6e-9)
        assert weak.m_lower <= strong.m_lower

    def test_impossible_contrast_rejected(self):
        with pytest.raises(ContrastInconsistencyError):
            certify_depth(563.995, 0.0, **HEADLINE)
        with pytest.raises(ContrastInconsistencyError):
            certify_depth(600.0, 0.0, **HEADLINE)

    @pytest.mark.parametrize("contrast,sigma", [(math.nan, 8.7), (math.inf, 8.7),
                                                (256.7, math.nan), (256.7, math.inf)])
    def test_non_finite_measurement_rejected(self, contrast, sigma):
        with pytest.raises(ValueError):
            certify_depth(contrast, sigma, **HEADLINE)

    def test_serialisable(self):
        res = certify_depth(40.0, 2.0, 100, 2e-3, 1e-8)
        payload = res.to_dict()
        assert payload["m_lower"] == res.m_lower
        assert set(payload["solver"]) == {"best_objective", "constraint_residuals",
                                          "active_constraints", "p2_target"}

    def test_p2_budget_is_reported(self):
        headline = certify_depth(256.7, 8.7, **HEADLINE).to_dict()
        assert headline["solver"]["p2_target"] == HEADLINE["p2"]
        capped = certify_depth(3.5, 0.0, CAPPED.n_teeth, CAPPED.p1, CAPPED.p2)
        assert capped.m_lower == CAPPED.depth
        assert capped.to_dict()["solver"]["p2_target"] < CAPPED.p2


class TestBoundCurve:
    def test_zero_pairs_is_identity_line(self):
        rows = bound_curve(100, 2e-3, 0.0, depths=[1, 10, 50, 100])
        for depth, value in rows:
            assert value == pytest.approx(depth, rel=1e-12)

    def test_monotone_including_block_boundaries(self):
        depths = [1, 2, 3, 5, 9, 17, 33, 65, 129, 257, 282, 283, 300, 400,
                  500, 563, 564]
        rows = bound_curve(**HEADLINE, depths=depths)
        values = [v for _, v in rows]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_tied_family_never_exceeds_full_depth(self):
        # max_R(N) = N P1/(P1 + 2 P2) bounds every state, k >= 2 (M = 1..5) included
        values = [v for _, v in bound_curve(11, 0.39, 0.29, range(1, 12))]
        assert all(b >= a for a, b in zip(values, values[1:])), values
        assert max(values) == values[-1] == 11 * 0.39 / (0.39 + 2 * 0.29)

    def test_k1_at_p1_plus_p2_one_is_real(self):
        # a searched optimum here raised TypeError on a complex value
        rows = bound_curve(629, 0.555647019086139, 0.444352980913861, [418])
        assert [type(v) for _, v in rows] == [float]

    def test_low_depth_fit_matches_linear_form(self):
        depths = list(range(1, 51, 7))
        rows = bound_curve(**HEADLINE, depths=depths)
        slope, intercept = np.polyfit([m for m, _ in rows], [v for _, v in rows], 1)
        assert slope == pytest.approx(1.0, abs=0.06)
        assert intercept == pytest.approx(INTERCEPT, abs=1.0)

    def test_pair_budget_orders_curves(self):
        depths = [1, 100, 250, 450]
        curves = [bound_curve(564, 3.5e-3, p2, depths=depths)
                  for p2 in (0.0, 2.6e-9, 2.6e-8, 2e-7)]
        for weaker, stronger in zip(curves, curves[1:]):
            for (_, lo), (_, hi) in zip(weaker, stronger):
                assert hi > lo - 1e-12


class TestValidation:
    def test_problem_invariants(self):
        with pytest.raises(ValueError):
            BoundProblem(10, 0, 1e-3, 0.0)
        with pytest.raises(ValueError):
            BoundProblem(10, 11, 1e-3, 0.0)
        with pytest.raises(ValueError):
            BoundProblem(10, 2, 1e-3, 2e-3)  # p2 > p1
        with pytest.raises(ValueError):
            BoundProblem(10, 2, 0.0, 0.0)
        for p1, p2 in ((math.nan, 0.0), (1e-3, math.nan), (math.inf, 0.0),
                       (1e-3, math.inf)):
            with pytest.raises(ValueError):
                BoundProblem(10, 2, p1, p2)

    def test_state_invariants(self):
        with pytest.raises(ValueError):
            MixedBlockState(weights=np.array([0.7, 0.7]),
                            beta_sq=np.array([0.1, 0.1]))
        with pytest.raises(ValueError):
            MixedBlockState(weights=np.array([1.0]), beta_sq=np.array([1.5]))
