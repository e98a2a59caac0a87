"""Backward induction, fixed-point iteration, contraction and convergence checks."""

import dataclasses
import math
import re

import numpy as np
import pytest

from riskmdp import mdp_core, robust_check, solvers

from riskmdp.distributions import make_distribution
from riskmdp.errors import (
    DimensionMismatch,
    InfeasiblePolicy,
    NotCoherent,
    NotContractive,
    RiskMdpError,
)
from riskmdp.examples import (
    HouseSellingParams,
    build_casino,
    build_house_selling,
)
from riskmdp.mdp_core import (
    BoundingSpec,
    BoundMode,
    MdpModel,
    Policy,
    ValueFunction,
    bellman_T,
    constant_bounding_spec,
    weighted_norm,
)
from riskmdp.risk_measures import (
    Entropic,
    Expectation,
    ExpectedShortfall,
    Mixture,
    Spectral,
    StepSpectrum,
    ValueAtRisk,
)
from riskmdp.robust_check import dual_set, robust_value_iteration
from riskmdp.solvers import (
    check_contraction,
    default_max_iter,
    evaluate_policy_finite,
    solve_finite,
    solve_infinite,
    weak_increase_check,
)

from helpers import classic_finite_dp, classic_infinite_vi, make_random_model


class TestSolveFinite:
    def test_casino_expectation_closed_form(self):
        m = build_casino(0.75, 2, [0, 1, 2, 3])
        res = solve_finite(m, Expectation(), 2)
        for x in range(4):
            assert res.values[0][x] == pytest.approx(-2.25 * x, abs=1e-12)
        # bold play at every reachable state
        for n in range(2):
            for x0 in range(4):
                x = x0 * 2**n
                assert res.policy.stages[n][x] == x

    def test_house_selling_thresholds_in_values(self):
        offers = make_distribution([0, 1, 2, 3], [0.25] * 4)
        m = build_house_selling(HouseSellingParams(offer_law=offers, rent=0.5, horizon=2))
        res = solve_finite(m, Expectation(), 2)
        # offer states sit at indices 1..4; J_0(x) = min(x, 1.75)
        for i, offer in enumerate((0.0, 1.0, 2.0, 3.0), start=1):
            assert res.values[0][i] == pytest.approx(min(offer, 1.75), abs=1e-12)
            assert res.values[1][i] == pytest.approx(min(offer, 2.0), abs=1e-12)

    def test_single_stage_is_one_sweep(self):
        rng = np.random.default_rng(100)
        m = make_random_model(rng)
        res = solve_finite(m, ExpectedShortfall(0.5), 1)
        swept, actions = bellman_T(m, ExpectedShortfall(0.5), m.terminal_cost)
        assert tuple(res.values[0]) == tuple(swept)
        assert res.policy.stages[0] == actions
        assert len(res.stage_seconds) == 1
        assert res.stage_seconds[0] >= 0.0

    def test_stage_indexing_consistency(self):
        rng = np.random.default_rng(101)
        m = make_random_model(rng)
        risk = ExpectedShortfall(0.6)
        res = solve_finite(m, risk, 4)
        v = m.terminal_cost
        for n in range(3, -1, -1):
            v, _ = bellman_T(m, risk, v)
            assert tuple(res.values[n]) == tuple(v)

    def test_per_stage_risks_and_models(self):
        rng = np.random.default_rng(102)
        m1 = make_random_model(rng)
        m2 = MdpModel(
            n_states=m1.n_states,
            n_actions=m1.n_actions,
            admissible=m1.admissible,
            disturbance=m1.disturbance,
            transition=m1.transition,
            cost=[[[c + 0.25 for c in cell] for cell in row] for row in m1.cost],
            terminal_cost=m1.terminal_cost,
            discount=m1.discount,
        )
        risks = [Expectation(), ExpectedShortfall(0.8)]
        res = solve_finite([m1, m2], risks, 2)
        v1, _ = bellman_T(m2, risks[1], m1.terminal_cost)
        v0, _ = bellman_T(m1, risks[0], v1)
        assert tuple(res.values[0]) == tuple(v0)

    def test_classic_dp_agreement(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            m = make_random_model(rng)
            res = solve_finite(m, Expectation(), 3)
            values, rules = classic_finite_dp(m, 3)
            for n in range(4):
                for x in range(m.n_states):
                    assert res.values[n][x] == pytest.approx(values[n][x], abs=1e-10)
            assert tuple(tuple(r) for r in rules) == res.policy.stages


class TestEvaluatePolicyFinite:
    def test_greedy_policy_reproduces_solver_values(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = make_random_model(rng)
            risk = ExpectedShortfall(0.7)
            res = solve_finite(m, risk, 3)
            vals = evaluate_policy_finite(m, risk, res.policy, 3)
            for n in range(4):
                for x in range(m.n_states):
                    assert vals[n][x] == pytest.approx(res.values[n][x], abs=1e-12)

    def test_dominates_optimal_values(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = make_random_model(rng)
            risk = ExpectedShortfall(0.7)
            res = solve_finite(m, risk, 2)
            rules = tuple(
                tuple(m.admissible[x][-1] for x in range(m.n_states)) for _ in range(2)
            )
            vals = evaluate_policy_finite(m, risk, Policy(stages=rules), 2)
            for n in range(3):
                for x in range(m.n_states):
                    assert vals[n][x] >= res.values[n][x] - 1e-12

    def test_casino_never_bet(self):
        m = build_casino(0.75, 3, [0, 1, 2, 3])
        never = Policy(stages=(tuple(0 for _ in range(m.n_states)),), stationary=True)
        vals = evaluate_policy_finite(m, Expectation(), never, 3)
        for x in range(m.n_states):
            assert vals[0][x] == -float(x)

    def test_house_selling_stop_immediately(self):
        offers = make_distribution([0, 1, 2, 3], [0.25] * 4)
        m = build_house_selling(HouseSellingParams(offer_law=offers, rent=0.5, horizon=2))
        stop = Policy(stages=(tuple(0 for _ in range(m.n_states)),), stationary=True)
        vals = evaluate_policy_finite(m, Expectation(), stop, 2)
        for i, offer in enumerate((0.0, 1.0, 2.0, 3.0), start=1):
            assert vals[0][i] == offer

    def test_infeasible_policy(self):
        m = build_casino(0.5, 1, [0, 1])
        bad = Policy(stages=(tuple(1 for _ in range(m.n_states)),),)
        with pytest.raises(InfeasiblePolicy):
            evaluate_policy_finite(m, Expectation(), bad, 1)


class TestSolveInfinite:
    def test_zero_cost_model_converges_immediately(self):
        rng = np.random.default_rng(5)
        m = make_random_model(rng, zero_terminal=True)
        zero_cost = MdpModel(
            n_states=m.n_states,
            n_actions=m.n_actions,
            admissible=m.admissible,
            disturbance=m.disturbance,
            transition=m.transition,
            cost=[[[0.0 for _ in cell] for cell in row] for row in m.cost],
            terminal_cost=m.terminal_cost,
            discount=0.9,
        )
        spec = BoundingSpec(
            lb=(-0.5,) * m.n_states, ub=(0.5,) * m.n_states, alpha=1.0
        )
        res = solve_infinite(zero_cost, ExpectedShortfall(0.9), spec, 1e-10)
        assert res.converged
        assert res.iterations == 1
        assert all(v == 0.0 for v in res.value)

    def test_matches_classic_value_iteration(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            m = make_random_model(rng, max_states=5, zero_terminal=True)
            spec = constant_bounding_spec(m)
            res = solve_infinite(m, Expectation(), spec, 1e-12)
            oracle, rule = classic_infinite_vi(m, tol=1e-13)
            assert res.converged
            for x in range(m.n_states):
                assert res.value[x] == pytest.approx(oracle[x], abs=1e-10)
            assert res.policy.stages[0] == tuple(rule)

    def test_requires_zero_terminal(self):
        rng = np.random.default_rng(7)
        m = make_random_model(rng, zero_terminal=False)
        spec = constant_bounding_spec(m)
        with pytest.raises(RiskMdpError):
            solve_infinite(m, Expectation(), spec, 1e-8)

    def test_not_contractive_rejected(self):
        m = build_casino(0.75, 1, [0, 1])  # discount 1.0
        zero_term = MdpModel(
            n_states=m.n_states,
            n_actions=m.n_actions,
            admissible=m.admissible,
            disturbance=m.disturbance,
            transition=m.transition,
            cost=m.cost,
            terminal_cost=(0.0,) * m.n_states,
            discount=1.0,
        )
        spec = BoundingSpec(
            lb=(-1.0,) * m.n_states,
            ub=tuple(0.0 + x for x in range(m.n_states)),
            eps_split=(1.0, 0.0),
            alpha=2.0,
            mode=BoundMode.BOUNDED_BELOW,
        )
        with pytest.raises(NotContractive):
            solve_infinite(zero_term, ExpectedShortfall(0.5), spec, 1e-8)

    def test_max_iter_flagging(self):
        rng = np.random.default_rng(8)
        m = make_random_model(rng, zero_terminal=True)
        spec = constant_bounding_spec(m)
        res = solve_infinite(m, ExpectedShortfall(0.8), spec, 1e-12, max_iter=2)
        assert not res.converged
        assert res.iterations == 2

    def test_error_bound_residual_property(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            m = make_random_model(rng, zero_terminal=True)
            spec = constant_bounding_spec(m)
            risk = ExpectedShortfall(0.85)
            res = solve_infinite(m, risk, spec, 1e-9)
            assert res.converged
            reapplied, _ = bellman_T(m, risk, res.value)
            drift = weighted_norm(reapplied, res.value, spec.b())
            assert drift <= res.error_bound + 1e-15

    def test_value_within_global_envelopes(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            m = make_random_model(rng, zero_terminal=True)
            spec = constant_bounding_spec(m)
            risk = ExpectedShortfall(0.8)
            tol = 1e-9
            res = solve_infinite(m, risk, spec, tol)
            glb, gub = spec.global_bounds(m.discount)
            slack = tol * max(spec.b())
            for x in range(m.n_states):
                assert glb[x] - slack <= res.value[x] <= gub[x] + slack

    def test_policy_is_greedy_for_returned_value(self):
        rng = np.random.default_rng(24)
        m = make_random_model(rng, zero_terminal=True)
        spec = constant_bounding_spec(m)
        risk = ExpectedShortfall(0.7)
        res = solve_infinite(m, risk, spec, 1e-9)
        _, greedy = bellman_T(m, risk, res.value)
        assert res.policy.stationary
        assert res.policy.stages[0] == greedy

    def test_uniqueness_probe_from_upper_bound(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            m = make_random_model(rng, zero_terminal=True)
            spec = constant_bounding_spec(m)
            risk = ExpectedShortfall(0.75)
            tol = 1e-8
            from_zero = solve_infinite(m, risk, spec, tol)
            report_ub = spec.global_bounds(m.discount)[1]
            from_ub = solve_infinite(
                m, risk, spec, tol, start=type(from_zero.value)(report_ub)
            )
            assert from_zero.converged and from_ub.converged
            gap = weighted_norm(from_zero.value, from_ub.value, spec.b())
            assert gap <= 2 * tol

    @pytest.mark.parametrize(
        "risk",
        [ExpectedShortfall(0.8), Entropic(0.5), Mixture(0.5, Entropic(0.3), ValueAtRisk(0.7))],
        ids=["ES", "entropic", "mixture"],
    )
    def test_pair_by_pair_a_solve_evaluates_every_pair_in_every_sweep(self, monkeypatch, risk):
        monkeypatch.setattr(mdp_core, "BATCH_MIN_OUTCOMES", 10**9)
        rng = np.random.default_rng(12)
        for _ in range(3):
            m = make_random_model(rng, max_states=9, zero_terminal=True)
            for max_iter in (None, 2, 0):
                res = solve_infinite(m, risk, constant_bounding_spec(m), 1e-9, max_iter)
                assert res.pair_evaluations == len(m._sweep[0]) * (res.iterations + 1)

    def test_the_dual_route_evaluates_every_pair_in_every_sweep(self):
        m = make_random_model(np.random.default_rng(4), max_states=9, zero_terminal=True)
        res = robust_value_iteration(m, dual_set(ExpectedShortfall(0.6)), constant_bounding_spec(m), 1e-9)
        assert res.pair_evaluations == len(m._sweep[0]) * (res.iterations + 1)

    def test_an_entropic_solve_leaves_pairs_out(self):
        # the seeded model's states each have a clear best action, so most of
        # the sweeps' other pairs are left out; values and trace do not change.
        # It passes the size gate: 58 pairs beyond each state's first, 8
        # outcomes, 84 pairs: 58 * 8 - 84 = 380. The count is pinned, so a
        # change to which pairs a sweep evaluates shows here
        rng = np.random.default_rng(9)
        m = make_random_model(rng, max_states=60, max_actions=5, max_outcomes=8, zero_terminal=True)
        assert mdp_core._eliminates(m, Entropic(0.5))
        res = solve_infinite(m, Entropic(0.5), constant_bounding_spec(m), 1e-9)
        full = len(m._sweep[0]) * (res.iterations + 1)
        assert (res.pair_evaluations, full) == (5464, 16380)
        memo = mdp_core._SweepMemo()
        memo.eliminate = False
        kept = solvers._fixed_point(
            m, Entropic(0.5), constant_bounding_spec(m), 1e-9, None, [0.0] * m.n_states,
            lambda v: bellman_T(m, Entropic(0.5), v, memo)[0], lambda v: bellman_T(m, Entropic(0.5), v)[1],
        )
        assert [v.hex() for v in res.value] == [v.hex() for v in kept.value]
        assert res.policy == kept.policy and res.trace == kept.trace
        assert kept.pair_evaluations == full

    def test_one_call_through_bellman_T_per_sweep_and_one_for_the_policy(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return bellman_T(*args)

        monkeypatch.setattr(solvers, "bellman_T", counted)
        rng = np.random.default_rng(10)
        m = make_random_model(rng, zero_terminal=True)
        for max_iter in (None, 3, 0):
            calls.clear()
            res = solve_infinite(m, ExpectedShortfall(0.8), constant_bounding_spec(m), 1e-10, max_iter)
            assert len(calls) == res.iterations + 1
        assert res.iterations == 0

    @pytest.mark.parametrize("threshold", [0, 10**9], ids=["batch", "pairwise"])
    @pytest.mark.parametrize("extra", [-1, 1], ids=["shorter", "longer"])
    def test_a_start_of_the_wrong_length_is_refused_before_the_first_sweep(
        self, monkeypatch, threshold, extra
    ):
        monkeypatch.setattr(mdp_core, "BATCH_MIN_OUTCOMES", threshold)
        calls = []

        def counted(*args):
            calls.append(args)
            return bellman_T(*args)

        monkeypatch.setattr(solvers, "bellman_T", counted)
        m = make_random_model(np.random.default_rng(10), zero_terminal=True)
        n = m.n_states
        start = ValueFunction((0.0,) * (n + extra))
        message = f"start has {n + extra} values, model has {n} states"
        with pytest.raises(DimensionMismatch, match=message):
            solve_infinite(m, ExpectedShortfall(0.8), constant_bounding_spec(m), 1e-8, start=start)
        assert calls == []

    def test_each_solve_sorts_every_law_on_its_first_sweep(self, monkeypatch):
        # two models of one shape in a row: a memo kept from the first solve
        # would lay the second's values out by the first's tables
        monkeypatch.setattr(mdp_core, "BATCH_MIN_OUTCOMES", 0)
        built = []
        row_laws = mdp_core._row_laws

        def counted(risk, values, probs):
            built.append(len(values))
            return row_laws(risk, values, probs)

        monkeypatch.setattr(mdp_core, "_row_laws", counted)
        rng = np.random.default_rng(31)
        first = make_random_model(rng, max_states=8, zero_terminal=True)
        second = dataclasses.replace(first, cost=rng.uniform(-1, 1, first.cost.shape))
        spec = BoundingSpec(lb=(-1.5,) * first.n_states, ub=(1.5,) * first.n_states)  # costs lie in [-1, 1]
        spectral = Spectral(StepSpectrum(((0.0, 0.5), (0.5, 1.5))))
        for risk in (ExpectedShortfall(0.6), ValueAtRisk(0.5), Mixture(0.5, spectral, Expectation())):
            for m in (first, second, first):
                built.clear()
                got = solve_infinite(m, risk, spec, 1e-10)
                assert built[0] == len(m._sweep[0]), risk

                def step(v):
                    return bellman_T(m, risk, v)[0]

                def greedy(v):
                    return bellman_T(m, risk, v)[1]

                fresh = solvers._fixed_point(m, risk, spec, 1e-10, None, [0.0] * m.n_states, step, greedy)
                assert [v.hex() for v in got.value] == [v.hex() for v in fresh.value], risk
                assert got.policy == fresh.policy and got.trace == fresh.trace, risk

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_tol_must_be_positive_in_both_solvers(self, tol):
        rng = np.random.default_rng(11)
        m = make_random_model(rng, zero_terminal=True)
        spec = constant_bounding_spec(m)
        with pytest.raises(RiskMdpError, match="tol must be > 0"):
            solve_infinite(m, ExpectedShortfall(0.8), spec, tol)
        with pytest.raises(RiskMdpError, match="tol must be > 0"):
            robust_value_iteration(m, dual_set(ExpectedShortfall(0.8)), spec, tol)

    def test_an_overflowing_weight_never_certifies(self):
        # b = ub - lb overflows to inf; |v1 - v0| / inf = 0 would certify
        # the first iterate, 1e308, of a fixed point at 2e308
        m = MdpModel(
            n_states=1,
            n_actions=1,
            admissible=((0,),),
            disturbance=make_distribution([0], [1.0]),
            transition=[[[0]]],
            cost=[[[1e308]]],
            terminal_cost=[0.0],
            discount=0.5,
        )
        spec = constant_bounding_spec(m)
        assert spec.b() == (math.inf,)
        with pytest.raises(RiskMdpError, match="norm weights must be finite and >= 1, got inf"):
            solve_infinite(m, Expectation(), spec, 1e-8)
        with pytest.raises(RiskMdpError, match="norm weights must be finite and >= 1, got inf"):
            robust_value_iteration(m, dual_set(Expectation()), spec, 1e-8)

    def test_default_max_iter_formula(self):
        assert default_max_iter(1e-8, 0.9) == 10 * int(np.ceil(np.log(1e-8) / np.log(0.9)))
        assert default_max_iter(1e-8, 0.0) == 10


class TestCheckContraction:
    def test_expectation_constant_bounds(self):
        rng = np.random.default_rng(12)
        m = make_random_model(rng, zero_terminal=True)
        spec = constant_bounding_spec(m)
        ratio = check_contraction(m, Expectation(), spec, 50, seed=0)
        assert ratio <= 0.9 + 1e-9

    def test_es_constant_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            m = make_random_model(rng, zero_terminal=True)
            spec = constant_bounding_spec(m)
            ratio = check_contraction(m, ExpectedShortfall(0.8), spec, 50, seed=1)
            assert ratio <= 0.9 + 1e-9

    def test_var_rejected_in_coherent_mode(self):
        rng = np.random.default_rng(14)
        m = make_random_model(rng, zero_terminal=True)
        spec = constant_bounding_spec(m, mode=BoundMode.COHERENT)
        with pytest.raises(NotCoherent):
            check_contraction(m, ValueAtRisk(0.9), spec, 10)

    def test_var_allowed_in_bounded_below_mode(self):
        rng = np.random.default_rng(15)
        m = make_random_model(rng, zero_terminal=True, cost_lo=0.0, cost_hi=1.0)
        big = max(c for row in m.cost for cell in row for c in cell)
        spec = BoundingSpec(
            lb=(-1.0,) * m.n_states,
            ub=(big,) * m.n_states,
            eps_split=(1.0, 0.0),
            alpha=1.0,
            mode=BoundMode.BOUNDED_BELOW,
        )
        ratio = check_contraction(m, ValueAtRisk(0.7), spec, 50, seed=2)
        assert ratio <= 0.9 + 1e-9

    def test_entropic_bounded_case_contracts(self):
        # bounded one-stage cost: any normalized monetary measure contracts at
        # modulus discount; measured directly since the entropic kind is
        # neither coherent nor comonotonic additive
        rng = np.random.default_rng(16)
        m = make_random_model(rng, zero_terminal=True)
        spec = constant_bounding_spec(m)
        weight = spec.b()
        glb, gub = spec.global_bounds(m.discount)
        worst = 0.0
        rng2 = np.random.default_rng(17)
        for _ in range(50):
            v1 = rng2.uniform(glb, gub)
            v2 = rng2.uniform(glb, gub)
            denom = weighted_norm(v1.tolist(), v2.tolist(), weight)
            if denom == 0.0:
                continue
            t1, _ = bellman_T(m, Entropic(1.0), v1.tolist())
            t2, _ = bellman_T(m, Entropic(1.0), v2.tolist())
            worst = max(worst, weighted_norm(t1, t2, weight) / denom)
        assert worst <= 0.9 + 1e-9


class TestWeakIncrease:
    def test_nonnegative_costs_monotone_increase(self):
        rng = np.random.default_rng(18)
        m = make_random_model(rng, zero_terminal=True, cost_lo=0.0, cost_hi=1.0)
        big = max(c for row in m.cost for cell in row for c in cell)
        spec = BoundingSpec(
            lb=(-1.0,) * m.n_states,
            ub=(big,) * m.n_states,
            eps_split=(1.0, 0.0),
            alpha=1.0,
        )
        risk = ExpectedShortfall(0.8)
        policy = Policy(
            stages=(tuple(m.admissible[x][0] for x in range(m.n_states)),), stationary=True
        )
        assert weak_increase_check(m, risk, spec, policy, 5)
        vals = evaluate_policy_finite(
            MdpModel(
                n_states=m.n_states,
                n_actions=m.n_actions,
                admissible=m.admissible,
                disturbance=m.disturbance,
                transition=m.transition,
                cost=m.cost,
                terminal_cost=(0.0,) * m.n_states,
                discount=m.discount,
            ),
            risk,
            policy,
            5,
        )
        for n in range(1, 5):
            for x in range(m.n_states):
                assert vals[n - 1][x] >= vals[n][x] - 1e-12  # stages-to-go ordering

    def test_casino_bold_play(self):
        m = build_casino(0.75, 6, [0, 1, 2])
        zero_term = MdpModel(
            n_states=m.n_states,
            n_actions=m.n_actions,
            admissible=m.admissible,
            disturbance=m.disturbance,
            transition=m.transition,
            cost=m.cost,
            terminal_cost=(0.0,) * m.n_states,
            discount=1.0,
        )
        bold = Policy(
            stages=(tuple(max(zero_term.admissible[x]) for x in range(m.n_states)),),
            stationary=True,
        )
        # capital can double each round: growth rate 2 in bounded-below mode
        spec = BoundingSpec(
            lb=(-1.0,) * m.n_states,
            ub=tuple(float(x) for x in range(m.n_states)),
            eps_split=(1.0, 0.0),
            alpha=2.0,
            mode=BoundMode.BOUNDED_BELOW,
        )
        assert weak_increase_check(zero_term, ExpectedShortfall(0.5), spec, bold, 6)

    def test_random_models_es(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            m = make_random_model(rng, zero_terminal=True)
            spec = constant_bounding_spec(m)
            rule = tuple(m.admissible[x][int(rng.integers(0, len(m.admissible[x])))]
                         for x in range(m.n_states))
            policy = Policy(stages=(rule,), stationary=True)
            assert weak_increase_check(m, ExpectedShortfall(0.8), spec, policy, 5)

    def test_non_coherent_rejected(self):
        rng = np.random.default_rng(20)
        m = make_random_model(rng, zero_terminal=True)
        spec = constant_bounding_spec(m)
        policy = Policy(
            stages=(tuple(m.admissible[x][0] for x in range(m.n_states)),), stationary=True
        )
        with pytest.raises(NotCoherent):
            weak_increase_check(m, ValueAtRisk(0.5), spec, policy, 3)


def test_failed_bounds_are_located_in_every_check():
    m = MdpModel(
        n_states=2,
        n_actions=2,
        admissible=((0, 1), (0,)),
        disturbance=make_distribution([0, 1], [0.5, 0.5]),
        transition=(((0, 1), (1, 1)), ((0, 0), (0, 0))),
        cost=(((1.0, 2.0), (0.5, 0.5)), ((0.0, 0.0), (0.0, 0.0))),
        terminal_cost=(0.0, 0.0),
        discount=0.9,
    )
    spec = BoundingSpec(lb=(-0.5, -0.5), ub=(0.5, 1.5), alpha=1.0)
    policy = Policy(stages=((0, 0),), stationary=True)
    located = re.escape("bounding spec fails verification (3 violations, first stage_cost_upper at state 0, action 0)")
    for check in (
        lambda: solve_infinite(m, Expectation(), spec, 1e-8),
        lambda: robust_value_iteration(m, dual_set(Expectation()), spec, 1e-8),
        lambda: check_contraction(m, Expectation(), spec, 3),
        lambda: weak_increase_check(m, Expectation(), spec, policy, 3),
    ):
        with pytest.raises(RiskMdpError, match=located):
            check()


class TestValueOnlySelection:
    """The fixed-point sweeps take only each state's minimum, as the greedy sweep would."""

    @pytest.mark.parametrize("threshold", [0, 10**9], ids=["batch", "pairwise"])
    @pytest.mark.parametrize("first", [-0.0, 0.0])
    def test_a_tie_of_signed_zeros_keeps_the_first_actions_zero(self, monkeypatch, threshold, first):
        # value at risk returns an atom, so from a start of -0.0 the first
        # action's value is `first` and the other 39 actions' the other zero:
        # a tie long enough for numpy's vectorised reduction
        monkeypatch.setattr(mdp_core, "BATCH_MIN_OUTCOMES", threshold)
        n_actions = 40
        m = MdpModel(
            n_states=1,
            n_actions=n_actions,
            admissible=(tuple(range(n_actions)),),
            disturbance=make_distribution([0, 1], [0.5, 0.5]),
            transition=[[[0, 0]] * n_actions],
            cost=[[[first, first]] + [[-first, -first]] * (n_actions - 1)],
            terminal_cost=[0.0],
            discount=0.5,
        )
        res = solve_infinite(m, ValueAtRisk(0.5), BoundingSpec(lb=(-0.5,), ub=(0.5,)), 1e-8, None, (-0.0,))
        assert res.iterations == 1 and res.policy.stages == ((0,),)
        assert res.value[0].hex() == first.hex() == bellman_T(m, ValueAtRisk(0.5), (-0.0,))[0][0].hex()

    def test_the_minima_match_the_greedy_selection_bit_for_bit(self):
        # long runs of signed zeros, NaN and infinities, and states of one value but for its first pair's sign
        rng = np.random.default_rng(17)
        palette = np.array([-0.0, 0.0, math.nan, math.inf, 1.0, -1.0, -math.inf])
        for _ in range(200):
            m = make_random_model(rng, max_states=5, max_actions=40, max_outcomes=2)
            n = len(m._sweep[0])
            vals = palette[rng.integers(0, rng.integers(2, len(palette) + 1), n)]
            for x in rng.choice(m.n_states, 3):  # all NaN, all inf, or one zero then the other
                at = np.flatnonzero(m._sweep[0] == x)
                vals[at] = palette[rng.integers(0, 4)]
                vals[at[0]] = -vals[at[0]]
            best = mdp_core._first_min(m, vals)[0]
            assert mdp_core._min_values(m, vals).tobytes() == best.tobytes()
            assert mdp_core._min_values(m, vals.tolist()).tobytes() == best.tobytes()

    @pytest.mark.parametrize("threshold", [0, 10**9], ids=["batch", "pairwise"])
    def test_a_state_without_a_finite_value_stops_the_solve_at_its_sweep(self, monkeypatch, threshold):
        # the first sweep gives 1e308; at the second every pair overflows to
        # +inf, or to NaN where nature's density is 0, which reads +inf
        monkeypatch.setattr(mdp_core, "BATCH_MIN_OUTCOMES", threshold)
        m = MdpModel(
            n_states=1,
            n_actions=2,
            admissible=((0, 1),),
            disturbance=make_distribution([0, 1], [0.5, 0.5]),
            transition=[[[0, 0], [0, 0]]],
            cost=[[[1e308, 1e308], [1.5e308, 1.5e308]]],
            terminal_cost=[0.0],
            discount=0.9,
        )
        spec = BoundingSpec(lb=(-0.5,), ub=(1.6e308,))
        sweeps = []

        def counted(*args):
            sweeps.append(args)
            return original(*args)

        for module, name in ((solvers, "bellman_T"), (robust_check, "_adversary_values")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, counted)
            sweeps.clear()
            with pytest.raises(RiskMdpError, match="^non-finite value inf$"):
                if module is solvers:
                    solve_infinite(m, ExpectedShortfall(0.5), spec, 1e-8)
                else:
                    robust_value_iteration(m, dual_set(ExpectedShortfall(0.5)), spec, 1e-8)
            assert len(sweeps) == 2, name
