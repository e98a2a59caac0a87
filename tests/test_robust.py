"""Adversary DP, minimax game value, and the inf-sup equivalence check."""

import math

import numpy as np
import pytest

from riskmdp import robust_check
from riskmdp.distributions import make_distribution
from riskmdp.errors import NotCoherent, RiskMdpError, TooLargeForEnumeration
from riskmdp.examples import build_casino
from riskmdp.mdp_core import MdpModel, Policy, constant_bounding_spec
from riskmdp.risk_measures import (
    Entropic,
    Expectation,
    ExpectedShortfall,
    Mixture,
    Spectral,
    StepSpectrum,
    ValueAtRisk,
    evaluate,
    random_distribution,
)
from riskmdp.robust_check import (
    count_markov_policies,
    dual_set,
    enumerate_markov_policies,
    nature_best_response,
    robust_game_value,
    robust_value_iteration,
    verify_equivalence,
)
from riskmdp.solvers import evaluate_policy_finite, solve_finite, solve_infinite

from helpers import classic_finite_dp, make_enumeration_model, make_random_model


def random_policy(rng, model, horizon):
    stages = tuple(
        tuple(model.admissible[x][int(rng.integers(0, len(model.admissible[x])))]
              for x in range(model.n_states))
        for _ in range(horizon)
    )
    return Policy(stages=stages)


class TestDualSet:
    def test_rejects_non_coherent(self):
        for risk in (ValueAtRisk(0.5), Entropic(1.0)):
            with pytest.raises(NotCoherent):
                dual_set(risk)

    def test_one_step_duality_matches_evaluate(self):
        rng = np.random.default_rng(50)
        es = dual_set(ExpectedShortfall(0.6))
        spectral = dual_set(
            Spectral(StepSpectrum(breakpoints=((0.0, 0.25), (0.5, 1.75))))
        )
        for _ in range(300):
            d = random_distribution(rng)
            perm = rng.permutation(len(d.atoms))
            values = [d.atoms[i] for i in perm]
            probs = [d.probs[i] for i in perm]
            for ds in (es, spectral):
                got, density = ds.sup(values, probs)
                assert got == pytest.approx(evaluate(ds.risk, d), abs=1e-12)
                assert ds.feasible(density, probs)

    def test_es_density_caps(self):
        ds = dual_set(ExpectedShortfall(0.5))
        values = [3.0, 1.0, 2.0]
        probs = [0.25, 0.5, 0.25]
        value, density = ds.sup(values, probs)
        assert value == pytest.approx(2.0 * 0.5 + 3.0 * 0.5, abs=1e-14)
        assert density == (0.5, 0.0, 0.5)

    def test_expectation_singleton(self):
        ds = dual_set(Expectation())
        value, density = ds.sup([5.0, -1.0], [0.4, 0.6])
        assert density == (0.4, 0.6)
        assert value == pytest.approx(5.0 * 0.4 - 0.6, abs=1e-14)


class TestNatureBestResponse:
    def test_singleton_dual_set_is_policy_evaluation(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            m = make_enumeration_model(rng)
            policy = random_policy(rng, m, 3)
            w = nature_best_response(m, dual_set(Expectation()), policy, 3)
            vals = evaluate_policy_finite(m, Expectation(), policy, 3)
            for x in range(m.n_states):
                assert w[x] == pytest.approx(vals[0][x], abs=1e-12)

    def test_casino_single_stage_duality(self):
        m = build_casino(0.75, 1, [0, 1, 2, 3])
        bold = Policy(
            stages=(tuple(max(m.admissible[x]) for x in range(m.n_states)),), stationary=True
        )
        w = nature_best_response(m, dual_set(ExpectedShortfall(0.5)), bold, 1)
        vals = evaluate_policy_finite(m, ExpectedShortfall(0.5), bold, 1)
        for x in range(m.n_states):
            assert w[x] == pytest.approx(vals[0][x], abs=1e-12)

    def test_multi_stage_matches_primal_recursion(self):
        rng = np.random.default_rng(52)
        for _ in range(15):
            m = make_random_model(rng, max_states=4, zero_terminal=True)
            policy = random_policy(rng, m, 3)
            for level in (0.5, 0.9):
                ds = dual_set(ExpectedShortfall(level))
                w = nature_best_response(m, ds, policy, 3)
                vals = evaluate_policy_finite(m, ExpectedShortfall(level), policy, 3)
                for x in range(m.n_states):
                    assert w[x] == pytest.approx(vals[0][x], abs=1e-10)


class TestRobustGameValue:
    def test_single_stage_min_of_dual_sups(self):
        rng = np.random.default_rng(53)
        m = make_enumeration_model(rng)
        ds = dual_set(ExpectedShortfall(0.7))
        g = robust_game_value(m, ds, 1)
        primal = solve_finite(m, ExpectedShortfall(0.7), 1)
        for x in range(m.n_states):
            assert g[x] == pytest.approx(primal.values[0][x], abs=1e-12)

    def test_expectation_dual_set_is_classic_dp(self):
        rng = np.random.default_rng(54)
        for _ in range(10):
            m = make_enumeration_model(rng)
            g = robust_game_value(m, dual_set(Expectation()), 3)
            values, _ = classic_finite_dp(m, 3)
            for x in range(m.n_states):
                assert g[x] == pytest.approx(values[0][x], abs=1e-10)

    def test_es_zero_and_flat_spectrum_collapse_to_classic_dp(self):
        rng = np.random.default_rng(64)
        flat = Spectral(StepSpectrum(breakpoints=((0.0, 1.0),)))
        for _ in range(5):
            m = make_enumeration_model(rng)
            values, _ = classic_finite_dp(m, 3)
            for risk in (ExpectedShortfall(0.0), flat):
                g = robust_game_value(m, dual_set(risk), 3)
                for x in range(m.n_states):
                    assert g[x] == pytest.approx(values[0][x], abs=1e-10)

    def test_fair_casino_es_never_bets(self):
        m = build_casino(0.5, 2, [0, 1, 2, 3])
        g = robust_game_value(m, dual_set(ExpectedShortfall(0.5)), 2)
        for x in range(m.n_states):
            assert g[x] == pytest.approx(-float(x), abs=1e-12)

    def test_interchange_bound(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            m = make_enumeration_model(rng)
            ds = dual_set(ExpectedShortfall(0.8))
            g = robust_game_value(m, ds, 2)
            policy = random_policy(rng, m, 2)
            w = nature_best_response(m, ds, policy, 2)
            for x in range(m.n_states):
                assert g[x] <= w[x] + 1e-12


class TestVerifyEquivalence:
    def test_small_model_exhaustive(self):
        rng = np.random.default_rng(56)
        m = make_enumeration_model(rng)
        report = verify_equivalence(m, ExpectedShortfall(0.7), 2, 1e-10)
        assert report.passed
        assert report.n_policies == count_markov_policies(m, 2)
        assert report.max_diff_dp_robust <= 1e-10
        assert report.max_diff_enumeration <= 1e-10

    def test_spectral_and_mixture_kinds(self):
        from riskmdp.risk_measures import Mixture

        rng = np.random.default_rng(65)
        m = make_enumeration_model(rng)
        spectral = Spectral(StepSpectrum(breakpoints=((0.0, 0.25), (0.4, 1.5))))
        mixed = Mixture(0.5, Expectation(), ExpectedShortfall(0.9))
        for risk in (spectral, mixed):
            report = verify_equivalence(m, risk, 2, 1e-10)
            assert report.passed, report.to_dict()

    def test_expectation_is_classic_optimality(self):
        rng = np.random.default_rng(57)
        m = make_enumeration_model(rng)
        report = verify_equivalence(m, Expectation(), 2, 1e-10)
        assert report.passed

    def test_var_rejected(self):
        rng = np.random.default_rng(58)
        m = make_enumeration_model(rng)
        with pytest.raises(NotCoherent):
            verify_equivalence(m, ValueAtRisk(0.5), 2, 1e-10)

    def test_enumeration_cutoff(self):
        rng = np.random.default_rng(59)
        m = make_enumeration_model(rng)
        with pytest.raises(TooLargeForEnumeration):
            verify_equivalence(m, ExpectedShortfall(0.5), 2, 1e-10, cutoff=1)

    def test_dp_only_mode(self):
        rng = np.random.default_rng(60)
        m = make_enumeration_model(rng)
        report = verify_equivalence(
            m, ExpectedShortfall(0.5), 2, 1e-10, enumerate_policies=False
        )
        assert report.enumerated_values is None
        assert report.n_policies is None
        assert report.passed

    def test_policy_enumeration_counts(self):
        rng = np.random.default_rng(61)
        m = make_enumeration_model(rng)
        policies = list(enumerate_markov_policies(m, 2))
        assert len(policies) == count_markov_policies(m, 2)
        assert len({p.stages for p in policies}) == len(policies)


class TestRobustValueIteration:
    def test_matches_primal_infinite_solver(self):
        rng = np.random.default_rng(62)
        for _ in range(5):
            m = make_random_model(rng, max_states=4, zero_terminal=True)
            spec = constant_bounding_spec(m)
            tol = 1e-9
            risk = ExpectedShortfall(0.8)
            primal = solve_infinite(m, risk, spec, tol)
            robust = robust_value_iteration(m, dual_set(risk), spec, tol)
            assert primal.converged and robust.converged
            for x in range(m.n_states):
                gap = abs(primal.value[x] - robust.value[x])
                budget = tol + primal.error_bound + robust.error_bound
                assert gap <= budget * max(spec.b()) + 1e-12


# ---------------------------------------------------------------------------
# Bit-for-bit oracles for the dual route: plain loops over DualSet.sup and
# the literal scan over every enumerated policy


def bits(values):
    return [float(v).hex() for v in values]


def coarse_model(rng, decimals, single_action_states, zero_terminal=False):
    """Seeded model with costs on a 10**-decimals grid, so stage values tie exactly.

    Rounding makes signed zeros too. With ``single_action_states`` every
    even state has one admissible action.
    """
    S = int(rng.integers(1, 5))
    A = int(rng.integers(1, 4))
    K = int(rng.integers(1, 5))
    admissible = []
    for x in range(S):
        size = 1 if single_action_states and x % 2 == 0 else int(rng.integers(1, A + 1))
        admissible.append(tuple(sorted(rng.choice(A, size=size, replace=False).tolist())))
    cost = np.round(rng.uniform(-1.0, 1.0, (S, A, K)), decimals)
    terminal = np.zeros(S) if zero_terminal else np.round(rng.uniform(-1.0, 1.0, S), decimals)
    probs = np.full(K, 1.0 / K) if rng.random() < 0.3 else rng.dirichlet(np.ones(K))
    return MdpModel(
        n_states=S,
        n_actions=A,
        admissible=tuple(admissible),
        disturbance=make_distribution(list(range(K)), probs.tolist()),
        transition=rng.integers(0, S, (S, A, K)).tolist(),
        cost=cost.tolist(),
        terminal_cost=terminal.tolist(),
        discount=float(rng.choice([1.0, 0.9, 0.5])),
    )


def oracle_risks(rng):
    u1, u2 = sorted(rng.uniform(0.1, 0.9, 2).tolist())
    raw = sorted(rng.uniform(0.2, 2.0, 3).tolist())
    mass = raw[0] * u1 + raw[1] * (u2 - u1) + raw[2] * (1.0 - u2)
    steps = ((0.0, raw[0] / mass), (u1, raw[1] / mass), (u2, raw[2] / mass))
    return (
        ExpectedShortfall(0.5),
        ExpectedShortfall(0.9),
        Expectation(),
        Spectral(StepSpectrum(steps)),
        Mixture(float(rng.uniform(0.25, 0.75)), ExpectedShortfall(0.8), Expectation()),
    )


def sup_loop(model, ds, cont):
    """Per state, nature's sup per admissible action and the first strict minimum."""
    cost = np.asarray(model.cost).tolist()
    succ = np.asarray(model.transition).tolist()
    probs = list(model.disturbance.probs)
    sups, best, actions = [], [], []
    for x in range(model.n_states):
        row = {}
        low, low_a = math.inf, -1
        for a in model.admissible[x]:
            values = [cost[x][a][z] + model.discount * cont[succ[x][a][z]] for z in model.z_indices]
            row[a] = ds.sup(values, probs)[0]
            if row[a] < low:
                low, low_a = row[a], a
        sups.append(row)
        best.append(low)
        actions.append(low_a)
    return sups, best, actions


def literal_enumeration(model, ds, horizon):
    """Strict-< scan over every policy: per state the minimum, its first
    minimizing policy, and how many later policies tied with the minimum."""
    best = [math.inf] * model.n_states
    first = [None] * model.n_states
    ties = 0
    for policy in enumerate_markov_policies(model, horizon):
        w = nature_best_response(model, ds, policy, horizon)
        for x in range(model.n_states):
            if w[x] < best[x]:
                best[x], first[x] = w[x], policy.stages
            elif w[x] == best[x]:
                ties += 1
    return best, first, ties


def oracle_cases(seeds, max_policies):
    for seed in seeds:
        rng = np.random.default_rng(seed)
        model = coarse_model(rng, seed % 3, single_action_states=seed % 2 == 0)
        for horizon in (1, 2, 3, 4):
            if count_markov_policies(model, horizon) <= max_policies:
                for risk in oracle_risks(rng):
                    yield model, risk, horizon


class TestDualRouteOracles:
    def test_nature_best_response_is_a_sup_loop(self):
        for model, risk, horizon in oracle_cases(range(100, 120), 64):
            ds = dual_set(risk)
            for policy in enumerate_markov_policies(model, horizon):
                w = list(model.terminal_cost)
                for rule in reversed(policy.stages):
                    sups, _, _ = sup_loop(model, ds, w)
                    w = [sups[x][a] for x, a in enumerate(rule)]
                assert bits(nature_best_response(model, ds, policy, horizon)) == bits(w)

    def test_enumeration_matches_the_literal_scan(self, monkeypatch):
        # enumerated values are read from the module's nature_best_response
        # on each state's first minimizing policy in enumeration order
        called = []
        original = robust_check.nature_best_response

        def recorded(model, ds, policy, horizon):
            called.append(policy.stages)
            return original(model, ds, policy, horizon)

        monkeypatch.setattr(robust_check, "nature_best_response", recorded)
        ties = 0
        for model, risk, horizon in oracle_cases(range(200, 260), 300):
            best, first, tied = literal_enumeration(model, dual_set(risk), horizon)
            ties += tied
            called.clear()
            report = verify_equivalence(model, risk, horizon, 1e-10)
            assert bits(report.enumerated_values) == bits(best), (model, risk, horizon)
            assert 1 <= len(called) <= model.n_states
            assert sorted(called) == sorted(set(first))
            assert report.n_policies == count_markov_policies(model, horizon)
        assert ties > 0  # exact ties exercise the first-minimum order

    def test_robust_game_value_is_a_sup_loop(self):
        for model, risk, horizon in oracle_cases(range(300, 340), 10**6):
            ds = dual_set(risk)
            g = list(model.terminal_cost)
            for _ in range(horizon):
                _, g, _ = sup_loop(model, ds, g)
            assert bits(robust_game_value(model, ds, horizon)) == bits(g)

    def test_robust_value_iteration_is_a_sup_loop(self):
        tol = 1e-9
        for seed in range(400, 415):
            rng = np.random.default_rng(seed)
            model = coarse_model(rng, seed % 3, seed % 2 == 0, zero_terminal=True)
            if model.discount == 1.0:
                continue
            spec = constant_bounding_spec(model)
            rate = spec.modulus(model.discount) / (1.0 - spec.modulus(model.discount))
            for risk in oracle_risks(rng):
                ds = dual_set(risk)
                result = robust_value_iteration(model, ds, spec, tol)
                v, trace = [0.0] * model.n_states, []
                for _ in range(result.iterations):
                    _, nxt, _ = sup_loop(model, ds, v)
                    residual = max(abs(a - b) / w for a, b, w in zip(nxt, v, spec.b()))
                    trace.append((residual, rate * residual))
                    v = nxt
                _, _, actions = sup_loop(model, ds, v)
                assert result.converged == (trace[-1][1] <= tol)
                assert all(bound > tol for _, bound in trace[:-1])
                assert bits(result.value) == bits(v)
                assert result.policy.stages == (tuple(actions),)
                assert [bits(t) for t in result.trace] == [bits(t) for t in trace]

    def test_non_finite_policy_value_raises_like_the_literal_scan(self):
        # action 1 in state 0 overflows to inf; the optimum stays finite
        model = MdpModel(
            n_states=1,
            n_actions=2,
            admissible=((0, 1),),
            disturbance=make_distribution([0], [1.0]),
            transition=[[[0], [0]]],
            cost=[[[0.0], [1.7e308]]],
            terminal_cost=[1.7e308],
        )
        ds = dual_set(ExpectedShortfall(0.5))
        assert verify_equivalence(model, ExpectedShortfall(0.5), 1, 1e-10, enumerate_policies=False).passed
        with pytest.raises(RiskMdpError):
            literal_enumeration(model, ds, 1)
        with pytest.raises(RiskMdpError, match="non-finite"):
            verify_equivalence(model, ExpectedShortfall(0.5), 1, 1e-10)
