"""Adversary DP, minimax game value, and the inf-sup equivalence check."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmdp import mdp_core, robust_check
from riskmdp.distributions import make_distribution
from riskmdp.errors import (
    DimensionMismatch,
    InfeasiblePolicy,
    NotCoherent,
    RiskMdpError,
    SumOverflow,
    TooLargeForEnumeration,
)
from riskmdp.examples import build_casino
from riskmdp.mdp_core import BoundingSpec, MdpModel, Policy, ValueFunction, constant_bounding_spec
from riskmdp.risk_measures import (
    Distortion,
    DistortionFunction,
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
from riskmdp.solvers import evaluate_policy_finite, solve_finite, solve_infinite, weak_increase_check

from helpers import classic_finite_dp, make_enumeration_model, make_huge_cost_model, make_random_model


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

    COHERENT = (
        Expectation(),
        ExpectedShortfall(0.5),
        Spectral(StepSpectrum(((0.0, 0.5), (0.5, 1.5)))),
        Mixture(0.5, ExpectedShortfall(0.8), Expectation()),
    )

    @pytest.mark.parametrize("risk", COHERENT, ids=lambda r: type(r).__name__)
    def test_sup_refuses_values_and_probabilities_of_different_lengths(self, risk):
        ds = dual_set(risk)
        for values, probs in (([1.0, 2.0], [0.25, 0.25, 0.5]), ([1.0, 2.0, 3.0], [0.5, 0.5])):
            with pytest.raises(DimensionMismatch, match=f"{len(values)} values against {len(probs)}"):
                ds.sup(values, probs)

    @pytest.mark.parametrize("risk", COHERENT, ids=lambda r: type(r).__name__)
    def test_a_density_or_law_with_a_non_finite_entry_is_not_feasible(self, risk):
        ds = dual_set(risk)
        assert ds.feasible([0.5, 0.5], [0.5, 0.5])
        for bad in (math.nan, math.inf, -math.inf):
            assert not ds.feasible([bad, bad], [0.5, 0.5])
            assert not ds.feasible([0.5, bad], [0.5, 0.5])
            assert not ds.feasible([0.5, 0.5], [0.5, bad])



def _es_parts(risk):
    """``risk`` as a mixture sum_i w_i ES_{a_i}: (w_i, a_i) pairs (Acerbi 2002; Kusuoka 2001).

    A step spectrum phi = sum_j d_j 1{u >= u_j}, with d_0 = phi_0 and d_j
    its j-th rise, is sum_j d_j (1 - u_j) ES_{u_j}, since ES_a has the
    spectrum 1{u >= a} / (1 - a); the expectation is ES_0. A concave
    distortion with slope s_j on [u_j, u_{j+1}] (s_n = 0) is
    sum_j (s_j - s_{j+1}) u_{j+1} min(u / u_{j+1}, 1), and the es_cap
    distortion min(u / (1 - a), 1) is ES_a.
    """
    if isinstance(risk, Expectation):
        return [(1.0, 0.0)]
    if isinstance(risk, ExpectedShortfall):
        return [(1.0, risk.level)]
    if isinstance(risk, Distortion):
        g = risk.g
        if g.form != "piecewise_linear":
            return [(1.0, 0.0 if g.form == "identity" else g.level)]
        ends = g.knots[1:]
        slopes = [(g1 - g0) / (u1 - u0) for (u0, g0), (u1, g1) in zip(g.knots, ends)] + [0.0]
        return [((s - slopes[j + 1]) * u, 1.0 - u) for j, (s, (u, _)) in enumerate(zip(slopes, ends))]
    if isinstance(risk, Spectral):
        steps = risk.phi.breakpoints
        rises = [(phi - (steps[j - 1][1] if j else 0.0)) * (1.0 - u) for j, (u, phi) in enumerate(steps)]
        return [(w, u) for w, (u, _) in zip(rises, steps) if w > 0.0]
    w = risk.weight
    return [(w * v, a) for v, a in _es_parts(risk.first)] + [((1.0 - w) * v, a) for v, a in _es_parts(risk.second)]


def _lp_sup(risk, values, probs):
    """sup_q sum_z q_z values_z over the dual set of ``risk``, by one linear program.

    One density q_i per ES part, each in {0 <= q_i <= p / (1 - a_i), sum q_i = 1}
    (Rockafellar & Uryasev 2000); the mixture's dual set is their weighted sum.
    """
    optimize = pytest.importorskip("scipy.optimize")
    parts, k = _es_parts(risk), len(values)
    objective = np.concatenate([-w * np.asarray(values) for w, _ in parts])
    bounds = [(0.0, p / (1.0 - a)) for _, a in parts for p in probs]
    sums = np.kron(np.eye(len(parts)), np.ones(k))
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    lp = optimize.linprog(objective, A_eq=sums, b_eq=np.ones(len(parts)), bounds=bounds, method="highs", options=tight)
    assert lp.status == 0, lp.message
    q = sum(w * lp.x[i * k : (i + 1) * k] for i, (w, _) in enumerate(parts))
    return math.fsum(q * np.asarray(values)), q


class TestDualSetLinearProgram:
    """``DualSet.sup`` against a linear program that shares no code with it."""

    @staticmethod
    def step_spectrum(rng):
        cuts = sorted(rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=int(rng.integers(0, 4)), replace=False).tolist())
        raw = np.sort(rng.uniform(0.0, 2.0, len(cuts) + 1))
        us = [0.0] + cuts
        mass = float(np.dot(raw, np.diff(us + [1.0])))
        return Spectral(StepSpectrum(tuple((u, float(r) / mass) for u, r in zip(us, raw))))

    @staticmethod
    def concave_distortion(rng):
        """A piecewise-linear g with nonincreasing slopes between cuts of [0, 1]."""
        cuts = sorted(rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=int(rng.integers(0, 4)), replace=False).tolist())
        us = [0.0, *cuts, 1.0]
        slopes = np.sort(rng.uniform(0.0, 2.0, len(cuts) + 1))[::-1]
        rises = np.concatenate([[0.0], np.cumsum(slopes * np.diff(us))])
        return Distortion(DistortionFunction("piecewise_linear", knots=tuple(zip(us, (rises / rises[-1]).tolist()))))

    @staticmethod
    def law(rng, case):
        """Up to 8 atoms, their values from a coarse grid (tied atoms) in odd cases, and a level."""
        k = int(rng.integers(1, 9))
        probs = rng.dirichlet(np.ones(k)).tolist()
        if case % 2:
            values = rng.integers(-2, 3, k).astype(float).tolist()
        else:
            values = rng.uniform(-10.0, 10.0, k).tolist()
        return values, probs, float(rng.choice([0.0, 0.3, 0.5, 0.9, 0.99, rng.uniform(0.0, 0.99)]))

    @staticmethod
    def check(risk, values, probs):
        ds = dual_set(risk)
        got, density = ds.sup(values, probs)
        want, q = _lp_sup(risk, values, probs)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (risk, values, probs)
        assert ds.feasible(density, probs) and ds.feasible(q.tolist(), probs, tol=1e-9)

    def test_es_and_step_spectra_agree_with_the_lp_to_1e_10(self):
        rng = np.random.default_rng(2010)
        for case in range(400):
            values, probs, level = self.law(rng, case)
            spectral = self.step_spectrum(rng)
            for risk in (
                ExpectedShortfall(level),
                spectral,
                Mixture(float(rng.uniform()), ExpectedShortfall(level), spectral),
            ):
                self.check(risk, values, probs)

    def test_concave_distortions_agree_with_the_lp_to_1e_10(self):
        rng = np.random.default_rng(2001)
        for case in range(300):
            values, probs, level = self.law(rng, case)
            concave = self.concave_distortion(rng)
            for risk in (
                Distortion(DistortionFunction("identity")),
                Distortion(DistortionFunction("es_cap", level=level)),
                concave,
                Mixture(float(rng.uniform()), concave, self.step_spectrum(rng)),
            ):
                self.check(risk, values, probs)

    def test_the_es_caps_bind_where_the_oracle_says(self):
        # the worst half of a four-point law: the cap p / (1 - a) fills the top atoms
        values, probs = [3.0, 1.0, 2.0, 2.0], [0.25, 0.25, 0.25, 0.25]
        want, q = _lp_sup(ExpectedShortfall(0.5), values, probs)
        assert want == pytest.approx(2.5, abs=1e-12)
        assert q[0] == pytest.approx(0.5, abs=1e-12) and q[1] == pytest.approx(0.0, abs=1e-12)
        assert dual_set(ExpectedShortfall(0.5)).sup(values, probs)[0] == pytest.approx(want, abs=1e-12)


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
            assert report.passed, dataclasses.asdict(report)

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


def coarse_model(rng, decimals, single_action_states, zero_terminal=False, max_outcomes=4):
    """Seeded model with costs on a 10**-decimals grid, so stage values tie exactly.

    Rounding makes signed zeros too. With ``single_action_states`` every
    even state has one admissible action.
    """
    S = int(rng.integers(1, 5))
    A = int(rng.integers(1, 4))
    K = int(rng.integers(1, max_outcomes + 1))
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


def oracle_cases(seeds, max_policies, max_outcomes=4):
    for seed in seeds:
        rng = np.random.default_rng(seed)
        model = coarse_model(rng, seed % 3, single_action_states=seed % 2 == 0, max_outcomes=max_outcomes)
        for horizon in (1, 2, 3, 4):
            if count_markov_policies(model, horizon) <= max_policies:
                for risk in oracle_risks(rng):
                    yield model, risk, horizon


def check_nature_best_response(cases):
    for model, risk, horizon in cases:
        ds = dual_set(risk)
        for policy in enumerate_markov_policies(model, horizon):
            w = list(model.terminal_cost)
            for rule in reversed(policy.stages):
                sups, _, _ = sup_loop(model, ds, w)
                w = [sups[x][a] for x, a in enumerate(rule)]
            assert bits(nature_best_response(model, ds, policy, horizon)) == bits(w)


def check_enumeration(cases, monkeypatch):
    # enumerated values are read from the module's nature_best_response
    # on each state's first minimizing policy in enumeration order
    called = []
    original = robust_check.nature_best_response

    def recorded(model, ds, policy, horizon, *memo):
        called.append(policy.stages)
        return original(model, ds, policy, horizon, *memo)

    monkeypatch.setattr(robust_check, "nature_best_response", recorded)
    ties = 0
    for model, risk, horizon in cases:
        best, first, tied = literal_enumeration(model, dual_set(risk), horizon)
        ties += tied
        called.clear()
        report = verify_equivalence(model, risk, horizon, 1e-10)
        assert bits(report.enumerated_values) == bits(best), (model, risk, horizon)
        assert 1 <= len(called) <= model.n_states
        assert sorted(called) == sorted(set(first))
        assert report.n_policies == count_markov_policies(model, horizon)
    assert ties > 0  # exact ties exercise the first-minimum order


def check_robust_game_value(cases):
    for model, risk, horizon in cases:
        ds = dual_set(risk)
        g = list(model.terminal_cost)
        for _ in range(horizon):
            _, g, _ = sup_loop(model, ds, g)
        assert bits(robust_game_value(model, ds, horizon)) == bits(g)


def check_robust_value_iteration(seeds, max_outcomes=4):
    tol = 1e-9
    for seed in seeds:
        rng = np.random.default_rng(seed)
        model = coarse_model(rng, seed % 3, seed % 2 == 0, zero_terminal=True, max_outcomes=max_outcomes)
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


class TestDualRouteOracles:
    def test_nature_best_response_is_a_sup_loop(self):
        check_nature_best_response(oracle_cases(range(100, 120), 64))

    def test_enumeration_matches_the_literal_scan(self, monkeypatch):
        check_enumeration(oracle_cases(range(200, 260), 300), monkeypatch)

    def test_robust_game_value_is_a_sup_loop(self):
        check_robust_game_value(oracle_cases(range(300, 340), 10**6))

    def test_robust_value_iteration_is_a_sup_loop(self):
        check_robust_value_iteration(range(400, 415))

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


# ---------------------------------------------------------------------------
# The batched stage table against the pair-by-pair route and the oracles


@pytest.fixture(params=[0, 10**9], ids=["batched", "pairwise"])
def route(request, monkeypatch):
    """Every stage table through the batch (threshold 0) or pair by pair."""
    monkeypatch.setattr(mdp_core, "BATCH_MIN_OUTCOMES", request.param)


def tie_model(rng, n_outcomes, n_states=3):
    """Two actions per state, costs on three levels and distinct probabilities:
    long runs of exactly tied stage values, each run ordered by outcome."""
    S, K = n_states, n_outcomes
    return MdpModel(
        n_states=S,
        n_actions=2,
        admissible=((0, 1),) * S,
        disturbance=make_distribution(list(range(K)), rng.dirichlet(np.ones(K)).tolist()),
        transition=rng.integers(0, S, (S, 2, K)).tolist(),
        cost=rng.choice([-0.5, -0.0, 0.0, 0.5], (S, 2, K)).tolist(),
        terminal_cost=[0.0] * S,
        discount=0.9,
    )


class TestBatchedAdversaryTable:
    def test_nature_best_response(self, route):
        check_nature_best_response(oracle_cases(range(500, 512), 64, max_outcomes=8))

    def test_enumeration(self, route, monkeypatch):
        check_enumeration(oracle_cases(range(520, 535), 300, max_outcomes=8), monkeypatch)

    def test_robust_game_value(self, route):
        check_robust_game_value(oracle_cases(range(560, 580), 10**6, max_outcomes=8))

    def test_robust_value_iteration(self, route):
        check_robust_value_iteration(range(600, 615), max_outcomes=8)

    def test_wide_laws_with_long_ties(self, route):
        # 20 outcomes: the batch finds distinct orders by np.unique over rows, and
        # only a stable sort keeps each run of ties in outcome order
        rng = np.random.default_rng(640)
        cases = [(tie_model(rng, 20), risk, 3) for risk in oracle_risks(rng)]
        check_robust_game_value(cases)
        check_nature_best_response([(tie_model(rng, 17, n_states=2), ExpectedShortfall(0.7), 2)])

    def test_underflowing_products_ignore_the_callers_error_state(self, monkeypatch):
        # stage values near 1e-307 times densities below 1 are subnormal
        rng = np.random.default_rng(641)
        S, K = 30, 8
        m = MdpModel(
            n_states=S,
            n_actions=2,
            admissible=((0, 1),) * S,
            disturbance=make_distribution(list(range(K)), [1.0 / K] * K),
            transition=rng.integers(0, S, (S, 2, K)).tolist(),
            cost=(rng.uniform(0, 1, (S, 2, K)) * 1e-307).tolist(),
            terminal_cost=[0.0] * S,
            discount=1.0,
        )
        ds = dual_set(ExpectedShortfall(0.5))
        monkeypatch.setattr(mdp_core, "BATCH_MIN_OUTCOMES", 10**9)
        expected = bits(robust_game_value(m, ds, 3))
        monkeypatch.setattr(mdp_core, "BATCH_MIN_OUTCOMES", 0)
        with np.errstate(all="raise"):
            assert bits(robust_game_value(m, ds, 3)) == expected

    def test_reports_agree_across_routes(self, monkeypatch):
        for model, risk, horizon in oracle_cases(range(620, 640), 300, max_outcomes=8):
            reports = []
            for threshold in (0, 10**9):
                monkeypatch.setattr(mdp_core, "BATCH_MIN_OUTCOMES", threshold)
                reports.append(json.dumps(dataclasses.asdict(verify_equivalence(model, risk, horizon, 1e-10))))
            assert reports[0] == reports[1]

    def test_a_nan_sup_never_wins(self, route):
        # both stage values of action 1 overflow to +inf; ES(0.5) weights one
        # of them by 0, inf * 0 is NaN, and the finite action 0 must win
        model = MdpModel(
            n_states=1,
            n_actions=2,
            admissible=((0, 1),),
            disturbance=make_distribution([0, 1], [0.5, 0.5]),
            transition=[[[0, 0], [0, 0]]],
            cost=[[[0.0, 0.0], [1.7e308, 1.7e308]]],
            terminal_cost=[1.7e308],
        )
        ds = dual_set(ExpectedShortfall(0.5))
        memo = robust_check._Memo()
        values = robust_check._adversary_values(model, ds, model.terminal_cost, memo)
        assert math.isnan(values[1])
        assert mdp_core._first_min(model, values) == ([1.7e308], [0])
        values = robust_check._adversary_values(model, ds, [math.inf], memo)
        assert mdp_core._first_min(model, values) == ([math.inf], [-1])
        assert bits(robust_game_value(model, ds, 1)) == bits([1.7e308])

    def test_ties_go_to_the_smallest_action(self, route):
        # action 1 repeats action 0 in the even states, which therefore tie
        # exactly at every iterate
        rng = np.random.default_rng(660)
        base = tie_model(rng, 4, n_states=6)
        transition, cost = base.transition.copy(), base.cost.copy()
        transition[::2, 1], cost[::2, 1] = transition[::2, 0], cost[::2, 0]
        model = MdpModel(
            n_states=6,
            n_actions=2,
            admissible=base.admissible,
            disturbance=base.disturbance,
            transition=transition,
            cost=cost,
            terminal_cost=base.terminal_cost,
            discount=base.discount,
        )
        ds = dual_set(ExpectedShortfall(0.5))
        result = robust_value_iteration(model, ds, constant_bounding_spec(model), 1e-9)
        _, _, actions = sup_loop(model, ds, list(result.value))
        assert result.policy.stages == (tuple(actions),)
        assert actions[::2] == [0, 0, 0]

    def test_a_repeated_admissible_action_changes_no_value(self, route):
        # validate_model refuses the repeat; a library caller that skips it
        # still gets the values of the model without the repeat
        rng = np.random.default_rng(680)
        base = tie_model(rng, 3, n_states=2)
        repeated = MdpModel(
            n_states=2,
            n_actions=2,
            admissible=((0, 0, 1), (1,)),
            disturbance=base.disturbance,
            transition=base.transition,
            cost=base.cost,
            terminal_cost=[0.5, -0.5],
        )
        single = dataclasses.replace(repeated, admissible=((0, 1), (1,)))
        for horizon in (1, 2, 3):
            reports = [verify_equivalence(m, ExpectedShortfall(0.5), horizon, 1e-10) for m in (repeated, single)]
            assert reports[0].passed and bits(reports[0].enumerated_values) == bits(reports[1].enumerated_values)

    def test_stage_values_with_nan_sort_as_python_does(self, route):
        # Python's sort of (nan, inf, -inf) keeps NaN first, numpy's puts it
        # last; ES(0.5) then weights +inf and -inf both and fsum raises
        model = MdpModel(
            n_states=3,
            n_actions=1,
            admissible=((0,),) * 3,
            disturbance=make_distribution([0, 1, 2], [0.25, 0.25, 0.5]),
            transition=[[[0, 1, 2]]] * 3,
            cost=[[[0.0, 0.0, 0.0]]] * 3,
            terminal_cost=[math.nan, math.inf, -math.inf],
        )
        policy = Policy(stages=((0, 0, 0),))
        with pytest.raises(ValueError, match="-inf \\+ inf"):
            nature_best_response(model, dual_set(ExpectedShortfall(0.5)), policy, 1)

    def test_stage_values_with_nan_are_not_summed_in_numpy_order(self, route):
        # the mirror case: Python's sort keeps (inf, nan, -inf) as it is and
        # ES(0.5) weights -inf by 1, so the sup is NaN, which the value
        # vector refuses; numpy's order would weight +inf and -inf both and
        # fsum would raise a bare ValueError
        model = MdpModel(
            n_states=3,
            n_actions=1,
            admissible=((0,),) * 3,
            disturbance=make_distribution([0, 1, 2], [0.1, 0.1, 0.8]),
            transition=[[[0, 1, 2]]] * 3,
            cost=[[[0.0, 0.0, 0.0]]] * 3,
            terminal_cost=[math.inf, math.nan, -math.inf],
        )
        policy = Policy(stages=((0, 0, 0),))
        with pytest.raises(RiskMdpError, match="non-finite value nan"):
            nature_best_response(model, dual_set(ExpectedShortfall(0.5)), policy, 1)
        with pytest.raises(RiskMdpError, match="non-finite value inf"):
            robust_game_value(model, dual_set(ExpectedShortfall(0.5)), 1)


# ---------------------------------------------------------------------------
# Policy enumeration: one dual step per node over the class rows of all its children


def enumerated_rows(model, horizon):
    """The dual rows one enumeration evaluates.

    P at the last stage. Below it, with at least 8 rules, each node above
    stage 0 evaluates one row per admissible pair per distinct choice of
    its successors' pairs; with fewer, P per child.
    """
    P = sum(len(acts) for acts in model.admissible)
    R = count_markov_policies(model, 1)
    if R < 8:
        return P * sum(R**d for d in range(horizon))
    classes = sum(
        math.prod(len(model.admissible[y]) for y in {int(model.transition[x, a, z]) for z in model.z_indices})
        for x in range(model.n_states)
        for a in model.admissible[x]
    )
    return P + sum(R**d for d in range(horizon - 1)) * classes


def precedence_model():
    """Five states, eight rules, two equally likely outcomes.

    States 3 and 4 each loop on themselves at zero cost under both of
    their actions, so only the action in state 0 matters: the first four
    rules take action 0 there, the last four action 1. From a zero
    terminal cost the last stage's values at the pairs of states 0-2 are
    1e308, -1e308, 1e308 and 0. One stage below, the first rule's child
    holds +inf and the fifth rule's child meets -inf + inf in state 2's sum.
    """
    big = 1e308
    loop = [[[0.0, 0.0], [0.0, 0.0]]]
    return MdpModel(
        n_states=5,
        n_actions=2,
        admissible=((0, 1), (0,), (0,), (0, 1), (0, 1)),
        disturbance=make_distribution([0, 1], [0.5, 0.5]),
        transition=[[[0, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 1], [0, 0]], [[3, 3], [3, 3]], [[4, 4], [4, 4]]],
        cost=[[[big, big], [-big, -big]], [[big, big], [0.0, 0.0]], [[-big, big], [0.0, 0.0]], *loop * 2],
        terminal_cost=[0.0] * 5,
        discount=1.0,
    )


class TestEnumerationClassRows:
    def test_matches_the_literal_scan_over_three_and_four_stages(self, route, monkeypatch):
        # two actions in each of three or four states: 8 or 16 rules, so the
        # walk takes class rows at every node above stage 0
        rng = np.random.default_rng(700)
        risks = oracle_risks(rng)
        cases = [
            (tie_model(rng, n_outcomes, n_states), risks[k % len(risks)], horizon)
            for k, (n_outcomes, n_states, horizon) in enumerate([(2, 3, 3), (3, 3, 3), (4, 3, 3), (3, 3, 4), (3, 4, 3)])
        ]
        check_enumeration(cases, monkeypatch)

    def test_errors_come_child_by_child_in_rule_order(self, route):
        # walked child by child, the first child's subtree reaches a
        # non-finite stage-0 value before the fifth child's step raises
        # SumOverflow; one step over all children's rows meets the sum first
        model, ds = precedence_model(), dual_set(Expectation())
        with pytest.raises(RiskMdpError) as raised:
            robust_check._enumerated_minimum(model, ds, 3)
        assert type(raised.value) is RiskMdpError
        assert str(raised.value) == "non-finite value inf"
        with pytest.raises(SumOverflow, match="-inf \\+ inf in fsum"):
            robust_check._adversary_values(model, ds, [-1e308, 1e308, 0.0, 0.0, 0.0], robust_check._Memo())

    def test_one_dual_row_per_pair_and_class(self, route, monkeypatch):
        rows = []
        sup, fsum_rows = robust_check._sup, robust_check._fsum_rows

        def counted_sup(*args):
            rows.append(1)
            return sup(*args)

        def counted_sums(terms):
            rows.append(len(terms))
            return fsum_rows(terms)

        monkeypatch.setattr(robust_check, "_sup", counted_sup)
        monkeypatch.setattr(robust_check, "_fsum_rows", counted_sums)
        monkeypatch.setattr(
            robust_check, "nature_best_response", lambda model, ds, policy, horizon, *memo: ValueFunction([0.0] * model.n_states)
        )
        rng = np.random.default_rng(899)
        models = [coarse_model(np.random.default_rng(seed), 2, seed % 2 == 0) for seed in range(900, 930)]
        models += [tie_model(rng, n_outcomes, n_states) for n_states in (3, 4) for n_outcomes in (2, 3, 4)]
        fewer = 0
        for model in models:
            for horizon in (1, 2, 3, 4):
                if count_markov_policies(model, horizon) <= 5000:
                    rows.clear()
                    robust_check._enumerated_minimum(model, dual_set(ExpectedShortfall(0.5)), horizon)
                    assert sum(rows) == enumerated_rows(model, horizon), (model, horizon)
                    per_child = sum(len(a) for a in model.admissible) * sum(
                        count_markov_policies(model, d) for d in range(horizon)
                    )
                    fewer += sum(rows) < per_child
        assert fewer >= 10  # a walk that steps child by child fails these


class TestOutOfRangeStageValues:
    RISK = Mixture(0.5, ExpectedShortfall(0.8), Expectation())

    def test_a_sum_fsum_refuses_raises_sum_overflow_on_both_routes(self, route):
        model = make_huge_cost_model(0)
        with pytest.raises(SumOverflow, match="-inf \\+ inf in fsum"):
            solve_finite(model, self.RISK, 1)
        with pytest.raises(SumOverflow, match="-inf \\+ inf in fsum"):
            robust_game_value(model, dual_set(self.RISK), 1)
        with pytest.raises(SumOverflow, match="-inf \\+ inf in fsum"):
            verify_equivalence(model, self.RISK, 1, 1e-10)

    def test_robust_value_iteration_stops_on_the_first_non_finite_iterate(self, route, monkeypatch):
        # ES(0.5) skips the -inf outcome below its level, so the primal
        # stage value and the bounds are finite; nature's density puts 0 on
        # it, and 0 * -inf makes the first sup NaN and the minimum +inf
        model = MdpModel(
            n_states=1,
            n_actions=1,
            admissible=((0,),),
            disturbance=make_distribution([0, 1], [0.25, 0.75]),
            transition=[[[0, 0]]],
            cost=[[[-math.inf, 1.0]]],
            terminal_cost=[0.0],
            discount=0.5,
        )
        steps = []
        original = robust_check._adversary_values

        def counted(*args):
            steps.append(args)
            return original(*args)

        monkeypatch.setattr(robust_check, "_adversary_values", counted)
        spec = BoundingSpec(lb=(-3.0,), ub=(3.0,))
        with pytest.raises(RiskMdpError, match="non-finite value inf"):
            robust_value_iteration(model, dual_set(ExpectedShortfall(0.5)), spec, 1e-8)
        assert len(steps) == 1


class TestDensityMemo:
    def test_one_density_per_order_within_a_solve_and_none_across(self, route, monkeypatch):
        calls = []
        original = robust_check._dual_density_sorted

        def counted(risk, probs):
            calls.append(tuple(probs))
            return original(risk, probs)

        monkeypatch.setattr(robust_check, "_dual_density_sorted", counted)
        rng = np.random.default_rng(700)
        first = tie_model(rng, 4, n_states=8)
        second = MdpModel(
            n_states=first.n_states,
            n_actions=first.n_actions,
            admissible=first.admissible,
            disturbance=make_distribution(list(range(4)), rng.dirichlet(np.ones(4)).tolist()),
            transition=first.transition,
            cost=first.cost,
            terminal_cost=first.terminal_cost,
            discount=first.discount,
        )
        ds = dual_set(Spectral(StepSpectrum(((0.0, 0.5), (0.5, 1.5)))))
        counts = []
        for model in (first, first, second):
            calls.clear()
            spec = constant_bounding_spec(model)
            result = robust_value_iteration(model, ds, spec, 1e-9)
            # distinct probabilities: distinct orders sort them into distinct lists
            assert len(calls) == len(set(calls)) > 1
            counts.append(len(calls))
            v = [0.0] * model.n_states
            for _ in range(result.iterations):
                _, v, _ = sup_loop(model, ds, v)
            assert bits(result.value) == bits(v)
        assert counts[0] == counts[1]  # a solve takes nothing from the one before


# ---------------------------------------------------------------------------
# Kept sort orders: one memo through a sequence of steps against steps without one

# stage values of these costs and values tie often, in and against outcome
# order, and include both zeros, infinities of both signs and NaN
KEPT_COSTS = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0)
KEPT_VALUES = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0) * 4 + (math.inf, -math.inf, math.nan, 1e308)
KEPT_RISKS = (
    ExpectedShortfall(0.5),
    ExpectedShortfall(0.9),
    Expectation(),
    Spectral(StepSpectrum(((0.0, 0.5), (0.5, 1.5)))),
    Mixture(0.4, ExpectedShortfall(0.8), Expectation()),
)


@st.composite
def kept_order_cases(draw):
    """A small model, a decision rule, and value vectors, each changing a few states of the last."""
    S, A, K = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 6))
    admissible = tuple(tuple(sorted(draw(st.sets(st.integers(0, A - 1), min_size=1)))) for _ in range(S))
    # weights 3 and 7 give densities that are not dyadic; 0 drops an outcome
    weights = draw(st.lists(st.sampled_from((0.0, 1.0, 1.0, 3.0, 7.0)), min_size=K, max_size=K))
    if sum(weights) == 0.0:
        weights[0] = 1.0

    def table(cell):
        return np.array(draw(st.lists(cell, min_size=S * A * K, max_size=S * A * K))).reshape(S, A, K)

    model = MdpModel(
        n_states=S,
        n_actions=A,
        admissible=admissible,
        disturbance=make_distribution(list(range(K)), [w / sum(weights) for w in weights]),
        transition=table(st.integers(0, S - 1)),
        cost=table(st.sampled_from(KEPT_COSTS)),
        terminal_cost=(0.0,) * S,
        discount=draw(st.sampled_from((1.0, 0.9, 0.5))),
    )
    rule = tuple(draw(st.sampled_from(acts)) for acts in admissible)
    value = st.sampled_from(KEPT_VALUES)
    v = draw(st.lists(value, min_size=S, max_size=S))
    sequence = [v]
    for _ in range(draw(st.integers(1, 7))):
        v = list(v)
        for x in draw(st.sets(st.integers(0, S - 1), max_size=2)):
            v[x] = draw(value)
        sequence.append(v)
    # each step is a full sweep or the rule's, both through one memo
    keys = draw(st.lists(st.sampled_from((None, rule)), min_size=len(sequence), max_size=len(sequence)))
    return model, sequence, keys


def rule_pairs(model, rule):
    """The pair indices of a decision rule, found by a search of the sweep's pairs."""
    pairs = list(zip(*model._pairs[:2]))
    return tuple(pairs.index((x, a)) for x, a in enumerate(rule))


def batched_outcome(model, risk, v, memo, rule):
    """Bit patterns of a batched dual step over every pair or the rule's, or the error it raised."""
    succ, cost = model._pairs[2:]
    key = None if rule is None else rule_pairs(model, rule)
    rows = (succ, cost) if key is None else ([succ[i] for i in key], [cost[i] for i in key])
    try:
        return bits(robust_check._batched_sups(model, risk, v, memo, rows, key))
    except RiskMdpError as exc:
        return type(exc), str(exc)


def memo_free_sups(model, risk, v, rule):
    """``_sup`` of each pair of the step, each with densities of its own."""
    pairs = zip(*model._pairs[:2]) if rule is None else enumerate(rule)
    trans, costs = model.rows
    probs = model.disturbance.probs
    sups = []
    for x, a in pairs:
        values = [costs[x][a][z] + model.discount * v[trans[x][a][z]] for z in model.z_indices]
        sups.append(robust_check._sup(risk, probs, values, {}))
    return sups


def assert_kept_like_built(memo, fresh, key):
    """The kept orders, tie masks and densities are those a first step builds."""
    kept, built = memo.tables[key][2:], fresh.tables[key][2:]
    assert np.array_equal(kept[0], built[0]) and np.array_equal(kept[1], built[1])
    assert bits(kept[2].ravel()) == bits(built[2].ravel())


def check_kept_steps(model, risk, sequence, keys):
    """Steps through one memo, each bit for bit a fresh memo's step and, where
    it raises nothing, memo-free ``_sup``; returns the memo."""
    memo = robust_check._Memo()
    for v, key in zip(sequence, keys):
        fresh = robust_check._Memo()
        expected = batched_outcome(model, risk, v, fresh, key)
        assert batched_outcome(model, risk, v, memo, key) == expected, v
        assert_kept_like_built(memo, fresh, None if key is None else rule_pairs(model, key))
        if isinstance(expected, list):
            assert expected == bits(memo_free_sups(model, risk, v, key)), v
        else:
            assert expected[0] is SumOverflow
            with pytest.raises(SumOverflow):
                memo_free_sups(model, risk, v, key)
    return memo


def outcome_chain(probs):
    """One state per outcome, each with one action that leads to state z at outcome z, at zero cost."""
    K = len(probs)
    return MdpModel(
        n_states=K,
        n_actions=1,
        admissible=((0,),) * K,
        disturbance=make_distribution(list(range(K)), list(probs)),
        transition=[[list(range(K))]] * K,
        cost=[[[0.0] * K]] * K,
        terminal_cost=(0.0,) * K,
    )


class TestKeptOrders:
    @settings(max_examples=400)
    @given(case=kept_order_cases(), risk=st.sampled_from(KEPT_RISKS))
    def test_one_memo_through_a_sequence_matches_steps_without_one(self, case, risk):
        model, sequence, keys = case
        check_kept_steps(model, risk, sequence, keys)

    def test_ties_against_outcome_order_are_sorted_again(self):
        # the first step orders outcome 1 before outcome 0; at the tie a
        # stable sort puts outcome 0 first again, and with it its density,
        # which here changes the sup's last bit
        model = outcome_chain((1 / 6, 5 / 6))
        risk = Mixture(0.4, ExpectedShortfall(0.8), Expectation())
        memo = check_kept_steps(model, risk, ([1.0, 0.45], [0.45, 0.45], [0.45, 1.0], [0.45, 0.45]), [None] * 4)
        assert memo.tables[None][2][0].tolist() == [0, 1]
        probs = model.disturbance.probs
        kept = robust_check._density(risk, probs, (1, 0), {})
        assert math.fsum([0.45 * q for q in kept]) != robust_check._sup(risk, probs, [0.45, 0.45], {})

    def test_signed_zeros_tie_and_infinities_sort(self):
        model = outcome_chain((0.2, 0.3, 0.5))
        sequence = ([0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [math.inf, 0.0, -math.inf], [0.0, 0.0, -0.0], [-math.inf, math.inf, 0.0])
        for risk in KEPT_RISKS:
            check_kept_steps(model, risk, sequence, [None] * len(sequence))

    def test_a_nan_row_goes_through_the_pair_route_at_every_step(self):
        # NaN keeps no order: numpy sorts it last, Python's sort leaves it
        # in place, and the sup follows Python's
        model = outcome_chain((0.1, 0.1, 0.8))
        sequence = ([1.0, 2.0, 3.0], [math.inf, math.nan, -math.inf], [math.inf, math.nan, -math.inf], [1.0, 2.0, 3.0])
        calls = []
        original = robust_check._sup

        def counted(*args):
            calls.append(args[2])
            return original(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(robust_check, "_sup", counted)
            memo = robust_check._Memo()
            rows = model._pairs[2:]
            sups = [robust_check._batched_sups(model, ExpectedShortfall(0.5), v, memo, rows, None) for v in sequence]
        assert len(calls) == 2 * 3  # every row of both NaN steps
        assert all(math.isnan(s) for s in sups[1]) and bits(sups[1]) == bits(sups[2])
        assert bits(sups[3]) == bits(sups[0])


# ---------------------------------------------------------------------------
# Decision rules: checked and mapped to pairs once, for both routes


def rule_models(seed, count=12):
    """Seeded models, some with rule steps of at least 48 stage outcomes, with costs
    rounded so that stage values tie, and a discount under 1 for the bounds check."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = make_random_model(rng, max_states=12, max_actions=4, max_outcomes=8)
        yield dataclasses.replace(m, cost=np.round(m.cost, 1), discount=0.9), rng


RULE_RISKS = (Expectation(), ExpectedShortfall(0.6), Mixture(0.4, ExpectedShortfall(0.8), Expectation()))


class TestDecisionRules:
    @pytest.fixture(params=[0, 48, 10**9], ids=["batched", "default", "pairwise"])
    def threshold(self, request, monkeypatch):
        monkeypatch.setattr(mdp_core, "BATCH_MIN_OUTCOMES", request.param)

    def test_a_bad_action_is_refused_at_its_stage_and_state(self, threshold):
        # -1 would read the last action's pair if the table were read without the range check
        wrapped = 0
        for m, rng in rule_models(2525):
            horizon = int(rng.integers(1, 4))
            policy = random_policy(rng, m, horizon)
            n, x = int(rng.integers(horizon)), int(rng.integers(m.n_states))
            wrapped += m.n_actions - 1 in m.admissible[x]
            spec, ds = constant_bounding_spec(m), dual_set(Expectation())
            for a in (-1, m.n_actions, *(a for a in range(m.n_actions) if a not in m.admissible[x])):
                stages = [list(rule) for rule in policy.stages]
                stages[n][x] = a
                for bad in (Policy(stages=tuple(map(tuple, stages))), Policy(stages=(tuple(stages[n]),), stationary=True)):
                    stage = n if not bad.stationary else 0
                    text = re.escape(f"stage {stage}: action {a} not admissible in state {x}")
                    for solve in (
                        lambda: evaluate_policy_finite(m, Expectation(), bad, horizon),
                        lambda: weak_increase_check(m, Expectation(), spec, bad, horizon),
                        lambda: nature_best_response(m, ds, bad, horizon),
                    ):
                        with pytest.raises(InfeasiblePolicy, match=f"^{text}$"):
                            solve()
        assert wrapped >= 3

    def test_rule_values_match_the_oracles_on_both_routes(self, threshold):
        wide = 0
        for m, rng in rule_models(2526):
            wide += m.n_states * len(m.z_indices) >= 48
            horizon = int(rng.integers(1, 4))
            policy = random_policy(rng, m, horizon)
            for risk in (*RULE_RISKS, ValueAtRisk(0.7), Entropic(0.5)):
                v = list(m.terminal_cost)
                expected = [v]
                for rule in reversed(policy.stages):  # the fold over bellman_L
                    v = [mdp_core.bellman_L(m, risk, v, x, a) for x, a in enumerate(rule)]
                    expected.append(v)
                got = evaluate_policy_finite(m, risk, policy, horizon)
                assert [bits(w) for w in got] == [bits(w) for w in expected[::-1]], risk
            for risk in RULE_RISKS:
                w = list(m.terminal_cost)
                for rule in reversed(policy.stages):
                    w = memo_free_sups(m, risk, w, rule)
                assert bits(nature_best_response(m, dual_set(risk), policy, horizon)) == bits(w), risk
        assert wide >= 3

    def test_weak_increase_check_matches_the_oracle(self, threshold):
        outcomes = set()
        for m, rng in rule_models(2527):
            horizon = int(rng.integers(1, 4))
            policy = random_policy(rng, m, horizon)
            spec = constant_bounding_spec(m)
            q = spec.modulus(m.discount)
            for risk in RULE_RISKS:
                J = [[0.0] * m.n_states]  # J_n applies the first n rules to the zero vector
                for n in range(1, horizon + 1):
                    v = J[0]
                    for rule in reversed(policy.stages[:n]):
                        v = [mdp_core.bellman_L(m, risk, v, x, a) for x, a in enumerate(rule)]
                    J.append(v)
                for tol in (1e-9, -1.0):
                    expected = all(
                        J[n][x] >= J[n - 1][x] + q ** (n - 1) * spec.lb[x] - tol
                        for n in range(1, horizon + 1)
                        for x in range(m.n_states)
                    )
                    assert weak_increase_check(m, risk, spec, policy, horizon, tol) is expected, risk
                    outcomes.add(expected)
        assert outcomes == {True, False}
