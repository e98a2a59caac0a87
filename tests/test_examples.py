"""Structural-policy checks on the four built-in model families."""

import math

import numpy as np
import pytest

from riskmdp.distributions import make_distribution
from riskmdp.errors import InvalidParams, MonotonicityViolation
from riskmdp.examples import (
    CashBalanceParams,
    HouseSellingParams,
    NotThreshold,
    NotTwoThreshold,
    TwoThresholds,
    VarMyopicParams,
    build_cash_balance,
    build_casino,
    build_house_selling,
    build_var_myopic,
    casino_closed_form,
    extract_threshold,
    extract_two_thresholds,
    house_selling_thresholds,
    negated_gain_law,
    verify_myopia,
)
from riskmdp.mdp_core import MdpModel, bellman_L, constant_bounding_spec, validate_model
from riskmdp.risk_measures import (
    Entropic,
    Expectation,
    ExpectedShortfall,
    ValueAtRisk,
    evaluate,
)
from riskmdp.solvers import solve_finite, solve_infinite

OFFERS = make_distribution([0, 1, 2, 3], [0.25] * 4)


def house_params(horizon=2, rent=0.5):
    return HouseSellingParams(offer_law=OFFERS, rent=rent, beta=1.0, horizon=horizon)


def myopic_params(level=0.5, horizon=3):
    labels = (0.0, 1.0, 2.0)

    def clamp(v):
        return min(max(v, labels[0]), labels[-1])

    return VarMyopicParams(
        labels=labels,
        n_actions=2,
        z_law=make_distribution([-1.0, 0.0, 1.0], [0.35, 0.3, 0.35]),
        transition=lambda x, a, z: clamp(x + (0.0 if a == 0 else -1.0) + z),
        cost=lambda x, nxt: x + 2.0 * nxt,
        level=level,
        horizon=horizon,
    )


CASH_PARAMS = CashBalanceParams(
    levels=tuple(float(v) for v in range(-5, 6)),
    holding_cost=lambda v: v * v,
    transfer_up=1.0,
    transfer_down=1.0,
    z_law=make_distribution([-1.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3]),
    beta=0.9,
)

CASH_PARAMS_WIDE_BAND = CashBalanceParams(
    levels=tuple(float(v) for v in range(-5, 6)),
    holding_cost=lambda v: 0.15 * v * v,
    transfer_up=2.0,
    transfer_down=2.0,
    z_law=make_distribution([-1.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3]),
    beta=0.9,
)


class TestHouseSelling:
    def test_model_validates(self):
        assert validate_model(build_house_selling(house_params())) == []

    def test_expectation_thresholds(self):
        ts = house_selling_thresholds(house_params(), Expectation())
        assert ts == (1.75, 2.0)

    def test_es_thresholds(self):
        ts = house_selling_thresholds(house_params(), ExpectedShortfall(0.5))
        assert ts == (3.0, 3.0)

    def test_policy_is_threshold_at_every_stage(self):
        params = house_params()
        m = build_house_selling(params)
        for risk in (Expectation(), ExpectedShortfall(0.5)):
            res = solve_finite(m, risk, 2)
            ts = house_selling_thresholds(params, risk)
            for n in range(2):
                rule = res.policy.stages[n][1:]  # offer states only
                labels = m.state_labels[1:]
                got = extract_threshold(rule, labels)
                assert not isinstance(got, NotThreshold)
                # the stop set is exactly the offers at or below the level
                stops = {lab for lab, a in zip(labels, rule) if a == 0}
                assert stops == {lab for lab in labels if lab <= ts[n]}

    def test_solver_values_match_threshold_recursion(self):
        params = house_params(horizon=4, rent=0.35)
        m = build_house_selling(params)
        for risk in (Expectation(), ExpectedShortfall(0.7)):
            ts = house_selling_thresholds(params, risk)
            res = solve_finite(m, risk, 4)
            for i, offer in enumerate(OFFERS.atoms, start=1):
                assert res.values[0][i] == pytest.approx(min(offer, ts[0]), abs=1e-12)

    def test_discounted_recursion_agrees_with_solver(self):
        params = HouseSellingParams(offer_law=OFFERS, rent=0.4, beta=0.9, horizon=3)
        m = build_house_selling(params)
        for risk in (Expectation(), ExpectedShortfall(0.5)):
            ts = house_selling_thresholds(params, risk)
            res = solve_finite(m, risk, 3)
            for i, offer in enumerate(OFFERS.atoms, start=1):
                assert res.values[0][i] == pytest.approx(min(offer, ts[0]), abs=1e-12)

    def test_huge_rent_stops_everywhere(self):
        m = build_house_selling(house_params(rent=1e6))
        res = solve_finite(m, Expectation(), 2)
        for n in range(2):
            assert all(a == 0 for a in res.policy.stages[n][1:])

    def test_thresholds_rise_toward_deadline(self):
        params = house_params(horizon=5)
        ts = house_selling_thresholds(params, Expectation())
        assert all(lo <= hi + 1e-12 for lo, hi in zip(ts, ts[1:]))

    def test_risk_averse_thresholds_dominate_expectation(self):
        params = house_params(horizon=4)
        base = house_selling_thresholds(params, Expectation())
        for level in (0.3, 0.5, 0.9):
            ts = house_selling_thresholds(params, ExpectedShortfall(level))
            assert all(r >= b - 1e-12 for r, b in zip(ts, base))


class TestThresholdExtractor:
    def test_simple(self):
        assert extract_threshold([0, 0, 0, 1], [0.0, 1.0, 2.0, 3.0]) == 2.0

    def test_gap_witness(self):
        got = extract_threshold([0, 1, 0], [0.0, 1.0, 2.0])
        assert isinstance(got, NotThreshold)
        assert got.witness_label == 1.0

    def test_never_stop(self):
        assert extract_threshold([1, 1], [0.0, 1.0]) == -math.inf


class TestCasino:
    def test_closed_form_sweep(self):
        grid = [0, 1, 2, 3]
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            for risk in (Expectation(), ExpectedShortfall(0.5), ExpectedShortfall(0.9)):
                for horizon in (1, 2, 3, 4, 5):
                    m = build_casino(p, horizon, grid)
                    res = solve_finite(m, risk, horizon)
                    for x in grid:
                        expected = casino_closed_form(p, risk, horizon, x)
                        assert res.values[0][x] == pytest.approx(expected, abs=1e-12)

    def test_sure_win_doubles(self):
        m = build_casino(1.0, 3, [0, 1, 2])
        res = solve_finite(m, ValueAtRisk(0.5), 3)
        for x in (0, 1, 2):
            assert res.values[0][x] == pytest.approx(-x * 8.0, abs=1e-12)

    def test_fair_game_es_plays_nothing(self):
        m = build_casino(0.5, 2, [0, 1, 2, 3])
        res = solve_finite(m, ExpectedShortfall(0.5), 2)
        for n in range(2):
            assert all(a == 0 for a in res.policy.stages[n])

    def test_negated_gain_law_values(self):
        assert evaluate(Expectation(), negated_gain_law(0.75)) == pytest.approx(-0.5)
        assert evaluate(ExpectedShortfall(0.5), negated_gain_law(0.75)) == pytest.approx(0.0)
        assert evaluate(ExpectedShortfall(0.9), negated_gain_law(1.0)) == pytest.approx(-1.0)

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            build_casino(0.5, 0, [0, 1])
        with pytest.raises(InvalidParams):
            build_casino(0.5, 2, [-1, 0])
        with pytest.raises(InvalidParams):
            build_casino(0.5, 2, [0.5])
        with pytest.raises(InvalidParams):
            negated_gain_law(1.5)
        for win_prob in (1.5, -0.25, math.nan):
            with pytest.raises(InvalidParams, match=r"win probability must lie in \[0, 1\]"):
                build_casino(win_prob, 2, [0, 1])


class TestCashBalance:
    def test_model_validates(self):
        assert validate_model(build_cash_balance(CASH_PARAMS)) == []

    def solve(self, params, risk=ExpectedShortfall(0.9)):
        m = build_cash_balance(params)
        spec = constant_bounding_spec(m)
        res = solve_infinite(m, risk, spec, 1e-8)
        assert res.converged
        return m, res

    def test_two_threshold_policy_and_convex_value(self):
        m, res = self.solve(CASH_PARAMS)
        adm_labels = [m.state_labels[a] for a in m.admissible[0]]
        got = extract_two_thresholds(res.policy.stages[0], m.state_labels, adm_labels)
        assert isinstance(got, TwoThresholds)
        assert not got.boundary_active
        vals = list(res.value)
        for i in range(1, len(vals) - 1):
            assert vals[i + 1] - 2 * vals[i] + vals[i - 1] >= -1e-9

    def test_wide_band_fixture(self):
        m, res = self.solve(CASH_PARAMS_WIDE_BAND)
        adm_labels = [m.state_labels[a] for a in m.admissible[0]]
        got = extract_two_thresholds(res.policy.stages[0], m.state_labels, adm_labels)
        assert isinstance(got, TwoThresholds)
        assert got.s_minus < got.s_plus

    def test_infinite_value_matches_long_finite_run(self):
        m, res = self.solve(CASH_PARAMS)
        horizon = 120
        fin = solve_finite(m, ExpectedShortfall(0.9), horizon)
        for x in range(m.n_states):
            assert res.value[x] == pytest.approx(fin.values[0][x], abs=1e-4)

    def test_prohibitive_fees_do_nothing(self):
        params = CashBalanceParams(
            levels=CASH_PARAMS.levels,
            holding_cost=CASH_PARAMS.holding_cost,
            transfer_up=1e6,
            transfer_down=1e6,
            z_law=CASH_PARAMS.z_law,
            beta=0.9,
        )
        m, res = self.solve(params)
        rule = res.policy.stages[0]
        for x in m.admissible[0]:  # interior states can stay put
            assert rule[x] == x
        got = extract_two_thresholds(res.policy.stages[0], m.state_labels,
                                     [m.state_labels[a] for a in m.admissible[0]])
        assert isinstance(got, TwoThresholds)
        assert got.boundary_active  # band fills the admissible range

    def test_zero_holding_cost_never_transfers(self):
        params = CashBalanceParams(
            levels=CASH_PARAMS.levels,
            holding_cost=lambda v: 0.0,
            transfer_up=1.0,
            transfer_down=1.0,
            z_law=make_distribution([0.0], [1.0]),  # keeps every level admissible
            beta=0.9,
        )
        m, res = self.solve(params)
        rule = res.policy.stages[0]
        assert rule == tuple(range(m.n_states))  # stay put everywhere
        assert all(v == 0.0 for v in res.value)

    def test_zero_holding_cost_interior_stays_under_random_shift(self):
        params = CashBalanceParams(
            levels=CASH_PARAMS.levels,
            holding_cost=lambda v: 0.0,
            transfer_up=1.0,
            transfer_down=1.0,
            z_law=CASH_PARAMS.z_law,
            beta=0.9,
        )
        m, res = self.solve(params)
        rule = res.policy.stages[0]
        for x in m.admissible[0]:  # the boundary states have no stay action
            assert rule[x] == x

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            build_cash_balance(
                CashBalanceParams(
                    levels=(-2.0, 0.0, 1.0),  # not symmetric
                    holding_cost=lambda v: v * v,
                    transfer_up=1.0,
                    transfer_down=1.0,
                    z_law=CASH_PARAMS.z_law,
                )
            )
        with pytest.raises(InvalidParams):
            build_cash_balance(
                CashBalanceParams(
                    levels=CASH_PARAMS.levels,
                    holding_cost=lambda v: -abs(v),  # concave, negative
                    transfer_up=1.0,
                    transfer_down=1.0,
                    z_law=CASH_PARAMS.z_law,
                )
            )


class TestTwoThresholdExtractor:
    def test_clamp_form(self):
        labels = [-2.0, -1.0, 0.0, 1.0, 2.0]
        actions = [1, 1, 2, 3, 3]  # clamp to [-1, 1]
        got = extract_two_thresholds(actions, labels)
        assert got == TwoThresholds(s_minus=-1.0, s_plus=1.0, boundary_active=False)

    def test_witness(self):
        labels = [-1.0, 0.0, 1.0]
        actions = [2, 1, 2]  # lowest state jumps past the stay region
        got = extract_two_thresholds(actions, labels)
        assert isinstance(got, NotTwoThreshold)
        assert got.witness_label == -1.0


class TestVarMyopic:
    def test_model_validates_and_is_monotone(self):
        m = build_var_myopic(myopic_params())
        assert validate_model(m) == []

    def test_myopia_holds_on_fixture(self):
        params = myopic_params()
        m = build_var_myopic(params)
        assert verify_myopia(m, params.level, params.horizon)

    def test_myopia_other_levels(self):
        for level in (0.3, 0.65):
            params = myopic_params(level=level)
            m = build_var_myopic(params)
            assert verify_myopia(m, level, params.horizon)

    def test_deterministic_disturbance_trivially_myopic(self):
        params = VarMyopicParams(
            labels=(0.0, 1.0, 2.0),
            n_actions=2,
            z_law=make_distribution([0.0], [1.0]),
            transition=lambda x, a, z: min(max(x + (1.0 if a else -1.0), 0.0), 2.0),
            cost=lambda x, nxt: nxt,
            level=0.5,
            horizon=3,
        )
        m = build_var_myopic(params)
        assert verify_myopia(m, 0.5, 3)

    def test_monotonicity_violations_raised(self):
        bad = VarMyopicParams(
            labels=(0.0, 1.0, 2.0),
            n_actions=1,
            z_law=make_distribution([0.0], [1.0]),
            transition=lambda x, a, z: 2.0 - x,  # decreasing in the state
            cost=lambda x, nxt: nxt,
        )
        with pytest.raises(MonotonicityViolation):
            build_var_myopic(bad)
        bad_cost = VarMyopicParams(
            labels=(0.0, 1.0, 2.0),
            n_actions=1,
            z_law=make_distribution([0.0], [1.0]),
            transition=lambda x, a, z: x,
            cost=lambda x, nxt: -x,  # decreasing in the state
        )
        with pytest.raises(MonotonicityViolation):
            build_var_myopic(bad_cost)

    def test_es_control_not_asserted(self):
        # negative control: the same model solved under a tail average need
        # not match the quantile-myopic rule, so no assertion is made, only
        # the outcome is recorded
        params = myopic_params()
        m = build_var_myopic(params)
        res = solve_finite(m, ExpectedShortfall(0.5), params.horizon)
        assert res.values[0] is not None


    def test_myopia_matches_greedy_sets_from_bellman_L(self):
        # random monotone models whose cost depends on (state, next state)
        # only; the cost table is not monotone, so myopia may fail
        rng = np.random.default_rng(505)
        outcomes = set()
        for _ in range(25):
            S, A, K = int(rng.integers(2, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
            succ = np.sort(rng.integers(0, S, (S, A, K)), axis=0)
            by_pair = np.round(rng.uniform(-2, 2, (S, S)), 1)
            m = MdpModel(
                n_states=S,
                n_actions=A,
                admissible=tuple(tuple(range(A)) for _ in range(S)),
                disturbance=make_distribution(list(range(K)), rng.dirichlet(np.ones(K)).tolist()),
                transition=succ.tolist(),
                cost=by_pair[np.arange(S)[:, None, None], succ].tolist(),
                terminal_cost=np.round(rng.uniform(-1, 1, S), 1).tolist(),
                discount=0.9,
                state_labels=tuple(float(x) for x in range(S)),
            )
            for level in (0.3, 0.9):
                risk = ValueAtRisk(level)
                res = solve_finite(m, risk, 3)

                def argmins(score):
                    return [
                        {a for a in range(A) if score(x, a) == min(score(x, b) for b in range(A))}
                        for x in range(S)
                    ]

                myopic = argmins(
                    lambda x, a: evaluate(risk, make_distribution(succ[x, a].tolist(), m.disturbance.probs))
                )
                expected = all(res.policy.stages[n] == res.policy.stages[0] for n in range(3)) and all(
                    my <= greedy
                    for n in range(3)
                    for my, greedy in zip(
                        myopic, argmins(lambda x, a: bellman_L(m, risk, res.values[n + 1], x, a))
                    )
                )
                assert verify_myopia(m, level, 3) is expected
                outcomes.add(expected)
        assert outcomes == {True, False}


class TestMonotoneValues:
    def test_values_increase_in_state_label(self):
        params = myopic_params()
        m = build_var_myopic(params)
        for risk in (Expectation(), ValueAtRisk(0.5), ExpectedShortfall(0.5), Entropic(0.5)):
            res = solve_finite(m, risk, params.horizon)
            for n in range(params.horizon + 1):
                vals = list(res.values[n])
                assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))
