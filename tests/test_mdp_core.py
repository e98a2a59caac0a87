"""Model validation, one-stage operators, norms, and envelope verification."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmdp import mdp_core, risk_measures, robust_check, solvers
from riskmdp.distributions import make_distribution
from riskmdp.errors import (
    DimensionMismatch,
    InfeasibleAction,
    NotContractive,
    RiskMdpError,
    SumOverflow,
)
from riskmdp.examples import build_casino, verify_myopia
from riskmdp.mdp_core import (
    BoundingSpec,
    BoundMode,
    MdpModel,
    Policy,
    ValueFunction,
    bellman_L,
    bellman_T,
    constant_bounding_spec,
    stage_law,
    validate_model,
    verify_bounds,
    weighted_norm,
)
from riskmdp.model_io import model_to_obj
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
    _RowLaws,
    evaluate,
)
from riskmdp.solvers import evaluate_policy_finite, weak_increase_check

from helpers import classic_finite_dp, make_random_model


def two_state_model(beta=1.0):
    return MdpModel(
        n_states=2,
        n_actions=2,
        admissible=((0, 1), (0,)),
        disturbance=make_distribution([0, 1], [0.5, 0.5]),
        transition=(((0, 1), (1, 1)), ((0, 0), (0, 0))),
        cost=(((1.0, 2.0), (0.5, 0.5)), ((0.0, 0.0), (0.0, 0.0))),
        terminal_cost=(0.0, 0.0),
        discount=beta,
    )


class TestValidateModel:
    def test_well_formed_casino(self):
        assert validate_model(build_casino(0.5, 2, [0, 1, 2])) == []

    def test_empty_admissible_set(self):
        m = two_state_model()
        bad = MdpModel(
            n_states=2,
            n_actions=2,
            admissible=((0, 1), ()),
            disturbance=m.disturbance,
            transition=m.transition,
            cost=m.cost,
            terminal_cost=m.terminal_cost,
        )
        diags = validate_model(bad)
        assert any(d.kind == "EmptyAdmissibleSet" and d.where == {"state": 1} for d in diags)

    def test_bad_transition_index_located(self):
        m = two_state_model()
        bad = MdpModel(
            n_states=2,
            n_actions=2,
            admissible=m.admissible,
            disturbance=m.disturbance,
            transition=(((0, 7), (1, 1)), ((0, 0), (0, 0))),
            cost=m.cost,
            terminal_cost=m.terminal_cost,
        )
        diags = validate_model(bad)
        assert any(
            d.kind == "BadTransition" and d.where == {"x": 0, "a": 0, "z": 1} for d in diags
        )

    def test_bad_discount_and_labels(self):
        m = two_state_model()
        bad = MdpModel(
            n_states=2,
            n_actions=2,
            admissible=m.admissible,
            disturbance=m.disturbance,
            transition=m.transition,
            cost=m.cost,
            terminal_cost=m.terminal_cost,
            discount=1.5,
            state_labels=(1.0, 1.0),
        )
        kinds = {d.kind for d in validate_model(bad)}
        assert "BadDiscount" in kinds and "BadLabel" in kinds

    def test_repeated_admissible_action_located(self):
        # a repeat would count twice in the policy count, while the sweep
        # holds each pair once
        m = two_state_model()
        bad = MdpModel(
            n_states=2,
            n_actions=2,
            admissible=((0, 0, 1), (0,)),
            disturbance=m.disturbance,
            transition=m.transition,
            cost=m.cost,
            terminal_cost=m.terminal_cost,
        )
        assert [(d.kind, d.where) for d in validate_model(bad)] == [("BadAction", {"state": 0, "action": 0})]


class TestStageLaw:
    def test_zero_value_gives_cost_law(self):
        m = two_state_model()
        law = stage_law(m, [0.0, 0.0], 0, 0)
        assert law.atoms == (1.0, 2.0)
        assert law.probs == (0.5, 0.5)

    def test_casino_bet_all(self):
        m = build_casino(0.5, 1, [0, 1, 2, 3, 4])
        v = [-float(x) for x in range(m.n_states)]
        law = stage_law(m, v, 4, 4)
        assert law.atoms == (-8.0, 0.0)
        assert law.probs == (0.5, 0.5)

    def test_deterministic_disturbance_point_mass(self):
        m = build_casino(1.0, 1, [0, 1, 2])
        v = [0.0] * m.n_states
        law = stage_law(m, v, 2, 2)
        assert law.atoms == (0.0,)

    def test_infeasible_action(self):
        # a state outside the model is refused too, never read as another state's row
        m = two_state_model()
        for x, a in ((1, 1), (-1, 0), (2, 0)):
            with pytest.raises(InfeasibleAction):
                stage_law(m, [0.0, 0.0], x, a)
            with pytest.raises(InfeasibleAction):
                bellman_L(m, Expectation(), [0.0, 0.0], x, a)

    def test_zero_probability_outcomes_ignored(self):
        base = two_state_model()
        m = MdpModel(
            n_states=2,
            n_actions=2,
            admissible=base.admissible,
            disturbance=make_distribution([0, 1, 2], [0.5, 0.5, 0.0]),
            transition=(((0, 1, 0), (1, 1, 0)), ((0, 0, 1), (0, 0, 0))),
            cost=(((1.0, 2.0, 99.0), (0.5, 0.5, 99.0)), ((0.0, 0.0, 99.0), (0.0, 0.0, 0.0))),
            terminal_cost=(0.0, 0.0),
        )
        assert m.z_indices == (0, 1)
        assert validate_model(m) == []
        law = stage_law(m, [0.0, 0.0], 0, 0)
        assert law.atoms == (1.0, 2.0)  # the dead outcome never contributes


class TestBellmanL:
    def test_matches_evaluate_of_stage_law_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = make_random_model(rng)
            v = rng.uniform(-3, 3, m.n_states).tolist()
            for risk in (Expectation(), ExpectedShortfall(0.7), ValueAtRisk(0.4), Entropic(0.5)):
                for x in range(m.n_states):
                    for a in m.admissible[x]:
                        assert bellman_L(m, risk, v, x, a) == evaluate(
                            risk, stage_law(m, v, x, a)
                        )

    def test_expectation_is_classic_operator(self):
        m = two_state_model(beta=0.9)
        v = [2.0, -1.0]
        expected = 0.5 * (1.0 + 0.9 * 2.0) + 0.5 * (2.0 + 0.9 * (-1.0))
        assert bellman_L(m, Expectation(), v, 0, 0) == pytest.approx(expected, abs=1e-12)

    def test_casino_es_half_bet_all_is_zero(self):
        m = build_casino(0.5, 1, [0, 1, 2, 3, 4])
        v = [-float(x) for x in range(m.n_states)]
        assert bellman_L(m, ExpectedShortfall(0.5), v, 4, 4) == 0.0

    def test_point_mass_law_for_all_normalized_kinds(self):
        m = build_casino(1.0, 1, [0, 1, 2, 3])
        v = [7.0] * m.n_states  # win is certain, continuation constant
        for risk in (Expectation(), ValueAtRisk(0.3), ExpectedShortfall(0.6), Entropic(2.0)):
            assert bellman_L(m, risk, v, 2, 0) == pytest.approx(7.0, abs=1e-12)

    def test_translation_covariance(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            m = make_random_model(rng)
            v = rng.uniform(-2, 2, m.n_states).tolist()
            x = int(rng.integers(0, m.n_states))
            a = m.admissible[x][0]
            shift = float(rng.uniform(-3, 3))
            shifted_cost = [
                [
                    [c + shift if (xx == x and aa == a) else c for c in cell]
                    for aa, cell in enumerate(row)
                ]
                for xx, row in enumerate(m.cost)
            ]
            m2 = MdpModel(
                n_states=m.n_states,
                n_actions=m.n_actions,
                admissible=m.admissible,
                disturbance=m.disturbance,
                transition=m.transition,
                cost=shifted_cost,
                terminal_cost=m.terminal_cost,
                discount=m.discount,
            )
            for risk in (Expectation(), ExpectedShortfall(0.8), ValueAtRisk(0.5), Entropic(1.0)):
                base = bellman_L(m, risk, v, x, a)
                assert bellman_L(m2, risk, v, x, a) == pytest.approx(base + shift, abs=1e-12)


class TestBellmanT:
    def test_forced_action_single_admissible(self):
        m = build_casino(0.5, 1, [0])
        v = [0.0]
        out, actions = bellman_T(m, Expectation(), v)
        assert actions == (0,)

    def test_matches_classic_dp_on_100_random_models(self):
        rng = np.random.default_rng(404)
        for _ in range(100):
            m = make_random_model(rng, max_states=6, max_actions=4, max_outcomes=5)
            values, rules = classic_finite_dp(m, 1)
            out, actions = bellman_T(m, Expectation(), m.terminal_cost)
            for x in range(m.n_states):
                assert out[x] == pytest.approx(values[0][x], abs=1e-12)
            assert actions == tuple(rules[0])

    def test_monotone_in_v_for_monotone_risks(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            m = make_random_model(rng)
            lo = rng.uniform(-2, 2, m.n_states)
            hi = lo + rng.uniform(0, 2, m.n_states)
            for risk in (Expectation(), ExpectedShortfall(0.6), ValueAtRisk(0.7), Entropic(0.7)):
                t_lo, _ = bellman_T(m, risk, lo.tolist())
                t_hi, _ = bellman_T(m, risk, hi.tolist())
                assert all(a <= b + 1e-12 for a, b in zip(t_lo, t_hi))

    def test_argmin_set_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            m = make_random_model(rng)
            v = rng.uniform(-2, 2, m.n_states).tolist()
            lam = float(rng.uniform(0.2, 4.0))
            scaled = MdpModel(
                n_states=m.n_states,
                n_actions=m.n_actions,
                admissible=m.admissible,
                disturbance=m.disturbance,
                transition=m.transition,
                cost=[[[lam * c for c in cell] for cell in row] for row in m.cost],
                terminal_cost=m.terminal_cost,
                discount=m.discount,
            )
            for risk in (Expectation(), ExpectedShortfall(0.75)):
                for x in range(m.n_states):
                    base = {
                        a: bellman_L(m, risk, v, x, a) for a in m.admissible[x]
                    }
                    scale = {
                        a: bellman_L(scaled, risk, [lam * w for w in v], x, a)
                        for a in m.admissible[x]
                    }
                    lo_base = min(base.values())
                    lo_scale = min(scale.values())
                    argmin_base = {a for a, t in base.items() if t <= lo_base + 1e-12}
                    argmin_scale = {a for a, t in scale.items() if t <= lo_scale + 1e-12}
                    assert argmin_base == argmin_scale


EVERY_KIND = (
    Expectation(),
    ValueAtRisk(0.4),
    ValueAtRisk(0.5),
    ExpectedShortfall(0.0),
    ExpectedShortfall(0.5),
    ExpectedShortfall(0.7),
    Distortion(DistortionFunction("identity")),
    Distortion(DistortionFunction("var_indicator", level=0.6)),
    Distortion(DistortionFunction("es_cap", level=0.3)),
    Distortion(
        DistortionFunction(
            "piecewise_linear", knots=((0.0, 0.0), (0.2, 0.5), (0.5, 0.8), (1.0, 1.0))
        )
    ),
    Spectral(StepSpectrum(((0.0, 0.5), (0.5, 1.0), (0.75, 2.0)))),
    Entropic(0.7),
    Mixture(0.3, ExpectedShortfall(0.8), Expectation()),
    Mixture(0.6, Entropic(0.5), ValueAtRisk(0.3)),
)


def pairwise_sweep(m, risk, v):
    """Per-state minimum of bellman_L, ties to the smallest action index."""
    values, actions = [], []
    for x in range(m.n_states):
        scored = [(bellman_L(m, risk, v, x, a), a) for a in m.admissible[x]]
        best = min(val for val, _ in scored)
        values.append(best)
        actions.append(next(a for val, a in scored if val == best))
    return values, tuple(actions)


def bits(values):
    return [float(v).hex() for v in values]


def coarse_random_model(rng):
    """Random model on a coarse cost grid, so that laws and actions tie exactly."""
    S = int(rng.integers(1, 12))
    A = int(rng.integers(1, 5))
    K = int(rng.integers(1, 13))
    admissible = tuple(
        tuple(sorted(rng.choice(A, size=int(rng.integers(1, A + 1)), replace=False).tolist()))
        for _ in range(S)
    )
    probs = [1.0 / K] * K if rng.integers(0, 2) else rng.dirichlet(np.ones(K)).tolist()
    if K > 2 and rng.integers(0, 3) == 0:
        probs[0] = 0.0  # an outcome the law never charges
        probs = [p / sum(probs) for p in probs]
    return MdpModel(
        n_states=S,
        n_actions=A,
        admissible=admissible,
        disturbance=make_distribution(list(range(K)), probs),
        transition=rng.integers(0, S, (S, A, K)).tolist(),
        cost=np.round(rng.uniform(-1, 1, (S, A, K)), int(rng.integers(0, 3))).tolist(),
        terminal_cost=(0.0,) * S,
        discount=(1.0, 0.9, 0.5)[int(rng.integers(0, 3))],
    )


def wide_random_model(rng):
    """Random model with 8 to 20 outcomes and costs spread over tens, on a coarse grid."""
    S, A, K = 25, 3, int(rng.integers(8, 21))
    probs = [1.0 / K] * K if rng.integers(0, 2) else rng.dirichlet(np.ones(K)).tolist()
    return MdpModel(
        n_states=S,
        n_actions=A,
        admissible=tuple(tuple(range(int(rng.integers(1, A + 1)))) for _ in range(S)),
        disturbance=make_distribution(list(range(K)), probs),
        transition=rng.integers(0, S, (S, A, K)).tolist(),
        cost=np.round(rng.uniform(-20, 20, (S, A, K)), int(rng.integers(0, 3))).tolist(),
        terminal_cost=(0.0,) * S,
        discount=0.9,
    )


class TestFirstMin:
    def test_lists_and_arrays_select_alike(self):
        # the two kinds of stage-step output take the same first strict minimum
        admissible = ((0, 1, 2), (0, 2), (0, 1, 2), (1,), (0, 1, 2), (0, 2), (1, 2))
        S = len(admissible)
        model = MdpModel(
            n_states=S,
            n_actions=3,
            admissible=admissible,
            disturbance=make_distribution([0], [1.0]),
            transition=np.zeros((S, 3, 1), dtype=np.int64),
            cost=np.zeros((S, 3, 1)),
            terminal_cost=(0.0,) * S,
        )
        nan, inf = math.nan, math.inf
        vals = [0.5, 0.5, 2.0, nan, 3.0, nan, inf, nan, -inf, 0.0, -0.0, 1.0, -0.0, 0.0, inf, -inf]
        expected = ([0.5, 3.0, inf, -inf, 0.0, -0.0, -inf], [0, 2, -1, 1, 0, 0, 2])
        for given in (vals, np.array(vals)):
            best, actions = mdp_core._first_min(model, given)
            assert (bits(best), actions) == (bits(expected[0]), expected[1])
            assert type(best) is type(given) and type(actions) is list


    @settings(max_examples=300)
    @given(data=st.data())
    def test_arrays_select_as_the_list_route_does(self, data):
        # single-action states, states whose pairs are all +inf or NaN, and
        # signed zeros; values and actions compared by float.hex
        S, A = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
        admissible = tuple(
            tuple(sorted(data.draw(st.sets(st.integers(0, A - 1), min_size=1, max_size=A)))) for _ in range(S)
        )
        model = MdpModel(
            n_states=S,
            n_actions=A,
            admissible=admissible,
            disturbance=make_distribution([0], [1.0]),
            transition=np.zeros((S, A, 1), dtype=np.int64),
            cost=np.zeros((S, A, 1)),
            terminal_cost=(0.0,) * S,
        )
        pool = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 0.5])
        vals = data.draw(st.lists(pool, min_size=len(model._sweep[0]), max_size=len(model._sweep[0])))
        expected = mdp_core._first_min(model, vals)
        best, actions = mdp_core._first_min(model, np.array(vals))
        assert (bits(best), actions) == (bits(expected[0]), expected[1])


class TestBatchedSweep:
    """The batched sweep against a loop over the one-pair operator, bit for bit."""

    @pytest.fixture(autouse=True)
    def batch_every_sweep(self, monkeypatch):
        # small sweeps would otherwise take the pairwise route
        monkeypatch.setattr(mdp_core, "BATCH_MIN_OUTCOMES", 0)

    def test_random_models_with_ties(self):
        rng = np.random.default_rng(2024)
        for _ in range(120):
            m = coarse_random_model(rng)
            for risk in EVERY_KIND:
                v = np.round(rng.uniform(-2, 2, m.n_states), int(rng.integers(0, 3))).tolist()
                out, actions = bellman_T(m, risk, v)
                values, rule = pairwise_sweep(m, risk, v)
                assert bits(out) == bits(values), risk
                assert actions == rule, risk

    def test_casino_horizons_one_to_five(self):
        for p in (0.25, 0.5, 0.75, 1.0):
            for horizon in range(1, 6):
                m = build_casino(p, horizon, [0, 1])
                for risk in EVERY_KIND:
                    v = list(m.terminal_cost)
                    for _ in range(horizon):
                        out, actions = bellman_T(m, risk, v)
                        v, rule = pairwise_sweep(m, risk, v)
                        assert bits(out) == bits(v), (p, horizon, risk)
                        assert actions == rule, (p, horizon, risk)

    @pytest.mark.parametrize("threshold", [0, 10**9], ids=["batch", "pairwise"])
    def test_overflowing_values_raise_like_the_pairwise_loop(self, monkeypatch, threshold):
        monkeypatch.setattr(mdp_core, "BATCH_MIN_OUTCOMES", threshold)
        m = two_state_model()
        huge = MdpModel(
            n_states=2,
            n_actions=2,
            admissible=m.admissible,
            disturbance=m.disturbance,
            transition=m.transition,
            cost=[[[1.7e308, 1.7e308], [1.7e308, 1.7e308]], [[0.0, 0.0], [0.0, 0.0]]],
            terminal_cost=m.terminal_cost,
        )
        v = [1.7e308, 1.7e308]  # state 0 has no finite stage value

        def error_of(sweep):
            try:
                ValueFunction(sweep()[0])
            except Exception as exc:  # the type is compared
                return type(exc)
            return None

        for risk in EVERY_KIND:
            expected = error_of(lambda: pairwise_sweep(huge, risk, v))
            assert expected is not None, risk
            assert error_of(lambda: bellman_T(huge, risk, v)) is expected, risk

    @pytest.mark.parametrize("threshold", [0, 10**9], ids=["batch", "pairwise"])
    def test_a_two_outcome_sum_that_fsum_refuses_raises_on_both_routes(self, monkeypatch, threshold):
        # the stage values are +inf and -inf, both weighted: one IEEE
        # addition of the two terms would give NaN where fsum raises
        monkeypatch.setattr(mdp_core, "BATCH_MIN_OUTCOMES", threshold)
        big = 1.7e308
        m = chain_model([[[big, -big]], [[big, -big]]], [[[0, 1]], [[0, 1]]], (0.5, 0.5))
        identity = Distortion(DistortionFunction(form="identity"))
        for risk in (Expectation(), identity, Mixture(0.5, identity, ExpectedShortfall(0.5))):
            got = outcome(lambda: bellman_T(m, risk, [big, -big]))
            assert got == (SumOverflow, "sum out of float range (-inf + inf in fsum)"), risk

    def test_entropic_on_wide_laws_matches_the_pairwise_loop(self):
        # libm's exp and log, not numpy's, give the scalar route's last bit
        rng = np.random.default_rng(4101)
        gammas = (0.05, 0.3, 1.2)
        risks = [Entropic(g) for g in gammas] + [
            Mixture(0.4, Entropic(0.3), ExpectedShortfall(0.5)),
            Mixture(0.7, Expectation(), Entropic(1.2)),
            Mixture(0.5, Entropic(0.05), Entropic(0.3)),
        ]
        exp_differs = log_differs = 0
        for _ in range(12):
            m = wide_random_model(rng)
            v = np.round(rng.uniform(-15, 15, m.n_states), int(rng.integers(0, 3))).tolist()
            for risk in risks:
                out, actions = bellman_T(m, risk, v)
                values, rule = pairwise_sweep(m, risk, v)
                assert bits(out) == bits(values), risk
                assert actions == rule, risk
            for x in range(m.n_states):
                for a in m.admissible[x]:
                    law = stage_law(m, v, x, a)
                    z = np.array(law.atoms) * gammas[1] - law.atoms[-1] * gammas[1]
                    libm = np.array([math.exp(t) for t in z])
                    acc = math.fsum(np.array(law.probs) * libm)
                    exp_differs += np.count_nonzero(np.exp(z) != libm)
                    log_differs += np.log(acc) != math.log(acc)
        assert exp_differs and log_differs

    def test_math_exp_per_entry_gives_the_batched_exps_bits(self, monkeypatch):
        # where the platform check fails, _exp takes math.exp per entry;
        # sweeps and bound checks must read the same bits either way, on
        # laws with ties (the masked branch) and without
        rng = np.random.default_rng(4104)
        S, K = 20, 9
        tie_free = MdpModel(  # costs off any grid: no two stage values of a row tie
            n_states=S,
            n_actions=3,
            admissible=((0, 1, 2),) * S,
            disturbance=make_distribution(list(range(K)), rng.dirichlet(np.ones(K)).tolist()),
            transition=rng.integers(0, S, (S, 3, K)).tolist(),
            cost=rng.uniform(-20, 20, (S, 3, K)).tolist(),
            terminal_cost=(0.0,) * S,
            discount=0.9,
        )
        cases = []
        for risk in (Entropic(0.3), Entropic(1.2), Mixture(0.4, Entropic(0.9), ExpectedShortfall(0.5))):
            for m in (wide_random_model(rng), coarse_random_model(rng), tie_free):
                v = np.round(rng.uniform(-15, 15, m.n_states), int(rng.integers(0, 3))).tolist()
                if m is tie_free:
                    v = rng.uniform(-15, 15, S).tolist()
                lb = np.round(rng.uniform(-30, -0.5, m.n_states), 1).tolist()
                ub = np.round(rng.uniform(0.5, 30, m.n_states), 1).tolist()
                cases.append((m, risk, v, BoundingSpec(lb=lb, ub=ub, alpha=0.5)))

        def results():
            out = []
            for m, risk, v, spec in cases:
                values, actions = bellman_T(m, risk, v)
                report = verify_bounds(m, risk, spec)
                out.append((bits(values), actions, [(b.inequality, b.state, b.action, b.lhs.hex()) for b in report.violations]))
            return out

        exp, ndims = risk_measures._exp, []
        monkeypatch.setattr(risk_measures, "_exp", lambda x: ndims.append(x.ndim) or exp(x))
        batched = results()
        assert {1, 2} <= set(ndims)  # the masked branch's and the tie-free branch's calls
        monkeypatch.setattr(risk_measures, "_exp", exp)
        calls = []
        libm = risk_measures._libm
        monkeypatch.setattr(risk_measures, "_complex_exp_is_libm", lambda: False)
        monkeypatch.setattr(risk_measures, "_libm", lambda fn, x: calls.append(fn) or libm(fn, x))
        assert results() == batched
        assert calls.count(math.exp) >= 4 * len(cases)

    def test_underflowing_entropic_terms_ignore_the_callers_error_state(self):
        # gamma * costs up to 2000 put exp's terms below the subnormal range;
        # pair by pair they round to 0.0, so the batch must not raise either
        rng = np.random.default_rng(4103)
        S, K = 30, 8
        m = MdpModel(
            n_states=S,
            n_actions=2,
            admissible=((0, 1),) * S,
            disturbance=make_distribution(list(range(K)), [1.0 / K] * K),
            transition=rng.integers(0, S, (S, 2, K)).tolist(),
            cost=np.round(rng.uniform(0, 2000, (S, 2, K)), 1).tolist(),
            terminal_cost=(0.0,) * S,
            discount=1.0,
        )
        spec = BoundingSpec(lb=[-3000.0] * S, ub=[3000.0] * S, alpha=0.5)
        v = np.round(rng.uniform(-5, 5, S), 1).tolist()
        for risk in (Entropic(1.0), Mixture(0.5, Entropic(1.0), ExpectedShortfall(0.5))):
            values, rule = pairwise_sweep(m, risk, v)
            calm = verify_bounds(m, risk, spec)
            with np.errstate(all="raise"):
                out, actions = bellman_T(m, risk, v)
                report = verify_bounds(m, risk, spec)
            assert (bits(out), actions) == (bits(values), rule), risk
            assert [(b.inequality, b.state, b.action, b.lhs.hex()) for b in report.violations] == [
                (b.inequality, b.state, b.action, b.lhs.hex()) for b in calm.violations
            ], risk
            assert len(report.violations) > 10, risk

    def test_verify_bounds_on_entropic_models_matches_the_scalar_route(self):
        rng = np.random.default_rng(4102)
        tol, alpha = 1e-9, 0.5
        for risk in (Entropic(0.4), Mixture(0.3, ExpectedShortfall(0.6), Entropic(0.9))):
            m = wide_random_model(rng)
            lb = np.round(rng.uniform(-30, -0.5, m.n_states), 1).tolist()
            ub = np.round(rng.uniform(0.5, 30, m.n_states), 1).tolist()
            report = verify_bounds(m, risk, BoundingSpec(lb=lb, ub=ub, alpha=alpha))
            zs, probs = m.z_indices, m.disturbance.probs

            def rho(values):
                return evaluate(risk, make_distribution(values, probs))

            expected = []
            for x in range(m.n_states):
                for a in m.admissible[x]:
                    cost = rho([float(m.cost[x, a, z]) for z in zs])
                    up = rho([ub[m.transition[x, a, z]] for z in zs])
                    down = rho([-lb[m.transition[x, a, z]] for z in zs])
                    for name, bad, lhs in (
                        ("stage_cost_lower", cost < lb[x] - tol, cost),
                        ("stage_cost_upper", cost > ub[x] + tol, cost),
                        ("ub_growth", up > alpha * ub[x] + tol, up),
                        ("lb_growth", down > -alpha * lb[x] + tol, down),
                    ):
                        if bad:
                            expected.append((name, x, a, lhs.hex()))
            got = [(v.inequality, v.state, v.action, v.lhs.hex()) for v in report.violations]
            assert len(expected) > 20 and got == expected, risk

    @pytest.mark.parametrize("threshold", [0, 10**9], ids=["batch", "pairwise"])
    @pytest.mark.parametrize(
        "cost, v",
        [
            ([[[1.0, 2.0], [350.0, -3.0]], [[-350.0, 0.0], [0.0, 0.0]]], [0.0, 0.0]),
            ([[[1.0, 2.0], [2500.0, -3.0]], [[-2500.0, 0.0], [0.0, 0.0]]], [0.0, 0.0]),
            ([[[1.0, 2.0], [0.5, 0.5]], [[0.0, 0.0], [0.0, 0.0]]], [math.inf, 1.0]),
            ([[[1.0, 2.0], [0.5, 0.5]], [[0.0, 0.0], [0.0, 0.0]]], [-math.inf, 1.0]),
            ([[[1.0, 2.0], [0.5, 0.5]], [[0.0, 0.0], [0.0, 0.0]]], [math.inf, -math.inf]),
            ([[[1e308, 2.0], [1e308, 1.5e308]], [[-1e308, 0.0], [0.0, 0.0]]], [0.0, 0.0]),
            ([[[-1.5e308, -1e308], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], [0.0, 0.0]),
        ],
        ids=[
            "gamma-M-700",
            "gamma-M-5000",
            "inf",
            "minus-inf",
            "both-infs",
            "gamma-atom-overflows",
            "gamma-top-atom-overflows-below",
        ],
    )
    def test_entropic_laws_of_any_scale_match_bellman_L(self, monkeypatch, threshold, cost, v):
        # at gamma 2, |atom| 350 and 2500 put gamma * max|atom| at 700 and
        # 5000; 2 * 1e308 overflows to +inf and 2 * -1e308, a top atom, to
        # -inf, which the value then reads, not NaN; no law is refused
        monkeypatch.setattr(mdp_core, "BATCH_MIN_OUTCOMES", threshold)
        m = dataclasses.replace(two_state_model(), cost=cost, discount=0.9)
        for risk in (
            Entropic(2.0),
            Mixture(0.5, Entropic(0.5), Entropic(2.0)),
            Mixture(0.5, ExpectedShortfall(0.5), Entropic(2.0)),
        ):
            expected = [bellman_L(m, risk, v, x, a) for x, a in zip(*m._pairs[:2])]
            assert not any(map(math.isnan, expected)), risk
            assert bits(mdp_core._stage_values(m, risk, v)) == bits(expected), risk

    def test_verify_bounds_reports_the_pairwise_values(self):
        m = two_state_model(beta=0.9)
        spec = BoundingSpec(lb=(-0.5, -0.5), ub=(0.5, 1.5), alpha=1.0)
        report = verify_bounds(m, ExpectedShortfall(0.5), spec)
        first = report.violations[0]
        law = stage_law(m, [0.0, 0.0], first.state, first.action)
        assert first.lhs == evaluate(ExpectedShortfall(0.5), law)

    def test_verify_bounds_with_an_infinite_envelope_raises_no_numpy_warning(self):
        # inf * 0 arises inside the batch; pytest turns a RuntimeWarning into an error
        m = two_state_model(beta=0.9)
        spec = BoundingSpec(lb=(-0.5, -0.5), ub=(0.5, math.inf), alpha=1.0)
        for risk in EVERY_KIND:
            report = verify_bounds(m, risk, spec)
            growth = [v.lhs for v in report.violations if v.inequality == "ub_growth"]
            assert growth and all(lhs == math.inf for lhs in growth), risk


def outcome(call):
    """Bit patterns of a stage step's values (and actions), or the error it raised."""
    try:
        got = call()
    except RiskMdpError as exc:
        return type(exc), str(exc)
    if isinstance(got, tuple):  # bellman_T
        return bits(got[0]), got[1]
    return bits(got)


# stage values of these costs and values tie often, include both zeros,
# infinities of both signs and NaN, and put gamma * |atom| past exp's
# range (2000, 1e308)
MEMO_COSTS = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0)
MEMO_VALUES = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0) * 4 + (
    math.inf,
    -math.inf,
    math.nan,
    2000.0,
    1e308,
)


@st.composite
def memo_cases(draw):
    """A small model and a sequence of value vectors, each changing a few states of the last."""
    S, A, K = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 6))
    admissible = tuple(
        tuple(sorted(draw(st.sets(st.integers(0, A - 1), min_size=1)))) for _ in range(S)
    )
    weights = draw(st.lists(st.sampled_from((0.0, 1.0, 1.0, 2.0, 5.0)), min_size=K, max_size=K))
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
        cost=table(st.sampled_from(MEMO_COSTS)),
        terminal_cost=(0.0,) * S,
        discount=draw(st.sampled_from((1.0, 0.9, 0.5))),
    )
    value = st.sampled_from(MEMO_VALUES)
    v = draw(st.lists(value, min_size=S, max_size=S))
    sequence = [v]
    for _ in range(draw(st.integers(1, 7))):
        v = list(v)
        for x in draw(st.sets(st.integers(0, S - 1), max_size=2)):
            v[x] = draw(value)
        sequence.append(v)
    return model, sequence


class TestSweepMemo:
    """Full sweeps through one solve's _SweepMemo against sweeps without one, bit for bit."""

    @settings(max_examples=300)
    @given(case=memo_cases(), risk=st.sampled_from(EVERY_KIND))
    def test_every_sweep_matches_a_sweep_without_memo(self, case, risk):
        model, sequence = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mdp_core, "BATCH_MIN_OUTCOMES", 0)
            pairs, sweep = mdp_core._SweepMemo(), mdp_core._SweepMemo()
            for v in sequence:
                expected = outcome(lambda: mdp_core._stage_values(model, risk, v))
                assert outcome(lambda: mdp_core._stage_values(model, risk, v, None, pairs)) == expected
                expected = outcome(lambda: bellman_T(model, risk, v))
                assert outcome(lambda: bellman_T(model, risk, v, sweep)) == expected

    def test_orders_ties_and_signed_zeros_that_change_between_sweeps(self, monkeypatch):
        monkeypatch.setattr(mdp_core, "BATCH_MIN_OUTCOMES", 0)
        # state 0 ranks v(0) against v(1), state 2 the other way round; at
        # v(2) = -0.0 state 1 ties -0.0 with +0.0, which keeps -0.0
        model = MdpModel(
            n_states=3,
            n_actions=1,
            admissible=((0,),) * 3,
            disturbance=make_distribution([0, 1], [0.3, 0.7]),
            transition=[[[0, 1]], [[2, 2]], [[1, 0]]],
            cost=[[[0.0, 0.0]], [[-0.0, 0.0]], [[0.0, 0.0]]],
            terminal_cost=(0.0,) * 3,
            discount=0.9,
        )
        sequence = (
            [1.0, 1.0, -0.0],  # ties
            [1.0, 2.0, -0.0],  # the ties come apart
            [2.0, 1.0, -0.0],  # the orders turn
            [1.0, 2.0, -0.0],  # and turn back
            [1.0, 1.0, -0.0],  # the ties return
            [1.0, 1.0, -0.0],
        )
        built = []
        row_laws = mdp_core._row_laws

        def counted(risk, values, probs):
            built.append(len(values))
            return row_laws(risk, values, probs)

        monkeypatch.setattr(mdp_core, "_row_laws", counted)
        for risk in EVERY_KIND:
            memo = mdp_core._SweepMemo()
            built.clear()
            for v in sequence:
                expected = mdp_core._stage_values(model, risk, v)
                assert bits(mdp_core._stage_values(model, risk, v, None, memo)) == bits(expected), (risk, v)
            assert built[0] == 3 and sum(built) < 3 * len(sequence), risk  # the later sweeps reused the shapes
        memo = mdp_core._SweepMemo()
        for _ in range(2):  # built, then reused
            var = mdp_core._stage_values(model, ValueAtRisk(0.5), [0.0, 0.0, -0.0], None, memo)
            assert bits(var)[1] == "-0x0.0p+0"

    def test_a_pairwise_step_reads_a_nan_atom_in_outcome_order_as_bellman_L(self, monkeypatch):
        # sorting (value, probability) pairs is order-independent except at
        # NaN; the probabilities here are not ascending in outcome order
        monkeypatch.setattr(mdp_core, "BATCH_MIN_OUTCOMES", 10**9)
        m = MdpModel(
            n_states=3,
            n_actions=1,
            admissible=((0,),) * 3,
            disturbance=make_distribution([0, 1, 2], [0.5, 0.2, 0.3]),
            transition=[[[0, 1, 2]]] * 3,
            cost=[[[0.0, 0.0, 0.0]]] * 3,
            terminal_cost=(0.0,) * 3,
        )
        for v in ([1.0, math.nan, 2.0], [2.0, 1.0, math.nan], [math.nan, 2.0, 1.0]):
            for risk in (ValueAtRisk(0.4), ValueAtRisk(0.6), ExpectedShortfall(0.5)):
                expected = [bellman_L(m, risk, v, x, 0) for x in range(3)]
                assert bits(mdp_core._stage_values(m, risk, v)) == bits(expected), (v, risk)
                assert bits(mdp_core._stage_values(m, risk, v, (0, 1, 2))) == bits(expected), (v, risk)

    def test_fixed_rule_and_pairwise_steps_leave_the_memo_alone(self, monkeypatch):
        rng = np.random.default_rng(77)
        m = make_random_model(rng, zero_terminal=True)
        v = rng.uniform(-1, 1, m.n_states).tolist()
        for threshold in (0, 10**9):
            monkeypatch.setattr(mdp_core, "BATCH_MIN_OUTCOMES", threshold)
            memo = mdp_core._SweepMemo()
            rule = solvers._feasible_rules([m], Policy(stages=(tuple(acts[0] for acts in m.admissible),)), 1)[0]
            fixed = mdp_core._stage_values(m, ExpectedShortfall(0.5), v, rule, memo)
            assert bits(fixed) == bits(mdp_core._stage_values(m, ExpectedShortfall(0.5), v, rule))
            assert memo.law is None
        mdp_core._stage_values(m, ExpectedShortfall(0.5), v, None, memo)
        assert memo.law is None  # pair by pair


ROW_POOL = (-1.0, -0.0, 0.0, 1.0, 2.0, math.inf, -math.inf, math.nan)


class TestRowLawShape:
    @settings(max_examples=300)
    @given(
        old=st.lists(st.lists(st.sampled_from(ROW_POOL), min_size=4, max_size=4), min_size=1, max_size=6),
        new=st.lists(st.lists(st.sampled_from(ROW_POOL), min_size=4, max_size=4), min_size=6, max_size=6),
    )
    def test_a_row_is_stale_exactly_when_a_stable_sort_changes_its_shape(self, old, new):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        old = np.array(old)
        new = np.array(new[: len(old)])
        kept = _RowLaws(old, probs)
        fresh = _RowLaws(new, probs)
        stale = set(kept.stale(np.take_along_axis(new, kept.order, axis=1)).tolist())
        for i in range(len(old)):
            same = (kept.order[i] == fresh.order[i]).all() and (kept.end[i] == fresh.end[i]).all()
            if np.isnan(new[i]).any():
                assert i in stale  # NaN fails both tests, so its row is always rebuilt
            else:
                assert (i not in stale) == same, (old[i], new[i])

    @settings(max_examples=300)
    @given(
        old=st.lists(st.lists(st.sampled_from(ROW_POOL), min_size=4, max_size=4), min_size=1, max_size=6),
        new=st.lists(st.lists(st.sampled_from(ROW_POOL), min_size=4, max_size=4), min_size=6, max_size=6),
    )
    def test_splicing_the_stale_rows_keeps_the_tied_columns_exact(self, old, new):
        # ``ties`` is updated from the spliced rows; it must name exactly the
        # columns that some row merges, or the tie-free stale test would run
        # on a table with ties
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        old, new = np.array(old), np.array(new[: len(old)])
        kept = _RowLaws(old, probs)
        laid = np.take_along_axis(new, kept.order, axis=1)
        stale = kept.stale(laid)
        kept.splice(stale, _RowLaws(new[stale], probs))
        assert kept.ties == np.flatnonzero(~kept.end.all(axis=0)).tolist()
        assert kept.stale(np.take_along_axis(new, kept.order, axis=1)).tolist() == np.flatnonzero(np.isnan(new).any(axis=1)).tolist()

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 4), (5, 4), (300, 8)])
    def test_the_tie_free_stale_test_equals_the_masked_one(self, n, m):
        rng = np.random.default_rng(n * m)
        laid = np.sort(rng.uniform(-1.0, 1.0, (n, m)), axis=1)
        laid[::3] = laid[::3, ::-1]  # every third row out of order
        laid[1::4, -1] = math.nan  # and every fourth from the second holds NaN
        if m > 1:
            laid[2::5, 0] = laid[2::5, 1]  # ties, which a strict test refuses
        every = np.ones((n, m), dtype=bool)
        expected = risk_measures._stale_rows(laid, every, np.less, np.equal)
        assert risk_measures._stale_rows(laid, None, np.less, np.equal).tolist() == expected.tolist()
        assert set(range(0, n, 3) if m > 1 else ()) | set(range(1, n, 4)) <= set(expected.tolist())
        tie_free = _RowLaws(np.sort(rng.uniform(-1.0, 1.0, (n, m)), axis=1), np.full(m, 1.0 / m))
        assert tie_free.ties == []
        assert tie_free.stale(laid).tolist() == expected.tolist()


class TestArrayModel:
    def test_tables_are_read_only_arrays(self):
        m = two_state_model()
        assert m.transition.shape == m.cost.shape == (2, 2, 2)
        with pytest.raises(ValueError):
            m.transition[0, 0, 0] = 1
        with pytest.raises(ValueError):
            m.cost[0, 0, 0] = 9.0

    def test_equal_by_value_whatever_fills_inadmissible_cells(self):
        m = two_state_model()
        other = MdpModel(
            n_states=2,
            n_actions=2,
            admissible=m.admissible,
            disturbance=m.disturbance,
            transition=np.array([[[0, 1], [1, 1]], [[0, 0], [1, 1]]]),
            cost=[[[1.0, 2.0], [0.5, 0.5]], [[0.0, 0.0], [7.0, 7.0]]],
            terminal_cost=[0.0, 0.0],
        )
        assert other == m and hash(other) == hash(m)
        assert other.transition[1, 1].tolist() == [0, 0]
        changed = MdpModel(
            n_states=2,
            n_actions=2,
            admissible=m.admissible,
            disturbance=m.disturbance,
            transition=m.transition,
            cost=[[[1.0, 2.5], [0.5, 0.5]], [[0.0, 0.0], [0.0, 0.0]]],
            terminal_cost=m.terminal_cost,
        )
        assert changed != m

    def test_every_init_field_but_the_tables_counts_in_equality(self):
        m = two_state_model()
        changes = {
            "n_states": 3,
            "n_actions": 3,
            "admissible": ((0,), (0,)),
            "disturbance": make_distribution([0, 1], [0.25, 0.75]),
            "terminal_cost": (1.0, 0.0),
            "discount": 0.5,
            "state_labels": (0.0, 1.0),
            "z_labels": (-1.0, 1.0),
        }
        keyed = {f.name for f in dataclasses.fields(MdpModel) if f.init} - {"transition", "cost"}
        assert set(changes) == keyed
        for name, value in changes.items():
            assert dataclasses.replace(m, **{name: value}) != m, name

    def test_ragged_tables_reach_validate_model(self):
        m = two_state_model()

        def with_tables(transition, cost):
            return MdpModel(
                n_states=2,
                n_actions=2,
                admissible=m.admissible,
                disturbance=m.disturbance,
                transition=transition,
                cost=cost,
                terminal_cost=m.terminal_cost,
            )

        short_cell = with_tables((((0, 1), (1,)), ((0, 0), (0, 0))), m.cost)
        assert [(d.kind, d.where) for d in validate_model(short_cell)] == [
            ("BadShape", {"state": 0, "action": 1})
        ]
        short_row = with_tables(
            (((0, 1), (1, 1)), ((0, 0),)), (((1.0, 2.0), (0.5, 0.5)), ((0.0, 0.0),))
        )
        assert [(d.kind, d.where) for d in validate_model(short_row)] == [
            ("BadShape", {"state": 1})
        ]
        # ragged only where the action is inadmissible: a valid model
        loose = with_tables(
            (((0, 1), (1, 1)), ((0, 0), ())), (((1.0, 2.0), (0.5, 0.5)), ((0.0, 0.0), (0.0,)))
        )
        assert validate_model(loose) == [] and loose == m
        huge = with_tables((((0, 2**70), (1, 1)), ((0, 0), (0, 0))), m.cost)
        assert [(d.kind, d.where) for d in validate_model(huge)] == [
            ("BadTransition", {"x": 0, "a": 0, "z": 1})
        ]

    @pytest.mark.parametrize(
        "changes",
        [
            pytest.param(
                dict(
                    transition=(((0, 1, 0), (1, 1)), ((0, 0), (0, 0))),
                    cost=(((1.0, 2.0, 0.0), (0.5, 0.5)), ((0.0, 0.0), (0.0, 0.0))),
                ),
                id="ragged",
            ),
            pytest.param(dict(admissible=((0, 1), (0,), (0,))), id="admissible-row-too-many"),
            pytest.param(dict(admissible=((0, 1),)), id="admissible-row-too-few"),
        ],
    )
    def test_sweep_on_a_ragged_model_raises_a_library_error(self, monkeypatch, changes):
        # contractive, so the bounds check reaches the tables
        ragged = dataclasses.replace(two_state_model(beta=0.9), **changes)
        assert validate_model(ragged)
        # the primal and dual steps read the same pair layout, on both routes
        ds = robust_check.dual_set(ExpectedShortfall(0.5))
        spec = BoundingSpec(lb=(-5.0, -5.0), ub=(5.0, 5.0))
        policy = Policy(stages=((0, 0), (1, 0)))
        for threshold in (0, 10**9):
            monkeypatch.setattr(mdp_core, "BATCH_MIN_OUTCOMES", threshold)
            for solve in (
                lambda: bellman_T(ragged, Expectation(), [0.0, 0.0]),
                lambda: constant_bounding_spec(ragged),
                lambda: robust_check.robust_game_value(ragged, ds, 2),
                lambda: robust_check.nature_best_response(ragged, ds, policy, 2),
                lambda: robust_check.robust_value_iteration(ragged, ds, spec, 1e-6),
                lambda: robust_check.verify_equivalence(ragged, ExpectedShortfall(0.5), 2, 1e-9),
                lambda: evaluate_policy_finite(ragged, Expectation(), policy, 2),
                lambda: verify_myopia(ragged, 0.5, 2),
            ):
                with pytest.raises(DimensionMismatch, match="validate_model"):
                    solve()

    def test_disturbance_wider_than_tables_is_located(self):
        m = two_state_model()
        narrow = MdpModel(
            n_states=2,
            n_actions=2,
            admissible=m.admissible,
            disturbance=m.disturbance,
            transition=(((0,), (1,)), ((0,), (0,))),
            cost=(((1.0,), (0.5,)), ((0.0,), (0.0,))),
            terminal_cost=m.terminal_cost,
        )
        assert [(d.kind, d.where) for d in validate_model(narrow)] == [("BadDisturbance", {"z": 1})]

    def test_model_file_tables_are_plain_numbers(self):
        obj = model_to_obj(build_casino(0.5, 1, [0, 1]))
        cells = [c for row in obj["transition"] for cell in row if cell is not None for c in cell]
        assert cells and all(type(c) is int for c in cells)
        costs = [c for row in obj["cost"] for cell in row if cell is not None for c in cell]
        assert costs and all(type(c) is float for c in costs)


class TestValueFunction:
    def test_the_array_view_is_read_only_and_outside_equality(self):
        from_array = ValueFunction(np.array([1.0, -0.0, 2.5]))
        from_tuple = ValueFunction((1.0, -0.0, 2.5))
        assert from_array == from_tuple and hash(from_array) == hash(from_tuple)
        assert repr(from_array) == repr(from_tuple) == "ValueFunction(values=(1.0, -0.0, 2.5))"
        for v in (from_array, from_tuple):
            assert v.array.dtype == np.float64 and not v.array.flags.writeable
            assert bits(v.array) == bits(v.values) and type(v.values[0]) is float

    def test_an_array_is_copied_not_frozen(self):
        given = np.array([1.0, 2.0])
        v = ValueFunction(given)
        given[0] = 5.0
        assert v.values == (1.0, 2.0) and v.array[0] == 1.0

    @pytest.mark.parametrize("kind", [list, np.array])
    def test_the_first_non_finite_state_is_named(self, kind):
        with pytest.raises(RiskMdpError, match="^non-finite value -inf$"):
            ValueFunction(kind([1.0, -math.inf, math.nan]))


class TestWeightedNorm:
    def test_zero(self):
        assert weighted_norm([1.0, 2.0], [1.0, 2.0], [1.0, 1.0]) == 0.0

    def test_equal_to_b_gives_one(self):
        assert weighted_norm([3.0, 4.0], [1.0, 1.0], [2.0, 3.0]) == 1.0

    def test_example(self):
        assert weighted_norm([2.0, 6.0], [0.0, 0.0], [1.0, 3.0]) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            weighted_norm([1.0], [1.0, 2.0], [1.0, 1.0])

    def test_weights_below_one_rejected(self):
        with pytest.raises(RiskMdpError):
            weighted_norm([1.0], [0.0], [0.5])

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_nan_and_infinite_weights_rejected(self, weight):
        # either would hide its state's difference from the norm
        with pytest.raises(RiskMdpError, match="norm weights must be finite"):
            weighted_norm([1.0, 5.0], [1.0, 0.0], [1.0, weight])


class TestBoundingSpec:
    def test_b_at_least_one(self):
        spec = BoundingSpec(lb=(-1.5, -0.5), ub=(0.5, 2.0))
        assert all(w >= 1.0 for w in spec.b())

    def test_eps_shift_enforced(self):
        with pytest.raises(RiskMdpError):
            BoundingSpec(lb=(-0.1,), ub=(1.0,), eps_split=(0.5, 0.5))

    def test_bounded_below_needs_constant_lb(self):
        with pytest.raises(RiskMdpError):
            BoundingSpec(
                lb=(-1.0, -2.0), ub=(1.0, 1.0), eps_split=(1.0, 0.0),
                alpha=1.0, mode=BoundMode.BOUNDED_BELOW,
            )

    @pytest.mark.parametrize(
        "fields, located",
        [
            ({"ub": (2.5, math.nan)}, "ub\\[1\\] is not a number"),
            ({"lb": (math.nan, -2.5)}, "lb\\[0\\] is not a number"),
            ({"alpha": math.nan}, "alpha must be finite and >= 0, got nan"),
            ({"alpha": math.inf}, "alpha must be finite and >= 0, got inf"),
            ({"eps_split": (math.nan, math.nan)}, "eps split must be nonnegative"),
            ({"eps_split": (math.inf, 0.5)}, "eps split must be nonnegative"),
        ],
    )
    def test_non_finite_fields_refused(self, fields, located):
        with pytest.raises(RiskMdpError, match=located):
            BoundingSpec(**dict({"lb": (-2.5, -2.5), "ub": (2.5, 2.5)}, **fields))

    def test_global_bounds_scale(self):
        spec = BoundingSpec(lb=(-1.5,), ub=(0.5,), alpha=1.0)
        glb, gub = spec.global_bounds(0.9)
        assert glb[0] == pytest.approx(-15.0)
        assert gub[0] == pytest.approx(5.0)
        assert spec.global_bounds(1.0) is None


class TestVerifyBounds:
    def test_constant_bounds_pass_alpha_one(self):
        rng = np.random.default_rng(31)
        for risk in (Expectation(), ExpectedShortfall(0.9), ValueAtRisk(0.6), Entropic(1.0)):
            m = make_random_model(rng)
            spec = constant_bounding_spec(m)
            report = verify_bounds(m, risk, spec)
            assert report.ok, (risk, report.violations[:3])
            big = max(abs(c) for row in m.cost for cell in row for c in cell)
            assert report.global_lb[0] == pytest.approx((-big - 0.5) / (1.0 - 0.9))

    def test_casino_bounded_below_linear_ub(self):
        m = build_casino(0.75, 2, [0, 1, 2, 3])
        spec = BoundingSpec(
            lb=(-1.0,) * m.n_states,
            ub=tuple(float(x) for x in range(m.n_states)),
            eps_split=(1.0, 0.0),
            alpha=2.0,
            mode=BoundMode.BOUNDED_BELOW,
        )
        report = verify_bounds(m, ExpectedShortfall(0.5), spec)
        assert report.ok, report.violations[:3]
        # modulus 2 >= 1: stage inequalities verified, no global bounds emitted
        assert report.global_lb is None

    def test_rejects_modulus_at_least_one_in_coherent_mode(self):
        m = build_casino(0.75, 1, [0, 1])  # discount 1
        spec = constant_bounding_spec(m, alpha=1.0, mode=BoundMode.COHERENT)
        with pytest.raises(NotContractive):
            verify_bounds(m, ExpectedShortfall(0.5), spec)

    def test_violations_reported_with_witnesses(self):
        m = two_state_model(beta=0.9)
        spec = BoundingSpec(lb=(-0.5, -0.5), ub=(0.5, 1.5), alpha=1.0)
        report = verify_bounds(m, Expectation(), spec)
        assert not report.ok
        v = report.violations[0]
        assert v.inequality == "stage_cost_upper"
        assert (v.state, v.action) == (0, 0)

    def test_comonotone_monotone_mode_rejects_large_modulus(self):
        m = build_casino(0.75, 2, [0, 1, 2])
        spec = BoundingSpec(
            lb=tuple(-1.0 - 0.001 * x for x in range(m.n_states)),
            ub=tuple(1.0 + float(x) for x in range(m.n_states)),
            eps_split=(1.0, 0.0),
            alpha=2.5,
            mode=BoundMode.COMONOTONE_MONOTONE,
        )
        with pytest.raises(NotContractive):
            verify_bounds(m, ExpectedShortfall(0.5), spec)

    def test_comonotone_monotone_constant_bounds_with_var(self):
        rng = np.random.default_rng(77)
        m = make_random_model(rng)
        spec = constant_bounding_spec(m, alpha=1.0, mode=BoundMode.COMONOTONE_MONOTONE)
        report = verify_bounds(m, ValueAtRisk(0.7), spec)
        assert report.ok, report.violations[:3]


def policy_values_by_bellman_L(m, risk, rules, terminal):
    """Stage values of the rules, backward from ``terminal``, one bellman_L per state."""
    v = list(terminal)
    out = [v]
    for rule in reversed(rules):
        v = [bellman_L(m, risk, v, x, a) for x, a in enumerate(rule)]
        out.append(v)
    return out[::-1]


def random_rules(rng, m, horizon):
    return [tuple(acts[int(rng.integers(len(acts)))] for acts in m.admissible) for _ in range(horizon)]


class TestFixedRuleStep:
    """Fixed-policy evaluation and the weak-increase check against loops over bellman_L."""

    @pytest.fixture(params=[0, 10**9], ids=["batch", "pairwise"])
    def route(self, request, monkeypatch):
        monkeypatch.setattr(mdp_core, "BATCH_MIN_OUTCOMES", request.param)

    def test_evaluate_policy_finite_matches_the_bellman_L_loop(self, route):
        rng = np.random.default_rng(5150)
        for i in range(30):
            m = (coarse_random_model if i % 2 else wide_random_model)(rng)
            terminal = np.round(rng.uniform(-2, 2, m.n_states), 1).tolist()
            m = dataclasses.replace(m, terminal_cost=terminal)
            horizon = int(rng.integers(1, 4))
            rules = random_rules(rng, m, horizon)
            for policy, stage_rules in (
                (Policy(stages=rules[:1], stationary=True), rules[:1] * horizon),
                (Policy(stages=tuple(rules)), rules),
            ):
                for risk in EVERY_KIND:
                    got = evaluate_policy_finite(m, risk, policy, horizon)
                    expected = policy_values_by_bellman_L(m, risk, stage_rules, terminal)
                    assert [bits(v) for v in got] == [bits(v) for v in expected], risk

    def test_evaluate_policy_finite_matches_the_loop_on_entropic_laws_past_exp_range(self, route):
        # gamma * max|atom| reaches 3000, far past where exp overflows
        m = two_state_model()
        model = dataclasses.replace(
            m, cost=[[[1.0, 2.0], [400.0, -3.0]], [[-1500.0, 0.0], [0.0, 0.0]]], discount=0.9
        )
        for rules in (((1, 0),), ((0, 0), (1, 0))):
            for risk in (Entropic(2.0), Entropic(0.5), Mixture(0.5, Entropic(0.5), Entropic(2.0))):
                expected = policy_values_by_bellman_L(model, risk, rules, model.terminal_cost)
                got = evaluate_policy_finite(model, risk, Policy(stages=rules), len(rules))
                assert [bits(v) for v in got] == [bits(v) for v in expected], risk

    def test_weak_increase_check_with_a_non_stationary_policy(self, route):
        rng = np.random.default_rng(5151)
        outcomes = set()
        for i in range(30):
            m = (coarse_random_model if i % 2 else wide_random_model)(rng)
            m = dataclasses.replace(m, discount=0.9)
            horizon = int(rng.integers(1, 5))
            rules = random_rules(rng, m, horizon)
            spec = constant_bounding_spec(m)
            q = spec.modulus(m.discount)
            for risk in (Expectation(), ExpectedShortfall(0.6), EVERY_KIND[-2]):
                for tol in (1e-9, -1.5):
                    # J_n applies the first n rules to the zero vector
                    zero = [0.0] * m.n_states
                    J = [policy_values_by_bellman_L(m, risk, rules[:n], zero)[0] for n in range(horizon + 1)]
                    expected = all(
                        J[n][x] >= J[n - 1][x] + q ** (n - 1) * spec.lb[x] - tol
                        for n in range(1, horizon + 1)
                        for x in range(m.n_states)
                    )
                    got = weak_increase_check(m, risk, spec, Policy(stages=tuple(rules)), horizon, tol)
                    assert got is expected, risk
                    outcomes.add(got)
        assert outcomes == {True, False}


ALL_KINDS = (Expectation, ValueAtRisk, ExpectedShortfall, Distortion, Spectral, Entropic)
DEFAULT_MIN_OUTCOMES = mdp_core.ELIMINATION_MIN_OUTCOMES


def plain_solve(m, risk, spec, tol, max_iter=None):
    """A solve through sweeps that evaluate every pair, as outcome(); errors name the sweep they stopped."""
    calls = []

    def step(v):
        calls.append(1)
        return bellman_T(m, risk, v)[0]

    def greedy(v):
        return bellman_T(m, risk, v)[1]

    try:
        got = solvers._fixed_point(m, risk, spec, tol, max_iter, [0.0] * m.n_states, step, greedy)
    except RiskMdpError as exc:
        return type(exc), str(exc), len(calls)
    return bits(got.value), got.policy, got.trace, got.iterations


def eliminating_solve(m, risk, spec, tol, max_iter=None):
    """``solve_infinite`` as plain_solve reports it, and its pair_evaluations."""
    calls = []

    def counted(*args):
        calls.append(1)
        return bellman_T(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "bellman_T", counted)
        try:
            got = solvers.solve_infinite(m, risk, spec, tol, max_iter)
        except RiskMdpError as exc:
            return (type(exc), str(exc), len(calls)), None
    return (bits(got.value), got.policy, got.trace, got.iterations), got.pair_evaluations


def masks_of_each_sweep(monkeypatch):
    """Record the evaluated-pair mask of every sweep that the elimination test decides."""
    masks = []
    sweep = mdp_core._Elimination.sweep

    def recorded(self, *args):
        out = sweep(self, *args)
        masks.append(self.mask.copy())
        return out

    monkeypatch.setattr(mdp_core._Elimination, "sweep", recorded)
    return masks


def chain_model(costs, transitions, probs=(1.0,)):
    """A model with one (x, a) row per entry of ``costs``: {state: [(cost row, successor row), ...]}."""
    S = len(costs)
    A = max(len(acts) for acts in costs)
    K = len(probs)
    cost = np.zeros((S, A, K))
    succ = np.zeros((S, A, K), dtype=np.int64)
    for x in range(S):
        for a, (c, t) in enumerate(zip(costs[x], transitions[x])):
            cost[x, a], succ[x, a] = c, t
    return MdpModel(
        n_states=S,
        n_actions=A,
        admissible=tuple(tuple(range(len(acts))) for acts in costs),
        disturbance=make_distribution(list(range(K)), list(probs)),
        transition=succ,
        cost=cost,
        terminal_cost=(0.0,) * S,
        discount=0.9,
    )


class TestElimination:
    """Value iteration that leaves provably larger pairs out, against sweeps of every pair, bit for bit."""

    @pytest.fixture(autouse=True)
    def small_models_eliminate(self, monkeypatch):
        # the models here lie far below the size gate, which has its own test
        monkeypatch.setattr(mdp_core, "ELIMINATION_MIN_OUTCOMES", -(10**9))

    @pytest.mark.parametrize("threshold", [0, 48, 10**9], ids=["batch", "default", "pairwise"])
    @pytest.mark.parametrize("gate", ["default", "every kind"])
    def test_solves_match_sweeps_that_evaluate_every_pair(self, monkeypatch, threshold, gate):
        monkeypatch.setattr(mdp_core, "BATCH_MIN_OUTCOMES", threshold)
        if gate == "every kind":
            monkeypatch.setattr(mdp_core, "ELIMINATION_KINDS", ALL_KINDS)
        rng = np.random.default_rng(2026)
        skipped = 0
        for i in range(9):
            m = wide_random_model(rng) if i % 3 == 0 else coarse_random_model(rng)
            if threshold == 10**9 and i % 3 == 0:
                continue  # pair by pair, the wide models take long and eliminate nothing
            spec = constant_bounding_spec(m)
            for risk in EVERY_KIND:
                if m.discount == 1.0:
                    continue  # alpha * discount must stay below 1
                got, evaluations = eliminating_solve(m, risk, spec, 1e-9)
                assert got == plain_solve(m, risk, spec, 1e-9), (i, risk)
                if evaluations is not None:
                    full = len(m._sweep[0]) * (got[3] + 1)
                    assert evaluations <= full
                    skipped += full - evaluations
                    if threshold == 10**9 or (gate == "default" and "Entropic" not in repr(risk)):
                        assert evaluations == full, (i, risk)
        assert (skipped > 0) == (threshold != 10**9)

    def test_a_pair_whose_lower_bound_meets_the_least_upper_bound_is_kept(self):
        # the test is strict: the pair whose upper bound is the least never leaves
        lower = np.array([1.0, 1.0, 2.0, 0.5, 3.0])
        upper = np.array([1.0, 1.5, 2.5, 0.5, 3.5])
        starts, seg = np.array([0, 3]), np.array([0, 0, 0, 1, 1])
        assert mdp_core._dominated(lower, upper, starts, seg).tolist() == [False, False, True, False, True]
        # a NaN lower bound keeps its pair; a NaN upper bound keeps its state's
        nan = np.array([math.nan, 5.0, 6.0, 0.5, 3.0])
        assert mdp_core._dominated(nan, upper, starts, seg).tolist() == [False, True, True, False, True]
        assert not mdp_core._dominated(nan, np.where(upper == 1.5, math.nan, upper), starts, seg)[:3].any()

    def test_a_near_tie_that_the_slack_covers_keeps_both_pairs(self):
        # two pairs computed one ulp apart above 1.0, with a quarter-ulp
        # slack at this sweep and at the next: their next values may both
        # lie halfway between, so the strict test must keep both pairs.
        # Subtracted from 1 + ulp, the slack alone rounds away; the bounds'
        # own rounding term keeps it
        slack = 2.0**-54
        vals = np.array([1.0, math.nextafter(1.0, 2.0)])
        lo, hi = mdp_core._bounds(vals, slack)
        for v, low, high in zip(vals.tolist(), lo.tolist(), hi.tolist()):
            assert Fraction(low) <= Fraction(v) - Fraction(slack) and Fraction(high) >= Fraction(v) + Fraction(slack)
        reach = slack * mdp_core._GROW  # the next sweep's slack, with no drift
        assert not mdp_core._dominated(lo - reach, hi + reach, np.array([0]), np.array([0, 0])).any()

    def test_a_zero_cost_model_keeps_every_pair(self, monkeypatch):
        # every bound is 0 and ties with its state's least upper bound
        monkeypatch.setattr(mdp_core, "BATCH_MIN_OUTCOMES", 0)
        masks = masks_of_each_sweep(monkeypatch)
        m = chain_model([[[0.0, 0.0]] * 2, [[0.0, 0.0]] * 2], [[[0, 1], [1, 0]], [[1, 1], [0, 0]]], (0.5, 0.5))
        spec = BoundingSpec(lb=(-0.5,) * 2, ub=(0.5,) * 2)
        for risk in (Entropic(0.5), Mixture(0.5, Entropic(1.0), ExpectedShortfall(0.5))):
            memo = mdp_core._SweepMemo()
            for _ in range(4):
                assert outcome(lambda: bellman_T(m, risk, [0.0, 0.0], memo)) == outcome(lambda: bellman_T(m, risk, [0.0, 0.0]))
        assert len(masks) == 6 and all(mask.all() for mask in masks)

    @pytest.mark.parametrize("gap", [0.0, 1e-15], ids=["tie", "below the bound"])
    def test_near_ties_keep_both_actions(self, monkeypatch, gap):
        # state 0's two actions have the same law, or one 1e-15 apart: the
        # test may skip neither, and the tie goes to action 0 as without it
        monkeypatch.setattr(mdp_core, "BATCH_MIN_OUTCOMES", 0)
        monkeypatch.setattr(mdp_core, "ELIMINATION_KINDS", ALL_KINDS)
        masks = masks_of_each_sweep(monkeypatch)
        law = [0.3, 0.7]
        m = chain_model(
            [[law, [0.3 + gap, 0.7], [2.0, 2.0]], [[0.1, 0.4]], [[0.2, -0.1]]],
            [[[1, 2], [1, 2], [1, 1]], [[2, 1]], [[2, 0]]],
            (0.25, 0.75),
        )
        spec = constant_bounding_spec(m)
        es_cap = Distortion(DistortionFunction(form="es_cap", level=0.5))
        for risk in (Expectation(), ExpectedShortfall(0.5), es_cap, Entropic(1e-3), Mixture(0.4, Entropic(0.5), Spectral(StepSpectrum(((0.0, 0.5), (0.5, 1.5)))))):
            masks.clear()
            got, _ = eliminating_solve(m, risk, spec, 1e-12)
            assert got == plain_solve(m, risk, spec, 1e-12), risk
            assert masks and all(mask[0] and mask[1] for mask in masks), risk
            assert any(not mask[2] for mask in masks), risk  # the clear loser does leave

    def test_rounding_noise_between_near_ties_is_covered(self, monkeypatch):
        # entropic at gamma 1e-3 rounds its sum to noise 1e3 times larger
        # than its drift near the fixed point; the actions of each state are
        # 1e-15 apart, so a bound without that noise skips the wrong one
        monkeypatch.setattr(mdp_core, "BATCH_MIN_OUTCOMES", 0)
        h = float.fromhex
        cost = [
            [[h("0x1.ee447822582e0p-5"), h("0x1.d55b4d3fa36e6p-2")], [h("0x1.ee447822582eap-5"), h("0x1.d55b4d3fa36efp-2")]],
            [[h("0x1.22c372957f6a0p-6"), h("0x1.dc4c35ac69b7ep-1")], [h("0x1.22c372957f6a6p-6"), h("0x1.dc4c35ac69b76p-1")]],
            [[h("0x1.e0ba1b19913a4p-1"), h("0x1.7ac2ab70aca40p-2")], [h("0x1.e0ba1b199139cp-1"), h("0x1.7ac2ab70aca47p-2")]],
        ]
        succ = [[[0, 0], [0, 0]], [[0, 2], [2, 0]], [[1, 0], [0, 1]]]
        m = chain_model(cost, succ, (h("0x1.8d1245e695b7fp-1"), h("0x1.cbb6e865a91fep-3")))
        spec = BoundingSpec(lb=(-1.5,) * 3, ub=(1.5,) * 3)
        got, evaluations = eliminating_solve(m, Entropic(1e-3), spec, 1e-300, 400)
        assert got == plain_solve(m, Entropic(1e-3), spec, 1e-300, 400)
        assert evaluations < 6 * 401

    def test_drift_adds_up_over_the_sweeps_a_pair_is_left_out(self, monkeypatch):
        # (0, 0) costs 5 and leads to state 1, whose value falls by 0.9^n a
        # sweep towards -10: each sweep's drift is below its gap of 5 to
        # (0, 1), but their sum passes it and (0, 0) wins from sweep 9 on
        monkeypatch.setattr(mdp_core, "BATCH_MIN_OUTCOMES", 0)
        masks = masks_of_each_sweep(monkeypatch)
        m = chain_model([[[5.0], [0.0]], [[-1.0]], [[0.0]]], [[[1], [2]], [[1]], [[2]]])
        spec = BoundingSpec(lb=(-5.5,) * 3, ub=(5.5,) * 3)
        got, _ = eliminating_solve(m, Entropic(0.5), spec, 1e-9)
        assert got == plain_solve(m, Entropic(0.5), spec, 1e-9)
        assert got[1].stages[0][0] == 0
        assert not masks[1][0] and masks[-1][0]  # left out early, evaluated again once it can win

    def test_a_left_out_pair_whose_scaled_atom_passes_exp_range_keeps_the_plain_solve(self, monkeypatch):
        # (0, 0) costs 600 against 0 and is left out from the second sweep;
        # its successor's value climbs towards 200, so gamma times its atom
        # passes 700, where exp of it would overflow, in the ninth sweep
        monkeypatch.setattr(mdp_core, "BATCH_MIN_OUTCOMES", 0)
        masks = masks_of_each_sweep(monkeypatch)
        m = chain_model([[[600.0], [0.0]], [[20.0]], [[0.0]]], [[[1], [2]], [[1]], [[2]]])
        spec = constant_bounding_spec(m)
        got, _ = eliminating_solve(m, Entropic(1.0), spec, 1e-9)
        expected = plain_solve(m, Entropic(1.0), spec, 1e-9)
        assert got == expected
        assert 600.0 + 0.9 * float.fromhex(expected[0][1]) > 700.0
        assert expected[1].stages[0][0] == 1
        assert not masks[1][0] and not masks[-1][0]

    def test_a_left_out_pair_whose_atoms_overflow_raises_at_the_same_sweep(self, monkeypatch):
        # (0, 0) is about 8.5e307 above (0, 1); its atoms pass the float
        # range, to +inf and -inf together, as the values of states 1 and 2
        # grow, and its sum raises as without the test
        monkeypatch.setattr(mdp_core, "BATCH_MIN_OUTCOMES", 0)
        monkeypatch.setattr(mdp_core, "ELIMINATION_KINDS", ALL_KINDS)
        big, step = 1.7e308, 2e306
        m = chain_model(
            [[[big, -big, 0.0], [0.0] * 3], [[step] * 3], [[-step] * 3], [[0.0] * 3]],
            [[[1, 2, 3], [3, 3, 3]], [[1, 1, 1]], [[2, 2, 2]], [[3, 3, 3]]],
            (0.7, 0.2, 0.1),
        )
        spec = BoundingSpec(lb=(-3e306,) * 4, ub=(1e308,) * 4)
        got, _ = eliminating_solve(m, Expectation(), spec, 1e-9)
        expected = plain_solve(m, Expectation(), spec, 1e-9)
        assert expected[0] is SumOverflow and "-inf + inf" in expected[1]
        assert got == expected

    @pytest.mark.parametrize(
        "risk",
        [
            ValueAtRisk(0.7),
            Mixture(0.5, Entropic(0.5), ValueAtRisk(0.7)),
            Mixture(0.5, Entropic(0.5), Distortion(DistortionFunction(form="var_indicator", level=0.7))),
        ],
        ids=["VaR", "entropic and VaR", "entropic and step distortion"],
    )
    def test_a_risk_measure_without_a_finite_bound_keeps_every_pair(self, monkeypatch, risk):
        # no test would leave one of its pairs out, so none is made
        monkeypatch.setattr(mdp_core, "ELIMINATION_KINDS", ALL_KINDS)
        masks = masks_of_each_sweep(monkeypatch)
        m = wide_random_model(np.random.default_rng(5))
        spec = constant_bounding_spec(m)
        got, evaluations = eliminating_solve(m, risk, spec, 1e-9)
        assert got == plain_solve(m, risk, spec, 1e-9)
        assert not masks and evaluations == len(m._sweep[0]) * (got[3] + 1)

    def test_the_size_gate(self, monkeypatch):
        # S states of two actions over K = 4 outcomes: the pairs beyond each
        # state's first have 4 S outcomes, less one per pair S (4 - 2) = 2 S
        monkeypatch.setattr(mdp_core, "ELIMINATION_MIN_OUTCOMES", DEFAULT_MIN_OUTCOMES)
        rng = np.random.default_rng(3)
        K = 4

        def model(S):
            return chain_model(
                [[rng.uniform(0, 1, K).tolist() for _ in range(2)] for _ in range(S)],
                [[rng.integers(0, S, K).tolist() for _ in range(2)] for _ in range(S)],
                (0.25,) * K,
            )

        at, below = model(DEFAULT_MIN_OUTCOMES // 2), model(DEFAULT_MIN_OUTCOMES // 2 - 1)
        assert mdp_core._eliminates(at, Entropic(0.5)) and not mdp_core._eliminates(below, Entropic(0.5))
        assert mdp_core._eliminates(at, Mixture(0.5, ExpectedShortfall(0.9), Entropic(0.5)))
        assert not mdp_core._eliminates(at, ExpectedShortfall(0.9))
        assert not mdp_core._eliminates(at, Mixture(0.5, Entropic(0.5), ValueAtRisk(0.9)))
        for m, eliminated in ((at, True), (below, False)):
            memo = mdp_core._SweepMemo()
            bellman_T(m, Entropic(0.5), [0.0] * m.n_states, memo)
            assert memo.eliminate == eliminated and (memo.elim is not None) == eliminated

    def test_the_memo_holds_a_fresh_build_at_every_evaluated_row(self, monkeypatch):
        # after each sweep, the memo's full tables at the rows that sweep
        # evaluated, rebuilt as stale or kept, equal a fresh build at its
        # iterate; sweeps that leave pairs out must rebuild some rows
        monkeypatch.setattr(mdp_core, "ELIMINATION_KINDS", ALL_KINDS)
        rebuilt = []
        row_laws = mdp_core._row_laws

        def counted(risk, values, probs):
            rebuilt.append(len(values))
            return row_laws(risk, values, probs)

        monkeypatch.setattr(mdp_core, "_row_laws", counted)

        def same(a, b):
            return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

        spectral = Spectral(StepSpectrum(((0.0, 0.5), (0.5, 1.5))))
        rng = np.random.default_rng(41)
        partial_rebuilds = 0
        for risk in (Entropic(0.5), ExpectedShortfall(0.7), Mixture(0.5, Entropic(0.2), spectral)):
            m = wide_random_model(rng)
            _, _, succ, cost, probs = m._sweep
            memo, v = mdp_core._SweepMemo(), ValueFunction((0.0,) * m.n_states)
            for _ in range(60):
                rebuilt.clear()
                v_in = v.array
                v = bellman_T(m, risk, v, memo)[0]
                elim = memo.elim
                assert elim is not None and elim.v is v_in, risk
                rows = np.flatnonzero(elim.mask)
                if len(rows) < len(elim.mask) and rebuilt:
                    partial_rebuilds += 1
                fresh, weights = row_laws(risk, cost[rows] + m.discount * v_in[succ[rows]], probs)
                for name in _RowLaws.SHAPE:
                    assert same(getattr(memo.law, name)[rows], getattr(fresh, name)), (risk, name)
                assert len(memo.weights) == len(weights)
                for kept, w in zip(memo.weights, weights):
                    assert same(kept[rows], w), risk
                assert same(memo.succ[rows], np.take_along_axis(succ[rows], fresh.order, axis=1)), risk
                assert same(memo.cost[rows], np.take_along_axis(cost[rows], fresh.order, axis=1)), risk
        assert partial_rebuilds > 0

    def test_the_greedy_call_evaluates_every_pair(self, monkeypatch):
        skipped = []

        def counted(m, risk, v, memo, *values_only):
            before = memo.skipped
            out = bellman_T(m, risk, v, memo, *values_only)
            skipped.append(memo.skipped - before)
            return out

        monkeypatch.setattr(solvers, "bellman_T", counted)
        m = wide_random_model(np.random.default_rng(5))
        got = solvers.solve_infinite(m, Entropic(0.5), constant_bounding_spec(m), 1e-9)
        assert len(skipped) == got.iterations + 1 and skipped[-1] == 0 and sum(skipped) > 0
        assert got.pair_evaluations == len(m._sweep[0]) * (got.iterations + 1) - sum(skipped)
