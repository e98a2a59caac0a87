"""Model validation, one-stage operators, norms, and envelope verification."""

import math

import numpy as np
import pytest

from riskmdp import mdp_core
from riskmdp.distributions import make_distribution
from riskmdp.errors import (
    DimensionMismatch,
    InfeasibleAction,
    NotContractive,
    RiskMdpError,
)
from riskmdp.examples import build_casino
from riskmdp.mdp_core import (
    BoundingSpec,
    BoundMode,
    MdpModel,
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
    evaluate,
)

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
        m = two_state_model()
        with pytest.raises(InfeasibleAction):
            stage_law(m, [0.0, 0.0], 1, 1)

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
            if "Entropic" in repr(risk):  # the entropic guard rejects an infinite atom
                continue
            report = verify_bounds(m, risk, spec)
            growth = [v.lhs for v in report.violations if v.inequality == "ub_growth"]
            assert growth and all(lhs == math.inf for lhs in growth), risk


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

    def test_sweep_on_a_ragged_model_raises_a_library_error(self):
        m = two_state_model()
        ragged = MdpModel(
            n_states=2,
            n_actions=2,
            admissible=m.admissible,
            disturbance=m.disturbance,
            transition=(((0, 1, 0), (1, 1)), ((0, 0), (0, 0))),
            cost=(((1.0, 2.0, 0.0), (0.5, 0.5)), ((0.0, 0.0), (0.0, 0.0))),
            terminal_cost=m.terminal_cost,
        )
        assert validate_model(ragged)
        with pytest.raises(DimensionMismatch, match="validate_model"):
            bellman_T(ragged, Expectation(), [0.0, 0.0])
        with pytest.raises(DimensionMismatch, match="validate_model"):
            constant_bounding_spec(ragged)

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
