"""Finite-horizon backward induction and infinite-horizon fixed-point iteration.

The finite solver applies the Bellman sweep backward from the terminal
cost, recording the greedy minimizer at every stage (policy evaluation
folds the stage step at fixed rules instead); per-stage risk measures
are allowed, and a non-stationary problem can be expressed by passing
one model per stage over a shared state space.

The infinite solver requires a stationary model with zero terminal cost
and a verified bounding specification. It iterates v_{k+1} = T v_k from
v_0 = 0 and stops once the a-posteriori bound

    ||v_{k+1} - v_k||_b * q / (1 - q) <= tol,   q = alpha * discount < 1,

certifies the weighted distance to the unique fixed point. The returned
stationary policy is greedy with respect to the returned value. One
driver runs this solver and robust value iteration alike.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InfeasiblePolicy,
    NotContractive,
    NotCoherent,
    RiskMdpError,
)
from .mdp_core import (
    BoundMode,
    BoundingSpec,
    MdpModel,
    Policy,
    ValueFunction,
    _SweepMemo,
    _array_of,
    _norm_weights,
    _stage_values,
    _sup_norm,
    bellman_T,
    verify_bounds,
)
from .risk_measures import (
    RiskMeasure,
    is_coherent,
    is_comonotonic_additive,
    is_positive_homogeneous,
)

__all__ = [
    "FiniteSolveResult",
    "InfiniteSolveResult",
    "solve_finite",
    "evaluate_policy_finite",
    "solve_infinite",
    "check_contraction",
    "weak_increase_check",
    "default_max_iter",
    "MAX_ITER_CAP",
]

MAX_ITER_CAP = 10**6


def _stage_models(model, horizon: int) -> list[MdpModel]:
    if isinstance(model, MdpModel):
        return [model] * horizon
    models = list(model)
    if len(models) != horizon:
        raise RiskMdpError(f"{len(models)} stage models for horizon {horizon}")
    n = models[0].n_states
    if any(m.n_states != n for m in models):
        raise RiskMdpError("stage models must share the state space")
    return models


def _stage_risks(risks, horizon: int) -> list[RiskMeasure]:
    if isinstance(risks, (list, tuple)):
        if len(risks) != horizon:
            raise RiskMdpError(f"{len(risks)} risk measures for horizon {horizon}")
        return list(risks)
    return [risks] * horizon


@dataclass(frozen=True)
class FiniteSolveResult:
    """Backward-induction output: values[n] is the stage-n value function."""

    values: tuple[ValueFunction, ...]
    policy: Policy
    stage_seconds: tuple[float, ...]

    @property
    def horizon(self) -> int:
        return len(self.values) - 1


def solve_finite(model, risks, horizon: int) -> FiniteSolveResult:
    """Backward induction from the terminal cost with greedy minimizers.

    ``model`` may be a single stationary model or one model per stage;
    ``risks`` a single risk measure or one per stage. ``values`` has
    length horizon + 1 with the terminal cost last, and ``policy`` the
    horizon greedy rules in stage order.
    """
    if horizon < 1:
        raise RiskMdpError(f"horizon must be >= 1, got {horizon}")
    models = _stage_models(model, horizon)
    risk_list = _stage_risks(risks, horizon)
    v = ValueFunction(models[-1].terminal_cost)
    values = [v]
    rules: list[tuple[int, ...]] = []
    seconds: list[float] = []
    for n in range(horizon - 1, -1, -1):
        t0 = time.perf_counter()
        v, actions = bellman_T(models[n], risk_list[n], v)
        seconds.append(time.perf_counter() - t0)
        values.append(v)
        rules.append(actions)
    values.reverse()
    rules.reverse()
    seconds.reverse()
    return FiniteSolveResult(
        values=tuple(values),
        policy=Policy(stages=tuple(rules), stationary=False),
        stage_seconds=tuple(seconds),
    )


def _feasible_rules(models: Sequence[MdpModel], policy: Policy, horizon: int) -> list[tuple[int, ...]]:
    """Each stage's rule as its pair indices in ``model._sweep`` order, one per state; refuses the
    first action, stage by stage and state by state, outside [0, A) or not admissible in its state."""
    out = []
    for n, rule in enumerate(policy.rules(horizon)):
        m = models[n]
        if len(rule) != m.n_states:
            raise InfeasiblePolicy(f"stage {n} rule covers {len(rule)} states of {m.n_states}")
        pairs = tuple(map(m._pair_index, range(len(rule)), rule))
        if -1 in pairs:
            x = pairs.index(-1)
            raise InfeasiblePolicy(f"stage {n}: action {rule[x]} not admissible in state {x}")
        out.append(pairs)
    return out


def _policy_fold(models: Sequence[MdpModel], risks, rules, v) -> list[ValueFunction]:
    """Fixed-rule values backward from ``v``: entry n applies rules n.. of the list (pair indices), ``v`` last."""
    out = [v]
    for n in range(len(rules) - 1, -1, -1):
        v = ValueFunction(_stage_values(models[n], risks[n], v, rules[n]))
        out.append(v)
    out.reverse()
    return out


def evaluate_policy_finite(model, risks, policy: Policy, horizon: int) -> list[ValueFunction]:
    """Policy values by applying the fixed-decision operator backward.

    Returns the list with entry n the stage-n value of the policy, the
    terminal cost last. Componentwise these dominate the optimal values.
    """
    models = _stage_models(model, horizon)
    risk_list = _stage_risks(risks, horizon)
    rules = _feasible_rules(models, policy, horizon)
    return _policy_fold(models, risk_list, rules, ValueFunction(models[-1].terminal_cost))


@dataclass(frozen=True)
class InfiniteSolveResult:
    """Fixed-point iteration output with the a-posteriori error bound.

    ``pair_evaluations`` counts the one-stage risk evaluations the solve
    made, the final greedy call's included: the admissible pairs times
    (iterations + 1), less the pairs that value iteration left out.
    """

    value: ValueFunction
    policy: Policy
    iterations: int
    residual: float
    error_bound: float
    modulus: float
    converged: bool
    trace: tuple[tuple[float, float], ...]
    pair_evaluations: int


def default_max_iter(tol: float, modulus: float) -> int:
    """Ten times the a-priori geometric iteration count, capped."""
    if modulus <= 0.0:
        return 10
    n = 10 * math.ceil(math.log(tol) / math.log(modulus))
    return max(10, min(n, MAX_ITER_CAP))


def _verified_bounds(model: MdpModel, risk, spec: BoundingSpec):
    """The bounds report of ``spec``; raises, locating the first violation, when it fails."""
    report = verify_bounds(model, risk, spec)
    if not report.ok:
        first = report.violations[0]
        raise RiskMdpError(
            f"bounding spec fails verification ({len(report.violations)} violations, "
            f"first {first.inequality} at state {first.state}, action {first.action})"
        )
    return report


def _fixed_point(model: MdpModel, risk, spec: BoundingSpec, tol, max_iter, v, step, greedy):
    """Iterate ``v <- step(v)`` until the a-posteriori bound certifies ``tol``.

    Checks ``tol``, the infinite-horizon preconditions, the norm weights
    and the length of the start ``v`` once, before the first step, then
    records the weighted residual and its bound q/(1-q) * residual per
    iteration. The iterates are float arrays: ``step`` maps one to the
    next (an array, a list or a ``ValueFunction``), and a non-finite
    iterate is refused at the step that made it. ``greedy`` maps the
    final value, the result's ``ValueFunction``, to its stationary rule.
    """
    if not tol > 0.0:
        raise RiskMdpError(f"tol must be > 0, got {tol!r}")
    if any(c != 0.0 for c in model.terminal_cost):
        raise RiskMdpError("infinite horizon requires zero terminal cost")
    _verified_bounds(model, risk, spec)  # its spec covers the model's states
    q = spec.modulus(model.discount)
    if q >= 1.0:
        raise NotContractive(f"alpha * discount = {q:g} must be < 1")
    weight = _norm_weights(spec.b())
    start = v if isinstance(v, ValueFunction) else ValueFunction(v)
    if len(start) != model.n_states:
        raise DimensionMismatch(f"start has {len(start)} values, model has {model.n_states} states")
    v = start.array
    rate = q / (1.0 - q)
    if max_iter is None:
        max_iter = default_max_iter(tol, q)
    trace: list[tuple[float, float]] = []
    residual = bound = math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # a difference of finite iterates may overflow to inf
        while len(trace) < max_iter and not bound <= tol:
            nxt = _array_of(step(v))
            residual = float((np.abs(nxt - v) / weight).max())
            if not residual < math.inf:
                ValueFunction(nxt)  # raises if the iterate is not finite
            bound = rate * residual
            trace.append((residual, bound))
            v = nxt
    value = ValueFunction(v)
    return InfiniteSolveResult(
        value=value,
        policy=Policy(stages=(tuple(greedy(value)),), stationary=True),
        iterations=len(trace),
        residual=residual,
        error_bound=bound,
        modulus=q,
        converged=bound <= tol,
        trace=tuple(trace),
        pair_evaluations=len(model._sweep[0]) * (len(trace) + 1),
    )


def solve_infinite(
    model: MdpModel,
    risk: RiskMeasure,
    spec: BoundingSpec,
    tol: float,
    max_iter: int | None = None,
    start: ValueFunction | None = None,
) -> InfiniteSolveResult:
    """Iterate the Bellman update to its unique fixed point.

    Starts from the zero vector (or ``start``), stops when the weighted
    residual times q/(1-q) drops to ``tol``, and returns the greedy
    stationary policy for the final value. When the iteration budget runs
    out the partial result is returned with ``converged=False``.

    Every sweep, the greedy one included, shares one ``_SweepMemo`` made
    here, so a stage law is sorted again only when its order changes;
    the memo is dropped on return. The sweeps of the iteration leave out
    the pairs that the memo's certified test proves larger than their
    state's minimum, which changes no value, action or trace; the greedy
    call evaluates every pair. ``pair_evaluations`` counts what was
    evaluated.
    """
    memo = _SweepMemo()

    def step(v):
        return bellman_T(model, risk, v, memo, True)[0]

    def greedy(v):
        memo.eliminate = False
        return bellman_T(model, risk, v, memo)[1]

    v = ValueFunction((0.0,) * model.n_states) if start is None else start
    result = _fixed_point(model, risk, spec, tol, max_iter, v, step, greedy)
    return replace(result, pair_evaluations=result.pair_evaluations - memo.skipped)


def check_contraction(
    model: MdpModel,
    risk: RiskMeasure,
    spec: BoundingSpec,
    trials: int,
    seed: int = 0,
) -> float:
    """Largest observed ||Tv1 - Tv2||_b / ||v1 - v2||_b over random pairs.

    Pairs are drawn componentwise uniform between the global envelopes;
    identical pairs are skipped. Admitted for coherent risk measures, or
    in bounded-below mode for comonotonic-additive positive-homogeneous
    ones.
    """
    if not (
        is_coherent(risk)
        or (
            spec.mode is BoundMode.BOUNDED_BELOW
            and is_comonotonic_additive(risk)
            and is_positive_homogeneous(risk)
        )
    ):
        raise NotCoherent(
            "contraction check needs a coherent risk measure, or bounded-below "
            "mode with a comonotonic-additive positive-homogeneous one"
        )
    report = _verified_bounds(model, risk, spec)
    if report.global_lb is None:
        raise NotContractive(f"alpha * discount = {report.modulus:g} must be < 1")
    weight = _norm_weights(spec.b())  # before the draws, which an infinite envelope breaks
    rng = np.random.default_rng(seed)
    glb = np.asarray(report.global_lb)
    gub = np.asarray(report.global_ub)
    worst = 0.0
    for _ in range(trials):
        v1 = rng.uniform(glb, gub)
        v2 = rng.uniform(glb, gub)
        denom = _sup_norm(v1, v2, weight)
        if denom == 0.0:
            continue
        t1, _ = bellman_T(model, risk, v1.tolist())
        t2, _ = bellman_T(model, risk, v2.tolist())
        ratio = _sup_norm(t1.array, t2.array, weight) / denom
        if ratio > worst:
            worst = ratio
    return worst


def weak_increase_check(
    model: MdpModel,
    risk: RiskMeasure,
    spec: BoundingSpec,
    policy: Policy,
    horizon: int,
    tol: float = 1e-9,
) -> bool:
    """Check J_{n} >= J_{n-1} + q^{n-1} * lb componentwise along a policy.

    J_n here is the n-stage value of the policy started from the zero
    vector (forward indexing by stages-to-go), and q = alpha * discount.
    The inequality makes the policy values weakly increasing, which is
    what guarantees their convergence as the horizon grows.
    """
    if not is_coherent(risk):
        raise NotCoherent("weak-increase check requires a coherent risk measure")
    _verified_bounds(model, risk, spec)
    q = spec.modulus(model.discount)
    models, risks = [model] * horizon, [risk] * horizon
    rules = _feasible_rules(models, policy, horizon)
    zero = ValueFunction((0.0,) * model.n_states)
    if policy.stationary:  # one rule everywhere: one fold holds every J_n
        values = _policy_fold(models, risks, rules, zero)[::-1]
    else:  # J_n applies the first n rules
        values = [_policy_fold(models, risks, rules[:n], zero)[0] for n in range(horizon + 1)]

    for n in range(1, horizon + 1):
        shift = q ** (n - 1)
        for x in range(model.n_states):
            if values[n][x] < values[n - 1][x] + shift * spec.lb[x] - tol:
                return False
    return True
