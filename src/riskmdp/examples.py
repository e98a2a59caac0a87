"""Built-in model families and structural-policy validators.

Four classics, each a regression fixture for one structural result:

* house selling: optimal stopping of i.i.d. offers against a running
  rent; the optimal rule is a threshold in the offer, and the threshold
  level is the risk value of continuing.
* casino: bet any part of the current capital on i.i.d. fair-or-biased
  coin flips to minimize the risk of the final loss; either betting
  nothing or betting everything is optimal, with a closed-form value.
* cash balance: steer a cash level around zero against convex holding
  cost and piecewise-linear transfer cost; the optimal stationary rule
  is a two-threshold band and the value function is convex.
* myopic quantile control: in a monotone model with action-independent
  cost, controlling the quantile of the next state stage by stage is
  already optimal.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import DiscreteDistribution, make_distribution, pushforward
from .errors import InvalidParams, MonotonicityViolation
from .mdp_core import MdpModel, _pair_table, _stage_values
from .risk_measures import RiskMeasure, ValueAtRisk, evaluate
from .solvers import solve_finite

__all__ = [
    "HouseSellingParams",
    "CashBalanceParams",
    "VarMyopicParams",
    "build_house_selling",
    "house_selling_thresholds",
    "extract_threshold",
    "NotThreshold",
    "build_casino",
    "casino_closed_form",
    "negated_gain_law",
    "build_cash_balance",
    "extract_two_thresholds",
    "TwoThresholds",
    "NotTwoThreshold",
    "build_var_myopic",
    "verify_myopia",
    "STOP",
    "CONTINUE",
]

STOP = 0
CONTINUE = 1


# ---------------------------------------------------------------------------
# House selling


@dataclass(frozen=True)
class HouseSellingParams:
    """I.i.d. offers on a finite grid, running rent, discount, and deadline."""

    offer_law: DiscreteDistribution
    rent: float
    beta: float = 1.0
    horizon: int = 2


def build_house_selling(params: HouseSellingParams) -> MdpModel:
    """Stopping model: buy at the current offer or pay rent and see the next.

    State 0 is the absorbing "sold" state (label just below the offer
    grid, zero cost forever); states 1..m carry the offers ascending.
    Action 0 stops (pays the offer), action 1 continues (pays the rent).
    The terminal cost forces a buy at the deadline.
    """
    offers = params.offer_law.atoms
    m = len(offers)
    if not math.isfinite(params.rent):
        raise InvalidParams(f"rent must be finite, got {params.rent!r}")
    if not 0.0 < params.beta <= 1.0:
        raise InvalidParams(f"discount must lie in (0, 1], got {params.beta!r}")
    sold_label = offers[0] - 1.0
    n_states = m + 1
    admissible = [(STOP,)] + [(STOP, CONTINUE)] * m
    transition = []
    cost = []
    transition.append([[0] * m, [0] * m])  # sold: absorbing under either column
    cost.append([[0.0] * m, [0.0] * m])
    for offer in offers:
        stop_row = [0] * m
        cont_row = [1 + z for z in range(m)]
        transition.append([stop_row, cont_row])
        cost.append([[offer] * m, [params.rent] * m])
    return MdpModel(
        n_states=n_states,
        n_actions=2,
        admissible=tuple(admissible),
        disturbance=make_distribution(list(range(m)), list(params.offer_law.probs)),
        transition=tuple(transition),
        cost=tuple(cost),
        terminal_cost=(0.0,) + offers,
        discount=params.beta,
        state_labels=(sold_label,) + offers,
        z_labels=offers,
    )


def house_selling_thresholds(params: HouseSellingParams, risks) -> tuple[float, ...]:
    """Stage thresholds t_n = rent + risk value of the discounted continuation.

    Computed by the offer-grid recursion J_n(x) = min(x, t_n) directly,
    independent of the tabulated model, so it doubles as an oracle for
    the generic solver. Buying at offers <= t_n is optimal.
    """
    horizon = params.horizon
    risk_list = list(risks) if isinstance(risks, (list, tuple)) else [risks] * horizon
    if len(risk_list) != horizon:
        raise InvalidParams(f"{len(risk_list)} risk measures for horizon {horizon}")
    offers = params.offer_law.atoms
    value = {o: o for o in offers}
    thresholds = [0.0] * horizon
    for n in range(horizon - 1, -1, -1):
        law = pushforward(params.offer_law, lambda o: params.beta * value[o])
        t = params.rent + evaluate(risk_list[n], law)
        thresholds[n] = t
        value = {o: min(o, t) for o in offers}
    return tuple(thresholds)


@dataclass(frozen=True)
class NotThreshold:
    """Witness that a stopping rule is not of threshold form."""

    witness_label: float


def extract_threshold(actions: Sequence[int], labels: Sequence[float], stop_action: int = STOP):
    """Largest stopped label if the rule stops exactly on a lower set.

    Returns -inf when nothing stops, or a NotThreshold witness naming a
    continued label below some stopped one.
    """
    stopped = [lab for lab, a in zip(labels, actions) if a == stop_action]
    continued = [lab for lab, a in zip(labels, actions) if a != stop_action]
    if not stopped:
        return -math.inf
    t = max(stopped)
    for lab in sorted(continued):
        if lab < t:
            return NotThreshold(witness_label=lab)
    return t


# ---------------------------------------------------------------------------
# Casino


def _check_win_prob(win_prob: float) -> None:
    if not 0.0 <= win_prob <= 1.0:
        raise InvalidParams(f"win probability must lie in [0, 1], got {win_prob!r}")


def negated_gain_law(win_prob: float) -> DiscreteDistribution:
    """Law of the per-unit loss -Z for a bet that pays +1 with the win probability."""
    _check_win_prob(win_prob)
    if win_prob == 1.0:
        return make_distribution([-1.0], [1.0])
    if win_prob == 0.0:
        return make_distribution([1.0], [1.0])
    return make_distribution([-1.0, 1.0], [win_prob, 1.0 - win_prob])


def build_casino(win_prob: float, horizon: int, grid: Sequence[int]) -> MdpModel:
    """Betting model on the integer capital grid closed under doubling.

    ``grid`` lists the initial capitals; the state space extends to
    2**horizon times the largest of them so that betting everything each
    round never leaves it. In state x the admissible bets are
    0..min(x, top - x); a won bet adds itself to the capital, a lost one
    is subtracted. No running cost, terminal cost -capital.
    """
    _check_win_prob(win_prob)
    if horizon < 1:
        raise InvalidParams(f"horizon must be >= 1, got {horizon}")
    if any(float(x) != int(x) for x in grid):
        raise InvalidParams("capitals must be integers")
    caps = sorted(set(int(x) for x in grid))
    if not caps:
        raise InvalidParams("grid must be nonempty")
    if caps[0] < 0:
        raise InvalidParams(f"capitals must be nonnegative, got {caps[0]}")
    top = (2**horizon) * caps[-1]
    n_states = top + 1
    n_actions = top // 2 + 1 if top else 1
    admissible = tuple(tuple(range(min(x, top - x) + 1)) for x in range(n_states))
    if win_prob == 1.0:
        probs, z_labels = [1.0], (1.0,)
    elif win_prob == 0.0:
        probs, z_labels = [1.0], (-1.0,)
    else:
        probs, z_labels = [win_prob, 1.0 - win_prob], (1.0, -1.0)
    k = len(probs)
    # capital plus bet times outcome; the cells of inadmissible bets are
    # placeholders that the model zeroes
    transition = (
        np.arange(n_states)[:, None, None]
        + np.arange(n_actions)[None, :, None] * np.array(z_labels, dtype=np.int64)
    )
    cost = np.zeros(transition.shape)
    return MdpModel(
        n_states=n_states,
        n_actions=n_actions,
        admissible=admissible,
        disturbance=make_distribution(list(range(k)), probs),
        transition=transition,
        cost=cost,
        terminal_cost=tuple(-float(x) for x in range(n_states)),
        discount=1.0,
        state_labels=tuple(float(x) for x in range(n_states)),
        z_labels=z_labels,
    )


def casino_closed_form(win_prob: float, risk: RiskMeasure, horizon: int, capital: float) -> float:
    """-capital * (1 - rho(-Z))**horizon when betting is favorable, else -capital.

    Betting is favorable exactly when the risk of the per-unit loss -Z is
    negative; then betting everything every round is optimal and the
    value compounds geometrically. Valid for initial capitals whose bold
    play stays on the built grid, i.e. the requested capital grid.
    """
    r = evaluate(risk, negated_gain_law(win_prob))
    if r < 0.0:
        return -capital * (1.0 - r) ** horizon
    return -float(capital)


# ---------------------------------------------------------------------------
# Cash balance


@dataclass(frozen=True)
class CashBalanceParams:
    """Cash grid symmetric around zero, convex holding cost, transfer fees, shifts."""

    levels: tuple[float, ...]
    holding_cost: Callable[[float], float]
    transfer_up: float
    transfer_down: float
    z_law: DiscreteDistribution  # law of the random downward shift
    beta: float = 0.9


def build_cash_balance(params: CashBalanceParams) -> MdpModel:
    """Level-control model: choose the post-transfer cash level directly.

    Action a means "move to level a"; the admissible levels are those the
    disturbance cannot push off the grid. The one-stage cost is the
    piecewise-linear transfer fee plus the holding cost at the chosen
    level; the next state is the chosen level minus the shift.
    """
    levels = tuple(float(v) for v in params.levels)
    n = len(levels)
    if n < 3:
        raise InvalidParams("need at least three levels")
    if any(not lo < hi for lo, hi in zip(levels, levels[1:])):
        raise InvalidParams("levels must be strictly increasing")
    negs = tuple(sorted(-v for v in levels))
    if any(abs(a - b) > 1e-12 for a, b in zip(levels, negs)):
        raise InvalidParams("levels must be symmetric around zero")
    if 0.0 not in levels:
        raise InvalidParams("zero must be a level")
    if not (params.transfer_up > 0.0 and params.transfer_down > 0.0):
        raise InvalidParams("transfer fees must be positive")
    L = params.holding_cost
    hold = [float(L(v)) for v in levels]
    if abs(hold[levels.index(0.0)]) > 1e-12:
        raise InvalidParams("holding cost must vanish at zero")
    for i in range(1, n - 1):
        left = levels[i] - levels[i - 1]
        right = levels[i + 1] - levels[i]
        second = (hold[i + 1] - hold[i]) / right - (hold[i] - hold[i - 1]) / left
        if second < -1e-9:
            raise InvalidParams(f"holding cost not convex at level {levels[i]!r}")
    index_of = {v: i for i, v in enumerate(levels)}
    shifts = params.z_law.atoms
    admissible_actions = []
    for i, a_level in enumerate(levels):
        if all((a_level - z) in index_of for z in shifts):
            admissible_actions.append(i)
    if not admissible_actions:
        raise InvalidParams("no level survives every shift; enlarge the grid")
    adm = tuple(admissible_actions)
    k = len(shifts)

    def fee(delta: float) -> float:
        return params.transfer_up * max(delta, 0.0) + params.transfer_down * max(-delta, 0.0)

    transition = tuple(
        tuple(
            tuple(index_of.get(levels[a] - z, 0) for z in shifts) for a in range(n)
        )
        for _ in range(n)
    )
    cost = tuple(
        tuple(
            tuple(fee(levels[a] - levels[x]) + hold[a] for _ in range(k)) for a in range(n)
        )
        for x in range(n)
    )
    return MdpModel(
        n_states=n,
        n_actions=n,
        admissible=tuple(adm for _ in range(n)),
        disturbance=make_distribution(list(range(k)), list(params.z_law.probs)),
        transition=transition,
        cost=cost,
        terminal_cost=(0.0,) * n,
        discount=params.beta,
        state_labels=levels,
        z_labels=shifts,
    )


@dataclass(frozen=True)
class TwoThresholds:
    """Band (s_minus, s_plus): move up to s_minus, down to s_plus, stay inside.

    ``boundary_active`` flags bands touching the edge of the admissible
    levels, where grid truncation makes the extraction inconclusive.
    """

    s_minus: float
    s_plus: float
    boundary_active: bool


@dataclass(frozen=True)
class NotTwoThreshold:
    """Witness state whose target breaks the clamp-to-band form."""

    witness_label: float
    target_label: float
    expected_label: float


def extract_two_thresholds(
    actions: Sequence[int],
    labels: Sequence[float],
    admissible_labels: Sequence[float] | None = None,
):
    """Fit the rule to target = clamp(label, s_minus, s_plus) and verify it."""
    targets = [labels[a] for a in actions]
    s_minus = min(targets)
    s_plus = max(targets)
    for lab, tgt in zip(labels, targets):
        expected = min(max(lab, s_minus), s_plus)
        if tgt != expected:
            return NotTwoThreshold(witness_label=lab, target_label=tgt, expected_label=expected)
    adm = labels if admissible_labels is None else admissible_labels
    boundary = s_minus == min(adm) or s_plus == max(adm)
    return TwoThresholds(s_minus=s_minus, s_plus=s_plus, boundary_active=boundary)


# ---------------------------------------------------------------------------
# Myopic quantile control in monotone models


@dataclass(frozen=True)
class VarMyopicParams:
    """Monotone model data: labeled states, shift law, transition and cost maps."""

    labels: tuple[float, ...]
    n_actions: int
    z_law: DiscreteDistribution  # atoms are disturbance labels
    transition: Callable[[float, int, float], float]  # (state label, action, z label) -> label
    cost: Callable[[float, float], float]  # (state label, next label) -> cost, action-free
    level: float = 0.5
    horizon: int = 3
    beta: float = 1.0


def build_var_myopic(params: VarMyopicParams) -> MdpModel:
    """Tabulate a monotone model with action-independent transition cost.

    Raises MonotonicityViolation when the labels are not strictly
    increasing, the transition fails to be nondecreasing in the state, or
    the cost fails to be nondecreasing in either argument; InvalidParams
    when a transition leaves the label grid.
    """
    labels = tuple(float(v) for v in params.labels)
    if any(not lo < hi for lo, hi in zip(labels, labels[1:])):
        raise MonotonicityViolation("state labels must be strictly increasing")
    index_of = {v: i for i, v in enumerate(labels)}
    zs = params.z_law.atoms
    n, k = len(labels), len(zs)
    succ = [[[0] * k for _ in range(params.n_actions)] for _ in range(n)]
    for a in range(params.n_actions):
        for zi, z in enumerate(zs):
            prev = None
            for xi, x in enumerate(labels):
                nxt = float(params.transition(x, a, z))
                if nxt not in index_of:
                    raise InvalidParams(f"transition({x!r}, {a}, {z!r}) = {nxt!r} off the grid")
                if prev is not None and nxt < prev:
                    raise MonotonicityViolation(
                        f"transition decreasing in the state at ({x!r}, {a}, {z!r})"
                    )
                prev = nxt
                succ[xi][a][zi] = index_of[nxt]
    for lo, hi in zip(labels, labels[1:]):
        for other in labels:
            if params.cost(hi, other) < params.cost(lo, other) - 1e-12:
                raise MonotonicityViolation(f"cost decreasing in the state at {hi!r}")
            if params.cost(other, hi) < params.cost(other, lo) - 1e-12:
                raise MonotonicityViolation(f"cost decreasing in the next state at {hi!r}")
    cost = tuple(
        tuple(
            tuple(float(params.cost(labels[x], labels[succ[x][a][z]])) for z in range(k))
            for a in range(params.n_actions)
        )
        for x in range(n)
    )
    return MdpModel(
        n_states=n,
        n_actions=params.n_actions,
        admissible=tuple(tuple(range(params.n_actions)) for _ in range(n)),
        disturbance=make_distribution(list(range(k)), list(params.z_law.probs)),
        transition=tuple(tuple(tuple(row) for row in per_state) for per_state in succ),
        cost=cost,
        terminal_cost=(0.0,) * n,
        discount=params.beta,
        state_labels=labels,
        z_labels=zs,
    )


def _monotone_mode_or_raise(model: MdpModel) -> None:
    if model.state_labels is None:
        raise MonotonicityViolation("monotone mode needs state labels")
    labels = model.state_labels
    if any(not lo < hi for lo, hi in zip(labels, labels[1:])):
        raise MonotonicityViolation("state labels must be strictly increasing")
    trans, costs = model.rows
    for a in range(model.n_actions):
        if any(a not in model.admissible[x] for x in range(model.n_states)):
            continue
        for z in model.z_indices:
            prev = None
            for x in range(model.n_states):
                nxt = labels[trans[x][a][z]]
                if prev is not None and nxt < prev:
                    raise MonotonicityViolation(
                        f"transition decreasing in the state at (x={x}, a={a}, z={z})"
                    )
                prev = nxt
    seen: dict[tuple[float, float], float] = {}
    for x in range(model.n_states):
        for a in model.admissible[x]:
            for z in model.z_indices:
                key = (labels[x], labels[trans[x][a][z]])
                c = costs[x][a][z]
                if key in seen and abs(seen[key] - c) > 1e-12:
                    raise MonotonicityViolation(
                        f"cost depends on the action beyond the successor at (x={x}, a={a}, z={z})"
                    )
                seen[key] = c


def verify_myopia(model: MdpModel, level: float, horizon: int) -> bool:
    """True iff quantile control is stage-wise optimal on this monotone model.

    Checks, by solving both dynamic programs, that at every stage and
    state the greedy action set of the full recursion contains every
    minimizer of the level-quantile of the next state label, and that the
    tie-broken greedy policy is the same at every stage. Compares argmin
    sets rather than values to stay insensitive to ties.
    """
    model._sweep  # DimensionMismatch unless the tables form one layout, as admissible[x] then has a row
    _monotone_mode_or_raise(model)
    labels = model.state_labels
    risk = ValueAtRisk(level)
    result = solve_finite(model, risk, horizon)

    def minimizers(values) -> np.ndarray:
        """(S, A) mask of each state's minimizing actions, from one value per pair."""
        table = _pair_table(model, values)
        return table == table.min(axis=1, keepdims=True)

    # the quantile of the next label is the stage step at zero cost and discount 1
    labels_only = dataclasses.replace(model, cost=np.zeros_like(model.cost), discount=1.0)
    myopic = minimizers(_stage_values(labels_only, risk, labels))
    first_rule = result.policy.stages[0]
    for n in range(horizon):
        if (myopic & ~minimizers(_stage_values(model, risk, result.values[n + 1]))).any():
            return False
        if result.policy.stages[n] != first_rule:
            return False
    return True
