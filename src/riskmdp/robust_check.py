"""Distributionally robust cross-check of the recursive risk criterion.

For a coherent risk measure the stage-wise evaluation equals a supremum
of expectations over reweightings of the disturbance law. Running the
adversary side explicitly, with the sup computed by the comonotone
greedy maximizer instead of the primal quantile formulas, gives an
independent route to the same numbers:

    game value  G_n(x) = min_a sup_q sum_z q_z (c + beta * G_{n+1}),
    best response to a fixed policy with the min removed,

and for small models the literal min over all enumerated Markov policies
of nature's best response. Agreement of all three with the primal solver
certifies that recursive coherent-risk minimization and the robust
minimax problem have the same value on these models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from operator import mul
from typing import Iterator, Sequence

from .errors import NotCoherent, RiskMdpError, TooLargeForEnumeration
from .mdp_core import MdpModel, Policy, ValueFunction
from .risk_measures import (
    Expectation,
    ExpectedShortfall,
    RiskMeasure,
    _dual_density_sorted,
    describe,
    is_coherent,
)
from .solvers import (
    InfiniteSolveResult,
    _feasible_rules,
    _require_infinite_preconditions,
    default_max_iter,
    solve_finite,
)
from .mdp_core import BoundingSpec, weighted_norm

__all__ = [
    "DualSet",
    "dual_set",
    "nature_best_response",
    "robust_game_value",
    "robust_value_iteration",
    "count_markov_policies",
    "enumerate_markov_policies",
    "EquivalenceReport",
    "verify_equivalence",
    "ENUMERATION_CUTOFF",
]

ENUMERATION_CUTOFF = 10**6


@dataclass(frozen=True)
class DualSet:
    """Nature's action space: the dual densities of a coherent risk measure.

    Densities reweight the disturbance law; for expected shortfall they
    are capped by p_z / (1 - level), for spectral members they average
    the spectrum over rank intervals, and mixtures mix. The maximizer is
    comonotone with the values, so the sup is computed greedily after a
    stable sort; for fixed probabilities the density depends on the values
    only through that order, which the dual route's stage tables reuse.
    """

    risk: RiskMeasure

    def __post_init__(self) -> None:
        if not is_coherent(self.risk):
            raise NotCoherent(f"{describe(self.risk)} does not define a dual set")

    def sup(self, values: Sequence[float], probs: Sequence[float]) -> tuple[float, tuple[float, ...]]:
        """Value and maximizing density of sup_q sum q_z values_z, q in the dual set."""
        order = sorted(range(len(values)), key=values.__getitem__)
        q_sorted = _dual_density_sorted(self.risk, [probs[i] for i in order])
        q = [0.0] * len(values)
        for rank, i in enumerate(order):
            q[i] = q_sorted[rank]
        value = math.fsum(values[i] * q[i] for i in range(len(values)))
        return value, tuple(q)

    def feasible(self, q: Sequence[float], probs: Sequence[float], tol: float = 1e-12) -> bool:
        """Simplex membership plus the kind-specific cap constraints (where checkable)."""
        if len(q) != len(probs):
            return False
        if any(qi < -tol for qi in q):
            return False
        if abs(math.fsum(q) - 1.0) > 1e-9:
            return False
        risk = self.risk
        if isinstance(risk, Expectation):
            return all(abs(qi - pi) <= tol for qi, pi in zip(q, probs))
        if isinstance(risk, ExpectedShortfall):
            cap = 1.0 / (1.0 - risk.level)
            return all(qi <= pi * cap + tol for qi, pi in zip(q, probs))
        return True


def dual_set(risk: RiskMeasure) -> DualSet:
    """The dual set of a coherent risk measure; raises NotCoherent otherwise."""
    return DualSet(risk)


def _adversary_table(model: MdpModel, ds: DualSet, cont: Sequence[float], actions=None) -> list[list[float]]:
    """Nature's sup at every pair (x, a) against the continuation ``cont``.

    Row x holds one value per action of ``actions[x]`` (default: the
    admissible actions), in that order. Each value is bit-identical to
    ``ds.sup`` of the pair's stage values. The probabilities are shared by
    every pair, so the maximizing density depends only on the sort order
    of the values; it is computed once per order within the call.
    """
    beta = model.discount
    trans, costs = model.rows
    zs = model.z_indices
    probs = model.disturbance.probs
    ranks = range(len(zs))
    densities: dict[tuple[int, ...], list[float]] = {}
    table = []
    for x, acts in enumerate(model.admissible if actions is None else actions):
        row = []
        for a in acts:
            row_t, row_c = trans[x][a], costs[x][a]
            values = [row_c[z] + beta * cont[row_t[z]] for z in zs]
            order = tuple(sorted(ranks, key=values.__getitem__))
            q = densities.get(order)
            if q is None:
                q_sorted = _dual_density_sorted(ds.risk, [probs[i] for i in order])
                q = densities[order] = [q_sorted[order.index(i)] for i in ranks]
            row.append(math.fsum(map(mul, values, q)))
        table.append(row)
    return table


def _first_min(values: Sequence[float], labels: Sequence) -> tuple[float, object]:
    """First strict minimum scanned from +inf, with its label (-1 if none beats +inf)."""
    best, best_label = math.inf, -1
    for val, label in zip(values, labels):
        if val < best:
            best, best_label = val, label
    return best, best_label


def nature_best_response(model: MdpModel, ds: DualSet, policy: Policy, horizon: int) -> ValueFunction:
    """Adversary dynamic program against a fixed admissible policy.

    W_N is the terminal cost and each stage takes the dual-set supremum of
    cost plus discounted continuation at the policy's action. Returns the
    stage-0 vector.
    """
    rules = _feasible_rules([model] * horizon, policy, horizon)
    w = list(model.terminal_cost)
    for n in range(horizon - 1, -1, -1):
        w = [row[0] for row in _adversary_table(model, ds, w, [(a,) for a in rules[n]])]
    return ValueFunction(tuple(w))


def robust_game_value(model: MdpModel, ds: DualSet, horizon: int) -> ValueFunction:
    """Minimax dynamic program: controller minimizes, nature maximizes.

    Ties in the outer minimization break toward the smallest action index.
    Returns the stage-0 vector.
    """
    g = list(model.terminal_cost)
    for _ in range(horizon):
        g = [_first_min(row, row)[0] for row in _adversary_table(model, ds, g)]
    return ValueFunction(tuple(g))


def robust_value_iteration(
    model: MdpModel,
    ds: DualSet,
    spec: BoundingSpec,
    tol: float,
    max_iter: int | None = None,
) -> InfiniteSolveResult:
    """Minimax fixed-point iteration with the same stopping rule as the primal solver."""
    q = _require_infinite_preconditions(model, ds.risk, spec)
    weight = spec.b()
    rate = q / (1.0 - q)
    if max_iter is None:
        max_iter = default_max_iter(tol, q)
    v = [0.0] * model.n_states
    trace: list[tuple[float, float]] = []
    converged = False
    iterations = 0
    residual = math.inf
    bound = math.inf
    while iterations < max_iter:
        nxt = [_first_min(row, row)[0] for row in _adversary_table(model, ds, v)]
        residual = weighted_norm(nxt, v, weight)
        bound = rate * residual
        trace.append((residual, bound))
        v = nxt
        iterations += 1
        if bound <= tol:
            converged = True
            break
    table = _adversary_table(model, ds, v)
    actions = [_first_min(row, acts)[1] for row, acts in zip(table, model.admissible)]
    return InfiniteSolveResult(
        value=ValueFunction(tuple(v)),
        policy=Policy(stages=(tuple(actions),), stationary=True),
        iterations=iterations,
        residual=residual,
        error_bound=bound,
        modulus=q,
        converged=converged,
        trace=tuple(trace),
    )


def count_markov_policies(model: MdpModel, horizon: int) -> int:
    return math.prod(len(acts) for acts in model.admissible) ** horizon


def enumerate_markov_policies(model: MdpModel, horizon: int) -> Iterator[Policy]:
    """All Markov policies, rules varying fastest in the last stage."""
    rules = list(product(*model.admissible))
    for stages in product(rules, repeat=horizon):
        yield Policy(stages=tuple(stages), stationary=False)


def _enumerated_minimum(model: MdpModel, ds: DualSet, horizon: int) -> tuple[float, ...]:
    """Componentwise minimum of nature's best response over all Markov policies.

    Nature's response at stage n depends only on the rules from n on, so
    the policy tree is walked depth first from the last stage with one
    adversary table per distinct suffix. The minimum keeps the first
    minimizer in ``enumerate_markov_policies`` order, as a scan with a
    strict ``<`` over every policy would; each state's value is then read
    from ``nature_best_response`` on its minimizing policy.
    """
    rules = list(product(*model.admissible))
    positions = list(product(*(range(len(acts)) for acts in model.admissible)))
    # per state and action position: the first minimum over the suffixes,
    # each kept as its rule indices for stages 1..N-1; tuples of indices
    # order like the enumeration
    best = [[(math.inf, ())] * len(acts) for acts in model.admissible]

    def descend(n: int, cont: list[float], suffix: tuple[int, ...]) -> None:
        table = _adversary_table(model, ds, cont)
        if n > 0:
            for r, pos in enumerate(positions):
                descend(n - 1, [row[j] for row, j in zip(table, pos)], (r, *suffix))
            return
        for row, cell in zip(table, best):
            for j, val in enumerate(row):
                if not math.isfinite(val):  # as nature_best_response would reject it
                    raise RiskMdpError(f"non-finite value {val!r}")
                if val < cell[j][0] or (val == cell[j][0] and suffix < cell[j][1]):
                    cell[j] = (val, suffix)

    descend(horizon - 1, list(model.terminal_cost), ())
    first_rule = [acts[0] for acts in model.admissible]
    responses: dict[tuple, ValueFunction] = {}
    out = []
    for x, cell in enumerate(best):
        _, j = _first_min([b for b, _ in cell], range(len(cell)))
        stage0 = tuple(first_rule[:x] + [model.admissible[x][j]] + first_rule[x + 1 :])
        stages = (stage0, *(rules[r] for r in cell[j][1]))
        if stages not in responses:
            responses[stages] = nature_best_response(model, ds, Policy(stages=stages), horizon)
        out.append(responses[stages][x])
    return tuple(out)


@dataclass(frozen=True)
class EquivalenceReport:
    risk: str
    horizon: int
    tol: float
    dp_values: tuple[float, ...]
    robust_values: tuple[float, ...]
    enumerated_values: tuple[float, ...] | None
    n_policies: int | None
    max_diff_dp_robust: float
    max_diff_enumeration: float | None
    passed: bool

    def to_dict(self) -> dict:
        return {
            "risk": self.risk,
            "horizon": self.horizon,
            "tol": self.tol,
            "dp_values": list(self.dp_values),
            "robust_values": list(self.robust_values),
            "enumerated_values": list(self.enumerated_values)
            if self.enumerated_values is not None
            else None,
            "n_policies": self.n_policies,
            "max_diff_dp_robust": self.max_diff_dp_robust,
            "max_diff_enumeration": self.max_diff_enumeration,
            "passed": self.passed,
        }


def verify_equivalence(
    model: MdpModel,
    risk: RiskMeasure,
    horizon: int,
    tol: float,
    enumerate_policies: bool = True,
    cutoff: int = ENUMERATION_CUTOFF,
) -> EquivalenceReport:
    """Compare the primal recursion, the robust game, and enumerated policies.

    (a) The backward-induction value with the coherent risk measure must
    equal the minimax game value at every state within ``tol``. (b) When
    enumeration is requested and the policy count stays within ``cutoff``,
    the componentwise minimum over all Markov policies of nature's best
    response must agree as well, which is the inf-sup identity verified
    literally. The search costs one dual sup per admissible pair per
    distinct policy suffix (rules 1..N-1), not per policy; each state's
    minimizing policy is then re-evaluated by ``nature_best_response``,
    and that value is the one reported.
    """
    if not is_coherent(risk):
        raise NotCoherent(f"{describe(risk)} is not coherent")
    ds = dual_set(risk)
    primal = solve_finite(model, risk, horizon).values[0]
    robust = robust_game_value(model, ds, horizon)
    diff_dp = max(abs(p - r) for p, r in zip(primal, robust))

    enum_vals = None
    diff_enum = None
    n_policies = None
    if enumerate_policies:
        n_policies = count_markov_policies(model, horizon)
        if n_policies > cutoff:
            raise TooLargeForEnumeration(
                f"{n_policies} Markov policies exceed the cutoff {cutoff}"
            )
        enum_vals = _enumerated_minimum(model, ds, horizon)
        diff_enum = max(
            max(abs(e - p) for e, p in zip(enum_vals, primal)),
            max(abs(e - r) for e, r in zip(enum_vals, robust)),
        )
    passed = diff_dp <= tol and (diff_enum is None or diff_enum <= tol)
    return EquivalenceReport(
        risk=describe(risk),
        horizon=horizon,
        tol=tol,
        dp_values=tuple(primal),
        robust_values=tuple(robust),
        enumerated_values=enum_vals,
        n_policies=n_policies,
        max_diff_dp_robust=diff_dp,
        max_diff_enumeration=diff_enum,
        passed=passed,
    )
