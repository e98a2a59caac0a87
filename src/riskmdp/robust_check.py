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
minimax problem have the same value on these models. The enumeration
walks the tree of policy suffixes; a node's children differ in one rule,
which a pair's value reads only at the pair's successor states, so one
stage step over a row per (pair, choice at its successors) serves them
all once there are enough of them.

Every route evaluates nature's sup by one stage step, laid out as the
primal one, over rows in outcome order (``MdpModel._pairs``): a flat
value per admissible pair in the sweep's order, or one per state at a
decision rule's pair indices, with the per-state first minimum taken
by ``mdp_core._first_min`` as in ``bellman_T``. Within one solve the
density of a pair depends only on the sort order of its stage values, so
each public entry point keeps a memo of one density per order and passes
it to all its steps. Steps of at least ``mdp_core.BATCH_MIN_OUTCOMES``
stage outcomes go through numpy, and the memo also keeps each pair's
sort order and density from one step to the next: near a fixed point
most sweeps keep every order, and a step sorts again only the pairs
whose order changed. Each pair's products are summed by one
``math.fsum``. Smaller steps go pair by pair. Both give the values of
``DualSet.sup`` bit for bit. The stage arithmetic shares nothing with
the primal risk kernels but ``_dual_density_sorted`` and the order test
``_stale_rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from operator import mul
from typing import Iterator, Sequence

import numpy as np

from . import mdp_core
from .errors import DimensionMismatch, NotCoherent, RiskMdpError, TooLargeForEnumeration
from .mdp_core import BoundingSpec, MdpModel, Policy, ValueFunction
from .risk_measures import (
    Expectation,
    ExpectedShortfall,
    RiskMeasure,
    _dual_density_sorted,
    _fsum,
    _fsum_rows,
    _stale_rows,
    _sum_overflow,
    describe,
    is_coherent,
)
from .solvers import InfiniteSolveResult, _feasible_rules, _fixed_point, solve_finite

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
    only through that order, which the dual route's stage steps reuse.
    """

    risk: RiskMeasure

    def __post_init__(self) -> None:
        if not is_coherent(self.risk):
            raise NotCoherent(f"{describe(self.risk)} does not define a dual set")

    def sup(self, values: Sequence[float], probs: Sequence[float]) -> tuple[float, tuple[float, ...]]:
        """Value and maximizing density of sup_q sum q_z values_z, q in the dual set."""
        if len(values) != len(probs):
            raise DimensionMismatch(f"{len(values)} values against {len(probs)} probabilities")
        q = _density(self.risk, probs, tuple(sorted(range(len(values)), key=values.__getitem__)), {})
        return _fsum(map(mul, values, q)), tuple(q)

    def feasible(self, q: Sequence[float], probs: Sequence[float], tol: float = 1e-12) -> bool:
        """Simplex membership plus the kind-specific cap constraints (where checkable).

        A density or law holding a non-finite entry is never feasible.
        """
        if len(q) != len(probs) or not all(map(math.isfinite, [*q, *probs])):
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


class _Memo:
    """What one solve reuses across its stage steps.

    The risk measure and the probabilities are fixed within a solve, so
    nature's maximizing density depends on a pair's stage values only
    through their stable sort order: ``densities`` keeps one density per
    order met, by outcome. ``tables`` keeps, per key of the rows that
    ``_adversary_values`` evaluates, what ``_batched_sups`` carries from
    one step to the next: the successor and cost rows, and from the last
    step each row's stable order (as indices into the raveled rows), the
    mask of the sorted positions whose tie with the next one is in
    outcome order, and the row's density by outcome. Each public entry
    point makes one and drops it on return, so nothing is shared between
    solves; the policy enumeration lends its own to the best responses it
    reads, which solve the same model and risk measure. A plain class,
    since building a dataclass costs about 0.5 ms at every import.
    """

    __slots__ = ("densities", "tables")

    def __init__(self) -> None:
        self.densities: dict[tuple[int, ...], list[float]] = {}
        self.tables: dict = {}


def _density(risk: RiskMeasure, probs, order: tuple[int, ...], densities: dict) -> list[float]:
    """Nature's maximizing density, by outcome, for stage values sorted into ``order``."""
    q = densities.get(order)
    if q is None:
        q_sorted = _dual_density_sorted(risk, [probs[i] for i in order])
        q = densities[order] = [q_sorted[rank] for rank in sorted(range(len(order)), key=order.__getitem__)]
    return q


def _sup(risk: RiskMeasure, probs, values: list[float], densities: dict) -> float:
    """``DualSet.sup`` of one pair's stage values, with the density from the memo."""
    order = tuple(sorted(range(len(values)), key=values.__getitem__))
    q = _density(risk, probs, order, densities)
    try:  # inline, not through _fsum: this runs once per pair
        return math.fsum(map(mul, values, q))
    except (ValueError, OverflowError) as exc:
        raise _sum_overflow(exc) from exc


def _batched_sups(model: MdpModel, risk: RiskMeasure, cont, memo: _Memo, rows, key) -> np.ndarray:
    """Nature's sup at the successor and cost ``rows`` of ``_adversary_values``, as an array.

    The first step under ``key`` keeps the rows as arrays, sorts every row
    and looks up one density per distinct stable order, read as one byte
    string. ``memo.tables[key]`` keeps the orders and densities, and
    later steps sort again only the rows that a stable sort would order
    differently: laid out in the kept order, each neighbour pair must be
    strictly ascending, or equal where the kept order has the two in
    outcome order (``allow``). Each row's products are summed as
    ``math.fsum`` sums them (``_fsum_rows``). A row holding NaN fails that
    test and goes through ``_sup``, since Python's sort places NaN where
    numpy's does not (a one-outcome row has no test, but one order).
    """
    table = memo.tables.get(key)
    if table is None:
        table = memo.tables[key] = [np.array(rows[0]), np.array(rows[1], dtype=float), None, None, None]
    succ, cost, flat, allow, q = table  # flat: each row's kept order, as indices into the raveled values
    probs = model.disturbance.probs
    n, m = succ.shape
    with np.errstate(all="ignore"):  # overflow gives inf or NaN and underflow 0.0, as pair by pair
        vals = cost + model.discount * mdp_core._array_of(cont)[succ]
        if flat is None:  # the first step under the key builds every row
            stale = np.arange(n)
            flat, allow, q = np.empty((n, m), dtype=np.intp), np.zeros((n, m), dtype=bool), np.empty((n, m))
            table[2:] = flat, allow, q
        else:
            stale = _stale_rows(vals.ravel()[flat], allow, np.less_equal, np.less)
        nan_rows = stale[:0]
        if len(stale):
            fresh = vals[stale]
            orders = np.argsort(fresh, axis=1, kind="stable")
            keys, inverse = np.unique(orders.view(np.dtype((np.void, orders.strides[0]))).ravel(), return_inverse=True)
            distinct = keys.view(orders.dtype).reshape(-1, m)  # back from row bytes to orders
            densities = [_density(risk, probs, order, memo.densities) for order in map(tuple, distinct.tolist())]
            q[stale] = np.array(densities)[inverse]
            flat[stale] = orders + (stale * m)[:, None]
            allow[stale, :-1] = orders[:, 1:] > orders[:, :-1]
            nan_rows = stale[np.isnan(fresh).any(axis=1)]
        products = vals * q
        products[nan_rows] = 0.0
        sups = _fsum_rows(products)
    for i in nan_rows.tolist():
        sups[i] = _sup(risk, probs, vals[i].tolist(), memo.densities)
    return sups


def _adversary_values(model: MdpModel, ds: DualSet, cont, memo: _Memo, rows=None, key=None):
    """Nature's sup against the continuation ``cont`` at many rows.

    The dual route's stage step, in the layout of ``mdp_core._stage_values``,
    over successor and cost rows in ``z_indices`` order (the order of tied
    values decides the density): by default every admissible pair's, one
    value per pair in ``model._sweep`` order; with a decision rule's pair
    indices (``solvers._feasible_rules``) as ``rows``, one value per state
    at its rule pair; or explicit ``rows``, whose successors index
    ``cont``, kept in ``memo`` under the caller's ``key``. Each value is
    bit-identical to ``ds.sup`` of the row's stage values, with each sort
    order's density from ``memo``. Steps over at least
    ``mdp_core.BATCH_MIN_OUTCOMES`` stage outcomes go through
    ``_batched_sups`` and return an array; smaller ones go pair by pair
    and return a list.
    """
    succ, cost = model._pairs[2:]  # raises DimensionMismatch unless the tables are (S, A, K)
    if rows is None:
        rows = succ, cost
    elif key is None:  # a rule's pair indices, which key its rows
        key, rows = rows, ([succ[i] for i in rows], [cost[i] for i in rows])
    if len(rows[0]) * len(model.z_indices) >= mdp_core.BATCH_MIN_OUTCOMES:
        return _batched_sups(model, ds.risk, cont, memo, rows, key)
    beta, probs = model.discount, model.disturbance.probs
    cont = mdp_core._values_of(cont)
    return [
        _sup(ds.risk, probs, [c + beta * cont[s] for s, c in zip(row_s, row_c)], memo.densities)
        for row_s, row_c in zip(*rows)
    ]


def nature_best_response(model: MdpModel, ds: DualSet, policy: Policy, horizon: int, memo=None) -> ValueFunction:
    """Adversary dynamic program against a fixed admissible policy.

    W_N is the terminal cost and each stage takes the dual-set supremum of
    cost plus discounted continuation at the policy's action. Returns the
    stage-0 vector. A caller that has solved ``model`` and ``ds`` already
    may pass its ``_Memo``, whose densities then serve this solve too.
    """
    rules = _feasible_rules([model] * horizon, policy, horizon)
    memo = _Memo() if memo is None else memo
    w = list(model.terminal_cost)
    for n in range(horizon - 1, -1, -1):
        w = _adversary_values(model, ds, w, memo, rules[n])
    return ValueFunction(w)


def robust_game_value(model: MdpModel, ds: DualSet, horizon: int) -> ValueFunction:
    """Minimax dynamic program: controller minimizes, nature maximizes.

    Ties in the outer minimization break toward the smallest action index.
    Returns the stage-0 vector.
    """
    memo = _Memo()
    g = list(model.terminal_cost)
    for _ in range(horizon):
        g = mdp_core._first_min(model, _adversary_values(model, ds, g, memo))[0]
    return ValueFunction(g)


def robust_value_iteration(
    model: MdpModel,
    ds: DualSet,
    spec: BoundingSpec,
    tol: float,
    max_iter: int | None = None,
) -> InfiniteSolveResult:
    """Minimax fixed-point iteration with the same stopping rule as the primal solver.

    Raises on the first iterate holding a non-finite value, as the primal
    sweep does.
    """
    memo = _Memo()

    def step(v):
        return mdp_core._min_values(model, _adversary_values(model, ds, v, memo))

    def greedy(v):
        return mdp_core._first_min(model, _adversary_values(model, ds, v, memo))[1]

    return _fixed_point(model, ds.risk, spec, tol, max_iter, [0.0] * model.n_states, step, greedy)


def count_markov_policies(model: MdpModel, horizon: int) -> int:
    return math.prod(len(acts) for acts in model.admissible) ** horizon


def enumerate_markov_policies(model: MdpModel, horizon: int) -> Iterator[Policy]:
    """All Markov policies, rules varying fastest in the last stage."""
    rules = list(product(*model.admissible))
    for stages in product(rules, repeat=horizon):
        yield Policy(stages=tuple(stages), stationary=False)


def _class_table(model: MdpModel, spans: list[range], picks: list[tuple[int, ...]]):
    """The dual rows that one step of the policy tree needs for every rule at once.

    A rule reads as mixed-radix digits, one per state: the position of its
    action among the state's, the last state's digit the least significant,
    as ``product`` enumerates the rules. A pair's stage values depend on
    the rule only through its digits at the pair's successor states, the
    pair's class, and each class first occurs at the rule whose other
    digits are all 0. One row per (pair, class), numbered pair by pair and
    within a pair in order of first occurrence, holds the pair's costs
    and, in ``z_indices`` order, the index of the picked pair at each
    successor: an index into the stage's pair values. Returns per row its
    pair and the first rule of its class, the successor and cost rows, and
    each rule's row at each pair as an (R, P) array.
    """
    sizes = [len(span) for span in spans]
    strides = [math.prod(sizes[y + 1 :]) for y in range(len(sizes))]
    pair_of, first, succ, cost, weights = [], [], [], [], []
    for i, (to, row_c) in enumerate(zip(*model._pairs[2:])):
        # the first rule of each class, in order; a class's place among them
        # is the digits at the successors read in the radix of their sizes
        firsts, width, weight = [0], 1, [0] * len(sizes)
        for y in sorted({y for y in to if sizes[y] > 1}, reverse=True):
            firsts = [f + d * strides[y] for d in range(sizes[y]) for f in firsts]
            weight[y], width = width, width * sizes[y]
        weights.append(weight)
        pair_of += [i] * len(firsts)
        first += firsts
        succ += [list(map(picks[f].__getitem__, to)) for f in firsts]
        cost += [row_c] * len(firsts)
    offsets = np.searchsorted(pair_of, np.arange(len(weights)))
    digits = np.array(picks) - [span.start for span in spans]
    return pair_of, first, succ, cost, digits @ np.array(weights).T + offsets


def _enumerated_minimum(model: MdpModel, ds: DualSet, horizon: int) -> tuple[float, ...]:
    """Componentwise minimum of nature's best response over all Markov policies.

    Nature's response at stage n depends only on the rules from n on, so
    the policy tree is walked depth first from the last stage. A node's
    children differ only in the rule of their stage, which a pair's value
    reads only at the pair's successor states. With at least 8 rules a
    node therefore makes one dual stage step over ``_class_table``'s
    rows, one per pair and class of rules, and each child reads its pair
    values from them. With fewer, the table saves too few steps to pay
    for itself, and each child takes its own step. The minimum keeps the
    first minimizer in ``enumerate_markov_policies`` order, as a scan with
    a strict ``<`` over every policy would; each state's value is then
    read from ``nature_best_response`` on its minimizing policy.

    Errors are those of that scan, child by child in rule order: a node
    whose class step raises, or whose stage-0 rows hold a non-finite
    value, steps and checks its children one at a time.
    """
    xs, acts = model._sweep[:2]
    # the stage step's flat values hold state x's pairs at positions
    # starts[x]:starts[x + 1], in action order; a rule picks one per state
    starts = np.searchsorted(xs, np.arange(model.n_states + 1)).tolist()
    spans = [range(s, e) for s, e in zip(starts, starts[1:])]
    acts = acts.tolist()
    rules = list(product(*([acts[i] for i in span] for span in spans)))
    picks = list(product(*spans))
    # per pair: the first minimum over the suffixes, each kept as its rule
    # indices for stages 1..N-1; tuples of indices order like the enumeration
    best = [(math.inf, ())] * len(acts)
    memo = _Memo()

    def update(i: int, val: float, suffix: tuple[int, ...]) -> None:
        if val < best[i][0] or (val == best[i][0] and suffix < best[i][1]):
            best[i] = (val, suffix)

    rows = None
    if horizon > 1 and len(picks) >= 8:  # fewer children save too few steps to pay for the table
        pair_of, first, *rows, row_of = _class_table(model, spans, picks)

    def descend(n: int, values: list[float], suffix: tuple[int, ...]) -> None:
        # values: each pair's value at stage n under the rules of suffix
        if n <= 0:
            for i, val in enumerate(values):
                if not math.isfinite(val):  # as nature_best_response would reject it
                    raise RiskMdpError(f"non-finite value {val!r}")
                update(i, val, suffix)
            return
        if rows is not None:
            try:
                sups = _adversary_values(model, ds, values, memo, rows, "classes")
                sups = sups if isinstance(sups, list) else sups.tolist()
                fine = n > 1 or all(map(math.isfinite, sups))
            except RiskMdpError:
                fine = False
            if fine:
                if n == 1:
                    for i, f, val in zip(pair_of, first, sups):
                        update(i, val, (f, *suffix))
                else:
                    for r, child in enumerate(np.array(sups)[row_of].tolist()):
                        descend(n - 1, child, (r, *suffix))
                return
        for r, pick in enumerate(picks):  # one step per child, raising what the scan would
            child = _adversary_values(model, ds, [values[i] for i in pick], memo)
            descend(n - 1, child if isinstance(child, list) else child.tolist(), (r, *suffix))

    values = _adversary_values(model, ds, list(model.terminal_cost), memo)
    descend(horizon - 1, values if isinstance(values, list) else values.tolist(), ())
    first_rule = [acts[span.start] for span in spans]
    responses: dict[tuple, ValueFunction] = {}
    out = []
    for x, a in enumerate(mdp_core._first_min(model, [b for b, _ in best])[1]):
        stage0 = tuple(first_rule[:x] + [a] + first_rule[x + 1 :])
        stages = (stage0, *(rules[r] for r in best[acts.index(a, starts[x])][1]))
        if stages not in responses:
            responses[stages] = nature_best_response(model, ds, Policy(stages=stages), horizon, memo)
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
    literally. The search walks the distinct policy suffixes (rules
    1..N-1), not the policies: one dual sup per admissible pair at the
    last stage and, below it, per pair and distinct choice of a node's
    next rule at the pair's successor states (per pair and child when
    there are fewer than 8 rules). Each state's minimizing policy is then re-evaluated by
    ``nature_best_response``, and that value is the one reported.
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
