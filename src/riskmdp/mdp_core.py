"""Finite risk-sensitive decision model and its one-stage operators.

States, actions and disturbance outcomes are index sets. Transitions and
costs are read-only ``(S, A, K)`` arrays indexed ``[x, a, z]``; entries
for inadmissible actions are placeholders, set to zero, and never read.
The one-stage operator pushes the disturbance law through
cost-plus-discounted-continuation and evaluates a risk measure on the
resulting law; minimizing over the admissible actions with
smallest-index tie-breaking gives the Bellman update. The sweep
evaluates every admissible pair in one batch, bit-identical to the
one-pair operator.

Bounding specifications carry per-state envelopes (lb, ub) together with
a growth rate alpha and one of three verification modes; when the
stage-wise inequalities hold and alpha * discount < 1 the envelopes
scale by 1 / (1 - alpha * discount) into global bounds, and the weighted
supremum norm over b = ub - lb >= 1 is the metric in which the Bellman
update is a contraction with modulus alpha * discount.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Sequence

import numpy as np

from .distributions import DiscreteDistribution, _merge_sorted_pairs
from .errors import (
    DimensionMismatch,
    InfeasibleAction,
    InfeasiblePolicy,
    NotContractive,
    RiskMdpError,
)
from .risk_measures import RiskMeasure, _risk_value_of_pairs, _risk_values_of_rows

__all__ = [
    "MdpModel",
    "ValueFunction",
    "Policy",
    "BoundMode",
    "BoundingSpec",
    "Diagnostic",
    "BoundViolation",
    "BoundsReport",
    "validate_model",
    "stage_law",
    "bellman_L",
    "bellman_T",
    "weighted_norm",
    "verify_bounds",
    "constant_bounding_spec",
]


def _as_nested_tuples(table, depth: int, cast):
    if depth == 0:
        return cast(table)
    return tuple(_as_nested_tuples(row, depth - 1, cast) for row in table)


def _admissible_mask(admissible: tuple[tuple[int, ...], ...], n_actions: int) -> np.ndarray:
    """(S, n_actions) mask of the admissible actions; out-of-range indices are left out."""
    lengths = [len(row) for row in admissible]
    acts = np.fromiter(chain.from_iterable(admissible), dtype=np.int64, count=sum(lengths))
    states = np.repeat(np.arange(len(admissible)), lengths)
    keep = (acts >= 0) & (acts < n_actions)
    mask = np.zeros((len(admissible), n_actions), dtype=bool)
    mask[states[keep], acts[keep]] = True
    return mask


def _table(raw, dtype, cast, admissible):
    """``raw`` as an (S, A, K) array, or as nested tuples if it is not one.

    Cells of inadmissible actions may have any width: when only they
    break the shape, they are replaced by zeros. Any other table that is
    not rectangular, or holds an index too large for int64, stays nested
    for ``validate_model`` to locate what is wrong with it. Cells that do
    not convert raise as ``cast`` does.
    """
    try:
        arr = np.array(raw, dtype=dtype)
    except (ValueError, TypeError, OverflowError):
        nested = _as_nested_tuples(raw, 3, cast)
        widths = {
            len(row[a]) for row, adm in zip(nested, admissible) for a in adm if 0 <= a < len(row)
        }
        if len(widths) != 1 or len(nested) != len(admissible):
            return nested
        zero = (cast(0),) * widths.pop()
        padded = [
            [cell if a in adm else zero for a, cell in enumerate(row)]
            for row, adm in zip(nested, admissible)
        ]
        try:
            arr = np.array(padded, dtype=dtype)
        except (ValueError, OverflowError):
            return nested
    return arr if arr.ndim == 3 else _as_nested_tuples(raw, 3, cast)


def _tables_equal(t1, t2) -> bool:
    if isinstance(t1, np.ndarray) or isinstance(t2, np.ndarray):
        return np.array_equal(t1, t2)
    return t1 == t2


@dataclass(frozen=True, eq=False)
class MdpModel:
    """Finite decision model with tabulated dynamics.

    Fields:
        n_states, n_actions: sizes of the index sets.
        admissible: per-state tuple of admissible action indices, each
            nonempty, stored sorted ascending.
        disturbance: law over disturbance indices (atoms are the indices
            that occur with positive probability).
        transition: ``transition[x, a, z]`` is the successor state index,
            a read-only int array of shape (S, A, K).
        cost: ``cost[x, a, z]`` is the cost of that realized transition,
            a read-only float array of the same shape.
        terminal_cost: per-state terminal cost.
        discount: discount factor in (0, 1].
        state_labels: optional per-state real labels, strictly increasing
            in the state index (monotone-model mode).
        z_labels: optional per-outcome real labels for the disturbance.

    The tables accept any nested sequence or array. Cells of inadmissible
    actions are set to zero, so models compare equal (by value) however
    their builders filled them. A table that is not rectangular is kept
    as nested tuples for ``validate_model`` to report on; the sweep
    operators raise ``DimensionMismatch`` on such a model.
    """

    n_states: int
    n_actions: int
    admissible: tuple[tuple[int, ...], ...]
    disturbance: DiscreteDistribution
    transition: np.ndarray
    cost: np.ndarray
    terminal_cost: tuple[float, ...]
    discount: float = 1.0
    state_labels: tuple[float, ...] | None = None
    z_labels: tuple[float, ...] | None = None
    z_indices: tuple[int, ...] = field(init=False, repr=False)
    # derived views, built on first use; set with object.__setattr__ rather
    # than a cached_property, whose __dict__ writes slow every attribute read
    _rows: tuple | None = field(init=False, default=None, repr=False)
    _sweep_tables: tuple | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        admissible = tuple(tuple(sorted(map(int, row))) for row in self.admissible)
        object.__setattr__(self, "admissible", admissible)
        transition = _table(self.transition, np.int64, int, admissible)
        cost = _table(self.cost, np.float64, float, admissible)
        if (
            isinstance(transition, np.ndarray)
            and isinstance(cost, np.ndarray)
            and transition.shape == cost.shape
            and len(transition) == len(admissible)
        ):
            keep = _admissible_mask(admissible, transition.shape[1])[:, :, None]
            transition = np.where(keep, transition, 0)
            cost = np.where(keep, cost, 0.0)
        for tab in (transition, cost):
            if isinstance(tab, np.ndarray):
                tab.flags.writeable = False
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "terminal_cost", tuple(float(c) for c in self.terminal_cost))
        if self.state_labels is not None:
            object.__setattr__(self, "state_labels", tuple(float(v) for v in self.state_labels))
        if self.z_labels is not None:
            object.__setattr__(self, "z_labels", tuple(float(v) for v in self.z_labels))
        object.__setattr__(self, "z_indices", tuple(int(a) for a in self.disturbance.atoms))

    def _key(self) -> tuple:
        return (
            self.n_states,
            self.n_actions,
            self.admissible,
            self.disturbance,
            self.terminal_cost,
            self.discount,
            self.state_labels,
            self.z_labels,
        )

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self._key() == other._key()
            and _tables_equal(self.transition, other.transition)
            and _tables_equal(self.cost, other.cost)
        )

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def n_outcomes(self) -> int:
        """Width of the z-dimension of the transition and cost tables."""
        if self.n_states and self.admissible and self.admissible[0]:
            return len(self.transition[0][self.admissible[0][0]])
        return len(self.disturbance.atoms)

    @property
    def rows(self) -> tuple[list, list]:
        """(transition, cost) as nested lists of plain ints and floats.

        For readers that visit the tables one cell at a time, where list
        indexing is much cheaper than indexing an array. The lists are
        shared by every reader of the model: read them, never modify them.
        """
        if self._rows is None:
            tables = (self.transition, self.cost)
            rows = tuple(t.tolist() if isinstance(t, np.ndarray) else t for t in tables)
            object.__setattr__(self, "_rows", rows)
        return self._rows

    @property
    def _sweep(self) -> tuple[np.ndarray, ...]:
        """What a sweep reads: the admissible (x, a) pairs in sweep order,
        their (P, m) successor and cost rows, and the m probabilities.

        Only outcomes of positive probability are kept, ordered by
        ascending probability as the batched risk evaluation requires.
        """
        if self._sweep_tables is None:
            if not (
                isinstance(self.transition, np.ndarray)
                and isinstance(self.cost, np.ndarray)
                and self.transition.shape == self.cost.shape
                and len(self.transition) == self.n_states
            ):
                raise DimensionMismatch(
                    "transition and cost are not (S, A, K) tables; validate_model locates the fault"
                )
            xs, acts = np.nonzero(_admissible_mask(self.admissible, self.transition.shape[1]))
            probs = np.array(self.disturbance.probs)
            by_prob = np.argsort(probs, kind="stable")
            zs = np.array(self.z_indices)[by_prob]
            succ = self.transition[xs, acts][:, zs]
            cost = self.cost[xs, acts][:, zs]
            object.__setattr__(self, "_sweep_tables", (xs, acts, succ, cost, probs[by_prob]))
        return self._sweep_tables


@dataclass(frozen=True)
class ValueFunction:
    """Per-state value vector with finite entries."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        for v in values:
            if not math.isfinite(v):
                raise RiskMdpError(f"non-finite value {v!r}")
        object.__setattr__(self, "values", values)

    def __getitem__(self, x: int) -> float:
        return self.values[x]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def _values_of(v) -> Sequence[float]:
    return v.values if isinstance(v, ValueFunction) else v


@dataclass(frozen=True)
class Policy:
    """Per-stage decision rules; a stationary policy stores one rule."""

    stages: tuple[tuple[int, ...], ...]
    stationary: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(tuple(int(a) for a in rule) for rule in self.stages))

    def rules(self, horizon: int) -> tuple[tuple[int, ...], ...]:
        """The per-stage rules for the given horizon, broadcasting a stationary rule."""
        if self.stationary:
            if not self.stages:
                raise InfeasiblePolicy("stationary policy has no rule")
            return tuple(self.stages[0] for _ in range(horizon))
        if len(self.stages) != horizon:
            raise InfeasiblePolicy(f"policy has {len(self.stages)} stages, horizon is {horizon}")
        return self.stages


class BoundMode(str, Enum):
    COHERENT = "coherent"
    COMONOTONE_MONOTONE = "comonotone_monotone"
    BOUNDED_BELOW = "bounded_below"


@dataclass(frozen=True)
class BoundingSpec:
    """Per-state envelopes with growth rate and verification mode.

    The epsilon split (ubar_eps, bar_eps) >= 0 with sum 1 shifts the
    envelopes so that lb <= -ubar_eps <= 0 <= bar_eps <= ub holds
    componentwise and b = ub - lb >= 1 by construction. In bounded-below
    mode the lower envelope is a single constant and alpha >= 1.
    """

    lb: tuple[float, ...]
    ub: tuple[float, ...]
    eps_split: tuple[float, float] = (0.5, 0.5)
    alpha: float = 1.0
    mode: BoundMode = BoundMode.COHERENT

    def __post_init__(self) -> None:
        object.__setattr__(self, "lb", tuple(float(v) for v in self.lb))
        object.__setattr__(self, "ub", tuple(float(v) for v in self.ub))
        object.__setattr__(self, "mode", BoundMode(self.mode))
        ubar_eps, bar_eps = self.eps_split
        if ubar_eps < 0.0 or bar_eps < 0.0 or abs(ubar_eps + bar_eps - 1.0) > 1e-12:
            raise RiskMdpError(f"eps split must be nonnegative and sum to 1, got {self.eps_split!r}")
        if len(self.lb) != len(self.ub):
            raise DimensionMismatch(f"lb has {len(self.lb)} states, ub has {len(self.ub)}")
        if self.alpha < 0.0:
            raise RiskMdpError(f"alpha must be >= 0, got {self.alpha!r}")
        for x, (lo, hi) in enumerate(zip(self.lb, self.ub)):
            if lo > -ubar_eps + 1e-12:
                raise RiskMdpError(f"lb[{x}] = {lo!r} exceeds -ubar_eps = {-ubar_eps!r}")
            if hi < bar_eps - 1e-12:
                raise RiskMdpError(f"ub[{x}] = {hi!r} is below bar_eps = {bar_eps!r}")
        if self.mode is BoundMode.BOUNDED_BELOW:
            if any(v != self.lb[0] for v in self.lb):
                raise RiskMdpError("bounded-below mode requires a constant lower envelope")
            if self.alpha < 1.0:
                raise RiskMdpError(f"bounded-below mode requires alpha >= 1, got {self.alpha!r}")

    def b(self) -> tuple[float, ...]:
        """Weight vector b = ub - lb, componentwise >= 1."""
        return tuple(hi - lo for lo, hi in zip(self.lb, self.ub))

    def modulus(self, discount: float) -> float:
        return self.alpha * discount

    def global_bounds(self, discount: float) -> tuple[tuple[float, ...], tuple[float, ...]] | None:
        """Envelopes scaled by 1 / (1 - alpha*discount); None when that blows up."""
        q = self.modulus(discount)
        if q >= 1.0:
            return None
        scale = 1.0 / (1.0 - q)
        return tuple(v * scale for v in self.lb), tuple(v * scale for v in self.ub)


# ---------------------------------------------------------------------------
# Model validation


@dataclass(frozen=True)
class Diagnostic:
    kind: str
    where: dict
    message: str

    def __str__(self) -> str:  # pragma: no cover - formatting only
        loc = ", ".join(f"{k}={v}" for k, v in self.where.items())
        return f"{self.kind}({loc}): {self.message}"


def validate_model(model: MdpModel) -> list[Diagnostic]:
    """Every invariant violation as one located diagnostic; empty list iff valid."""
    out: list[Diagnostic] = []
    S, A = model.n_states, model.n_actions
    if S < 1:
        out.append(Diagnostic("BadShape", {}, "model needs at least one state"))
        return out
    if not 0.0 < model.discount <= 1.0:
        out.append(Diagnostic("BadDiscount", {}, f"discount {model.discount!r} outside (0, 1]"))
    if len(model.admissible) != S:
        out.append(Diagnostic("BadShape", {}, f"admissible has {len(model.admissible)} rows, expected {S}"))
        return out
    if len(model.transition) != S or len(model.cost) != S:
        out.append(Diagnostic("BadShape", {}, "transition/cost tables must have one row per state"))
        return out
    K = model.n_outcomes
    trans, costs = model.rows
    zs = []  # the outcomes whose table cells can be checked
    for z in model.z_indices:
        if not 0 <= z < K:
            out.append(Diagnostic("BadDisturbance", {"z": z}, f"disturbance index {z} outside [0, {K})"))
        else:
            zs.append(z)
    if model.z_labels is not None and len(model.z_labels) != K:
        out.append(Diagnostic("BadDisturbance", {}, f"{len(model.z_labels)} z labels for {K} outcomes"))
    for x in range(S):
        if not model.admissible[x]:
            out.append(Diagnostic("EmptyAdmissibleSet", {"state": x}, "no admissible action"))
            continue
        for a in model.admissible[x]:
            if not 0 <= a < A:
                out.append(Diagnostic("BadAction", {"state": x, "action": a}, f"action index outside [0, {A})"))
                continue
            if len(trans[x]) != A or len(costs[x]) != A:
                out.append(Diagnostic("BadShape", {"state": x}, "table row must have one entry per action"))
                break
            row_t, row_c = trans[x][a], costs[x][a]
            if len(row_t) != K or len(row_c) != K:
                out.append(Diagnostic("BadShape", {"state": x, "action": a}, f"z-dimension must be {K}"))
                continue
            for z in zs:
                if not 0 <= row_t[z] < S:
                    out.append(
                        Diagnostic(
                            "BadTransition",
                            {"x": x, "a": a, "z": z},
                            f"target {row_t[z]} outside [0, {S})",
                        )
                    )
                if not math.isfinite(row_c[z]):
                    out.append(Diagnostic("BadCost", {"x": x, "a": a, "z": z}, f"cost {row_c[z]!r}"))
    if len(model.terminal_cost) != S:
        out.append(Diagnostic("BadTerminal", {}, f"{len(model.terminal_cost)} terminal costs for {S} states"))
    else:
        for x, c in enumerate(model.terminal_cost):
            if not math.isfinite(c):
                out.append(Diagnostic("BadTerminal", {"state": x}, f"terminal cost {c!r}"))
    if model.state_labels is not None:
        if len(model.state_labels) != S:
            out.append(Diagnostic("BadLabel", {}, f"{len(model.state_labels)} labels for {S} states"))
        else:
            for x in range(S - 1):
                if not model.state_labels[x] < model.state_labels[x + 1]:
                    out.append(
                        Diagnostic(
                            "BadLabel",
                            {"state": x + 1},
                            "state labels must be strictly increasing",
                        )
                    )
    return out


# ---------------------------------------------------------------------------
# One-stage operators


def _check_feasible(model: MdpModel, x: int, a: int) -> None:
    if a not in model.admissible[x]:
        raise InfeasibleAction(f"action {a} not admissible in state {x}")


def _stage_pairs(model: MdpModel, values: Sequence[float], x: int, a: int):
    beta = model.discount
    trans, costs = model.rows
    row_t = trans[x][a]
    row_c = costs[x][a]
    return [
        (row_c[z] + beta * values[row_t[z]], p)
        for z, p in zip(model.z_indices, model.disturbance.probs)
    ]


def stage_law(model: MdpModel, v, x: int, a: int) -> DiscreteDistribution:
    """Law of cost(x, a, Z) + discount * v(successor) over the disturbance."""
    _check_feasible(model, x, a)
    pairs = sorted(_stage_pairs(model, _values_of(v), x, a))
    atoms, probs = _merge_sorted_pairs(pairs)
    return DiscreteDistribution(tuple(atoms), tuple(probs))


def bellman_L(model: MdpModel, risk: RiskMeasure, v, x: int, a: int) -> float:
    """Risk value of the one-stage law, identical to evaluate(risk, stage_law(...))."""
    _check_feasible(model, x, a)
    return _risk_value_of_pairs(risk, _stage_pairs(model, _values_of(v), x, a))


# Sweeps over fewer stage outcomes than this (pairs times outcomes) go
# pair by pair through the one-pair operator: below it, numpy's cost per
# call exceeds the work. Both routes give the same values and actions, and
# both raise when a state has no finite value.
BATCH_MIN_OUTCOMES = 48


def bellman_T(model: MdpModel, risk: RiskMeasure, v) -> tuple[ValueFunction, tuple[int, ...]]:
    """One Bellman sweep: per-state minimum over admissible actions.

    Every admissible pair is evaluated in one batch (small sweeps go pair
    by pair), bit-identical to ``bellman_L``. Ties are broken toward the
    smallest action index, which makes the returned greedy rule
    deterministic.
    """
    xs, acts, succ, cost, probs = model._sweep
    if succ.size < BATCH_MIN_OUTCOMES:
        return _bellman_T_pairwise(model, risk, _values_of(v))
    # overflowing stage values give inf or NaN, as in the pairwise route
    with np.errstate(over="ignore", invalid="ignore"):
        rows = cost + model.discount * np.asarray(_values_of(v), dtype=float)[succ]
        vals = _risk_values_of_rows(risk, rows, probs)
    table = np.full((model.n_states, model.transition.shape[1]), math.inf)
    # NaN never wins a comparison in the pairwise route
    table[xs, acts] = np.where(np.isnan(vals), math.inf, vals)
    actions = table.argmin(axis=1)
    best = table[np.arange(model.n_states), actions]
    # a state without a finite value raises in ValueFunction, as in the
    # pairwise route, so the argmin of an all-infinite row never escapes
    return ValueFunction(tuple(best.tolist())), tuple(actions.tolist())


def _bellman_T_pairwise(model: MdpModel, risk: RiskMeasure, values):
    out = []
    actions = []
    for x in range(model.n_states):
        best = math.inf
        best_a = -1
        for a in model.admissible[x]:
            val = _risk_value_of_pairs(risk, _stage_pairs(model, values, x, a))
            if val < best:
                best = val
                best_a = a
        out.append(best)
        actions.append(best_a)
    return ValueFunction(tuple(out)), tuple(actions)


def weighted_norm(v1, v2, b: Sequence[float]) -> float:
    """Weighted supremum norm max_x |v1(x) - v2(x)| / b(x), requiring b >= 1."""
    a1, a2 = _values_of(v1), _values_of(v2)
    if len(a1) != len(a2) or len(a1) != len(b):
        raise DimensionMismatch(f"lengths {len(a1)}, {len(a2)}, {len(b)} differ")
    for w in b:
        if w < 1.0:
            raise RiskMdpError(f"norm weights must be >= 1, got {w!r}")
    return max(abs(x - y) / w for x, y, w in zip(a1, a2, b))


# ---------------------------------------------------------------------------
# Bounding-function verification


@dataclass(frozen=True)
class BoundViolation:
    inequality: str
    state: int
    action: int
    lhs: float
    rhs: float

    def to_dict(self) -> dict:
        return {
            "inequality": self.inequality,
            "state": self.state,
            "action": self.action,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass(frozen=True)
class BoundsReport:
    mode: BoundMode
    alpha: float
    discount: float
    modulus: float
    ok: bool
    violations: tuple[BoundViolation, ...]
    global_lb: tuple[float, ...] | None
    global_ub: tuple[float, ...] | None

    def to_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "alpha": self.alpha,
            "discount": self.discount,
            "modulus": self.modulus,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "global_lb": list(self.global_lb) if self.global_lb is not None else None,
            "global_ub": list(self.global_ub) if self.global_ub is not None else None,
        }


def verify_bounds(
    model: MdpModel, risk: RiskMeasure, spec: BoundingSpec, tol: float = 1e-9
) -> BoundsReport:
    """Check the stage-wise envelope inequalities by exhaustive enumeration.

    Coherent mode checks, for every admissible (x, a),

        lb(x) <= rho(cost law) <= ub(x),
        rho(-lb(successor)) <= -alpha * lb(x),
        rho(ub(successor)) <= alpha * ub(x);

    comonotone-monotone mode replaces the third line by the weaker pair
    rho(lb(successor)) >= alpha * lb(x) and rho(ub(successor)) <=
    alpha * ub(x); bounded-below mode checks cost >= lb pointwise,
    rho(cost law) <= ub(x) and the upper growth inequality. In the first
    two modes alpha * discount must be below 1; in bounded-below mode a
    modulus >= 1 only suppresses the global-bound output.
    """
    if len(spec.lb) != model.n_states:
        raise DimensionMismatch(f"spec covers {len(spec.lb)} states, model has {model.n_states}")
    q = spec.modulus(model.discount)
    if spec.mode in (BoundMode.COHERENT, BoundMode.COMONOTONE_MONOTONE) and q >= 1.0:
        raise NotContractive(
            f"alpha * discount = {q:g} must be < 1 in {spec.mode.value} mode"
        )
    alpha = spec.alpha
    xs, acts, succ, cost, probs = model._sweep
    lb, ub = np.array(spec.lb), np.array(spec.ub)
    lb_x, ub_x = lb[xs], ub[xs]

    def rho(rows: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # as in bellman_T
            return _risk_values_of_rows(risk, rows, probs)

    # (inequality, violated per pair, lhs, rhs), in the order they are reported
    checks = []
    rho_cost = rho(cost)
    if spec.mode in (BoundMode.COHERENT, BoundMode.COMONOTONE_MONOTONE):
        checks.append(("stage_cost_lower", rho_cost < lb_x - tol, rho_cost, lb_x))
    else:
        floor = cost.min(axis=1)
        checks.append(("cost_floor", floor < lb_x - tol, floor, lb_x))
    checks.append(("stage_cost_upper", rho_cost > ub_x + tol, rho_cost, ub_x))
    rho_ub_next = rho(ub[succ])
    checks.append(("ub_growth", rho_ub_next > alpha * ub_x + tol, rho_ub_next, alpha * ub_x))
    if spec.mode is BoundMode.COHERENT:
        rho_neg_lb = rho(-lb[succ])
        checks.append(("lb_growth", rho_neg_lb > -alpha * lb_x + tol, rho_neg_lb, -alpha * lb_x))
    elif spec.mode is BoundMode.COMONOTONE_MONOTONE:
        rho_lb_next = rho(lb[succ])
        checks.append(("lb_growth", rho_lb_next < alpha * lb_x - tol, rho_lb_next, alpha * lb_x))

    violations: list[BoundViolation] = []
    for i in np.flatnonzero(np.any([bad for _, bad, _, _ in checks], axis=0)).tolist():
        for name, bad, lhs, rhs in checks:
            if bad[i]:
                violations.append(
                    BoundViolation(name, int(xs[i]), int(acts[i]), float(lhs[i]), float(rhs[i]))
                )

    ok = not violations
    glb = gub = None
    if ok:
        bounds = spec.global_bounds(model.discount)
        if bounds is not None:
            glb, gub = bounds
    return BoundsReport(
        mode=spec.mode,
        alpha=alpha,
        discount=model.discount,
        modulus=q,
        ok=ok,
        violations=tuple(violations),
        global_lb=glb,
        global_ub=gub,
    )


def constant_bounding_spec(
    model: MdpModel,
    alpha: float = 1.0,
    mode: BoundMode = BoundMode.COHERENT,
    eps_split: tuple[float, float] = (0.5, 0.5),
) -> BoundingSpec:
    """Constant envelopes -K - ubar_eps and K + bar_eps from the largest |cost|.

    With alpha = 1 these verify for every normalized monetary risk measure
    whenever the one-stage cost is bounded, which on a finite model it
    always is.
    """
    # fmax skips NaN, as the comparison loop this replaces did
    big = float(np.fmax.reduce(np.abs(model._sweep[3]), axis=None, initial=0.0))
    ubar_eps, bar_eps = eps_split
    lb = tuple(-big - ubar_eps for _ in range(model.n_states))
    ub = tuple(big + bar_eps for _ in range(model.n_states))
    return BoundingSpec(lb=lb, ub=ub, eps_split=eps_split, alpha=alpha, mode=mode)
