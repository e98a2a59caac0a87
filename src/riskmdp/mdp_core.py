"""Finite risk-sensitive decision model and its one-stage operators.

States, actions and disturbance outcomes are index sets. Transitions and
costs are read-only ``(S, A, K)`` arrays indexed ``[x, a, z]``; entries
for inadmissible actions are placeholders, set to zero, and never read.
The one-stage operator pushes the disturbance law through
cost-plus-discounted-continuation and evaluates a risk measure on the
resulting law. One stage step evaluates it at every admissible pair or
at a fixed rule's pairs, batched and bit-identical to ``bellman_L``;
minimizing over the admissible actions with smallest-index tie-breaking
gives the Bellman update, and the fixed-rule reading policy evaluation.

Bounding specifications carry per-state envelopes (lb, ub) together with
a growth rate alpha and one of three verification modes; when the
stage-wise inequalities hold and alpha * discount < 1 the envelopes
scale by 1 / (1 - alpha * discount) into global bounds, and the weighted
supremum norm over b = ub - lb >= 1 is the metric in which the Bellman
update is a contraction with modulus alpha * discount.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
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
from .risk_measures import (
    _SAFE,
    _SECOND_ORDER,
    _U,
    Entropic,
    RiskMeasure,
    _parts,
    _risk_value_of_pairs,
    _risk_values_of_rows,
    _rounding_bound,
    _row_laws,
    _row_values,
)

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
    """(S, n_actions) mask of the sorted ``admissible`` rows; out-of-range indices, of any size, are left out."""
    # dropped before the int64 conversion, which a huge one overflows; a sorted row has them at its ends
    rows = [
        row if not row or 0 <= row[0] and row[-1] < n_actions else [a for a in row if 0 <= a < n_actions]
        for row in admissible
    ]
    lengths = [len(row) for row in rows]
    acts = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=sum(lengths))
    mask = np.zeros((len(rows), n_actions), dtype=bool)
    mask[np.repeat(np.arange(len(rows)), lengths), acts] = True
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
    as nested tuples for ``validate_model``. The sweep operators raise
    ``DimensionMismatch`` unless both are arrays of one shape with
    ``n_states`` rows, as ``admissible`` has.
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
    # the (S, A) admissible mask, kept when the tables form one (S, A, K) layout and None otherwise
    _mask: np.ndarray | None = field(init=False, default=None, repr=False)
    _sweep_tables: tuple | None = field(init=False, default=None, repr=False)
    _pair_lists: tuple | None = field(init=False, default=None, repr=False)
    _index: list | None = field(init=False, default=None, repr=False)
    _starts: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        admissible = tuple(tuple(sorted(map(int, row))) for row in self.admissible)
        object.__setattr__(self, "admissible", admissible)
        transition = _table(self.transition, np.int64, int, admissible)
        cost = _table(self.cost, np.float64, float, admissible)
        if (
            isinstance(transition, np.ndarray)
            and isinstance(cost, np.ndarray)
            and transition.shape == cost.shape
            and len(transition) == len(admissible) == self.n_states
        ):
            mask = _admissible_mask(admissible, transition.shape[1])
            object.__setattr__(self, "_mask", mask)
            transition = np.where(mask[:, :, None], transition, 0)
            cost = np.where(mask[:, :, None], cost, 0.0)
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
        """Every init field but the two tables, which ``__eq__`` compares by ``_tables_equal``."""
        return tuple(getattr(self, f.name) for f in fields(self) if f.init and f.name not in ("transition", "cost"))

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
        """Width of the z-dimension of the tables, read at state 0's first admissible action in range."""
        if self.n_states and self.admissible and len(self.transition):
            row = self.transition[0]
            for a in self.admissible[0]:
                if 0 <= a < len(row):
                    return len(row[a])
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
            if self._mask is None:
                raise DimensionMismatch("transition and cost are not (S, A, K) tables; validate_model locates the fault")
            xs, acts = np.nonzero(self._mask)
            probs = np.array(self.disturbance.probs)
            by_prob = np.argsort(probs, kind="stable")
            zs = np.array(self.z_indices)[by_prob]
            succ = self.transition[xs, acts][:, zs]
            cost = self.cost[xs, acts][:, zs]
            object.__setattr__(self, "_sweep_tables", (xs, acts, succ, cost, probs[by_prob]))
        return self._sweep_tables

    @property
    def _pairs(self) -> tuple[list, ...]:
        """The ``_sweep`` pairs and their successor and cost rows in ``z_indices`` order (whose ties the
        dual sup reads), as lists of plain numbers for the pair-by-pair steps and the dual route.

        Built once per model and shared by every reader: never modify them.
        """
        if self._pair_lists is None:
            xs, acts = self._sweep[:2]
            rows = [t[xs, acts][:, list(self.z_indices)] for t in (self.transition, self.cost)]
            object.__setattr__(self, "_pair_lists", tuple(t.tolist() for t in (xs, acts, *rows)))
        return self._pair_lists

    def _pair_index(self, x: int, a: int) -> int:
        """(x, a)'s index in ``_sweep`` order, or -1 unless it is an admissible pair. The ranges are checked
        first, since a list, like an array, wraps -1; the (S, A) table of indices is built on first use."""
        if self._index is None:
            object.__setattr__(self, "_index", _pair_table(self, np.arange(len(self._sweep[0])), -1).tolist())
        row = self._index[x] if 0 <= x < self.n_states else ()
        return row[a] if 0 <= a < len(row) else -1

    @property
    def _state_starts(self) -> np.ndarray:
        """Where each state's pairs start in ``_sweep`` order, skipping the states without one."""
        if self._starts is None:
            xs = self._sweep[0]
            object.__setattr__(self, "_starts", np.flatnonzero(np.diff(xs, prepend=-1)))
        return self._starts


@dataclass(frozen=True)
class ValueFunction:
    """Per-state value vector with finite entries.

    ``array`` is the same vector as a read-only float64 array. It is kept
    when the values come as one, as from a batched sweep, and made on
    first use otherwise; it takes no part in equality, hashing or repr.
    """

    values: tuple[float, ...]
    _array: np.ndarray | None = field(init=False, default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        values = self.values
        if isinstance(values, np.ndarray) and values.dtype == np.float64 and values.ndim == 1:
            arr = values.copy()
            finite = np.isfinite(arr)
            if np.count_nonzero(finite) < len(arr):
                raise RiskMdpError(f"non-finite value {float(arr[finite.argmin()])!r}")
            arr.flags.writeable = False
            object.__setattr__(self, "_array", arr)
            values = arr.tolist()
        else:
            values = list(map(float, values))
            if not all(map(math.isfinite, values)):
                raise RiskMdpError(f"non-finite value {next(v for v in values if not math.isfinite(v))!r}")
        object.__setattr__(self, "values", tuple(values))

    @property
    def array(self) -> np.ndarray:
        if self._array is None:
            arr = np.array(self.values, dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, "_array", arr)
        return self._array

    def __getitem__(self, x: int) -> float:
        return self.values[x]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def _values_of(v) -> Sequence[float]:
    """``v`` as a sequence of values; an array as plain floats, as a ``ValueFunction`` holds them."""
    return v.values if isinstance(v, ValueFunction) else v.tolist() if isinstance(v, np.ndarray) else v


def _array_of(v) -> np.ndarray:
    return v.array if isinstance(v, ValueFunction) else np.asarray(v, dtype=float)


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
        # every check refuses NaN: a NaN weight b(x) would drop out of the
        # norm and certify any iterate. An infinite envelope stays legal for
        # verify_bounds; weighted_norm refuses its infinite weight
        ubar_eps, bar_eps = self.eps_split
        if not (ubar_eps >= 0.0 and bar_eps >= 0.0 and abs(ubar_eps + bar_eps - 1.0) <= 1e-12):
            raise RiskMdpError(f"eps split must be nonnegative and sum to 1, got {self.eps_split!r}")
        if len(self.lb) != len(self.ub):
            raise DimensionMismatch(f"lb has {len(self.lb)} states, ub has {len(self.ub)}")
        if not 0.0 <= self.alpha < math.inf:
            raise RiskMdpError(f"alpha must be finite and >= 0, got {self.alpha!r}")
        for x, (lo, hi) in enumerate(zip(self.lb, self.ub)):
            for name, v in (("lb", lo), ("ub", hi)):
                if math.isnan(v):
                    raise RiskMdpError(f"{name}[{x}] is not a number")
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
    zs = []  # the outcomes whose table cells can be checked
    for z in model.z_indices:
        if not 0 <= z < K:
            out.append(Diagnostic("BadDisturbance", {"z": z}, f"disturbance index {z} outside [0, {K})"))
        else:
            zs.append(z)
    if model.z_labels is not None and len(model.z_labels) != K:
        out.append(Diagnostic("BadDisturbance", {}, f"{len(model.z_labels)} z labels for {K} outcomes"))
    # the per-pair loop runs only to locate a fault that the array passes found
    if not (len(zs) == len(model.z_indices) and _pairs_valid(model, K)):
        trans, costs = model.rows
        for x in range(S):
            if not model.admissible[x]:
                out.append(Diagnostic("EmptyAdmissibleSet", {"state": x}, "no admissible action"))
                continue
            acts = model.admissible[x]  # sorted, so a repeat follows its first listing
            for i, a in enumerate(acts):
                if i and a == acts[i - 1]:
                    out.append(Diagnostic("BadAction", {"state": x, "action": a}, "admissible action listed twice"))
                    continue
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
                        out.append(Diagnostic("BadTransition", {"x": x, "a": a, "z": z}, f"target {row_t[z]} outside [0, {S})"))
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


def _pairs_valid(model: MdpModel, K: int) -> bool:
    """Whether ``validate_model``'s per-pair checks pass, found in array passes: the model's (S, A, K)
    layout at A = n_actions, admissible actions in range and listed once (the mask keeps one of each, in
    range), successors in range and finite costs. Every disturbance index must lie in [0, K)."""
    if model._mask is None or model.transition.shape[1:] != (model.n_actions, K):
        return False
    xs, _, succ, cost, _ = model._sweep
    return (
        len(xs) == sum(map(len, model.admissible))
        and len(model._state_starts) == model.n_states
        and 0 <= succ.min(initial=0)
        and succ.max(initial=0) < model.n_states
        and bool(np.isfinite(cost).all())
    )


# ---------------------------------------------------------------------------
# One-stage operators


def _check_feasible(model: MdpModel, x: int, a: int) -> None:
    if model._pair_index(x, a) < 0:  # DimensionMismatch unless the tables form one layout
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


# Steps over fewer stage outcomes than this (pairs times outcomes) go
# pair by pair through the one-pair operator: below it, numpy's cost per
# call exceeds the work. Both routes give the same values and actions, and
# both raise when a state has no finite value.
BATCH_MIN_OUTCOMES = 48


class _SweepMemo:
    """What one infinite-horizon solve keeps across its full sweeps.

    Near the fixed point a sweep's stage laws keep their sort order, so
    ``law`` holds every admissible pair's law shape (a ``_RowLaws``) and
    ``weights`` what the solve's risk measure reads of it; ``succ`` and
    ``cost`` are ``model._sweep``'s tables permuted into each row's
    ``law.order``. The first sweep builds all four. ``elim`` is the
    ``_Elimination`` state of the minimizing sweeps, which
    ``_memo_values`` keeps while ``eliminate`` is set (the first sweep
    clears it where ``_eliminates`` says no, the solve before its greedy
    call); ``skipped`` counts the pair evaluations they left out. A solve
    makes one and drops it on return, so no solve reads another's shapes.
    A plain class, since building a dataclass costs about 0.5 ms at every
    import.
    """

    __slots__ = ("law", "weights", "succ", "cost", "elim", "eliminate", "skipped")

    def __init__(self) -> None:
        self.law = self.weights = self.succ = self.cost = self.elim = None
        self.eliminate = True
        self.skipped = 0


def _stage_values(
    model: MdpModel,
    risk: RiskMeasure,
    v,
    rule=None,
    memo: _SweepMemo | None = None,
):
    """The one-stage operator at many pairs, each value bit-identical to ``bellman_L``.

    Without ``rule``: one value per admissible pair, in ``model._sweep``
    order. With a decision rule's pair indices (``solvers._feasible_rules``):
    one value per state, at its rule pair. Steps over at least
    ``BATCH_MIN_OUTCOMES`` stage outcomes are evaluated in one batch and
    return an array; smaller ones go pair by pair and return a list.

    A batched full sweep given a solve's ``memo`` sorts only the laws
    whose order changed since the memo's last sweep (``_memo_values``).
    While ``memo.eliminate`` is set, for a caller that only takes each
    state's first minimum, pairs that provably cannot be it are left out
    and read +inf (``_Elimination``). Fixed-rule and pair-by-pair steps do
    not read the memo.
    """
    succ, cost, probs = model._sweep[2:]
    if (len(succ) if rule is None else len(rule)) * succ.shape[1] >= BATCH_MIN_OUTCOMES:
        # overflow gives inf or NaN and underflow 0.0, as pair by pair, in any numpy error state
        with np.errstate(all="ignore"):
            if rule is not None:
                succ, cost = succ.take(rule, axis=0), cost.take(rule, axis=0)
            elif memo is not None:
                return _memo_values(model, risk, _array_of(v), memo)
            rows = cost + model.discount * _array_of(v)[succ]
            return _risk_values_of_rows(risk, rows, probs)
    rows = model._pairs[2:] if rule is None else [[t[i] for i in rule] for t in model._pairs[2:]]
    beta, p, values = model.discount, model.disturbance.probs, _values_of(v)
    return [
        _risk_value_of_pairs(risk, zip([c + beta * values[s] for s, c in zip(row_s, row_c)], p))
        for row_s, row_c in zip(*rows)
    ]


def _memo_values(model: MdpModel, risk: RiskMeasure, v: np.ndarray, memo: _SweepMemo) -> np.ndarray:
    """A batched full sweep's values, reusing the law shapes kept in ``memo``.

    The first sweep builds every law, as without a memo, and the memo's
    tables with them; later sweeps evaluate the kept laws
    (``_kept_values``). The values are bit-identical to a sweep without
    a memo.

    While ``memo.eliminate`` is set, a sweep after one that left
    ``memo.elim`` in place evaluates only the pairs that state does not
    rule out, and the others read +inf; any other sweep evaluates every
    pair and, with ``memo.eliminate``, starts the state afresh from them.
    The state is dropped while a sweep runs, so a sweep that raises leaves
    none. The first sweep clears ``memo.eliminate`` where ``_eliminates``
    says no.
    """
    elim, memo.elim = memo.elim, None
    if memo.eliminate and elim is not None:
        vals = elim.sweep(model, risk, v, memo)
        memo.elim = elim
        return vals
    if memo.law is None:
        if not _eliminates(model, risk):
            memo.eliminate = False
        succ, cost, probs = model._sweep[2:]
        law, memo.weights = _row_laws(risk, cost + model.discount * v[succ], probs)
        rows = np.arange(len(succ))[:, None]
        memo.law, memo.succ, memo.cost = law, succ[rows, law.order], cost[rows, law.order]
        vals = _row_values(risk, law, iter(memo.weights))
    else:
        vals = _kept_values(model, risk, v, memo)
    if memo.eliminate:
        memo.elim = _Elimination(model, risk, v, vals)
    return vals


def _kept_values(model: MdpModel, risk: RiskMeasure, v: np.ndarray, memo: _SweepMemo, part=None):
    """The values at ``v`` of the pairs in ``part``, or of every pair, from the laws kept in ``memo``.

    ``part`` is ``(rows, law, weights, succ, cost)``: a subset's indices in
    ``model._sweep`` order and compacted copies of the memo's tables there,
    ``law`` with only ``_RowLaws.VALUES``. The stage values are laid out in
    each pair's kept order, the same IEEE operations as unsorted rows; the
    rows whose order or ties changed are rebuilt once and written to both,
    and tied columns are merged as a fresh build merges them.
    """
    succ, cost, probs = model._sweep[2:]
    beta = model.discount
    rows, law, weights, kept_succ, kept_cost = part or (None, memo.law, memo.weights, memo.succ, memo.cost)
    atom = np.take(v, kept_succ)  # cost + beta * v[succ], in place
    atom *= beta
    atom += kept_cost
    stale = law.stale(atom)
    if len(stale):
        at = stale if part is None else rows[stale]
        fresh, new = _row_laws(risk, cost[at] + beta * v[succ[at]], probs)
        fresh_succ, fresh_cost = succ[at[:, None], fresh.order], cost[at[:, None], fresh.order]
        memo.law.splice(at, fresh)
        memo.succ[at], memo.cost[at] = fresh_succ, fresh_cost
        for kept, w in zip(memo.weights, new):
            kept[at] = w
        if part is not None:
            law.splice(stale, fresh, law.VALUES)
            kept_succ[stale], kept_cost[stale] = fresh_succ, fresh_cost
            for kept, w in zip(weights, new):
                kept[stale] = w
        atom[stale] = fresh.atom
    law.atom = law.merge(atom)
    return _row_values(risk, law, iter(weights))


# A solve's minimizing sweeps leave pairs out only where that measured
# faster (the per-model tables in CHANGES.md, 2-core host). A left-out row
# saves its evaluation, but the test costs bookkeeping at every sweep:
# some 10 to 25 us, plus at every pair about what an entropic row spends
# on one outcome. So the risk measure needs a part in ELIMINATION_KINDS,
# directly or in a mixture: the entropic kind, whose exp per outcome and
# log per row make a row dear (its solves ran 1.2x slower without it, exp
# batched; the other kinds lost at every size tried, cash balance 21% at
# a 96% skip share). And the outcomes of the pairs beyond each state's
# first, less one per pair, must reach ELIMINATION_MIN_OUTCOMES: entropic
# models broke even at 100 to 170 of these and lost up to 29% below.
ELIMINATION_KINDS = (Entropic,)
ELIMINATION_MIN_OUTCOMES = 200


def _eliminates(model: MdpModel, risk: RiskMeasure) -> bool:
    """Whether a solve's minimizing sweeps leave pairs out: the gate above, and a finite rounding bound.

    Value at risk and the step distortion have no finite bound
    (``_rounding_bound``), so the test could never leave one of their
    pairs out.
    """
    probs = model._sweep[4]
    pairs, outcomes = model._sweep[2].shape
    return (
        _has_kind(risk, ELIMINATION_KINDS)
        and (pairs - model.n_states) * outcomes - pairs >= ELIMINATION_MIN_OUTCOMES
        and math.isfinite(_rounding_bound(risk, probs)[0])
    )


_GROW = 1.0 + 2.0**-48  # 1 + 32u: one product by it outweighs 8 roundings of a nonnegative sum
_FLOOR = 2.0**-1000  # the absolute error of every underflow in fewer than 2**70 sweeps


class _Elimination:
    """A solve's certified test for pairs that cannot be their state's first minimum.

    Every risk measure here is monotone and translation invariant, so a
    pair's exact one-stage value moves by at most lip * beta times the
    largest change among its successors' values (MacQueen 1967, "A test
    for suboptimal actions in Markovian decision problems"; Puterman
    1994, sec. 6.7.2). ``_rounding_bound`` ties the computed value to
    that exact value.

    For each pair the state keeps ``lo`` and ``hi``, certified bounds on
    the exact value at the iterate where the pair was last evaluated,
    minus and plus the atoms' rounding at that sweep; ``drift``, an upper
    bound on lip * beta * max_k |change of v at successor k| summed over
    the sweeps since; and ``v``, the last iterate. At the next sweep every
    pair's computed value lies in [lo - drift - slack, hi + drift +
    slack], where ``slack`` bounds this sweep's rounding from one bound M
    on every atom (the largest |cost| plus beta max |v|). A pair whose
    lower end lies strictly above its state's least upper end is larger
    than the state's minimum, so leaving it out (it reads +inf) keeps the
    minimum, the first minimizing action and its sign. A sweep whose M is
    not finite, or reaches ``_SAFE / m`` where a sum may overflow, leaves
    nothing out, so ``SumOverflow`` is raised as without the test.

    ``mask`` marks the pairs the last sweep evaluated. While it leaves
    some out, ``part`` holds them as ``_kept_values`` reads a subset:
    their indices and compacted copies of the memo's tables, gathered
    again only when the mask changes.
    """

    __slots__ = (
        "v", "lo", "hi", "drift", "mask", "part",
        "slope", "floor", "lip", "rate", "cost_max", "starts", "seg", "succ_t",
    )

    def __init__(self, model: MdpModel, risk: RiskMeasure, v: np.ndarray, vals: np.ndarray):
        xs, _, succ, cost, probs = model._sweep
        self.slope, self.floor, self.lip = _rounding_bound(risk, probs)
        self.rate = model.discount * self.lip * _GROW
        self.cost_max = float(np.abs(cost).max(initial=0.0))
        self.starts = model._state_starts
        self.seg = np.cumsum(np.diff(xs, prepend=-1) != 0) - 1
        self.succ_t = succ.T.copy()  # the drift's gather reads one contiguous row per outcome
        self.mask, self.part = np.ones(len(vals), dtype=bool), None
        self.lo, self.hi = _bounds(vals, self._slack(model.discount, v, succ.shape[1]))
        self.drift = np.zeros(len(vals))
        self.v = v

    def _slack(self, beta: float, v: np.ndarray, m: int) -> float:
        """A bound on this sweep's rounding at any pair, inf if unsafe."""
        big = float(np.abs(v).max(initial=0.0)) * beta * _GROW  # >= |fl(beta * v(y))|
        scale = (self.cost_max + big) * _GROW  # >= every |fl(cost + beta * v(y))|
        if not scale < _SAFE / m:  # NaN fails too
            return math.inf
        # the kind's rounding, and lip times each atom's two roundings
        inner = self.slope * scale + self.floor + self.lip * _U * (scale + big)
        return (inner * _SECOND_ORDER + _FLOOR) * _GROW

    def sweep(self, model: MdpModel, risk: RiskMeasure, v: np.ndarray, memo: _SweepMemo) -> np.ndarray:
        """The minimizing sweep's pair values at ``v``, +inf at the pairs it leaves out."""
        beta, n = model.discount, len(self.lo)
        step = np.take(np.abs(v - self.v), self.succ_t).max(axis=0) * self.rate
        drift = (self.drift + step) * _GROW
        slack = self._slack(beta, v, self.succ_t.shape[0])
        reach = (drift + slack) * _GROW
        mask = ~_dominated(self.lo - reach, self.hi + reach, self.starts, self.seg)
        if not np.array_equal(mask, self.mask):
            rows = np.flatnonzero(mask)
            self.mask = mask
            self.part = None if len(rows) == n else (
                rows,
                memo.law.take(rows),
                [np.take(w, rows, axis=0) for w in memo.weights],
                np.take(memo.succ, rows, axis=0),
                np.take(memo.cost, rows, axis=0),
            )
        vals = _kept_values(model, risk, v, memo, self.part)
        rows = slice(None) if self.part is None else self.part[0]
        self.lo[rows], self.hi[rows] = _bounds(vals, slack)
        drift[rows] = 0.0
        self.drift, self.v = drift, v
        if self.part is None:
            return vals
        memo.skipped += n - len(vals)
        out = np.full(n, math.inf)
        out[rows] = vals
        return out


def _bounds(vals: np.ndarray, slack: float) -> tuple[np.ndarray, np.ndarray]:
    """``lo`` and ``hi``: certified bounds on the exact values of pairs computed as ``vals``.

    The 2u |value| term and the factor ``_GROW`` cover the rounding of the
    two subtractions; a non-finite value gives a NaN or infinite end that
    rules nothing out.
    """
    reach = (slack + 2 * _U * np.abs(vals)) * _GROW
    return vals - reach, vals + reach


def _has_kind(risk: RiskMeasure, kinds: tuple) -> bool:
    """Whether ``risk`` or a part of its mixture is one of ``kinds``."""
    return any(isinstance(part, kinds) for part in _parts(risk))


def _dominated(lower: np.ndarray, upper: np.ndarray, starts: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """The pairs whose lower bound lies strictly above their state's least upper bound.

    Rounding to nearest is monotone, so a computed ``lower > upper``
    implies the exact one. The least upper bound belongs to a pair whose
    own lower bound does not exceed it, so every state keeps a pair; a
    NaN bound in a state rules out none of its pairs.
    """
    return lower > np.take(np.minimum.reduceat(upper, starts), seg)


def _pair_table(model: MdpModel, vals, fill: float = math.inf) -> np.ndarray:
    """Each state's row of pair values: an (S, A) table of ``fill``, and of its dtype, with ``vals``,
    one per admissible pair in ``model._sweep`` order, written at the admissible mask."""
    table = np.full(model._mask.shape, fill)
    table[model._mask] = vals
    return table


def _first_min(model: MdpModel, vals):
    """Per state, the first strict minimum of its pairs' values, and its action.

    ``vals`` holds one value per admissible pair in ``model._sweep`` order,
    as a stage step returns them: a list or an array. NaN never wins, ties
    go to the smallest action, and a state with nothing below +inf gets
    (+inf, -1). The minima come as ``vals`` came, a list or an array, and
    the actions as a list; both kinds of input give the same result.

    An array is put into its ``_pair_table``, NaN becomes +inf (``fmin``
    keeps the sign of a zero), and ``argmin`` takes each row's first
    minimum; a state without a pair keeps a row of +inf. A pass over the
    state-sorted pairs with ``np.minimum.reduceat`` needs three more
    passes to find each state's first minimizing pair, and measured
    slower at every infinite_cli size.
    """
    if isinstance(vals, list):
        xs, acts = model._pairs[:2]
        best, actions = [math.inf] * model.n_states, [-1] * model.n_states
        for x, a, val in zip(xs, acts, vals):
            if val < best[x]:
                best[x], actions[x] = val, a
        return best, actions
    table = _pair_table(model, vals)
    table = np.fmin(table, math.inf, out=table)
    first = table.argmin(axis=1)
    best = table[np.arange(model.n_states), first]
    return best, np.where(best < math.inf, first, -1).tolist()


def _min_values(model: MdpModel, vals) -> np.ndarray:
    """``_first_min(model, vals)[0]`` as a float array, by one ``np.fmin.reduceat`` (which skips NaN).

    ``_first_min`` decides where that may differ: a pair-by-pair step's list, a state without a pair,
    a zero (the reduction may keep either sign of a tie of -0.0 and +0.0) and a non-finite minimum.
    """
    starts = model._state_starts
    if not isinstance(vals, list) and len(starts) == model.n_states:
        best = np.fmin.reduceat(vals, starts)
        if best.all() and np.isfinite(best).all():
            return best
    return np.asarray(_first_min(model, vals)[0], dtype=float)


def bellman_T(
    model: MdpModel, risk: RiskMeasure, v, memo: _SweepMemo | None = None, values_only: bool = False
) -> tuple[ValueFunction | np.ndarray, tuple[int, ...] | None]:
    """One Bellman sweep: per-state minimum over admissible actions.

    The stage step evaluates the admissible pairs, bit-identical to
    ``bellman_L``. Ties are broken toward the smallest action index,
    which makes the returned greedy rule deterministic; a state without
    a finite value raises in ``ValueFunction`` on both routes. A solve
    that sweeps repeatedly passes its ``_SweepMemo``, which keeps the
    stage laws' sort orders between sweeps and, while ``memo.eliminate``
    is set, leaves out the pairs that its ``_Elimination`` proves larger
    than their state's minimum; the result is the same. With
    ``values_only``, for a fixed-point iteration, it returns the minima
    as a float array, unchecked, and None for the rule.
    """
    vals = _stage_values(model, risk, v, None, memo)
    if values_only:
        return _min_values(model, vals), None
    best, actions = _first_min(model, vals)
    return ValueFunction(best), tuple(actions)


def _norm_weights(b: Sequence[float]) -> np.ndarray:
    """The weights ``b`` as an array, refused unless each is finite and >= 1.

    A NaN or infinite weight would hide its state's difference from the
    norm. Weights fixed for a solve are checked once.
    """
    w = np.array(b, dtype=float)
    ok = (w >= 1.0) & (w < math.inf)
    if not ok.all():
        x = int(ok.argmin())
        raise RiskMdpError(f"norm weights must be finite and >= 1, got {float(w[x])!r} at state {x}")
    return w


def _sup_norm(a1: np.ndarray, a2: np.ndarray, w: np.ndarray) -> float:
    """max_x |a1(x) - a2(x)| / w(x) over arrays, with weights from ``_norm_weights``."""
    if len(a1) != len(a2) or len(a1) != len(w):
        raise DimensionMismatch(f"lengths {len(a1)}, {len(a2)}, {len(w)} differ")
    with np.errstate(over="ignore", invalid="ignore"):  # inf, as the scalar difference gives
        return float(np.max(np.abs(a1 - a2) / w))


def weighted_norm(v1, v2, b: Sequence[float]) -> float:
    """Weighted supremum norm max_x |v1(x) - v2(x)| / b(x), requiring finite b >= 1."""
    return _sup_norm(_array_of(v1), _array_of(v2), _norm_weights(b))


# ---------------------------------------------------------------------------
# Bounding-function verification


@dataclass(frozen=True)
class BoundViolation:
    inequality: str
    state: int
    action: int
    lhs: float
    rhs: float


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
        with np.errstate(all="ignore"):  # as in bellman_T
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
