"""Law-invariant monetary risk measures evaluated exactly on finite laws.

Positive values are losses. The specification family covers the
expectation, value-at-risk (inf-form quantile), expected shortfall
(average quantile above a level), distortion measures given by a
distortion function g via the telescoping survival sum

    rho_g(X) = sum_i x_(i) * (g(S_{i-1}) - g(S_i)),

spectral measures given by a nondecreasing right-continuous step
spectrum phi via cumulative increments of gbar = integral of phi,
the entropic certainty equivalent log E exp(gamma X) / gamma, and
convex mixtures of the above.

Coherent members (concave distortion class) expose the maximizing
density of their dual representation sup_Q E_Q[X]; an axiom checker
probes the classical properties on pseudo-random laws and couplings.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .distributions import (
    DiscreteDistribution,
    _levels,
    _merge_sorted_pairs,
    make_distribution,
    pushforward,
)
from .errors import InvalidSpec, NotCoherent, SumOverflow

__all__ = [
    "Expectation",
    "ValueAtRisk",
    "ExpectedShortfall",
    "DistortionFunction",
    "Distortion",
    "StepSpectrum",
    "Spectral",
    "Entropic",
    "Mixture",
    "RiskMeasure",
    "evaluate",
    "dual_sup",
    "describe",
    "is_positive_homogeneous",
    "is_comonotonic_additive",
    "is_coherent",
    "check_axioms",
    "AxiomReport",
    "PropertyCheck",
    "random_distribution",
    "random_coupling",
    "AXIOM_TOL",
]

AXIOM_TOL = 1e-9


# ---------------------------------------------------------------------------
# Specification types


@dataclass(frozen=True)
class Expectation:
    """Risk-neutral mean."""


@dataclass(frozen=True)
class ValueAtRisk:
    """Quantile of the loss at the given level, inf-form inverse."""

    level: float

    def __post_init__(self) -> None:
        if not 0.0 < self.level < 1.0:
            raise InvalidSpec(f"value-at-risk level must lie in (0, 1), got {self.level!r}")


@dataclass(frozen=True)
class ExpectedShortfall:
    """Average of the quantile function above the given level; level 0 is the mean."""

    level: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.level < 1.0:
            raise InvalidSpec(f"expected-shortfall level must lie in [0, 1), got {self.level!r}")


@dataclass(frozen=True)
class DistortionFunction:
    """Nondecreasing g on [0, 1] with g(0) = 0 and g(1) = 1.

    Closed forms: "identity", "var_indicator" (indicator of (1-level, 1]),
    "es_cap" (min(u / (1-level), 1)). Anything else is supplied as
    "piecewise_linear" with knots covering u = 0 and u = 1.
    """

    form: str
    level: float | None = None
    knots: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.form == "identity":
            if self.level is not None or self.knots is not None:
                raise InvalidSpec("identity distortion takes no parameters")
        elif self.form == "var_indicator":
            if self.level is None or not 0.0 < self.level < 1.0:
                raise InvalidSpec(f"var_indicator needs a level in (0, 1), got {self.level!r}")
        elif self.form == "es_cap":
            if self.level is None or not 0.0 <= self.level < 1.0:
                raise InvalidSpec(f"es_cap needs a level in [0, 1), got {self.level!r}")
        elif self.form == "piecewise_linear":
            knots = self.knots
            if not knots or len(knots) < 2:
                raise InvalidSpec("piecewise_linear needs at least the two endpoint knots")
            knots = tuple((float(u), float(g)) for u, g in knots)
            object.__setattr__(self, "knots", knots)
            us = [u for u, _ in knots]
            gs = [g for _, g in knots]
            if us[0] != 0.0 or us[-1] != 1.0:
                raise InvalidSpec("knots must start at u=0 and end at u=1")
            if gs[0] != 0.0 or gs[-1] != 1.0:
                raise InvalidSpec("distortion must satisfy g(0)=0 and g(1)=1")
            if any(not lo < hi for lo, hi in zip(us, us[1:])):
                raise InvalidSpec("knot u-coordinates must be strictly increasing")
            if any(hi < lo for lo, hi in zip(gs, gs[1:])):
                raise InvalidSpec("distortion must be nondecreasing")
        else:
            raise InvalidSpec(f"unknown distortion form {self.form!r}")

    def __call__(self, u: float) -> float:
        if self.form == "identity":
            return u
        if self.form == "var_indicator":
            return 1.0 if u > 1.0 - self.level else 0.0
        if self.form == "es_cap":
            t = u / (1.0 - self.level)
            return t if t < 1.0 else 1.0
        knots = self.knots
        if u <= 0.0:
            return 0.0
        if u >= 1.0:
            return 1.0
        idx = bisect.bisect_right(knots, (u, math.inf)) - 1
        u0, g0 = knots[idx]
        u1, g1 = knots[idx + 1]
        return g0 + (g1 - g0) * (u - u0) / (u1 - u0)

    def is_concave(self, tol: float = 1e-12) -> bool:
        if self.form in ("identity", "es_cap"):
            return True
        if self.form == "var_indicator":
            return False
        slopes = [
            (g1 - g0) / (u1 - u0)
            for (u0, g0), (u1, g1) in zip(self.knots, self.knots[1:])
        ]
        return all(s1 <= s0 + tol for s0, s1 in zip(slopes, slopes[1:]))


@dataclass(frozen=True)
class Distortion:
    """Distortion risk measure for a distortion function g."""

    g: DistortionFunction


@dataclass(frozen=True)
class StepSpectrum:
    """Nondecreasing right-continuous step spectrum phi on [0, 1).

    ``breakpoints`` lists (u_j, phi_j) with u_0 = 0; phi takes the value
    phi_j on [u_j, u_{j+1}). The spectrum must be nonnegative,
    nondecreasing and integrate to 1 over [0, 1] within 1e-12, so that its
    running integral gbar is a convex dual distortion function.
    """

    breakpoints: tuple[tuple[float, float], ...]
    _prefix: tuple[float, ...] = field(init=False, compare=False, repr=False)
    _us: tuple[float, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        bps = tuple((float(u), float(p)) for u, p in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        if not bps:
            raise InvalidSpec("spectrum needs at least one step")
        us = [u for u, _ in bps]
        phis = [p for _, p in bps]
        if us[0] != 0.0:
            raise InvalidSpec("spectrum steps must start at u=0")
        if any(not lo < hi for lo, hi in zip(us, us[1:])) or us[-1] >= 1.0:
            raise InvalidSpec("step points must be strictly increasing and below 1")
        if any(p < 0.0 for p in phis):
            raise InvalidSpec("spectrum must be nonnegative")
        if any(hi < lo for lo, hi in zip(phis, phis[1:])):
            raise InvalidSpec("spectrum must be nondecreasing")
        prefix = [0.0]
        for j in range(len(bps)):
            right = us[j + 1] if j + 1 < len(bps) else 1.0
            prefix.append(prefix[-1] + phis[j] * (right - us[j]))
        if abs(prefix[-1] - 1.0) > 1e-12:
            raise InvalidSpec(f"spectrum integrates to {prefix[-1]!r}, expected 1")
        object.__setattr__(self, "_prefix", tuple(prefix))
        object.__setattr__(self, "_us", tuple(us))

    def gbar(self, x: float) -> float:
        """Running integral of the spectrum; gbar(1) is exactly 1."""
        if x >= 1.0:
            return 1.0
        if x <= 0.0:
            return 0.0
        j = bisect.bisect_right(self._us, x) - 1
        u_j, phi_j = self.breakpoints[j]
        return self._prefix[j] + phi_j * (x - u_j)

    def as_distortion(self) -> DistortionFunction:
        """The induced concave distortion g(u) = 1 - gbar(1 - u)."""
        inner = [
            (1.0 - u_j, 1.0 - self._prefix[j])
            for j, (u_j, _) in reversed(list(enumerate(self.breakpoints)))
            if 0.0 < 1.0 - u_j < 1.0
        ]
        knots = [(0.0, 0.0)] + inner + [(1.0, 1.0)]
        return DistortionFunction(form="piecewise_linear", knots=tuple(knots))


@dataclass(frozen=True)
class Spectral:
    """Spectral risk measure, the quantile integral weighted by a step spectrum."""

    phi: StepSpectrum


@dataclass(frozen=True)
class Entropic:
    """Entropic certainty equivalent with risk aversion gamma > 0."""

    gamma: float

    def __post_init__(self) -> None:
        if not self.gamma > 0.0:
            raise InvalidSpec(f"entropic gamma must be > 0, got {self.gamma!r}")


@dataclass(frozen=True)
class Mixture:
    """Convex combination weight * first + (1 - weight) * second."""

    weight: float
    first: "RiskMeasure"
    second: "RiskMeasure"

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight <= 1.0:
            raise InvalidSpec(f"mixture weight must lie in [0, 1], got {self.weight!r}")


RiskMeasure = (
    Expectation | ValueAtRisk | ExpectedShortfall | Distortion | Spectral | Entropic | Mixture
)


def describe(risk: RiskMeasure) -> str:
    """Short human-readable tag used in reports and CLI output."""
    if isinstance(risk, Expectation):
        return "expectation"
    if isinstance(risk, ValueAtRisk):
        return f"VaR({risk.level:g})"
    if isinstance(risk, ExpectedShortfall):
        return f"ES({risk.level:g})"
    if isinstance(risk, Distortion):
        g = risk.g
        if g.form == "piecewise_linear":
            return f"distortion(pwl,{len(g.knots)} knots)"
        return f"distortion({g.form}@{g.level:g})" if g.level is not None else f"distortion({g.form})"
    if isinstance(risk, Spectral):
        return f"spectral({len(risk.phi.breakpoints)} steps)"
    if isinstance(risk, Entropic):
        return f"entropic({risk.gamma:g})"
    if isinstance(risk, Mixture):
        return f"mix({risk.weight:g}*{describe(risk.first)} + {1.0 - risk.weight:g}*{describe(risk.second)})"
    raise InvalidSpec(f"unknown risk specification {risk!r}")


def _parts(risk) -> tuple:
    """The parts of ``risk`` that are not mixtures, first before second; a mixture has a property below
    exactly when every part has it."""
    if isinstance(risk, Mixture):
        return _parts(risk.first) + _parts(risk.second)
    return (risk,)  # a tuple: the predicates below run per solve, and with a list they took 1.6x as long


def is_positive_homogeneous(risk: RiskMeasure) -> bool:
    return all(isinstance(part, (Expectation, ValueAtRisk, ExpectedShortfall, Distortion, Spectral)) for part in _parts(risk))


def is_comonotonic_additive(risk: RiskMeasure) -> bool:
    return is_positive_homogeneous(risk)  # the distortion class has both properties


def is_coherent(risk: RiskMeasure) -> bool:
    """Monotone, translation invariant, positive homogeneous and subadditive."""
    return all(
        isinstance(part, (Expectation, ExpectedShortfall, Spectral))
        or isinstance(part, Distortion) and part.g.is_concave()
        for part in _parts(risk)
    )


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(risk: RiskMeasure, dist: DiscreteDistribution) -> float:
    """Exact value of the risk measure on a finite-support law."""
    return _value(risk, dist.atoms, dist.probs, dist.survival_levels, dist.cum_levels)


def _value(
    risk: RiskMeasure,
    atoms: Sequence[float],
    probs: Sequence[float],
    surv: Sequence[float],
    cum: Sequence[float],
) -> float:
    if isinstance(risk, Expectation):
        return _fsum(a * p for a, p in zip(atoms, probs))
    if isinstance(risk, ValueAtRisk):
        return atoms[bisect.bisect_left(cum, risk.level)]
    if isinstance(risk, ExpectedShortfall):
        alpha = risk.level
        acc = 0.0
        prev = 0.0
        for a, f in zip(atoms, cum):
            lo = prev if prev > alpha else alpha
            if f > lo:
                acc += a * (f - lo)
            prev = f
        return acc / (1.0 - alpha)
    if isinstance(risk, Distortion):
        g = risk.g
        gs = [g(s) for s in surv]
        return _fsum(a * (gs[i] - gs[i + 1]) for i, a in enumerate(atoms))
    if isinstance(risk, Spectral):
        gbar = risk.phi.gbar
        acc = 0.0
        prev = 0.0
        for a, f in zip(atoms, cum):
            cur = gbar(f)
            acc += a * (cur - prev)
            prev = cur
        return acc
    if isinstance(risk, Entropic):
        gamma = risk.gamma
        # shifted by the top atom's product, the largest as gamma > 0, as the
        # batch shifts: no exponent is positive. Where that product is not
        # finite (an infinite atom, or gamma * atom out of float range), the
        # value is that infinity, on both routes
        mx = gamma * atoms[-1]
        if not math.isfinite(mx):
            return mx / gamma
        acc = _fsum(p * math.exp(gamma * a - mx) for a, p in zip(atoms, probs))
        return (mx + math.log(acc)) / gamma
    if isinstance(risk, Mixture):
        w = risk.weight
        return w * _value(risk.first, atoms, probs, surv, cum) + (1.0 - w) * _value(
            risk.second, atoms, probs, surv, cum
        )
    raise InvalidSpec(f"unknown risk specification {risk!r}")


def _fsum(terms: Iterable[float]) -> float:
    """``math.fsum``, raising ``SumOverflow`` where fsum raises.

    fsum refuses terms holding both -inf and +inf (ValueError) and finite
    terms whose partial sums overflow (OverflowError); stage values of
    costs near the float range give both.
    """
    try:
        return math.fsum(terms)
    except (ValueError, OverflowError) as exc:
        raise _sum_overflow(exc) from exc


def _sum_overflow(exc: Exception) -> SumOverflow:
    return SumOverflow(f"sum out of float range ({exc})")


def _risk_value_of_pairs(risk: RiskMeasure, pairs: Iterable) -> float:
    """Value on the law given by raw (value, probability) pairs.

    Canonicalizes exactly like the distribution constructor, so the result
    is bit-identical to ``evaluate(risk, make-law-of(pairs))`` without
    building the object. Used by the Bellman operators.
    """
    atoms, probs = _merge_sorted_pairs(sorted(pairs))
    if type(risk) is Expectation:
        return _fsum(a * p for a, p in zip(atoms, probs))
    surv, cum = _levels(probs)
    return _value(risk, atoms, probs, surv, cum)


# ---------------------------------------------------------------------------
# Batched evaluation: many laws on one shared probability vector


class _RowLaws:
    """The laws of the rows of ``values``, each row weighted by ``probs``.

    ``probs`` must be ascending. Then a stable sort of each row on its
    values (``order``) puts the pairs in the order that ``sorted`` gives
    to (value, probability) tuples, and column i of the tables below holds
    the i-th sorted pair. Pairs with equal values form one atom. ``end``
    marks the last column of each atom; ``atom`` and ``prob`` are the
    atom's value and its probabilities summed left to right, read at
    ``end`` columns.

    Column j of ``levels`` is the survival level after the atoms that end
    before column j, telescoped atom by atom from 1 with the last level
    pinned to 0; ``cum_levels`` is its complement. Both are what the
    scalar route computes, bit for bit.

    Everything but ``atom`` is the law's shape, which depends on the
    values only through ``order`` and ``end``; ``ties`` lists the columns
    that some row merges into the next. A caller whose values move can
    keep the shape of every row that ``stale`` does not name, lay the new
    values out in ``order``, ``merge`` them and rebuild only the stale
    rows (``splice``).
    """

    SHAPE = ("order", "prob", "end", "levels", "cum_levels")
    VALUES = ("end", "prob")  # the shape tables ``_row_values`` reads, besides ``atom`` and the weights

    def __init__(self, values: np.ndarray, probs: np.ndarray):
        n, m = values.shape
        order = np.argsort(values, axis=1, kind="stable")
        atom = values[np.arange(n)[:, None], order]
        prob = probs[order]
        end = np.ones((n, m), dtype=bool)
        end[:, :-1] = atom[:, 1:] != atom[:, :-1]
        self.order, self.end = order, end
        self.ties = np.flatnonzero(~end.all(axis=0)).tolist()
        self.atom = self.merge(atom, prob)
        # subtracting 0.0 inside an atom leaves every level exact
        levels = np.empty((n, m + 1))
        levels[:, 0] = 1.0
        levels[:, 1:] = np.where(end, prob, 0.0)
        np.subtract.accumulate(levels, axis=1, out=levels)
        levels[:, -1] = 0.0
        self.prob, self.levels = prob, levels
        self.cum_levels = 1.0 - levels

    def merge(self, atom: np.ndarray, prob: np.ndarray | None = None) -> np.ndarray:
        """Fold each column of ``atom`` into the next where the two hold one atom, in place.

        The atom keeps the value of its first column, so of -0.0 and +0.0
        the first stays; ``prob``, when given, sums the atom's
        probabilities left to right.
        """
        end = self.end
        for i in self.ties:
            same = ~end[:, i]
            atom[:, i + 1] = np.where(same, atom[:, i], atom[:, i + 1])
            if prob is not None:
                prob[:, i + 1] = np.where(same, prob[:, i] + prob[:, i + 1], prob[:, i + 1])
        return atom

    def stale(self, atom: np.ndarray) -> np.ndarray:
        """The rows whose values, laid out in ``order``, no longer have this shape.

        A row keeps its shape when a stable sort of it in its original
        layout gives ``order`` again with the same ties: strictly ascending
        across each atom's end and equal inside it. NaN fails both tests.
        """
        return _stale_rows(atom, self.end if self.ties else None, np.less, np.equal)

    def splice(self, rows: np.ndarray, fresh: "_RowLaws", names: Sequence[str] = SHAPE) -> None:
        """Write the shape of ``fresh``, the laws of ``rows`` rebuilt, over theirs.

        A column ties now if it tied before and still does in some row, or if it ties in ``fresh``.
        """
        for name in names:
            getattr(self, name)[rows] = getattr(fresh, name)
        self.ties = sorted({i for i in self.ties if not self.end[:, i].all()}.union(fresh.ties))

    def take(self, rows: np.ndarray) -> "_RowLaws":
        """A copy of ``rows``' ``VALUES`` tables, for a caller that only evaluates them."""
        sub = _RowLaws.__new__(_RowLaws)
        for name in self.VALUES:
            setattr(sub, name, np.take(getattr(self, name), rows, axis=0))
        sub.ties = [i for i in self.ties if not sub.end[:, i].all()]
        return sub


def _stale_rows(laid: np.ndarray, mask: np.ndarray | None, where_set, where_clear) -> np.ndarray:
    """The indices, ascending, of the rows of ``laid`` with a neighbour pair that fails its test.

    Columns j and j + 1 of a row must pass ``where_set`` where ``mask`` is
    set at column j and ``where_clear`` elsewhere; both are comparison
    ufuncs, which NaN fails. A ``mask`` of None is set everywhere.
    """
    n, m = laid.shape
    # compared as one flat run, since numpy steps slowly through short
    # rows; the pairs that straddle two rows are let through
    flat = laid.ravel()
    lo, hi = flat[:-1], flat[1:]
    keeps = np.empty(n * m, dtype=bool)
    if mask is None:
        where_set(lo, hi, out=keeps[:-1])
    else:
        keeps[:-1] = np.where(mask.ravel()[:-1], where_set(lo, hi), where_clear(lo, hi))
    keeps[m - 1 :: m] = True
    if keeps.all():  # the usual case, and cheaper than a test per row
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(~keeps.reshape(n, m).all(axis=1))


def _running_sums(terms: np.ndarray) -> np.ndarray:
    """The scalar route's plain left-to-right ``acc += term`` over each row.

    Columns that are not an atom's end hold 0.0, which leaves such a sum
    exact. The sum starts at +0.0, as the scalar one does, so it is never
    -0.0. The columns are added one at a time, from a transposed copy:
    numpy steps slowly through short rows. Reducing that copy over its
    first axis adds row after row elementwise, the same additions; adding
    0.0 last instead of first gives the same bits, since a sum is -0.0
    only while every term so far is. A single row would be summed
    pairwise, so it goes column by column.
    """
    cols = terms.T.copy()
    if len(terms) > 1:
        return np.add.reduce(cols, axis=0) + 0.0
    total = cols[0] + 0.0
    for col in cols[1:]:
        total += col
    return total


# Tables of at least this many entries (and three columns) are summed by
# _certified_sums, with fsum only for the rows it leaves undecided; below
# it, one fsum per row is faster (the two broke even at 300 to 560 entries
# from 3 to 20 columns; scripts/sum_gate.py). The sum is the same either way.
CERTIFIED_MIN_CELLS = 500


def _fsum_rows(terms: np.ndarray) -> np.ndarray:
    """Correctly rounded row sums, equal to ``math.fsum`` of each row.

    One IEEE addition is correctly rounded, so two columns need no more
    where the sum is finite; adding 0.0 turns a -0.0 sum into the +0.0
    that fsum returns. Where fsum raises, ``SumOverflow`` is raised for
    the first such row.
    """
    n, m = terms.shape
    if m <= 2:
        total = terms[:, 0]
        if m == 2:
            total = total + terms[:, 1]
            rest = ~np.isfinite(total)
            if rest.any():  # fsum raises for inf + -inf and for a finite sum that overflows
                total[rest] = _fsum_each(terms[rest])
        return total + 0.0
    if n * m < CERTIFIED_MIN_CELLS:
        return _fsum_each(terms)
    sums, certified = _certified_sums(terms)
    rest = np.flatnonzero(~certified)
    if len(rest):
        sums[rest] = _fsum_each(terms[rest])
    return sums


def _fsum_each(terms: np.ndarray) -> np.ndarray:
    """``_fsum`` of each row of a 2-d array, by one bare ``math.fsum`` call per row."""
    try:
        return np.fromiter(map(math.fsum, terms.tolist()), dtype=float, count=len(terms))
    except (ValueError, OverflowError) as exc:
        raise _sum_overflow(exc) from exc


_TINY = 2.0**-1074  # the smallest subnormal
_SAFE = 2.0**1020  # below this no partial sum of a row, here or in fsum, overflows


def _certified_sums(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's sum rounded once, and whether that equals the row's ``math.fsum``.

    One error-free extraction (Rump, Ogita & Oishi 2008, "Accurate
    floating-point summation part I") splits every term t against
    ``sigma``, a power of two with sigma >= 2**M * max|t| over the table
    and 2**M >= m + 2: ``q = (t + sigma) - sigma`` is a multiple of
    u * sigma (u = 2**-53), ``p = t - q`` is exact and |p| <= u * sigma.
    A row's partial sums of q are multiples of u * sigma below sigma, so
    their sum ``tau`` is exact; the float sum ``pi`` of the p is off by at
    most gamma_{m-1} * m * u * sigma < m(m - 1) u^2 sigma (1 + 2**-40), in
    any order. ``r = tau + pi`` and its TwoSum residual ``e`` leave the
    exact sum within that of r + e, and rounding e +- delta moves it by at
    most u (|e| + delta) < u^2 sigma (1 + 2**-40), as |e| <= u |r| < u sigma.
    So delta = (m^2 + 2) u^2 sigma (plus the smallest subnormal, should
    the product underflow) puts the exact sum minus r between the rounded
    e - delta and e + delta. Rounding is monotone: if r plus each of them
    rounds to r, so does the exact sum, and fsum returns r. Zero sums,
    ties and sums within delta of one are left undecided; so is every row
    of a table with an entry that is not finite or is at least
    2**(1023 - M), where sigma would overflow.
    """
    n, m = terms.shape
    M = (m + 1).bit_length()  # the least M with 2**M >= m + 2
    cols = terms.T.copy()  # one contiguous row per column: numpy steps slowly through short rows
    big = np.abs(cols).max(initial=0.0)
    if not big < 2.0 ** (1023 - M):  # NaN fails too
        return np.zeros(n), np.zeros(n, dtype=bool)
    sigma = math.ldexp(1.0, math.frexp(big)[1] + M)  # big < 2**frexp(big)[1]
    q = cols + sigma
    q -= sigma
    tau = np.add.reduce(q, axis=0)
    pi = np.add.reduce(np.subtract(cols, q, out=cols), axis=0)
    r = tau + pi
    rv = r - tau
    e = (tau - (r - rv)) + (pi - rv)
    delta = sigma * ((m * m + 2) * _U * _U) + _TINY
    return r, (r + (e + delta) == r) & (r + (e - delta) == r)


def _g_array(g: DistortionFunction, u: np.ndarray) -> np.ndarray:
    """``g`` applied elementwise with the scalar formula's operations."""
    if g.form == "identity":
        return u
    if g.form == "var_indicator":
        return np.where(u > 1.0 - g.level, 1.0, 0.0)
    if g.form == "es_cap":
        t = u / (1.0 - g.level)
        return np.where(t < 1.0, t, 1.0)
    us = np.array([k[0] for k in g.knots])
    gs = np.array([k[1] for k in g.knots])
    j = np.clip(np.searchsorted(us, u, side="right") - 1, 0, len(us) - 2)
    u0, g0, u1, g1 = us[j], gs[j], us[j + 1], gs[j + 1]
    inner = g0 + (g1 - g0) * (u - u0) / (u1 - u0)
    return np.where(u <= 0.0, 0.0, np.where(u >= 1.0, 1.0, inner))


def _gbar_array(phi: StepSpectrum, x: np.ndarray) -> np.ndarray:
    """``phi.gbar`` applied elementwise with the scalar formula's operations."""
    us = np.array(phi._us)
    j = np.clip(np.searchsorted(us, x, side="right") - 1, 0, len(us) - 1)
    slopes = np.array([p for _, p in phi.breakpoints])
    inner = np.array(phi._prefix)[j] + slopes[j] * (x - us[j])
    return np.where(x >= 1.0, 1.0, np.where(x <= 0.0, 0.0, inner))


def _weights(risk: RiskMeasure, law: _RowLaws) -> list[np.ndarray]:
    """What ``risk`` reads of the shape of ``law``: arrays with one entry per row.

    VaR keeps the column of its quantile, ES the mask and increments of
    its tail, distortion and spectral measures their level increments;
    the expectation and the entropic measure read ``prob`` and ``end``
    directly. A mixture lists its first component's arrays, then its
    second's.
    """
    if isinstance(risk, (Expectation, Entropic)):
        return []
    cum = law.cum_levels[:, 1:]
    if isinstance(risk, ValueAtRisk):
        return [np.argmax(law.end & (cum >= risk.level), axis=1)]
    if isinstance(risk, ExpectedShortfall):
        prev = law.cum_levels[:, :-1]
        lo = np.where(prev > risk.level, prev, risk.level)
        return [law.end & (cum > lo), cum - lo]
    if isinstance(risk, Distortion):
        gs = _g_array(risk.g, law.levels)
        return [gs[:, :-1] - gs[:, 1:]]
    if isinstance(risk, Spectral):
        gbar = _gbar_array(risk.phi, law.cum_levels)
        return [gbar[:, 1:] - gbar[:, :-1]]
    if isinstance(risk, Mixture):
        return _weights(risk.first, law) + _weights(risk.second, law)
    raise InvalidSpec(f"unknown risk specification {risk!r}")


def _row_values(risk: RiskMeasure, law: _RowLaws, weights: Iterator[np.ndarray]) -> np.ndarray:
    """Each row's risk value from its atoms and ``iter(_weights(risk, law))``."""
    atom, end = law.atom, law.end
    if isinstance(risk, Expectation):
        return _fsum_rows(_at_ends(law, atom * law.prob))
    if isinstance(risk, ValueAtRisk):
        return atom[np.arange(len(atom)), next(weights)]
    if isinstance(risk, ExpectedShortfall):
        tail, inc = next(weights), next(weights)
        return _running_sums(np.where(tail, atom * inc, 0.0)) / (1.0 - risk.level)
    if isinstance(risk, Distortion):
        return _fsum_rows(_at_ends(law, atom * next(weights)))
    if isinstance(risk, Spectral):
        return _running_sums(_at_ends(law, atom * next(weights)))
    if isinstance(risk, Mixture):
        w = risk.weight
        first = _row_values(risk.first, law, weights)  # consumes the first component's weights
        return w * first + (1.0 - w) * _row_values(risk.second, law, weights)
    if isinstance(risk, Entropic):
        gamma = risk.gamma
        scaled = gamma * atom
        mx = scaled[:, -1:]  # the top atom has the largest product, as gamma > 0
        # the scalar route takes libm's exp and log: _exp reaches libm's exp in one numpy call; numpy's log
        # is not libm's (scripts/exp_route.py), so log goes through the math module. The top column (always
        # an atom's end) has a shift of exactly 0.0 in a finite row, and prob * exp(0.0) is prob; the other
        # shifts are <= 0
        if law.ties:
            terms = np.where(end, law.prob, 0.0)
            inner = end.copy()
            inner[:, -1] = False
            terms[inner] *= _exp((scaled - mx)[inner])
        else:
            terms = law.prob.copy()
            terms[:, :-1] *= _exp(scaled[:, :-1] - mx)
        top = mx[:, 0]
        # a row whose top product is not finite is that infinity, as pair by pair
        return np.where(np.isfinite(top), top + _libm(math.log, _fsum_rows(terms)), top) / gamma
    raise InvalidSpec(f"unknown risk specification {risk!r}")


def _at_ends(law: _RowLaws, x: np.ndarray) -> np.ndarray:
    """``x`` with 0.0 in the columns that do not end an atom; with no ties, every column ends one."""
    return np.where(law.end, x, 0.0) if law.ties else x


def _libm(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """``fn`` of each entry of the 1-d array ``x``, one Python call each, rounded as the math module rounds: the
    entropic log's route, ``_exp``'s fallback and ``_complex_exp_is_libm``'s reference (``scripts/exp_route.py``)."""
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=len(x))


def _exp(x: np.ndarray) -> np.ndarray:
    """``math.exp`` of each entry of ``x``, bit for bit: numpy's complex exp where ``_complex_exp_is_libm``."""
    if _complex_exp_is_libm():
        return np.exp(x.astype(np.complex128)).real
    return _libm(math.exp, x.ravel()).reshape(x.shape)


@functools.cache  # once per process, lazily: glibc's cexp and numpy's fallback give exp(x) * cos(0) at x + 0j
def _complex_exp_is_libm() -> bool:
    """Whether numpy's complex exp gives ``math.exp``'s bits (NaN for NaN) on shifts <= 0 and their edges."""
    edges = [0.0, -0.0, -745.1332191019412, math.inf, -math.inf, math.nan]  # exp is 0.0 from -745.13... down
    probe = np.concatenate([np.linspace(-745.2, 0.0, 4096), -np.ldexp(1.0, np.arange(-1074, 10)), edges])
    with np.errstate(all="ignore"):
        got, want = np.exp(probe.astype(np.complex128)).real, _libm(math.exp, probe)
    return bool(np.all((got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))))


# ---------------------------------------------------------------------------
# Rounding bounds of the batched evaluation

_U = 2.0**-53  # unit roundoff: one IEEE operation is off by at most u times its exact result
# second-order terms (products of two or more roundings, each term at most
# m * u <= 2**-30 for rows of fewer than 2**23 columns) fit in this factor
_SECOND_ORDER = 1.0 + 2.0**-20
_LIBM_ERR = 4 * _U  # libm's exp (``_exp``'s too) and log within 2 ulps; glibc documents under 1


def _level_error(probs: np.ndarray) -> float:
    """A bound delta on |computed level - exact level| for rows over ``probs``.

    The exact cumulative level after sorted column j is F_j = min(1, p_1 +
    ... + p_j), the top one pinned to 1 as the computed one is; the
    survival level is 1 - F_j. With m columns and s = sum(p): an atom's
    probability is summed left to right (m - 1 roundings in all), each
    telescoping step ``S - p`` rounds once at a magnitude of at most 1,
    and ``1 - S`` once more, which gives m * (s + 1) * u + 2u; the cap at 1
    moves F_j by at most |1 - s|, bounded from ``fsum`` (correctly rounded,
    so within 2u of s).
    """
    return ((2 * len(probs) + 3) * _U + _mass_error(probs)) * _SECOND_ORDER


def _mass_error(probs: np.ndarray) -> float:
    """A bound on |1 - s| for the exact sum s of ``probs``: ``fsum`` rounds s once."""
    return abs(1.0 - math.fsum(probs.tolist())) + 2 * _U


def _rounding_bound(risk: RiskMeasure, probs: np.ndarray) -> tuple[float, float, float]:
    """``(slope, floor, lip)``: the batched evaluation's rounding, per kind.

    For a row of m = len(probs) columns whose float atoms are at most M
    in magnitude, |computed value - exact value| <= slope * M + floor,
    where the exact value is the kind's formula in real arithmetic on the
    same float atoms and probabilities, with the levels F_j of
    ``_level_error`` (error delta). The exact value changes by at most
    lip times the largest change of an atom. With u = 2**-53 and
    ``_SECOND_ORDER`` for the products of roundings:

    - Expectation, sum p_k a_k: atom probabilities (m - 1 roundings), the
      products (1) and ``fsum`` (1, correctly rounded), each relative to
      at most s * M: slope (m + 1) u s. lip = s, the sum of the
      probabilities, which need not be 1.
    - Expected shortfall at level alpha, the weights G(F_j) - G(F_{j-1})
      with G(t) = max(t, alpha): summation by parts moves the sum by
      sum_j |G(F^_j) - G(F_j)| |a_{j+1} - a_j| <= 2 M delta, since the
      atoms are sorted. The increment (1), product (1) and running sum
      (m - 1) round relative to M (1 - alpha), and 1 - alpha and the
      division add 2u: slope (m + 5) u + 2 delta / (1 - alpha). lip = 1.
    - Distortion g over survival levels: the same summation by parts
      with eta + L delta per level, where L is g's largest slope (1 for
      the identity, 1 / (1 - level) for es_cap) and eta g's own rounding
      (3u for es_cap, 6u for a knot interpolation); weights (1),
      products (1) and ``fsum`` (1) round relative to V M, V = 1 + 2 m
      (eta + L delta) bounding the sum of |weights|: slope 2 (eta + L
      delta) + 3 u V. lip = 1. A step distortion (var_indicator) has no
      finite bound.
    - Spectral phi with n steps and integral I: gbar's float prefix sums
      and its evaluation (3 roundings per step, 3 more at the point) are
      within eta = (3 n + 3) u max(I, 1) + |1 - I|, the top level reads
      1 where the exact gbar(1) is I, and gbar's slope is max phi:
      slope 2 (eta + max phi delta) + |1 - I| + (m + 1) u V, V = I +
      2 m (eta + max phi delta). lip = I.
    - Entropic gamma, computed as gamma a_m + log sum_j p_j exp(d_j) with
      d_j = gamma a_j - gamma a_m: gamma a_m is within u gamma M and each
      d_j within 4 u gamma M, libm's exp and log within ``_LIBM_ERR``
      relative, |log of the sum| <= 2 gamma M + |log s|; the sum's terms
      are positive, so its relative error is (m + 1) u + ``_LIBM_ERR``
      plus m * 2**-1074 / min(p) of underflow; the final addition and the
      division by gamma add 2u: slope 7 u + 2 ``_LIBM_ERR``, floor ((m + 1) u + ``_LIBM_ERR`` +
      underflow + (``_LIBM_ERR`` + 3 u) |log s|) / gamma, plus |log s| /
      gamma so that |value| <= lip M + floor holds for mixtures. lip = 1:
      the measure is translation invariant on any positive weights.
    - Mixture w, 1 - w: the components' bounds weighted, plus 2u of the
      two products and the sum, relative to |component values| <= (lip
      + slope) M + 2 floor. lip is the weighted sum of the components'.
    - Value at risk reads one of the row's atoms at a level within delta
      of alpha, so a level's rounding may move it by a whole gap between
      atoms: like the step distortion, it has no finite bound, and a
      mixture with it none either.
    """
    m, ds = len(probs), _mass_error(probs)
    extra = (m * 2.0**-1074 / float(probs.min()), ds * 1.01)  # underflow in exp, |log s|
    return _kind_bound(risk, m, ds, _level_error(probs), extra)


def _kind_bound(risk: RiskMeasure, m: int, ds: float, delta: float, extra) -> tuple[float, float, float]:
    u, f = _U, _SECOND_ORDER
    if isinstance(risk, Expectation):
        s_hi = 1.0 + ds
        return (m + 1) * u * s_hi * f, 0.0, s_hi
    if isinstance(risk, ValueAtRisk):
        return math.inf, math.inf, 1.0
    if isinstance(risk, ExpectedShortfall):
        return ((m + 5) * u + 2 * delta / (1.0 - risk.level)) * f, 0.0, 1.0
    if isinstance(risk, Distortion):
        g = risk.g
        if g.form == "var_indicator":
            return math.inf, math.inf, 1.0
        if g.form == "identity":
            eta, slope = 0.0, 1.0
        elif g.form == "es_cap":
            eta, slope = 3 * u, 1.0 / (1.0 - g.level)
        else:
            eta = 6 * u
            slope = max((g1 - g0) / (u1 - u0) for (u0, g0), (u1, g1) in zip(g.knots, g.knots[1:]))
        eps = (eta + slope * delta) * f
        return (2 * eps + 3 * u * (1.0 + 2 * m * eps)) * f, 0.0, 1.0
    if isinstance(risk, Spectral):
        phi = risk.phi
        n = len(phi.breakpoints)
        total = phi._prefix[-1]
        spread = 3 * n * u * max(total, 1.0) * f  # |prefix sum - I|
        lip = total + spread
        off = abs(1.0 - total) + spread  # >= |1 - I|
        eta = (3 * n + 3) * u * max(lip, 1.0) * f + off
        eps = (eta + max(p for _, p in phi.breakpoints) * delta) * f
        return (2 * eps + off + (m + 1) * u * (lip + 2 * m * eps)) * f, 0.0, lip
    if isinstance(risk, Entropic):
        underflow, log_s = extra
        rel = (m + 1) * u + _LIBM_ERR + underflow + (_LIBM_ERR + 3 * u) * log_s
        return (7 * u + 2 * _LIBM_ERR) * f, (rel * f + log_s) / risk.gamma, 1.0
    if isinstance(risk, Mixture):
        w1, w2 = risk.weight, 1.0 - risk.weight
        a1, b1, l1 = _kind_bound(risk.first, m, ds, delta, extra)
        a2, b2, l2 = _kind_bound(risk.second, m, ds, delta, extra)
        slope = w1 * a1 + w2 * a2 + 2 * u * (w1 * (l1 + a1) + w2 * (l2 + a2))
        floor = (w1 * b1 + w2 * b2) * (1.0 + 4 * u)
        return slope * f, floor * f, (w1 * l1 + w2 * l2) * f
    raise InvalidSpec(f"unknown risk specification {risk!r}")


def _row_laws(risk: RiskMeasure, values: np.ndarray, probs: np.ndarray) -> tuple[_RowLaws, list]:
    """The laws of the rows of ``values`` and their ``_weights``."""
    law = _RowLaws(values, probs)
    return law, _weights(risk, law)


def _risk_values_of_rows(risk: RiskMeasure, values: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Risk value of the law of each row of ``values`` under ``probs``.

    ``probs`` must be ascending, with the columns of ``values`` in the
    same order. Entry i is bit-identical to ``_risk_value_of_pairs(risk,
    zip(values[i], probs))``: the batch reproduces the scalar route's
    sort, exact-equality merge, sequential telescoping and correctly
    rounded sums. Used by the Bellman sweep and the bound verification.
    """
    law, weights = _row_laws(risk, values, probs)
    return _row_values(risk, law, iter(weights))


# ---------------------------------------------------------------------------
# Dual representation of coherent members


def _dual_density_sorted(risk: RiskMeasure, probs: Sequence[float]) -> list[float]:
    """Maximizing dual density aligned with the value-ascending order.

    For expected shortfall this is the greedy fill from the largest values
    under the cap p_i / (1 - level); for concave distortions the survival
    increments g(S_{i-1}) - g(S_i); for spectra the cumulative increments
    of gbar. Raises NotCoherent for anything without a sup-of-expectations
    representation.
    """
    m = len(probs)
    if isinstance(risk, Expectation):
        return list(probs)
    if isinstance(risk, ExpectedShortfall):
        cap = 1.0 / (1.0 - risk.level)
        q = [0.0] * m
        remaining = 1.0
        for i in range(m - 1, -1, -1):
            if remaining <= 0.0:
                break
            take = probs[i] * cap
            if take > remaining:
                take = remaining
            q[i] = take
            remaining -= take
        return q
    if isinstance(risk, Distortion):
        if not risk.g.is_concave():
            raise NotCoherent(f"{describe(risk)} is not coherent (non-concave distortion)")
        surv, _ = _levels(probs)
        g = risk.g
        gs = [g(s) for s in surv]
        return [gs[i] - gs[i + 1] for i in range(m)]
    if isinstance(risk, Spectral):
        _, cum = _levels(probs)
        gbar = risk.phi.gbar
        q = []
        prev = 0.0
        for f in cum:
            cur = gbar(f)
            q.append(cur - prev)
            prev = cur
        return q
    if isinstance(risk, Mixture):
        w = risk.weight
        q1 = _dual_density_sorted(risk.first, probs)
        q2 = _dual_density_sorted(risk.second, probs)
        return [w * a + (1.0 - w) * b for a, b in zip(q1, q2)]
    raise NotCoherent(f"{describe(risk)} has no dual representation as a sup of expectations")


def dual_sup(risk: RiskMeasure, dist: DiscreteDistribution) -> tuple[float, tuple[float, ...]]:
    """Value and maximizer of sup_Q E_Q[X] over the dual set of a coherent measure.

    The density is returned with respect to the atoms of ``dist`` (which
    are sorted ascending). The value agrees with :func:`evaluate` up to
    floating-point noise well below 1e-12.
    """
    q = _dual_density_sorted(risk, dist.probs)
    value = _fsum(a * qi for a, qi in zip(dist.atoms, q))
    return value, tuple(q)


# ---------------------------------------------------------------------------
# Axiom checking


@dataclass(frozen=True)
class PropertyCheck:
    """Outcome of one axiom over all trials."""

    name: str
    status: str  # "PASS" | "FAIL" | "NOT_ASSERTED"
    trials: int
    max_violation: float
    witness: dict | None = None


@dataclass(frozen=True)
class AxiomReport:
    risk: str
    seed: int
    trials: int
    passed: bool = field(init=False)  # no check FAILs; before ``checks``, as a report lists it
    checks: tuple[PropertyCheck, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", all(c.status != "FAIL" for c in self.checks))

    def check(self, name: str) -> PropertyCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def random_distribution(rng: np.random.Generator) -> DiscreteDistribution:
    """Support size uniform in {2..8}, atoms uniform in [-10, 10], simplex weights."""
    m = int(rng.integers(2, 9))
    atoms = rng.uniform(-10.0, 10.0, m)
    probs = rng.dirichlet(np.ones(m))
    return make_distribution(atoms.tolist(), probs.tolist())


def random_coupling(rng: np.random.Generator) -> tuple[list[float], list[float], list[float]]:
    """A joint finite sample space: weights w and paired outcomes (x_i, y_i)."""
    n = int(rng.integers(2, 9))
    w = rng.dirichlet(np.ones(n)).tolist()
    xs = rng.uniform(-10.0, 10.0, n).tolist()
    ys = rng.uniform(-10.0, 10.0, n).tolist()
    return w, xs, ys


def _random_monotone_map(rng: np.random.Generator) -> Callable[[float], float]:
    s0 = float(rng.uniform(0.0, 2.0))
    kinks = [(float(rng.uniform(-8.0, 8.0)), float(rng.uniform(0.0, 1.5))) for _ in range(2)]
    c = float(rng.uniform(-5.0, 5.0))

    def h(x: float) -> float:
        acc = c + s0 * x
        for t, k in kinks:
            if x > t:
                acc += k * (x - t)
        return acc

    return h


def _claims(risk: RiskMeasure) -> set[str]:
    claims = {"normalization", "translation_invariance", "monotonicity"}
    if is_positive_homogeneous(risk):
        claims.add("positive_homogeneity")
    if is_comonotonic_additive(risk):
        claims.add("comonotonic_additivity")
    if is_coherent(risk):
        claims.update({"subadditivity", "triangle_inequality", "complementary_subadditivity"})
    return claims


def _levels_of(risk: RiskMeasure) -> list[float]:
    levels = []
    for part in _parts(risk):
        if isinstance(part, (ValueAtRisk, ExpectedShortfall)):
            levels.append(part.level)
        elif isinstance(part, Distortion) and part.g.level is not None:
            levels.append(part.g.level)
    return levels


def _subadditivity_battery(risk: RiskMeasure) -> list[tuple[list[float], list[float], list[float]]]:
    # Disjoint-tail couplings: each of X, Y carries a loss of 10 on its own
    # small event, so the sum doubles the tail mass past the quantile level.
    couplings = []
    levels = sorted(set([0.5, 0.7, 0.9, 0.95, 0.99] + _levels_of(risk)))
    for lvl in levels:
        if not 0.0 < lvl < 1.0:
            continue
        tau = 0.8 * (1.0 - lvl)
        couplings.append(([1.0 - 2.0 * tau, tau, tau], [0.0, 10.0, 0.0], [0.0, 0.0, 10.0]))
    return couplings


def check_axioms(risk: RiskMeasure, trials: int, seed: int = 0) -> AxiomReport:
    """Probe the classical risk-measure axioms on pseudo-random inputs.

    Properties that the specification class guarantees are asserted at
    tolerance ``AXIOM_TOL`` and reported PASS/FAIL; properties outside the
    guarantee are probed anyway and reported NOT_ASSERTED, with a witness
    recorded whenever a violation is observed (useful as a negative
    control, e.g. quantile-based measures and subadditivity).
    """
    if trials < 1:
        raise InvalidSpec("at least one trial is required")
    rng = np.random.default_rng(seed)
    claims = _claims(risk)
    names = [
        "normalization",
        "translation_invariance",
        "positive_homogeneity",
        "monotonicity",
        "comonotonic_additivity",
        "subadditivity",
        "triangle_inequality",
        "complementary_subadditivity",
    ]
    worst: dict[str, float] = {n: 0.0 for n in names}
    witness: dict[str, dict | None] = {n: None for n in names}
    counts: dict[str, int] = {n: 0 for n in names}

    def record(name: str, violation: float, payload: dict) -> None:
        counts[name] += 1
        if violation > worst[name]:
            worst[name] = violation
            if violation > AXIOM_TOL and witness[name] is None:
                witness[name] = payload

    def law(values: Sequence[float], weights: Sequence[float]) -> DiscreteDistribution:
        return make_distribution(list(values), list(weights))

    zero = make_distribution([0.0], [1.0])
    record("normalization", abs(evaluate(risk, zero)), {"input": "point mass at 0"})

    pos_hom_extra = [(2.0, make_distribution([0.0, 1.0], [0.5, 0.5])),
                     (0.5, make_distribution([-3.0, 5.0], [0.3, 0.7]))]
    sub_extra = _subadditivity_battery(risk)

    for t in range(trials):
        d = random_distribution(rng)
        rho_d = evaluate(risk, d)

        m = float(rng.uniform(-5.0, 5.0))
        shifted = evaluate(risk, pushforward(d, lambda x: x + m))
        record(
            "translation_invariance",
            abs(shifted - (rho_d + m)),
            {"atoms": list(d.atoms), "probs": list(d.probs), "shift": m},
        )

        lam = float(rng.uniform(0.0, 3.0))
        if lam == 0.0:
            lam = 1.0
        scaled = evaluate(risk, pushforward(d, lambda x: lam * x))
        record(
            "positive_homogeneity",
            abs(scaled - lam * rho_d),
            {"atoms": list(d.atoms), "probs": list(d.probs), "lambda": lam},
        )
        if t < len(pos_hom_extra):
            lam2, d2 = pos_hom_extra[t]
            v = abs(evaluate(risk, pushforward(d2, lambda x: lam2 * x)) - lam2 * evaluate(risk, d2))
            record("positive_homogeneity", v,
                   {"atoms": list(d2.atoms), "probs": list(d2.probs), "lambda": lam2})

        w, xs, ys = random_coupling(rng)
        dom = [x + float(rng.uniform(0.0, 4.0)) for x in xs]
        record(
            "monotonicity",
            evaluate(risk, law(xs, w)) - evaluate(risk, law(dom, w)),
            {"weights": w, "low": xs, "high": dom},
        )

        h1 = _random_monotone_map(rng)
        h2 = _random_monotone_map(rng)
        both = evaluate(risk, pushforward(d, lambda x: h1(x) + h2(x)))
        split = evaluate(risk, pushforward(d, h1)) + evaluate(risk, pushforward(d, h2))
        record(
            "comonotonic_additivity",
            abs(both - split),
            {"atoms": list(d.atoms), "probs": list(d.probs)},
        )

        pairs = [(w, xs, ys)]
        if t < len(sub_extra):
            pairs.append(sub_extra[t])
        for cw, cx, cy in pairs:
            rho_x = evaluate(risk, law(cx, cw))
            rho_y = evaluate(risk, law(cy, cw))
            rho_sum = evaluate(risk, law([a + b for a, b in zip(cx, cy)], cw))
            payload = {"weights": cw, "x": cx, "y": cy}
            record("subadditivity", rho_sum - (rho_x + rho_y), payload)
            rho_absdiff = evaluate(risk, law([abs(a - b) for a, b in zip(cx, cy)], cw))
            record("triangle_inequality", abs(rho_x - rho_y) - rho_absdiff, payload)
            rho_neg_y = evaluate(risk, law([-b for b in cy], cw))
            record("complementary_subadditivity", (rho_x - rho_neg_y) - rho_sum, payload)

    checks = []
    for name in names:
        violated = worst[name] > AXIOM_TOL
        if name in claims:
            status = "FAIL" if violated else "PASS"
        else:
            status = "NOT_ASSERTED"
        checks.append(
            PropertyCheck(
                name=name,
                status=status,
                trials=counts[name],
                max_violation=worst[name],
                witness=witness[name],
            )
        )
    return AxiomReport(risk=describe(risk), seed=seed, trials=trials, checks=tuple(checks))
