"""Independent oracles and fixture generators shared across the tests.

The dynamic-programming oracles here are deliberately written as plain
triple loops over the tables, with their own accumulation order and the
same smallest-index tie-breaking, so they share no code with the solver
they check.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from riskmdp.mdp_core import MdpModel


def _plain_tables(model: MdpModel):
    """Cost and successor tables as nested lists of Python floats and ints."""
    return np.asarray(model.cost).tolist(), np.asarray(model.transition).tolist()


def classic_finite_dp(model: MdpModel, horizon: int):
    """Expected-cost backward induction; returns (values by stage, rules by stage)."""
    beta = model.discount
    zs = list(model.z_indices)
    ps = list(model.disturbance.probs)
    cost, succ = _plain_tables(model)
    J = list(model.terminal_cost)
    values = [list(J)]
    rules = []
    for _ in range(horizon):
        new_J = []
        rule = []
        for x in range(model.n_states):
            best = None
            best_a = -1
            for a in model.admissible[x]:
                acc = 0.0
                for z, p in zip(zs, ps):
                    acc += p * (cost[x][a][z] + beta * J[succ[x][a][z]])
                if best is None or acc < best:
                    best = acc
                    best_a = a
            new_J.append(best)
            rule.append(best_a)
        J = new_J
        values.append(list(J))
        rules.append(rule)
    values.reverse()
    rules.reverse()
    return values, rules


def classic_infinite_vi(model: MdpModel, tol: float = 1e-13, max_iter: int = 10**6):
    """Expected-cost value iteration to the fixed point; returns (values, rule)."""
    beta = model.discount
    zs = list(model.z_indices)
    ps = list(model.disturbance.probs)
    cost, succ = _plain_tables(model)
    J = [0.0] * model.n_states

    def sweep(current):
        new_J = []
        rule = []
        for x in range(model.n_states):
            best = None
            best_a = -1
            for a in model.admissible[x]:
                acc = 0.0
                for z, p in zip(zs, ps):
                    acc += p * (cost[x][a][z] + beta * current[succ[x][a][z]])
                if best is None or acc < best:
                    best = acc
                    best_a = a
            new_J.append(best)
            rule.append(best_a)
        return new_J, rule

    for _ in range(max_iter):
        new_J, rule = sweep(J)
        residual = max(abs(a - b) for a, b in zip(new_J, J))
        J = new_J
        if beta < 1.0 and residual * beta / (1.0 - beta) <= tol:
            break
    _, rule = sweep(J)
    return J, rule


def brute_expected_shortfall(values, probs, level: float) -> float:
    """Tail average by explicit mass-walking over the sorted outcomes."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    tail = 1.0 - level
    acc = 0.0
    seen = 0.0
    for i in reversed(order):
        take = min(probs[i], tail - seen)
        if take <= 0.0:
            break
        acc += values[i] * take
        seen += take
    return acc / tail


def brute_quantile(values, probs, level: float) -> float:
    """Smallest outcome whose running mass reaches the level."""
    pairs = sorted(zip(values, probs))
    acc = 0.0
    for v, p in pairs:
        acc += p
        if acc >= level:
            return v
    return pairs[-1][0]


def quantile_integral_mean(dist) -> float:
    """Mean via the exact piecewise integral of the quantile function."""
    total = 0.0
    prev = 0.0
    for atom, f in zip(dist.atoms, dist.cum_levels):
        total += atom * (f - prev)
        prev = f
    return total


def distortion_via_survival_integral(g, dist) -> float:
    """Distorted-survival integral oracle, exact on the step survival function.

    Computes integral_0^inf g(S(x)) dx minus integral_{-inf}^0 (1 - g(S(x))) dx
    segment by segment; S is constant between atoms so both integrals are
    finite sums. Independent of the telescoping-sum evaluation it checks.
    """
    atoms = list(dist.atoms)
    surv = list(dist.survival_levels)  # S_0 .. S_m, levels left of each atom gap
    points = sorted(set(atoms + [0.0]))
    total = 0.0
    for lo, hi in zip(points, points[1:]):
        # survival level on (lo, hi): mass strictly above lo
        k = sum(1 for a in atoms if a <= lo)
        level = surv[k]
        if lo >= 0.0:
            total += g(level) * (hi - lo)
        else:
            total -= (1.0 - g(level)) * (hi - lo)
    # outside [min(points), max(points)] both integrands vanish:
    # S = 1 below the support (1 - g(1) = 0) and S = 0 above it (g(0) = 0)
    return total


def make_random_model(
    rng: np.random.Generator,
    max_states: int = 6,
    max_actions: int = 4,
    max_outcomes: int = 5,
    beta: float = 0.9,
    cost_lo: float = -1.0,
    cost_hi: float = 1.0,
    zero_terminal: bool = False,
) -> MdpModel:
    """Seeded random tabular model with nonempty admissible sets."""
    from riskmdp.distributions import make_distribution

    S = int(rng.integers(2, max_states + 1))
    A = int(rng.integers(1, max_actions + 1))
    K = int(rng.integers(2, max_outcomes + 1)) if max_outcomes >= 2 else 1
    admissible = []
    for _ in range(S):
        size = int(rng.integers(1, A + 1))
        admissible.append(tuple(sorted(rng.choice(A, size=size, replace=False).tolist())))
    transition = tuple(
        tuple(tuple(int(v) for v in rng.integers(0, S, K)) for _ in range(A)) for _ in range(S)
    )
    cost = tuple(
        tuple(tuple(float(v) for v in rng.uniform(cost_lo, cost_hi, K)) for _ in range(A))
        for _ in range(S)
    )
    terminal = (
        tuple(0.0 for _ in range(S))
        if zero_terminal
        else tuple(float(v) for v in rng.uniform(cost_lo, cost_hi, S))
    )
    probs = rng.dirichlet(np.ones(K)).tolist()
    return MdpModel(
        n_states=S,
        n_actions=A,
        admissible=tuple(admissible),
        disturbance=make_distribution(list(range(K)), probs),
        transition=transition,
        cost=cost,
        terminal_cost=terminal,
        discount=beta,
    )


def make_enumeration_model(rng: np.random.Generator) -> MdpModel:
    """Small zero-terminal model sized for exhaustive policy enumeration."""
    return make_random_model(
        rng, max_states=3, max_actions=2, max_outcomes=3, beta=0.9, zero_terminal=True
    )


def make_huge_cost_model(seed: int) -> MdpModel:
    """Seeded 7-state, 2-action, 5-outcome model with costs and terminal costs near the float range.

    Its stage values overflow to both -inf and +inf, so a correctly
    rounded stage sum meets -inf + inf.
    """
    from riskmdp.distributions import make_distribution

    rng = np.random.default_rng(seed)
    S, A, K = 7, 2, 5
    return MdpModel(
        n_states=S,
        n_actions=A,
        admissible=((0, 1),) * S,
        disturbance=make_distribution(list(range(K)), rng.dirichlet(np.ones(K)).tolist()),
        transition=rng.integers(0, S, (S, A, K)).tolist(),
        cost=(rng.uniform(-1.0, 1.0, (S, A, K)) * 1.7e308).tolist(),
        terminal_cost=(rng.uniform(-1.0, 1.0, S) * 1.7e308).tolist(),
    )


# ---------------------------------------------------------------------------
# Exact stage values, the reference of the batched evaluation's rounding bound

EXACT_DIGITS = 60  # decimal precision of the entropic kind's exp and log


def _exact_law(atoms, probs):
    """Distinct sorted atoms and exact cumulative levels min(1, mass up to the atom), the top one 1."""
    pairs = sorted(zip(atoms, probs))
    values, masses = [], []
    for a, p in pairs:
        if values and a == values[-1]:
            masses[-1] += Fraction(p)
        else:
            values.append(a)
            masses.append(Fraction(p))
    cum, acc = [], Fraction(0)
    for w in masses:
        acc += w
        cum.append(min(acc, Fraction(1)))
    cum[-1] = Fraction(1)
    return [Fraction(a) for a in values], cum


def _exact_distortion(g, t):
    if g.form == "identity":
        return t
    if g.form == "var_indicator":
        return Fraction(1) if t > 1 - Fraction(g.level) else Fraction(0)
    if g.form == "es_cap":
        return min(t / (1 - Fraction(g.level)), Fraction(1))
    knots = [(Fraction(u), Fraction(v)) for u, v in g.knots]
    if t <= 0:
        return Fraction(0)
    if t >= 1:
        return Fraction(1)
    for (u0, g0), (u1, g1) in zip(knots, knots[1:]):
        if u0 <= t <= u1:
            return g0 + (g1 - g0) * (t - u0) / (u1 - u0)
    raise AssertionError("knots cover [0, 1]")


def _exact_gbar(phi, t):
    """The integral of the step spectrum from 0 to t, exactly; at t = 1 its whole mass."""
    steps = [(Fraction(u), Fraction(p)) for u, p in phi.breakpoints]
    total = Fraction(0)
    for j, (u, p) in enumerate(steps):
        right = steps[j + 1][0] if j + 1 < len(steps) else Fraction(1)
        total += p * (max(min(t, right), u) - u)
    return total


def exact_stage_value(risk, atoms, probs):
    """The exact value of ``risk`` on the law of float ``atoms`` weighted by float ``probs``.

    Real arithmetic on the given floats: Fractions for the linear kinds and
    60-digit decimals for the entropic kind's exp and log (a mixture with an
    entropic part is a Decimal). The expectation is sum p a, whatever the
    probabilities sum to; the level kinds read the levels of ``_exact_law``.
    Value at risk, which has no finite rounding bound, is not covered.
    Shares no code with ``riskmdp``.
    """
    from riskmdp.risk_measures import (
        Distortion,
        Entropic,
        Expectation,
        ExpectedShortfall,
        Mixture,
        Spectral,
    )

    if isinstance(risk, Expectation):
        return sum((Fraction(a) * Fraction(p) for a, p in zip(atoms, probs)), Fraction(0))
    if isinstance(risk, Entropic):
        with localcontext() as ctx:
            ctx.prec = EXACT_DIGITS
            gamma = Decimal(risk.gamma)
            total = sum(Decimal(p) * (gamma * Decimal(a)).exp() for a, p in zip(atoms, probs))
            return total.ln() / gamma
    if isinstance(risk, Mixture):
        first = exact_stage_value(risk.first, atoms, probs)
        second = exact_stage_value(risk.second, atoms, probs)
        w1, w2 = risk.weight, 1.0 - risk.weight
        if isinstance(first, Decimal) or isinstance(second, Decimal):
            with localcontext() as ctx:
                ctx.prec = EXACT_DIGITS
                return Decimal(w1) * _decimal(first) + Decimal(w2) * _decimal(second)
        return Fraction(w1) * first + Fraction(w2) * second
    values, cum = _exact_law(atoms, probs)
    previous = [Fraction(0)] + cum[:-1]
    if isinstance(risk, ExpectedShortfall):
        alpha = Fraction(risk.level)
        weights = [max(f, alpha) - max(e, alpha) for e, f in zip(previous, cum)]
        return sum((a * w for a, w in zip(values, weights)), Fraction(0)) / (1 - alpha)
    if isinstance(risk, Distortion):
        return sum(
            (a * (_exact_distortion(risk.g, 1 - e) - _exact_distortion(risk.g, 1 - f)) for a, e, f in zip(values, previous, cum)),
            Fraction(0),
        )
    if isinstance(risk, Spectral):
        return sum(
            (a * (_exact_gbar(risk.phi, f) - _exact_gbar(risk.phi, e)) for a, e, f in zip(values, previous, cum)),
            Fraction(0),
        )
    raise AssertionError(f"unknown kind {risk!r}")


def _decimal(x):
    return x if isinstance(x, Decimal) else Decimal(x.numerator) / Decimal(x.denominator)


def exact_difference(computed, exact):
    """computed - exact, exactly for a Fraction and at 60 digits for a Decimal."""
    if isinstance(exact, Decimal):
        with localcontext() as ctx:
            ctx.prec = EXACT_DIGITS
            return Decimal(computed) - exact
    return Fraction(computed) - exact
