"""Seeded workloads: generated inputs, timed instances and their independent checks.

Every workload is a fixed batch of instances. The seed decides the
numbers inside the inputs (tables, spectra, mixture weights, order) but
never their sizes, so the amount of work in a batch is the same on every
seed. ``solve`` is the timed call into riskmdp; ``prepare`` and
``check`` run outside the timed region, before and after it, and
``check`` returns a failure message or None.

Every pass over a batch solves the same inputs again, so a cache kept
across calls would shorten every pass after the first; ``run.py`` prints
the first pass's time next to the median for that reason.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from layers import risk_kind

TOL = 1e-8  # infinite-horizon accuracy, certified by the a-posteriori bound
DISCOUNT = 0.9


@dataclass
class Instance:
    name: str
    solve: Callable[[], object]
    check: Callable[[object], "str | None"]
    prepare: Callable[[], None] = lambda: None


@dataclass
class Batch:
    instances: list
    digest: str  # sha256 of the generated inputs, identical for identical seeds
    spans: frozenset  # span keys the traced run must see fire


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _step_spectrum(lib, rng):
    """A three-step nondecreasing spectrum with seeded steps and heights."""
    u1, u2 = sorted(float(u) for u in rng.uniform(0.1, 0.9, 2))
    raw = sorted(float(r) for r in rng.uniform(0.2, 2.0, 3))
    mass = raw[0] * u1 + raw[1] * (u2 - u1) + raw[2] * (1.0 - u2)
    steps = ((0.0, raw[0] / mass), (u1, raw[1] / mass), (u2, raw[2] / mass))
    rm = lib.risk_measures
    return rm.Spectral(rm.StepSpectrum(steps))


def _es_mixture(lib, rng, level: float):
    rm = lib.risk_measures
    weight = float(rng.uniform(0.25, 0.75))
    return rm.Mixture(weight, rm.ExpectedShortfall(level), rm.Expectation())


def _raw_tables(rng, n_states, n_actions, n_outcomes, sizes, cost_range, zero_terminal):
    """Random tables whose admissible-set sizes are a permutation of ``sizes``."""
    admissible = [
        sorted(rng.choice(n_actions, size=int(s), replace=False).tolist())
        for s in rng.permutation(np.asarray(sizes))
    ]
    shape = (n_states, n_actions, n_outcomes)
    transition = rng.integers(0, n_states, shape).tolist()
    cost = rng.uniform(*cost_range, shape).tolist()
    terminal = [0.0] * n_states if zero_terminal else rng.uniform(*cost_range, n_states).tolist()
    probs = rng.dirichlet(np.ones(n_outcomes)).tolist()
    return {
        "n_states": n_states,
        "n_actions": n_actions,
        "admissible": admissible,
        "disturbance": {"probs": probs},
        "transition": transition,
        "cost": cost,
        "terminal_cost": terminal,
        "discount": DISCOUNT,
    }


def _tiled_sizes(n_states, n_actions):
    return np.resize(np.arange(1, n_actions + 1), n_states)


def _model(lib, raw):
    return lib.mdp_core.MdpModel(
        n_states=raw["n_states"],
        n_actions=raw["n_actions"],
        admissible=tuple(tuple(row) for row in raw["admissible"]),
        disturbance=lib.distributions.make_distribution(
            list(range(len(raw["disturbance"]["probs"]))), raw["disturbance"]["probs"]
        ),
        transition=raw["transition"],
        cost=raw["cost"],
        terminal_cost=raw["terminal_cost"],
        discount=raw["discount"],
    )


def _bellman_keys(kinds):
    return {f"mdp_core.bellman_T[{kind}]" for kind in kinds}


# ---------------------------------------------------------------------------
# casino: the criterion-1 closed-form sweep through the library

CASINO_P = (0.25, 0.5, 0.75, 1.0)
CASINO_HORIZONS = (1, 2, 3, 4, 5)
CASINO_CAPITALS = (0, 1, 2, 3)


def casino(lib, seed: int, workdir: Path) -> Batch:
    rng = np.random.default_rng(seed)
    rm, ex, sv = lib.risk_measures, lib.examples, lib.solvers
    risks = (
        rm.Expectation(),
        rm.ExpectedShortfall(0.5),
        rm.ExpectedShortfall(0.9),
        _step_spectrum(lib, rng),
        _es_mixture(lib, rng, 0.75),
    )
    grid = [(p, risk, h) for p in CASINO_P for risk in risks for h in CASINO_HORIZONS]
    grid = [grid[i] for i in rng.permutation(len(grid))]

    def instance(p, risk, h):
        def solve():
            model = ex.build_casino(p, h, CASINO_CAPITALS)
            return sv.solve_finite(model, risk, h).values[0]

        def check(v):
            worst = max(
                abs(v[x] - ex.casino_closed_form(p, risk, h, x)) for x in CASINO_CAPITALS
            )
            return None if worst <= 1e-12 else f"closed-form error {worst:.3e}"

        return Instance(f"casino p={p} {rm.describe(risk)} h={h}", solve, check)

    return Batch(
        instances=[instance(*args) for args in grid],
        digest=_sha256(repr(grid).encode()),
        spans=frozenset(
            {"examples.build_casino", "solvers.solve_finite", "mdp_core.bellman_T"}
            | _bellman_keys({risk_kind(r) for r in risks})
        ),
    )


# ---------------------------------------------------------------------------
# infinite_cli: solve-infinite model files through the in-process CLI

# (states, actions, outcomes, risk) of the random stationary models; the
# files cycle through the six risk kinds, each with its own evaluation path
CLI_MODELS = (
    (40, 4, 8, {"kind": "expectation"}),
    (80, 6, 10, {
        "kind": "mixture", "weight": 0.5,
        "first": {"kind": "expected_shortfall", "level": 0.8},
        "second": {"kind": "expectation"},
    }),
    (120, 3, 16, {"kind": "spectral", "breakpoints": [[0.0, 0.5], [0.5, 1.5]]}),
    (160, 2, 20, {"kind": "expected_shortfall", "level": 0.9}),
    (200, 4, 4, {"kind": "value_at_risk", "level": 0.9}),
    (300, 5, 8, {"kind": "entropic", "gamma": 0.5}),
)
CASH_HALF_WIDTH = 25


def _cash_balance_doc(lib):
    ex = lib.examples
    params = ex.CashBalanceParams(
        levels=tuple(float(v) for v in range(-CASH_HALF_WIDTH, CASH_HALF_WIDTH + 1)),
        holding_cost=lambda v: v * v,
        transfer_up=1.0,
        transfer_down=1.0,
        z_law=lib.distributions.make_distribution([-1.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3]),
        beta=DISCOUNT,
    )
    model = ex.build_cash_balance(params)
    return lib.model_io.model_file_dict(
        model,
        lib.risk_measures.ExpectedShortfall(0.9),
        {"type": "solve-infinite", "tol": TOL},
        lib.mdp_core.constant_bounding_spec(model),
    )


def _random_cli_doc(rng, n_states, n_actions, n_outcomes, risk):
    raw = _raw_tables(
        rng, n_states, n_actions, n_outcomes,
        _tiled_sizes(n_states, n_actions), (0.0, 10.0), zero_terminal=True,
    )
    # inadmissible cells are null, as the model-file schema allows
    big = 0.0
    for x, row in enumerate(raw["admissible"]):
        for a in range(n_actions):
            if a in row:
                big = max(big, max(abs(c) for c in raw["cost"][x][a]))
            else:
                raw["transition"][x][a] = None
                raw["cost"][x][a] = None
    return {
        "model": raw,
        "risk": risk,
        "bounds": {"lb": [-big - 0.5] * n_states, "ub": [big + 0.5] * n_states},
        "task": {"type": "solve-infinite", "tol": TOL},
    }


class _CliCheck:
    """Verifies one CLI solve from its files; later passes must repeat the bytes."""

    FILES = ("values.csv", "policy.csv", "trace.csv")

    def __init__(self, lib, model_path: Path, outdir: Path):
        self.lib, self.model_path, self.outdir = lib, model_path, outdir
        self.verified = None

    def __call__(self, exit_code) -> "str | None":
        if exit_code != 0:
            return f"exit code {exit_code}"
        digest = _sha256(*((self.outdir / f).read_bytes() for f in self.FILES))
        if self.verified is not None:
            return None if digest == self.verified else "outputs differ from the first pass"
        problem = self._verify()
        if problem is None:
            self.verified = digest
        return problem

    def _rows(self, name):
        lines = (self.outdir / name).read_text(encoding="utf-8").splitlines()
        return [line.split(",") for line in lines[1:]]

    def _verify(self) -> "str | None":
        lib = self.lib
        doc = json.loads(self.model_path.read_text(encoding="utf-8"))
        sections = lib.model_io.parse_model_file(doc)
        model, risk, spec = sections["model"], sections["risk"], sections["bounds"]
        tol = float(sections["task"]["tol"])
        bound = float(self._rows("trace.csv")[-1][2])
        if not bound <= tol:
            return f"last error bound {bound!r} exceeds tol {tol!r}"
        values = [float(r[3]) for r in self._rows("values.csv")]
        policy = tuple(int(r[2]) for r in self._rows("policy.csv"))
        if len(values) != model.n_states or len(policy) != model.n_states:
            return "values.csv or policy.csv does not cover every state"
        _, greedy = lib.mdp_core.bellman_T(model, risk, values)
        if greedy != policy:
            return "policy.csv is not the greedy rule of the written values"
        if lib.risk_measures.is_coherent(risk):
            rc = lib.robust_check
            game = rc.robust_value_iteration(model, rc.dual_set(risk), spec, tol)
            if not game.converged:
                return "robust value iteration did not converge"
            gap = max(abs(v - w) / b for v, w, b in zip(values, game.value, spec.b()))
            if gap > bound + game.error_bound:
                return f"robust gap {gap:.3e} exceeds the certified {bound + game.error_bound:.3e}"
        return None


def infinite_cli(lib, seed: int, workdir: Path) -> Batch:
    rng = np.random.default_rng(seed)
    docs = [("cash_balance", _cash_balance_doc(lib))]
    docs += [
        (f"random_{i}_{risk['kind']}", _random_cli_doc(rng, s, a, k, risk))
        for i, (s, a, k, risk) in enumerate(CLI_MODELS)
    ]
    order = rng.permutation(len(docs))
    (workdir / "models").mkdir(parents=True)
    instances, blobs = [], []
    for i in order:
        name, doc = docs[i]
        blob = json.dumps(doc, separators=(",", ":")).encode()
        path = workdir / "models" / f"{name}.json"
        path.write_bytes(blob)
        blobs.append(blob)
        outdir = workdir / "out" / name
        argv = ["solve-infinite", str(path), "--out", str(outdir), "--quiet"]
        instances.append(
            Instance(
                name,
                lambda argv=argv: lib.cli.main(argv),
                _CliCheck(lib, path, outdir),
                # each pass writes, and is checked on, fresh files only
                lambda outdir=outdir: shutil.rmtree(outdir, ignore_errors=True),
            )
        )
    kinds = {"expected_shortfall"} | {risk["kind"] for *_, risk in CLI_MODELS}
    return Batch(
        instances=instances,
        digest=_sha256(*blobs),
        spans=frozenset(
            {
                "cli.main",
                "model_io.parse_model_file",
                "mdp_core.validate_model",
                "solvers.solve_infinite",
                "mdp_core.verify_bounds",
                "mdp_core.bellman_T",
            }
            | _bellman_keys(kinds)
        ),
    )


# ---------------------------------------------------------------------------
# robust: the dual route, policy enumeration and robust value iteration

# (states, actions, admissible-set sizes, horizon, outcomes); 10^3-10^4 policies each
ENUMERATION_SHAPES = (
    (4, 2, (2, 2, 2, 2), 3, 3),
    (3, 3, (3, 2, 2), 3, 4),
    (5, 3, (3, 2, 2, 1, 1), 3, 3),
    (6, 2, (2, 2, 2, 1, 1, 1), 4, 4),
    (3, 3, (3, 3, 3), 2, 4),
    (4, 3, (3, 2, 2, 1), 3, 3),
    (6, 2, (2, 2, 2, 2, 1, 1), 3, 4),
    (5, 2, (2, 2, 2, 2, 2), 2, 4),
)
CRITERION3_MODELS = 4  # S=3, A<=2, K=3, horizon 2, ES at 0.5, 0.7 and 0.9
RVI_SHAPES = ((40, 3, 4), (70, 3, 4), (100, 3, 4))
EQUIVALENCE_TOL = 1e-10


def robust(lib, seed: int, workdir: Path) -> Batch:
    rng = np.random.default_rng(seed)
    rm, rc = lib.risk_measures, lib.robust_check
    risks = (
        rm.ExpectedShortfall(0.5),
        rm.ExpectedShortfall(0.9),
        _step_spectrum(lib, rng),
        _es_mixture(lib, rng, 0.8),
    )
    raws = []

    def equivalence(raw, risk, horizon):
        model = _model(lib, raw)
        count = 1
        for row in model.admissible:
            count *= len(row)
        count **= horizon

        def solve():
            return rc.verify_equivalence(model, risk, horizon, EQUIVALENCE_TOL)

        def check(report):
            if not report.passed:
                return (
                    f"equivalence failed: dp-game {report.max_diff_dp_robust:.3e}, "
                    f"enumeration {report.max_diff_enumeration:.3e}"
                )
            if report.n_policies != count:
                return f"{report.n_policies} policies enumerated, expected {count}"
            return None

        return Instance(f"equivalence S={model.n_states} {rm.describe(risk)} h={horizon}", solve, check)

    def game_iteration(raw, risk):
        model = _model(lib, raw)
        spec = lib.mdp_core.constant_bounding_spec(model)
        dual = rc.dual_set(risk)
        reference = []

        def solve():
            return rc.robust_value_iteration(model, dual, spec, TOL)

        def check(game):
            if not reference:
                reference.append(lib.solvers.solve_infinite(model, risk, spec, TOL))
            primal = reference[0]
            if not (game.converged and primal.converged):
                return "robust or primal iteration did not converge"
            gap = max(abs(v - w) / b for v, w, b in zip(game.value, primal.value, spec.b()))
            if gap > game.error_bound + primal.error_bound:
                return f"robust-primal gap {gap:.3e} exceeds the certified bounds"
            if game.policy.stages != primal.policy.stages:
                return "robust and primal policies differ"
            return None

        return Instance(f"robust_vi S={model.n_states} {rm.describe(risk)}", solve, check)

    instances = []
    for i, (s, a, sizes, horizon, k) in enumerate(ENUMERATION_SHAPES):
        raw = _raw_tables(rng, s, a, k, sizes, (-1.0, 1.0), zero_terminal=False)
        raws.append(raw)
        instances.append(equivalence(raw, risks[i % len(risks)], horizon))
    for _ in range(CRITERION3_MODELS):
        raw = _raw_tables(rng, 3, 2, 3, _tiled_sizes(3, 2), (-1.0, 1.0), zero_terminal=True)
        raws.append(raw)
        for level in (0.5, 0.7, 0.9):
            instances.append(equivalence(raw, rm.ExpectedShortfall(level), 2))
    for i, (s, a, k) in enumerate(RVI_SHAPES):
        raw = _raw_tables(rng, s, a, k, _tiled_sizes(s, a), (-1.0, 1.0), zero_terminal=True)
        raws.append(raw)
        instances.append(game_iteration(raw, risks[1 + i]))
    instances = [instances[i] for i in rng.permutation(len(instances))]
    return Batch(
        instances=instances,
        digest=_sha256(json.dumps(raws).encode(), repr(risks).encode()),
        spans=frozenset(
            {
                "robust_check.verify_equivalence",
                "solvers.solve_finite",
                "mdp_core.bellman_T",
                "robust_check.robust_game_value",
                "robust_check.nature_best_response",
                "robust_check.robust_value_iteration",
                "mdp_core.verify_bounds",
            }
            | _bellman_keys({risk_kind(r) for r in risks})
        ),
    )


WORKLOADS = {"casino": casino, "infinite_cli": infinite_cli, "robust": robust}
