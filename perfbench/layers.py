"""Layer boundaries of riskmdp and the per-layer metrics derived from their spans.

Each boundary is a public function, traced where its caller looks it up.
The per-layer metrics are per pass over a workload's batch; ratios are
formed from the totals over all traced passes.
"""

from __future__ import annotations

import os
from pathlib import Path

from spans import Tracer

RISK_KINDS = (
    "expectation",
    "value_at_risk",
    "expected_shortfall",
    "spectral",
    "entropic",
    "mixture",
)

_KIND_OF_CLASS = {
    "Expectation": "expectation",
    "ValueAtRisk": "value_at_risk",
    "ExpectedShortfall": "expected_shortfall",
    "Spectral": "spectral",
    "Entropic": "entropic",
    "Mixture": "mixture",
}


def risk_kind(risk) -> str:
    return _KIND_OF_CLASS[type(risk).__name__]


def _bellman_attr(args, kwargs, result):
    model, risk = args[0], args[1]
    pairs = sum(len(row) for row in model.admissible)
    return risk_kind(risk), pairs, model.n_states * model.n_actions


def _equivalence_attr(args, kwargs, result):
    return result.n_policies or 0


def _cli_attr(args, kwargs, result):
    argv = args[0]
    outdir = Path(argv[argv.index("--out") + 1])
    written = sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())
    return os.path.getsize(argv[1]), written


# (defining module, function, caller modules whose binding is replaced, attribute)
BOUNDARIES = (
    ("examples", "build_casino", ("examples",), None),
    ("mdp_core", "bellman_T", ("solvers",), _bellman_attr),
    ("mdp_core", "verify_bounds", ("solvers",), None),
    ("mdp_core", "validate_model", ("cli",), None),
    ("model_io", "parse_model_file", ("cli",), None),
    ("solvers", "solve_infinite", ("cli",), None),
    ("solvers", "solve_finite", ("solvers", "robust_check"), None),
    ("robust_check", "verify_equivalence", ("robust_check",), _equivalence_attr),
    ("robust_check", "robust_game_value", ("robust_check",), None),
    ("robust_check", "nature_best_response", ("robust_check",), None),
    ("robust_check", "robust_value_iteration", ("robust_check",), None),
    ("cli", "main", ("cli",), _cli_attr),
)


def make_tracer(lib) -> Tracer:
    """A tracer bound to every layer boundary of the loaded riskmdp modules.

    Raises RuntimeError when a caller no longer binds the function it is
    expected to call, so a rerouted call is reported instead of silently
    leaving a boundary untraced.
    """
    tracer = Tracer()
    for home, func_name, callers, attr in BOUNDARIES:
        original = getattr(getattr(lib, home), func_name)
        traced = tracer.wrapper(f"{home}.{func_name}", original, attr)
        for caller in callers:
            module = getattr(lib, caller)
            if getattr(module, func_name, None) is not original:
                raise RuntimeError(
                    f"riskmdp.{caller}.{func_name} is no longer riskmdp.{home}.{func_name}; "
                    "update the benchmark's layer boundaries"
                )
            tracer.bind(module, func_name, traced)
    return tracer


# Per-layer metric name -> (unit, spans it is computed from).
PER_LAYER = {
    "examples.build_s": ("s", ("examples.build_casino",)),
    "mdp_core.bellman_T.calls": ("count", ("mdp_core.bellman_T",)),
    "mdp_core.bellman_T.pairs": ("count", ("mdp_core.bellman_T",)),
    "mdp_core.bellman_T.self_s": ("s", ("mdp_core.bellman_T",)),
    **{
        f"mdp_core.bellman_T.ns_per_pair.{kind}": ("ns", (f"mdp_core.bellman_T[{kind}]",))
        for kind in RISK_KINDS
    },
    "mdp_core.verify_bounds_s": ("s", ("mdp_core.verify_bounds",)),
    "mdp_core.validate_model_s": ("s", ("mdp_core.validate_model",)),
    "mdp_core.admissible_frac": ("ratio", ("mdp_core.bellman_T",)),
    "solvers.sweeps": ("count", ("solvers.solve_infinite", "mdp_core.bellman_T")),
    "solvers.solve_infinite.self_s": ("s", ("solvers.solve_infinite",)),
    "solvers.solve_finite.self_s": ("s", ("solvers.solve_finite",)),
    "robust_check.policies": ("count", ("robust_check.verify_equivalence",)),
    "robust_check.nature_best_response.calls": ("count", ("robust_check.nature_best_response",)),
    "robust_check.nature_best_response.self_s": ("s", ("robust_check.nature_best_response",)),
    "robust_check.us_per_policy": (
        "us",
        ("robust_check.verify_equivalence", "robust_check.nature_best_response"),
    ),
    "robust_check.robust_game_value_s": ("s", ("robust_check.robust_game_value",)),
    "robust_check.robust_value_iteration.self_s": ("s", ("robust_check.robust_value_iteration",)),
    "model_io.parse_s": ("s", ("model_io.parse_model_file",)),
    "model_io.bytes_in": ("bytes", ("cli.main",)),
    "cli.self_s": ("s", ("cli.main",)),
    "cli.bytes_out": ("bytes", ("cli.main",)),
    "trace.overhead_frac": ("ratio", ()),
}


def per_layer_metrics(tracer: Tracer, passes: int) -> tuple[dict, dict]:
    """Per-pass metric values and the number of spans fired per span key.

    Span keys are the boundary names plus ``mdp_core.bellman_T[<kind>]``
    per risk kind. A metric of a layer the workload does not reach reads
    0; whether it was expected to fire is decided by the caller.
    """
    spans = tracer.spans
    self_s = tracer.self_times()
    fired: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for i, (name, _, t0, t1, attr) in enumerate(spans):
        keys = [name]
        if name == "mdp_core.bellman_T":
            keys.append(f"mdp_core.bellman_T[{attr[0]}]")
        for key in keys:
            fired[key] = fired.get(key, 0) + 1
            total[key] = total.get(key, 0.0) + (t1 - t0)
            own[key] = own.get(key, 0.0) + self_s[i]

    pairs = {kind: 0 for kind in RISK_KINDS}
    all_pairs = cells = policies = bytes_in = bytes_out = 0
    sweeps = 0
    for name, parent, _, _, attr in spans:
        if name == "mdp_core.bellman_T":
            kind, n_pairs, n_cells = attr
            pairs[kind] = pairs.get(kind, 0) + n_pairs
            all_pairs += n_pairs
            cells += n_cells
            if parent >= 0 and spans[parent][0] == "solvers.solve_infinite":
                sweeps += 1
        elif name == "robust_check.verify_equivalence":
            policies += attr
        elif name == "cli.main":
            bytes_in += attr[0]
            bytes_out += attr[1]

    def per_pass(value: float) -> float:
        return value / passes

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    out = {
        "examples.build_s": per_pass(total.get("examples.build_casino", 0.0)),
        "mdp_core.bellman_T.calls": per_pass(fired.get("mdp_core.bellman_T", 0)),
        "mdp_core.bellman_T.pairs": per_pass(all_pairs),
        "mdp_core.bellman_T.self_s": per_pass(own.get("mdp_core.bellman_T", 0.0)),
    }
    for kind in RISK_KINDS:
        out[f"mdp_core.bellman_T.ns_per_pair.{kind}"] = ratio(
            own.get(f"mdp_core.bellman_T[{kind}]", 0.0), pairs[kind], 1e9
        )
    # the enumeration phase of verify_equivalence: everything but the
    # primal solve and the game value, i.e. its own time plus the best responses
    enumeration = own.get("robust_check.verify_equivalence", 0.0) + total.get(
        "robust_check.nature_best_response", 0.0
    )
    out.update(
        {
            "mdp_core.verify_bounds_s": per_pass(total.get("mdp_core.verify_bounds", 0.0)),
            "mdp_core.validate_model_s": per_pass(total.get("mdp_core.validate_model", 0.0)),
            "mdp_core.admissible_frac": ratio(all_pairs, cells),
            "solvers.sweeps": ratio(sweeps, fired.get("solvers.solve_infinite", 0)),
            "solvers.solve_infinite.self_s": per_pass(own.get("solvers.solve_infinite", 0.0)),
            "solvers.solve_finite.self_s": per_pass(own.get("solvers.solve_finite", 0.0)),
            "robust_check.policies": per_pass(policies),
            "robust_check.nature_best_response.calls": per_pass(
                fired.get("robust_check.nature_best_response", 0)
            ),
            "robust_check.nature_best_response.self_s": per_pass(
                own.get("robust_check.nature_best_response", 0.0)
            ),
            "robust_check.us_per_policy": ratio(enumeration, policies, 1e6),
            "robust_check.robust_game_value_s": per_pass(
                total.get("robust_check.robust_game_value", 0.0)
            ),
            "robust_check.robust_value_iteration.self_s": per_pass(
                own.get("robust_check.robust_value_iteration", 0.0)
            ),
            "model_io.parse_s": per_pass(total.get("model_io.parse_model_file", 0.0)),
            "model_io.bytes_in": per_pass(bytes_in),
            "cli.self_s": per_pass(own.get("cli.main", 0.0)),
            "cli.bytes_out": per_pass(bytes_out),
        }
    )
    return out, fired
