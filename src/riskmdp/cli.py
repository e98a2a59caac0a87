"""Command-line front end.

Usage:

    riskmdp solve-finite MODEL.json [--out DIR] [--format csv|json] [--seed N] [--quiet]
    riskmdp solve-infinite MODEL.json ...
    riskmdp verify-axioms MODEL.json ...
    riskmdp verify-bounds MODEL.json ...
    riskmdp check-contraction MODEL.json ...
    riskmdp robust-check MODEL.json ...
    riskmdp example MODEL.json ...

The model file's ``task`` section must name the same task as the
subcommand and carries the task parameters (horizon, tolerances, trials,
seeds). Outputs land in the --out directory: ``values.csv`` with columns
(stage, state, label, value), ``policy.csv`` with (stage, state,
action), ``trace.csv`` with (iteration, residual, error_bound) for the
fixed-point iteration, and ``report.json`` for the verification tasks.
Numbers in CSV files carry 17 significant digits; identical inputs and
seeds reproduce the files byte for byte.

Exit codes: 0 success, 2 validation failure (diagnostics on stderr),
3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import sys
from dataclasses import asdict
from pathlib import Path

from . import examples as ex
from .distributions import make_distribution
from .errors import RiskMdpError
from .mdp_core import validate_model, verify_bounds
from .model_io import (
    TASK_TYPES,
    ModelFileError,
    _cast,
    _field,
    _float,
    _floats,
    _int,
    _ints,
    _is_number,
    _pairs,
    model_file_dict,
    parse_model_file,
)
from .risk_measures import check_axioms, describe
from .robust_check import verify_equivalence
from .solvers import check_contraction, solve_finite, solve_infinite

__all__ = ["main", "entrypoint"]

OK, VALIDATION_FAILURE, NOT_CONVERGED = 0, 2, 3
MAX_HORIZON = 10**6  # stages: a finite solve keeps one value function and one rule per stage
MAX_TRIALS = 10**6  # about 0.1 ms per axiom trial, 0.4 ms per contraction trial at 49 states x 49 actions (x86-64)
MAX_CASINO_CELLS = 10**6  # states x bets x outcomes: about 70 MB and 0.1 s to build and validate (x86-64)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _seed_arg(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return seed


@functools.cache  # built once per process: a parse leaves the parser as it was
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="riskmdp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in TASK_TYPES:
        p = sub.add_parser(name)
        p.add_argument("model_file", help="path to the JSON model file")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=_seed_arg, default=None, help="overrides the task seed")
        p.add_argument("--quiet", action="store_true")
    return parser


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _complain(message: str) -> None:
    print(message, file=sys.stderr)


def _write_table(args, name: str, header: tuple[str, ...], rows) -> Path:
    if args.format == "json":
        return _write_json(args, f"{name}.json", [dict(zip(header, row)) for row in rows])
    return _write(args, f"{name}.csv", "".join(",".join(row) + "\n" for row in (header, *rows)))


def _write_json(args, name: str, payload) -> Path:
    return _write(args, name, json.dumps(payload, indent=2) + "\n")


def _write(args, name: str, text: str) -> Path:
    """``text`` as a new file ``name`` under ``--out``; a file there is removed, not rewritten in place."""
    path = Path(args.out) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


def _write_solution(args, model, stage_values, stage_rules) -> None:
    """``values`` and ``policy`` from (stage, value function) and (stage, decision rule) pairs."""
    labels = [""] * model.n_states if model.state_labels is None else list(map(_fmt, model.state_labels))
    rows = [(str(n), str(x), labels[x], _fmt(vf[x])) for n, vf in stage_values for x in range(model.n_states)]
    _write_table(args, "values", ("stage", "state", "label", "value"), rows)
    rows = [(str(n), str(x), str(a)) for n, rule in stage_rules for x, a in enumerate(rule)]
    _write_table(args, "policy", ("stage", "state", "action"), rows)


def _seed_for(args, task: dict) -> int:
    if args.seed is not None:
        return args.seed
    return _task_field(task, "seed", int, 0, least=0)


_REQUIRED = object()


def _task_field(task: dict, key: str, kind: type, default=_REQUIRED, least: int = 1, most: float = math.inf):
    """One task parameter, checked: ``int`` in [``least``, ``most``], finite ``float`` > 0 or ``bool``.

    An absent or null key takes ``default``, or is reported as missing.
    A value of the wrong type or range raises a located ModelFileError
    instead of being coerced.
    """
    value = task.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ModelFileError([f"task.{key} is missing"])
        return default
    number = _is_number(value)
    if kind is bool:
        ok, want = isinstance(value, bool), "a JSON boolean"
    elif kind is int:
        integral = number and (isinstance(value, numbers.Integral) or float(value).is_integer())
        ok, want = integral and value >= least, f"an integer >= {least}"
        if ok and value > most:
            ok, want = False, f"at most {most}"
    else:
        ok, want = number and 0 < value <= sys.float_info.max, "a finite number > 0"
    if not ok:
        raise ModelFileError([f"task.{key}: expected {want}, got {value!r}"])
    return kind(value)


def _refuse_invalid(model) -> None:
    """Raise every diagnostic of ``validate_model``, one per line on stderr, if there is one."""
    diags = validate_model(model)
    if diags:
        raise ModelFileError([str(d) for d in diags])


def _section(sections, name: str):
    if sections[name] is None:
        raise ModelFileError([f"{name} section is missing"])
    return sections[name]


def _single_risk(sections):
    risk = _section(sections, "risk")
    if isinstance(risk, list):
        raise ModelFileError(["this task needs a single risk specification"])
    return risk


def _run_solve_finite(args, sections) -> int:
    model, task = sections["model"], sections["task"]
    horizon = _task_field(task, "horizon", int, most=MAX_HORIZON)
    risk = _section(sections, "risk")
    result = solve_finite(model, risk, horizon)
    _write_solution(args, model, enumerate(result.values), enumerate(result.policy.stages))
    _say(args, f"solved horizon {horizon}; wrote values and policy under {args.out}")
    return OK


def _run_solve_infinite(args, sections) -> int:
    model, task = sections["model"], sections["task"]
    spec = _section(sections, "bounds")
    risk = _single_risk(sections)
    tol = _task_field(task, "tol", float)
    max_iter = _task_field(task, "max_iter", int, None)
    result = solve_infinite(model, risk, spec, tol, max_iter)
    _write_solution(args, model, [("inf", result.value)], [("inf", result.policy.stages[0])])
    trace = [(str(i), _fmt(r), _fmt(b)) for i, (r, b) in enumerate(result.trace)]
    _write_table(args, "trace", ("iteration", "residual", "error_bound"), trace)
    _say(
        args,
        f"{'converged' if result.converged else 'NOT converged'} in {result.iterations} iterations, "
        f"error bound {result.error_bound:.3e}",
    )
    return OK if result.converged else NOT_CONVERGED


def _run_verify_axioms(args, sections) -> int:
    task = sections["task"]
    risk = _single_risk(sections)
    trials = _task_field(task, "trials", int, 500, most=MAX_TRIALS)
    report = check_axioms(risk, trials, _seed_for(args, task))
    _write_json(args, "report.json", {"task": "verify-axioms", "report": asdict(report)})
    _say(args, f"axiom report for {describe(risk)}: {'PASS' if report.passed else 'FAIL'}")
    return OK


def _run_verify_bounds(args, sections) -> int:
    model = sections["model"]
    spec = _section(sections, "bounds")
    risk = _single_risk(sections)
    report = verify_bounds(model, risk, spec)
    _write_json(args, "report.json", {"task": "verify-bounds", "report": asdict(report)})
    _say(args, f"bounds {'verified' if report.ok else 'VIOLATED'} (modulus {report.modulus:g})")
    return OK


def _run_check_contraction(args, sections) -> int:
    model, task = sections["model"], sections["task"]
    spec = _section(sections, "bounds")
    risk = _single_risk(sections)
    trials = _task_field(task, "trials", int, 100, most=MAX_TRIALS)
    seed = _seed_for(args, task)
    ratio = check_contraction(model, risk, spec, trials, seed)
    modulus = spec.modulus(model.discount)
    _write_json(
        args,
        "report.json",
        {
            "task": "check-contraction",
            "max_ratio": ratio,
            "modulus": modulus,
            "trials": trials,
            "seed": seed,
            "passed": ratio <= modulus + 1e-9,
        },
    )
    _say(args, f"max contraction ratio {ratio:.6g} against modulus {modulus:g}")
    return OK


def _run_robust_check(args, sections) -> int:
    model, task = sections["model"], sections["task"]
    risk = _single_risk(sections)
    report = verify_equivalence(
        model,
        risk,
        _task_field(task, "horizon", int, most=MAX_HORIZON),
        _task_field(task, "tol", float, 1e-10),
        enumerate_policies=_task_field(task, "enumerate", bool, True),
    )
    _write_json(args, "report.json", {"task": "robust-check", "report": asdict(report)})
    _say(args, f"robust equivalence {'PASS' if report.passed else 'FAIL'} "
               f"(dp vs game {report.max_diff_dp_robust:.3e})")
    return OK


def _build_example(name: str, params: dict):
    if not isinstance(params, dict):
        raise ModelFileError([f"task.params must be an object, got {params!r}"])

    def param(key: str, cast, default=_REQUIRED):
        """``params[key]`` read by ``cast``, located as ``task.params.<key>``."""
        if default is _REQUIRED:
            return _field(params, key, cast, "task.params")
        return _cast(f"task.params.{key}", cast, params.get(key, default))

    def law(key: str):
        pairs = param(key, _pairs)
        return make_distribution([v for v, _ in pairs], [p for _, p in pairs])

    if name == "casino":
        grid = param("grid", _ints, (0, 1, 2, 3))
        win_prob, horizon, cap = param("win_prob", _float), param("horizon", _int), max(grid, default=0)
        # the top capital 2**horizon * cap is below 2**(cap.bit_length() + horizon): checked before the power
        top = 2**horizon * cap if 0 < horizon <= 40 - cap.bit_length() else 2**40
        if horizon > 0 and cap > 0 and (top + 1) * (top // 2 + 1) * (1 + (0 < win_prob < 1)) > MAX_CASINO_CELLS:
            raise ModelFileError([f"task.params.horizon = {horizon} with task.params.grid up to {cap}: the casino's "
                                  f"(state, bet, outcome) tables would hold more than {MAX_CASINO_CELLS} cells"])
        return ex.build_casino(win_prob, horizon, grid)
    if name == "house_selling":
        return ex.build_house_selling(
            ex.HouseSellingParams(
                offer_law=law("offers"),
                rent=param("rent", _float),
                beta=param("beta", _float, 1.0),
                horizon=param("horizon", _int, 2),
            )
        )
    if name == "cash_balance":
        levels = param("levels", _floats)
        table = param("holding_costs", lambda costs: dict(zip(levels, _floats(costs), strict=True)))
        return ex.build_cash_balance(
            ex.CashBalanceParams(
                levels=levels,
                holding_cost=lambda v: table[v],
                transfer_up=param("transfer_up", _float),
                transfer_down=param("transfer_down", _float),
                z_law=law("shifts"),
                beta=param("beta", _float, 0.9),
            )
        )
    if name == "var_myopic":
        labels = param("labels", _floats)
        action_shifts = param("action_shifts", _floats)

        def clamp(v: float) -> float:
            return min(max(v, labels[0]), labels[-1])

        return ex.build_var_myopic(
            ex.VarMyopicParams(
                labels=labels,
                n_actions=len(action_shifts),
                z_law=law("shifts"),
                transition=lambda x, a, z: clamp(x + action_shifts[a] + z),
                cost=lambda x, nxt: x + 2.0 * nxt,
                level=param("level", _float, 0.5),
                horizon=param("horizon", _int, 3),
            )
        )
    raise ModelFileError([f"unknown example name {name!r}"])


def _run_example(args, sections) -> int:
    task = sections["task"]
    name = task.get("name")
    params = task.get("params", {})
    downstream = task.get("task")
    if not isinstance(downstream, dict) or "type" not in downstream:
        raise ModelFileError(["example task needs a nested 'task' object"])
    model = _build_example(name, params)
    _refuse_invalid(model)
    inner = dict(sections)
    inner["model"] = model
    inner["task"] = downstream
    code = _dispatch(downstream["type"], args, inner)  # a refused nested task raises, and nothing is written
    if sections["risk"] is not None:
        _write_json(args, "model.json", model_file_dict(model, sections["risk"], downstream, sections["bounds"]))
    return code


def _dispatch(command: str, args, sections) -> int:
    run = {
        "solve-finite": _run_solve_finite,
        "solve-infinite": _run_solve_infinite,
        "verify-axioms": _run_verify_axioms,
        "verify-bounds": _run_verify_bounds,
        "check-contraction": _run_check_contraction,
        "robust-check": _run_robust_check,
        "example": _run_example,
    }.get(command)
    if run is None:
        raise ModelFileError([f"unknown command {command!r}"])
    return run(args, sections)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with open(args.model_file, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        _complain(f"cannot read {args.model_file}: {exc}")
        return VALIDATION_FAILURE
    except json.JSONDecodeError as exc:
        _complain(f"invalid JSON in {args.model_file}: {exc}")
        return VALIDATION_FAILURE
    try:
        sections = parse_model_file(doc)
        task_type = sections["task"]["type"]
        if task_type != args.command:
            _complain(f"task type {task_type!r} does not match subcommand {args.command!r}")
            return VALIDATION_FAILURE
        if sections["model"] is not None:
            _refuse_invalid(sections["model"])
        return _dispatch(args.command, args, sections)
    except ModelFileError as exc:
        for d in exc.diagnostics:
            _complain(d)
        return VALIDATION_FAILURE
    except RiskMdpError as exc:
        _complain(str(exc))
        return VALIDATION_FAILURE


def entrypoint() -> None:  # pragma: no cover - console script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entrypoint()
