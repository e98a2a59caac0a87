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
import json
import sys
from pathlib import Path

from . import examples as ex
from .distributions import make_distribution
from .errors import RiskMdpError
from .mdp_core import validate_model, verify_bounds
from .model_io import ModelFileError, model_file_dict, parse_model_file
from .risk_measures import check_axioms, describe
from .robust_check import verify_equivalence
from .solvers import check_contraction, solve_finite, solve_infinite

__all__ = ["main", "entrypoint"]

OK, VALIDATION_FAILURE, NOT_CONVERGED = 0, 2, 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="riskmdp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (
        "solve-finite",
        "solve-infinite",
        "verify-axioms",
        "verify-bounds",
        "check-contraction",
        "robust-check",
        "example",
    ):
        p = sub.add_parser(name)
        p.add_argument("model_file", help="path to the JSON model file")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=None, help="overrides the task seed")
        p.add_argument("--quiet", action="store_true")
    return parser


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _complain(message: str) -> None:
    print(message, file=sys.stderr)


def _write_table(args, name: str, header: tuple[str, ...], rows) -> Path:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.format == "csv":
        path = outdir / f"{name}.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
    else:
        path = outdir / f"{name}.json"
        payload = [dict(zip(header, row)) for row in rows]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return path


def _write_report(args, payload: dict) -> Path:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "report.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def _label(model, x: int) -> str:
    if model.state_labels is None:
        return ""
    return _fmt(model.state_labels[x])


def _values_rows(model, stage_values):
    rows = []
    for stage, vf in stage_values:
        for x in range(model.n_states):
            rows.append((str(stage), str(x), _label(model, x), _fmt(vf[x])))
    return rows


def _policy_rows(stage_rules):
    rows = []
    for stage, rule in stage_rules:
        for x, a in enumerate(rule):
            rows.append((str(stage), str(x), str(a)))
    return rows


def _seed_for(args, task: dict) -> int:
    if args.seed is not None:
        return args.seed
    return int(task.get("seed", 0))


_REQUIRED = object()


def _task_field(task: dict, key: str, kind: type, default=_REQUIRED):
    """One task parameter, checked: ``int`` >= 1, finite ``float`` > 0 or ``bool``.

    An absent or null key takes ``default``, or is reported as missing.
    A value of the wrong type or range raises a located ModelFileError
    instead of being coerced.
    """
    value = task.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ModelFileError([f"task.{key} is missing"])
        return default
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is bool:
        ok, want = isinstance(value, bool), "a JSON boolean"
    elif kind is int:
        integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
        ok, want = number and integral and value >= 1, "an integer >= 1"
    else:
        ok, want = number and 0 < value <= sys.float_info.max, "a finite number > 0"
    if not ok:
        raise ModelFileError([f"task.{key}: expected {want}, got {value!r}"])
    return kind(value)


def _single_risk(risk):
    if risk is None:
        raise ModelFileError(["risk section is missing"])
    if isinstance(risk, list):
        raise ModelFileError(["this task needs a single risk specification"])
    return risk


def _need_bounds(sections):
    if sections["bounds"] is None:
        raise ModelFileError(["bounds section is missing"])
    return sections["bounds"]


def _run_solve_finite(args, sections) -> int:
    model, task = sections["model"], sections["task"]
    horizon = _task_field(task, "horizon", int)
    risk = sections["risk"]
    if risk is None:
        raise ModelFileError(["risk section is missing"])
    result = solve_finite(model, risk, horizon)
    _write_table(
        args,
        "values",
        ("stage", "state", "label", "value"),
        _values_rows(model, list(enumerate(result.values))),
    )
    _write_table(args, "policy", ("stage", "state", "action"), _policy_rows(list(enumerate(result.policy.stages))))
    _say(args, f"solved horizon {horizon}; wrote values and policy under {args.out}")
    return OK


def _run_solve_infinite(args, sections) -> int:
    model, task = sections["model"], sections["task"]
    spec = _need_bounds(sections)
    risk = _single_risk(sections["risk"])
    tol = _task_field(task, "tol", float)
    max_iter = _task_field(task, "max_iter", int, None)
    result = solve_infinite(model, risk, spec, tol, max_iter)
    _write_table(
        args,
        "values",
        ("stage", "state", "label", "value"),
        _values_rows(model, [("inf", result.value)]),
    )
    _write_table(args, "policy", ("stage", "state", "action"), _policy_rows([("inf", result.policy.stages[0])]))
    _write_table(
        args,
        "trace",
        ("iteration", "residual", "error_bound"),
        [(str(i), _fmt(r), _fmt(b)) for i, (r, b) in enumerate(result.trace)],
    )
    _say(
        args,
        f"{'converged' if result.converged else 'NOT converged'} in {result.iterations} iterations, "
        f"error bound {result.error_bound:.3e}",
    )
    return OK if result.converged else NOT_CONVERGED


def _run_verify_axioms(args, sections) -> int:
    task = sections["task"]
    risk = _single_risk(sections["risk"])
    trials = int(task.get("trials", 500))
    report = check_axioms(risk, trials, _seed_for(args, task))
    _write_report(args, {"task": "verify-axioms", "report": report.to_dict()})
    _say(args, f"axiom report for {describe(risk)}: {'PASS' if report.passed else 'FAIL'}")
    return OK


def _run_verify_bounds(args, sections) -> int:
    model = sections["model"]
    spec = _need_bounds(sections)
    risk = _single_risk(sections["risk"])
    report = verify_bounds(model, risk, spec)
    _write_report(args, {"task": "verify-bounds", "report": report.to_dict()})
    _say(args, f"bounds {'verified' if report.ok else 'VIOLATED'} (modulus {report.modulus:g})")
    return OK


def _run_check_contraction(args, sections) -> int:
    model, task = sections["model"], sections["task"]
    spec = _need_bounds(sections)
    risk = _single_risk(sections["risk"])
    trials = int(task.get("trials", 100))
    seed = _seed_for(args, task)
    ratio = check_contraction(model, risk, spec, trials, seed)
    modulus = spec.modulus(model.discount)
    _write_report(
        args,
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
    risk = _single_risk(sections["risk"])
    report = verify_equivalence(
        model,
        risk,
        _task_field(task, "horizon", int),
        _task_field(task, "tol", float, 1e-10),
        enumerate_policies=_task_field(task, "enumerate", bool, True),
    )
    _write_report(args, {"task": "robust-check", "report": report.to_dict()})
    _say(args, f"robust equivalence {'PASS' if report.passed else 'FAIL'} "
               f"(dp vs game {report.max_diff_dp_robust:.3e})")
    return OK


def _build_example(name: str, params: dict):
    if name == "casino":
        rec = ex.CasinoParams(
            win_prob=float(params["win_prob"]),
            horizon=int(params["horizon"]),
            grid=tuple(int(x) for x in params.get("grid", (0, 1, 2, 3))),
        )
        return ex.build_casino(rec.win_prob, rec.horizon, rec.grid)
    if name == "house_selling":
        offers = params["offers"]
        law = make_distribution([o[0] for o in offers], [o[1] for o in offers])
        return ex.build_house_selling(
            ex.HouseSellingParams(
                offer_law=law,
                rent=float(params["rent"]),
                beta=float(params.get("beta", 1.0)),
                horizon=int(params.get("horizon", 2)),
            )
        )
    if name == "cash_balance":
        levels = [float(v) for v in params["levels"]]
        holding = [float(v) for v in params["holding_costs"]]
        table = dict(zip(levels, holding))
        shifts = params["shifts"]
        law = make_distribution([s[0] for s in shifts], [s[1] for s in shifts])
        return ex.build_cash_balance(
            ex.CashBalanceParams(
                levels=tuple(levels),
                holding_cost=lambda v: table[v],
                transfer_up=float(params["transfer_up"]),
                transfer_down=float(params["transfer_down"]),
                z_law=law,
                beta=float(params.get("beta", 0.9)),
            )
        )
    if name == "var_myopic":
        labels = tuple(float(v) for v in params["labels"])
        shifts = params["shifts"]
        law = make_distribution([s[0] for s in shifts], [s[1] for s in shifts])
        action_shifts = [float(s) for s in params["action_shifts"]]
        lo, hi = labels[0], labels[-1]

        def clamp(v: float) -> float:
            return min(max(v, lo), hi)

        return ex.build_var_myopic(
            ex.VarMyopicParams(
                labels=labels,
                n_actions=len(action_shifts),
                z_law=law,
                transition=lambda x, a, z: clamp(x + action_shifts[a] + z),
                cost=lambda x, nxt: x + 2.0 * nxt,
                level=float(params.get("level", 0.5)),
                horizon=int(params.get("horizon", 3)),
            )
        )
    raise ModelFileError([f"unknown example name {name!r}"])


def _run_example(args, sections, doc: dict) -> int:
    task = sections["task"]
    name = task.get("name")
    params = task.get("params", {})
    downstream = task.get("task")
    if not isinstance(downstream, dict) or "type" not in downstream:
        raise ModelFileError(["example task needs a nested 'task' object"])
    model = _build_example(name, params)
    diags = validate_model(model)
    if diags:
        for d in diags:
            _complain(str(d))
        return VALIDATION_FAILURE
    if sections["risk"] is not None:
        emitted = model_file_dict(model, sections["risk"], downstream, sections["bounds"])
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "model.json", "w", encoding="utf-8") as fh:
            json.dump(emitted, fh, indent=2)
            fh.write("\n")
    inner = dict(sections)
    inner["model"] = model
    inner["task"] = downstream
    return _dispatch(downstream["type"], args, inner, doc)


def _dispatch(command: str, args, sections, doc: dict) -> int:
    if command == "solve-finite":
        return _run_solve_finite(args, sections)
    if command == "solve-infinite":
        return _run_solve_infinite(args, sections)
    if command == "verify-axioms":
        return _run_verify_axioms(args, sections)
    if command == "verify-bounds":
        return _run_verify_bounds(args, sections)
    if command == "check-contraction":
        return _run_check_contraction(args, sections)
    if command == "robust-check":
        return _run_robust_check(args, sections)
    if command == "example":
        return _run_example(args, sections, doc)
    raise ModelFileError([f"unknown command {command!r}"])


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
            diags = validate_model(sections["model"])
            if diags:
                for d in diags:
                    _complain(str(d))
                return VALIDATION_FAILURE
        return _dispatch(args.command, args, sections, doc)
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
