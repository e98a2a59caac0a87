"""End-to-end command-line tests on temporary model files."""

import copy
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from riskmdp import cli, model_io
from riskmdp.cli import main
from riskmdp.examples import build_casino
from riskmdp.mdp_core import BoundingSpec, constant_bounding_spec
from riskmdp.model_io import (
    ModelFileError,
    bounds_to_obj,
    model_file_dict,
    model_to_obj,
    parse_bounds,
    parse_model,
    parse_model_file,
    parse_risk,
    risk_to_obj,
)
from riskmdp.risk_measures import (
    Distortion,
    DistortionFunction,
    Entropic,
    Expectation,
    ExpectedShortfall,
    Mixture,
    Spectral,
    StepSpectrum,
    ValueAtRisk,
    describe,
)

from helpers import make_huge_cost_model, model_file_obj, risk_file_obj


def write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return str(path)


@pytest.fixture
def casino_doc():
    model = build_casino(0.75, 2, [0, 1, 2, 3])
    return model_file_dict(model, Expectation(), {"type": "solve-finite", "horizon": 2})


def test_solve_finite_outputs(tmp_path, casino_doc, capsys):
    path = write(tmp_path / "m.json", casino_doc)
    out = tmp_path / "out"
    assert main(["solve-finite", path, "--out", str(out)]) == 0
    values = (out / "values.csv").read_text().splitlines()
    assert values[0] == "stage,state,label,value"
    row = dict(zip(("stage", "state", "label", "value"), values[2].split(",")))
    assert row == {"stage": "0", "state": "1", "label": "1", "value": "-2.25"}
    policy = (out / "policy.csv").read_text().splitlines()
    assert policy[0] == "stage,state,action"


def test_byte_identical_reruns(tmp_path, casino_doc):
    path = write(tmp_path / "m.json", casino_doc)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve-finite", path, "--out", str(out1), "--quiet"]) == 0
    assert main(["solve-finite", path, "--out", str(out2), "--quiet"]) == 0
    for name in ("values.csv", "policy.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_solve_infinite_trace_and_exit_codes(tmp_path):
    import numpy as np

    from helpers import make_random_model

    m = make_random_model(np.random.default_rng(1), zero_terminal=True)
    spec = constant_bounding_spec(m)
    doc = model_file_dict(
        m, ExpectedShortfall(0.8), {"type": "solve-infinite", "tol": 1e-8}, spec
    )
    path = write(tmp_path / "m.json", doc)
    out = tmp_path / "out"
    assert main(["solve-infinite", path, "--out", str(out), "--quiet"]) == 0
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,residual,error_bound"
    assert len(trace) > 2
    # starved of iterations: exit 3, outputs still written
    doc["task"]["max_iter"] = 1
    path2 = write(tmp_path / "m2.json", doc)
    out2 = tmp_path / "out2"
    assert main(["solve-infinite", path2, "--out", str(out2), "--quiet"]) == 3
    assert (out2 / "values.csv").exists()


def test_verify_axioms_report(tmp_path):
    doc = {
        "risk": {"kind": "expected_shortfall", "level": 0.9},
        "task": {"type": "verify-axioms", "trials": 120, "seed": 7},
    }
    path = write(tmp_path / "m.json", doc)
    out = tmp_path / "out"
    assert main(["verify-axioms", path, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["task"] == "verify-axioms"
    assert report["report"]["passed"] is True
    names = {c["name"]: c["status"] for c in report["report"]["checks"]}
    assert names["subadditivity"] == "PASS"


def test_verify_bounds_and_contraction(tmp_path):
    import numpy as np

    from helpers import make_random_model

    m = make_random_model(np.random.default_rng(3), zero_terminal=True)
    spec = constant_bounding_spec(m)
    doc = model_file_dict(m, ExpectedShortfall(0.8), {"type": "verify-bounds"}, spec)
    path = write(tmp_path / "b.json", doc)
    out = tmp_path / "out"
    assert main(["verify-bounds", path, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["report"]["ok"] is True

    doc["task"] = {"type": "check-contraction", "trials": 40, "seed": 5}
    path2 = write(tmp_path / "c.json", doc)
    out2 = tmp_path / "out2"
    assert main(["check-contraction", path2, "--out", str(out2), "--quiet"]) == 0
    report2 = json.loads((out2 / "report.json").read_text())
    assert report2["passed"] is True
    assert report2["max_ratio"] <= report2["modulus"] + 1e-9


def test_robust_check_report(tmp_path):
    import numpy as np

    from helpers import make_enumeration_model

    m = make_enumeration_model(np.random.default_rng(4))
    doc = model_file_dict(
        m,
        ExpectedShortfall(0.7),
        {"type": "robust-check", "horizon": 2, "tol": 1e-10, "enumerate": True},
    )
    path = write(tmp_path / "r.json", doc)
    out = tmp_path / "out"
    assert main(["robust-check", path, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["report"]["passed"] is True
    assert report["report"]["n_policies"] is not None


def test_example_task_builds_and_round_trips(tmp_path):
    doc = {
        "risk": {"kind": "expectation"},
        "task": {
            "type": "example",
            "name": "casino",
            "params": {"win_prob": 0.75, "horizon": 2, "grid": [0, 1, 2, 3]},
            "task": {"type": "solve-finite", "horizon": 2},
        },
    }
    path = write(tmp_path / "e.json", doc)
    out = tmp_path / "out"
    assert main(["example", path, "--out", str(out), "--quiet"]) == 0
    emitted = json.loads((out / "model.json").read_text())
    sections = parse_model_file(emitted)
    assert sections["model"] == build_casino(0.75, 2, [0, 1, 2, 3])
    assert (out / "values.csv").exists()


def test_example_house_selling_via_cli(tmp_path):
    doc = {
        "risk": {"kind": "expected_shortfall", "level": 0.5},
        "task": {
            "type": "example",
            "name": "house_selling",
            "params": {
                "offers": [[0, 0.25], [1, 0.25], [2, 0.25], [3, 0.25]],
                "rent": 0.5,
                "horizon": 2,
            },
            "task": {"type": "solve-finite", "horizon": 2},
        },
    }
    path = write(tmp_path / "h.json", doc)
    out = tmp_path / "out"
    assert main(["example", path, "--out", str(out), "--quiet"]) == 0
    rows = (out / "values.csv").read_text().splitlines()
    # offer 3 at stage 0 under ES(0.5): min(3, threshold 3.0) = 3
    assert "0,4,3,3" in rows


def test_example_cash_balance_via_cli(tmp_path):
    levels = [float(v) for v in range(-3, 4)]
    doc = {
        "risk": {"kind": "expected_shortfall", "level": 0.9},
        "bounds": None,
        "task": {
            "type": "example",
            "name": "cash_balance",
            "params": {
                "levels": levels,
                "holding_costs": [v * v for v in levels],
                "transfer_up": 1.0,
                "transfer_down": 1.0,
                "shifts": [[-1.0, 1 / 3], [0.0, 1 / 3], [1.0, 1 / 3]],
                "beta": 0.9,
            },
            "task": {"type": "solve-finite", "horizon": 3},
        },
    }
    doc.pop("bounds")
    path = write(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    assert main(["example", path, "--out", str(out), "--quiet"]) == 0
    assert (out / "values.csv").exists()


def test_example_var_myopic_via_cli(tmp_path):
    doc = {
        "risk": {"kind": "value_at_risk", "level": 0.5},
        "task": {
            "type": "example",
            "name": "var_myopic",
            "params": {
                "labels": [0.0, 1.0, 2.0],
                "shifts": [[-1.0, 0.35], [0.0, 0.3], [1.0, 0.35]],
                "action_shifts": [0.0, -1.0],
                "level": 0.5,
                "horizon": 3,
            },
            "task": {"type": "solve-finite", "horizon": 3},
        },
    }
    path = write(tmp_path / "v.json", doc)
    out = tmp_path / "out"
    assert main(["example", path, "--out", str(out), "--quiet"]) == 0
    assert (out / "policy.csv").exists()


def test_seed_flag_overrides_task_seed(tmp_path):
    doc = {
        "risk": {"kind": "expected_shortfall", "level": 0.9},
        "task": {"type": "verify-axioms", "trials": 60, "seed": 1},
    }
    path = write(tmp_path / "m.json", doc)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify-axioms", path, "--out", str(out1), "--quiet", "--seed", "42"]) == 0
    report = json.loads((out1 / "report.json").read_text())
    assert report["report"]["seed"] == 42
    assert main(["verify-axioms", path, "--out", str(out2), "--quiet"]) == 0
    assert json.loads((out2 / "report.json").read_text())["report"]["seed"] == 1


def test_malformed_transition_diagnostic(tmp_path, capsys):
    model = build_casino(0.5, 1, [0, 1])
    obj = model_to_obj(model)
    obj["transition"][1][1][0] = 99  # out of range at x=1, a=1, z=0
    doc = {
        "model": obj,
        "risk": risk_to_obj(Expectation()),
        "task": {"type": "solve-finite", "horizon": 1},
    }
    path = write(tmp_path / "bad.json", doc)
    assert main(["solve-finite", path, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "BadTransition" in err and "x=1" in err and "a=1" in err and "z=0" in err


def test_task_subcommand_mismatch(tmp_path, casino_doc, capsys):
    path = write(tmp_path / "m.json", casino_doc)
    assert main(["solve-infinite", path, "--quiet"]) == 2
    assert "does not match" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve-finite", str(path), "--quiet"]) == 2


def test_missing_file(tmp_path):
    assert main(["solve-finite", str(tmp_path / "nope.json"), "--quiet"]) == 2


def test_json_format_output(tmp_path, casino_doc):
    path = write(tmp_path / "m.json", casino_doc)
    out = tmp_path / "out"
    assert main(["solve-finite", path, "--out", str(out), "--format", "json", "--quiet"]) == 0
    values = json.loads((out / "values.json").read_text())
    assert values[0]["stage"] == "0"


def test_per_stage_risk_list(tmp_path):
    model = build_casino(0.75, 2, [0, 1, 2])
    doc = model_file_dict(
        model,
        [ExpectedShortfall(0.5), Expectation()],
        {"type": "solve-finite", "horizon": 2},
    )
    path = write(tmp_path / "m.json", doc)
    out = tmp_path / "out"
    assert main(["solve-finite", path, "--out", str(out), "--quiet"]) == 0
    # wrong length is a validation failure
    doc["risk"] = doc["risk"][:1]
    doc["task"]["horizon"] = 2
    path2 = write(tmp_path / "m2.json", doc)
    assert main(["solve-finite", path2, "--quiet"]) == 2


def test_bounds_round_trip():
    import numpy as np

    from helpers import make_random_model

    m = make_random_model(np.random.default_rng(8))
    spec = constant_bounding_spec(m, alpha=1.0)
    from riskmdp.model_io import parse_bounds

    assert parse_bounds(bounds_to_obj(spec)) == spec


_CONCAVE = Distortion(DistortionFunction("piecewise_linear", knots=((0.0, 0.0), (0.3, 0.6), (1.0, 1.0))))
_SPECTRAL = Spectral(StepSpectrum(breakpoints=((0.0, 0.25), (0.4, 1.5))))


@pytest.mark.parametrize(
    "risk",
    [
        Distortion(DistortionFunction("identity")),
        Distortion(DistortionFunction("var_indicator", level=0.6)),
        Distortion(DistortionFunction("es_cap", level=0.7)),
        _CONCAVE,
        _SPECTRAL,
        Entropic(0.5),
        Mixture(0.3, Entropic(2.0), Mixture(0.5, _SPECTRAL, _CONCAVE)),
    ],
    ids=describe,
)
def test_every_risk_kind_round_trips_through_the_model_file(risk):
    assert parse_risk(json.loads(json.dumps(risk_to_obj(risk)))) == risk


def test_verify_axioms_on_a_piecewise_linear_distortion(tmp_path, capsys):
    doc = {"risk": risk_to_obj(_CONCAVE), "task": {"type": "verify-axioms", "trials": 30, "seed": 2}}
    out = tmp_path / "out"
    assert main(["verify-axioms", write(tmp_path / "m.json", doc), "--out", str(out)]) == 0
    assert capsys.readouterr().out == "axiom report for distortion(pwl,3 knots): PASS\n"
    report = json.loads((out / "report.json").read_text())["report"]
    assert report["risk"] == "distortion(pwl,3 knots)" and report["passed"] is True
    assert {c["name"]: c["status"] for c in report["checks"]}["subadditivity"] == "PASS"


# The README's model file; each case below replaces its task section.
README_MODEL = {
    "model": {
        "n_states": 2,
        "n_actions": 2,
        "admissible": [[0, 1], [0]],
        "disturbance": {"indices": [0, 1], "probs": [0.5, 0.5], "n_outcomes": 2},
        "transition": [[[0, 1], [1, 1]], [[0, 0], None]],
        "cost": [[[1.0, 2.0], [0.5, 0.5]], [[0.0, 0.0], None]],
        "terminal_cost": [0.0, 0.0],
        "discount": 0.9,
        "state_labels": [0.0, 1.0],
    },
    "risk": {"kind": "expected_shortfall", "level": 0.9},
    "bounds": {"lb": [-2.5, -2.5], "ub": [2.5, 2.5], "eps_split": [0.5, 0.5], "alpha": 1.0, "mode": "coherent"},
}


@pytest.mark.parametrize(
    "task, located",
    [
        ({"type": "robust-check"}, "task.horizon is missing"),
        ({"type": "robust-check", "horizon": "two"}, "task.horizon: expected an integer >= 1"),
        ({"type": "robust-check", "horizon": 2.7}, "task.horizon: expected an integer >= 1"),
        ({"type": "robust-check", "horizon": 0}, "task.horizon: expected an integer >= 1"),
        ({"type": "robust-check", "horizon": True}, "task.horizon: expected an integer >= 1"),
        ({"type": "robust-check", "horizon": 2, "tol": "x"}, "task.tol: expected a finite number > 0"),
        ({"type": "robust-check", "horizon": 2, "tol": 0.0}, "task.tol: expected a finite number > 0"),
        ({"type": "robust-check", "horizon": 2, "enumerate": "no"}, "task.enumerate: expected a JSON boolean"),
        ({"type": "robust-check", "horizon": 2, "enumerate": 0}, "task.enumerate: expected a JSON boolean"),
        ({"type": "solve-finite"}, "task.horizon is missing"),
        ({"type": "solve-finite", "horizon": "two"}, "task.horizon: expected an integer >= 1"),
        ({"type": "solve-finite", "horizon": 1.5}, "task.horizon: expected an integer >= 1"),
        ({"type": "solve-finite", "horizon": 10**6 + 1}, "task.horizon: expected at most 1000000, got 1000001"),
        ({"type": "robust-check", "horizon": 1e20}, "task.horizon: expected at most 1000000, got 1e+20"),
        ({"type": "verify-axioms", "trials": 1e20}, "task.trials: expected at most 1000000, got 1e+20"),
        ({"type": "check-contraction", "trials": 10**6 + 1}, "task.trials: expected at most 1000000, got 1000001"),
        ({"type": "solve-infinite"}, "task.tol is missing"),
        ({"type": "solve-infinite", "tol": "x"}, "task.tol: expected a finite number > 0"),
        ({"type": "solve-infinite", "tol": -1e-8}, "task.tol: expected a finite number > 0"),
        ({"type": "solve-infinite", "tol": 10**400}, "task.tol: expected a finite number > 0"),
        ({"type": "solve-infinite", "tol": 1e-8, "max_iter": "ten"}, "task.max_iter: expected an integer >= 1"),
        ({"type": "solve-infinite", "tol": 1e-8, "max_iter": 2.5}, "task.max_iter: expected an integer >= 1"),
    ],
)
def test_task_fields_are_checked(tmp_path, capsys, task, located):
    path = write(tmp_path / "m.json", dict(README_MODEL, task=task))
    assert main([task["type"], path, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert located in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integral_task_numbers_are_accepted(tmp_path):
    reports = []
    for horizon, tol in ((2, 1e-10), (2.0, 1)):
        task = {"type": "robust-check", "horizon": horizon, "tol": tol, "enumerate": True}
        path = write(tmp_path / "m.json", dict(README_MODEL, task=task))
        out = tmp_path / f"out{len(reports)}"
        assert main(["robust-check", path, "--out", str(out), "--quiet"]) == 0
        reports.append(json.loads((out / "report.json").read_text())["report"])
    assert reports[0]["horizon"] == reports[1]["horizon"] == 2
    assert reports[0]["enumerated_values"] == reports[1]["enumerated_values"]


_DROP = object()


def _with(path, value, doc=None):
    """A copy of the README model file with ``value`` set at the key ``path``."""
    doc = json.loads(json.dumps(doc or dict(README_MODEL, task={"type": "solve-infinite", "tol": 1e-8})))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is _DROP:
        del target[last]
    else:
        target[last] = value
    return doc


_ENTROPIC = dict(
    README_MODEL, risk={"kind": "entropic", "gamma": 1.0}, task={"type": "solve-infinite", "tol": 1e-8}
)


def _casino_example(**changes):
    """A casino example task with its params changed; the value ``_DROP`` removes a key."""
    params = dict({"win_prob": 0.75, "horizon": 2}, **changes)
    task = {
        "type": "example",
        "name": "casino",
        "params": {key: value for key, value in params.items() if value is not _DROP},
        "task": {"type": "solve-finite", "horizon": 2},
    }
    return {"risk": {"kind": "expectation"}, "task": task}


_MIXTURE = {"kind": "mixture", "first": {"kind": "expectation"}, "second": {"kind": "value_at_risk"}}


@pytest.mark.parametrize(
    "doc, located",
    [
        (_with(("risk", "level"), _DROP), "risk.level is missing"),
        (_with(("risk",), {"kind": "entropic"}), "risk.gamma is missing"),
        (_with(("risk",), _MIXTURE), "risk.weight is missing"),
        (_with(("risk",), dict(_MIXTURE, weight=0.5)), "risk.second.level is missing"),
        # a kind that cannot be hashed is an unknown kind, not a failed lookup
        (_with(("risk", "kind"), [1]), "unknown risk kind [1]"),
        (_with(("risk", "kind"), {}), "unknown risk kind {}"),
        (_with(("model", "n_states"), "two"), "model.n_states: cannot read 'two'"),
        (_with(("model", "admissible"), 5), "model.admissible: cannot read 5"),
        (_with(("model", "cost", 0, 1), 3), "model.cost[0][1]: cannot read 3"),
        (_with(("task",), {"type": "verify-axioms", "trials": "x"}), "task.trials: expected an integer >= 1"),
        (_with(("task",), {"type": "verify-axioms", "seed": "s"}), "task.seed: expected an integer >= 0"),
        (_with(("task",), {"type": "check-contraction", "seed": -1}), "task.seed: expected an integer >= 0"),
        (_with(("task",), {"type": "check-contraction", "trials": 0}), "task.trials: expected an integer >= 1"),
        (_with(("model", "n_states"), 2.5), "model.n_states: cannot read 2.5 (not an integer)"),
        (_with(("model", "transition", 0, 1), [1.7, 1]), "model.transition[0][1]: cannot read [1.7, 1] (not an integer)"),
        (_with(("model", "admissible", 1), [0.9]), "model.admissible: cannot read [[0, 1], [0.9]] (not an integer)"),
        (_casino_example(win_prob="x"), "task.params.win_prob: cannot read 'x'"),
        (_casino_example(win_prob=_DROP), "task.params.win_prob is missing"),
        (_casino_example(horizon=2.7), "task.params.horizon: cannot read 2.7 (not an integer)"),
        (_casino_example(win_prob=1.5), "win probability must lie in [0, 1], got 1.5"),
        (_with(("task", "params"), [0.75, 2], _casino_example()), "task.params must be an object, got [0.75, 2]"),
        (_with(("task", "name"), "roulette", _casino_example()), "unknown example name 'roulette'"),
        (_with(("task", "task"), _DROP, _casino_example()), "example task needs a nested 'task' object"),
        (_with(("task", "task"), {"horizon": 2}, _casino_example()), "example task needs a nested 'task' object"),
        (_with(("task", "task"), {"type": "solve-forever"}, _casino_example()), "unknown command 'solve-forever'"),
        (_with(("risk",), [README_MODEL["risk"]]), "this task needs a single risk specification"),
        (_with(("bounds", "ub"), [2.5, math.nan]), "ub[1] is not a number"),
        (_with(("bounds", "alpha"), math.nan), "alpha must be finite and >= 0, got nan"),
        (_with(("bounds", "eps_split"), [math.nan, math.nan]), "eps split must be nonnegative and sum to 1"),
        (_with(("bounds", "ub"), [math.inf, math.inf]), "norm weights must be finite and >= 1, got inf"),
        (_with(("model", "admissible", 0), [0, 0, 1]), "BadAction(state=0, action=0): admissible action listed twice"),
        (
            _with(("bounds", "ub"), [math.inf, math.inf], dict(README_MODEL, task={"type": "check-contraction"})),
            "norm weights must be finite and >= 1, got inf at state 0",
        ),
        (_with(("bounds", "lb"), [-2.5, None]), "bounds.lb[1]: cannot read None"),
        (_with(("bounds", "ub"), 3), "bounds.ub: cannot read 3"),
        (_with(("bounds", "alpha"), {}), "bounds.alpha: cannot read {}"),
        (_with(("bounds", "eps_split"), [0.5, {}]), "bounds.eps_split[1]: cannot read {}"),
        (_with(("bounds", "eps_split"), [1.0]), "bounds.eps_split has 1 entries, expected 2"),
        (_with(("bounds", "mode"), "linear"), "bounds.mode: cannot read 'linear'"),
        (_with(("bounds", "lb"), _DROP), "bounds.lb is missing"),
        pytest.param(
            _with(("model", "admissible", 0, 1), 1e20),
            f"BadAction(state=0, action={int(1e20)}): action index outside [0, 2)",
            id="admissible-1e20",
        ),
        pytest.param(
            _with(("model", "admissible", 0, 1), -1e308),
            f"BadAction(state=0, action={int(-1e308)}): action index outside [0, 2)",
            id="admissible-minus-1e308",
        ),
        (_with(("model", "admissible", 0), [-5, 1]), "BadAction(state=0, action=-5): action index outside [0, 2)"),
        pytest.param(
            _with(("model", "transition", 0, 0), None, _with(("model", "disturbance", "n_outcomes"), 1e20)),
            f"model.transition[0][1] has 2 outcomes, expected {int(1e20)}",
            id="n_outcomes-1e20-before-a-null-cell",
        ),
        # numbers and arrays are read by their JSON type: a digit string or a bool is neither
        (_with(("model", "n_states"), "2"), "model.n_states: cannot read '2' (not a number)"),
        (_with(("model", "discount"), "0.9"), "model.discount: cannot read '0.9' (not a number)"),
        (_with(("model", "disturbance", "probs"), ["0.5", "0.5"]), "model.disturbance.probs: cannot read ['0.5', '0.5']"),
        (_with(("model", "disturbance", "n_outcomes"), True), "model.disturbance.n_outcomes: cannot read True"),
        (_with(("model", "disturbance", "indices"), "01"), "model.disturbance.indices: cannot read '01' (not an array)"),
        (_with(("model", "admissible"), ["01", "0"]), "model.admissible: cannot read ['01', '0'] (not an array)"),
        (_with(("model", "admissible"), [[0, True], [0]]), "model.admissible: cannot read [[0, True], [0]] (not a number)"),
        (_with(("model", "terminal_cost"), "00"), "model.terminal_cost: cannot read '00' (not an array)"),
        (_with(("model", "cost", 0, 0), "12"), "model.cost[0][0]: cannot read '12' (not an array)"),
        (_with(("model", "transition", 0, 0), "01"), "model.transition[0][0]: cannot read '01' (not an array)"),
        (_with(("model", "transition", 0, 0), [0, True]), "model.transition[0][0]: cannot read [0, True] (not a number)"),
        (_with(("model", "cost", 0, 0), [False, 2.0]), "model.cost[0][0]: cannot read [False, 2.0] (not a number)"),
        (_with(("model", "transition"), "ab"), "model.transition: cannot read 'ab' (not an array)"),
        (_with(("bounds", "alpha"), "1"), "bounds.alpha: cannot read '1' (not a number)"),
        (_with(("bounds", "lb"), "33"), "bounds.lb: cannot read '33' (not an array)"),
        (_with(("bounds", "ub"), [2.5, True]), "bounds.ub[1]: cannot read True (not a number)"),
        (_with(("risk",), dict(_MIXTURE, weight="0.5")), "risk.weight: cannot read '0.5' (not a number)"),
        (_with(("risk", "level"), True), "risk.level: cannot read True (not a number)"),
        (
            _with(("risk",), {"kind": "spectral", "breakpoints": ["05", [0.5, 1.5]]}),
            "risk.breakpoints: cannot read ['05', [0.5, 1.5]] (not an array)",
        ),
        (_casino_example(grid="12"), "task.params.grid: cannot read '12' (not an array)"),
        (_casino_example(win_prob=True), "task.params.win_prob: cannot read True (not a number)"),
        (_casino_example(horizon="2"), "task.params.horizon: cannot read '2' (not a number)"),
        (_with(("bounds", "lb"), [-2.5, -(10**400)]), "bounds.lb[1]: cannot read"),  # past the float range
    ],
)
def test_malformed_fields_exit_2_with_a_located_message(tmp_path, capsys, doc, located):
    path = write(tmp_path / "m.json", doc)
    assert main([doc["task"]["type"], path, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert located in err and "Traceback" not in err


@pytest.mark.parametrize(
    "nested, located",
    [
        ({"type": "solve-forever"}, "unknown command 'solve-forever'"),
        ({"type": "solve-finite", "horizon": 1e20}, "task.horizon: expected at most 1000000, got 1e+20"),
    ],
)
def test_an_example_whose_nested_task_is_refused_writes_nothing(tmp_path, capsys, nested, located):
    # the emitted model.json comes only after the nested task has run
    path = write(tmp_path / "m.json", _with(("task", "task"), nested, _casino_example()))
    out = tmp_path / "out"
    assert main(["example", path, "--out", str(out), "--quiet"]) == 2
    assert located in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_a_model_file_that_is_not_an_object_exits_2(tmp_path, capsys):
    path = write(tmp_path / "m.json", [dict(README_MODEL, task={"type": "solve-finite", "horizon": 1})])
    assert main(["solve-finite", path, "--quiet"]) == 2
    assert capsys.readouterr().err == "model file must be a JSON object\n"


@pytest.mark.parametrize("seed", ["-1", "x"])
def test_a_seed_flag_that_is_not_a_count_exits_2(tmp_path, capsys, seed):
    path = write(tmp_path / "m.json", dict(README_MODEL, task={"type": "verify-axioms", "trials": 5}))
    with pytest.raises(SystemExit) as stop:
        main(["verify-axioms", path, "--out", str(tmp_path / "out"), "--seed", seed])
    err = capsys.readouterr().err
    assert stop.value.code == 2 and not (tmp_path / "out").exists()
    assert err.splitlines()[-1].endswith(f"error: argument --seed: expected an integer >= 0, got '{seed}'")


def test_a_wrong_n_outcomes_is_refused_before_a_null_cell_is_built(tmp_path, capsys):
    # the filled cells' widths are checked before a zero cell of n_outcomes is built
    doc = _with(("model", "transition", 0, 0), None, _with(("model", "disturbance", "n_outcomes"), 10**6))
    path = write(tmp_path / "m.json", doc)
    tracemalloc.start()
    try:
        code = main(["solve-infinite", path, "--out", str(tmp_path / "out"), "--quiet"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2 and "model.transition[0][1] has 2 outcomes, expected 1000000" in err
    assert peak < 2**20


def test_a_wrong_n_outcomes_in_the_cost_table_is_refused_before_a_null_transition_is_built(tmp_path, capsys):
    # the transition table's null cells wait for the cost table's widths
    doc = _with(("model", "disturbance", "n_outcomes"), 10**6)
    doc["model"]["transition"] = [[None, None], [None, None]]
    path = write(tmp_path / "m.json", doc)
    tracemalloc.start()
    try:
        code = main(["solve-infinite", path, "--out", str(tmp_path / "out"), "--quiet"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2 and "model.cost[0][0] has 2 outcomes, expected 1000000" in err
    assert peak < 2**20


def test_an_entropic_law_past_exp_range_solves_to_its_exact_value(tmp_path):
    # state 0 pays 0 or 1000 and moves to state 1, which is absorbing at
    # cost 0: gamma * 1000 is past exp's range, and v(0) = 1000 + log(0.5)
    doc = copy.deepcopy(_ENTROPIC)
    doc["model"].update(
        admissible=[[0], [0]],
        transition=[[[1, 1], None], [[1, 1], None]],
        cost=[[[0.0, 1000.0], None], [[0.0, 0.0], None]],
    )
    doc["bounds"].update(lb=[-1001.0, -1001.0], ub=[1001.0, 1001.0])
    path = write(tmp_path / "m.json", doc)
    out = tmp_path / "out"
    assert main(["solve-infinite", path, "--out", str(out), "--quiet"]) == 0
    values = (out / "values.csv").read_text().splitlines()
    assert values[1:] == [f"inf,0,0,{1000.0 + math.log(0.5):.17g}", "inf,1,1,0"]


def test_an_entropic_product_past_the_float_range_exits_2(tmp_path, capsys):
    # gamma * 1e308 overflows, so state 1's stage value is +inf
    doc = _with(("model", "cost", 1, 0), [1e308, 0.0], dict(_ENTROPIC, risk={"kind": "entropic", "gamma": 2.0}))
    doc["task"] = {"type": "solve-finite", "horizon": 1}
    path = write(tmp_path / "m.json", doc)
    assert main(["solve-finite", path, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "non-finite value inf" in err and "Traceback" not in err


def test_an_entropic_top_product_below_the_float_range_exits_2(tmp_path, capsys):
    # gamma * -1e308, the larger cost, overflows to -inf: the pair's value is
    # -inf, the minimum, not a NaN that the other action's 0 would beat
    doc = _with(("model", "cost", 0, 0), [-1.5e308, -1e308], dict(_ENTROPIC, risk={"kind": "entropic", "gamma": 2.0}))
    doc["model"]["cost"][0][1] = [0.0, 0.0]
    doc["task"] = {"type": "solve-finite", "horizon": 1}
    path = write(tmp_path / "m.json", doc)
    assert main(["solve-finite", path, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "non-finite value -inf" in err and "Traceback" not in err


@pytest.mark.parametrize("task", [{"type": "solve-finite", "horizon": 1}, {"type": "robust-check", "horizon": 1}])
def test_a_stage_sum_out_of_float_range_exits_2(tmp_path, capsys, task):
    # stage values overflow to -inf and +inf, which math.fsum refuses
    doc = model_file_dict(make_huge_cost_model(0), Mixture(0.5, ExpectedShortfall(0.8), Expectation()), task)
    path = write(tmp_path / "m.json", doc)
    assert main([task["type"], path, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "sum out of float range (-inf + inf in fsum)" in err and "Traceback" not in err


def test_integral_floats_read_as_integers(tmp_path):
    doc = dict(README_MODEL, task={"type": "solve-finite", "horizon": 3})
    floats = json.loads(json.dumps(doc))
    floats["model"]["n_states"] = 2.0
    floats["model"]["transition"][0][1] = [1.0, 1.0]
    floats["model"]["admissible"][1] = [0.0]
    outputs = []
    for d in (doc, floats):
        out = tmp_path / f"out{len(outputs)}"
        assert main(["solve-finite", write(tmp_path / "m.json", d), "--out", str(out), "--quiet"]) == 0
        outputs.append([(out / name).read_bytes() for name in ("values.csv", "policy.csv")])
    assert outputs[0] == outputs[1]


def test_seed_zero_is_valid_and_the_flag_takes_precedence(tmp_path):
    seeds = []
    for task, flag in (({"seed": 0}, []), ({"seed": "s"}, ["--seed", "3"])):
        doc = dict(README_MODEL, task={"type": "check-contraction", "trials": 5, **task})
        out = tmp_path / f"out{len(seeds)}"
        path = write(tmp_path / "m.json", doc)
        assert main(["check-contraction", path, "--out", str(out), "--quiet", *flag]) == 0
        seeds.append(json.loads((out / "report.json").read_text())["seed"])
    assert seeds == [0, 3]


def _paths(node, path):
    """Every key path into ``node``: dict keys and list indices, ``path`` itself first."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, (*path, key))


FUZZ_PATHS = [path for section in ("model", "risk", "bounds") for path in _paths(README_MODEL[section], (section,))]
# drop the key; null, wrong types (a digit string among them), NaN, +-inf, negative numbers, huge integral floats
FUZZ_VALUES = (_DROP, None, "x", "01", [], {}, True, math.nan, math.inf, -math.inf, -1, -2.5, 1e20, 1e308, -1e308)


def _mutated(mutations, doc=None):
    """``doc``, by default the README model file solving to tol 1e-8, with each (path, value) applied in turn.

    A mutation whose path an earlier one removed or replaced is passed over.
    """
    doc = json.loads(json.dumps(doc or dict(README_MODEL, task={"type": "solve-infinite", "tol": 1e-8})))
    for (*parents, last), value in mutations:
        target = doc
        try:
            for key in parents:
                target = target[key]
            if value is _DROP:
                del target[last]
            else:
                target[last] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            continue
    return doc


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    mutations=st.lists(
        st.tuples(st.sampled_from(FUZZ_PATHS), st.sampled_from(FUZZ_VALUES)), min_size=1, max_size=2
    )
)
@example(mutations=[(("bounds", "lb", 1), None)])
@example(mutations=[(("bounds", "ub"), 3)])
@example(mutations=[(("bounds", "alpha"), {})])
@example(mutations=[(("bounds", "eps_split", 1), {})])
@example(mutations=[(("model", "admissible", 0, 1), 1e20)])
@example(mutations=[(("model", "admissible", 0, 1), -1e308)])
def test_a_mutated_model_file_exits_with_a_code_not_a_traceback(tmp_path, capsys, mutations):
    # a fresh directory per example: overwriting a file can be slow on a temporary file system
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    path = write(work / "m.json", _mutated(mutations))
    assert main(["solve-infinite", path, "--out", str(work / "out"), "--quiet"]) in (0, 2, 3)
    capsys.readouterr()


def test_a_null_cell_at_an_admissible_pair_is_refused(tmp_path, capsys):
    # action 1 is admissible in state 0; solved, its null cells would read cost 0 and successor 0
    doc = _with(("model", "transition", 0, 1), None, _with(("model", "cost", 0, 1), None))
    path = write(tmp_path / "m.json", doc)
    assert main(["solve-infinite", path, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "model.transition[0][1] is null, but action 1 is admissible in state 0",
        "model.cost[0][1] is null, but action 1 is admissible in state 0",
    ]
    assert not (tmp_path / "out").exists()


def test_all_null_tables_at_admissible_pairs_are_refused_before_a_null_cell_is_built(tmp_path, capsys):
    doc = _with(("model", "disturbance", "n_outcomes"), 10**6)
    doc["model"]["transition"] = doc["model"]["cost"] = [[None, None], [None, None]]
    path = write(tmp_path / "m.json", doc)
    tracemalloc.start()
    try:
        code = main(["solve-infinite", path, "--out", str(tmp_path / "out"), "--quiet"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2 and "model.cost[1][0] is null, but action 0 is admissible in state 1" in err
    assert peak < 2**20


def _without_admissible_pairs(n_outcomes):
    """The README model file, solved for one stage, with no admissible action, every cell null and ``n_outcomes``."""
    doc = _with(("model", "disturbance", "n_outcomes"), n_outcomes)
    doc["model"].update(admissible=[[], []], transition=[[None, None], [None, None]], cost=[[None, None], [None, None]])
    doc["task"] = {"type": "solve-finite", "horizon": 1}
    return doc


_NO_ADMISSIBLE_ACTION = "".join(f"EmptyAdmissibleSet(state={x}): no admissible action\n" for x in range(2))


def test_null_cells_are_built_only_at_a_width_that_a_filled_cell_has(tmp_path, capsys):
    # no cell is filled, so no zero cell is built at n_outcomes; validate_model refuses the model
    path = write(tmp_path / "m.json", _without_admissible_pairs(10**6))
    tracemalloc.start()
    try:
        code = main(["solve-finite", path, "--out", str(tmp_path / "out"), "--quiet"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and capsys.readouterr().err == _NO_ADMISSIBLE_ACTION
    assert peak < 4 * 2**20


def test_null_cells_at_a_huge_n_outcomes_are_refused_in_bounded_memory(tmp_path):
    # a zero cell of 10**9 outcomes would take some 8 GB; run under a 2 GiB address-space cap
    resource = pytest.importorskip("resource")
    path = write(tmp_path / "m.json", _without_admissible_pairs(10**9))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    run = subprocess.run(
        [sys.executable, "-m", "riskmdp.cli", "solve-finite", path, "--out", str(tmp_path / "out"), "--quiet"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)),
    )
    assert (run.returncode, run.stderr) == (2, _NO_ADMISSIBLE_ACTION)


def _parsed(obj, per_cell: bool):
    """``parse_model(obj)``, or its diagnostics, with the one-call table reader or without it."""
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        if per_cell:
            mp.setattr(model_io, "_array_cells", lambda *args: None)
        try:
            return parse_model(obj)
        except ModelFileError as exc:
            return exc.diagnostics


def test_the_readme_tables_are_read_in_one_call_each(monkeypatch):
    read = []
    original = model_io._array_cells
    monkeypatch.setattr(model_io, "_array_cells", lambda *args: read.append(original(*args)) or read[-1])
    model = parse_model(README_MODEL["model"])
    assert len(read) == 2 and None not in read
    assert model == _parsed(README_MODEL["model"], per_cell=True)


# cell elements that are not a plain int (for the transitions) or number (for the costs)
_ODD_ELEMENTS = (
    0.0, -0.0, 1.0, 2.5, math.inf, -math.inf, math.nan, True, False, "1", "0.5", "x", None, [0], {},
    2**63 - 1, 2**63, 2**64, -(2**63) - 1, 2**70, 2**1100,
)
_ODD_CELLS = (None, [], [0], [0, 1, 1], 5, "ab", [[0, 1], [1, 0]])


@st.composite
def _model_tables(draw):
    """The README model with drawn tables: plain cells, and a few odd elements, cells or row lengths."""

    def table(plain):
        rows = [[draw(st.lists(plain, min_size=2, max_size=2)) for _ in range(2)] for _ in range(2)]
        rows[1][1] = draw(st.none() | st.lists(plain, min_size=2, max_size=2))
        for _ in range(draw(st.integers(0, 2))):
            x = draw(st.integers(0, 1))
            a = draw(st.integers(0, len(rows[x]) - 1))
            kind = draw(st.sampled_from(("element", "element", "cell", "row")))
            if kind == "element" and isinstance(rows[x][a], list) and rows[x][a]:
                rows[x][a][draw(st.integers(0, len(rows[x][a]) - 1))] = draw(st.sampled_from(_ODD_ELEMENTS))
            elif kind == "cell":
                rows[x][a] = copy.deepcopy(draw(st.sampled_from(_ODD_CELLS)))
            elif kind == "row":
                rows[x] = rows[x][:1] if draw(st.booleans()) else rows[x] + [[0, 0]]
        return rows

    obj = copy.deepcopy(README_MODEL["model"])
    obj["transition"] = table(st.integers(-1, 2))
    obj["cost"] = table(st.floats(-10, 10) | st.integers(-3, 3))
    width = draw(st.sampled_from((None, 2, 3)))
    if width is None:
        del obj["disturbance"]["n_outcomes"]
    else:
        obj["disturbance"]["n_outcomes"] = width
    return obj


@settings(max_examples=400)
@given(obj=_model_tables())
def test_the_one_call_table_reader_agrees_with_the_per_cell_reader(obj):
    # the same MdpModel, down to the dtype and every bit, or the same diagnostics
    fast, slow = _parsed(obj, per_cell=False), _parsed(obj, per_cell=True)
    if isinstance(slow, list):
        assert fast == slow
        return
    assert fast._key() == slow._key()  # the tables by their bits, since a NaN cost is unequal to itself
    for name in ("transition", "cost"):
        one, other = getattr(fast, name), getattr(slow, name)
        assert type(one) is type(other)
        if isinstance(one, np.ndarray):
            assert one.dtype == other.dtype and one.shape == other.shape and one.tobytes() == other.tobytes()
        else:
            assert repr(one) == repr(other)


# the task types that read tol, max_iter, horizon, trials or seed, each with a base task it solves quickly
TASK_BASES = {
    "solve-infinite": {"tol": 1e-8, "max_iter": 500},
    "solve-finite": {"horizon": 2},
    "robust-check": {"horizon": 2, "tol": 1e-10},
    "verify-axioms": {"trials": 5, "seed": 0},
    "check-contraction": {"trials": 5, "seed": 0},
}
TASK_PATHS = [("task", key) for key in ("type", "tol", "max_iter", "horizon", "trials", "seed")]
TASK_VALUES = FUZZ_VALUES + (0, 1, 3, 2.0, 0.5, 1e-300, "2", *TASK_BASES)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(sorted(TASK_BASES)),
    mutations=st.lists(st.tuples(st.sampled_from(TASK_PATHS), st.sampled_from(TASK_VALUES)), min_size=1, max_size=3),
)
@example(command="solve-finite", mutations=[(("task", "horizon"), 1e20)])
@example(command="robust-check", mutations=[(("task", "horizon"), 1e308)])
@example(command="verify-axioms", mutations=[(("task", "seed"), 1e308)])
@example(command="verify-axioms", mutations=[(("task", "trials"), 1e20)])
@example(command="check-contraction", mutations=[(("task", "trials"), 1e308)])
@example(command="solve-infinite", mutations=[(("task", "tol"), 1e-300), (("task", "max_iter"), 1e20)])
def test_a_mutated_task_exits_0_or_2_with_a_located_message(tmp_path, capsys, command, mutations):
    doc = dict(README_MODEL, task=dict(TASK_BASES[command], type=command))
    doc = _mutated(mutations, doc)
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    code = main([command, write(work / "m.json", doc), "--out", str(work / "out"), "--quiet"])
    err = capsys.readouterr().err
    if code == 3:  # a solve stopped by its max_iter
        assert command == "solve-infinite" and not err
    else:
        assert code in (0, 2) and (code == 0) == (not err), (code, err)
        assert "Traceback" not in err and (code == 0 or "task" in err), err


@pytest.mark.parametrize(
    "params, located",
    [
        ({"horizon": 10**9}, "task.params.horizon = 1000000000 with task.params.grid up to 3"),
        ({"horizon": 2**70, "grid": [1]}, f"task.params.horizon = {2**70} with task.params.grid up to 1"),
        ({"horizon": 1, "grid": [0, 10**7]}, "task.params.horizon = 1 with task.params.grid up to 10000000"),
        ({"horizon": 1, "grid": [2**200]}, f"task.params.horizon = 1 with task.params.grid up to {2**200}"),
        ({"horizon": 19, "grid": [1]}, "task.params.horizon = 19 with task.params.grid up to 1"),
    ],
)
def test_a_casino_past_the_cell_limit_is_refused_before_it_is_built(tmp_path, capsys, params, located):
    path = write(tmp_path / "m.json", _casino_example(**params))
    tracemalloc.start()
    try:
        code = main(["example", path, "--out", str(tmp_path / "out"), "--quiet"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2 and err == f"{located}: the casino's (state, bet, outcome) tables would hold more than 1000000 cells\n"
    assert peak < 2**20 and not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "params, built",
    [
        ({"horizon": 1, "grid": [0, 499]}, True),  # capital 998: 999 states x 500 bets x 2 outcomes
        ({"horizon": 3, "grid": [124]}, True),
        ({"horizon": 1, "grid": [0, 500]}, False),  # capital 1000: 1001 x 501 x 2
        ({"horizon": 3, "grid": [125]}, False),
        ({"horizon": 1, "grid": [0, 706], "win_prob": 1.0}, True),  # one outcome column: 1413 x 707 x 1
        ({"horizon": 1, "grid": [0, 706], "win_prob": 0.0}, True),
        ({"horizon": 1, "grid": [0, 707], "win_prob": 1.0}, False),  # 1415 x 708 x 1
        ({"horizon": 0, "grid": [10**9]}, True),  # build_casino refuses these
        ({"horizon": 10**9, "grid": [-5, 0]}, True),
        ({"horizon": 10**9, "grid": []}, True),
    ],
)
def test_the_casino_cell_limit_counts_the_dense_tables(tmp_path, capsys, monkeypatch, params, built):
    def build(win_prob, horizon, grid):
        raise ModelFileError(["built"])

    monkeypatch.setattr(cli.ex, "build_casino", build)
    path = write(tmp_path / "m.json", _casino_example(**params))
    assert main(["example", path, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert (capsys.readouterr().err == "built\n") is built


@pytest.mark.parametrize("grid", [[1], [0, 2], [1, 3]])
@pytest.mark.parametrize("horizon", [1, 2, 3])
@pytest.mark.parametrize("win_prob", [0.0, 0.5, 1.0])
def test_the_casino_cell_limit_is_the_size_of_the_built_tables(tmp_path, capsys, monkeypatch, win_prob, horizon, grid):
    # at a limit of exactly the cells build_casino makes, the file builds; one less refuses it
    cells = build_casino(win_prob, horizon, grid).transition.size

    def build(win_prob, horizon, grid):
        raise ModelFileError(["built"])

    monkeypatch.setattr(cli.ex, "build_casino", build)
    path = write(tmp_path / "m.json", _casino_example(win_prob=win_prob, horizon=horizon, grid=grid))
    for limit, err in (
        (cells, "built\n"),
        (cells - 1, f"task.params.horizon = {horizon} with task.params.grid up to {max(grid)}: the casino's "
                    f"(state, bet, outcome) tables would hold more than {cells - 1} cells\n"),
    ):
        monkeypatch.setattr(cli, "MAX_CASINO_CELLS", limit)
        assert main(["example", path, "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert capsys.readouterr().err == err


# each example with params it builds quickly, and the values the fuzz below puts in them
EXAMPLE_PARAMS = {
    "casino": {"win_prob": 0.75, "horizon": 2, "grid": [0, 1, 2, 3]},
    "house_selling": {"offers": [[0, 0.25], [1, 0.25], [2, 0.25], [3, 0.25]], "rent": 0.5, "beta": 0.9, "horizon": 2},
    "cash_balance": {
        "levels": [-2.0, -1.0, 0.0, 1.0, 2.0],
        "holding_costs": [4.0, 1.0, 0.0, 1.0, 4.0],
        "transfer_up": 1.0,
        "transfer_down": 1.0,
        "shifts": [[-1.0, 0.5], [1.0, 0.5]],
        "beta": 0.9,
    },
    "var_myopic": {
        "labels": [0.0, 1.0, 2.0],
        "shifts": [[-1.0, 0.35], [0.0, 0.3], [1.0, 0.35]],
        "action_shifts": [0.0, -1.0],
        "level": 0.5,
        "horizon": 3,
    },
}
PARAM_VALUES = FUZZ_VALUES + (
    0, 1, 2, 3, 0.5, "12", 2**70, -(2**70), 10**9, [0], [1, 1], [0, 1, 2], [-1.0, 0.0, 1.0], [0, 10**7], [2**70],
    ["a"], [None], [[1]], [[0, 0.5]], [[0, 0.5], [1, 0.5]], [[0, 1, 2]], [[0.0, math.nan]], [[-1.0, 2.0], [1.0, -1.0]],
    {"a": 1},
)


@settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    name=st.sampled_from(sorted(EXAMPLE_PARAMS)),
    mutations=st.lists(st.tuples(st.integers(0, 7), st.sampled_from(PARAM_VALUES)), min_size=1, max_size=3),
    extra=st.booleans(),
)
@example(name="casino", mutations=[(1, 10**9)], extra=False)
@example(name="casino", mutations=[(2, [0, 10**7])], extra=False)
@example(name="var_myopic", mutations=[(0, [])], extra=False)
@example(name="cash_balance", mutations=[(1, [1, 1])], extra=False)
def test_mutated_example_params_exit_0_or_2_with_a_located_message(tmp_path, capsys, name, mutations, extra):
    # every params key may be dropped or take a number, string, null, list, nested list or huge integer
    params = copy.deepcopy(EXAMPLE_PARAMS[name])
    keys = sorted(params)
    for index, value in mutations:
        key = keys[index % len(keys)]
        if value is _DROP:
            params.pop(key, None)
        else:
            params[key] = copy.deepcopy(value)
    if extra:
        params["unknown"] = None
    doc = {
        "risk": {"kind": "expected_shortfall", "level": 0.5},
        "task": {"type": "example", "name": name, "params": params, "task": {"type": "solve-finite", "horizon": 2}},
    }
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    code = main(["example", write(work / "m.json", doc), "--out", str(work / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert code in (0, 2) and (code == 0) == (not err), (code, err)
    assert "Traceback" not in err


def test_a_rerun_replaces_each_output_file_with_a_new_one(tmp_path, casino_doc):
    # removed and written anew: a hard link to an old file keeps the old
    # bytes, and the new bytes equal those of a run into a fresh directory
    verify = dict(README_MODEL, task={"type": "verify-bounds"})
    for command, doc, names in (
        ("solve-finite", casino_doc, ("values.csv", "policy.csv")),
        ("verify-bounds", verify, ("report.json",)),
    ):
        work = tmp_path / command
        fresh, out = work / "fresh", work / "out"
        path = write(tmp_path / f"{command}.json", doc)
        assert main([command, path, "--out", str(fresh), "--quiet"]) == 0
        out.mkdir(parents=True)
        for name in names:
            (out / name).write_text("old\n")
            (work / f"linked_{name}").hardlink_to(out / name)
        assert main([command, path, "--out", str(out), "--quiet"]) == 0
        for name in names:
            assert (work / f"linked_{name}").read_text() == "old\n"
            assert (out / name).read_bytes() == (fresh / name).read_bytes()


# Each report task on fixed inputs, and the example task's files with a bounds
# section: (command, model file, {output file: SHA-256 of its bytes}). The
# digests pin the files byte for byte (recorded on x86-64 Linux, Python 3.11,
# numpy 2.4): a change to how a report or model is written shows here.
_AXIOM_TASK = {"type": "verify-axioms", "trials": 40, "seed": 7}
REPORT_FILES = [
    pytest.param(
        "verify-axioms",
        {"risk": {"kind": "expected_shortfall", "level": 0.9}, "task": _AXIOM_TASK},
        {"report.json": "2e3c29b3c209453f440e83c70261a5c16dd813efe90d68912ea4909469dcec81"},
        id="verify-axioms-expected-shortfall",
    ),
    pytest.param(
        "verify-axioms",  # not subadditive: the report holds a witness
        {"risk": {"kind": "value_at_risk", "level": 0.7}, "task": _AXIOM_TASK},
        {"report.json": "f571c2d910b8a83603aa145cfed7dbeaa85b345ae7f4a9e7f3f62a86eabfc713"},
        id="verify-axioms-value-at-risk",
    ),
    pytest.param(
        "verify-bounds",
        dict(README_MODEL, task={"type": "verify-bounds"}),
        {"report.json": "b55664a77fb3ecaa21cffa1337e2288c0b1f8c655f0ef7f556bea184f35f51bf"},
        id="verify-bounds",
    ),
    pytest.param(
        "verify-bounds",  # state 0 pays 2.0 above ub 1.0
        _with(("bounds", "ub"), [1.0, 1.0], dict(README_MODEL, task={"type": "verify-bounds"})),
        {"report.json": "4d6f5adaf98228c02e192202f905b17dc0e838904f266b2a33863a590f9aee18"},
        id="verify-bounds-violated",
    ),
    pytest.param(
        "check-contraction",
        dict(README_MODEL, task={"type": "check-contraction", "trials": 20, "seed": 4}),
        {"report.json": "ed6549794a59e5b02f47f4a12c8ce796dbf6b1e44781574a73f16942a4c705ff"},
        id="check-contraction",
    ),
    pytest.param(
        "robust-check",
        dict(README_MODEL, task={"type": "robust-check", "horizon": 2, "tol": 1e-10}),
        {"report.json": "2601a8b7f81492299d5f6ceffa8163e96d3c38793d2632fe4eb5d619a320ebb7"},
        id="robust-check",
    ),
    pytest.param(
        "robust-check",
        dict(README_MODEL, task={"type": "robust-check", "horizon": 2, "tol": 1e-10, "enumerate": False}),
        {"report.json": "7d1e86977a09938a8bd276aa55cf69787c1a567fbdb2693731428e19d7f86ca6"},
        id="robust-check-no-enumeration",
    ),
    pytest.param(
        "example",
        {
            "risk": {"kind": "value_at_risk", "level": 0.5},
            "bounds": {"lb": [-9.0, -9.0, -9.0], "ub": [9.0, 9.0, 9.0], "eps_split": [0.25, 0.75], "alpha": 1.0},
            "task": {
                "type": "example",
                "name": "var_myopic",
                "params": {
                    "labels": [0.0, 1.0, 2.0],
                    "shifts": [[-1.0, 0.35], [0.0, 0.3], [1.0, 0.35]],
                    "action_shifts": [0.0, -1.0],
                },
                "task": {"type": "solve-finite", "horizon": 3},
            },
        },
        {
            "model.json": "1d3a055881fd2a69ce8cec4476679dfdac7b0f01afe01fcc6181d62f5da7798e",
            "values.csv": "a7903e9639b154dba090b34e3a1f1b9cd3da35412797b68edf0c14c1d8a1572b",
            "policy.csv": "d88fae33d30e1b966f3bd8693f4259029c49af7b9d434bc7493b41338f0d7221",
        },
        id="example-with-bounds",
    ),
]


@pytest.mark.parametrize("command, doc, digests", REPORT_FILES)
def test_each_report_and_example_file_keeps_its_bytes(tmp_path, command, doc, digests):
    out = tmp_path / "out"
    assert main([command, write(tmp_path / "m.json", doc), "--out", str(out), "--quiet"]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in digests} == digests


# ---------------------------------------------------------------------------
# The file layer against hand-written writers (helpers.risk_file_obj and
# helpers.model_file_obj), and the defaults of the fields a file leaves out

# each example's optional params; the rest are required
OPTIONAL_PARAMS = {"casino": ("grid",), "house_selling": ("beta", "horizon"), "cash_balance": ("beta",),
                   "var_myopic": ("level", "horizon")}
REQUIRED_PARAMS = {
    name: {key: value for key, value in EXAMPLE_PARAMS[name].items() if key not in optional}
    for name, optional in OPTIONAL_PARAMS.items()
}

_UNIT = st.floats(0.0, 1.0)
_OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def _knots(draw):
    us = sorted(draw(st.lists(_OPEN_UNIT, unique=True, max_size=4)))
    gs = sorted(draw(st.lists(_UNIT, min_size=len(us), max_size=len(us))))
    return ((0.0, 0.0), *zip(us, gs), (1.0, 1.0))


@st.composite
def _spectra(draw):
    us = [0.0, *sorted(draw(st.lists(_OPEN_UNIT, unique=True, max_size=3)))]
    raw = sorted(draw(st.lists(st.floats(0.1, 10.0), min_size=len(us), max_size=len(us))))
    total = sum(r * (hi - lo) for r, lo, hi in zip(raw, us, [*us[1:], 1.0]))
    return StepSpectrum(tuple(zip(us, (r / total for r in raw))))


_LEAF_RISKS = st.one_of(
    st.just(Expectation()),
    st.builds(ValueAtRisk, _OPEN_UNIT),
    st.builds(ExpectedShortfall, st.floats(0.0, 1.0, exclude_max=True)),
    st.just(Distortion(DistortionFunction("identity"))),
    _OPEN_UNIT.map(lambda level: Distortion(DistortionFunction("var_indicator", level))),
    st.floats(0.0, 1.0, exclude_max=True).map(lambda level: Distortion(DistortionFunction("es_cap", level))),
    _knots().map(lambda knots: Distortion(DistortionFunction("piecewise_linear", knots=knots))),
    _spectra().map(Spectral),
    st.builds(Entropic, st.floats(0.0, 1e3, exclude_min=True)),
)


def _risks(depth: int):
    """Risk specifications of every kind and distortion form, with mixtures nested up to ``depth`` deep."""
    if depth == 0:
        return _LEAF_RISKS
    inner = _risks(depth - 1)
    return st.one_of(inner, st.builds(Mixture, _UNIT, inner, inner))


@st.composite
def _bounds(draw, n_states: int):
    """A bounding spec over ``n_states`` and the optional fields it was built with; the rest take defaults."""
    mode = draw(st.sampled_from([None, "coherent", "comonotone_monotone", "bounded_below"]))
    given = {
        "eps_split": draw(st.none() | _UNIT.map(lambda u: (u, 1.0 - u))),
        "alpha": draw(st.none() | st.floats(1.0 if mode == "bounded_below" else 0.0, 10.0)),
        "mode": mode,
    }
    given = {key: value for key, value in given.items() if value is not None}
    below, above = given.get("eps_split", (0.5, 0.5))
    gaps = st.floats(0.0, 100.0)
    if mode == "bounded_below":
        lb = [-below - draw(gaps)] * n_states
    else:
        lb = [-below - draw(gaps) for _ in range(n_states)]
    return BoundingSpec(lb=lb, ub=[above + draw(gaps) for _ in range(n_states)], **given), given


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(REQUIRED_PARAMS)), risk=_risks(3), data=st.data())
def test_the_file_writers_match_hand_written_ones_and_read_back(name, risk, data):
    model = cli._build_example(name, copy.deepcopy(REQUIRED_PARAMS[name]))
    spec, given = data.draw(_bounds(model.n_states))
    task = {"type": "solve-finite", "horizon": 2}
    doc = model_file_dict(model, risk, task, spec)
    oracle = {"model": model_file_obj(model), "risk": risk_file_obj(risk), "bounds": bounds_to_obj(spec), "task": task}
    assert doc == oracle
    text = json.dumps(doc)
    assert text == json.dumps(oracle)
    assert parse_risk(json.loads(json.dumps(risk_to_obj(risk)))) == risk
    sections = parse_model_file(json.loads(text))
    assert (sections["model"], sections["risk"], sections["bounds"]) == (model, risk, spec)
    # a bounds section that holds only the fields the spec was built with reads as that spec
    bounds = {key: value for key, value in json.loads(text)["bounds"].items() if key in ("lb", "ub", *given)}
    assert parse_bounds(bounds) == spec


# a value other than its owner's default for each optional field, by file section
NOT_DEFAULT = {
    "bounds": {"lb": [-2.5, -2.5], "ub": [2.5, 2.5], "eps_split": [0.25, 0.75], "alpha": 2.0, "mode": "bounded_below"},
    "model": README_MODEL["model"],
    "house_selling": dict(EXAMPLE_PARAMS["house_selling"], horizon=3),
    "cash_balance": dict(EXAMPLE_PARAMS["cash_balance"], beta=0.8),
    "var_myopic": dict(EXAMPLE_PARAMS["var_myopic"], level=0.3, horizon=2),
}


@pytest.mark.parametrize(
    "section, name",
    [("bounds", "eps_split"), ("bounds", "alpha"), ("bounds", "mode"), ("model", "discount")]
    + [(example, key) for example, keys in OPTIONAL_PARAMS.items() if example != "casino" for key in keys],
)
def test_a_file_without_an_optional_field_reads_as_its_dataclass_built_without_it(monkeypatch, section, name):
    def read(obj):
        if section == "bounds":
            return parse_bounds(obj)
        if section == "model":
            return parse_model(obj)
        monkeypatch.setattr(cli.ex, f"build_{section}", lambda params: params)  # the params, not the model
        return cli._build_example(section, obj)

    full = read(copy.deepcopy(NOT_DEFAULT[section]))
    without = read({key: value for key, value in copy.deepcopy(NOT_DEFAULT[section]).items() if key != name})
    init = [f.name for f in dataclasses.fields(full) if f.init]
    built = type(full)(**{key: getattr(full, key) for key in init if key != name})
    assert getattr(full, name) != getattr(built, name)  # the file's value is not the default

    def held(obj):  # a function field is a new closure on each read: compared by its code
        return [getattr(value, "__code__", value) for value in map(obj.__getattribute__, init)]

    assert without == built if section in ("bounds", "model") else held(without) == held(built)
