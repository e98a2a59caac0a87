"""End-to-end command-line tests on temporary model files."""

import json

import pytest

from riskmdp.cli import main
from riskmdp.examples import build_casino
from riskmdp.mdp_core import constant_bounding_spec
from riskmdp.model_io import (
    bounds_to_obj,
    model_file_dict,
    model_to_obj,
    parse_model_file,
    risk_to_obj,
)
from riskmdp.risk_measures import Expectation, ExpectedShortfall


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
