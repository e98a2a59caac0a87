#!/usr/bin/env python3
"""Print SHA-256 digests of what the library computes on the perfbench inputs.

Two checkouts that print the same lines agree bit for bit. Per seed:

- one digest per infinite_cli model over the ``values.csv``,
  ``policy.csv`` and ``trace.csv`` that ``riskmdp solve-infinite`` writes;
- one digest over every casino and every robust instance result, each
  float written as ``float.hex``. Run times (``stage_seconds``) and the
  ``pair_evaluations`` counter are left out: they say how a result was
  reached, not what it is;
- one ``seed N counters`` line per infinite_cli model with the
  ``pair_evaluations`` of its solve, so two checkouts can show that
  they evaluate the same pairs. The other lines do not depend on them;
- one ``seed N fixed-rule`` digest over paths that no workload runs, on
  every infinite_cli model file: ``evaluate_policy_finite`` of the
  greedy rule at v = 0 as a stationary policy over 3 stages, and, on the
  coherent models, ``check_contraction`` (20 trials, seed 0) and, for
  that policy, ``nature_best_response`` over 3 stages and
  ``weak_increase_check`` over 3 stages. Their rule steps have at least
  48 outcomes, so they take the batched routes;
- one ``seed N model-files`` digest over the model files that
  ``model_io.model_file_dict`` writes: one per casino and robust
  instance, from the model, risk measure and bounds that its solve
  receives; one per infinite_cli file, as read back by
  ``parse_model_file``; and the ``model.json`` that ``riskmdp example``
  writes for each example given only its required params.

The inputs come from perfbench's workload generators, which are only
imported; the model files are written to a temporary directory. The
library is imported from ``src/`` of this checkout.

Example:
    python scripts/output_digest.py --seeds 1 2 20101
"""

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (perfbench's generators, from the path set above)

MODULES = ("cli", "distributions", "examples", "mdp_core", "model_io", "risk_measures", "robust_check", "solvers")
NOT_RESULTS = {"stage_seconds", "pair_evaluations"}
# the solves of the casino and robust instances, whose inputs the model-files line writes
SOLVES = (("solvers", "solve_finite"), ("robust_check", "verify_equivalence"), ("robust_check", "robust_value_iteration"))
# each example given only its required params
EXAMPLES = {
    "casino": {"win_prob": 0.75, "horizon": 2},
    "house_selling": {"offers": [[0, 0.25], [1, 0.25], [2, 0.25], [3, 0.25]], "rent": 0.5},
    "cash_balance": {
        "levels": [-2.0, -1.0, 0.0, 1.0, 2.0],
        "holding_costs": [4.0, 1.0, 0.0, 1.0, 4.0],
        "transfer_up": 1.0,
        "transfer_down": 1.0,
        "shifts": [[-1.0, 0.5], [1.0, 0.5]],
    },
    "var_myopic": {"labels": [0.0, 1.0, 2.0], "shifts": [[-1.0, 0.35], [0.0, 0.3], [1.0, 0.35]], "action_shifts": [0.0, -1.0]},
}


class Library:
    """The riskmdp modules, as perfbench's generators read them."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"riskmdp.{name}"))


def canonical(obj) -> str:
    """A text form of a result in which every float is written by ``float.hex``."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (bool, int, str)) or obj is None:
        return repr(obj)
    if dataclasses.is_dataclass(obj):
        # underscored fields are derived views, such as ValueFunction's array
        fields = [f.name for f in dataclasses.fields(obj) if f.name not in NOT_RESULTS and f.name[0] != "_"]
        return f"{type(obj).__name__}(" + ",".join(f"{n}={canonical(getattr(obj, n))}" for n in fields) + ")"
    if isinstance(obj, (tuple, list)):
        return "[" + ",".join(map(canonical, obj)) + "]"
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def solve_counted(lib, inst) -> tuple[int, list[int]]:
    """Run a CLI instance: its exit code and the ``pair_evaluations`` of each solve it made."""
    solve, evaluations = lib.cli.solve_infinite, []

    def counted(*args, **kwargs):
        result = solve(*args, **kwargs)
        evaluations.append(result.pair_evaluations)
        return result

    lib.cli.solve_infinite = counted
    try:
        return inst.solve(), evaluations
    finally:
        lib.cli.solve_infinite = solve


def fixed_rule_results(lib, models: Path) -> list[str]:
    """The fixed-rule, contraction and dual fixed-rule results on each model file in ``models``, by file name."""
    results = []
    for path in sorted(models.glob("*.json")):
        doc = lib.model_io.parse_model_file(json.loads(path.read_text()))
        model, risk, spec = doc["model"], doc["risk"], doc["bounds"]
        rule = lib.mdp_core.bellman_T(model, risk, [0.0] * model.n_states)[1]
        policy = lib.mdp_core.Policy(stages=(rule,), stationary=True)
        values = lib.solvers.evaluate_policy_finite(model, risk, policy, 3)
        line = f"{path.stem}={canonical(values)}"
        if lib.risk_measures.is_coherent(risk):
            ratio = lib.solvers.check_contraction(model, risk, spec, 20, 0)
            response = lib.robust_check.nature_best_response(model, lib.robust_check.dual_set(risk), policy, 3)
            increase = lib.solvers.weak_increase_check(model, risk, spec, policy, 3)
            line += f",{canonical(ratio)},{canonical(response)},{canonical(increase)}"
        else:
            line += f",{canonical(None)}"
        results.append(line)
    return results


@contextlib.contextmanager
def recording(lib, calls: list):
    """Record the name and arguments of each call of a ``SOLVES`` function while the block runs."""
    originals = [(getattr(lib, module), name, getattr(getattr(lib, module), name)) for module, name in SOLVES]

    def recorder(name, solve):
        def record(*args, **kwargs):
            calls.append((name, args))
            return solve(*args, **kwargs)

        return record

    for module, name, solve in originals:
        setattr(module, name, recorder(name, solve))
    try:
        yield
    finally:
        for module, name, solve in originals:
            setattr(module, name, solve)


def solve_input_file(lib, name: str, args: tuple) -> bytes:
    """The model file of a recorded solve: its model, its risk measure (a dual set's) and its bounds, if any."""
    model, risk, *rest = args
    bounds = next((a for a in rest if isinstance(a, lib.mdp_core.BoundingSpec)), None)
    doc = lib.model_io.model_file_dict(model, getattr(risk, "risk", risk), {"type": name}, bounds)
    return json.dumps(doc).encode()


def read_back_files(lib, models: Path) -> list[bytes]:
    """Each model file in ``models``, by file name, read by ``parse_model_file`` and written again."""
    files = []
    for path in sorted(models.glob("*.json")):
        doc = lib.model_io.parse_model_file(json.loads(path.read_text()))
        files.append(json.dumps(lib.model_io.model_file_dict(doc["model"], doc["risk"], doc["task"], doc["bounds"])).encode())
    return files


def example_files(lib, work: Path) -> list[bytes]:
    """The ``model.json`` that ``riskmdp example`` writes for each of ``EXAMPLES``, by name."""
    files = []
    work.mkdir()
    for name, params in sorted(EXAMPLES.items()):
        nested = {"type": "solve-finite", "horizon": 2}
        doc = {"risk": {"kind": "expected_shortfall", "level": 0.5},
               "task": {"type": "example", "name": name, "params": params, "task": nested}}
        path = work / f"{name}.json"
        path.write_text(json.dumps(doc))
        code = lib.cli.main(["example", str(path), "--out", str(work / name), "--quiet"])
        if code != 0:
            raise SystemExit(f"riskmdp example {name} exited {code}")
        files.append((work / name / "model.json").read_bytes())
    return files


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 20101])
    args = ap.parse_args()
    lib = Library()
    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            batch = workloads.infinite_cli(lib, seed, work / "cli")
            counters = []
            for inst in sorted(batch.instances, key=lambda i: i.name):
                inst.prepare()
                code, evaluations = solve_counted(lib, inst)
                out = work / "cli" / "out" / inst.name
                files = b"".join((out / name).read_bytes() for name in ("values.csv", "policy.csv", "trace.csv"))
                print(f"seed {seed} infinite_cli {inst.name} exit {code} {digest(files)}")
                counters.append(f"seed {seed} counters {inst.name} pair_evaluations {' '.join(map(str, evaluations))}")
            print(*counters, sep="\n")
            fixed = "\n".join(fixed_rule_results(lib, work / "cli" / "models"))
            print(f"seed {seed} fixed-rule {digest(fixed.encode())}")
            files = read_back_files(lib, work / "cli" / "models")
            calls = []
            for name in ("casino", "robust"):
                batch = getattr(workloads, name)(lib, seed, work / name)
                with recording(lib, calls):
                    results = [f"{inst.name}={canonical(inst.solve())}" for inst in batch.instances]
                print(f"seed {seed} {name} {len(results)} results {digest(chr(10).join(results).encode())}")
            files += [solve_input_file(lib, *call) for call in calls]
            files += example_files(lib, work / "examples")
            print(f"seed {seed} model-files {len(files)} files {digest(*files)}")


if __name__ == "__main__":
    main()
