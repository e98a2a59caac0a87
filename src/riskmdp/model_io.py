"""JSON model files: parsing, validation diagnostics, and exact emission.

A model file is one JSON document with sections ``model`` (the tabulated
decision problem), ``risk`` (one risk specification or a per-stage
list), optional ``bounds`` (an envelope specification), and ``task``
(what to run, with its parameters). Floats are emitted with Python's
shortest exact representation, so a file written from a model parses
back to the identical in-memory object.
"""

from __future__ import annotations

import reprlib
from dataclasses import asdict
from itertools import chain, compress, repeat
from operator import is_not
from typing import Any

import numpy as np

from .distributions import make_distribution
from .errors import RiskMdpError
from .mdp_core import BoundingSpec, BoundMode, MdpModel
from .risk_measures import (
    Distortion,
    DistortionFunction,
    Entropic,
    Expectation,
    ExpectedShortfall,
    Mixture,
    RiskMeasure,
    Spectral,
    StepSpectrum,
    ValueAtRisk,
)

__all__ = [
    "ModelFileError",
    "parse_risk",
    "risk_to_obj",
    "parse_model",
    "model_to_obj",
    "parse_bounds",
    "bounds_to_obj",
    "parse_model_file",
    "model_file_dict",
    "TASK_TYPES",
]

TASK_TYPES = (
    "solve-finite",
    "solve-infinite",
    "verify-axioms",
    "verify-bounds",
    "check-contraction",
    "robust-check",
    "example",
)


class ModelFileError(RiskMdpError):
    """Carries every schema diagnostic found while parsing a model file."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(diagnostics))


def _fail(msg: str) -> None:
    raise ModelFileError([msg])


def _cast(where: str, cast, value, *index: int):
    """``cast(value)``, or a ModelFileError located at ``where[index]...`` if it cannot be read."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, RiskMdpError):
            raise
        at = where + "".join(f"[{i}]" for i in index)
        _fail(f"{at}: cannot read {reprlib.repr(value)} ({exc})")


def _field(obj: dict, key: str, cast, where: str):
    """The required ``obj[key]`` read by ``cast``, located as ``where.key``."""
    if key not in obj:
        _fail(f"{where}.{key} is missing")
    return _cast(f"{where}.{key}", cast, obj[key])


def _is_number(value) -> bool:
    """Whether ``value`` is a JSON number: an int or a float, numpy's included, never a bool or a string."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _array(values) -> list | tuple:
    """``values`` if it is a JSON array, or a list or tuple from a Python caller."""
    if not isinstance(values, (list, tuple)):
        raise TypeError("not an array")
    return values


def _numbers(values) -> list | tuple:
    """``values`` if it is an array of numbers; plain ints and floats, as JSON gives them, pass in one C pass."""
    if not {int, float}.issuperset(map(type, _array(values))) and not all(map(_is_number, values)):
        raise TypeError("not a number")
    return values


def _ints(values) -> tuple[int, ...]:
    """``int`` of each number, refusing a float it would truncate: 2.0 reads as 2, 2.5 is an error."""
    ints = tuple(map(int, _numbers(values)))
    if ints != tuple(values):
        raise ValueError("not an integer")
    return ints


def _int(value) -> int:
    return _ints((value,))[0]


def _floats(values) -> tuple[float, ...]:
    return tuple(map(float, _numbers(values)))


def _float(value) -> float:
    if not _is_number(value):
        raise TypeError("not a number")
    return float(value)


def _pairs(rows) -> tuple[tuple[float, float], ...]:
    return tuple((u, v) for u, v in map(_floats, _array(rows)))


def _array_cells(raw, n_actions: int, k: int, kinds: str):
    """The (S, A) mask of the filled cells of table ``raw`` and their (n, k) array, read by one numpy call.

    None unless every row holds ``n_actions`` cells and numpy reads the filled ones as a rectangle of
    width ``k`` of a dtype kind in ``kinds`` ("i": int64, "f": float64) without a bool among them (numpy
    reads ``[0, true]`` as ints): bool, unsigned, str and object cells, ragged and nested ones go to the
    per-cell reader, with all that it refuses or reads otherwise.
    """
    try:
        if set(map(len, raw)) != {n_actions}:
            return None
        flat = list(chain.from_iterable(raw))
        filled = np.fromiter(map(is_not, flat, repeat(None)), dtype=bool, count=len(flat))
        kept = list(compress(flat, filled))
        cells = np.array(kept)
    except (TypeError, ValueError, OverflowError):
        return None
    if cells.ndim != 2 or cells.shape[1] != k or cells.dtype.kind not in kinds:
        return None
    # numpy reads a bool as 0 or 1, so only there can one hide
    if any(type(kept[i // k][i % k]) is bool for i in np.flatnonzero((cells == 0) | (cells == 1)).tolist()):
        return None
    return filled.reshape(len(raw), n_actions), cells


def parse_risk(obj: Any, where: str = "risk") -> RiskMeasure:
    """The risk specification ``obj``; diagnostics name fields as ``where.<field>``."""
    if not isinstance(obj, dict) or "kind" not in obj:
        _fail(f"{where} must be an object with a 'kind', got {obj!r}")
    kind = obj["kind"]
    if kind == "expectation":
        return Expectation()
    if kind == "value_at_risk":
        return ValueAtRisk(level=_field(obj, "level", _float, where))
    if kind == "expected_shortfall":
        return ExpectedShortfall(level=_field(obj, "level", _float, where))
    if kind == "distortion":
        form = obj.get("form", "piecewise_linear")
        if form == "piecewise_linear":
            knots = _field(obj, "knots", _pairs, where)
            return Distortion(g=DistortionFunction(form=form, knots=knots))
        level = obj.get("level")
        return Distortion(
            g=DistortionFunction(
                form=form, level=None if level is None else _cast(f"{where}.level", _float, level)
            )
        )
    if kind == "spectral":
        bps = _field(obj, "breakpoints", _pairs, where)
        return Spectral(phi=StepSpectrum(breakpoints=bps))
    if kind == "entropic":
        return Entropic(gamma=_field(obj, "gamma", _float, where))
    if kind == "mixture":
        return Mixture(
            weight=_field(obj, "weight", _float, where),
            first=_field(obj, "first", lambda sub: parse_risk(sub, f"{where}.first"), where),
            second=_field(obj, "second", lambda sub: parse_risk(sub, f"{where}.second"), where),
        )
    _fail(f"unknown risk kind {kind!r}")


def risk_to_obj(risk: RiskMeasure) -> dict:
    if isinstance(risk, Expectation):
        return {"kind": "expectation"}
    if isinstance(risk, ValueAtRisk):
        return {"kind": "value_at_risk", "level": risk.level}
    if isinstance(risk, ExpectedShortfall):
        return {"kind": "expected_shortfall", "level": risk.level}
    if isinstance(risk, Distortion):
        g = risk.g
        if g.form == "piecewise_linear":
            return {"kind": "distortion", "form": g.form, "knots": [list(k) for k in g.knots]}
        out = {"kind": "distortion", "form": g.form}
        if g.level is not None:
            out["level"] = g.level
        return out
    if isinstance(risk, Spectral):
        return {"kind": "spectral", "breakpoints": [list(b) for b in risk.phi.breakpoints]}
    if isinstance(risk, Entropic):
        return {"kind": "entropic", "gamma": risk.gamma}
    if isinstance(risk, Mixture):
        return {
            "kind": "mixture",
            "weight": risk.weight,
            "first": risk_to_obj(risk.first),
            "second": risk_to_obj(risk.second),
        }
    _fail(f"cannot serialize risk {risk!r}")


def parse_model(obj: Any) -> MdpModel:
    """Build the model, collecting structural diagnostics before touching tables."""
    diags: list[str] = []
    if not isinstance(obj, dict):
        raise ModelFileError(["model section must be an object"])
    for key in ("n_states", "n_actions", "admissible", "disturbance", "transition", "cost", "terminal_cost"):
        if key not in obj:
            diags.append(f"model.{key} is missing")
    if diags:
        raise ModelFileError(diags)
    dist_obj = obj["disturbance"]
    if not isinstance(dist_obj, dict) or "probs" not in dist_obj:
        raise ModelFileError(["model.disturbance must be an object with 'probs'"])
    probs = _field(dist_obj, "probs", _floats, "model.disturbance")
    indices = dist_obj.get("indices", tuple(range(len(probs))))
    atoms = _cast("model.disturbance.indices", lambda v: _floats(_ints(v)), indices)
    disturbance = make_distribution(atoms, probs)
    n_states = _field(obj, "n_states", _int, "model")
    n_actions = _field(obj, "n_actions", _int, "model")
    # table z-width: explicit, else inferred from the data, else the law size
    if "n_outcomes" in dist_obj:
        k = _field(dist_obj, "n_outcomes", _int, "model.disturbance")
    else:
        def widest(raw):
            return max((len(cell) for row in raw for cell in row if cell is not None), default=len(probs))

        k = _cast("model.transition", widest, obj["transition"])

    def table(name: str, read, kinds: str):
        where = f"model.{name}"
        raw = _cast(where, _array, obj[name])
        if len(raw) != n_states:
            diags.append(f"{where} has {len(raw)} rows, expected {n_states}")
            return None
        fast = _array_cells(raw, n_actions, k, kinds)
        if fast is not None:
            return fast
        out = []
        for x, row in enumerate(raw):
            if len(_cast(where, _array, row, x)) != n_actions:
                diags.append(f"{where}[{x}] has {len(row)} actions, expected {n_actions}")
                return None
            cells = []
            for a, cell in enumerate(row):
                if cell is not None:
                    cell = _cast(where, read, cell, x, a)
                    if len(cell) != k:
                        diags.append(f"{where}[{x}][{a}] has {len(cell)} outcomes, expected {k}")
                        return None
                cells.append(cell)
            out.append(cells)
        return out

    def filled(out, read, dtype, width):
        # null cells are zeros, built only once the filled cells of both
        # tables agree with k and no admissible pair has a null cell, and
        # only at a width that a filled cell has: a wrong n_outcomes is
        # refused, or left to validate_model, before it is allocated
        if isinstance(out, tuple):  # the fast reader's mask and cells
            table = np.zeros((*out[0].shape, width), dtype=dtype)
            table[out[0]] = out[1]
            return table
        zero = read((0,) * width)
        return tuple(tuple(zero if cell is None else cell for cell in row) for row in out)

    transition = table("transition", _ints, "i")
    cost = table("cost", _floats, "if")
    if diags or transition is None or cost is None:
        raise ModelFileError(diags)
    admissible = _field(obj, "admissible", lambda rows: tuple(map(_ints, _array(rows))), "model")
    diags = [
        f"model.{name}[{x}][{a}] is null, but action {a} is admissible in state {x}"
        for name in ("transition", "cost")
        for x, (row, acts) in enumerate(zip(obj[name], admissible))
        if isinstance(row, (list, tuple)) and None in row
        for a in sorted(set(acts))
        if 0 <= a < n_actions and row[a] is None
    ]
    if diags:
        raise ModelFileError(diags)
    # k is confirmed once a filled cell has it; the fast reader's (mask, cells) tuple holds one
    confirmed = any(isinstance(t, tuple) or any(c is not None for row in t for c in row) for t in (transition, cost))
    width = k if confirmed else 0
    transition, cost = filled(transition, _ints, np.int64, width), filled(cost, _floats, np.float64, width)
    labels = obj.get("state_labels")
    z_labels = obj.get("z_labels")
    return MdpModel(
        n_states=n_states,
        n_actions=n_actions,
        admissible=admissible,
        disturbance=disturbance,
        transition=transition,
        cost=cost,
        terminal_cost=_field(obj, "terminal_cost", _floats, "model"),
        discount=_cast("model.discount", _float, obj.get("discount", 1.0)),
        state_labels=None if labels is None else _cast("model.state_labels", _floats, labels),
        z_labels=None if z_labels is None else _cast("model.z_labels", _floats, z_labels),
    )


def model_to_obj(model: MdpModel) -> dict:
    admissible, actions = model.admissible, range(model.n_actions)

    def rows(tab):
        return [
            [list(tab[x][a]) if a in admissible[x] else None for a in actions]
            for x in range(model.n_states)
        ]

    trans, costs = model.rows

    obj = {
        "n_states": model.n_states,
        "n_actions": model.n_actions,
        "admissible": [list(row) for row in model.admissible],
        "disturbance": {
            "indices": [int(a) for a in model.disturbance.atoms],
            "probs": list(model.disturbance.probs),
            "n_outcomes": model.n_outcomes,
        },
        "transition": rows(trans),
        "cost": rows(costs),
        "terminal_cost": list(model.terminal_cost),
        "discount": model.discount,
    }
    if model.state_labels is not None:
        obj["state_labels"] = list(model.state_labels)
    if model.z_labels is not None:
        obj["z_labels"] = list(model.z_labels)
    return obj


def parse_bounds(obj: Any) -> BoundingSpec:
    """The envelope specification ``obj``; diagnostics name fields as ``bounds.<field>[i]``."""
    if not isinstance(obj, dict):
        _fail("bounds section must be an object")

    def floats(key: str, default=None) -> tuple[float, ...]:
        where = f"bounds.{key}"
        if default is None and key not in obj:
            _fail(f"{where} is missing")
        raw = _cast(where, _array, obj.get(key, default))
        try:
            return _floats(raw)
        except (TypeError, ValueError, OverflowError):  # read again entry by entry, to locate the fault
            return tuple(_cast(where, _float, v, i) for i, v in enumerate(raw))

    eps_split = floats("eps_split", (0.5, 0.5))
    if len(eps_split) != 2:
        _fail(f"bounds.eps_split has {len(eps_split)} entries, expected 2")
    return BoundingSpec(
        lb=floats("lb"),
        ub=floats("ub"),
        eps_split=eps_split,
        alpha=_cast("bounds.alpha", _float, obj.get("alpha", 1.0)),
        mode=_cast("bounds.mode", BoundMode, obj.get("mode", "coherent")),
    )


def bounds_to_obj(spec: BoundingSpec) -> dict:
    return asdict(spec)  # JSON writes the tuples as arrays and the str-valued mode as its value


def parse_model_file(doc: Any) -> dict:
    """Split a loaded JSON document into typed sections.

    Returns a dict with keys model (MdpModel or None for example tasks),
    risk (RiskMeasure or list), bounds (BoundingSpec or None), task
    (dict with a validated 'type').
    """
    if not isinstance(doc, dict):
        raise ModelFileError(["model file must be a JSON object"])
    task = doc.get("task")
    if not isinstance(task, dict) or "type" not in task:
        raise ModelFileError(["task section must be an object with a 'type'"])
    if task["type"] not in TASK_TYPES:
        raise ModelFileError([f"unknown task type {task['type']!r}"])
    model = None
    if task["type"] not in ("example", "verify-axioms"):
        if "model" not in doc:
            raise ModelFileError(["model section is missing"])
        model = parse_model(doc["model"])
    elif "model" in doc:
        model = parse_model(doc["model"])
    risk = None
    if "risk" in doc:
        raw = doc["risk"]
        if isinstance(raw, list):
            risk = [parse_risk(r, f"risk[{i}]") for i, r in enumerate(raw)]
        else:
            risk = parse_risk(raw)
    bounds = parse_bounds(doc["bounds"]) if "bounds" in doc else None
    return {"model": model, "risk": risk, "bounds": bounds, "task": task}


def model_file_dict(model: MdpModel, risk, task: dict, bounds: BoundingSpec | None = None) -> dict:
    doc: dict = {"model": model_to_obj(model)}
    if isinstance(risk, (list, tuple)):
        doc["risk"] = [risk_to_obj(r) for r in risk]
    else:
        doc["risk"] = risk_to_obj(risk)
    if bounds is not None:
        doc["bounds"] = bounds_to_obj(bounds)
    doc["task"] = task
    return doc

