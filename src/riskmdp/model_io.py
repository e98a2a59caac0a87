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
from dataclasses import MISSING, asdict, fields
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


def _present(obj: dict, where: str, **casts) -> dict:
    """The optional fields that ``obj`` holds, each read by its cast and located as ``where.key``; one left
    out is not passed on, so the dataclass that owns it gives its default."""
    return {key: _field(obj, key, cast, where) for key, cast in casts.items() if key in obj}


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


# each risk class and its file ``kind``: the one place that names a kind
_KINDS = {
    Expectation: "expectation", ValueAtRisk: "value_at_risk", ExpectedShortfall: "expected_shortfall",
    Distortion: "distortion", Spectral: "spectral", Entropic: "entropic", Mixture: "mixture",
}


def _inline_g(obj: dict, key: str, where: str) -> DistortionFunction:
    """A distortion's g, held in the measure's own object: a ``form`` (piecewise_linear if left out) and
    the parameter that the form takes; a null level is read as none."""
    form = obj.get("form", "piecewise_linear")
    if form == "piecewise_linear":
        return DistortionFunction(form, knots=_field(obj, "knots", _pairs, where))
    level = obj.get("level")
    return DistortionFunction(form, None if level is None else _cast(f"{where}.level", _float, level))


# how a file holds a measure's field, by the field's annotated type
_READ_FIELD = {
    "float": lambda obj, key, where: _field(obj, key, _float, where),
    "RiskMeasure": lambda obj, key, where: _field(obj, key, lambda sub: parse_risk(sub, f"{where}.{key}"), where),
    "DistortionFunction": _inline_g,
    "StepSpectrum": lambda obj, key, where: StepSpectrum(_field(obj, "breakpoints", _pairs, where)),
}


def parse_risk(obj: Any, where: str = "risk") -> RiskMeasure:
    """The risk specification ``obj``; diagnostics name fields as ``where.<field>``."""
    if not isinstance(obj, dict) or "kind" not in obj:
        _fail(f"{where} must be an object with a 'kind', got {obj!r}")
    kind = obj["kind"]
    for cls, name in _KINDS.items():
        if name == kind:  # compared, not looked up: a kind such as [1] cannot be hashed
            return cls(**{f.name: _READ_FIELD[f.type](obj, f.name, where) for f in fields(cls)})
    _fail(f"unknown risk kind {kind!r}")


def _plain(value):
    """``value`` with each tuple a list, as JSON reads an array back; a tuple holds numbers or tuples."""
    if isinstance(value, tuple):
        return [_plain(v) for v in value] if value and isinstance(value[0], tuple) else list(value)
    return value


def _held(obj) -> dict:
    """The init fields of dataclass ``obj`` that are not None, in declaration order, each tuple a list."""
    return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj) if f.init and getattr(obj, f.name) is not None}


def risk_to_obj(risk: RiskMeasure) -> dict:
    """The measure's ``kind`` and fields; a distortion's g and a spectrum's phi are written inline."""
    kind = next((name for cls, name in _KINDS.items() if isinstance(risk, cls)), None)
    if kind is None:
        _fail(f"cannot serialize risk {risk!r}")
    out = {"kind": kind}
    for name, value in _held(risk).items():
        if isinstance(value, (DistortionFunction, StepSpectrum)):
            out.update(_held(value))
        else:
            out[name] = risk_to_obj(value) if isinstance(value, RiskMeasure) else value
    return out


def parse_model(obj: Any) -> MdpModel:
    """Build the model, collecting structural diagnostics before touching tables."""
    if not isinstance(obj, dict):
        raise ModelFileError(["model section must be an object"])
    required = (f.name for f in fields(MdpModel) if f.init and f.default is MISSING)
    diags = [f"model.{key} is missing" for key in required if key not in obj]
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
    labels = {k: obj[k] for k in ("state_labels", "z_labels") if obj.get(k) is not None}  # a null reads as absent
    return MdpModel(
        n_states=n_states,
        n_actions=n_actions,
        admissible=admissible,
        disturbance=disturbance,
        transition=transition,
        cost=cost,
        terminal_cost=_field(obj, "terminal_cost", _floats, "model"),
        **_present(obj, "model", discount=_float),
        **_present(labels, "model", state_labels=_floats, z_labels=_floats),
    )


def model_to_obj(model: MdpModel) -> dict:
    """The model's fields; the disturbance is written as its indices, probabilities and table width, and
    an inadmissible action's cells as null."""
    admissible, actions = model.admissible, range(model.n_actions)

    def rows(tab):
        return [
            [list(tab[x][a]) if a in admissible[x] else None for a in actions]
            for x in range(model.n_states)
        ]

    trans, costs = model.rows
    law = model.disturbance
    return {
        **_held(model),  # the three below keep their places
        "disturbance": {"indices": [int(a) for a in law.atoms], "probs": list(law.probs), "n_outcomes": model.n_outcomes},
        "transition": rows(trans),
        "cost": rows(costs),
    }


def parse_bounds(obj: Any) -> BoundingSpec:
    """The envelope specification ``obj``; diagnostics name fields as ``bounds.<field>[i]``."""
    if not isinstance(obj, dict):
        _fail("bounds section must be an object")

    def floats(raw, key: str) -> tuple[float, ...]:
        try:
            return _floats(raw)
        except (TypeError, ValueError, OverflowError):  # read again entry by entry, to locate the fault
            return tuple(_cast(f"bounds.{key}", _float, v, i) for i, v in enumerate(_array(raw)))

    def split(raw) -> tuple[float, ...]:
        eps_split = floats(raw, "eps_split")
        if len(eps_split) != 2:
            _fail(f"bounds.eps_split has {len(eps_split)} entries, expected 2")
        return eps_split

    eps_split = _present(obj, "bounds", eps_split=split)  # checked before the envelopes that it shifts
    return BoundingSpec(
        lb=_field(obj, "lb", lambda raw: floats(raw, "lb"), "bounds"),
        ub=_field(obj, "ub", lambda raw: floats(raw, "ub"), "bounds"),
        **eps_split,
        **_present(obj, "bounds", alpha=_float, mode=BoundMode),
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

