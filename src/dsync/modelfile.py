"""JSON model files (format ``dsync-net/1``).

Top-level keys: ``format``, ``name``, ``places``, ``transitions``, ``flows``,
``initial_marking``. Guards are constraint text in the grammar of
:mod:`dsync.constraints`; delays and interarrivals are distribution objects
(``{"kind": "constant"|"uniform"|"exponential", ...}``) and attribute
generators support constant, uniform, uniform_int and weighted choice.
"""
from __future__ import annotations

import json
import math
from typing import Any

from .constraints import parse_constraint
from .errors import ModelError
from .net import (
    ArrivalSpec,
    AttrGen,
    DelaySpec,
    Marking,
    Net,
    Place,
    Token,
    Transition,
    validate_net,
)

FORMAT = "dsync-net/1"


def _typed(value: Any, types: tuple, what: str) -> Any:
    """``value`` when it is one of ``types`` (a bool is no number here)."""
    if (isinstance(value, bool) and bool not in types) or not isinstance(value, types):
        names = " or ".join("null" if t is type(None) else t.__name__ for t in types)
        raise ModelError(f"{what} should be {names}, found {value!r}")
    return value


def _finite(value: Any, what: str) -> Any:
    """``value`` unless it is a NaN or infinite number (JSON ``1e400`` is one)."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ModelError(f"{what} must be finite, found {value!r}")
    return value


def _number(obj: dict, key: str, context: str) -> float:
    return _finite(float(obj[key]), f"{context} {key}")


def _delay_from_json(obj: Any, context: str) -> DelaySpec:
    if obj is None:
        return DelaySpec.constant(0.0)
    if isinstance(obj, (int, float)):
        return DelaySpec.constant(_finite(float(obj), context))
    kind = obj.get("kind")
    if kind == "constant":
        return DelaySpec.constant(_number(obj, "value", context))
    if kind == "uniform":
        return DelaySpec.uniform(_number(obj, "lo", context), _number(obj, "hi", context))
    if kind == "exponential":
        return DelaySpec.exponential(_number(obj, "mean", context))
    raise ModelError(f"{context}: unknown delay kind {kind!r}")


def _delay_to_json(spec: DelaySpec) -> Any:
    if spec.kind == "constant":
        return {"kind": "constant", "value": spec.value}
    if spec.kind == "uniform":
        return {"kind": "uniform", "lo": spec.lo, "hi": spec.hi}
    return {"kind": "exponential", "mean": spec.mean}


def _attrgen_from_json(obj: Any, context: str) -> AttrGen:
    kind = obj.get("kind")
    if kind == "constant":
        return AttrGen("constant", value=_finite(obj["value"], f"{context} value"))
    if kind in ("uniform", "uniform_int"):
        return AttrGen(kind, lo=_number(obj, "lo", context), hi=_number(obj, "hi", context))
    if kind == "choice":
        return AttrGen(
            "choice",
            values=tuple(_finite(v, f"{context} values") for v in obj["values"]),
            weights=tuple(_finite(w, f"{context} weights") for w in obj.get("weights", ())),
        )
    raise ModelError(f"{context}: unknown attribute generator kind {kind!r}")


def _attrgen_to_json(gen: AttrGen) -> Any:
    if gen.kind == "constant":
        return {"kind": "constant", "value": gen.value}
    if gen.kind in ("uniform", "uniform_int"):
        return {"kind": gen.kind, "lo": gen.lo, "hi": gen.hi}
    out: dict[str, Any] = {"kind": "choice", "values": list(gen.values)}
    if gen.weights:
        out["weights"] = list(gen.weights)
    return out


def net_from_json(doc: dict) -> Net:
    if doc.get("format") != FORMAT:
        raise ModelError(f"unsupported model format {doc.get('format')!r}, expected {FORMAT!r}")
    places = [
        Place(
            _typed(p["id"], (str,), "place id"),
            p.get("kind", "plain"),
            tuple((name, typ) for name, typ in p.get("attributes", [])),
        )
        for p in doc.get("places", [])
    ]
    transitions = []
    for t in doc.get("transitions", []):
        guard = None
        if t.get("guard"):
            guard = parse_constraint(t["guard"])
        arrival = None
        if t.get("arrival_spec"):
            spec = t["arrival_spec"]
            arrival = ArrivalSpec(
                interarrival=_delay_from_json(spec.get("interarrival"), f"{t['id']} interarrival"),
                attributes={
                    name: _attrgen_from_json(gen, f"{t['id']} attribute {name}")
                    for name, gen in sorted(spec.get("attributes", {}).items())
                },
                max_count=_typed(spec.get("max_count"), (int, type(None)), "max_count"),
                case_prefix=spec.get("case_prefix", "c"),
            )
        transitions.append(
            Transition(
                _typed(t["id"], (str,), "transition id"),
                is_task=_typed(t.get("is_task", True), (bool,), "is_task"),
                delay=_delay_from_json(t.get("delay"), f"{t['id']} delay"),
                guard=guard,
                arrival_spec=arrival,
            )
        )
    flows = [(src, tgt) for src, tgt in doc.get("flows", [])]
    marking = Marking()
    for place_id, tokens in sorted(doc.get("initial_marking", {}).items()):
        what = f"initial token in {place_id}:"
        for tok in tokens:
            marking = marking.with_added(
                place_id,
                Token(
                    tok.get("case_id"),
                    {k: _finite(v, f"{what} {k}") for k, v in tok.get("attrs", {}).items()},
                    _finite(float(tok.get("available_at", 0.0)), f"{what} available_at"),
                ),
            )
    return Net(places, transitions, flows, marking, doc.get("name", ""))


def net_to_json(net: Net) -> dict:
    doc: dict[str, Any] = {"format": FORMAT, "name": net.name}
    doc["places"] = [
        {"id": p.id, "kind": p.kind, "attributes": [list(a) for a in p.attributes]}
        for p in net.places.values()
    ]
    transitions = []
    for t in net.transitions.values():
        obj: dict[str, Any] = {
            "id": t.id,
            "is_task": t.is_task,
            "delay": _delay_to_json(t.delay),
        }
        if t.guard is not None:
            obj["guard"] = t.guard.canonical()
        if t.arrival_spec is not None:
            obj["arrival_spec"] = {
                "interarrival": _delay_to_json(t.arrival_spec.interarrival),
                "attributes": {
                    name: _attrgen_to_json(gen)
                    for name, gen in sorted(t.arrival_spec.attributes.items())
                },
                "max_count": t.arrival_spec.max_count,
                "case_prefix": t.arrival_spec.case_prefix,
            }
        transitions.append(obj)
    doc["transitions"] = transitions
    doc["flows"] = [list(f) for f in net.flows]
    marking: dict[str, list] = {}
    for place_id in net.initial_marking.places():
        marking[place_id] = [
            {"case_id": tok.case_id, "attrs": dict(tok.attrs), "available_at": tok.available_at}
            for tok in net.initial_marking.tokens(place_id)
        ]
    doc["initial_marking"] = marking
    return doc


def load_model(path: str) -> Net:
    """Load and validate a model file; raises ModelError on any violation.

    Invalid JSON and missing or ill-typed keys are violations too.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            net = net_from_json(json.load(fh))
        except KeyError as exc:
            raise ModelError(f"model {path!r} is missing key {exc}") from None
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:  # JSONDecodeError too
            raise ModelError(f"model {path!r} is malformed: {exc}") from None
    problems = validate_net(net)
    if problems:
        raise ModelError(f"model {path!r} is invalid: " + "; ".join(problems))
    return net


def save_model(net: Net, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(net_to_json(net), fh, indent=2, sort_keys=False)
        fh.write("\n")
