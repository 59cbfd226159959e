"""JSON model files (format ``dsync-net/1``).

Top-level keys: ``format``, ``name``, ``places``, ``transitions``, ``flows``,
``initial_marking``. Guards are constraint text in the grammar of
:mod:`dsync.constraints`; delays, interarrivals and attribute generators are
distribution objects, ``{"kind": ...}`` plus the kind's ``net.DIST_PARAMS``
(a choice may omit ``weights``), and a delay may also be a bare number.
"""
from __future__ import annotations

import json
import math
from typing import Any

from .constraints import parse_constraint
from .errors import ConstraintSyntaxError, DsyncError, ModelError
from .eventlog import EMPTY_ATTRS
from .net import (
    DIST_PARAMS,
    DIST_ROLES,
    ArrivalSpec,
    Dist,
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


def _number(value: Any, what: str) -> float:
    """``value`` as a float when it is a finite JSON number (no bool or text)."""
    return _finite(float(_typed(value, (int, float), what)), what)


def _dist_from_json(obj: Any, context: str, role: str) -> Dist:
    """A ``role`` distribution (a ``DIST_ROLES`` key); a delay may also be a
    bare number or absent (constant 0)."""
    if role == "delay" and not isinstance(obj, dict):
        return Dist.constant(0.0 if obj is None else _number(obj, context))
    kind = obj.get("kind")
    if kind not in DIST_ROLES[role]:
        raise ModelError(f"{context}: unknown {role} kind {kind!r}")
    params: dict[str, Any] = {}
    for key in DIST_PARAMS[kind]:
        what = f"{context} {key}"
        if key in ("values", "weights"):
            items = _typed(obj[key] if key == "values" else obj.get(key, []), (list,), what)
            params[key] = tuple(_finite(v, what) for v in items)
        else:  # a constant attribute may be any JSON value, other parameters are numbers
            number = key != "value" or role == "delay"
            params[key] = _number(obj[key], what) if number else _finite(obj[key], what)
    return Dist(kind, **params)


def _dist_to_json(dist: Dist) -> dict:
    """The object ``_dist_from_json`` reads back; empty weights are left out."""
    out: dict[str, Any] = {"kind": dist.kind}
    for key in DIST_PARAMS[dist.kind]:
        value = getattr(dist, key)
        if key != "weights" or value:
            out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _token_from_json(tok: dict, what: str) -> Token:
    return Token(
        _typed(tok.get("case_id"), (str, type(None)), f"{what} case_id"),
        {k: _finite(v, f"{what} {k}") for k, v in tok.get("attrs", {}).items()} or EMPTY_ATTRS,
        _number(tok.get("available_at", 0.0), f"{what} available_at"),
    )


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
            try:
                guard = parse_constraint(t["guard"])
            except ConstraintSyntaxError as exc:
                raise ModelError(f"guard of {t['id']!r}: {exc}") from None
        arrival = None
        if t.get("arrival_spec"):
            spec = t["arrival_spec"]
            arrival = ArrivalSpec(
                interarrival=_dist_from_json(
                    spec.get("interarrival"), f"{t['id']} interarrival", "delay"
                ),
                attributes={
                    name: _dist_from_json(
                        gen, f"{t['id']} attribute {name}", "attribute generator"
                    )
                    for name, gen in sorted(spec.get("attributes", {}).items())
                },
                max_count=_typed(spec.get("max_count"), (int, type(None)), "max_count"),
                case_prefix=_typed(spec.get("case_prefix", "c"), (str,), "case_prefix"),
            )
        transitions.append(
            Transition(
                _typed(t["id"], (str,), "transition id"),
                is_task=_typed(t.get("is_task", True), (bool,), "is_task"),
                delay=_dist_from_json(t.get("delay"), f"{t['id']} delay", "delay"),
                guard=guard,
                arrival_spec=arrival,
            )
        )
    flows = [
        (_typed(src, (str,), f"flow ({src!r}, {tgt!r}) source"),
         _typed(tgt, (str,), f"flow ({src!r}, {tgt!r}) target"))
        for src, tgt in doc.get("flows", [])
    ]
    marking = Marking({
        place_id: [_token_from_json(tok, f"initial token in {place_id}:") for tok in tokens]
        for place_id, tokens in sorted(doc.get("initial_marking", {}).items())
    })
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
            "delay": _dist_to_json(t.delay),
        }
        if t.guard is not None:
            obj["guard"] = t.guard.canonical()
        if t.arrival_spec is not None:
            obj["arrival_spec"] = {
                "interarrival": _dist_to_json(t.arrival_spec.interarrival),
                "attributes": {
                    name: _dist_to_json(gen)
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
    """Load and validate a model file; raises ModelError on any violation,
    naming the file.

    Invalid JSON and missing or ill-typed keys are violations too. The file
    is UTF-8 and may start with a byte-order mark.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            net = net_from_json(json.load(fh))
        except KeyError as exc:
            raise ModelError(f"model {path!r} is missing key {exc}") from None
        except DsyncError as exc:
            raise ModelError(f"model {path!r}: {exc}") from None
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
