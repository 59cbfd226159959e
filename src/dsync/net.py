"""Timed colored Petri nets: structure, markings, and token-game semantics.

Places are typed (case, resource, plain) and declare the attributes their
tokens may carry. Tokens are timestamped: a token can only be bound by a
transition once its availability time has been reached, which is what makes
counts of "enabled" tokens and times-until-availability observable state.

Nets and tokens are immutable values; a marking is one mutable store, which
``fire`` changes in place. ``simulate`` and ``replay`` fire on a copy of the
net's initial marking, so no call changes a net. A token's attribute map is
part of its value: tokens share equal maps with each other and with events
(``fire``), every token the library builds without attributes holds
``eventlog.EMPTY_ATTRS``, and no code may mutate one. The token game reads
the stores directly, along per-transition plans (``Net.plan``) that ``Net``
compiles once, and the rest of the package reads a net's structure only
through ``Net.preset``, ``Net.postset`` and ``Net.plan``. Every case input of
a binding takes a token of one case; plain places carry shared material.

A marking keeps each place's tokens in a list sorted by availability, then
case id, ties in insertion order; adding and removing a token bisect on
availability (a C attribute getter), then on case id among same-time tokens,
and enabled tokens are the list's prefix up to now. Callers read a binding,
one token per pool, off ``binding_pools`` instead of enumerating the product.
``Marking.extremum`` memoises attribute extrema per place until it changes.
Tokens that nothing can read are not stored: a plain place with an empty
postset that no guard references (``Net.unread``) receives no tokens.

Delays, interarrivals and case attribute generators are each a ``Dist``;
``validate_net`` checks each against the kinds its role takes (``DIST_ROLES``).
"""
from __future__ import annotations

import itertools
import math
import random
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .constraints import IDENT, ConstraintExpr
from .errors import ModelError
from .eventlog import COLUMNS, EMPTY_ATTRS, _narrow

AttrValue = object  # number | bool | str

PLACE_KINDS = ("case", "resource", "plain")
ATTR_TYPES = ("number", "boolean", "text")


class Token(NamedTuple):
    """One timestamped, attribute-carrying token, an immutable named tuple.

    ``case_id`` is the case identifier in a case place, the resource
    identifier in a resource place, and ``None`` in plain places. ``attrs``
    may be shared with other tokens and with events, so no code mutates it.
    """

    case_id: Optional[str]
    attrs: Mapping[str, AttrValue]
    available_at: float

    def __reduce__(self):  # a read-only map does not pickle; its copy does
        return Token, (self.case_id, dict(self.attrs), self.available_at)


# each distribution kind's parameters, as Dist fields and as model-file keys
DIST_PARAMS = {"constant": ("value",), "uniform": ("lo", "hi"), "exponential": ("mean",),
               "uniform_int": ("lo", "hi"), "choice": ("values", "weights")}
# the kinds each role takes
DIST_ROLES = {"delay": ("constant", "uniform", "exponential"),
              "attribute generator": ("constant", "uniform", "uniform_int", "choice")}


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def attr_type(value: AttrValue) -> str:
    """The ``ATTR_TYPES`` entry of an attribute value."""
    if isinstance(value, bool):
        return "boolean"
    return "number" if isinstance(value, (int, float)) else "text"


@dataclass(frozen=True)
class Dist:
    """A distribution over ``DIST_PARAMS``: ``uniform_int`` draws an integer, as a
    float, and ``choice`` one of ``values``, at equal odds when ``weights`` is empty."""

    kind: str
    value: AttrValue = 0.0
    lo: float = 0.0
    hi: float = 0.0
    mean: float = 0.0
    values: tuple = ()
    weights: tuple = ()

    @staticmethod
    def constant(value: float) -> "Dist":
        return Dist("constant", value=value)

    @staticmethod
    def uniform(lo: float, hi: float) -> "Dist":
        return Dist("uniform", lo=lo, hi=hi)

    @staticmethod
    def exponential(mean: float) -> "Dist":
        return Dist("exponential", mean=mean)

    def sample(self, rng: random.Random) -> AttrValue:
        if self.kind == "constant":
            return self.value
        if self.kind == "uniform":
            return rng.uniform(self.lo, self.hi)
        if self.kind == "exponential":
            return rng.expovariate(1.0 / self.mean)
        if self.kind == "uniform_int":
            return float(rng.randint(int(self.lo), int(self.hi)))
        if self.kind == "choice":
            return rng.choices(self.values, weights=self.weights or None, k=1)[0]
        raise ModelError(f"unknown distribution kind {self.kind!r}")

    def outcomes(self) -> tuple:
        """A choice's values, else the parameters: what ``problems`` checks."""
        if self.kind == "choice":
            return self.values
        return tuple(getattr(self, name) for name in DIST_PARAMS.get(self.kind, ()))

    def problems(self, role: str) -> list[str]:
        """Why this cannot serve as a ``role`` (a ``DIST_ROLES`` key)."""
        kind, what, values = self.kind, f"{self.kind} {role}", self.outcomes()
        if kind not in DIST_ROLES[role]:
            return [f"unknown {role} kind {kind!r}"]
        if role == "delay" or kind not in ("constant", "choice"):
            if not all(map(_is_number, values)):
                return [f"{what} parameters must be finite"]
        elif not values or not all(_is_number(v) or isinstance(v, (bool, str)) for v in values):
            return [f"{what} values must be finite numbers, bools or text, at least one"]
        out = []
        if role == "delay" and kind == "constant" and self.value < 0:
            out.append("constant delay is negative")
        if role == "delay" and kind == "uniform" and self.lo < 0:
            out.append("uniform delay lower bound is negative")
        if self.hi < self.lo:
            out.append(f"{what} bounds are inverted")
        elif not math.isfinite(self.hi - self.lo):  # ``rng.uniform`` would draw infinities
            out.append(f"{what} bounds are too far apart")
        if kind == "exponential" and self.mean <= 0:
            out.append("exponential delay mean must be positive")
        if self.weights and len(self.weights) != len(values):
            out.append(f"{what} has {len(values)} values but {len(self.weights)} weights")
        elif self.weights and not (all(_is_number(w) and w >= 0 for w in self.weights)
                                   and 0 < sum(self.weights) < math.inf):
            out.append(f"{what} weights must be finite, non-negative and not all zero")
        return out


@dataclass(frozen=True)
class ArrivalSpec:
    """Self-scheduling behaviour of a source transition (empty preset).

    ``interarrival`` spaces consecutive injections, ``attributes`` generates
    the new case token's data, and ``max_count`` (when set, at least 1) caps
    the number of injections regardless of the simulation config.
    """

    interarrival: Dist
    attributes: Mapping[str, Dist] = field(default_factory=dict)
    max_count: Optional[int] = None
    case_prefix: str = "c"


@dataclass(frozen=True)
class Place:
    id: str
    kind: str  # "case" | "resource" | "plain"
    attributes: tuple[tuple[str, str], ...] = ()  # (name, "number"|"boolean"|"text")

    def attr_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.attributes)


@dataclass(frozen=True)
class Transition:
    id: str
    is_task: bool = True
    delay: Dist = Dist.constant(0.0)
    guard: Optional["ConstraintExpr"] = None
    arrival_spec: Optional[ArrivalSpec] = None


def _store_key(tok: Token) -> tuple:
    return (tok.available_at, tok.case_id or "")


def _case_key(tok: Token) -> str:
    return tok.case_id or ""


_avail = attrgetter("available_at")


def _extremum(toks: list[Token], attr: str, agg: str) -> Optional[tuple[AttrValue, float]]:
    """One pass over a store for ``Marking.extremum``."""
    try:
        values = [tok.attrs[attr] for tok in toks]
    except KeyError:  # some tokens lack the attribute
        toks = [tok for tok in toks if attr in tok.attrs]
        values = [tok.attrs[attr] for tok in toks]
    if not values:
        return None
    best = max(values) if agg == "max" else min(values)
    return best, toks[values.index(best)].available_at


class Marking:
    """Per-place token multisets, each a list sorted by ``_store_key``, ties in
    insertion order, changed in place by ``add`` and ``remove``, which drop
    the place's ``extremum`` memo and, while ``journal`` is a list, append
    ``(place, index, token, added)`` to it for ``undo``."""

    __slots__ = ("_by_place", "_memo", "journal")

    def __init__(self, by_place: Optional[Mapping[str, Iterable[Token]]] = None):
        self._by_place: dict[str, list[Token]] = {
            p: sorted(toks, key=_store_key) for p, toks in (by_place or {}).items()
        }
        self._memo: dict[str, dict] = {}
        self.journal: Optional[list] = None

    def tokens(self, place_id: str) -> Sequence[Token]:
        """The live store, which changes with the marking (none in ``Net.unread``)."""
        return self._by_place.get(place_id, ())

    def places(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_place))

    def n_enabled(self, place_id: str, now: float) -> int:
        """How many tokens of the place are available at ``now``: a store prefix."""
        return bisect_right(self.tokens(place_id), now, key=_avail)

    def extremum(self, place_id: str, attr: str, agg: str) -> Optional[tuple[AttrValue, float]]:
        """(max or min of ``attr`` over the place, earliest availability attaining it), or None."""
        try:
            return self._memo[place_id][attr, agg]
        except KeyError:
            found = _extremum(self.tokens(place_id), attr, agg)
            self._memo.setdefault(place_id, {})[attr, agg] = found
            return found

    def copy(self) -> "Marking":
        """An independent marking with the same stores, no memo and no journal."""
        new = Marking()
        new._by_place = {p: toks.copy() for p, toks in self._by_place.items()}
        return new

    def add(self, place_id: str, token: Token) -> None:
        """Insert ``token`` after every token whose ``_store_key`` is not larger,
        bisecting on availability (the C ``_avail``), then on same-time case ids."""
        toks = self._by_place.get(place_id)
        if toks is None:
            toks = self._by_place[place_id] = []
        at = token.available_at
        i = bisect_right(toks, at, key=_avail)
        if i and toks[i - 1].available_at == at:
            lo = bisect_left(toks, at, 0, i, key=_avail)
            i = bisect_right(toks, _case_key(token), lo, i, key=_case_key)
        toks.insert(i, token)
        self._memo.pop(place_id, None)
        if self.journal is not None:
            self.journal.append((place_id, i, token, True))

    def remove(self, place_id: str, token: Token) -> None:
        """Delete the place's first token that is or equals ``token``, from its time on."""
        toks = self._by_place.get(place_id, [])
        try:
            i = toks.index(token, bisect_left(toks, token.available_at, key=_avail))
        except ValueError:
            raise ModelError(f"token {token} not present in place {place_id!r}") from None
        token = toks.pop(i)  # the stored one, which ``undo`` puts back
        self._memo.pop(place_id, None)
        if self.journal is not None:
            self.journal.append((place_id, i, token, False))

    def undo(self, changes: list, redo: bool = False) -> None:
        """Revert journal ``changes``, newest first; with ``redo``, reapply them."""
        for p, i, token, added in changes if redo else reversed(changes):
            if added == redo:
                self._by_place[p].insert(i, token)
            else:
                del self._by_place[p][i]
            self._memo.pop(p, None)

    def total_tokens(self) -> int:
        return sum(len(toks) for toks in self._by_place.values())

    def __repr__(self) -> str:
        parts = []
        for p in sorted(self._by_place):
            toks = ", ".join(
                f"({t.case_id},{dict(t.attrs)},@{t.available_at:g})" for t in self._by_place[p]
            )
            parts.append(f"{p}: [{toks}]")
        return "Marking{" + "; ".join(parts) + "}"


Binding = dict  # place id -> Token chosen from that place


class _Plan(NamedTuple):
    """A transition's structure as the token game reads it (``Net.plan``): its
    preset places (is each plain?), its output places but ``Net.unread`` with
    their kinds (None when unknown) and attribute names, the case and the
    resource places of its preset, sorted, and its ``depth``.

    ``depth`` is the longest chain of case places feeding the transition (0
    for sources). It orders simultaneous firings: downstream transitions
    consume before upstream ones refill, which is also the order the FIFO
    policy produces (their tokens have been waiting longer). A case-flow cycle
    is cut where it closes, so each member counts the chain that ends at it.
    """

    inputs: tuple[tuple[str, bool], ...]
    outputs: tuple[tuple[str, Optional[str], Optional[frozenset]], ...]
    case_inputs: tuple[str, ...]
    resource_inputs: tuple[str, ...]
    depth: int


class Net:
    """A validated-on-demand net: places, transitions, flows, initial marking."""

    def __init__(
        self,
        places: list[Place],
        transitions: list[Transition],
        flows: list[tuple[str, str]],
        initial_marking: Optional[Marking] = None,
        name: str = "",
    ):
        self.name = name
        for kind, nodes in (("place", places), ("transition", transitions)):
            ids = [node.id for node in nodes]
            if len(set(ids)) < len(ids):
                dup = min(i for i in ids if ids.count(i) > 1)
                raise ModelError(f"duplicate {kind} id {dup!r}")
        self.places: dict[str, Place] = {p.id: p for p in places}
        self.transitions: dict[str, Transition] = {t.id: t for t in transitions}
        self.flows: tuple[tuple[str, str], ...] = tuple(flows)
        self.initial_marking = initial_marking or Marking()
        # node id -> ids of the nodes with a flow into it (out of it), sorted
        self.preset: dict[str, tuple[str, ...]] = {}
        self.postset: dict[str, tuple[str, ...]] = {}
        for node in list(self.places) + list(self.transitions):
            self.preset[node] = tuple(sorted(src for src, tgt in self.flows if tgt == node))
            self.postset[node] = tuple(sorted(tgt for src, tgt in self.flows if src == node))
        # plain sinks that no guard reads; ``fire`` stores no tokens there
        read = {p for t in transitions if t.guard is not None for p, _ in t.guard.references()}
        self.unread = frozenset(
            p for p, place in self.places.items()
            if place.kind == "plain" and not self.postset[p] and p not in read
        )
        kinds = {p: place.kind for p, place in self.places.items()}
        names = {p: frozenset(place.attr_names()) for p, place in self.places.items()}
        self._plans = {
            t: _Plan(
                tuple((p, kinds.get(p) == "plain") for p in self.preset[t]),
                tuple((p, kinds.get(p), names.get(p))
                      for p in self.postset[t] if p not in self.unread),
                tuple(p for p in self.preset[t] if kinds.get(p) == "case"),
                tuple(p for p in self.preset[t] if kinds.get(p) == "resource"),
                self._depth(t, frozenset(), {})[0],
            )
            for t in self.transitions
        }

    # -- structure ---------------------------------------------------------

    def plan(self, t_id: str) -> "_Plan":
        """The plan of transition ``t_id``, compiled when the net is built."""
        try:
            return self._plans[t_id]
        except KeyError:
            raise ModelError(f"unknown transition {t_id!r}") from None

    def _depth(self, node: str, seen: frozenset, memo: dict[str, int]) -> tuple[int, bool]:
        """``_Plan.depth`` walk: (depth, cut short by a cycle). Only uncut depths
        are memoised, because a cut depth depends on where the walk entered the
        cycle. A method, not a closure, so that a call leaves no reference cycle."""
        if node in memo:
            return memo[node], False
        if node in seen:
            return 0, True
        value, cut = 0, False
        for p in self.preset.get(node, ()):
            if p in self.places and self.places[p].kind == "case":
                for t2 in self.preset.get(p, ()):
                    d, c = self._depth(t2, seen | {node}, memo)
                    value, cut = max(value, d + 1), cut or c
        if not cut:
            memo[node] = value
        return value, cut

    def with_guards(self, guards: Mapping[str, Optional["ConstraintExpr"]]) -> "Net":
        """Copy of the net with the given transitions' guards replaced."""
        transitions = [
            Transition(t.id, t.is_task, t.delay, guards.get(t.id, t.guard), t.arrival_spec)
            for t in self.transitions.values()
        ]
        return Net(
            list(self.places.values()),
            transitions,
            list(self.flows),
            self.initial_marking,
            self.name,
        )

    def without_guards(self) -> "Net":
        return self.with_guards({t: None for t in self.transitions})


def projected(attrs: Mapping[str, AttrValue], names: frozenset) -> Mapping[str, AttrValue]:
    """The part of a case's ``attrs`` that a place declaring ``names`` holds:
    ``attrs`` itself when the place declares all of them, ``EMPTY_ATTRS``
    when it declares none, else a filtered copy."""
    if attrs and not attrs.keys() <= names:
        attrs = {k: v for k, v in attrs.items() if k in names}
    return attrs or EMPTY_ATTRS


def binding_pools(
    net: Net,
    m: Marking,
    t_id: str,
    now: float,
    check_guards: bool = False,
    case_id: Optional[str] = None,
) -> Optional[list[list[Token]]]:
    """Per preset place (sorted by id), the tokens a binding of ``t_id`` may take.

    Each pool holds the place's time-enabled tokens in store order, shrunk by
    filters that keep the surviving tokens in order:

    * with ``check_guards`` set, the transition's guard must hold on the
      marking (this is the one place where the token game evaluates guards;
      ``patterns.read_off_check`` tests moves already applied), and its
      pinning atoms keep only the tokens ``ConstraintExpr.pin`` allows;
    * with ``case_id`` set, every case input's pool keeps only the tokens of
      that case;
    * a plain place keeps only its earliest token, because plain tokens are
      interchangeable apart from their availability (or ``pin``'s first).

    None when some pool is empty, i.e. there is no binding.
    """
    plan = net.plan(t_id)
    pools = []
    for p, plain in plan.inputs:
        toks = m._by_place.get(p, ())
        toks = toks[:1] if plain else toks[: bisect_right(toks, now, key=_avail)]
        if not toks or toks[0].available_at > now:
            return None
        pools.append(toks)
    guard = net.transitions[t_id].guard if check_guards else None
    if guard is None and case_id is None:
        return pools
    if guard is not None and not guard.holds(m, now):
        return None
    case_inputs = plan.case_inputs if case_id is not None else ()
    for i, (p, plain) in enumerate(plan.inputs):
        toks = pools[i]
        if p in case_inputs:
            toks = [tok for tok in toks if tok.case_id == case_id]
        if guard is not None:
            toks = guard.pin(m, p, toks)
            if plain and not toks:
                toks = guard.pin(m, p, m.tokens(p)[: m.n_enabled(p, now)])[:1]
        if not toks:
            return None
        pools[i] = toks
    return pools


def enabled_bindings(
    net: Net, m: Marking, t_id: str, now: float, check_guards: bool = False
) -> list[Binding]:
    """The bindings of time-enabled tokens for transition ``t_id`` at ``now``:
    the cartesian product of ``binding_pools``, in product order.

    Neither engine enumerates it: the simulator (``simulate.fifo_first``) and
    a log move (``replay._best_move``, which also keeps only its case's
    tokens) read one token off each pool. The pools' filters keep their
    tokens in order and drop only tokens the guard rejects and plain tokens
    after the earliest, which no pick prefers. The simulator calls this only
    for a task source, whose empty preset has exactly one (empty) binding,
    kept when the guard holds.
    """
    pools = binding_pools(net, m, t_id, now, check_guards)
    if pools is None:
        return []
    in_places = net.preset[t_id]
    return [dict(zip(in_places, combo)) for combo in itertools.product(*pools)]


def has_enabled_binding(net: Net, m: Marking, t_id: str, now: float) -> bool:
    """Cheap existence test, guards ignored: every preset place's earliest token is enabled."""
    stores = m._by_place
    for p, _ in net.plan(t_id).inputs:
        toks = stores.get(p)
        if not toks or toks[0].available_at > now:
            return False
    return True


def fire(
    net: Net,
    m: Marking,
    t_id: str,
    binding: Binding,
    now: float,
    delay: float,
    case: Optional[tuple[str, Mapping[str, AttrValue]]] = None,
) -> None:
    """Fire ``t_id`` under ``binding`` at time ``now``, changing ``m`` in place.

    Consumed tokens are removed; each outgoing place receives one token that
    becomes available at ``now + delay`` (the caller samples or reads the
    delay). Case output places receive ``case``, the firing's case id and
    data, which the caller supplies (the simulator the bound case token's or
    a source's new case, replay the log move's). Resource output places
    receive back the token bound from the same place, and the places in
    ``net.unread`` receive nothing. A ``ModelError`` may leave ``m`` part-fired.

    A case token shares the case's attribute map when its place declares
    every name in it (``projected``), a resource token shares the bound
    token's map, and plain tokens, like every token without attributes, hold
    ``EMPTY_ATTRS``.
    """
    for p, tok in binding.items():
        m.remove(p, tok)
    if delay < 0:
        raise ModelError(f"transition {t_id!r} produced a negative delay {delay}")
    out_time = now + delay
    case_id, case_attrs = case or (None, EMPTY_ATTRS)
    for p, kind, names in net.plan(t_id).outputs:
        if kind == "case":
            if case_id is None:
                raise ModelError(
                    f"transition {t_id!r} outputs to case place {p!r} but no case "
                    "was supplied"
                )
            tok = Token(case_id, projected(case_attrs, names), out_time)
        elif kind == "resource":
            if p not in binding:
                raise ModelError(
                    f"transition {t_id!r} outputs to resource place {p!r} without "
                    "consuming from it"
                )
            tok = Token(binding[p].case_id, binding[p].attrs, out_time)
        elif kind == "plain":
            tok = Token(None, EMPTY_ATTRS, out_time)
        else:
            raise ModelError(f"unknown place {p!r}")
        m.add(p, tok)


def validate_net(net: Net) -> list[str]:
    """All invariant violations of the net (empty list when valid)."""
    out = [f"id {tid!r} used by both a place and a transition"
           for tid in net.transitions if tid in net.places]

    for p in net.places.values():
        if not IDENT.fullmatch(str(p.id)):
            out.append(f"place id {p.id!r} is no identifier ({IDENT.pattern}) a guard can name")
        if p.kind not in PLACE_KINDS:
            out.append(f"place {p.id!r} has unknown kind {p.kind!r}")
        if p.kind == "resource" and p.attributes:
            out.append(f"resource place {p.id!r} must not declare attributes")
        for name, typ in p.attributes:
            if not IDENT.fullmatch(str(name)):
                out.append(f"place {p.id!r} attribute {name!r} is no identifier a guard can name")
            if typ not in ATTR_TYPES:
                out.append(f"place {p.id!r} attribute {name!r} has unknown type {typ!r}")
            if name in COLUMNS:
                out.append(f"place {p.id!r} attribute {name!r} is named after a log column")

    for src, tgt in net.flows:
        if src not in net.preset or tgt not in net.preset:
            out.append(f"flow ({src!r}, {tgt!r}) references an unknown node")
        elif (src in net.places) == (tgt in net.places):
            out.append(f"flow ({src!r}, {tgt!r}) is not place/transition bipartite")

    for t in net.transitions.values():
        out += [f"transition {t.id!r}: {prob}" for prob in t.delay.problems("delay")]
        if t.arrival_spec is not None:
            if net.preset[t.id]:
                out.append(f"source transition {t.id!r} has a nonempty preset")
            if not t.is_task and t.guard is not None:
                out.append(f"non-task source {t.id!r} cannot carry a guard")
            out += [f"transition {t.id!r} interarrival: {prob}"
                    for prob in t.arrival_spec.interarrival.problems("delay")]
            for name, gen in sorted(t.arrival_spec.attributes.items()):
                yields = set(map(attr_type, gen.outcomes()))
                probs = ["is named after a log column"] if name in COLUMNS else []
                probs += gen.problems("attribute generator") or [  # then the places' types
                    f"{gen.kind} attribute generator yields {'/'.join(sorted(yields))} values "
                    f"but place {p!r} declares {typ}"
                    for p in net.postset[t.id] if p in net.places
                    for attr, typ in net.places[p].attributes if attr == name and yields != {typ}
                ] + [prob for value in gen.outcomes() for prob in _misread(value)]
                out += [f"transition {t.id!r} attribute {name!r}: {prob}" for prob in probs]
            cap = t.arrival_spec.max_count
            if cap is not None and cap < 1:
                out.append(f"source {t.id!r} max_count must be >= 1, got {cap}")
            for p in net.postset[t.id]:
                if p in net.places and net.places[p].kind == "resource":
                    out.append(f"source {t.id!r} cannot feed resource place {p!r}")
        elif not net.preset[t.id]:
            out.append(f"transition {t.id!r} has an empty preset and no arrival_spec")
        if t.guard is not None:
            for place_id, attr in t.guard.references():
                if place_id not in net.places:
                    out.append(f"guard of {t.id!r} references unknown place {place_id!r}")
                elif attr is not None and attr not in net.places[place_id].attr_names():
                    out.append(
                        f"guard of {t.id!r} references undeclared attribute "
                        f"{attr!r} of place {place_id!r}"
                    )
            # attrval reads a number; a ratio's two parts are attrval features
            parts = [f for a in t.guard.atoms
                     for f in ((a.feature.num, a.feature.den) if a.feature.kind == "ratio"
                               else (a.feature,))]
            out += [f"guard of {t.id!r} takes attrval of text attribute {f.attr!r} "
                    f"of place {f.place!r}"
                    for f in parts if f.kind == "attrval" and f.place in net.places
                    and dict(net.places[f.place].attributes).get(f.attr) == "text"]

    # a source's n-th case id is its prefix followed by n (``simulate``), so
    # sources with prefixes p <= q share an id exactly when p gives q + "1"
    prefixes = sorted((str(t.arrival_spec.case_prefix), t.id)
                      for t in net.transitions.values() if t.arrival_spec is not None)
    gives = {p: re.compile(re.escape(p) + "[1-9][0-9]*").fullmatch for p, _ in prefixes}
    out += [f"sources {a!r} and {b!r} can give two cases the same id (prefixes {p!r}, {q!r})"
            for (p, a), (q, b) in itertools.combinations(prefixes, 2) if gives[p](q + "1")]

    for pid in net.initial_marking.places():
        if pid not in net.places:
            out.append(f"initial marking references unknown place {pid!r}")
            continue
        out += [f"initial token in {pid!r}: {prob}" for tok in net.initial_marking.tokens(pid)
                for prob in token_problems(net.places[pid], tok) + [
                    f"case id {tok.case_id!r} is one source {a!r} gives" for p, a in prefixes
                    if net.places[pid].kind == "case" and gives[p](str(tok.case_id))]]
    return out


def token_problems(place: Place, token: Token) -> list[str]:
    """Type-constraint violations of one token against its holding place."""
    out = []
    if place.kind in ("case", "resource") and not token.case_id:
        out.append(f"token in {place.kind} place has no identifier")
    if place.kind == "resource" and token.attrs:
        out.append("token in resource place carries attributes")
    declared = dict(place.attributes)
    for name, value in token.attrs.items():
        if name not in declared:
            out.append(f"attribute {name!r} is not declared by the place")
        elif not isinstance(value, (int, float, str)) or attr_type(value) != declared[name]:
            out.append(f"attribute {name!r} should be {declared[name]}, found {value!r}")
        elif place.kind == "case":  # the log holds a case's attributes
            out += [f"attribute {name!r}: {prob}" for prob in _misread(value)]
    return out


def _misread(value: AttrValue) -> list[str]:
    """Why a log would not give back a text ``value``: ``parse_log`` strips
    each cell, reads an empty one as no value, and types the rest
    (``eventlog._narrow``); no reader gives back a carriage return."""
    if not isinstance(value, str):
        return []
    if "\r" in value:
        return [f"text value {value!r} holds a carriage return, which a log cannot give back"]
    raw = value.strip()
    typ = _narrow(None, raw) if raw else "no value"
    if typ != "text":
        return [f"text value {value!r} reads back from a log as {typ}"]
    return [] if raw == value else [f"text value {value!r} reads back from a log as {raw!r}"]
