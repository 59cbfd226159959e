"""Discrete-event execution of a guarded timed net.

Produces ground-truth event logs: each task-transition firing becomes one
event. Simultaneous candidates fire in FIFO order (the binding whose newest
consumed token is oldest goes first, ties by case id then transition id),
which keeps the selection policy value-blind so that any case reordering
observable in the log is caused by guards alone. Each transition offers at
most one candidate, ``(key, transition id, binding)``, kept until a firing
consumes from or produces into a node the transition reads (its preset and
guard places, a source itself) or a token there becomes available. An
ordinary transition offers its FIFO-first binding with its key, both read off
its token pools (``fifo_first``); a source offers its empty binding when due,
and as it reads itself too, it is recomputed when it comes due or fires.

A firing at the clock whose outputs become available strictly later (``now +
delay > now``: not a delay the float clock absorbs) dirties only the guard
readers of its outputs; the others take only enabled tokens through
``binding_pools``, and the clock stop at the outputs dirties them. An
injection (zero delay) dirties every reader, announcing the previous case.
What a firing of each transition dirties is computed once per run, from the
net's structure, before the first firing.

When nothing fires, the clock stops at the next time on a heap of ``(time,
nodes)`` entries: places where produced tokens, stored or not
(``Net.unread``), become available, and sources that come due. At a stop the
readers of those nodes are re-evaluated, and so is every transition whose
guard has a ``timeuntilnext`` atom compared by ``<``, ``<=`` or ``==``, the
only atoms that time alone can make true (a ``>`` or ``>=`` one can only
close as time passes). Nothing is evaluated between two stops, so when such
an atom fails at a transition that has no candidate, the clock also stops
at the first float time at which the atom holds while its place's next
token is still pending (``_opening``): an entry with no nodes.

Guards are evaluated only through ``binding_pools(..., check_guards=True)``,
for source transitions too: their empty preset has one empty binding, which
survives exactly when the guard holds. Source transitions (empty preset,
``arrival_spec``) come in two flavours:

* task sources fire on their own schedule and appear in the log; a guard can
  delay a scheduled firing until it holds again.
* non-task sources are invisible arrival machinery: the next case token is
  injected one interarrival ahead of its availability, so guards can already
  see the upcoming case while it is still pending. An injection is a zero-delay
  ``fire`` of the source at the token's availability time, with the new
  case supplied as the produced case. Its candidate sorts before every
  firing at its instant, so arrivals are injected first, in source-id order,
  and while one is due nothing else is evaluated. Like every firing, an
  injection stops the clock when its token becomes available; the next
  injection comes due at that stop and dirties the same readers again, so
  at a stop where one is due only the sources are evaluated until it fires.
"""
from __future__ import annotations

import hashlib
import heapq
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Mapping, Optional

from .acyclic import acyclic
from .constraints import OPS, Atom
from .errors import SimulationError
from .eventlog import EMPTY_ATTRS, Event, Log, sort_events
from .net import Binding, Marking, Net, Transition, binding_pools, enabled_bindings, fire
from .net import _avail, attr_type, validate_net

# firings, arrivals included, allowed at one clock value; more means a
# zero-delay cycle or interarrival that would keep the clock from advancing
MAX_FIRINGS_PER_INSTANT = 10_000


@dataclass(frozen=True)
class SimConfig:
    seed: int
    max_cases: int = 0  # per-source injection cap; 0 means horizon-bounded
    horizon: float = 0.0  # 0 means unbounded

    def __post_init__(self) -> None:
        if not (math.isfinite(self.horizon) and self.horizon >= 0):
            raise SimulationError(f"horizon must be finite and >= 0, got {self.horizon}")
        if self.max_cases < 0:
            raise SimulationError("max_cases must not be negative")
        if self.max_cases == 0 and self.horizon <= 0:
            raise SimulationError("config needs max_cases >= 1 or a positive horizon")


def _stream(seed: int, *parts: str) -> random.Random:
    text = "|".join([str(seed), *parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class _Source:
    """Scheduling state of one source transition."""

    def __init__(self, t: Transition, seed: int, cap: int):
        spec = t.arrival_spec
        self.t = t
        self.spec = spec
        self.cap = spec.max_count if spec.max_count is not None else cap
        self.count = 0
        self.rng_gaps = _stream(seed, "arrivals", t.id)
        self.rng_attrs = _stream(seed, "attrs", t.id)
        self.next_time = 0.0  # when the source next fires
        self.gens = sorted(spec.attributes.items())

    def exhausted(self) -> bool:
        return self.cap > 0 and self.count >= self.cap

    def new_case(self) -> tuple[str, Mapping[str, object]]:
        self.count += 1
        case_id = f"{self.spec.case_prefix}{self.count}"
        attrs = {name: gen.sample(self.rng_attrs) for name, gen in self.gens}
        return case_id, attrs or EMPTY_ATTRS


Candidate = tuple[tuple, str, Binding]  # (FIFO key, transition id, binding)


def fifo_first(net: Net, m: Marking, t_id: str, clock: float) -> Optional[Candidate]:
    """The guard-satisfying binding of ``t_id`` that fires first, as the
    candidate ``(key, t_id, binding)``. The key, read off the chosen tokens
    once the case is chosen, is (newest token's availability or ``clock``,
    ``-plan.depth``, case id or ``""`` without a case input, ``t_id``):
    among simultaneous candidates the smallest fires first.

    The binding is picked from ``binding_pools`` without enumerating their
    product, and every case input takes a token of one case. Every other pool
    gives its earliest token; ``rest`` is the latest of those. A lone case
    input gives its first token minimising ``(max(avail, rest), case id)``.
    The pool keeps store order (availability, then case id, ties in
    insertion order), so that token is the pool's first when none is
    available by ``rest``, and otherwise the first with the smallest case id
    among those that are, a prefix found by bisection. Several case inputs
    take the case with a token in each that minimises (the newest of its
    first tokens there and ``rest``, case id), each input giving that case's
    first token. Among bindings of one case with equal keys that is the first
    in product order, the one ``min`` over ``enabled_bindings`` would return.
    """
    pools = binding_pools(net, m, t_id, clock, check_guards=True)
    if pools is None:
        return None
    in_places, plan = net.preset[t_id], net.plan(t_id)
    chosen = [pool[0] for pool in pools]
    case_id = ""
    if len(plan.case_inputs) == 1:
        c = in_places.index(plan.case_inputs[0])
        rest = max(map(_avail, chosen[:c] + chosen[c + 1 :]), default=-math.inf)
        waiting = pools[c][: bisect_right(pools[c], rest, key=_avail)]
        if waiting:
            chosen[c] = min(waiting, key=attrgetter("case_id"))
        case_id = chosen[c].case_id
    elif plan.case_inputs:
        joins = [in_places.index(p) for p in plan.case_inputs]
        rest = max((tok.available_at for i, tok in enumerate(chosen) if i not in joins),
                   default=-math.inf)
        firsts = [{} for _ in joins]
        for first, i in zip(firsts, joins):
            for tok in pools[i]:
                first.setdefault(tok.case_id, tok)
        joined = set(firsts[0]).intersection(*firsts[1:])
        if not joined:
            return None
        _, case_id = min((max(rest, *(f[k].available_at for f in firsts)), k) for k in joined)
        for first, i in zip(firsts, joins):
            chosen[i] = first[case_id]
    newest = max(map(_avail, chosen), default=clock)
    return (newest, -plan.depth, case_id, t_id), t_id, dict(zip(in_places, chosen))


@acyclic
def simulate(net: Net, cfg: SimConfig) -> Log:
    """Run the net until its sources are exhausted and the work has drained.

    Identical (net, cfg) yields an identical log: random streams are split
    per (seed, purpose, transition id) so transitions never perturb each
    other's samples. A delay or interarrival that carries an event time past
    the largest float raises ``SimulationError`` naming the transition. Runs
    with the cyclic garbage collector paused (``acyclic``).
    """
    problems = validate_net(net)
    if problems:
        raise SimulationError("net is invalid: " + "; ".join(problems))

    marking = net.initial_marking.copy()
    clock = 0.0
    events: list[Event] = []
    delay_rngs = {tid: _stream(cfg.seed, "delay", tid) for tid in net.transitions}

    # sources by id; for each node, the transitions that read it (preset or
    # guard places, a source itself) and those whose guard reads it; the
    # transitions whose guard time alone can open, with the atoms that can
    sources: dict[str, _Source] = {}
    readers: dict[str, set[str]] = {}
    guard_readers: dict[str, set[str]] = {}
    timed: dict[str, list[Atom]] = {}
    for tid, t in sorted(net.transitions.items()):
        if t.arrival_spec is not None:
            sources[tid] = _Source(t, cfg.seed, cfg.max_cases)
            readers[tid] = {tid}
        atoms = t.guard.atoms if t.guard else ()
        opening = [
            a for a in atoms if a.feature.kind == "timeuntilnext" and a.op in ("<", "<=", "==")
        ]
        if opening:
            timed[tid] = opening
        guarded = {p for atom in atoms for p, _ in atom.feature.references()}
        for p in guarded:
            guard_readers.setdefault(p, set()).add(tid)
        for p in {*net.preset[tid], *guarded}:
            readers.setdefault(p, set()).add(tid)
    # what a firing dirties, fixed per transition: the readers of itself and
    # its preset (a binding's keys), and those of its postset, only their
    # guard readers when its outputs become available later
    def read_by(nodes, watch) -> frozenset[str]:
        return frozenset().union(*(watch.get(node, ()) for node in nodes))

    touched = {tid: read_by((tid, *net.preset[tid]), readers) for tid in net.transitions}
    delayed = {tid: read_by(net.postset[tid], guard_readers) for tid in net.transitions}
    instant = {tid: read_by(net.postset[tid], readers) for tid in net.transitions}
    # the sources that, dirty, have an arrival due
    injectors = frozenset(tid for tid, src in sources.items() if not src.t.is_task)
    # the live candidate of each transition, kept until it is dirty; every one
    # reads its nonempty preset or, for a source, itself, so every one starts dirty
    cands: dict[str, Candidate] = {}
    dirty = set().union(*readers.values())
    # (time, nodes) entries where the clock stops, as the module docstring lists
    future = [(tok.available_at, (p,)) for p in marking.places() for tok in marking.tokens(p)]
    heapq.heapify(future)

    def candidate(tid: str) -> Optional[Candidate]:
        src = sources.get(tid)
        if src is None:
            return fifo_first(net, marking, tid, clock)
        if src.exhausted() or src.next_time > clock:
            return None
        if not src.t.is_task:
            return ((-math.inf, 0, "", tid), tid, {})
        if enabled_bindings(net, marking, tid, clock, check_guards=True):
            return ((src.next_time, -net.plan(tid).depth, "", tid), tid, {})
        return None

    while True:
        # fire everything possible at the current clock, one binding at a time;
        # a non-task source is dirty here only when it is due
        arriving = not injectors.isdisjoint(dirty)
        for fired in range(MAX_FIRINGS_PER_INSTANT + 1):
            # no firing precedes a due arrival, so while one is known to be
            # due only the sources are evaluated
            todo = dirty & sources.keys() if arriving else dirty
            for tid in todo:
                cands[tid] = candidate(tid)
                if cands[tid] is None:
                    del cands[tid]
                    for atom in timed.get(tid, ()):
                        at = _opening(atom, marking, clock)
                        if at is not None:
                            heapq.heappush(future, (at, ()))
            dirty.difference_update(todo)
            if not cands:
                break
            # keys end with the transition id, so ``min`` never compares bindings
            _, tid, y = min(cands.values())
            if fired == MAX_FIRINGS_PER_INSTANT:
                raise SimulationError(
                    f"transition {tid!r} would fire more than {MAX_FIRINGS_PER_INSTANT} times "
                    f"at time {clock:g}; a zero-delay cycle or interarrival keeps the clock "
                    "from advancing"
                )
            t, src, plan = net.transitions[tid], sources.get(tid), net.plan(tid)
            now, delay, arriving = clock, 0.0, False
            if src is not None and not t.is_task:
                # case k+1 is injected when case k becomes available (the
                # first at once), and first at that instant
                if src.count:
                    src.next_time += src.spec.interarrival.sample(src.rng_gaps)
                    _finite_time(src.next_time, tid, "next firing")
                now, case = src.next_time, src.new_case()
                arriving = now <= clock and not src.exhausted()
            else:
                delay = t.delay.sample(delay_rngs[tid])
                # the case: a task source's new one, or the first case input's
                if src is not None:
                    case = src.new_case()
                    src.next_time = clock + src.spec.interarrival.sample(src.rng_gaps)
                    _finite_time(src.next_time, tid, "next firing")
                else:
                    tok = y[plan.case_inputs[0]] if plan.case_inputs else None
                    case = (tok.case_id, tok.attrs) if tok else None
            # fire, dirty the readers of what it touched, stop the clock at its outputs
            _finite_time(now + delay, tid, "completion")
            fire(net, marking, tid, y, now, delay, case)
            dirty |= touched[tid]
            dirty |= delayed[tid] if now + delay > now else instant[tid]
            outs = net.postset[tid]
            if outs:
                heapq.heappush(future, (now + delay, outs))
            if t.is_task:
                case_id, attrs = case or ("", EMPTY_ATTRS)
                resource = y[plan.resource_inputs[0]].case_id if plan.resource_inputs else None
                # ``tuple.__new__`` skips the named tuple's ``__new__``, a Python function
                events.append(tuple.__new__(Event, (case_id, tid, now, now + delay, resource,
                                                    attrs)))
            if src is not None and not src.exhausted():
                heapq.heappush(future, (src.next_time, (tid,)))

        # nothing fires now; advance the clock to the next possible change
        while future and future[0][0] <= clock:
            heapq.heappop(future)
        if not future or (cfg.horizon > 0 and future[0][0] > cfg.horizon):
            break
        clock = future[0][0]
        while future and future[0][0] <= clock:
            for p in heapq.heappop(future)[1]:
                dirty.update(readers.get(p, ()))
        dirty.update(timed)

    if not events:
        raise SimulationError(f"deadlock before any event; final marking: {marking!r}")

    events = sort_events(events)
    schema = _infer_schema(events)
    has_resource = any(e.resource for e in events)
    return Log(events, schema, has_resource)


def _opening(atom: Atom, m: Marking, clock: float) -> Optional[float]:
    """The first float time after ``clock`` at which a ``timeuntilnext`` atom
    compared by ``<``, ``<=`` or ``==`` that fails at ``clock`` holds, while
    its place's next pending token stays pending; None when there is none.

    The value is the token's ``available_at - now``, which in float
    arithmetic too never grows as ``now`` grows, so the first float after
    ``clock`` where it is below ``const`` is found by bisection.
    """
    toks = m.tokens(atom.feature.place)
    i = m.n_enabled(atom.feature.place, clock)
    compare, const = OPS[atom.op], atom.const
    if i == len(toks) or compare(toks[i].available_at - clock, const):
        return None
    due = toks[i].available_at
    # the first time after ``clock`` with ``due - now <= const`` (``<`` for
    # ``<``), or ``due``: it lies in (lo, hi] until the two are adjacent floats
    below = OPS["<"] if atom.op == "<" else OPS["<="]
    lo, hi = clock, due
    while lo < (mid := lo + (hi - lo) / 2) < hi:
        lo, hi = (lo, mid) if below(due - mid, const) else (mid, hi)
    return hi if hi < due and compare(due - hi, const) else None


def _finite_time(time: float, tid: str, what: str) -> None:
    """Raise when a finite delay or interarrival carried ``time`` past the
    largest float."""
    if not math.isfinite(time):
        raise SimulationError(f"transition {tid!r}: {what} time overflows to {time}")


def _infer_schema(events: list[Event]) -> tuple[tuple[str, str], ...]:
    cols: dict[str, str] = {}
    for e in events:
        for name, value in e.attrs.items():
            typ = attr_type(value)
            cols[name] = typ if cols.get(name, typ) == typ else "text"
    return tuple(sorted(cols.items()))


def ground_truth(net: Net) -> list[tuple[str, object]]:
    """(transition id, guard) for every guarded transition, sorted by id."""
    return [
        (tid, t.guard)
        for tid, t in sorted(net.transitions.items())
        if t.guard is not None
    ]
