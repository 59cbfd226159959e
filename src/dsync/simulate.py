"""Discrete-event execution of a guarded timed net.

Produces ground-truth event logs: each task-transition firing becomes one
event. The clock advances to the earliest moment any transition has a
guard-satisfying, time-enabled binding; simultaneous candidates fire in FIFO
order (the binding whose newest consumed token is oldest goes first, ties by
case id then transition id), which keeps the selection policy value-blind so
that any case reordering observable in the log is caused by guards alone.
Each transition offers one candidate, kept until a firing consumes from or
produces into a place the transition reads (its preset and guard places), a
token there becomes available, or, for a ``timeuntilnext`` guard, the clock
advances. An ordinary transition offers its FIFO-first binding, picked from
its token pools directly (``fifo_first``); a source offers its empty binding
when due, and as it reads itself too, it is recomputed when it comes due or
fires. The clock stops at the times of a heap of ``(time, nodes)`` entries:
places where produced tokens, stored or not (``Net.unread``), become
available, and sources that come due.

Guards are evaluated only through ``enabled_bindings(..., check_guards=True)``,
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
  and while one is due nothing else is evaluated. As the next injection
  comes due when the last case becomes available and dirties the readers of
  its places, only a source's last case puts its places on the heap.
"""
from __future__ import annotations

import hashlib
import heapq
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from .errors import SimulationError
from .eventlog import Event, Log, sort_events
from .net import Binding, Marking, Net, Transition, binding_pools, enabled_bindings, fire
from .net import _avail, postset, preset, validate_net

# firings, arrivals included, allowed at one clock value; more means a
# zero-delay cycle or interarrival that would keep the clock from advancing
MAX_FIRINGS_PER_INSTANT = 10_000


@dataclass(frozen=True)
class SimConfig:
    seed: int
    max_cases: int = 0  # per-source injection cap; 0 means horizon-bounded
    horizon: float = 0.0  # 0 means unbounded

    def check(self) -> None:
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

    def exhausted(self) -> bool:
        return self.cap > 0 and self.count >= self.cap

    def new_case(self) -> tuple[str, dict]:
        self.count += 1
        case_id = f"{self.spec.case_prefix}{self.count}"
        attrs = {
            name: gen.sample(self.rng_attrs)
            for name, gen in sorted(self.spec.attributes.items())
        }
        return case_id, attrs


def fifo_key(net: Net, t_id: str, binding: Binding, clock: float) -> tuple:
    """Firing priority of a binding at ``clock``; the smallest fires first.

    The binding whose newest consumed token is oldest goes first, then the
    downstream transition, then the smaller case id, then the transition id.
    """
    newest = max((tok.available_at for tok in binding.values()), default=clock)
    case_tok = net.case_token(t_id, binding)
    return (newest, -net.flow_depth(t_id), case_tok.case_id if case_tok else "", t_id)


def fifo_first(net: Net, m: Marking, t_id: str, clock: float) -> Optional[Binding]:
    """The guard-satisfying binding of ``t_id`` with the smallest ``fifo_key``.

    Picked from ``binding_pools`` without enumerating their product: every
    pool but the first case input's gives its earliest token, and the first
    case input gives its first token minimising ``(max(avail, rest), case
    id)``, where ``rest`` is the latest of the other pools' earliest tokens.
    The pool keeps store order (availability, then case id, ties in insertion
    order), so that token is the pool's first when none is available by
    ``rest``, and otherwise the first with the smallest case id among those
    that are, a prefix found by bisection. Among bindings with equal keys that
    is the first in product order, the one ``min`` over ``enabled_bindings``
    would return.
    """
    pools = binding_pools(net, m, t_id, clock, check_guards=True)
    if pools is None:
        return None
    in_places = preset(net, t_id)
    chosen = [pool[0] for pool in pools]
    case_inputs = net.case_inputs(t_id)
    if case_inputs:
        c = in_places.index(case_inputs[0])
        rest = max((tok.available_at for tok in chosen[:c] + chosen[c + 1 :]), default=-math.inf)
        waiting = pools[c][: bisect_right(pools[c], rest, key=_avail)]
        if waiting:
            chosen[c] = min(waiting, key=attrgetter("case_id"))
    return dict(zip(in_places, chosen))


def simulate(net: Net, cfg: SimConfig) -> Log:
    """Run the net until its sources are exhausted and the work has drained.

    Identical (net, cfg) yields an identical log: random streams are split
    per (seed, purpose, transition id) so transitions never perturb each
    other's samples.
    """
    cfg.check()
    problems = validate_net(net)
    if problems:
        raise SimulationError("net is invalid: " + "; ".join(problems))

    marking = net.initial_marking
    clock = 0.0
    events: list[Event] = []
    delay_rngs = {tid: _stream(cfg.seed, "delay", tid) for tid in net.transitions}

    # sources by id; for each node, the transitions that read it (preset or
    # guard places, a source itself); the transitions reading the clock
    sources: dict[str, _Source] = {}
    readers: dict[str, set[str]] = {}
    timed: set[str] = set()
    for tid, t in sorted(net.transitions.items()):
        if t.arrival_spec is not None:
            sources[tid] = _Source(t, cfg.seed, cfg.max_cases)
            readers[tid] = {tid}
        atoms = t.guard.atoms if t.guard else ()
        if any(atom.feature.kind == "timeuntilnext" for atom in atoms):
            timed.add(tid)
        for p in {*preset(net, tid), *(p for atom in atoms for p, _ in atom.feature.references())}:
            readers.setdefault(p, set()).add(tid)
    # each transition's candidate, kept until it is dirty; every one reads its
    # nonempty preset or, for a source, itself, so every one starts dirty
    cands: dict[str, Optional[tuple[tuple, str, Binding]]] = {}
    dirty = set().union(*readers.values())
    # (time, nodes) entries where the clock stops, as the module docstring lists
    future = [(tok.available_at, (p,)) for p in marking.places() for tok in marking.tokens(p)]
    heapq.heapify(future)

    def fire_at(tid: str, y: Binding, now: float, delay: float, case=None, stop=True) -> None:
        """Fire, dirty the readers of every node it touched and, with
        ``stop``, stop the clock when its outputs become available."""
        nonlocal marking
        marking = fire(net, marking, tid, y, now, delay, case)
        outs = postset(net, tid)
        for node in (tid, *y, *outs):
            dirty.update(readers.get(node, ()))
        if outs and stop:
            heapq.heappush(future, (now + delay, outs))

    def candidate(tid: str) -> Optional[tuple[tuple, str, Binding]]:
        src = sources.get(tid)
        if src is None:
            y = fifo_first(net, marking, tid, clock)
            return None if y is None else (fifo_key(net, tid, y, clock), tid, y)
        if src.exhausted() or src.next_time > clock:
            return None
        if not src.t.is_task:
            return ((-math.inf, 0, "", tid), tid, {})
        if enabled_bindings(net, marking, tid, clock, check_guards=True):
            return ((src.next_time, -net.flow_depth(tid), "", tid), tid, {})
        return None

    while True:
        # fire everything possible at the current clock, one binding at a time
        arriving = False  # the last firing was an arrival whose source is still due
        for fired in range(MAX_FIRINGS_PER_INSTANT + 1):
            # no firing precedes a due arrival, so while one is known to be
            # due only the sources are evaluated
            todo = dirty & sources.keys() if arriving else dirty
            for tid in todo:
                cands[tid] = candidate(tid)
            dirty.difference_update(todo)
            # keys end with the transition id, so ``min`` never compares bindings
            best = min(filter(None, cands.values()), default=None)
            if best is None:
                break
            _, tid, y = best
            if fired == MAX_FIRINGS_PER_INSTANT:
                raise SimulationError(
                    f"transition {tid!r} would fire more than {MAX_FIRINGS_PER_INSTANT} times "
                    f"at time {clock:g}; a zero-delay cycle or interarrival keeps the clock "
                    "from advancing"
                )
            t = net.transitions[tid]
            src = sources.get(tid)
            arriving = False
            if src is None:
                case_tok = net.case_token(tid, y)
                res = net.resource_inputs(tid)
                resource = y[res[0]].case_id if res else None
                delay = t.delay.sample(delay_rngs[tid])
                fire_at(tid, y, clock, delay)
                if t.is_task:
                    case_id = case_tok.case_id if case_tok else ""
                    attrs = dict(case_tok.attrs) if case_tok else {}
                    events.append(Event(case_id, tid, clock, clock + delay, resource, attrs))
                continue
            if t.is_task:
                delay = t.delay.sample(delay_rngs[tid])
                case_id, attrs = src.new_case()
                src.next_time = clock + src.spec.interarrival.sample(src.rng_gaps)
                fire_at(tid, {}, clock, delay, (case_id, attrs))
                events.append(Event(case_id, tid, clock, clock + delay, None, attrs))
            else:
                # case k+1 is injected when case k becomes available (the
                # first at once), and first at that instant, so it dirties
                # the readers of case k's places; only the last case needs
                # the clock to stop for its own
                avail = src.next_time
                if src.count:
                    avail += src.spec.interarrival.sample(src.rng_gaps)
                case = src.new_case()
                fire_at(tid, {}, avail, 0.0, case, stop=src.exhausted())
                src.next_time = avail
                arriving = avail <= clock and not src.exhausted()
            if not src.exhausted():
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


def _infer_schema(events: list[Event]) -> tuple[tuple[str, str], ...]:
    cols: dict[str, str] = {}
    for e in events:
        for name, value in e.attrs.items():
            if isinstance(value, bool):
                typ = "boolean"
            elif isinstance(value, (int, float)):
                typ = "number"
            else:
                typ = "text"
            if name in cols and cols[name] != typ:
                cols[name] = "text"
            else:
                cols.setdefault(name, typ)
    return tuple(sorted(cols.items()))


def ground_truth(net: Net) -> list[tuple[str, object]]:
    """(transition id, guard) for every guarded transition, sorted by id."""
    return [
        (tid, t.guard)
        for tid, t in sorted(net.transitions.items())
        if t.guard is not None
    ]
