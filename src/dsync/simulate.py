"""Discrete-event execution of a guarded timed net.

Produces ground-truth event logs: each task-transition firing becomes one
event. The clock advances to the earliest moment any transition has a
guard-satisfying, time-enabled binding; simultaneous candidates fire in FIFO
order (the binding whose newest consumed token is oldest goes first, ties by
case id then transition id), which keeps the selection policy value-blind so
that any case reordering observable in the log is caused by guards alone.
Each transition offers one candidate, its FIFO-first binding, picked from
its token pools directly (``fifo_first``). The moments the clock can stop at
are the availability times of produced tokens, kept on a heap, including
tokens the marking does not store (``Net.unread``), and the sources' next
times.

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
  case supplied as the produced case.
"""
from __future__ import annotations

import hashlib
import heapq
import math
import random
from dataclasses import dataclass
from typing import Optional

from .errors import SimulationError
from .eventlog import Event, Log, sort_events
from .net import Binding, Marking, Net, Transition, binding_pools, enabled_bindings, fire
from .net import postset, preset, validate_net

# firings (and arrivals per source) allowed at one clock value; more means a
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
        # task sources: time of the next scheduled firing;
        # non-task sources: availability of the last injected token,
        # which is also the moment the next token gets injected.
        self.next_time = 0.0

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


def _stuck_clock(t_id: str, clock: float) -> SimulationError:
    return SimulationError(
        f"transition {t_id!r} would fire more than {MAX_FIRINGS_PER_INSTANT} times at "
        f"time {clock:g}; a zero-delay cycle or interarrival keeps the clock from advancing"
    )


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
    Among bindings with equal keys that is the first in product order, the
    one ``min`` over ``enabled_bindings`` would return.
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
        chosen[c] = min(pools[c], key=lambda tok: (max(tok.available_at, rest), tok.case_id))
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

    task_sources: dict[str, _Source] = {}
    free_sources: list[tuple[str, _Source]] = []
    for t in net.transitions.values():
        if t.arrival_spec is None:
            continue
        src = _Source(t, cfg.seed, cfg.max_cases)
        if t.is_task:
            task_sources[t.id] = src
        else:
            free_sources.append((t.id, src))
    free_sources.sort()

    ordinary = sorted(
        tid for tid, t in net.transitions.items() if t.arrival_spec is None
    )
    # availability of every token produced or initially present, stored or
    # not (``Net.unread``); the earliest one past the clock is the next stop
    future = [tok.available_at for p in marking.places() for tok in marking.tokens(p)]
    heapq.heapify(future)

    def fire_at(tid: str, y: Binding, now: float, delay: float, case=None) -> None:
        nonlocal marking
        marking = fire(net, marking, tid, y, now, delay, case)
        if postset(net, tid):
            heapq.heappush(future, now + delay)

    def pump_free_sources() -> None:
        """Inject pending arrivals: token k+1 appears when token k becomes available."""
        for tid, src in free_sources:
            for injected in range(MAX_FIRINGS_PER_INSTANT + 1):
                if src.exhausted() or src.next_time > clock:
                    break
                if injected == MAX_FIRINGS_PER_INSTANT:
                    raise _stuck_clock(tid, clock)
                inject_at = src.next_time
                if src.count == 0:
                    avail = inject_at  # first case is available immediately
                else:
                    avail = inject_at + src.spec.interarrival.sample(src.rng_gaps)
                fire_at(tid, {}, avail, 0.0, src.new_case())
                src.next_time = avail

    pump_free_sources()
    while True:
        # fire everything possible at the current clock, one binding at a time
        for fired in range(MAX_FIRINGS_PER_INSTANT + 1):
            candidates: list[tuple[tuple, str, dict]] = []
            for tid in ordinary:
                y = fifo_first(net, marking, tid, clock)
                if y is not None:
                    candidates.append((fifo_key(net, tid, y, clock), tid, y))
            for tid, src in sorted(task_sources.items()):
                if src.exhausted() or src.next_time > clock:
                    continue
                if enabled_bindings(net, marking, tid, clock, check_guards=True):
                    candidates.append(
                        ((src.next_time, -net.flow_depth(tid), "", tid), tid, {})
                    )
            if not candidates:
                break
            _, tid, y = min(candidates, key=lambda c: c[0])
            if fired == MAX_FIRINGS_PER_INSTANT:
                raise _stuck_clock(tid, clock)
            t = net.transitions[tid]
            delay = t.delay.sample(delay_rngs[tid])
            if tid in task_sources:
                src = task_sources[tid]
                case_id, attrs = src.new_case()
                src.next_time = clock + src.spec.interarrival.sample(src.rng_gaps)
                fire_at(tid, {}, clock, delay, (case_id, attrs))
                events.append(Event(case_id, tid, clock, clock + delay, None, attrs))
            else:
                case_tok = net.case_token(tid, y)
                res = net.resource_inputs(tid)
                resource = y[res[0]].case_id if res else None
                fire_at(tid, y, clock, delay)
                if t.is_task:
                    case_id = case_tok.case_id if case_tok else ""
                    attrs = dict(case_tok.attrs) if case_tok else {}
                    events.append(Event(case_id, tid, clock, clock + delay, resource, attrs))

        # nothing fires now; advance the clock to the next possible change
        while future and future[0] <= clock:
            heapq.heappop(future)
        upcoming = future[:1]
        for src in [*task_sources.values(), *(src for _, src in free_sources)]:
            if not src.exhausted() and src.next_time > clock:
                upcoming.append(src.next_time)
        if not upcoming:
            break
        nxt = min(upcoming)
        if cfg.horizon > 0 and nxt > cfg.horizon:
            break
        clock = nxt
        pump_free_sources()

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
