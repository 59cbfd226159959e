"""Discrete-event execution of a guarded timed net.

Produces ground-truth event logs: each task-transition firing becomes one
event. The clock advances to the earliest moment any transition has a
guard-satisfying, time-enabled binding; simultaneous candidates fire in FIFO
order (the binding whose newest consumed token is oldest goes first, ties by
case id then transition id), which keeps the selection policy value-blind so
that any case reordering observable in the log is caused by guards alone.

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
import random
from dataclasses import dataclass

from .errors import SimulationError
from .eventlog import Event, Log, sort_events
from .net import Binding, Net, Transition, enabled_bindings, fire, validate_net

# firings (and arrivals per source) allowed at one clock value; more means a
# zero-delay cycle or interarrival that would keep the clock from advancing
MAX_FIRINGS_PER_INSTANT = 10_000


@dataclass(frozen=True)
class SimConfig:
    seed: int
    max_cases: int = 0  # per-source injection cap; 0 means horizon-bounded
    horizon: float = 0.0  # 0 means unbounded

    def check(self) -> None:
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

    def pump_free_sources() -> None:
        """Inject pending arrivals: token k+1 appears when token k becomes available."""
        nonlocal marking
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
                marking = fire(
                    net, marking, tid, {}, avail,
                    delay_override=0.0, produced_case=src.new_case(),
                )
                src.next_time = avail

    pump_free_sources()
    while True:
        # fire everything possible at the current clock, one binding at a time
        for fired in range(MAX_FIRINGS_PER_INSTANT + 1):
            candidates: list[tuple[tuple, str, dict]] = []
            for tid in ordinary:
                for y in enabled_bindings(net, marking, tid, clock, check_guards=True):
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
                marking = fire(
                    net, marking, tid, {}, clock,
                    delay_override=delay, produced_case=(case_id, attrs),
                )
                events.append(Event(case_id, tid, clock, clock + delay, None, attrs))
            else:
                case_tok = net.case_token(tid, y)
                resource = None
                for p in net.resource_inputs(tid):
                    if p in y:
                        resource = y[p].case_id
                        break
                marking = fire(net, marking, tid, y, clock, delay_override=delay)
                if t.is_task:
                    case_id = case_tok.case_id if case_tok else ""
                    attrs = dict(case_tok.attrs) if case_tok else {}
                    events.append(Event(case_id, tid, clock, clock + delay, resource, attrs))

        # nothing fires now; advance the clock to the next possible change
        future: list[float] = []
        for p in marking.places():
            future.extend(
                tok.available_at for tok in marking.tokens(p) if tok.available_at > clock
            )
        for tid, src in task_sources.items():
            if not src.exhausted() and src.next_time > clock:
                future.append(src.next_time)
        for tid, src in free_sources:
            if not src.exhausted() and src.next_time > clock:
                future.append(src.next_time)
        if not future:
            break
        nxt = min(future)
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
