"""Per-layer tracing, installed from outside the library for the traced run.

Stage-level public calls get one span each (name, start, end, parent and
iteration id). Hot leaf functions get aggregated call counts and busy time
instead, because a heavy input makes about a million of those calls. Every
wrapper replaces the name the calling module uses, e.g.
``dsync.replay.sim_score``, and ``uninstall`` puts the originals back.
"""
from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from dsync.constraints import ConstraintExpr

# (module, attribute, span name): stage-level calls and the modules that call them
SPANS = (
    ("dsync", "load_model", "modelfile.load_model"),
    ("dsync", "simulate", "simulate.simulate"),
    ("dsync", "write_log", "eventlog.write_log"),
    ("dsync", "parse_log", "eventlog.parse_log"),
    ("dsync", "discover_run", "extract.discover_run"),
    ("dsync", "annotate_net", "extract.annotate_net"),
    ("dsync", "replay", "replay.replay"),
    ("dsync.extract", "replay", "replay.replay"),
    ("dsync.extract", "build_pt_log", "patterns.build_pt_log"),
    ("dsync.extract", "fit", "tree.fit"),
    ("dsync.report", "replay", "replay.replay"),
    ("dsync.report", "annotate_net", "extract.annotate_net"),
    ("dsync.report", "build_report", "report.build_report"),
    ("dsync.report", "report_to_json", "report.report_to_json"),
)

# (module or class, attribute, counter name): hot leaves, aggregated
LEAVES = (
    ("dsync.net", "enabled_bindings", "net.enabled_bindings"),
    ("dsync.replay", "enabled_bindings", "net.enabled_bindings"),
    ("dsync.simulate", "enabled_bindings", "net.enabled_bindings"),
    ("dsync.patterns", "has_enabled_binding", "net.has_enabled_binding"),
    ("dsync.replay", "fire", "net.fire"),
    ("dsync.simulate", "fire", "net.fire"),
    ("dsync.replay", "sim_score", "replay.sim_score"),
    ("dsync.patterns", "eval_feature", "constraints.eval_feature"),
    ("dsync.constraints", "eval_feature", "constraints.eval_feature"),
    (ConstraintExpr, "holds", "constraints.holds"),
    (ConstraintExpr, "binding_ok", "constraints.binding_ok"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    iteration: str
    start: float
    end: float = 0.0
    child_s: float = 0.0  # covered by child spans
    leaf_s: float = 0.0  # covered by hot-leaf calls made directly under this span
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s - self.leaf_s


class LeafStat:
    __slots__ = ("calls", "busy", "active")

    def __init__(self) -> None:
        self.calls, self.busy, self.active = 0, 0.0, False


class Tracer:
    """Spans and counters of one traced run, kept in memory until it ends."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.iteration = ""
        self.spans: list[Span] = []
        self.pass_start = 0  # index of the current pass's first span
        self.stack: list[Span] = []
        self.leaf_depth = 0
        self.leaves = {name: LeafStat() for _, _, name in LEAVES}
        self.counts: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> "Tracer":
        after = {
            "net.enabled_bindings": lambda res: self._count("net.bindings_enumerated", len(res)),
        }
        for owner, attr, name in LEAVES:
            self._patch(owner, attr, lambda fn, n=name: self._leaf(n, fn, after.get(n)))
        span_after = {
            "eventlog.write_log": self._after_write_log,
            "replay.replay": self._after_replay,
            "patterns.build_pt_log": self._after_build_pt_log,
            "tree.fit": self._after_fit,
            "extract.discover_run": self._after_discover_run,
        }
        for owner, attr, name in SPANS:
            self._patch(owner, attr, lambda fn, n=name: self._span(n, fn, span_after.get(n)))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr: str, make: Callable) -> None:
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # -- wrappers --------------------------------------------------------

    def _leaf(self, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
        stat = self.leaves[name]
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if stat.active:  # a recursive call (ratio features) is part of the outer one
                return fn(*args, **kwargs)
            stat.active = True
            self.leaf_depth += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stat.active = False
                self.leaf_depth -= 1
            stat.calls += 1
            stat.busy += dt
            if not self.leaf_depth and self.stack:
                self.stack[-1].leaf_s += dt
            if after is not None:
                after(result)
            return result

        return wrapper

    def _span(self, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
        def wrapper(*args, **kwargs):
            parent = self.stack[-1].id if self.stack else None
            span = Span(len(self.spans), name, parent, self.iteration, time.perf_counter())
            self.spans.append(span)
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
                if self.stack:
                    self.stack[-1].child_s += span.duration
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return wrapper

    def _count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _after_write_log(self, span, args, kwargs, result) -> None:
        self._count("eventlog.events", len(args[0].events))

    def _after_replay(self, span, args, kwargs, result) -> None:
        guards = kwargs.get("check_guards", args[2] if len(args) > 2 else False)
        span.attrs["check_guards"] = bool(guards)
        samples = result[0]
        self._count("replay.samples", len(samples))
        self._count("replay.marking_tokens", sum(s.before.total_tokens() for s in samples))

    def _after_build_pt_log(self, span, args, kwargs, result) -> None:
        self._count("patterns.candidates", 1)
        self._count("patterns.rows", len(result.rows))

    def _after_fit(self, span, args, kwargs, result) -> None:
        stack, nodes = [result], 0
        while stack:
            node = stack.pop()
            nodes += 1
            stack.extend(c for c in (node.left, node.right) if c is not None)
        self._count("tree.nodes", nodes)

    def _after_discover_run(self, span, args, kwargs, result) -> None:
        self._count("extract.constraints", len(result.constraints))

    # -- per-pass metrics ------------------------------------------------

    def end_pass(self) -> dict:
        """Per-layer metrics of the pass that just ended; counters restart."""
        spans = self.spans[self.pass_start:]
        self.pass_start = len(self.spans)

        def total(name: str, guards: Optional[bool] = None) -> float:
            return sum(
                s.duration for s in spans
                if s.name == name and (guards is None or s.attrs.get("check_guards") == guards)
            )

        def self_time(name: str) -> float:
            return sum(s.self_s for s in spans if s.name == name)

        leaf = self.leaves
        c = self.counts.get
        samples = c("replay.samples", 0)
        metrics = {
            "net.enabled_bindings_calls": leaf["net.enabled_bindings"].calls,
            "net.bindings_enumerated": c("net.bindings_enumerated", 0),
            "net.enabled_bindings_s": leaf["net.enabled_bindings"].busy,
            "net.bindings_per_move": c("net.bindings_enumerated", 0)
            / max(leaf["net.fire"].calls, 1),
            "constraints.binding_ok_calls": leaf["constraints.binding_ok"].calls,
            "constraints.binding_ok_s": leaf["constraints.binding_ok"].busy,
            "constraints.holds_calls": leaf["constraints.holds"].calls,
            "constraints.holds_s": leaf["constraints.holds"].busy,
            "replay.sim_score_calls": leaf["replay.sim_score"].calls,
            "replay.sim_score_s": leaf["replay.sim_score"].busy,
            "simulate.self_s": self_time("simulate.simulate"),
            "net.fire_calls": leaf["net.fire"].calls,
            "net.fire_s": leaf["net.fire"].busy,
            "replay.marking_tokens_mean": c("replay.marking_tokens", 0) / max(samples, 1),
            "replay.discover_s": total("replay.replay", guards=False),
            "replay.check_s": total("replay.replay", guards=True),
            "replay.samples": samples,
            "patterns.build_pt_log_s": total("patterns.build_pt_log"),
            "patterns.candidates": c("patterns.candidates", 0),
            "patterns.rows": c("patterns.rows", 0),
            "net.has_enabled_binding_calls": leaf["net.has_enabled_binding"].calls,
            "net.has_enabled_binding_s": leaf["net.has_enabled_binding"].busy,
            "constraints.eval_feature_calls": leaf["constraints.eval_feature"].calls,
            "constraints.eval_feature_s": leaf["constraints.eval_feature"].busy,
            "tree.fit_s": total("tree.fit"),
            "tree.fit_calls": sum(1 for s in spans if s.name == "tree.fit"),
            "tree.nodes": c("tree.nodes", 0),
            "extract.self_s": self_time("extract.discover_run"),
            "extract.constraints": c("extract.constraints", 0),
            "report.build_report_self_s": self_time("report.build_report"),
            "modelfile.load_model_s": total("modelfile.load_model"),
            "eventlog.parse_log_s": total("eventlog.parse_log"),
            "eventlog.write_log_s": total("eventlog.write_log"),
            "eventlog.events": c("eventlog.events", 0),
        }
        for stat in leaf.values():
            stat.calls, stat.busy = 0, 0.0
        self.counts.clear()
        return metrics

    def span_records(self) -> list[dict]:
        return [
            {
                "id": s.id, "name": s.name, "parent": s.parent, "iteration": s.iteration,
                "start": s.start - self.t0, "end": s.end - self.t0,
                "self_s": s.self_s, **s.attrs,
            }
            for s in self.spans
        ]
