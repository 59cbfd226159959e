"""Workloads, the measured round trip, its correctness checks and the metrics.

One round trip is what a user of the command line does for one log:
``dsync simulate``, ``dsync discover`` and ``dsync check``. The harness calls
only the public API and looks every function up at call time
(``dsync.simulate(...)``), so the tracer can wrap those names from outside.
"""
from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import dsync
import dsync.report as report_mod  # build_report and report_to_json live here

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MODELS = ROOT / "models"
GOLDENS = BENCH / "goldens.json"
RESULTS = BENCH / "results"

SETUP_PROBES = 3  # per call; a run probes before and after measuring
STEPS = ("load_s", "simulate_s", "discover_s", "check_s")  # pipeline_s is their sum
REFERENCE_S = 0.001  # seconds: the reference loop on a fast-mode CPU of the tuning machine


@dataclass(frozen=True)
class Workload:
    name: str
    model: str  # file stem under models/
    cases: int  # SimConfig.max_cases
    seeds: tuple[int, ...]  # simulation seeds; every pass runs all of them
    expect: tuple[tuple[str, str], ...]  # (transition, pattern kind) to rediscover

    def order(self, seed: int) -> list[int]:
        """The seeds as consecutive values starting at ``seed``, wrapped.

        Every run covers the same inputs, so runs with different seeds do
        the same work and stay comparable; the seed only picks the order.
        """
        start = (seed - self.seeds[0]) % len(self.seeds)
        return list(self.seeds[start:] + self.seeds[:start])


# Why these three (see README.md): supplychain-mix runs every pattern and
# candidate, with heavy-tailed seed 3 beside light seed 2; priority-backlog
# builds a queue so binding enumeration over a large marking dominates;
# blocking-long is a long log with cheap guards, so per-event engine cost,
# parse/write and sample memory dominate.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "supplychain-mix", "supplychain", 200, (2, 3),
            (
                ("game_case_arriving", "blocking"),
                ("production_game", "choice"),
                ("production_phone", "priority"),
                ("transportation", "holdbatch"),
            ),
        ),
        Workload("priority-backlog", "priority", 800, (1,), (("handling", "priority"),)),
        Workload("blocking-long", "blocking", 2000, (1,), (("pre-processing", "blocking"),)),
    )
}

# unit of every end-to-end metric; error_rate is reported through
# attempted/failed because it is 0 on correct code
E2E_UNITS = {
    "setup_s": "s",
    "simulate_s": "s",
    "discover_s": "s",
    "check_s": "s",
    "pipeline_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def golden_for(goldens: dict, w: Workload, seed: int) -> Optional[dict]:
    """The committed hashes of one input, or None when none match it."""
    entry = goldens.get(w.name)
    if not entry or entry.get("model") != w.model or entry.get("cases") != w.cases:
        return None
    return entry.get("seeds", {}).get(str(seed))


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key, self.value = key, value


@functools.cache
def _reference_items() -> list[_Item]:
    """About 5 MB of small objects in shuffled memory order."""
    items = [_Item(i & 1023, i) for i in range(65536)]
    random.Random(0).shuffle(items)
    return items


def _reference_work() -> int:
    """A fixed pure-Python loop of attribute and dict operations over objects
    scattered in memory, so it slows down with the CPU's caches as well as
    its clock. It shares no code with dsync: optimising dsync never moves it.
    """
    table: dict[int, int] = {}
    acc = 0
    for item in _reference_items()[::8]:
        table[item.key] = table.get(item.key, 0) + item.value
        acc += item.key
    return acc


def reference_s() -> float:
    """Seconds the reference loop takes right now: the fastest of five."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


class Stopwatch:
    """Times consecutive steps in wall seconds and at reference speed.

    The shared CPUs this benchmark was built on switch between a fast and a
    slow mode (about 1.6x apart) for seconds to minutes at a time, which
    moves wall-clock medians by a quarter from one 40 s run to the next. The
    reference loop slows down with them, so each step is also reported as
    ``wall * REFERENCE_S / reference``, with the reference timed right before
    and right after the step: seconds on a CPU where the loop takes
    REFERENCE_S.
    """

    def __init__(self) -> None:
        self.ref = reference_s()
        self.t0 = time.perf_counter()

    def lap(self) -> tuple[float, float]:
        wall = time.perf_counter() - self.t0
        ref = reference_s()
        scaled = wall * 2 * REFERENCE_S / (self.ref + ref)
        self.ref = ref
        self.t0 = time.perf_counter()
        return wall, scaled


@dataclass
class RoundTrip:
    seed: int
    seconds: dict[str, float]  # per step, at reference speed; gated
    wall: dict[str, float]  # per step, wall clock
    events: int
    rows: int
    log_sha256: str
    report_sha256: str
    problems: list[str]


def round_trip(w: Workload, seed: int, golden: Optional[dict]) -> RoundTrip:
    """simulate -> discover -> check on one seed; only the steps are timed.

    ``problems`` lists every failed check; hashes are compared only when a
    golden is given.
    """
    laps = []
    clock = Stopwatch()
    net = dsync.load_model(str(MODELS / f"{w.model}.json"))
    laps.append(clock.lap())
    log = dsync.simulate(net, dsync.SimConfig(seed=seed, max_cases=w.cases))
    log_text = dsync.write_log(log)
    laps.append(clock.lap())
    parsed = dsync.parse_log(log_text)
    run = dsync.discover_run(parsed, net)
    report_text = report_mod.report_to_json(report_mod.build_report(run, net, parsed))
    laps.append(clock.lap())
    annotated = dsync.annotate_net(net.without_guards(), run.constraints)
    _, check = dsync.replay(dsync.parse_log(log_text), annotated, check_guards=True)
    laps.append(clock.lap())

    log_hash, report_hash = sha256(log_text), sha256(report_text)
    problems = []
    if golden is not None:
        if log_hash != golden["log"]:
            problems.append(f"log sha256 {log_hash} differs from golden {golden['log']}")
        if report_hash != golden["report"]:
            problems.append(
                f"report sha256 {report_hash} differs from golden {golden['report']}"
            )
    found = {(pc.t_g, pc.kind.value) for pc in run.constraints}
    for t_id, kind in w.expect:
        if (t_id, kind) not in found:
            problems.append(f"{kind} guard on {t_id} not rediscovered")
    if check.unmatched:
        problems.append(f"check matched {check.matched}/{check.total} log moves")
    rows = sum(len(res.ptlog.rows) for res in run.results if res.ptlog is not None)
    wall = {step: lap[0] for step, lap in zip(STEPS, laps)}
    seconds = {step: lap[1] for step, lap in zip(STEPS, laps)}
    wall["pipeline_s"], seconds["pipeline_s"] = sum(wall.values()), sum(seconds.values())
    return RoundTrip(seed, seconds, wall, len(log.events), rows, log_hash, report_hash, problems)


def measure(w: Workload, seed: int, seconds: float, goldens: dict, tracer=None) -> dict:
    """Closed loop over whole passes of the workload's seeds.

    One operation is in flight at a time. A new pass starts only while the
    longest pass so far still fits in ``seconds``; there is always one pass.
    """
    order = w.order(seed)
    passes, trips, failures = [], [], []
    attempted = 0
    start = time.perf_counter()
    longest = 0.0
    while True:
        index = len(passes)
        pass_start = time.perf_counter()
        totals = dict.fromkeys(STEPS + ("pipeline_s", "wall_pipeline_s"), 0.0)
        events = rows = 0
        for s in order:
            attempted += 1
            if tracer is not None:
                tracer.iteration = f"{index}:{s}"
            golden = golden_for(goldens, w, s)
            try:
                rt = round_trip(w, s, golden)
            except Exception as exc:  # a crash counts as a failure; the run goes on
                failures.append({"pass": index, "seed": s, "error": repr(exc),
                                 "traceback": traceback.format_exc()})
                continue
            if golden is None:
                rt.problems.insert(0, "no golden hashes for this input (run --regen-goldens)")
            if rt.problems:
                failures.append({"pass": index, "seed": s, "error": "; ".join(rt.problems)})
            for key, value in rt.seconds.items():
                totals[key] += value
            totals["wall_pipeline_s"] += rt.wall["pipeline_s"]
            events += rt.events
            rows += rt.rows
            trips.append({"pass": index, **rt.__dict__})
        sample = {**totals, "events": events, "patterns.rows": rows}
        sample["events_per_s"] = events / totals["pipeline_s"] if totals["pipeline_s"] else 0.0
        if tracer is not None:
            sample["layers"] = tracer.end_pass()
        passes.append(sample)
        longest = max(longest, time.perf_counter() - pass_start)
        if time.perf_counter() - start + longest > seconds:
            break
    return {
        "inputs": {"model": w.model, "cases": w.cases, "seeds": order},
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures,
        "passes": passes,
        "round_trips": trips,
    }


def summarize(values: list[float]) -> dict:
    """Median, the widest percentile that has ten samples beyond it, and n."""
    n = len(values)
    out = {"value": statistics.median(values), "n": n}
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        out[f"p{pct}"] = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    else:
        out["max"] = max(values)  # too few samples for a tail percentile
    return out


def end_to_end(result: dict, setup_times: list[float]) -> dict:
    passes = result["passes"]
    metrics = {"setup_s": summarize(setup_times)}
    for key in ("simulate_s", "discover_s", "check_s", "pipeline_s", "events_per_s"):
        metrics[key] = summarize([p[key] for p in passes])
    metrics["pipeline_s"]["wall_median"] = statistics.median(p["wall_pipeline_s"] for p in passes)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = {"value": rss_kb / 1024, "n": 1}
    for key, unit in E2E_UNITS.items():
        metrics[key]["unit"] = unit
    return metrics


def probe_setup(script: Path, count: int = SETUP_PROBES) -> list[float]:
    """Seconds from starting a fresh benchmark process to its first timed
    call, at reference speed (see Stopwatch)."""
    times = []
    for _ in range(count):
        ref = reference_s()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(script), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        times.append(elapsed * 2 * REFERENCE_S / (ref + reference_s()))
    return times


def pin_cpu() -> None:
    """Keep this process and its children on one CPU, so the reference loop
    always runs where the measured work runs."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    """sha256 over src/dsync, which names the code where git is absent."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dsync").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),  # load average counts the whole machine
    }


def noisy(env: dict) -> bool:
    """A load average above the core count means other work shared the CPUs."""
    return max(env["loadavg_start"][0], env["loadavg_end"][0]) > env["nproc"]


def write_result(name: str, doc: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
