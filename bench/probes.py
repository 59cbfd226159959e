"""Commands beside the gated run: golden regeneration, scaling probe, self-test."""
from __future__ import annotations

import io
import json
import os
import time

import dsync
import harness
from harness import Workload

SCALING = (("blocking", (500, 1000, 2000, 4000)), ("priority", (500, 1000, 2000)))
SELFTEST_CASES = 50


def compute_goldens(workloads) -> tuple[dict, list[str]]:
    """Hashes of every input's log and report, and the checks they failed."""
    goldens, problems = {}, []
    for w in workloads:
        seeds = {}
        for s in w.seeds:
            rt = harness.round_trip(w, s, None)
            problems.extend(f"{w.name} seed {s}: {p}" for p in rt.problems)
            seeds[str(s)] = {"log": rt.log_sha256, "report": rt.report_sha256}
        goldens[w.name] = {"model": w.model, "cases": w.cases, "seeds": seeds}
    return goldens, problems


def regen_goldens() -> int:
    """Rewrite goldens.json; refuses when an output fails its other checks."""
    goldens, problems = compute_goldens(harness.WORKLOADS.values())
    for p in problems:
        print(f"FAILED {p}")
    if problems:
        print(f"{harness.GOLDENS.name} left unchanged")
        return 1
    with open(harness.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {harness.GOLDENS.relative_to(harness.ROOT)}")
    return 0


def scaling(seed: int) -> int:
    """Microseconds per event of simulate and of the check against log size.

    The check replays the log over the model with its own guards on, as
    ``dsync check --model models/<model>.json`` does. Ungated.
    """
    env = harness.environment()
    env["loadavg_start"] = os.getloadavg()
    rows = []
    for model, sizes in SCALING:
        for cases in sizes:
            net = dsync.load_model(str(harness.MODELS / f"{model}.json"))
            t0 = time.perf_counter()
            log = dsync.simulate(net, dsync.SimConfig(seed=seed, max_cases=cases))
            t1 = time.perf_counter()
            _, check = dsync.replay(log, net, check_guards=True)
            t2 = time.perf_counter()
            n = len(log.events)
            row = {"model": model, "cases": cases, "events": n,
                   "simulate_us_per_event": 1e6 * (t1 - t0) / n,
                   "check_us_per_event": 1e6 * (t2 - t1) / n,
                   "check_match_rate": check.match_rate}
            rows.append(row)
            print(f"{model:<9} {cases:>5} cases {n:>6} events  simulate "
                  f"{row['simulate_us_per_event']:>9.1f} us/event  check "
                  f"{row['check_us_per_event']:>9.1f} us/event  matched {check.match_rate:.1%}",
                  flush=True)
    env["loadavg_end"] = os.getloadavg()
    env["noisy"] = harness.noisy(env)
    for model, _ in SCALING:
        mine = [r for r in rows if r["model"] == model]
        for key in ("simulate_us_per_event", "check_us_per_event"):
            print(f"{model} {key}: x{mine[-1][key] / mine[0][key]:.1f} from "
                  f"{mine[0]['cases']} to {mine[-1]['cases']} cases (flat would be x1)")
    if env["noisy"]:
        print("NOISY: load average exceeded nproc during the probe")
    path = harness.write_result(f"scaling-seed{seed}.json", {"seed": seed, "env": env,
                                                            "rows": rows})
    print(f"result file {path.relative_to(harness.ROOT)}")
    return 0


def selftest(run_workload) -> int:
    """The harness at tiny sizes: metric names and units, tampered goldens,
    and traced against untraced counts.

    ``run_workload(workload, trace, goldens, out)`` is the gated run's own
    code path, returning its last line and result document.
    """
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tiny = [
        Workload(f"selftest-{w.model}", w.model, SELFTEST_CASES, (w.seeds[0],), ())
        for w in harness.WORKLOADS.values()
    ]
    goldens, _ = compute_goldens(tiny)
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)

    def run(w: Workload, trace: int, gold: dict) -> tuple[dict, str, dict]:
        out = io.StringIO()
        line, doc = run_workload(w, trace, gold, out)
        return line, out.getvalue(), doc

    def printed(text: str, name: str, unit: str) -> bool:
        return any(ln.split()[:1] == [name] and f" {unit} " in f"{ln} " for ln in text.splitlines())

    for w in tiny:
        plain, text, doc0 = run(w, 0, goldens)
        traced, ttext, _ = run(w, 1, goldens)
        check(plain["correct"] and traced["correct"] and plain["attempted"] == 1,
              f"{w.name}: one round trip, outputs match their goldens")
        for kind, line, body in (("end_to_end", plain, text), ("per_layer", traced, ttext)):
            missing = [m["name"] for m in spec[kind]
                       if line["metrics"].get(m["name"], {}).get("unit") != m["unit"]
                       or not printed(body, m["name"], m["unit"])]
            check(not missing, f"{w.name}: every {kind} metric printed with its unit {missing}")
        for key in ("eventlog.events", "patterns.rows"):
            untraced = doc0["passes"][0]["events" if key == "eventlog.events" else key]
            check(untraced == traced["metrics"][key]["value"] and untraced > 0,
                  f"{w.name}: {key} traced {traced['metrics'][key]['value']} "
                  f"= untraced {untraced}")
        check("tracing overhead:" in ttext and "no untraced result" not in ttext,
              f"{w.name}: traced run reports its overhead against the untraced run")

    w = tiny[0]
    seed = str(w.seeds[0])
    for part in ("log", "report"):
        bad = json.loads(json.dumps(goldens))
        bad[w.name]["seeds"][seed][part] = "0" * 64
        line, text, _ = run(w, 0, bad)
        check(not line["correct"] and line["failed"] == 1 and f"{part} sha256" in text,
              f"tampered {part} golden is a reported failure, not a crash")
    line, text, _ = run(w, 0, {})
    check(line["failed"] == 1 and "no golden hashes" in text,
          "a missing golden is a reported failure")
    wrong = Workload(w.name, w.model, w.cases, w.seeds, (("no-such-transition", "choice"),))
    line, text, _ = run(wrong, 0, goldens)
    check(line["failed"] == 1 and "not rediscovered" in text,
          "a guard that is not rediscovered is a reported failure")

    for w in tiny:
        for trace in (0, 1):
            (harness.RESULTS / f"{w.name}-seed1-trace{trace}.json").unlink(missing_ok=True)
    print(f"selftest: {'FAILED ' + str(len(failures)) if failures else 'all passed'}")
    return 1 if failures else 0
