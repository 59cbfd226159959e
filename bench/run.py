"""Benchmark of the simulate -> discover -> check pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                  # every workload, untraced then traced
    python3 bench/run.py --scaling        # per-event cost against log size
    python3 bench/run.py --selftest       # the harness itself, at tiny sizes
    python3 bench/run.py --regen-goldens  # rewrite bench/goldens.json

A workload run prints every metric with its unit, writes its result file
under bench/results/, and ends with one JSON line: correct, attempted,
failed and metrics (end-to-end with --trace 0, per-layer with --trace 1).
See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def setup():
    """Everything a run does before its first timed call."""
    if not (SRC / "dsync" / "__init__.py").is_file() or not (ROOT / "models").is_dir():
        sys.exit(f"error: {ROOT} has no src/dsync or models/; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import harness  # imports dsync

    return harness, harness.load_goldens()


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def metric_line(name: str, m: dict) -> str:
    extra = "".join(f" {k}={m[k]:.6g}" for k in sorted(m) if k not in ("value", "unit", "n"))
    n = f" n={m['n']}" if "n" in m else ""
    return f"{name:<34} {m['value']:>14.6g} {m['unit']:<6}{n}{extra}"


def run_workload(harness, w, seed: int, seconds: float, trace: int, goldens: dict,
                 out=sys.stdout) -> tuple[dict, dict]:
    """Measure one workload in this process; returns the last line and the result file."""
    spec = load_spec()
    # set-up is probed at both ends of the run, so one slow moment of the
    # machine moves at most half of the samples
    setup_times = harness.probe_setup(Path(__file__))
    env = harness.environment()
    env["loadavg_start"] = os.getloadavg()
    if trace:
        import tracer as tracer_mod

        with tracer_mod.Tracer() as tracer:
            result = harness.measure(w, seed, seconds, goldens, tracer)
    else:
        result = harness.measure(w, seed, seconds, goldens)
    env["loadavg_end"] = os.getloadavg()
    env["noisy"] = harness.noisy(env)
    env["reference_s"] = harness.reference_s()
    setup_times += harness.probe_setup(Path(__file__))

    e2e = harness.end_to_end(result, setup_times)
    doc = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
           "env": env, "end_to_end": e2e, **result}
    print(f"workload {w.name}: {w.model} x {w.cases} cases, seeds {result['inputs']['seeds']}, "
          f"{len(result['passes'])} pass(es), {result['attempted']} round trips", file=out)
    for f in result["failures"]:
        print(f"FAILED pass {f['pass']} seed {f['seed']}: {f['error']}", file=out)
    print(metric_line("error_rate", {"value": result["error_rate"], "unit": "1"}), file=out)
    for name in harness.E2E_UNITS:
        print(metric_line(name, e2e[name]), file=out)

    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layers = {}
        for name, unit in units.items():
            values = []
            for p in result["passes"]:
                if name == "trace.pipeline_s":
                    values.append(p["pipeline_s"])
                elif unit == "s" and p["wall_pipeline_s"]:  # to reference speed, by the
                    # pass's own factor (a pass whose round trips all raised has none)
                    values.append(p["layers"][name] * p["pipeline_s"] / p["wall_pipeline_s"])
                else:
                    values.append(p["layers"][name])
            layers[name] = {**harness.summarize(values), "unit": unit}
        doc["per_layer"] = layers
        doc["tracing_overhead"] = overhead = tracing_overhead(harness, w, env, e2e)
        for name, m in layers.items():
            print(metric_line(name, m), file=out)
        if overhead is None:
            print("tracing overhead: no untraced result of this workload and code "
                  "in bench/results; run with --trace 0 first", file=out)
        else:
            print(f"tracing overhead: {overhead['seconds']:+.3f} s per pass "
                  f"({overhead['share']:+.1%} of untraced pipeline_s)", file=out)
        doc["spans"] = tracer.span_records()
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in e2e.items()}

    if env["noisy"]:
        print(f"NOISY: load average {env['loadavg_start'][0]:.2f} -> "
              f"{env['loadavg_end'][0]:.2f} exceeds nproc={env['nproc']}", file=out)
    path = harness.write_result(f"{w.name}-seed{seed}-trace{trace}.json", doc)
    print(f"environment: commit {env['git_commit'][:12]}, python {env['python']}, "
          f"nproc {env['nproc']}, reference loop {1e3 * env['reference_s']:.2f} ms "
          f"(times are scaled to {1e3 * harness.REFERENCE_S:g} ms); "
          f"result file {path.relative_to(ROOT)}", file=out)
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    print(json.dumps(line), file=out, flush=True)
    return line, doc


def tracing_overhead(harness, w, env: dict, e2e: dict):
    """Traced minus untraced pipeline_s, against the latest untraced result."""
    candidates = sorted(harness.RESULTS.glob(f"{w.name}-seed*-trace0.json"),
                        key=lambda p: p.stat().st_mtime)
    for path in reversed(candidates):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["env"]["src_sha256"] == env["src_sha256"]:
            base = doc["end_to_end"]["pipeline_s"]["value"]
            diff = e2e["pipeline_s"]["value"] - base
            return {"seconds": diff, "share": diff / base, "untraced_result": path.name}
    return None


def run_all(args, harness) -> int:
    """Every workload in its own fresh process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in harness.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"workload {name} (trace {trace}) exited {proc.returncode}")
                return 1
            line = json.loads(lines[-1])
            merged["correct"] &= line["correct"]
            merged["attempted"] += line["attempted"]
            merged["failed"] += line["failed"]
            for metric, value in line["metrics"].items():
                merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--scaling", action="store_true", help="ungated scaling probe")
    mode.add_argument("--selftest", action="store_true", help="check the harness")
    mode.add_argument("--regen-goldens", action="store_true",
                      help="recompute bench/goldens.json from the current code")
    mode.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    harness, goldens = setup()
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    harness.pin_cpu()
    if args.scaling:
        import probes

        return probes.scaling(args.seed)
    if args.selftest:
        import probes

        return probes.selftest(
            lambda w, trace, gold, out: run_workload(harness, w, 1, 0.0, trace, gold, out)
        )
    if args.regen_goldens:
        import probes

        return probes.regen_goldens()
    if args.workload is None:
        return run_all(args, harness)
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(harness.WORKLOADS)}")
    w = harness.WORKLOADS[args.workload]
    run_workload(harness, w, args.seed, args.seconds, args.trace, goldens)
    return 0


if __name__ == "__main__":
    sys.exit(main())
