"""The benchmark uses package names from outside the package.

``bench/tracer.py`` replaces every (module, name) pair in its ``SPANS`` and
``LEAVES`` tables and reads ``StateSample.before``, and ``bench/harness.py``
and ``bench/probes.py`` call ``dsync.<name>`` and the report functions; a
rename that breaks them fails here instead of crashing the benchmark run.
"""
from __future__ import annotations

import importlib
import importlib.util
import re
import sys

import dsync
from dsync.simulate import SimConfig
from tests.conftest import ROOT, model_path


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _owner(owner):
    return importlib.import_module(owner) if isinstance(owner, str) else owner


def test_tracer_installs_counts_and_uninstalls():
    tracer_mod = load_tracer()
    wrapped = [(_owner(owner), attr) for owner, attr, _ in tracer_mod.SPANS + tracer_mod.LEAVES]
    originals = [getattr(owner, attr) for owner, attr in wrapped]

    tracer = tracer_mod.Tracer().install()
    try:
        assert all(getattr(o, a) is not f for (o, a), f in zip(wrapped, originals))
        net = dsync.load_model(model_path("blocking"))
        log = dsync.simulate(net, SimConfig(seed=1, max_cases=5))
        dsync.replay(log, net, check_guards=True)
        metrics = tracer.end_pass()
    finally:
        tracer.uninstall()

    assert all(getattr(o, a) is f for (o, a), f in zip(wrapped, originals))
    assert metrics["net.enabled_bindings_calls"] > 0
    assert metrics["net.fire_calls"] > 0
    assert metrics["replay.samples"] > 0
    assert metrics["constraints.holds_calls"] > 0


def test_traced_discovery_has_one_pt_log_span_per_candidate():
    # the tracer counts candidates and rows off the ``build_pt_log`` spans that
    # ``discover_run`` makes through ``dsync.extract``; the selftest compares
    # the traced row count with the untraced one
    tracer_mod = load_tracer()
    net = dsync.load_model(model_path("blocking"))
    log = dsync.simulate(net, SimConfig(seed=1, max_cases=50))
    untraced = dsync.discover_run(log, net)

    tracer = tracer_mod.Tracer().install()
    try:
        traced = dsync.discover_run(log, net)
        spans = [s for s in tracer.spans if s.name == "patterns.build_pt_log"]
        metrics = tracer.end_pass()
    finally:
        tracer.uninstall()

    rows = sum(len(r.ptlog.rows) for r in untraced.results)
    assert len(spans) == len(traced.results) == len(untraced.results) > 1
    assert metrics["patterns.candidates"] == len(untraced.results)
    assert metrics["patterns.rows"] == rows > 0
    assert metrics["net.has_enabled_binding_calls"] > 0
    assert metrics["constraints.eval_feature_calls"] > 0


def test_harness_and_probes_names_exist():
    import dsync.report

    for script in ("harness.py", "probes.py"):
        text = (ROOT / "bench" / script).read_text(encoding="utf-8")
        # ``import dsync.report as report_mod`` binds the module the harness reads
        names = set(re.findall(r"(?<!import )\bdsync\.([A-Za-z_]\w*)", text))
        assert names, script
        assert [n for n in sorted(names) if not hasattr(dsync, n)] == [], script
        report_names = set(re.findall(r"\breport_mod\.([A-Za-z_]\w*)", text))
        assert [n for n in sorted(report_names) if not hasattr(dsync.report, n)] == [], script
