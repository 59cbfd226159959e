"""The traced benchmark wraps package names from outside the package.

``bench/tracer.py`` replaces every (module, name) pair in its ``SPANS`` and
``LEAVES`` tables and reads ``StateSample.before``; a rename that breaks it
fails here instead of crashing the traced benchmark run.
"""
from __future__ import annotations

import importlib
import importlib.util
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
