"""Malformed model files end in an exit code, never in a traceback.

Each mutation sets one leaf of a bundled model's ``arrival_spec`` subtrees or
``flows`` to one value of a fixed list; ``simulate`` (20 cases) and then
``discover`` run on the result through the command line.
"""
from __future__ import annotations

import copy
import json

import pytest

from dsync.cli import main
from tests.conftest import MODELS

# json writes NaN and Infinity literals, which Python's json reads back
VALUES = (
    None, [], {}, -1, "x", True,
    {"kind": "uniform", "lo": 2.0, "hi": 1.0},  # inverted bounds
    float("nan"), float("inf"),
)


def _leaves(node, path: tuple):
    """Paths to the scalars and empty containers below ``node``."""
    if not isinstance(node, (dict, list)) or not node:
        yield path
        return
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield from _leaves(child, path + (key,))


def _mutated_leaves(doc: dict) -> list[tuple]:
    paths = []
    for i, t in enumerate(doc["transitions"]):
        if "arrival_spec" in t:
            paths += _leaves(t["arrival_spec"], ("transitions", i, "arrival_spec"))
    return paths + list(_leaves(doc["flows"], ("flows",)))


@pytest.mark.parametrize("model", ["priority", "supplychain"])
def test_every_mutated_model_exits_0_or_3(tmp_path, capsys, model):
    base = json.loads((MODELS / f"{model}.json").read_text())
    paths = _mutated_leaves(base)
    assert len(paths) > 20
    model_file, log_file = tmp_path / "model.json", tmp_path / "log.csv"
    bad = []
    for path in paths:
        for value in VALUES:
            doc = copy.deepcopy(base)
            node = doc
            for step in path[:-1]:
                node = node[step]
            node[path[-1]] = value
            if doc == base:  # an empty container set to itself
                continue
            model_file.write_text(json.dumps(doc))
            try:
                code = main(["simulate", "--model", str(model_file), "--seed", "1",
                             "--max-cases", "20", "--out", str(log_file)])
                if code == 0:
                    code = main(["discover", "--model", str(model_file), "--log", str(log_file)])
            except Exception as exc:  # noqa: BLE001 - any traceback is the failure
                code = repr(exc)
            if code not in (0, 3):
                bad.append((path, value, code))
    capsys.readouterr()
    assert bad == []
