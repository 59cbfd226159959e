"""The package exports exactly the functions README's "Library entry points"
block names."""
from __future__ import annotations

import inspect
import re

import dsync
from tests.conftest import ROOT


def _entry_point_names() -> set[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library entry points", 1)[1]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    code = re.sub(r"#.*", "", block).replace("from dsync import", "")
    return set(re.findall(r"[A-Za-z_]\w*", code))


def test_readme_entry_points_are_the_exported_functions():
    names = _entry_point_names()
    functions = {n for n in dsync.__all__ if inspect.isfunction(getattr(dsync, n))}
    assert names <= set(dsync.__all__)
    assert functions <= names
    assert len(functions) == 9
