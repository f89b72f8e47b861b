"""The benchmark's layer map must name live catpairs functions.

``perfbench/run.py --trace 1`` rebinds every function that
``perfbench/layers.json`` lists, so a refactor that moves or merges one
should fail here first.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

LAYERS = Path(__file__).parent.parent / "perfbench" / "layers.json"


def resolve(path: str) -> object:
    module_name, *owners, attr = path.split(".")
    owner: object = importlib.import_module(f"catpairs.{module_name}")
    for name in [*owners, attr]:
        owner = getattr(owner, name)
    return owner


def test_every_traced_name_resolves_to_a_distinct_callable():
    groups = json.loads(LAYERS.read_text(encoding="utf-8"))["groups"]
    seen: dict[int, str] = {}
    for group, spec in groups.items():
        for path in spec["functions"]:
            fn = resolve(path)
            assert callable(fn), path
            # one object under two groups would be wrapped twice
            assert seen.setdefault(id(fn), group) == group, path
