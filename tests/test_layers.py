"""The benchmark's layer map must name live catpairs functions.

``perfbench/run.py --trace 1`` rebinds every function that
``perfbench/layers.json`` lists, so a refactor that moves or merges one
should fail here first.  A traced run also fails when a layer it predicts
for a workload makes no call, so a short traced run of each workload
pins that prediction too.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).parent.parent / "perfbench"
LAYERS = PERFBENCH / "layers.json"


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


@pytest.mark.parametrize(
    "workload", json.loads(LAYERS.read_text(encoding="utf-8"))["hit"]
)
def test_traced_run_hits_every_predicted_layer(workload):
    run = subprocess.run(
        [
            sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "0.3", "--trace", "1",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True
