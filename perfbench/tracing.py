"""Spans around the public functions of each ``catpairs`` module.

``instrument`` wraps every function that ``layers.json`` names and
rebinds each name that refers to it: module globals in every
``catpairs.*`` module, class attributes, and the fields of the family
registry.  Because the package calls across modules through those
names, every call is recorded, recursive ones included.  Spans (name,
parent, start, end) stay in flat arrays until the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from array import array
from pathlib import Path
from types import ModuleType
from typing import Callable

# How a group counts the units of work a call handles.
UNITS: dict[str, Callable[[tuple, object], int]] = {
    "result_len": lambda args, result: len(result),
    "first_arg_len": lambda args, result: len(args[0]),
}


class TraceSetupError(RuntimeError):
    """A name the layer map expects is missing, or a predicted layer ran no call."""


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.units: list[int] = []
        self.ids = array("q")  # per span: name id, parent span (-1 for none)
        self.times = array("d")  # per span: start, end
        self.stack = [-1]

    def wrap(self, name: str, fn: Callable, unit: str | None = None) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        self.units.append(0)
        ids, times, stack, units = self.ids, self.times, self.stack, self.units
        clock = time.perf_counter
        measure = UNITS[unit] if unit else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(times) >> 1
            ids.append(nid)
            ids.append(stack[-1])
            times.append(clock())
            times.append(0.0)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                times[2 * index + 1] = clock()
            if measure is not None:
                units[nid] += measure(args, result)
            return result

        return traced

    def _inside(self) -> bytearray:
        """1 for spans under an ``op`` span; the others come from the
        output checks and are left out."""
        ids, names = self.ids, self.names
        inside = bytearray(len(self.times) >> 1)
        for k in range(len(inside)):
            parent = ids[2 * k + 1]
            if names[ids[2 * k]] == "op" or (parent >= 0 and inside[parent]):
                inside[k] = 1
        return inside

    def aggregate(self, groups: dict[str, str]) -> dict[str, dict[str, float]]:
        """Per group: calls, self seconds, units of work, and the calls
        that contain a ``structures.enumerate`` call (table builds) with
        their seconds."""
        ids, times, names = self.ids, self.times, self.names
        inside = self._inside()
        child_s = array("d", bytes(8 * len(inside)))
        builds = bytearray(len(inside))
        for k in range(len(inside)):
            parent = ids[2 * k + 1]
            if inside[k] and parent >= 0:
                child_s[parent] += times[2 * k + 1] - times[2 * k]
                if groups.get(names[ids[2 * k]]) == "structures.enumerate":
                    builds[parent] = 1
        stats = {
            group: {"calls": 0, "self_s": 0.0, "units": 0, "builds": 0, "build_s": 0.0}
            for group in groups.values()
        }
        for nid, name in enumerate(names):
            if name in groups:
                stats[groups[name]]["units"] += self.units[nid]
        for k in range(len(inside)):
            group = groups.get(names[ids[2 * k]])
            if not inside[k] or group is None:
                continue
            entry = stats[group]
            duration = times[2 * k + 1] - times[2 * k]
            entry["calls"] += 1
            entry["self_s"] += duration - child_s[k]
            if builds[k]:
                entry["builds"] += 1
                entry["build_s"] += duration
        return stats

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            f.write("span\tparent\tname\tstart_s\tend_s\n")
            ids, times, names = self.ids, self.times, self.names
            for k, inside in enumerate(self._inside()):
                if inside:
                    f.write(
                        f"{k}\t{ids[2 * k + 1]}\t{names[ids[2 * k]]}"
                        f"\t{times[2 * k]:.9f}\t{times[2 * k + 1]:.9f}\n"
                    )


def _resolve(path: str) -> tuple[object, str, object]:
    """``module.name`` or ``module.Class.name`` -> (owner, name, function)."""
    module_name, *owners, attr = path.split(".")
    owner: object = importlib.import_module(f"catpairs.{module_name}")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            raise TraceSetupError(f"catpairs.{module_name} has no {name}")
    fn = getattr(owner, attr, None)
    if not callable(fn):
        raise TraceSetupError(f"{path} is not a function of catpairs")
    return owner, attr, fn


def _registries(modules: list[ModuleType]) -> list[dict]:
    """Module-level dicts of dataclass records, such as the family registry."""
    return [
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, dict)
        and value
        and all(dataclasses.is_dataclass(v) and not isinstance(v, type) for v in value.values())
    ]


def instrument(tracer: Tracer, layers: dict) -> dict[str, str]:
    """Wrap every function of every group; return span name -> group."""
    modules = [m for name, m in sys.modules.items() if name == "catpairs" or name.startswith("catpairs.")]
    registries = _registries(modules)
    groups: dict[str, str] = {}
    for group, spec in layers["groups"].items():
        for path in spec["functions"]:
            owner, attr, fn = _resolve(path)
            traced = tracer.wrap(path, fn, spec.get("units"))
            groups[path] = group
            if isinstance(owner, type):
                setattr(owner, attr, traced)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, name, traced)
            for registry in registries:
                for key, record in registry.items():
                    fields = {
                        f.name: traced
                        for f in dataclasses.fields(record)
                        if getattr(record, f.name) is fn
                    }
                    if fields:
                        registry[key] = dataclasses.replace(record, **fields)
    return groups


def check_hits(stats: dict[str, dict[str, float]], expected: list[str], workload: str) -> None:
    missed = [group for group in expected if not stats.get(group, {}).get("calls")]
    if missed:
        raise TraceSetupError(
            f"{workload}: predicted layers ran no call: {', '.join(missed)}"
        )
