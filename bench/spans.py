"""Span tracing from outside the package, for the benchmark's traced run.

The benchmark edits nothing under src/.  It measures each layer by
replacing that module's public functions with wrappers that record a span
(name, start, end, parent) per call.  Several modules bind functions by
name (`from .lattice import extends_to_basis`), so a wrapper is installed
at every torquo module attribute that holds the original object, not only
at the defining module.  Spans live in flat arrays while the run lasts
and are written out when it ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable

# (span name, defining module, attribute path in that module)
TARGETS: list[tuple[str, str, str]] = [
    ("lattice.extends_to_basis", "torquo.lattice", "extends_to_basis"),
    ("lattice.smith_normal_form", "torquo.lattice", "smith_normal_form"),
    ("lattice.hermite_rows", "torquo.lattice", "hermite_rows"),
    ("lattice.complete_to_basis", "torquo.lattice", "complete_to_basis"),
    ("lattice.lattice_member", "torquo.lattice", "lattice_member"),
    ("lattice.subtorus_contains", "torquo.lattice", "subtorus_contains"),
    ("lattice.UnimodularMatrix.inverse", "torquo.lattice", "UnimodularMatrix.inverse"),
    ("lattice.IntMatrix.init", "torquo.lattice", "IntMatrix.__init__"),
    ("face_complex.FaceComplex.init", "torquo.face_complex", "FaceComplex.__init__"),
    ("face_complex.isomorphisms", "torquo.face_complex", "isomorphisms"),
    ("char_pair.first_violation", "torquo.char_pair", "CharacteristicPair.first_violation"),
    ("char_pair.isotropy_lattice", "torquo.char_pair", "CharacteristicPair.isotropy_lattice"),
    ("char_pair.points_equal", "torquo.char_pair", "CharacteristicPair.points_equal"),
    ("morphism.check_skeletal", "torquo.morphism", "check_skeletal"),
    ("morphism.check_compatibility", "torquo.morphism", "check_compatibility"),
    ("morphism.check_reps_coherence", "torquo.morphism", "check_reps_coherence"),
    ("morphism.straight_line_homotopy_apply", "torquo.morphism", "straight_line_homotopy_apply"),
    ("classify.invariant_signature", "torquo.classify", "invariant_signature"),
    ("classify.verify_witness", "torquo.classify", "verify_witness"),
    ("classify.equivalent", "torquo.classify", "equivalent"),
    ("classify.weak_classes", "torquo.classify", "weak_classes"),
    ("classify.enumerate_characteristic", "torquo.classify", "enumerate_characteristic"),
    ("problemfile.parse_problem", "torquo.problemfile", "parse_problem"),
    ("cli.run", "torquo.cli", "run"),
]

# tallies taken from a call's arguments and result, for the
# useful-to-attempted ratios
OUTCOMES: dict[str, Callable[[tuple, Any], int]] = {
    "lattice.extends_to_basis": lambda args, result: int(result is True),
    "morphism.check_compatibility": lambda args, result: int(result is not None),
    "face_complex.isomorphisms": lambda args, result: len(result),
    "classify.equivalent": lambda args, result: int(result is not None),
    "classify.weak_classes": lambda args, result: len(args[1]),
    "classify.enumerate_characteristic": lambda args, result: len(result),
}

# (counted span, enclosing span): calls of the first made inside the second
NESTED = [
    ("classify.equivalent", "classify.weak_classes"),
    ("lattice.extends_to_basis", "classify.enumerate_characteristic"),
]


class Tracer:
    """Records spans in memory; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.tallies: Counter[str] = Counter()
        # inclusive time of the outermost span of each name, and open spans per name
        self.totals: list[float] = []
        self._open: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.totals.append(0.0)
            self._open.append(0)
        return self._ids[name]

    def span(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call fn inside a span opened by the benchmark itself (a request)."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        nid = self._intern(name)
        outcome = OUTCOMES.get(name)
        stack, name_ids, parents = self._stack, self.name_ids, self.parents
        starts, ends, tallies = self.starts, self.ends, self.tallies
        totals, open_ = self.totals, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            open_[nid] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                # drain a generator inside the span so the span covers its work
                drained = inspect.isgenerator(result)
                if drained:
                    result = list(result)
            finally:
                end = ends[idx] = clock()
                stack.pop()
                open_[nid] -= 1
                if not open_[nid]:
                    totals[nid] += end - starts[idx]
            if outcome is not None:
                tallies[name] += outcome(args, result)
            return iter(result) if drained else result

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every torquo module attribute bound to it."""
        for _, module_name, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for k, m in list(sys.modules.items()) if k == "torquo" or k.startswith("torquo.")]
        for name, module_name, path in TARGETS:
            owner: object = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Per-name calls, self and inclusive time, outcome and nesting tallies.

        Self time is a span's duration minus the durations of its direct
        children; spans nest because the traced code is single-threaded.
        """
        count = len(self.starts)
        child = [0.0] * count
        starts, ends, parents, name_ids = self.starts, self.ends, self.parents, self.name_ids
        for i in range(count):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        for i in range(count):
            name = self.names[name_ids[i]]
            calls[name] += 1
            self_s[name] += ends[i] - starts[i] - child[i]
        tallies = Counter(self.tallies)
        for inner, outer in NESTED:
            if inner not in self._ids or outer not in self._ids:
                continue
            inner_id, outer_id = self._ids[inner], self._ids[outer]
            for i in range(count):
                if name_ids[i] != inner_id:
                    continue
                p = parents[i]
                while p >= 0 and name_ids[p] != outer_id:
                    p = parents[p]
                if p >= 0:
                    tallies[f"{inner}@{outer}"] += 1
        total_s = {name: self.totals[nid] for name, nid in self._ids.items()}
        return {"calls": dict(calls), "self_s": dict(self_s), "total_s": total_s, "tallies": dict(tallies)}

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header with the name table, then raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            header = {
                "names": self.names,
                "spans": len(self.starts),
                "arrays": ["name_id:int64", "parent:int64", "start:float64", "end:float64"],
            }
            handle.write((json.dumps(header) + "\n").encode())
            for column in (self.name_ids, self.parents, self.starts, self.ends):
                column.tofile(handle)


def merge(summaries: list[dict[str, Any]]) -> dict[str, Any]:
    """Sum summaries taken in separate processes."""
    merged: dict[str, Counter[str]] = {key: Counter() for key in ("calls", "self_s", "total_s", "tallies")}
    for summary in summaries:
        for key in merged:
            merged[key].update(summary[key])
    return {key: dict(value) for key, value in merged.items()}
