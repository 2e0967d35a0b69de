"""Spans around ncentropy's functions, installed from outside the package.

``Tracer.install`` replaces every binding of each traced function: the
defining module's attribute, every name other modules imported with
``from ... import`` (such as ``pullback`` inside ``entropy``), the
package namespace and the suite table in ``harness``.  Dataclass
construction is traced through ``__post_init__`` and every eigenproblem
through ``numpy.linalg.eigvalsh``/``eigh``, whoever calls them.

Spans are kept in memory (compact arrays) and written out by ``dump``
when the run ends.  A span's self time is its duration minus the time
covered by its child spans.  Nothing is recorded outside an operation.
"""

from __future__ import annotations

import functools
import inspect
import json
import types
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("linalg", "algebra", "state", "morphism", "entropy", "disintegration", "harness", "cli")

# Layer metrics: group name -> traced function names.  Self times and
# call counts of the members are summed per group.
GROUPS = {
    "linalg.eig": ("numpy.linalg.eigvalsh", "numpy.linalg.eigh"),
    "linalg.sample": ("linalg.sample_unitary", "linalg.sample_density", "linalg.sample_simplex"),
    "state.State": ("state.State.__post_init__",),
    "state.support": ("state.support",),
    "morphism.Morphism": ("morphism.Morphism.__post_init__",),
    "morphism.pullback": ("morphism.pullback",),
    "morphism.apply": ("morphism.apply",),
    "morphism.compose": ("morphism.compose",),
    "entropy.segal": ("entropy.segal",),
    "entropy.von_neumann": ("entropy.von_neumann",),
    "disintegration.quantum_disintegrate": ("disintegration.quantum_disintegrate",),
    "disintegration.disintegration_entropy": ("disintegration.disintegration_entropy",),
    "harness.generate": ("harness.generate_instance",),  # private samplers are added in install
    "cli.parser": ("cli.build_parser",),
    "cli.decode": (
        "cli._load_json",
        "cli.json.loads",
        "state.state_from_json",
        "morphism.morphism_from_json",
        "linalg.matrix_from_json",
    ),
    "cli.encode": (
        "state.state_to_json",
        "algebra.element_to_json",
        "linalg.matrix_to_json",
        "cli.json.dumps",
    ),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_s: dict[int, float] = defaultdict(float)
        self.calls: dict[int, int] = defaultdict(int)
        # one record per span: name id, operation index, parent span (-1 for the op), start, end
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self._stack: list[list] = []  # [span index, child seconds]
        self.op = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        ident = self._id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            index = len(self.span_t0)
            self.span_name.append(ident)
            self.span_op.append(self.op)
            self.span_parent.append(stack[-1][0])
            self.span_t0.append(0.0)
            self.span_t1.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                self.span_t0[index] = t0
                self.span_t1[index] = t1
                self.self_s[ident] += duration - frame[1]
                self.calls[ident] += 1
                stack[-1][1] += duration

        return traced

    def begin_op(self, index: int):
        self.op = index
        self._stack.append([-1, 0.0])

    def end_op(self):
        self._stack.clear()

    def install(self, package, suites) -> None:
        """Wrap the public functions of every module, plus the named private ones.

        ``suites`` names the suites whose self time is reported per trial.
        """
        modules = [getattr(package, m) for m in MODULES]
        harness, cli, state, morphism = package.harness, package.cli, package.state, package.morphism
        originals: dict[int, tuple[str, object]] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, value in list(vars(mod).items()):
                if not inspect.isfunction(value) or value.__module__ != mod.__name__:
                    continue
                private_ok = (mod is cli and attr == "_load_json") or (
                    mod is harness and (attr.startswith("_suite_") or attr.startswith("_sample_"))
                )
                if attr.startswith("_") and not private_ok:
                    continue
                originals[id(value)] = (f"{short}.{attr}", value)
        wrappers = {key: self.wrap(name, fn) for key, (name, fn) in originals.items()}
        for ns in [*modules, package]:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers and value is originals[id(value)][1]:
                    setattr(ns, attr, wrappers[id(value)])
        for suite, fn in list(harness.SUITES.items()):
            harness.SUITES[suite] = wrappers.get(id(fn), fn)
        for cls, name in ((state.State, "state.State"), (morphism.Morphism, "morphism.Morphism")):
            cls.__post_init__ = self.wrap(f"{name}.__post_init__", cls.__post_init__)
        for attr in ("eigvalsh", "eigh"):
            setattr(np.linalg, attr, self.wrap(f"numpy.linalg.{attr}", getattr(np.linalg, attr)))
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(cli.json))
        proxy.loads = self.wrap("cli.json.loads", cli.json.loads)
        proxy.dumps = self.wrap("cli.json.dumps", cli.json.dumps)
        cli.json = proxy
        samplers = tuple(n for n in self.names if n.startswith("harness._sample_"))
        self.groups = dict(GROUPS, **{"harness.generate": GROUPS["harness.generate"] + samplers})
        self.suite_ids = {
            suite: self._ids[f"harness._suite_{suite.replace('-', '_')}"] for suite in suites
        }

    def group_totals(self, group: str) -> tuple[float, int]:
        seconds, calls = 0.0, 0
        for name in self.groups[group]:
            ident = self._ids.get(name)
            if ident is not None:
                seconds += self.self_s[ident]
                calls += self.calls[ident]
        return seconds, calls

    def dump(self, path, summary: dict) -> None:
        """Write every span plus the per-function totals to ``path`` (numpy .npz)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            t0=np.frombuffer(self.span_t0, dtype=np.float64),
            t1=np.frombuffer(self.span_t1, dtype=np.float64),
            self_s=np.array([self.self_s[i] for i in range(len(self.names))]),
            calls=np.array([self.calls[i] for i in range(len(self.names))], dtype=np.int64),
            summary=np.array(json.dumps(summary)),
        )
