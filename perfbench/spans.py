"""Span tracer for the karcher library, installed from outside it.

``Tracer.install`` replaces every public module-level function of each
karcher module, in every karcher module that holds a reference to it, by
a wrapper that records a span; the manifold methods in
``MANIFOLD_METHODS`` are wrapped on each class in ``MANIFOLD_CLASSES``,
and ``KarcherTriangulation.quad_data`` is wrapped as ``fem.quad_data``.
Nothing in the library is edited, and ``uninstall`` restores every name.

A span is (name, start, end, parent span, task id).  Spans are kept in
flat arrays, because one FEM pass records about a million of them; self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

MODULES = ("manifolds", "flat_simplex", "integrate", "jacobi", "barycentric",
           "harness", "fem")
MANIFOLD_CLASSES = ("Sphere", "HyperbolicSpace", "ChartManifold")
MANIFOLD_METHODS = ("log", "exp", "dist", "hess_half_dist_sq",
                    "second_deriv_X", "tangent_basis", "point")
_MISSING = object()


class Tracer:
    """Records spans and solver counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        """Drop recorded spans and counters; keep the installed wrappers."""
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task_id = array("i")
        self._stack: list[int] = []
        self.task = -1
        self.nfev = 0
        self.mean_iters: list[int] = []
        self.raised: Counter = Counter()

    # -- recording ------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name, layer: str, name_of=None):
        """Wrapper recording one span per call of ``fn``.  ``name_of``
        maps the call's arguments to a span name when one function is
        split into several spans."""
        tracer = self
        nid = self._id(name)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = nid if name_of is None else tracer._id(name_of(args, kwargs))
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name_id.append(sid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.task_id.append(tracer.task)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.raised[layer] += 1
                raise
            finally:
                tracer.end[idx] = perf()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _count_nfev(self, fn):
        def solve_ode(*args, **kwargs):
            sol = fn(*args, **kwargs)
            self.nfev += int(sol.nfev)
            return sol
        return solve_ode

    def _count_mean_iters(self, fn):
        # Uses the public ``trace=`` argument: one entry per iterate, the
        # last of which passed the gradient test.
        def karcher_mean(chart, lam, trace=None):
            iterates = [] if trace is None else trace
            before = len(iterates)
            point = fn(chart, lam, trace=iterates)
            self.mean_iters.append(len(iterates) - before)
            return point
        return karcher_mean

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self):
        mods = {short: importlib.import_module(f"karcher.{short}")
                for short in MODULES}
        holders = [m for n, m in sorted(sys.modules.items())
                   if n == "karcher" or n.startswith("karcher.")]
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                inner = fn
                name_of = None
                if (short, attr) == ("integrate", "solve_ode"):
                    inner = self._count_nfev(fn)
                elif (short, attr) == ("barycentric", "karcher_mean"):
                    inner = self._count_mean_iters(fn)
                elif (short, attr) == ("fem", "assemble"):
                    def name_of(args, kwargs):
                        mode = kwargs.get("mode", args[2] if len(args) > 2 else "flat")
                        return f"fem.assemble.{mode}"
                wrapper = self._wrap(inner, f"{short}.{attr}", short, name_of)
                for holder in holders:
                    if holder.__dict__.get(attr) is fn:
                        self._patch(holder, attr, wrapper)
        for cls_name in MANIFOLD_CLASSES:
            cls = getattr(mods["manifolds"], cls_name)
            for meth in MANIFOLD_METHODS:
                self._patch(cls, meth, self._wrap(
                    getattr(cls, meth), f"manifolds.{cls_name}.{meth}",
                    "manifolds"))
        tri_cls = mods["fem"].KarcherTriangulation
        self._patch(tri_cls, "quad_data",
                    self._wrap(tri_cls.quad_data, "fem.quad_data", "fem"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.array(self.name_id, dtype=np.int64),
                "start": np.array(self.start), "end": np.array(self.end),
                "parent": np.array(self.parent, dtype=np.int64),
                "task": np.array(self.task_id, dtype=np.int64)}

    def summary(self) -> dict:
        """Per-name calls, self and inclusive seconds; time covered by
        top-level spans; and the counters."""
        a = self.arrays()
        n, k = len(a["start"]), len(self.names)
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=n)
        self_t = dur - child
        calls = np.bincount(a["name_id"], minlength=k)
        self_s = np.bincount(a["name_id"], weights=self_t, minlength=k)
        incl_s = np.bincount(a["name_id"], weights=dur, minlength=k)
        parent_name = np.full(n, -1)
        parent_name[nested] = a["name_id"][a["parent"][nested]]
        per_name = {name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                           "incl_s": float(incl_s[i])}
                    for i, name in enumerate(self.names)}
        return {
            "spans": n,
            "per_name": per_name,
            "top_level_s": float(dur[~nested].sum()),
            "nfev": self.nfev,
            "mean_iters": list(self.mean_iters),
            "raised": dict(self.raised),
            "quad_nodes": self._count_under("barycentric.differential",
                                            "fem.quad_data", a, parent_name),
        }

    def _count_under(self, child: str, parent: str, a, parent_name) -> int:
        if child not in self._ids or parent not in self._ids:
            return 0
        return int(np.sum((a["name_id"] == self._ids[child])
                          & (parent_name == self._ids[parent])))

    def task_stages(self, task: int, stages: dict[str, str]) -> dict[str, float]:
        """Inclusive seconds of the named spans within one task, minus the
        time of any ``fem.quad_data`` spans nested directly in them."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        in_task = a["task"] == task
        quad = self._ids.get("fem.quad_data", -2)
        out = {}
        for label, prefix in stages.items():
            ids = [i for name, i in self._ids.items()
                   if name == prefix or name.startswith(prefix + ".")]
            sel = in_task & np.isin(a["name_id"], ids)
            total = float(dur[sel].sum())
            if prefix != "fem.quad_data":
                jets = in_task & (a["name_id"] == quad) & np.isin(
                    a["parent"], np.flatnonzero(sel))
                total -= float(dur[jets].sum())
            out[label] = total
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())
