"""Span tracing of ``ttkit`` from outside the package.

:class:`Tracer` wraps every public callable of the traced modules (each
module's ``__all__``, or its public functions when it has none) and the
constructors of their public classes.  A wrapped function is patched into
every ``ttkit`` module namespace that holds it, so calls between modules
nest; a constructor is patched on its class, so ``isinstance`` still works.
Each call records a span ``(name, start, end, parent, round)``; spans stay
in memory until the caller writes them out.  Counters computed from call
arguments (SVD flops, rounded bonds, densified elements, file bytes,
kernel intermediate sizes) are gathered at the same boundaries.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from functools import wraps
from math import prod

from checks import mpo_peak_elements

PACKAGE = "ttkit"
# The layers.  ``ttkit.network`` is left out: no subcommand or pipeline
# calls it, so no user-facing traffic reaches it.
TRACED_MODULES = ("cli", "io", "dense", "layers", "kernels", "tt", "optimize")


def _public_callables(module) -> list[tuple[str, object]]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [
            n for n, v in vars(module).items()
            if not n.startswith("_") and getattr(v, "__module__", None) == module.__name__
        ]
    out = []
    for name in names:
        obj = getattr(module, name)
        if isinstance(obj, type):
            if issubclass(obj, BaseException) or "__init__" not in vars(obj):
                continue
        elif not callable(obj):
            continue
        out.append((name, obj))
    return out


class Tracer:
    """Records nested spans and counters for calls into ``ttkit`` while patched in."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Parallel span columns; index = span id.
        self.name_id: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.round_id: list[int] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._round = -1
        self._plan: list[tuple[object, str, object, object]] | None = None
        self._patched = False

    # -- span recording -------------------------------------------------
    def _intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_idx: int) -> int:
        sid = len(self.start)
        self.name_id.append(name_idx)
        self.start.append(time.perf_counter_ns())
        self.end.append(-1)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.round_id.append(self._round)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def _count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def _record_counters(self, name: str, outer: str, args, result) -> None:
        if name == "tt.truncated_svd":
            m, n = args[0].shape
            self._count("tt.svd_flops", m * n * min(m, n))
        elif name == "tt.tt_round":
            self._count("tt.round_bonds_in", sum(args[0].bond_dims))
            self._count("tt.round_bonds_out", sum(result.bond_dims))
        elif name == "tt.tt_to_dense":
            self._count("tt.tt_to_dense.elements", prod(args[0].phys_dims))
        elif name == "kernels.apply_mpo_to_product":
            self._peak("kernels.peak_elements", mpo_peak_elements(c.shape for c in args[0].cores))
        elif name.startswith(("io.read_", "io.write_")) and not outer.startswith("io."):
            # Every io reader and writer takes the path first; count each
            # file once, at the outermost io call.
            key = "io.bytes_read" if name.startswith("io.read_") else "io.bytes_written"
            self._count(key, os.path.getsize(args[0]))

    def _wrap(self, name: str, func):
        name_idx = self._intern(name)
        tracer = self

        @wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack
            outer = tracer.names[tracer.name_id[stack[-1]]] if stack else ""
            sid = tracer._open(name_idx)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(sid)
            tracer._record_counters(name, outer, args, result)
            return result

        return traced

    # -- patching -------------------------------------------------------
    def _package_modules(self) -> list:
        return [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def _build_plan(self) -> list[tuple[object, str, object, object]]:
        # (target, attribute, original, wrapper) for every name to patch.
        plan = []
        namespaces = self._package_modules()
        for short in TRACED_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in _public_callables(module):
                name = f"{short}.{attr}"
                if isinstance(obj, type):
                    original = vars(obj)["__init__"]
                    plan.append((obj, "__init__", original, self._wrap(name, original)))
                    continue
                wrapper = self._wrap(name, obj)
                for ns in namespaces:
                    for key, value in vars(ns).items():
                        if value is obj:
                            plan.append((ns, key, obj, wrapper))
        return plan

    def patch(self) -> None:
        """Wrap every traced callable, in every package namespace that holds it."""
        if self._patched:
            raise RuntimeError("tracer is already patched in")
        if self._plan is None:
            self._plan = self._build_plan()
        for target, key, _, wrapper in self._plan:
            setattr(target, key, wrapper)
        self._patched = True

    def restore(self) -> None:
        """Put back every name :meth:`patch` replaced."""
        for target, key, original, _ in reversed(self._plan or ()):
            setattr(target, key, original)
        self._patched = False

    @contextmanager
    def round(self, round_id: int):
        """Patch in, open a root span ``bench.round`` for one round, and restore on exit."""
        self.patch()
        self._round = round_id
        root = self._open(self._intern("bench.round"))
        try:
            yield
        finally:
            self._close(root)
            self._round = -1
            self.restore()

    # -- analysis -------------------------------------------------------
    def self_times(self) -> list[int]:
        """Per span: duration minus the part of it that its child spans cover (ns)."""
        children: dict[int, list[int]] = {}
        for sid, par in enumerate(self.parent):
            if par >= 0:
                children.setdefault(par, []).append(sid)
        out = []
        for sid in range(len(self.start)):
            covered, reach = 0, self.start[sid]
            for cid in sorted(children.get(sid, ()), key=self.start.__getitem__):
                lo, hi = max(self.start[cid], reach), min(self.end[cid], self.end[sid])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(self.end[sid] - self.start[sid] - covered)
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """``{span name: {"calls": n, "self_ns": total}}`` over all recorded spans."""
        totals: dict[str, dict[str, float]] = {}
        for sid, self_ns in enumerate(self.self_times()):
            entry = totals.setdefault(self.names[self.name_id[sid]], {"calls": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["self_ns"] += self_ns
        return totals

    def rows(self):
        """Spans as ``(name, start_ns, end_ns, parent, round)`` tuples."""
        for sid in range(len(self.start)):
            yield (
                self.names[self.name_id[sid]], self.start[sid], self.end[sid],
                self.parent[sid], self.round_id[sid],
            )
