"""Span tracing of multibayes from outside the library.

Each traced public function is rebound, in every loaded ``multibayes.*``
namespace that holds it, to a wrapper that records a span; classes get
their ``__init__`` wrapped instead, so ``isinstance`` keeps working.
Property runs are wrapped in the ``properties.PROPERTIES`` registry, one
span name per property group.  Spans stay in memory (name, start, end,
parent, query id) until the run ends; self time is computed from them.
"""

from __future__ import annotations

import dataclasses
import gzip
import importlib
import sys
import time
from array import array

_PACKAGE = "multibayes"


def _space_len(obj) -> int:
    return len(obj.space)


def _evidence_len(psi) -> int:
    return len(psi.space) if psi.factors else 0


# The traced layers, and the elements of one call from its positional
# arguments (the library passes these positionally): entries of the sample
# space of its main argument.
# Channel functions count the channel's domain; constructors are measured
# on the new instance (args[0] is self).
ELEMENTS = {
    "distribution.Dist": lambda args: len(args[0].space),
    "evidence.Factor": lambda args: len(args[0].space),
    "evidence.Evidence": lambda args: _evidence_len(args[0]),
    "distribution.convex_sum": lambda args: len(args[1][0].space) if args[1] else 0,
    "distribution.multinomial": lambda args: _space_len(args[1]),
    "evidence.and_conj": lambda args: _evidence_len(args[0]),
    "evidence.frac_conj": lambda args: _evidence_len(args[0]),
    "validity.validity": lambda args: _space_len(args[0]),
    "validity.jeffrey_validity": lambda args: _space_len(args[0]),
    "validity.pearl_validity": lambda args: _space_len(args[0]),
    "update.bayes_update": lambda args: _space_len(args[0]),
    "update.jeffrey_update": lambda args: _space_len(args[0]),
    "update.pearl_update": lambda args: _space_len(args[0]),
    "update.vfe_update": lambda args: _space_len(args[0]),
    "channel.push": lambda args: len(args[0].dom),
    "channel.pull": lambda args: len(args[0].dom),
    "channel.triple_pull": lambda args: len(args[0].dom),
    "channel.dagger": lambda args: len(args[0].dom),
    "divergence.kl_divergence": lambda args: _space_len(args[0]),
    "multiset.multiset_space": lambda args: len(args[0]),
    "models.grid_cell": lambda args: _space_len(args[0].prior),
    "core.format_decimal12": lambda args: 1,
}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    OP = "op"

    def __init__(self):
        self.layers = list(ELEMENTS)
        self.names: list[str] = [self.OP]
        self._name_ids = {self.OP: 0}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.query = array("i")
        self.calls: dict[str, int] = {}
        self.elements: dict[str, int] = {}
        self.trials: dict[str, int] = {}
        self._stack: list[int] = []
        self._query = -1
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.query.append(self._query)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def run_op(self, query: int, fn, *args):
        """Call ``fn(*args)`` under a root span tagged with the query id."""
        self._query = query
        index = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def _wrap(self, name: str, func, count_elements):
        name_id = self._intern(name)
        calls, elements = self.calls, self.elements
        calls.setdefault(name, 0)
        elements.setdefault(name, 0)

        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(index)
                calls[name] += 1
            # a call that raised has no well-formed main argument to count
            elements[name] += count_elements(args)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name in self.layers:
            importlib.import_module(f"{_PACKAGE}.{name.split('.')[0]}")
        namespaces = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == _PACKAGE or key.startswith(_PACKAGE + "."))
        ]
        for name in self.layers:
            module_name, attr = name.split(".")
            original = getattr(sys.modules[f"{_PACKAGE}.{module_name}"], attr)
            if isinstance(original, type):
                init = original.__init__
                self._undo.append((original, "__init__", init))
                count = ELEMENTS[name]
                setattr(original, "__init__", self._wrap(name, init, count))
                continue
            wrapper = self._wrap(name, original, ELEMENTS[name])
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        properties = sys.modules.get(f"{_PACKAGE}.properties")
        if properties is not None:
            registry = properties.PROPERTIES
            for prop_id, prop in list(registry.items()):
                self._undo.append((registry, prop_id, prop))
                registry[prop_id] = dataclasses.replace(prop, run=self._wrap_property(prop))

    def _wrap_property(self, prop):
        name = f"properties.{prop.group}"
        name_id = self._intern(name)
        self.trials.setdefault(name, 0)
        run = prop.run

        def traced(trials, rng):
            index = self._open(name_id)
            try:
                result = run(trials, rng)
            finally:
                self._close(index)
            self.trials[name] += result[1]
            return result

        return traced

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    # -- results ---------------------------------------------------------

    def self_ns(self) -> dict[str, int]:
        """Self time per span name: duration minus the time of child spans."""
        count = len(self.start)
        child = [0] * count
        durations = [self.end[i] - self.start[i] for i in range(count)]
        for i in range(count):
            parent = self.parent[i]
            if parent >= 0:
                child[parent] += durations[i]
        totals = dict.fromkeys(self.names, 0)
        names = self.names
        for i in range(count):
            totals[names[self.name_id[i]]] += durations[i] - child[i]
        return totals

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer ``calls``, ``self_s`` and ``ns_per_elem``; per-group
        ``self_s`` and ``trials`` for property runs."""
        self_ns = self.self_ns()
        metrics: dict[str, tuple[float, str]] = {}
        for name in self.layers:
            own = self_ns.get(name, 0)
            elements = self.elements.get(name, 0)
            metrics[f"{name}.calls"] = (self.calls.get(name, 0), "count")
            metrics[f"{name}.self_s"] = (own / 1e9, "s")
            metrics[f"{name}.ns_per_elem"] = (own / elements if elements else 0.0, "ns")
        for name in sorted(self.trials):
            metrics[f"{name}.self_s"] = (self_ns.get(name, 0) / 1e9, "s")
            metrics[f"{name}.trials"] = (self.trials[name], "count")
        return metrics

    def write(self, path) -> int:
        """Write every span as gzip TSV: name, start_ns, end_ns, parent, query."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("index\tname\tstart_ns\tend_ns\tparent\tquery\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{names[self.name_id[i]]}\t{self.start[i]}\t{self.end[i]}"
                    f"\t{self.parent[i]}\t{self.query[i]}\n"
                )
        return len(self.start)
