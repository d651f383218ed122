"""Span tracer that wraps the public functions of bmquiver's modules.

Each public function of a layer module is replaced, in every bmquiver
module that holds a reference to it (``from .x import f`` makes a second
binding), by a wrapper that opens a span.  A span knows its parent through
the open-span stack; on close it adds its duration to its own totals and to
the parent's child time, so a layer's self time is its span time minus the
time of its child spans.

Spans are aggregated as they close rather than stored one by one: an
exhaustive edge sweep opens millions of them, and keeping each would cost
hundreds of megabytes.  What is kept per function name is the call count,
total time, self time, the caller name of each call, and counts of the
work each call returned.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from multiprocessing import pool as mp_pool
from multiprocessing import util as mp_util
from time import perf_counter

LAYERS = ("simplex", "bm", "quotient", "quiverf", "wfib", "compare", "sweeps", "cli")

# Work counted from a function's return value, keyed by span name.
WORK_COUNTERS = {
    "simplex.enumerate_maps": ("simplex.maps_built", len),
    "bm.enumerate_edges": ("bm.edges_kept", len),
    "quiverf.pairing_set": ("quiverf.pairs", lambda result: result.raw_count),
    "quotient.quotient": ("quotient.elements", lambda result: len(result.elements)),
}

# The parent's wait on the worker pool; workers themselves are not traced.
FANOUT_SPAN = "sweeps.fanout_wait"


class Tracer:
    """Aggregated spans of one process."""

    def __init__(self) -> None:
        self.enabled = True
        self._stack: list[list] = []  # open spans: [name, child_time]
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.callers: Counter = Counter()  # (parent name or None, name) -> calls
        self.work: Counter = Counter()

    def wrap(self, name: str, fn):
        counter = WORK_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack
            parent = stack[-1] if stack else None
            span = [name, 0.0]
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - span[1]
                self.callers[(parent[0] if parent else None, name)] += 1
                if parent is not None:
                    parent[1] += elapsed
            if counter is not None:
                self.work[counter[0]] += counter[1](result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(
            t for name, t in self.self_s.items()
            if name.startswith(prefix) and name != FANOUT_SPAN
        )

    def calls_from(self, parent: str, name: str) -> int:
        return self.callers[(parent, name)]


def install(package: str = "bmquiver") -> Tracer:
    """Wrap every public function of every layer module; return the tracer.

    Returns after checking that no module still holds an unwrapped
    reference, so a call site that escapes the tracer fails loudly.
    """
    tracer = Tracer()
    modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    holders = list(modules.values()) + [importlib.import_module(package)]
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            wrapped = tracer.wrap(f"{layer}.{attr}", obj)
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is obj:
                        setattr(holder, name, wrapped)
    for holder in holders:
        for name, value in vars(holder).items():
            if (
                inspect.isfunction(value)
                and value.__module__.startswith(package + ".")
                and value.__module__.split(".")[-1] in LAYERS
                and not name.startswith("_")
                and not getattr(value, "__wrapped_by_tracer__", False)
            ):
                raise RuntimeError(f"{holder.__name__}.{name} escaped the tracer")

    # Forked pool workers inherit the wrappers; switch them off there.
    mp_util.register_after_fork(tracer, lambda t: setattr(t, "enabled", False))
    mp_pool.Pool.map = tracer.wrap(FANOUT_SPAN, mp_pool.Pool.map)
    return tracer
