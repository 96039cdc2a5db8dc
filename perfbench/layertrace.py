"""Outside-in per-layer host-time tracing for the repository benchmark.

:class:`LayerTracer` wraps each simulator layer's public entry point at
class level, from the benchmark's own files, for the duration of a
``with`` block.  Nothing inside ``repro`` changes: every cell simply runs
against classes whose entry points are timed.

- A plain entry point (``Simulator.process``, ``Resource.request``,
  ``DataServer.handle`` ...) is timed around the call.
- A generator entry point (``Network.transfer``, ``PfsClient.io`` ...)
  returns a :class:`_TimedGen` proxy.  The proxy times every
  ``send``/``throw`` into the real generator and keeps ``yield from``
  semantics, so it works whether the outer code delegates to it or the
  kernel drives it as a process body.  The C dispatch pump resumes a
  process through ``Process._send`` (the proxy's bound ``send``), so the
  proxy sees every resume under the accelerator too.

Calls nest on the host stack, so a layer's *self* time is its wrapped
time minus the wrapped calls nested inside it.  Host time spent in no
wrapped call (kernel dispatch, rank bodies, processes that layers start
internally) is reported by :meth:`LayerTracer.metrics` as
``other.self_s``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter
from typing import Any, Callable

#: (layer, module, class, methods): the public entry point of each layer.
CLASS_ENTRY_POINTS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("sim.process", "repro.sim.core", "Simulator", ("process",)),
    ("sim.resource", "repro.sim.resources", "Resource", ("request",)),
    ("sim.resource", "repro.sim.resources", "PriorityResource", ("request",)),
    ("mpiio", "repro.mpiio.engine", "IndependentEngine", ("do_io",)),
    ("mpiio", "repro.mpiio.prefetch", "PreexecPrefetchEngine", ("do_io",)),
    ("mpiio.collective", "repro.mpiio.collective", "CollectiveEngine", ("do_io",)),
    ("core", "repro.core.engine", "DualParEngine", ("do_io",)),
    ("core.crm", "repro.core.crm", "Crm", ("run_cycle",)),
    ("cache", "repro.cache.memcache", "GlobalCache", ("get", "put", "multiget", "multiput")),
    ("pfs.client", "repro.pfs.client", "PfsClient", ("io",)),
    ("pfs.server", "repro.pfs.dataserver", "DataServer", ("handle", "handle_list")),
    ("net", "repro.net.ethernet", "Network", ("transfer",)),
    ("iosched", "repro.iosched.blocklayer", "BlockLayer", ("submit",)),
    ("disk", "repro.disk.drive", "DiskDrive", ("service",)),
    ("disk", "repro.disk.raid", "RaidArray", ("service",)),
)

class _TimedGen:
    """Generator proxy: times each resume of the wrapped generator."""

    __slots__ = ("_gen", "_layer", "_tracer")

    def __init__(self, tracer: "LayerTracer", layer: str, gen: Any) -> None:
        self._tracer = tracer
        self._layer = layer
        self._gen = gen

    def send(self, value: Any) -> Any:
        return self._tracer.timed(self._layer, self._gen.send, value)

    def throw(self, *args: Any) -> Any:
        return self._tracer.timed(self._layer, self._gen.throw, *args)

    def close(self) -> None:
        self._gen.close()

    def __iter__(self) -> "_TimedGen":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    @property
    def __name__(self) -> str:  # Process names itself after its body
        return self._gen.__name__


class LayerTracer:
    """Per-layer call counts and host time, gathered while installed."""

    def __init__(self) -> None:
        layers = dict.fromkeys(layer for layer, *_ in CLASS_ENTRY_POINTS)
        self.calls = dict.fromkeys(layers, 0)
        # "cluster" (build_cluster) has self time but no call count.
        self.self_s = dict.fromkeys([*layers, "cluster"], 0.0)
        #: Host seconds in build_cluster, nested wrapped calls included.
        self.build_s = 0.0
        # One entry per active wrapped call: host time of its wrapped children.
        self._stack: list[float] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- timing ----------------------------------------------------------

    def timed(self, layer: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        stack = self._stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self.self_s[layer] += dt - stack.pop()
            if stack:
                stack[-1] += dt

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        calls = self.calls
        timed = self.timed
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args: Any, **kwargs: Any) -> _TimedGen:
                calls[layer] += 1
                return _TimedGen(self, layer, fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[layer] += 1
            return timed(layer, fn, *args, **kwargs)

        return wrapper

    # -- install / uninstall ---------------------------------------------

    def __enter__(self) -> "LayerTracer":
        if self._undo:
            raise RuntimeError("LayerTracer is already installed")
        try:
            for layer, module, cls_name, methods in CLASS_ENTRY_POINTS:
                cls = getattr(importlib.import_module(module), cls_name)
                for name in methods:
                    original = cls.__dict__[name]
                    setattr(cls, name, self._wrap(layer, original))
                    self._undo.append((cls, name, original))
            # build_cluster is patched where run_experiment looks it up.
            experiment = importlib.import_module("repro.runner.experiment")
            build = experiment.build_cluster

            @functools.wraps(build)
            def build_cluster(*args: Any, **kwargs: Any) -> Any:
                t0 = perf_counter()
                try:
                    return self.timed("cluster", build, *args, **kwargs)
                finally:
                    self.build_s += perf_counter() - t0

            experiment.build_cluster = build_cluster
            self._undo.append((experiment, "build_cluster", build))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- report ----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics for a traced run that took ``wall_s`` host
        seconds in total."""
        out: dict[str, float] = {}
        for layer, calls in self.calls.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self.self_s[layer]
        out["cluster.build_s"] = self.build_s
        out["other.self_s"] = wall_s - sum(self.self_s.values())
        return out
