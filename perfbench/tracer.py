"""In-memory span tracer that wraps the program's public entry points.

The tracer never edits ``src/``: it replaces attributes on the program's
classes and modules with wrappers, from the benchmark's own files.  Three
kinds of wrapper exist:

* **span** — one span per call (name, start, end, parent span);
* **generator span** — for generator functions (check-family ``run``):
  one span per *resumption*, so time the generator spends suspended in
  the event kernel is not charged to it;
* **count** — a call counter only, for entry points called millions of
  times (``OarServer.node_state``) where a span per call would distort the
  run and fill memory.

Spans live in flat arrays until :meth:`Tracer.write` stores them.  A
layer's self time is the sum of its spans' durations minus the part of
each span covered by its direct child spans.  A call that re-enters a
span of the same name (a strategy's ``on_tick`` calling ``super()``) is
folded into the outer span, so call counts stay one per logical call.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from array import array
from collections import Counter
from typing import Any, Callable

_clock = time.perf_counter


class Tracer:
    """Spans and counters for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: set = set()

    # -- span bookkeeping ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, nid: int, stack: list) -> int:
        with self._lock:
            idx = len(self.starts)
            self.name_ids.append(nid)
            self.parents.append(stack[-1] if stack else -1)
            self.ends.append(0.0)
            self.starts.append(_clock())
        stack.append(idx)
        return idx

    def _close(self, idx: int, stack: list) -> None:
        self.ends[idx] = _clock()
        stack.pop()

    # -- wrappers --------------------------------------------------------------

    def span(self, fn: Callable, name: str) -> Callable:
        nid = self._name_id(name)
        counts = self.counts
        name_ids = self.name_ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack and name_ids[stack[-1]] == nid:
                return fn(*args, **kwargs)  # super() chain: one logical call
            counts[name] += 1
            idx = self._open(nid, stack)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, stack)

        return wrapper

    def generator_span(self, fn: Callable, name: str) -> Callable:
        nid = self._name_id(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return self._drive(fn(*args, **kwargs), nid)

        return wrapper

    def _drive(self, gen, nid: int):
        """Re-yield ``gen``'s targets, timing each resumption as a span."""
        value: Any = None
        error: Any = None
        while True:
            stack = self._stack()
            idx = self._open(nid, stack)
            try:
                if error is not None:
                    exc, error = error, None
                    target = gen.throw(exc)
                else:
                    target = gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                self._close(idx, stack)
            try:
                value = yield target
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into the inner generator
                value, error = None, exc

    def counter(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def patch_method(self, cls: type, attr: str, name: str,
                     kind: str = "span") -> None:
        """Wrap ``cls.attr`` once, if ``cls`` itself defines it."""
        if attr not in cls.__dict__ or (cls, attr) in self._patched:
            return
        self._patched.add((cls, attr))
        make = {"span": self.span, "gen": self.generator_span,
                "count": self.counter}[kind]
        setattr(cls, attr, make(cls.__dict__[attr], name))

    def patch_function(self, module, attr: str, name: str) -> None:
        """Wrap a module-level function everywhere it was imported by name."""
        original = getattr(module, attr)
        wrapped = self.span(original, name)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") \
                    and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its direct children."""
        starts, ends, parents = self.starts, self.ends, self.parents
        child = [0.0] * len(starts)
        for i in range(len(starts)):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: 0.0 for name in self.names}
        names, name_ids = self.names, self.name_ids
        for i in range(len(starts)):
            out[names[name_ids[i]]] += ends[i] - starts[i] - child[i]
        return out

    def write(self, path: str) -> None:
        """Store every span: a JSON header line, then one span per line
        as ``name_id start end parent``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "counts": dict(self.counts),
                                 "spans": len(self.starts)},
                                sort_keys=True) + "\n")
            for i in range(len(self.starts)):
                fh.write(f"{self.name_ids[i]} {self.starts[i]!r} "
                         f"{self.ends[i]!r} {self.parents[i]}\n")


def install(tracer: Tracer) -> Tracer:
    """Wrap every entry point the per-layer metrics are measured at."""
    from repro.checksuite.base import CheckFamily
    from repro.ci.server import JenkinsServer
    from repro.core.bugtracker import BugTracker
    from repro.core.builder import FrameworkBuilder
    from repro.core.store import CampaignStore
    from repro.faults.injector import FaultInjector
    from repro.kadeploy.deployment import Kadeploy
    from repro.oar import request as oar_request
    from repro.oar.gantt import Gantt
    from repro.oar.server import OarServer
    from repro.scheduling.elastic import CommonPoolStrategy
    from repro.scheduling.policies import get_strategy, strategy_names
    from repro.service.policy import ExternalProtocolStrategy
    from repro.service.session import Session
    from repro.testbed import generator
    from repro.util.events import Simulator

    run = tracer.span(Simulator.run, "events.run")
    counts = tracer.counts

    @functools.wraps(Simulator.run)
    def counted_run(sim, *args, **kwargs):
        seq = sim._seq
        try:
            return run(sim, *args, **kwargs)
        finally:
            counts["events.scheduled"] += sim._seq - seq

    Simulator.run = counted_run

    for attr, name in (("submit", "oar.submit"),
                       ("replan_now", "oar.replan_now"),
                       ("running_jobs", "oar.running_jobs"),
                       ("grow_candidates", "oar.grow_candidates"),
                       ("grow", "oar.grow"),
                       ("shrink", "oar.shrink")):
        tracer.patch_method(OarServer, attr, name)
    tracer.patch_method(OarServer, "node_state", "oar.node_state", "count")
    for attr in ("profile_earliest", "reserve", "release", "truncate"):
        tracer.patch_method(Gantt, attr, f"oar.{attr}")
    tracer.patch_function(oar_request, "parse_request", "oar.parse_request")

    strategies = {get_strategy(n) for n in strategy_names()}
    strategies.add(ExternalProtocolStrategy)
    for cls in strategies:
        for klass in cls.__mro__:
            tracer.patch_method(klass, "on_tick", "scheduling.on_tick")
    for klass in CommonPoolStrategy.__subclasses__() + [CommonPoolStrategy]:
        tracer.patch_method(klass, "elastic_tick", "scheduling.elastic_tick")

    families: list[type] = []
    todo = [CheckFamily]
    while todo:
        cls = todo.pop()
        families.append(cls)
        todo.extend(cls.__subclasses__())
    for cls in families:
        if inspect.isgeneratorfunction(cls.__dict__.get("run")):
            tracer.patch_method(cls, "run", "checksuite.run", "gen")

    tracer.patch_method(JenkinsServer, "trigger", "ci.trigger", "count")
    tracer.patch_method(Kadeploy, "deploy", "kadeploy.deploy", "count")
    tracer.patch_method(FaultInjector, "inject", "faults.inject", "count")
    tracer.patch_method(BugTracker, "file_from_outcome",
                        "core.file_from_outcome", "count")
    tracer.patch_function(generator, "build_grid5000", "testbed.build")
    tracer.patch_method(FrameworkBuilder, "build", "core.build")
    tracer.patch_method(CampaignStore, "record", "core.store_record")
    tracer.patch_method(Session, "decision_round", "service.decision_round")
    return tracer
