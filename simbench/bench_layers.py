"""Per-layer host-time split, measured from outside the simulator.

:class:`LayerProfiler` replaces the public entry points of each simulator
layer with timing wrappers *at class level* (``setattr`` on the class, or on
every loaded module that holds a function), so it keeps working when the hot
classes gain ``__slots__``, and :meth:`LayerProfiler.uninstall` puts every
original object back.  Nothing under ``src/`` is edited.

Each layer keeps a call count, an inclusive total and a *self* time.  Self
time comes from a call stack: a wrapper's elapsed time is added to its
parent's child time, and a layer's self time is its elapsed time minus the
time its wrapped children took.  The self times of all layers therefore add
up to the traced run without double counting.  Coarse spans (set-up, run,
check, each sweep run) are kept in memory with parent ids and written out
by the driver when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import statistics
import sys
import time
from typing import Callable, Dict, List

import repro
from repro.cluster import dispatch
from repro.cluster.cluster import Cluster
from repro.core.machine import MMachine
from repro.core.trace import Tracer
from repro.isa import assembler
from repro.memory.memory_system import MemorySystem
from repro.network.interface import NetworkInterface
from repro.network.mesh import MeshNetwork
from repro.node.node import Node
from repro.report import compare
from repro.report import render as report_render
from repro.runtime.native import NativeHandler
from repro.sweep import runner as sweep_runner
from repro.sweep.runner import SweepRunner
from repro.switches.crossbar import Crossbar

#: Hot methods: ``(class, attribute, layer)``.
HOT_METHODS = [
    (Node, "tick", "node"),
    (Cluster, "apply_writebacks", "cluster.writeback"),
    (Crossbar, "deliver", "switches.deliver"),
    (MemorySystem, "tick", "memory.tick"),
    (MemorySystem, "submit", "memory.submit"),
    (NetworkInterface, "tick", "network.interface_tick"),
    (MeshNetwork, "tick", "network.mesh_tick"),
    (Tracer, "record", "trace.record"),
]
#: The run loops: scheduler self time plus the machine's counters.
RUN_METHODS = ["run", "run_until", "run_until_quiescent", "run_until_user_done"]
#: Set-up and workflow methods: ``(class, attribute, layer)``.
COLD_METHODS = [
    (MMachine, "__init__", "setup.machine_build"),
    (MMachine, "load_hthread", "setup.load"),
    (SweepRunner, "run", "sweep"),
]
#: Module-level functions: ``(module, name, layer)``.  Every loaded module
#: that imported the function by name is patched too.
FUNCTIONS = [
    (dispatch, "compile_program", "setup.dispatch_compile"),
    (assembler, "assemble", "setup.assemble"),
    (sweep_runner, "execute_run", "sweep"),
    (report_render, "render_report", "report.render"),
    (compare, "evaluate", "report.evaluate"),
]
#: Machine counters summed over every run-loop call (deltas).
COUNTERS = ["node_cycles", "node_ticks", "cycles_skipped", "messages",
            "nacks", "received", "rejections"]


def handler_classes() -> List[type]:
    """``NativeHandler`` and every loaded subclass that defines ``tick``."""
    found, pending = [], [NativeHandler]
    while pending:
        cls = pending.pop()
        if "tick" in cls.__dict__:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def machine_counters(machine: MMachine) -> Dict[str, int]:
    nodes = machine.nodes
    nets = [node.net for node in nodes]
    kernel = machine.kernel
    return {
        "node_cycles": machine.cycle * len(nodes),
        # The reference loop ticks every node on every cycle.
        "node_ticks": kernel.node_ticks if kernel is not None else machine.cycle * len(nodes),
        "cycles_skipped": kernel.cycles_skipped if kernel is not None else 0,
        "messages": sum(net.messages_sent for net in nets),
        "nacks": sum(net.nacks_received for net in nets),
        "received": sum(net.messages_received for net in nets),
        "rejections": sum(net.enqueue_rejections for net in nets),
    }


def import_all_repro_modules() -> None:
    """Load every ``repro`` module."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


class LayerProfiler:
    """Class-level timing wrappers around each layer's entry points."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: layer -> ``[calls, total_s, self_s, depth, hits]``.
        self.stats: Dict[str, list] = {}
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        #: Child-time accumulators of the open wrapped calls; the bottom
        #: entry collects the time of top-level calls.
        self._stack: List[float] = [0.0]
        self.spans: List[dict] = []
        self._open_spans: List[int] = []
        self._patches: List[tuple] = []

    # -- statistics ----------------------------------------------------------

    def stat(self, layer: str) -> list:
        return self.stats.setdefault(layer, [0, 0.0, 0.0, 0, 0])

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0, stat[3], 0]
        self.counters = dict.fromkeys(COUNTERS, 0)

    def calls(self, layer: str) -> int:
        return self.stats.get(layer, [0])[0]

    def self_s(self, *layers: str) -> float:
        return sum(self.stats[layer][2] for layer in layers if layer in self.stats)

    def hits(self, layer: str) -> int:
        return self.stats.get(layer, [0, 0, 0, 0, 0])[4]

    # -- spans ---------------------------------------------------------------

    def open_span(self, name: str, **info) -> int:
        span_id = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append({"id": span_id, "parent": parent, "name": name,
                           "start": self.clock(), "end": None, **info})
        self._open_spans.append(span_id)
        return span_id

    def close_span(self, span_id: int) -> None:
        self.spans[span_id]["end"] = self.clock()
        self._open_spans.remove(span_id)

    # -- wrappers ------------------------------------------------------------

    def _plain(self, fn: Callable, stat: list) -> Callable:
        stack, clock = self._stack, self.clock

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - stack.pop()
                stack[-1] += elapsed
        return wrapper

    def _hits(self, fn: Callable, stat: list) -> Callable:
        """Like :meth:`_plain`, also counting calls that returned true."""
        stack, clock = self._stack, self.clock

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if result:
                    stat[4] += 1
                return result
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - stack.pop()
                stack[-1] += elapsed
        return wrapper

    def _reentrant(self, fn: Callable, stat: list) -> Callable:
        """Like :meth:`_plain`, but a call made from inside the same layer
        (a subclass ``tick`` calling ``super().tick``) is not counted again."""
        stack, clock = self._stack, self.clock

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            stat[3] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[3] -= 1
                if not stat[3]:
                    stat[0] += 1
                    stat[1] += elapsed
                stat[2] += elapsed - stack.pop()
                stack[-1] += elapsed
        return wrapper

    def _hooked(self, fn: Callable, stat: list, before: Callable, after: Callable) -> Callable:
        """A cold-path wrapper with hooks around the timed call."""
        inner = self._plain(fn, stat)

        def wrapper(*args, **kwargs):
            state = before(*args, **kwargs)
            try:
                return inner(*args, **kwargs)
            finally:
                after(state, *args)
        return wrapper

    def _run_hooks(self):
        def before(machine, *args, **kwargs):
            return machine_counters(machine)

        def after(start, machine, *args):
            end = machine_counters(machine)
            for key in COUNTERS:
                self.counters[key] += end[key] - start[key]
        return before, after

    def _sweep_run_hooks(self):
        def before(spec, *args, **kwargs):
            return self.open_span("sweep-run", run_id=spec.run_id)

        def after(span_id, *args):
            self.close_span(span_id)
        return before, after

    # -- install / uninstall -------------------------------------------------

    def _patch_method(self, owner: type, name: str, wrapper_factory) -> None:
        original = owner.__dict__[name]
        wrapper = functools.wraps(original)(wrapper_factory(original))
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _patch_function(self, module, name: str, layer: str, wrap) -> None:
        original = getattr(module, name)
        wrapper = functools.wraps(original)(wrap(original, self.stat(layer)))
        for holder in list(sys.modules.values()):
            if getattr(holder, name, None) is original:
                self._patches.append((holder, name, original))
                setattr(holder, name, wrapper)

    def install(self) -> "LayerProfiler":
        if self._patches:
            raise RuntimeError("profiler is already installed")
        # With every module loaded first, no module can import a wrapped
        # function by name while installed and keep the wrapper afterwards.
        import_all_repro_modules()
        for owner, name, layer in HOT_METHODS:
            stat = self.stat(layer)
            self._patch_method(owner, name, lambda fn, stat=stat: self._plain(fn, stat))
        issue = self.stat("cluster.issue")
        self._patch_method(Cluster, "issue", lambda fn: self._hits(fn, issue))
        handler = self.stat("runtime.handler")
        for cls in handler_classes():
            self._patch_method(cls, "tick", lambda fn: self._reentrant(fn, handler))
        before, after = self._run_hooks()
        scheduler = self.stat("scheduler")
        for name in RUN_METHODS:
            self._patch_method(MMachine, name,
                               lambda fn: self._hooked(fn, scheduler, before, after))
        for owner, name, layer in COLD_METHODS:
            stat = self.stat(layer)
            self._patch_method(owner, name, lambda fn, stat=stat: self._plain(fn, stat))
        for module, name, layer in FUNCTIONS:
            if name == "execute_run":
                span_before, span_after = self._sweep_run_hooks()
                self._patch_function(
                    module, name, layer,
                    lambda fn, stat: self._hooked(fn, stat, span_before, span_after))
            else:
                self._patch_function(module, name, layer, self._plain)
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def __enter__(self) -> "LayerProfiler":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """The per-layer metrics of what ran since the last :meth:`reset`."""
        counters = self.counters
        issue_calls = self.calls("cluster.issue")
        received = counters["received"]
        return {
            "cluster.issue_s": self.self_s("cluster.issue"),
            "cluster.issue_calls": issue_calls,
            "cluster.issue_us_per_call":
                1e6 * self.self_s("cluster.issue") / issue_calls if issue_calls else 0.0,
            "cluster.issue_hit_frac":
                self.hits("cluster.issue") / issue_calls if issue_calls else 0.0,
            "cluster.writeback_s": self.self_s("cluster.writeback"),
            "node.tick_calls": self.calls("node"),
            "node.self_s": self.self_s("node"),
            "scheduler.self_s": self.self_s("scheduler"),
            "scheduler.node_ticks": counters["node_ticks"],
            "scheduler.awake_frac":
                counters["node_ticks"] / counters["node_cycles"] if counters["node_cycles"]
                else 0.0,
            "scheduler.cycles_skipped": counters["cycles_skipped"],
            "memory.tick_s": self.self_s("memory.tick"),
            "memory.submit_calls": self.calls("memory.submit"),
            "network.mesh_tick_s": self.self_s("network.mesh_tick"),
            "network.interface_tick_s": self.self_s("network.interface_tick"),
            "network.messages": counters["messages"],
            "network.nacks": counters["nacks"],
            "network.first_try_frac":
                (received - counters["rejections"]) / received if received else 1.0,
            "runtime.handler_s": self.self_s("runtime.handler"),
            "runtime.handler_calls": self.calls("runtime.handler"),
            "switches.deliver_s": self.self_s("switches.deliver"),
            "trace.record_s": self.self_s("trace.record"),
            "trace.events": self.calls("trace.record"),
            "setup.machine_build_s": self.self_s("setup.machine_build"),
            "setup.assemble_s": self.self_s("setup.assemble"),
            "setup.load_s": self.self_s("setup.load"),
            "setup.dispatch_compile_s": self.self_s("setup.dispatch_compile"),
            "sweep.self_s": self.self_s("sweep"),
            "report.render_s": self.self_s("report.render"),
            "report.evaluate_s": self.self_s("report.evaluate"),
        }


def calibrate_wrapper_cost(calls: int = 50_000, rounds: int = 5) -> float:
    """Host seconds one wrapped call adds over a bare call (median of
    *rounds* measurements of *calls* calls to a no-op)."""
    def noop():
        return None

    profiler = LayerProfiler()
    wrapped = profiler._plain(noop, profiler.stat("calibration"))
    clock = time.perf_counter
    costs = []
    for _ in range(rounds):
        start = clock()
        for _ in range(calls):
            noop()
        bare = clock() - start
        start = clock()
        for _ in range(calls):
            wrapped()
        costs.append(max(clock() - start - bare, 0.0) / calls)
    return statistics.median(costs)


def wrapped_targets() -> List[tuple]:
    """Every ``(owner, name)`` the profiler replaces while installed."""
    targets = [(owner, name) for owner, name, _ in HOT_METHODS + COLD_METHODS]
    targets.append((Cluster, "issue"))
    targets += [(cls, "tick") for cls in handler_classes()]
    targets += [(MMachine, name) for name in RUN_METHODS]
    targets += [(module, name) for module, name, _ in FUNCTIONS]
    return targets
