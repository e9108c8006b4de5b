"""Layer tracing for the benchmark's traced run.

Before a traced repetition builds its scenario, :class:`Tracer` wraps the
program's layer entry points *at class level* (plus a few module-level
names the drivers call through).  Emitters and bus handlers are bound when
they subscribe, and the engine captures callbacks when they are scheduled,
so the wrapping has to be in place before ``build_scenario`` runs; it is
removed again after the repetition.  Nothing under ``src/`` is edited.

Every wrapped call records one span — name, start, end, parent — into flat
arrays (:class:`SpanLog`).  After the repetition :func:`analyse` computes
each span's *self time*: its duration minus the part its child spans
cover.  Spans carry a layer and inherit a *phase* (setup / run / report)
from the nearest ancestor that marks one, so the self times of the
run-phase spans add up exactly to the traced run phase; time in spans of a
module outside the named layers is the stated unattributed remainder.

Three kinds of wrapping:

* fixed entry points (:data:`SPANS`), each a span of a given layer;
* dynamic ones: every callback scheduled on the engine, every subscriber
  handed to an event bus and every live emitter the bus hands out is
  wrapped, its layer taken from the module it comes from
  (:data:`MODULE_LAYERS`);
* counters (:data:`COUNTERS`): hot entry points (one call per station per
  slot) that are only counted, because a span there would swamp the work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["SpanLog", "Analysis", "analyse", "Tracer", "layer_of_module",
           "SPANS", "COUNTERS", "MODULE_LAYERS"]

_clock = time.perf_counter

#: phase names; spans without a marker inherit their parent's phase, and a
#: top-level span without one belongs to the run phase
SETUP, RUN, REPORT = "setup", "run", "report"

#: module prefix -> layer, first match wins (the layers of the README table)
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.engine", "engine"),
    ("repro.sim.timers", "recovery"),
    ("repro.core.recovery", "recovery"),
    ("repro.core.adaptive", "adaptive"),
    ("repro.core.station", "dataplane"),
    ("repro.core.sat", "sat"),
    ("repro.core.ring", "ring"),
    ("repro.core.invariants", "invariants"),
    ("repro.phy.impairments", "phy"),
    ("repro.phy.channel", "phy"),
    # generator processes are the only kernel processes these workloads run
    ("repro.sim.process", "traffic"),
    ("repro.traffic", "traffic"),
    ("repro.events.bus", "bus"),
    ("repro.events.trace_adapter", "trace"),
    ("repro.sim.trace", "trace"),
    ("repro.analysis.netmetrics", "netmetrics"),
    ("repro.obs", "obs"),
    ("repro.fuzz.oracles", "oracles"),
)

#: layers whose run-phase self time is attributed; anything else is the
#: unattributed remainder
NAMED_LAYERS = ("engine", "ring", "dataplane", "sat", "recovery", "adaptive",
                "phy", "traffic", "bus", "netmetrics", "obs", "trace",
                "invariants", "oracles", "report")

#: fixed span entry points: (module:attribute path, layer, phase marker)
SPANS: Tuple[Tuple[str, str, Optional[str]], ...] = (
    ("repro.sim.engine:Engine.run", "engine", RUN),
    ("repro.sim.engine:Engine.schedule_at", "engine", None),
    ("repro.sim.engine:EventHandle.cancel", "engine", None),
    ("repro.core.ring:WRTRingNetwork._decide_slot", "dataplane", None),
    ("repro.core.ring:WRTRingNetwork._apply_slot", "dataplane", None),
    ("repro.core.ring:WRTRingNetwork._sat_step", "sat", None),
    ("repro.core.recovery:RecoveryManager.restart_timer", "recovery", None),
    ("repro.core.recovery:RecoveryManager._on_timer_expired", "recovery", None),
    ("repro.core.adaptive:RttEstimator.observe", "adaptive", None),
    ("repro.core.adaptive:RttEstimator.rto", "adaptive", None),
    ("repro.core.adaptive:RttEstimator.on_timeout", "adaptive", None),
    ("repro.phy.impairments:ChannelImpairments.loss", "phy", None),
    ("repro.phy.channel:SlottedChannel.transmit", "phy", None),
    ("repro.phy.channel:SlottedChannel.resolve_slot", "phy", None),
    ("repro.traffic.generators:BacklogSource.on_tick", "traffic", None),
    ("repro.sim.trace:TraceRecorder.record_fields", "trace", None),
    ("repro.fuzz.oracles:ClockProbe.checkpoint", "oracles", None),
    ("repro.fuzz.runner:check_conservation", "oracles", None),
    ("repro.fuzz.runner:check_no_undeliverable", "oracles", None),
    ("repro.fuzz.runner:check_refused_calls_silent", "oracles", None),
    ("repro.fuzz.runner:check_rotation_bound", "oracles", None),
    ("repro.fuzz.runner:check_no_false_triggers", "oracles", None),
    ("repro.fuzz.runner:run_case", "fuzz", RUN),
    # set-up: the build and its three stages
    ("repro.scenarios:build_scenario", "build", SETUP),
    ("repro.fuzz.runner:build_scenario", "build", SETUP),
    ("repro.scenarios:_build_positions", "graph", None),
    ("repro.phy.topology:ConnectivityGraph.__init__", "graph", None),
    ("repro.scenarios:construct_ring", "graph", None),
    ("repro.core.ring:WRTRingNetwork.__init__", "network", None),
    ("repro.scenarios:_attach_traffic", "build_traffic", None),
    # report
    ("repro.scenarios:ScenarioResult.summary", "report", None),
    ("repro.fuzz.runner:hash_trace", "report", REPORT),
    ("repro.obs.registry:MetricsRegistry.snapshot", "report", None),
)

#: counted-only entry points: (module:attribute path, counter name)
COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("repro.core.station:WRTRingStation._decide_class", "decisions"),
    ("repro.core.sat:SAT.depart", "handoffs"),
    ("repro.events.bus:EventBus._notify", "rebinds"),
)

#: name prefix of the spans around bus subscriber callbacks
SUBSCRIBER = "sub:"


def layer_of_module(module: str) -> str:
    """The layer a module belongs to; unknown modules name themselves."""
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return module or "?"


def _describe(fn: Any) -> Tuple[str, str]:
    """(qualified name, module) of a callable."""
    func = getattr(fn, "__func__", fn)
    func = getattr(func, "func", func)          # functools.partial
    func = inspect.unwrap(func)                 # our own fixed-point spans
    name = getattr(func, "__qualname__", None) or type(func).__name__
    module = getattr(func, "__module__", None) or type(func).__module__
    return name, module


class SpanLog:
    """Spans of one repetition in flat arrays, plus counters.

    Name ids index :attr:`names`, a table of (name, layer, phase marker).
    A span's parent is the span open when it started (-1 at top level);
    parents always precede their children.
    """

    def __init__(self) -> None:
        self.names: List[Tuple[str, str, Optional[str]]] = []
        self._ids: Dict[Tuple[str, str, Optional[str]], int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Dict[str, List[int]] = {}

    def __len__(self) -> int:
        return len(self.end)

    def name_id(self, name: str, layer: str,
                phase: Optional[str] = None) -> int:
        key = (name, layer, phase)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def counter(self, name: str) -> List[int]:
        """A one-element cell the counting wrappers increment."""
        return self.counts.setdefault(name, [0])

    def add(self, nid: int, start: float, end: float, parent: int) -> int:
        """Append a finished span (used by tests and synthetic nests)."""
        self.name.append(nid)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.end) - 1

    def wrap(self, fn: Callable, nid: int, named: bool = True) -> Callable:
        """``fn`` recording one span per call.  ``named`` copies ``fn``'s
        name and module onto the wrapper (skipped for the per-call dynamic
        wrappers, where it would cost more than the span)."""
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                        self.end)
        stack = self._stack

        def spanned(*args, **kwargs):
            idx = len(ends)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(_clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = _clock()
                stack.pop()

        return functools.wraps(fn)(spanned) if named else spanned

    def write_csv(self, path) -> int:
        """Write the spans as CSV (times in microseconds from the first
        span's start); returns the number written."""
        origin = self.start[0] if len(self) else 0.0
        lines = ["name,layer,phase,start_us,end_us,parent"]
        for i in range(len(self)):
            name, layer, phase = self.names[self.name[i]]
            lines.append(f"{name},{layer},{phase or ''},"
                         f"{(self.start[i] - origin) * 1e6:.3f},"
                         f"{(self.end[i] - origin) * 1e6:.3f},"
                         f"{self.parent[i]}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return len(self)


@dataclass
class Analysis:
    """Self times of one repetition's spans, in host seconds."""

    #: phase -> summed self time of its spans (= the phase's traced time)
    phase_s: Dict[str, float] = field(default_factory=dict)
    #: (phase, layer) -> summed self time
    layer_s: Dict[Tuple[str, str], float] = field(default_factory=dict)
    #: (phase, name) -> summed self time
    name_s: Dict[Tuple[str, str], float] = field(default_factory=dict)
    #: (phase, name) -> number of spans
    name_n: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def layer(self, layer: str, phase: str = RUN) -> float:
        return self.layer_s.get((phase, layer), 0.0)

    def self_of(self, name: str, phase: str = RUN) -> float:
        return self.name_s.get((phase, name), 0.0)

    def count(self, name: str, phase: Optional[str] = None) -> int:
        if phase is not None:
            return self.name_n.get((phase, name), 0)
        return sum(n for (_, nm), n in self.name_n.items() if nm == name)

    def unattributed(self, phase: str = RUN) -> float:
        return sum(s for (ph, layer), s in self.layer_s.items()
                   if ph == phase and layer not in NAMED_LAYERS)


def analyse(log: SpanLog) -> Analysis:
    """Self time per span = duration minus what its children cover.

    Spans of one thread nest strictly, so the children of a span never
    overlap and the part of its interval they cover is their summed
    duration.
    """
    n = len(log)
    names, parent, start, end = log.names, log.parent, log.start, log.end
    cover = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            cover[p] += end[i] - start[i]
    phase: List[str] = [RUN] * n
    out = Analysis()
    for i in range(n):
        name, layer, marker = names[log.name[i]]
        p = parent[i]
        ph = marker or (phase[p] if p >= 0 else RUN)
        phase[i] = ph
        own = (end[i] - start[i]) - cover[i]
        out.phase_s[ph] = out.phase_s.get(ph, 0.0) + own
        key = (ph, layer)
        out.layer_s[key] = out.layer_s.get(key, 0.0) + own
        key = (ph, name)
        out.name_s[key] = out.name_s.get(key, 0.0) + own
        out.name_n[key] = out.name_n.get(key, 0) + 1
    return out


# ----------------------------------------------------------------------
def _resolve(path: str):
    """(owner, attribute) for ``module:Class.attr`` or ``module:func``."""
    module_name, _, attr_path = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *owners, attr = attr_path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Installs the wrappers into the loaded program and removes them."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._saved: List[Tuple[Any, str, Any]] = []
        #: entry points the source tree does not have (older commits)
        self.missing: List[str] = []
        self._dynamic: Dict[Any, int] = {}

    # -- installation --------------------------------------------------
    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def _original(self, path: str):
        try:
            owner, attr = _resolve(path)
            fn = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(path)
            return None, None, None
        if not inspect.isfunction(fn):
            self.missing.append(path)
            return None, None, None
        return owner, attr, fn

    def install(self) -> "Tracer":
        log = self.log
        for path, layer, phase in SPANS:
            owner, attr, fn = self._original(path)
            if fn is None:
                continue
            name = path.partition(":")[2]
            if path.endswith("WRTRingNetwork._decide_slot"):
                fn = self._deciding(fn)
            fn = log.wrap(fn, log.name_id(name, layer, phase))
            if path.endswith("Engine.schedule_at"):
                fn = self._scheduling(fn)
            self._patch(owner, attr, fn)
        for path, counter in COUNTERS:
            owner, attr, fn = self._original(path)
            if fn is None:
                continue
            self._patch(owner, attr, _counting(fn, log.counter(counter)))
        self._install_bus()
        return self

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- dynamic wrapping ------------------------------------------------
    def _callable_span(self, fn: Callable, prefix: str = "") -> Callable:
        func = getattr(fn, "__func__", fn)
        func = getattr(func, "__wrapped__", func)
        key = (prefix, getattr(func, "__code__", None) or type(func))
        nid = self._dynamic.get(key)
        if nid is None:
            name, module = _describe(fn)
            nid = self._dynamic[key] = self.log.name_id(
                prefix + name, layer_of_module(module))
        return self.log.wrap(fn, nid, named=False)

    def _scheduling(self, schedule_at: Callable) -> Callable:
        """Wrap every scheduled callback (outside the scheduling span, so
        the agenda push is timed without the wrapping)."""
        wrap_callback = self._callable_span

        @functools.wraps(schedule_at)
        def traced(engine, time, callback, *args, priority=0):
            return schedule_at(engine, time, wrap_callback(callback), *args,
                               priority=priority)

        return traced

    def _deciding(self, decide: Callable) -> Callable:
        visits = self.log.counter("visits")
        useful = self.log.counter("useful")

        @functools.wraps(decide)
        def traced(net, members, *args, **kwargs):
            out = decide(net, members, *args, **kwargs)
            picks = net._slot_picks
            visits[0] += len(members)
            useful[0] += len(picks) - picks.count(net._PICK_IDLE)
            return out

        return traced

    def _install_bus(self) -> None:
        owner, _, subscribe = self._original("repro.events.bus:EventBus.subscribe")
        _, _, emitter = self._original("repro.events.bus:EventBus.emitter")
        if subscribe is None or emitter is None:
            return
        wrap_callback = self._callable_span
        emit_ids: Dict[Any, int] = {}
        log = self.log

        @functools.wraps(subscribe)
        def traced_subscribe(bus, etype, callback):
            return subscribe(bus, etype, wrap_callback(callback, SUBSCRIBER))

        @functools.wraps(emitter)
        def traced_emitter(bus, etype):
            emit = emitter(bus, etype)
            if not emit:        # the shared falsy no-op stays as it is
                return emit
            nid = emit_ids.get(etype)
            if nid is None:
                nid = emit_ids[etype] = log.name_id(
                    f"emit:{etype.__name__}", "bus")
            return log.wrap(emit, nid, named=False)

        self._patch(owner, "subscribe", traced_subscribe)
        self._patch(owner, "emitter", traced_emitter)


def _counting(fn: Callable, cell: List[int]) -> Callable:
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    return counted
